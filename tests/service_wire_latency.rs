//! Response framing latency against a live server: a full ranking
//! line larger than 8 KiB must reach a persistent connection without
//! waiting on the peer's delayed ACK. The server writes each response
//! line — newline included — in one `write_all` with `TCP_NODELAY`
//! set, so the client sees the whole line about one engine hit after
//! asking. Split the newline into a second write and Nagle's algorithm
//! holds it for the client's delayed ACK: about 40 ms per request.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use biorank::mediator::Mediator;
use biorank::prelude::*;
use biorank::service::wire::{self, Request, RequestBody, ResponseBody};
use biorank::service::{
    AdaptiveConfig, Client, Method, QueryEngine, QueryRequest, RankerSpec, ServeOptions, Server,
    ServerHandle, Trials,
};

/// `std::io::BufWriter`'s default capacity. A buffered writer passes a
/// line longer than this straight to the socket and keeps the `\n` for
/// a second write, so the test needs lines past it.
const BUFWRITER_BYTES: usize = 8 * 1024;

/// Cached repeats timed after the cold query.
const REPEATS: usize = 31;

/// The stall is about 40 ms per request and a cache hit about 0.5 ms;
/// the bound sits between them with room for a loaded machine.
const MEDIAN_BOUND: Duration = Duration::from_millis(20);

fn start_server() -> ServerHandle {
    let world = World::generate(WorldParams::default());
    let mediator = Mediator::new(biorank_schema_with_ontology().schema, world.registry());
    let engine = Arc::new(QueryEngine::new(mediator));
    let server = Server::bind(
        "127.0.0.1:0",
        engine,
        ServeOptions {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("bind ephemeral");
    let handle = server.handle().expect("server handle");
    std::thread::spawn(move || server.run().expect("server run"));
    handle
}

/// The full ABCC8 ranking (97 answers) under the serving defaults.
fn full_abcc8() -> QueryRequest {
    QueryRequest::protein_functions(
        "ABCC8",
        RankerSpec {
            trials: Trials::Adaptive(AdaptiveConfig::default()),
            ..RankerSpec::new(Method::Reliability)
        },
    )
}

#[test]
fn full_ranking_lines_arrive_without_a_nagle_stall() {
    let handle = start_server();
    // A third-party client: a persistent socket with Nagle left on.
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(false).expect("nodelay off");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let req = full_abcc8();

    let mut rtts = Vec::with_capacity(REPEATS);
    let mut cold_answers = None;
    for id in 0..=REPEATS as u64 {
        let mut line = wire::encode_request(&Request {
            id,
            body: RequestBody::Query(req.clone()),
        });
        line.push('\n');
        let start = Instant::now();
        (&stream).write_all(line.as_bytes()).expect("send request");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        let rtt = start.elapsed();

        assert!(
            response.len() > BUFWRITER_BYTES,
            "response {id} is {} bytes; the test needs lines past the BufWriter capacity",
            response.len()
        );
        let decoded = wire::decode_response(response.trim_end()).expect("decodes");
        assert_eq!(decoded.id, id);
        let Ok(ResponseBody::Query(resp)) = decoded.outcome else {
            panic!("query {id} failed: {response}");
        };
        assert_eq!(resp.total_answers, 97, "Table 1: ABCC8 → 97 functions");
        match &cold_answers {
            None => cold_answers = Some(resp.answers),
            Some(cold) => {
                assert!(resp.cached_scores, "repeat {id} is a result cache hit");
                assert_eq!(&resp.answers, cold);
                rtts.push(rtt);
            }
        }
    }

    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < MEDIAN_BOUND,
        "median cached round trip {median:?} ≥ {MEDIAN_BOUND:?}: response lines stall \
         (all: {rtts:?})"
    );
    handle.shutdown();
}

#[test]
fn pipelined_full_rankings_match_sequential_calls() {
    let handle = start_server();
    let req = full_abcc8();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let sequential: Vec<_> = (0..16)
        .map(|_| client.query(&req).expect("sequential query"))
        .collect();
    assert_eq!(sequential[0].total_answers, 97);

    let batch = client.query_batch(&vec![req; 16]).expect("pipelined batch");
    assert_eq!(batch.len(), sequential.len());
    for (pipelined, one) in batch.into_iter().zip(&sequential) {
        let pipelined = pipelined.expect("pipelined query");
        assert_eq!(pipelined.total_answers, one.total_answers);
        assert_eq!(pipelined.answers, one.answers);
    }
    handle.shutdown();
}
