//! The closed-loop load generator: one persistent connection per
//! client thread, each sending its next request only after the last
//! answer arrived.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use biorank_service::wire::{self, Request, RequestBody, ResponseBody};
use biorank_service::{Client, ClientOptions, QueryRequest, QueryResponse, RankerSpec};

use crate::reference::{self, CheckKey};
use crate::stats::{Deck, Rng};

const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// What one workload sends.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// The `top` every request carries (`None`: full rankings).
    pub top: Option<usize>,
    /// A fresh Monte Carlo seed per request instead of the default.
    pub fresh_seeds: bool,
}

/// One round trip split at the socket, from the traced client.
#[derive(Clone, Copy, Debug)]
pub struct Split {
    /// Writing the request line.
    pub write_us: f64,
    /// From the end of the write to the first response byte.
    pub first_byte_us: f64,
    /// From the first response byte to the terminating newline.
    pub line_tail_us: f64,
    /// Client-side `decode_response` of the line.
    pub decode_us: f64,
    /// Response line length, newline included.
    pub bytes: usize,
}

/// A successful response, reduced to what the checks and metrics use.
#[derive(Debug)]
pub struct Served {
    /// What the in-process cross-check must reproduce.
    pub check: CheckKey,
    /// [`reference::fingerprint`] of the served answers.
    pub fingerprint: u64,
    /// The response's `total_answers`.
    pub total: usize,
    /// Answers returned.
    pub returned: usize,
    /// Equality with the warm-up answer for the protein, when the
    /// workload demands it.
    pub matches_warmup: Option<bool>,
    /// The engine time the server reports.
    pub micros: u64,
    /// The socket split, for traced requests.
    pub split: Option<Split>,
}

impl Served {
    /// Summarises one response to the request for `protein` with
    /// `seed` in `shape`; `warmup` is the answer it must equal, if any.
    pub fn new(
        protein: usize,
        seed: u64,
        shape: Shape,
        resp: &QueryResponse,
        warmup: Option<&QueryResponse>,
        split: Option<Split>,
    ) -> Served {
        Served {
            check: CheckKey {
                protein,
                seed,
                top: shape.top,
                strategy: resp.plan.map(|p| p.strategy),
            },
            fingerprint: reference::fingerprint(&resp.answers),
            total: resp.total_answers,
            returned: resp.answers.len(),
            matches_warmup: warmup.map(|w| {
                resp.answers == w.answers
                    && resp.certificate == w.certificate
                    && resp.total_answers == w.total_answers
            }),
            micros: resp.micros,
            split,
        }
    }
}

/// One attempted request.
pub struct Record {
    /// Call to decoded response, in microseconds.
    pub latency_us: f64,
    /// The response, or why there was none.
    pub outcome: Result<Served, String>,
}

/// Everything one load phase observed.
pub struct Load {
    /// Every request attempted, in no particular order.
    pub records: Vec<Record>,
    /// Wall time from the start signal until the last client stopped.
    pub elapsed_s: f64,
}

impl Load {
    /// Requests that returned an answer.
    pub fn ok(&self) -> impl Iterator<Item = &Served> {
        self.records.iter().filter_map(|r| r.outcome.as_ref().ok())
    }

    /// Round-trip times of the requests that returned an answer.
    pub fn ok_latencies_us(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.outcome.is_ok())
            .map(|r| r.latency_us)
            .collect()
    }
}

/// How the clients of one phase talk to the server.
#[derive(Clone, Copy, Debug)]
pub enum Transport {
    /// The public [`Client`].
    Public,
    /// A raw socket client built on `wire::encode_request` and
    /// `wire::decode_response` that times each part of the round trip.
    Traced,
}

/// The inputs of one load phase.
pub struct Phase<'a> {
    /// Where the server listens.
    pub addr: SocketAddr,
    /// Concurrent connections, one client thread each.
    pub clients: usize,
    /// How long the clients keep sending.
    pub seconds: f64,
    /// The workload's request shape.
    pub shape: Shape,
    /// The workload seed.
    pub seed: u64,
    /// Distinguishes the draws of phases within one run.
    pub phase: u64,
    /// The proteins requests are drawn from.
    pub proteins: &'a [String],
    /// Warm-up answers each response must equal, when the workload
    /// promises result-cache hits.
    pub warmup: Option<&'a [QueryResponse]>,
    /// How the clients connect.
    pub transport: Transport,
}

/// Runs one closed-loop phase and returns every request's record.
pub fn run(phase: &Phase<'_>) -> Result<Load, String> {
    let barrier = Barrier::new(phase.clients + 1);
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..phase.clients)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || client_loop(phase, c as u64, barrier))
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut records = Vec::new();
        let mut error = None;
        for c in clients {
            match c.join().expect("client thread panicked") {
                Ok(mut r) => records.append(&mut r),
                Err(e) => error = Some(e),
            }
        }
        let elapsed_s = start.elapsed().as_secs_f64();
        match error {
            Some(e) => Err(e),
            None => Ok(Load { records, elapsed_s }),
        }
    })
}

fn client_loop(phase: &Phase<'_>, client: u64, barrier: &Barrier) -> Result<Vec<Record>, String> {
    let stream = 1_000 * phase.phase + 2 * client;
    let mut deck = Deck::new(phase.proteins.len(), Rng::new(phase.seed, stream));
    let mut seeds = Rng::new(phase.seed, stream + 1);
    let conn = Conn::open(phase.addr, phase.transport);
    barrier.wait();
    let mut conn = conn?;
    let deadline = Instant::now() + Duration::from_secs_f64(phase.seconds);
    let mut records = Vec::new();
    while Instant::now() < deadline {
        let protein = deck.draw();
        let seed = if phase.shape.fresh_seeds {
            fresh_seed(&mut seeds)
        } else {
            RankerSpec::DEFAULT_SEED
        };
        let req = reference::request(&phase.proteins[protein], phase.shape.top, seed);
        let t0 = Instant::now();
        let answer = conn.call(&req);
        let latency_us = t0.elapsed().as_secs_f64() * 1e6;
        let outcome = answer.map(|(resp, split)| {
            let warmup = phase.warmup.map(|w| &w[protein]);
            Served::new(protein, seed, phase.shape, &resp, warmup, split)
        });
        let failed = outcome.is_err();
        records.push(Record {
            latency_us,
            outcome,
        });
        if failed {
            // The connection may be unusable after an error.
            conn = Conn::open(phase.addr, phase.transport)?;
        }
    }
    Ok(records)
}

/// A per-request Monte Carlo seed that never repeats the default seed
/// the warm-up cached.
fn fresh_seed(rng: &mut Rng) -> u64 {
    loop {
        let seed = rng.next_u64();
        if seed != RankerSpec::DEFAULT_SEED {
            return seed;
        }
    }
}

enum Conn {
    Public(Client),
    Traced(RawClient),
}

impl Conn {
    fn open(addr: SocketAddr, transport: Transport) -> Result<Conn, String> {
        match transport {
            Transport::Public => Client::connect_with(
                addr,
                ClientOptions {
                    connect_timeout: Some(IO_TIMEOUT),
                    io_timeout: Some(IO_TIMEOUT),
                },
            )
            .map(Conn::Public),
            Transport::Traced => RawClient::connect(addr).map(Conn::Traced),
        }
        .map_err(|e| format!("connect {addr}: {e}"))
    }

    fn call(&mut self, req: &QueryRequest) -> Result<(QueryResponse, Option<Split>), String> {
        match self {
            Conn::Public(client) => client
                .query(req)
                .map(|resp| (resp, None))
                .map_err(|e| e.to_string()),
            Conn::Traced(raw) => raw.call(req).map(|(resp, split)| (resp, Some(split))),
        }
    }
}

/// The traced client: the same request and response lines as
/// [`Client`], with a clock read at each boundary of the round trip.
struct RawClient {
    stream: TcpStream,
    next_id: u64,
    line: Vec<u8>,
}

impl RawClient {
    fn connect(addr: SocketAddr) -> std::io::Result<RawClient> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(RawClient {
            stream,
            next_id: 1,
            line: Vec::new(),
        })
    }

    fn call(&mut self, req: &QueryRequest) -> Result<(QueryResponse, Split), String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut request = wire::encode_request(&Request {
            id,
            body: RequestBody::Query(req.clone()),
        });
        request.push('\n');
        let io = |e: std::io::Error| format!("io: {e}");

        let t_write = Instant::now();
        self.stream.write_all(request.as_bytes()).map_err(io)?;
        let t_written = Instant::now();
        self.line.clear();
        let mut chunk = [0u8; 16 * 1024];
        let mut t_first = None;
        loop {
            let n = self.stream.read(&mut chunk).map_err(io)?;
            if n == 0 {
                return Err("server closed connection".into());
            }
            t_first.get_or_insert_with(Instant::now);
            self.line.extend_from_slice(&chunk[..n]);
            if chunk[..n].contains(&b'\n') {
                break;
            }
        }
        let t_line = Instant::now();
        let text = std::str::from_utf8(&self.line).map_err(|e| format!("response: {e}"))?;
        let text = text.trim_end();
        if let Some(retry_after_ms) = wire::parse_overload_line(text) {
            return Err(format!("overloaded: retry after {retry_after_ms} ms"));
        }
        let response = wire::decode_response(text).map_err(|e| e.to_string())?;
        let t_decoded = Instant::now();

        if response.id != id {
            return Err(format!("response id {} for request {id}", response.id));
        }
        let resp = match response.outcome {
            Ok(ResponseBody::Query(resp)) => resp,
            Ok(ResponseBody::Admin(_)) => return Err("admin payload for a query".into()),
            Err(msg) => return Err(format!("remote: {msg}")),
        };
        let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
        let t_first = t_first.expect("a byte was read");
        Ok((
            resp,
            Split {
                write_us: us(t_write, t_written),
                first_byte_us: us(t_written, t_first),
                line_tail_us: us(t_first, t_line),
                decode_us: us(t_line, t_decoded),
                bytes: self.line.len(),
            },
        ))
    }
}
