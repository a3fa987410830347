//! Property tests for wire-protocol robustness under hostile input:
//! random byte garbage, truncated JSON prefixes, oversized lines,
//! over-deep nesting, and valid queries interleaved among them. The server must never panic,
//! never buffer past its request-size cap, and — for every complete
//! (newline-terminated) request line — either answer with exactly one
//! response line or close the connection. A canonical query after
//! each hostile session proves the server survived it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use biorank::mediator::Mediator;
use biorank::prelude::*;
use biorank::service::{
    QueryEngine, ServeOptions, Server, ServerHandle, DEFAULT_MAX_REQUEST_BYTES,
};
use proptest::prelude::*;

/// One server shared across every proptest case: world generation is
/// the expensive part, and surviving hundreds of hostile sessions on
/// one process is exactly the property under test.
const MAX_REQUEST_BYTES: usize = 512;

fn server() -> &'static ServerHandle {
    static HANDLE: OnceLock<ServerHandle> = OnceLock::new();
    HANDLE.get_or_init(|| spawn_server(MAX_REQUEST_BYTES))
}

/// A second server at the default (1 MiB) request cap, for lines far
/// longer than [`MAX_REQUEST_BYTES`] that are still within the cap.
fn default_cap_server() -> &'static ServerHandle {
    static HANDLE: OnceLock<ServerHandle> = OnceLock::new();
    HANDLE.get_or_init(|| spawn_server(DEFAULT_MAX_REQUEST_BYTES))
}

fn spawn_server(max_request_bytes: usize) -> ServerHandle {
    let world = World::generate(WorldParams::default());
    let mediator = Mediator::new(biorank_schema_with_ontology().schema, world.registry());
    let engine = Arc::new(QueryEngine::new(mediator));
    let server = Server::bind(
        "127.0.0.1:0",
        engine,
        ServeOptions {
            workers: 2,
            max_request_bytes,
            ..Default::default()
        },
    )
    .expect("bind ephemeral");
    let handle = server.handle().expect("server handle");
    std::thread::spawn(move || server.run().expect("server run"));
    handle
}

const VALID_QUERY: &str = "{\"id\":1,\"input\":\"EntrezProtein\",\"attribute\":\"name\",\
                           \"value\":\"GALT\",\"outputs\":[\"AmiGO\"],\"method\":\"inedge\"}";

/// One hostile request line (newline added by the writer).
#[derive(Clone, Debug)]
enum Line {
    /// Arbitrary bytes, possibly invalid UTF-8, newlines laundered.
    Garbage(Vec<u8>),
    /// A prefix of a valid query: truncated mid-structure.
    Truncated(usize),
    /// A line guaranteed past the request-size cap.
    Oversized(usize),
    /// Arrays and objects nested this deep — past the decoder's
    /// nesting cap, within the request-size cap.
    Deep(usize),
    /// A well-formed query that must be answered if it is reached.
    Valid,
}

fn line_strategy() -> impl Strategy<Value = Line> {
    // The vendored proptest has no `prop_oneof!`: draw every variant's
    // payload plus a tag and let the tag pick.
    (
        0u8..5,
        proptest::collection::vec(0u8..=255, 0..96),
        1usize..VALID_QUERY.len(),
        MAX_REQUEST_BYTES + 1..MAX_REQUEST_BYTES + 512,
        // Past the decoder's 128-level cap; at 2.5 bytes a level,
        // still under the line cap.
        130usize..200,
    )
        .prop_map(|(tag, garbage, truncate_at, oversize, depth)| match tag {
            0 => Line::Garbage(garbage),
            1 => Line::Truncated(truncate_at),
            2 => Line::Oversized(oversize),
            3 => Line::Deep(depth),
            _ => Line::Valid,
        })
}

impl Line {
    fn bytes(&self) -> Vec<u8> {
        match self {
            Line::Garbage(raw) => raw
                .iter()
                .map(|&b| if b == b'\n' || b == b'\r' { b'.' } else { b })
                .collect(),
            Line::Truncated(len) => VALID_QUERY.as_bytes()[..*len].to_vec(),
            Line::Oversized(len) => {
                let mut line = format!("{{\"id\":2,\"pad\":\"{}", "x".repeat(*len)).into_bytes();
                line.extend_from_slice(b"\"}");
                line
            }
            Line::Deep(depth) => (0..*depth)
                .map(|i| if i % 2 == 0 { "[" } else { "{\"\":" })
                .collect::<String>()
                .into_bytes(),
            Line::Valid => VALID_QUERY.as_bytes().to_vec(),
        }
    }
}

/// Plays one hostile session: every complete line either gets exactly
/// one response line or the connection closes (after which further
/// writes are pointless and further answers impossible).
fn play(lines: &[Line]) {
    let handle = server();
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for line in lines {
        let mut bytes = line.bytes();
        // Whitespace-only lines are skipped by the server, not
        // answered — expecting a response would be the test hanging
        // itself.
        let blank = String::from_utf8_lossy(&bytes).trim().is_empty();
        bytes.push(b'\n');
        if (&stream).write_all(&bytes).is_err() {
            // The server already closed (an earlier oversized line);
            // a dead connection is a valid outcome, not a hang.
            return;
        }
        if blank {
            continue;
        }
        let mut response = String::new();
        match reader.read_line(&mut response) {
            Ok(0) => return, // closed: the only alternative to answering
            Ok(_) => {
                // Every answer is one well-formed response line that
                // echoes a verdict — never a crash dump, never silence.
                assert!(
                    response.contains("\"ok\":true") || response.contains("\"ok\":false"),
                    "unrecognizable response to {line:?}: {response}"
                );
                if matches!(line, Line::Valid) {
                    assert!(
                        response.contains("\"ok\":true") && response.contains("\"total\":15"),
                        "valid query mis-answered after hostile lines: {response}"
                    );
                }
                if matches!(line, Line::Deep(_)) {
                    assert!(
                        response.contains("\"ok\":false") && response.contains("nesting too deep"),
                        "over-deep line must be a decode error: {response}"
                    );
                }
                if matches!(line, Line::Oversized(_)) {
                    assert!(
                        response.contains(&format!("{MAX_REQUEST_BYTES} bytes")),
                        "oversized rejection names the cap: {response}"
                    );
                }
            }
            // A reset is the server closing with our later bytes
            // still unread — "closed", just ruder than FIN.
            Err(e) if is_disconnect(&e) => return,
            Err(e) => panic!("server neither answered nor closed within 10s: {e}"),
        }
    }
}

fn is_disconnect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
    )
}

/// The liveness probe run after every hostile session: a fresh
/// connection must still get the Table 1 answer.
fn assert_server_alive() {
    assert_alive(server());
}

fn assert_alive(handle: &ServerHandle) {
    let stream = TcpStream::connect(handle.addr()).expect("reconnect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    (&stream)
        .write_all(format!("{VALID_QUERY}\n").as_bytes())
        .expect("write probe");
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .expect("read probe");
    assert!(
        response.contains("\"ok\":true") && response.contains("\"total\":15"),
        "server unhealthy after hostile session: {response}"
    );
}

/// Sends each line on one connection and returns one response line
/// per request line.
fn exchange(handle: &ServerHandle, lines: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    lines
        .iter()
        .map(|line| {
            (&stream)
                .write_all(format!("{line}\n").as_bytes())
                .expect("write line");
            let mut response = String::new();
            reader.read_line(&mut response).expect("read response");
            response
        })
        .collect()
}

#[test]
fn deep_nesting_is_a_decode_error_and_the_connection_answers_the_next_query() {
    // 20 KB of `[` once recursed the decoder off the connection
    // thread's stack and aborted the whole process.
    let handle = default_cap_server();
    let responses = exchange(
        handle,
        &[
            "[".repeat(20_000),
            "{\"a\":".repeat(4_000),
            VALID_QUERY.to_string(),
        ],
    );
    for deep in &responses[..2] {
        assert!(
            deep.contains("\"ok\":false") && deep.contains("nesting too deep"),
            "over-deep line must be a decode error: {deep}"
        );
    }
    assert!(
        responses[2].contains("\"ok\":true") && responses[2].contains("\"total\":15"),
        "query after the deep lines mis-answered: {}",
        responses[2]
    );
    assert_alive(handle);
}

#[test]
fn near_cap_multibyte_string_line_decodes() {
    // One string of two-byte characters filling most of the 1 MiB cap,
    // carried in a field the decoder ignores: the query must still be
    // answered, and promptly.
    let pad = "é".repeat(DEFAULT_MAX_REQUEST_BYTES / 2 - 256);
    let line = VALID_QUERY.replacen('{', &format!("{{\"pad\":\"{pad}\","), 1);
    assert!(line.len() < DEFAULT_MAX_REQUEST_BYTES);
    assert!(line.len() > DEFAULT_MAX_REQUEST_BYTES - 1024);
    let handle = default_cap_server();
    let responses = exchange(handle, &[line]);
    assert!(
        responses[0].contains("\"ok\":true") && responses[0].contains("\"total\":15"),
        "near-cap line mis-answered: {}",
        responses[0]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hostile_lines_never_hang_never_kill_the_server(
        lines in proptest::collection::vec(line_strategy(), 1..8)
    ) {
        play(&lines);
        assert_server_alive();
    }

    #[test]
    fn raw_garbage_streams_always_answered_or_closed(
        raw in proptest::collection::vec(0u8..=255, 0..256)
    ) {
        // No framing at all: dump raw bytes (newlines included, so
        // this may be several "lines" of pure noise), then close the
        // write half and drain. Whatever comes back must be complete
        // response lines, and the server must survive.
        let handle = server();
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        (&stream).write_all(&raw).expect("write noise");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut reader = BufReader::new(stream);
        loop {
            let mut response = String::new();
            match reader.read_line(&mut response) {
                Ok(0) => break,
                Ok(_) => prop_assert!(
                    response.contains("\"ok\":"),
                    "noise produced a non-response line: {response}"
                ),
                Err(e) if is_disconnect(&e) => break,
                Err(e) => panic!("server neither answered nor closed within 10s: {e}"),
            }
        }
        assert_server_alive();
    }
}
