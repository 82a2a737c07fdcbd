//! Adversarial-client and parity tests for the reactor serve core:
//! slow clients, oversized heads, mid-body disconnects, connection-cap
//! shedding, graceful drain, pipelining, and byte-level parity between
//! what the reactor puts on the wire and what the in-process route
//! table renders.
//!
//! Each test boots its own server on an ephemeral port. The trace
//! cache is process-wide, so the tests that simulate hold
//! [`SIM_LOCK`] (the parity test clears the cache); every other test
//! sticks to cache-free endpoints.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serve::http::{response_bytes, Parsed, RequestParser, ResponseParser};
use serve::{start, ServeConfig};
use sparseadapt::trace_cache::TraceCache;

/// Serializes the tests that touch the process-wide trace cache.
static SIM_LOCK: Mutex<()> = Mutex::new(());

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_cap: 16,
        ..ServeConfig::default()
    }
}

/// One self-framing request: `connection: close` makes the raw
/// response bytes exactly "everything until EOF".
fn close_request(method: &str, target: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {target} HTTP/1.1\r\nhost: reactor-test\r\nconnection: close\r\n\
         content-length: {}\r\ncontent-type: application/json\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Sends raw bytes, returns everything the server sends back before
/// closing (tolerating a reset after partial data — some adversarial
/// exchanges end in one).
fn raw_roundtrip(addr: &SocketAddr, raw: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream.write_all(raw).expect("write request");
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(_) if !out.is_empty() => break,
            Err(e) => panic!("read: {e}"),
        }
    }
    out
}

fn status_of(raw: &[u8]) -> u16 {
    let text = String::from_utf8_lossy(raw);
    let line = text.lines().next().unwrap_or_default();
    line.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in: {line:?}"))
}

/// Digs a field out of a JSON object tree.
fn field(value: &serde::Value, path: &[&str]) -> Option<serde::Value> {
    let mut cur = value.clone();
    for key in path {
        let serde::Value::Obj(pairs) = cur else {
            return None;
        };
        cur = pairs.into_iter().find(|(k, _)| k == key)?.1;
    }
    Some(cur)
}

fn metrics_doc(addr: &SocketAddr) -> serde::Value {
    let raw = raw_roundtrip(addr, &close_request("GET", "/metrics", ""));
    let text = String::from_utf8_lossy(&raw);
    let body = text.split("\r\n\r\n").nth(1).expect("metrics body");
    serde_json::parse_value_str(body).expect("metrics is JSON")
}

fn metric_u64(doc: &serde::Value, path: &[&str]) -> u64 {
    match field(doc, path) {
        Some(serde::Value::UInt(u)) => u,
        Some(serde::Value::Int(i)) => u64::try_from(i).expect("non-negative"),
        other => panic!("expected integer at {path:?}, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Wire parity and pipelining
// ---------------------------------------------------------------------------

/// Zeroes every occurrence of a numeric JSON field so wall-clock noise
/// (`sim_ms`, per-request `content-length` drift from it) can't fail a
/// byte comparison.
fn zero_field(text: &str, key: &str) -> String {
    let mut out = String::new();
    let mut rest = text;
    while let Some(i) = rest.find(key) {
        out.push_str(&rest[..i + key.len()]);
        out.push('0');
        let after = &rest[i + key.len()..];
        let end = after
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(after.len());
        rest = &after[end..];
    }
    out.push_str(rest);
    out
}

fn normalize(raw: &[u8]) -> String {
    let text = String::from_utf8_lossy(raw).into_owned();
    let text = zero_field(&text, "\"sim_ms\":");
    zero_field(&text, "content-length: ")
}

/// The bytes the in-process route table renders for `wire` — the
/// dispatched path, with no socket and no reactor involved.
fn in_process(server: &serve::ServerHandle, wire: &[u8]) -> Vec<u8> {
    let mut parser = RequestParser::new();
    parser.feed(wire);
    let Parsed::Request(req) = parser.next_request() else {
        panic!("test request does not parse");
    };
    let (_, resp) = serve::router::route(&server.state, &req);
    response_bytes(&resp, req.keep_alive())
}

#[test]
fn reactor_wire_bytes_match_in_process_route() {
    let _sim = SIM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = start(config()).expect("server boots");
    let sim = r#"{"kernel": "spmspv", "matrix": "R10", "config_name": "maximum"}"#;
    let wire = close_request("POST", "/v2/simulate", sim);

    // A cold key: the reactor dispatches it and the pool simulates.
    TraceCache::global().clear();
    let dispatched = raw_roundtrip(&server.addr, &wire);
    assert!(
        String::from_utf8_lossy(&dispatched).contains("\"cached\":false"),
        "cold request must simulate: {}",
        String::from_utf8_lossy(&dispatched)
    );
    // Forget the trace so the in-process call takes the same miss.
    TraceCache::global().clear();
    assert_eq!(
        normalize(&dispatched),
        normalize(&in_process(&server, &wire)),
        "dispatched miss differs from the in-process route"
    );

    // Now resident: the reactor answers on its own thread, without the
    // coalescer (which every dispatched simulate passes through).
    let led_before = server.state.coalescer.led_total();
    let inline = raw_roundtrip(&server.addr, &wire);
    assert_eq!(
        server.state.coalescer.led_total(),
        led_before,
        "a resident hit must be answered inline"
    );
    assert!(String::from_utf8_lossy(&inline).contains("\"cached\":true"));
    assert_eq!(
        normalize(&inline),
        normalize(&in_process(&server, &wire)),
        "inline hit differs from the dispatched route"
    );
    // Both dialects of the inline answer, and an error the inline path
    // declines, match too.
    let v1 = close_request("POST", "/v1/simulate", sim);
    assert_eq!(
        normalize(&raw_roundtrip(&server.addr, &v1)),
        normalize(&in_process(&server, &v1))
    );
    let typo = close_request(
        "POST",
        "/v2/simulate",
        r#"{"kernel": "spmspv", "matrix": "R10", "confg_name": "maximum"}"#,
    );
    let typo_wire = raw_roundtrip(&server.addr, &typo);
    assert_eq!(status_of(&typo_wire), 400);
    assert_eq!(
        normalize(&typo_wire),
        normalize(&in_process(&server, &typo))
    );
    server.shutdown();
}

#[test]
fn reactor_serves_pipelined_requests_in_order() {
    let _sim = SIM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = start(config()).expect("server boots");
    let mut stream = TcpStream::connect(&server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    // Two requests in one write; the second carries `connection: close`
    // so the full exchange self-frames.
    let mut wire = Vec::new();
    wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\nhost: pipeline\r\ncontent-length: 0\r\n\r\n");
    wire.extend_from_slice(&close_request("GET", "/nope", ""));
    stream.write_all(&wire).expect("write pipelined pair");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read both responses");
    let text = String::from_utf8_lossy(&out);
    let first = text.find("HTTP/1.1 200 OK").expect("healthz answered");
    let second = text.find("HTTP/1.1 404").expect("404 answered");
    assert!(first < second, "responses out of order: {text}");

    // One write of thousands of resident hits, answered inline one after
    // another: the reactor must serve them by looping, not recursing.
    // A cold simulate leads the burst, so the hits pile up in the parser
    // while it runs and are all served when its response flushes.
    // Dialects alternate so a reordered response would show.
    const HITS: usize = 5000;
    let sim = r#"{"kernel": "spmspv", "matrix": "R09", "config_name": "baseline"}"#;
    let warm = raw_roundtrip(&server.addr, &close_request("POST", "/v1/simulate", sim));
    assert_eq!(status_of(&warm), 200, "warm-up failed");
    let cold = r#"{"kernel": "spmspv", "matrix": "R12", "config_name": "maximum"}"#;
    let mut burst = format!(
        "POST /v2/simulate HTTP/1.1\r\ncontent-length: {}\r\n\r\n{cold}",
        cold.len()
    )
    .into_bytes();
    for i in 0..HITS {
        let target = if i % 2 == 0 {
            "/v1/simulate"
        } else {
            "/v2/simulate"
        };
        burst.extend_from_slice(
            format!(
                "POST {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{sim}",
                sim.len()
            )
            .as_bytes(),
        );
    }
    burst.extend_from_slice(&close_request("GET", "/nope", ""));
    let stream = TcpStream::connect(&server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    // Write from a second thread: the burst outgrows the socket buffers,
    // so reading only after the write could deadlock both ends.
    let mut writer = stream.try_clone().expect("clone stream");
    let sender = std::thread::spawn(move || writer.write_all(&burst).expect("write burst"));
    let mut out = Vec::new();
    (&stream)
        .read_to_end(&mut out)
        .expect("read burst responses");
    sender.join().expect("writer thread");
    let mut parser = ResponseParser::new();
    parser.feed(&out);
    let mut responses = Vec::new();
    while let Some(resp) = parser.next_response().expect("well-formed responses") {
        responses.push(resp);
    }
    assert_eq!(
        responses.len(),
        HITS + 2,
        "every pipelined request answered"
    );
    let (head, rest) = responses.split_first().expect("responses");
    assert!(
        String::from_utf8_lossy(&head.body).contains("\"cached\":false"),
        "the cold simulate is answered first"
    );
    for (i, resp) in rest[..HITS].iter().enumerate() {
        let body = String::from_utf8_lossy(&resp.body);
        assert_eq!(resp.status, 200, "response {i}: {body}");
        assert_eq!(
            body.starts_with("{\"v\": 2"),
            i % 2 == 1,
            "response {i} out of order"
        );
        assert!(body.contains("\"cached\":true"), "response {i}: {body}");
    }
    assert_eq!(rest[HITS].status, 404, "the closing request comes last");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Adversarial clients
// ---------------------------------------------------------------------------

#[test]
fn slowloris_connection_hits_idle_timeout() {
    let mut cfg = config();
    cfg.idle_timeout_ms = 250;
    let server = start(cfg).expect("server boots");

    let mut stream = TcpStream::connect(&server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // A partial request line, then silence: the idle deadline is set on
    // entering the read state and never refreshed by dribbled bytes.
    stream.write_all(b"GET /heal").expect("partial write");
    let started = Instant::now();
    let mut buf = [0u8; 64];
    let n = stream
        .read(&mut buf)
        .expect("server should close, not stall");
    assert_eq!(n, 0, "expected clean EOF, got {n} bytes");
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "idle close took {:?}",
        started.elapsed()
    );

    let doc = metrics_doc(&server.addr);
    assert!(metric_u64(&doc, &["reactor", "idle_closed_total"]) >= 1);
    server.shutdown();
}

#[test]
fn oversized_request_line_gets_431() {
    let server = start(config()).expect("server boots");
    // More than MAX_HEAD_BYTES with no terminator: the parser must give
    // up with 431, not buffer forever.
    let raw = vec![b'A'; serve::http::MAX_HEAD_BYTES + 1024];
    let resp = raw_roundtrip(&server.addr, &raw);
    assert_eq!(
        status_of(&resp),
        431,
        "got: {}",
        String::from_utf8_lossy(&resp)
    );
    server.shutdown();
}

#[test]
fn mid_body_disconnect_leaves_server_healthy() {
    let server = start(config()).expect("server boots");
    for _ in 0..4 {
        let mut stream = TcpStream::connect(&server.addr).expect("connect");
        stream
            .write_all(
                b"POST /v1/simulate HTTP/1.1\r\nhost: quitter\r\ncontent-length: 1000\r\n\r\npartial",
            )
            .expect("partial body");
        drop(stream);
    }
    // The reactor must fold those in without wedging a slot or a worker.
    let health = raw_roundtrip(&server.addr, &close_request("GET", "/healthz", ""));
    assert_eq!(status_of(&health), 200);
    server.shutdown();
}

#[test]
fn connection_cap_overflow_sheds_503() {
    let mut cfg = config();
    cfg.max_conns = 2;
    let server = start(cfg).expect("server boots");

    // Two held keep-alive connections, each confirmed accepted by a
    // round-trip (connect() alone only proves the SYN queue took us).
    let mut held = Vec::new();
    for _ in 0..2 {
        let mut stream = TcpStream::connect(&server.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nhost: holder\r\ncontent-length: 0\r\n\r\n")
            .expect("write");
        let mut buf = [0u8; 4096];
        let n = stream.read(&mut buf).expect("read");
        assert!(n > 0 && buf.starts_with(b"HTTP/1.1 200"));
        held.push(stream);
    }

    // The third connection is over the cap: best-effort 503 then close.
    let resp = raw_roundtrip(&server.addr, &close_request("GET", "/healthz", ""));
    assert_eq!(
        status_of(&resp),
        503,
        "got: {}",
        String::from_utf8_lossy(&resp)
    );
    let text = String::from_utf8_lossy(&resp);
    assert!(text.contains("\"overloaded\""), "body: {text}");
    assert!(text.contains("retry_after_ms"), "body: {text}");

    drop(held);
    // With the held slots released, service resumes and the counters
    // recorded the shed. The probe itself can still catch a 503 while
    // the held sockets tear down, so retry until it lands.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let raw = raw_roundtrip(&server.addr, &close_request("GET", "/metrics", ""));
        if status_of(&raw) == 200 {
            let text = String::from_utf8_lossy(&raw);
            let body = text.split("\r\n\r\n").nth(1).expect("metrics body");
            let doc = serde_json::parse_value_str(body).expect("metrics is JSON");
            if metric_u64(&doc, &["reactor", "shed_503_total"]) >= 1
                && metric_u64(&doc, &["reactor", "accept_overflows_total"]) >= 1
            {
                break;
            }
        }
        assert!(Instant::now() < deadline, "shed counters never appeared");
        std::thread::sleep(Duration::from_millis(50));
    }
    server.shutdown();
}

#[test]
fn reactor_metrics_report_engine_and_gauges() {
    let server = start(config()).expect("server boots");
    let health = raw_roundtrip(&server.addr, &close_request("GET", "/healthz", ""));
    assert_eq!(status_of(&health), 200);
    let doc = metrics_doc(&server.addr);
    assert_eq!(
        field(&doc, &["reactor", "engine"]),
        Some(serde::Value::Str("reactor".to_string()))
    );
    assert!(metric_u64(&doc, &["reactor", "accepted_total"]) >= 2);
    assert!(metric_u64(&doc, &["reactor", "epoll_wakeups_total"]) >= 1);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------------

#[test]
fn drain_endpoint_stops_reactor_engine() {
    let server = start(config()).expect("server boots");
    let addr = server.addr;
    let resp = raw_roundtrip(&addr, &close_request("POST", "/v2/admin/drain", ""));
    assert_eq!(
        status_of(&resp),
        200,
        "got: {}",
        String::from_utf8_lossy(&resp)
    );
    assert!(String::from_utf8_lossy(&resp).contains("\"engine\":\"reactor\""));
    assert!(
        server.state.drain.wait_completed(Duration::from_secs(30)),
        "drain never completed"
    );
    // The listener is gone: new connects are refused.
    assert!(
        TcpStream::connect(addr).is_err(),
        "drained server still accepting"
    );
}
