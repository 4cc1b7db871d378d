//! Connection-engine behaviors only a real socket can prove: slow
//! clients that must not hold threads, pipelining, idle eviction,
//! many-idle-connection multiplexing, oversized-body rejection before
//! allocation, graceful shutdown draining in-flight work, handler
//! panics answered without losing the connection, and the
//! multi-reactor guarantees (connection affinity, reload visibility
//! across cache shard sets, sibling survival of a reactor panic).

use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use urlid::features::WordFeatureExtractor;
use urlid::prelude::*;
use urlid_classifiers::VectorClassifier;
use urlid_features::SparseVector;
use urlid_serve::http;
use urlid_serve::server::{spawn, ServeConfig, ServerHandle, ServerState};

fn trained_identifier() -> LanguageIdentifier {
    let mut generator = UrlGenerator::new(5);
    let odp = odp_dataset(&mut generator, CorpusScale::tiny());
    LanguageIdentifier::train_paper_best(&odp.train)
}

fn start_server(config: &ServeConfig) -> ServerHandle {
    let state = Arc::new(ServerState::new(trained_identifier(), None, 4096));
    spawn(config, state).expect("bind on 127.0.0.1:0")
}

fn identify(addr: SocketAddr, url: &str) -> (u16, String) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let body = format!("{{\"url\": \"{url}\"}}");
    http::write_request(&mut writer, "POST", "/identify", Some(&body)).expect("write");
    http::read_response(&mut reader).expect("read")
}

fn request_json(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, Value) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    http::write_request(&mut writer, method, path, body).expect("write");
    let (status, body) = http::read_response(&mut reader).expect("read");
    (status, serde_json::from_str(&body).expect("JSON response"))
}

fn uint_of(value: &Value, key: &str) -> u64 {
    match value.get(key) {
        Some(Value::Uint(n)) => *n,
        Some(Value::Int(n)) if *n >= 0 => *n as u64,
        other => panic!("expected unsigned {key}, got {other:?}"),
    }
}

/// A slowloris client delivers its request one byte at a time with
/// pauses; the reactor buffers it in the connection's parser (a slab
/// slot, not a thread) and answers normally once the request completes
/// — all while other clients keep being served.
#[test]
fn slowloris_byte_at_a_time_request_is_served_without_holding_a_thread() {
    let server = start_server(&ServeConfig::default());
    let addr = server.addr();

    let slow = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let body = "{\"url\": \"http://www.wetterbericht.de/langsam\"}";
        let request = format!(
            "POST /identify HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        for chunk in request.as_bytes().chunks(7) {
            stream.write_all(chunk).expect("drip");
            stream.flush().ok();
            std::thread::sleep(Duration::from_millis(3));
        }
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        http::read_response(&mut reader).expect("slow client gets a response")
    });

    // While the slow client drips, fast clients are not blocked — with
    // the old thread-per-connection engine and a single-thread pool,
    // this is exactly the case that starved.
    for i in 0..10 {
        let (status, _) = identify(addr, &format!("http://www.seite{i}.de/wetter"));
        assert_eq!(status, 200, "fast request {i} during slowloris");
    }

    let (status, body) = slow.join().expect("slow client");
    assert_eq!(status, 200);
    assert!(body.contains("\"scores\""));
    server.shutdown();
}

/// The body arriving in a separate packet from the head (and itself
/// split) parses into one request.
#[test]
fn split_content_length_body_is_reassembled() {
    let server = start_server(&ServeConfig::default());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let body = "{\"url\": \"http://www.beispiel.de/geteilt\"}";
    let head = format!(
        "POST /identify HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("head");
    stream.flush().ok();
    std::thread::sleep(Duration::from_millis(20));
    let (first, second) = body.as_bytes().split_at(body.len() / 2);
    stream.write_all(first).expect("first half");
    stream.flush().ok();
    std::thread::sleep(Duration::from_millis(20));
    stream.write_all(second).expect("second half");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let (status, response) = http::read_response(&mut reader).expect("response");
    assert_eq!(status, 200);
    assert!(response.contains("\"best\""));
    server.shutdown();
}

/// Three pipelined requests written back-to-back in a single packet
/// come back as three ordered responses on the same connection.
#[test]
fn pipelined_requests_on_one_connection_answer_in_order() {
    let server = start_server(&ServeConfig::default());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut wire = String::new();
    let urls = [
        "http://www.erste-seite.de/",
        "http://www.deuxieme-page.fr/",
        "http://www.tercera-pagina.es/",
    ];
    for url in &urls {
        let body = format!("{{\"url\": \"{url}\"}}");
        wire.push_str(&format!(
            "POST /identify HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
    }
    stream.write_all(wire.as_bytes()).expect("pipeline");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for url in &urls {
        let (status, body) = http::read_response(&mut reader).expect("response");
        assert_eq!(status, 200);
        let parsed: Value = serde_json::from_str(&body).expect("JSON");
        // Responses come back in request order: each carries its URL
        // (normalised, so compare the registrable part).
        match parsed.get("url") {
            Some(Value::Str(u)) => assert!(
                url.contains(u.trim_start_matches("http://").trim_end_matches('/')),
                "expected {url}, got {u}"
            ),
            other => panic!("no url in response: {other:?}"),
        }
    }
    server.shutdown();
}

/// A large pipelining burst — 64 requests in one client write — still
/// answers every request, in order, on one connection. The client
/// deliberately delays its reads so responses back up behind the
/// kernel's socket buffer: the connection parses its next request only
/// once the previous response has drained, so the burst drains one
/// response at a time through the connection's single output buffer
/// (the name dates from vectored writes of queued responses). With an
/// admission budget of one connection per event-loop pass the burst
/// must still answer in full: pipelined follow-ups on an admitted
/// connection are never shed.
#[test]
fn large_pipelined_burst_drains_through_vectored_writes() {
    large_pipelined_burst_drains_on(ServeConfig::default());
    large_pipelined_burst_drains_on(ServeConfig {
        max_inflight: 1,
        ..ServeConfig::default()
    });
}

fn large_pipelined_burst_drains_on(config: ServeConfig) {
    let server = start_server(&config);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let count = 64;
    let mut wire = String::new();
    for i in 0..count {
        let body = format!("{{\"url\": \"http://www.seite-{i}.de/wetter\"}}");
        wire.push_str(&format!(
            "POST /identify HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
    }
    stream.write_all(wire.as_bytes()).expect("burst");
    // Let responses queue up behind the kernel's socket buffer before
    // reading anything back.
    std::thread::sleep(Duration::from_millis(100));
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for i in 0..count {
        let (status, body) = http::read_response(&mut reader).expect("response");
        assert_eq!(status, 200, "request {i}");
        let parsed: Value = serde_json::from_str(&body).expect("JSON");
        match parsed.get("url") {
            Some(Value::Str(u)) => {
                assert!(u.contains(&format!("seite-{i}.")), "request {i}: got {u}")
            }
            other => panic!("no url in response {i}: {other:?}"),
        }
    }
    server.shutdown();
}

/// A connection idle past the timeout is evicted by the reactor (and
/// counted); mid-header slowloris drips that stall count the same way.
#[test]
fn idle_connections_are_evicted_after_the_timeout() {
    let config = ServeConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let server = start_server(&config);

    // One totally silent connection, one stalled mid-headers.
    let silent = TcpStream::connect(server.addr()).expect("connect");
    let mut stalled = TcpStream::connect(server.addr()).expect("connect");
    stalled
        .write_all(b"POST /identify HTTP/1.1\r\nContent-")
        .expect("partial");

    std::thread::sleep(Duration::from_millis(700));

    for (name, stream) in [("silent", &silent), ("stalled", &stalled)] {
        let mut reader = stream.try_clone().expect("clone");
        reader
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let mut buf = [0u8; 64];
        match reader.read(&mut buf) {
            Ok(0) => {} // clean EOF: evicted
            Ok(n) => panic!("{name}: expected eviction, read {n} bytes"),
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
                ),
                "{name}: unexpected error {e:?}"
            ),
        }
    }
    let timed_out = server.state().metrics().connections_timed_out_total();
    assert!(timed_out >= 2, "timed_out gauge saw {timed_out}");
    server.shutdown();
}

/// 256 idle keep-alive connections cost slab slots, not threads:
/// requests on other connections keep completing, the connection
/// gauges see the population, and every idle connection still serves
/// afterwards.
#[test]
fn hundreds_of_idle_connections_do_not_block_active_traffic() {
    let server = start_server(&ServeConfig::default());
    let addr = server.addr();

    // Open 256 keep-alive connections, prove each one once.
    let mut idle = Vec::new();
    for i in 0..256 {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let body = format!("{{\"url\": \"http://www.seite{}.de/\"}}", i % 13);
        http::write_request(&mut writer, "POST", "/identify", Some(&body)).expect("write");
        let (status, _) = http::read_response(&mut reader).expect("read");
        assert_eq!(status, 200, "idle open {i}");
        idle.push((writer, reader));
    }

    // Active traffic on fresh connections completes while all 256 sit
    // idle — with the old engine's pool this would deadlock (every
    // worker pinned to an idle keep-alive connection).
    for i in 0..25 {
        let (status, _) = identify(addr, &format!("http://www.aktiv{i}.de/wetter"));
        assert_eq!(status, 200, "active request {i}");
    }

    // The gauges see the idle population.
    let open = server.state().metrics().connections_open_total();
    assert!(open >= 256, "open gauge saw {open}");

    // Every idle connection still serves.
    for (i, (writer, reader)) in idle.iter_mut().enumerate() {
        let body = format!("{{\"url\": \"http://www.wieder{}.de/\"}}", i % 7);
        http::write_request(writer, "POST", "/identify", Some(&body)).expect("write");
        let (status, _) = http::read_response(reader).expect("read");
        assert_eq!(status, 200, "idle sweep {i}");
    }
    server.shutdown();
}

/// An oversized `Content-Length` declaration is refused with `413`
/// before any body is accepted — the client has only sent headers.
#[test]
fn oversized_content_length_is_rejected_before_the_body_is_sent() {
    let config = ServeConfig {
        max_body_bytes: 1024,
        ..ServeConfig::default()
    };
    let server = start_server(&config);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // Declare 1 GiB; send nothing after the head.
    stream
        .write_all(b"POST /identify HTTP/1.1\r\nContent-Length: 1073741824\r\n\r\n")
        .expect("head");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let (status, body) = http::read_response(&mut reader).expect("response");
    assert_eq!(status, 413);
    assert!(body.contains("error"));
    // The connection is closed afterwards (the stream cannot be
    // resynchronised past an unsent body).
    let mut buf = [0u8; 16];
    let mut tail = stream.try_clone().expect("clone");
    tail.set_read_timeout(Some(Duration::from_secs(2))).ok();
    assert_eq!(tail.read(&mut buf).unwrap_or(0), 0, "connection closes");
    server.shutdown();
}

/// A client that sends its request and immediately half-closes the
/// write side (send-then-`shutdown(WR)`, a common one-shot pattern)
/// still gets its response — and the EOF-readable socket must not
/// wedge the reactor while the response is on its way.
#[test]
fn half_closed_client_still_receives_its_response() {
    let server = start_server(&ServeConfig::default());
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    http::write_request(
        &mut writer,
        "POST",
        "/identify",
        Some("{\"url\": \"http://www.halbgeschlossen.de/\"}"),
    )
    .expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let (status, body) = http::read_response(&mut reader).expect("response after half-close");
    assert_eq!(status, 200);
    assert!(body.contains("\"scores\""));
    // Other clients are unaffected while (and after) the half-closed
    // connection winds down.
    let (status, _) = identify(server.addr(), "http://www.andere.de/");
    assert_eq!(status, 200);
    server.shutdown();
}

/// A raw protocol violation gets a JSON `400` and the connection is
/// dropped — never a panic, never a wedged slot.
#[test]
fn malformed_request_line_gets_400_and_close() {
    let server = start_server(&ServeConfig::default());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(b"BANANA\r\n\r\n").expect("garbage");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    assert!(
        status_line.starts_with("HTTP/1.1 400"),
        "got {status_line:?}"
    );
    // Server is unharmed.
    let (status, _) = identify(server.addr(), "http://www.gesund.de/");
    assert_eq!(status, 200);
    server.shutdown();
}

/// A chunked request is refused with exactly one `501`, then EOF: the
/// chunk bytes must never be parsed as a second request. It counts as
/// an error like the other protocol rejects.
#[test]
fn chunked_request_gets_one_501_and_close() {
    let server = start_server(&ServeConfig::default());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let body = "{\"url\": \"http://www.wetter.de/\"}";
    let wire = format!(
        "POST /identify HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n{body}\r\n0\r\n\r\n",
        body.len()
    );
    stream.write_all(wire.as_bytes()).expect("chunked request");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream);
    let (status, body) = http::read_response(&mut reader).expect("one response");
    assert_eq!(status, 501, "{body}");
    assert!(body.contains("error"), "{body}");
    let mut rest = Vec::new();
    let eof = reader.read_to_end(&mut rest);
    assert!(
        rest.is_empty(),
        "a second response followed: {:?}",
        String::from_utf8_lossy(&rest)
    );
    assert!(eof.is_ok(), "connection closes after the 501: {eof:?}");
    assert_eq!(server.state().metrics().errors.load(Ordering::Relaxed), 1);
    server.shutdown();
}

/// Graceful shutdown: a request the reactor is already scoring finishes
/// and flushes before the server comes down; idle connections are
/// closed; the listener stops accepting.
#[test]
fn shutdown_drains_in_flight_requests_and_closes_idle_connections() {
    let server = start_server(&ServeConfig::default());
    let addr = server.addr();

    // An idle bystander connection (proven once).
    let (status, _) = {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        http::write_request(
            &mut writer,
            "POST",
            "/identify",
            Some("{\"url\": \"http://www.zuschauer.de/\"}"),
        )
        .expect("write");
        let response = http::read_response(&mut reader).expect("read");
        // Keep the raw stream alive past shutdown to observe the close.
        let mut buf = [0u8; 16];
        let mut observer = stream.try_clone().expect("clone");
        observer.set_read_timeout(Some(Duration::from_secs(5))).ok();
        std::thread::spawn(move || {
            // EOF (or reset) once the drain closes idle connections.
            let _ = observer.read(&mut buf);
        });
        response
    };
    assert_eq!(status, 200);

    // A long-running batch request: hundreds of unique URLs keep the
    // reactor scoring while shutdown begins.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let urls: Vec<String> = (0..1500)
        .map(|i| format!("\"http://www.lange-liste-{i}.de/seite/{i}\""))
        .collect();
    let body = format!("{{\"urls\": [{}]}}", urls.join(", "));
    http::write_request(&mut writer, "POST", "/identify_batch", Some(&body)).expect("write");

    // Give the reactor a moment to parse and dispatch, then shut down
    // while the batch is (very likely) still scoring.
    std::thread::sleep(Duration::from_millis(30));
    let shutdown_thread = std::thread::spawn(move || server.shutdown());

    let (status, response) = http::read_response(&mut reader).expect("in-flight response");
    assert_eq!(status, 200, "in-flight batch failed during shutdown");
    let parsed: Value = serde_json::from_str(&response).expect("JSON");
    match parsed.get("count") {
        Some(Value::Uint(n)) => assert_eq!(*n, 1500),
        Some(Value::Int(n)) => assert_eq!(*n, 1500),
        other => panic!("bad count {other:?}"),
    }
    shutdown_thread.join().expect("shutdown");

    // The listener is gone: new connections are refused (or accepted
    // by the OS backlog and immediately dead — never served).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(stream) => {
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            let served = http::write_request(
                &mut writer,
                "POST",
                "/identify",
                Some("{\"url\": \"http://www.zu-spaet.de/\"}"),
            )
            .and_then(|()| http::read_response(&mut reader));
            assert!(served.is_err(), "server answered after shutdown");
        }
    }
}

/// A second server cannot join a port that is already being served:
/// every listener binds with `SO_REUSEPORT`, which on its own would let
/// the newcomer boot and take a share of the first server's
/// connections. Once the first server has shut down, the same address
/// binds and serves again.
#[test]
fn a_served_port_refuses_a_second_server_and_rebinds_after_shutdown() {
    let first = start_server(&ServeConfig::default());
    let addr = first.addr();
    let config = ServeConfig {
        addr: addr.to_string(),
        ..ServeConfig::default()
    };
    let state = Arc::new(ServerState::new(trained_identifier(), None, 4096));
    match spawn(&config, Arc::clone(&state)) {
        Ok(second) => {
            second.shutdown();
            panic!("a second server bound {addr}, which is already being served");
        }
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::AddrInUse, "{e}"),
    }
    // The refused newcomer left the first server untouched.
    for i in 0..8 {
        let (status, _) = identify(addr, &format!("http://www.erster-server{i}.de/"));
        assert_eq!(status, 200, "first server, request {i}");
    }
    first.shutdown();

    let restarted = spawn(&config, state).expect("rebind the address after shutdown");
    assert_eq!(restarted.addr(), addr);
    let (status, body) = identify(addr, "http://www.neustart.de/wetter");
    assert_eq!(status, 200);
    assert!(body.contains("\"scores\""), "{body}");
    restarted.shutdown();
}

// ---------------------------------------------------------------------
// Multi-reactor guarantees
// ---------------------------------------------------------------------

/// Connections never migrate between reactors: every response on one
/// keep-alive connection carries the same `X-Urlid-Reactor` tag, and
/// the per-reactor accept counters account for every connection the
/// totals saw.
#[test]
fn connections_stay_pinned_to_their_accepting_reactor() {
    let config = ServeConfig {
        reactors: 2,
        ..ServeConfig::default()
    };
    let server = start_server(&config);
    let addr = server.addr();

    for c in 0..12 {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut home: Option<u64> = None;
        for i in 0..10 {
            let body = format!("{{\"url\": \"http://www.seite{}.de/pfad/{c}\"}}", i % 5);
            http::write_request(&mut writer, "POST", "/identify", Some(&body)).expect("write");
            let (status, reactor, _) =
                http::read_response_tagged(&mut reader).expect("tagged response");
            assert_eq!(status, 200, "conn {c} request {i}");
            let reactor = reactor.expect("X-Urlid-Reactor header present");
            assert!(reactor < 2, "conn {c}: reactor tag {reactor} out of range");
            match home {
                None => home = Some(reactor),
                Some(first) => assert_eq!(
                    reactor, first,
                    "conn {c} migrated from reactor {first} to {reactor} at request {i}"
                ),
            }
        }
    }

    // The per-reactor accept counters cover every accepted connection.
    let (status, metrics) = request_json(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let connections = metrics.get("connections").expect("connections section");
    let Some(Value::Array(per_reactor)) = connections.get("per_reactor") else {
        panic!("connections.per_reactor must be an array");
    };
    assert_eq!(per_reactor.len(), 2);
    let summed: u64 = per_reactor.iter().map(|r| uint_of(r, "accepted")).sum();
    assert_eq!(summed, uint_of(connections, "accepted"));
    server.shutdown();
}

/// Word features that panic on one marker URL: a stand-in for any bug
/// in a request handler.
struct PanicOnMarker(WordFeatureExtractor);

impl FeatureExtractor for PanicOnMarker {
    fn fit(&mut self, training: &[LabeledUrl]) {
        self.0.fit(training);
    }

    fn transform(&self, url: &str) -> SparseVector {
        assert!(!url.contains("panik"), "injected handler panic on {url}");
        self.0.transform(url)
    }

    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn feature_name(&self, index: u32) -> Option<String> {
        self.0.feature_name(index)
    }

    fn kind(&self) -> FeatureSetKind {
        self.0.kind()
    }
}

/// Accepts any vector whose features sum past a small threshold.
struct SumThreshold;

impl VectorClassifier for SumThreshold {
    fn score(&self, features: &SparseVector) -> f64 {
        features.sum() - 0.5
    }
}

/// A panic inside a handler answers that request `500` (counted as an
/// error) and leaves the connection, the reactor and the server
/// serving: the next request on the same connection gets its `200`.
#[test]
fn handler_panic_answers_500_and_the_connection_keeps_serving() {
    let mut generator = UrlGenerator::new(41);
    let train = odp_dataset(&mut generator, CorpusScale::tiny()).train;
    let mut inner = WordFeatureExtractor::default();
    inner.fit(&train.urls);
    let set = LanguageClassifierSet::build_vector(Arc::new(PanicOnMarker(inner)), |_| {
        Box::new(SumThreshold)
    });
    let identifier = LanguageIdentifier::from_classifier_set(
        set,
        TrainingConfig::new(FeatureSetKind::Words, Algorithm::NaiveBayes),
    );
    let state = Arc::new(ServerState::new(identifier, None, 1024));
    let server = spawn(&ServeConfig::default(), state).expect("bind");

    let stream = TcpStream::connect(server.addr()).expect("connect");
    // A handler panic that strands the request would hang this read.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let marker = "{\"url\": \"http://www.panik.de/\"}";
    http::write_request(&mut writer, "POST", "/identify", Some(marker)).expect("write");
    let (status, body) = http::read_response(&mut reader).expect("answer to the panic");
    assert_eq!(status, 500);
    assert!(body.contains("\"error\""), "{body}");

    let calm = "{\"url\": \"http://www.ruhig.de/\"}";
    http::write_request(&mut writer, "POST", "/identify", Some(calm)).expect("write");
    let (status, body) = http::read_response(&mut reader).expect("next answer");
    assert_eq!(status, 200);
    assert!(body.contains("\"scores\""), "{body}");

    let metrics = server.state().metrics();
    assert_eq!(metrics.errors.load(Ordering::Relaxed), 1);
    assert_eq!(metrics.reactors_failed.load(Ordering::Relaxed), 0);
    server.shutdown();
}

fn train_and_save(algorithm: Algorithm, dir: &std::path::Path) -> std::path::PathBuf {
    let mut generator = UrlGenerator::new(17);
    let train = odp_dataset(&mut generator, CorpusScale::tiny()).train;
    let config = TrainingConfig::new(FeatureSetKind::Words, algorithm).with_maxent_iterations(8);
    let bundle = ModelBundle::train(&train, &config).expect("trainable config");
    let path = dir.join(format!("reactor-{algorithm:?}.urlm"));
    bundle.pack(&path).expect("pack bundle");
    path
}

fn load(path: &std::path::Path) -> LanguageIdentifier {
    ModelSource::detect(path)
        .and_then(|source| source.load_identifier())
        .expect("load model")
}

/// `/admin/reload` under concurrent hammering across two reactors with
/// two cache shard sets serves zero stale-epoch hits: every in-flight
/// request succeeds, and after the final swap every URL scores exactly
/// like a fresh server holding the final model — a single surviving
/// old-epoch entry in either shard set would show up as a score
/// mismatch (NB and RE score scales differ by construction).
#[test]
fn reload_invalidates_every_cache_shard_set_across_reactors() {
    let dir = std::env::temp_dir().join("urlid-reactor-reload-test");
    std::fs::create_dir_all(&dir).unwrap();
    let nb_path = train_and_save(Algorithm::NaiveBayes, &dir);
    let re_path = train_and_save(Algorithm::RelativeEntropy, &dir);

    let state = Arc::new(ServerState::with_topology(
        load(&nb_path),
        Some(nb_path.clone()),
        4096,
        2,
    ));
    let config = ServeConfig {
        reactors: 2,
        ..ServeConfig::default()
    };
    let server = spawn(&config, state).expect("bind");
    let addr = server.addr();

    const HAMMERS: usize = 4;
    const REQUESTS_PER_HAMMER: usize = 120;
    const UNIQUE_URLS: usize = 23;
    std::thread::scope(|scope| {
        let hammers: Vec<_> = (0..HAMMERS)
            .map(|h| {
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    let mut writer = stream.try_clone().expect("clone");
                    let mut reader = BufReader::new(stream);
                    for i in 0..REQUESTS_PER_HAMMER {
                        let body = format!(
                            "{{\"url\": \"http://www.seite{}.de/wetter\"}}",
                            i % UNIQUE_URLS
                        );
                        http::write_request(&mut writer, "POST", "/identify", Some(&body))
                            .expect("write");
                        let (status, _) = http::read_response(&mut reader).expect("read");
                        assert_eq!(status, 200, "hammer {h} request {i} failed during reload");
                    }
                })
            })
            .collect();

        for (round, path) in [&re_path, &nb_path, &re_path].iter().enumerate() {
            std::thread::sleep(Duration::from_millis(20));
            let body = format!("{{\"path\": \"{}\"}}", path.display());
            let (status, response) = request_json(addr, "POST", "/admin/reload", Some(&body));
            assert_eq!(status, 200, "reload {round}");
            assert_eq!(response.get("reloaded"), Some(&Value::Bool(true)));
        }

        for hammer in hammers {
            hammer.join().expect("hammer");
        }
    });

    // Reference: a fresh server holding only the final (RE) model.
    let reference_state = Arc::new(ServerState::new(load(&re_path), None, 4096));
    let reference = spawn(&ServeConfig::default(), reference_state).expect("bind reference");
    for i in 0..UNIQUE_URLS {
        let body = format!("{{\"url\": \"http://www.seite{i}.de/wetter\"}}");
        let (status, swapped) = request_json(addr, "POST", "/identify", Some(&body));
        assert_eq!(status, 200);
        let (status, fresh) = request_json(reference.addr(), "POST", "/identify", Some(&body));
        assert_eq!(status, 200);
        assert_eq!(
            swapped.get("scores"),
            fresh.get("scores"),
            "url {i}: stale-epoch scores survived the reload in some shard set"
        );
    }
    reference.shutdown();
    server.shutdown();
}

/// 1024 idle keep-alive connections split across two reactors are all
/// evicted on idle-timeout — every reactor runs its own eviction sweep
/// over its own slab.
#[test]
fn thousand_idle_keepalives_across_reactors_evict_on_timeout() {
    let config = ServeConfig {
        reactors: 2,
        idle_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let server = start_server(&config);
    let addr = server.addr();

    // Open 1024 keep-alive connections; prove every 16th one serves so
    // the population is genuinely established, not just SYN-accepted.
    let mut idle = Vec::new();
    for i in 0..1024 {
        let stream = TcpStream::connect(addr).expect("connect");
        if i % 16 == 0 {
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let body = format!("{{\"url\": \"http://www.seite{}.de/\"}}", i % 13);
            http::write_request(&mut writer, "POST", "/identify", Some(&body)).expect("write");
            let (status, _) = http::read_response(&mut reader).expect("read");
            assert_eq!(status, 200, "idle open {i}");
        }
        idle.push(stream);
    }

    std::thread::sleep(Duration::from_millis(1500));
    let timed_out = server.state().metrics().connections_timed_out_total();
    assert!(timed_out >= 1024, "timed_out total saw {timed_out}/1024");
    let open = server.state().metrics().connections_open_total();
    assert_eq!(open, 0, "open gauge still shows {open} after eviction");
    drop(idle);
    server.shutdown();
}

/// A panicking reactor must not strand its siblings: the panic is
/// caught at the thread boundary, the whole server drains, `join`
/// reports exactly one failed reactor, and the `reactors_failed`
/// gauge agrees.
#[test]
fn reactor_panic_is_contained_and_drains_the_siblings() {
    let config = ServeConfig {
        reactors: 2,
        fail_after_accepts: Some(0),
        drain_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let server = start_server(&config);
    let addr = server.addr();
    let state = Arc::clone(server.state());

    // The first accept on whichever reactor the kernel picks trips the
    // injected panic; the connection dies without a response.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let served = http::write_request(
        &mut writer,
        "POST",
        "/identify",
        Some("{\"url\": \"http://www.absturz.de/\"}"),
    )
    .and_then(|()| http::read_response(&mut reader));
    assert!(served.is_err(), "request served by a panicking reactor");

    // join() must come back (the sibling drains and exits) and report
    // the single failed reactor; the gauge saw it too.
    let failed = server.join();
    assert_eq!(failed, 1, "exactly one reactor died");
    assert_eq!(state.metrics().reactors_failed.load(Ordering::Relaxed), 1);
}
