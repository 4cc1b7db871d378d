//! End-to-end HTTP tests: a real server on a real socket, exercised
//! through the same `http` codec the load generator uses.

use serde::Value;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use urlid::prelude::*;
use urlid_serve::http;
use urlid_serve::server::{spawn, ServeConfig, ServerHandle, ServerState};

fn trained_identifier() -> LanguageIdentifier {
    let mut generator = UrlGenerator::new(5);
    let odp = odp_dataset(&mut generator, CorpusScale::tiny());
    LanguageIdentifier::train_paper_best(&odp.train)
}

fn start_server(cache_capacity: usize) -> ServerHandle {
    let state = Arc::new(ServerState::new(trained_identifier(), None, cache_capacity));
    spawn(&ServeConfig::default(), state).expect("bind on 127.0.0.1:0")
}

/// Read an unsigned counter out of a response object (the JSON parser
/// yields `Int` for small numbers, the writer side uses `Uint`).
fn uint_of(value: &Value, key: &str) -> u64 {
    match value.get(key) {
        Some(Value::Uint(n)) => *n,
        Some(Value::Int(n)) if *n >= 0 => *n as u64,
        other => panic!("expected unsigned {key}, got {other:?}"),
    }
}

fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, Value) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    http::write_request(&mut writer, method, path, body).expect("write request");
    let (status, body) = http::read_response(&mut reader).expect("read response");
    let value =
        serde_json::from_str(&body).unwrap_or_else(|e| panic!("non-JSON response {body:?}: {e}"));
    (status, value)
}

fn as_str<'v>(value: &'v Value, key: &str) -> &'v str {
    match value.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("expected string {key}, got {other:?}"),
    }
}

#[test]
fn healthz_reports_status_and_model() {
    let server = start_server(1024);
    let (status, body) = request(server.addr(), "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(as_str(&body, "status"), "ok");
    let model = body.get("model").expect("model section");
    assert_eq!(as_str(model, "algorithm"), "NB");
    assert_eq!(as_str(model, "features"), "WF");
    assert_eq!(uint_of(model, "epoch"), 0);
    server.shutdown();
}

#[test]
fn identify_returns_scores_decisions_and_cache_status() {
    let server = start_server(1024);
    let url = "http://www.wetterbericht-nachrichten.de/berlin";
    let expected = server
        .state()
        .model()
        .0
        .identify(url)
        .map(|l| l.iso_code().to_owned());
    let body = format!("{{\"url\": \"{url}\"}}");

    let (status, first) = request(server.addr(), "POST", "/identify", Some(&body));
    assert_eq!(status, 200);
    assert_eq!(first.get("cached"), Some(&Value::Bool(false)));
    match (&expected, first.get("best")) {
        (Some(iso), Some(Value::Str(best))) => assert_eq!(best, iso),
        (None, Some(Value::Null)) => {}
        (expected, got) => panic!("best mismatch: expected {expected:?}, got {got:?}"),
    }
    let scores = first.get("scores").expect("scores section");
    for lang in ALL_LANGUAGES {
        assert!(
            scores.get(lang.iso_code()).is_some(),
            "missing score for {lang}"
        );
    }
    assert!(matches!(first.get("accepted"), Some(Value::Array(_))));

    // The same URL again: served from the cache, same payload otherwise.
    let (status, second) = request(server.addr(), "POST", "/identify", Some(&body));
    assert_eq!(status, 200);
    assert_eq!(second.get("cached"), Some(&Value::Bool(true)));
    assert_eq!(second.get("best"), first.get("best"));
    assert_eq!(second.get("scores"), first.get("scores"));
    assert_eq!(server.state().cache().hits(), 1);
    server.shutdown();
}

#[test]
fn identify_normalizes_before_caching() {
    let server = start_server(1024);
    let (_, first) = request(
        server.addr(),
        "POST",
        "/identify",
        Some("{\"url\": \"http://WWW.Example.DE/Seite#frag\"}"),
    );
    // Same URL modulo case/fragment: a cache hit.
    let (_, second) = request(
        server.addr(),
        "POST",
        "/identify",
        Some("{\"url\": \"  http://www.example.de/Seite  \"}"),
    );
    assert_eq!(first.get("cached"), Some(&Value::Bool(false)));
    assert_eq!(second.get("cached"), Some(&Value::Bool(true)));
    assert_eq!(as_str(&first, "url"), "http://www.example.de/Seite");
    server.shutdown();
}

#[test]
fn identify_batch_scores_every_url_and_reports_hits() {
    let server = start_server(1024);
    let urls = [
        "http://www.wetterbericht.de/heute",
        "http://www.meteo-previsions.fr/paris",
        "http://www.noticias-madrid.es/",
    ];
    let body = format!(
        "{{\"urls\": [\"{}\", \"{}\", \"{}\"]}}",
        urls[0], urls[1], urls[2]
    );
    let (status, first) = request(server.addr(), "POST", "/identify_batch", Some(&body));
    assert_eq!(status, 200);
    assert_eq!(uint_of(&first, "count"), 3);
    assert_eq!(uint_of(&first, "cache_hits"), 0);
    let Some(Value::Array(results)) = first.get("results") else {
        panic!("results must be an array");
    };
    assert_eq!(results.len(), 3);
    for (url, result) in urls.iter().zip(results) {
        assert_eq!(as_str(result, "url"), *url);
        assert!(result.get("scores").is_some());
    }

    // The whole batch again: all three served from the cache.
    let (_, second) = request(server.addr(), "POST", "/identify_batch", Some(&body));
    assert_eq!(uint_of(&second, "cache_hits"), 3);

    // Batch results agree with the single-URL endpoint.
    let (_, single) = request(
        server.addr(),
        "POST",
        "/identify",
        Some(&format!("{{\"url\": \"{}\"}}", urls[0])),
    );
    let Some(Value::Array(results)) = second.get("results") else {
        panic!("results must be an array");
    };
    assert_eq!(single.get("best"), results[0].get("best"));
    assert_eq!(single.get("scores"), results[0].get("scores"));
    server.shutdown();
}

#[test]
fn error_paths_return_json_errors() {
    let server = start_server(1024);
    let addr = server.addr();
    // Malformed JSON.
    let (status, body) = request(addr, "POST", "/identify", Some("{not json"));
    assert_eq!(status, 400);
    assert!(as_str(&body, "error").contains("JSON"));
    // Nesting deep enough to overflow a recursive parser's stack: one
    // 400, and the server keeps serving (the requests below).
    let deep = "[".repeat(1 << 20);
    let (status, body) = request(addr, "POST", "/identify", Some(&deep));
    assert_eq!(status, 400);
    assert!(as_str(&body, "error").contains("nesting deeper than"));
    // Wrong field.
    let (status, _) = request(addr, "POST", "/identify", Some("{\"uri\": \"x\"}"));
    assert_eq!(status, 400);
    // Empty URL.
    let (status, _) = request(addr, "POST", "/identify", Some("{\"url\": \"  \"}"));
    assert_eq!(status, 400);
    // Non-string batch entry.
    let (status, _) = request(addr, "POST", "/identify_batch", Some("{\"urls\": [3]}"));
    assert_eq!(status, 400);
    // Wrong method.
    let (status, _) = request(addr, "GET", "/identify", None);
    assert_eq!(status, 405);
    // Unknown path.
    let (status, _) = request(addr, "GET", "/nope", None);
    assert_eq!(status, 404);
    // Errors are counted.
    let (_, metrics) = request(addr, "GET", "/metrics", None);
    let requests = metrics.get("requests").expect("requests section");
    assert_eq!(uint_of(requests, "errors"), 7);
    server.shutdown();
}

#[test]
fn newline_less_header_flood_is_rejected_not_buffered() {
    use std::io::{Read, Write};
    let server = start_server(64);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // 64 KiB with no newline: the server must cap the line at the 16 KiB
    // header limit and answer 413 instead of buffering forever.
    let flood = vec![b'A'; 64 * 1024];
    stream.write_all(&flood).expect("write flood");
    // The server answers 413 and drops the connection with most of the
    // flood unread — which may surface to this client as the response or
    // as a reset, depending on what the kernel delivers first. Either
    // way it must not buffer the stream.
    let mut response = String::new();
    match stream.read_to_string(&mut response) {
        Ok(_) => assert!(
            response.starts_with("HTTP/1.1 413"),
            "expected 413, got {:?}",
            &response[..response.len().min(60)]
        ),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
            ),
            "unexpected error {e:?}"
        ),
    }
    // And the server is still healthy afterwards.
    let (status, _) = request(server.addr(), "GET", "/healthz", None);
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let server = start_server(1024);
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    for i in 0..25 {
        let body = format!("{{\"url\": \"http://www.seite{}.de/wetter\"}}", i % 7);
        http::write_request(&mut writer, "POST", "/identify", Some(&body)).expect("write");
        let (status, _) = http::read_response(&mut reader).expect("read");
        assert_eq!(status, 200, "request {i}");
    }
    server.shutdown();
}

#[test]
fn metrics_reports_counters_cache_and_latency() {
    let server = start_server(1024);
    let addr = server.addr();
    for _ in 0..3 {
        let (status, _) = request(
            addr,
            "POST",
            "/identify",
            Some("{\"url\": \"http://www.beispiel.de/\"}"),
        );
        assert_eq!(status, 200);
    }
    let (status, metrics) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let requests = metrics.get("requests").expect("requests");
    assert_eq!(uint_of(requests, "identify"), 3);
    let cache = metrics.get("cache").expect("cache");
    assert_eq!(uint_of(cache, "hits"), 2);
    assert_eq!(uint_of(cache, "misses"), 1);
    assert!(matches!(cache.get("hit_rate"), Some(Value::Float(r)) if (r - 2.0 / 3.0).abs() < 1e-9));
    let latency = metrics.get("latency").expect("latency");
    assert_eq!(uint_of(latency, "count"), 3);
    assert!(matches!(latency.get("p50_ms"), Some(Value::Float(_))));
    assert!(matches!(latency.get("histogram"), Some(Value::Array(_))));
    assert!(matches!(metrics.get("uptime_secs"), Some(Value::Float(_))));
    // The connection engine's gauges: the /metrics request itself is an
    // open connection, and four requests were accepted in total.
    let connections = metrics.get("connections").expect("connections");
    assert!(uint_of(connections, "open") >= 1);
    assert_eq!(uint_of(connections, "accepted"), 4);
    assert_eq!(uint_of(connections, "timed_out"), 0);
    // Thread budget: the reactor set, and nothing else.
    let threads = metrics.get("threads").expect("threads");
    let reactors = urlid_serve::default_reactors() as u64;
    assert_eq!(uint_of(threads, "reactor"), reactors);
    assert_eq!(uint_of(threads, "total"), reactors);
    server.shutdown();
}

/// Raw request writer for tests that need extra headers (Accept) or
/// deliberately broken request lines.
fn raw_request(addr: SocketAddr, request: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("write");
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

#[test]
fn metrics_negotiates_prometheus_text_on_accept() {
    let server = start_server(1024);
    let addr = server.addr();
    let (status, _) = request(
        addr,
        "POST",
        "/identify",
        Some("{\"url\": \"http://www.beispiel.de/\"}"),
    );
    assert_eq!(status, 200);

    let response = raw_request(
        addr,
        "GET /metrics HTTP/1.1\r\nHost: urlid\r\nAccept: text/plain\r\nConnection: close\r\n\r\n",
    );
    assert!(response.starts_with("HTTP/1.1 200"), "{response:?}");
    assert!(
        response.contains("Content-Type: text/plain; version=0.0.4"),
        "prometheus content type missing: {:?}",
        &response[..response.len().min(200)]
    );
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .expect("response has a body");
    urlid_telemetry::prometheus::lint(body).expect("exposition body passes lint");
    assert!(body.contains("# TYPE urlid_request_latency_seconds histogram"));
    assert!(body.contains("# TYPE urlid_stage_duration_seconds histogram"));
    for stage in ["parse", "cache", "extract", "score", "write"] {
        assert!(
            body.contains(&format!(
                "urlid_stage_duration_seconds_count{{stage=\"{stage}\"}}"
            )),
            "missing stage series {stage}"
        );
    }
    assert!(body.contains("urlid_requests_total{endpoint=\"identify\"} 1"));
    assert!(body.contains("urlid_model_info{"));

    // Without an Accept preference the default stays JSON.
    let (status, metrics) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(metrics.get("requests").is_some());
    server.shutdown();
}

/// All sample values of one Prometheus family in an exposition body
/// (bare `family 3` and labelled `family{reactor="0"} 2` alike).
fn prom_values(body: &str, family: &str) -> Vec<f64> {
    body.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            let matches = name == family
                || name
                    .strip_prefix(family)
                    .is_some_and(|rest| rest.starts_with('{'));
            if matches {
                value.parse().ok()
            } else {
                None
            }
        })
        .collect()
}

/// The connection-accounting satellite: with the gauges split across
/// reactors, the JSON and Prometheus expositions must agree on every
/// total, and the per-reactor Prometheus families must sum to exactly
/// those totals. Both expositions ride one keep-alive connection so
/// the connection population cannot drift between the two snapshots.
#[test]
fn metrics_json_and_prometheus_agree_on_connection_totals() {
    use std::io::Write;
    let state = Arc::new(ServerState::new(trained_identifier(), None, 1024));
    let config = ServeConfig {
        reactors: 2,
        ..ServeConfig::default()
    };
    let server = spawn(&config, state).expect("bind");
    let addr = server.addr();

    // A little traffic on short-lived connections so accepted > open.
    for i in 0..5 {
        let (status, _) = request(
            addr,
            "POST",
            "/identify",
            Some(&format!("{{\"url\": \"http://www.seite{i}.de/\"}}")),
        );
        assert_eq!(status, 200);
    }
    // Those clients have hung up, but a reactor may not have read their
    // EOF yet: wait until every one is closed, or the population could
    // still move between the two snapshots below.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.state().metrics().connections_open_total() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the short-lived connections never closed"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = std::io::BufReader::new(stream);
    http::write_request(&mut writer, "GET", "/metrics", None).expect("write JSON request");
    let (status, json_body) = http::read_response(&mut reader).expect("JSON exposition");
    assert_eq!(status, 200);
    let metrics: Value = serde_json::from_str(&json_body).expect("JSON");
    writer
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: urlid\r\nAccept: text/plain\r\n\r\n")
        .expect("write Prometheus request");
    let (status, text) = http::read_response(&mut reader).expect("Prometheus exposition");
    assert_eq!(status, 200);

    let connections = metrics.get("connections").expect("connections");
    let reactors_section = metrics.get("reactors").expect("reactors");
    for (json_key, family) in [
        ("open", "urlid_connections_open"),
        ("idle", "urlid_connections_idle"),
        ("accepted", "urlid_connections_accepted_total"),
        ("timed_out", "urlid_connections_timed_out_total"),
    ] {
        let samples = prom_values(&text, family);
        assert_eq!(samples.len(), 1, "{family} must be a single sample");
        assert_eq!(
            samples[0] as u64,
            uint_of(connections, json_key),
            "{family} disagrees with connections.{json_key}"
        );
    }
    assert_eq!(
        prom_values(&text, "urlid_admission_rejects_total")[0] as u64,
        uint_of(reactors_section, "admission_rejects"),
    );

    // The per-reactor families carry one sample per reactor and sum to
    // exactly the totals — no connection double- or under-counted.
    for (json_key, family) in [
        ("open", "urlid_reactor_connections_open"),
        ("accepted", "urlid_reactor_connections_accepted_total"),
        ("timed_out", "urlid_reactor_connections_timed_out_total"),
    ] {
        let samples = prom_values(&text, family);
        assert_eq!(
            samples.len(),
            2,
            "{family} must have one sample per reactor"
        );
        assert_eq!(
            samples.iter().sum::<f64>() as u64,
            uint_of(connections, json_key),
            "per-reactor {family} does not sum to connections.{json_key}"
        );
    }
    server.shutdown();
}

/// `cache.bytes` and `urlid_cache_bytes` report the same heap bytes.
/// Both expositions ride one keep-alive connection, and `/metrics`
/// never touches the cache, so the two snapshots cannot drift.
#[test]
fn metrics_json_and_prometheus_agree_on_cache_bytes() {
    use std::io::Write;
    let server = start_server(1024);
    let addr = server.addr();
    for i in 0..20 {
        let body = format!("{{\"url\": \"http://www.seite{i}.de/pfad\"}}");
        assert_eq!(request(addr, "POST", "/identify", Some(&body)).0, 200);
    }

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = std::io::BufReader::new(stream);
    http::write_request(&mut writer, "GET", "/metrics", None).expect("write JSON request");
    let (status, json_body) = http::read_response(&mut reader).expect("JSON exposition");
    assert_eq!(status, 200);
    let metrics: Value = serde_json::from_str(&json_body).expect("JSON");
    writer
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: urlid\r\nAccept: text/plain\r\n\r\n")
        .expect("write Prometheus request");
    let (status, text) = http::read_response(&mut reader).expect("Prometheus exposition");
    assert_eq!(status, 200);
    urlid_telemetry::prometheus::lint(&text).expect("exposition body passes lint");

    let cache = metrics.get("cache").expect("cache");
    let bytes = uint_of(cache, "bytes");
    assert!(bytes > 0, "20 cached URLs take room");
    assert_eq!(bytes, server.state().cache().heap_bytes() as u64);
    assert!(text.contains("# TYPE urlid_cache_bytes gauge"));
    assert_eq!(prom_values(&text, "urlid_cache_bytes"), vec![bytes as f64]);
    assert_eq!(uint_of(cache, "entries"), 20);
    server.shutdown();
}

#[test]
fn metrics_json_includes_per_stage_histograms() {
    let server = start_server(1024);
    let addr = server.addr();
    for i in 0..4 {
        let body = format!("{{\"url\": \"http://www.seite{i}.de/\"}}");
        let (status, _) = request(addr, "POST", "/identify", Some(&body));
        assert_eq!(status, 200);
    }
    let (_, metrics) = request(addr, "GET", "/metrics", None);
    let stages = metrics.get("stages").expect("stages section");
    for stage in ["parse", "cache", "extract", "score", "write"] {
        let entry = stages
            .get(stage)
            .unwrap_or_else(|| panic!("missing stage {stage}"));
        assert!(entry.get("p50_ms").is_some(), "{stage} has no p50_ms");
        assert!(entry.get("histogram").is_some(), "{stage} has no buckets");
    }
    // All four requests flowed through parse, cache, and write; every
    // one was a cache miss, so extract/score saw them too.
    assert!(uint_of(stages.get("parse").unwrap(), "count") >= 4);
    assert!(uint_of(stages.get("extract").unwrap(), "count") >= 4);
    server.shutdown();
}

#[test]
fn admin_trace_returns_correlated_spans() {
    let server = start_server(1024);
    let addr = server.addr();
    let (status, _) = request(
        addr,
        "POST",
        "/identify",
        Some("{\"url\": \"http://www.wetter.de/\"}"),
    );
    assert_eq!(status, 200);
    let (status, trace) = request(addr, "GET", "/admin/trace", None);
    assert_eq!(status, 200);
    assert_eq!(trace.get("telemetry"), Some(&Value::Bool(true)));
    let Some(Value::Array(spans)) = trace.get("spans") else {
        panic!("spans must be an array");
    };
    assert_eq!(uint_of(&trace, "count"), spans.len() as u64);
    assert!(
        !spans.is_empty(),
        "at least the identify spans are buffered"
    );
    let known = ["parse", "cache", "extract", "score", "write"];
    for span in spans {
        assert!(known.contains(&as_str(span, "stage")), "unknown stage");
        assert!(uint_of(span, "request_id") > 0);
        uint_of(span, "start_us");
        uint_of(span, "duration_us");
    }
    // The identify request's id shows up on several stages (correlation).
    let first_id = uint_of(&spans[0], "request_id");
    let same_id = spans
        .iter()
        .filter(|s| uint_of(s, "request_id") == first_id)
        .count();
    assert!(same_id >= 2, "spans of one request share its id");
    // Wrong method on the trace endpoint is a 405, not a 404.
    let (status, _) = request(addr, "POST", "/admin/trace", None);
    assert_eq!(status, 405);
    server.shutdown();
}

#[test]
fn protocol_rejects_record_latency_and_parse_samples() {
    let server = start_server(1024);
    let addr = server.addr();
    let response = raw_request(addr, "GARBAGE REQUEST LINE\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 400"), "{response:?}");
    let (_, metrics) = request(addr, "GET", "/metrics", None);
    let latency = metrics.get("latency").expect("latency");
    assert_eq!(
        uint_of(latency, "count"),
        1,
        "the 400 reject must land in the latency histogram"
    );
    let stages = metrics.get("stages").expect("stages");
    assert!(
        uint_of(stages.get("parse").unwrap(), "count") >= 1,
        "the reject's parser CPU must land in the parse-stage histogram"
    );
    server.shutdown();
}

#[test]
fn telemetry_off_keeps_counters_and_latency_only() {
    let state = Arc::new(ServerState::new(trained_identifier(), None, 1024));
    let config = ServeConfig {
        telemetry: false,
        ..ServeConfig::default()
    };
    let server = spawn(&config, state).expect("bind");
    let addr = server.addr();
    let (status, _) = request(
        addr,
        "POST",
        "/identify",
        Some("{\"url\": \"http://www.beispiel.de/\"}"),
    );
    assert_eq!(status, 200);
    let (_, trace) = request(addr, "GET", "/admin/trace", None);
    assert_eq!(trace.get("telemetry"), Some(&Value::Bool(false)));
    assert_eq!(uint_of(&trace, "count"), 0, "no spans with telemetry off");
    let (_, metrics) = request(addr, "GET", "/metrics", None);
    let stages = metrics.get("stages").expect("stages section still present");
    assert_eq!(uint_of(stages.get("parse").unwrap(), "count"), 0);
    let latency = metrics.get("latency").expect("latency");
    assert_eq!(uint_of(latency, "count"), 1, "latency histogram stays on");
    assert_eq!(
        uint_of(metrics.get("requests").unwrap(), "identify"),
        1,
        "counters stay on"
    );
    server.shutdown();
}
