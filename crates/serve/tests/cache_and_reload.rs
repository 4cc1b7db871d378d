//! The two serving-layer guarantees the ISSUE pins down:
//!
//! 1. **A cache hit performs zero feature extractions** — asserted
//!    through the shared `urlid_features::CountingExtractor` harness
//!    (the same instrumentation the single-pass pipeline tests use).
//! 2. **`POST /admin/reload` swaps models without failing in-flight
//!    requests** — a background hammer keeps scoring while the model is
//!    swapped repeatedly; every response must be 200, and the cache
//!    epoch must invalidate results computed under the old model.

use serde::Value;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use urlid::features::{CountingExtractor, WordFeatureExtractor};
use urlid::prelude::*;
use urlid_classifiers::VectorClassifier;
use urlid_features::SparseVector;
use urlid_serve::http;
use urlid_serve::server::{spawn, ServeConfig, ServerHandle, ServerState};

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
    (status, serde_json::from_str(&body).expect("JSON response"))
}

// ---------------------------------------------------------------------
// 1. Cache hits extract zero features
// ---------------------------------------------------------------------

/// Accepts any vector whose features sum past a small threshold.
struct SumThreshold;
impl VectorClassifier for SumThreshold {
    fn score(&self, features: &SparseVector) -> f64 {
        features.sum() - 0.5
    }
}

fn counting_server() -> (ServerHandle, Arc<CountingExtractor<WordFeatureExtractor>>) {
    let mut generator = UrlGenerator::new(41);
    let train = odp_dataset(&mut generator, CorpusScale::tiny()).train;
    let mut inner = WordFeatureExtractor::default();
    inner.fit(&train.urls);
    let extractor = Arc::new(CountingExtractor::new(inner));
    let set =
        LanguageClassifierSet::build_vector(extractor.clone() as _, |_| Box::new(SumThreshold));
    let identifier = LanguageIdentifier::from_classifier_set(
        set,
        TrainingConfig::new(FeatureSetKind::Words, Algorithm::NaiveBayes),
    );
    let state = Arc::new(ServerState::new(identifier, None, 1024));
    let handle = spawn(&ServeConfig::default(), state).expect("bind");
    (handle, extractor)
}

#[test]
fn cache_hit_performs_zero_feature_extractions() {
    let (server, counter) = counting_server();
    let addr = server.addr();
    let body = "{\"url\": \"http://www.wetter-seite.de/bericht\"}";

    counter.reset();
    let (status, first) = request(addr, "POST", "/identify", Some(body));
    assert_eq!(status, 200);
    assert_eq!(first.get("cached"), Some(&Value::Bool(false)));
    assert_eq!(counter.calls(), 1, "first request extracts once");

    for round in 0..5 {
        let (status, repeat) = request(addr, "POST", "/identify", Some(body));
        assert_eq!(status, 200);
        assert_eq!(repeat.get("cached"), Some(&Value::Bool(true)), "{round}");
        assert_eq!(repeat.get("scores"), first.get("scores"), "{round}");
    }
    assert_eq!(
        counter.calls(),
        1,
        "five cache hits performed zero further extractions"
    );
    server.shutdown();
}

#[test]
fn batch_cache_hits_extract_only_for_misses() {
    let (server, counter) = counting_server();
    let addr = server.addr();

    counter.reset();
    let (status, _) = request(
        addr,
        "POST",
        "/identify",
        Some("{\"url\": \"http://a.de/wetter\"}"),
    );
    assert_eq!(status, 200);
    assert_eq!(counter.calls(), 1);

    // A batch where one URL is already cached: only the two new URLs
    // extract (through the parallel score_batch path).
    let batch =
        "{\"urls\": [\"http://a.de/wetter\", \"http://b.fr/meteo\", \"http://c.it/pagina\"]}";
    let (status, response) = request(addr, "POST", "/identify_batch", Some(batch));
    assert_eq!(status, 200);
    assert_eq!(uint_of(&response, "cache_hits"), 1);
    assert_eq!(counter.calls(), 3, "1 single + 2 batch misses");

    // The same batch again: fully cached, zero extractions.
    let (_, response) = request(addr, "POST", "/identify_batch", Some(batch));
    assert_eq!(uint_of(&response, "cache_hits"), 3);
    assert_eq!(counter.calls(), 3);
    server.shutdown();
}

// ---------------------------------------------------------------------
// 2. Hot reload with zero dropped requests
// ---------------------------------------------------------------------

fn train_and_save(algorithm: Algorithm, dir: &std::path::Path) -> std::path::PathBuf {
    let mut generator = UrlGenerator::new(17);
    let train = odp_dataset(&mut generator, CorpusScale::tiny()).train;
    let config = TrainingConfig::new(FeatureSetKind::Words, algorithm).with_maxent_iterations(8);
    let bundle = ModelBundle::train(&train, &config).expect("trainable config");
    let path = dir.join(format!("{algorithm:?}.urlm"));
    bundle.pack(&path).expect("pack bundle");
    path
}

fn load(path: &std::path::Path) -> LanguageIdentifier {
    ModelSource::detect(path)
        .and_then(|source| source.load_identifier())
        .expect("load model")
}

#[test]
fn reload_swaps_models_without_failing_in_flight_requests() {
    let dir = std::env::temp_dir().join("urlid-serve-reload-test");
    std::fs::create_dir_all(&dir).unwrap();
    let nb_path = train_and_save(Algorithm::NaiveBayes, &dir);
    let re_path = train_and_save(Algorithm::RelativeEntropy, &dir);

    let state = Arc::new(ServerState::new(
        load(&nb_path),
        Some(nb_path.clone()),
        4096,
    ));
    let server = spawn(&ServeConfig::default(), state).expect("bind");
    let addr = server.addr();

    // Hammer the scoring endpoint from several keep-alive connections
    // while the main thread swaps the model back and forth.
    const HAMMERS: usize = 4;
    const REQUESTS_PER_HAMMER: usize = 150;
    let total_ok = std::thread::scope(|scope| {
        let hammers: Vec<_> = (0..HAMMERS)
            .map(|h| {
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    let mut writer = stream.try_clone().expect("clone");
                    let mut reader = BufReader::new(stream);
                    let mut ok = 0usize;
                    for i in 0..REQUESTS_PER_HAMMER {
                        let body =
                            format!("{{\"url\": \"http://www.seite{}.de/wetter/{h}\"}}", i % 23);
                        http::write_request(&mut writer, "POST", "/identify", Some(&body))
                            .expect("write");
                        let (status, _) = http::read_response(&mut reader).expect("read");
                        assert_eq!(status, 200, "hammer {h} request {i} failed during reload");
                        ok += 1;
                    }
                    ok
                })
            })
            .collect();

        // Interleave reloads with the in-flight traffic.
        for (round, path) in [&re_path, &nb_path, &re_path].iter().enumerate() {
            std::thread::sleep(std::time::Duration::from_millis(20));
            let body = format!("{{\"path\": \"{}\"}}", path.display());
            let (status, response) = request(addr, "POST", "/admin/reload", Some(&body));
            assert_eq!(status, 200, "reload {round}");
            assert_eq!(response.get("reloaded"), Some(&Value::Bool(true)));
            let model = response.get("model").expect("model");
            assert_eq!(uint_of(model, "epoch"), round as u64 + 1);
        }

        hammers
            .into_iter()
            .map(|h| h.join().expect("hammer"))
            .sum::<usize>()
    });
    assert_eq!(total_ok, HAMMERS * REQUESTS_PER_HAMMER);

    // The final model is Relative Entropy, and the reload counter saw
    // all three swaps.
    let (_, health) = request(addr, "GET", "/healthz", None);
    let model = health.get("model").expect("model");
    assert_eq!(model.get("algorithm"), Some(&Value::Str("RE".into())));
    assert_eq!(uint_of(model, "epoch"), 3);
    server.shutdown();
}

#[test]
fn reload_invalidates_cached_results_via_epoch() {
    let dir = std::env::temp_dir().join("urlid-serve-epoch-test");
    std::fs::create_dir_all(&dir).unwrap();
    let nb_path = train_and_save(Algorithm::NaiveBayes, &dir);
    let re_path = train_and_save(Algorithm::RelativeEntropy, &dir);

    let state = Arc::new(ServerState::new(
        load(&nb_path),
        Some(nb_path.clone()),
        1024,
    ));
    let server = spawn(&ServeConfig::default(), state).expect("bind");
    let addr = server.addr();
    let body = "{\"url\": \"http://www.wetterbericht.de/heute\"}";

    let (_, first) = request(addr, "POST", "/identify", Some(body));
    let (_, second) = request(addr, "POST", "/identify", Some(body));
    assert_eq!(second.get("cached"), Some(&Value::Bool(true)));

    let reload_body = format!("{{\"path\": \"{}\"}}", re_path.display());
    let (status, _) = request(addr, "POST", "/admin/reload", Some(&reload_body));
    assert_eq!(status, 200);

    // First request after the swap recomputes under the new model...
    let (_, after) = request(addr, "POST", "/identify", Some(body));
    assert_eq!(after.get("cached"), Some(&Value::Bool(false)));
    // ... and the scores genuinely come from the new model (NB and RE
    // score scales differ by construction).
    assert_ne!(after.get("scores"), first.get("scores"));
    // ... and caching resumes under the new epoch.
    let (_, cached_again) = request(addr, "POST", "/identify", Some(body));
    assert_eq!(cached_again.get("cached"), Some(&Value::Bool(true)));
    server.shutdown();
}

#[test]
fn reload_reports_load_time_and_survives_corruption() {
    let dir = std::env::temp_dir().join("urlid-serve-binary-reload-test");
    std::fs::create_dir_all(&dir).unwrap();
    let nb_urlm = train_and_save(Algorithm::NaiveBayes, &dir);

    let state = Arc::new(ServerState::new(
        load(&nb_urlm),
        Some(nb_urlm.clone()),
        1024,
    ));
    let server = spawn(&ServeConfig::default(), state).expect("bind");
    let addr = server.addr();
    let body = "{\"url\": \"http://www.wetterbericht.de/heute\"}";
    let (_, before) = request(addr, "POST", "/identify", Some(body));

    // Empty body stays accepted: reloads the stored path.
    let (status, _) = request(addr, "POST", "/admin/reload", None);
    assert_eq!(status, 200, "empty-body reload");

    // Reload by explicit path: the response reports load_ms, and the
    // plane serves mapped.
    let reload_body = format!("{{\"path\": \"{}\"}}", nb_urlm.display());
    let (status, response) = request(addr, "POST", "/admin/reload", Some(&reload_body));
    assert_eq!(status, 200, "path reload");
    for retired in ["format", "weights"] {
        assert!(
            response.get(retired).is_none(),
            "one model format and one weight lane, no {retired} to report"
        );
    }
    assert!(
        matches!(response.get("load_ms"), Some(Value::Float(ms)) if *ms >= 0.0),
        "load_ms missing: {response:?}"
    );
    let model = response.get("model").expect("model");
    assert!(model.get("format").is_none(), "{model:?}");
    assert_eq!(model.get("mapped"), Some(&Value::Bool(true)));

    // Same model bytes, same scores.
    let (_, after) = request(addr, "POST", "/identify", Some(body));
    assert_eq!(after.get("scores"), before.get("scores"));

    // Corrupt the packed file (flip one payload byte): the reload
    // fails with a checksum error and the old model keeps serving.
    let mut bytes = std::fs::read(&nb_urlm).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&nb_urlm, &bytes).unwrap();
    let (status, response) = request(addr, "POST", "/admin/reload", Some(&reload_body));
    assert_eq!(status, 500, "corrupt reload must fail");
    assert!(matches!(response.get("error"), Some(Value::Str(_))));
    let (status, still) = request(addr, "POST", "/identify", Some(body));
    assert_eq!(status, 200);
    assert_eq!(still.get("scores"), before.get("scores"));
    let (_, health) = request(addr, "GET", "/healthz", None);
    let model = health.get("model").expect("model");
    assert_eq!(uint_of(model, "epoch"), 2, "failed reloads bump nothing");
    server.shutdown();
}

#[test]
fn reload_failure_keeps_the_old_model_serving() {
    let dir = std::env::temp_dir().join("urlid-serve-badreload-test");
    std::fs::create_dir_all(&dir).unwrap();
    let nb_path = train_and_save(Algorithm::NaiveBayes, &dir);
    // A leftover JSON model (or any non-`.urlm` file) is refused by its
    // missing magic.
    let json_path = dir.join("leftover-model.json");
    std::fs::write(&json_path, "{\"config\": {\"algorithm\": \"NaiveBayes\"}}").unwrap();
    let state = Arc::new(ServerState::new(load(&nb_path), Some(nb_path), 1024));
    let server = spawn(&ServeConfig::default(), state).expect("bind");
    let addr = server.addr();

    for (path, cause) in [
        (std::path::Path::new("/nonexistent/model.urlm"), "i/o error"),
        (json_path.as_path(), "bad magic"),
    ] {
        let body = format!("{{\"path\": \"{}\"}}", path.display());
        let (status, response) = request(addr, "POST", "/admin/reload", Some(&body));
        assert_eq!(status, 500, "{}", path.display());
        assert!(
            matches!(response.get("error"), Some(Value::Str(e)) if e.contains(cause)),
            "{}: {response:?}",
            path.display()
        );

        // Still serving, still on epoch 0.
        let (status, _) = request(
            addr,
            "POST",
            "/identify",
            Some("{\"url\": \"http://www.beispiel.de/\"}"),
        );
        assert_eq!(status, 200);
        let (_, health) = request(addr, "GET", "/healthz", None);
        let model = health.get("model").expect("model");
        assert_eq!(uint_of(model, "epoch"), 0);
    }
    server.shutdown();
}
