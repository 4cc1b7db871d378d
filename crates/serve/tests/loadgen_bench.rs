//! The acceptance run: the load generator against a locally started
//! server completes and emits a multi-scenario `BENCH_serve.json` with
//! throughput, p50/p99 latency, the cache hit rate and the server's
//! thread budget — including a scenario holding mostly-idle keep-alive
//! connections open through the hammer.

use serde::Value;
use std::sync::Arc;
use urlid::prelude::*;
use urlid_serve::server::{spawn, ServeConfig, ServerState};
use urlid_serve::{run_loadgen, run_suite, LoadgenConfig};

fn start_server() -> urlid_serve::ServerHandle {
    let mut generator = UrlGenerator::new(5);
    let odp = odp_dataset(&mut generator, CorpusScale::tiny());
    let identifier = LanguageIdentifier::train_paper_best(&odp.train);
    let state = Arc::new(ServerState::new(identifier, None, 8192));
    spawn(&ServeConfig::default(), state).expect("bind")
}

#[test]
fn loadgen_completes_and_emits_bench_json() {
    let server = start_server();
    let out = std::env::temp_dir().join("urlid-loadgen-test-BENCH_serve.json");
    std::fs::remove_file(&out).ok();
    let config = LoadgenConfig {
        name: "test_3conn".to_owned(),
        addr: server.addr().to_string(),
        requests: 600,
        concurrency: 3,
        idle_connections: 0,
        unique_urls: 50,
        seed: 11,
        arrival_rps: 0.0,
        out: Some(out.clone()),
    };
    let report = run_loadgen(&config).expect("loadgen run");
    server.shutdown();

    assert_eq!(report.requests, 600);
    assert_eq!(report.errors, 0);
    assert_eq!(report.scenario, "test_3conn");
    assert!(report.duration_secs > 0.0);
    assert!(report.throughput_rps > 0.0);
    assert!(report.latency.p50_ms > 0.0);
    assert!(report.latency.p50_ms <= report.latency.p99_ms);
    assert!(report.latency.p99_ms <= report.latency.p999_ms);
    assert!(report.latency.p999_ms <= report.latency.max_ms);
    // The server's whole thread budget is the reactor set, one per
    // core — the report certifies it.
    let reactors = urlid_serve::default_reactors() as u64;
    assert_eq!(report.reactors, reactors);
    assert_eq!(report.server_threads, reactors);
    // 600 requests over 50 unique URLs: the cache must be doing real work.
    assert!(
        report.cache.hit_rate > 0.5,
        "hit rate {} too low for a 12x-repeated URL pool",
        report.cache.hit_rate
    );
    assert_eq!(report.cache.hits + report.cache.misses, 600);

    // The emitted file is machine-readable and has the documented shape.
    let text = std::fs::read_to_string(&out).expect("BENCH_serve.json written");
    let parsed: Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(parsed.get("bench"), Some(&Value::Str("serve".into())));
    assert_eq!(parsed.get("schema"), Some(&Value::Int(5)));
    for key in [
        "scenario",
        "unix_time",
        "requests",
        "errors",
        "concurrency",
        "idle_connections",
        "unique_urls",
        "duration_secs",
        "throughput_rps",
        "admission_rejects",
        "server_threads",
        "reactors",
        "io_backend",
        "per_reactor",
    ] {
        assert!(parsed.get(key).is_some(), "missing {key}");
    }
    let latency = parsed.get("latency").expect("latency section");
    for key in ["p50_ms", "p90_ms", "p99_ms", "p999_ms", "mean_ms", "max_ms"] {
        assert!(latency.get(key).is_some(), "missing latency.{key}");
    }
    let cache = parsed.get("cache").expect("cache section");
    for key in ["hits", "misses", "hit_rate"] {
        assert!(cache.get(key).is_some(), "missing cache.{key}");
    }
    // The report names the reactor I/O engine the server ran: epoll,
    // the only one.
    assert_eq!(parsed.get("io_backend"), Some(&Value::Str("epoll".into())));
    std::fs::remove_file(&out).ok();
}

#[test]
fn suite_with_idle_connections_runs_scenarios_back_to_back() {
    let server = start_server();
    let out = std::env::temp_dir().join("urlid-loadgen-suite-BENCH_serve.json");
    std::fs::remove_file(&out).ok();
    let base = LoadgenConfig {
        addr: server.addr().to_string(),
        requests: 300,
        concurrency: 2,
        unique_urls: 40,
        seed: 3,
        out: None,
        ..LoadgenConfig::default()
    };
    let scenarios = vec![
        LoadgenConfig {
            name: "small_baseline".to_owned(),
            ..base.clone()
        },
        LoadgenConfig {
            name: "small_idle".to_owned(),
            idle_connections: 64,
            ..base
        },
    ];
    let suite = run_suite(&scenarios, Some(&out)).expect("suite run");
    server.shutdown();

    assert_eq!(suite.scenarios.len(), 2);
    let baseline = &suite.scenarios[0];
    let idle = &suite.scenarios[1];
    assert_eq!(baseline.scenario, "small_baseline");
    assert_eq!(baseline.errors, 0);
    assert_eq!(baseline.requests, 300);
    assert_eq!(idle.scenario, "small_idle");
    // Zero errors across the hammer, the 64 idle opens and the final
    // idle sweep — every idle connection survived and still served.
    assert_eq!(idle.errors, 0);
    assert_eq!(idle.idle_connections, 64);
    assert_eq!(idle.requests, 300 + 64 + 64);

    // The suite file holds both scenarios.
    let text = std::fs::read_to_string(&out).expect("suite written");
    let parsed: Value = serde_json::from_str(&text).expect("valid JSON");
    let Some(Value::Array(entries)) = parsed.get("scenarios") else {
        panic!("scenarios must be an array");
    };
    assert_eq!(entries.len(), 2);
    std::fs::remove_file(&out).ok();
}
