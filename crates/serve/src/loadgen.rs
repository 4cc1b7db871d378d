//! The load generator: hammer a running server with a corpus-generated
//! URL mix and emit a machine-readable benchmark report.
//!
//! The URL mix comes from
//! [`urlid_corpus::UrlGenerator::crawl_frontier_mix`]: a pool of
//! `unique_urls` mixed-language web-crawl URLs, sampled with repetition —
//! with more requests than unique URLs the workload repeats URLs exactly
//! like real traffic does, which is what exercises (and measures) the
//! result cache.
//!
//! Each active worker thread keeps one keep-alive connection and
//! records per-request wall latency into its own shared log-linear
//! [`Histogram`] (the same `urlid-telemetry` buckets the server
//! exports); the per-worker histograms merge exactly, so the reported
//! p50/p90/p99/p99.9 carry the bucket scheme's ≤3.125% relative error
//! and are directly comparable to the server-side `/metrics`
//! distribution. On top of the active workers, a scenario can hold
//! `idle_connections` **mostly-idle
//! keep-alive connections** open for the whole run — the crawl-frontier
//! client population the reactor refactor exists for. Each idle
//! connection proves itself twice: one request when it opens, and one
//! sweep request after the hammering ends (a connection the server
//! evicted or wedged fails the sweep, so `errors == 0` certifies all of
//! them survived).
//!
//! Two driving modes:
//!
//! * **Closed loop** (`arrival_rps == 0`, the default): each worker
//!   sends its next request when the previous response lands. Measures
//!   peak throughput — the server sets the pace.
//! * **Open loop** (`arrival_rps > 0`): requests are *scheduled* at a
//!   fixed aggregate arrival rate regardless of how fast responses come
//!   back, which is how real overload arrives. Latency is measured from
//!   the scheduled send time, so server-side queueing (and client-side
//!   socket backpressure) counts against the percentiles — the honest
//!   latency-under-overload number.
//!
//! In both modes, admission-control responses (`503`/`413`) are tallied
//! as `admission_rejects`, **not** errors — a server shedding load by
//! design is behaving, not failing — and their latency still lands in
//! the percentiles (the client waited for that answer).
//!
//! A single run produces a [`BenchReport`]; [`run_suite`] strings
//! several scenarios into one multi-scenario [`BenchSuite`], written as
//! `BENCH_serve.json` so the perf trajectory accumulates next to
//! `BENCH_score.json` and `BENCH_train.json`.

use crate::http;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};
use std::io::{self, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Instant;
use urlid_corpus::UrlGenerator;
use urlid_telemetry::Histogram;

/// Schema version stamped into [`BenchReport`] and [`BenchSuite`].
/// Version 3 switched the latency summary to the shared log-linear
/// histogram and added `p999_ms`. Version 4 added the multi-reactor
/// columns (`reactors`, `per_reactor`), the open-loop fields
/// (`arrival_rps`), and `admission_rejects`. Version 5 added the
/// per-scenario `io_backend` (the reactor I/O engine the server
/// reported in `/metrics`), so numbers from different engines are
/// never compared without the label saying so.
pub const SERVE_BENCH_SCHEMA: u32 = 5;

/// Load-generator configuration for one scenario.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Scenario name carried into the report.
    pub name: String,
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Total number of `/identify` requests the active workers send.
    pub requests: usize,
    /// Concurrent active keep-alive connections (worker threads).
    pub concurrency: usize,
    /// Mostly-idle keep-alive connections held open across the run
    /// (each sends one request at open and one in the final sweep).
    pub idle_connections: usize,
    /// Size of the unique-URL pool (smaller pool → higher cache hit rate).
    pub unique_urls: usize,
    /// Seed for the URL mix and the per-worker sampling.
    pub seed: u64,
    /// Open-loop aggregate arrival rate in requests/second. `0.0`
    /// (default) runs the classic closed loop. In [`run_suite`], a
    /// *negative* value is a sentinel meaning "this multiple of the
    /// measured baseline throughput" (so `-1.5` drives 1.5× capacity —
    /// guaranteed overload without hardcoding this box's speed).
    pub arrival_rps: f64,
    /// Where to write the JSON report (`None` skips the file).
    pub out: Option<PathBuf>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            name: "baseline".to_owned(),
            addr: "127.0.0.1:7878".to_owned(),
            requests: 10_000,
            concurrency: 4,
            idle_connections: 0,
            unique_urls: 2_000,
            seed: 7,
            arrival_rps: 0.0,
            out: Some(PathBuf::from("BENCH_serve.json")),
        }
    }
}

/// Latency percentiles in milliseconds, computed from the merged
/// per-worker [`Histogram`]s (log-linear buckets, ≤3.125% relative
/// error; the mean is exact because the histogram keeps the true sum).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Median.
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// 99.9th percentile.
    pub p999_ms: f64,
    /// Mean (exact).
    pub mean_ms: f64,
    /// Slowest request (bucket-resolved).
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarise a latency histogram recorded in microseconds.
    pub fn from_histogram(hist: &Histogram) -> Self {
        let q = |q: f64| hist.quantile(q).unwrap_or(0) as f64 / 1000.0;
        Self {
            p50_ms: q(0.50),
            p90_ms: q(0.90),
            p99_ms: q(0.99),
            p999_ms: q(0.999),
            mean_ms: hist.mean() / 1000.0,
            max_ms: hist.max() as f64 / 1000.0,
        }
    }
}

/// Server-side cache statistics, read from `GET /metrics` after the run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheSummary {
    /// Cache hits over the server's lifetime.
    pub hits: u64,
    /// Cache misses over the server's lifetime.
    pub misses: u64,
    /// Hits over lookups.
    pub hit_rate: f64,
}

/// One reactor's share of the run, read from `GET /metrics` afterwards
/// — shows how evenly the kernel balanced accepts across the
/// `SO_REUSEPORT` listeners.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReactorSample {
    /// Reactor index.
    pub reactor: u64,
    /// Connections this reactor accepted.
    pub accepted: u64,
    /// Idle-timeout evictions on this reactor.
    pub timed_out: u64,
    /// Admission-control 503s answered by this reactor.
    pub admission_rejects: u64,
}

/// One scenario's machine-readable benchmark report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Report kind tag, always `"serve"`.
    pub bench: String,
    /// Report schema version ([`SERVE_BENCH_SCHEMA`]).
    pub schema: u32,
    /// Scenario name (`baseline_4conn`, `idle_1024`, ...).
    pub scenario: String,
    /// Seconds since the Unix epoch when the run finished.
    pub unix_time: u64,
    /// Requests completed successfully (active + idle-open + sweep).
    pub requests: u64,
    /// Requests that failed (non-200 or transport error), across the
    /// active hammer, the idle opens and the final idle sweep.
    pub errors: u64,
    /// Concurrent active connections used.
    pub concurrency: u64,
    /// Mostly-idle keep-alive connections held open across the run.
    pub idle_connections: u64,
    /// Unique-URL pool size.
    pub unique_urls: u64,
    /// Open-loop arrival rate driven (resolved, requests/second); `0`
    /// for closed-loop scenarios.
    pub arrival_rps: f64,
    /// Wall-clock duration of the active hammer in seconds.
    pub duration_secs: f64,
    /// Successfully completed (200) active requests per second.
    pub throughput_rps: f64,
    /// Admission-control responses (`503`/`413`) received across the
    /// run — deliberate load shedding, counted apart from `errors`.
    pub admission_rejects: u64,
    /// Server thread budget (the reactor set) read from
    /// `GET /metrics` after the run; 0 when the server predates the
    /// gauge. This is what certifies "1024 connections, bounded
    /// threads".
    pub server_threads: u64,
    /// Reactor count read from `GET /metrics` after the run (0 when the
    /// server predates the gauge).
    pub reactors: u64,
    /// Reactor I/O engine the server ran (`epoll`; reports from older
    /// servers may name engines since removed), read from
    /// `GET /metrics` after the run; empty when the server predates the
    /// field. Keeps numbers from different engines from being compared
    /// unlabelled.
    #[serde(default)]
    pub io_backend: String,
    /// Per-reactor accept/evict/reject breakdown read from
    /// `GET /metrics` after the run (empty when unavailable).
    pub per_reactor: Vec<ReactorSample>,
    /// Client-side latency percentiles over the active requests.
    pub latency: LatencySummary,
    /// Server-side cache statistics.
    pub cache: CacheSummary,
}

/// The multi-scenario `BENCH_serve.json`: every scenario of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchSuite {
    /// Report kind tag, always `"serve"`.
    pub bench: String,
    /// Report schema version ([`SERVE_BENCH_SCHEMA`]).
    pub schema: u32,
    /// Seconds since the Unix epoch when the suite finished.
    pub unix_time: u64,
    /// One report per scenario, in execution order.
    pub scenarios: Vec<BenchReport>,
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// What one worker (closed- or open-loop) hands back: the latency
/// histogram in µs, the error count, and the admission-reject count.
type WorkerResult = (Histogram, u64, u64);

/// Is this status a deliberate load-shedding answer (per-reactor
/// admission control's `503`, the body-cap `413`) rather than a
/// failure?
fn is_admission_status(status: u16) -> bool {
    status == 503 || status == 413
}

/// Open one keep-alive connection to the server: `TCP_NODELAY` set
/// (every use here is a request/response round trip, so Nagle only
/// adds latency), returned as the cloned writer handle plus a buffered
/// reader over the same socket.
fn connect_keepalive(addr: &str) -> io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let writer = stream.try_clone()?;
    Ok((writer, BufReader::new(stream)))
}

/// One closed-loop worker: a keep-alive connection sending `n`
/// requests back to back, sampled from the shared pool. The per-worker
/// histograms merge exactly.
fn worker(addr: &str, urls: &[String], n: usize, seed: u64) -> io::Result<WorkerResult> {
    let (mut writer, mut reader) = connect_keepalive(addr)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut latencies = Histogram::new();
    let mut errors = 0u64;
    let mut admission = 0u64;
    for _ in 0..n {
        let url = &urls[rng.random_range(0..urls.len())];
        let started = Instant::now();
        let status = identify_once(&mut writer, &mut reader, url)?;
        let elapsed = started.elapsed().as_micros() as u64;
        if status == 200 {
            latencies.record(elapsed);
        } else if is_admission_status(status) {
            admission += 1;
            latencies.record(elapsed);
        } else {
            errors += 1;
        }
    }
    Ok((latencies, errors, admission))
}

/// One open-loop worker: a keep-alive connection whose requests are
/// *scheduled* — request `k` goes out at `start + offset + k*interval`
/// no matter how the previous one fared. A writer thread paces the
/// sends (socket backpressure is the only thing that can slow it, and
/// then the delay rightly lands in the latency numbers); the calling
/// thread reads responses and measures each from its scheduled send
/// time, clamped to the actual send when the *client* fell behind.
fn open_worker(
    addr: &str,
    urls: &[String],
    n: usize,
    seed: u64,
    start: Instant,
    offset: std::time::Duration,
    interval_secs: f64,
) -> io::Result<WorkerResult> {
    let (mut writer, mut reader) = connect_keepalive(addr)?;
    let (sent_tx, sent_rx) = std::sync::mpsc::channel::<Instant>();
    let mut latencies = Histogram::new();
    let mut errors = 0u64;
    let mut admission = 0u64;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            for k in 0..n {
                let due =
                    start + offset + std::time::Duration::from_secs_f64(interval_secs * k as f64);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let url = &urls[rng.random_range(0..urls.len())];
                let mut body = Value::object();
                body.insert("url", Value::Str(url.to_owned()));
                let body = serde_json::to_string(&body).expect("request serialises");
                // Timestamp first: the reader must know a request is in
                // flight *before* a backpressured write blocks us.
                if sent_tx.send(due.max(now)).is_err() {
                    return; // reader bailed (read error)
                }
                if http::write_request(&mut writer, "POST", "/identify", Some(&body)).is_err() {
                    return; // reader sees the broken stream and tallies
                }
            }
            // sent_tx drops here; the reader drains and exits.
        });
        while let Ok(due) = sent_rx.recv() {
            match http::read_response(&mut reader) {
                Ok((status, _)) => {
                    let micros = Instant::now().saturating_duration_since(due).as_micros() as u64;
                    if status == 200 {
                        latencies.record(micros);
                    } else if is_admission_status(status) {
                        admission += 1;
                        latencies.record(micros);
                    } else {
                        errors += 1;
                    }
                }
                Err(_) => {
                    // The stream cannot be resynchronised; stop reading
                    // (dropping the receiver stops the writer too).
                    errors += 1;
                    break;
                }
            }
        }
    });
    Ok((latencies, errors, admission))
}

/// Send one `/identify` request on an open connection; returns the status.
fn identify_once(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    url: &str,
) -> io::Result<u16> {
    let mut body = Value::object();
    body.insert("url", Value::Str(url.to_owned()));
    let body = serde_json::to_string(&body).expect("request serialises");
    http::write_request(writer, "POST", "/identify", Some(&body))?;
    let (status, _) = http::read_response(reader)?;
    Ok(status)
}

/// A mostly-idle keep-alive connection (see module docs).
struct IdleConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// Open the idle population, one proving request each. A connect or
/// request failure counts as an error and drops that slot.
fn open_idle_conns(addr: &str, count: usize, urls: &[String]) -> (Vec<IdleConn>, u64) {
    let mut conns = Vec::with_capacity(count);
    let mut errors = 0u64;
    for i in 0..count {
        let attempt = (|| -> io::Result<IdleConn> {
            let (mut writer, mut reader) = connect_keepalive(addr)?;
            let status = identify_once(&mut writer, &mut reader, &urls[i % urls.len()])?;
            if status != 200 {
                return Err(io::Error::other(format!("idle open got {status}")));
            }
            Ok(IdleConn { writer, reader })
        })();
        match attempt {
            Ok(conn) => conns.push(conn),
            Err(_) => errors += 1,
        }
    }
    (conns, errors)
}

/// After the hammer: every idle connection must still be alive and
/// serving. Returns (ok, errors).
fn sweep_idle_conns(conns: &mut [IdleConn], urls: &[String]) -> (u64, u64) {
    let mut ok = 0u64;
    let mut errors = 0u64;
    for (i, conn) in conns.iter_mut().enumerate() {
        match identify_once(&mut conn.writer, &mut conn.reader, &urls[i % urls.len()]) {
            Ok(200) => ok += 1,
            Ok(_) | Err(_) => errors += 1,
        }
    }
    (ok, errors)
}

/// Server-side statistics read from `GET /metrics`.
struct ServerSnapshot {
    cache: CacheSummary,
    /// `threads.total` (0 when the server predates the gauge).
    threads: u64,
    /// `reactors.count` (0 when the server predates the section).
    reactors: u64,
    /// `reactors.max_inflight` (0 = unlimited or unavailable).
    max_inflight: u64,
    /// `reactors.io_backend` (empty when the server predates it).
    io_backend: String,
    /// `connections.per_reactor`, one sample per reactor.
    per_reactor: Vec<ReactorSample>,
}

fn fetch_server_stats(addr: &str) -> io::Result<ServerSnapshot> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    http::write_request(&mut writer, "GET", "/metrics", None)?;
    let (status, body) = http::read_response(&mut reader)?;
    if status != 200 {
        return Err(io::Error::other(format!("/metrics returned {status}")));
    }
    let parsed: Value = serde_json::from_str(&body)
        .map_err(|e| io::Error::other(format!("bad /metrics JSON: {e}")))?;
    let cache = parsed
        .get("cache")
        .ok_or_else(|| io::Error::other("/metrics has no cache section"))?;
    let uint = |section: &Value, key: &str| -> Option<u64> {
        match section.get(key) {
            Some(Value::Uint(n)) => Some(*n),
            Some(Value::Int(n)) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    };
    let hit_rate = match cache.get("hit_rate") {
        Some(Value::Float(x)) => *x,
        Some(Value::Int(n)) => *n as f64,
        _ => 0.0,
    };
    let summary = CacheSummary {
        hits: uint(cache, "hits").ok_or_else(|| io::Error::other("cache.hits missing"))?,
        misses: uint(cache, "misses").ok_or_else(|| io::Error::other("cache.misses missing"))?,
        hit_rate,
    };
    let threads = parsed
        .get("threads")
        .and_then(|t| uint(t, "total"))
        .unwrap_or(0);
    let reactors_section = parsed.get("reactors");
    let reactors = reactors_section.and_then(|r| uint(r, "count")).unwrap_or(0);
    let max_inflight = reactors_section
        .and_then(|r| uint(r, "max_inflight"))
        .unwrap_or(0);
    let io_backend = match reactors_section.and_then(|r| r.get("io_backend")) {
        Some(Value::Str(s)) => s.clone(),
        _ => String::new(),
    };
    let mut per_reactor = Vec::new();
    if let Some(Value::Array(entries)) =
        parsed.get("connections").and_then(|c| c.get("per_reactor"))
    {
        for entry in entries {
            per_reactor.push(ReactorSample {
                reactor: uint(entry, "reactor").unwrap_or(per_reactor.len() as u64),
                accepted: uint(entry, "accepted").unwrap_or(0),
                timed_out: uint(entry, "timed_out").unwrap_or(0),
                admission_rejects: uint(entry, "admission_rejects").unwrap_or(0),
            });
        }
    }
    Ok(ServerSnapshot {
        cache: summary,
        threads,
        reactors,
        max_inflight,
        io_backend,
        per_reactor,
    })
}

/// Run one load-generator scenario against a server at `config.addr`;
/// returns the report (and writes it to `config.out` when set).
pub fn run_loadgen(config: &LoadgenConfig) -> io::Result<BenchReport> {
    let concurrency = config.concurrency.max(1);
    let urls = UrlGenerator::crawl_frontier_mix(config.seed, config.unique_urls.max(1));
    let per_worker = config.requests.div_ceil(concurrency);

    // Phase 1: build the idle population (serving one request each).
    let (mut idle_conns, mut errors) =
        open_idle_conns(&config.addr, config.idle_connections, &urls);
    let mut completed = idle_conns.len() as u64;

    // Phase 2: the active hammer, with the idle population holding
    // their connections open against the same reactors. Closed loop
    // unless an arrival rate was set; in the open loop each worker
    // drives `arrival_rps / concurrency` and the workers' schedules are
    // phase-staggered so the aggregate arrival process is smooth.
    let open_loop = config.arrival_rps > 0.0;
    let started = Instant::now();
    let results: Vec<io::Result<WorkerResult>> = std::thread::scope(|scope| {
        (0..concurrency)
            .map(|i| {
                let urls = &urls;
                let addr = config.addr.as_str();
                let seed = config.seed.wrapping_add(1 + i as u64);
                if open_loop {
                    let interval_secs = concurrency as f64 / config.arrival_rps;
                    let offset = std::time::Duration::from_secs_f64(
                        interval_secs * i as f64 / concurrency as f64,
                    );
                    scope.spawn(move || {
                        open_worker(addr, urls, per_worker, seed, started, offset, interval_secs)
                    })
                } else {
                    scope.spawn(move || worker(addr, urls, per_worker, seed))
                }
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|handle| match handle.join() {
                Ok(result) => result,
                Err(_) => Err(io::Error::other("loadgen worker panicked")),
            })
            .collect()
    });
    let duration_secs = started.elapsed().as_secs_f64();

    // Phase 3: the idle sweep — every idle connection must still serve.
    let (swept, sweep_errors) = sweep_idle_conns(&mut idle_conns, &urls);
    completed += swept;
    errors += sweep_errors;
    drop(idle_conns);

    let mut latencies = Histogram::new();
    let mut admission_rejects = 0u64;
    for result in results {
        let (worker_latencies, worker_errors, worker_admission) = result?;
        latencies.merge(&worker_latencies);
        errors += worker_errors;
        admission_rejects += worker_admission;
    }
    // The histogram holds 200s *and* admission 503s (both are answered
    // requests the client waited for); throughput counts only the 200s.
    let active_ok = latencies.count().saturating_sub(admission_rejects);
    completed += active_ok;
    let snapshot = fetch_server_stats(&config.addr)?;
    let report = BenchReport {
        bench: "serve".to_owned(),
        schema: SERVE_BENCH_SCHEMA,
        scenario: config.name.clone(),
        unix_time: unix_now(),
        requests: completed,
        errors,
        concurrency: concurrency as u64,
        idle_connections: config.idle_connections as u64,
        unique_urls: urls.len() as u64,
        arrival_rps: if open_loop { config.arrival_rps } else { 0.0 },
        duration_secs,
        throughput_rps: if duration_secs > 0.0 {
            active_ok as f64 / duration_secs
        } else {
            0.0
        },
        admission_rejects,
        server_threads: snapshot.threads,
        reactors: snapshot.reactors,
        io_backend: snapshot.io_backend,
        per_reactor: snapshot.per_reactor,
        latency: LatencySummary::from_histogram(&latencies),
        cache: snapshot.cache,
    };
    if let Some(out) = &config.out {
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| io::Error::other(format!("cannot serialise report: {e}")))?;
        std::fs::write(out, json)?;
    }
    Ok(report)
}

/// Resolve the suite's self-scaling sentinels against measured reality:
/// a negative `arrival_rps` becomes that multiple of the measured
/// baseline throughput; `concurrency == 0` becomes 1.5× the server's
/// total admission budget (`reactors × max_inflight`, clamped to
/// [48, 192]) so the open-loop schedule can actually exceed what the
/// server admits; `requests == 0` becomes `300 × concurrency`.
fn resolve_sentinels(
    config: &mut LoadgenConfig,
    baseline_rps: Option<f64>,
    reactors: u64,
    max_inflight: u64,
) {
    if config.arrival_rps < 0.0 {
        config.arrival_rps = -config.arrival_rps * baseline_rps.unwrap_or(50_000.0);
    }
    if config.concurrency == 0 {
        let per_reactor = if max_inflight == 0 { 32 } else { max_inflight };
        let budget = (reactors.max(1) * per_reactor) as usize;
        config.concurrency = (budget * 3 / 2).clamp(48, 192);
    }
    if config.requests == 0 {
        config.requests = 300 * config.concurrency;
    }
}

/// Run several scenarios back to back against the same server and
/// write one multi-scenario `BENCH_serve.json` to `out` (when set).
/// Per-scenario `out` paths are ignored — the suite file is the report.
/// Scenario sentinels (see `resolve_sentinels`) are resolved against
/// the first scenario's measured throughput and the server's reported
/// reactor topology, so the same suite definition saturates a laptop
/// and a 32-core runner alike.
pub fn run_suite(scenarios: &[LoadgenConfig], out: Option<&PathBuf>) -> io::Result<BenchSuite> {
    let mut reports: Vec<BenchReport> = Vec::with_capacity(scenarios.len());
    let mut baseline_rps: Option<f64> = None;
    for scenario in scenarios {
        let mut config = scenario.clone();
        config.out = None;
        if config.arrival_rps < 0.0 || config.concurrency == 0 {
            let (reactors, max_inflight) = fetch_server_stats(&config.addr)
                .map(|s| (s.reactors, s.max_inflight))
                .unwrap_or((0, 0));
            resolve_sentinels(&mut config, baseline_rps, reactors, max_inflight);
        } else {
            resolve_sentinels(&mut config, baseline_rps, 0, 0);
        }
        let report = run_loadgen(&config)?;
        if baseline_rps.is_none() && report.errors == 0 && report.throughput_rps > 0.0 {
            baseline_rps = Some(report.throughput_rps);
        }
        reports.push(report);
    }
    let suite = BenchSuite {
        bench: "serve".to_owned(),
        schema: SERVE_BENCH_SCHEMA,
        unix_time: unix_now(),
        scenarios: reports,
    };
    if let Some(out) = out {
        let json = serde_json::to_string_pretty(&suite)
            .map_err(|e| io::Error::other(format!("cannot serialise suite: {e}")))?;
        std::fs::write(out, json)?;
    }
    Ok(suite)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_comes_from_the_shared_histogram() {
        let mut hist = Histogram::new();
        for micros in [1000u64, 2000, 3000, 4000, 5000] {
            hist.record(micros);
        }
        let summary = LatencySummary::from_histogram(&hist);
        // Quantiles are bucket upper bounds: within 3.125% of the truth.
        assert!((summary.p50_ms - 3.0).abs() / 3.0 <= 0.04, "{summary:?}");
        assert!((summary.p99_ms - 5.0).abs() / 5.0 <= 0.04, "{summary:?}");
        assert_eq!(summary.max_ms, 5.0);
        assert_eq!(summary.mean_ms, 3.0); // mean is exact (true sum kept)
        assert!(summary.p50_ms <= summary.p90_ms);
        assert!(summary.p90_ms <= summary.p99_ms);
        assert!(summary.p99_ms <= summary.p999_ms);
        assert!(summary.p999_ms <= summary.max_ms);
    }

    #[test]
    fn empty_histogram_summarises_to_zeros() {
        let summary = LatencySummary::from_histogram(&Histogram::new());
        assert_eq!(summary.p50_ms, 0.0);
        assert_eq!(summary.p999_ms, 0.0);
        assert_eq!(summary.mean_ms, 0.0);
        assert_eq!(summary.max_ms, 0.0);
    }

    #[test]
    fn merged_worker_histograms_match_one_big_histogram() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for i in 0..1000u64 {
            let v = 500 + i * 37 % 90_000;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.sum(), whole.sum());
        let merged = LatencySummary::from_histogram(&a);
        let direct = LatencySummary::from_histogram(&whole);
        assert_eq!(merged.p50_ms, direct.p50_ms);
        assert_eq!(merged.p999_ms, direct.p999_ms);
        assert_eq!(merged.max_ms, direct.max_ms);
    }

    fn sample_report(scenario: &str) -> BenchReport {
        BenchReport {
            bench: "serve".into(),
            schema: SERVE_BENCH_SCHEMA,
            scenario: scenario.into(),
            unix_time: 1,
            requests: 100,
            errors: 0,
            concurrency: 4,
            idle_connections: 16,
            unique_urls: 50,
            arrival_rps: 0.0,
            duration_secs: 0.5,
            throughput_rps: 200.0,
            admission_rejects: 0,
            server_threads: 2,
            reactors: 1,
            io_backend: "epoll".into(),
            per_reactor: vec![ReactorSample {
                reactor: 0,
                accepted: 20,
                timed_out: 0,
                admission_rejects: 0,
            }],
            latency: LatencySummary {
                p50_ms: 1.0,
                p90_ms: 2.0,
                p99_ms: 3.0,
                p999_ms: 3.5,
                mean_ms: 1.2,
                max_ms: 4.0,
            },
            cache: CacheSummary {
                hits: 40,
                misses: 60,
                hit_rate: 0.4,
            },
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report("baseline_4conn");
        let json = serde_json::to_string(&report).unwrap();
        let restored: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.requests, 100);
        assert_eq!(restored.cache.hits, 40);
        assert_eq!(restored.scenario, "baseline_4conn");
        assert_eq!(restored.idle_connections, 16);
        assert_eq!(restored.server_threads, 2);
        assert_eq!(restored.schema, SERVE_BENCH_SCHEMA);
        assert_eq!(restored.latency.p999_ms, 3.5);
        assert_eq!(restored.io_backend, "epoll");
        assert!(json.contains("\"throughput_rps\""));
        assert!(json.contains("\"p999_ms\""));
        assert!(json.contains("\"io_backend\""));
    }

    #[test]
    fn schema_4_reports_without_io_backend_still_parse() {
        // Committed BENCH_serve.json files from before schema 5 lack
        // the field; comparisons against them must not choke.
        let json = serde_json::to_string(&sample_report("baseline_4conn")).unwrap();
        let mut value: Value = serde_json::from_str(&json).unwrap();
        if let Value::Object(entries) = &mut value {
            entries.retain(|(key, _)| key != "io_backend");
        }
        let stripped = serde_json::to_string(&value).unwrap();
        let restored: BenchReport = serde_json::from_str(&stripped).unwrap();
        assert_eq!(restored.io_backend, "");
    }

    #[test]
    fn suite_round_trips_through_json() {
        let suite = BenchSuite {
            bench: "serve".into(),
            schema: SERVE_BENCH_SCHEMA,
            unix_time: 2,
            scenarios: vec![sample_report("baseline_4conn"), sample_report("idle_1024")],
        };
        let json = serde_json::to_string(&suite).unwrap();
        let restored: BenchSuite = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.schema, 5);
        assert_eq!(restored.scenarios.len(), 2);
        assert_eq!(restored.scenarios[1].scenario, "idle_1024");
        assert_eq!(restored.scenarios[0].per_reactor.len(), 1);
        assert_eq!(restored.scenarios[0].per_reactor[0].accepted, 20);
    }

    #[test]
    fn sentinels_resolve_against_baseline_and_topology() {
        // Saturation sentinels: rate from measured baseline, concurrency
        // from the server's admission budget, requests from concurrency.
        let mut config = LoadgenConfig {
            requests: 0,
            concurrency: 0,
            arrival_rps: -1.5,
            ..LoadgenConfig::default()
        };
        resolve_sentinels(&mut config, Some(10_000.0), 2, 32);
        assert_eq!(config.arrival_rps, 15_000.0);
        assert_eq!(config.concurrency, 96); // 2 * 32 * 1.5
        assert_eq!(config.requests, 300 * 96);

        // No baseline measured yet: falls back to a fixed rate rather
        // than refusing to run.
        let mut config = LoadgenConfig {
            arrival_rps: -2.0,
            ..LoadgenConfig::default()
        };
        resolve_sentinels(&mut config, None, 0, 0);
        assert_eq!(config.arrival_rps, 100_000.0);

        // Concurrency clamps: unlimited admission (max_inflight 0) uses
        // the 32/reactor default; a huge topology clamps to 192.
        let mut config = LoadgenConfig {
            concurrency: 0,
            ..LoadgenConfig::default()
        };
        resolve_sentinels(&mut config, None, 1, 0);
        assert_eq!(config.concurrency, 48); // 1 * 32 * 1.5 = 48
        let mut config = LoadgenConfig {
            concurrency: 0,
            ..LoadgenConfig::default()
        };
        resolve_sentinels(&mut config, None, 64, 64);
        assert_eq!(config.concurrency, 192);

        // Explicit values pass through untouched.
        let mut config = LoadgenConfig::default();
        resolve_sentinels(&mut config, Some(5_000.0), 4, 32);
        assert_eq!(config.requests, 10_000);
        assert_eq!(config.concurrency, 4);
        assert_eq!(config.arrival_rps, 0.0);
    }
}
