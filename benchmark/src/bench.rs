//! One benchmark invocation: set up, measure, verify, report.
//!
//! ```text
//! urlid-benchmark --urlid <path> --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics against a server with
//! telemetry off. `--trace 1` does the same, then repeats the timed
//! phase against a fresh telemetry-on server whose `/metrics` and
//! `/proc` threads give the server-side layers, then times each layer's
//! public functions in this process. The last stdout line is the JSON
//! result; the lines before it print every metric by name and unit.

use crate::client::{self, Conn};
use crate::layers::{self, Layers};
use crate::ledger::{self, HistPoint, StagesPerRequest};
use crate::pace::MonoClock;
use crate::phase::{self, ConnResult, PhaseSpec, Plan, Verdict};
use crate::procfs::{self, ThreadSample};
use crate::scan::Answer;
use crate::server::{run_urlid, Server, WorkDir};
use crate::stats;
use crate::workload::{self, UrlSet, Workload, ACCURACY_URLS, BATCH, CACHE_CAPACITY, WORKLOADS};
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use urlid::classifiers::LanguageClassifierSet;
use urlid::{LanguageIdentifier, ModelSource};
use urlid_serve::normalize_url;

/// The training corpus is input, not workload: fixed, so every run
/// serves the same model.
const CORPUS_SEED: &str = "7";
const CORPUS_SCALE: &str = "0.02";
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Exchanges captured per connection for the in-process layers.
const CAPTURE: usize = 64;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The `urlid` binary to drive.
    pub urlid: PathBuf,
    /// Workloads to run.
    pub workloads: Vec<Workload>,
    /// Input seed.
    pub seed: u64,
    /// Seconds each timed phase measures.
    pub seconds: u64,
    /// Also produce the per-layer metrics.
    pub trace: bool,
}

impl Args {
    /// Parse `--key value` pairs.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut flags = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            flags.insert(key.to_owned(), value.clone());
        }
        let known = ["urlid", "workload", "seed", "seconds", "trace"];
        if let Some(unknown) = flags.keys().find(|k| !known.contains(&k.as_str())) {
            return Err(format!("unknown flag --{unknown}"));
        }
        let take = |key: &str| {
            flags
                .get(key)
                .cloned()
                .ok_or_else(|| format!("missing --{key}"))
        };
        let number = |key: &str| -> Result<u64, String> {
            let text = take(key)?;
            text.parse().map_err(|_| format!("bad --{key} {text:?}"))
        };
        let workload = take("workload")?;
        let workloads = if workload == "all" {
            WORKLOADS.to_vec()
        } else {
            vec![Workload::named(&workload).ok_or_else(|| {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!(
                    "unknown workload {workload:?} ({} or all)",
                    names.join(", ")
                )
            })?]
        };
        let seconds = number("seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".to_owned());
        }
        let trace = match number("trace")? {
            0 => false,
            1 => true,
            other => return Err(format!("bad --trace {other} (0 or 1)")),
        };
        Ok(Self {
            urlid: PathBuf::from(take("urlid")?),
            workloads,
            seed: number("seed")?,
            seconds,
            trace,
        })
    }
}

/// Cores visible to this process.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn num(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::Int(n)) => *n as f64,
        Some(Value::Uint(n)) => *n as f64,
        Some(Value::Float(x)) => *x,
        _ => 0.0,
    }
}

fn field<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, key| v.get(key))
}

fn hist_point(metrics: &Value, path: &[&str]) -> HistPoint {
    let hist = field(metrics, path);
    HistPoint {
        count: num(hist.and_then(|h| h.get("count"))) as u64,
        mean_us: num(hist.and_then(|h| h.get("mean_ms"))) * 1000.0,
    }
}

/// `/metrics` and the server's threads at one instant.
struct Snapshot {
    metrics: Value,
    threads: BTreeMap<u32, ThreadSample>,
}

fn snapshot(conn: &mut Conn, pid: u32) -> Result<Snapshot, String> {
    let text = client::get_on(conn, "/metrics").map_err(|e| format!("GET /metrics: {e}"))?;
    let metrics = serde_json::from_str::<Value>(&text).map_err(|e| format!("/metrics: {e}"))?;
    Ok(Snapshot {
        metrics,
        threads: procfs::threads(pid),
    })
}

/// One server's warm-up and timed phase.
struct Measured {
    warm: Vec<ConnResult>,
    timed: Vec<ConnResult>,
    span_ns: u64,
    before: Snapshot,
    after: Snapshot,
}

/// A workload bound to its inputs.
struct Run {
    workload: Workload,
    conns: usize,
    /// The server's reactor count (one cache shard set each).
    reactors: usize,
    urls: UrlSet,
    /// URLs `0..fill_end` fill the cache before timing (miss workloads).
    fill_end: usize,
    seed: u64,
    seconds: u64,
}

impl Run {
    fn warm_plan(&self, c: usize) -> Plan {
        let per_conn = self.fill_end / self.conns;
        match self.workload.pool {
            Some(pool) => Plan::Run {
                start: 0,
                per: 1,
                end: pool,
            },
            None => Plan::Run {
                start: c * per_conn,
                per: BATCH,
                end: (c + 1) * per_conn,
            },
        }
    }

    fn timed_plan(&self, c: usize) -> Plan {
        match self.workload.pool {
            Some(pool) => Plan::Draw {
                seed: self.seed,
                stream: c as u64,
                pool,
            },
            None => {
                let share = (self.urls.len() - self.fill_end) / self.conns;
                Plan::Run {
                    start: self.fill_end + c * share,
                    per: 1,
                    end: self.fill_end + (c + 1) * share,
                }
            }
        }
    }

    /// Most requests one connection can send in the timed phase.
    fn expected_requests(&self) -> usize {
        match self.workload.pool {
            Some(_) => self.workload.supply_per_s * self.seconds as usize / self.conns,
            None => (self.urls.len() - self.fill_end) / self.conns + 1,
        }
    }

    fn measure(&self, server: &Server, capture: usize) -> Result<Measured, String> {
        let addr = server.addr();
        let mut conns = client::connect_spread(addr, self.conns, self.reactors)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let warm_plan = |c: usize| self.warm_plan(c);
        let warm = phase::run(
            &mut conns,
            &PhaseSpec {
                addr,
                urls: &self.urls,
                batch: if self.workload.pool.is_some() {
                    1
                } else {
                    BATCH
                },
                plan: &warm_plan,
                deadline_ns: u64::MAX,
                capture: 0,
                expected: 0,
            },
            &MonoClock::start(),
        );
        let before = snapshot(&mut conns[0], server.pid())?;
        let timed_plan = |c: usize| self.timed_plan(c);
        let timed = phase::run(
            &mut conns,
            &PhaseSpec {
                addr,
                urls: &self.urls,
                batch: 1,
                plan: &timed_plan,
                deadline_ns: self.seconds * 1_000_000_000,
                capture,
                expected: self.expected_requests(),
            },
            &MonoClock::start(),
        );
        // From the start of the phase to its last reply.
        let span_ns = timed
            .iter()
            .filter_map(|r| r.log.completions.last().map(|&(t, _)| t))
            .max()
            .unwrap_or(0)
            .max(1);
        let after = snapshot(&mut conns[0], server.pid())?;
        Ok(Measured {
            warm,
            timed,
            span_ns,
            before,
            after,
        })
    }
}

/// End-to-end figures of one measured phase, over the whole phase.
#[derive(Debug, Clone, Copy)]
struct EndToEnd {
    urls_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    mean_us: f64,
    samples: usize,
    cpu_frac: f64,
    attempted: u64,
    failed: u64,
}

/// End-to-end figures of a phase: URLs answered correctly over the
/// time from its start to its last reply, and exact latency
/// percentiles over every request of every connection.
fn end_to_end(m: &Measured, verdicts: &[Verdict]) -> EndToEnd {
    let latencies = stats::merge_sorted(
        &m.timed
            .iter()
            .map(|r| r.log.latency_ns.clone())
            .collect::<Vec<_>>(),
    );
    let us = |ns: u64| ns as f64 / 1000.0;
    let answered: u64 = verdicts.iter().map(|v| v.answered).sum();
    let mismatched: u64 = verdicts.iter().map(|v| v.mismatched).sum();
    let cpu_ns: u64 = m.timed.iter().map(|r| r.cpu_ns).sum();
    let total_latency: u64 = latencies.iter().sum();
    EndToEnd {
        urls_per_s: (answered - mismatched) as f64 * 1e9 / m.span_ns as f64,
        p50_us: us(stats::quantile(&latencies, 0.50).unwrap_or(0)),
        p99_us: us(stats::quantile(&latencies, 0.99).unwrap_or(0)),
        mean_us: us(total_latency) / latencies.len().max(1) as f64,
        samples: latencies.len(),
        cpu_frac: cpu_ns as f64 / (m.span_ns as f64 * m.timed.len().max(1) as f64),
        attempted: m.timed.iter().map(|r| r.log.attempted).sum(),
        failed: m.timed.iter().map(|r| r.log.failed).sum::<u64>()
            + verdicts.iter().map(|v| v.mismatched_requests).sum::<u64>(),
    }
}

/// Share of the first [`ACCURACY_URLS`] URLs of the run's seeded stream
/// whose best language, as the oracle scores them, is the one they were
/// drawn for. Every served answer is checked bit-identical to the
/// oracle's, so this is the share the server answers right, and it is
/// exact for a given seed. Fills `memo` for [`phase::verify`].
fn accuracy(urls: &UrlSet, oracle: &LanguageClassifierSet, memo: &mut [u64]) -> f64 {
    let n = ACCURACY_URLS.min(urls.len());
    let mut right = 0usize;
    for (i, slot) in memo.iter_mut().enumerate().take(n) {
        let answer = Answer::from_scores(oracle.score_all(&normalize_url(urls.url(i))));
        *slot = answer.fingerprint();
        right += usize::from(answer.best == Some(urls.label(i)));
    }
    right as f64 / n.max(1) as f64
}

/// Server stage costs per request and cache/thread figures over the
/// timed window of a telemetry-on run.
struct ServerSide {
    stages: StagesPerRequest,
    hit_ratio: f64,
    reactor_cpu_us: f64,
    pool_cpu_us: f64,
    ctxsw: f64,
    admission_rejects: f64,
    /// Stage records inside the latency window per request.
    stage_records: f64,
}

fn server_side(m: &Measured) -> ServerSide {
    let (b, a) = (&m.before.metrics, &m.after.metrics);
    let delta = |path: &[&str]| num(field(a, path)) - num(field(b, path));
    let requests =
        (delta(&["requests", "identify"]) + delta(&["requests", "identify_batch"])).max(1.0);
    let window = |path: &[&str]| ledger::window(hist_point(b, path), hist_point(a, path));
    let stage = |name: &str| window(&["stages", name]).1 / requests;
    let stage_records: u64 = ["queue", "cache", "extract", "score", "write"]
        .iter()
        .map(|name| window(&["stages", name]).0)
        .sum();
    let (latency_count, latency_total) = window(&["latency"]);
    let hits = delta(&["cache", "hits"]);
    let misses = delta(&["cache", "misses"]);
    let threads = |prefix: &str| procfs::delta(&m.before.threads, &m.after.threads, prefix);
    let (reactor_cpu, _) = threads("urlid-serve-rea");
    let (pool_cpu, _) = threads("urlid-serve-sco");
    let (_, ctxsw) = threads("");
    ServerSide {
        stages: StagesPerRequest {
            latency: latency_total / latency_count.max(1) as f64,
            parse: stage("parse"),
            queue: stage("queue"),
            cache: stage("cache"),
            extract: stage("extract"),
            score: stage("score"),
            write: stage("write"),
        },
        hit_ratio: if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        reactor_cpu_us: reactor_cpu as f64 / 1000.0 / requests,
        pool_cpu_us: pool_cpu as f64 / 1000.0 / requests,
        ctxsw: ctxsw as f64 / requests,
        admission_rejects: delta(&["reactors", "admission_rejects"]),
        stage_records: stage_records as f64 / requests,
    }
}

/// A source identity for the result stamp: the git commit when the
/// checkout is a repository, else a digest of the sources.
fn source_id() -> String {
    if Path::new(".git").exists() {
        if let Ok(out) = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
        {
            if out.status.success() {
                return String::from_utf8_lossy(&out.stdout).trim().to_owned();
            }
        }
    }
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("vendor"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        bytes.extend_from_slice(file.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(file).unwrap_or_default());
    }
    format!("src-{:016x}", urlid::format::xxh64(&bytes, 0))
}

type Metric = (&'static str, &'static str, f64);

/// One workload's finished run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn load_oracle(model: &Path) -> Result<LanguageIdentifier, String> {
    ModelSource::detect(model)
        .and_then(|source| source.load_identifier())
        .map_err(|e| format!("cannot load {}: {e}", model.display()))
}

/// Verify a phase's answers; returns the timed verdicts per connection
/// and the mismatch count over warm-up and timed phase together.
fn verify_phase(
    m: &Measured,
    urls: &UrlSet,
    oracle: &LanguageClassifierSet,
    memo: &mut [u64],
) -> (Vec<Verdict>, u64) {
    let mut verdicts = |results: &[ConnResult]| -> Vec<Verdict> {
        results
            .iter()
            .map(|r| phase::verify(&r.records, urls, oracle, memo))
            .collect()
    };
    let warm = verdicts(&m.warm);
    let timed = verdicts(&m.timed);
    let mismatched = warm.iter().chain(&timed).map(|v| v.mismatched).sum();
    (timed, mismatched)
}

fn per_layer(
    e2e: &EndToEnd,
    traced: &EndToEnd,
    side: &ServerSide,
    costs: &Layers,
    inprocess: f64,
) -> Vec<Metric> {
    let s = side.stages;
    vec![
        ("e2e.latency_p99_us", "us", e2e.p99_us),
        ("serve.latency_mean_us", "us", s.latency),
        ("serve.parse_us", "us", s.parse),
        ("serve.queue_us", "us", s.queue),
        ("serve.cache_us", "us", s.cache),
        ("serve.extract_us", "us", s.extract),
        ("serve.score_us", "us", s.score),
        ("serve.write_us", "us", s.write),
        ("serve.unattributed_us", "us", s.unattributed()),
        ("serve.unattributed_frac", "ratio", s.unattributed_frac()),
        ("cache.hit_ratio", "ratio", side.hit_ratio),
        ("reactor.cpu_us_per_req", "us", side.reactor_cpu_us),
        ("pool.cpu_us_per_req", "us", side.pool_cpu_us),
        ("serve.ctxsw_per_req", "count", side.ctxsw),
        ("serve.admission_rejects", "count", side.admission_rejects),
        ("http.parse_ns", "ns", costs.http_parse.ns),
        ("http.parse_allocs", "count", costs.http_parse.allocs),
        ("json.decode_ns", "ns", costs.json_decode.ns),
        ("json.decode_allocs", "count", costs.json_decode.allocs),
        ("json.encode_ns", "ns", costs.json_encode.ns),
        ("json.encode_allocs", "count", costs.json_encode.allocs),
        ("http.response_ns", "ns", costs.http_response.ns),
        ("cache.normalize_ns", "ns", costs.normalize.ns),
        ("cache.probe_ns", "ns", costs.probe.ns),
        ("cache.insert_ns", "ns", costs.insert.ns),
        ("features.extract_ns", "ns", costs.extract.ns),
        ("features.extract_allocs", "count", costs.extract.allocs),
        ("classifiers.score_ns", "ns", costs.score.ns),
        ("classifiers.score_allocs", "count", costs.score.allocs),
        ("classifiers.batch_ns_per_url", "ns", costs.batch_per_url.ns),
        ("ledger.inprocess_us", "us", inprocess),
        (
            "ledger.residual_us",
            "us",
            ledger::residual_us(s.latency, inprocess),
        ),
        ("driver.cpu_frac", "ratio", e2e.cpu_frac),
        (
            "telemetry.overhead_frac",
            "ratio",
            traced.mean_us / e2e.mean_us - 1.0,
        ),
    ]
}

fn run_workload(args: &Args, workload: Workload, source: &str) -> Result<Outcome, String> {
    let work = WorkDir::create(workload.name)?;
    let corpus = work.join("corpus");
    run_urlid(
        &args.urlid,
        &[
            "generate",
            "--out",
            &corpus.to_string_lossy(),
            "--seed",
            CORPUS_SEED,
            "--scale",
            CORPUS_SCALE,
        ],
    )?;
    let data = corpus.join("combined-train.json");

    // Set-up: train to `.urlm`, boot, wait for the first /healthz 200.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut server = None;
    let mut model = PathBuf::new();
    for k in 0..SETUPS {
        drop(server.take());
        model = work.join(&format!("model-{k}.urlm"));
        let started = Instant::now();
        run_urlid(
            &args.urlid,
            &[
                "train",
                "--data",
                &data.to_string_lossy(),
                "--out",
                &model.to_string_lossy(),
                "--features",
                workload.features,
                "--algorithm",
                "nb",
            ],
        )?;
        server = Some(Server::boot(
            &args.urlid,
            &model,
            false,
            &work.join(&format!("serve-{k}.log")),
        )?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    let identifier = load_oracle(&model)?;
    let oracle = identifier.classifier_set();
    let info = client::get(server.addr(), "/metrics")
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
        .ok_or("cannot read /metrics after boot")?;
    let reactors = (num(field(&info, &["reactors", "count"])) as usize).max(1);
    let io_backend = match field(&info, &["reactors", "io_backend"]) {
        Some(Value::Str(s)) => s.clone(),
        _ => "unknown".to_owned(),
    };

    let conns = workload.conns.min(nproc());
    let fill_end = match workload.pool {
        Some(_) => 0,
        // Each connection fills its own reactor's shard set, 25 % over
        // the set's share of the capacity so every shard ends up full.
        None => (CACHE_CAPACITY * 5 / 4 / reactors).div_ceil(BATCH) * BATCH * conns,
    };
    let wanted = match workload.pool {
        Some(pool) => pool.max(ACCURACY_URLS),
        None => fill_end + workload.supply_per_s * args.seconds as usize,
    };
    let run = Run {
        workload,
        conns,
        reactors,
        urls: workload::distinct_frontier(args.seed, wanted),
        fill_end,
        seed: args.seed,
        seconds: args.seconds,
    };

    let untraced = run.measure(&server, 0)?;
    let rss_mb = procfs::peak_rss_kib(server.pid()).unwrap_or(0) as f64 / 1024.0;
    drop(server);
    let mut memo = vec![0u64; run.urls.len()];
    let accuracy = accuracy(&run.urls, oracle, &mut memo);
    let (verdicts, mut mismatched) = verify_phase(&untraced, &run.urls, oracle, &mut memo);
    let e2e = end_to_end(&untraced, &verdicts);
    let mut attempted = e2e.attempted;
    let mut failed = e2e.failed;

    println!(
        "stamp workload={} seed={} seconds={} io_backend={io_backend} nproc={} kernel={} commit={source} conns={conns} reactors={reactors}",
        workload.name,
        args.seed,
        args.seconds,
        nproc(),
        std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .unwrap_or_default()
            .trim(),
    );
    let count = |f: fn(&ConnResult) -> u64| untraced.timed.iter().map(f).sum::<u64>();
    println!(
        "info {}: {} requests, {} failed ({} transport errors, {} 503s, {} bad replies, {mismatched} oracle mismatches); p99 {:.3} us over {} latency samples in {:.3} s; accuracy over {} URLs",
        workload.name,
        e2e.attempted,
        e2e.failed,
        count(|r| r.errors),
        count(|r| r.rejects),
        count(|r| r.bad_replies),
        e2e.p99_us,
        e2e.samples,
        untraced.span_ns as f64 / 1e9,
        ACCURACY_URLS.min(run.urls.len()),
    );
    let e2e_metrics = vec![
        ("urls_per_s", "URL/s", e2e.urls_per_s),
        ("latency_p50_us", "us", e2e.p50_us),
        (
            "answered_frac",
            "ratio",
            1.0 - e2e.failed as f64 / e2e.attempted.max(1) as f64,
        ),
        ("accuracy", "ratio", accuracy),
        ("setup_s", "s", stats::median(&setup_s)),
        ("server_rss_mb", "MB", rss_mb),
    ];

    let mut layer_metrics = Vec::new();
    if args.trace {
        let traced_server =
            Server::boot(&args.urlid, &model, true, &work.join("serve-traced.log"))?;
        let traced = run.measure(&traced_server, CAPTURE)?;
        drop(traced_server);
        let (traced_verdicts, traced_mismatched) =
            verify_phase(&traced, &run.urls, oracle, &mut memo);
        mismatched += traced_mismatched;
        let traced_e2e = end_to_end(&traced, &traced_verdicts);
        attempted += traced_e2e.attempted;
        failed += traced_e2e.failed;

        let side = server_side(&traced);
        println!(
            "info {}: the server records latency and stages in whole us, truncated; at {:.2} stage records per request, serve.unattributed_us reads about {:.2} us high",
            workload.name,
            side.stage_records,
            ledger::truncation_bias_us(side.stage_records),
        );
        let (requests, responses): (Vec<Vec<u8>>, Vec<String>) = traced
            .timed
            .iter()
            .flat_map(|r| r.captured.iter().cloned())
            .unzip();
        if requests.is_empty() {
            return Err("the traced phase captured no exchange".to_owned());
        }
        let sample: Vec<&str> = match workload.pool {
            Some(pool) => (0..pool).map(|i| run.urls.url(i)).collect(),
            None => (run.fill_end..run.urls.len().min(run.fill_end + 4_096))
                .map(|i| run.urls.url(i))
                .collect(),
        };
        let costs = layers::measure_all(&layers::Inputs {
            requests: &requests,
            responses: &responses,
            urls: &sample,
            hits: workload.pool.is_some(),
            cache_sets: reactors,
            model: oracle,
        });
        let inprocess = ledger::inprocess_us(&costs.costs(), side.hit_ratio);
        layer_metrics = per_layer(&e2e, &traced_e2e, &side, &costs, inprocess);
    }
    Ok(Outcome {
        correct: mismatched == 0 && failed == 0,
        attempted,
        failed,
        end_to_end: e2e_metrics,
        per_layer: layer_metrics,
    })
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// Run the benchmark; returns the process exit code: 0 when every
/// answer was right, 1 when any was wrong (after printing the result),
/// 2 when the run could not be completed (no result printed).
pub fn main(argv: &[String]) -> i32 {
    let args = match Args::parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("urlid-benchmark: {e}");
            return 2;
        }
    };
    let source = source_id();
    let mut correct = true;
    let mut attempted = 0;
    let mut failed = 0;
    let mut reported = Vec::new();
    for workload in &args.workloads {
        let outcome = match run_workload(&args, *workload, &source) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("urlid-benchmark: {}: {e}", workload.name);
                return 2;
            }
        };
        for (name, unit, value) in outcome.end_to_end.iter().chain(&outcome.per_layer) {
            println!(
                "metric {}.{name} = {} {unit}",
                workload.name,
                json_number(*value)
            );
        }
        correct &= outcome.correct;
        attempted += outcome.attempted;
        failed += outcome.failed;
        let chosen = if args.trace {
            outcome.per_layer
        } else {
            outcome.end_to_end
        };
        for (name, unit, value) in chosen {
            let name = if args.workloads.len() == 1 {
                name.to_owned()
            } else {
                format!("{}.{name}", workload.name)
            };
            reported.push((name, unit, value));
        }
    }
    let metrics: Vec<String> = reported
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}
