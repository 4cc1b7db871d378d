//! Server state, request routing, and the engine spawn/shutdown API.
//!
//! ## Threading model
//!
//! `N` **reactor threads** (the internal `reactor` module, one per core
//! by default) share the accept load: each owns its own `SO_REUSEPORT`
//! listener (the kernel load-balances incoming connections across
//! them), its own connection slab, its own wake pipe, and its own
//! result-cache shard set. A connection is adopted by exactly one
//! reactor and never migrates — no hot-path state crosses reactor
//! boundaries. Each reactor feeds bytes into per-connection incremental
//! parsers, runs every parsed request through `route` on its own
//! thread, and writes the response over non-blocking I/O multiplexed
//! by a level-triggered epoll poller (see [`crate::sys`]). The thread
//! budget is the reactor count, independent of the number of open
//! connections — thousands of mostly-idle keep-alive clients cost slab
//! slots, not threads. Only `/identify_batch` fans out further: its
//! cache misses score on `score_batch`'s scoped threads while the
//! reactor waits.
//!
//! Each reactor also runs **admission control**: it serves at most
//! [`ServeConfig::max_inflight`] connections per event-loop pass and
//! answers the next ready connection's request `503`, so overload sheds
//! load instead of stretching every admitted client's wait.
//!
//! ## Hot reload
//!
//! The model lives in a private `ModelSlot` behind an `RwLock`: request
//! handlers take a read lock just long enough to clone the
//! `Arc<LanguageIdentifier>` and the epoch, then score without any lock
//! held. `POST /admin/reload` loads the new `.urlm` model *before*
//! taking the write lock, so the lock is held only for the pointer swap —
//! in-flight requests finish on the model they started with and no
//! request is ever dropped. A file that fails to load (a missing path, a
//! bad checksum, a file without the `.urlm` magic) leaves the old model
//! serving. The epoch bump atomically invalidates the result cache (see
//! [`crate::cache`]).

use crate::cache::{normalize_url, CachedScores, ResultCache};
use crate::http::{Request, MAX_BODY_BYTES};
use crate::metrics::Metrics;
use crate::reactor::Reactor;
use crate::sys::{Poller, WakePipe, Waker};
use serde::Value;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use urlid::{LanguageIdentifier, ModelSource};
use urlid_classifiers::LanguageClassifierSet;
use urlid_features::ExtractScratch;
use urlid_lexicon::ALL_LANGUAGES;
use urlid_telemetry::{duration_nanos, PromWriter, Stage};

/// Content type of every JSON response.
const CONTENT_TYPE_JSON: &str = "application/json";
/// Content type of the Prometheus text exposition (format 0.0.4).
const CONTENT_TYPE_PROM: &str = "text/plain; version=0.0.4; charset=utf-8";
/// Prometheus exposition factor for the nanosecond histograms.
const SECONDS_PER_NANO: f64 = 1e-9;

/// Default reactor count: one per core. Reactors score the requests
/// they parse, so this is what puts every core to work.
pub fn default_reactors() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Server configuration (everything has serving-friendly defaults).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (tests, loadgen).
    pub addr: String,
    /// Reactor threads, each owning its own `SO_REUSEPORT` listener and
    /// connection slab; 0 means [`default_reactors`] (one per core).
    pub reactors: usize,
    /// Per-reactor admission-control budget: one reactor serves at most
    /// this many connections per event-loop pass, and the next ready
    /// connection's request is answered `503`. Pipelined follow-ups on
    /// an admitted connection are never shed. `0` disables the limit.
    pub max_inflight: usize,
    /// A connection with no bytes moving for this long is evicted by
    /// the reactor — mid-request (slowloris) and between requests
    /// alike. An eviction costs a slab slot, never a thread, so this
    /// can be generous.
    pub idle_timeout: Duration,
    /// Maximum accepted `Content-Length`; larger declarations are
    /// answered with `413` before any body byte is buffered.
    pub max_body_bytes: usize,
    /// How long a graceful shutdown waits for responses still flushing
    /// before force-closing what remains.
    pub drain_timeout: Duration,
    /// Stage-span recording (per-stage histograms, the trace ring).
    /// Counters and the end-to-end latency histogram stay on even when
    /// this is off; turning it off exists for A/B overhead runs
    /// (`urlid serve --telemetry off`).
    pub telemetry: bool,
    /// Requests slower than this (end-to-end, microseconds) emit one
    /// rate-limited key=value line to stderr; `0` disables the slow
    /// log entirely.
    pub slow_request_micros: u64,
    /// Test hook: a reactor panics once it has accepted more than this
    /// many connections (`Some(0)` panics on the first accept). Used by
    /// the panic-hardening integration test to prove a dying reactor
    /// does not strand its siblings; `None` in any real configuration.
    pub fail_after_accepts: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            reactors: 0,
            max_inflight: 32,
            idle_timeout: Duration::from_secs(5),
            max_body_bytes: MAX_BODY_BYTES,
            drain_timeout: Duration::from_secs(2),
            telemetry: true,
            slow_request_micros: 100_000,
            fail_after_accepts: None,
        }
    }
}

/// Per-request trace context threaded through [`route`]: which trace
/// stripe to record into, the request id, and the stage durations the
/// handlers measured (the reactor reads these back for the
/// slow-request log line).
pub(crate) struct RequestTrace {
    /// Request id assigned at parse completion.
    pub request_id: u64,
    /// Trace-ring stripe of the recording reactor.
    pub stripe: usize,
    /// Result-cache shard set of the serving reactor.
    pub cache_set: usize,
    /// Result-cache probe duration in nanoseconds.
    pub cache_ns: u64,
    /// Feature-extraction duration in nanoseconds (cache miss only).
    pub extract_ns: u64,
    /// Scoring duration in nanoseconds (cache miss only).
    pub score_ns: u64,
}

impl RequestTrace {
    pub(crate) fn new(request_id: u64, stripe: usize) -> Self {
        RequestTrace {
            request_id,
            stripe,
            cache_set: 0,
            cache_ns: 0,
            extract_ns: 0,
            score_ns: 0,
        }
    }
}

/// The hot-swappable model: identifier + epoch + provenance (the path
/// it came from and how long the load took).
struct ModelSlot {
    identifier: Arc<LanguageIdentifier>,
    epoch: u64,
    path: Option<PathBuf>,
    /// Wall-clock milliseconds the load of this model took; `None` for
    /// in-memory models that were never loaded from disk.
    load_ms: Option<f64>,
}

/// A consistent read of the model slot: everything `/healthz`,
/// `/metrics` and reload responses report about the serving model,
/// captured under a single lock hold.
struct ModelStatus {
    identifier: Arc<LanguageIdentifier>,
    epoch: u64,
    path: Option<PathBuf>,
    load_ms: Option<f64>,
}

/// What a successful reload swapped in (returned to the `/admin/reload`
/// handler so the response can report it without re-reading the slot).
pub struct ReloadReport {
    /// The post-swap cache epoch.
    pub epoch: u64,
    /// Wall-clock milliseconds spent loading (file → ready identifier;
    /// the pointer swap is not included).
    pub load_ms: f64,
}

/// Everything the request handlers share: the model slot, the result
/// cache and the metrics. Constructed once and passed to [`spawn`] in an
/// `Arc`; tests reach the cache and metrics through it.
pub struct ServerState {
    slot: RwLock<ModelSlot>,
    cache: ResultCache,
    metrics: Metrics,
}

impl ServerState {
    /// Read the model slot, recovering from lock poisoning: the slot
    /// only ever holds fully swapped `Arc`s (the write section is three
    /// assignments), so a panic elsewhere must not cascade into every
    /// reactor that reads the model afterwards.
    fn read_slot(&self) -> std::sync::RwLockReadGuard<'_, ModelSlot> {
        self.slot
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// A serving state for a trained identifier, with one cache shard
    /// set. `model_path` is where `POST /admin/reload` reloads from when
    /// the request names no path (pass `None` for states built from
    /// in-memory models).
    pub fn new(
        identifier: LanguageIdentifier,
        model_path: Option<PathBuf>,
        cache_capacity: usize,
    ) -> Self {
        Self::with_topology(identifier, model_path, cache_capacity, 1)
    }

    /// [`ServerState::new`] with an explicit cache shard-set count. Size
    /// `cache_sets` to the reactor count you will serve with: reactor
    /// `r` probes only set `r % cache_sets`, so with one set per reactor
    /// no cache stripe is ever contended across reactors. The capacity
    /// is split evenly across the sets.
    pub fn with_topology(
        identifier: LanguageIdentifier,
        model_path: Option<PathBuf>,
        cache_capacity: usize,
        cache_sets: usize,
    ) -> Self {
        Self {
            slot: RwLock::new(ModelSlot {
                identifier: Arc::new(identifier),
                epoch: 0,
                path: model_path,
                load_ms: None,
            }),
            cache: ResultCache::with_sets(cache_capacity, ResultCache::DEFAULT_SHARDS, cache_sets),
            metrics: Metrics::new(),
        }
    }

    /// The current model and its epoch (consistent snapshot).
    pub fn model(&self) -> (Arc<LanguageIdentifier>, u64) {
        let slot = self.read_slot();
        (Arc::clone(&slot.identifier), slot.epoch)
    }

    /// Model, epoch *and* provenance under a single lock hold, so a
    /// concurrent reload can never produce a torn epoch/path/load-time
    /// pairing in `/healthz`, `/metrics` or reload responses.
    fn model_snapshot(&self) -> ModelStatus {
        let slot = self.read_slot();
        ModelStatus {
            identifier: Arc::clone(&slot.identifier),
            epoch: slot.epoch,
            path: slot.path.clone(),
            load_ms: slot.load_ms,
        }
    }

    /// Record how long the initially installed model took to load, so
    /// `/healthz` and `/metrics` report it from the first request on.
    /// The CLI calls this right after constructing the state; states
    /// built from in-memory models skip it and report `null`.
    pub fn set_load_ms(&self, load_ms: f64) {
        self.slot
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .load_ms = Some(load_ms);
    }

    /// The result cache (exposed for metrics and tests).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The serving metrics (exposed for tests).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Swap in the `.urlm` model at `path` (or at the slot's stored
    /// path when `None`). The identifier is built *outside* the write
    /// lock, so the lock is held only for the pointer swap. The old
    /// model keeps serving until the swap; on any error it keeps
    /// serving, period.
    pub fn reload(&self, path: Option<PathBuf>) -> Result<ReloadReport, String> {
        let path = match path.or_else(|| self.read_slot().path.clone()) {
            Some(p) => p,
            None => {
                return Err(
                    "no model path to reload from (start with --model or pass {\"path\": ...})"
                        .into(),
                )
            }
        };
        let source = ModelSource::detect(&path)
            .map_err(|e| format!("cannot reload {}: {e}", path.display()))?;
        let started = Instant::now();
        let identifier = source
            .load_identifier()
            .map_err(|e| format!("cannot reload {}: {e}", path.display()))?;
        let load_ms = started.elapsed().as_secs_f64() * 1e3;
        let identifier = Arc::new(identifier);
        let epoch = {
            let mut slot = self
                .slot
                .write()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            slot.identifier = identifier;
            slot.epoch += 1;
            slot.path = Some(path);
            slot.load_ms = Some(load_ms);
            slot.epoch
        };
        // The epoch bump already invalidates stale entries; clearing just
        // releases their memory promptly.
        self.cache.clear();
        self.metrics.reloads.fetch_add(1, Ordering::Relaxed);
        Ok(ReloadReport { epoch, load_ms })
    }

    /// Score one normalised URL, through the cache. Cache misses score
    /// through the calling reactor's reusable [`ExtractScratch`], so the
    /// extract-and-score path allocates nothing in steady state — the
    /// stage spans recorded along the way keep that property (atomic
    /// histogram bumps plus a copy into a pre-allocated trace slot).
    fn scores_cached(
        &self,
        key: &str,
        scratch: &mut ExtractScratch,
        trace: &mut RequestTrace,
    ) -> (CachedScores, bool) {
        let (identifier, epoch) = self.model();
        let cache_started = Instant::now();
        let hit = self.cache.get_in(trace.cache_set, key, epoch);
        trace.cache_ns = duration_nanos(cache_started.elapsed());
        self.metrics
            .record_stage_end(trace.stripe, trace.request_id, Stage::Cache, trace.cache_ns);
        if let Some(scores) = hit {
            return (scores, true);
        }
        // With telemetry off the plain entry point runs — the timed
        // variant executes the exact same float operations (it shares
        // the extraction/scoring helpers), the split just reads the
        // clock between them.
        let scores = if self.metrics.telemetry_enabled() {
            let (scores, split) = identifier
                .classifier_set()
                .score_all_with_split(key, scratch);
            trace.extract_ns = split.extract_nanos;
            trace.score_ns = split.score_nanos;
            self.metrics.record_stage_end(
                trace.stripe,
                trace.request_id,
                Stage::Extract,
                split.extract_nanos,
            );
            self.metrics.record_stage_end(
                trace.stripe,
                trace.request_id,
                Stage::Score,
                split.score_nanos,
            );
            scores
        } else {
            identifier.classifier_set().score_all_with(key, scratch)
        };
        self.cache.insert_in(trace.cache_set, key, epoch, scores);
        (scores, false)
    }

    /// Score a batch of normalised URLs: cache lookups first, then one
    /// parallel `score_batch` fan-out over the misses. The batch path
    /// records the cache probe as one cache-stage span and the whole
    /// fan-out as one score-stage span (extraction happens inside the
    /// per-core workers and is not split out here).
    fn scores_cached_batch(
        &self,
        keys: &[String],
        trace: &mut RequestTrace,
    ) -> Vec<(CachedScores, bool)> {
        let (identifier, epoch) = self.model();
        let cache_started = Instant::now();
        let mut out: Vec<Option<(CachedScores, bool)>> = keys
            .iter()
            .map(|k| {
                self.cache
                    .get_in(trace.cache_set, k, epoch)
                    .map(|s| (s, true))
            })
            .collect();
        let miss_indices: Vec<usize> = (0..keys.len()).filter(|&i| out[i].is_none()).collect();
        trace.cache_ns = duration_nanos(cache_started.elapsed());
        self.metrics
            .record_stage_end(trace.stripe, trace.request_id, Stage::Cache, trace.cache_ns);
        if !miss_indices.is_empty() {
            let miss_urls: Vec<&str> = miss_indices.iter().map(|&i| keys[i].as_str()).collect();
            // The existing scoped-thread batch path: one extraction per
            // URL, fanned out over all cores.
            let score_started = Instant::now();
            let scored = identifier.classifier_set().score_batch(&miss_urls);
            trace.score_ns = duration_nanos(score_started.elapsed());
            self.metrics.record_stage_end(
                trace.stripe,
                trace.request_id,
                Stage::Score,
                trace.score_ns,
            );
            for (&i, scores) in miss_indices.iter().zip(scored) {
                self.cache
                    .insert_in(trace.cache_set, &keys[i], epoch, scores);
                out[i] = Some((scores, false));
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every index scored"))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Response building
// ---------------------------------------------------------------------

/// Serialise a `{"error": ...}` body (shared with the connection state
/// machine, which answers protocol violations without a handler).
pub(crate) fn error_body(message: &str) -> String {
    let mut o = Value::object();
    o.insert("error", Value::Str(message.to_owned()));
    serde_json::to_string(&o).expect("error body serialises")
}

/// One URL's result object (shared by `/identify` and `/identify_batch`).
/// Decisions and the best language are derived from the scores alone
/// (sign convention), which is what makes score-only caching sufficient.
fn result_value(key: &str, scores: &CachedScores, cached: bool) -> Value {
    let mut score_map = Value::object();
    let mut accepted = Vec::new();
    for lang in ALL_LANGUAGES {
        let score = scores[lang.index()];
        score_map.insert(
            lang.iso_code(),
            match score {
                Some(s) => Value::Float(s),
                None => Value::Null,
            },
        );
        // The sign convention (decision == score > 0) is proptested for
        // every algorithm, so decisions are free given the scores.
        if score.is_some_and(|s| s > 0.0) {
            accepted.push(Value::Str(lang.iso_code().to_owned()));
        }
    }
    let best = LanguageClassifierSet::best_of(scores);
    let mut o = Value::object();
    o.insert("url", Value::Str(key.to_owned()));
    o.insert(
        "best",
        match best {
            Some(lang) => Value::Str(lang.iso_code().to_owned()),
            None => Value::Null,
        },
    );
    o.insert("accepted", Value::Array(accepted));
    o.insert("scores", score_map);
    o.insert("cached", Value::Bool(cached));
    o
}

fn model_value(status: &ModelStatus) -> Value {
    let identifier = &status.identifier;
    let config = identifier.config();
    let mut o = Value::object();
    o.insert(
        "algorithm",
        Value::Str(config.algorithm.abbrev().to_owned()),
    );
    // Models loaded from a bundle are always compiled; the flag makes
    // the serving representation observable in /healthz and /metrics.
    o.insert(
        "compiled",
        Value::Bool(identifier.classifier_set().is_compiled()),
    );
    o.insert(
        "features",
        Value::Str(config.feature_set.short_label().to_owned()),
    );
    o.insert("epoch", Value::Uint(status.epoch));
    // Load provenance: how long the load took and whether the compiled
    // plane still serves straight out of the mapped file. `null`/`false`
    // for in-memory models.
    o.insert(
        "load_ms",
        match status.load_ms {
            Some(ms) => Value::Float(ms),
            None => Value::Null,
        },
    );
    o.insert(
        "mapped",
        Value::Bool(
            identifier
                .classifier_set()
                .plane()
                .is_some_and(|p| p.is_mapped()),
        ),
    );
    o.insert(
        "path",
        match &status.path {
            Some(p) => Value::Str(p.display().to_string()),
            None => Value::Null,
        },
    );
    o
}

// ---------------------------------------------------------------------
// Request handlers
// ---------------------------------------------------------------------

fn parse_json(body: &str) -> Result<Value, String> {
    serde_json::from_str::<Value>(body).map_err(|e| format!("invalid JSON body: {e}"))
}

fn handle_identify(
    state: &ServerState,
    req: &Request,
    scratch: &mut ExtractScratch,
    trace: &mut RequestTrace,
) -> (u16, String) {
    let parsed = match parse_json(&req.body) {
        Ok(v) => v,
        Err(e) => return (400, error_body(&e)),
    };
    let Some(Value::Str(url)) = parsed.get("url") else {
        return (400, error_body("body must be {\"url\": \"...\"}"));
    };
    let key = normalize_url(url);
    if key.is_empty() {
        return (400, error_body("empty url"));
    }
    let (scores, cached) = state.scores_cached(&key, scratch, trace);
    let body =
        serde_json::to_string(&result_value(&key, &scores, cached)).expect("response serialises");
    state.metrics.identify.fetch_add(1, Ordering::Relaxed);
    (200, body)
}

fn handle_identify_batch(
    state: &ServerState,
    req: &Request,
    trace: &mut RequestTrace,
) -> (u16, String) {
    let parsed = match parse_json(&req.body) {
        Ok(v) => v,
        Err(e) => return (400, error_body(&e)),
    };
    let Some(Value::Array(raw_urls)) = parsed.get("urls") else {
        return (400, error_body("body must be {\"urls\": [\"...\", ...]}"));
    };
    let mut keys = Vec::with_capacity(raw_urls.len());
    for v in raw_urls {
        match v {
            Value::Str(url) => {
                let key = normalize_url(url);
                if key.is_empty() {
                    return (400, error_body("empty url in batch"));
                }
                keys.push(key);
            }
            _ => return (400, error_body("urls must all be strings")),
        }
    }
    let results = state.scores_cached_batch(&keys, trace);
    let mut hits = 0u64;
    let items: Vec<Value> = keys
        .iter()
        .zip(&results)
        .map(|(key, (scores, cached))| {
            hits += u64::from(*cached);
            result_value(key, scores, *cached)
        })
        .collect();
    let mut o = Value::object();
    o.insert("count", Value::Uint(items.len() as u64));
    o.insert("cache_hits", Value::Uint(hits));
    o.insert("results", Value::Array(items));
    let body = serde_json::to_string(&o).expect("response serialises");
    state.metrics.identify_batch.fetch_add(1, Ordering::Relaxed);
    state
        .metrics
        .batch_urls
        .fetch_add(keys.len() as u64, Ordering::Relaxed);
    (200, body)
}

fn handle_healthz(state: &ServerState) -> (u16, String) {
    state.metrics.healthz.fetch_add(1, Ordering::Relaxed);
    let status = state.model_snapshot();
    let mut o = Value::object();
    o.insert("status", Value::Str("ok".to_owned()));
    o.insert("uptime_secs", Value::Float(state.metrics.uptime_secs()));
    o.insert("io_backend", Value::Str(Poller::NAME.to_owned()));
    o.insert("model", model_value(&status));
    (200, serde_json::to_string(&o).expect("response serialises"))
}

/// Does this `Accept` header ask for the Prometheus text exposition?
/// JSON stays the default: only an explicit `text/plain` (what
/// Prometheus sends) or an OpenMetrics media type switches formats.
fn wants_prometheus(accept: Option<&str>) -> bool {
    let Some(accept) = accept else {
        return false;
    };
    let accept = accept.to_ascii_lowercase();
    accept.contains("text/plain") || accept.contains("application/openmetrics-text")
}

fn handle_metrics(state: &ServerState, req: &Request) -> (u16, &'static str, String) {
    state.metrics.metrics.fetch_add(1, Ordering::Relaxed);
    if wants_prometheus(req.accept.as_deref()) {
        return (200, CONTENT_TYPE_PROM, prometheus_text(state));
    }
    let status = state.model_snapshot();
    let mut cache = Value::object();
    cache.insert("hits", Value::Uint(state.cache.hits()));
    cache.insert("misses", Value::Uint(state.cache.misses()));
    cache.insert("hit_rate", Value::Float(state.cache.hit_rate()));
    cache.insert("entries", Value::Uint(state.cache.len() as u64));
    cache.insert("capacity", Value::Uint(state.cache.capacity() as u64));
    let mut model = model_value(&status);
    model.insert(
        "reloads",
        Value::Uint(state.metrics.reloads.load(Ordering::Relaxed)),
    );
    let mut o = Value::object();
    o.insert("uptime_secs", Value::Float(state.metrics.uptime_secs()));
    o.insert("requests", state.metrics.requests_value());
    o.insert("connections", state.metrics.connections_value());
    o.insert("threads", state.metrics.threads_value());
    o.insert("reactors", state.metrics.reactors_value());
    o.insert("cache", cache);
    o.insert("latency", state.metrics.latency_value());
    o.insert("stages", state.metrics.stages_value());
    o.insert("model", model);
    (
        200,
        CONTENT_TYPE_JSON,
        serde_json::to_string(&o).expect("response serialises"),
    )
}

/// Render every serving metric as Prometheus text exposition 0.0.4.
/// The body is rebuilt per scrape from the same atomics the JSON view
/// reads; `urlid_telemetry::prometheus::lint` accepts it (enforced by
/// a test in `tests/server_http.rs`).
pub fn prometheus_text(state: &ServerState) -> String {
    let m = &state.metrics;
    let status = state.model_snapshot();
    let identifier = &status.identifier;
    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    let mut w = PromWriter::new();

    w.gauge(
        "urlid_uptime_seconds",
        "Seconds since the server started.",
        m.uptime_secs(),
    );
    w.family(
        "urlid_requests_total",
        "counter",
        "Requests served, by endpoint.",
    );
    for (endpoint, counter) in [
        ("identify", &m.identify),
        ("identify_batch", &m.identify_batch),
        ("healthz", &m.healthz),
        ("metrics", &m.metrics),
    ] {
        w.sample(
            "urlid_requests_total",
            &[("endpoint", endpoint)],
            load(counter) as f64,
        );
    }
    w.counter(
        "urlid_batch_urls_total",
        "URLs scored through /identify_batch.",
        load(&m.batch_urls),
    );
    w.counter(
        "urlid_errors_total",
        "Requests answered with a 4xx/5xx status (protocol rejects included).",
        load(&m.errors),
    );
    w.counter(
        "urlid_reloads_total",
        "Successful model hot-reloads.",
        load(&m.reloads),
    );
    w.counter(
        "urlid_connections_accepted_total",
        "Connections accepted since start, summed across reactors.",
        m.connections_accepted_total(),
    );
    w.counter(
        "urlid_connections_timed_out_total",
        "Connections evicted by the idle timeout, summed across reactors.",
        m.connections_timed_out_total(),
    );
    let open = m.connections_open_total();
    let busy = m.connections_busy_total();
    w.gauge(
        "urlid_connections_open",
        "Connections currently registered across all reactors.",
        open as f64,
    );
    w.gauge(
        "urlid_connections_idle",
        "Open connections with no request being handled.",
        open.saturating_sub(busy) as f64,
    );
    w.counter(
        "urlid_admission_rejects_total",
        "Requests answered 503 by per-reactor admission control.",
        m.admission_rejects_total(),
    );
    w.gauge(
        "urlid_reactors_failed",
        "Reactor threads that died on a panic (nonzero means draining toward a nonzero exit).",
        load(&m.reactors_failed) as f64,
    );
    let reactor_stats = m.reactor_stats();
    // Per-reactor families carry the I/O engine as a label (always
    // epoll), kept so the exposition's label set stays stable.
    let io = Poller::NAME;
    w.family(
        "urlid_reactor_connections_open",
        "gauge",
        "Connections currently registered, by reactor.",
    );
    for (i, r) in reactor_stats.iter().enumerate() {
        let label = i.to_string();
        w.sample(
            "urlid_reactor_connections_open",
            &[("reactor", label.as_str()), ("io", io)],
            r.open.load(Ordering::Relaxed) as f64,
        );
    }
    w.family(
        "urlid_reactor_connections_accepted_total",
        "counter",
        "Connections accepted since start, by reactor.",
    );
    for (i, r) in reactor_stats.iter().enumerate() {
        let label = i.to_string();
        w.sample(
            "urlid_reactor_connections_accepted_total",
            &[("reactor", label.as_str()), ("io", io)],
            r.accepted.load(Ordering::Relaxed) as f64,
        );
    }
    w.family(
        "urlid_reactor_connections_timed_out_total",
        "counter",
        "Idle-timeout evictions, by reactor.",
    );
    for (i, r) in reactor_stats.iter().enumerate() {
        let label = i.to_string();
        w.sample(
            "urlid_reactor_connections_timed_out_total",
            &[("reactor", label.as_str()), ("io", io)],
            r.timed_out.load(Ordering::Relaxed) as f64,
        );
    }
    w.family("urlid_threads", "gauge", "Server threads, by role.");
    w.sample(
        "urlid_threads",
        &[("role", "reactor")],
        m.reactor_count() as f64,
    );

    w.counter(
        "urlid_cache_hits_total",
        "Result-cache hits.",
        state.cache.hits(),
    );
    w.counter(
        "urlid_cache_misses_total",
        "Result-cache misses.",
        state.cache.misses(),
    );
    w.gauge(
        "urlid_cache_entries",
        "Result-cache entries currently stored.",
        state.cache.len() as f64,
    );
    w.gauge(
        "urlid_cache_capacity",
        "Result-cache capacity.",
        state.cache.capacity() as f64,
    );

    let config = identifier.config();
    w.family(
        "urlid_model_info",
        "gauge",
        "Model identity as labels; the value is always 1.",
    );
    let epoch_str = status.epoch.to_string();
    let path_str = status
        .path
        .as_ref()
        .map(|p| p.display().to_string())
        .unwrap_or_default();
    w.sample(
        "urlid_model_info",
        &[
            ("algorithm", config.algorithm.abbrev()),
            ("features", config.feature_set.short_label()),
            ("epoch", epoch_str.as_str()),
            ("path", path_str.as_str()),
        ],
        1.0,
    );
    if let Some(load_ms) = status.load_ms {
        w.gauge(
            "urlid_model_load_seconds",
            "Wall-clock load time of the serving model (file to ready identifier).",
            load_ms / 1e3,
        );
    }

    w.family(
        "urlid_request_latency_seconds",
        "histogram",
        "End-to-end latency of /identify and /identify_batch (rejects included).",
    );
    w.histogram_series(
        "urlid_request_latency_seconds",
        &[],
        &m.latency.snapshot(),
        SECONDS_PER_NANO,
    );
    w.family(
        "urlid_stage_duration_seconds",
        "histogram",
        "Per-stage request pipeline durations.",
    );
    for stage in Stage::ALL {
        w.histogram_series(
            "urlid_stage_duration_seconds",
            &[("stage", stage.name())],
            &m.stage_snapshot(stage),
            SECONDS_PER_NANO,
        );
    }
    w.finish()
}

/// `GET /admin/trace`: the last buffered stage spans, oldest first,
/// with request-id correlation — enough to reconstruct where any
/// recent request spent its time. Spans are recorded in nanoseconds
/// and reported in whole microseconds.
fn handle_trace(state: &ServerState) -> (u16, String) {
    let spans = state.metrics.trace_snapshot();
    let items: Vec<Value> = spans
        .iter()
        .map(|s| {
            let mut o = Value::object();
            o.insert("request_id", Value::Uint(s.request_id));
            o.insert("stage", Value::Str(s.stage.name().to_owned()));
            o.insert("start_us", Value::Uint(s.start_nanos / 1000));
            o.insert("duration_us", Value::Uint(s.duration_nanos / 1000));
            o
        })
        .collect();
    let mut o = Value::object();
    o.insert("count", Value::Uint(items.len() as u64));
    o.insert("telemetry", Value::Bool(state.metrics.telemetry_enabled()));
    o.insert("spans", Value::Array(items));
    (200, serde_json::to_string(&o).expect("response serialises"))
}

fn handle_reload(state: &ServerState, req: &Request) -> (u16, String) {
    // Body grammar: `{}` / empty reloads the stored path;
    // `{"path": "..."}` names a `.urlm` file. Empty bodies stay accepted
    // for backward compatibility.
    let path = if req.body.trim().is_empty() {
        None
    } else {
        match parse_json(&req.body) {
            Ok(v) => match v.get("path") {
                Some(Value::Str(p)) => Some(PathBuf::from(p)),
                Some(_) => return (400, error_body("path must be a string")),
                None => None,
            },
            Err(e) => return (400, error_body(&e)),
        }
    };
    match state.reload(path) {
        Ok(report) => {
            let status = state.model_snapshot();
            let mut o = Value::object();
            o.insert("reloaded", Value::Bool(true));
            o.insert("load_ms", Value::Float(report.load_ms));
            o.insert("model", model_value(&status));
            (200, serde_json::to_string(&o).expect("response serialises"))
        }
        Err(message) => (500, error_body(&message)),
    }
}

/// Route one request to its handler (runs on the reactor thread that
/// parsed it, which owns `scratch` — one reusable extraction buffer per
/// reactor — and `trace` — the stage-span context for this request).
/// Returns status, content type, and body.
pub(crate) fn route(
    state: &ServerState,
    req: &Request,
    scratch: &mut ExtractScratch,
    trace: &mut RequestTrace,
) -> (u16, &'static str, String) {
    let (status, content_type, body) = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/identify") => {
            let (status, body) = handle_identify(state, req, scratch, trace);
            (status, CONTENT_TYPE_JSON, body)
        }
        ("POST", "/identify_batch") => {
            let (status, body) = handle_identify_batch(state, req, trace);
            (status, CONTENT_TYPE_JSON, body)
        }
        ("GET", "/healthz") => {
            let (status, body) = handle_healthz(state);
            (status, CONTENT_TYPE_JSON, body)
        }
        ("GET", "/metrics") => handle_metrics(state, req),
        ("GET", "/admin/trace") => {
            let (status, body) = handle_trace(state);
            (status, CONTENT_TYPE_JSON, body)
        }
        ("POST", "/admin/reload") => {
            let (status, body) = handle_reload(state, req);
            (status, CONTENT_TYPE_JSON, body)
        }
        (
            _,
            "/identify" | "/identify_batch" | "/healthz" | "/metrics" | "/admin/trace"
            | "/admin/reload",
        ) => (405, CONTENT_TYPE_JSON, error_body("method not allowed")),
        _ => (404, CONTENT_TYPE_JSON, error_body("not found")),
    };
    if status >= 400 {
        state.metrics.errors.fetch_add(1, Ordering::Relaxed);
    }
    (status, content_type, body)
}

// ---------------------------------------------------------------------
// Engine spawn / shutdown
// ---------------------------------------------------------------------

/// A running server: its address, its shared state, and the handles
/// needed to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    shutdown: Arc<AtomicBool>,
    wakers: Vec<Arc<Waker>>,
    reactors: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real port; with
    /// `SO_REUSEPORT` every reactor's listener shares this address).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared serving state.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Serve until every reactor exits (the CLI path). Returns the
    /// number of reactors that died on a panic — `0` is a clean exit;
    /// anything else means the server drained early because a reactor
    /// failed, and the process should exit nonzero.
    pub fn join(mut self) -> usize {
        for reactor in self.reactors.drain(..) {
            let _ = reactor.join();
        }
        self.state.metrics().reactors_failed.load(Ordering::Relaxed) as usize
    }

    /// Graceful shutdown: stop accepting, let responses still flushing
    /// drain (bounded by the configured drain timeout), and return.
    /// Every reactor is woken through its self-pipe — no throwaway
    /// connection involved.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for waker in &self.wakers {
            waker.wake();
        }
        let _ = self.join();
    }
}

/// Bind one `SO_REUSEPORT` listener per reactor on one port, so the
/// kernel load-balances accepts across them.
///
/// `SO_REUSEPORT` alone would also let a second server join a port
/// that is already being served and quietly take a share of its
/// connections. So the address is first claimed with a plain bind
/// (`SO_REUSEADDR` only): that fails with `AddrInUse` while anything
/// listens there, yet ignores `TIME_WAIT` leftovers of a previous run,
/// and it resolves port 0. The claim is dropped before the group binds
/// to the resolved port.
fn bind_listeners(addr: &str, reactors: usize) -> io::Result<Vec<TcpListener>> {
    use std::net::ToSocketAddrs;
    let resolved = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
    let actual = TcpListener::bind(resolved)?.local_addr()?;
    (0..reactors)
        .map(|_| crate::sys::bind_reuseport(actual))
        .collect()
}

/// Start the server: bind the per-reactor listeners, spawn the reactor
/// threads, and return immediately with a [`ServerHandle`].
///
/// A reactor that panics does not strand its siblings: the panic is
/// caught at the thread boundary, `reactors_failed` is bumped, and the
/// shared shutdown flag is raised so every surviving reactor drains
/// gracefully. [`ServerHandle::join`] reports the failure count.
/// (A panicking request handler never gets that far: the reactor
/// answers it `500` and keeps serving.)
pub fn spawn(config: &ServeConfig, state: Arc<ServerState>) -> io::Result<ServerHandle> {
    let reactors = if config.reactors == 0 {
        default_reactors()
    } else {
        config.reactors
    };
    let listeners = bind_listeners(&config.addr, reactors)?;
    let addr = listeners[0].local_addr()?;
    let metrics = state.metrics();
    metrics.set_telemetry_enabled(config.telemetry);
    metrics
        .max_inflight
        .store(config.max_inflight as u64, Ordering::Relaxed);
    // 250ms minimum gap between slow-log lines: a pathological burst
    // costs at most four stderr lines per second.
    metrics.slow.configure(config.slow_request_micros, 250_000);
    metrics.reset_reactors();

    let shutdown = Arc::new(AtomicBool::new(false));
    let mut wakers = Vec::with_capacity(reactors);
    let mut built = Vec::with_capacity(reactors);
    for (index, listener) in listeners.into_iter().enumerate() {
        let (wake_pipe, waker) = WakePipe::new()?;
        wakers.push(Arc::new(waker));
        built.push(Reactor::new(
            index,
            Box::new(Poller::new()?),
            listener,
            wake_pipe,
            Arc::clone(&state),
            Arc::clone(&shutdown),
            config,
        )?);
    }
    // Built before any reactor thread starts so a panicking reactor can
    // wake every sibling, including ones spawned after it.
    let all_wakers: Arc<Vec<Arc<Waker>>> = Arc::new(wakers.clone());

    let mut reactor_threads = Vec::with_capacity(reactors);
    for (index, reactor) in built.into_iter().enumerate() {
        let thread_state = Arc::clone(&state);
        let thread_shutdown = Arc::clone(&shutdown);
        let thread_wakers = Arc::clone(&all_wakers);
        let thread = std::thread::Builder::new()
            .name(format!("urlid-serve-reactor-{index}"))
            .spawn(move || {
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reactor.run()));
                if result.is_err() {
                    // This reactor is gone; mark it and drain the
                    // siblings instead of stranding their connections
                    // behind a half-dead server.
                    thread_state
                        .metrics()
                        .reactors_failed
                        .fetch_add(1, Ordering::Relaxed);
                    thread_shutdown.store(true, Ordering::Release);
                    for waker in thread_wakers.iter() {
                        waker.wake();
                    }
                }
            });
        match thread {
            Ok(handle) => reactor_threads.push(handle),
            Err(e) => {
                // This reactor never started: drain what did start.
                shutdown.store(true, Ordering::Relaxed);
                for waker in all_wakers.iter() {
                    waker.wake();
                }
                for handle in reactor_threads {
                    let _ = handle.join();
                }
                return Err(e);
            }
        }
    }

    Ok(ServerHandle {
        addr,
        state,
        shutdown,
        wakers,
        reactors: reactor_threads,
    })
}
