//! Server state, request routing, and the engine spawn/shutdown API.
//!
//! ## Threading model
//!
//! `N` **reactor threads** (the internal `reactor` module, one per core
//! by default) share the accept load: each owns its own `SO_REUSEPORT`
//! listener (the kernel load-balances incoming connections across
//! them), its own connection slab, its own wake pipe, its own
//! result-cache shard set, and its own handler workspace (model handle
//! plus scratch buffers). A connection is adopted by exactly one
//! reactor and never migrates. Each reactor reads bytes into
//! per-connection incremental parsers, runs every parsed request
//! through `route` on its own thread, encodes the response into the
//! connection's output buffer, and writes it over non-blocking I/O
//! multiplexed by a level-triggered epoll poller (see [`crate::sys`]).
//! The thread budget is the reactor count, independent of the number of
//! open connections — thousands of mostly-idle keep-alive clients cost
//! slab slots, not threads. Only `/identify_batch` fans out further:
//! its cache misses score on `score_batch`'s scoped threads while the
//! reactor waits.
//!
//! What reactors still share on the request path is a handful of
//! atomics: the request-id counter, the per-endpoint and error counters
//! ([`Metrics`]), the cache's hit and miss counters, the end-to-end
//! latency histogram and the cache/extract/score stage histograms (the
//! parse and write histograms are per reactor), the model epoch (read
//! only, written by a reload), and, with telemetry on, one of eight
//! trace-ring stripes picked by reactor index.
//!
//! Each reactor also runs **admission control**: it serves at most
//! [`ServeConfig::max_inflight`] connections per event-loop pass and
//! answers the next ready connection's request `503`, so overload sheds
//! load instead of stretching every admitted client's wait.
//!
//! ## Hot reload
//!
//! The model lives in a private `ModelSlot` behind an `RwLock`, and its
//! epoch is mirrored in an atomic. Each reactor keeps its own handle on
//! the model (an `Arc<LanguageIdentifier>` and the epoch it was read
//! at, always taken together under one read lock) and re-reads the slot
//! only when the atomic differs from its epoch, so a request touches
//! neither the lock nor the `Arc`'s reference count. `POST
//! /admin/reload` loads the new `.urlm` model *before* taking the write
//! lock, so the lock is held only for the pointer swap — in-flight
//! requests finish on the model they started with and no request is
//! ever dropped. A reactor lets go of the old model at its next
//! `/identify` after the swap. A file that fails to load (a missing
//! path, a bad checksum, a file without the `.urlm` magic) leaves the
//! old model serving. The epoch bump atomically invalidates the result
//! cache (see [`crate::cache`]).

use crate::cache::{normalize_url, normalize_url_into, CachedScores, ResultCache};
use crate::http::{Request, MAX_BODY_BYTES};
use crate::metrics::Metrics;
use crate::reactor::Reactor;
use crate::sys::{Poller, WakePipe, Waker};
use serde::Value;
use serde_json::Parser;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
    /// The slot's epoch, stored (`Release`) with each swap: a reactor
    /// whose [`Workspace`] holds another epoch re-reads the slot.
    epoch: AtomicU64,
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
            epoch: AtomicU64::new(0),
            cache: ResultCache::with_sets(cache_capacity, ResultCache::DEFAULT_SHARDS, cache_sets),
            metrics: Metrics::new(),
        }
    }

    /// The current model and its epoch (consistent snapshot; request
    /// handlers go through their reactor's own model handle instead).
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
            // Stored under the write lock, so two racing reloads leave
            // the atomic at the slot's final epoch. Pairs with the
            // `Acquire` load in `Workspace::refresh`.
            self.epoch.store(slot.epoch, Ordering::Release);
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
        identifier: &LanguageIdentifier,
        epoch: u64,
        scratch: &mut ExtractScratch,
        trace: &mut RequestTrace,
    ) -> (CachedScores, bool) {
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
        identifier: &LanguageIdentifier,
        epoch: u64,
        trace: &mut RequestTrace,
    ) -> Vec<(CachedScores, bool)> {
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

/// What one reactor's request handlers reuse from request to request:
/// its handle on the model and its scratch buffers. Once the buffers
/// have grown to the traffic's sizes, a cache-hit `/identify` allocates
/// nothing.
pub(crate) struct Workspace {
    /// The model this reactor scores with, and the epoch it was read
    /// at: one consistent pair, re-read only when the shared epoch
    /// moves.
    model: Arc<LanguageIdentifier>,
    epoch: u64,
    /// The extraction buffers every cache miss scores through.
    scratch: ExtractScratch,
    /// The JSON key being decoded.
    key: String,
    /// The raw URL of an `/identify` body.
    url: String,
    /// Its normalised form: the cache key, scored and echoed.
    normalized: String,
}

impl Workspace {
    /// A workspace holding the current model.
    pub(crate) fn new(state: &ServerState) -> Self {
        let (model, epoch) = state.model();
        Workspace {
            model,
            epoch,
            scratch: ExtractScratch::new(),
            key: String::new(),
            url: String::new(),
            normalized: String::new(),
        }
    }

    /// Re-read the model slot if a reload moved the epoch since it was
    /// last read. The slot's lock hands out model and epoch together,
    /// so the pair stays consistent even when another reload lands in
    /// between.
    fn refresh(&mut self, state: &ServerState) {
        if state.epoch.load(Ordering::Acquire) != self.epoch {
            (self.model, self.epoch) = state.model();
        }
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

/// Append `message` to `out` as an `{"error": ...}` body; returns
/// `status` for the handler to answer with.
fn write_error(out: &mut Vec<u8>, status: u16, message: &str) -> u16 {
    out.extend_from_slice(error_body(message).as_bytes());
    status
}

/// Append one URL's result object to `out` (shared by `/identify` and
/// `/identify_batch`): `url`, `best`, `accepted`, `scores`, `cached`,
/// in that order, byte-identical to what `serde_json` makes of the
/// equivalent `Value` tree (the tests hold it to that). Decisions and
/// the best language are derived from the scores alone (sign
/// convention), which is what makes score-only caching sufficient.
fn write_result(out: &mut Vec<u8>, key: &str, scores: &CachedScores, cached: bool) {
    out.extend_from_slice(b"{\"url\":");
    serde_json::write_escaped(key, out);
    out.extend_from_slice(b",\"best\":");
    match LanguageClassifierSet::best_of(scores) {
        Some(lang) => serde_json::write_escaped(lang.iso_code(), out),
        None => out.extend_from_slice(b"null"),
    }
    out.extend_from_slice(b",\"accepted\":[");
    // The sign convention (decision == score > 0) is proptested for
    // every algorithm, so decisions are free given the scores.
    let accepted = ALL_LANGUAGES
        .iter()
        .filter(|lang| scores[lang.index()].is_some_and(|s| s > 0.0));
    for (i, lang) in accepted.enumerate() {
        if i > 0 {
            out.push(b',');
        }
        serde_json::write_escaped(lang.iso_code(), out);
    }
    out.extend_from_slice(b"],\"scores\":{");
    for (i, lang) in ALL_LANGUAGES.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        serde_json::write_escaped(lang.iso_code(), out);
        out.push(b':');
        match scores[lang.index()] {
            Some(score) => serde_json::write_float(score, out),
            None => out.extend_from_slice(b"null"),
        }
    }
    out.extend_from_slice(b"},\"cached\":");
    out.extend_from_slice(if cached { b"true}" } else { b"false}" });
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

/// The 400 message of a body that is not JSON.
fn invalid_json(e: serde_json::Error) -> String {
    format!("invalid JSON body: {e}")
}

fn parse_json(body: &str) -> Result<Value, String> {
    serde_json::from_str::<Value>(body).map_err(invalid_json)
}

/// Walk a request body that should be a JSON object, handing the value
/// of its first `field` key to `read`. `read` either consumes the value
/// and answers `true`, or, when the value is not of the kind it wants,
/// consumes nothing and answers `false`. Everything else is skipped,
/// but checked: the whole body is validated before its shape is
/// judged, so a JSON error wins over a shape error. These are the
/// decisions a `Value` tree and `Value::get` made: first key wins,
/// unknown keys are ignored. `Ok(true)` when `read` took the value.
fn decode_field(
    body: &str,
    key: &mut String,
    field: &str,
    mut read: impl FnMut(&mut Parser<'_>) -> Result<bool, serde_json::Error>,
) -> Result<bool, String> {
    let mut parser = Parser::new(body);
    let mut taken = None;
    let mut walk = || {
        if !parser.begin_object()? {
            return parser.skip_value();
        }
        while parser.next_key(key)? {
            if taken.is_none() && key == field {
                let took = read(&mut parser)?;
                taken = Some(took);
                if took {
                    continue;
                }
            }
            parser.skip_value()?;
        }
        Ok(())
    };
    walk().and_then(|()| parser.end()).map_err(invalid_json)?;
    Ok(taken == Some(true))
}

/// Decode an `/identify` body, `{"url": "..."}`, into `url` (see
/// [`decode_field`]); the error is the 400 message.
fn decode_identify(body: &str, key: &mut String, url: &mut String) -> Result<(), String> {
    if decode_field(body, key, "url", |parser| parser.string(url))? {
        Ok(())
    } else {
        Err("body must be {\"url\": \"...\"}".into())
    }
}

/// Decode an `/identify_batch` body, `{"urls": ["...", ...]}`, into
/// normalised URLs (see [`decode_field`]); the error is the 400
/// message. Of the elements that cannot be scored, the first one in
/// the array names the error.
fn decode_batch(body: &str, key: &mut String) -> Result<Vec<String>, String> {
    let mut keys = Vec::new();
    let mut url = String::new();
    let mut unscorable = None;
    let found = decode_field(body, key, "urls", |parser| {
        if !parser.begin_array()? {
            return Ok(false);
        }
        while parser.next_element()? {
            if parser.string(&mut url)? {
                let key = normalize_url(&url);
                if key.is_empty() {
                    unscorable.get_or_insert("empty url in batch");
                }
                keys.push(key);
            } else {
                unscorable.get_or_insert("urls must all be strings");
                parser.skip_value()?;
            }
        }
        Ok(true)
    })?;
    if !found {
        return Err("body must be {\"urls\": [\"...\", ...]}".into());
    }
    match unscorable {
        Some(message) => Err(message.into()),
        None => Ok(keys),
    }
}

fn handle_identify(
    state: &ServerState,
    req: &Request,
    out: &mut Vec<u8>,
    ws: &mut Workspace,
    trace: &mut RequestTrace,
) -> u16 {
    if let Err(message) = decode_identify(&req.body, &mut ws.key, &mut ws.url) {
        return write_error(out, 400, &message);
    }
    normalize_url_into(&ws.url, &mut ws.normalized);
    if ws.normalized.is_empty() {
        return write_error(out, 400, "empty url");
    }
    ws.refresh(state);
    let (scores, cached) =
        state.scores_cached(&ws.normalized, &ws.model, ws.epoch, &mut ws.scratch, trace);
    write_result(out, &ws.normalized, &scores, cached);
    state.metrics.identify.fetch_add(1, Ordering::Relaxed);
    200
}

fn handle_identify_batch(
    state: &ServerState,
    req: &Request,
    out: &mut Vec<u8>,
    ws: &mut Workspace,
    trace: &mut RequestTrace,
) -> u16 {
    let keys = match decode_batch(&req.body, &mut ws.key) {
        Ok(keys) => keys,
        Err(message) => return write_error(out, 400, &message),
    };
    ws.refresh(state);
    let results = state.scores_cached_batch(&keys, &ws.model, ws.epoch, trace);
    let hits = results.iter().filter(|(_, cached)| *cached).count();
    write!(
        out,
        "{{\"count\":{},\"cache_hits\":{hits},\"results\":[",
        keys.len()
    )
    .expect("writing to a Vec cannot fail");
    for (i, (key, (scores, cached))) in keys.iter().zip(&results).enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_result(out, key, scores, *cached);
    }
    out.extend_from_slice(b"]}");
    state.metrics.identify_batch.fetch_add(1, Ordering::Relaxed);
    state
        .metrics
        .batch_urls
        .fetch_add(keys.len() as u64, Ordering::Relaxed);
    200
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
fn wants_prometheus(accept: &str) -> bool {
    let accept = accept.to_ascii_lowercase();
    accept.contains("text/plain") || accept.contains("application/openmetrics-text")
}

fn handle_metrics(state: &ServerState, req: &Request) -> (u16, &'static str, String) {
    state.metrics.metrics.fetch_add(1, Ordering::Relaxed);
    if wants_prometheus(&req.accept) {
        return (200, CONTENT_TYPE_PROM, prometheus_text(state));
    }
    let status = state.model_snapshot();
    let mut cache = Value::object();
    cache.insert("hits", Value::Uint(state.cache.hits()));
    cache.insert("misses", Value::Uint(state.cache.misses()));
    cache.insert("hit_rate", Value::Float(state.cache.hit_rate()));
    cache.insert("entries", Value::Uint(state.cache.len() as u64));
    cache.insert("capacity", Value::Uint(state.cache.capacity() as u64));
    cache.insert("bytes", Value::Uint(state.cache.heap_bytes() as u64));
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
    w.gauge(
        "urlid_cache_bytes",
        "Heap bytes the result cache holds: nodes, index, key arenas.",
        state.cache.heap_bytes() as f64,
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

/// Append `body` to `out`; returns the status and content type to
/// answer with.
fn put(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &'static str,
    body: &str,
) -> (u16, &'static str) {
    out.extend_from_slice(body.as_bytes());
    (status, content_type)
}

/// Route one request to its handler, which appends the response body
/// to `out`; returns the status and content type for the head. Runs on
/// the reactor thread that parsed the request, which owns `ws` — its
/// model handle and scratch buffers — and `trace` — the stage-span
/// context for this request.
pub(crate) fn route(
    state: &ServerState,
    req: &Request,
    out: &mut Vec<u8>,
    ws: &mut Workspace,
    trace: &mut RequestTrace,
) -> (u16, &'static str) {
    let (status, content_type) = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/identify") => (
            handle_identify(state, req, out, ws, trace),
            CONTENT_TYPE_JSON,
        ),
        ("POST", "/identify_batch") => (
            handle_identify_batch(state, req, out, ws, trace),
            CONTENT_TYPE_JSON,
        ),
        ("GET", "/healthz") => {
            let (status, body) = handle_healthz(state);
            put(out, status, CONTENT_TYPE_JSON, &body)
        }
        ("GET", "/metrics") => {
            let (status, content_type, body) = handle_metrics(state, req);
            put(out, status, content_type, &body)
        }
        ("GET", "/admin/trace") => {
            let (status, body) = handle_trace(state);
            put(out, status, CONTENT_TYPE_JSON, &body)
        }
        ("POST", "/admin/reload") => {
            let (status, body) = handle_reload(state, req);
            put(out, status, CONTENT_TYPE_JSON, &body)
        }
        (
            _,
            "/identify" | "/identify_batch" | "/healthz" | "/metrics" | "/admin/trace"
            | "/admin/reload",
        ) => (
            write_error(out, 405, "method not allowed"),
            CONTENT_TYPE_JSON,
        ),
        _ => (write_error(out, 404, "not found"), CONTENT_TYPE_JSON),
    };
    if status >= 400 {
        state.metrics.errors.fetch_add(1, Ordering::Relaxed);
    }
    (status, content_type)
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `Value` tree `write_result` replaced: the oracle the encoder
    /// must match byte for byte once `serde_json` renders it.
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

    /// `/identify`'s decode through a `Value` tree, then normalisation:
    /// the oracle for `decode_identify` (the normalised URL, or the 400
    /// message).
    fn identify_by_value(body: &str) -> Result<String, String> {
        let parsed = parse_json(body)?;
        let Some(Value::Str(url)) = parsed.get("url") else {
            return Err("body must be {\"url\": \"...\"}".into());
        };
        let key = normalize_url(url);
        if key.is_empty() {
            return Err("empty url".into());
        }
        Ok(key)
    }

    /// `/identify_batch`'s decode through a `Value` tree: the oracle for
    /// `decode_batch`.
    fn batch_by_value(body: &str) -> Result<Vec<String>, String> {
        let parsed = parse_json(body)?;
        let Some(Value::Array(raw_urls)) = parsed.get("urls") else {
            return Err("body must be {\"urls\": [\"...\", ...]}".into());
        };
        let mut keys = Vec::with_capacity(raw_urls.len());
        for v in raw_urls {
            match v {
                Value::Str(url) => {
                    let key = normalize_url(url);
                    if key.is_empty() {
                        return Err("empty url in batch".into());
                    }
                    keys.push(key);
                }
                _ => return Err("urls must all be strings".into()),
            }
        }
        Ok(keys)
    }

    /// The streaming path `handle_identify` takes, up to scoring.
    fn identify_streaming(body: &str) -> Result<String, String> {
        let (mut key, mut url, mut normalized) = (String::new(), String::new(), String::new());
        decode_identify(body, &mut key, &mut url)?;
        normalize_url_into(&url, &mut normalized);
        if normalized.is_empty() {
            return Err("empty url".into());
        }
        Ok(normalized)
    }

    fn encoded(key: &str, scores: &CachedScores, cached: bool) -> String {
        let mut out = Vec::new();
        write_result(&mut out, key, scores, cached);
        String::from_utf8(out).expect("the encoder writes UTF-8")
    }

    fn assert_encoder_matches(key: &str, scores: &CachedScores, cached: bool) {
        assert_eq!(
            encoded(key, scores, cached),
            serde_json::to_string(&result_value(key, scores, cached)).unwrap(),
            "key {key:?}, scores {scores:?}"
        );
    }

    /// Scores worth pinning: signed zeros, subnormals, extreme
    /// exponents, and the non-finite values JSON writes as `null`.
    const EDGE_SCORES: [f64; 14] = [
        0.0,
        -0.0,
        5e-324,
        -f64::MIN_POSITIVE / 3.0,
        f64::MIN_POSITIVE,
        1e-300,
        -1.5e-7,
        1e21,
        -1.7976931348623157e308,
        123456.789,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.1,
    ];

    #[test]
    fn result_encoder_matches_the_value_tree_on_edge_cases() {
        let keys = [
            "http://www.wetterbericht.de/berlin",
            "",
            "a\"quoted\"\\back\\slash",
            "\u{0}\u{1}\u{8}\u{b}\u{1f}\t\n\r\u{7f}",
            "http://müller.de/straße/€/😀",
        ];
        for key in keys {
            for (i, &x) in EDGE_SCORES.iter().enumerate() {
                let scores = [
                    Some(x),
                    None,
                    Some(-x),
                    Some(EDGE_SCORES[(i + 3) % EDGE_SCORES.len()]),
                    Some(0.5),
                ];
                assert_encoder_matches(key, &scores, i % 2 == 0);
            }
            assert_encoder_matches(key, &[None; 5], true);
            assert_encoder_matches(key, &[Some(-1.0); 5], false);
        }
    }

    #[test]
    fn decoders_match_the_value_path_on_edge_cases() {
        for body in [
            r#"{"url": "http://www.a.de/"}"#,
            r#"  {"url":"HTTP://WWW.A.DE/Pfad#frag"}  "#,
            r#"{"id": {"url": 1}, "u\u0072l": "h\/t\"tp"}"#,
            r#"{"url": 5, "url": "http://second.de/"}"#,
            r#"{"url": "http://first.de/", "url": "http://second.de/"}"#,
            r#"{"url": " "}"#,
            r#"{"url": "http://a.de/"} trailing"#,
            r#"{"url": "http://a.de/", }"#,
            r#"{"url": "\x"}"#,
            r#"{"other": nul, "url": "http://a.de/"}"#,
            r#"["url", "http://a.de/"]"#,
            r#""http://a.de/""#,
            "",
            "{}",
            r#"{"urls": ["http://a.de/", " HTTP://B.FR/X ", "c.it"]}"#,
            r#"{"urls": ["http://a.de/", 7, " "]}"#,
            r#"{"urls": ["http://a.de/", " ", 7]}"#,
            r#"{"urls": "http://a.de/", "urls": ["http://b.de/"]}"#,
            r#"{"urls": [], "x": [1, {"urls": 2}]}"#,
            r#"{"urls": ["a.de"] "#,
        ] {
            assert_eq!(
                identify_streaming(body),
                identify_by_value(body),
                "{body:?}"
            );
            assert_eq!(
                decode_batch(body, &mut String::new()),
                batch_by_value(body),
                "{body:?}"
            );
        }
    }

    /// A score: missing, one of the edge values, an arbitrary bit
    /// pattern (NaNs and subnormals included), or an ordinary value.
    fn score_from((kind, bits, normal): (u8, u64, f64)) -> Option<f64> {
        match kind {
            0 => None,
            1 => Some(EDGE_SCORES[(bits % EDGE_SCORES.len() as u64) as usize]),
            2 => Some(f64::from_bits(bits)),
            _ => Some(normal),
        }
    }

    /// Bodies built from members a crawler's client — or an attacker —
    /// might send: plain and escaped `url` keys, duplicates, wrong
    /// kinds, nested objects, batches, and broken JSON.
    fn body_from((members, open, close): (Vec<String>, String, String)) -> String {
        format!("{open}{}{close}", members.join(","))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The result encoder is byte-identical to the `Value` tree it
        /// replaced, for keys with quotes, backslashes, control
        /// characters and non-ASCII, and arbitrary scores.
        #[test]
        fn result_encoder_matches_the_value_tree(
            key in "[a-zA-Z0-9\"\\\\\u{0}-\u{1f}\u{7f}éß€😀/:.?=#& ]{0,32}",
            scores in proptest::collection::vec(
                (0u8..4, 0u64..u64::MAX, -40.0f64..40.0),
                5..6,
            ),
            cached in 0u8..2,
        ) {
            let scores: CachedScores = std::array::from_fn(|i| score_from(scores[i]));
            assert_encoder_matches(&key, &scores, cached == 1);
        }

        /// On arbitrary JSON-ish text, both decoders agree with the
        /// `Value` path: the same URL(s), or the same 400 message.
        #[test]
        fn decoders_match_the_value_path_on_arbitrary_text(
            body in "[ \t\n{}\\[\\]:,\"\\\\/ulrsx0-9.eE+\\-ntfa]{0,48}",
        ) {
            prop_assert_eq!(identify_streaming(&body), identify_by_value(&body));
            prop_assert_eq!(decode_batch(&body, &mut String::new()), batch_by_value(&body));
        }

        /// The same on bodies shaped like real requests.
        #[test]
        fn decoders_match_the_value_path_on_url_shaped_bodies(
            parts in (
                proptest::collection::vec(
                    prop_oneof![
                        "\"url\" ?: ?\"[a-zA-Z0-9:/.?=#&% é]{0,30}\"",
                        "\"url\":\"[hH][tT]{2}[pP]://[a-zA-Z.]{1,12}/[a-zA-Z/?=#:]{0,10}\"",
                        "\"url\":\"[a-z\\\\\"/nu0-9]{0,10}\"",
                        "\"u\\\\u0072l\":\"[a-zA-Z./:]{1,12}\"",
                        "\"url\": ?[0-9]{1,3}",
                        "\"url\": null",
                        "\"url\": \"[ \t]{0,2}\"",
                        "\"urls\": ?\\[\"[a-zA-Z./:]{0,10}\"(, ?\"[A-Z.:/ ]{0,10}\"){0,3}\\]",
                        "\"urls\": \\[[0-9]{1,2}, \"x\"\\]",
                        "\"urls\": \\[\"[ ]{0,1}\", \"a\"\\]",
                        "\"urls\": ?\"[a-z.]{0,6}\"",
                        "\"x\": \\{\"url\": \"nested\", \"urls\": \\[\\]\\}",
                        "\"[a-z]{1,4}\": ?[0-9.eE+\\-]{1,6}",
                        "\"[a-z]{1,3}\\\\[nt\"u/]\": true",
                        "[a-z\",:]{0,3}",
                    ],
                    0..5,
                ),
                "[ \n]{0,2}\\{?[ ]{0,1}",
                "[ ]{0,1}\\}?[ \n]{0,1}[x,\\]]{0,1}",
            ).prop_map(body_from),
        ) {
            prop_assert_eq!(identify_streaming(&parts), identify_by_value(&parts));
            prop_assert_eq!(decode_batch(&parts, &mut String::new()), batch_by_value(&parts));
        }
    }
}
