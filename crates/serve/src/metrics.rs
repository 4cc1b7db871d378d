//! Request counters, per-stage histograms, and the trace plane.
//!
//! Everything on a recording path is relaxed atomics or a `try_lock`
//! ring write: the handlers record into shared counters and
//! [`AtomicHistogram`]s with no blocking, and `GET /metrics` reads a
//! (slightly racy, monotonically consistent-enough) snapshot — the
//! standard trade-off for serving metrics.
//!
//! Latency and the five pipeline stages (parse / cache / extract /
//! score / write) share the log-linear histogram from `urlid-telemetry`
//! (≤ 3.125% relative quantile error; see that crate's docs), recorded
//! in nanoseconds: a cache hit's stages each take well under a
//! microsecond, so whole-µs records would read 0. The expositions
//! convert (`*_ms` in JSON, `_seconds` in Prometheus, whole µs in
//! `/admin/trace` and the slow log). Stage spans additionally land in
//! a striped fixed-size [`TraceBuffer`] with request-id correlation,
//! which `GET /admin/trace` snapshots for slow-request forensics. The
//! whole span plane can be disabled (`urlid serve --telemetry off`);
//! counters and end-to-end latency stay on regardless.

use crate::sys::Poller;
use serde::Value;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;
use urlid_telemetry::{AtomicHistogram, Histogram, SlowLog, SpanRecord, Stage, TraceBuffer};

/// Trace ring stripes. Reactor `r` records into stripe `r %
/// TRACE_STRIPES` — recording is a try-lock, so stripe collisions cost
/// dropped spans at worst, never blocking.
pub(crate) const TRACE_STRIPES: usize = 8;

/// Span records kept per stripe; `GET /admin/trace` returns at most
/// `TRACE_STRIPES * TRACE_RING_CAPACITY` records.
const TRACE_RING_CAPACITY: usize = 128;

/// Per-reactor connection-engine state: gauges and the two
/// reactor-thread stage histograms (parse/write). Each reactor owns
/// one of these `Arc`s and updates it without ever touching a sibling's
/// — the shared `Metrics` only *reads* them at exposition time, summing
/// across reactors for the totals.
pub struct ReactorStats {
    /// Connections this reactor accepted over its lifetime (counter).
    pub accepted: AtomicU64,
    /// Connections currently registered in this reactor's slab (gauge).
    pub open: AtomicU64,
    /// Connections whose request the reactor is handling right now
    /// (gauge); `open - busy` is the number of idle keep-alives.
    pub busy: AtomicU64,
    /// Connections this reactor evicted on idle timeout (counter).
    pub timed_out: AtomicU64,
    /// Requests answered 503 by this reactor's admission control
    /// because its per-pass budget was spent (counter).
    pub admission_rejects: AtomicU64,
    /// Parse-stage durations measured on this reactor's thread.
    pub parse: AtomicHistogram,
    /// Write-stage durations measured on this reactor's thread.
    pub write: AtomicHistogram,
}

impl ReactorStats {
    fn new() -> Self {
        Self {
            accepted: AtomicU64::new(0),
            open: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            admission_rejects: AtomicU64::new(0),
            parse: AtomicHistogram::new(),
            write: AtomicHistogram::new(),
        }
    }
}

/// All serving metrics: per-endpoint request counters, error count,
/// reload count, connection-engine gauges, the end-to-end latency
/// histogram, and the per-stage span plane.
pub struct Metrics {
    start: Instant,
    /// `POST /identify` requests served.
    pub identify: AtomicU64,
    /// `POST /identify_batch` requests served.
    pub identify_batch: AtomicU64,
    /// Total URLs scored through `/identify_batch`.
    pub batch_urls: AtomicU64,
    /// `GET /healthz` requests served.
    pub healthz: AtomicU64,
    /// `GET /metrics` requests served.
    pub metrics: AtomicU64,
    /// Successful `POST /admin/reload` swaps.
    pub reloads: AtomicU64,
    /// Requests answered with a 4xx/5xx status.
    pub errors: AtomicU64,
    /// One entry per reactor, registered at spawn. Written only at
    /// spawn time; read (briefly, shared) at exposition time — the
    /// request hot path goes through each reactor's own `Arc`, never
    /// through this lock.
    reactors: RwLock<Vec<Arc<ReactorStats>>>,
    /// Reactors whose thread died on a panic (gauge; nonzero means the
    /// server is draining toward a nonzero exit).
    pub reactors_failed: AtomicU64,
    /// Per-reactor admission budget (connections served per event-loop
    /// pass), recorded at spawn (0 = unlimited). Exposed so the load
    /// generator can size overload scenarios against the real admission
    /// threshold.
    pub max_inflight: AtomicU64,
    /// End-to-end latency in nanoseconds (parsed request → response
    /// handed to the socket) of `/identify` and `/identify_batch` —
    /// protocol-level `400`/`413` rejects included, so overload
    /// percentiles are honest.
    pub latency: AtomicHistogram,
    /// Slow-request log decisions (threshold-gated, rate-limited).
    pub slow: SlowLog,
    /// Per-stage duration histograms (nanoseconds), indexed by [`Stage`].
    stages: [AtomicHistogram; Stage::ALL.len()],
    /// Striped span rings behind `GET /admin/trace`.
    trace: TraceBuffer,
    /// Span recording on/off (`urlid serve --telemetry off` for A/B
    /// overhead runs; counters and latency are unaffected).
    telemetry_enabled: AtomicBool,
    /// Request-id source (assigned at parse completion, correlates the
    /// span records of one request).
    next_request_id: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh metrics; uptime counts from now; span recording on.
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
            identify: AtomicU64::new(0),
            identify_batch: AtomicU64::new(0),
            batch_urls: AtomicU64::new(0),
            healthz: AtomicU64::new(0),
            metrics: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            reactors: RwLock::new(Vec::new()),
            reactors_failed: AtomicU64::new(0),
            max_inflight: AtomicU64::new(0),
            latency: AtomicHistogram::new(),
            slow: SlowLog::new(),
            stages: std::array::from_fn(|_| AtomicHistogram::new()),
            trace: TraceBuffer::new(TRACE_STRIPES, TRACE_RING_CAPACITY),
            telemetry_enabled: AtomicBool::new(true),
            next_request_id: AtomicU64::new(0),
        }
    }

    /// Register one reactor and return its private stats handle.
    /// Called once per reactor at spawn; a re-`spawn` on the same
    /// state should call [`Metrics::reset_reactors`] first.
    pub fn register_reactor(&self) -> Arc<ReactorStats> {
        let stats = Arc::new(ReactorStats::new());
        self.reactor_registry_mut().push(Arc::clone(&stats));
        stats
    }

    /// Drop all registered reactors (a fresh `spawn` on a reused
    /// `ServerState` starts its gauges from zero).
    pub fn reset_reactors(&self) {
        self.reactor_registry_mut().clear();
    }

    /// A snapshot of every reactor's stats handle (exposition, tests).
    pub fn reactor_stats(&self) -> Vec<Arc<ReactorStats>> {
        self.reactors
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn reactor_registry_mut(&self) -> std::sync::RwLockWriteGuard<'_, Vec<Arc<ReactorStats>>> {
        self.reactors.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of registered reactors.
    pub fn reactor_count(&self) -> usize {
        self.reactors
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    fn sum_reactors(&self, field: impl Fn(&ReactorStats) -> u64) -> u64 {
        self.reactor_stats().iter().map(|r| field(r)).sum()
    }

    /// Connections accepted, summed across reactors.
    pub fn connections_accepted_total(&self) -> u64 {
        self.sum_reactors(|r| r.accepted.load(Ordering::Relaxed))
    }

    /// Connections currently open, summed across reactors.
    pub fn connections_open_total(&self) -> u64 {
        self.sum_reactors(|r| r.open.load(Ordering::Relaxed))
    }

    /// Connections with an in-flight request, summed across reactors.
    pub fn connections_busy_total(&self) -> u64 {
        self.sum_reactors(|r| r.busy.load(Ordering::Relaxed))
    }

    /// Idle-timeout evictions, summed across reactors.
    pub fn connections_timed_out_total(&self) -> u64 {
        self.sum_reactors(|r| r.timed_out.load(Ordering::Relaxed))
    }

    /// Admission-control 503s, summed across reactors.
    pub fn admission_rejects_total(&self) -> u64 {
        self.sum_reactors(|r| r.admission_rejects.load(Ordering::Relaxed))
    }

    /// Seconds since the server started.
    pub fn uptime_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Nanoseconds since the server started (span timestamps and the
    /// slow-log rate limiter share this clock).
    pub fn now_nanos(&self) -> u64 {
        urlid_telemetry::duration_nanos(self.start.elapsed())
    }

    /// A fresh request id (assigned when a request finishes parsing).
    pub fn next_request_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Whether span recording is on.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry_enabled.load(Ordering::Relaxed)
    }

    /// Turn span recording on or off (applied from `ServeConfig` at
    /// spawn).
    pub fn set_telemetry_enabled(&self, enabled: bool) {
        self.telemetry_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Record one end-to-end request latency in nanoseconds (always
    /// on).
    pub fn record_latency(&self, nanos: u64) {
        self.latency.record(nanos);
    }

    /// Record one stage span (nanoseconds): the duration lands in the
    /// stage's histogram and (best-effort, never blocking) in the trace
    /// ring. No-op with telemetry off; allocation-free either way.
    #[inline]
    pub fn record_stage(
        &self,
        stripe: usize,
        request_id: u64,
        stage: Stage,
        start_nanos: u64,
        duration_nanos: u64,
    ) {
        if !self.telemetry_enabled() {
            return;
        }
        self.stages[stage as usize].record(duration_nanos);
        self.trace.record(
            stripe,
            SpanRecord {
                request_id,
                stage,
                start_nanos,
                duration_nanos,
            },
        );
    }

    /// [`Metrics::record_stage`] for a span that just finished: the
    /// start timestamp is derived as now minus the duration.
    #[inline]
    pub fn record_stage_end(
        &self,
        stripe: usize,
        request_id: u64,
        stage: Stage,
        duration_nanos: u64,
    ) {
        if !self.telemetry_enabled() {
            return;
        }
        let start = self.now_nanos().saturating_sub(duration_nanos);
        self.record_stage(stripe, request_id, stage, start, duration_nanos);
    }

    /// [`Metrics::record_stage`], but the duration lands in a
    /// caller-owned histogram (a reactor's private parse/write
    /// histogram) instead of the shared per-stage one; the trace-ring
    /// write is unchanged. Exposition merges the private histograms
    /// back into the stage totals.
    #[inline]
    pub fn record_stage_into(
        &self,
        hist: &AtomicHistogram,
        stripe: usize,
        request_id: u64,
        stage: Stage,
        duration_nanos: u64,
    ) {
        if !self.telemetry_enabled() {
            return;
        }
        hist.record(duration_nanos);
        let start = self.now_nanos().saturating_sub(duration_nanos);
        self.trace.record(
            stripe,
            SpanRecord {
                request_id,
                stage,
                start_nanos: start,
                duration_nanos,
            },
        );
    }

    /// One stage's histogram (exposition, tests).
    pub fn stage_histogram(&self, stage: Stage) -> &AtomicHistogram {
        &self.stages[stage as usize]
    }

    /// One stage's merged snapshot: the shared histogram plus, for the
    /// reactor-thread stages (parse/write), every reactor's private
    /// histogram. This is the exposition view.
    pub fn stage_snapshot(&self, stage: Stage) -> Histogram {
        let mut merged = self.stages[stage as usize].snapshot();
        if matches!(stage, Stage::Parse | Stage::Write) {
            for reactor in self.reactor_stats() {
                let private = match stage {
                    Stage::Parse => &reactor.parse,
                    _ => &reactor.write,
                };
                merged.merge(&private.snapshot());
            }
        }
        merged
    }

    /// All buffered span records, oldest first (behind `GET
    /// /admin/trace`).
    pub fn trace_snapshot(&self) -> Vec<SpanRecord> {
        self.trace.snapshot()
    }

    /// The request-counter section of the `/metrics` response.
    pub fn requests_value(&self) -> Value {
        let mut requests = Value::object();
        requests.insert(
            "identify",
            Value::Uint(self.identify.load(Ordering::Relaxed)),
        );
        requests.insert(
            "identify_batch",
            Value::Uint(self.identify_batch.load(Ordering::Relaxed)),
        );
        requests.insert(
            "batch_urls",
            Value::Uint(self.batch_urls.load(Ordering::Relaxed)),
        );
        requests.insert("healthz", Value::Uint(self.healthz.load(Ordering::Relaxed)));
        requests.insert("metrics", Value::Uint(self.metrics.load(Ordering::Relaxed)));
        requests.insert("errors", Value::Uint(self.errors.load(Ordering::Relaxed)));
        requests
    }

    /// The connection-engine section of the `/metrics` response:
    /// totals summed across reactors, plus a `per_reactor` breakdown
    /// (each entry owned and written by exactly one reactor thread).
    pub fn connections_value(&self) -> Value {
        let reactors = self.reactor_stats();
        let mut open = 0u64;
        let mut busy = 0u64;
        let mut accepted = 0u64;
        let mut timed_out = 0u64;
        let mut per_reactor = Vec::with_capacity(reactors.len());
        for (index, stats) in reactors.iter().enumerate() {
            let r_open = stats.open.load(Ordering::Relaxed);
            let r_busy = stats.busy.load(Ordering::Relaxed);
            let r_accepted = stats.accepted.load(Ordering::Relaxed);
            let r_timed_out = stats.timed_out.load(Ordering::Relaxed);
            open += r_open;
            busy += r_busy;
            accepted += r_accepted;
            timed_out += r_timed_out;
            let mut entry = Value::object();
            entry.insert("reactor", Value::Uint(index as u64));
            entry.insert("open", Value::Uint(r_open));
            entry.insert("idle", Value::Uint(r_open.saturating_sub(r_busy)));
            entry.insert("accepted", Value::Uint(r_accepted));
            entry.insert("timed_out", Value::Uint(r_timed_out));
            entry.insert(
                "admission_rejects",
                Value::Uint(stats.admission_rejects.load(Ordering::Relaxed)),
            );
            per_reactor.push(entry);
        }
        let mut connections = Value::object();
        connections.insert("open", Value::Uint(open));
        connections.insert("idle", Value::Uint(open.saturating_sub(busy)));
        connections.insert("accepted", Value::Uint(accepted));
        connections.insert("timed_out", Value::Uint(timed_out));
        connections.insert("per_reactor", Value::Array(per_reactor));
        connections
    }

    /// The reactor-topology section of the `/metrics` response.
    pub fn reactors_value(&self) -> Value {
        let mut reactors = Value::object();
        reactors.insert("count", Value::Uint(self.reactor_count() as u64));
        reactors.insert(
            "failed",
            Value::Uint(self.reactors_failed.load(Ordering::Relaxed)),
        );
        reactors.insert(
            "max_inflight",
            Value::Uint(self.max_inflight.load(Ordering::Relaxed)),
        );
        reactors.insert(
            "admission_rejects",
            Value::Uint(self.admission_rejects_total()),
        );
        reactors.insert("io_backend", Value::Str(Poller::NAME.to_owned()));
        reactors
    }

    /// The thread-budget section of the `/metrics` response: the
    /// reactors are every thread the server runs, independent of how
    /// many connections are open.
    pub fn threads_value(&self) -> Value {
        let reactor = self.reactor_count() as u64;
        let mut threads = Value::object();
        threads.insert("reactor", Value::Uint(reactor));
        threads.insert("total", Value::Uint(reactor));
        threads
    }

    /// The latency section of the `/metrics` response (same field names
    /// as before the shared-histogram switch, plus `p999_ms`; `le_ms`
    /// bucket bounds are now log-linear instead of powers of two).
    pub fn latency_value(&self) -> Value {
        histogram_value(&self.latency.snapshot())
    }

    /// The per-stage section of the `/metrics` response: one object per
    /// pipeline stage, same shape as the latency section.
    pub fn stages_value(&self) -> Value {
        let mut stages = Value::object();
        for stage in Stage::ALL {
            stages.insert(stage.name(), histogram_value(&self.stage_snapshot(stage)));
        }
        stages
    }
}

/// Nanoseconds per millisecond: the JSON exposition's unit factor.
const NANOS_PER_MS: f64 = 1e6;

/// Render a nanosecond histogram snapshot as the JSON `/metrics` shape:
/// `count`, `p50_ms`/`p90_ms`/`p99_ms`/`p999_ms`, `mean_ms`, and the
/// non-empty buckets as `{"le_ms": .., "count": ..}` (`le_ms` is the
/// bucket's inclusive upper bound in milliseconds). Quantiles are
/// `null` before the first sample.
pub(crate) fn histogram_value(hist: &Histogram) -> Value {
    let mut out = Value::object();
    out.insert("count", Value::Uint(hist.count()));
    let quantile = |q| match hist.quantile(q) {
        Some(nanos) => Value::Float(nanos as f64 / NANOS_PER_MS),
        None => Value::Null,
    };
    out.insert("p50_ms", quantile(0.50));
    out.insert("p90_ms", quantile(0.90));
    out.insert("p99_ms", quantile(0.99));
    out.insert("p999_ms", quantile(0.999));
    out.insert(
        "mean_ms",
        if hist.count() == 0 {
            Value::Null
        } else {
            Value::Float(hist.mean() / NANOS_PER_MS)
        },
    );
    let mut buckets = Vec::new();
    for (_, upper, count) in hist.nonzero_buckets() {
        let mut entry = Value::object();
        entry.insert("le_ms", Value::Float(upper as f64 / NANOS_PER_MS));
        entry.insert("count", Value::Uint(count));
        buckets.push(entry);
    }
    out.insert("histogram", Value::Array(buckets));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_value_keeps_the_documented_shape() {
        let m = Metrics::new();
        assert_eq!(m.latency_value().get("p50_ms"), Some(&Value::Null));
        // 90 fast requests (~7 µs), 10 slow (~1500 µs).
        for _ in 0..90 {
            m.record_latency(7_000);
        }
        for _ in 0..10 {
            m.record_latency(1_500_000);
        }
        let v = m.latency_value();
        assert_eq!(v.get("count"), Some(&Value::Uint(100)));
        let p50 = match v.get("p50_ms") {
            Some(Value::Float(ms)) => *ms,
            other => panic!("p50_ms: {other:?}"),
        };
        assert!(p50 <= 0.008, "p50 {p50}");
        let p99 = match v.get("p99_ms") {
            Some(Value::Float(ms)) => *ms,
            other => panic!("p99_ms: {other:?}"),
        };
        assert!((1.0..=1.6).contains(&p99), "p99 {p99}");
        assert!(v.get("p999_ms").is_some());
        match v.get("histogram") {
            Some(Value::Array(buckets)) => assert_eq!(buckets.len(), 2),
            other => panic!("histogram: {other:?}"),
        }
    }

    #[test]
    fn stage_spans_land_in_histogram_and_trace() {
        let m = Metrics::new();
        let id = m.next_request_id();
        m.record_stage(0, id, Stage::Parse, 10, 3);
        m.record_stage(1, id, Stage::Score, 20, 45);
        assert_eq!(m.stage_histogram(Stage::Parse).count(), 1);
        assert_eq!(m.stage_histogram(Stage::Score).count(), 1);
        assert_eq!(m.stage_histogram(Stage::Extract).count(), 0);
        let spans = m.trace_snapshot();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.request_id == id));
        let stages = m.stages_value();
        let parse = stages.get("parse").expect("parse stage");
        assert_eq!(parse.get("count"), Some(&Value::Uint(1)));
        assert_eq!(
            stages.get("extract").and_then(|s| s.get("count")),
            Some(&Value::Uint(0))
        );
        assert!(stages.get("queue").is_none(), "no queue stage");
    }

    #[test]
    fn sub_microsecond_stages_keep_their_nanoseconds() {
        let m = Metrics::new();
        m.record_stage(0, m.next_request_id(), Stage::Write, 0, 300);
        let stages = m.stages_value();
        let write = stages.get("write").expect("write stage");
        assert_eq!(write.get("mean_ms"), Some(&Value::Float(0.0003)));
        let Some(Value::Float(p50)) = write.get("p50_ms") else {
            panic!("p50_ms must be a number");
        };
        assert!((0.0003..=0.0003 * 1.03125).contains(p50), "p50 {p50}");
    }

    #[test]
    fn telemetry_toggle_stops_span_recording_only() {
        let m = Metrics::new();
        m.set_telemetry_enabled(false);
        m.record_stage(0, 1, Stage::Extract, 0, 9);
        m.record_latency(100);
        assert_eq!(m.stage_histogram(Stage::Extract).count(), 0);
        assert!(m.trace_snapshot().is_empty());
        assert_eq!(m.latency.count(), 1, "latency histogram stays on");
    }

    #[test]
    fn connection_gauges_sum_across_reactors() {
        let m = Metrics::new();
        let a = m.register_reactor();
        let b = m.register_reactor();
        a.accepted.fetch_add(10, Ordering::Relaxed);
        a.open.fetch_add(4, Ordering::Relaxed);
        a.busy.fetch_add(1, Ordering::Relaxed);
        a.timed_out.fetch_add(3, Ordering::Relaxed);
        b.accepted.fetch_add(6, Ordering::Relaxed);
        b.open.fetch_add(3, Ordering::Relaxed);
        b.busy.fetch_add(1, Ordering::Relaxed);
        b.admission_rejects.fetch_add(2, Ordering::Relaxed);
        let v = m.connections_value();
        assert_eq!(v.get("open"), Some(&Value::Uint(7)));
        assert_eq!(v.get("idle"), Some(&Value::Uint(5)));
        assert_eq!(v.get("accepted"), Some(&Value::Uint(16)));
        assert_eq!(v.get("timed_out"), Some(&Value::Uint(3)));
        let Some(Value::Array(per_reactor)) = v.get("per_reactor") else {
            panic!("per_reactor must be an array");
        };
        assert_eq!(per_reactor.len(), 2);
        assert_eq!(per_reactor[0].get("reactor"), Some(&Value::Uint(0)));
        assert_eq!(per_reactor[0].get("accepted"), Some(&Value::Uint(10)));
        assert_eq!(per_reactor[1].get("idle"), Some(&Value::Uint(2)));
        assert_eq!(
            per_reactor[1].get("admission_rejects"),
            Some(&Value::Uint(2))
        );
        assert_eq!(m.connections_accepted_total(), 16);
        assert_eq!(m.admission_rejects_total(), 2);

        let t = m.threads_value();
        assert_eq!(t.get("reactor"), Some(&Value::Uint(2)));
        assert_eq!(t.get("total"), Some(&Value::Uint(2)));
        assert!(t.get("scoring").is_none(), "no scoring pool");

        let r = m.reactors_value();
        assert_eq!(r.get("count"), Some(&Value::Uint(2)));
        assert_eq!(r.get("failed"), Some(&Value::Uint(0)));
        assert_eq!(r.get("admission_rejects"), Some(&Value::Uint(2)));

        m.reset_reactors();
        assert_eq!(m.reactor_count(), 0);
        assert_eq!(m.connections_open_total(), 0);
    }

    #[test]
    fn reactor_stage_histograms_merge_into_stage_snapshots() {
        let m = Metrics::new();
        let a = m.register_reactor();
        let b = m.register_reactor();
        let id = m.next_request_id();
        // Worker-side stage through the shared path, reactor-side
        // parse/write through each reactor's private histogram.
        m.record_stage(1, id, Stage::Score, 0, 40);
        m.record_stage_into(&a.parse, 0, id, Stage::Parse, 5);
        m.record_stage_into(&b.parse, 1, id, Stage::Parse, 7);
        m.record_stage_into(&a.write, 0, id, Stage::Write, 3);
        assert_eq!(m.stage_snapshot(Stage::Parse).count(), 2);
        assert_eq!(m.stage_snapshot(Stage::Write).count(), 1);
        assert_eq!(m.stage_snapshot(Stage::Score).count(), 1);
        // The shared per-stage histogram saw none of the private ones.
        assert_eq!(m.stage_histogram(Stage::Parse).count(), 0);
        // All four spans landed in the trace ring with the same id.
        let spans = m.trace_snapshot();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.request_id == id));
        // Telemetry off silences the private path too.
        m.set_telemetry_enabled(false);
        m.record_stage_into(&a.parse, 0, id, Stage::Parse, 9);
        assert_eq!(m.stage_snapshot(Stage::Parse).count(), 2);
    }

    #[test]
    fn metrics_values_have_the_documented_shape() {
        let m = Metrics::new();
        m.identify.fetch_add(3, Ordering::Relaxed);
        m.record_latency(100);
        let requests = m.requests_value();
        assert_eq!(requests.get("identify"), Some(&Value::Uint(3)));
        assert_eq!(requests.get("errors"), Some(&Value::Uint(0)));
        let latency = m.latency_value();
        assert_eq!(latency.get("count"), Some(&Value::Uint(1)));
        assert!(latency.get("p50_ms").is_some());
        assert!(m.uptime_secs() >= 0.0);
    }

    #[test]
    fn request_ids_are_unique_and_increasing() {
        let m = Metrics::new();
        let a = m.next_request_id();
        let b = m.next_request_id();
        assert!(b > a && a > 0);
    }
}
