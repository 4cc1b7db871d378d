//! The cost ledger: server stage means over a measurement window, and
//! how much of the server's request latency the named layers explain.
//!
//! The server's latency histogram runs from the reactor's dispatch to
//! the response write, so it covers the queue, cache, extract, score
//! and write stages but not parse, which happens before dispatch.
//! Whatever the covered stages do not explain is *unattributed*.
//!
//! The server records the latency and every stage in whole
//! microseconds, truncated, so each record reads low by its fractional
//! part: about 0.5 µs on average, and the whole of a sub-µs stage.
//! `unattributed` therefore reads high by about 0.5 µs per stage record
//! beyond the first (see [`truncation_bias_us`]).

/// A histogram's count and exact mean (microseconds) as `/metrics`
/// reports them at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistPoint {
    /// Samples recorded so far.
    pub count: u64,
    /// Mean of those samples, microseconds (0 when empty).
    pub mean_us: f64,
}

impl HistPoint {
    /// Sum of all samples so far, microseconds.
    pub fn total_us(&self) -> f64 {
        self.count as f64 * self.mean_us
    }
}

/// Samples and their total recorded between two snapshots.
pub fn window(before: HistPoint, after: HistPoint) -> (u64, f64) {
    (
        after.count.saturating_sub(before.count),
        after.total_us() - before.total_us(),
    )
}

/// Server stage costs over a window, each the stage's total divided by
/// the requests served in the window (so a stage that runs on only some
/// requests, like extract on cache misses, is weighted by how often it
/// runs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StagesPerRequest {
    /// Mean dispatch-to-write latency, µs.
    pub latency: f64,
    /// Parse stage, µs (before dispatch: not part of `latency`).
    pub parse: f64,
    /// Reactor-to-pool hand-off, µs.
    pub queue: f64,
    /// Result-cache probe, µs.
    pub cache: f64,
    /// Feature extraction, µs.
    pub extract: f64,
    /// Scoring, µs.
    pub score: f64,
    /// Response write, µs.
    pub write: f64,
}

impl StagesPerRequest {
    /// Stages inside the latency window, summed.
    pub fn attributed(&self) -> f64 {
        self.queue + self.cache + self.extract + self.score + self.write
    }

    /// Latency no stage accounts for, µs.
    pub fn unattributed(&self) -> f64 {
        self.latency - self.attributed()
    }

    /// [`StagesPerRequest::unattributed`] as a share of the latency.
    pub fn unattributed_frac(&self) -> f64 {
        if self.latency > 0.0 {
            self.unattributed() / self.latency
        } else {
            0.0
        }
    }
}

/// How far [`StagesPerRequest::unattributed`] reads high, µs, when each
/// request records `stage_records` stages inside its latency window, all
/// truncated to whole µs like the latency itself: the latency loses
/// about 0.5 µs and the stages about 0.5 µs each.
pub fn truncation_bias_us(stage_records: f64) -> f64 {
    0.5 * (stage_records - 1.0).max(0.0)
}

/// In-process cost of each layer per call, nanoseconds, measured at the
/// workload's request shape. Per-URL layers are per URL.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCosts {
    /// JSON decode of one request body.
    pub decode: f64,
    /// `normalize_url`, per URL.
    pub normalize: f64,
    /// Cache probe, per URL.
    pub probe: f64,
    /// Cache insert that evicts, per URL.
    pub insert: f64,
    /// Feature extraction, per URL.
    pub extract: f64,
    /// Scoring on top of extraction, per URL.
    pub score: f64,
    /// JSON encode of one response value.
    pub encode: f64,
    /// Response framing.
    pub response: f64,
}

/// The in-process layers one single-URL request passes inside the
/// server's latency window, µs: decode, normalise and probe, then on a
/// miss extract + score and insert, then encode and frame. `hit_ratio`
/// weights the miss-only layers.
pub fn inprocess_us(costs: &LayerCosts, hit_ratio: f64) -> f64 {
    let miss = (1.0 - hit_ratio).clamp(0.0, 1.0);
    let scoring = costs.extract + costs.score + costs.insert;
    (costs.decode + costs.normalize + costs.probe + miss * scoring + costs.encode + costs.response)
        / 1000.0
}

/// Server latency the in-process layers do not explain, µs: the
/// reactor, the pool hand-off and the I/O engine, which only sockets
/// reach.
pub fn residual_us(latency_mean_us: f64, inprocess_us: f64) -> f64 {
    latency_mean_us - inprocess_us
}
