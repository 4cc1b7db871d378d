//! Hand-rolled observability primitives for the urlid stack.
//!
//! No external dependencies (consistent with the workspace's
//! vendored-only policy). Four pieces:
//!
//! - [`histogram`] — mergeable log-linear [`Histogram`] (32 linear
//!   sub-buckets per power-of-two range, ≤ 3.125% relative quantile
//!   error, exact below 32) and its concurrent twin
//!   [`AtomicHistogram`] for hot-path recording.
//! - [`span`] — per-request stage spans ([`Stage`], [`SpanRecord`])
//!   and fixed-size striped trace rings ([`TraceBuffer`]) backing
//!   `GET /admin/trace`.
//! - [`prometheus`] — text exposition (version 0.0.4) writer with
//!   escaping, plus a [`prometheus::lint`] re-parser used as a CI
//!   format gate.
//! - [`slowlog`] — threshold-gated, rate-limited slow-request log
//!   decisions ([`SlowLog`]).
//!
//! Everything on a recording path is allocation-free and wait-free:
//! histogram records are relaxed atomic adds, ring writes are
//! copies into pre-allocated slots behind `try_lock`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod prometheus;
pub mod slowlog;
pub mod span;

pub use histogram::{AtomicHistogram, Histogram};
pub use prometheus::PromWriter;
pub use slowlog::SlowLog;
pub use span::{SpanRecord, SpanRing, Stage, TraceBuffer};

use std::time::Duration;

/// A `Duration` as saturating whole microseconds.
#[inline]
pub fn duration_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// A `Duration` as saturating whole nanoseconds.
#[inline]
pub fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
