//! The per-connection closed request loop, over an abstract clock and
//! transport so its accounting can be tested with a virtual clock.
//!
//! One request is outstanding per connection: the next leaves the
//! moment the previous reply has been read, until the deadline. A
//! request's latency runs from its send to its reply, client-side.

use std::time::Instant;

/// A monotonic nanosecond clock.
pub trait Clock {
    /// Nanoseconds since the clock's origin.
    fn now_ns(&self) -> u64;
}

/// What one request/reply exchange produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// URLs answered with status 200 (0 for a failed exchange).
    pub urls: u64,
    /// Transport error, non-200 status or unparseable reply.
    pub failed: bool,
}

/// Sends request number `index` of a connection's plan and waits for
/// the reply.
pub trait Exchange {
    /// Perform one exchange; `None` when the plan has no request
    /// `index` (nothing was sent, and the loop ends).
    fn exchange(&mut self, index: u64) -> Option<Outcome>;
}

/// Everything one connection's loop observed.
#[derive(Debug, Default, Clone)]
pub struct ConnLog {
    /// Per request: reply time minus send time.
    pub latency_ns: Vec<u64>,
    /// Per request: `(reply time, URLs answered)`.
    pub completions: Vec<(u64, u64)>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
}

impl ConnLog {
    /// An empty log with room for `requests` requests, so the loop never
    /// stalls on a growing buffer mid-measurement.
    pub fn with_capacity(requests: usize) -> Self {
        Self {
            latency_ns: Vec::with_capacity(requests),
            completions: Vec::with_capacity(requests),
            attempted: 0,
            failed: 0,
        }
    }

    fn record(&mut self, sent: u64, replied: u64, outcome: Outcome) {
        self.attempted += 1;
        self.failed += u64::from(outcome.failed);
        self.latency_ns.push(replied.saturating_sub(sent));
        self.completions.push((replied, outcome.urls));
    }
}

/// Run one connection's loop until the clock reaches `deadline_ns` or
/// the plan runs out; `expected` requests are allocated for up front.
pub fn drive<C: Clock, E: Exchange>(
    clock: &C,
    exchange: &mut E,
    deadline_ns: u64,
    expected: usize,
) -> ConnLog {
    let mut log = ConnLog::with_capacity(expected);
    let mut index = 0;
    let mut sent = clock.now_ns();
    while sent < deadline_ns {
        let Some(outcome) = exchange.exchange(index) else {
            break;
        };
        let replied = clock.now_ns();
        log.record(sent, replied, outcome);
        index += 1;
        sent = clock.now_ns();
    }
    log
}

/// The wall clock, anchored at construction.
#[derive(Debug, Clone, Copy)]
pub struct MonoClock {
    origin: Instant,
}

impl MonoClock {
    /// A clock whose zero is now.
    pub fn start() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Clock for MonoClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}
