//! Stage spans and fixed-size trace rings.
//!
//! The serve hot path records one [`SpanRecord`] per pipeline stage
//! per request into a striped, fixed-capacity [`TraceBuffer`]. Rings
//! are pre-allocated: pushing a record is a copy into a slot (no
//! allocation), and writers use `try_lock` so a contended stripe drops
//! the trace record rather than blocking the hot path (the per-stage
//! histograms are still updated — only the forensic ring entry is
//! lost).

use std::sync::Mutex;

/// A pipeline stage on the request path (plus trainer-side stages
/// share the same histogram type but not this enum).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// HTTP request parsing (incremental parser CPU).
    Parse = 0,
    /// Result-cache probe (hit or miss).
    Cache = 1,
    /// Feature extraction into the sparse vector (cache miss only).
    Extract = 2,
    /// Compiled-plane scoring over the extracted vector (cache miss only).
    Score = 3,
    /// Response serialization and socket flush.
    Write = 4,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Parse,
        Stage::Cache,
        Stage::Extract,
        Stage::Score,
        Stage::Write,
    ];

    /// Stable lowercase name (used as the Prometheus `stage` label and
    /// the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Cache => "cache",
            Stage::Extract => "extract",
            Stage::Score => "score",
            Stage::Write => "write",
        }
    }
}

/// One timed stage of one request.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// Request id assigned at parse completion; correlates the stages
    /// of one request across rings.
    pub request_id: u64,
    /// Which stage this span timed.
    pub stage: Stage,
    /// Stage start, nanoseconds since server start.
    pub start_nanos: u64,
    /// Stage duration in nanoseconds.
    pub duration_nanos: u64,
}

/// Fixed-capacity overwrite-oldest ring of span records.
pub struct SpanRing {
    slots: Vec<SpanRecord>,
    cap: usize,
    head: usize,
    len: usize,
}

impl SpanRing {
    /// A ring holding up to `capacity` records.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        SpanRing {
            slots: Vec::with_capacity(cap),
            cap,
            head: 0,
            len: 0,
        }
    }

    /// Append, overwriting the oldest record when full.
    pub fn push(&mut self, record: SpanRecord) {
        if self.slots.len() < self.cap {
            self.slots.push(record);
            self.len += 1;
        } else {
            self.slots[self.head] = record;
        }
        self.head = (self.head + 1) % self.cap;
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no records have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copy out all records, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        if self.len < self.cap {
            self.slots.clone()
        } else {
            let mut out = Vec::with_capacity(self.len);
            out.extend_from_slice(&self.slots[self.head..]);
            out.extend_from_slice(&self.slots[..self.head]);
            out
        }
    }
}

/// Striped span rings: each recorder (a reactor thread) passes a
/// stable stripe hint so steady-state recording is uncontended.
pub struct TraceBuffer {
    stripes: Vec<Mutex<SpanRing>>,
}

impl TraceBuffer {
    /// `stripes` rings of `capacity_per_stripe` records each.
    pub fn new(stripes: usize, capacity_per_stripe: usize) -> Self {
        TraceBuffer {
            stripes: (0..stripes.max(1))
                .map(|_| Mutex::new(SpanRing::new(capacity_per_stripe)))
                .collect(),
        }
    }

    /// Record a span into the hinted stripe. Returns `false` (record
    /// dropped) when the stripe is contended or poisoned — the caller
    /// never blocks.
    #[inline]
    pub fn record(&self, stripe_hint: usize, record: SpanRecord) -> bool {
        match self.stripes[stripe_hint % self.stripes.len()].try_lock() {
            Ok(mut ring) => {
                ring.push(record);
                true
            }
            Err(_) => false,
        }
    }

    /// Collect all stripes' records, ordered by start time (ties by
    /// request id then stage order) — for `GET /admin/trace`.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            if let Ok(ring) = stripe.lock() {
                out.extend(ring.snapshot());
            }
        }
        out.sort_by_key(|r| (r.start_nanos, r.request_id, r.stage as usize));
        out
    }

    /// Total capacity across stripes.
    pub fn capacity(&self) -> usize {
        self.stripes.len()
            * self
                .stripes
                .first()
                .map(|s| s.lock().map(|r| r.cap).unwrap_or(0))
                .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, stage: Stage, start: u64) -> SpanRecord {
        SpanRecord {
            request_id: id,
            stage,
            start_nanos: start,
            duration_nanos: 7,
        }
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut ring = SpanRing::new(3);
        assert!(ring.is_empty());
        for i in 0..5 {
            ring.push(rec(i, Stage::Parse, i * 10));
        }
        let snap = ring.snapshot();
        assert_eq!(ring.len(), 3);
        assert_eq!(
            snap.iter().map(|r| r.request_id).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn trace_buffer_merges_and_sorts() {
        let buf = TraceBuffer::new(2, 4);
        assert!(buf.record(0, rec(2, Stage::Score, 20)));
        assert!(buf.record(1, rec(1, Stage::Parse, 5)));
        assert!(buf.record(0, rec(1, Stage::Cache, 6)));
        let snap = buf.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].request_id, 1);
        assert_eq!(snap[0].stage, Stage::Parse);
        assert_eq!(snap[2].request_id, 2);
        assert_eq!(buf.capacity(), 8);
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["parse", "cache", "extract", "score", "write"]);
    }
}
