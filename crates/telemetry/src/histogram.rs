//! Log-linear histograms with bounded relative error.
//!
//! Values (typically nanosecond or microsecond durations) are bucketed into
//! power-of-two ranges, each subdivided into [`SUB_BUCKETS`] linear
//! sub-buckets (HdrHistogram-style). Values below [`SUB_BUCKETS`] get
//! exact unit-width buckets. The reported quantile for any recorded
//! value `v` is at most `v / 32` (3.125%) above the true value, exact
//! for `v < 32`.
//!
//! Two variants share the bucket math:
//! - [`Histogram`]: plain, mergeable — for single-threaded collection
//!   (loadgen workers, trainer shards, bench loops) and for snapshots.
//! - [`AtomicHistogram`]: relaxed-atomic recording for concurrent hot
//!   paths (the serve metrics plane); `snapshot()` yields a plain
//!   [`Histogram`] for quantile queries and merging.

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the number of linear sub-buckets per power-of-two range.
pub const SUB_BITS: u32 = 5;
/// Number of linear sub-buckets per power-of-two range (32).
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Largest power-of-two exponent covered before clamping (2^40 ≈ 12.7
/// days in microseconds, ≈ 18 minutes in the nanoseconds the server
/// records — far beyond any request or stage duration).
const MAX_EXP: u32 = 39;
/// Total bucket count: 32 exact unit buckets + 35 ranges × 32 sub-buckets.
pub const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize + 1) * SUB_BUCKETS as usize;

/// Bucket index for a value. Total order: `v1 <= v2` implies
/// `bucket_index(v1) <= bucket_index(v2)`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    if msb > MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = (value >> (msb - SUB_BITS)) & (SUB_BUCKETS - 1);
    ((msb - SUB_BITS + 1) as usize) * SUB_BUCKETS as usize + sub as usize
}

/// Inclusive lower bound of a bucket.
#[inline]
pub fn bucket_lower(index: usize) -> u64 {
    if index < SUB_BUCKETS as usize {
        return index as u64;
    }
    let m = index as u64 / SUB_BUCKETS + (SUB_BITS as u64 - 1);
    let sub = index as u64 % SUB_BUCKETS;
    (1u64 << m) + (sub << (m - SUB_BITS as u64))
}

/// Exclusive upper bound of a bucket.
#[inline]
pub fn bucket_upper(index: usize) -> u64 {
    if index < SUB_BUCKETS as usize {
        return index as u64 + 1;
    }
    let m = index as u64 / SUB_BUCKETS + (SUB_BITS as u64 - 1);
    bucket_lower(index) + (1u64 << (m - SUB_BITS as u64))
}

/// A mergeable log-linear histogram of `u64` values.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record a value `n` times.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`).
    ///
    /// Returns the smallest bucket upper bound covering the ceil-rank
    /// value, clamped to the observed maximum: at most `true / 32`
    /// above the true quantile (exact below 32). Monotone in `q`.
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some((bucket_upper(i) - 1).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Merge another histogram into this one. Exact (integer adds):
    /// associative and commutative.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Iterate non-empty buckets as `(lower, upper_exclusive, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lower(i), bucket_upper(i), c))
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.max == other.max
            && (self.count == 0 || self.min == other.min)
            && self.buckets == other.buckets
    }
}

/// A log-linear histogram recordable from many threads with relaxed
/// atomics. Reads go through [`AtomicHistogram::snapshot`]; the
/// snapshot is not a single atomic cut (counts may tear by a few
/// in-flight records), which is fine for monitoring.
pub struct AtomicHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty atomic histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value (wait-free, relaxed ordering, no allocation).
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copy the current state into a plain [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        Histogram {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_contiguous_and_ordered() {
        // Every bucket's upper bound is the next bucket's lower bound.
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_upper(i), bucket_lower(i + 1), "gap at bucket {i}");
        }
        // Small values are exact.
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
            assert_eq!(bucket_upper(v as usize), v + 1);
        }
    }

    #[test]
    fn huge_values_clamp_to_last_bucket() {
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index(1 << 40), BUCKETS - 1);
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(0.50).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        // Within the 3.125% bound of the true quantiles (500, 990).
        assert!((500..=516).contains(&p50), "p50={p50}");
        assert!((990..=1021).contains(&p99), "p99={p99}");
        assert_eq!(h.quantile(1.0).unwrap(), 1000);
    }

    #[test]
    fn empty_histogram_behaviour() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn atomic_snapshot_matches_plain() {
        let a = AtomicHistogram::new();
        let mut p = Histogram::new();
        for v in [0u64, 1, 31, 32, 33, 1000, 123_456, 1 << 41] {
            a.record(v);
            p.record(v);
        }
        assert_eq!(a.snapshot(), p);
    }
}
