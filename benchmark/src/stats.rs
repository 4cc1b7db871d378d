//! Order statistics over raw samples: exact percentiles of merged
//! per-connection latency logs, and medians.

/// Merge per-connection sample logs into one sorted vector. Percentiles
/// of the merge are exactly the percentiles of the concatenated samples.
pub fn merge_sorted(parts: &[Vec<u64>]) -> Vec<u64> {
    let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
    all.sort_unstable();
    all
}

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`):
/// the smallest sample with at least `q` of the samples at or below it.
/// `None` for an empty slice.
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a set of measurements (mean of the middle pair for an
/// even count). `NaN` for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
