//! Sparse feature vectors.
//!
//! URLs are short (a handful of tokens, a few dozen trigrams), while the
//! word/trigram feature spaces learnt from hundreds of thousands of
//! training URLs have hundreds of thousands of dimensions. All extractors
//! therefore produce [`SparseVector`]s: sorted `(index, value)` pairs.
//!
//! The classifiers need only a few operations on these vectors: iteration,
//! dot products with dense weight vectors, L1 normalisation (the Relative
//! Entropy classifier converts each vector into a probability
//! distribution) and accumulation into dense per-class statistics.

use serde::Serialize;

/// A sparse vector of non-negative feature values, stored as sorted
/// `(index, value)` pairs with unique indices.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SparseVector {
    entries: Vec<(u32, f64)>,
}

impl SparseVector {
    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from arbitrary (possibly repeated, unsorted) index/value
    /// pairs; repeated indices are summed, zero values dropped.
    pub fn from_pairs<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (u32, f64)>,
    {
        let mut entries: Vec<(u32, f64)> = pairs.into_iter().collect();
        entries.sort_unstable_by_key(|(i, _)| *i);
        let mut merged: Vec<(u32, f64)> = Vec::with_capacity(entries.len());
        for (i, v) in entries {
            match merged.last_mut() {
                Some((last_i, last_v)) if *last_i == i => *last_v += v,
                _ => merged.push((i, v)),
            }
        }
        merged.retain(|(_, v)| *v != 0.0);
        Self { entries: merged }
    }

    /// Build by counting occurrences of indices.
    pub fn from_counts<I>(indices: I) -> Self
    where
        I: IntoIterator<Item = u32>,
    {
        Self::from_pairs(indices.into_iter().map(|i| (i, 1.0)))
    }

    /// Build by counting the indices in a caller-owned buffer, sorting it
    /// in place. Produces exactly the same vector as
    /// [`SparseVector::from_counts`] on the same indices, but lets the hot
    /// path reuse one buffer across URLs instead of collecting a fresh
    /// iterator chain.
    pub fn from_index_buffer(indices: &mut [u32]) -> Self {
        indices.sort_unstable();
        let mut entries: Vec<(u32, f64)> = Vec::with_capacity(indices.len());
        for &i in indices.iter() {
            match entries.last_mut() {
                Some((last, count)) if *last == i => *count += 1.0,
                _ => entries.push((i, 1.0)),
            }
        }
        Self { entries }
    }

    /// Rebuild this vector in place by counting the indices in a
    /// caller-owned buffer, sorting it in place. Produces exactly the
    /// same vector as [`SparseVector::from_index_buffer`] on the same
    /// indices, but reuses this vector's entry storage — the steady
    /// state of a warm scoring loop allocates nothing here.
    pub fn refill_from_index_buffer(&mut self, indices: &mut [u32]) {
        indices.sort_unstable();
        self.entries.clear();
        for &i in indices.iter() {
            match self.entries.last_mut() {
                Some((last, count)) if *last == i => *count += 1.0,
                _ => self.entries.push((i, 1.0)),
            }
        }
    }

    /// Rebuild this vector in place from a dense slice, keeping the
    /// non-zero values. Produces exactly the vector
    /// `from_pairs(dense.enumerate().filter(non-zero))` produces, but
    /// reuses this vector's entry storage.
    pub fn refill_from_dense(&mut self, dense: &[f64]) {
        self.entries.clear();
        for (i, &v) in dense.iter().enumerate() {
            if v != 0.0 {
                self.entries.push((i as u32, v));
            }
        }
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Is the vector all-zero?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over `(index, value)` pairs in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// The value at `index` (0.0 if absent).
    pub fn get(&self, index: u32) -> f64 {
        match self.entries.binary_search_by_key(&index, |(i, _)| *i) {
            Ok(pos) => self.entries[pos].1,
            Err(_) => 0.0,
        }
    }

    /// Sum of all values (the L1 norm, since values are non-negative).
    pub fn l1_norm(&self) -> f64 {
        self.entries.iter().map(|(_, v)| v.abs()).sum()
    }

    /// Sum of all values.
    pub fn sum(&self) -> f64 {
        self.entries.iter().map(|(_, v)| v).sum()
    }

    /// Largest index present plus one (0 for the empty vector). The true
    /// dimensionality is owned by the extractor; this is a lower bound.
    pub fn min_dim(&self) -> usize {
        self.entries
            .last()
            .map(|(i, _)| *i as usize + 1)
            .unwrap_or(0)
    }

    /// Return a copy normalised to unit L1 norm (a probability
    /// distribution over feature indices). The empty vector stays empty.
    pub fn l1_normalized(&self) -> Self {
        let norm = self.l1_norm();
        if norm == 0.0 {
            return self.clone();
        }
        Self {
            entries: self.entries.iter().map(|(i, v)| (*i, v / norm)).collect(),
        }
    }

    /// Dot product with a dense weight vector (indices beyond the dense
    /// vector's length contribute 0).
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        self.entries
            .iter()
            .filter_map(|(i, v)| dense.get(*i as usize).map(|w| w * v))
            .sum()
    }

    /// Accumulate `scale * self` into a dense vector, growing it if needed.
    pub fn add_to_dense(&self, dense: &mut Vec<f64>, scale: f64) {
        if let Some((max_i, _)) = self.entries.last() {
            if dense.len() <= *max_i as usize {
                dense.resize(*max_i as usize + 1, 0.0);
            }
        }
        for (i, v) in &self.entries {
            dense[*i as usize] += scale * v;
        }
    }

    /// Convert to a dense vector of the given dimensionality. Entries with
    /// index ≥ `dim` are dropped.
    pub fn to_dense(&self, dim: usize) -> Vec<f64> {
        let mut out = vec![0.0; dim];
        for (i, v) in &self.entries {
            if (*i as usize) < dim {
                out[*i as usize] = *v;
            }
        }
        out
    }

    /// Element-wise addition of two sparse vectors.
    pub fn add(&self, other: &SparseVector) -> SparseVector {
        SparseVector::from_pairs(self.iter().chain(other.iter()))
    }
}

impl FromIterator<(u32, f64)> for SparseVector {
    fn from_iter<T: IntoIterator<Item = (u32, f64)>>(iter: T) -> Self {
        Self::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_merges_and_sorts() {
        let v = SparseVector::from_pairs(vec![(5, 1.0), (2, 2.0), (5, 3.0), (7, 0.0)]);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.get(5), 4.0);
        assert_eq!(v.get(2), 2.0);
        assert_eq!(v.get(7), 0.0);
        assert_eq!(v.get(100), 0.0);
        let indices: Vec<u32> = v.iter().map(|(i, _)| i).collect();
        assert_eq!(indices, vec![2, 5]);
    }

    #[test]
    fn from_counts_counts_occurrences() {
        let v = SparseVector::from_counts(vec![1, 3, 1, 1, 2]);
        assert_eq!(v.get(1), 3.0);
        assert_eq!(v.get(2), 1.0);
        assert_eq!(v.get(3), 1.0);
        assert_eq!(v.sum(), 5.0);
    }

    #[test]
    fn l1_normalization_produces_distribution() {
        let v = SparseVector::from_pairs(vec![(0, 1.0), (1, 3.0)]);
        let n = v.l1_normalized();
        assert!((n.l1_norm() - 1.0).abs() < 1e-12);
        assert!((n.get(1) - 0.75).abs() < 1e-12);
        // Empty vector stays empty without panicking.
        assert!(SparseVector::new().l1_normalized().is_empty());
    }

    #[test]
    fn dot_dense_ignores_out_of_range() {
        let v = SparseVector::from_pairs(vec![(0, 2.0), (3, 1.0), (10, 5.0)]);
        let dense = vec![1.0, 1.0, 1.0, 4.0];
        assert_eq!(v.dot_dense(&dense), 2.0 + 4.0);
    }

    #[test]
    fn add_to_dense_grows_vector() {
        let v = SparseVector::from_pairs(vec![(2, 1.0), (5, 2.0)]);
        let mut dense = vec![1.0, 1.0];
        v.add_to_dense(&mut dense, 2.0);
        assert_eq!(dense, vec![1.0, 1.0, 2.0, 0.0, 0.0, 4.0]);
    }

    #[test]
    fn to_dense_and_min_dim() {
        let v = SparseVector::from_pairs(vec![(1, 1.0), (4, 2.0)]);
        assert_eq!(v.min_dim(), 5);
        assert_eq!(v.to_dense(6), vec![0.0, 1.0, 0.0, 0.0, 2.0, 0.0]);
        assert_eq!(v.to_dense(3), vec![0.0, 1.0, 0.0]);
        assert_eq!(SparseVector::new().min_dim(), 0);
    }

    #[test]
    fn add_is_elementwise() {
        let a = SparseVector::from_pairs(vec![(0, 1.0), (2, 1.0)]);
        let b = SparseVector::from_pairs(vec![(2, 2.0), (3, 4.0)]);
        let c = a.add(&b);
        assert_eq!(c.get(0), 1.0);
        assert_eq!(c.get(2), 3.0);
        assert_eq!(c.get(3), 4.0);
        assert_eq!(c.nnz(), 3);
    }

    #[test]
    fn refill_matches_from_index_buffer_and_reuses_storage() {
        let mut v = SparseVector::new();
        for raw in [
            vec![],
            vec![7u32],
            vec![3, 1, 3, 3, 2],
            vec![9, 9, 9, 9],
            vec![0, 1],
        ] {
            let mut a = raw.clone();
            let mut b = raw.clone();
            v.refill_from_index_buffer(&mut a);
            assert_eq!(v, SparseVector::from_index_buffer(&mut b), "{raw:?}");
        }
        // After the first non-trivial refill the storage is warm: a
        // same-size refill must not grow capacity.
        let capacity = v.entries.capacity();
        v.refill_from_index_buffer(&mut [4, 4, 1]);
        assert_eq!(v.entries.capacity(), capacity);
        assert_eq!(v.get(4), 2.0);
    }

    #[test]
    fn refill_from_dense_matches_from_pairs() {
        let mut v = SparseVector::from_counts(vec![5, 5, 6]);
        for dense in [
            vec![],
            vec![0.0, 0.0],
            vec![1.0, 0.0, 2.5, 0.0, 3.0],
            vec![0.0, 7.0],
        ] {
            v.refill_from_dense(&dense);
            let pairs = dense.iter().enumerate().map(|(i, &x)| (i as u32, x));
            assert_eq!(v, SparseVector::from_pairs(pairs), "{dense:?}");
        }
    }
}
