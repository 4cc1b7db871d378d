//! k-nearest-neighbour classifier.
//!
//! Section 3.2: "We also experimented with k-nearest neighbor classifiers.
//! However, we omitted them from these experiments as they gave
//! considerably worse results in preliminary experiments."
//!
//! The implementation is kept so that the repository can reproduce that
//! preliminary finding (see the `ablation` benches): a cosine-similarity
//! k-NN over URL feature vectors, with majority voting.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::model::VectorClassifier;
use serde::Serialize;
use urlid_features::SparseVector;

/// Configuration for the k-NN classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct KnnConfig {
    /// Number of neighbours to consult.
    pub k: usize,
}

impl Default for KnnConfig {
    fn default() -> Self {
        Self { k: 5 }
    }
}

/// A (lazy) k-nearest-neighbour binary classifier: training just stores
/// the normalised examples.
#[derive(Debug, Clone, Serialize)]
pub struct KNearestNeighbors {
    /// Stored training examples: (L2-normalised dense-ish sparse vector, label).
    examples: Vec<(SparseVector, bool)>,
    config: KnnConfig,
}

impl KNearestNeighbors {
    /// "Train" by storing the examples.
    pub fn train(
        positives: &[SparseVector],
        negatives: &[SparseVector],
        config: KnnConfig,
    ) -> Self {
        assert!(config.k >= 1, "k must be at least 1");
        assert!(
            !positives.is_empty() && !negatives.is_empty(),
            "k-NN needs at least one example of each class"
        );
        let mut examples = Vec::with_capacity(positives.len() + negatives.len());
        for v in positives {
            examples.push((v.clone(), true));
        }
        for v in negatives {
            examples.push((v.clone(), false));
        }
        Self { examples, config }
    }

    /// Cosine similarity between two sparse vectors.
    fn cosine(a: &SparseVector, b: &SparseVector) -> f64 {
        let norm_a: f64 = a.iter().map(|(_, v)| v * v).sum::<f64>().sqrt();
        let norm_b: f64 = b.iter().map(|(_, v)| v * v).sum::<f64>().sqrt();
        if norm_a == 0.0 || norm_b == 0.0 {
            return 0.0;
        }
        // Merge-join over the sorted index lists.
        let mut dot = 0.0;
        let mut ai = a.iter().peekable();
        let mut bi = b.iter().peekable();
        while let (Some(&(ia, va)), Some(&(ib, vb))) = (ai.peek(), bi.peek()) {
            match ia.cmp(&ib) {
                std::cmp::Ordering::Less => {
                    ai.next();
                }
                std::cmp::Ordering::Greater => {
                    bi.next();
                }
                std::cmp::Ordering::Equal => {
                    dot += va * vb;
                    ai.next();
                    bi.next();
                }
            }
        }
        dot / (norm_a * norm_b)
    }

    /// Number of stored training examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Is the training set empty? (Never true for a constructed model.)
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }
}

impl VectorClassifier for KNearestNeighbors {
    fn score(&self, features: &SparseVector) -> f64 {
        if features.is_empty() {
            // A URL with no in-vocabulary features carries no information.
            return -1.0;
        }
        let mut sims: Vec<(f64, bool)> = self
            .examples
            .iter()
            .map(|(v, label)| (Self::cosine(features, v), *label))
            .collect();
        sims.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let k = self.config.k.min(sims.len());
        if k == 0 {
            return -1.0;
        }
        let pos_votes = sims[..k].iter().filter(|(_, l)| *l).count() as f64;
        // Majority vote mapped to [-1, 1]; ties are negative (conservative).
        2.0 * pos_votes / k as f64 - 1.0 - f64::EPSILON
    }
}

impl KNearestNeighbors {
    /// Append the stored examples to the `.urlm` `MODELS` codec stream
    /// (see [`crate::codec`]). Each sparse vector is written as its
    /// sorted `(index, value)` pairs, bit-exactly.
    pub fn write_binary(&self, w: &mut ByteWriter) {
        w.write_usize(self.config.k);
        w.write_usize(self.examples.len());
        for (vector, label) in &self.examples {
            w.write_bool(*label);
            w.write_usize(vector.nnz());
            for (index, value) in vector.iter() {
                w.write_u32(index);
                w.write_f64(value);
            }
        }
    }

    /// Decode a model previously written by
    /// [`KNearestNeighbors::write_binary`].
    pub fn read_binary(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let k = r.read_usize("knn.k")?;
        if k == 0 {
            return Err(CodecError::Invalid { what: "knn.k" });
        }
        let n = r.read_len("knn.examples")?;
        let mut examples = Vec::with_capacity(n);
        for _ in 0..n {
            let label = r.read_bool("knn.label")?;
            let nnz = r.read_len("knn.nnz")?;
            let mut pairs = Vec::with_capacity(nnz);
            for _ in 0..nnz {
                pairs.push((r.read_u32("knn.index")?, r.read_f64("knn.value")?));
            }
            // `from_pairs` re-sorts and merges; for bytes we wrote
            // ourselves this is the identity, and for hostile bytes it
            // restores the sorted-unique invariant instead of trusting
            // the file.
            examples.push((SparseVector::from_pairs(pairs), label));
        }
        Ok(Self {
            examples,
            config: KnnConfig { k },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(indices: &[u32]) -> SparseVector {
        SparseVector::from_counts(indices.iter().copied())
    }

    fn toy_training() -> (Vec<SparseVector>, Vec<SparseVector>) {
        let positives = vec![vec_of(&[0, 1]), vec_of(&[0, 2]), vec_of(&[1, 2])];
        let negatives = vec![vec_of(&[3, 4]), vec_of(&[4, 5]), vec_of(&[3, 5])];
        (positives, negatives)
    }

    #[test]
    fn classifies_by_nearest_neighbours() {
        let (pos, neg) = toy_training();
        let knn = KNearestNeighbors::train(&pos, &neg, KnnConfig { k: 3 });
        assert!(knn.classify(&vec_of(&[0, 1, 2])));
        assert!(!knn.classify(&vec_of(&[3, 4, 5])));
        assert_eq!(knn.len(), 6);
        assert!(!knn.is_empty());
    }

    #[test]
    fn k_equal_one_copies_the_closest_label() {
        let (pos, neg) = toy_training();
        let knn = KNearestNeighbors::train(&pos, &neg, KnnConfig { k: 1 });
        assert!(knn.classify(&vec_of(&[0, 1])));
        assert!(!knn.classify(&vec_of(&[4, 5])));
    }

    #[test]
    fn zero_vector_is_rejected() {
        let (pos, neg) = toy_training();
        let knn = KNearestNeighbors::train(&pos, &neg, KnnConfig::default());
        assert!(!knn.classify(&SparseVector::new()));
    }

    #[test]
    fn cosine_is_scale_invariant() {
        let a = SparseVector::from_pairs(vec![(0, 1.0), (1, 2.0)]);
        let b = SparseVector::from_pairs(vec![(0, 10.0), (1, 20.0)]);
        assert!((KNearestNeighbors::cosine(&a, &b) - 1.0).abs() < 1e-12);
        let c = SparseVector::from_pairs(vec![(2, 1.0)]);
        assert_eq!(KNearestNeighbors::cosine(&a, &c), 0.0);
    }

    #[test]
    fn ties_are_resolved_negatively() {
        let pos = vec![vec_of(&[0])];
        let neg = vec![vec_of(&[1])];
        let knn = KNearestNeighbors::train(&pos, &neg, KnnConfig { k: 2 });
        // The query is equidistant; with one vote each, the tie is negative.
        assert!(!knn.classify(&vec_of(&[0, 1])));
    }

    #[test]
    #[should_panic]
    fn k_zero_panics() {
        let (pos, neg) = toy_training();
        let _ = KNearestNeighbors::train(&pos, &neg, KnnConfig { k: 0 });
    }

    #[test]
    fn serde_round_trip() {
        let (pos, neg) = toy_training();
        let knn = KNearestNeighbors::train(&pos, &neg, KnnConfig::default());
        let back = crate::codec::round_trip(
            &knn,
            KNearestNeighbors::write_binary,
            KNearestNeighbors::read_binary,
        );
        let x = vec_of(&[0, 1]);
        assert_eq!(knn.score(&x).to_bits(), back.score(&x).to_bits());
        assert_eq!(knn.classify(&x), back.classify(&x));
    }
}
