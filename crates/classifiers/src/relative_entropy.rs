//! Relative Entropy (KL divergence) classifier.
//!
//! Section 3.2: "This algorithm first learns a probability distribution
//! for each of the possible languages in the training set, by simply
//! computing the average distribution for each language. Every feature
//! vector from the test set is converted into a probability distribution.
//! It is assigned to the class with the lowest relative entropy between
//! the trained average distribution and the test feature vector
//! distribution. All of our feature sets give non-negative feature vectors
//! and so we simply normalized these to unit L1 norm."
//!
//! We compute, for the test distribution `p` and each class distribution
//! `q_c`, the KL divergence `D(p ‖ q_c) = Σ_j p_j log(p_j / q_c_j)` with a
//! small ε-smoothing of `q_c` so that unseen features do not produce an
//! infinite divergence, and score the URL by `D(p ‖ q_neg) − D(p ‖ q_pos)`
//! (positive ⇔ the positive class is closer).
//!
//! The paper notes RE achieves the highest precision of all learning
//! algorithms, which makes it the preferred "helper" in the
//! recall-boosting combinations of Section 3.3.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::compile::{CompileScorer, Lowering};
use crate::model::VectorClassifier;
use crate::stats::{PartialDistributions, StatsTrainer};
use serde::Serialize;
use urlid_features::SparseVector;

/// Configuration for the Relative Entropy classifier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RelativeEntropyConfig {
    /// Smoothing mass given to unseen features in the class distributions.
    pub epsilon: f64,
    /// Dimensionality of the feature space (the extractor's `dim()`).
    pub dim: usize,
}

impl RelativeEntropyConfig {
    /// Default configuration for a feature space of the given size.
    pub fn for_dim(dim: usize) -> Self {
        Self { epsilon: 1e-6, dim }
    }
}

/// A trained Relative Entropy binary classifier.
#[derive(Debug, Clone, Serialize)]
pub struct RelativeEntropy {
    /// Smoothed average distribution of the positive class.
    pos: Vec<f64>,
    /// Smoothed average distribution of the negative class.
    neg: Vec<f64>,
    /// Probability assigned to features outside the training dimension.
    default_pos: f64,
    default_neg: f64,
    config: RelativeEntropyConfig,
}

impl RelativeEntropy {
    /// Train from positive and negative example feature vectors.
    ///
    /// Equivalent to folding every example into a
    /// [`PartialDistributions`] and calling [`StatsTrainer::from_stats`]
    /// — which is exactly what the sharded training pipeline does, one
    /// accumulator per shard.
    pub fn train(
        positives: &[SparseVector],
        negatives: &[SparseVector],
        config: RelativeEntropyConfig,
    ) -> Self {
        let mut stats = PartialDistributions::new();
        for v in positives {
            stats.observe(v, true);
        }
        for v in negatives {
            stats.observe(v, false);
        }
        Self::from_stats(stats, config)
    }

    /// Turn one class's accumulated normalised-vector sum into the
    /// smoothed average distribution: divide by the (non-empty) example
    /// count, ε-smooth so every coordinate is strictly positive, and
    /// renormalise to sum 1.
    fn finish_distribution(mut acc: Vec<f64>, n: f64, dim: usize, epsilon: f64) -> Vec<f64> {
        acc.resize(dim.max(acc.len()), 0.0);
        if n > 0.0 {
            for a in &mut acc {
                *a /= n;
            }
        }
        let total: f64 = acc.iter().sum::<f64>() + epsilon * acc.len() as f64;
        if total > 0.0 {
            for a in &mut acc {
                *a = (*a + epsilon) / total;
            }
        }
        acc
    }

    /// KL divergence D(p ‖ q) where `p` is the normalised test vector and
    /// `q` is a stored class distribution.
    fn kl_to(&self, p: &SparseVector, q: &[f64], default_q: f64) -> f64 {
        let mut d = 0.0;
        for (j, pj) in p.iter() {
            if pj <= 0.0 {
                continue;
            }
            let qj = q
                .get(j as usize)
                .copied()
                .unwrap_or(default_q)
                .max(f64::MIN_POSITIVE);
            d += pj * (pj / qj).ln();
        }
        d
    }

    /// KL divergence of a (raw, unnormalised) feature vector to the
    /// positive class distribution.
    pub fn divergence_to_positive(&self, features: &SparseVector) -> f64 {
        self.kl_to(&features.l1_normalized(), &self.pos, self.default_pos)
    }

    /// KL divergence of a feature vector to the negative class distribution.
    pub fn divergence_to_negative(&self, features: &SparseVector) -> f64 {
        self.kl_to(&features.l1_normalized(), &self.neg, self.default_neg)
    }
}

impl StatsTrainer for RelativeEntropy {
    type Stats = PartialDistributions;
    type Config = RelativeEntropyConfig;

    fn observe(stats: &mut PartialDistributions, features: &SparseVector, positive: bool) {
        stats.observe(features, positive);
    }

    fn merge(stats: &mut PartialDistributions, other: PartialDistributions) {
        stats.merge(other);
    }

    /// Build the model from fully reduced statistics.
    ///
    /// # Panics
    /// Panics if either class observed no examples.
    fn from_stats(stats: PartialDistributions, config: RelativeEntropyConfig) -> Self {
        assert!(
            stats.raw_count(true) > 0 && stats.raw_count(false) > 0,
            "Relative Entropy needs at least one example of each class"
        );
        let dim = config.dim.max(stats.min_dim());
        let ((pos_sum, pos_n), (neg_sum, neg_n)) = stats.into_sums();
        let pos = Self::finish_distribution(pos_sum, pos_n, dim, config.epsilon);
        let neg = Self::finish_distribution(neg_sum, neg_n, dim, config.epsilon);
        let default_pos = config.epsilon / (1.0 + config.epsilon * dim.max(1) as f64);
        let default_neg = default_pos;
        Self {
            pos,
            neg,
            default_pos,
            default_neg,
            config: RelativeEntropyConfig { dim, ..config },
        }
    }
}

impl VectorClassifier for RelativeEntropy {
    fn score(&self, features: &SparseVector) -> f64 {
        if features.is_empty() {
            // An empty URL gives no information; stay on the negative side
            // (the conservative, high-precision behaviour of RE).
            return -f64::MIN_POSITIVE;
        }
        self.divergence_to_negative(features) - self.divergence_to_positive(features)
    }

    fn as_compile(&self) -> Option<&dyn CompileScorer> {
        Some(self)
    }
}

impl CompileScorer for RelativeEntropy {
    /// The two class distributions are already dense; lowering clamps
    /// every coordinate to `f64::MIN_POSITIVE` at compile time — the
    /// exact clamp `kl_to` applies per lookup — so the fused pass reads
    /// a plain lane value.
    fn lower(&self, dim: usize) -> Lowering {
        let default_pos = self.default_pos.max(f64::MIN_POSITIVE);
        let default_neg = self.default_neg.max(f64::MIN_POSITIVE);
        let clamp = |q: &[f64], default: f64| -> Vec<f64> {
            let mut out: Vec<f64> = q.iter().map(|v| v.max(f64::MIN_POSITIVE)).collect();
            if out.len() < dim {
                out.resize(dim, default);
            }
            out
        };
        Lowering::RelativeEntropy {
            q_pos: clamp(&self.pos, default_pos),
            q_neg: clamp(&self.neg, default_neg),
            default_pos,
            default_neg,
        }
    }
}

impl RelativeEntropy {
    /// Append the trained model to the `.urlm` `MODELS` codec stream
    /// (see [`crate::codec`]). Floats are written bit-exactly.
    pub fn write_binary(&self, w: &mut ByteWriter) {
        w.write_f64(self.config.epsilon);
        w.write_usize(self.config.dim);
        w.write_f64(self.default_pos);
        w.write_f64(self.default_neg);
        w.write_f64_slice(&self.pos);
        w.write_f64_slice(&self.neg);
    }

    /// Decode a model previously written by
    /// [`RelativeEntropy::write_binary`].
    pub fn read_binary(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            config: RelativeEntropyConfig {
                epsilon: r.read_f64("re.epsilon")?,
                dim: r.read_usize("re.dim")?,
            },
            default_pos: r.read_f64("re.default_pos")?,
            default_neg: r.read_f64("re.default_neg")?,
            pos: r.read_f64_vec("re.pos")?,
            neg: r.read_f64_vec("re.neg")?,
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
        let positives = vec![
            vec_of(&[0, 1]),
            vec_of(&[0, 2]),
            vec_of(&[1, 2]),
            vec_of(&[0, 1, 2]),
        ];
        let negatives = vec![
            vec_of(&[3, 4]),
            vec_of(&[4, 5]),
            vec_of(&[3, 5]),
            vec_of(&[3, 4, 5]),
        ];
        (positives, negatives)
    }

    #[test]
    fn separable_data_is_classified_correctly() {
        let (pos, neg) = toy_training();
        let re = RelativeEntropy::train(&pos, &neg, RelativeEntropyConfig::for_dim(6));
        assert!(re.classify(&vec_of(&[0, 1])));
        assert!(!re.classify(&vec_of(&[3, 4])));
    }

    #[test]
    fn divergence_is_lower_for_matching_class() {
        let (pos, neg) = toy_training();
        let re = RelativeEntropy::train(&pos, &neg, RelativeEntropyConfig::for_dim(6));
        let x = vec_of(&[0, 1, 2]);
        assert!(re.divergence_to_positive(&x) < re.divergence_to_negative(&x));
        assert!(re.divergence_to_positive(&x) >= 0.0);
    }

    #[test]
    fn divergence_to_own_average_is_near_zero() {
        // If the test vector is exactly the class average support with the
        // same proportions, KL should be small.
        let pos = vec![vec_of(&[0]), vec_of(&[1])];
        let neg = vec![vec_of(&[2]), vec_of(&[3])];
        let re = RelativeEntropy::train(&pos, &neg, RelativeEntropyConfig::for_dim(4));
        let x = vec_of(&[0, 1]); // distribution (0.5, 0.5) = class average
        assert!(re.divergence_to_positive(&x) < 0.01);
        assert!(re.divergence_to_negative(&x) > 1.0);
    }

    #[test]
    fn empty_vector_is_rejected() {
        let (pos, neg) = toy_training();
        let re = RelativeEntropy::train(&pos, &neg, RelativeEntropyConfig::for_dim(6));
        assert!(!re.classify(&SparseVector::new()));
    }

    #[test]
    fn unseen_features_do_not_produce_infinite_divergence() {
        let (pos, neg) = toy_training();
        let re = RelativeEntropy::train(&pos, &neg, RelativeEntropyConfig::for_dim(6));
        let x = vec_of(&[100, 200]);
        assert!(re.divergence_to_positive(&x).is_finite());
        assert!(re.score(&x).is_finite());
    }

    #[test]
    fn mixed_vectors_lean_towards_the_dominant_class() {
        let (pos, neg) = toy_training();
        let re = RelativeEntropy::train(&pos, &neg, RelativeEntropyConfig::for_dim(6));
        assert!(re.classify(&vec_of(&[0, 1, 3])));
        assert!(!re.classify(&vec_of(&[0, 3, 4])));
    }

    #[test]
    #[should_panic]
    fn one_sided_training_panics() {
        let _ = RelativeEntropy::train(&[vec_of(&[0])], &[], RelativeEntropyConfig::for_dim(2));
    }

    #[test]
    fn serde_round_trip() {
        let (pos, neg) = toy_training();
        let re = RelativeEntropy::train(&pos, &neg, RelativeEntropyConfig::for_dim(6));
        let back = crate::codec::round_trip(
            &re,
            RelativeEntropy::write_binary,
            RelativeEntropy::read_binary,
        );
        let x = vec_of(&[0, 5]);
        assert_eq!(re.score(&x).to_bits(), back.score(&x).to_bits());
    }
}
