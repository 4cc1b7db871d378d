//! Multinomial Naive Bayes.
//!
//! Section 3.2: "This simple algorithm assumes conditional statistical
//! independence of the individual features given the language. It then
//! applies the maximum likelihood principle to find the language which is
//! most likely to generate the observed feature vector."
//!
//! With word or trigram counts this is the classical multinomial Naive
//! Bayes text classifier: for each class *c* ∈ {positive, negative} a
//! per-feature probability `p(j | c)` is estimated from summed counts with
//! Laplace (add-α) smoothing, and a URL with feature counts `x` is scored
//! by
//!
//! ```text
//! score(x) = log P(+) − log P(−) + Σ_j x_j · (log p(j|+) − log p(j|−))
//! ```
//!
//! Positive scores mean "language X". Because the paper trains with
//! balanced positive/negative sets, the prior term is usually zero, but it
//! is kept for correctness when the sets are not balanced.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::compile::{CompileScorer, Lowering};
use crate::model::VectorClassifier;
use crate::stats::{PartialCounts, StatsTrainer};
use serde::Serialize;
use urlid_features::SparseVector;

/// Configuration for Naive Bayes training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NaiveBayesConfig {
    /// Laplace smoothing strength α (default 1.0).
    pub alpha: f64,
    /// Dimensionality of the feature space. Needed for smoothing; pass
    /// the extractor's `dim()`.
    pub dim: usize,
}

impl NaiveBayesConfig {
    /// Default configuration for a feature space of the given size.
    pub fn for_dim(dim: usize) -> Self {
        Self { alpha: 1.0, dim }
    }
}

/// A trained multinomial Naive Bayes binary classifier.
#[derive(Debug, Clone, Serialize)]
pub struct NaiveBayes {
    /// log p(j | +) − log p(j | −), indexed by feature.
    log_ratio: Vec<f64>,
    /// log P(+) − log P(−).
    log_prior_ratio: f64,
    /// log-ratio applied to unseen features (from smoothing only).
    default_log_ratio: f64,
    config: NaiveBayesConfig,
}

impl NaiveBayes {
    /// Train from positive and negative example feature vectors.
    ///
    /// Equivalent to folding every example into a [`PartialCounts`] and
    /// calling [`StatsTrainer::from_stats`] — which is exactly what the
    /// sharded training pipeline does, one accumulator per shard.
    ///
    /// # Panics
    /// Panics if both classes are empty or `config.dim == 0` while any
    /// vector is non-empty.
    pub fn train(
        positives: &[SparseVector],
        negatives: &[SparseVector],
        config: NaiveBayesConfig,
    ) -> Self {
        let mut stats = PartialCounts::new();
        for v in positives {
            stats.observe(v, true);
        }
        for v in negatives {
            stats.observe(v, false);
        }
        Self::from_stats(stats, config)
    }

    /// The learnt per-feature log-likelihood ratios.
    pub fn log_ratios(&self) -> &[f64] {
        &self.log_ratio
    }

    /// The configuration used for training.
    pub fn config(&self) -> NaiveBayesConfig {
        self.config
    }
}

impl StatsTrainer for NaiveBayes {
    type Stats = PartialCounts;
    type Config = NaiveBayesConfig;

    fn observe(stats: &mut PartialCounts, features: &SparseVector, positive: bool) {
        stats.observe(features, positive);
    }

    fn merge(stats: &mut PartialCounts, other: PartialCounts) {
        stats.merge(other);
    }

    /// Build the model from fully reduced counts.
    ///
    /// # Panics
    /// Panics if the statistics observed no examples at all.
    fn from_stats(stats: PartialCounts, config: NaiveBayesConfig) -> Self {
        assert!(
            stats.n_pos() + stats.n_neg() > 0,
            "cannot train Naive Bayes on an empty training set"
        );
        let dim = config.dim.max(stats.min_dim());
        let alpha = config.alpha;

        let (n_pos_raw, n_neg_raw) = (stats.n_pos(), stats.n_neg());
        let (mut pos_counts, mut neg_counts) = stats.into_counts();
        pos_counts.resize(dim, 0.0);
        neg_counts.resize(dim, 0.0);

        let pos_total: f64 = pos_counts.iter().sum::<f64>() + alpha * dim as f64;
        let neg_total: f64 = neg_counts.iter().sum::<f64>() + alpha * dim as f64;

        let log_ratio: Vec<f64> = (0..dim)
            .map(|j| {
                let p_pos = (pos_counts[j] + alpha) / pos_total;
                let p_neg = (neg_counts[j] + alpha) / neg_total;
                p_pos.ln() - p_neg.ln()
            })
            .collect();
        // A feature never seen in training at all gets the pure-smoothing
        // ratio alpha/pos_total vs alpha/neg_total.
        let default_log_ratio = (alpha / pos_total).ln() - (alpha / neg_total).ln();

        let n_pos = n_pos_raw.max(1) as f64;
        let n_neg = n_neg_raw.max(1) as f64;
        let log_prior_ratio = (n_pos / (n_pos + n_neg)).ln() - (n_neg / (n_pos + n_neg)).ln();

        Self {
            log_ratio,
            log_prior_ratio,
            default_log_ratio,
            config: NaiveBayesConfig { alpha, dim },
        }
    }
}

impl VectorClassifier for NaiveBayes {
    fn score(&self, features: &SparseVector) -> f64 {
        let mut score = self.log_prior_ratio;
        for (j, x) in features.iter() {
            let r = self
                .log_ratio
                .get(j as usize)
                .copied()
                .unwrap_or(self.default_log_ratio);
            score += x * r;
        }
        score
    }

    fn as_compile(&self) -> Option<&dyn CompileScorer> {
        Some(self)
    }
}

impl CompileScorer for NaiveBayes {
    /// NB is already a linear model: the lane is the per-feature
    /// log-likelihood ratio, padded with the pure-smoothing default so
    /// the fused pass applies exactly the interpreted `unwrap_or`.
    fn lower(&self, dim: usize) -> Lowering {
        let mut weights = self.log_ratio.clone();
        if weights.len() < dim {
            weights.resize(dim, self.default_log_ratio);
        }
        Lowering::NaiveBayes {
            weights,
            bias: self.log_prior_ratio,
            default: self.default_log_ratio,
        }
    }
}

impl NaiveBayes {
    /// Append the trained model to the `.urlm` `MODELS` codec stream
    /// (see [`crate::codec`]). Floats are written bit-exactly.
    pub fn write_binary(&self, w: &mut ByteWriter) {
        w.write_f64(self.config.alpha);
        w.write_usize(self.config.dim);
        w.write_f64(self.log_prior_ratio);
        w.write_f64(self.default_log_ratio);
        w.write_f64_slice(&self.log_ratio);
    }

    /// Decode a model previously written by
    /// [`NaiveBayes::write_binary`].
    pub fn read_binary(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            config: NaiveBayesConfig {
                alpha: r.read_f64("nb.alpha")?,
                dim: r.read_usize("nb.dim")?,
            },
            log_prior_ratio: r.read_f64("nb.log_prior_ratio")?,
            default_log_ratio: r.read_f64("nb.default_log_ratio")?,
            log_ratio: r.read_f64_vec("nb.log_ratio")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(indices: &[u32]) -> SparseVector {
        SparseVector::from_counts(indices.iter().copied())
    }

    /// Tiny synthetic task: features 0..3 are "German" tokens, 4..7 are
    /// "English" tokens.
    fn toy_training() -> (Vec<SparseVector>, Vec<SparseVector>) {
        let positives = vec![
            vec_of(&[0, 1]),
            vec_of(&[0, 2]),
            vec_of(&[1, 2, 3]),
            vec_of(&[0, 3]),
        ];
        let negatives = vec![
            vec_of(&[4, 5]),
            vec_of(&[5, 6]),
            vec_of(&[4, 6, 7]),
            vec_of(&[5, 7]),
        ];
        (positives, negatives)
    }

    #[test]
    fn separable_data_is_classified_correctly() {
        let (pos, neg) = toy_training();
        let nb = NaiveBayes::train(&pos, &neg, NaiveBayesConfig::for_dim(8));
        assert!(nb.classify(&vec_of(&[0, 1, 2])));
        assert!(!nb.classify(&vec_of(&[4, 5, 6])));
        assert!(nb.score(&vec_of(&[0])) > 0.0);
        assert!(nb.score(&vec_of(&[7])) < 0.0);
    }

    #[test]
    fn repeated_tokens_strengthen_the_score() {
        let (pos, neg) = toy_training();
        let nb = NaiveBayes::train(&pos, &neg, NaiveBayesConfig::for_dim(8));
        let once = nb.score(&SparseVector::from_pairs(vec![(0, 1.0)]));
        let thrice = nb.score(&SparseVector::from_pairs(vec![(0, 3.0)]));
        assert!(thrice > once);
    }

    #[test]
    fn unseen_and_empty_vectors_fall_back_to_prior() {
        let (pos, neg) = toy_training();
        let nb = NaiveBayes::train(&pos, &neg, NaiveBayesConfig::for_dim(8));
        // Balanced training: prior ratio ~ 0, and the empty vector scores 0.
        assert!(nb.score(&SparseVector::new()).abs() < 1e-9);
        // A feature index outside the training dimension uses the default
        // ratio (finite, not NaN).
        let s = nb.score(&vec_of(&[100]));
        assert!(s.is_finite());
    }

    #[test]
    fn unbalanced_priors_shift_the_decision() {
        let pos = vec![vec_of(&[0]); 9];
        let neg = vec![vec_of(&[1]); 1];
        let nb = NaiveBayes::train(&pos, &neg, NaiveBayesConfig::for_dim(2));
        // Prior strongly favours positive.
        assert!(nb.score(&SparseVector::new()) > 0.0);
    }

    #[test]
    fn mixed_evidence_weighs_counts() {
        let (pos, neg) = toy_training();
        let nb = NaiveBayes::train(&pos, &neg, NaiveBayesConfig::for_dim(8));
        // Two German features vs one English feature -> German.
        assert!(nb.classify(&vec_of(&[0, 1, 4])));
        // One German vs two English -> not German.
        assert!(!nb.classify(&vec_of(&[0, 4, 5])));
    }

    #[test]
    fn smoothing_strength_affects_confidence_not_sign() {
        let (pos, neg) = toy_training();
        let sharp = NaiveBayes::train(&pos, &neg, NaiveBayesConfig { alpha: 0.1, dim: 8 });
        let smooth = NaiveBayes::train(
            &pos,
            &neg,
            NaiveBayesConfig {
                alpha: 10.0,
                dim: 8,
            },
        );
        let x = vec_of(&[0, 1]);
        assert!(sharp.score(&x) > smooth.score(&x));
        assert!(sharp.classify(&x) && smooth.classify(&x));
    }

    #[test]
    #[should_panic]
    fn empty_training_panics() {
        let _ = NaiveBayes::train(&[], &[], NaiveBayesConfig::for_dim(4));
    }

    #[test]
    fn serde_round_trip() {
        let (pos, neg) = toy_training();
        let nb = NaiveBayes::train(&pos, &neg, NaiveBayesConfig::for_dim(8));
        let back = crate::codec::round_trip(&nb, NaiveBayes::write_binary, NaiveBayes::read_binary);
        let x = vec_of(&[0, 5]);
        assert_eq!(nb.score(&x).to_bits(), back.score(&x).to_bits());
    }
}
