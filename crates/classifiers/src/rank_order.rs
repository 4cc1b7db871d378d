//! Cavnar–Trenkle rank-order classifier.
//!
//! Section 2 of the paper: "Cavnar and Trenkle \[2\] use the aforementioned
//! rank-order statistic, which compares the different frequency ranks."
//! The paper's authors compared Markov models, rank-order statistics and
//! relative entropy in preliminary experiments and kept relative entropy
//! because it performed best; this module implements the rank-order
//! classifier so that the `ablations` experiment can reproduce that
//! preliminary comparison.
//!
//! The classical scheme: build, per class, the list of the `k` most
//! frequent features ("the language profile"), ordered by frequency. A
//! test document is turned into the same kind of ranked profile and scored
//! by the sum of rank displacements ("out-of-place" measure); features
//! missing from the class profile incur the maximum penalty. The document
//! is assigned to the class with the smaller total displacement.

use crate::model::VectorClassifier;
use serde::Serialize;
use std::collections::HashMap;
use urlid_features::SparseVector;

/// Configuration for the rank-order classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RankOrderConfig {
    /// Number of top features kept in each class profile (Cavnar–Trenkle
    /// classically use 300 n-grams).
    pub profile_size: usize,
}

impl Default for RankOrderConfig {
    fn default() -> Self {
        Self { profile_size: 300 }
    }
}

/// A class profile: feature index → rank (0 = most frequent).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
struct Profile {
    ranks: HashMap<u32, usize>,
}

impl Profile {
    /// Build the profile of the `k` most frequent features of a class.
    fn build(examples: &[SparseVector], k: usize) -> Self {
        let mut totals: HashMap<u32, f64> = HashMap::new();
        for v in examples {
            for (i, x) in v.iter() {
                *totals.entry(i).or_insert(0.0) += x;
            }
        }
        let mut sorted: Vec<(u32, f64)> = totals.into_iter().collect();
        // Sort by descending frequency, ties by index for determinism.
        // `total_cmp` instead of `partial_cmp(..).unwrap()`: a NaN total
        // (possible if a pathological extractor emits NaN) must not
        // panic the sort.
        sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let ranks = sorted
            .into_iter()
            .take(k)
            .enumerate()
            .map(|(rank, (feature, _))| (feature, rank))
            .collect();
        Self { ranks }
    }

    fn len(&self) -> usize {
        self.ranks.len()
    }

    /// The out-of-place distance of a test profile to this class profile.
    fn out_of_place(&self, test_ranked: &[(u32, usize)], max_penalty: usize) -> f64 {
        test_ranked
            .iter()
            .map(|(feature, test_rank)| match self.ranks.get(feature) {
                Some(class_rank) => class_rank.abs_diff(*test_rank) as f64,
                None => max_penalty as f64,
            })
            .sum()
    }
}

/// A trained rank-order binary classifier.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RankOrder {
    positive: Profile,
    negative: Profile,
    config: RankOrderConfig,
}

impl RankOrder {
    /// Train from positive and negative example feature vectors.
    pub fn train(
        positives: &[SparseVector],
        negatives: &[SparseVector],
        config: RankOrderConfig,
    ) -> Self {
        assert!(config.profile_size >= 1, "profile size must be at least 1");
        assert!(
            !positives.is_empty() && !negatives.is_empty(),
            "rank-order needs at least one example of each class"
        );
        Self {
            positive: Profile::build(positives, config.profile_size),
            negative: Profile::build(negatives, config.profile_size),
            config,
        }
    }

    /// Number of profile entries actually stored (positive, negative).
    pub fn profile_sizes(&self) -> (usize, usize) {
        (self.positive.len(), self.negative.len())
    }

    /// Rank the features of a test vector by descending value.
    fn rank_test(features: &SparseVector) -> Vec<(u32, usize)> {
        let mut entries: Vec<(u32, f64)> = features.iter().collect();
        entries.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        entries
            .into_iter()
            .enumerate()
            .map(|(rank, (feature, _))| (feature, rank))
            .collect()
    }
}

impl VectorClassifier for RankOrder {
    fn score(&self, features: &SparseVector) -> f64 {
        if features.is_empty() {
            return -1.0;
        }
        let ranked = Self::rank_test(features);
        let max_penalty = self.config.profile_size;
        let d_pos = self.positive.out_of_place(&ranked, max_penalty);
        let d_neg = self.negative.out_of_place(&ranked, max_penalty);
        // Smaller distance to the positive profile means "yes"; normalise
        // by the number of test features so scores are comparable across
        // URLs of different lengths.
        (d_neg - d_pos) / ranked.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().copied())
    }

    fn toy_training() -> (Vec<SparseVector>, Vec<SparseVector>) {
        // Positive class: features 0..3 frequent, 0 most frequent.
        let positives = vec![
            vec_of(&[(0, 3.0), (1, 2.0), (2, 1.0)]),
            vec_of(&[(0, 2.0), (1, 1.0), (3, 1.0)]),
            vec_of(&[(0, 4.0), (2, 2.0), (3, 1.0)]),
        ];
        // Negative class: features 4..7.
        let negatives = vec![
            vec_of(&[(4, 3.0), (5, 2.0), (6, 1.0)]),
            vec_of(&[(4, 2.0), (5, 1.0), (7, 1.0)]),
            vec_of(&[(4, 4.0), (6, 2.0), (7, 1.0)]),
        ];
        (positives, negatives)
    }

    #[test]
    fn separable_data_is_classified_correctly() {
        let (pos, neg) = toy_training();
        let ro = RankOrder::train(&pos, &neg, RankOrderConfig::default());
        assert!(ro.classify(&vec_of(&[(0, 2.0), (1, 1.0)])));
        assert!(!ro.classify(&vec_of(&[(4, 2.0), (5, 1.0)])));
    }

    #[test]
    fn profile_respects_size_limit() {
        let (pos, neg) = toy_training();
        let ro = RankOrder::train(&pos, &neg, RankOrderConfig { profile_size: 2 });
        let (p, n) = ro.profile_sizes();
        assert_eq!(p, 2);
        assert_eq!(n, 2);
        // Features outside the top-2 profile incur the max penalty but the
        // decision is still correct for clear cases.
        assert!(ro.classify(&vec_of(&[(0, 2.0), (1, 1.0)])));
    }

    #[test]
    fn rank_agreement_matters_not_raw_counts() {
        // Same support, different rank order: the test vector ranking
        // feature 1 above feature 0 is farther from a profile where 0 is
        // the top feature.
        let (pos, neg) = toy_training();
        let ro = RankOrder::train(&pos, &neg, RankOrderConfig::default());
        let aligned = ro.score(&vec_of(&[(0, 5.0), (1, 1.0)]));
        let shuffled = ro.score(&vec_of(&[(0, 1.0), (1, 5.0)]));
        assert!(aligned >= shuffled);
    }

    #[test]
    fn empty_vector_is_rejected() {
        let (pos, neg) = toy_training();
        let ro = RankOrder::train(&pos, &neg, RankOrderConfig::default());
        assert!(!ro.classify(&SparseVector::new()));
    }

    #[test]
    fn unknown_features_push_towards_neither_class() {
        let (pos, neg) = toy_training();
        let ro = RankOrder::train(&pos, &neg, RankOrderConfig::default());
        // A vector of only unseen features gets the max penalty from both
        // profiles -> score 0 -> classified negative (conservative).
        let s = ro.score(&vec_of(&[(100, 1.0), (101, 1.0)]));
        assert!(s.abs() < 1e-9);
        assert!(!ro.classify(&vec_of(&[(100, 1.0)])));
    }

    #[test]
    #[should_panic]
    fn empty_training_panics() {
        let _ = RankOrder::train(&[], &[], RankOrderConfig::default());
    }

    #[test]
    #[should_panic]
    fn zero_profile_size_panics() {
        let (pos, neg) = toy_training();
        let _ = RankOrder::train(&pos, &neg, RankOrderConfig { profile_size: 0 });
    }
}
