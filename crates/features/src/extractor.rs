//! The [`FeatureExtractor`] trait: the fit–transform protocol shared by
//! all three feature families.

use crate::compiled::CompiledTransform;
use crate::dataset::LabeledUrl;
use crate::scratch::ExtractScratch;
use crate::vector::SparseVector;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which of the paper's three feature families an extractor implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureSetKind {
    /// Word (token) features — Section 5.3.
    Words,
    /// Within-token character trigram features — Section 5.4.
    Trigrams,
    /// The 74 (or selected 15) custom-made features — Section 5.5.
    Custom,
}

impl FeatureSetKind {
    /// All three feature families in paper order.
    pub fn all() -> [FeatureSetKind; 3] {
        [
            FeatureSetKind::Words,
            FeatureSetKind::Trigrams,
            FeatureSetKind::Custom,
        ]
    }

    /// Short label used in reports and plots ("WF", "TF", "CF" in Figure 2).
    pub fn short_label(self) -> &'static str {
        match self {
            FeatureSetKind::Words => "WF",
            FeatureSetKind::Trigrams => "TF",
            FeatureSetKind::Custom => "CF",
        }
    }
}

impl fmt::Display for FeatureSetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FeatureSetKind::Words => "word features",
            FeatureSetKind::Trigrams => "trigram features",
            FeatureSetKind::Custom => "custom-made features",
        };
        f.write_str(s)
    }
}

/// A feature extractor that is fitted on labelled training URLs and then
/// maps any URL to a [`SparseVector`].
///
/// * For word/trigram features, fitting builds the vocabulary (and hence
///   fixes the dimensionality of the feature space).
/// * For the custom features, fitting builds the trained dictionaries of
///   Section 3.1; the dimensionality is fixed (74 or 15).
///
/// When a training URL carries page `content`, extractors that support
/// the Section 7 "training on content" setting incorporate the content
/// *during fitting and when transforming training examples*, but
/// [`FeatureExtractor::transform`] (used at test time) only ever sees the
/// URL.
pub trait FeatureExtractor: Send + Sync {
    /// Fit the extractor on labelled training data.
    fn fit(&mut self, training: &[LabeledUrl]);

    /// Map a URL to its feature vector. Must only be called after
    /// [`FeatureExtractor::fit`]; unfitted extractors return empty or
    /// degenerate vectors depending on the implementation.
    fn transform(&self, url: &str) -> SparseVector;

    /// Like [`FeatureExtractor::transform`], but reusing caller-owned
    /// scratch buffers so that the batch-classification hot path performs
    /// zero per-URL `String` allocation during tokenisation. Must return
    /// exactly the same vector as `transform` on the same URL.
    ///
    /// The default implementation ignores the scratch and delegates to
    /// `transform`; the word and trigram extractors override it.
    fn transform_with(&self, url: &str, scratch: &mut ExtractScratch) -> SparseVector {
        let _ = scratch;
        self.transform(url)
    }

    /// Map a *training* example (URL plus optional page content) to its
    /// feature vector. The default implementation ignores content.
    fn transform_training(&self, example: &LabeledUrl) -> SparseVector {
        let _ = &example.content;
        self.transform(&example.url)
    }

    /// Lower this fitted extractor into a [`CompiledTransform`] — the
    /// arena-interned, zero-allocation form the compiled scoring plane
    /// extracts through. Must produce exactly the same vectors as
    /// [`FeatureExtractor::transform_with`] on every URL.
    ///
    /// The default returns `None` (stay interpreted); the word, trigram
    /// and custom extractors override it. Extractors that do not lower —
    /// the raw-URL trigram ablation, instrumented test wrappers — keep
    /// the default so the plane falls back to the trait object for
    /// extraction.
    fn compile_transform(&self) -> Option<CompiledTransform> {
        None
    }

    /// Dimensionality of the feature space after fitting.
    fn dim(&self) -> usize;

    /// Human-readable name of a feature index, if known.
    fn feature_name(&self, index: u32) -> Option<String>;

    /// Which feature family this extractor belongs to.
    fn kind(&self) -> FeatureSetKind;
}

/// Map-reduce fitting: the two-pass parallel alternative to
/// [`FeatureExtractor::fit`].
///
/// Fitting any of the three feature families reduces to counting — token
/// document frequencies for the word/trigram vocabularies, per-language
/// token frequencies for the custom features' trained dictionaries — and
/// counting is embarrassingly parallel: each corpus shard produces a
/// [`ShardedFit::Partial`] independently ([`ShardedFit::observe_shard`],
/// the map), the partials are summed ([`ShardedFit::merge_partials`], the
/// reduce), and the merged counts are frozen into the extractor's
/// vocabulary or dictionary ([`ShardedFit::finish_fit`]).
///
/// Implementations guarantee that for any partition of the training set
/// into contiguous shards,
///
/// ```text
/// finish_fit(reduce(merge_partials, shards.map(observe_shard)))
///     == fit(training)
/// ```
///
/// *bit-identically* — the partials are integer counts and pruning
/// happens only at freeze time, so neither the shard count nor the merge
/// order can change the fitted extractor.
pub trait ShardedFit: FeatureExtractor {
    /// The mergeable partial fitting state produced by one shard.
    type Partial: Send;

    /// Count one shard of training examples (pure; does not mutate the
    /// extractor, so shards can run on scoped threads sharing `&self`).
    fn observe_shard(&self, shard: &[LabeledUrl]) -> Self::Partial;

    /// Combine two partial states (commutative and associative).
    fn merge_partials(&self, acc: Self::Partial, next: Self::Partial) -> Self::Partial;

    /// Freeze the merged state into the fitted extractor. `None` means
    /// the training set was empty (equivalent to fitting on `&[]`).
    fn finish_fit(&mut self, merged: Option<Self::Partial>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_display() {
        assert_eq!(FeatureSetKind::Words.short_label(), "WF");
        assert_eq!(FeatureSetKind::Trigrams.short_label(), "TF");
        assert_eq!(FeatureSetKind::Custom.short_label(), "CF");
        assert_eq!(FeatureSetKind::Words.to_string(), "word features");
        assert_eq!(FeatureSetKind::all().len(), 3);
    }
}
