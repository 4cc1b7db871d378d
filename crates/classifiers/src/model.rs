//! Core classifier traits and the extractor + model composition.

use crate::compile::CompileScorer;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use urlid_features::{FeatureExtractor, SparseVector};

/// The learning algorithms studied in the paper (plus k-NN, which the
/// paper evaluated in preliminary experiments and dropped).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Naive Bayes (NB).
    NaiveBayes,
    /// Decision Tree (DT) — only used with custom features in the paper.
    DecisionTree,
    /// Relative Entropy (RE).
    RelativeEntropy,
    /// Maximum Entropy (ME).
    MaxEnt,
    /// k-nearest neighbours (dropped by the paper after preliminary tests).
    KNearestNeighbors,
    /// Country-code TLD baseline (ccTLD).
    CcTld,
    /// Country-code TLD baseline with .com/.org counted as English (ccTLD+).
    CcTldPlus,
}

impl Algorithm {
    /// The paper's two-letter abbreviation (NB, DT, RE, ME).
    pub fn abbrev(self) -> &'static str {
        match self {
            Algorithm::NaiveBayes => "NB",
            Algorithm::DecisionTree => "DT",
            Algorithm::RelativeEntropy => "RE",
            Algorithm::MaxEnt => "ME",
            Algorithm::KNearestNeighbors => "kNN",
            Algorithm::CcTld => "ccTLD",
            Algorithm::CcTldPlus => "ccTLD+",
        }
    }

    /// The four machine-learning algorithms of the paper's main grid
    /// (Table 7), in the order they appear there.
    pub fn paper_grid() -> [Algorithm; 4] {
        [
            Algorithm::NaiveBayes,
            Algorithm::RelativeEntropy,
            Algorithm::MaxEnt,
            Algorithm::DecisionTree,
        ]
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// A trained binary classifier over feature vectors: "does this feature
/// vector belong to the positive class (language X)?"
///
/// # Sign convention
/// The score's sign *is* the decision: `classify(v) == (score(v) > 0.0)`.
/// Implementations must not override [`VectorClassifier::classify`] with
/// anything that breaks this — the single-pass scoring pipeline
/// ([`crate::set::LanguageClassifierSet`]) derives decisions from scores,
/// and the classifiers proptests assert the invariant for every
/// algorithm.
pub trait VectorClassifier: Send + Sync {
    /// A real-valued decision score; positive means "yes, language X".
    /// The magnitude is algorithm-specific and only the sign is
    /// interpreted by default.
    fn score(&self, features: &SparseVector) -> f64;

    /// The binary decision (the sign of [`VectorClassifier::score`]).
    fn classify(&self, features: &SparseVector) -> bool {
        self.score(features) > 0.0
    }

    /// The compiled-plane hook: the algorithms that lower into the fused
    /// dense-weight plane (NB, RE, ME; see [`crate::compile`]) return
    /// themselves. The default — decision trees, k-NN, rank-order and
    /// every other model that is not dense per-feature data — keeps the
    /// scorer interpreted inside a compiled set.
    fn as_compile(&self) -> Option<&dyn CompileScorer> {
        None
    }
}

/// A binary classifier that needs *both* the raw URL and the
/// [`crate::set::LanguageClassifierSet`]'s shared pre-extracted vector.
///
/// This is the seam for the Section 5.6 combinations that pair a
/// classifier over a second feature space (scored from the URL) with a
/// word-feature model (scored from the set's shared word vector): the
/// shared extraction is reused instead of re-extracted per language.
///
/// # Sign convention
/// As for [`VectorClassifier`]: the decision is `score_hybrid(..) > 0`.
pub trait HybridClassifier: Send + Sync {
    /// Score from the URL plus the set's shared feature vector.
    fn score_hybrid(&self, url: &str, shared: &SparseVector) -> f64;
}

/// A binary classifier operating directly on URLs.
///
/// Feature-based classifiers are lifted to this trait via
/// [`FeatureUrlClassifier`]; the ccTLD baselines implement it natively.
///
/// # Sign convention
/// As for [`VectorClassifier`]: `classify_url(u) == (score_url(u) > 0.0)`
/// must hold. The default `score_url` (±1 from the decision) satisfies
/// this, as does any implementation deriving the decision from its own
/// score; the classifiers proptests assert it for every shipped
/// implementation, including the pairwise combinations.
pub trait UrlClassifier: Send + Sync {
    /// Does the page behind `url` belong to the classifier's language?
    fn classify_url(&self, url: &str) -> bool;

    /// An optional real-valued score (default: 1.0 / -1.0 from the binary
    /// decision).
    fn score_url(&self, url: &str) -> f64 {
        if self.classify_url(url) {
            1.0
        } else {
            -1.0
        }
    }
}

impl<T: UrlClassifier + ?Sized> UrlClassifier for Arc<T> {
    fn classify_url(&self, url: &str) -> bool {
        (**self).classify_url(url)
    }
    fn score_url(&self, url: &str) -> f64 {
        (**self).score_url(url)
    }
}

impl<T: UrlClassifier + ?Sized> UrlClassifier for Box<T> {
    fn classify_url(&self, url: &str) -> bool {
        (**self).classify_url(url)
    }
    fn score_url(&self, url: &str) -> f64 {
        (**self).score_url(url)
    }
}

/// A feature extractor paired with a trained vector classifier: the unit
/// that actually answers "is this URL in language X?" for the learning
/// algorithms.
pub struct FeatureUrlClassifier<E, M> {
    extractor: Arc<E>,
    model: M,
}

impl<E, M> FeatureUrlClassifier<E, M>
where
    E: FeatureExtractor,
    M: VectorClassifier,
{
    /// Pair a fitted extractor with a trained model. The extractor is
    /// shared via `Arc` because the five per-language classifiers of a
    /// [`crate::set::LanguageClassifierSet`] reuse the same extractor.
    pub fn new(extractor: Arc<E>, model: M) -> Self {
        Self { extractor, model }
    }

    /// The underlying vector-space model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The underlying extractor.
    pub fn extractor(&self) -> &E {
        &self.extractor
    }
}

impl<E, M> UrlClassifier for FeatureUrlClassifier<E, M>
where
    E: FeatureExtractor,
    M: VectorClassifier,
{
    fn classify_url(&self, url: &str) -> bool {
        self.model.classify(&self.extractor.transform(url))
    }

    fn score_url(&self, url: &str) -> f64 {
        self.model.score(&self.extractor.transform(url))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urlid_features::{LabeledUrl, WordFeatureExtractor};
    use urlid_lexicon::Language;

    struct Threshold(f64);
    impl VectorClassifier for Threshold {
        fn score(&self, features: &SparseVector) -> f64 {
            features.sum() - self.0
        }
    }

    #[test]
    fn algorithm_labels() {
        assert_eq!(Algorithm::NaiveBayes.abbrev(), "NB");
        assert_eq!(Algorithm::CcTldPlus.to_string(), "ccTLD+");
        assert_eq!(Algorithm::paper_grid().len(), 4);
    }

    #[test]
    fn vector_classifier_default_threshold_is_zero() {
        let c = Threshold(1.5);
        assert!(c.classify(&SparseVector::from_counts(vec![0, 1])));
        assert!(!c.classify(&SparseVector::from_counts(vec![0])));
    }

    #[test]
    fn feature_url_classifier_composes() {
        let mut ex = WordFeatureExtractor::default();
        ex.fit(&[LabeledUrl::new(
            "http://a.de/wetter/bericht",
            Language::German,
        )]);
        let clf = FeatureUrlClassifier::new(Arc::new(ex), Threshold(0.5));
        // Two in-vocabulary tokens -> sum 2 > 0.5.
        assert!(clf.classify_url("http://b.de/wetter/bericht"));
        // No in-vocabulary tokens -> sum 0 < 0.5.
        assert!(!clf.classify_url("http://unknown.xyz/nothing"));
        assert!(clf.score_url("http://b.de/wetter") > 0.0);
    }

    #[test]
    fn boxed_and_arc_classifiers_delegate() {
        let mut ex = WordFeatureExtractor::default();
        ex.fit(&[LabeledUrl::new("http://a.de/wetter", Language::German)]);
        let inner = FeatureUrlClassifier::new(Arc::new(ex), Threshold(0.5));
        let boxed: Box<dyn UrlClassifier> = Box::new(inner);
        assert!(boxed.classify_url("http://x.de/wetter"));
        let arced: Arc<dyn UrlClassifier> = Arc::from(boxed);
        assert!(arced.classify_url("http://x.de/wetter"));
        assert!(arced.score_url("http://none.xyz/") <= 0.0);
    }
}
