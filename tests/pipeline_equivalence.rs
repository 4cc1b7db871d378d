//! Integration tests for the single-extraction scoring pipeline.
//!
//! Two guarantees are locked in here:
//!
//! 1. **Equivalence** — the single-pass path (extract once, score all
//!    languages from the same vector) returns *identical* decisions and
//!    scores to the naive per-classifier path (each language extracting
//!    for itself via `classify_url`-style calls), across every learning
//!    algorithm and feature set, on a generated corpus.
//! 2. **Single extraction** — `identify` / `identify_all` /
//!    `identify_batch` / `evaluate` call the feature extractor exactly
//!    once per URL (counted through an instrumented extractor).

use std::sync::Arc;
use urlid::features::{CountingExtractor, WordFeatureExtractor};
use urlid::prelude::*;
use urlid_classifiers::VectorClassifier;

fn corpus() -> (Dataset, Dataset) {
    let mut generator = UrlGenerator::new(97);
    let odp = odp_dataset(&mut generator, CorpusScale::tiny());
    (odp.train, odp.test)
}

/// The naive pre-refactor path: each per-language classifier extracts
/// features for itself, i.e. five extractions per URL — exactly what
/// the old per-language `FeatureUrlClassifier` wrappers did.
fn naive_scores(set: &LanguageClassifierSet, url: &str) -> [Option<f64>; 5] {
    let extractor = set
        .extractor()
        .expect("trained sets share one extractor")
        .as_ref();
    ALL_LANGUAGES.map(|lang| {
        set.vector_model(lang)
            .map(|model| model.score(&extractor.transform(url)))
    })
}

#[test]
fn single_pass_matches_per_classifier_path_for_all_algorithms_and_features() {
    let (train, test) = corpus();
    let algorithms = [
        Algorithm::NaiveBayes,
        Algorithm::RelativeEntropy,
        Algorithm::MaxEnt,
        Algorithm::DecisionTree,
        Algorithm::KNearestNeighbors,
    ];
    let feature_sets = [
        FeatureSetKind::Words,
        FeatureSetKind::Trigrams,
        FeatureSetKind::Custom,
    ];
    for algorithm in algorithms {
        for feature_set in feature_sets {
            let config = TrainingConfig::new(feature_set, algorithm).with_maxent_iterations(8);
            let set = train_classifier_set(&train, &config);
            for example in test.urls.iter().take(40) {
                let url = example.url.as_str();
                let fast = set.score_all(url);
                let naive = naive_scores(&set, url);
                assert_eq!(
                    fast, naive,
                    "{feature_set:?}/{algorithm:?} scores diverge on {url}"
                );
                let decisions = set.classify_all(url);
                for lang in ALL_LANGUAGES {
                    let naive_decision = naive[lang.index()].unwrap() > 0.0;
                    assert_eq!(
                        decisions[lang.index()],
                        naive_decision,
                        "{feature_set:?}/{algorithm:?} decision diverges on {url} for {lang}"
                    );
                }
            }
        }
    }
}

#[test]
fn combined_recipes_still_agree_between_decision_apis() {
    // The Section 5.6 recipes mix vector-level (English/German) and
    // hybrid (French/Spanish/Italian) scorers; their multi-label API
    // must agree with per-language queries and the sign convention.
    let (train, test) = corpus();
    let set = recipes::train_best_combination(&train, 5);
    for example in test.urls.iter().take(40) {
        let url = example.url.as_str();
        let all = set.classify_all(url);
        let scores = set.score_all(url);
        for lang in ALL_LANGUAGES {
            assert_eq!(all[lang.index()], set.classify(url, lang), "{url} {lang}");
            assert_eq!(
                all[lang.index()],
                scores[lang.index()].unwrap() > 0.0,
                "sign convention broken on {url} for {lang}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Extractor call counting
// ---------------------------------------------------------------------

/// A fitted word extractor behind the shared call-counting wrapper (the
/// harness lives in `urlid_features::counting` so the serving layer's
/// cache tests can reuse it).
fn fitted_counter(train: &Dataset) -> CountingExtractor<WordFeatureExtractor> {
    let mut inner = WordFeatureExtractor::default();
    inner.fit(&train.urls);
    CountingExtractor::new(inner)
}

/// Accepts any vector whose features sum past a small threshold.
struct SumThreshold;
impl VectorClassifier for SumThreshold {
    fn score(&self, features: &urlid::features::SparseVector) -> f64 {
        features.sum() - 0.5
    }
}

/// A hybrid scorer using both the URL and the shared vector — the shape
/// the mixed-space Section 5.6 recipes use. It must *not* trigger any
/// extra extraction: the vector arrives pre-extracted.
struct TldOrSum;
impl urlid_classifiers::HybridClassifier for TldOrSum {
    fn score_hybrid(&self, url: &str, shared: &urlid::features::SparseVector) -> f64 {
        let tld: f64 = if url.ends_with(".de/") { 1.0 } else { -1.0 };
        tld.max(shared.sum() - 0.5)
    }
}

/// Builds a set mixing vector scorers (four languages) with one hybrid
/// scorer, so the call-count tests cover both shared-vector paths.
fn counting_identifier(
    train: &Dataset,
) -> (
    LanguageIdentifier,
    Arc<CountingExtractor<WordFeatureExtractor>>,
) {
    let extractor = Arc::new(fitted_counter(train));
    let mut set =
        LanguageClassifierSet::build_vector(extractor.clone() as _, |_| Box::new(SumThreshold));
    set.insert_hybrid(Language::French, Box::new(TldOrSum));
    let identifier = LanguageIdentifier::from_classifier_set(
        set,
        TrainingConfig::new(FeatureSetKind::Words, Algorithm::NaiveBayes),
    );
    (identifier, extractor)
}

#[test]
fn identify_paths_extract_exactly_once_per_url() {
    let (train, test) = corpus();
    let (identifier, counter) = counting_identifier(&train);
    let urls: Vec<&str> = test.urls.iter().map(|u| u.url.as_str()).collect();

    counter.reset();
    identifier.identify(urls[0]);
    assert_eq!(counter.calls(), 1, "identify");

    counter.reset();
    identifier.identify_all(urls.iter().copied());
    assert_eq!(counter.calls(), urls.len(), "identify_all");

    counter.reset();
    identifier.identify_batch(&urls);
    assert_eq!(counter.calls(), urls.len(), "identify_batch");

    counter.reset();
    identifier.languages_of(urls[0]);
    assert_eq!(counter.calls(), 1, "languages_of");

    counter.reset();
    identifier.language_histogram(urls.iter().copied());
    assert_eq!(counter.calls(), urls.len(), "language_histogram");
}

#[test]
fn evaluate_extracts_exactly_once_per_url() {
    let (train, test) = corpus();
    let (identifier, counter) = counting_identifier(&train);
    counter.reset();
    let _ = identifier.evaluate(&test);
    assert_eq!(counter.calls(), test.urls.len());
}

#[test]
fn batch_extraction_count_holds_above_parallel_threshold() {
    // More URLs than the sequential cut-over, so the scoped-thread path
    // must also respect the one-extraction invariant.
    let (train, _) = corpus();
    let (identifier, counter) = counting_identifier(&train);
    let owned: Vec<String> = (0..1000)
        .map(|i| format!("http://beispiel{i}.de/wetter/seite{i}"))
        .collect();
    let urls: Vec<&str> = owned.iter().map(|s| s.as_str()).collect();
    counter.reset();
    let results = identifier.identify_batch(&urls);
    assert_eq!(results.len(), urls.len());
    assert_eq!(counter.calls(), urls.len());
}
