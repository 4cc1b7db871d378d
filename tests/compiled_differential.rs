//! Differential tests: the compiled scoring plane against the
//! interpreted oracle.
//!
//! The compiled plane (arena-interned vocabularies + fused dense-weight
//! matrix, `urlid_classifiers::compile`) replaces the model's *runtime
//! representation* end to end, so its correctness contract is checked
//! end to end here, for **all fifteen algorithm × feature recipes**
//! plus the full 74-feature custom set:
//!
//! * decisions (`classify_all`, `identify`) must match the interpreted
//!   path **exactly**;
//! * scores must agree within 1e-12 — the implementation actually
//!   replays the identical float operations, so this suite asserts the
//!   stronger bit-for-bit equality;
//! * the agreement must hold on arbitrary URLs (proptest), including IP
//!   hosts, punycode hosts and URLs with no extractable tokens;
//! * a model persisted and reloaded *through the compile step* must be
//!   indistinguishable from the in-memory one.

use proptest::prelude::*;
use std::sync::OnceLock;
use urlid::prelude::*;

/// The fifteen persistable recipes of the paper grid (plus k-NN), and
/// the full 74-feature custom set.
fn recipes() -> Vec<TrainingConfig> {
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
    let mut out = Vec::new();
    for algorithm in algorithms {
        for feature_set in feature_sets {
            out.push(TrainingConfig::new(feature_set, algorithm).with_maxent_iterations(6));
        }
    }
    out.push(
        TrainingConfig::new(FeatureSetKind::Custom, Algorithm::NaiveBayes)
            .with_full_custom_features(),
    );
    out
}

/// Every feature family extracts through the compiled transform: a
/// silent fallback to the interpreted extractor scores identically, so
/// only this check can catch it.
fn assert_extracts_compiled(set: &LanguageClassifierSet, config: &TrainingConfig, when: &str) {
    assert!(
        set.plane().and_then(|plane| plane.transform()).is_some(),
        "{:?}/{:?}: no compiled transform {when}",
        config.feature_set,
        config.algorithm
    );
}

/// All fifteen recipes trained once on a tiny corpus (shared by the
/// fixed-sample tests and every proptest case).
fn trained_sets() -> &'static Vec<(TrainingConfig, LanguageClassifierSet)> {
    static SETS: OnceLock<Vec<(TrainingConfig, LanguageClassifierSet)>> = OnceLock::new();
    SETS.get_or_init(|| {
        let mut generator = UrlGenerator::new(4242);
        let training = odp_dataset(&mut generator, CorpusScale::tiny()).train;
        recipes()
            .into_iter()
            .map(|config| {
                let set = train_classifier_set(&training, &config);
                assert!(
                    set.is_compiled(),
                    "{:?}/{:?}: training must hand back a compiled set",
                    config.feature_set,
                    config.algorithm
                );
                assert_extracts_compiled(&set, &config, "after training");
                (config, set)
            })
            .collect()
    })
}

/// Compiled and interpreted paths must agree on `url` for every recipe.
fn assert_agreement(url: &str) {
    for (config, set) in trained_sets() {
        let compiled_scores = set.score_all(url);
        let interpreted_scores = set.score_all_interpreted(url);
        for lang in ALL_LANGUAGES {
            let c = compiled_scores[lang.index()].expect("score present");
            let i = interpreted_scores[lang.index()].expect("score present");
            // The plane replays identical float ops: assert bitwise
            // equality (stronger than the 1e-12 acceptance bound).
            assert!(
                c == i && (c - i).abs() <= 1e-12,
                "{:?}/{:?} score diverges on {:?} for {}: compiled {} vs interpreted {}",
                config.feature_set,
                config.algorithm,
                url,
                lang,
                c,
                i
            );
        }
        assert_eq!(
            set.classify_all(url),
            set.classify_all_interpreted(url),
            "{:?}/{:?} decisions diverge on {:?}",
            config.feature_set,
            config.algorithm,
            url
        );
    }
}

/// Generated URLs of every language plus the edge shapes the serving
/// layer sees in the wild.
fn fixed_sample() -> Vec<String> {
    let mut generator = UrlGenerator::new(2026);
    let profile = urlid::corpus::DatasetProfile::web_crawl();
    let mut urls = Vec::new();
    for lang in ALL_LANGUAGES {
        urls.extend(generator.generate_many(lang, &profile, 8));
    }
    for odd in [
        "http://192.168.0.1/index.html",         // IP host
        "http://127.0.0.1:8080/de/page",         // IP host + port
        "http://xn--mnchen-3ya.de/strasse",      // punycode host
        "http://xn--caf-dma.fr/",                // punycode host
        "",                                      // empty input
        "http://",                               // no host
        "http://12345.67/89",                    // no letter tokens at all
        "a",                                     // single sub-min-length token
        "http://www./index.html",                // only special words
        "ftp://odd.scheme.example/path",         // unusual scheme
        "https://example.co.uk/weather?q=1&l=2", // query string
        "http://wetter.de/wetter/wetter/wetter", // repeated tokens
    ] {
        urls.push(odd.to_owned());
    }
    urls
}

#[test]
fn compiled_matches_interpreted_on_generated_and_edge_urls_for_all_recipes() {
    for url in fixed_sample() {
        assert_agreement(&url);
    }
}

#[test]
fn compiled_batch_identification_matches_interpreted_sequential() {
    // `identify_batch` is the crawler/serving entry point: the scoped
    // worker threads score through the compiled plane with per-thread
    // scratch. More URLs than the parallel threshold, so the threaded
    // path runs.
    let (config, set) = &trained_sets()[0];
    assert_eq!(config.algorithm, Algorithm::NaiveBayes);
    let owned: Vec<String> = (0..600)
        .map(|i| match i % 4 {
            0 => format!("http://wetter-seite{i}.de/bericht"),
            1 => format!("http://weather-site{i}.co.uk/report"),
            2 => format!("http://192.168.1.{}/page", i % 256),
            _ => format!("http://sitio{i}.es/noticias"),
        })
        .collect();
    let urls: Vec<&str> = owned.iter().map(|s| s.as_str()).collect();
    let batch = set.best_language_batch(&urls);
    for (i, url) in urls.iter().enumerate() {
        let interpreted = LanguageClassifierSet::best_of(&set.score_all_interpreted(url));
        assert_eq!(batch[i], interpreted, "{url}");
    }
}

#[test]
fn persistence_round_trips_through_the_compile_step() {
    // Pack → load must be indistinguishable from the in-memory compiled
    // model (the `/admin/reload` path), for every recipe.
    let mut generator = UrlGenerator::new(77);
    let training = odp_dataset(&mut generator, CorpusScale::tiny()).train;
    let sample = fixed_sample();
    let path = std::env::temp_dir().join(format!(
        "urlid-compiled-differential-{}.urlm",
        std::process::id()
    ));
    for config in recipes() {
        let bundle = ModelBundle::train(&training, &config)
            .unwrap_or_else(|e| panic!("{:?}/{:?}: {e}", config.feature_set, config.algorithm));
        bundle.pack(&path).unwrap();
        let reloaded = ModelSource::detect(&path)
            .and_then(|source| source.load_identifier())
            .unwrap();
        let original = bundle.into_identifier();
        assert!(original.classifier_set().is_compiled());
        assert!(reloaded.classifier_set().is_compiled());
        assert_extracts_compiled(reloaded.classifier_set(), &config, "after a .urlm load");
        for url in &sample {
            assert_eq!(
                original.classifier_set().score_all(url),
                reloaded.classifier_set().score_all(url),
                "{:?}/{:?}: compiled scores diverge after reload on {url}",
                config.feature_set,
                config.algorithm
            );
            assert_eq!(
                reloaded.classifier_set().score_all(url),
                reloaded.classifier_set().score_all_interpreted(url),
                "{:?}/{:?}: reloaded compiled plane diverges from oracle on {url}",
                config.feature_set,
                config.algorithm
            );
            assert_eq!(
                original.identify(url),
                reloaded.identify(url),
                "{:?}/{:?}: best language diverges after reload on {url}",
                config.feature_set,
                config.algorithm
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// URL-ish inputs: hosts, IPs, punycode, paths, queries — plus pure
/// noise.
fn url_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        // Plausible URLs over host/path alphabets.
        "(https?://)?[a-zA-Z0-9.-]{0,40}(/[a-zA-Z0-9._~%-]{0,15}){0,3}(\\?[a-z=&]{0,10})?",
        // IP hosts (with and without a port).
        "http://[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}(:[0-9]{1,5})?/[a-z/]{0,12}",
        // Punycode hosts.
        "http://xn--[a-z0-9-]{1,16}\\.[a-z]{2,3}/[a-z]{0,10}",
        // URLs with no extractable tokens at all.
        "http://[0-9.]{1,12}/[0-9_%-]{0,8}",
        // Arbitrary bytes-as-text (never panics, never diverges).
        ".{0,80}",
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The compiled plane agrees with the interpreted oracle on
    /// arbitrary URLs for every recipe.
    #[test]
    fn compiled_matches_interpreted_on_arbitrary_urls(url in url_strategy()) {
        assert_agreement(&url);
    }
}
