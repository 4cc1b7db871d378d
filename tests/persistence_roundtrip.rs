//! Full-set persistence round-trip — the server's hot-reload path.
//!
//! `POST /admin/reload` rebuilds a `LanguageClassifierSet` from a saved
//! `.urlm` model file while traffic is flowing, so a reloaded model must
//! be *indistinguishable* from the one that was saved: identical scores
//! and identical decisions on every URL, for every persistable training
//! configuration (all five algorithms × all three feature sets).

use urlid::prelude::*;

/// The fixed URL sample: generated URLs of every language plus odd-host
/// URLs (IP literals, localhost, unknown TLDs) that must not panic or
/// diverge either.
fn url_sample() -> Vec<String> {
    let mut generator = UrlGenerator::new(2024);
    let profile = urlid::corpus::DatasetProfile::web_crawl();
    let mut urls = Vec::new();
    for lang in ALL_LANGUAGES {
        urls.extend(generator.generate_many(lang, &profile, 10));
    }
    for odd in [
        "http://192.168.0.1/index.html",
        "http://localhost/page",
        "https://example.co.uk/weather/report?q=1",
        "http://xn--mnchen-3ya.de/",
        "ftp://odd.scheme.example/path",
    ] {
        urls.push(odd.to_owned());
    }
    urls
}

/// Save `bundle` to `path` and load it back the way the server does.
fn save_and_reload(bundle: &ModelBundle, path: &std::path::Path) -> LanguageIdentifier {
    bundle.pack(path).unwrap();
    ModelSource::detect(path)
        .and_then(|source| source.load_identifier())
        .unwrap()
}

#[test]
fn every_persistable_recipe_survives_save_and_reload_bit_identically() {
    let mut generator = UrlGenerator::new(91);
    let training = odp_dataset(&mut generator, CorpusScale::tiny()).train;
    let sample = url_sample();
    let dir = std::env::temp_dir().join(format!(
        "urlid-persistence-roundtrip-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();

    let algorithms = [
        Algorithm::NaiveBayes,
        Algorithm::RelativeEntropy,
        Algorithm::MaxEnt,
        Algorithm::DecisionTree,
        Algorithm::KNearestNeighbors,
    ];
    for algorithm in algorithms {
        for feature_set in [
            FeatureSetKind::Words,
            FeatureSetKind::Trigrams,
            FeatureSetKind::Custom,
        ] {
            let config = TrainingConfig::new(feature_set, algorithm).with_maxent_iterations(8);
            let bundle = ModelBundle::train(&training, &config)
                .unwrap_or_else(|e| panic!("{feature_set:?}/{algorithm:?}: {e}"));
            let path = dir.join(format!("{feature_set:?}-{algorithm:?}.urlm"));
            let restored = save_and_reload(&bundle, &path);
            assert_eq!(restored.config().algorithm, algorithm);
            assert_eq!(restored.config().feature_set, feature_set);

            let original = bundle.into_identifier();
            for url in &sample {
                let expected = original.classifier_set().score_all(url);
                let actual = restored.classifier_set().score_all(url);
                assert_eq!(
                    expected, actual,
                    "{feature_set:?}/{algorithm:?} scores diverge after reload on {url}"
                );
                assert_eq!(
                    original.classifier_set().classify_all(url),
                    restored.classifier_set().classify_all(url),
                    "{feature_set:?}/{algorithm:?} decisions diverge after reload on {url}"
                );
                assert_eq!(
                    original.identify(url),
                    restored.identify(url),
                    "{feature_set:?}/{algorithm:?} best language diverges after reload on {url}"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reloaded_batch_path_agrees_with_saved_sequential_path() {
    // The server scores cache misses through `score_batch`; a reloaded
    // model must produce the same batch results as the original did
    // sequentially.
    let mut generator = UrlGenerator::new(92);
    let training = odp_dataset(&mut generator, CorpusScale::tiny()).train;
    let bundle = ModelBundle::train(&training, &TrainingConfig::paper_best()).unwrap();
    let path = std::env::temp_dir().join(format!("urlid-batch-reload-{}.urlm", std::process::id()));
    let restored = save_and_reload(&bundle, &path);
    let original = bundle.into_identifier();

    let sample = url_sample();
    let urls: Vec<&str> = sample.iter().map(|s| s.as_str()).collect();
    let batch = restored.classifier_set().score_batch(&urls);
    for (i, url) in urls.iter().enumerate() {
        assert_eq!(batch[i], original.classifier_set().score_all(url), "{url}");
    }
    std::fs::remove_file(&path).ok();
}
