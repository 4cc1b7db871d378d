//! Differential tests: the zero-copy `.urlm` binary format against the
//! JSON interchange oracle.
//!
//! JSON is the interchange/oracle representation; `.urlm` is the
//! serving format whose on-disk sections *are* the compiled plane's
//! runtime structures (mmap + validate + cast, no deserialisation).
//! A packed model must therefore be **indistinguishable** from the
//! JSON-loaded one — bit-identical scores, not merely close — for all
//! fifteen algorithm × feature recipes, on both weight lanes:
//!
//! * the exact `f64` lane (the mapped matrix is the same bytes the
//!   compiler produced);
//! * the quantised `f32` lane (`.urlm` always carries the `MATRIX32`
//!   section, produced by the same deterministic quantisation that
//!   `compile_f32` performs — so a mapped f32 lane and a recompiled
//!   one must agree to the bit);
//! * the interpreted oracle (the `MODELS` section round-trips the
//!   training-time models, so `score_all_interpreted` works on
//!   binary-loaded sets too).

use urlid::prelude::*;

/// Generated URLs of every language plus odd hosts that must not panic
/// or diverge between formats.
fn url_sample() -> Vec<String> {
    let mut generator = UrlGenerator::new(7001);
    let profile = urlid::corpus::DatasetProfile::web_crawl();
    let mut urls = Vec::new();
    for lang in ALL_LANGUAGES {
        urls.extend(generator.generate_many(lang, &profile, 8));
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

#[test]
fn every_recipe_packs_and_serves_bit_identically_on_both_lanes() {
    let mut generator = UrlGenerator::new(77);
    let training = odp_dataset(&mut generator, CorpusScale::tiny()).train;
    let sample = url_sample();
    let dir =
        std::env::temp_dir().join(format!("urlid-binary-differential-{}", std::process::id()));
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
            let tag = format!("{feature_set:?}/{algorithm:?}");
            let config = TrainingConfig::new(feature_set, algorithm).with_maxent_iterations(6);
            let bundle =
                ModelBundle::train(&training, &config).unwrap_or_else(|e| panic!("{tag}: {e}"));
            let json_path = dir.join(format!("{feature_set:?}-{algorithm:?}.json"));
            let urlm_path = dir.join(format!("{feature_set:?}-{algorithm:?}.urlm"));
            bundle.save_json(&json_path).unwrap();
            let report = bundle
                .pack(&urlm_path)
                .unwrap_or_else(|e| panic!("{tag} pack: {e}"));
            assert!(report.bytes > 0, "{tag}: empty pack");

            let from_json = ModelSource::json(&json_path)
                .load_identifier()
                .unwrap_or_else(|e| panic!("{tag} json load: {e}"));
            let source = ModelSource::detect(&urlm_path).unwrap();
            assert_eq!(source.format(), ModelFormat::Binary, "{tag}: magic sniff");
            let from_urlm = source
                .load_identifier()
                .unwrap_or_else(|e| panic!("{tag} binary load: {e}"));
            assert!(
                from_urlm
                    .classifier_set()
                    .plane()
                    .is_some_and(|p| p.is_mapped()),
                "{tag}: binary load must serve out of the mapping"
            );
            // Every feature family, custom included, extracts through
            // the compiled transform after either load (scores cannot
            // show a silent fallback to the interpreted extractor).
            for (format, loaded) in [("json", &from_json), ("urlm", &from_urlm)] {
                assert!(
                    loaded
                        .classifier_set()
                        .plane()
                        .and_then(|p| p.transform())
                        .is_some(),
                    "{tag}: {format} load must extract through the compiled transform"
                );
            }

            // Exact f64 lane: bit-for-bit equality, decisions included.
            for url in &sample {
                let expected = from_json.classifier_set().score_all(url);
                let actual = from_urlm.classifier_set().score_all(url);
                assert_eq!(expected, actual, "{tag}: f64 scores diverge on {url}");
                assert_eq!(
                    from_json.identify(url),
                    from_urlm.identify(url),
                    "{tag}: decisions diverge on {url}"
                );
            }

            // Interpreted oracle: the MODELS section restored the
            // training-time models themselves.
            for url in sample.iter().take(5) {
                assert_eq!(
                    from_json.classifier_set().score_all_interpreted(url),
                    from_urlm.classifier_set().score_all_interpreted(url),
                    "{tag}: interpreted scores diverge on {url}"
                );
            }

            // Quantised f32 lane: the packed MATRIX32 section against a
            // lane recompiled from the JSON-loaded model.
            let mut from_json = from_json;
            let mut from_urlm = from_urlm;
            assert_eq!(from_json.classifier_set_mut().set_weight_lane(true), "f32");
            assert_eq!(from_urlm.classifier_set_mut().set_weight_lane(true), "f32");
            for url in &sample {
                assert_eq!(
                    from_json.classifier_set().score_all(url),
                    from_urlm.classifier_set().score_all(url),
                    "{tag}: f32 scores diverge on {url}"
                );
            }
            // Flipping back restores the exact lane.
            assert_eq!(from_urlm.classifier_set_mut().set_weight_lane(false), "f64");
            let url = &sample[0];
            assert_eq!(
                from_json.classifier_set().score_all_interpreted(url),
                from_urlm.classifier_set().score_all_interpreted(url),
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
