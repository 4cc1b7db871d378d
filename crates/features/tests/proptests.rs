//! Property-based tests for feature extraction invariants.

use proptest::prelude::*;
use std::sync::OnceLock;
use urlid_features::{
    custom::NUM_CUSTOM_FEATURES, shard_slices, CompiledTransform, CustomFeatureExtractor, Dataset,
    ExtractScratch, FeatureExtractor, LabeledUrl, ShardedFit, SparseVector,
    TrigramFeatureExtractor, VocabularyBuilder, WordFeatureExtractor,
};
use urlid_lexicon::Language;

fn small_training() -> Vec<LabeledUrl> {
    vec![
        LabeledUrl::new(
            "http://www.wetter-bericht.de/berlin/nachrichten",
            Language::German,
        ),
        LabeledUrl::new(
            "http://www.weather-report.co.uk/london/news",
            Language::English,
        ),
        LabeledUrl::new(
            "http://www.meteo-prevision.fr/paris/infos",
            Language::French,
        ),
        LabeledUrl::new("http://www.tiempo-noticias.es/madrid", Language::Spanish),
        LabeledUrl::new("http://www.previsioni-meteo.it/roma", Language::Italian),
    ]
}

/// The full and the selected custom extractor, fitted (so the trained
/// dictionaries are non-empty), each with its compiled transform. Built
/// once and shared by every case.
fn fitted_custom() -> &'static [(CustomFeatureExtractor, CompiledTransform); 2] {
    static FITTED: OnceLock<[(CustomFeatureExtractor, CompiledTransform); 2]> = OnceLock::new();
    FITTED.get_or_init(|| {
        [
            CustomFeatureExtractor::full(),
            CustomFeatureExtractor::default(),
        ]
        .map(|mut ex| {
            ex.fit(&small_training());
            let compiled = ex.compile_transform().expect("custom features compile");
            (ex, compiled)
        })
    })
}

/// Pick one entry of `options` by a drawn index.
fn pick(options: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..options.len()).prop_map(move |i| options[i])
}

/// URL-shaped strings built from the pieces the custom features are
/// sensitive to: schemes, userinfo, mixed-case and IP hosts, two-letter
/// ccTLD labels, special words, ports, trailing dots, paths, a query
/// with or without a path, and fragments.
fn url_shaped() -> impl Strategy<Value = String> {
    const SCHEMES: &[&str] = &["", "http://", "HTTPS://", "Http://", "ftp://", "x+y-z://"];
    const USERINFO: &[&str] = &["", "user@", "User:Pw@", "a@b@"];
    const LABELS: &[&str] = &[
        "www",
        "WWW",
        "wetter",
        "Bericht",
        "meteo",
        "London",
        "de",
        "FR",
        "it",
        "es",
        "co",
        "uk",
        "gov",
        "index",
        "html",
        "http",
        "a",
        "x1",
        "192",
        "168",
        "0",
        "xn--mnchen-3ya",
        "news-24",
        "com",
        "berlin",
    ];
    const TLDS: &[&str] = &[
        "de", "DE", "fr", "It", "com", "Org", "net", "gov", "mil", "info", "co", "uk", "12", "x-y",
        "d3", "",
    ];
    const PORTS: &[&str] = &["", ":8080", ":", ":notaport", ":+80", ":99999"];
    const TRAILING: &[&str] = &["", ".", ".."];
    const PATHS: &[&str] = &[
        "",
        "/",
        "/Wiki/Berlin",
        "/de/fr",
        "/index.html",
        "//a//b/",
        "/http/www",
        "/a-b_c/1-2",
        "/Wetter/ES/",
        "/meteo?",
        "/x.Y/Z",
    ];
    const QUERIES: &[&str] = &["", "?", "?q=Paris&l=de", "?html=www", "?Stadt=Wien#x"];
    const FRAGMENTS: &[&str] = &["", "#", "#Top", "#a?b", "#/de/fr"];
    (
        (
            pick(SCHEMES),
            pick(USERINFO),
            proptest::collection::vec(pick(LABELS), 0..4),
        ),
        (pick(TLDS), pick(TRAILING), pick(PORTS)),
        (pick(PATHS), pick(QUERIES), pick(FRAGMENTS)),
    )
        .prop_map(
            |((scheme, userinfo, labels), (tld, trailing, port), (path, query, fragment))| {
                let mut url = format!("{scheme}{userinfo}");
                for label in labels {
                    url.push_str(label);
                    url.push('.');
                }
                format!("{url}{tld}{trailing}{port}{path}{query}{fragment}")
            },
        )
}

/// The compiled custom transform of both feature sets equals the
/// interpreted one on `url`, bit for bit, through a reused scratch.
fn assert_compiled_custom_matches(url: &str, scratch: &mut ExtractScratch) {
    for (extractor, compiled) in fitted_custom() {
        compiled.extract_into(url, scratch);
        let interpreted = extractor.transform(url);
        assert_eq!(scratch.vector.nnz(), interpreted.nnz(), "{url:?}");
        for ((ci, cv), (ii, iv)) in scratch.vector.iter().zip(interpreted.iter()) {
            assert!(
                ci == ii && cv.to_bits() == iv.to_bits(),
                "{:?}/{url:?}: compiled ({ci}, {cv}) vs interpreted ({ii}, {iv})",
                extractor.feature_set()
            );
        }
    }
}

proptest! {
    /// Every extractor produces finite, non-negative feature values with
    /// indices inside the declared dimensionality, for arbitrary inputs.
    #[test]
    fn extractors_produce_valid_vectors(url in ".{0,150}") {
        let training = small_training();
        let mut words = WordFeatureExtractor::default();
        words.fit(&training);
        let mut trigrams = TrigramFeatureExtractor::default();
        trigrams.fit(&training);
        let mut custom = CustomFeatureExtractor::default();
        custom.fit(&training);

        for (extractor, dim) in [
            (&words as &dyn FeatureExtractor, words.dim()),
            (&trigrams as &dyn FeatureExtractor, trigrams.dim()),
            (&custom as &dyn FeatureExtractor, custom.dim()),
        ] {
            let v = extractor.transform(&url);
            for (i, x) in v.iter() {
                prop_assert!(x.is_finite() && x >= 0.0, "bad value {x} at {i}");
                prop_assert!((i as usize) < dim, "index {i} outside dim {dim}");
                prop_assert!(extractor.feature_name(i).is_some());
            }
        }
    }

    /// Word feature counts sum to at most the number of tokens of the URL
    /// (out-of-vocabulary tokens are dropped, never duplicated).
    #[test]
    fn word_counts_are_bounded_by_token_count(url in "[a-z0-9./-]{0,100}") {
        let mut words = WordFeatureExtractor::default();
        words.fit(&small_training());
        let v = words.transform(&url);
        let tokens = urlid_tokenize::tokenize_url(&url);
        prop_assert!(v.sum() <= tokens.len() as f64 + 1e-9);
    }

    /// Transforming is insensitive to URL case.
    #[test]
    fn transform_is_case_insensitive(url in "[a-zA-Z0-9./-]{0,80}") {
        let mut words = WordFeatureExtractor::default();
        words.fit(&small_training());
        prop_assert_eq!(words.transform(&url), words.transform(&url.to_ascii_lowercase()));
        let mut tri = TrigramFeatureExtractor::default();
        tri.fit(&small_training());
        prop_assert_eq!(tri.transform(&url), tri.transform(&url.to_uppercase()));
    }

    /// The custom extractor's full vector always has exactly 74 finite
    /// entries, the selected-15 projection is consistent with it, and
    /// the compiled transform of both sets equals the interpreted one
    /// bit for bit — on arbitrary strings and on URL-shaped ones.
    #[test]
    fn custom_full_and_selected_are_consistent(url in ".{0,120}", shaped in url_shaped()) {
        let [(full, _), (selected, _)] = fitted_custom();
        let mut scratch = ExtractScratch::new();
        for url in [&url, &shaped] {
            let f = full.extract_full(url);
            prop_assert_eq!(f.len(), NUM_CUSTOM_FEATURES);
            prop_assert!(f.iter().all(|v| v.is_finite() && *v >= 0.0));
            let s = selected.extract(url);
            for (k, &full_idx) in CustomFeatureExtractor::selected_indices().iter().enumerate() {
                prop_assert_eq!(s[k], f[full_idx]);
            }
            assert_compiled_custom_matches(url, &mut scratch);
        }
    }

    /// SparseVector::from_pairs is order-independent and merge-consistent.
    #[test]
    fn sparse_vector_from_pairs_is_canonical(
        pairs in proptest::collection::vec((0u32..64, 0.0f64..10.0), 0..40)
    ) {
        let a = SparseVector::from_pairs(pairs.clone());
        let mut reversed = pairs.clone();
        reversed.reverse();
        let b = SparseVector::from_pairs(reversed);
        // Same support and (up to floating-point summation order) the same
        // values regardless of input order.
        prop_assert_eq!(a.nnz(), b.nnz());
        for (i, v) in a.iter() {
            prop_assert!((v - b.get(i)).abs() < 1e-9, "index {i}: {v} vs {}", b.get(i));
        }
        // Sum is preserved (up to fp error).
        let expected: f64 = pairs.iter().map(|(_, v)| v).sum();
        prop_assert!((a.sum() - expected).abs() < 1e-9);
        // L1 normalisation yields a distribution when non-empty.
        if !a.is_empty() && a.sum() > 0.0 {
            prop_assert!((a.l1_normalized().sum() - 1.0).abs() < 1e-9);
        }
    }

    /// Sharded vocabulary building is invariant under shard order *and*
    /// shard count: min-count pruning is applied only when the merged
    /// builder freezes, so no partition of the token stream — visited in
    /// any order — can change the frozen vocabulary.
    #[test]
    fn shard_order_never_changes_the_frozen_vocabulary(
        tokens in proptest::collection::vec("[a-f]{1,3}", 1..60),
        shards in 1usize..8,
        rotation in 0usize..8,
        min_count in 0u64..4,
    ) {
        let mut whole = VocabularyBuilder::new(min_count);
        whole.observe_all(&tokens);
        let expected = whole.build();

        // Partition the stream, count each shard independently, then
        // merge in a rotated (i.e. arbitrary) order.
        let mut partials: Vec<VocabularyBuilder> = shard_slices(&tokens, shards)
            .map(|shard| {
                let mut b = VocabularyBuilder::new(min_count);
                b.observe_all(shard);
                b
            })
            .collect();
        let k = rotation % partials.len().max(1);
        partials.rotate_left(k);
        let mut merged = VocabularyBuilder::new(min_count);
        for partial in partials {
            merged.merge(partial);
        }
        prop_assert_eq!(merged.build(), expected);
    }

    /// The same invariance holds for whole extractors fitted through the
    /// map-reduce path: any contiguous sharding of the training set
    /// freezes the same vocabulary as a single sequential fit.
    #[test]
    fn sharded_fit_equals_serial_fit(shards in 1usize..7, seed in 0usize..5) {
        let mut training = small_training();
        training.rotate_left(seed);
        let mut serial = WordFeatureExtractor::default();
        serial.fit(&training);

        let mut sharded = WordFeatureExtractor::default();
        let merged = shard_slices(&training, shards)
            .map(|s| sharded.observe_shard(s))
            .reduce(|a, b| sharded.merge_partials(a, b));
        sharded.finish_fit(merged);

        prop_assert_eq!(serial.vocabulary(), sharded.vocabulary());
        prop_assert_eq!(serial.dim(), sharded.dim());
    }

    /// Dataset splitting never loses or duplicates URLs, for any valid
    /// fraction.
    #[test]
    fn dataset_split_partitions(n in 1usize..60, denom in 2usize..10) {
        let mut d = Dataset::new("prop");
        for i in 0..n {
            let lang = Language::from_index(i % 5);
            d.urls.push(LabeledUrl::new(format!("http://site{i}.{}/p", lang.iso_code()), lang));
        }
        let split = d.split(1.0 / denom as f64);
        prop_assert_eq!(split.train.len() + split.test.len(), d.len());
        let mut all: Vec<&LabeledUrl> = split.train.urls.iter().chain(&split.test.urls).collect();
        all.sort_by(|a, b| a.url.cmp(&b.url));
        let mut orig: Vec<&LabeledUrl> = d.urls.iter().collect();
        orig.sort_by(|a, b| a.url.cmp(&b.url));
        prop_assert_eq!(all, orig);
    }
}
