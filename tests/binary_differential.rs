//! Differential tests: a `.urlm` load against the in-memory model it
//! was packed from — the persistence contract of `urlid train --out`,
//! server start-up and `POST /admin/reload`.
//!
//! `.urlm` is the one model file; its on-disk sections *are* the
//! compiled plane's runtime structures (mmap + validate + cast). A
//! loaded model must therefore be **indistinguishable** from the
//! trained one — bit-identical scores and decisions, not merely close —
//! for all fifteen algorithm × feature recipes, on both scoring lanes:
//!
//! * the compiled plane (the mapped matrix is the same bytes the
//!   compiler produced);
//! * the interpreted oracle (the `MODELS` section round-trips the
//!   training-time models, so `score_all_interpreted` works on
//!   loaded sets too).
//!
//! Files packed before the quantised `f32` lane was removed carry one
//! more section (id 7, `MATRIX32`). They must keep loading, and score
//! exactly as a fresh pack does.

use urlid::prelude::*;

/// Generated URLs of every language plus odd hosts that must not panic
/// or diverge between the trained and the loaded model.
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
            let urlm_path = dir.join(format!("{feature_set:?}-{algorithm:?}.urlm"));
            let bytes = bundle
                .pack(&urlm_path)
                .unwrap_or_else(|e| panic!("{tag} pack: {e}"));
            assert!(bytes > 0, "{tag}: empty pack");

            let in_memory = bundle.into_identifier();
            let source = ModelSource::detect(&urlm_path)
                .unwrap_or_else(|e| panic!("{tag} magic sniff: {e}"));
            let from_urlm = source
                .load_identifier()
                .unwrap_or_else(|e| panic!("{tag} binary load: {e}"));
            assert_eq!(*from_urlm.config(), config, "{tag}: config");
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
            for (side, loaded) in [("in-memory", &in_memory), ("urlm", &from_urlm)] {
                assert!(
                    loaded
                        .classifier_set()
                        .plane()
                        .and_then(|p| p.transform())
                        .is_some(),
                    "{tag}: {side} model must extract through the compiled transform"
                );
            }

            // Exact f64 lane: bit-for-bit equality, decisions included.
            for url in &sample {
                let expected = in_memory.classifier_set().score_all(url);
                let actual = from_urlm.classifier_set().score_all(url);
                assert_eq!(expected, actual, "{tag}: f64 scores diverge on {url}");
                assert_eq!(
                    in_memory.identify(url),
                    from_urlm.identify(url),
                    "{tag}: decisions diverge on {url}"
                );
            }

            // Interpreted oracle: the MODELS section restored the
            // training-time models themselves.
            for url in sample.iter().take(5) {
                assert_eq!(
                    in_memory.classifier_set().score_all_interpreted(url),
                    from_urlm.classifier_set().score_all_interpreted(url),
                    "{tag}: interpreted scores diverge on {url}"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Re-emit a packed `.urlm` file with one more section, id 7, placed
/// where older packers put `MATRIX32` (right after `MATRIX`). Written
/// against the documented container layout: a 24-byte fixed header,
/// 32-byte section entries (id · pad · offset · len · xxh64), then
/// page-aligned section bodies.
fn with_retired_section(packed: &[u8], retired: &[u8]) -> Vec<u8> {
    let u32_at = |at: usize| u32::from_ne_bytes(packed[at..at + 4].try_into().unwrap());
    let u64_at = |at: usize| u64::from_ne_bytes(packed[at..at + 8].try_into().unwrap());
    let page = u32_at(16) as usize;
    let mut sections: Vec<(u32, &[u8])> = (0..u32_at(20) as usize)
        .map(|i| {
            let at = 24 + i * 32;
            let (offset, len) = (u64_at(at + 8) as usize, u64_at(at + 16) as usize);
            (u32_at(at), &packed[offset..offset + len])
        })
        .collect();
    let matrix = sections.iter().position(|(id, _)| *id == 6).unwrap();
    sections.insert(matrix + 1, (7, retired));

    let mut out = packed[..24].to_vec();
    out[20..24].copy_from_slice(&(sections.len() as u32).to_ne_bytes());
    let mut offsets = Vec::new();
    let mut offset = (24 + sections.len() * 32).next_multiple_of(page);
    for (id, bytes) in &sections {
        out.extend_from_slice(&id.to_ne_bytes());
        out.extend_from_slice(&0u32.to_ne_bytes());
        out.extend_from_slice(&(offset as u64).to_ne_bytes());
        out.extend_from_slice(&(bytes.len() as u64).to_ne_bytes());
        out.extend_from_slice(&urlid::format::xxh64(bytes, 0).to_ne_bytes());
        offsets.push(offset);
        offset = (offset + bytes.len()).next_multiple_of(page);
    }
    for (at, (_, bytes)) in offsets.into_iter().zip(&sections) {
        out.resize(at, 0);
        out.extend_from_slice(bytes);
    }
    out
}

#[test]
fn a_file_carrying_the_retired_matrix32_section_loads_and_scores_identically() {
    let mut generator = UrlGenerator::new(78);
    let training = odp_dataset(&mut generator, CorpusScale::tiny()).train;
    let sample = url_sample();
    let dir = std::env::temp_dir().join(format!("urlid-retired-section-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (feature_set, algorithm) in [
        (FeatureSetKind::Words, Algorithm::NaiveBayes),
        (FeatureSetKind::Trigrams, Algorithm::RelativeEntropy),
        (FeatureSetKind::Custom, Algorithm::MaxEnt),
    ] {
        let tag = format!("{feature_set:?}/{algorithm:?}");
        let config = TrainingConfig::new(feature_set, algorithm).with_maxent_iterations(6);
        let bundle = ModelBundle::train(&training, &config).unwrap();
        let fresh_path = dir.join(format!("{feature_set:?}-{algorithm:?}.urlm"));
        bundle.pack(&fresh_path).unwrap();
        let packed = std::fs::read(&fresh_path).unwrap();

        // The retired section held the weight matrix narrowed to f32.
        let file = urlid::format::UrlmFile::open(&fresh_path).unwrap();
        let matrix = file
            .section_bytes(urlid::format::SectionId::Matrix)
            .unwrap();
        let narrowed: Vec<u8> = matrix
            .chunks_exact(8)
            .flat_map(|w| (f64::from_ne_bytes(w.try_into().unwrap()) as f32).to_ne_bytes())
            .collect();
        let old = with_retired_section(&packed, &narrowed);
        let old_path = dir.join(format!("{feature_set:?}-{algorithm:?}-old.urlm"));
        std::fs::write(&old_path, &old).unwrap();

        let report = urlid::inspect_model(&old_path).unwrap();
        assert!(report.contains("MATRIX32"), "{tag}: {report}");
        let fresh = ModelSource::detect(&fresh_path)
            .unwrap()
            .load_identifier()
            .unwrap();
        let source = ModelSource::detect(&old_path).unwrap();
        let from_old = source
            .load_identifier()
            .unwrap_or_else(|e| panic!("{tag}: old file must load: {e}"));
        for url in &sample {
            assert_eq!(
                fresh.classifier_set().score_all(url),
                from_old.classifier_set().score_all(url),
                "{tag}: scores diverge on {url}"
            );
            assert_eq!(fresh.identify(url), from_old.identify(url), "{tag}: {url}");
            assert_eq!(
                fresh.classifier_set().score_all_interpreted(url),
                from_old.classifier_set().score_all_interpreted(url),
                "{tag}: interpreted scores diverge on {url}"
            );
        }

        // The retired section is still checksummed: corrupting it fails
        // the load closed.
        let retired = urlid::format::UrlmFile::open(&old_path)
            .unwrap()
            .sections()
            .iter()
            .find(|s| s.id == 7)
            .copied()
            .unwrap();
        let mut corrupt = old.clone();
        corrupt[retired.offset as usize] ^= 0xFF;
        std::fs::write(&old_path, &corrupt).unwrap();
        assert!(
            matches!(
                ModelSource::detect(&old_path).and_then(|s| s.load_identifier()),
                Err(PersistenceError::ChecksumMismatch(_))
            ),
            "{tag}: a corrupt retired section must be rejected"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
