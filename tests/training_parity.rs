//! Serial vs parallel training parity — the correctness contract of the
//! sharded map-reduce trainer.
//!
//! For a fixed shard structure, `--jobs` only decides how many scoped
//! threads execute the pipeline's maps; every reduce folds in ascending
//! shard order and the negative-sampling RNG schedule is a pure function
//! of `(seed, language)`. The consequence, proven here for **all fifteen
//! persistable algorithm × feature recipes**: training with `--jobs 4
//! --shards 7` packs the *bit-identical* `.urlm` model as training with
//! a single thread — same bytes, same scores, same decisions. The byte
//! comparison covers every trained value: the MODELS codec writes every
//! field of every model, and the word and trigram extractor configs
//! are a pure function of the `TrainingConfig` in META.

use urlid::prelude::*;

/// Generated URLs of every language plus odd-host URLs, mirroring the
/// `binary_differential` probe set.
fn url_sample() -> Vec<String> {
    let mut generator = UrlGenerator::new(2026);
    let profile = urlid::corpus::DatasetProfile::web_crawl();
    let mut urls = Vec::new();
    for lang in ALL_LANGUAGES {
        urls.extend(generator.generate_many(lang, &profile, 10));
    }
    for odd in [
        "http://192.168.0.1/index.html",
        "http://localhost/page",
        "https://example.co.uk/weather/report?q=1",
        "ftp://odd.scheme.example/path",
    ] {
        urls.push(odd.to_owned());
    }
    urls
}

fn tiny_training() -> Dataset {
    let mut generator = UrlGenerator::new(93);
    odp_dataset(&mut generator, CorpusScale::tiny()).train
}

const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::NaiveBayes,
    Algorithm::RelativeEntropy,
    Algorithm::MaxEnt,
    Algorithm::DecisionTree,
    Algorithm::KNearestNeighbors,
];
const FEATURE_SETS: [FeatureSetKind; 3] = [
    FeatureSetKind::Words,
    FeatureSetKind::Trigrams,
    FeatureSetKind::Custom,
];

#[test]
fn every_recipe_trains_bit_identically_at_any_job_count() {
    let training = tiny_training();
    let sample = url_sample();
    let serial = TrainOptions { jobs: 1, shards: 7 };
    let parallel = TrainOptions { jobs: 4, shards: 7 };

    for algorithm in ALGORITHMS {
        for feature_set in FEATURE_SETS {
            let config = TrainingConfig::new(feature_set, algorithm).with_maxent_iterations(8);
            let a = ModelBundle::train_with(&training, &config, serial)
                .unwrap_or_else(|e| panic!("{feature_set:?}/{algorithm:?} serial: {e}"));
            let b = ModelBundle::train_with(&training, &config, parallel)
                .unwrap_or_else(|e| panic!("{feature_set:?}/{algorithm:?} parallel: {e}"));

            // The strongest possible check first: the persisted bytes.
            assert_eq!(
                a.to_urlm_bytes().unwrap(),
                b.to_urlm_bytes().unwrap(),
                "{feature_set:?}/{algorithm:?}: persisted models diverge between jobs=1 and jobs=4"
            );

            // And the behavioural consequence the serving layer relies
            // on: identical scores and decisions everywhere.
            let ia = a.into_identifier();
            let ib = b.into_identifier();
            for url in &sample {
                assert_eq!(
                    ia.classifier_set().score_all(url),
                    ib.classifier_set().score_all(url),
                    "{feature_set:?}/{algorithm:?} scores diverge on {url}"
                );
                assert_eq!(
                    ia.identify(url),
                    ib.identify(url),
                    "{feature_set:?}/{algorithm:?} best language diverges on {url}"
                );
            }
        }
    }
}

#[test]
fn maxent_interior_sharding_is_bit_identical_at_any_job_count() {
    // MaxEnt is the one algorithm whose *interior* is parallel: every
    // GIS iteration map-reduces the model-expectation accumulation over
    // a fixed number of example shards (a constant, never derived from
    // the job count) and folds the partials in ascending shard order.
    // Proven here through the public API: `MaxEnt::train_jobs` at any
    // job count persists the exact bytes of the serial trainer, and the
    // whole-pipeline MaxEnt recipes stay byte-identical when the job
    // count only changes how many threads run those interior shards.
    use urlid::classifiers::{MaxEnt, MaxEntConfig};
    use urlid::features::SparseVector;

    let vector = |raw: &[u32]| {
        let mut indices = raw.to_vec();
        SparseVector::from_index_buffer(&mut indices)
    };
    let positives: Vec<SparseVector> = (0..37)
        .map(|i| vector(&[i % 11, (i * 7 + 1) % 23, (i * 3) % 5]))
        .collect();
    let negatives: Vec<SparseVector> = (0..41)
        .map(|i| vector(&[(i * 5 + 2) % 23, (i * 13) % 17]))
        .collect();
    let config = MaxEntConfig::with_iterations(23, 8);
    let serial = MaxEnt::train_jobs(&positives, &negatives, config, 1);
    let baseline = serde_json::to_string(&serial).unwrap();
    for jobs in [2, 3, 8, 32] {
        let parallel = MaxEnt::train_jobs(&positives, &negatives, config, jobs);
        assert_eq!(
            baseline,
            serde_json::to_string(&parallel).unwrap(),
            "MaxEnt interior sharding diverges at jobs={jobs}"
        );
    }

    // And end to end: the pipeline threads its job count into the
    // MaxEnt interior, so sweeping jobs with the shard structure fixed
    // must keep the persisted bundle byte-identical.
    let training = tiny_training();
    let config =
        TrainingConfig::new(FeatureSetKind::Words, Algorithm::MaxEnt).with_maxent_iterations(8);
    let one =
        ModelBundle::train_with(&training, &config, TrainOptions { jobs: 1, shards: 7 }).unwrap();
    let baseline = one.to_urlm_bytes().unwrap();
    for jobs in [2, 5, 16] {
        let many =
            ModelBundle::train_with(&training, &config, TrainOptions { jobs, shards: 7 }).unwrap();
        assert_eq!(
            baseline,
            many.to_urlm_bytes().unwrap(),
            "pipeline MaxEnt diverges at jobs={jobs}"
        );
    }
}

#[test]
fn trained_bytes_are_invariant_under_the_shard_count() {
    // `--shards` is a work-granularity knob, not an arithmetic one: the
    // sharded reduces are exact (integer vocabulary counts, ordered
    // concatenation, data-order statistic folds), so even different
    // shard counts persist identical bytes.
    let training = tiny_training();
    for config in [
        TrainingConfig::paper_best(),
        TrainingConfig::new(FeatureSetKind::Trigrams, Algorithm::RelativeEntropy),
    ] {
        let one = ModelBundle::train_with(&training, &config, TrainOptions::serial()).unwrap();
        let many = ModelBundle::train_with(
            &training,
            &config,
            TrainOptions {
                jobs: 2,
                shards: 11,
            },
        )
        .unwrap();
        assert_eq!(
            one.to_urlm_bytes().unwrap(),
            many.to_urlm_bytes().unwrap(),
            "{:?}/{:?}: shards=1 and shards=11 diverge",
            config.feature_set,
            config.algorithm
        );
    }
}

#[test]
fn classifier_set_paths_agree_with_the_bundle_paths() {
    // train_classifier_set_with must build the same scores as the bundle
    // trained with the same options (it is the same pipeline).
    let training = tiny_training();
    let sample = url_sample();
    let opts = TrainOptions { jobs: 3, shards: 5 };
    let config = TrainingConfig::paper_best();
    let set = train_classifier_set_with(&training, &config, opts);
    let bundle = ModelBundle::train_with(&training, &config, opts)
        .unwrap()
        .into_identifier();
    for url in &sample {
        assert_eq!(
            set.score_all(url),
            bundle.classifier_set().score_all(url),
            "{url}"
        );
    }
}

#[test]
fn default_shard_schedule_is_jobs_invariant_from_the_cli_entry() {
    // The CLI passes TrainOptions::with_jobs(n): the shard count must be
    // a constant (never derived from the job count), otherwise --jobs
    // would change the trained model.
    assert_eq!(
        TrainOptions::with_jobs(1).effective_shards(),
        TrainOptions::with_jobs(64).effective_shards(),
    );
    let training = tiny_training();
    let config = TrainingConfig::paper_best();
    let a = ModelBundle::train_with(&training, &config, TrainOptions::with_jobs(1)).unwrap();
    let b = ModelBundle::train_with(&training, &config, TrainOptions::with_jobs(4)).unwrap();
    assert_eq!(a.to_urlm_bytes().unwrap(), b.to_urlm_bytes().unwrap());
}
