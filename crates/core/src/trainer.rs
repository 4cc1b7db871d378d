//! The training pipeline of Section 4.1.
//!
//! "For each language we trained the classifiers on the set of all
//! available positive training samples (about 250k) and a random subset of
//! equal size of negative samples, i.e., of URLs belonging to the four
//! other languages. Using all roughly 1.25M URLs to train each binary
//! classifier would have led to too conservative classifiers as the
//! negative samples (1M) would have dominated."
//!
//! [`train_classifier_set`] therefore:
//!
//! 1. fits one feature extractor of the requested family on the *whole*
//!    training set (the vocabulary / trained dictionaries are shared by
//!    the five binary classifiers);
//! 2. for every language, collects the positive feature vectors and an
//!    equal-sized random sample of negative ones;
//! 3. trains the requested algorithm and wraps the result together with
//!    the shared extractor into a [`urlid_classifiers::UrlClassifier`].
//!
//! ## The map-reduce pipeline
//!
//! At paper scale (≈1.2 M training URLs) every phase of that recipe is a
//! pass over the whole corpus, so the trainer runs as a map-reduce over
//! contiguous corpus shards ([`TrainOptions`]):
//!
//! 1. **two-pass extractor fit** — every shard counts features into a
//!    mergeable partial ([`urlid_features::ShardedFit`]), the partials
//!    reduce in shard order, and the merged counts freeze the vocabulary
//!    / trained dictionaries;
//! 2. **parallel vectorize** — shards run their URLs through the frozen
//!    extractor's compiled transform, which gives `transform_training`'s
//!    vector at a fraction of its cost (`vectorize_shard`); results
//!    concatenate in shard order;
//! 3. **per-language model fit** — the five binary models train
//!    concurrently; the count-based algorithms (NB, RE) fold mergeable
//!    sufficient statistics ([`urlid_classifiers::StatsTrainer`]) over
//!    the sampled vectors in data order.
//!
//! Negative sampling uses one fixed per-language seed schedule, every
//! reduce folds in ascending shard order, and the only floating-point
//! partials (vocabulary and dictionary counts) are exact integer sums —
//! so the trained model is **bit-identical** for every `--jobs` *and*
//! every `--shards` value. The knobs only decide how many scoped threads
//! execute the maps and how fine-grained the work items are.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;
use urlid_classifiers::{
    Algorithm, CcTldClassifier, CompileScorer, DecisionTree, DecisionTreeConfig, GisIteration,
    KNearestNeighbors, KnnConfig, LanguageClassifierSet, MaxEnt, MaxEntConfig, NaiveBayes,
    NaiveBayesConfig, RelativeEntropy, RelativeEntropyConfig, StatsTrainer, UrlClassifier,
    VectorClassifier,
};
use urlid_features::parallel::{effective_jobs, par_map};
use urlid_features::{
    CompiledTransform, CustomFeatureExtractor, CustomFeatureSet, Dataset, ExtractScratch,
    FeatureExtractor, FeatureSetKind, LabeledUrl, ShardedFit, SparseVector,
    TrigramFeatureExtractor, WordFeatureExtractor,
};
use urlid_lexicon::{Language, ALL_LANGUAGES};
use urlid_telemetry::{duration_micros, Histogram};

/// Default number of corpus shards of the training pipeline.
///
/// A constant (rather than "one per core") so that the work granularity
/// of a training run does not depend on the machine. The trained model
/// is invariant under the shard count anyway (see the module docs); the
/// constant keeps run *shapes* — logs, timings, profiles — comparable
/// across hosts.
pub const DEFAULT_TRAIN_SHARDS: usize = 16;

/// Parallelism and sharding knobs of the training pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrainOptions {
    /// Scoped worker threads (0 = one per CPU core). Only schedules work;
    /// never changes the trained model.
    pub jobs: usize,
    /// Corpus shards per map pass (0 = [`DEFAULT_TRAIN_SHARDS`]): the
    /// work granularity. Never changes the trained model either — the
    /// sharded reduces are exact (see the module docs).
    pub shards: usize,
}

impl TrainOptions {
    /// One thread, one shard: the historical sequential pipeline.
    pub fn serial() -> Self {
        Self { jobs: 1, shards: 1 }
    }

    /// One worker per CPU core over the default shard schedule.
    pub fn auto() -> Self {
        Self {
            jobs: 0,
            shards: DEFAULT_TRAIN_SHARDS,
        }
    }

    /// An explicit job count over the default shard schedule.
    pub fn with_jobs(jobs: usize) -> Self {
        Self {
            jobs,
            shards: DEFAULT_TRAIN_SHARDS,
        }
    }

    /// Builder-style: set the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The resolved worker-thread count.
    pub fn effective_jobs(&self) -> usize {
        effective_jobs(self.jobs)
    }

    /// The resolved shard count.
    pub fn effective_shards(&self) -> usize {
        if self.shards == 0 {
            DEFAULT_TRAIN_SHARDS
        } else {
            self.shards
        }
    }
}

impl Default for TrainOptions {
    /// Defaults to the serial pipeline, keeping the one-argument training
    /// entry points exactly as deterministic as they always were.
    fn default() -> Self {
        Self::serial()
    }
}

/// Convergence trace of one language's Maximum Entropy training: the
/// per-iteration update magnitudes reported by the GIS observer, plus
/// the same series folded into a shared log-linear [`Histogram`]
/// (recorded as nanounits, `max_abs_delta × 1e9`, since the histogram
/// is integer-valued).
#[derive(Debug, Clone)]
pub struct GisTrace {
    /// Which language's binary model this traces.
    pub language: Language,
    /// One entry per GIS iteration, in iteration order.
    pub iterations: Vec<GisIteration>,
    /// `max_abs_delta × 1e9` of every iteration, as a histogram.
    pub delta_nanos: Histogram,
}

/// Timing and convergence observations of one training run, collected
/// by [`crate::ModelBundle::train_traced`] and printed by
/// `urlid train --verbose`.
///
/// Purely observational: the traced pipeline runs the exact same code
/// as the untraced one (same shard structure, same fold order, same
/// float ops), so the trained model is bit-identical with tracing on
/// or off — asserted by `traced_training_matches_untraced`.
///
/// All histograms are the shared log-linear `urlid-telemetry` type,
/// the same buckets the serve layer exports.
#[derive(Debug, Clone, Default)]
pub struct TrainTrace {
    /// Wall time of the sharded extractor fit (map + reduce + freeze).
    pub fit_micros: u64,
    /// Wall time of the sharded vectorize pass.
    pub vectorize_micros: u64,
    /// Wall time of the per-language model phase.
    pub models_micros: u64,
    /// Wall time of the whole pipeline.
    pub total_micros: u64,
    /// Per-shard durations of the extractor-fit map phase.
    pub fit_shard_micros: Histogram,
    /// Per-shard durations of the vectorize map phase.
    pub vectorize_shard_micros: Histogram,
    /// Per-language model-training durations, as a histogram.
    pub language_micros: Histogram,
    /// Per-language model-training durations, named.
    pub languages: Vec<(Language, u64)>,
    /// Per-language GIS convergence traces (Maximum Entropy only;
    /// empty for the other algorithms).
    pub gis: Vec<GisTrace>,
}

impl TrainTrace {
    /// Render the trace as a human-readable multi-line report (the
    /// `urlid train --verbose` output).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let ms = |us: u64| us as f64 / 1_000.0;
        let shard_line = |name: &str, h: &Histogram| {
            format!(
                "  {name:<14} {} shards: p50 {:.1}ms  p90 {:.1}ms  max {:.1}ms\n",
                h.count(),
                ms(h.quantile(0.50).unwrap_or(0)),
                ms(h.quantile(0.90).unwrap_or(0)),
                ms(h.max()),
            )
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "training trace: total {:.1}ms (fit {:.1}ms, vectorize {:.1}ms, models {:.1}ms)",
            ms(self.total_micros),
            ms(self.fit_micros),
            ms(self.vectorize_micros),
            ms(self.models_micros),
        );
        out.push_str(&shard_line("extractor fit", &self.fit_shard_micros));
        out.push_str(&shard_line("vectorize", &self.vectorize_shard_micros));
        let _ = write!(
            out,
            "  {:<14} {} languages:",
            "models",
            self.languages.len()
        );
        for (lang, us) in &self.languages {
            let _ = write!(out, "  {}={:.1}ms", lang.iso_code(), ms(*us));
        }
        out.push('\n');
        for trace in &self.gis {
            let (first, last) = match (trace.iterations.first(), trace.iterations.last()) {
                (Some(f), Some(l)) => (f, l),
                _ => continue,
            };
            let _ = writeln!(
                out,
                "  gis {:<11} {} iterations: max|Δw| {:.3e} -> {:.3e}  (p50 {:.3e}, mean|Δw| {:.3e} -> {:.3e})",
                trace.language.iso_code(),
                trace.iterations.len(),
                first.max_abs_delta,
                last.max_abs_delta,
                trace.delta_nanos.quantile(0.50).unwrap_or(0) as f64 / 1e9,
                first.mean_abs_delta,
                last.mean_abs_delta,
            );
        }
        out
    }
}

/// Configuration for training one (feature set, algorithm) combination.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// Which feature family to use.
    pub feature_set: FeatureSetKind,
    /// Which learning algorithm to use.
    pub algorithm: Algorithm,
    /// Which custom feature subset to use when `feature_set` is `Custom`.
    pub custom_features: CustomFeatureSet,
    /// Ratio of negative to positive training samples (paper: 1.0).
    pub negative_ratio: f64,
    /// Seed for negative sampling.
    pub seed: u64,
    /// Iterations for Maximum Entropy training (paper: 40; 2 in the
    /// Section 7 content experiment).
    pub maxent_iterations: usize,
    /// Use the page content of training examples when present (Section 7).
    pub use_training_content: bool,
}

impl TrainingConfig {
    /// A configuration with the paper's defaults for the given feature
    /// set / algorithm combination.
    pub fn new(feature_set: FeatureSetKind, algorithm: Algorithm) -> Self {
        Self {
            feature_set,
            algorithm,
            custom_features: CustomFeatureSet::Selected15,
            negative_ratio: 1.0,
            seed: 0xBA9_2008,
            maxent_iterations: 40,
            use_training_content: false,
        }
    }

    /// The paper's overall best single configuration: Naive Bayes on word
    /// features (Section 5.3).
    pub fn paper_best() -> Self {
        Self::new(FeatureSetKind::Words, Algorithm::NaiveBayes)
    }

    /// Builder-style: set the sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: train on page content too (Section 7).
    pub fn with_training_content(mut self) -> Self {
        self.use_training_content = true;
        self
    }

    /// Builder-style: use the full 74 custom features instead of the
    /// selected 15.
    pub fn with_full_custom_features(mut self) -> Self {
        self.custom_features = CustomFeatureSet::Full74;
        self
    }

    /// Builder-style: set the Maximum Entropy iteration count.
    pub fn with_maxent_iterations(mut self, iterations: usize) -> Self {
        self.maxent_iterations = iterations;
        self
    }
}

/// The concrete extractor for a feature family.
#[derive(Debug, Clone, Serialize)]
pub(crate) enum AnyExtractor {
    Words(WordFeatureExtractor),
    Trigrams(TrigramFeatureExtractor),
    Custom(CustomFeatureExtractor),
}

impl AnyExtractor {
    pub(crate) fn build(config: &TrainingConfig) -> Self {
        match config.feature_set {
            FeatureSetKind::Words => {
                if config.use_training_content {
                    AnyExtractor::Words(WordFeatureExtractor::with_training_content())
                } else {
                    AnyExtractor::Words(WordFeatureExtractor::default())
                }
            }
            FeatureSetKind::Trigrams => {
                if config.use_training_content {
                    AnyExtractor::Trigrams(TrigramFeatureExtractor::with_training_content())
                } else {
                    AnyExtractor::Trigrams(TrigramFeatureExtractor::default())
                }
            }
            FeatureSetKind::Custom => {
                AnyExtractor::Custom(CustomFeatureExtractor::new(config.custom_features))
            }
        }
    }
}

impl FeatureExtractor for AnyExtractor {
    fn fit(&mut self, training: &[urlid_features::LabeledUrl]) {
        match self {
            AnyExtractor::Words(e) => e.fit(training),
            AnyExtractor::Trigrams(e) => e.fit(training),
            AnyExtractor::Custom(e) => e.fit(training),
        }
    }
    fn transform(&self, url: &str) -> SparseVector {
        match self {
            AnyExtractor::Words(e) => e.transform(url),
            AnyExtractor::Trigrams(e) => e.transform(url),
            AnyExtractor::Custom(e) => e.transform(url),
        }
    }
    fn transform_with(
        &self,
        url: &str,
        scratch: &mut urlid_features::ExtractScratch,
    ) -> SparseVector {
        match self {
            AnyExtractor::Words(e) => e.transform_with(url, scratch),
            AnyExtractor::Trigrams(e) => e.transform_with(url, scratch),
            AnyExtractor::Custom(e) => e.transform_with(url, scratch),
        }
    }
    fn transform_training(&self, example: &urlid_features::LabeledUrl) -> SparseVector {
        match self {
            AnyExtractor::Words(e) => e.transform_training(example),
            AnyExtractor::Trigrams(e) => e.transform_training(example),
            AnyExtractor::Custom(e) => e.transform_training(example),
        }
    }
    fn compile_transform(&self) -> Option<urlid_features::CompiledTransform> {
        match self {
            AnyExtractor::Words(e) => e.compile_transform(),
            AnyExtractor::Trigrams(e) => e.compile_transform(),
            AnyExtractor::Custom(e) => e.compile_transform(),
        }
    }
    fn dim(&self) -> usize {
        match self {
            AnyExtractor::Words(e) => e.dim(),
            AnyExtractor::Trigrams(e) => e.dim(),
            AnyExtractor::Custom(e) => e.dim(),
        }
    }
    fn feature_name(&self, index: u32) -> Option<String> {
        match self {
            AnyExtractor::Words(e) => e.feature_name(index),
            AnyExtractor::Trigrams(e) => e.feature_name(index),
            AnyExtractor::Custom(e) => e.feature_name(index),
        }
    }
    fn kind(&self) -> FeatureSetKind {
        match self {
            AnyExtractor::Words(e) => e.kind(),
            AnyExtractor::Trigrams(e) => e.kind(),
            AnyExtractor::Custom(e) => e.kind(),
        }
    }
}

/// Two-pass sharded fit of one concrete extractor: parallel frequency
/// count over shards (map), merge in ascending shard order (reduce),
/// freeze the index. Bit-identical to `extractor.fit(training)` for any
/// shard and job count — the partials are integer counts.
///
/// Returns the per-shard map durations (in shard order) for the
/// training trace; measuring them is two `Instant` reads per shard,
/// cheap enough to do unconditionally.
fn fit_sharded<E: ShardedFit>(
    extractor: &mut E,
    training: &Dataset,
    opts: TrainOptions,
) -> Vec<u64> {
    let shards: Vec<&[LabeledUrl]> = training.shards(opts.effective_shards()).collect();
    let shared: &E = extractor;
    let timed = par_map(opts.effective_jobs(), &shards, |shard| {
        let started = Instant::now();
        let partial = shared.observe_shard(shard);
        (partial, duration_micros(started.elapsed()))
    });
    let mut micros = Vec::with_capacity(timed.len());
    let merged = timed
        .into_iter()
        .map(|(partial, us)| {
            micros.push(us);
            partial
        })
        .reduce(|acc, next| shared.merge_partials(acc, next));
    extractor.finish_fit(merged);
    micros
}

impl AnyExtractor {
    /// Fit via the two-pass sharded build; returns the per-shard map
    /// durations in shard order.
    pub(crate) fn fit_with(&mut self, training: &Dataset, opts: TrainOptions) -> Vec<u64> {
        match self {
            AnyExtractor::Words(e) => fit_sharded(e, training, opts),
            AnyExtractor::Trigrams(e) => fit_sharded(e, training, opts),
            AnyExtractor::Custom(e) => fit_sharded(e, training, opts),
        }
    }
}

/// The concrete trained model for any of the learning algorithms.
#[derive(Debug, Clone, Serialize)]
pub(crate) enum AnyModel {
    NaiveBayes(NaiveBayes),
    RelativeEntropy(RelativeEntropy),
    MaxEnt(MaxEnt),
    DecisionTree(DecisionTree),
    Knn(KNearestNeighbors),
}

impl AnyModel {
    /// Binary codec tag of the variant (stable across releases; new
    /// algorithms append, never renumber).
    fn tag(&self) -> u8 {
        match self {
            AnyModel::NaiveBayes(_) => 1,
            AnyModel::RelativeEntropy(_) => 2,
            AnyModel::MaxEnt(_) => 3,
            AnyModel::DecisionTree(_) => 4,
            AnyModel::Knn(_) => 5,
        }
    }

    /// Append the tagged binary encoding (the `.urlm` MODELS section
    /// stores five of these, in canonical language order).
    pub(crate) fn write_binary(&self, w: &mut urlid_classifiers::ByteWriter) {
        w.write_u8(self.tag());
        match self {
            AnyModel::NaiveBayes(m) => m.write_binary(w),
            AnyModel::RelativeEntropy(m) => m.write_binary(w),
            AnyModel::MaxEnt(m) => m.write_binary(w),
            AnyModel::DecisionTree(m) => m.write_binary(w),
            AnyModel::Knn(m) => m.write_binary(w),
        }
    }

    /// Decode one tagged model.
    pub(crate) fn read_binary(
        r: &mut urlid_classifiers::ByteReader<'_>,
    ) -> Result<Self, urlid_classifiers::CodecError> {
        match r.read_u8("model tag")? {
            1 => Ok(AnyModel::NaiveBayes(NaiveBayes::read_binary(r)?)),
            2 => Ok(AnyModel::RelativeEntropy(RelativeEntropy::read_binary(r)?)),
            3 => Ok(AnyModel::MaxEnt(MaxEnt::read_binary(r)?)),
            4 => Ok(AnyModel::DecisionTree(DecisionTree::read_binary(r)?)),
            5 => Ok(AnyModel::Knn(KNearestNeighbors::read_binary(r)?)),
            _ => Err(urlid_classifiers::CodecError::Invalid {
                what: "unknown model tag",
            }),
        }
    }
}

impl VectorClassifier for AnyModel {
    fn score(&self, features: &SparseVector) -> f64 {
        match self {
            AnyModel::NaiveBayes(m) => m.score(features),
            AnyModel::RelativeEntropy(m) => m.score(features),
            AnyModel::MaxEnt(m) => m.score(features),
            AnyModel::DecisionTree(m) => m.score(features),
            AnyModel::Knn(m) => m.score(features),
        }
    }

    fn as_compile(&self) -> Option<&dyn CompileScorer> {
        match self {
            AnyModel::NaiveBayes(m) => m.as_compile(),
            AnyModel::RelativeEntropy(m) => m.as_compile(),
            AnyModel::MaxEnt(m) => m.as_compile(),
            // Tree traversal and nearest-neighbour search are not dense
            // per-feature data; they stay interpreted in compiled sets.
            AnyModel::DecisionTree(_) | AnyModel::Knn(_) => None,
        }
    }
}

/// A shared fitted extractor paired with one trained model.
pub(crate) struct TrainedUrlClassifier {
    pub(crate) extractor: Arc<AnyExtractor>,
    pub(crate) model: AnyModel,
}

impl UrlClassifier for TrainedUrlClassifier {
    fn classify_url(&self, url: &str) -> bool {
        self.model.classify(&self.extractor.transform(url))
    }
    fn score_url(&self, url: &str) -> f64 {
        self.model.score(&self.extractor.transform(url))
    }
}

/// Collect the positive vectors of `lang` and an equal-size (times
/// `negative_ratio`) random sample of negative vectors.
///
/// Transforms lazily per (language, URL) pair over the index sample of
/// [`sample_indices`] — the same sampling the classifier-set pipeline
/// resolves against its shared vectorize pass, so the two paths cannot
/// drift. Kept for the combination recipes, which mix extractors per
/// language.
pub(crate) fn sample_vectors(
    training: &Dataset,
    extractor: &AnyExtractor,
    lang: Language,
    config: &TrainingConfig,
) -> (Vec<SparseVector>, Vec<SparseVector>) {
    let (pos_idx, neg_idx) = sample_indices(training, lang, config);
    let transform = |indices: &[usize]| {
        indices
            .iter()
            .map(|&i| extractor.transform_training(&training.urls[i]))
            .collect::<Vec<SparseVector>>()
    };
    (transform(&pos_idx), transform(&neg_idx))
}

pub(crate) fn train_model(
    positives: &[SparseVector],
    negatives: &[SparseVector],
    dim: usize,
    config: &TrainingConfig,
) -> AnyModel {
    train_model_jobs(positives, negatives, dim, config, 1)
}

/// [`train_model`] with up to `jobs` workers on the algorithms that
/// parallelise *inside* one language's training (MaxEnt's per-iteration
/// expectation shards). Bit-identical at any `jobs` — the interior
/// shard structure is a constant of the data, never of the job count.
pub(crate) fn train_model_jobs(
    positives: &[SparseVector],
    negatives: &[SparseVector],
    dim: usize,
    config: &TrainingConfig,
    jobs: usize,
) -> AnyModel {
    train_model_observed(positives, negatives, dim, config, jobs, None)
}

/// [`train_model_jobs`] with an optional GIS convergence observer
/// (forwarded to [`MaxEnt::train_jobs_observed`]; ignored by the other
/// algorithms, which have no iterative convergence to watch).
fn train_model_observed(
    positives: &[SparseVector],
    negatives: &[SparseVector],
    dim: usize,
    config: &TrainingConfig,
    jobs: usize,
    observer: Option<&mut dyn FnMut(GisIteration)>,
) -> AnyModel {
    match config.algorithm {
        Algorithm::NaiveBayes => AnyModel::NaiveBayes(NaiveBayes::train(
            positives,
            negatives,
            NaiveBayesConfig::for_dim(dim),
        )),
        Algorithm::RelativeEntropy => AnyModel::RelativeEntropy(RelativeEntropy::train(
            positives,
            negatives,
            RelativeEntropyConfig::for_dim(dim),
        )),
        Algorithm::MaxEnt => AnyModel::MaxEnt(MaxEnt::train_jobs_observed(
            positives,
            negatives,
            MaxEntConfig::with_iterations(dim, config.maxent_iterations),
            jobs,
            observer,
        )),
        Algorithm::DecisionTree => AnyModel::DecisionTree(DecisionTree::train(
            positives,
            negatives,
            DecisionTreeConfig::for_dim(dim),
        )),
        Algorithm::KNearestNeighbors => AnyModel::Knn(KNearestNeighbors::train(
            positives,
            negatives,
            KnnConfig::default(),
        )),
        Algorithm::CcTld | Algorithm::CcTldPlus => {
            unreachable!("ccTLD baselines are handled before feature extraction")
        }
    }
}

/// Train the binary classifier for one language.
pub fn train_language_classifier(
    training: &Dataset,
    lang: Language,
    config: &TrainingConfig,
) -> Box<dyn UrlClassifier> {
    match config.algorithm {
        Algorithm::CcTld | Algorithm::CcTldPlus => {
            return Box::new(CcTldClassifier::for_algorithm(config.algorithm, lang));
        }
        _ => {}
    }
    let mut extractor = AnyExtractor::build(config);
    extractor.fit(&training.urls);
    let (positives, negatives) = sample_vectors(training, &extractor, lang, config);
    let model = train_model(&positives, &negatives, extractor.dim(), config);
    Box::new(TrainedUrlClassifier {
        extractor: Arc::new(extractor),
        model,
    })
}

/// The deterministic negative-sampling schedule: the RNG of language
/// `lang` is a pure function of the configured seed and the language
/// index, independent of jobs, shards or the order languages train in.
fn sampling_rng(config: &TrainingConfig, lang: Language) -> StdRng {
    StdRng::seed_from_u64(config.seed ^ ((lang.index() as u64 + 1) * 0x9E37_79B9))
}

/// Positive indices of `lang` plus the sampled negative indices, into the
/// data-set order. Exactly the index arithmetic of [`sample_vectors`],
/// reproduced over precomputed vectors so the expensive transforms happen
/// once per URL in the sharded vectorize pass instead of once per
/// (language, URL) pair.
fn sample_indices(
    training: &Dataset,
    lang: Language,
    config: &TrainingConfig,
) -> (Vec<usize>, Vec<usize>) {
    let mut rng = sampling_rng(config, lang);
    let mut positives = Vec::new();
    let mut negative_pool = Vec::new();
    for (i, example) in training.urls.iter().enumerate() {
        if example.language == lang {
            positives.push(i);
        } else {
            negative_pool.push(i);
        }
    }
    let target = ((positives.len() as f64) * config.negative_ratio).round() as usize;
    let negatives: Vec<usize> = if negative_pool.len() <= target {
        negative_pool
    } else {
        // Partial Fisher–Yates: draw `target` distinct indices.
        let mut indices: Vec<usize> = (0..negative_pool.len()).collect();
        for i in 0..target {
            let j = rng.random_range(i..indices.len());
            indices.swap(i, j);
        }
        indices[..target]
            .iter()
            .map(|&i| negative_pool[i])
            .collect()
    };
    (positives, negatives)
}

/// Accumulate a [`StatsTrainer`]'s sufficient statistics over the
/// sampled vectors in sampling order. Runs on the language's own thread
/// (the parallelism of the model phase is across languages), so a single
/// in-order accumulator is both the least code and the strongest
/// contract: the fold never depends on the shard structure, making the
/// trained bytes invariant under `--shards` as well as `--jobs`.
fn accumulate_stats<M: StatsTrainer>(
    vectors: &[SparseVector],
    pos_idx: &[usize],
    neg_idx: &[usize],
) -> M::Stats {
    let mut stats = M::Stats::default();
    for &i in pos_idx {
        M::observe(&mut stats, &vectors[i], true);
    }
    for &i in neg_idx {
        M::observe(&mut stats, &vectors[i], false);
    }
    stats
}

/// Train one language's model from the precomputed training vectors.
/// The optional observer watches GIS convergence (Maximum Entropy only;
/// purely observational, see [`MaxEnt::train_jobs_observed`]).
fn train_model_from_vectors(
    vectors: &[SparseVector],
    pos_idx: &[usize],
    neg_idx: &[usize],
    dim: usize,
    config: &TrainingConfig,
    jobs: usize,
    observer: Option<&mut dyn FnMut(GisIteration)>,
) -> AnyModel {
    match config.algorithm {
        // Count-based algorithms fold mergeable statistics — no
        // materialised per-language vector copies at all.
        Algorithm::NaiveBayes => AnyModel::NaiveBayes(NaiveBayes::from_stats(
            accumulate_stats::<NaiveBayes>(vectors, pos_idx, neg_idx),
            NaiveBayesConfig::for_dim(dim),
        )),
        Algorithm::RelativeEntropy => AnyModel::RelativeEntropy(RelativeEntropy::from_stats(
            accumulate_stats::<RelativeEntropy>(vectors, pos_idx, neg_idx),
            RelativeEntropyConfig::for_dim(dim),
        )),
        // The iterative / structural algorithms train on the sampled
        // vectors themselves (gathered in sampling order, which the
        // contiguous shard reduce reproduces exactly).
        _ => {
            let positives: Vec<SparseVector> =
                pos_idx.iter().map(|&i| vectors[i].clone()).collect();
            let negatives: Vec<SparseVector> =
                neg_idx.iter().map(|&i| vectors[i].clone()).collect();
            train_model_observed(&positives, &negatives, dim, config, jobs, observer)
        }
    }
}

/// The shared map-reduce pipeline: sharded extractor fit, sharded
/// vectorize, then the five per-language models trained concurrently.
/// Returns the fitted extractor and the models in canonical language
/// order.
pub(crate) fn train_pipeline(
    training: &Dataset,
    config: &TrainingConfig,
    opts: TrainOptions,
) -> (AnyExtractor, Vec<AnyModel>) {
    let (extractor, models, _) = train_pipeline_impl(training, config, opts, false);
    (extractor, models)
}

/// [`train_pipeline`] plus the full [`TrainTrace`] (per-shard timings
/// *and* GIS convergence observation). Same pipeline, same bits.
pub(crate) fn train_pipeline_traced(
    training: &Dataset,
    config: &TrainingConfig,
    opts: TrainOptions,
) -> (AnyExtractor, Vec<AnyModel>, TrainTrace) {
    train_pipeline_impl(training, config, opts, true)
}

/// The training vectors of one shard, each equal to
/// `extractor.transform_training(example)`. They come from the compiled
/// transform, which gives that vector for a URL alone; the interpreted
/// path remains where the vector reads the example's page content, or
/// where the extractor does not lower (`compiled` is `None`).
fn vectorize_shard(
    extractor: &AnyExtractor,
    compiled: Option<&CompiledTransform>,
    config: &TrainingConfig,
    shard: &[LabeledUrl],
) -> Vec<SparseVector> {
    let mut scratch = ExtractScratch::new();
    shard
        .iter()
        .map(|example| match compiled {
            Some(compiled) if !(config.use_training_content && example.content.is_some()) => {
                compiled.extract(&example.url, &mut scratch)
            }
            _ => extractor.transform_training(example),
        })
        .collect()
}

/// The one shared pipeline body. `observe_gis` only gates the GIS
/// convergence *collection* (the per-iteration delta arithmetic in the
/// observer branch); phase and shard timings are measured always —
/// they are a handful of `Instant` reads per training run.
fn train_pipeline_impl(
    training: &Dataset,
    config: &TrainingConfig,
    opts: TrainOptions,
    observe_gis: bool,
) -> (AnyExtractor, Vec<AnyModel>, TrainTrace) {
    let mut trace = TrainTrace::default();
    let pipeline_started = Instant::now();

    let fit_started = Instant::now();
    let mut extractor = AnyExtractor::build(config);
    for shard_micros in extractor.fit_with(training, opts) {
        trace.fit_shard_micros.record(shard_micros);
    }
    trace.fit_micros = duration_micros(fit_started.elapsed());

    // Sharded vectorize against the frozen extractor: one transform per
    // URL, shared by all five binary classifiers.
    let vectorize_started = Instant::now();
    let shards: Vec<&[LabeledUrl]> = training.shards(opts.effective_shards()).collect();
    let shared = &extractor;
    let compiled = extractor.compile_transform();
    let chunks = par_map(opts.effective_jobs(), &shards, |shard| {
        let started = Instant::now();
        let vectors = vectorize_shard(shared, compiled.as_ref(), config, shard);
        (vectors, duration_micros(started.elapsed()))
    });
    let mut vectors: Vec<SparseVector> = Vec::with_capacity(training.len());
    for (chunk, shard_micros) in chunks {
        trace.vectorize_shard_micros.record(shard_micros);
        vectors.extend(chunk);
    }
    trace.vectorize_micros = duration_micros(vectorize_started.elapsed());

    let dim = extractor.dim();
    // Languages train concurrently, and the iterative algorithms
    // additionally shard *inside* one language's training (MaxEnt's
    // expectation map-reduce) — both layers bit-identical at any jobs.
    let models_started = Instant::now();
    let results = par_map(opts.effective_jobs(), &ALL_LANGUAGES, |&lang| {
        let language_started = Instant::now();
        let (pos_idx, neg_idx) = sample_indices(training, lang, config);
        let mut iterations: Vec<GisIteration> = Vec::new();
        let model = if observe_gis {
            let mut observe = |it: GisIteration| iterations.push(it);
            train_model_from_vectors(
                &vectors,
                &pos_idx,
                &neg_idx,
                dim,
                config,
                opts.effective_jobs(),
                Some(&mut observe),
            )
        } else {
            train_model_from_vectors(
                &vectors,
                &pos_idx,
                &neg_idx,
                dim,
                config,
                opts.effective_jobs(),
                None,
            )
        };
        (
            model,
            iterations,
            duration_micros(language_started.elapsed()),
        )
    });
    let mut models = Vec::with_capacity(results.len());
    for (lang, (model, iterations, language_micros)) in ALL_LANGUAGES.into_iter().zip(results) {
        trace.language_micros.record(language_micros);
        trace.languages.push((lang, language_micros));
        if !iterations.is_empty() {
            let mut delta_nanos = Histogram::new();
            for it in &iterations {
                delta_nanos.record((it.max_abs_delta * 1e9) as u64);
            }
            trace.gis.push(GisTrace {
                language: lang,
                iterations,
                delta_nanos,
            });
        }
        models.push(model);
    }
    trace.models_micros = duration_micros(models_started.elapsed());
    trace.total_micros = duration_micros(pipeline_started.elapsed());
    (extractor, models, trace)
}

/// Train all five binary classifiers (sharing one fitted extractor).
///
/// The returned set holds the extractor *once* and five
/// [`VectorClassifier`] models, so classification extracts features
/// exactly once per URL and scores all languages from the same vector
/// (the single-pass pipeline).
///
/// Runs the sequential pipeline; [`train_classifier_set_with`] takes
/// explicit [`TrainOptions`].
pub fn train_classifier_set(training: &Dataset, config: &TrainingConfig) -> LanguageClassifierSet {
    train_classifier_set_with(training, config, TrainOptions::serial())
}

/// [`train_classifier_set`] with explicit parallelism options.
///
/// Any `opts` value produces a bit-identical classifier set (see the
/// module docs); the parity is enforced for all fifteen algorithm ×
/// feature recipes by the `training_parity` integration suite.
///
/// The returned set is **compiled** (see
/// [`LanguageClassifierSet::compile`]): its vocabulary is interned into
/// the arena form and the lowerable models fused into the dense scoring
/// plane. Compiled scores are bit-identical to the interpreted oracle,
/// which stays reachable via
/// [`LanguageClassifierSet::score_all_interpreted`].
pub fn train_classifier_set_with(
    training: &Dataset,
    config: &TrainingConfig,
    opts: TrainOptions,
) -> LanguageClassifierSet {
    match config.algorithm {
        Algorithm::CcTld | Algorithm::CcTldPlus => {
            return LanguageClassifierSet::build(|lang| {
                Box::new(CcTldClassifier::for_algorithm(config.algorithm, lang))
            });
        }
        _ => {}
    }
    let (extractor, models) = train_pipeline(training, config, opts);
    let extractor = Arc::new(extractor);
    let mut per_lang: Vec<Option<AnyModel>> = models.into_iter().map(Some).collect();
    let mut set = LanguageClassifierSet::build_vector(Arc::clone(&extractor) as _, |lang| {
        let model = per_lang[lang.index()]
            .take()
            .expect("pipeline trains one model per language");
        Box::new(model) as Box<dyn VectorClassifier>
    });
    set.compile();
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use urlid_corpus::{odp_dataset, CorpusScale, UrlGenerator};
    use urlid_eval::evaluate_classifier_set;

    fn tiny_corpus() -> (Dataset, Dataset) {
        let mut g = UrlGenerator::new(11);
        let odp = odp_dataset(&mut g, CorpusScale::tiny());
        (odp.train, odp.test)
    }

    #[test]
    fn naive_bayes_words_learns_the_task() {
        let (train, test) = tiny_corpus();
        let set = train_classifier_set(&train, &TrainingConfig::paper_best());
        let result = evaluate_classifier_set(&set, &test);
        assert!(
            result.mean_f_measure() > 0.70,
            "NB+words should reach a reasonable F even on a tiny corpus, got {:.3}",
            result.mean_f_measure()
        );
    }

    #[test]
    fn every_algorithm_and_feature_set_trains_and_beats_chance() {
        let (train, test) = tiny_corpus();
        for feature_set in [
            FeatureSetKind::Words,
            FeatureSetKind::Trigrams,
            FeatureSetKind::Custom,
        ] {
            for algorithm in [Algorithm::NaiveBayes, Algorithm::RelativeEntropy] {
                let config = TrainingConfig::new(feature_set, algorithm);
                let set = train_classifier_set(&train, &config);
                let result = evaluate_classifier_set(&set, &test);
                assert!(
                    result.mean_f_measure() > 0.40,
                    "{feature_set:?}/{algorithm:?} too weak: {:.3}",
                    result.mean_f_measure()
                );
            }
        }
    }

    #[test]
    fn cctld_configs_skip_feature_training() {
        let (train, test) = tiny_corpus();
        let set = train_classifier_set(
            &train,
            &TrainingConfig::new(FeatureSetKind::Words, Algorithm::CcTld),
        );
        let result = evaluate_classifier_set(&set, &test);
        // High precision, poor recall for English (the paper's Table 4).
        let en = result.metrics(Language::English);
        assert!(en.precision > 0.8);
        assert!(en.recall < 0.4);
    }

    #[test]
    fn single_language_classifier_agrees_with_set() {
        let (train, _test) = tiny_corpus();
        let config = TrainingConfig::paper_best();
        let set = train_classifier_set(&train, &config);
        let single = train_language_classifier(&train, Language::German, &config);
        // Same training data, same seed: decisions must agree.
        for url in [
            "http://www.wetter-nachrichten.de/berlin",
            "http://www.weather-news.co.uk/london",
        ] {
            assert_eq!(
                single.classify_url(url),
                set.classify(url, Language::German),
                "{url}"
            );
        }
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let (train, test) = tiny_corpus();
        let config = TrainingConfig::paper_best().with_seed(7);
        let a = evaluate_classifier_set(&train_classifier_set(&train, &config), &test);
        let b = evaluate_classifier_set(&train_classifier_set(&train, &config), &test);
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn parallel_training_is_bit_identical_to_single_job() {
        let (train, _test) = tiny_corpus();
        for feature_set in [
            FeatureSetKind::Words,
            FeatureSetKind::Trigrams,
            FeatureSetKind::Custom,
        ] {
            let config = TrainingConfig::new(feature_set, Algorithm::NaiveBayes);
            let opts1 = TrainOptions { jobs: 1, shards: 5 };
            let opts4 = TrainOptions { jobs: 4, shards: 5 };
            let a = crate::ModelBundle::train_with(&train, &config, opts1).unwrap();
            let b = crate::ModelBundle::train_with(&train, &config, opts4).unwrap();
            assert_eq!(
                a.to_urlm_bytes().unwrap(),
                b.to_urlm_bytes().unwrap(),
                "{feature_set:?}: jobs=1 and jobs=4 diverge at shards=5"
            );
        }
    }

    #[test]
    fn the_vectorize_pass_gives_transform_trainings_vectors() {
        let (train, _test) = tiny_corpus();
        let mut with_content = train.clone();
        let mut content = urlid_corpus::ContentGenerator::new(3, 12);
        urlid_corpus::attach_content(&mut with_content, &mut content);
        // Half the examples carry content, half do not.
        for example in with_content.urls.iter_mut().step_by(2) {
            example.content = None;
        }
        let configs = [
            (
                TrainingConfig::new(FeatureSetKind::Words, Algorithm::NaiveBayes),
                &train,
            ),
            (
                TrainingConfig::new(FeatureSetKind::Trigrams, Algorithm::NaiveBayes),
                &train,
            ),
            (
                TrainingConfig::new(FeatureSetKind::Custom, Algorithm::NaiveBayes),
                &train,
            ),
            (
                TrainingConfig::new(FeatureSetKind::Custom, Algorithm::NaiveBayes)
                    .with_full_custom_features(),
                &train,
            ),
            (
                TrainingConfig::new(FeatureSetKind::Words, Algorithm::NaiveBayes)
                    .with_training_content(),
                &with_content,
            ),
            (
                TrainingConfig::new(FeatureSetKind::Trigrams, Algorithm::NaiveBayes)
                    .with_training_content(),
                &with_content,
            ),
        ];
        for (config, data) in configs {
            let mut extractor = AnyExtractor::build(&config);
            extractor.fit_with(data, TrainOptions::serial());
            let compiled = extractor.compile_transform();
            assert!(compiled.is_some(), "{:?} lowers", config.feature_set);
            let vectors = vectorize_shard(&extractor, compiled.as_ref(), &config, &data.urls);
            let bits =
                |v: &SparseVector| v.iter().map(|(i, x)| (i, x.to_bits())).collect::<Vec<_>>();
            for (example, vector) in data.urls.iter().zip(&vectors) {
                assert_eq!(
                    bits(vector),
                    bits(&extractor.transform_training(example)),
                    "{:?} (content {}): {}",
                    config.feature_set,
                    example.content.is_some(),
                    example.url
                );
            }
        }
    }

    #[test]
    fn pipeline_matches_the_lazily_transformed_construction() {
        // The pipeline samples *indices* into one shared vectorize pass;
        // the combination recipes still use `sample_vectors`, which
        // transforms lazily per (language, URL) pair with the same RNG
        // schedule. If the two ever drift — RNG consumption, ordering,
        // transform choice — this catches it bit-for-bit.
        let (train, _test) = tiny_corpus();
        for config in [
            TrainingConfig::paper_best(),
            TrainingConfig::new(FeatureSetKind::Trigrams, Algorithm::RelativeEntropy),
        ] {
            let (extractor, models) = train_pipeline(&train, &config, TrainOptions::serial());
            let mut reference = AnyExtractor::build(&config);
            reference.fit(&train.urls);
            assert_eq!(
                serde_json::to_string(&extractor).unwrap(),
                serde_json::to_string(&reference).unwrap(),
                "{:?}: sharded fit diverges from FeatureExtractor::fit",
                config.feature_set
            );
            for lang in ALL_LANGUAGES {
                let (positives, negatives) = sample_vectors(&train, &reference, lang, &config);
                let expected = train_model(&positives, &negatives, reference.dim(), &config);
                assert_eq!(
                    serde_json::to_string(&models[lang.index()]).unwrap(),
                    serde_json::to_string(&expected).unwrap(),
                    "{:?}/{:?}: pipeline model diverges for {lang}",
                    config.feature_set,
                    config.algorithm
                );
            }
        }
    }

    #[test]
    fn traced_training_matches_untraced() {
        let (train, _test) = tiny_corpus();
        let config =
            TrainingConfig::new(FeatureSetKind::Words, Algorithm::MaxEnt).with_maxent_iterations(3);
        let opts = TrainOptions { jobs: 2, shards: 5 };
        let (plain_extractor, plain_models) = train_pipeline(&train, &config, opts);
        let (traced_extractor, traced_models, trace) = train_pipeline_traced(&train, &config, opts);
        assert_eq!(
            serde_json::to_string(&plain_extractor).unwrap(),
            serde_json::to_string(&traced_extractor).unwrap(),
            "tracing must not change the fitted extractor"
        );
        for (lang, (a, b)) in ALL_LANGUAGES
            .into_iter()
            .zip(plain_models.iter().zip(&traced_models))
        {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap(),
                "tracing must not change the {lang} model"
            );
        }
        // The trace is fully populated: one sample per shard and phase.
        assert_eq!(trace.fit_shard_micros.count(), 5);
        assert_eq!(trace.vectorize_shard_micros.count(), 5);
        assert_eq!(trace.language_micros.count(), ALL_LANGUAGES.len() as u64);
        assert_eq!(trace.languages.len(), ALL_LANGUAGES.len());
        assert!(trace.total_micros >= trace.models_micros);
        // MaxEnt: every language converged over the configured iterations.
        assert_eq!(trace.gis.len(), ALL_LANGUAGES.len());
        for gis in &trace.gis {
            assert_eq!(gis.iterations.len(), 3);
            assert_eq!(gis.delta_nanos.count(), 3);
        }
        let report = trace.render();
        assert!(report.contains("training trace"), "{report}");
        assert!(report.contains("gis en"), "{report}");
    }

    #[test]
    fn non_iterative_algorithms_produce_no_gis_trace() {
        let (train, _test) = tiny_corpus();
        let (_, _, trace) = train_pipeline_traced(
            &train,
            &TrainingConfig::paper_best(),
            TrainOptions::serial(),
        );
        assert!(trace.gis.is_empty());
        assert_eq!(trace.fit_shard_micros.count(), 1);
        assert!(!trace.render().contains("gis"));
    }

    #[test]
    fn train_options_resolve_defaults() {
        assert_eq!(TrainOptions::default(), TrainOptions::serial());
        assert_eq!(TrainOptions::serial().effective_shards(), 1);
        assert_eq!(TrainOptions::with_jobs(3).jobs, 3);
        assert_eq!(
            TrainOptions::with_jobs(3).effective_shards(),
            DEFAULT_TRAIN_SHARDS
        );
        assert_eq!(TrainOptions::auto().with_shards(7).effective_shards(), 7);
        assert!(TrainOptions::auto().effective_jobs() >= 1);
    }

    #[test]
    fn sharded_set_still_learns_the_task() {
        let (train, test) = tiny_corpus();
        let set = train_classifier_set_with(
            &train,
            &TrainingConfig::paper_best(),
            TrainOptions { jobs: 2, shards: 7 },
        );
        let result = evaluate_classifier_set(&set, &test);
        assert!(
            result.mean_f_measure() > 0.70,
            "sharded NB+words should learn, got {:.3}",
            result.mean_f_measure()
        );
    }

    #[test]
    fn builder_methods_set_fields() {
        let c = TrainingConfig::new(FeatureSetKind::Custom, Algorithm::DecisionTree)
            .with_seed(9)
            .with_full_custom_features()
            .with_maxent_iterations(2)
            .with_training_content();
        assert_eq!(c.seed, 9);
        assert_eq!(c.custom_features, CustomFeatureSet::Full74);
        assert_eq!(c.maxent_iterations, 2);
        assert!(c.use_training_content);
    }
}
