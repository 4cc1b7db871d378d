//! Bundling five binary classifiers into the paper's multi-label setup —
//! with **single-pass feature extraction**.
//!
//! Section 4.2: "For each algorithm we created five separate binary
//! classifiers, one for each language. Note that this allows a single web
//! page to be classified as multiple languages simultaneously, as there
//! are five independent (binary) decisions to be made."
//!
//! All five binary classifiers of a trained set share the same fitted
//! feature extractor, so the set extracts the feature vector **exactly
//! once per URL** and hands the same [`SparseVector`] to every
//! per-language model ([`LanguageScorer::Vector`]). Classifiers that
//! need the raw URL — the ccTLD baselines — plug in through the thin
//! [`LanguageScorer::Url`] adapter; Section 5.6 combinations that mix
//! feature spaces use [`LanguageScorer::Hybrid`], which hands them the
//! URL *and* the shared vector so the word-feature side never
//! re-extracts.
//!
//! Batch classification ([`LanguageClassifierSet::classify_batch`] and
//! friends) additionally fans the URLs out over all CPU cores with one
//! reusable [`ExtractScratch`] per worker, so tokenisation allocates no
//! per-URL strings.

use crate::compile::CompiledPlane;
use crate::model::{HybridClassifier, UrlClassifier, VectorClassifier};
use std::sync::Arc;
use urlid_features::{ExtractScratch, FeatureExtractor, SparseVector};
use urlid_lexicon::{Language, ALL_LANGUAGES};

/// How one scoring call's wall clock divided between feature
/// extraction and scoring (reported by
/// [`LanguageClassifierSet::score_all_with_split`], recorded into the
/// serve layer's per-stage histograms).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScoreSplit {
    /// Nanoseconds spent extracting features into the sparse vector.
    pub extract_nanos: u64,
    /// Nanoseconds spent scoring (the plane's fused pass and any boxed
    /// fallbacks).
    pub score_nanos: u64,
}

/// A `Duration` as saturating whole nanoseconds.
#[inline]
fn duration_nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// How one language's score is produced from a URL.
pub enum LanguageScorer {
    /// A vector-space model scoring the set's shared, pre-extracted
    /// feature vector. Decision contract: positive score ⇔ "yes".
    Vector(Box<dyn VectorClassifier>),
    /// A classifier that needs the raw URL only (ccTLD baselines,
    /// ad-hoc classifiers).
    Url(Box<dyn UrlClassifier>),
    /// A classifier that needs the raw URL *and* reuses the set's shared
    /// vector (mixed-feature-space combinations whose word-feature
    /// constituent scores the shared word vector).
    Hybrid(Box<dyn HybridClassifier>),
}

/// Five per-language binary URL classifiers evaluated jointly over one
/// shared feature extraction.
///
/// A set can additionally carry a **compiled scoring plane**
/// ([`LanguageClassifierSet::compile`]): the vocabularies interned into
/// byte arenas and the NB/ME or RE models' weights fused into one
/// language-major dense matrix (see [`crate::compile`]). When present,
/// all scoring entry points route through it — with scores bit-identical
/// to the interpreted path, which stays available as the
/// differential-testing oracle
/// ([`LanguageClassifierSet::score_all_interpreted`]).
#[derive(Default)]
pub struct LanguageClassifierSet {
    extractor: Option<Arc<dyn FeatureExtractor>>,
    scorers: [Option<LanguageScorer>; 5],
    compiled: Option<CompiledPlane>,
}

impl LanguageClassifierSet {
    /// An empty set (classifiers are added with
    /// [`LanguageClassifierSet::insert`] /
    /// [`LanguageClassifierSet::insert_model`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set whose vector-space classifiers will score vectors
    /// produced by `extractor` (shared by all five languages — the
    /// single-extraction invariant).
    pub fn with_extractor(extractor: Arc<dyn FeatureExtractor>) -> Self {
        Self {
            extractor: Some(extractor),
            scorers: Default::default(),
            compiled: None,
        }
    }

    /// Build a set of raw-URL classifiers by calling `f` for every
    /// language (ccTLD baselines, combinations, ad-hoc classifiers).
    pub fn build(mut f: impl FnMut(Language) -> Box<dyn UrlClassifier>) -> Self {
        let mut set = Self::new();
        for lang in ALL_LANGUAGES {
            set.insert(lang, f(lang));
        }
        set
    }

    /// Build a set of vector-space classifiers sharing `extractor` by
    /// calling `f` for every language.
    pub fn build_vector(
        extractor: Arc<dyn FeatureExtractor>,
        mut f: impl FnMut(Language) -> Box<dyn VectorClassifier>,
    ) -> Self {
        let mut set = Self::with_extractor(extractor);
        for lang in ALL_LANGUAGES {
            set.insert_model(lang, f(lang));
        }
        set
    }

    /// Insert (or replace) a raw-URL classifier for a language.
    pub fn insert(&mut self, lang: Language, classifier: Box<dyn UrlClassifier>) {
        self.compiled = None; // the plane no longer reflects the set
        self.scorers[lang.index()] = Some(LanguageScorer::Url(classifier));
    }

    /// Insert (or replace) a vector-space model for a language. The model
    /// scores vectors from the set's shared extractor.
    ///
    /// # Panics
    /// Panics if the set has no extractor (see
    /// [`LanguageClassifierSet::with_extractor`]).
    pub fn insert_model(&mut self, lang: Language, model: Box<dyn VectorClassifier>) {
        assert!(
            self.extractor.is_some(),
            "insert_model requires a shared extractor (use with_extractor)"
        );
        self.compiled = None;
        self.scorers[lang.index()] = Some(LanguageScorer::Vector(model));
    }

    /// Insert (or replace) a hybrid classifier for a language: it
    /// receives both the raw URL and the set's shared vector (see
    /// [`HybridClassifier`]).
    ///
    /// # Panics
    /// Panics if the set has no extractor (see
    /// [`LanguageClassifierSet::with_extractor`]).
    pub fn insert_hybrid(&mut self, lang: Language, classifier: Box<dyn HybridClassifier>) {
        assert!(
            self.extractor.is_some(),
            "insert_hybrid requires a shared extractor (use with_extractor)"
        );
        self.compiled = None;
        self.scorers[lang.index()] = Some(LanguageScorer::Hybrid(classifier));
    }

    /// Build the compiled scoring plane (see [`crate::compile`]): intern
    /// the shared vocabulary into a byte arena and fuse the lowered
    /// models' weights into one language-major dense matrix, run by the
    /// linear (NB/ME) or entropy (RE) kernel that the first lowering
    /// language picks. All scoring entry points route through the plane
    /// afterwards, with scores bit-identical to the interpreted path.
    /// Every other scorer (decision trees, k-NN, rank-order, Markov,
    /// combinations, ad-hoc classifiers, a language needing the other
    /// kernel) keeps being scored through its trait object inside the
    /// plane.
    ///
    /// Inserting or replacing any classifier discards the plane;
    /// call `compile` again afterwards.
    pub fn compile(&mut self) {
        self.compiled = Some(CompiledPlane::build(
            self.extractor.as_deref(),
            &self.scorers,
        ));
    }

    /// Install an externally built plane — the `.urlm` binary-load
    /// path, whose plane is reconstructed from mapped file sections by
    /// [`CompiledPlane::from_bytes`] instead of being compiled from the
    /// scorers. The caller is responsible for the plane actually
    /// describing this set's scorers (the persistence layer packs and
    /// loads the two together and cross-validates the dimensions).
    pub fn install_plane(&mut self, plane: CompiledPlane) {
        self.compiled = Some(plane);
    }

    /// The active compiled plane, if any (the persistence layer reads
    /// it to pack a `.urlm` file).
    pub fn plane(&self) -> Option<&CompiledPlane> {
        self.compiled.as_ref()
    }

    /// Drop the compiled plane, reverting every entry point to the
    /// interpreted path (used by benchmarks to measure the baseline).
    pub fn clear_compiled(&mut self) {
        self.compiled = None;
    }

    /// Is a compiled scoring plane active?
    pub fn is_compiled(&self) -> bool {
        self.compiled.is_some()
    }

    /// The shared feature extractor, if the set scores vectors.
    pub fn extractor(&self) -> Option<&Arc<dyn FeatureExtractor>> {
        self.extractor.as_ref()
    }

    /// The scorer for `lang`, if present.
    pub fn scorer(&self, lang: Language) -> Option<&LanguageScorer> {
        self.scorers[lang.index()].as_ref()
    }

    /// The vector-space model for `lang`, if that language uses one.
    pub fn vector_model(&self, lang: Language) -> Option<&dyn VectorClassifier> {
        match self.scorers[lang.index()].as_ref() {
            Some(LanguageScorer::Vector(m)) => Some(m.as_ref()),
            _ => None,
        }
    }

    /// Number of languages with a classifier.
    pub fn len(&self) -> usize {
        self.scorers.iter().flatten().count()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Does the set have a classifier for `lang`?
    pub fn contains(&self, lang: Language) -> bool {
        self.scorers[lang.index()].is_some()
    }

    /// Does any language score the shared feature vector?
    fn needs_vector(&self) -> bool {
        self.scorers
            .iter()
            .flatten()
            .any(|s| matches!(s, LanguageScorer::Vector(_) | LanguageScorer::Hybrid(_)))
    }

    /// Extract the shared feature vector — the *only* extraction the set
    /// ever performs for one URL.
    fn extract_once(&self, url: &str, scratch: &mut ExtractScratch) -> Option<SparseVector> {
        if !self.needs_vector() {
            return None;
        }
        let extractor = self
            .extractor
            .as_ref()
            .expect("invariant: vector scorers imply a shared extractor");
        Some(extractor.transform_with(url, scratch))
    }

    /// The five per-language scores for one URL (`None` for languages
    /// without a classifier), extracting features exactly once. Routes
    /// through the compiled plane when one is active.
    pub fn score_all(&self, url: &str) -> [Option<f64>; 5] {
        self.score_all_with(url, &mut ExtractScratch::new())
    }

    /// [`LanguageClassifierSet::score_all`] with a caller-owned scratch
    /// (the zero-allocation batch path).
    pub fn score_all_with(&self, url: &str, scratch: &mut ExtractScratch) -> [Option<f64>; 5] {
        match &self.compiled {
            Some(plane) => self.score_all_compiled(plane, url, scratch),
            None => self.score_all_interpreted_with(url, scratch),
        }
    }

    /// The interpreted scoring path, regardless of any compiled plane —
    /// the differential-testing oracle the compiled plane is checked
    /// against (decisions must match exactly, scores within 1e-12; in
    /// fact the plane replays the identical float operations).
    pub fn score_all_interpreted(&self, url: &str) -> [Option<f64>; 5] {
        self.score_all_interpreted_with(url, &mut ExtractScratch::new())
    }

    fn score_all_interpreted_with(
        &self,
        url: &str,
        scratch: &mut ExtractScratch,
    ) -> [Option<f64>; 5] {
        let vector = self.extract_once(url, scratch);
        self.score_interpreted_from_vector(url, vector.as_ref())
    }

    /// The interpreted scoring pass over an already-extracted vector
    /// (shared by the plain and stage-timed entry points, so both run
    /// the identical float operations).
    fn score_interpreted_from_vector(
        &self,
        url: &str,
        vector: Option<&SparseVector>,
    ) -> [Option<f64>; 5] {
        let mut out = [None; 5];
        for (i, scorer) in self.scorers.iter().enumerate() {
            if let Some(scorer) = scorer {
                out[i] = Some(match scorer {
                    LanguageScorer::Vector(model) => {
                        model.score(vector.expect("vector extracted above"))
                    }
                    LanguageScorer::Url(classifier) => classifier.score_url(url),
                    LanguageScorer::Hybrid(classifier) => {
                        classifier.score_hybrid(url, vector.expect("vector extracted above"))
                    }
                });
            }
        }
        out
    }

    /// Extract through the plane's interned vocabulary (falling back to
    /// the shared extractor for non-lowerable extractors), when any
    /// scorer needs the vector. The interned path fills and then takes
    /// `scratch.vector` — callers hand the vector back through
    /// [`LanguageClassifierSet::return_vector`] so its storage is
    /// reused across URLs (the zero-allocation steady state).
    fn extract_compiled(
        &self,
        plane: &CompiledPlane,
        url: &str,
        scratch: &mut ExtractScratch,
    ) -> Option<SparseVector> {
        if !self.needs_vector() {
            return None;
        }
        Some(match plane.transform() {
            Some(transform) => {
                transform.extract_into(url, scratch);
                std::mem::take(&mut scratch.vector)
            }
            None => self
                .extractor
                .as_ref()
                .expect("invariant: vector scorers imply a shared extractor")
                .transform_with(url, scratch),
        })
    }

    /// Give the extracted vector's storage back to the scratch (see
    /// [`LanguageClassifierSet::extract_compiled`]).
    fn return_vector(scratch: &mut ExtractScratch, vector: Option<SparseVector>) {
        if let Some(vector) = vector {
            scratch.vector = vector;
        }
    }

    /// The compiled scoring path: extract once through the interned
    /// vocabulary, run the fused pass, then score the remaining
    /// (non-lowered) languages through their boxed scorers.
    fn score_all_compiled(
        &self,
        plane: &CompiledPlane,
        url: &str,
        scratch: &mut ExtractScratch,
    ) -> [Option<f64>; 5] {
        let vector = self.extract_compiled(plane, url, scratch);
        let out = self.score_compiled_from_vector(plane, url, vector.as_ref());
        Self::return_vector(scratch, vector);
        out
    }

    /// The compiled scoring passes over an already-extracted vector:
    /// the fused pass, then boxed fallbacks. Shared by the plain and
    /// stage-timed entry points so both run the identical float
    /// operations.
    fn score_compiled_from_vector(
        &self,
        plane: &CompiledPlane,
        url: &str,
        vector: Option<&SparseVector>,
    ) -> [Option<f64>; 5] {
        let mut out = [None; 5];
        if let Some(vector) = vector {
            plane.score_vectors(vector, &mut out);
        }
        for (i, scorer) in self.scorers.iter().enumerate() {
            if out[i].is_none() {
                if let Some(scorer) = scorer {
                    out[i] = Some(match scorer {
                        LanguageScorer::Vector(model) => {
                            model.score(vector.expect("vector extracted above"))
                        }
                        LanguageScorer::Url(classifier) => classifier.score_url(url),
                        LanguageScorer::Hybrid(classifier) => {
                            classifier.score_hybrid(url, vector.expect("vector extracted above"))
                        }
                    });
                }
            }
        }
        out
    }

    /// [`LanguageClassifierSet::score_all_with`], additionally reporting
    /// how the call's wall clock divided between feature extraction and
    /// scoring (the serve layer's per-stage histograms). Scores are
    /// bit-identical to the untimed path — both route through the same
    /// extraction and scoring helpers; only two `Instant` reads are
    /// added, and nothing allocates beyond the untimed path.
    pub fn score_all_with_split(
        &self,
        url: &str,
        scratch: &mut ExtractScratch,
    ) -> ([Option<f64>; 5], ScoreSplit) {
        let t0 = std::time::Instant::now();
        match &self.compiled {
            Some(plane) => {
                let vector = self.extract_compiled(plane, url, scratch);
                let t1 = std::time::Instant::now();
                let out = self.score_compiled_from_vector(plane, url, vector.as_ref());
                let split = ScoreSplit {
                    extract_nanos: duration_nanos(t1.duration_since(t0)),
                    score_nanos: duration_nanos(t1.elapsed()),
                };
                Self::return_vector(scratch, vector);
                (out, split)
            }
            None => {
                let vector = self.extract_once(url, scratch);
                let t1 = std::time::Instant::now();
                let out = self.score_interpreted_from_vector(url, vector.as_ref());
                let split = ScoreSplit {
                    extract_nanos: duration_nanos(t1.duration_since(t0)),
                    score_nanos: duration_nanos(t1.elapsed()),
                };
                (out, split)
            }
        }
    }

    /// The five independent binary decisions for a URL, in canonical
    /// language order, extracting features exactly once. Missing
    /// classifiers answer `false`. Routes through the compiled plane
    /// when one is active.
    pub fn classify_all(&self, url: &str) -> [bool; 5] {
        self.classify_all_with(url, &mut ExtractScratch::new())
    }

    /// [`LanguageClassifierSet::classify_all`] with a caller-owned scratch.
    pub fn classify_all_with(&self, url: &str, scratch: &mut ExtractScratch) -> [bool; 5] {
        match &self.compiled {
            Some(plane) => self.classify_all_compiled(plane, url, scratch),
            None => self.classify_all_interpreted_with(url, scratch),
        }
    }

    /// The interpreted decision path (see
    /// [`LanguageClassifierSet::score_all_interpreted`]).
    pub fn classify_all_interpreted(&self, url: &str) -> [bool; 5] {
        self.classify_all_interpreted_with(url, &mut ExtractScratch::new())
    }

    fn classify_all_interpreted_with(&self, url: &str, scratch: &mut ExtractScratch) -> [bool; 5] {
        let vector = self.extract_once(url, scratch);
        let mut out = [false; 5];
        for (i, scorer) in self.scorers.iter().enumerate() {
            if let Some(scorer) = scorer {
                out[i] = match scorer {
                    LanguageScorer::Vector(model) => {
                        model.classify(vector.as_ref().expect("vector extracted above"))
                    }
                    LanguageScorer::Url(classifier) => classifier.classify_url(url),
                    LanguageScorer::Hybrid(classifier) => {
                        classifier
                            .score_hybrid(url, vector.as_ref().expect("vector extracted above"))
                            > 0.0
                    }
                };
            }
        }
        out
    }

    fn classify_all_compiled(
        &self,
        plane: &CompiledPlane,
        url: &str,
        scratch: &mut ExtractScratch,
    ) -> [bool; 5] {
        let vector = self.extract_compiled(plane, url, scratch);
        let mut scores = [None; 5];
        if let Some(vector) = &vector {
            plane.score_vectors(vector, &mut scores);
        }
        let mut out = [false; 5];
        for (i, scorer) in self.scorers.iter().enumerate() {
            if let Some(scorer) = scorer {
                out[i] = match scores[i] {
                    // Fused scores are bit-identical to interpreted, and
                    // every lowered algorithm's decision is the sign of
                    // its score (the crate-wide convention).
                    Some(score) => score > 0.0,
                    // Non-lowered languages decide exactly as the
                    // interpreted path does.
                    None => match scorer {
                        LanguageScorer::Vector(model) => {
                            model.classify(vector.as_ref().expect("vector extracted above"))
                        }
                        LanguageScorer::Url(classifier) => classifier.classify_url(url),
                        LanguageScorer::Hybrid(classifier) => {
                            classifier
                                .score_hybrid(url, vector.as_ref().expect("vector extracted above"))
                                > 0.0
                        }
                    },
                };
            }
        }
        Self::return_vector(scratch, vector);
        out
    }

    /// One-off extraction for the single-language entry points: through
    /// the plane's interned vocabulary when compiled, the shared
    /// extractor otherwise — the vectors are identical either way, so
    /// single-language answers stay bit-identical to the multi-label
    /// path while scoring only the one requested model.
    fn extract_single(&self, url: &str) -> SparseVector {
        match self.compiled.as_ref().and_then(|plane| plane.transform()) {
            Some(transform) => transform.extract(url, &mut ExtractScratch::new()),
            None => self.shared_extractor().transform(url),
        }
    }

    /// The single binary decision "is this URL in `lang`?" (extracts at
    /// most once and scores only `lang`'s model; `false` when no
    /// classifier is present).
    pub fn classify(&self, url: &str, lang: Language) -> bool {
        match self.scorers[lang.index()].as_ref() {
            None => false,
            Some(LanguageScorer::Url(classifier)) => classifier.classify_url(url),
            Some(LanguageScorer::Vector(model)) => model.classify(&self.extract_single(url)),
            Some(LanguageScorer::Hybrid(classifier)) => {
                classifier.score_hybrid(url, &self.extract_single(url)) > 0.0
            }
        }
    }

    /// The real-valued score of `lang` for the URL, if a classifier is
    /// present (extracts at most once and scores only `lang`'s model).
    pub fn score(&self, url: &str, lang: Language) -> Option<f64> {
        match self.scorers[lang.index()].as_ref() {
            None => None,
            Some(LanguageScorer::Url(classifier)) => Some(classifier.score_url(url)),
            Some(LanguageScorer::Vector(model)) => Some(model.score(&self.extract_single(url))),
            Some(LanguageScorer::Hybrid(classifier)) => {
                Some(classifier.score_hybrid(url, &self.extract_single(url)))
            }
        }
    }

    fn shared_extractor(&self) -> &dyn FeatureExtractor {
        self.extractor
            .as_ref()
            .expect("invariant: vector/hybrid scorers imply a shared extractor")
            .as_ref()
    }

    /// The set of languages whose binary classifier accepted the URL
    /// (possibly empty, possibly more than one — exactly as in the paper).
    pub fn languages_of(&self, url: &str) -> Vec<Language> {
        let decisions = self.classify_all(url);
        ALL_LANGUAGES
            .iter()
            .copied()
            .filter(|l| decisions[l.index()])
            .collect()
    }

    /// The single most likely language: the highest score over all
    /// classifiers. Because scores obey the sign convention (positive ⇔
    /// accepted), this is the highest-scoring *accepting* classifier
    /// whenever any accepts, and the least-bad fallback otherwise —
    /// exactly the paper's rule. Returns `None` for an empty set.
    pub fn best_language(&self, url: &str) -> Option<Language> {
        Self::best_of(&self.score_all(url))
    }

    /// Pick the best language from a score array (ties resolve to the
    /// later language in canonical order, matching the historical
    /// `max_by` behaviour).
    pub fn best_of(scores: &[Option<f64>; 5]) -> Option<Language> {
        let mut best: Option<(Language, f64)> = None;
        for lang in ALL_LANGUAGES {
            if let Some(score) = scores[lang.index()] {
                match best {
                    Some((_, incumbent)) if incumbent > score => {}
                    _ => best = Some((lang, score)),
                }
            }
        }
        best.map(|(lang, _)| lang)
    }

    /// Batch [`LanguageClassifierSet::classify_all`]: one extraction per
    /// URL, URLs fanned out over all CPU cores, zero per-URL tokenisation
    /// allocations.
    pub fn classify_batch(&self, urls: &[&str]) -> Vec<[bool; 5]> {
        par_map(urls, |url, scratch| self.classify_all_with(url, scratch))
    }

    /// Batch [`LanguageClassifierSet::score_all`].
    pub fn score_batch(&self, urls: &[&str]) -> Vec<[Option<f64>; 5]> {
        par_map(urls, |url, scratch| self.score_all_with(url, scratch))
    }

    /// Batch [`LanguageClassifierSet::best_language`].
    pub fn best_language_batch(&self, urls: &[&str]) -> Vec<Option<Language>> {
        par_map(urls, |url, scratch| {
            Self::best_of(&self.score_all_with(url, scratch))
        })
    }
}

/// Below this many URLs a sequential loop beats thread start-up.
const PARALLEL_THRESHOLD: usize = 256;

/// Map `f` over the URLs with one scratch per worker thread, preserving
/// input order. Uses scoped threads (the workspace has no rayon — the
/// build container lacks crates.io access).
fn par_map<T, F>(urls: &[&str], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&str, &mut ExtractScratch) -> T + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(urls.len().max(1));
    if threads <= 1 || urls.len() < PARALLEL_THRESHOLD {
        let mut scratch = ExtractScratch::new();
        return urls.iter().map(|url| f(url, &mut scratch)).collect();
    }
    let chunk_size = urls.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = urls
            .chunks(chunk_size)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut scratch = ExtractScratch::new();
                    chunk
                        .iter()
                        .map(|url| f(url, &mut scratch))
                        .collect::<Vec<T>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("classification worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cctld::CcTldClassifier;
    use urlid_features::{LabeledUrl, WordFeatureExtractor};

    fn cctld_set() -> LanguageClassifierSet {
        LanguageClassifierSet::build(|lang| Box::new(CcTldClassifier::cctld(lang)))
    }

    /// A trivial vector model accepting any non-empty vector.
    struct NonEmpty;
    impl VectorClassifier for NonEmpty {
        fn score(&self, features: &SparseVector) -> f64 {
            features.sum() - 0.5
        }
    }

    fn fitted_extractor() -> Arc<dyn FeatureExtractor> {
        let mut ex = WordFeatureExtractor::default();
        ex.fit(&[LabeledUrl::new(
            "http://a.de/wetter/bericht",
            Language::German,
        )]);
        Arc::new(ex)
    }

    #[test]
    fn build_covers_all_languages() {
        let set = cctld_set();
        assert_eq!(set.len(), 5);
        assert!(!set.is_empty());
        for lang in ALL_LANGUAGES {
            assert!(set.contains(lang));
            assert!(set.scorer(lang).is_some());
        }
    }

    #[test]
    fn classify_all_gives_independent_decisions() {
        let set = cctld_set();
        let de = set.classify_all("http://www.beispiel.de/");
        assert!(de[Language::German.index()]);
        assert_eq!(de.iter().filter(|&&b| b).count(), 1);
        let com = set.classify_all("http://www.example.com/");
        assert_eq!(com, [false; 5]);
    }

    #[test]
    fn languages_of_lists_accepting_classifiers() {
        let set = cctld_set();
        assert_eq!(
            set.languages_of("http://www.esempio.it/"),
            vec![Language::Italian]
        );
        assert!(set.languages_of("http://www.example.com/").is_empty());
    }

    #[test]
    fn best_language_falls_back_to_scores() {
        let set = cctld_set();
        assert_eq!(
            set.best_language("http://www.ejemplo.es/"),
            Some(Language::Spanish)
        );
        // No classifier accepts .com; best_language still returns something.
        assert!(set.best_language("http://www.example.com/").is_some());
        assert_eq!(
            LanguageClassifierSet::new().best_language("http://x.de/"),
            None
        );
    }

    #[test]
    fn empty_and_partial_sets() {
        let mut set = LanguageClassifierSet::new();
        assert!(set.is_empty());
        assert_eq!(set.classify_all("http://a.de/"), [false; 5]);
        set.insert(
            Language::German,
            Box::new(CcTldClassifier::cctld(Language::German)),
        );
        assert_eq!(set.len(), 1);
        assert!(set.classify_all("http://a.de/")[Language::German.index()]);
        assert!(!set.contains(Language::French));
    }

    #[test]
    fn multiple_languages_can_accept_simultaneously() {
        // Deliberate overlap: English uses the German ccTLD table too.
        let mut set = LanguageClassifierSet::new();
        set.insert(
            Language::English,
            Box::new(CcTldClassifier::cctld(Language::German)),
        );
        set.insert(
            Language::German,
            Box::new(CcTldClassifier::cctld(Language::German)),
        );
        let langs = set.languages_of("http://www.beispiel.de/");
        assert_eq!(langs.len(), 2);
    }

    #[test]
    fn vector_and_url_scorers_mix_in_one_set() {
        let mut set = LanguageClassifierSet::with_extractor(fitted_extractor());
        set.insert_model(Language::German, Box::new(NonEmpty));
        set.insert(
            Language::Italian,
            Box::new(CcTldClassifier::cctld(Language::Italian)),
        );
        // "wetter" is in the vocabulary -> German accepts.
        let d = set.classify_all("http://x.com/wetter");
        assert!(d[Language::German.index()]);
        assert!(!d[Language::Italian.index()]);
        let d = set.classify_all("http://www.esempio.it/");
        assert!(!d[Language::German.index()]);
        assert!(d[Language::Italian.index()]);
        assert!(set.vector_model(Language::German).is_some());
        assert!(set.vector_model(Language::Italian).is_none());
        assert!(set.extractor().is_some());
    }

    #[test]
    #[should_panic(expected = "insert_model requires a shared extractor")]
    fn insert_model_without_extractor_panics() {
        let mut set = LanguageClassifierSet::new();
        set.insert_model(Language::German, Box::new(NonEmpty));
    }

    /// Accepts when the URL has a ".de" TLD *or* the shared word vector
    /// is non-empty — exercises both halves of the hybrid seam.
    struct TldOrVector;
    impl HybridClassifier for TldOrVector {
        fn score_hybrid(&self, url: &str, shared: &SparseVector) -> f64 {
            let tld: f64 = if url.contains(".de") { 1.0 } else { -1.0 };
            tld.max(shared.sum() - 0.5)
        }
    }

    #[test]
    fn hybrid_scorers_see_url_and_shared_vector() {
        let mut set = LanguageClassifierSet::with_extractor(fitted_extractor());
        set.insert_hybrid(Language::German, Box::new(TldOrVector));
        // Accepted via the URL half (no vocabulary words).
        assert!(set.classify_all("http://unknown.de/xyz")[Language::German.index()]);
        // Accepted via the vector half ("wetter" is in the vocabulary).
        assert!(set.classify_all("http://other.com/wetter")[Language::German.index()]);
        // Neither half fires.
        assert!(!set.classify_all("http://other.com/xyz")[Language::German.index()]);
        // Single-language queries and scores agree with the multi-label
        // path, and the sign convention holds.
        for url in ["http://unknown.de/xyz", "http://other.com/wetter"] {
            assert_eq!(
                set.classify(url, Language::German),
                set.classify_all(url)[Language::German.index()]
            );
            assert_eq!(
                set.score(url, Language::German),
                set.score_all(url)[Language::German.index()]
            );
            assert!(set.score(url, Language::German).unwrap() > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "insert_hybrid requires a shared extractor")]
    fn insert_hybrid_without_extractor_panics() {
        let mut set = LanguageClassifierSet::new();
        set.insert_hybrid(Language::German, Box::new(TldOrVector));
    }

    #[test]
    fn single_language_queries_agree_with_classify_all() {
        let mut set = LanguageClassifierSet::with_extractor(fitted_extractor());
        set.insert_model(Language::German, Box::new(NonEmpty));
        for url in ["http://a.de/wetter", "http://b.xyz/nothing"] {
            let all = set.classify_all(url);
            let scores = set.score_all(url);
            for lang in ALL_LANGUAGES {
                assert_eq!(set.classify(url, lang), all[lang.index()], "{url} {lang}");
                assert_eq!(set.score(url, lang), scores[lang.index()], "{url} {lang}");
            }
        }
    }

    #[test]
    fn scores_obey_sign_convention() {
        let set = cctld_set();
        for url in [
            "http://www.beispiel.de/",
            "http://www.example.com/",
            "http://www.esempio.it/pagina",
        ] {
            let decisions = set.classify_all(url);
            let scores = set.score_all(url);
            for lang in ALL_LANGUAGES {
                assert_eq!(
                    decisions[lang.index()],
                    scores[lang.index()].unwrap() > 0.0,
                    "{url} {lang}"
                );
            }
        }
    }

    #[test]
    fn batch_agrees_with_sequential_and_preserves_order() {
        let mut set = LanguageClassifierSet::with_extractor(fitted_extractor());
        set.insert_model(Language::German, Box::new(NonEmpty));
        // More URLs than the parallel threshold to exercise the threaded
        // path.
        let owned: Vec<String> = (0..600)
            .map(|i| {
                if i % 3 == 0 {
                    format!("http://site{i}.de/wetter")
                } else {
                    format!("http://site{i}.com/page")
                }
            })
            .collect();
        let urls: Vec<&str> = owned.iter().map(|s| s.as_str()).collect();
        let batch = set.classify_batch(&urls);
        let best = set.best_language_batch(&urls);
        let scores = set.score_batch(&urls);
        assert_eq!(batch.len(), urls.len());
        for (i, url) in urls.iter().enumerate() {
            assert_eq!(batch[i], set.classify_all(url), "{url}");
            assert_eq!(best[i], set.best_language(url), "{url}");
            assert_eq!(scores[i], set.score_all(url), "{url}");
        }
    }
}
