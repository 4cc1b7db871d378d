//! Trigram features — Section 3.1, "Trigrams as features".
//!
//! A URL is tokenised exactly as for word features; padded character
//! trigrams are then derived from every token. A possible advantage over
//! full words is that trigrams can partly "understand" a language —
//! learning that `" th"` or `"ing"` are common in English generalises to
//! unseen tokens. The paper finds trigrams slightly weaker than words when
//! plenty of training data is available (they cannot memorise host names)
//! but *stronger* when training data is scarce (Section 6).
//!
//! The extractor also supports the raw-URL trigram variant the paper
//! leaves as future work (trigrams crossing token boundaries), selectable
//! via [`TrigramScope::RawUrl`] and exercised by the
//! `ablation_trigram_scope` bench.

use crate::compiled::CompiledTransform;
use crate::dataset::LabeledUrl;
use crate::extractor::{FeatureExtractor, FeatureSetKind, ShardedFit};
use crate::intern::InternedVocabulary;
use crate::scratch::ExtractScratch;
use crate::vector::SparseVector;
use crate::vocabulary::{Vocabulary, VocabularyBuilder};
use serde::Serialize;
use urlid_tokenize::{ngram, Tokenizer};

/// Whether trigrams are computed within tokens (the paper's choice) or
/// over the raw URL string (the alternative the paper mentions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum TrigramScope {
    /// Trigrams within tokens only (paper default).
    #[default]
    WithinTokens,
    /// Trigrams over the raw URL, crossing punctuation.
    RawUrl,
}

/// Configuration for the trigram feature extractor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TrigramFeatureConfig {
    /// n-gram length (3 in the paper; 2–5 supported for ablations).
    pub n: usize,
    /// Minimum number of training occurrences for an n-gram to enter the
    /// vocabulary.
    pub min_count: u64,
    /// Token-scoped or raw-URL-scoped n-grams.
    pub scope: TrigramScope,
    /// Whether to use page content of training examples when available.
    pub use_training_content: bool,
}

impl Default for TrigramFeatureConfig {
    fn default() -> Self {
        Self {
            n: 3,
            min_count: 1,
            scope: TrigramScope::WithinTokens,
            use_training_content: false,
        }
    }
}

/// Trigram-feature extractor.
///
/// ```
/// use urlid_features::{FeatureExtractor, LabeledUrl, TrigramFeatureExtractor};
/// use urlid_lexicon::Language;
///
/// let training = vec![
///     LabeledUrl::new("http://www.weather.co.uk/", Language::English),
/// ];
/// let mut ex = TrigramFeatureExtractor::default();
/// ex.fit(&training);
/// // "the" is a trigram of the token "weather".
/// let v = ex.transform("http://other.uk/weather");
/// assert!(v.sum() > 0.0);
/// ```
#[derive(Debug, Clone, Default, Serialize)]
pub struct TrigramFeatureExtractor {
    config: TrigramFeatureConfig,
    vocabulary: Vocabulary,
    tokenizer: Tokenizer,
}

impl TrigramFeatureExtractor {
    /// Create an extractor with the given configuration.
    pub fn new(config: TrigramFeatureConfig) -> Self {
        Self {
            config,
            vocabulary: Vocabulary::new(),
            tokenizer: Tokenizer::default(),
        }
    }

    /// Create an extractor computing trigrams over the raw URL (the
    /// alternative scheme of Section 3.1).
    pub fn raw_url_scope() -> Self {
        Self::new(TrigramFeatureConfig {
            scope: TrigramScope::RawUrl,
            ..TrigramFeatureConfig::default()
        })
    }

    /// Create an extractor that also uses training-example page content.
    pub fn with_training_content() -> Self {
        Self::new(TrigramFeatureConfig {
            use_training_content: true,
            ..TrigramFeatureConfig::default()
        })
    }

    /// The learnt vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocabulary
    }

    /// The n-grams of a piece of text (a URL or page content).
    fn grams_of_text(&self, text: &str) -> Vec<String> {
        match self.config.scope {
            TrigramScope::WithinTokens => {
                let mut out = Vec::new();
                for token in self.tokenizer.iter(text) {
                    out.extend(ngram::token_ngrams(
                        &token.to_ascii_lowercase(),
                        self.config.n,
                    ));
                }
                out
            }
            TrigramScope::RawUrl => ngram::url_trigrams(text),
        }
    }

    fn training_grams(&self, example: &LabeledUrl) -> Vec<String> {
        let mut grams = self.grams_of_text(&example.url);
        if self.config.use_training_content {
            if let Some(content) = &example.content {
                // Content is tokenised within tokens regardless of scope:
                // raw-URL scope only makes sense for URL strings.
                for token in self.tokenizer.iter(content) {
                    grams.extend(ngram::token_ngrams(
                        &token.to_ascii_lowercase(),
                        self.config.n,
                    ));
                }
            }
        }
        grams
    }

    fn vector_of_grams(&self, grams: &[String]) -> SparseVector {
        SparseVector::from_counts(grams.iter().filter_map(|g| self.vocabulary.get(g)))
    }
}

impl FeatureExtractor for TrigramFeatureExtractor {
    fn fit(&mut self, training: &[LabeledUrl]) {
        let counts = self.observe_shard(training);
        self.finish_fit(Some(counts));
    }

    fn transform(&self, url: &str) -> SparseVector {
        let grams = self.grams_of_text(url);
        self.vector_of_grams(&grams)
    }

    fn transform_with(&self, url: &str, scratch: &mut ExtractScratch) -> SparseVector {
        if self.config.scope != TrigramScope::WithinTokens {
            // The raw-URL ablation variant is not on the hot path.
            return self.transform(url);
        }
        let ExtractScratch {
            padded, indices, ..
        } = scratch;
        indices.clear();
        for token in self.tokenizer.iter(url) {
            ngram::for_each_token_ngram(token, self.config.n, padded, |gram| {
                if let Some(i) = self.vocabulary.get(gram) {
                    indices.push(i);
                }
            });
        }
        SparseVector::from_index_buffer(indices)
    }

    fn transform_training(&self, example: &LabeledUrl) -> SparseVector {
        let grams = self.training_grams(example);
        self.vector_of_grams(&grams)
    }

    fn compile_transform(&self) -> Option<CompiledTransform> {
        if self.config.scope != TrigramScope::WithinTokens {
            // The raw-URL ablation variant is not on the hot path.
            return None;
        }
        Some(CompiledTransform::Trigrams {
            vocab: InternedVocabulary::from_vocabulary(&self.vocabulary),
            tokenizer: self.tokenizer.clone(),
            n: self.config.n,
        })
    }

    fn dim(&self) -> usize {
        self.vocabulary.len()
    }

    fn feature_name(&self, index: u32) -> Option<String> {
        self.vocabulary
            .name(index)
            .map(|s| format!("{}gram:{:?}", self.config.n, s))
    }

    fn kind(&self) -> FeatureSetKind {
        FeatureSetKind::Trigrams
    }
}

impl ShardedFit for TrigramFeatureExtractor {
    type Partial = VocabularyBuilder;

    fn observe_shard(&self, shard: &[LabeledUrl]) -> VocabularyBuilder {
        let mut builder = VocabularyBuilder::new(self.config.min_count);
        for example in shard {
            builder.observe_all(self.training_grams(example));
        }
        builder
    }

    fn merge_partials(
        &self,
        mut acc: VocabularyBuilder,
        next: VocabularyBuilder,
    ) -> VocabularyBuilder {
        acc.merge(next);
        acc
    }

    fn finish_fit(&mut self, merged: Option<VocabularyBuilder>) {
        self.vocabulary = merged
            .unwrap_or_else(|| VocabularyBuilder::new(self.config.min_count))
            .build();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urlid_lexicon::Language;

    fn training() -> Vec<LabeledUrl> {
        vec![
            LabeledUrl::new("http://www.weather-today.co.uk/london", Language::English),
            LabeledUrl::new("http://www.wetterbericht.de/berlin", Language::German),
        ]
    }

    #[test]
    fn fit_learns_padded_trigrams() {
        let mut ex = TrigramFeatureExtractor::default();
        ex.fit(&training());
        assert!(ex.vocabulary().get("the").is_some(), "from 'weather'");
        assert!(ex.vocabulary().get(" we").is_some());
        assert!(ex.vocabulary().get("er ").is_some());
        assert!(ex.dim() > 20);
    }

    #[test]
    fn transform_counts_gram_occurrences() {
        let mut ex = TrigramFeatureExtractor::default();
        ex.fit(&training());
        let v = ex.transform("http://weather.uk/weather");
        let idx = ex.vocabulary().get("wea").unwrap();
        assert_eq!(v.get(idx), 2.0);
    }

    #[test]
    fn generalizes_to_unseen_tokens() {
        // The whole point of trigrams: an unseen token still produces
        // in-vocabulary grams.
        let mut ex = TrigramFeatureExtractor::default();
        ex.fit(&training());
        let v = ex.transform("http://example.com/leather"); // unseen token "leather"
        assert!(
            v.sum() > 0.0,
            "shared trigrams like 'the', 'her' should fire"
        );
    }

    #[test]
    fn raw_url_scope_crosses_token_boundaries() {
        let data = vec![LabeledUrl::new("http://www.hi-fly.de/", Language::German)];
        let mut within = TrigramFeatureExtractor::default();
        within.fit(&data);
        assert!(within.vocabulary().get("hi-").is_none());

        let mut raw = TrigramFeatureExtractor::raw_url_scope();
        raw.fit(&data);
        assert!(raw.vocabulary().get("hi-").is_some());
        assert_eq!(raw.kind(), FeatureSetKind::Trigrams);
    }

    #[test]
    fn bigram_configuration_works() {
        let mut ex = TrigramFeatureExtractor::new(TrigramFeatureConfig {
            n: 2,
            ..TrigramFeatureConfig::default()
        });
        ex.fit(&training());
        assert!(ex.vocabulary().get("we").is_some());
        assert!(ex.vocabulary().get("wea").is_none());
    }

    #[test]
    fn unfitted_extractor_is_empty() {
        let ex = TrigramFeatureExtractor::default();
        assert_eq!(ex.dim(), 0);
        assert!(ex.transform("http://www.example.de/").is_empty());
    }

    #[test]
    fn content_training_only_affects_training_vectors() {
        let data = vec![LabeledUrl::with_content(
            "http://www.shop.it/",
            Language::Italian,
            "benvenuti nella pagina",
        )];
        let mut ex = TrigramFeatureExtractor::with_training_content();
        ex.fit(&data);
        let ben = ex.vocabulary().get("ben").unwrap();
        assert_eq!(ex.transform("http://www.shop.it/").get(ben), 0.0);
        assert!(ex.transform_training(&data[0]).get(ben) > 0.0);
    }

    #[test]
    fn feature_names_include_gram() {
        let mut ex = TrigramFeatureExtractor::default();
        ex.fit(&training());
        let idx = ex.vocabulary().get("the").unwrap();
        assert_eq!(ex.feature_name(idx).unwrap(), "3gram:\"the\"");
    }
}
