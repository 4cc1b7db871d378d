//! Word (token) features — Section 3.1, "Words as features".
//!
//! Each distinct token observed in the training URLs becomes one feature
//! dimension; the value of a dimension for a given URL is the number of
//! times the token occurs in that URL. Out-of-vocabulary tokens at test
//! time are dropped. Algorithms using word features "keep counters for the
//! number of times a certain token is seen in the URLs of a given
//! language", learning for example that `cnn` or `gov` indicate English
//! while `produits` or `recherche` indicate French.
//!
//! When a training example carries page content (Section 7), the content
//! is tokenised with the same tokenizer and its tokens are added to the
//! training-time feature vector — the paper's "artificial lengthening of
//! the URL".

use crate::compiled::CompiledTransform;
use crate::dataset::LabeledUrl;
use crate::extractor::{FeatureExtractor, FeatureSetKind, ShardedFit};
use crate::intern::InternedVocabulary;
use crate::scratch::ExtractScratch;
use crate::vector::SparseVector;
use crate::vocabulary::{Vocabulary, VocabularyBuilder};
use serde::Serialize;
use urlid_tokenize::Tokenizer;

/// Configuration for the word feature extractor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WordFeatureConfig {
    /// Minimum number of training occurrences for a token to enter the
    /// vocabulary (1 keeps every token, matching the paper).
    pub min_count: u64,
    /// Whether to use page content of training examples when available
    /// (the Section 7 experiment).
    pub use_training_content: bool,
}

impl Default for WordFeatureConfig {
    fn default() -> Self {
        Self {
            min_count: 1,
            use_training_content: false,
        }
    }
}

/// Word-feature extractor.
///
/// ```
/// use urlid_features::{FeatureExtractor, LabeledUrl, WordFeatureExtractor};
/// use urlid_lexicon::Language;
///
/// let training = vec![
///     LabeledUrl::new("http://www.recherche-produits.fr/", Language::French),
///     LabeledUrl::new("http://www.weather-news.co.uk/", Language::English),
/// ];
/// let mut ex = WordFeatureExtractor::default();
/// ex.fit(&training);
/// let v = ex.transform("http://www.recherche.fr/produits");
/// assert!(v.sum() >= 3.0); // recherche, fr, produits all in vocabulary
/// ```
#[derive(Debug, Clone, Default, Serialize)]
pub struct WordFeatureExtractor {
    config: WordFeatureConfig,
    vocabulary: Vocabulary,
    tokenizer: Tokenizer,
}

impl WordFeatureExtractor {
    /// Create an extractor with the given configuration.
    pub fn new(config: WordFeatureConfig) -> Self {
        Self {
            config,
            vocabulary: Vocabulary::new(),
            tokenizer: Tokenizer::default(),
        }
    }

    /// Create an extractor that also uses training-example page content
    /// when present (Section 7 of the paper).
    pub fn with_training_content() -> Self {
        Self::new(WordFeatureConfig {
            use_training_content: true,
            ..WordFeatureConfig::default()
        })
    }

    /// The learnt vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocabulary
    }

    /// Tokens of a training example (URL tokens plus, if enabled and
    /// available, content tokens).
    fn training_tokens(&self, example: &LabeledUrl) -> Vec<String> {
        let mut tokens = self.tokenizer.tokenize(&example.url);
        if self.config.use_training_content {
            if let Some(content) = &example.content {
                tokens.extend(self.tokenizer.tokenize(content));
            }
        }
        tokens
    }

    fn vector_of_tokens(&self, tokens: &[String]) -> SparseVector {
        SparseVector::from_counts(tokens.iter().filter_map(|t| self.vocabulary.get(t)))
    }
}

impl FeatureExtractor for WordFeatureExtractor {
    fn fit(&mut self, training: &[LabeledUrl]) {
        let counts = self.observe_shard(training);
        self.finish_fit(Some(counts));
    }

    fn transform(&self, url: &str) -> SparseVector {
        let tokens = self.tokenizer.tokenize(url);
        self.vector_of_tokens(&tokens)
    }

    fn transform_with(&self, url: &str, scratch: &mut ExtractScratch) -> SparseVector {
        let ExtractScratch { token, indices, .. } = scratch;
        indices.clear();
        self.tokenizer.for_each_token(url, token, |tok| {
            if let Some(i) = self.vocabulary.get(tok) {
                indices.push(i);
            }
        });
        SparseVector::from_index_buffer(indices)
    }

    fn transform_training(&self, example: &LabeledUrl) -> SparseVector {
        let tokens = self.training_tokens(example);
        self.vector_of_tokens(&tokens)
    }

    fn compile_transform(&self) -> Option<CompiledTransform> {
        Some(CompiledTransform::Words {
            vocab: InternedVocabulary::from_vocabulary(&self.vocabulary),
            tokenizer: self.tokenizer.clone(),
        })
    }

    fn dim(&self) -> usize {
        self.vocabulary.len()
    }

    fn feature_name(&self, index: u32) -> Option<String> {
        self.vocabulary.name(index).map(|s| format!("word:{s}"))
    }

    fn kind(&self) -> FeatureSetKind {
        FeatureSetKind::Words
    }
}

impl ShardedFit for WordFeatureExtractor {
    type Partial = VocabularyBuilder;

    fn observe_shard(&self, shard: &[LabeledUrl]) -> VocabularyBuilder {
        let mut builder = VocabularyBuilder::new(self.config.min_count);
        for example in shard {
            builder.observe_all(self.training_tokens(example));
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
            LabeledUrl::new("http://www.wetter-online.de/berlin", Language::German),
            LabeledUrl::new("http://www.weather.co.uk/london", Language::English),
            LabeledUrl::new("http://www.meteo.fr/paris", Language::French),
        ]
    }

    #[test]
    fn fit_builds_vocabulary_from_tokens() {
        let mut ex = WordFeatureExtractor::default();
        ex.fit(&training());
        // www/http are filtered, so the vocabulary only has real tokens.
        assert!(ex.vocabulary().get("wetter").is_some());
        assert!(ex.vocabulary().get("weather").is_some());
        assert!(ex.vocabulary().get("www").is_none());
        assert!(ex.vocabulary().get("http").is_none());
        assert_eq!(ex.kind(), FeatureSetKind::Words);
        assert!(ex.dim() >= 10);
    }

    #[test]
    fn transform_counts_token_occurrences() {
        let mut ex = WordFeatureExtractor::default();
        ex.fit(&training());
        let v = ex.transform("http://berlin.de/berlin/wetter");
        let berlin_idx = ex.vocabulary().get("berlin").unwrap();
        assert_eq!(v.get(berlin_idx), 2.0);
        let wetter_idx = ex.vocabulary().get("wetter").unwrap();
        assert_eq!(v.get(wetter_idx), 1.0);
    }

    #[test]
    fn out_of_vocabulary_tokens_are_dropped() {
        let mut ex = WordFeatureExtractor::default();
        ex.fit(&training());
        let v = ex.transform("http://totallyunseen.example.xyz/nothing");
        // "de" etc. not present; none of these tokens were in training.
        assert!(v.is_empty());
    }

    #[test]
    fn unfitted_extractor_returns_empty_vectors() {
        let ex = WordFeatureExtractor::default();
        assert_eq!(ex.dim(), 0);
        assert!(ex.transform("http://www.example.de/").is_empty());
    }

    #[test]
    fn min_count_prunes_hapax_tokens() {
        let mut ex = WordFeatureExtractor::new(WordFeatureConfig {
            min_count: 2,
            use_training_content: false,
        });
        let mut data = training();
        data.push(LabeledUrl::new("http://www.wetter.de/", Language::German));
        ex.fit(&data);
        assert!(ex.vocabulary().get("wetter").is_some(), "seen twice");
        assert!(ex.vocabulary().get("meteo").is_none(), "seen once");
    }

    #[test]
    fn training_content_expands_vocabulary_only_when_enabled() {
        let data = vec![LabeledUrl::with_content(
            "http://www.page.de/",
            Language::German,
            "heute scheint die sonne",
        )];
        let mut plain = WordFeatureExtractor::default();
        plain.fit(&data);
        assert!(plain.vocabulary().get("sonne").is_none());

        let mut with_content = WordFeatureExtractor::with_training_content();
        with_content.fit(&data);
        assert!(with_content.vocabulary().get("sonne").is_some());
        // transform (test time) still only sees the URL.
        let v = with_content.transform("http://www.page.de/");
        let sonne = with_content.vocabulary().get("sonne").unwrap();
        assert_eq!(v.get(sonne), 0.0);
        // transform_training sees URL + content.
        let tv = with_content.transform_training(&data[0]);
        assert_eq!(tv.get(sonne), 1.0);
    }

    #[test]
    fn feature_names_are_prefixed() {
        let mut ex = WordFeatureExtractor::default();
        ex.fit(&training());
        let idx = ex.vocabulary().get("paris").unwrap();
        assert_eq!(ex.feature_name(idx).unwrap(), "word:paris");
        assert!(ex.feature_name(10_000).is_none());
    }
}
