//! Compiled feature transforms — the extraction half of the compiled
//! scoring plane.
//!
//! A [`CompiledTransform`] is the runtime form of a fitted extractor.
//! For word and trigram features it is the same tokenizer with the
//! vocabulary interned into an [`InternedVocabulary`], so that
//! token→feature-id resolution is a zero-allocation `&[u8]` probe
//! instead of a `HashMap<String, u32>` lookup. For the custom features
//! it is a [`CompiledCustom`]: every dictionary word the feature set
//! reads interned into one table of per-language membership bits, walked
//! once per URL. [`CompiledTransform::extract`] produces **exactly** the
//! same [`SparseVector`] as the source extractor's
//! [`crate::FeatureExtractor::transform_with`] — the compiled plane's
//! correctness contract starts here.
//!
//! Extractors opt in through
//! [`crate::FeatureExtractor::compile_transform`]; extractors that do
//! not lower (the raw-URL trigram ablation, instrumented test wrappers)
//! return `None` and keep being called through the trait object.

use crate::custom::CompiledCustom;
use crate::extractor::FeatureSetKind;
use crate::intern::InternedVocabulary;
use crate::scratch::ExtractScratch;
use crate::vector::SparseVector;
use urlid_tokenize::{ngram, Tokenizer};

/// A compiled word, trigram or custom feature transform.
#[derive(Debug, Clone)]
pub enum CompiledTransform {
    /// Word features: one vocabulary probe per token.
    Words {
        /// The interned word vocabulary.
        vocab: InternedVocabulary,
        /// The tokenizer the extractor was fitted with.
        tokenizer: Tokenizer,
    },
    /// Within-token n-gram features: one probe per padded n-gram.
    Trigrams {
        /// The interned n-gram vocabulary.
        vocab: InternedVocabulary,
        /// The tokenizer the extractor was fitted with.
        tokenizer: Tokenizer,
        /// n-gram length (3 in the paper).
        n: usize,
    },
    /// Custom-made features: one table probe per letter run.
    Custom(CompiledCustom),
}

impl CompiledTransform {
    /// Dimensionality of the compiled feature space (the vocabulary
    /// size for words and trigrams, 15 or 74 for custom features —
    /// matching the source extractor's `dim()`).
    pub fn dim(&self) -> usize {
        match self {
            CompiledTransform::Words { vocab, .. } => vocab.len(),
            CompiledTransform::Trigrams { vocab, .. } => vocab.len(),
            CompiledTransform::Custom(custom) => custom.dim(),
        }
    }

    /// Which feature family the transform implements.
    pub fn kind(&self) -> FeatureSetKind {
        match self {
            CompiledTransform::Words { .. } => FeatureSetKind::Words,
            CompiledTransform::Trigrams { .. } => FeatureSetKind::Trigrams,
            CompiledTransform::Custom(_) => FeatureSetKind::Custom,
        }
    }

    /// The vocabulary whose ids *are* the feature ids — what a `.urlm`
    /// file stores in its vocabulary sections. `None` for custom
    /// features, whose fixed feature space is not a vocabulary (their
    /// table is rebuilt from the extractor at load).
    pub fn feature_vocabulary(&self) -> Option<&InternedVocabulary> {
        match self {
            CompiledTransform::Words { vocab, .. } | CompiledTransform::Trigrams { vocab, .. } => {
                Some(vocab)
            }
            CompiledTransform::Custom(_) => None,
        }
    }

    /// Map a URL to its feature vector, reusing the caller's scratch
    /// buffers. Produces exactly the vector the source extractor's
    /// `transform_with` produces (asserted by this module's tests and by
    /// the workspace-level differential suite).
    pub fn extract(&self, url: &str, scratch: &mut ExtractScratch) -> SparseVector {
        self.extract_into(url, scratch);
        std::mem::take(&mut scratch.vector)
    }

    /// Like [`CompiledTransform::extract`], but the result lands in
    /// `scratch.vector` so its entry storage is reused across URLs: a
    /// warm extraction performs **zero heap allocations**, for every
    /// feature family.
    pub fn extract_into(&self, url: &str, scratch: &mut ExtractScratch) {
        match self {
            CompiledTransform::Words { vocab, tokenizer } => {
                let ExtractScratch {
                    token,
                    indices,
                    vector,
                    ..
                } = scratch;
                indices.clear();
                tokenizer.for_each_token(url, token, |tok| {
                    if let Some(i) = vocab.get(tok.as_bytes()) {
                        indices.push(i);
                    }
                });
                vector.refill_from_index_buffer(indices);
            }
            CompiledTransform::Trigrams {
                vocab,
                tokenizer,
                n,
            } => {
                let ExtractScratch {
                    padded,
                    indices,
                    vector,
                    ..
                } = scratch;
                indices.clear();
                for token in tokenizer.iter(url) {
                    ngram::for_each_token_ngram(token, *n, padded, |gram| {
                        if let Some(i) = vocab.get(gram.as_bytes()) {
                            indices.push(i);
                        }
                    });
                }
                vector.refill_from_index_buffer(indices);
            }
            CompiledTransform::Custom(custom) => custom.extract_into(url, scratch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::custom::CustomFeatureExtractor;
    use crate::dataset::LabeledUrl;
    use crate::extractor::FeatureExtractor;
    use crate::trigrams::TrigramFeatureExtractor;
    use crate::words::WordFeatureExtractor;
    use urlid_lexicon::Language;

    fn training() -> Vec<LabeledUrl> {
        vec![
            LabeledUrl::new("http://www.wetter-bericht.de/berlin", Language::German),
            LabeledUrl::new("http://www.weather-report.co.uk/london", Language::English),
            LabeledUrl::new("http://www.meteo-prevision.fr/paris", Language::French),
        ]
    }

    fn probe_urls() -> Vec<&'static str> {
        vec![
            "http://www.wetter.de/berlin/bericht",
            "http://Weather.CO.UK/London",
            "http://unseen.example.xyz/nothing",
            "http://192.168.0.1/index.html",
            "http://xn--mnchen-3ya.de/",
            "",
            "http://wetter.de/wetter/wetter", // repeated tokens
        ]
    }

    #[test]
    fn compiled_words_match_transform_with_exactly() {
        let mut ex = WordFeatureExtractor::default();
        ex.fit(&training());
        let compiled = ex.compile_transform().expect("words compile");
        assert_eq!(compiled.dim(), ex.dim());
        let mut s1 = ExtractScratch::new();
        let mut s2 = ExtractScratch::new();
        for url in probe_urls() {
            assert_eq!(
                compiled.extract(url, &mut s1),
                ex.transform_with(url, &mut s2),
                "{url}"
            );
        }
    }

    #[test]
    fn compiled_trigrams_match_transform_with_exactly() {
        let mut ex = TrigramFeatureExtractor::default();
        ex.fit(&training());
        let compiled = ex.compile_transform().expect("trigrams compile");
        assert_eq!(compiled.dim(), ex.dim());
        let mut s1 = ExtractScratch::new();
        let mut s2 = ExtractScratch::new();
        for url in probe_urls() {
            assert_eq!(
                compiled.extract(url, &mut s1),
                ex.transform_with(url, &mut s2),
                "{url}"
            );
        }
    }

    #[test]
    fn compiled_custom_matches_transform_exactly_for_both_sets() {
        for mut ex in [
            CustomFeatureExtractor::default(),
            CustomFeatureExtractor::full(),
        ] {
            ex.fit(&training());
            let compiled = ex.compile_transform().expect("custom compiles");
            assert_eq!(compiled.dim(), ex.dim());
            assert_eq!(compiled.kind(), FeatureSetKind::Custom);
            let mut scratch = ExtractScratch::new();
            for url in probe_urls().into_iter().chain([
                "HTTP://De.Wikipedia.ORG./Wiki/Berlin?Stadt=Paris#Top",
                "http://user:pw@fr.search.example.com:8080/recherche/de/",
                "http://wetter.example.COM",
                "https://www.example.gov/index.html?q=html",
                "http://shop.de-x/a-b-c/1-2",
                "no host here/but/paths?and=queries",
                "?only=query",
                "  http://padded.it/roma  ",
                "http://example.org:notaport/x//y/",
            ]) {
                compiled.extract_into(url, &mut scratch);
                assert_eq!(scratch.vector, ex.transform(url), "{url}");
            }
        }
    }

    #[test]
    fn raw_url_trigram_scope_does_not_compile() {
        let mut ex = TrigramFeatureExtractor::raw_url_scope();
        ex.fit(&training());
        assert!(
            ex.compile_transform().is_none(),
            "the raw-URL ablation stays interpreted"
        );
    }

    #[test]
    fn unfitted_extractors_compile_to_empty_transforms() {
        let ex = WordFeatureExtractor::default();
        let compiled = ex.compile_transform().unwrap();
        assert_eq!(compiled.dim(), 0);
        assert!(compiled
            .extract("http://a.de/wetter", &mut ExtractScratch::new())
            .is_empty());
    }
}
