//! Extractors restored from the `.urlm` binary model format.
//!
//! A packed word or trigram model does not persist the training-time
//! extractor (a `HashMap<String, u32>` vocabulary that would need
//! re-hashing at load): it persists the [`CompiledTransform`]'s arrays
//! and rebuilds extraction on top of them. [`RestoredExtractor`] is the
//! thin [`FeatureExtractor`] adapter over such a transform, so a
//! binary-loaded classifier set keeps the full extractor API —
//! `transform` for the interpreted oracle, `compile_transform` for the
//! plane — while sharing the zero-copy interned vocabulary.
//!
//! Custom-feature models never come through here: their extractor (the
//! trained dictionaries) travels whole in the file's META section, and
//! its compiled table is rebuilt from it at load.
//!
//! The compiled transform is proven bit-identical to the source
//! extractor's `transform_with` (module tests in [`crate::compiled`]
//! plus the workspace differential suite), which is what makes a
//! `.urlm`-loaded model indistinguishable from the trained one it was
//! packed from.

use crate::compiled::CompiledTransform;
use crate::dataset::LabeledUrl;
use crate::extractor::{FeatureExtractor, FeatureSetKind};
use crate::intern::InternedVocabulary;
use crate::scratch::ExtractScratch;
use crate::vector::SparseVector;
use serde::{Deserialize, Serialize};
use urlid_tokenize::Tokenizer;

/// The serialisable part of a [`CompiledTransform`] — everything except
/// the interned vocabulary, which the `.urlm` format stores as raw
/// sections. Lives in the format's META JSON.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum TransformMeta {
    /// Word features: one vocabulary probe per token.
    Words {
        /// The tokenizer the extractor was fitted with.
        tokenizer: Tokenizer,
    },
    /// Within-token n-gram features.
    Trigrams {
        /// The tokenizer the extractor was fitted with.
        tokenizer: Tokenizer,
        /// n-gram length (3 in the paper).
        n: usize,
    },
}

impl TransformMeta {
    /// Extract the meta of a word or trigram transform (dropping the
    /// vocabulary). `None` for the custom transform, which persists as
    /// its source extractor instead.
    pub fn of(transform: &CompiledTransform) -> Option<TransformMeta> {
        match transform {
            CompiledTransform::Words { tokenizer, .. } => Some(TransformMeta::Words {
                tokenizer: tokenizer.clone(),
            }),
            CompiledTransform::Trigrams { tokenizer, n, .. } => Some(TransformMeta::Trigrams {
                tokenizer: tokenizer.clone(),
                n: *n,
            }),
            CompiledTransform::Custom(_) => None,
        }
    }

    /// Recombine with a (usually mapped) vocabulary into a transform.
    pub fn into_transform(self, vocab: InternedVocabulary) -> CompiledTransform {
        match self {
            TransformMeta::Words { tokenizer } => CompiledTransform::Words { vocab, tokenizer },
            TransformMeta::Trigrams { tokenizer, n } => CompiledTransform::Trigrams {
                vocab,
                tokenizer,
                n,
            },
        }
    }

    /// Which feature family the transform implements.
    pub fn kind(&self) -> FeatureSetKind {
        match self {
            TransformMeta::Words { .. } => FeatureSetKind::Words,
            TransformMeta::Trigrams { .. } => FeatureSetKind::Trigrams,
        }
    }
}

/// A [`FeatureExtractor`] rebuilt from a compiled transform — the
/// extractor a binary-loaded model serves through.
#[derive(Debug, Clone)]
pub struct RestoredExtractor {
    transform: CompiledTransform,
}

impl RestoredExtractor {
    /// Wrap a compiled transform.
    pub fn new(transform: CompiledTransform) -> Self {
        Self { transform }
    }

    /// The wrapped transform.
    pub fn transform_ref(&self) -> &CompiledTransform {
        &self.transform
    }
}

impl FeatureExtractor for RestoredExtractor {
    fn fit(&mut self, _training: &[LabeledUrl]) {
        // The vocabulary may be a read-only view into a mapped model
        // file; growing it is impossible. Nothing on the load/serve
        // path fits — reaching this is a programming error.
        panic!("a restored extractor is frozen and cannot be refit; train a new model instead");
    }

    fn transform(&self, url: &str) -> SparseVector {
        self.transform.extract(url, &mut ExtractScratch::new())
    }

    fn transform_with(&self, url: &str, scratch: &mut ExtractScratch) -> SparseVector {
        self.transform.extract(url, scratch)
    }

    fn compile_transform(&self) -> Option<CompiledTransform> {
        // Cloning a mapped transform clones Arcs, not arrays.
        Some(self.transform.clone())
    }

    fn dim(&self) -> usize {
        self.transform.dim()
    }

    fn feature_name(&self, index: u32) -> Option<String> {
        // Match the source extractors' naming so diagnostics look the
        // same whichever way the model was loaded.
        match &self.transform {
            CompiledTransform::Words { vocab, .. } => {
                vocab.name(index).map(|s| format!("word:{s}"))
            }
            CompiledTransform::Trigrams { vocab, n, .. } => {
                vocab.name(index).map(|s| format!("{n}gram:{s:?}"))
            }
            CompiledTransform::Custom(custom) => custom.feature_set().feature_name(index),
        }
    }

    fn kind(&self) -> FeatureSetKind {
        self.transform.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn restored_words_extractor_matches_the_original() {
        let mut ex = WordFeatureExtractor::default();
        ex.fit(&training());
        let restored = RestoredExtractor::new(ex.compile_transform().unwrap());
        assert_eq!(restored.kind(), FeatureSetKind::Words);
        assert_eq!(restored.dim(), ex.dim());
        let mut scratch = ExtractScratch::new();
        for url in [
            "http://www.wetter.de/berlin/bericht",
            "http://unseen.example.xyz/nothing",
            "",
        ] {
            assert_eq!(restored.transform(url), ex.transform(url), "{url}");
            assert_eq!(
                restored.transform_with(url, &mut scratch),
                ex.transform(url),
                "{url}"
            );
        }
        for i in 0..restored.dim() as u32 {
            assert_eq!(restored.feature_name(i), ex.feature_name(i));
        }
        assert!(restored.compile_transform().is_some());
    }

    #[test]
    fn transform_meta_round_trips_words_and_trigrams() {
        let mut words = WordFeatureExtractor::default();
        words.fit(&training());
        let mut trigrams = TrigramFeatureExtractor::default();
        trigrams.fit(&training());
        for (t, kind) in [
            (words.compile_transform().unwrap(), FeatureSetKind::Words),
            (
                trigrams.compile_transform().unwrap(),
                FeatureSetKind::Trigrams,
            ),
        ] {
            let meta = TransformMeta::of(&t).expect("words and trigrams have a meta");
            assert_eq!(meta.kind(), kind);
            let json = serde_json::to_string(&meta).unwrap();
            let back: TransformMeta = serde_json::from_str(&json).unwrap();
            // Rebuild over the same vocabulary and compare extraction.
            let vocab = t
                .feature_vocabulary()
                .expect("a feature vocabulary")
                .clone();
            let rebuilt = back.into_transform(vocab);
            let mut s1 = ExtractScratch::new();
            let mut s2 = ExtractScratch::new();
            for url in ["http://www.wetter.de/bericht", "http://a.fr/meteo"] {
                assert_eq!(rebuilt.extract(url, &mut s1), t.extract(url, &mut s2));
            }
        }
    }

    #[test]
    fn custom_transforms_persist_as_their_extractor() {
        let t = crate::CustomFeatureExtractor::default()
            .compile_transform()
            .unwrap();
        assert!(TransformMeta::of(&t).is_none());
        assert!(t.feature_vocabulary().is_none());
        assert_eq!(t.kind(), FeatureSetKind::Custom);
    }

    #[test]
    #[should_panic(expected = "frozen")]
    fn refitting_a_restored_extractor_panics() {
        let mut ex = WordFeatureExtractor::default();
        ex.fit(&training());
        let mut restored = RestoredExtractor::new(ex.compile_transform().unwrap());
        restored.fit(&training());
    }
}
