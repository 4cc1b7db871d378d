//! # urlid — Web Page Language Identification Based on URLs
//!
//! A from-scratch Rust reproduction of Baykan, Henzinger, Weber,
//! *"Web Page Language Identification Based on URLs"* (VLDB 2008): given
//! only the URL of a web page, decide whether the page is written in
//! English, German, French, Spanish or Italian.
//!
//! This crate is the facade over the workspace:
//!
//! * [`urlid_tokenize`] — URL tokenisation and trigram extraction;
//! * [`urlid_lexicon`] — languages, ccTLD tables, dictionaries;
//! * [`urlid_features`] — word / trigram / custom feature extraction;
//! * [`urlid_classifiers`] — NB, DT, RE, ME, k-NN, ccTLD baselines,
//!   classifier combination;
//! * [`urlid_corpus`] — synthetic ODP / search-engine / web-crawl corpora;
//! * [`urlid_eval`] — metrics, confusion matrices, sweeps.
//!
//! and adds the training pipeline ([`trainer`]), the high-level
//! [`LanguageIdentifier`] API ([`identifier`]), and the paper's best
//! per-language classifier combinations ([`recipes`]).
//!
//! ## Quickstart
//!
//! ```
//! use urlid::prelude::*;
//!
//! // 1. Get labelled training URLs (here: a small synthetic ODP corpus).
//! let mut gen = UrlGenerator::new(42);
//! let odp = odp_dataset(&mut gen, CorpusScale::tiny());
//!
//! // 2. Train the paper's best single configuration:
//! //    Naive Bayes with word features.
//! let config = TrainingConfig::new(FeatureSetKind::Words, Algorithm::NaiveBayes);
//! let identifier = LanguageIdentifier::train(&odp.train, &config);
//!
//! // 3. Ask for the language of unseen URLs.
//! let lang = identifier.identify("http://www.wetterbericht-heute.de/berlin");
//! assert_eq!(lang, Some(Language::German));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod identifier;
pub mod persistence;
pub mod recipes;
pub mod trainer;

pub use identifier::LanguageIdentifier;
pub use persistence::{inspect_model, ModelBundle, ModelSource, PersistenceError};
pub use trainer::{
    train_classifier_set, train_classifier_set_with, train_language_classifier, GisTrace,
    TrainOptions, TrainTrace, TrainingConfig, DEFAULT_TRAIN_SHARDS,
};

// Re-export the sub-crates under stable names.
pub use urlid_classifiers as classifiers;
pub use urlid_corpus as corpus;
pub use urlid_eval as eval;
pub use urlid_features as features;
pub use urlid_lexicon as lexicon;
pub use urlid_tokenize as tokenize;

/// Commonly used items, for `use urlid::prelude::*`.
pub mod prelude {
    pub use crate::identifier::LanguageIdentifier;
    pub use crate::persistence::{ModelBundle, ModelSource, PersistenceError};
    pub use crate::recipes;
    pub use crate::trainer::{
        train_classifier_set, train_classifier_set_with, train_language_classifier, GisTrace,
        TrainOptions, TrainTrace, TrainingConfig, DEFAULT_TRAIN_SHARDS,
    };
    pub use urlid_classifiers::{
        Algorithm, CcTldClassifier, CombinationStrategy, LanguageClassifierSet, UrlClassifier,
    };
    pub use urlid_corpus::{
        attach_content, odp_dataset, ser_dataset, web_crawl_dataset, ContentGenerator, CorpusScale,
        PaperCorpus, SimulatedHuman, UrlGenerator,
    };
    pub use urlid_eval::{
        evaluate_annotations, evaluate_classifier_set, ConfusionMatrix, EvaluationResult,
    };
    pub use urlid_features::{
        CustomFeatureSet, Dataset, FeatureExtractor, FeatureSetKind, LabeledUrl, TrainTestSplit,
    };
    pub use urlid_lexicon::{Language, ALL_LANGUAGES};
    pub use urlid_tokenize::{tokenize_url, ParsedUrl};
}
