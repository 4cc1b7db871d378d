//! # urlid-corpus
//!
//! Synthetic web corpora for the experiments of Baykan, Henzinger, Weber
//! (VLDB 2008).
//!
//! The paper evaluates on three data sets that cannot be redistributed
//! (an ODP/dmoz crawl, Microsoft Live Search results and a hand-labelled
//! 2005 web crawl). This crate generates *synthetic substitutes* that
//! reproduce the distributional properties the paper identifies as
//! decisive, each calibrated against the paper result named with it:
//!
//! * per-language **top-level-domain mixes** calibrated so that the ccTLD
//!   baseline achieves roughly the recall the paper reports per data set
//!   (Table 4);
//! * **domain reuse**: URLs are drawn from per-language host pools, so a
//!   fraction of test URLs shares a registered domain with training URLs
//!   (Figure 3), and some domains host several languages;
//! * **English-looking URLs** for non-English pages (the paper's main
//!   source of confusion, Tables 3 and 6);
//! * language-typical path vocabulary, hyphenation rates (German URLs
//!   hyphenate ≈5× more than English ones) and made-up tokens with
//!   language-typical morphology so trigram features generalise;
//! * synthetic **page content** for the Section 7 "training on content"
//!   experiment, constructed so that strong URL signals (the tokens `it`,
//!   `de`, `es`, ...) are diluted by ordinary words of other languages;
//! * two **simulated human annotators** whose URL-only judgements mirror
//!   the behaviour of the paper's evaluators (default to English when no
//!   clear signal is present) for Tables 2 and 3.
//!
//! Everything is deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod content;
pub mod datasets;
pub mod generator;
pub mod human;
pub mod morphology;
pub mod profiles;
pub mod shards;

pub use content::ContentGenerator;
pub use datasets::{
    attach_content, odp_dataset, ser_dataset, web_crawl_dataset, CorpusScale, PaperCorpus,
};
pub use generator::UrlGenerator;
pub use human::SimulatedHuman;
pub use profiles::{DatasetKind, DatasetProfile, LanguageProfile};
pub use shards::{shard_seed, ShardPlan};
