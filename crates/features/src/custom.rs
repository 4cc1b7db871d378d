//! Custom-made features — Section 3.1, "Custom-made features".
//!
//! The paper builds 74 hand-designed features per URL, derived from
//! top-level-domain information and from dictionaries, "including small
//! variants where dictionaries were merged and where counters were
//! maintained separately before the first '/' of a URL and after". A
//! greedy forward feature selection for the decision tree then identifies
//! 15 features as the most relevant ones: for each of the five languages,
//! (a) the binary ccTLD-country-code-before-the-first-slash feature,
//! (b) the token count in the (OpenOffice) word dictionary and
//! (c) the token count in the trained dictionary.
//!
//! This module implements the full 74-feature vector and the selected
//! 15-feature subset ([`CustomFeatureSet`]). The exact composition of the
//! 74 features is necessarily a reconstruction (the paper lists the
//! ingredients but not every variant); the reconstruction uses exactly the
//! ingredients named in the paper and reproduces the documented count.
//!
//! Two implementations compute the same vector. [`CustomFeatureExtractor::transform`]
//! is the interpreted one: it tokenises into owned token lists and
//! probes every dictionary of every language per token. It vectorises
//! the training set and is the oracle the compiled form is tested
//! against. [`CompiledCustom`], built by
//! [`FeatureExtractor::compile_transform`], is what scoring runs: one
//! interned table of every word the feature set reads, one probe per
//! letter run, counts on the stack and no allocation per URL.

use crate::compiled::CompiledTransform;
use crate::dataset::LabeledUrl;
use crate::extractor::{FeatureExtractor, FeatureSetKind, ShardedFit};
use crate::intern::InternedVocabulary;
use crate::scratch::ExtractScratch;
use crate::vector::SparseVector;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use urlid_lexicon::{
    stopwords, CcTldTable, Dictionary, DictionarySet, Language, TrainedDictionary,
    TrainedDictionaryBuilder, ALL_LANGUAGES,
};
use urlid_mapped::Lane;
use urlid_tokenize::token::{MIN_TOKEN_LEN, SPECIAL_WORDS};
use urlid_tokenize::{ParsedUrl, Tokenizer, TokenizerConfig, UrlParts};

/// Number of per-language feature slots.
pub const PER_LANGUAGE_FEATURES: usize = 12;
/// Number of global (language-independent) feature slots.
pub const GLOBAL_FEATURES: usize = 14;
/// Total number of custom features (5 × 12 + 14 = 74, matching the paper).
pub const NUM_CUSTOM_FEATURES: usize = 5 * PER_LANGUAGE_FEATURES + GLOBAL_FEATURES;
/// Number of features in the selected subset (paper: 15).
pub const NUM_SELECTED_FEATURES: usize = 15;

/// Which custom feature set to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CustomFeatureSet {
    /// All 74 features.
    Full74,
    /// The 15 features selected by greedy forward selection (paper
    /// Section 3.1): per language, the ccTLD-before-first-slash binary
    /// feature, the word-dictionary count and the trained-dictionary count.
    #[default]
    Selected15,
}

impl CustomFeatureSet {
    /// Dimensionality of the feature set.
    pub fn dim(self) -> usize {
        match self {
            CustomFeatureSet::Full74 => NUM_CUSTOM_FEATURES,
            CustomFeatureSet::Selected15 => NUM_SELECTED_FEATURES,
        }
    }

    /// Name of a feature index in this set.
    pub fn feature_name(self, index: u32) -> Option<String> {
        match self {
            CustomFeatureSet::Full74 => CustomFeatureExtractor::full_feature_name(index as usize),
            CustomFeatureSet::Selected15 => CustomFeatureExtractor::selected_indices()
                .get(index as usize)
                .and_then(|&i| CustomFeatureExtractor::full_feature_name(i)),
        }
    }
}

/// Per-language feature slot indices within a language block.
mod slot {
    pub const TLD_SIMPLE: usize = 0;
    pub const TLD_BEFORE_SLASH: usize = 1;
    pub const CC_IN_PATH: usize = 2;
    pub const WORDS_HOST: usize = 3;
    pub const WORDS_PATH: usize = 4;
    pub const WORDS_TOTAL: usize = 5;
    pub const CITIES_HOST: usize = 6;
    pub const CITIES_TOTAL: usize = 7;
    pub const TRAINED_HOST: usize = 8;
    pub const TRAINED_PATH: usize = 9;
    pub const TRAINED_TOTAL: usize = 10;
    pub const STOPWORDS_TOTAL: usize = 11;
}

/// Names of the per-language slots, aligned with the `slot` module.
const SLOT_NAMES: [&str; PER_LANGUAGE_FEATURES] = [
    "tld_is_cctld",
    "cctld_token_before_first_slash",
    "cctld_token_in_path",
    "word_dict_hits_host",
    "word_dict_hits_path",
    "word_dict_hits_total",
    "city_dict_hits_host",
    "city_dict_hits_total",
    "trained_dict_hits_host",
    "trained_dict_hits_path",
    "trained_dict_hits_total",
    "stopword_hits_total",
];

/// Names of the global features.
const GLOBAL_NAMES: [&str; GLOBAL_FEATURES] = [
    "tld_is_com",
    "tld_is_org",
    "tld_is_net",
    "hyphen_count",
    "token_count_total",
    "token_count_host",
    "token_count_path",
    "avg_token_len",
    "max_token_len",
    "url_len",
    "path_depth",
    "digit_count",
    "has_query",
    "tld_is_other",
];

/// The custom-made feature extractor.
///
/// Fitting builds the trained dictionaries of Section 3.1 from the
/// labelled training URLs; everything else (ccTLD tables, word and city
/// dictionaries) is static.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CustomFeatureExtractor {
    feature_set: CustomFeatureSet,
    #[serde(skip, default = "DictionarySet::builtin_words")]
    word_dicts: DictionarySet,
    #[serde(skip, default = "DictionarySet::builtin_cities")]
    city_dicts: DictionarySet,
    #[serde(skip, default = "default_stopword_dicts")]
    stopword_dicts: DictionarySet,
    trained: TrainedDictionary,
    cctld: CcTldTable,
    #[serde(skip, default = "lossless_tokenizer")]
    lossless_tokenizer: Tokenizer,
    #[serde(skip, default)]
    tokenizer: Tokenizer,
}

fn default_stopword_dicts() -> DictionarySet {
    DictionarySet::build(|lang| {
        Dictionary::from_words(stopwords::stopwords_for(lang).iter().copied())
    })
}

fn lossless_tokenizer() -> Tokenizer {
    Tokenizer::new(TokenizerConfig {
        min_len: 1,
        drop_special_words: false,
        lowercase: true,
    })
}

impl Default for CustomFeatureExtractor {
    fn default() -> Self {
        Self::new(CustomFeatureSet::Selected15)
    }
}

impl CustomFeatureExtractor {
    /// Create an extractor producing the given feature set.
    pub fn new(feature_set: CustomFeatureSet) -> Self {
        Self {
            feature_set,
            word_dicts: DictionarySet::builtin_words(),
            city_dicts: DictionarySet::builtin_cities(),
            stopword_dicts: default_stopword_dicts(),
            trained: TrainedDictionary::empty(),
            cctld: CcTldTable::cctld(),
            lossless_tokenizer: lossless_tokenizer(),
            tokenizer: Tokenizer::default(),
        }
    }

    /// Create an extractor producing all 74 features.
    pub fn full() -> Self {
        Self::new(CustomFeatureSet::Full74)
    }

    /// Which feature set the extractor produces.
    pub fn feature_set(&self) -> CustomFeatureSet {
        self.feature_set
    }

    /// The trained dictionary learnt during [`FeatureExtractor::fit`].
    pub fn trained_dictionary(&self) -> &TrainedDictionary {
        &self.trained
    }

    /// Compute the full 74-feature dense vector for a URL.
    pub fn extract_full(&self, url: &str) -> Vec<f64> {
        let parsed = ParsedUrl::parse(url);
        let host_tokens: Vec<String> = self.lossless_tokenizer.tokenize(parsed.host());
        // Path tokens: everything after the first slash, including query.
        let after_host = {
            let mut s = String::new();
            s.push_str(parsed.path());
            if let Some(q) = parsed.query() {
                s.push('/');
                s.push_str(q);
            }
            s
        };
        let path_tokens: Vec<String> = self.lossless_tokenizer.tokenize(&after_host);
        // Filtered tokens (paper tokenisation) for dictionary counting.
        let host_words: Vec<String> = self.tokenizer.tokenize(parsed.host());
        let path_words: Vec<String> = self.tokenizer.tokenize(&after_host);

        let mut f = vec![0.0; NUM_CUSTOM_FEATURES];

        for lang in ALL_LANGUAGES {
            let base = lang.index() * PER_LANGUAGE_FEATURES;
            // TLD features.
            let tld_lang = parsed.tld().and_then(|t| self.cctld.language_of(t));
            f[base + slot::TLD_SIMPLE] = (tld_lang == Some(lang)) as u8 as f64;
            let before_slash_hit = host_tokens
                .iter()
                .any(|t| CcTldTable::token_matches_language(t, lang));
            f[base + slot::TLD_BEFORE_SLASH] = before_slash_hit as u8 as f64;
            let in_path_hit = path_tokens
                .iter()
                .any(|t| CcTldTable::token_matches_language(t, lang));
            f[base + slot::CC_IN_PATH] = in_path_hit as u8 as f64;
            // Word dictionary counts.
            let wd = self.word_dicts.get(lang);
            f[base + slot::WORDS_HOST] = wd.count_hits(&host_words) as f64;
            f[base + slot::WORDS_PATH] = wd.count_hits(&path_words) as f64;
            f[base + slot::WORDS_TOTAL] = f[base + slot::WORDS_HOST] + f[base + slot::WORDS_PATH];
            // City dictionary counts.
            let cd = self.city_dicts.get(lang);
            f[base + slot::CITIES_HOST] = cd.count_hits(&host_words) as f64;
            f[base + slot::CITIES_TOTAL] =
                f[base + slot::CITIES_HOST] + cd.count_hits(&path_words) as f64;
            // Trained dictionary counts.
            let td = self.trained.dictionary(lang);
            f[base + slot::TRAINED_HOST] = td.count_hits(&host_words) as f64;
            f[base + slot::TRAINED_PATH] = td.count_hits(&path_words) as f64;
            f[base + slot::TRAINED_TOTAL] =
                f[base + slot::TRAINED_HOST] + f[base + slot::TRAINED_PATH];
            // Stop-word counts.
            let sd = self.stopword_dicts.get(lang);
            f[base + slot::STOPWORDS_TOTAL] =
                sd.count_hits(&host_words) as f64 + sd.count_hits(&path_words) as f64;
        }

        // Global features.
        let g = 5 * PER_LANGUAGE_FEATURES;
        let tld = parsed.tld().unwrap_or("");
        f[g] = (tld == "com") as u8 as f64;
        f[g + 1] = (tld == "org") as u8 as f64;
        f[g + 2] = (tld == "net") as u8 as f64;
        f[g + 3] = parsed.hyphen_count() as f64;
        let all_words: Vec<&String> = host_words.iter().chain(path_words.iter()).collect();
        f[g + 4] = all_words.len() as f64;
        f[g + 5] = host_words.len() as f64;
        f[g + 6] = path_words.len() as f64;
        f[g + 7] = if all_words.is_empty() {
            0.0
        } else {
            all_words.iter().map(|w| w.len()).sum::<usize>() as f64 / all_words.len() as f64
        };
        f[g + 8] = all_words.iter().map(|w| w.len()).max().unwrap_or(0) as f64;
        f[g + 9] = url.len() as f64;
        f[g + 10] = parsed.path_depth() as f64;
        f[g + 11] = url.bytes().filter(|b| b.is_ascii_digit()).count() as f64;
        f[g + 12] = parsed.query().is_some() as u8 as f64;
        let tld_known = ALL_LANGUAGES
            .iter()
            .any(|&l| CcTldTable::cctlds_for(l).contains(&tld))
            || ["com", "org", "net"].contains(&tld);
        f[g + 13] = (!tld.is_empty() && !tld_known) as u8 as f64;

        f
    }

    /// Indices (into the 74-feature vector) of the selected 15 features.
    pub fn selected_indices() -> [usize; NUM_SELECTED_FEATURES] {
        let mut out = [0usize; NUM_SELECTED_FEATURES];
        let mut k = 0;
        for lang in ALL_LANGUAGES {
            let base = lang.index() * PER_LANGUAGE_FEATURES;
            out[k] = base + slot::TLD_BEFORE_SLASH;
            out[k + 1] = base + slot::WORDS_TOTAL;
            out[k + 2] = base + slot::TRAINED_TOTAL;
            k += 3;
        }
        out
    }

    /// Name of a feature in the *full* 74-feature space.
    pub fn full_feature_name(index: usize) -> Option<String> {
        if index < 5 * PER_LANGUAGE_FEATURES {
            let lang = Language::from_index(index / PER_LANGUAGE_FEATURES);
            let slot = index % PER_LANGUAGE_FEATURES;
            Some(format!("{}:{}", lang.iso_code(), SLOT_NAMES[slot]))
        } else if index < NUM_CUSTOM_FEATURES {
            Some(format!(
                "global:{}",
                GLOBAL_NAMES[index - 5 * PER_LANGUAGE_FEATURES]
            ))
        } else {
            None
        }
    }

    fn project(&self, full: Vec<f64>) -> Vec<f64> {
        match self.feature_set {
            CustomFeatureSet::Full74 => full,
            CustomFeatureSet::Selected15 => {
                Self::selected_indices().iter().map(|&i| full[i]).collect()
            }
        }
    }

    /// The dense feature vector in the configured feature set.
    pub fn extract(&self, url: &str) -> Vec<f64> {
        self.project(self.extract_full(url))
    }
}

impl FeatureExtractor for CustomFeatureExtractor {
    fn fit(&mut self, training: &[LabeledUrl]) {
        let counts = self.observe_shard(training);
        self.finish_fit(Some(counts));
    }

    fn transform(&self, url: &str) -> SparseVector {
        let dense = self.extract(url);
        SparseVector::from_pairs(
            dense
                .into_iter()
                .enumerate()
                .filter(|(_, v)| *v != 0.0)
                .map(|(i, v)| (i as u32, v)),
        )
    }

    fn dim(&self) -> usize {
        self.feature_set.dim()
    }

    fn compile_transform(&self) -> Option<CompiledTransform> {
        Some(CompiledTransform::Custom(CompiledCustom::new(self)))
    }

    fn feature_name(&self, index: u32) -> Option<String> {
        self.feature_set.feature_name(index)
    }

    fn kind(&self) -> FeatureSetKind {
        FeatureSetKind::Custom
    }
}

impl ShardedFit for CustomFeatureExtractor {
    type Partial = TrainedDictionaryBuilder;

    fn observe_shard(&self, shard: &[LabeledUrl]) -> TrainedDictionaryBuilder {
        let mut builder = TrainedDictionaryBuilder::default();
        for example in shard {
            builder.add_url(&example.url, example.language);
        }
        builder
    }

    fn merge_partials(
        &self,
        mut acc: TrainedDictionaryBuilder,
        next: TrainedDictionaryBuilder,
    ) -> TrainedDictionaryBuilder {
        acc.merge(next);
        acc
    }

    fn finish_fit(&mut self, merged: Option<TrainedDictionaryBuilder>) {
        self.trained = merged.unwrap_or_default().build();
    }
}

/// Bit layout of [`CompiledCustom`]'s per-word masks.
mod bit {
    /// Word dictionary of language `l`: bit `WORDS + l`.
    pub const WORDS: u32 = 0;
    /// City dictionary of language `l`.
    pub const CITIES: u32 = 5;
    /// Trained dictionary of language `l`.
    pub const TRAINED: u32 = 10;
    /// Stop-word list of language `l`.
    pub const STOPWORDS: u32 = 15;
    /// The dictionary bits above, 4 × 5 of them.
    pub const DICTIONARIES: usize = 20;
    /// "Is a ccTLD of language `l`".
    pub const CCTLD: u32 = 20;
    /// The generic TLDs.
    pub const COM: u32 = 25;
    pub const ORG: u32 = 26;
    pub const NET: u32 = 27;
    /// One of the paper tokenizer's special words.
    pub const SPECIAL: u32 = 28;

    /// The five bits of one per-language group.
    pub const fn languages(group: u32) -> u32 {
        0b1_1111 << group
    }

    /// The mask of bit `b`.
    pub const fn of(b: u32) -> u32 {
        1 << b
    }
}

/// The compiled form of a fitted [`CustomFeatureExtractor`].
///
/// Every word a configured feature reads — from the word, city,
/// stop-word and trained dictionaries of all five languages, plus the
/// ccTLD codes — is interned once into an [`InternedVocabulary`], with a
/// parallel lane of membership bitmasks (one bit per language per
/// dictionary, one per language for "is a ccTLD of this language"). A
/// letter run then costs one probe, where the interpreted extractor
/// pays one hash lookup per dictionary per language.
///
/// Tokens are maximal ASCII-letter runs, so the paper tokenizer's
/// stream is the lossless stream minus runs shorter than two letters
/// and minus the special words: one walk over the host's runs and one
/// over path + query feeds both, with the counts on the stack.
/// [`CompiledCustom::extract_into`] produces exactly the vector
/// [`CustomFeatureExtractor::transform`] produces, and a warm
/// extraction allocates nothing.
#[derive(Debug, Clone)]
pub struct CompiledCustom {
    feature_set: CustomFeatureSet,
    /// The source table's ccTLD+ switch (`.com`/`.org` count as English
    /// for the plain TLD feature).
    com_org_as_english: bool,
    words: InternedVocabulary,
    /// `masks[i]` holds the `bit` flags of interned word `i`.
    masks: Lane<u32>,
}

/// What the letter runs of one region (the host, or path + query)
/// contribute.
#[derive(Default)]
struct RegionCounts {
    /// Union of the masks of every letter run (the lossless tokens).
    seen: u32,
    /// Mask of the last letter run.
    last: u32,
    /// Paper tokens, their total and their largest length.
    tokens: usize,
    token_len_sum: usize,
    token_len_max: usize,
    /// Paper tokens per dictionary bit.
    hits: [u32; bit::DICTIONARIES],
}

impl RegionCounts {
    /// Paper tokens in dictionary `group` (a `bit` constant) of `lang`.
    fn count(&self, group: u32, lang: Language) -> f64 {
        self.hits[(group as usize) + lang.index()] as f64
    }
}

/// The distinct words of a [`CompiledCustom`] table and their masks,
/// while it is being built.
struct TableBuilder<'a> {
    index: HashMap<&'a str, usize>,
    names: Vec<&'a str>,
    masks: Vec<u32>,
}

impl<'a> TableBuilder<'a> {
    fn with_capacity(words: usize) -> Self {
        Self {
            index: HashMap::with_capacity(words),
            names: Vec::with_capacity(words),
            masks: Vec::with_capacity(words),
        }
    }

    fn mark(&mut self, word: &'a str, flag: u32) {
        // Tokens are lowercase ASCII-letter runs; no other entry can
        // ever be probed.
        if word.is_empty() || !word.bytes().all(|b| b.is_ascii_lowercase()) {
            return;
        }
        let i = *self.index.entry(word).or_insert_with(|| {
            self.names.push(word);
            self.masks.push(0);
            self.names.len() - 1
        });
        self.masks[i] |= bit::of(flag);
    }
}

impl CompiledCustom {
    /// Intern the dictionaries `extractor`'s feature set reads.
    pub fn new(extractor: &CustomFeatureExtractor) -> Self {
        // The selected 15 read only the word and trained dictionaries
        // and the ccTLD codes; the city and stop-word counts exist in
        // the full set only.
        let full = extractor.feature_set == CustomFeatureSet::Full74;
        let mut table = TableBuilder::with_capacity(
            ALL_LANGUAGES
                .iter()
                .map(|&lang| {
                    extractor.word_dicts.get(lang).len() + extractor.trained.dictionary(lang).len()
                })
                .sum(),
        );
        for lang in ALL_LANGUAGES {
            let l = lang.index() as u32;
            for word in extractor.word_dicts.get(lang).iter() {
                table.mark(word, bit::WORDS + l);
            }
            for word in extractor.trained.dictionary(lang).iter() {
                table.mark(word, bit::TRAINED + l);
            }
            if full {
                for word in extractor.city_dicts.get(lang).iter() {
                    table.mark(word, bit::CITIES + l);
                }
                for word in extractor.stopword_dicts.get(lang).iter() {
                    table.mark(word, bit::STOPWORDS + l);
                }
            }
            for code in CcTldTable::cctlds_for(lang) {
                table.mark(code, bit::CCTLD + l);
            }
        }
        for (tld, flag) in [("com", bit::COM), ("org", bit::ORG), ("net", bit::NET)] {
            table.mark(tld, flag);
        }
        for word in SPECIAL_WORDS {
            table.mark(word, bit::SPECIAL);
        }
        Self {
            feature_set: extractor.feature_set,
            com_org_as_english: extractor.cctld.com_org_as_english,
            words: InternedVocabulary::from_names(table.names),
            masks: Lane::from_vec(table.masks),
        }
    }

    /// Which feature set the transform produces.
    pub fn feature_set(&self) -> CustomFeatureSet {
        self.feature_set
    }

    /// Dimensionality of the feature set.
    pub fn dim(&self) -> usize {
        self.feature_set.dim()
    }

    /// The mask of one letter run, lowercased through `lower` only when
    /// it has an uppercase letter.
    fn mask_of(&self, run: &str, lower: &mut String) -> u32 {
        let key = if run.bytes().any(|b| b.is_ascii_uppercase()) {
            lower.clear();
            lower.push_str(run);
            lower.make_ascii_lowercase();
            lower.as_bytes()
        } else {
            run.as_bytes()
        };
        self.words.get(key).map_or(0, |i| self.masks[i as usize])
    }

    /// Walk the maximal ASCII-letter runs of `text` into `region`.
    fn scan(&self, text: &str, lower: &mut String, region: &mut RegionCounts) {
        let bytes = text.as_bytes();
        let mut end = 0;
        while end < bytes.len() {
            if !bytes[end].is_ascii_alphabetic() {
                end += 1;
                continue;
            }
            let start = end;
            while end < bytes.len() && bytes[end].is_ascii_alphabetic() {
                end += 1;
            }
            let run = &text[start..end];
            let mask = self.mask_of(run, lower);
            region.seen |= mask;
            region.last = mask;
            // The paper tokenizer's filter.
            if run.len() < MIN_TOKEN_LEN || mask & bit::of(bit::SPECIAL) != 0 {
                continue;
            }
            region.tokens += 1;
            region.token_len_sum += run.len();
            region.token_len_max = region.token_len_max.max(run.len());
            let mut dictionaries = mask & (bit::of(bit::DICTIONARIES as u32) - 1);
            while dictionaries != 0 {
                region.hits[dictionaries.trailing_zeros() as usize] += 1;
                dictionaries &= dictionaries - 1;
            }
        }
    }

    /// Map a URL to its feature vector in `scratch.vector`, exactly as
    /// [`CustomFeatureExtractor::transform`] does, without allocating
    /// once the scratch is warm.
    pub fn extract_into(&self, url: &str, scratch: &mut ExtractScratch) {
        let parts = UrlParts::split(url);
        let mut host = RegionCounts::default();
        let mut path = RegionCounts::default();
        self.scan(parts.host(), &mut scratch.token, &mut host);
        self.scan(parts.path(), &mut scratch.token, &mut path);
        if let Some(query) = parts.query() {
            self.scan(query, &mut scratch.token, &mut path);
        }

        // A TLD that can be a ccTLD or com/org/net at all is all
        // letters, and then it is the host's last letter run.
        let tld = parts.tld();
        let tld_bits = match tld {
            Some(t) if t.bytes().all(|b| b.is_ascii_alphabetic()) => host.last,
            _ => 0,
        };
        let tld_cctlds = tld_bits & bit::languages(bit::CCTLD);
        let tld_lang = if tld_cctlds != 0 {
            Some((tld_cctlds >> bit::CCTLD).trailing_zeros() as usize)
        } else if self.com_org_as_english && tld_bits & (bit::of(bit::COM) | bit::of(bit::ORG)) != 0
        {
            Some(Language::English.index())
        } else {
            None
        };

        // Only the slots the configured set reads are meaningful: the
        // table holds just the dictionaries those slots count.
        let mut f = [0.0f64; NUM_CUSTOM_FEATURES];
        for lang in ALL_LANGUAGES {
            let base = lang.index() * PER_LANGUAGE_FEATURES;
            let cctld = bit::of(bit::CCTLD + lang.index() as u32);
            f[base + slot::TLD_SIMPLE] = (tld_lang == Some(lang.index())) as u8 as f64;
            f[base + slot::TLD_BEFORE_SLASH] = (host.seen & cctld != 0) as u8 as f64;
            f[base + slot::CC_IN_PATH] = (path.seen & cctld != 0) as u8 as f64;
            f[base + slot::WORDS_HOST] = host.count(bit::WORDS, lang);
            f[base + slot::WORDS_PATH] = path.count(bit::WORDS, lang);
            f[base + slot::WORDS_TOTAL] =
                host.count(bit::WORDS, lang) + path.count(bit::WORDS, lang);
            f[base + slot::CITIES_HOST] = host.count(bit::CITIES, lang);
            f[base + slot::CITIES_TOTAL] =
                host.count(bit::CITIES, lang) + path.count(bit::CITIES, lang);
            f[base + slot::TRAINED_HOST] = host.count(bit::TRAINED, lang);
            f[base + slot::TRAINED_PATH] = path.count(bit::TRAINED, lang);
            f[base + slot::TRAINED_TOTAL] =
                host.count(bit::TRAINED, lang) + path.count(bit::TRAINED, lang);
            f[base + slot::STOPWORDS_TOTAL] =
                host.count(bit::STOPWORDS, lang) + path.count(bit::STOPWORDS, lang);
        }

        let g = 5 * PER_LANGUAGE_FEATURES;
        f[g] = (tld_bits & bit::of(bit::COM) != 0) as u8 as f64;
        f[g + 1] = (tld_bits & bit::of(bit::ORG) != 0) as u8 as f64;
        f[g + 2] = (tld_bits & bit::of(bit::NET) != 0) as u8 as f64;
        // Hyphens and digits count over the raw, untrimmed input.
        let (mut hyphens, mut digits) = (0usize, 0usize);
        for b in url.bytes() {
            hyphens += (b == b'-') as usize;
            digits += b.is_ascii_digit() as usize;
        }
        f[g + 3] = hyphens as f64;
        let tokens = host.tokens + path.tokens;
        f[g + 4] = tokens as f64;
        f[g + 5] = host.tokens as f64;
        f[g + 6] = path.tokens as f64;
        // The one feature that is not a count or a flag: the
        // interpreted expression, on the same integers.
        f[g + 7] = if tokens == 0 {
            0.0
        } else {
            (host.token_len_sum + path.token_len_sum) as f64 / tokens as f64
        };
        f[g + 8] = host.token_len_max.max(path.token_len_max) as f64;
        f[g + 9] = url.len() as f64;
        f[g + 10] = parts.path_depth() as f64;
        f[g + 11] = digits as f64;
        f[g + 12] = parts.query().is_some() as u8 as f64;
        let tld_known = tld_bits
            & (bit::languages(bit::CCTLD)
                | bit::of(bit::COM)
                | bit::of(bit::ORG)
                | bit::of(bit::NET))
            != 0;
        f[g + 13] = (tld.is_some() && !tld_known) as u8 as f64;

        match self.feature_set {
            CustomFeatureSet::Full74 => scratch.vector.refill_from_dense(&f),
            CustomFeatureSet::Selected15 => {
                let selected = CustomFeatureExtractor::selected_indices();
                let projected: [f64; NUM_SELECTED_FEATURES] =
                    std::array::from_fn(|k| f[selected[k]]);
                scratch.vector.refill_from_dense(&projected);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn training() -> Vec<LabeledUrl> {
        let mut v = Vec::new();
        for i in 0..30 {
            v.push(LabeledUrl::new(
                format!("http://home.arcor.de/nutzer{i}/seite"),
                Language::German,
            ));
            v.push(LabeledUrl::new(
                format!("http://www.galeon.com/usuario{i}/pagina"),
                Language::Spanish,
            ));
            v.push(LabeledUrl::new(
                format!("http://news{i}.co.uk/weather/story"),
                Language::English,
            ));
        }
        v
    }

    #[test]
    fn the_count_is_74() {
        assert_eq!(NUM_CUSTOM_FEATURES, 74);
        assert_eq!(NUM_SELECTED_FEATURES, 15);
        assert_eq!(CustomFeatureSet::Full74.dim(), 74);
        assert_eq!(CustomFeatureSet::Selected15.dim(), 15);
    }

    #[test]
    fn every_full_feature_has_a_name() {
        for i in 0..NUM_CUSTOM_FEATURES {
            assert!(
                CustomFeatureExtractor::full_feature_name(i).is_some(),
                "index {i}"
            );
        }
        assert!(CustomFeatureExtractor::full_feature_name(NUM_CUSTOM_FEATURES).is_none());
    }

    #[test]
    fn selected_indices_match_paper_description() {
        // 5 x ccTLD-before-slash, 5 x word-dict count, 5 x trained-dict count.
        let idx = CustomFeatureExtractor::selected_indices();
        let names: Vec<String> = idx
            .iter()
            .map(|&i| CustomFeatureExtractor::full_feature_name(i).unwrap())
            .collect();
        assert_eq!(
            names
                .iter()
                .filter(|n| n.contains("cctld_token_before_first_slash"))
                .count(),
            5
        );
        assert_eq!(
            names
                .iter()
                .filter(|n| n.contains("word_dict_hits_total"))
                .count(),
            5
        );
        assert_eq!(
            names
                .iter()
                .filter(|n| n.contains("trained_dict_hits_total"))
                .count(),
            5
        );
    }

    #[test]
    fn tld_features_fire_for_german_url() {
        let ex = CustomFeatureExtractor::full();
        let f = ex.extract_full("http://www.beispiel.de/seite");
        let de = Language::German.index() * PER_LANGUAGE_FEATURES;
        assert_eq!(f[de + slot::TLD_SIMPLE], 1.0);
        assert_eq!(f[de + slot::TLD_BEFORE_SLASH], 1.0);
        let en = Language::English.index() * PER_LANGUAGE_FEATURES;
        assert_eq!(f[en + slot::TLD_SIMPLE], 0.0);
    }

    #[test]
    fn generalized_tld_feature_sees_subdomain_country_code() {
        // Paper example: http://fr.search.yahoo.com has the French feature set.
        let ex = CustomFeatureExtractor::full();
        let f = ex.extract_full("http://fr.search.yahoo.com/");
        let fr = Language::French.index() * PER_LANGUAGE_FEATURES;
        assert_eq!(f[fr + slot::TLD_SIMPLE], 0.0, "TLD is .com, not .fr");
        assert_eq!(
            f[fr + slot::TLD_BEFORE_SLASH],
            1.0,
            "fr label before first slash"
        );
        // And http://de.wikipedia.org counts as German before-slash.
        let f2 = ex.extract_full("http://de.wikipedia.org/wiki/Berlin");
        let de = Language::German.index() * PER_LANGUAGE_FEATURES;
        assert_eq!(f2[de + slot::TLD_BEFORE_SLASH], 1.0);
    }

    #[test]
    fn dictionary_counts_fire() {
        let ex = CustomFeatureExtractor::full();
        let f = ex.extract_full("http://www.wasserbett-kaufen.com/angebote");
        let de = Language::German.index() * PER_LANGUAGE_FEATURES;
        assert!(
            f[de + slot::WORDS_TOTAL] >= 2.0,
            "wasserbett, kaufen, angebote are German words"
        );
        let en = Language::English.index() * PER_LANGUAGE_FEATURES;
        assert_eq!(f[en + slot::WORDS_TOTAL], 0.0);
    }

    #[test]
    fn city_dictionary_feature() {
        let ex = CustomFeatureExtractor::full();
        let f = ex.extract_full("http://www.hotel-heidelberg.de/zimmer");
        let de = Language::German.index() * PER_LANGUAGE_FEATURES;
        assert!(f[de + slot::CITIES_TOTAL] >= 1.0);
    }

    #[test]
    fn trained_dictionary_requires_fit() {
        let mut ex = CustomFeatureExtractor::full();
        let before = ex.extract_full("http://home.arcor.de/jemand");
        let de = Language::German.index() * PER_LANGUAGE_FEATURES;
        assert_eq!(before[de + slot::TRAINED_TOTAL], 0.0);
        ex.fit(&training());
        let after = ex.extract_full("http://home.arcor.de/jemand");
        assert!(
            after[de + slot::TRAINED_TOTAL] >= 1.0,
            "arcor learnt as German"
        );
    }

    #[test]
    fn global_features() {
        let ex = CustomFeatureExtractor::full();
        let f = ex.extract_full("http://www.wasserbett-test.com/billig-kaufen?farbe=blau");
        let g = 5 * PER_LANGUAGE_FEATURES;
        assert_eq!(f[g], 1.0, "tld is .com");
        assert_eq!(f[g + 1], 0.0);
        assert_eq!(f[g + 3], 2.0, "two hyphens");
        assert_eq!(f[g + 12], 1.0, "has query");
        assert!(f[g + 9] > 30.0, "url length");
    }

    #[test]
    fn selected15_transform_has_at_most_15_dims() {
        let mut ex = CustomFeatureExtractor::default();
        ex.fit(&training());
        assert_eq!(ex.dim(), 15);
        let v = ex.transform("http://home.arcor.de/jemand/seite");
        assert!(v.min_dim() <= 15);
        assert!(v.sum() > 0.0);
        assert_eq!(ex.kind(), FeatureSetKind::Custom);
    }

    #[test]
    fn feature_names_in_selected_space() {
        let ex = CustomFeatureExtractor::default();
        let name0 = ex.feature_name(0).unwrap();
        assert!(name0.starts_with("en:"), "{name0}");
        assert!(ex.feature_name(15).is_none());
    }

    #[test]
    fn extract_handles_garbage_urls() {
        let ex = CustomFeatureExtractor::full();
        for u in ["", "not a url", "http://", "12345", "http://???/"] {
            let f = ex.extract_full(u);
            assert_eq!(f.len(), NUM_CUSTOM_FEATURES);
            assert!(f.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn serde_round_trip_keeps_trained_dictionary() {
        let mut ex = CustomFeatureExtractor::default();
        ex.fit(&training());
        let json = serde_json::to_string(&ex).unwrap();
        let back: CustomFeatureExtractor = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.transform("http://home.arcor.de/x"),
            ex.transform("http://home.arcor.de/x")
        );
    }
}
