//! # urlid-tokenize
//!
//! URL parsing, tokenisation and character n-gram extraction for URL-based
//! language identification, following Section 3.1 of Baykan, Henzinger and
//! Weber, *"Web Page Language Identification Based on URLs"* (VLDB 2008).
//!
//! The paper derives all of its features from a very small amount of
//! lexical structure:
//!
//! 1. A URL is split into **tokens**: maximal runs of ASCII letters, taken
//!    case-insensitively, with strings shorter than two characters and the
//!    special words `www`, `index`, `html`, `htm`, `http` and `https`
//!    removed (see [`tokenize_url`]).
//! 2. From every token, padded **trigrams** are derived: the token
//!    `weather` yields `" we"`, `"wea"`, `"eat"`, `"ath"`, `"the"`,
//!    `"her"`, `"er "` (see [`ngram::token_trigrams`]).
//! 3. Structural pieces of the URL (host, top-level domain, registered
//!    domain, path) are needed for the custom feature set and for the
//!    domain-memorisation analysis of Section 6 (see [`url::ParsedUrl`]).
//!
//! The crate is dependency-free (apart from `serde` for model
//! serialisation) and allocation-conscious: the tokenizer exposes both an
//! allocating convenience API and a zero-copy iterator API over `&str`
//! slices of the input.
//!
//! ## Quick example
//!
//! ```
//! use urlid_tokenize::{tokenize_url, ngram::token_trigrams};
//!
//! let tokens = tokenize_url("http://www.internetwordstats.com/africa2.htm");
//! assert_eq!(tokens, vec!["internetwordstats", "com", "africa"]);
//!
//! let tris = token_trigrams("the");
//! assert_eq!(tris, vec![" th", "the", "he "]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ngram;
pub mod token;
pub mod url;

pub use ngram::{for_each_token_ngram, token_ngrams, token_trigrams, url_trigrams};
pub use token::{tokenize_url, tokenize_url_lossless, TokenIter, Tokenizer, TokenizerConfig};
pub use url::{ParsedUrl, UrlParseError, UrlParts};
