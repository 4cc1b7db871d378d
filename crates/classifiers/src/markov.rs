//! Character Markov-model classifier.
//!
//! Section 2 of the paper: "Character-based Markov models for language
//! classification \[3\] can be seen as a variant of the n-gram approach.
//! This approach determines the probability that certain sequences of
//! characters are generated. It is assumed that the next character only
//! depends on a certain number of previous characters." The paper's
//! authors compared Markov models against rank-order statistics and
//! relative entropy in preliminary experiments and kept relative entropy;
//! this implementation exists to reproduce that comparison (see the
//! `ablations` experiment).
//!
//! Unlike the other classifiers in this crate, the Markov model works on
//! the *token characters* directly rather than on a pre-extracted feature
//! vector: it is trained on URL tokens and scores a URL by the average
//! per-character log-likelihood ratio between the positive and negative
//! character models (an order-2 model, i.e. trigram transition
//! probabilities with Laplace smoothing).

use crate::model::UrlClassifier;
use serde::Serialize;
use urlid_tokenize::Tokenizer;

/// Alphabet: `a`–`z` plus the boundary marker.
const ALPHABET_SIZE: usize = 27;

/// Number of two-character contexts of the order-2 model.
const NUM_CONTEXTS: usize = ALPHABET_SIZE * ALPHABET_SIZE;

/// Configuration for the character Markov model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MarkovConfig {
    /// Laplace smoothing strength for transition counts.
    pub alpha: f64,
}

impl Default for MarkovConfig {
    fn default() -> Self {
        Self { alpha: 0.5 }
    }
}

/// Character model of one class: counts of (context, next-char) where the
/// context is the previous two characters of a padded token.
///
/// The context space is tiny and fixed (27² = 729 contexts × 27 next
/// characters), so counts live in **dense context-indexed tables**
/// rather than the historical `HashMap<u16, [f64; 27]>`: a transition
/// lookup is two array reads at `context * 27 + next` instead of a hash,
/// probe and pointer chase per character of every scored token. Never-
/// observed transitions simply read 0.0 — exactly the value the map's
/// `unwrap_or` defaults produced.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct CharModel {
    /// Transition counts, indexed by `context_key(a, b) * 27 + next`.
    transitions: Vec<f64>,
    /// Per-context totals, indexed by `context_key(a, b)`.
    context_totals: Vec<f64>,
}

impl Default for CharModel {
    fn default() -> Self {
        Self {
            transitions: vec![0.0; NUM_CONTEXTS * ALPHABET_SIZE],
            context_totals: vec![0.0; NUM_CONTEXTS],
        }
    }
}

/// Pack a two-character context into a dense table index.
fn context_key(a: u8, b: u8) -> usize {
    a as usize * ALPHABET_SIZE + b as usize
}

fn encode(c: char) -> u8 {
    if c.is_ascii_lowercase() {
        (c as u8) - b'a' + 1
    } else {
        0 // boundary / non-letter
    }
}

impl CharModel {
    fn observe_token(&mut self, token: &str) {
        let chars: Vec<u8> = std::iter::once(0u8)
            .chain(std::iter::once(0u8))
            .chain(token.chars().map(encode))
            .chain(std::iter::once(0u8))
            .collect();
        for w in chars.windows(3) {
            let context = context_key(w[0], w[1]);
            let next = w[2] as usize;
            self.transitions[context * ALPHABET_SIZE + next] += 1.0;
            self.context_totals[context] += 1.0;
        }
    }

    /// Smoothed log P(next | context).
    fn log_prob(&self, context: usize, next: u8, alpha: f64) -> f64 {
        let count = self.transitions[context * ALPHABET_SIZE + next as usize];
        let total = self.context_totals[context];
        ((count + alpha) / (total + alpha * ALPHABET_SIZE as f64)).ln()
    }

    /// Total log-likelihood of a token plus its length in transitions.
    fn token_log_likelihood(&self, token: &str, alpha: f64) -> (f64, usize) {
        let chars: Vec<u8> = std::iter::once(0u8)
            .chain(std::iter::once(0u8))
            .chain(token.chars().map(encode))
            .chain(std::iter::once(0u8))
            .collect();
        let mut ll = 0.0;
        let mut n = 0;
        for w in chars.windows(3) {
            ll += self.log_prob(context_key(w[0], w[1]), w[2], alpha);
            n += 1;
        }
        (ll, n)
    }
}

/// A character Markov-model binary URL classifier.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MarkovClassifier {
    positive: CharModel,
    negative: CharModel,
    config: MarkovConfig,
    #[serde(skip, default)]
    tokenizer: Tokenizer,
}

impl MarkovClassifier {
    /// Train from positive and negative URL lists.
    pub fn train<S: AsRef<str>>(
        positive_urls: &[S],
        negative_urls: &[S],
        config: MarkovConfig,
    ) -> Self {
        assert!(
            !positive_urls.is_empty() && !negative_urls.is_empty(),
            "the Markov classifier needs URLs of both classes"
        );
        let tokenizer = Tokenizer::default();
        let mut positive = CharModel::default();
        let mut negative = CharModel::default();
        for url in positive_urls {
            for token in tokenizer.tokenize(url.as_ref()) {
                positive.observe_token(&token);
            }
        }
        for url in negative_urls {
            for token in tokenizer.tokenize(url.as_ref()) {
                negative.observe_token(&token);
            }
        }
        Self {
            positive,
            negative,
            config,
            tokenizer,
        }
    }

    /// Average per-transition log-likelihood ratio of a URL.
    pub fn log_likelihood_ratio(&self, url: &str) -> f64 {
        let mut ratio = 0.0;
        let mut transitions = 0usize;
        for token in self.tokenizer.tokenize(url) {
            let (lp, n) = self
                .positive
                .token_log_likelihood(&token, self.config.alpha);
            let (ln, _) = self
                .negative
                .token_log_likelihood(&token, self.config.alpha);
            ratio += lp - ln;
            transitions += n;
        }
        if transitions == 0 {
            return -1.0;
        }
        ratio / transitions as f64
    }
}

impl UrlClassifier for MarkovClassifier {
    fn classify_url(&self, url: &str) -> bool {
        self.log_likelihood_ratio(url) > 0.0
    }

    fn score_url(&self, url: &str) -> f64 {
        self.log_likelihood_ratio(url)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn german_urls() -> Vec<String> {
        vec![
            "http://www.wetterbericht.de/nachrichten".into(),
            "http://www.versicherung-vergleich.de/angebote".into(),
            "http://www.wohnung-mieten.de/muenchen".into(),
            "http://www.buecher-verlag.de/geschichte".into(),
            "http://www.gesundheit-heute.de/krankenhaus".into(),
            "http://www.schule-lernen.de/unterricht".into(),
        ]
    }

    fn english_urls() -> Vec<String> {
        vec![
            "http://www.weather-report.co.uk/news".into(),
            "http://www.insurance-compare.com/offers".into(),
            "http://www.apartment-rentals.com/chicago".into(),
            "http://www.book-publishing.com/history".into(),
            "http://www.health-today.com/hospital".into(),
            "http://www.school-learning.com/teaching".into(),
        ]
    }

    #[test]
    fn distinguishes_german_from_english_character_patterns() {
        let m = MarkovClassifier::train(&german_urls(), &english_urls(), MarkovConfig::default());
        // Unseen German-looking tokens: "zeitschrift", "verwaltung".
        assert!(m.classify_url("http://www.zeitschrift-verwaltung.de/"));
        // Unseen English-looking tokens.
        assert!(!m.classify_url("http://www.washington-times.com/reporting"));
    }

    #[test]
    fn generalizes_to_unseen_tokens_via_character_statistics() {
        let m = MarkovClassifier::train(&german_urls(), &english_urls(), MarkovConfig::default());
        // Invented words with German morphology vs English morphology.
        let german_score = m.score_url("http://example.org/verschlungenheit");
        let english_score = m.score_url("http://example.org/throughoutness");
        assert!(
            german_score > english_score,
            "German-looking token should score higher: {german_score} vs {english_score}"
        );
    }

    #[test]
    fn urls_without_tokens_are_rejected() {
        let m = MarkovClassifier::train(&german_urls(), &english_urls(), MarkovConfig::default());
        assert!(!m.classify_url("12345"));
        assert!(!m.classify_url(""));
    }

    #[test]
    fn smoothing_keeps_scores_finite_for_exotic_input() {
        let m = MarkovClassifier::train(&german_urls(), &english_urls(), MarkovConfig::default());
        for url in [
            "http://xqzw.jp/qqqq",
            "http://zzz.ru/xxyyzz",
            "http://a-b-c.info/",
        ] {
            assert!(m.score_url(url).is_finite(), "{url}");
        }
    }

    #[test]
    #[should_panic]
    fn empty_training_panics() {
        let none: Vec<String> = Vec::new();
        let _ = MarkovClassifier::train(&none, &english_urls(), MarkovConfig::default());
    }
}
