//! Reads answers out of `/identify` and `/identify_batch` response
//! bodies without building a JSON tree, so the client stays cheap next
//! to the server it measures. Scores are parsed with `str::parse`,
//! which inverts the server's shortest round-trip float formatting
//! exactly, so they can be compared bit for bit.

use urlid::lexicon::ALL_LANGUAGES;

/// One URL's answer: the best language and the five per-language
/// scores, both indexed by `Language::index`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// Index of the best language, `None` for a JSON `null`.
    pub best: Option<u8>,
    /// Per-language score, `None` for a JSON `null`.
    pub scores: [Option<f64>; 5],
}

impl Answer {
    /// The answer `scores` imply: best by the server's rule (highest
    /// score, ties to the later language).
    pub fn from_scores(scores: [Option<f64>; 5]) -> Self {
        let best = urlid::classifiers::LanguageClassifierSet::best_of(&scores)
            .map(|lang| lang.index() as u8);
        Self { best, scores }
    }

    /// A 64-bit digest of the best language and the exact score bits;
    /// two answers agree bit for bit exactly when their digests do (up
    /// to a 2^-64 collision).
    pub fn fingerprint(&self) -> u64 {
        let mut h = mix(u64::from(self.best.map_or(255, |b| b)));
        for score in self.scores {
            let bits = score.map_or(0x7ff8_dead_beef_0001, f64::to_bits);
            h = mix(h ^ bits);
        }
        h
    }
}

/// SplitMix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn language_index(code: &str) -> Option<u8> {
    ALL_LANGUAGES
        .iter()
        .find(|lang| lang.iso_code() == code)
        .map(|lang| lang.index() as u8)
}

/// Position just past the next occurrence of `needle` at or after `from`.
fn after(text: &str, from: usize, needle: &str) -> Option<usize> {
    text.get(from..)?
        .find(needle)
        .map(|i| from + i + needle.len())
}

/// A JSON string or `null` starting at `at`; returns the string (None
/// for null) and the position after it.
fn string_or_null(text: &str, at: usize) -> Option<(Option<&str>, usize)> {
    let rest = text.get(at..)?;
    if rest.starts_with("null") {
        return Some((None, at + 4));
    }
    let body = rest.strip_prefix('"')?;
    let end = body.find('"')?;
    Some((Some(&body[..end]), at + 1 + end + 1))
}

/// Parse one result object's `best` and `scores` starting the search at
/// `from`; returns the answer and the position after its scores object.
fn answer_at(text: &str, from: usize) -> Option<(Answer, usize)> {
    let best_at = after(text, from, "\"best\":")?;
    let (best, _) = string_or_null(text, best_at)?;
    let best = match best {
        Some(code) => Some(language_index(code)?),
        None => None,
    };
    let mut at = after(text, best_at, "\"scores\":{")?;
    let mut scores = [None; 5];
    loop {
        let (Some(code), colon) = string_or_null(text, at)? else {
            return None;
        };
        let index = usize::from(language_index(code)?);
        let value_start = colon + 1;
        let value_len = text
            .get(value_start..)?
            .find([',', '}'])
            .filter(|&n| n > 0)?;
        let value = &text[value_start..value_start + value_len];
        scores[index] = match value {
            "null" => None,
            number => Some(number.parse::<f64>().ok()?),
        };
        at = value_start + value_len + 1;
        if text.as_bytes()[at - 1] == b'}' {
            return Some((Answer { best, scores }, at));
        }
    }
}

/// The answer in an `/identify` response body.
pub fn identify(body: &str) -> Option<Answer> {
    answer_at(body, 0).map(|(answer, _)| answer)
}

/// The answers in an `/identify_batch` response body, in request order,
/// appended to `out`. Returns how many were read.
pub fn identify_batch(body: &str, out: &mut Vec<Answer>) -> usize {
    let mut at = 0;
    let mut read = 0;
    while let Some((answer, next)) = answer_at(body, at) {
        out.push(answer);
        at = next;
        read += 1;
    }
    read
}
