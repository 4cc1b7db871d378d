//! The crawler workloads and their seeded inputs.
//!
//! URLs come from the corpus crate's crawl-frontier mix (round-robin
//! over the five languages, web-crawl profile), deduplicated on the
//! server's cache key so that "distinct" means distinct to the cache.

use std::collections::HashSet;
use std::hash::{DefaultHasher, Hash, Hasher};
use urlid::corpus::{DatasetProfile, UrlGenerator};
use urlid::lexicon::ALL_LANGUAGES;
use urlid_serve::normalize_url;

/// The server's default result-cache capacity (`--cache-capacity`).
pub const CACHE_CAPACITY: usize = 65_536;

/// URLs per `/identify_batch` request of the cache fill, and per
/// `score_batch` call in the in-process layers: `score_batch`'s
/// parallel threshold, so the scoped fan-out runs.
pub const BATCH: usize = 256;

/// One workload. Every timed phase is a closed loop of `/identify`
/// requests, one URL each and one outstanding per connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// `urlid train --features` value (always with `--algorithm nb`).
    pub features: &'static str,
    /// Connections (capped at the core count).
    pub conns: usize,
    /// `Some(n)`: requests draw with repetition from `n` distinct URLs
    /// that are sent once on each connection before timing, so the
    /// cache answers. `None`: every URL is distinct and sent once, after
    /// a fill that leaves the cache full, so every request misses and
    /// every insert evicts.
    pub pool: Option<usize>,
    /// URLs answered per second the run's inputs are sized for, with
    /// headroom over the fastest rate measured on a 2-core box. A miss
    /// workload that exhausts its supply stops early and reports the
    /// rate over the time it ran.
    pub supply_per_s: usize,
}

/// Every workload, in `BENCHMARK.json` order. There is no timed
/// `/identify_batch` workload: on a shared 2-core host its whole-run
/// latency tail swung by up to 3× between runs of one seed, and its
/// scoring is still timed in process (`classifiers.batch_ns_per_url`).
pub const WORKLOADS: [Workload; 2] = [
    // Pure serving overhead: the cache answers, scoring does no work.
    Workload {
        name: "hot_repeat",
        features: "words",
        conns: 2,
        pool: Some(2_000),
        supply_per_s: 60_000,
    },
    // A crawler asking about each discovered URL once: the miss path
    // through the interpreted custom extractor plus cache writes.
    Workload {
        name: "frontier_custom",
        features: "custom",
        conns: 2,
        pool: None,
        supply_per_s: 40_000,
    },
];

/// URLs, from the start of each run's seeded stream, that `accuracy` is
/// taken over: enough that it moves by well under 1 % from seed to seed.
pub const ACCURACY_URLS: usize = 200_000;

impl Workload {
    /// Look a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }
}

/// A compact list of URLs with the language each was drawn for.
#[derive(Debug, Default, Clone)]
pub struct UrlSet {
    text: String,
    ends: Vec<usize>,
    labels: Vec<u8>,
}

impl UrlSet {
    /// Number of URLs.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when there are no URLs.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// URL `i`.
    pub fn url(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// `Language::index` of the language URL `i` was drawn for.
    pub fn label(&self, i: usize) -> u8 {
        self.labels[i]
    }

    fn push(&mut self, url: &str, label: u8) {
        self.text.push_str(url);
        self.ends.push(self.text.len());
        self.labels.push(label);
    }
}

fn key_hash(url: &str) -> u64 {
    let mut h = DefaultHasher::new();
    normalize_url(url).hash(&mut h);
    h.finish()
}

/// The first `n` URLs of the crawl-frontier mix for `seed` that are
/// distinct after `normalize_url`. The stream is the one
/// `UrlGenerator::crawl_frontier_mix(seed, m)` returns for any `m`
/// (URL `i` drawn for language `i mod 5`), read until `n` distinct
/// keys have been seen.
pub fn distinct_frontier(seed: u64, n: usize) -> UrlSet {
    let mut generator = UrlGenerator::new(seed);
    let profile = DatasetProfile::web_crawl();
    let mut seen = HashSet::with_capacity(n);
    let mut out = UrlSet::default();
    let mut i = 0usize;
    while out.len() < n {
        let lang = ALL_LANGUAGES[i % ALL_LANGUAGES.len()];
        let url = generator.generate(lang, &profile);
        if seen.insert(key_hash(&url)) {
            out.push(&url, lang.index() as u8);
        }
        i += 1;
    }
    out
}

/// Deterministic pseudo-random draw `k` of stream `stream` under
/// `seed`, uniform over `0..n`.
pub fn draw(seed: u64, stream: u64, k: u64, n: usize) -> usize {
    let x = crate::scan::mix(seed ^ crate::scan::mix(stream ^ crate::scan::mix(k)));
    (x % n as u64) as usize
}

/// Append `s` to `out` as a JSON string.
pub fn push_json_string(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    for c in s.chars() {
        match c {
            '"' => out.extend_from_slice(b"\\\""),
            '\\' => out.extend_from_slice(b"\\\\"),
            c if (c as u32) < 0x20 => {
                out.extend_from_slice(format!("\\u{:04x}", c as u32).as_bytes())
            }
            c => {
                let mut buf = [0u8; 4];
                out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
            }
        }
    }
    out.push(b'"');
}
