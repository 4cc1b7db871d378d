//! In-process cost of each layer a served request passes, timed around
//! calls into each layer's public functions with the workload's exact
//! request and response shapes, under the counting allocator.

use crate::alloc::allocations;
use crate::ledger::LayerCosts;
use crate::stats::median;
use serde::Value;
use std::hint::black_box;
use std::time::Instant;
use urlid::classifiers::LanguageClassifierSet;
use urlid::features::ExtractScratch;
use urlid_serve::http::{response_bytes, ParserLimits, RequestParser};
use urlid_serve::{normalize_url, ResultCache};

/// Timed rounds per layer; the median round is reported.
const ROUNDS: usize = 7;
/// Each round runs for at least this long.
const ROUND_NS: u128 = 20_000_000;

/// Nanoseconds and allocations per call of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Median nanoseconds per call.
    pub ns: f64,
    /// Allocations per call (exact).
    pub allocs: f64,
}

/// Per-call timings of several ops over the same `0..n` inputs, taken
/// in interleaved rounds so that drift in machine speed hits them alike.
struct Rounds {
    /// Steady-state allocations per call, per op.
    allocs: Vec<f64>,
    /// Nanoseconds per call, per op, per round.
    ns: Vec<Vec<f64>>,
}

/// Run each op over `i` in `0..n`: one warm-up pass, one pass counting
/// allocations, then [`ROUNDS`] rounds in which every op in turn runs
/// enough passes to last about [`ROUND_NS`].
fn interleaved(n: usize, ops: &mut [&mut dyn FnMut(usize)]) -> Rounds {
    assert!(n > 0, "nothing to measure");
    let mut allocs = Vec::with_capacity(ops.len());
    let mut passes = Vec::with_capacity(ops.len());
    for op in ops.iter_mut() {
        for i in 0..n {
            op(i);
        }
        let allocs_before = allocations();
        let started = Instant::now();
        for i in 0..n {
            op(i);
        }
        let one_pass = started.elapsed().as_nanos().max(1);
        allocs.push((allocations() - allocs_before) as f64 / n as f64);
        passes.push((ROUND_NS / one_pass + 1) as usize);
    }
    let mut ns = vec![Vec::with_capacity(ROUNDS); ops.len()];
    for _ in 0..ROUNDS {
        for (k, op) in ops.iter_mut().enumerate() {
            let started = Instant::now();
            for _ in 0..passes[k] {
                for i in 0..n {
                    op(i);
                }
            }
            ns[k].push(started.elapsed().as_nanos() as f64 / (passes[k] * n) as f64);
        }
    }
    Rounds { allocs, ns }
}

/// Median nanoseconds and steady-state allocations per call of `op`.
fn measure(n: usize, mut op: impl FnMut(usize)) -> Cost {
    let rounds = interleaved(n, &mut [&mut op]);
    Cost {
        ns: median(&rounds.ns[0]),
        allocs: rounds.allocs[0],
    }
}

/// The inputs the layers are timed on, all taken from one workload.
pub struct Inputs<'a> {
    /// Request bytes (head and body) exactly as the client sent them.
    pub requests: &'a [Vec<u8>],
    /// Response bodies exactly as the server sent them.
    pub responses: &'a [String],
    /// Raw URLs the workload sends.
    pub urls: &'a [&'a str],
    /// The cache answers every probe (a pool workload) or none.
    pub hits: bool,
    /// Cache shard sets (the server's reactor count).
    pub cache_sets: usize,
    /// The served model, loaded in this process.
    pub model: &'a LanguageClassifierSet,
}

/// Every in-process layer figure.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// `RequestParser::feed` + `next_request`.
    pub http_parse: Cost,
    /// `serde_json::from_str::<Value>` on the request body.
    pub json_decode: Cost,
    /// `serde_json::to_string` of a response value.
    pub json_encode: Cost,
    /// `response_bytes`.
    pub http_response: Cost,
    /// `normalize_url`, per URL.
    pub normalize: Cost,
    /// `ResultCache::get_in`, per URL.
    pub probe: Cost,
    /// `ResultCache::insert_in` on a full cache (evicting), per URL.
    pub insert: Cost,
    /// Feature extraction, per URL.
    pub extract: Cost,
    /// `score_all_with` minus extraction, per URL.
    pub score: Cost,
    /// `score_batch` over [`crate::workload::BATCH`] URLs, per URL.
    pub batch_per_url: Cost,
}

impl Layers {
    /// The ledger's view: nanoseconds per call.
    pub fn costs(&self) -> LayerCosts {
        LayerCosts {
            decode: self.json_decode.ns,
            normalize: self.normalize.ns,
            probe: self.probe.ns,
            insert: self.insert.ns,
            extract: self.extract.ns,
            score: self.score.ns,
            encode: self.json_encode.ns,
            response: self.http_response.ns,
        }
    }
}

fn body_of(request: &[u8]) -> &str {
    let start = request
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(request.len(), |i| i + 4);
    std::str::from_utf8(&request[start..]).expect("the client sends UTF-8 bodies")
}

/// Keys that are not URLs of the workload, to fill a cache with.
fn filler_keys(n: usize, tag: &str) -> Vec<String> {
    (0..n)
        .map(|i| format!("http://www.filler-{tag}-{i}.example.org/seite/{i}"))
        .collect()
}

/// A cache shaped like the server's whose set 0 is full of filler keys.
fn full_cache(sets: usize) -> ResultCache {
    let cache = ResultCache::with_sets(
        crate::workload::CACHE_CAPACITY,
        ResultCache::DEFAULT_SHARDS,
        sets,
    );
    // 25 % over the set's share, so every shard of the set is full.
    for key in filler_keys(crate::workload::CACHE_CAPACITY * 5 / 4 / sets, "fill") {
        cache.insert_in(0, &key, 0, [Some(0.0); 5]);
    }
    cache
}

/// Measure every layer.
pub fn measure_all(inputs: &Inputs<'_>) -> Layers {
    assert!(
        inputs.urls.len() >= crate::workload::BATCH,
        "the layers are timed on at least one full batch of URLs"
    );
    let requests = inputs.requests;
    let bodies: Vec<&str> = requests.iter().map(|r| body_of(r)).collect();
    let responses = inputs.responses;
    let values: Vec<Value> = responses
        .iter()
        .map(|r| serde_json::from_str::<Value>(r).expect("the server answers JSON"))
        .collect();
    let keys: Vec<String> = inputs.urls.iter().map(|u| normalize_url(u)).collect();
    let model = inputs.model;

    let mut parser = RequestParser::new(ParserLimits::default());
    let http_parse = measure(requests.len(), |i| {
        parser.feed(&requests[i]);
        let request = parser.next_request();
        black_box(request.expect("valid request").expect("complete request"));
    });
    let json_decode = measure(bodies.len(), |i| {
        black_box(serde_json::from_str::<Value>(bodies[i]).expect("valid body"));
    });
    let json_encode = measure(values.len(), |i| {
        black_box(serde_json::to_string(&values[i]).expect("serialisable"));
    });
    let http_response = measure(responses.len(), |i| {
        black_box(response_bytes(200, &responses[i], true));
    });
    let normalize = measure(inputs.urls.len(), |i| {
        black_box(normalize_url(inputs.urls[i]));
    });

    let probe_cache = if inputs.hits {
        let cache = ResultCache::with_sets(
            crate::workload::CACHE_CAPACITY,
            ResultCache::DEFAULT_SHARDS,
            inputs.cache_sets,
        );
        for key in &keys {
            cache.insert_in(0, key, 0, [Some(0.0); 5]);
        }
        cache
    } else {
        full_cache(inputs.cache_sets)
    };
    let probe = measure(keys.len(), |i| {
        black_box(probe_cache.get_in(0, &keys[i], 0));
    });
    drop(probe_cache);

    // Every insert must evict: fresh keys into a full set, each key
    // inserted once (so no pass can re-time an update in place).
    let insert_cache = full_cache(inputs.cache_sets);
    let per_round = keys.len().clamp(1, 4_096);
    let fresh: Vec<Vec<String>> = (0..=ROUNDS)
        .map(|round| {
            keys.iter()
                .cycle()
                .take(per_round)
                .enumerate()
                .map(|(i, k)| format!("{k}?round={round}&i={i}"))
                .collect()
        })
        .collect();
    let allocs_before = allocations();
    for key in &fresh[0] {
        insert_cache.insert_in(0, key, 0, [Some(0.0); 5]);
    }
    let insert_allocs = (allocations() - allocs_before) as f64 / per_round as f64;
    let insert_rounds: Vec<f64> = fresh[1..]
        .iter()
        .map(|round| {
            let started = Instant::now();
            for key in round {
                insert_cache.insert_in(0, key, 0, [Some(0.0); 5]);
            }
            started.elapsed().as_nanos() as f64 / per_round as f64
        })
        .collect();
    let insert = Cost {
        ns: median(&insert_rounds),
        allocs: insert_allocs,
    };
    drop(insert_cache);

    // Scoring has no entry point of its own: it is `score_all_with`
    // minus the extraction it starts with, differenced round by round.
    let transform = model.plane().and_then(|plane| plane.transform());
    let extractor = model
        .extractor()
        .expect("a feature-based model has an extractor");
    let mut extract_scratch = ExtractScratch::new();
    let mut score_scratch = ExtractScratch::new();
    let mut extract_op = |i: usize| match transform {
        // Into the reused scratch vector, as `score_all_with` extracts.
        Some(transform) => {
            transform.extract_into(&keys[i], &mut extract_scratch);
            black_box(&extract_scratch.vector);
        }
        None => {
            black_box(extractor.transform(&keys[i]));
        }
    };
    let mut total_op = |i: usize| {
        black_box(model.score_all_with(&keys[i], &mut score_scratch));
    };
    let rounds = interleaved(keys.len(), &mut [&mut extract_op, &mut total_op]);
    let extract = Cost {
        ns: median(&rounds.ns[0]),
        allocs: rounds.allocs[0],
    };
    let differences: Vec<f64> = rounds.ns[1]
        .iter()
        .zip(&rounds.ns[0])
        .map(|(total, extract)| total - extract)
        .collect();
    let score = Cost {
        ns: median(&differences),
        allocs: rounds.allocs[1] - rounds.allocs[0],
    };
    let batches: Vec<Vec<&str>> = keys
        .chunks(crate::workload::BATCH)
        .filter(|c| c.len() == crate::workload::BATCH)
        .map(|c| c.iter().map(String::as_str).collect())
        .collect();
    let batch = measure(batches.len(), |i| {
        black_box(model.score_batch(&batches[i]));
    });
    let batch_per_url = Cost {
        ns: batch.ns / crate::workload::BATCH as f64,
        allocs: batch.allocs / crate::workload::BATCH as f64,
    };

    Layers {
        http_parse,
        json_decode,
        json_encode,
        http_response,
        normalize,
        probe,
        insert,
        extract,
        score,
        batch_per_url,
    }
}
