//! `scorebench` — wall-clock benchmark of the compiled scoring plane.
//!
//! Trains every persistable algorithm × feature recipe (15 of them) on a
//! small sharded corpus, then measures `identify_batch` throughput over
//! a crawl-frontier probe set twice per recipe — through the
//! **interpreted** scoring path (the training-time representation:
//! `HashMap` vocabularies, per-language model structures) and through
//! the **compiled plane** (arena-interned vocabulary, fused
//! language-major dense-weight matrix) — and writes the timings to
//! `BENCH_score.json` (`"schema": 4`):
//!
//! ```text
//! cargo run --release -p urlid-bench --bin scorebench -- \
//!     [--scale 0.004] [--seed 42] [--urls 4000] [--reps 3] \
//!     [--maxent-iters 6] [--out BENCH_score.json]
//! ```
//!
//! The bench is a differential check as much as a benchmark; it exits
//! non-zero if any contract is violated, so a CI regression gate on the
//! report can trust the numbers it compares:
//!
//! * the compiled plane must match the interpreted oracle within
//!   1e-12 (in fact bit-identically) on every probe URL;
//! * the uniform-plane recipes (words/trigrams/custom × nb/re/me) must
//!   score a warm probe pass with **zero heap allocations**, proven by
//!   the counting global allocator below;
//! * the same zero-allocation contract must hold through the
//!   **instrumented split path** (`score_all_with_split`, the serve
//!   layer's per-stage telemetry), whose scores must also match the
//!   untimed path bit-for-bit — telemetry is observation, not a fork.

use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use urlid::features::ExtractScratch;
use urlid::prelude::*;
use urlid_corpus::ShardPlan;

/// Counting wrapper around the system allocator: every `alloc`,
/// `alloc_zeroed` and growing `realloc` bumps one relaxed counter.
/// Lives in the benchmark binary (its own crate root) so the library
/// crates keep their `#![forbid(unsafe_code)]`.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[derive(Debug, Serialize)]
struct RecipeBench {
    features: String,
    algorithm: String,
    /// URLs/second through the interpreted path.
    interpreted_rps: f64,
    /// URLs/second through the compiled plane.
    compiled_rps: f64,
    /// compiled_rps / interpreted_rps.
    speedup: f64,
    /// Did every probe URL produce identical decisions and scores
    /// within 1e-12 (in fact: bit-identical) on both paths?
    equal: bool,
    /// Largest |compiled − interpreted| score difference observed.
    max_score_diff: f64,
    /// Heap allocations per URL during a warm sequential scoring pass
    /// (reused `ExtractScratch`, counting global allocator).
    steady_allocs_per_url: f64,
    /// Same audit through the instrumented `score_all_with_split` path
    /// (per-stage telemetry enabled). Gated exactly like
    /// `steady_allocs_per_url` — telemetry must not allocate.
    split_allocs_per_url: f64,
    /// Warm single-threaded throughput of the untimed scoring path
    /// (URLs/second, best of `reps`). Informational.
    plain_path_rps: f64,
    /// Warm single-threaded throughput with per-stage timing enabled
    /// (`score_all_with_split`). Informational: the gap to
    /// `plain_path_rps` is the raw cost of three `Instant` reads per
    /// URL on a sub-microsecond hot loop.
    split_path_rps: f64,
    /// Must this recipe score with zero steady-state allocations?
    /// True for the uniform-plane recipes: words/trigrams/custom ×
    /// nb/re/me.
    zero_alloc_required: bool,
}

#[derive(Debug, Serialize)]
struct ScoreBenchReport {
    bench: &'static str,
    /// Report format version; bumped when fields are added so the CI
    /// gate can stay tolerant of older committed baselines.
    schema: u32,
    unix_time: u64,
    cores: usize,
    corpus_urls: usize,
    corpus_scale: f64,
    probe_urls: usize,
    reps: usize,
    maxent_iterations: usize,
    recipes: Vec<RecipeBench>,
    /// Total probe seconds, interpreted vs compiled, across recipes.
    total_interpreted_secs: f64,
    total_compiled_secs: f64,
    /// Headline `identify_batch` speedup of the compiled plane: the
    /// geometric mean of the per-recipe speedups (robust against one
    /// slow recipe — k-NN spends seconds where NB spends milliseconds —
    /// dominating a wall-clock ratio).
    identify_batch_speedup: f64,
    equal_all: bool,
    /// Every zero-alloc-required recipe measured 0 allocations/URL.
    zero_alloc_ok: bool,
    /// Every zero-alloc-required recipe also measured 0 allocations/URL
    /// through the instrumented split path, and the split path's scores
    /// matched the untimed path on every probe URL.
    split_path_ok: bool,
}

struct Config {
    scale: f64,
    seed: u64,
    urls: usize,
    reps: usize,
    maxent_iters: usize,
    out: String,
}

fn parse_args() -> Result<Config, String> {
    let mut config = Config {
        scale: 0.004,
        seed: 42,
        urls: 4000,
        reps: 3,
        maxent_iters: 6,
        out: "BENCH_score.json".to_owned(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {:?}", argv[i]))?;
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for --{key}"))?;
        match key {
            "scale" => config.scale = value.parse().map_err(|_| format!("bad --scale {value}"))?,
            "seed" => config.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "urls" => config.urls = value.parse().map_err(|_| format!("bad --urls {value}"))?,
            "reps" => {
                config.reps = value.parse().map_err(|_| format!("bad --reps {value}"))?;
                if config.reps == 0 {
                    return Err("--reps must be at least 1".to_owned());
                }
            }
            "maxent-iters" => {
                config.maxent_iters = value
                    .parse()
                    .map_err(|_| format!("bad --maxent-iters {value}"))?
            }
            "out" => config.out = value.clone(),
            other => return Err(format!("unknown flag --{other}")),
        }
        i += 2;
    }
    Ok(config)
}

/// Best-of-`reps` wall-clock for one full `identify_batch` pass.
fn time_batch(identifier: &LanguageIdentifier, urls: &[&str], reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let started = Instant::now();
        let decisions = identifier.identify_batch(urls);
        let elapsed = started.elapsed().as_secs_f64();
        assert_eq!(decisions.len(), urls.len());
        best = best.min(elapsed);
    }
    best
}

/// Steady-state allocations per URL: one full warm pass grows every
/// reusable buffer (`ExtractScratch`, the sparse vector, the rank
/// buffer) to its high-water mark, then a second full pass is measured
/// through the counting allocator. Single-threaded on purpose — the
/// batch fan-out's thread spawns would drown the per-URL signal.
fn steady_allocs_per_url(identifier: &LanguageIdentifier, urls: &[&str]) -> f64 {
    let set = identifier.classifier_set();
    let mut scratch = ExtractScratch::new();
    for url in urls {
        let _ = set.score_all_with(url, &mut scratch);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for url in urls {
        let _ = set.score_all_with(url, &mut scratch);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (after - before) as f64 / urls.len().max(1) as f64
}

/// The [`steady_allocs_per_url`] audit through the instrumented
/// `score_all_with_split` path, which is what the server's per-stage
/// telemetry runs on. Also differentially checks that the split path
/// returns the exact same scores as the untimed path (bit-for-bit:
/// both route through the same extraction and scoring helpers).
/// Returns (allocations per URL, scores matched everywhere).
fn steady_split_allocs_per_url(identifier: &LanguageIdentifier, urls: &[&str]) -> (f64, bool) {
    let set = identifier.classifier_set();
    let mut scratch = ExtractScratch::new();
    let mut scores_match = true;
    for url in urls {
        let plain = set.score_all_with(url, &mut scratch);
        let (split, _) = set.score_all_with_split(url, &mut scratch);
        if plain != split {
            scores_match = false;
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for url in urls {
        let _ = set.score_all_with_split(url, &mut scratch);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    let per_url = (after - before) as f64 / urls.len().max(1) as f64;
    (per_url, scores_match)
}

/// Warm single-threaded throughputs of the untimed scoring path and the
/// instrumented split path (URLs/second, best of `reps` each). The pair
/// quantifies what per-stage telemetry costs on the raw hot loop —
/// informational, not gated: three `Instant` reads are a fixed ~100ns
/// against a ~400ns scoring loop, and the end-to-end ≤2% budget is
/// enforced where it is meaningful, at the serve level (see CI).
fn split_overhead_rps(identifier: &LanguageIdentifier, urls: &[&str], reps: usize) -> (f64, f64) {
    let set = identifier.classifier_set();
    let mut scratch = ExtractScratch::new();
    let mut plain_best = f64::INFINITY;
    let mut split_best = f64::INFINITY;
    for _ in 0..reps {
        let started = Instant::now();
        for url in urls {
            std::hint::black_box(set.score_all_with(url, &mut scratch));
        }
        plain_best = plain_best.min(started.elapsed().as_secs_f64());
        let started = Instant::now();
        for url in urls {
            std::hint::black_box(set.score_all_with_split(url, &mut scratch));
        }
        split_best = split_best.min(started.elapsed().as_secs_f64());
    }
    let n = urls.len().max(1) as f64;
    (n / plain_best, n / split_best)
}

fn run() -> Result<(), String> {
    let config = parse_args()?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let plan = ShardPlan::odp_training(config.seed, CorpusScale(config.scale), 16);
    let training = plan.assemble(0);
    let probe_owned = UrlGenerator::crawl_frontier_mix(config.seed.wrapping_add(1), config.urls);
    let probe: Vec<&str> = probe_owned.iter().map(|s| s.as_str()).collect();
    eprintln!(
        "corpus: {} URLs; probe: {} URLs × {} reps; {} cores",
        training.len(),
        probe.len(),
        config.reps,
        cores
    );

    let algorithms = [
        ("nb", Algorithm::NaiveBayes),
        ("re", Algorithm::RelativeEntropy),
        ("me", Algorithm::MaxEnt),
        ("dt", Algorithm::DecisionTree),
        ("knn", Algorithm::KNearestNeighbors),
    ];
    let feature_sets = [
        ("words", FeatureSetKind::Words),
        ("trigrams", FeatureSetKind::Trigrams),
        ("custom", FeatureSetKind::Custom),
    ];

    let mut recipes = Vec::new();
    let mut equal_all = true;
    let mut zero_alloc_ok = true;
    let mut split_path_ok = true;
    for (feature_name, feature_set) in feature_sets {
        for (algorithm_name, algorithm) in algorithms {
            let tc = TrainingConfig::new(feature_set, algorithm)
                .with_seed(config.seed)
                .with_maxent_iterations(config.maxent_iters);
            let bundle = ModelBundle::train(&training, &tc).map_err(|e| format!("train: {e}"))?;

            // Two identifiers from the same trained bytes: the load path
            // compiles, and the baseline explicitly decompiles.
            let compiled = bundle.clone().into_identifier();
            assert!(compiled.classifier_set().is_compiled());
            let mut interpreted = bundle.into_identifier();
            interpreted.classifier_set_mut().clear_compiled();
            assert!(!interpreted.classifier_set().is_compiled());

            // Differential check before timing anything: compiled vs
            // the interpreted oracle.
            let mut equal = true;
            let mut max_score_diff = 0.0f64;
            for url in &probe {
                let c = compiled.classifier_set().score_all(url);
                let i = compiled.classifier_set().score_all_interpreted(url);
                for lang in ALL_LANGUAGES {
                    let (Some(cs), Some(is)) = (c[lang.index()], i[lang.index()]) else {
                        equal = false;
                        continue;
                    };
                    let diff = (cs - is).abs();
                    max_score_diff = max_score_diff.max(diff);
                    if diff.is_nan() || diff > 1e-12 {
                        equal = false;
                    }
                }
                if compiled.classifier_set().classify_all(url)
                    != compiled.classifier_set().classify_all_interpreted(url)
                {
                    equal = false;
                }
            }
            equal_all &= equal;

            // Steady-state allocation audit on the compiled plane.
            // The uniform recipes (all five languages on one linear or
            // entropy plane, over any feature family) must be
            // allocation-free once the scratch is warm; the hybrid dt/knn
            // fallbacks may allocate and are reported, not gated.
            let steady_allocs = steady_allocs_per_url(&compiled, &probe);
            let zero_alloc_required = matches!(algorithm_name, "nb" | "re" | "me");
            if zero_alloc_required && steady_allocs > 0.0 {
                zero_alloc_ok = false;
            }

            // The same audit with per-stage telemetry enabled: the
            // split path must stay allocation-free on the same recipes
            // and must return the exact same scores everywhere.
            let (split_allocs, split_scores_match) = steady_split_allocs_per_url(&compiled, &probe);
            if (zero_alloc_required && split_allocs > 0.0) || !split_scores_match {
                split_path_ok = false;
            }
            let (plain_path_rps, split_path_rps) =
                split_overhead_rps(&compiled, &probe, config.reps);

            // Warm-up once per leg, then best-of-reps.
            let _ = interpreted.identify_batch(&probe[..probe.len().min(256)]);
            let _ = compiled.identify_batch(&probe[..probe.len().min(256)]);
            let interpreted_secs = time_batch(&interpreted, &probe, config.reps);
            let compiled_secs = time_batch(&compiled, &probe, config.reps);

            let interpreted_rps = probe.len() as f64 / interpreted_secs;
            let compiled_rps = probe.len() as f64 / compiled_secs;
            let speedup = compiled_rps / interpreted_rps;
            eprintln!(
                "{feature_name:>8} + {algorithm_name:<3}  interpreted {interpreted_rps:9.0} u/s  \
                 compiled {compiled_rps:9.0} u/s ({speedup:4.2}x)  equal {equal}  \
                 allocs/url {steady_allocs:.2} (split {split_allocs:.2})",
            );
            recipes.push(RecipeBench {
                features: feature_name.to_owned(),
                algorithm: algorithm_name.to_owned(),
                interpreted_rps,
                compiled_rps,
                speedup,
                equal,
                max_score_diff,
                steady_allocs_per_url: steady_allocs,
                split_allocs_per_url: split_allocs,
                plain_path_rps,
                split_path_rps,
                zero_alloc_required,
            });
        }
    }

    let total_interpreted_secs: f64 = recipes
        .iter()
        .map(|r| probe.len() as f64 / r.interpreted_rps)
        .sum();
    let total_compiled_secs: f64 = recipes
        .iter()
        .map(|r| probe.len() as f64 / r.compiled_rps)
        .sum();
    let geomean = |values: &mut dyn Iterator<Item = f64>| -> f64 {
        let (sum, n) = values.fold((0.0f64, 0usize), |(s, n), v| (s + v.ln(), n + 1));
        (sum / n.max(1) as f64).exp()
    };
    let speedup_geomean = geomean(&mut recipes.iter().map(|r| r.speedup));
    let report = ScoreBenchReport {
        bench: "score",
        schema: 4,
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        cores,
        corpus_urls: training.len(),
        corpus_scale: config.scale,
        probe_urls: probe.len(),
        reps: config.reps,
        maxent_iterations: config.maxent_iters,
        recipes,
        total_interpreted_secs,
        total_compiled_secs,
        identify_batch_speedup: speedup_geomean,
        equal_all,
        zero_alloc_ok,
        split_path_ok,
    };
    let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
    std::fs::write(&config.out, &json).map_err(|e| format!("cannot write {}: {e}", config.out))?;
    eprintln!(
        "total probe time: interpreted {total_interpreted_secs:.2}s, compiled \
         {total_compiled_secs:.2}s; geomean speedup {:.2}x; equal {equal_all}; \
         zero-alloc {zero_alloc_ok}; split path {split_path_ok}; wrote {}",
        report.identify_batch_speedup, config.out
    );
    if !equal_all {
        return Err("differential violation: compiled plane diverged from interpreted".to_owned());
    }
    if !zero_alloc_ok {
        return Err(
            "allocation violation: a uniform-plane recipe allocated during warm scoring".to_owned(),
        );
    }
    if !split_path_ok {
        return Err(
            "telemetry violation: the instrumented split path allocated on a \
             uniform-plane recipe or returned different scores"
                .to_owned(),
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("scorebench: {message}");
            ExitCode::FAILURE
        }
    }
}
