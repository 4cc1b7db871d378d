//! `trainbench` — wall-clock benchmark of the sharded training pipeline.
//!
//! Trains every persistable algorithm × feature recipe (15 of them)
//! twice on the same sharded synthetic corpus — once at `--jobs 1`, once
//! at `--jobs <cores>` — verifies the two models are **bit-identical**
//! (packed `.urlm` byte equality plus score equality on a probe set), and
//! writes the per-recipe timings to `BENCH_train.json` (`"schema": 3`).
//!
//! The parallel leg runs through [`ModelBundle::train_traced`], the
//! instrumented pipeline behind `urlid train --verbose`: the bit-parity
//! check against the untraced serial leg therefore doubles as a
//! bench-scale proof that training observability never changes the
//! model, and the trace's phase split (fit / vectorize / models) plus
//! the GIS iteration count land in the report.
//!
//! ```text
//! cargo run --release -p urlid-bench --bin trainbench -- \
//!     [--scale 0.005] [--seed 42] [--shards 16] [--jobs 0] \
//!     [--maxent-iters 8] [--out BENCH_train.json]
//! ```
//!
//! `--jobs 0` (the default) resolves to one worker per CPU core. The
//! corpus itself is generated through the streaming shard plan
//! (`urlid_corpus::ShardPlan`), assembled on the same number of threads.

use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;
use urlid::prelude::*;
use urlid::DEFAULT_TRAIN_SHARDS;
use urlid_corpus::ShardPlan;
use urlid_features::parallel::effective_jobs;

#[derive(Debug, Serialize)]
struct RecipeBench {
    features: String,
    algorithm: String,
    serial_secs: f64,
    parallel_secs: f64,
    speedup: f64,
    parity: bool,
    /// Extractor-fit phase of the traced parallel run, seconds.
    fit_secs: f64,
    /// Vectorize phase of the traced parallel run, seconds.
    vectorize_secs: f64,
    /// Model-training phase of the traced parallel run, seconds.
    models_secs: f64,
    /// Total GIS iterations observed across the five languages
    /// (0 for non-iterative algorithms).
    gis_iterations: u64,
}

#[derive(Debug, Serialize)]
struct TrainBenchReport {
    bench: &'static str,
    /// Report format version; bumped when fields are added so the CI
    /// gate can stay tolerant of older committed baselines.
    schema: u32,
    unix_time: u64,
    cores: usize,
    jobs_serial: usize,
    jobs_parallel: usize,
    shards: usize,
    corpus_urls: usize,
    corpus_scale: f64,
    probe_urls: usize,
    maxent_iterations: usize,
    recipes: Vec<RecipeBench>,
    total_serial_secs: f64,
    total_parallel_secs: f64,
    speedup: f64,
    parity_all: bool,
}

struct Config {
    scale: f64,
    seed: u64,
    shards: usize,
    jobs: usize,
    maxent_iters: usize,
    out: String,
}

fn parse_args() -> Result<Config, String> {
    let mut config = Config {
        scale: 0.005,
        seed: 42,
        shards: DEFAULT_TRAIN_SHARDS,
        jobs: 0,
        maxent_iters: 8,
        out: "BENCH_train.json".to_owned(),
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
            "shards" => {
                config.shards = value.parse().map_err(|_| format!("bad --shards {value}"))?;
                if config.shards == 0 {
                    return Err("--shards must be at least 1".to_owned());
                }
            }
            "jobs" => config.jobs = value.parse().map_err(|_| format!("bad --jobs {value}"))?,
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

/// Train one bundle, returning the bundle and the wall-clock seconds.
fn timed_train(
    training: &Dataset,
    tc: &TrainingConfig,
    opts: TrainOptions,
) -> Result<(ModelBundle, f64), String> {
    let started = Instant::now();
    let bundle = ModelBundle::train_with(training, tc, opts).map_err(|e| e.to_string())?;
    Ok((bundle, started.elapsed().as_secs_f64()))
}

/// [`timed_train`] through the instrumented pipeline, additionally
/// returning the training trace.
fn timed_train_traced(
    training: &Dataset,
    tc: &TrainingConfig,
    opts: TrainOptions,
) -> Result<(ModelBundle, f64, TrainTrace), String> {
    let started = Instant::now();
    let (bundle, trace) =
        ModelBundle::train_traced(training, tc, opts).map_err(|e| e.to_string())?;
    Ok((bundle, started.elapsed().as_secs_f64(), trace))
}

fn run() -> Result<(), String> {
    let config = parse_args()?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs_parallel = effective_jobs(config.jobs);

    // Streaming sharded corpus generation, assembled in parallel (the
    // assembly is bit-identical to sequential iteration by construction).
    let plan = ShardPlan::odp_training(config.seed, CorpusScale(config.scale), config.shards);
    let training = plan.assemble(jobs_parallel);
    let probe = UrlGenerator::crawl_frontier_mix(config.seed.wrapping_add(1), 500);
    eprintln!(
        "corpus: {} URLs in {} shards; probe: {} URLs; jobs {} vs 1; {} cores",
        training.len(),
        plan.shards,
        probe.len(),
        jobs_parallel,
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

    let serial = TrainOptions {
        jobs: 1,
        shards: config.shards,
    };
    let parallel = TrainOptions {
        jobs: jobs_parallel,
        shards: config.shards,
    };

    let mut recipes = Vec::new();
    let mut parity_all = true;
    for (feature_name, feature_set) in feature_sets {
        for (algorithm_name, algorithm) in algorithms {
            let tc = TrainingConfig::new(feature_set, algorithm)
                .with_seed(config.seed)
                .with_maxent_iterations(config.maxent_iters);
            let (bundle_serial, serial_secs) = timed_train(&training, &tc, serial)?;
            let (bundle_parallel, parallel_secs, trace) =
                timed_train_traced(&training, &tc, parallel)?;

            // Parity: identical packed models *and* identical probe
            // scores (the latter is what the serving layer would see).
            // Both checks run unconditionally so a byte divergence still
            // reports whether behaviour diverged too. The parallel leg
            // is traced, so byte parity also certifies the trace is a
            // pure observation.
            let bytes_serial = bundle_serial.to_urlm_bytes().map_err(|e| e.to_string())?;
            let bytes_parallel = bundle_parallel.to_urlm_bytes().map_err(|e| e.to_string())?;
            let byte_parity = bytes_serial == bytes_parallel;
            let id_serial = bundle_serial.into_identifier();
            let id_parallel = bundle_parallel.into_identifier();
            let score_parity = probe.iter().all(|url| {
                id_serial.classifier_set().score_all(url)
                    == id_parallel.classifier_set().score_all(url)
            });
            if byte_parity != score_parity {
                eprintln!(
                    "  note: byte parity {byte_parity} but probe-score parity {score_parity}"
                );
            }
            let parity = byte_parity && score_parity;
            parity_all &= parity;

            let speedup = if parallel_secs > 0.0 {
                serial_secs / parallel_secs
            } else {
                1.0
            };
            let fit_secs = trace.fit_micros as f64 / 1e6;
            let vectorize_secs = trace.vectorize_micros as f64 / 1e6;
            let models_secs = trace.models_micros as f64 / 1e6;
            let gis_iterations: u64 = trace.gis.iter().map(|g| g.iterations.len() as u64).sum();
            eprintln!(
                "{feature_name:>8} + {algorithm_name:<3}  serial {serial_secs:7.3}s  \
                 jobs={jobs_parallel} {parallel_secs:7.3}s  speedup {speedup:4.2}x  \
                 parity {parity}  (fit {fit_secs:.3}s, vectorize {vectorize_secs:.3}s, \
                 models {models_secs:.3}s, gis iters {gis_iterations})",
            );
            recipes.push(RecipeBench {
                features: feature_name.to_owned(),
                algorithm: algorithm_name.to_owned(),
                serial_secs,
                parallel_secs,
                speedup,
                parity,
                fit_secs,
                vectorize_secs,
                models_secs,
                gis_iterations,
            });
        }
    }

    let total_serial_secs: f64 = recipes.iter().map(|r| r.serial_secs).sum();
    let total_parallel_secs: f64 = recipes.iter().map(|r| r.parallel_secs).sum();
    let report = TrainBenchReport {
        bench: "train",
        schema: 3,
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        cores,
        jobs_serial: 1,
        jobs_parallel,
        shards: config.shards,
        corpus_urls: training.len(),
        corpus_scale: config.scale,
        probe_urls: probe.len(),
        maxent_iterations: config.maxent_iters,
        recipes,
        total_serial_secs,
        total_parallel_secs,
        speedup: if total_parallel_secs > 0.0 {
            total_serial_secs / total_parallel_secs
        } else {
            1.0
        },
        parity_all,
    };
    let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
    std::fs::write(&config.out, &json).map_err(|e| format!("cannot write {}: {e}", config.out))?;
    eprintln!(
        "total: serial {total_serial_secs:.2}s, jobs={jobs_parallel} {total_parallel_secs:.2}s \
         ({:.2}x); parity {parity_all}; wrote {}",
        report.speedup, config.out
    );
    if !parity_all {
        return Err("parity violation: parallel training diverged from serial".to_owned());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("trainbench: {message}");
            ExitCode::FAILURE
        }
    }
}
