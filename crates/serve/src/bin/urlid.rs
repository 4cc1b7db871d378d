//! `urlid` — command-line interface to the URL-based language identifier.
//!
//! ```text
//! urlid generate --seed 42 --scale 0.02 --out corpus/        write synthetic ODP/SER/WC data sets (JSON)
//! urlid train --data corpus/odp-train.json --out model.urlm  train a model (default: NB + word features)
//! urlid identify --model model.urlm <url> [<url> ...]        print the language of each URL
//! urlid identify --model model.urlm                          ... or read URLs from stdin, one per line
//! urlid evaluate --model model.urlm --data corpus/odp-test.json   paper metrics on a labelled test set
//! urlid inspect model.urlm                                   dump the .urlm header and section table
//! urlid loadtime --model model.urlm                          measure model cold-load latency
//! urlid serve --model model.urlm --addr 127.0.0.1:7878       HTTP serving layer (see urlid-serve docs)
//! ```
//!
//! A model file is always `.urlm`: the page-aligned binary that loads by
//! `mmap` + validate + cast. A file without the `.urlm` magic — a JSON
//! model from before `.urlm` was the only model file, say — is refused
//! with `not a .urlm model file (bad magic)`; retrain it from the
//! corpus with `urlid train`.
//!
//! The argument parser is hand-rolled (no extra dependencies); every
//! subcommand prints usage on `--help` and rejects flags it does not
//! read, so a misspelt option fails instead of silently falling back to
//! a default. The binary lives in the `urlid-serve` crate (not `urlid`
//! core) because the `serve` subcommand needs the serving layer, which
//! itself depends on core.

use std::io::BufRead;
use std::process::ExitCode;
use std::sync::Arc;
use urlid::corpus::datasets::{
    ODP_TEST_PER_LANGUAGE, ODP_TRAIN_PER_LANGUAGE, SER_TEST_PER_LANGUAGE, SER_TRAIN_PER_LANGUAGE,
};
use urlid::corpus::{shard_seed, DatasetProfile, ShardPlan};
use urlid::prelude::*;
use urlid_serve::server::{spawn, ServeConfig, ServerState};

/// Shards per generated data set: fixed (never core-count-derived) so
/// the generated corpus is a pure function of `--seed`/`--scale`,
/// independent of the machine and of `--jobs`.
const GENERATE_SHARDS: usize = 16;

const USAGE: &str = "\
urlid — web page language identification based on URLs

USAGE:
  urlid generate --out <dir> [--seed <u64>] [--scale <f64>] [--jobs <n>]
                 (--jobs 0 = one worker per core; the generated corpus is
                  bit-identical at any --jobs value)
  urlid train    --data <dataset.json> --out <model.urlm>
                 [--features words|trigrams|custom] [--algorithm nb|re|me|dt|knn]
                 [--seed <u64>] [--jobs <n>] [--shards <n>] [--verbose]
                 (--jobs 0 = one worker per core; for a fixed --shards the
                  trained model is bit-identical at any --jobs value.
                  --verbose prints the training trace to stderr: per-shard
                  fit/vectorize timings, per-language model timings, and
                  GIS convergence deltas for maxent — same model bytes.
                  --out is always written as .urlm, whatever its name)
  urlid identify --model <model> [<url> ...]           (reads stdin when no URLs given)
  urlid evaluate --model <model> --data <dataset.json>
  urlid inspect  <model.urlm>
                 (print header, section table with offsets/checksums,
                  and model cardinalities)
  urlid loadtime --model <model> [--repeat <n>]
                 (cold-load the model n times — default 3 — and print the
                  best wall-clock milliseconds to stdout; used by CI to
                  gate the cold-load time)
  urlid serve    --model <model> [--addr <host:port>] [--reactors <n>]
                 [--max-inflight <n>] [--cache-capacity <n>]
                 [--telemetry on|off] [--slow-ms <n>]
                 (connections are multiplexed by --reactors event-loop
                  threads that also score the requests they parse, each
                  owning its own SO_REUSEPORT listener and cache shard
                  set; 0 = one per core, the default. A port another
                  server is already listening on fails the bind.
                  --max-inflight caps the connections a reactor serves
                  per event-loop pass; the next ready connection's
                  request is answered 503 — 0 = unlimited, default 32.
                  --telemetry off disables stage spans and /admin/trace
                  buffering; counters and latency stay on.
                  --slow-ms logs requests slower than n ms to stderr,
                  rate-limited; 0 disables, default 100)
";

/// Flags that take no value: present or absent.
const BOOLEAN_FLAGS: &[&str] = &["verbose"];

/// A tiny `--key value` argument list (plus the boolean flags above),
/// in command-line order; a repeated flag's last value wins.
#[derive(Debug, Default)]
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Args::default();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(key) = a.strip_prefix("--") {
                if key == "help" {
                    return Err(USAGE.to_owned());
                }
                if BOOLEAN_FLAGS.contains(&key) {
                    out.flags.push((key.to_owned(), "true".to_owned()));
                    i += 1;
                    continue;
                }
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("missing value for --{key}"))?;
                out.flags.push((key.to_owned(), value.clone()));
                i += 2;
            } else {
                out.positional.push(a.clone());
                i += 1;
            }
        }
        Ok(out)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required flag --{key}\n\n{USAGE}"))
    }

    /// Fail on the first flag `command` does not read.
    fn check_flags(&self, command: &str, accepted: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(flag, _)| !accepted.contains(&flag.as_str()))
        {
            Some((flag, _)) => Err(format!(
                "unknown flag --{flag} for urlid {command}\n\n{USAGE}"
            )),
            None => Ok(()),
        }
    }
}

type Command = fn(&Args) -> Result<(), String>;

/// Every subcommand, the flags it reads, and its handler.
const COMMANDS: &[(&str, &[&str], Command)] = &[
    ("generate", &["out", "seed", "scale", "jobs"], cmd_generate),
    (
        "train",
        &[
            "data",
            "out",
            "features",
            "algorithm",
            "seed",
            "jobs",
            "shards",
            "verbose",
        ],
        cmd_train,
    ),
    ("identify", &["model"], cmd_identify),
    ("evaluate", &["model", "data"], cmd_evaluate),
    ("inspect", &["model"], cmd_inspect),
    ("loadtime", &["model", "repeat"], cmd_loadtime),
    (
        "serve",
        &[
            "model",
            "addr",
            "reactors",
            "max-inflight",
            "cache-capacity",
            "telemetry",
            "slow-ms",
        ],
        cmd_serve,
    ),
];

fn parse_training_config(args: &Args) -> Result<TrainingConfig, String> {
    let features = match args.get("features").unwrap_or("words") {
        "words" => FeatureSetKind::Words,
        "trigrams" => FeatureSetKind::Trigrams,
        "custom" => FeatureSetKind::Custom,
        other => {
            return Err(format!(
                "unknown feature set {other:?} (words|trigrams|custom)"
            ))
        }
    };
    let algorithm = match args.get("algorithm").unwrap_or("nb") {
        "nb" | "naive-bayes" => Algorithm::NaiveBayes,
        "re" | "relative-entropy" => Algorithm::RelativeEntropy,
        "me" | "maxent" => Algorithm::MaxEnt,
        "dt" | "decision-tree" => Algorithm::DecisionTree,
        "knn" => Algorithm::KNearestNeighbors,
        other => return Err(format!("unknown algorithm {other:?} (nb|re|me|dt|knn)")),
    };
    let mut config = TrainingConfig::new(features, algorithm);
    if let Some(seed) = args.get("seed") {
        config = config.with_seed(seed.parse().map_err(|_| format!("bad --seed {seed:?}"))?);
    }
    Ok(config)
}

fn parse_train_options(args: &Args) -> Result<TrainOptions, String> {
    let mut opts = TrainOptions::with_jobs(1);
    if let Some(jobs) = args.get("jobs") {
        opts.jobs = jobs.parse().map_err(|_| format!("bad --jobs {jobs:?}"))?;
    }
    if let Some(shards) = args.get("shards") {
        let n: usize = shards
            .parse()
            .map_err(|_| format!("bad --shards {shards:?}"))?;
        if n == 0 {
            return Err("--shards must be at least 1".to_owned());
        }
        opts.shards = n;
    }
    Ok(opts)
}

fn load_dataset(path: &str) -> Result<Dataset, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn save_json<T: serde::Serialize>(path: &std::path::Path, value: &T) -> Result<(), String> {
    let json = serde_json::to_string(value).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let out_dir = std::path::PathBuf::from(args.require("out")?);
    let seed: u64 = args
        .get("seed")
        .unwrap_or("42")
        .parse()
        .map_err(|_| "bad --seed")?;
    let scale: f64 = args
        .get("scale")
        .unwrap_or("0.02")
        .parse()
        .map_err(|_| "bad --scale")?;
    let jobs: usize = args
        .get("jobs")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --jobs")?;
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let scale = CorpusScale(scale);
    // One fixed sub-seed per data set (decorrelated through the
    // shard-seed schedule), so every set is an independent pure function
    // of --seed — and, through `ShardPlan::assemble`, of nothing else:
    // any --jobs value writes bit-identical files.
    let plan = |set: u64, name: &str, profile: DatasetProfile, per_lang: usize| {
        ShardPlan::dataset(
            shard_seed(seed, set),
            name,
            profile,
            5 * scale.apply(per_lang),
            GENERATE_SHARDS,
        )
    };
    let odp_train = plan(
        0,
        "odp-train",
        DatasetProfile::odp(),
        ODP_TRAIN_PER_LANGUAGE,
    )
    .assemble(jobs);
    let odp_test = plan(1, "odp-test", DatasetProfile::odp(), ODP_TEST_PER_LANGUAGE).assemble(jobs);
    let ser_train = plan(
        2,
        "ser-train",
        DatasetProfile::ser(),
        SER_TRAIN_PER_LANGUAGE,
    )
    .assemble(jobs);
    let ser_test = plan(3, "ser-test", DatasetProfile::ser(), SER_TEST_PER_LANGUAGE).assemble(jobs);
    // The web-crawl test set is deliberately skewed (1082/81/57/19/21),
    // not balanced round-robin — and tiny; it generates sequentially
    // from its own fixed sub-seed.
    let web_crawl = web_crawl_dataset(&mut UrlGenerator::new(shard_seed(seed, 4)), scale);
    let mut combined = Dataset::new("odp+ser-train");
    combined.urls.extend(odp_train.urls.iter().cloned());
    combined.urls.extend(ser_train.urls.iter().cloned());
    save_json(&out_dir.join("odp-train.json"), &odp_train)?;
    save_json(&out_dir.join("odp-test.json"), &odp_test)?;
    save_json(&out_dir.join("ser-train.json"), &ser_train)?;
    save_json(&out_dir.join("ser-test.json"), &ser_test)?;
    save_json(&out_dir.join("web-crawl.json"), &web_crawl)?;
    save_json(&out_dir.join("combined-train.json"), &combined)?;
    eprintln!(
        "wrote 6 data sets to {} ({} training URLs in combined-train.json; {} jobs over {} shards per set)",
        out_dir.display(),
        combined.len(),
        urlid::features::parallel::effective_jobs(jobs),
        GENERATE_SHARDS,
    );
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let data = load_dataset(args.require("data")?)?;
    let out = args.require("out")?;
    let config = parse_training_config(args)?;
    let opts = parse_train_options(args)?;
    let bundle = if args.has("verbose") {
        let (bundle, trace) =
            ModelBundle::train_traced(&data, &config, opts).map_err(|e| e.to_string())?;
        eprint!("{}", trace.render());
        bundle
    } else {
        ModelBundle::train_with(&data, &config, opts).map_err(|e| e.to_string())?
    };
    let bytes = bundle
        .pack(out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!(
        "trained {} + {} on {} URLs ({} jobs over {} shards) -> {out} ({bytes} bytes)",
        config.feature_set,
        config.algorithm,
        data.len(),
        opts.effective_jobs(),
        opts.effective_shards(),
    );
    Ok(())
}

/// Load `--model` into a ready identifier, reporting the load
/// wall-clock.
fn load_model(args: &Args) -> Result<(LanguageIdentifier, f64), String> {
    let path = args.require("model")?;
    let source = ModelSource::detect(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    let started = std::time::Instant::now();
    let identifier = source
        .load_identifier()
        .map_err(|e| format!("cannot load {path}: {e}"))?;
    let load_ms = started.elapsed().as_secs_f64() * 1e3;
    Ok((identifier, load_ms))
}

fn cmd_identify(args: &Args) -> Result<(), String> {
    let (identifier, _) = load_model(args)?;
    let classify = |url: &str| {
        let lang = identifier
            .identify(url)
            .map(|l| l.iso_code())
            .unwrap_or("??");
        println!("{lang}\t{url}");
    };
    if args.positional.is_empty() {
        for line in std::io::stdin().lock().lines() {
            let line = line.map_err(|e| e.to_string())?;
            let url = line.trim();
            if !url.is_empty() {
                classify(url);
            }
        }
    } else {
        for url in &args.positional {
            classify(url);
        }
    }
    Ok(())
}

fn cmd_evaluate(args: &Args) -> Result<(), String> {
    let (identifier, _) = load_model(args)?;
    let test = load_dataset(args.require("data")?)?;
    let result = identifier.evaluate(&test);
    print!(
        "{}",
        urlid::eval::report::metrics_table(&format!("evaluation on {}", test.name), &result)
    );
    println!("\nconfusion matrix:\n{}", result.confusion.render());
    Ok(())
}

fn cmd_inspect(args: &Args) -> Result<(), String> {
    let path = match args.positional.first().map(|s| s.as_str()) {
        Some(p) => p,
        None => args.require("model")?,
    };
    let report = urlid::inspect_model(path).map_err(|e| format!("cannot inspect {path}: {e}"))?;
    print!("{report}");
    Ok(())
}

fn cmd_loadtime(args: &Args) -> Result<(), String> {
    let repeat: usize = args
        .get("repeat")
        .unwrap_or("3")
        .parse()
        .map_err(|_| "bad --repeat")?;
    if repeat == 0 {
        return Err("--repeat must be at least 1".to_owned());
    }
    let mut best_ms = f64::INFINITY;
    for _ in 0..repeat {
        let (identifier, ms) = load_model(args)?;
        // Keep the load honest: touch the model so the whole build
        // cannot be optimised out.
        let _ = identifier.config().algorithm;
        best_ms = best_ms.min(ms);
    }
    eprintln!("{}: best of {repeat} cold loads", args.require("model")?);
    // Stdout carries only the number, so scripts can capture it.
    println!("{best_ms:.3}");
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let model_path = std::path::PathBuf::from(args.require("model")?);
    let (identifier, load_ms) = load_model(args)?;
    let mut config = ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_owned(),
        ..ServeConfig::default()
    };
    if let Some(reactors) = args.get("reactors") {
        config.reactors = reactors
            .parse()
            .map_err(|_| format!("bad --reactors {reactors:?}"))?;
    }
    if config.reactors == 0 {
        // Resolve here (not in spawn) so the cache shard sets below can
        // be sized one-per-reactor.
        config.reactors = urlid_serve::server::default_reactors();
    }
    if let Some(max_inflight) = args.get("max-inflight") {
        config.max_inflight = max_inflight
            .parse()
            .map_err(|_| format!("bad --max-inflight {max_inflight:?}"))?;
    }
    config.telemetry = match args.get("telemetry").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => return Err(format!("unknown --telemetry {other:?} (on|off)")),
    };
    if let Some(slow_ms) = args.get("slow-ms") {
        let ms: u64 = slow_ms
            .parse()
            .map_err(|_| format!("bad --slow-ms {slow_ms:?}"))?;
        config.slow_request_micros = ms.saturating_mul(1000);
    }
    let cache_capacity: usize = args
        .get("cache-capacity")
        .unwrap_or("65536")
        .parse()
        .map_err(|_| "bad --cache-capacity")?;
    let state = Arc::new(ServerState::with_topology(
        identifier,
        Some(model_path.clone()),
        cache_capacity,
        config.reactors,
    ));
    state.set_load_ms(load_ms);
    let handle = spawn(&config, state).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    eprintln!(
        "serving {} on http://{} (model loaded in {load_ms:.1} ms; {} reactors on {} I/O; cache capacity {cache_capacity}; POST /admin/reload to hot-swap)",
        model_path.display(),
        handle.addr(),
        config.reactors,
        urlid_serve::sys::Poller::NAME,
    );
    let failed = handle.join();
    if failed > 0 {
        return Err(format!("{failed} reactor thread(s) died; exiting"));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        return Err(USAGE.to_owned());
    };
    let args = Args::parse(&argv[1..])?;
    match COMMANDS.iter().find(|(name, ..)| name == command) {
        Some((name, accepted, handler)) => {
            args.check_flags(name, accepted)?;
            handler(&args)
        }
        None if command == "--help" || command == "help" => Err(USAGE.to_owned()),
        None => Err(format!("unknown command {command:?}\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args_of(parts: &[&str]) -> Args {
        Args::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = args_of(&["--model", "m.urlm", "http://a.de/", "http://b.fr/"]);
        assert_eq!(a.get("model"), Some("m.urlm"));
        assert_eq!(a.positional.len(), 2);
        assert!(a.require("model").is_ok());
        assert!(a.require("data").is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        let r = Args::parse(&["--seed".to_string()]);
        assert!(r.is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        // `--verbose` directly before a value-taking flag must not
        // swallow it.
        let a = args_of(&["--verbose", "--jobs", "2"]);
        assert!(a.has("verbose"));
        assert_eq!(a.get("jobs"), Some("2"));
        assert!(!args_of(&["--jobs", "2"]).has("verbose"));
        // Trailing boolean flag parses too (nothing after it).
        assert!(args_of(&["--verbose"]).has("verbose"));
    }

    #[test]
    fn training_config_parsing() {
        let c = parse_training_config(&args_of(&["--features", "trigrams", "--algorithm", "re"]))
            .unwrap();
        assert_eq!(c.feature_set, FeatureSetKind::Trigrams);
        assert_eq!(c.algorithm, Algorithm::RelativeEntropy);
        let default = parse_training_config(&args_of(&[])).unwrap();
        assert_eq!(default.algorithm, Algorithm::NaiveBayes);
        assert!(parse_training_config(&args_of(&["--algorithm", "svm"])).is_err());
        assert!(parse_training_config(&args_of(&["--features", "bigrams"])).is_err());
    }

    #[test]
    fn train_options_parsing() {
        let defaults = parse_train_options(&args_of(&[])).unwrap();
        assert_eq!(defaults.jobs, 1);
        assert_eq!(defaults.effective_shards(), urlid::DEFAULT_TRAIN_SHARDS);
        let o = parse_train_options(&args_of(&["--jobs", "4", "--shards", "7"])).unwrap();
        assert_eq!(o.jobs, 4);
        assert_eq!(o.shards, 7);
        // --jobs 0 = one worker per core.
        let auto = parse_train_options(&args_of(&["--jobs", "0"])).unwrap();
        assert!(auto.effective_jobs() >= 1);
        assert!(parse_train_options(&args_of(&["--jobs", "x"])).is_err());
        assert!(parse_train_options(&args_of(&["--shards", "0"])).is_err());
    }

    #[test]
    fn generate_is_bit_identical_at_any_jobs_value() {
        let base = std::env::temp_dir().join(format!("urlid-generate-jobs-{}", std::process::id()));
        let dir_serial = base.join("serial");
        let dir_parallel = base.join("parallel");
        let run = |dir: &std::path::Path, jobs: &str| {
            cmd_generate(&args_of(&[
                "--out",
                dir.to_str().unwrap(),
                "--seed",
                "7",
                "--scale",
                "0.002",
                "--jobs",
                jobs,
            ]))
            .expect("generate");
        };
        run(&dir_serial, "1");
        run(&dir_parallel, "3");
        for file in [
            "odp-train.json",
            "odp-test.json",
            "ser-train.json",
            "ser-test.json",
            "web-crawl.json",
            "combined-train.json",
        ] {
            let serial = std::fs::read(dir_serial.join(file)).expect("serial file");
            let parallel = std::fs::read(dir_parallel.join(file)).expect("parallel file");
            assert_eq!(serial, parallel, "{file} diverges between --jobs 1 and 3");
            assert!(!serial.is_empty(), "{file} empty");
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn help_flag_returns_usage() {
        let r = Args::parse(&["--help".to_string()]);
        assert!(r.unwrap_err().contains("USAGE"));
    }

    #[test]
    fn usage_mentions_every_subcommand() {
        for cmd in [
            "generate", "train", "identify", "evaluate", "inspect", "loadtime", "serve",
        ] {
            assert!(USAGE.contains(cmd), "{cmd} missing from usage");
        }
        assert_eq!(COMMANDS.len(), 7);
        assert!(COMMANDS.iter().all(|(name, ..)| *name != "pack"));
        assert!(!USAGE.contains("urlid pack"));
    }

    #[test]
    fn a_json_model_is_refused_with_bad_magic() {
        let path =
            std::env::temp_dir().join(format!("urlid-json-model-{}.json", std::process::id()));
        std::fs::write(&path, "{\"config\": {\"algorithm\": \"NaiveBayes\"}}").unwrap();
        let Err(err) = load_model(&args_of(&["--model", path.to_str().unwrap()])) else {
            panic!("a JSON model loaded");
        };
        assert!(err.ends_with("not a .urlm model file (bad magic)"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_flags_are_rejected_per_subcommand() {
        let accepted = |command: &str| {
            COMMANDS
                .iter()
                .find(|(name, ..)| *name == command)
                .map(|(_, flags, _)| *flags)
                .unwrap()
        };
        // A misspelt flag no longer trains the default recipe.
        let args = args_of(&[
            "--data",
            "d.json",
            "--out",
            "m.urlm",
            "--feature",
            "custom",
            "--algoritm",
            "dt",
        ]);
        let err = args.check_flags("train", accepted("train")).unwrap_err();
        assert!(
            err.starts_with("unknown flag --feature for urlid train"),
            "{err}"
        );
        assert!(err.contains("USAGE"), "{err}");
        // A flag of another subcommand is unknown here too.
        let err = args_of(&["--model", "m.urlm", "--io", "uring"])
            .check_flags("serve", accepted("serve"))
            .unwrap_err();
        assert!(
            err.starts_with("unknown flag --io for urlid serve"),
            "{err}"
        );
        // Removed flags fail fast instead of being silently ignored.
        for (command, flag) in [
            ("serve", "weights"),
            ("serve", "format"),
            ("identify", "format"),
            ("evaluate", "format"),
            ("loadtime", "format"),
        ] {
            let err = args_of(&["--model", "m.urlm", &format!("--{flag}"), "x"])
                .check_flags(command, accepted(command))
                .unwrap_err();
            assert!(
                err.starts_with(&format!("unknown flag --{flag} for urlid {command}")),
                "{err}"
            );
        }
        // Every flag a subcommand reads is documented and accepted.
        for (command, flags, _) in COMMANDS {
            let mut parts = Vec::new();
            for flag in *flags {
                assert!(
                    USAGE.contains(&format!("--{flag}")),
                    "--{flag} undocumented"
                );
                parts.push(format!("--{flag}"));
                if !BOOLEAN_FLAGS.contains(flag) {
                    parts.push("x".to_owned());
                }
            }
            let args = Args::parse(&parts).unwrap();
            assert!(args.check_flags(command, flags).is_ok(), "{command}");
        }
    }
}
