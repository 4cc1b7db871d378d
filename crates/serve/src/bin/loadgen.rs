//! `loadgen` — hammer a running `urlid serve` instance with a
//! corpus-generated URL mix and write `BENCH_serve.json`.
//!
//! ```text
//! loadgen --addr 127.0.0.1:7878 [--requests 10000] [--concurrency 4]
//!         [--idle 0] [--unique 2000] [--seed 7] [--rate 0]
//!         [--out BENCH_serve.json] [--name scenario] [--suite]
//! ```
//!
//! `--rate` switches to the open loop: requests are scheduled at that
//! aggregate arrival rate (req/s) regardless of response pace, and
//! admission-control `503`s are counted apart from errors.
//!
//! `--suite` ignores `--requests`/`--concurrency`/`--idle`/`--rate`/
//! `--name` and runs the standard scenario set instead:
//! `baseline_4conn` (the historical 4-connection hammer), `idle_1024`
//! (the same hammer with 1024 mostly-idle keep-alive connections held
//! open), `high_core` (a wide closed-loop hammer sized to the host's
//! cores), and `saturation` (open loop at 1.5× the measured baseline
//! throughput — overload by construction, certifying graceful
//! shedding) — writing one multi-scenario report.
//!
//! `--scenarios a,b` restricts `--suite` to a named subset (e.g.
//! `baseline_4conn,idle_1024`; the baseline runs first so the
//! saturation sentinel stays resolvable).

use std::process::ExitCode;
use urlid_serve::{run_loadgen, run_suite, LoadgenConfig};

const USAGE: &str = "\
loadgen — load generator for the urlid serving layer

USAGE:
  loadgen --addr <host:port> [--requests <n>] [--concurrency <n>]
          [--idle <n>] [--unique <n>] [--seed <u64>] [--rate <req/s>]
          [--out <report.json>] [--name <scenario>] [--suite]
          [--scenarios <a,b,...>]
";

#[derive(Debug)]
struct Parsed {
    config: LoadgenConfig,
    suite: bool,
    /// `--scenarios`: restrict `--suite` to this named subset.
    scenarios: Option<Vec<String>>,
}

fn parse_config(argv: &[String]) -> Result<Parsed, String> {
    let mut config = LoadgenConfig::default();
    let mut suite = false;
    let mut scenarios = None;
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {:?}\n\n{USAGE}", argv[i]))?;
        if key == "help" {
            return Err(USAGE.to_owned());
        }
        if key == "suite" {
            suite = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for --{key}"))?;
        match key {
            "addr" => config.addr = value.clone(),
            "name" => config.name = value.clone(),
            "requests" => {
                config.requests = value
                    .parse()
                    .map_err(|_| format!("bad --requests {value:?}"))?
            }
            "concurrency" => {
                config.concurrency = value
                    .parse()
                    .map_err(|_| format!("bad --concurrency {value:?}"))?
            }
            "idle" => {
                config.idle_connections =
                    value.parse().map_err(|_| format!("bad --idle {value:?}"))?
            }
            "unique" => {
                config.unique_urls = value
                    .parse()
                    .map_err(|_| format!("bad --unique {value:?}"))?
            }
            "seed" => config.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "rate" => {
                config.arrival_rps = value
                    .parse::<f64>()
                    .ok()
                    .filter(|r| r.is_finite() && *r >= 0.0)
                    .ok_or_else(|| format!("bad --rate {value:?}"))?
            }
            "out" => config.out = Some(value.into()),
            "scenarios" => {
                let names: Vec<String> = value
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
                if names.is_empty() {
                    return Err(format!("bad --scenarios {value:?} (no names)"));
                }
                scenarios = Some(names);
            }
            other => return Err(format!("unknown flag --{other}\n\n{USAGE}")),
        }
        i += 2;
    }
    if scenarios.is_some() && !suite {
        return Err("--scenarios only applies with --suite".to_owned());
    }
    Ok(Parsed {
        config,
        suite,
        scenarios,
    })
}

/// The standard scenario set `--suite` runs (see the module docs).
/// `saturation` uses the self-scaling sentinels `run_suite` resolves:
/// rate = 1.5× the measured `baseline_4conn` throughput, concurrency =
/// 1.5× the server's admission budget, requests = 300× concurrency.
fn suite_scenarios(base: &LoadgenConfig) -> Vec<LoadgenConfig> {
    let baseline = LoadgenConfig {
        name: "baseline_4conn".to_owned(),
        requests: 20_000,
        concurrency: 4,
        idle_connections: 0,
        unique_urls: 2_000,
        arrival_rps: 0.0,
        ..base.clone()
    };
    let idle = LoadgenConfig {
        name: "idle_1024".to_owned(),
        idle_connections: 1_024,
        ..baseline.clone()
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let high_core = LoadgenConfig {
        name: "high_core".to_owned(),
        concurrency: (2 * cores).clamp(8, 32),
        ..baseline.clone()
    };
    let saturation = LoadgenConfig {
        name: "saturation".to_owned(),
        requests: 0,       // sentinel: 300 × resolved concurrency
        concurrency: 0,    // sentinel: 1.5 × reactors × max_inflight
        arrival_rps: -1.5, // sentinel: 1.5 × measured baseline rps
        ..baseline.clone()
    };
    vec![baseline, idle, high_core, saturation]
}

/// Resolve `--suite` plus an optional `--scenarios` subset into the
/// run list, preserving suite order (the baseline runs first so the
/// saturation sentinels have a measured rate to scale from).
fn selected_scenarios(
    config: &LoadgenConfig,
    filter: Option<&[String]>,
) -> Result<Vec<LoadgenConfig>, String> {
    let all = suite_scenarios(config);
    let Some(filter) = filter else { return Ok(all) };
    for name in filter {
        if !all.iter().any(|s| &s.name == name) {
            let known: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
            return Err(format!(
                "unknown scenario {name:?} (known: {})",
                known.join(", ")
            ));
        }
    }
    Ok(all
        .into_iter()
        .filter(|s| filter.iter().any(|name| name == &s.name))
        .collect())
}

fn report_line(report: &urlid_serve::BenchReport) {
    let admission = if report.admission_rejects > 0 {
        format!(", {} admission rejects", report.admission_rejects)
    } else {
        String::new()
    };
    let rate = if report.arrival_rps > 0.0 {
        format!(", open loop @ {:.0} req/s", report.arrival_rps)
    } else {
        String::new()
    };
    let io = if report.io_backend.is_empty() {
        String::new()
    } else {
        format!(" on {} I/O", report.io_backend)
    };
    eprintln!(
        "[{}] {} requests in {:.2}s -> {:.0} req/s, p50 {:.3} ms, p99 {:.3} ms, \
         p99.9 {:.3} ms, {} idle conns, {} reactors{io}, {} server threads, \
         cache hit rate {:.1}% ({} errors{admission}{rate})",
        report.scenario,
        report.requests,
        report.duration_secs,
        report.throughput_rps,
        report.latency.p50_ms,
        report.latency.p99_ms,
        report.latency.p999_ms,
        report.idle_connections,
        report.reactors,
        report.server_threads,
        report.cache.hit_rate * 100.0,
        report.errors,
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_config(&argv) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if parsed.suite {
        let out = parsed.config.out.clone();
        let scenarios = match selected_scenarios(&parsed.config, parsed.scenarios.as_deref()) {
            Ok(scenarios) => scenarios,
            Err(message) => {
                eprintln!("{message}");
                return ExitCode::FAILURE;
            }
        };
        match run_suite(&scenarios, out.as_ref()) {
            Ok(suite) => {
                for report in &suite.scenarios {
                    report_line(report);
                }
                if let Some(out) = &out {
                    eprintln!("suite report written to {}", out.display());
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("loadgen suite failed: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        match run_loadgen(&parsed.config) {
            Ok(report) => {
                report_line(&report);
                if let Some(out) = &parsed.config.out {
                    eprintln!("report written to {}", out.display());
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("loadgen failed: {e}");
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Result<Parsed, String> {
        parse_config(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_and_overrides() {
        let p = parse(&[]).unwrap();
        assert_eq!(p.config.requests, 10_000);
        assert_eq!(p.config.idle_connections, 0);
        assert!(!p.suite);
        let p = parse(&[
            "--addr",
            "1.2.3.4:99",
            "--requests",
            "50",
            "--unique",
            "7",
            "--idle",
            "256",
            "--name",
            "x",
        ])
        .unwrap();
        assert_eq!(p.config.addr, "1.2.3.4:99");
        assert_eq!(p.config.requests, 50);
        assert_eq!(p.config.unique_urls, 7);
        assert_eq!(p.config.idle_connections, 256);
        assert_eq!(p.config.name, "x");
    }

    #[test]
    fn suite_flag_takes_no_value() {
        let p = parse(&["--suite", "--addr", "1.2.3.4:99"]).unwrap();
        assert!(p.suite);
        assert_eq!(p.config.addr, "1.2.3.4:99");
        let scenarios = suite_scenarios(&p.config);
        assert_eq!(scenarios.len(), 4);
        assert_eq!(scenarios[0].name, "baseline_4conn");
        assert_eq!(scenarios[0].idle_connections, 0);
        assert_eq!(scenarios[0].arrival_rps, 0.0);
        assert_eq!(scenarios[1].name, "idle_1024");
        assert_eq!(scenarios[1].idle_connections, 1024);
        assert_eq!(scenarios[1].addr, "1.2.3.4:99");
        assert_eq!(scenarios[2].name, "high_core");
        assert!((8..=32).contains(&scenarios[2].concurrency));
        assert_eq!(scenarios[2].idle_connections, 0);
        // The saturation scenario ships as sentinels; run_suite resolves
        // them against the measured baseline and the live topology.
        assert_eq!(scenarios[3].name, "saturation");
        assert_eq!(scenarios[3].requests, 0);
        assert_eq!(scenarios[3].concurrency, 0);
        assert_eq!(scenarios[3].arrival_rps, -1.5);
    }

    #[test]
    fn scenarios_flag_selects_a_suite_subset() {
        let p = parse(&["--suite", "--scenarios", "baseline_4conn,idle_1024"]).unwrap();
        let selected = selected_scenarios(&p.config, p.scenarios.as_deref()).unwrap();
        assert_eq!(selected.len(), 2);
        assert_eq!(selected[0].name, "baseline_4conn");
        assert_eq!(selected[1].name, "idle_1024");

        // Order comes from the suite, not the flag.
        let p = parse(&["--suite", "--scenarios", "idle_1024, baseline_4conn"]).unwrap();
        let selected = selected_scenarios(&p.config, p.scenarios.as_deref()).unwrap();
        assert_eq!(selected[0].name, "baseline_4conn");

        // Unknown names are an error naming the known set; the flag
        // without --suite is refused; an empty list is refused.
        let p = parse(&["--suite", "--scenarios", "warp_speed"]).unwrap();
        let err = selected_scenarios(&p.config, p.scenarios.as_deref()).unwrap_err();
        assert!(
            err.contains("warp_speed") && err.contains("baseline_4conn"),
            "{err}"
        );
        assert!(parse(&["--scenarios", "baseline_4conn"]).is_err());
        assert!(parse(&["--suite", "--scenarios", ","]).is_err());
    }

    #[test]
    fn rate_flag_switches_to_open_loop() {
        let p = parse(&["--rate", "2500"]).unwrap();
        assert_eq!(p.config.arrival_rps, 2500.0);
        let p = parse(&[]).unwrap();
        assert_eq!(p.config.arrival_rps, 0.0);
        assert!(parse(&["--rate", "-3"]).is_err());
        assert!(parse(&["--rate", "fast"]).is_err());
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse(&["--nope", "1"]).is_err());
        assert!(parse(&["--requests", "many"]).is_err());
        assert!(parse(&["--idle", "some"]).is_err());
        assert!(parse(&["positional"]).is_err());
        assert!(parse(&["--help"]).unwrap_err().contains("USAGE"));
    }
}
