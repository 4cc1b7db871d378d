//! Regenerate the paper's tables and figures.
//!
//! ```sh
//! # one experiment
//! cargo run --release -p urlid-bench --bin experiments -- table7
//! # everything
//! cargo run --release -p urlid-bench --bin experiments -- all
//! # bigger corpus (fraction of the paper's sizes)
//! URLID_SCALE=0.1 cargo run --release -p urlid-bench --bin experiments -- table8
//! ```

use std::time::Instant;
use urlid_bench::{corpus_scale, run_experiment, ExperimentContext, EXPERIMENT_NAMES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which: Vec<String> = if args.is_empty() || args[0] == "all" {
        EXPERIMENT_NAMES.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };

    let scale = corpus_scale();
    eprintln!(
        "generating synthetic corpus at scale {} (set URLID_SCALE to change) ...",
        scale.0
    );
    let start = Instant::now();
    let mut ctx = ExperimentContext::default_context();
    eprintln!(
        "corpus ready in {:.1?}: {} training URLs, test sets: ODP {}, SER {}, WC {}\n",
        start.elapsed(),
        ctx.training.len(),
        ctx.corpus.odp.test.len(),
        ctx.corpus.ser.test.len(),
        ctx.corpus.web_crawl.len()
    );

    // De-duplicate (table2/table3 and table4/table5 share an implementation).
    let mut done = std::collections::HashSet::new();
    for name in which {
        let key = match name.as_str() {
            "table3" => "table2".to_string(),
            "table5" => "table4".to_string(),
            other => other.to_string(),
        };
        if !done.insert(key) {
            continue;
        }
        let t = Instant::now();
        match run_experiment(&name, &mut ctx) {
            Some(output) => {
                println!("{output}");
                eprintln!("[{name} done in {:.1?}]\n", t.elapsed());
            }
            None => {
                eprintln!(
                    "unknown experiment {name:?}; available: {}",
                    EXPERIMENT_NAMES.join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    eprintln!("total time: {:.1?}", start.elapsed());
}
