//! # urlid-bench
//!
//! The experiment harness that regenerates **every table and every
//! figure** of Baykan, Henzinger, Weber (VLDB 2008) on the synthetic
//! corpus, plus ablations of the design choices behind them (see
//! [`experiments::ablations`]).
//!
//! Two entry points:
//!
//! * the `experiments` binary —
//!   `cargo run --release -p urlid-bench --bin experiments -- <which>`
//!   where `<which>` is `table1` … `table10`, `figure1` … `figure3`,
//!   `ablations`, or `all`. Output is the paper-style rows/series; the
//!   absolute numbers come from the synthetic corpus, the *shape* (who
//!   wins, by how much, where the crossovers are) mirrors the paper;
//! * the Criterion benches in `benches/` — micro-benchmarks of the hot
//!   paths (tokenisation, feature extraction, classification, training)
//!   plus smoke benches that regenerate the cheap tables.
//!
//! The corpus scale is controlled by the `URLID_SCALE` environment
//! variable (a fraction of the paper's data-set sizes, default `0.02`).

#![forbid(unsafe_code)]

pub mod experiments;

pub use experiments::{corpus_scale, run_experiment, ExperimentContext, EXPERIMENT_NAMES};
