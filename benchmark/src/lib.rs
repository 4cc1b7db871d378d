//! The urlid benchmark: drives a real `urlid serve` process over
//! loopback with crawler workloads, checks every answer against
//! the same model loaded in process, and reports end-to-end metrics
//! plus a per-layer cost ledger. See `bench` for the command line.

pub mod alloc;
pub mod bench;
pub mod client;
pub mod layers;
pub mod ledger;
pub mod pace;
pub mod phase;
pub mod procfs;
pub mod scan;
pub mod server;
pub mod stats;
pub mod workload;
