//! # urlid-serve
//!
//! The network serving layer for URL-based language identification — the
//! deployment the paper motivates: classification fast enough to run
//! *before* a page is fetched, inline in a crawler or frontend serving
//! path, under heavy traffic.
//!
//! Everything is built on the standard library only (the build container
//! has no crates.io access, so no tokio/hyper/mio — the same vendoring
//! philosophy as the rest of the workspace), and the crate targets
//! Linux only:
//!
//! * [`sys`] — the hand-rolled syscall layer: the level-triggered
//!   epoll poller (the one I/O engine, driven through the `Backend`
//!   trait a test can put a simulated engine behind), the self-pipe
//!   waker, and the `SO_REUSEPORT` listener binder behind the reactor
//!   sharding (the one module with `unsafe` in it);
//! * [`http`] — a minimal HTTP/1.1 codec whose server side is an
//!   **incremental parser** (feed bytes → `NeedMore | Request | Error`)
//!   that tolerates partial reads, pipelined requests and slow clients
//!   without ever blocking a thread;
//! * `conn` / `reactor` (internal) — the **event-driven connection
//!   engine**: per-connection state machines multiplexed by `N`
//!   reactor threads, one per core by default (each owning its own
//!   `SO_REUSEPORT` listener, connection slab, wake pipe, and cache
//!   shard set — connections never migrate between reactors). Each
//!   reactor scores the requests it parses and writes the responses in
//!   the same pass, with per-pass admission control shedding overload
//!   as `503`s. Thousands of mostly-idle keep-alive connections are
//!   served by the reactor threads alone;
//! * [`cache`] — a mutex-striped, capacity-bounded LRU **result cache**
//!   keyed by normalised URL — partitionable into per-reactor shard
//!   sets — so repeated URLs skip tokenisation and feature extraction
//!   entirely (asserted by an integration test through
//!   [`urlid_features::CountingExtractor`]);
//! * [`metrics`] — request counters, connection gauges (open / idle /
//!   accepted / timed-out), the end-to-end latency histogram, and the
//!   **stage-span plane**: per-stage log-linear histograms
//!   (parse / cache / extract / score / write, in nanoseconds, shared
//!   `urlid-telemetry` buckets) plus a striped fixed-size trace ring
//!   with request-id correlation — all behind relaxed atomics and
//!   try-lock ring writes, exported by `GET /metrics` (JSON by
//!   default, Prometheus text on `Accept: text/plain`) and
//!   `GET /admin/trace`;
//! * [`server`] — routing, the shared [`server::ServerState`] with
//!   **atomic model hot-reload** (`POST /admin/reload` swaps an
//!   [`std::sync::Arc`]-held model with zero dropped requests; the cache
//!   is epoch-tagged so stale entries never serve), and the
//!   spawn/shutdown API over the engine;
//! * [`loadgen`] — a keep-alive load generator replaying a
//!   corpus-generated URL mix — closed-loop throughput scenarios, a
//!   many-idle-connections scenario, and an **open-loop saturation
//!   scenario** (fixed arrival rate above capacity, admission-control
//!   `503`s counted apart from errors) — emitting a machine-readable,
//!   multi-scenario `BENCH_serve.json` (throughput, p50/p99 latency,
//!   cache hit rate, per-reactor breakdown).
//!
//! ## Endpoints
//!
//! | Endpoint              | Method | Body                        | Response                                     |
//! |-----------------------|--------|-----------------------------|----------------------------------------------|
//! | `/identify`           | POST   | `{"url": "..."}`            | per-language scores, decisions, best, cached |
//! | `/identify_batch`     | POST   | `{"urls": ["...", ...]}`    | one result per URL (parallel scoring)        |
//! | `/healthz`            | GET    | —                           | status, model config, uptime                 |
//! | `/metrics`            | GET    | —                           | counters, cache, latency + per-stage histograms; JSON by default, Prometheus text 0.0.4 on `Accept: text/plain` |
//! | `/admin/trace`        | GET    | —                           | last buffered stage spans with request ids   |
//! | `/admin/reload`       | POST   | `{"path": "..."}` (opt.)    | loads a `.urlm` file, swaps the model, bumps the cache epoch; reports `load_ms` |
//!
//! ## Quickstart
//!
//! ```no_run
//! use urlid_serve::server::{spawn, ServeConfig, ServerState};
//! use std::sync::Arc;
//!
//! // `ModelSource` checks the `.urlm` magic; the load maps the file
//! // and serves straight out of its sections.
//! let source = urlid::ModelSource::detect("model.urlm").unwrap();
//! let identifier = source.load_identifier().unwrap();
//! let state = Arc::new(ServerState::new(
//!     identifier,
//!     Some("model.urlm".into()),
//!     65_536,
//! ));
//! let handle = spawn(&ServeConfig::default(), state).unwrap();
//! println!("serving on http://{}", handle.addr());
//! handle.join();
//! ```

// `unsafe` is confined to the raw syscall wrappers in `sys` (which
// carries its own `allow`); everything above the `Backend` trait is
// safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

// The engine is epoll, and the reactor sharding needs Linux's
// `SO_REUSEPORT` load balancing.
#[cfg(not(target_os = "linux"))]
compile_error!("urlid-serve supports Linux only");

pub mod cache;
mod conn;
pub mod http;
pub mod loadgen;
pub mod metrics;
mod reactor;
pub mod server;
pub mod sys;

pub use cache::{normalize_url, normalize_url_into, ResultCache};
pub use loadgen::{
    run_loadgen, run_suite, BenchReport, BenchSuite, LoadgenConfig, SERVE_BENCH_SCHEMA,
};
pub use metrics::Metrics;
pub use server::{default_reactors, spawn, ServeConfig, ServerHandle, ServerState};
