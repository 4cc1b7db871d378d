//! The reactor: one thread multiplexing, parsing and answering its
//! share of the connections.
//!
//! Each of the server's `N` reactors is a single event loop owning its
//! own listening socket (an `SO_REUSEPORT` sibling — see
//! `server::bind_listeners`), its own wake pipe, and its own slab of
//! [`Conn`] state machines, all registered in one epoll instance behind
//! the [`Backend`] trait (see [`crate::sys`]). The loop blocks in
//! `wait` until something is ready, drives exactly the connections the
//! kernel names, runs each fully parsed request's handler right here
//! (`server::route`: cache probe, extraction, scoring, JSON) and writes
//! the response in the same pass. A request
//! never leaves the thread that parsed it. An idle keep-alive
//! connection costs one slab slot and one kernel registration — not a
//! thread: thousands of mostly-idle crawl-frontier clients are served
//! by one reactor per core. A connection adopted by one reactor lives
//! and dies on that reactor — no slab slot, poller registration, or
//! gauge is ever touched from a sibling's thread.
//!
//! The price is head-of-line blocking: a slow handler (a kNN model, a
//! large batch, an `/admin/reload` model load) delays every other
//! connection on its reactor until it returns.
//!
//! ## Admission control
//!
//! Each reactor serves at most `ServeConfig::max_inflight` connections
//! per event-loop pass (one `Backend::wait` return). The request of the
//! next ready connection in that pass is answered `503` on the spot,
//! without running its handler, so a burst wider than the budget sheds
//! work at the cheapest possible point instead of stretching the pass
//! — and with it every admitted client's wait. Pipelined follow-ups on
//! a connection already admitted in the pass are never shed.
//!
//! ## Handler panics
//!
//! A panic in a handler is caught around `route`: whatever part of a
//! response it had written is truncated away, the request is answered
//! `500` (counted in `errors`), the reactor swaps in a fresh workspace
//! in case the panic left its scratch buffers half written, and the
//! connection keeps serving.
//!
//! ## Tokens and generations
//!
//! Every registration carries a `u64` token: slab index in the low 32
//! bits, a per-slot generation in the high 32. An event for a
//! connection that was closed earlier in the same pass carries a stale
//! generation and is dropped instead of driving whatever connection
//! reuses the slot.
//!
//! ## Shutdown
//!
//! The server handle flips the shutdown flag and writes the wake pipe.
//! The reactor then stops accepting, closes idle connections at request
//! boundaries, lets responses still flushing finish, and force closes
//! whatever remains at the drain deadline.

use crate::conn::{Conn, Step};
use crate::http::{self, ParserLimits};
use crate::metrics::{ReactorStats, TRACE_STRIPES};
use crate::server::{error_body, route, RequestTrace, ServeConfig, ServerState, Workspace};
use crate::sys::{Backend, Event, Interest, WakePipe, LISTENER, WAKE};
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use urlid_telemetry::duration_nanos;

/// One slab slot: the connection (when occupied), its registration
/// generation, the interest set currently registered in the poller
/// (so interest changes only touch the kernel when they really
/// change), and the last event-loop pass the connection was admitted
/// in (see the module docs' admission control).
struct Slot {
    gen: u32,
    conn: Option<Conn>,
    interest: Interest,
    admitted_pass: u64,
}

/// The event loop (see module docs). Constructed by `server::spawn`,
/// consumed by [`Reactor::run`] on the reactor thread.
pub(crate) struct Reactor {
    /// This reactor's index in the server's reactor set (the
    /// `X-Urlid-Reactor` value and the trace-stripe selector).
    index: usize,
    /// The I/O engine this reactor multiplexes through: the epoll
    /// poller, behind the trait a test can swap a simulated engine
    /// into.
    backend: Box<dyn Backend>,
    listener: TcpListener,
    wake: WakePipe,
    slots: Vec<Slot>,
    free: Vec<u32>,
    open: usize,
    /// This reactor's private gauge/histogram plane (exposition sums
    /// across reactors; nothing here is written by a sibling).
    stats: Arc<ReactorStats>,
    state: Arc<ServerState>,
    shutdown: Arc<AtomicBool>,
    limits: ParserLimits,
    idle_timeout: Duration,
    drain_timeout: Duration,
    /// This reactor's model handle and the scratch buffers its
    /// requests decode, normalise and score through: after warm-up, a
    /// cache-hit `/identify` allocates nothing.
    workspace: Workspace,
    /// Event-loop passes so far (one per `Backend::wait` return).
    pass: u64,
    /// Connections admitted in the current pass.
    admitted: usize,
    /// Admission budget: connections served per pass (`usize::MAX` =
    /// unlimited).
    admit_per_pass: usize,
    /// The result-cache shard set this reactor's requests probe
    /// (`index % cache.sets()`, precomputed).
    cache_set: usize,
    /// Test hook: panic once `accepted` exceeds this (see
    /// `ServeConfig::fail_after_accepts`).
    fail_after_accepts: Option<u64>,
    draining: bool,
    drain_deadline: Instant,
    next_evict: Instant,
    /// Set when a persistent accept failure (EMFILE) parked the
    /// listener; the tick re-registers it after this instant.
    accept_paused_until: Option<Instant>,
}

impl Reactor {
    /// Wire up a reactor over an already-bound, non-blocking listener
    /// and register its stats plane (reactors register in index order).
    pub(crate) fn new(
        index: usize,
        mut backend: Box<dyn Backend>,
        listener: TcpListener,
        wake: WakePipe,
        state: Arc<ServerState>,
        shutdown: Arc<AtomicBool>,
        config: &ServeConfig,
    ) -> std::io::Result<Reactor> {
        backend.add(listener.as_raw_fd(), LISTENER, Interest::READ)?;
        backend.add(wake.fd(), WAKE, Interest::READ)?;
        let now = Instant::now();
        let cache_set = index % state.cache().sets();
        let stats = state.metrics().register_reactor();
        let workspace = Workspace::new(&state);
        Ok(Reactor {
            index,
            backend,
            listener,
            wake,
            slots: Vec::new(),
            free: Vec::new(),
            open: 0,
            stats,
            state,
            shutdown,
            limits: ParserLimits {
                max_header_bytes: crate::http::MAX_HEADER_BYTES,
                max_body_bytes: config.max_body_bytes,
            },
            idle_timeout: config.idle_timeout,
            drain_timeout: config.drain_timeout,
            workspace,
            pass: 0,
            admitted: 0,
            admit_per_pass: if config.max_inflight == 0 {
                usize::MAX
            } else {
                config.max_inflight
            },
            cache_set,
            fail_after_accepts: config.fail_after_accepts,
            draining: false,
            drain_deadline: now,
            next_evict: now,
            accept_paused_until: None,
        })
    }
    /// How often to scan for idle connections: often enough that an
    /// eviction is at most ~25% late, bounded to stay cheap.
    fn evict_period(&self) -> Duration {
        (self.idle_timeout / 4).clamp(Duration::from_millis(5), Duration::from_millis(250))
    }

    /// The event loop. Returns when shutdown has drained every
    /// connection (or hit the drain deadline).
    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(1024);
        loop {
            events.clear();
            let timeout = self.evict_period();
            if self.backend.wait(&mut events, Some(timeout)).is_err() {
                // A broken I/O engine cannot multiplex anything; treat
                // it like an immediate shutdown.
                self.shutdown.store(true, Ordering::Relaxed);
            }
            self.pass += 1;
            self.admitted = 0;
            let now = Instant::now();
            let mut accept_ready = false;
            for event in events.iter().copied() {
                match event.token {
                    LISTENER => accept_ready = true,
                    WAKE => self.wake.drain(),
                    token => self.drive(token, event.readable, event.writable, now),
                }
            }
            if accept_ready {
                self.accept_ready(now);
            }
            if !self.draining && self.shutdown.load(Ordering::Relaxed) {
                self.start_drain(now);
            }
            self.maybe_resume_accepting(now);
            if now >= self.next_evict {
                self.evict_idle(now);
                self.next_evict = now + self.evict_period();
            }
            if self.draining && (self.open == 0 || now >= self.drain_deadline) {
                self.close_all();
                return;
            }
        }
    }

    fn token_of(&self, idx: usize) -> u64 {
        ((self.slots[idx].gen as u64) << 32) | idx as u64
    }

    /// Resolve a token to its slot index, rejecting stale generations.
    fn resolve(&self, token: u64) -> Option<usize> {
        let idx = (token & u32::MAX as u64) as usize;
        let gen = (token >> 32) as u32;
        match self.slots.get(idx) {
            Some(slot) if slot.gen == gen && slot.conn.is_some() => Some(idx),
            _ => None,
        }
    }

    /// Drive one connection for one readiness event.
    fn drive(&mut self, token: u64, readable: bool, writable: bool, now: Instant) {
        let Some(idx) = self.resolve(token) else {
            return; // closed earlier this same loop iteration
        };
        if readable {
            let step = self.slots[idx]
                .conn
                .as_mut()
                .expect("resolved")
                .on_readable(&mut *self.backend, now);
            self.apply(idx, step, now);
        }
        if writable {
            let backend = &mut *self.backend;
            let Some(slot) = self.slots.get_mut(idx) else {
                return;
            };
            let Some(conn) = slot.conn.as_mut() else {
                return;
            };
            let step = conn.on_writable(backend, now);
            self.apply(idx, step, now);
        }
    }

    /// Apply a state-machine step: answer a parsed request, sync
    /// interest, or tear the connection down. A loop because answering
    /// a request may surface the *next* pipelined request.
    fn apply(&mut self, idx: usize, step: Step, now: Instant) {
        let mut step = step;
        loop {
            step = match step {
                Step::Continue => return self.sync_interest(idx),
                Step::Dispatch(request_id) => self.serve(idx, request_id, now),
                Step::Close => return self.close_conn(idx),
            };
        }
    }

    /// Answer one parsed request on this thread — or shed it with a
    /// `503` when this pass's admission budget is spent — and return
    /// the connection's next step.
    fn serve(&mut self, idx: usize, request_id: u64, now: Instant) -> Step {
        let slot = &mut self.slots[idx];
        let conn = slot.conn.as_mut().expect("resolved");
        let keep_alive = conn.exchange().0.keep_alive;
        if slot.admitted_pass != self.pass {
            if self.admitted >= self.admit_per_pass {
                return conn.reject_overload(&mut *self.backend, keep_alive, now);
            }
            self.admitted += 1;
            slot.admitted_pass = self.pass;
        }
        self.stats.busy.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let mut trace = RequestTrace::new(request_id, self.index % TRACE_STRIPES);
        trace.cache_set = self.cache_set;
        let (request, out) = conn.exchange();
        let start = out.len();
        let routed = catch_unwind(AssertUnwindSafe(|| {
            route(&self.state, request, out, &mut self.workspace, &mut trace)
        }));
        let metrics = self.state.metrics();
        let (status, content_type) = routed.unwrap_or_else(|_| {
            // The handler died partway through: drop what it wrote, and
            // since whatever it left in the scratch buffers is suspect,
            // the next request starts from a fresh workspace.
            out.truncate(start);
            self.workspace = Workspace::new(&self.state);
            metrics.errors.fetch_add(1, Ordering::Relaxed);
            out.extend_from_slice(error_body("internal error").as_bytes());
            (500, "application/json")
        });
        http::write_head(
            out,
            start,
            status,
            content_type,
            keep_alive,
            Some(self.index as u64),
        );
        let identify = matches!(request.path.as_str(), "/identify" | "/identify_batch");
        let flushed = conn.respond(&mut *self.backend, keep_alive, request_id, now);
        self.stats.busy.fetch_sub(1, Ordering::Relaxed);
        // End-to-end: parsed request → response flushed to the socket
        // (`respond` ran the write pass).
        let total_nanos = duration_nanos(started.elapsed());
        if identify {
            metrics.record_latency(total_nanos);
        }
        if metrics
            .slow
            .should_log(total_nanos / 1000, metrics.now_nanos() / 1000)
        {
            // Off the steady-state path by construction (threshold +
            // rate limit); key=value so the line greps and splits
            // mechanically. The connection still holds the request:
            // the next one is parsed by `advance` below.
            let request = conn.exchange().0;
            eprintln!(
                "slow_request request_id={request_id} method={} path={} status={status} \
                 cache_us={} extract_us={} score_us={} total_us={}",
                request.method,
                request.path,
                trace.cache_ns / 1000,
                trace.extract_ns / 1000,
                trace.score_ns / 1000,
                total_nanos / 1000,
            );
        }
        if !flushed {
            return Step::Close;
        }
        conn.advance(&mut *self.backend, now)
    }

    /// Accept every connection the backlog holds.
    fn accept_ready(&mut self, now: Instant) {
        loop {
            match self.backend.accept(&self.listener) {
                Ok(stream) => {
                    if self.draining {
                        continue; // dropped: shutting down
                    }
                    self.adopt(stream, now);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Persistent accept failure (EMFILE/ENFILE being the
                // realistic one): a level-triggered listener with an
                // unconsumed backlog would make every `wait` return
                // instantly, pegging the reactor. Deregister the
                // listener and let the tick re-arm it once the pause
                // elapses (fd pressure eases when connections close).
                Err(_) => {
                    let _ = self.backend.remove(self.listener.as_raw_fd(), LISTENER);
                    self.accept_paused_until = Some(now + Duration::from_millis(100));
                    return;
                }
            }
        }
    }

    /// Re-register a listener parked by an accept failure once its
    /// pause has elapsed (never during a drain — the drain already
    /// removed the listener for good).
    fn maybe_resume_accepting(&mut self, now: Instant) {
        let Some(resume_at) = self.accept_paused_until else {
            return;
        };
        if self.draining {
            self.accept_paused_until = None;
            return;
        }
        if now >= resume_at
            && self
                .backend
                .add(self.listener.as_raw_fd(), LISTENER, Interest::READ)
                .is_ok()
        {
            self.accept_paused_until = None;
        }
    }

    /// Register a freshly accepted stream as a connection. The slot —
    /// and with it the generation-tagged token — is claimed first, so
    /// the connection knows the identity it is registered under.
    fn adopt(&mut self, stream: std::net::TcpStream, now: Instant) {
        let idx = match self.free.pop() {
            Some(idx) => idx as usize,
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    conn: None,
                    interest: Interest::READ,
                    admitted_pass: 0,
                });
                self.slots.len() - 1
            }
        };
        let token = self.token_of(idx);
        let conn = Conn::new(
            stream,
            token,
            self.limits,
            Arc::clone(&self.state),
            Arc::clone(&self.stats),
            self.index,
            now,
        );
        let Ok(conn) = conn else {
            self.free.push(idx as u32);
            return;
        };
        let interest = conn.interest();
        let fd = conn.stream().as_raw_fd();
        self.slots[idx].conn = Some(conn);
        self.slots[idx].interest = interest;
        self.slots[idx].admitted_pass = 0;
        if self.backend.add(fd, token, interest).is_err() {
            self.slots[idx].conn = None;
            self.free.push(idx as u32);
            return;
        }
        self.open += 1;
        let accepted = self.stats.accepted.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.open.fetch_add(1, Ordering::Relaxed);
        if let Some(limit) = self.fail_after_accepts {
            if accepted > limit {
                // Test hook: die *after* the accept so the sibling
                // reactors must absorb the fallout (see
                // `ServeConfig::fail_after_accepts`).
                panic!("injected reactor failure after {accepted} accepts");
            }
        }
    }

    /// Update the poller when a connection's interest set changed.
    fn sync_interest(&mut self, idx: usize) {
        let token = self.token_of(idx);
        let slot = &mut self.slots[idx];
        let Some(conn) = slot.conn.as_ref() else {
            return;
        };
        let desired = conn.interest();
        if desired != slot.interest {
            let fd = conn.stream().as_raw_fd();
            if self.backend.modify(fd, token, desired).is_ok() {
                self.slots[idx].interest = desired;
            }
        }
    }

    /// Deregister and drop a connection; the slot's generation bump
    /// invalidates any event still queued for it.
    fn close_conn(&mut self, idx: usize) {
        let token = self.token_of(idx);
        let Some(conn) = self.slots[idx].conn.take() else {
            return;
        };
        // Deregister *before* the fd closes with `conn` below.
        let _ = self.backend.remove(conn.stream().as_raw_fd(), token);
        let slot = &mut self.slots[idx];
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx as u32);
        self.open -= 1;
        self.stats.open.fetch_sub(1, Ordering::Relaxed);
        drop(conn);
    }

    /// Evict connections idle past the timeout: silent keep-alives,
    /// slowloris drips, stalled response readers.
    fn evict_idle(&mut self, now: Instant) {
        for idx in 0..self.slots.len() {
            let Some(conn) = self.slots[idx].conn.as_ref() else {
                continue;
            };
            if now.duration_since(conn.last_activity()) > self.idle_timeout {
                self.stats.timed_out.fetch_add(1, Ordering::Relaxed);
                self.close_conn(idx);
            }
        }
    }

    /// Begin the graceful drain: stop accepting, close idle
    /// connections, let responses still flushing finish within the
    /// deadline.
    fn start_drain(&mut self, now: Instant) {
        self.draining = true;
        self.drain_deadline = now + self.drain_timeout;
        let _ = self.backend.remove(self.listener.as_raw_fd(), LISTENER);
        for idx in 0..self.slots.len() {
            let Some(conn) = self.slots[idx].conn.as_mut() else {
                continue;
            };
            if conn.begin_drain() {
                self.close_conn(idx);
            }
        }
    }

    /// Force-close whatever is left (drain deadline or clean exit).
    fn close_all(&mut self) {
        for idx in 0..self.slots.len() {
            if self.slots[idx].conn.is_some() {
                self.close_conn(idx);
            }
        }
    }
}
