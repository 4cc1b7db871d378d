//! The per-connection state machine the reactor drives.
//!
//! A [`Conn`] owns one non-blocking socket, an incremental
//! [`RequestParser`], and an outbound queue of response segments
//! flushed with vectored writes. It never blocks and never touches a
//! thread of its own — the reactor calls in when epoll reports
//! readiness, answers each request the parser yields, and hands the
//! response back through [`Conn::respond`]. The request lifecycle:
//!
//! ```text
//!          readable                 parser yields a request
//!   Idle ───────────► feed parser ─────────────────────────► Step::Dispatch
//!    ▲                                                             │
//!    │  output drained (keep-alive; parse any pipelined request)   │ reactor
//!    └────────────────────────── write response ◄──────────────────┘ runs route
//!                                                 Conn::respond
//! ```
//!
//! One request per connection is answered at a time: while a response
//! is still flushing, arriving bytes are buffered but not parsed,
//! which both preserves response ordering for pipelined clients and
//! bounds the per-connection memory (a flood past the cap closes the
//! connection). Malformed, oversized or chunked input gets a
//! `400`/`413`/`501` written out and the connection closed — a
//! misbehaving peer can never panic or wedge anything.

use crate::http::{self, HttpError, ParserLimits, Request, RequestParser};
use crate::metrics::{ReactorStats, TRACE_STRIPES};
use crate::server::{error_body, ServerState};
use crate::sys::{Backend, Interest};
use std::collections::VecDeque;
use std::io::{self, IoSlice};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use urlid_telemetry::Stage;

/// Upper bound on the iovecs of one vectored write (Linux caps a single
/// `writev` at `IOV_MAX` = 1024; sixteen covers any realistic pipelining
/// burst while keeping the stack frame small).
const MAX_WRITE_SEGMENTS: usize = 16;

/// Pending response bytes, kept as a queue of whole-response segments so
/// pipelined responses flush through one vectored write instead of being
/// memmoved into a single growing buffer first.
#[derive(Default)]
struct OutQueue {
    segments: VecDeque<Vec<u8>>,
    /// How much of the front segment has already been written.
    head_pos: usize,
    /// Total unwritten bytes across all segments.
    unwritten: usize,
}

impl OutQueue {
    fn is_empty(&self) -> bool {
        self.unwritten == 0
    }

    fn push(&mut self, bytes: Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        self.unwritten += bytes.len();
        self.segments.push_back(bytes);
    }

    /// Gather up to [`MAX_WRITE_SEGMENTS`] segment tails into `slices`;
    /// returns how many were filled.
    fn gather<'a>(&'a self, slices: &mut [IoSlice<'a>; MAX_WRITE_SEGMENTS]) -> usize {
        let mut count = 0;
        for (i, segment) in self.segments.iter().enumerate() {
            if count == MAX_WRITE_SEGMENTS {
                break;
            }
            let tail = if i == 0 {
                &segment[self.head_pos..]
            } else {
                &segment[..]
            };
            slices[count] = IoSlice::new(tail);
            count += 1;
        }
        count
    }

    /// Account `written` bytes accepted by the kernel, dropping fully
    /// flushed segments.
    fn consume(&mut self, mut written: usize) {
        self.unwritten -= written.min(self.unwritten);
        while written > 0 {
            let Some(front) = self.segments.front() else {
                return;
            };
            let remaining = front.len() - self.head_pos;
            if written >= remaining {
                written -= remaining;
                self.head_pos = 0;
                self.segments.pop_front();
            } else {
                self.head_pos += written;
                return;
            }
        }
    }
}

/// What the reactor should do after driving a connection.
#[derive(Debug)]
pub(crate) enum Step {
    /// Nothing to hand off; keep the connection registered.
    Continue,
    /// A complete request was parsed, tagged with its freshly assigned
    /// request id (correlates the stage spans of this request). The
    /// reactor answers it through [`Conn::respond`] (or sheds it
    /// through [`Conn::reject_overload`]) before driving this
    /// connection again.
    Dispatch(Request, u64),
    /// The connection is finished (peer closed, fatal error, or final
    /// response flushed) — deregister and drop it.
    Close,
}

/// One client connection: socket, parser, pending output.
pub(crate) struct Conn {
    stream: TcpStream,
    /// This connection's generation-tagged slab token — the identity
    /// under which its socket is registered with the I/O backend, passed
    /// back on every read and write (epoll ignores it; a simulated
    /// engine keys its per-connection state by it).
    token: u64,
    /// Shared server state, for the error counter (protocol-level
    /// `400`/`413` rejections bypass the router but must still count).
    state: Arc<ServerState>,
    /// The owning reactor's private stats: connection gauges plus the
    /// parse/write stage histograms recorded on the reactor thread.
    stats: Arc<ReactorStats>,
    /// Index of the owning reactor — a connection is driven by exactly
    /// one reactor for its whole life, so this never changes (the
    /// `X-Urlid-Reactor` response header makes that observable).
    reactor: usize,
    parser: RequestParser,
    /// Response segments not yet accepted by the kernel, flushed with
    /// vectored writes (one `writev` covers a whole pipelining burst).
    out: OutQueue,
    /// Close once the output queue drains (error responses,
    /// `Connection: close`, shutdown drain).
    close_after_write: bool,
    /// The peer half-closed its write side (EOF seen).
    peer_closed: bool,
    /// Hard cap on buffered inbound bytes (see module docs).
    buffer_cap: usize,
    /// Last moment bytes moved on this connection (idle-eviction clock).
    last_activity: Instant,
    /// Parser CPU (nanoseconds) spent on the request currently being
    /// assembled, accumulated across reads (becomes the parse-stage span
    /// when the request completes — or when it is rejected).
    parse_accum_nanos: u64,
    /// When the first byte of the request being assembled arrived;
    /// protocol rejects record their latency sample from this clock
    /// (parsed requests switch to the reactor's clock).
    request_started: Option<Instant>,
}

impl Conn {
    /// Adopt an accepted stream: non-blocking, Nagle off.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        stream: TcpStream,
        token: u64,
        limits: ParserLimits,
        state: Arc<ServerState>,
        stats: Arc<ReactorStats>,
        reactor: usize,
        now: Instant,
    ) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        // Sub-millisecond responses: don't let Nagle batch them.
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            token,
            state,
            stats,
            reactor,
            parser: RequestParser::new(limits),
            out: OutQueue::default(),
            close_after_write: false,
            peer_closed: false,
            // Generous: a full head plus a full body for the parsed
            // request and the same again for pipelined readahead.
            buffer_cap: 2 * (limits.max_header_bytes + limits.max_body_bytes),
            last_activity: now,
            parse_accum_nanos: 0,
            request_started: None,
        })
    }

    /// The socket (the reactor needs its fd for poller registration).
    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Trace-ring stripe for this connection's spans (its reactor's).
    fn stripe(&self) -> usize {
        self.reactor % TRACE_STRIPES
    }

    /// Which readiness events this connection currently needs. Read
    /// interest stays on for the connection's whole life (cheap
    /// peer-close detection, no per-request `epoll_ctl` churn) — until
    /// the peer half-closes: a level-triggered poller reports an
    /// EOF-readable socket forever, so read interest must drop with
    /// `peer_closed` or a client that sends-then-`shutdown(WR)`s while
    /// its response is still flushing would spin the reactor.
    /// Write interest only while output is pending.
    pub(crate) fn interest(&self) -> Interest {
        Interest {
            read: !self.peer_closed,
            write: !self.out.is_empty(),
        }
    }

    /// Last moment bytes moved on this connection.
    pub(crate) fn last_activity(&self) -> Instant {
        self.last_activity
    }

    /// Shutdown drain triage: a connection with nothing queued closes
    /// immediately (returns `true`; a partially received request dies
    /// with it — the server is going away and a partial stream cannot
    /// be resynchronised anyway). A connection whose response is still
    /// flushing is marked to close the moment its output drains.
    pub(crate) fn begin_drain(&mut self) -> bool {
        self.close_after_write = true;
        self.out.is_empty()
    }

    /// The poller says the socket is readable: pull bytes into the
    /// parser, then (when idle) try to produce the next request.
    ///
    /// At most one short read per event: the poller is level-triggered,
    /// so anything left in the socket buffer re-reports immediately —
    /// no need to read until `WouldBlock` (that second, empty syscall
    /// per request is measurable at six-figure request rates). Only a
    /// completely full chunk keeps reading, to drain large bodies in
    /// fewer loop iterations.
    pub(crate) fn on_readable(&mut self, io: &mut dyn Backend, now: Instant) -> Step {
        let mut chunk = [0u8; 8192];
        loop {
            match io.read(self.token, &self.stream, &mut chunk) {
                Ok(0) => {
                    self.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    self.parser.feed(&chunk[..n]);
                    if self.request_started.is_none() {
                        self.request_started = Some(now);
                    }
                    self.last_activity = now;
                    if self.parser.buffered() > self.buffer_cap {
                        // Flooding while a response is backed up: drop
                        // the peer rather than buffer without bound.
                        return Step::Close;
                    }
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Step::Close,
            }
        }
        self.advance(io, now)
    }

    /// The poller says the socket is writable: flush pending output.
    pub(crate) fn on_writable(&mut self, io: &mut dyn Backend, now: Instant) -> Step {
        match self.flush_output(io, now) {
            Ok(()) => self.advance(io, now),
            Err(_) => Step::Close,
        }
    }

    /// The reactor answered the dispatched request: queue the response
    /// and push the lifecycle forward (write what the socket accepts
    /// now; parse the next pipelined request if one is already
    /// buffered). The write-stage span covers the immediate flush pass
    /// — what the kernel accepts now; a backpressure remainder drains
    /// on later writable events and is not re-counted.
    pub(crate) fn respond(
        &mut self,
        io: &mut dyn Backend,
        response: Vec<u8>,
        keep_alive: bool,
        request_id: u64,
        now: Instant,
    ) -> Step {
        if !keep_alive {
            self.close_after_write = true;
        }
        self.queue_bytes(response);
        self.last_activity = now;
        let write_started = Instant::now();
        let flushed = self.flush_output(io, now);
        let metrics = self.state.metrics();
        metrics.record_stage_into(
            &self.stats.write,
            self.stripe(),
            request_id,
            Stage::Write,
            urlid_telemetry::duration_nanos(write_started.elapsed()),
        );
        if flushed.is_err() {
            return Step::Close;
        }
        self.advance(io, now)
    }

    /// Queue a response for writing (whole segments; never memmoved).
    fn queue_bytes(&mut self, bytes: Vec<u8>) {
        self.out.push(bytes);
    }

    /// Write as much pending output as the kernel accepts: every pass
    /// gathers the queued response segments into one vectored write, so
    /// a burst of pipelined responses costs one `writev` syscall instead
    /// of one `write` per response.
    fn flush_output(&mut self, io: &mut dyn Backend, now: Instant) -> io::Result<()> {
        while !self.out.is_empty() {
            let written = {
                let mut slices = [IoSlice::new(&[]); MAX_WRITE_SEGMENTS];
                let count = self.out.gather(&mut slices);
                match io.write_vectored(self.token, &self.stream, &slices[..count]) {
                    Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            self.out.consume(written);
            self.last_activity = now;
        }
        Ok(())
    }

    /// Drive the state machine as far as it goes without new events:
    /// flush output, then either finish (close-after-write), parse the
    /// next buffered request, or wait for more bytes.
    fn advance(&mut self, io: &mut dyn Backend, now: Instant) -> Step {
        if self.flush_output(io, now).is_err() {
            return Step::Close;
        }
        if !self.out.is_empty() {
            // Output still pending: everything else waits for the
            // socket to accept it (write interest is now on).
            return Step::Continue;
        }
        if self.close_after_write {
            return Step::Close;
        }
        let parse_started = Instant::now();
        let parsed = self.parser.next_request();
        self.parse_accum_nanos = self
            .parse_accum_nanos
            .saturating_add(urlid_telemetry::duration_nanos(parse_started.elapsed()));
        match parsed {
            Ok(Some(request)) => {
                let metrics = self.state.metrics();
                let request_id = metrics.next_request_id();
                let parse_nanos = std::mem::take(&mut self.parse_accum_nanos);
                metrics.record_stage_into(
                    &self.stats.parse,
                    self.stripe(),
                    request_id,
                    Stage::Parse,
                    parse_nanos,
                );
                // Parsed: the end-to-end latency clock is the reactor's
                // from here on.
                self.request_started = None;
                Step::Dispatch(request, request_id)
            }
            Ok(None) => {
                if self.peer_closed {
                    // Clean EOF at a request boundary — or a peer that
                    // gave up mid-request; either way nothing more can
                    // be served.
                    Step::Close
                } else {
                    Step::Continue
                }
            }
            Err(HttpError::Malformed(m)) => self.reject(io, 400, &m, now),
            Err(HttpError::TooLarge(m)) => self.reject(io, 413, &m, now),
            Err(HttpError::NotImplemented(m)) => self.reject(io, 501, &m, now),
            Err(HttpError::Io(_)) => Step::Close,
        }
    }

    /// Answer a protocol violation with an error response and close.
    /// (The parse error left the stream unsynchronisable, so the
    /// connection cannot be reused.)
    fn reject(&mut self, io: &mut dyn Backend, status: u16, message: &str, now: Instant) -> Step {
        // These rejections never reach the router, but they are error
        // responses all the same — the /metrics errors counter must
        // see the abuse the parser limits exist to surface. The same
        // goes for the latency and parse-stage histograms: a reject
        // spent real wall time and parser CPU, and dropping those
        // samples would flatter the percentiles exactly when the
        // server is being abused.
        let metrics = self.state.metrics();
        metrics.errors.fetch_add(1, Ordering::Relaxed);
        let total_nanos = self
            .request_started
            .take()
            .map(|started| urlid_telemetry::duration_nanos(started.elapsed()))
            .unwrap_or(0);
        metrics.record_latency(total_nanos);
        let parse_nanos = std::mem::take(&mut self.parse_accum_nanos);
        let request_id = metrics.next_request_id();
        metrics.record_stage_into(
            &self.stats.parse,
            self.stripe(),
            request_id,
            Stage::Parse,
            parse_nanos,
        );
        self.close_after_write = true;
        self.queue_bytes(http::response_bytes(status, &error_body(message), false));
        if self.flush_output(io, now).is_err() || self.out.is_empty() {
            return Step::Close;
        }
        Step::Continue
    }

    /// Admission control tripped: the owning reactor has already served
    /// its budget of connections this event-loop pass, so answer `503`
    /// without running the handler — rejecting must stay cheap when the
    /// server is drowning. Unlike protocol rejects the connection stays
    /// usable (the stream is still synchronised), so keep-alive is
    /// honoured and the client can retry on the same connection.
    ///
    /// The reject counts in the per-reactor `admission_rejects`
    /// counter, not in `errors` and not in the latency histogram:
    /// shedding load in microseconds is the mechanism working, and
    /// folding those near-zero samples into the latency percentiles
    /// would flatter them exactly when the server is overloaded. The
    /// load generator measures overload latency from the client side.
    pub(crate) fn reject_overload(
        &mut self,
        io: &mut dyn Backend,
        keep_alive: bool,
        now: Instant,
    ) -> Step {
        self.stats.admission_rejects.fetch_add(1, Ordering::Relaxed);
        if !keep_alive {
            self.close_after_write = true;
        }
        self.queue_bytes(http::response_bytes_from_reactor(
            503,
            "application/json",
            &error_body("server overloaded, retry"),
            keep_alive,
            self.reactor as u64,
        ));
        if self.flush_output(io, now).is_err() {
            return Step::Close;
        }
        self.advance(io, now)
    }
}
