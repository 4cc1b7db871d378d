//! The per-connection state machine the reactor drives.
//!
//! A [`Conn`] owns one non-blocking socket, an incremental
//! [`RequestParser`] (which owns the connection's one [`Request`],
//! refilled in place), and one reusable output buffer. It never blocks
//! and never touches a thread of its own — the reactor calls in when
//! epoll reports readiness, answers each request the parser yields by
//! encoding the response straight into the output buffer
//! ([`Conn::exchange`]), and has it written through [`Conn::respond`].
//! The request lifecycle:
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
//! is still flushing, arriving bytes are buffered but not parsed, which
//! both preserves response ordering for pipelined clients and bounds
//! the per-connection memory (a flood past the cap closes the
//! connection). So the output buffer holds at most one response, and
//! each response goes out in plain `write`s. Malformed, oversized or
//! chunked input gets a `400`/`413`/`501` written out and the
//! connection closed — a misbehaving peer can never panic or wedge
//! anything.

use crate::http::{self, HttpError, ParserLimits, Request, RequestParser};
use crate::metrics::{ReactorStats, TRACE_STRIPES};
use crate::server::{error_body, ServerState};
use crate::sys::{Backend, Interest};
use std::io;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use urlid_telemetry::Stage;

/// Capacity the output buffer and the request body keep once a
/// response drains. Larger buffers (left by a big batch or `/metrics`
/// answer) are shrunk back, so an idle connection holds no more.
const RETAIN_BYTES: usize = 64 * 1024;

/// What the reactor should do after driving a connection.
#[derive(Debug)]
pub(crate) enum Step {
    /// Nothing to hand off; keep the connection registered.
    Continue,
    /// A complete request was parsed (read it through
    /// [`Conn::exchange`]), tagged with its freshly assigned request id
    /// (correlates the stage spans of this request). The reactor
    /// answers it through [`Conn::respond`] (or sheds it through
    /// [`Conn::reject_overload`]) before driving this connection again.
    Dispatch(u64),
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
    /// The response being written: encoded straight in here (body, then
    /// the head in front of it — see [`http::write_head`]), reused for
    /// every response on the connection.
    out: Vec<u8>,
    /// How much of `out` the kernel has accepted.
    written: usize,
    /// Close once the output buffer drains (error responses,
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
            out: Vec::new(),
            written: 0,
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
            write: self.has_output(),
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
        !self.has_output()
    }

    /// Response bytes the kernel has not accepted yet?
    fn has_output(&self) -> bool {
        self.written < self.out.len()
    }

    /// The request [`Step::Dispatch`] announced, and the output buffer
    /// its response is to be appended to (the response starts at the
    /// buffer's current length).
    pub(crate) fn exchange(&mut self) -> (&Request, &mut Vec<u8>) {
        (self.parser.request(), &mut self.out)
    }

    /// The poller says the socket is readable: read bytes straight into
    /// the parser's buffer, then (when idle) try to produce the next
    /// request.
    ///
    /// At most one short read per event: the poller is level-triggered,
    /// so anything left in the socket buffer re-reports immediately —
    /// no need to read until `WouldBlock` (that second, empty syscall
    /// per request is measurable at six-figure request rates). Only a
    /// completely full chunk keeps reading, to drain large bodies in
    /// fewer loop iterations.
    pub(crate) fn on_readable(&mut self, io: &mut dyn Backend, now: Instant) -> Step {
        loop {
            let (token, stream) = (self.token, &self.stream);
            match self.parser.read_from(|room| io.read(token, stream, room)) {
                Ok(0) => {
                    self.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    if self.request_started.is_none() {
                        self.request_started = Some(now);
                    }
                    self.last_activity = now;
                    if self.parser.buffered() > self.buffer_cap {
                        // Flooding while a response is backed up: drop
                        // the peer rather than buffer without bound.
                        return Step::Close;
                    }
                    if n < http::READ_CHUNK {
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

    /// The reactor has appended the response to the dispatched request
    /// to the output buffer: write what the socket accepts now. The
    /// write-stage span covers this immediate flush pass — a
    /// backpressure remainder drains on later writable events and is
    /// not re-counted. Returns `false` when the connection failed; the
    /// reactor then closes it, and otherwise moves the lifecycle on
    /// with [`Conn::advance`].
    pub(crate) fn respond(
        &mut self,
        io: &mut dyn Backend,
        keep_alive: bool,
        request_id: u64,
        now: Instant,
    ) -> bool {
        if !keep_alive {
            self.close_after_write = true;
        }
        self.last_activity = now;
        let write_started = Instant::now();
        let flushed = self.flush_output(io, now);
        self.state.metrics().record_stage_into(
            &self.stats.write,
            self.stripe(),
            request_id,
            Stage::Write,
            urlid_telemetry::duration_nanos(write_started.elapsed()),
        );
        flushed.is_ok()
    }

    /// Write as much pending output as the kernel accepts. Once it has
    /// drained, the request is done with: the buffers are emptied for
    /// the next one (and shrunk back when a large exchange grew them).
    fn flush_output(&mut self, io: &mut dyn Backend, now: Instant) -> io::Result<()> {
        while self.has_output() {
            match io.write(self.token, &self.stream, &self.out[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.written += n;
                    self.last_activity = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out.shrink_to(RETAIN_BYTES);
        self.written = 0;
        self.parser.release_body(RETAIN_BYTES);
        Ok(())
    }

    /// Drive the state machine as far as it goes without new events:
    /// flush output, then either finish (close-after-write), parse the
    /// next buffered request, or wait for more bytes.
    pub(crate) fn advance(&mut self, io: &mut dyn Backend, now: Instant) -> Step {
        if self.flush_output(io, now).is_err() {
            return Step::Close;
        }
        if self.has_output() {
            // Output still pending: everything else waits for the
            // socket to accept it (write interest is now on).
            return Step::Continue;
        }
        if self.close_after_write {
            return Step::Close;
        }
        let parse_started = Instant::now();
        let parsed = self.parser.parse_next();
        self.parse_accum_nanos = self
            .parse_accum_nanos
            .saturating_add(urlid_telemetry::duration_nanos(parse_started.elapsed()));
        match parsed {
            Ok(true) => {
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
                Step::Dispatch(request_id)
            }
            Ok(false) => {
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
        self.out
            .extend_from_slice(&http::response_bytes(status, &error_body(message), false));
        if self.flush_output(io, now).is_err() || !self.has_output() {
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
        let start = self.out.len();
        self.out
            .extend_from_slice(error_body("server overloaded, retry").as_bytes());
        http::write_head(
            &mut self.out,
            start,
            503,
            "application/json",
            keep_alive,
            Some(self.reactor as u64),
        );
        if self.flush_output(io, now).is_err() {
            return Step::Close;
        }
        self.advance(io, now)
    }
}
