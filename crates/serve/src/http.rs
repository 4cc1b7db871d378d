//! A minimal HTTP/1.1 codec.
//!
//! The server side is an **incremental** parser ([`RequestParser`]):
//! bytes are fed in as they arrive off a non-blocking socket and the
//! parser answers `NeedMore | Request | Error` without ever blocking —
//! this is what lets one reactor thread multiplex thousands of
//! keep-alive connections (a slow client costs buffer space, never a
//! thread). It implements exactly the subset the serving layer needs:
//! request-line + headers + `Content-Length` bodies, keep-alive, and
//! pipelined back-to-back requests. Anything that would make the body's
//! extent ambiguous is refused rather than guessed at: a
//! `Transfer-Encoding` gets `501` (RFC 9112 §6.1), and conflicting or
//! non-numeric `Content-Length` values get `400` (RFC 9112 §6.3); both
//! close the connection.
//!
//! The client side ([`write_request`] / [`read_response`]) stays
//! blocking — the load generator and the integration tests drive plain
//! [`TcpStream`]s — so the same wire format is exercised from both
//! directions.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Default upper bound on the total header section of a request (bytes).
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Default upper bound on a request body (bytes) — batch requests included.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Spare room one socket read lands in ([`RequestParser::read_from`]).
pub(crate) const READ_CHUNK: usize = 8192;

/// A parsed HTTP request.
#[derive(Debug, Clone, Default)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercased as received.
    pub method: String,
    /// Request path (query strings are kept verbatim; the API uses none).
    pub path: String,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// The `Accept` header verbatim, empty when the client sent none
    /// (drives the `/metrics` JSON-vs-Prometheus content negotiation).
    pub accept: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: String,
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// The connection failed mid-request (including read timeouts).
    Io(io::Error),
    /// The bytes on the wire are not a well-formed HTTP/1.1 request.
    Malformed(String),
    /// Headers or body exceed the configured limits.
    TooLarge(String),
    /// The request uses a feature the parser does not implement (a
    /// `Transfer-Encoding`).
    NotImplemented(String),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
            HttpError::NotImplemented(m) => write!(f, "not implemented: {m}"),
        }
    }
}

/// Size limits enforced *while parsing* — an oversized `Content-Length`
/// is rejected before a single body byte is buffered, so a malicious
/// client can never make the server allocate on its behalf.
#[derive(Debug, Clone, Copy)]
pub struct ParserLimits {
    /// Maximum total size of the request line + headers + blank line.
    pub max_header_bytes: usize,
    /// Maximum declared `Content-Length`.
    pub max_body_bytes: usize,
}

impl Default for ParserLimits {
    fn default() -> Self {
        Self {
            max_header_bytes: MAX_HEADER_BYTES,
            max_body_bytes: MAX_BODY_BYTES,
        }
    }
}

/// The incremental request parser: [`feed`](RequestParser::feed) bytes
/// in as they arrive (the reactor reads its sockets straight into the
/// parser's buffer instead), then pull fully parsed
/// requests out with [`parse_next`](RequestParser::parse_next) — or
/// [`next_request`](RequestParser::next_request), which hands out an
/// owned copy. Pipelined requests come out one per call; partial input
/// answers "need more".
///
/// The parser owns one [`Request`] whose method, path, `Accept` and
/// body buffers are refilled in place, so once they have grown to the
/// traffic's sizes, parsing allocates nothing.
///
/// Parse errors are sticky in practice: after `Malformed`/`TooLarge`
/// the stream cannot be resynchronised and the caller must close the
/// connection (the reactor's connection state machine does exactly
/// that, after writing a `400`/`413`).
#[derive(Debug)]
pub struct RequestParser {
    limits: ParserLimits,
    /// Received bytes are `buf[start..end]`; `buf[end..]` is zeroed
    /// spare room that the next read lands in.
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte in `buf`.
    start: usize,
    /// End of the received bytes in `buf`.
    end: usize,
    /// Head-terminator scan cursor (absolute index into `buf`); never
    /// rescans, so byte-at-a-time delivery stays O(total bytes).
    scan: usize,
    /// Start of the head line currently being scanned.
    line_start: usize,
    /// Declared body length of the parsed head, while waiting for the
    /// rest of its body.
    pending: Option<usize>,
    /// The request being assembled — after `parse_next` answers
    /// `true`, the one just completed.
    request: Request,
}

impl RequestParser {
    /// A parser enforcing `limits`.
    pub fn new(limits: ParserLimits) -> Self {
        Self {
            limits,
            buf: Vec::new(),
            start: 0,
            end: 0,
            scan: 0,
            line_start: 0,
            pending: None,
            request: Request::default(),
        }
    }

    /// Make `buf[end..]` at least `room` bytes long. The zeroing of
    /// `resize` touches only bytes the buffer never held before.
    fn reserve(&mut self, room: usize) -> &mut [u8] {
        if self.buf.len() < self.end + room {
            self.buf.resize(self.end + room, 0);
        }
        &mut self.buf[self.end..]
    }

    /// Append bytes received from the peer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Let `read` fill up to [`READ_CHUNK`] bytes of spare room at the
    /// end of the buffer, so a socket read lands in place instead of
    /// being copied out of an intermediate buffer. Returns what `read`
    /// returned.
    pub(crate) fn read_from(
        &mut self,
        read: impl FnOnce(&mut [u8]) -> io::Result<usize>,
    ) -> io::Result<usize> {
        let room = &mut self.reserve(READ_CHUNK)[..READ_CHUNK];
        let n = read(room)?.min(READ_CHUNK);
        self.end += n;
        Ok(n)
    }

    /// Number of fed-but-unconsumed bytes.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// True when no partial request is buffered — the connection is at
    /// a clean request boundary (safe to close during a drain).
    pub fn is_clean(&self) -> bool {
        self.pending.is_none() && self.buffered() == 0
    }

    /// Move the unconsumed tail to the front of the buffer so it does
    /// not grow without bound across a long-lived keep-alive connection
    /// — but only once at least half the received bytes are consumed,
    /// so a pipelined flood pays amortized O(1) per byte instead of one
    /// full-tail memmove per tiny request. (Normal request-per-response
    /// traffic consumes everything, making the move a free reset.)
    fn compact(&mut self) {
        if self.start > 0 && self.start * 2 >= self.end {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.scan -= self.start;
            self.line_start -= self.start;
            self.start = 0;
        }
    }

    /// Advance the scan cursor to the end of the head section (the byte
    /// after the blank line), tolerating both `\r\n` and bare `\n` line
    /// endings. Returns `None` when the terminator has not arrived yet.
    fn find_head_end(&mut self) -> Option<usize> {
        while self.scan < self.end {
            let byte = self.buf[self.scan];
            self.scan += 1;
            if byte != b'\n' {
                continue;
            }
            let line = &self.buf[self.line_start..self.scan - 1];
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            self.line_start = self.scan;
            if line.is_empty() {
                // A blank line straight away (no request line before
                // it) still ends the head; `parse_head` turns that
                // into a `Malformed("empty request line")` error.
                return Some(self.scan);
            }
        }
        None
    }

    /// Parse the next complete request into the parser's own
    /// [`Request`] (read it with [`request`](RequestParser::request)).
    /// `Ok(false)` means the peer has not sent a complete request yet
    /// (need more bytes); call again after the next read.
    pub fn parse_next(&mut self) -> Result<bool, HttpError> {
        let content_length = match self.pending {
            Some(length) => length,
            None => {
                let Some(head_end) = self.find_head_end() else {
                    // No terminator yet: a peer streaming an endless
                    // header section (or newline-less garbage) is cut
                    // off at the limit instead of growing the buffer
                    // forever.
                    if self.buffered() >= self.limits.max_header_bytes {
                        return Err(HttpError::TooLarge("header section".into()));
                    }
                    return Ok(false);
                };
                if head_end - self.start > self.limits.max_header_bytes {
                    return Err(HttpError::TooLarge("header section".into()));
                }
                let length = parse_head(
                    &self.buf[self.start..head_end],
                    self.limits.max_body_bytes,
                    &mut self.request,
                )?;
                self.start = head_end;
                self.pending = Some(length);
                length
            }
        };
        if self.buffered() < content_length {
            return Ok(false);
        }
        self.pending = None;
        let body = std::str::from_utf8(&self.buf[self.start..self.start + content_length])
            .map_err(|_| HttpError::Malformed("body is not valid UTF-8".into()))?;
        refill(&mut self.request.body, body);
        self.start += content_length;
        self.scan = self.start;
        self.line_start = self.start;
        self.compact();
        Ok(true)
    }

    /// The request [`parse_next`](RequestParser::parse_next) last
    /// completed.
    pub fn request(&self) -> &Request {
        &self.request
    }

    /// Drop the completed request's body, and its buffer's capacity
    /// beyond `keep` bytes, once the request has been answered.
    pub(crate) fn release_body(&mut self, keep: usize) {
        self.request.body.clear();
        self.request.body.shrink_to(keep);
    }

    /// Pull the next fully parsed request out of the buffer as an owned
    /// copy. `Ok(None)` means the peer has not sent a complete request
    /// yet (need more bytes); call again after the next
    /// [`feed`](RequestParser::feed).
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        Ok(self.parse_next()?.then(|| self.request.clone()))
    }
}

/// Overwrite `dst` with `src`, keeping `dst`'s allocation.
fn refill(dst: &mut String, src: &str) {
    dst.clear();
    dst.push_str(src);
}

/// Parse a head section (request line + headers) into `req`'s method,
/// path, keep-alive flag and `Accept`, and return the declared body
/// length — checked against `max_body` *now*, before any body byte is
/// waited for, let alone buffered.
fn parse_head(head: &[u8], max_body: usize, req: &mut Request) -> Result<usize, HttpError> {
    let head = std::str::from_utf8(head)
        .map_err(|_| HttpError::Malformed("headers are not valid UTF-8".into()))?;
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?;
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line has no path".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line has no version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad version {version:?}")));
    }
    refill(&mut req.method, method);
    refill(&mut req.path, path);
    req.accept.clear();
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    req.keep_alive = version == "HTTP/1.1";
    let mut content_length: Option<usize> = None;
    for line in lines {
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header {trimmed:?}")));
        };
        // RFC 9112 §5.1: whitespace between a field name and its colon
        // must be rejected. Ignoring such a header instead would let
        // `Content-Length : 28` frame the body differently here than at
        // a proxy that honours it (request smuggling).
        if name.is_empty() || name.bytes().any(|b| b.is_ascii_whitespace()) {
            return Err(HttpError::Malformed(format!("bad header name {name:?}")));
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::NotImplemented(format!(
                "transfer-encoding {value:?}; send a Content-Length body"
            )));
        } else if name.eq_ignore_ascii_case("content-length") {
            // Digits only: `usize::from_str` would also take a `+`.
            let length = match value.parse::<usize>() {
                Ok(n) if value.bytes().all(|b| b.is_ascii_digit()) => n,
                _ => {
                    return Err(HttpError::Malformed(format!(
                        "bad content-length {value:?}"
                    )))
                }
            };
            if content_length.is_some_and(|seen| seen != length) {
                return Err(HttpError::Malformed("conflicting content-length".into()));
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                req.keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                req.keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("accept") {
            refill(&mut req.accept, value);
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes"
        )));
    }
    Ok(content_length)
}

/// The reason phrase for the status codes the API uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Complete the response whose body was just appended at
/// `out[body_start..]` by writing its head in front of it: the status
/// line, `Content-Type`, `Content-Length`, `Connection` and — when
/// `reactor` is given — `X-Urlid-Reactor`. Head and body end up as one
/// buffer: a single `write` syscall for small responses, and no window
/// for a peer to observe a half response. Nothing is allocated once
/// `out` has grown to the response's size.
///
/// Every response a reactor answers names it in `X-Urlid-Reactor`,
/// which makes connection affinity an externally observable invariant:
/// all responses on one connection must name the same reactor (the
/// integration tests pin this down).
pub fn write_head(
    out: &mut Vec<u8>,
    body_start: usize,
    status: u16,
    content_type: &str,
    keep_alive: bool,
    reactor: Option<u64>,
) {
    let body_len = out.len() - body_start;
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let head_start = out.len();
    write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {body_len}\r\nConnection: {connection}\r\n",
        reason(status),
    )
    .expect("writing to a Vec cannot fail");
    if let Some(reactor) = reactor {
        write!(out, "X-Urlid-Reactor: {reactor}\r\n").expect("writing to a Vec cannot fail");
    }
    out.extend_from_slice(b"\r\n");
    let head_len = out.len() - head_start;
    out[body_start..].rotate_right(head_len);
}

/// A complete JSON response as bytes (see [`write_head`]; no
/// `X-Urlid-Reactor` header — protocol rejects are answered before any
/// handler runs).
pub fn response_bytes(status: u16, body: &str, keep_alive: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 128);
    out.extend_from_slice(body.as_bytes());
    write_head(&mut out, 0, status, "application/json", keep_alive, None);
    out
}

// ---------------------------------------------------------------------
// Client side (load generator, integration tests)
// ---------------------------------------------------------------------

/// Write a request; `body` of `None` means a body-less GET-style request.
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<()> {
    let body = body.unwrap_or("");
    // One write for head + body (see `response_bytes`).
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: urlid\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

/// Read one response; returns `(status, body)`.
pub fn read_response(reader: &mut BufReader<TcpStream>) -> io::Result<(u16, String)> {
    read_response_tagged(reader).map(|(status, _, body)| (status, body))
}

/// Read one response, also extracting the `X-Urlid-Reactor` header a
/// multi-reactor server stamps on every response (`None` when absent —
/// single-reactor servers and protocol rejects don't carry it).
pub fn read_response_tagged(
    reader: &mut BufReader<TcpStream>,
) -> io::Result<(u16, Option<u64>, String)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before response",
        ));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length = 0usize;
    let mut reactor = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside headers",
            ));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            } else if name.eq_ignore_ascii_case("x-urlid-reactor") {
                reactor = value.trim().parse().ok();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(|b| (status, reactor, b))
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parser() -> RequestParser {
        RequestParser::new(ParserLimits::default())
    }

    fn parse_all(input: &[u8]) -> Result<Vec<Request>, HttpError> {
        let mut p = parser();
        p.feed(input);
        let mut out = Vec::new();
        while let Some(req) = p.next_request()? {
            out.push(req);
        }
        Ok(out)
    }

    #[test]
    fn parses_a_complete_request_in_one_feed() {
        let reqs =
            parse_all(b"POST /identify HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody")
                .unwrap();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].method, "POST");
        assert_eq!(reqs[0].path, "/identify");
        assert_eq!(reqs[0].body, "body");
        assert!(reqs[0].keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn byte_at_a_time_delivery_parses_identically() {
        let wire = b"POST /identify HTTP/1.1\r\nContent-Length: 11\r\nConnection: close\r\n\r\nhello world";
        let mut p = parser();
        for (i, byte) in wire.iter().enumerate() {
            p.feed(std::slice::from_ref(byte));
            let parsed = p.next_request().unwrap();
            if i < wire.len() - 1 {
                assert!(parsed.is_none(), "complete request after {} bytes", i + 1);
            } else {
                let req = parsed.expect("request after final byte");
                assert_eq!(req.body, "hello world");
                assert!(!req.keep_alive);
            }
        }
        assert!(p.is_clean());
    }

    #[test]
    fn body_split_across_feeds_needs_exactly_the_declared_bytes() {
        let mut p = parser();
        p.feed(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n12345");
        assert!(
            p.next_request().unwrap().is_none(),
            "half a body is NeedMore"
        );
        p.feed(b"6789");
        assert!(p.next_request().unwrap().is_none(), "one byte short");
        p.feed(b"0");
        let req = p.next_request().unwrap().expect("complete");
        assert_eq!(req.body, "1234567890");
    }

    #[test]
    fn pipelined_requests_come_out_one_per_call() {
        let mut p = parser();
        p.feed(b"GET /healthz HTTP/1.1\r\n\r\nPOST /identify HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /metrics HTTP/1.1\r\n\r\n");
        let a = p.next_request().unwrap().expect("first");
        assert_eq!((a.method.as_str(), a.path.as_str()), ("GET", "/healthz"));
        let b = p.next_request().unwrap().expect("second");
        assert_eq!(b.body, "hi");
        let c = p.next_request().unwrap().expect("third");
        assert_eq!(c.path, "/metrics");
        assert!(p.next_request().unwrap().is_none());
        assert!(p.is_clean());
    }

    #[test]
    fn oversized_content_length_is_rejected_before_any_body_arrives() {
        let mut p = RequestParser::new(ParserLimits {
            max_header_bytes: 1024,
            max_body_bytes: 64,
        });
        // Head only — not a single body byte is fed, yet the declared
        // length alone triggers the rejection (no allocation happens).
        p.feed(b"POST / HTTP/1.1\r\nContent-Length: 65\r\n\r\n");
        assert!(matches!(p.next_request(), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn newline_less_flood_is_cut_off_at_the_header_limit() {
        let mut p = RequestParser::new(ParserLimits {
            max_header_bytes: 128,
            max_body_bytes: 64,
        });
        p.feed(&[b'A'; 127]);
        assert!(p.next_request().unwrap().is_none());
        p.feed(&[b'A'; 1]);
        assert!(matches!(p.next_request(), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn endless_header_section_is_cut_off_at_the_limit() {
        let mut p = RequestParser::new(ParserLimits {
            max_header_bytes: 128,
            max_body_bytes: 64,
        });
        p.feed(b"GET / HTTP/1.1\r\n");
        for _ in 0..20 {
            p.feed(b"X-Pad: aaaaaaaaaa\r\n");
        }
        assert!(matches!(p.next_request(), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let reqs = parse_all(b"GET /healthz HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(reqs[0].path, "/healthz");
    }

    #[test]
    fn malformed_inputs_error_instead_of_panicking() {
        for bad in [
            &b"\r\n\r\n"[..],                                     // empty request line
            b"GET\r\n\r\n",                                       // no path
            b"GET /x\r\n\r\n",                                    // no version
            b"GET /x SMTP/1.0\r\n\r\n",                           // wrong protocol
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",          // bad header
            b"GET /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n", // bad length
            b"\xff\xfe /x HTTP/1.1\r\n\r\n",                      // non-UTF-8 head
            // Whitespace before the colon (RFC 9112 §5.1): ignoring the
            // header would parse its body as a second request.
            b"POST /x HTTP/1.1\r\nContent-Length : 26\r\n\r\nGET /smuggled HTTP/1.1\r\n\r\n",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding : chunked\r\n\r\n",
            b"GET /x HTTP/1.1\r\n: empty-name\r\n\r\n",
        ] {
            assert!(
                matches!(parse_all(bad), Err(HttpError::Malformed(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn transfer_encoding_is_not_implemented() {
        for wire in [
            &b"POST /identify HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nbody\r\n0\r\n\r\n"
                [..],
            b"POST /identify HTTP/1.1\r\nContent-Length: 4\r\ntransfer-encoding: gzip\r\n\r\nbody",
        ] {
            assert!(
                matches!(parse_all(wire), Err(HttpError::NotImplemented(_))),
                "{:?}",
                String::from_utf8_lossy(wire)
            );
        }
    }

    #[test]
    fn conflicting_content_lengths_are_malformed() {
        let wire = b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 37\r\n\r\nhello";
        assert!(matches!(parse_all(wire), Err(HttpError::Malformed(_))));
        // A repeated identical value is the same length, not a conflict.
        let reqs =
            parse_all(b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello")
                .unwrap();
        assert_eq!(reqs[0].body, "hello");
    }

    #[test]
    fn content_length_must_be_all_digits() {
        for value in ["+37", "-1", "3 7", "0x10", "", "5, 5"] {
            let wire = format!("POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\n");
            assert!(
                matches!(parse_all(wire.as_bytes()), Err(HttpError::Malformed(_))),
                "{value:?}"
            );
        }
    }

    #[test]
    fn non_utf8_body_is_malformed() {
        let mut p = parser();
        p.feed(b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe");
        assert!(matches!(p.next_request(), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn connection_header_overrides_the_version_default() {
        let reqs = parse_all(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(reqs[0].keep_alive);
        let reqs = parse_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!reqs[0].keep_alive);
        let reqs = parse_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!reqs[0].keep_alive);
    }

    #[test]
    fn accept_header_is_captured_verbatim() {
        // One parser, refilling one request in place: the second
        // request's missing `Accept` must not inherit the first's.
        let mut p = parser();
        p.feed(b"GET /metrics HTTP/1.1\r\nAccept: text/plain; version=0.0.4\r\n\r\n");
        p.feed(b"POST /identify HTTP/1.0\r\nContent-Length: 2\r\n\r\nhi");
        p.feed(b"GET /m HTTP/1.1\r\n\r\n");
        assert!(p.parse_next().unwrap());
        assert_eq!(p.request().accept, "text/plain; version=0.0.4");
        assert!(p.request().body.is_empty());
        assert!(p.parse_next().unwrap());
        let req = p.request();
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/identify")
        );
        assert!(req.accept.is_empty());
        assert_eq!(req.body, "hi");
        assert!(!req.keep_alive);
        assert!(p.parse_next().unwrap());
        assert_eq!(p.request().path, "/m");
        assert!(p.request().body.is_empty());
        assert!(!p.parse_next().unwrap());
    }

    #[test]
    fn head_writer_puts_the_head_before_the_body() {
        // The body was appended after earlier bytes; the head lands
        // between them and the body.
        let mut out = b"earlier".to_vec();
        out.extend_from_slice(b"x 1\n");
        write_head(&mut out, 7, 200, "text/plain; version=0.0.4", true, Some(3));
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "earlierHTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: 4\r\nConnection: keep-alive\r\nX-Urlid-Reactor: 3\r\n\r\nx 1\n"
        );
    }

    #[test]
    fn response_bytes_round_trip_shape() {
        let bytes = response_bytes(200, "{\"ok\":true}", true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        let bytes = response_bytes(503, "{}", false);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }

    proptest! {
        /// Feeding a valid request split at arbitrary points yields the
        /// same parse as feeding it whole — the incremental parser is
        /// insensitive to how the kernel fragments the stream.
        #[test]
        fn arbitrary_fragmentation_is_parse_equivalent(
            path in "/[a-z]{1,12}",
            body in "[ -~]{0,64}",
            cut in proptest::collection::vec(0usize..200, 0..6),
        ) {
            let wire = format!(
                "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let whole = parse_all(wire.as_bytes()).unwrap();
            prop_assert_eq!(whole.len(), 1);

            let mut cuts: Vec<usize> = cut.iter().map(|c| c % wire.len().max(1)).collect();
            cuts.sort_unstable();
            let mut p = parser();
            let mut prev = 0;
            for c in cuts.into_iter().chain([wire.len()]) {
                p.feed(&wire.as_bytes()[prev..c]);
                prev = c;
            }
            let req = p.next_request().unwrap().expect("complete request");
            prop_assert_eq!(&req.path, &whole[0].path);
            prop_assert_eq!(&req.body, &whole[0].body);
            prop_assert_eq!(req.keep_alive, whole[0].keep_alive);
        }

        /// Random bytes never panic the parser: every input either
        /// parses, needs more, or errors cleanly.
        #[test]
        fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
            let mut p = RequestParser::new(ParserLimits {
                max_header_bytes: 256,
                max_body_bytes: 256,
            });
            p.feed(&bytes);
            while let Ok(Some(_)) = p.next_request() {}
        }
    }
}
