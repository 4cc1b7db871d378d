//! A minimal keep-alive HTTP/1.1 client: one request outstanding, one
//! write per request, buffers reused across requests. Kept separate from
//! the server's own codec so the yardstick does not move when the
//! server's HTTP code changes.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A reply that took longer than this is a transport error, never a hang.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    request: Vec<u8>,
    buf: Vec<u8>,
    /// Bytes of `buf` belonging to the previous reply.
    consumed: usize,
    chunk: Box<[u8]>,
}

/// A reply: status, the serving reactor, and the body bytes (valid
/// until the next request).
pub struct Reply<'a> {
    /// HTTP status code.
    pub status: u16,
    /// The `X-Urlid-Reactor` header: which server reactor owns the
    /// connection.
    pub reactor: Option<u64>,
    /// Response body.
    pub body: &'a [u8],
}

/// What a response head says.
struct Head {
    status: u16,
    content_length: usize,
    reactor: Option<u64>,
}

impl Conn {
    /// Connect with Nagle off.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Self {
            stream,
            request: Vec::with_capacity(1024),
            buf: Vec::with_capacity(1 << 16),
            consumed: 0,
            chunk: vec![0u8; 1 << 16].into_boxed_slice(),
        })
    }

    /// The exact bytes of the last request sent (head and body).
    pub fn last_request(&self) -> &[u8] {
        &self.request
    }

    /// Send one request and read its reply.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply<'_>> {
        self.request.clear();
        write!(
            self.request,
            "{method} {path} HTTP/1.1\r\nHost: urlid\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.request.extend_from_slice(body);
        self.stream.write_all(&self.request)?;
        self.read_reply()
    }

    fn fill(&mut self) -> io::Result<()> {
        let n = self.stream.read(&mut self.chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&self.chunk[..n]);
        Ok(())
    }

    fn read_reply(&mut self) -> io::Result<Reply<'_>> {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        let head_len = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = parse_head(&self.buf[..head_len])?;
        while self.buf.len() < head_len + head.content_length {
            self.fill()?;
        }
        self.consumed = head_len + head.content_length;
        Ok(Reply {
            status: head.status,
            reactor: head.reactor,
            body: &self.buf[head_len..self.consumed],
        })
    }
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_owned())
}

fn parse_head(head: &[u8]) -> io::Result<Head> {
    let head = std::str::from_utf8(head).map_err(|_| invalid("non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut parsed = Head {
        status,
        content_length: 0,
        reactor: None,
    };
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                parsed.content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("x-urlid-reactor") {
                parsed.reactor = value.trim().parse().ok();
            }
        }
    }
    Ok(parsed)
}

/// One `GET` on a fresh connection; the body as text when the status
/// is 200.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<String> {
    let mut conn = Conn::connect(addr)?;
    get_on(&mut conn, path)
}

/// One `GET` on an open connection; the body as text when the status
/// is 200.
pub fn get_on(conn: &mut Conn, path: &str) -> io::Result<String> {
    let reply = conn.send("GET", path, b"")?;
    if reply.status != 200 {
        return Err(invalid(&format!("GET {path} answered {}", reply.status)));
    }
    String::from_utf8(reply.body.to_vec()).map_err(|_| invalid("non-UTF-8 body"))
}

/// Open `n` connections, each owned by a different server reactor while
/// unused reactors remain, so which reactors serve a run does not depend
/// on how the kernel happened to balance the accepts. Never holds more
/// than `n` connections open at once.
pub fn connect_spread(addr: SocketAddr, n: usize, reactors: usize) -> io::Result<Vec<Conn>> {
    const ATTEMPTS: usize = 256;
    let mut conns = Vec::with_capacity(n);
    let mut owners = Vec::with_capacity(n);
    for _ in 0..ATTEMPTS {
        if conns.len() == n {
            break;
        }
        let mut conn = Conn::connect(addr)?;
        let owner = conn.send("GET", "/healthz", b"")?.reactor;
        if owners.len() < reactors && owners.contains(&owner) {
            continue;
        }
        owners.push(owner);
        conns.push(conn);
    }
    while conns.len() < n {
        conns.push(Conn::connect(addr)?);
    }
    Ok(conns)
}
