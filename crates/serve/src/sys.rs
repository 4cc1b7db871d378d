//! Raw network-I/O syscall wrappers — the only `unsafe` in the crate.
//!
//! The build container has no crates.io access (no `mio`, no `libc`
//! crate), so the handful of C symbols the reactor needs are declared
//! by hand; `std` already links libc on every unix target, so the
//! symbols resolve at link time. The crate is Linux-only, and its one
//! I/O engine is [`Poller`]: `epoll` (`epoll_create1` / `epoll_ctl` /
//! `epoll_wait`), level-triggered — O(ready) wakeups regardless of how
//! many idle connections are registered; reads and writes are plain
//! syscalls on the ready socket. The reactor drives it through the
//! [`Backend`] trait, the seam a test can put a simulated engine
//! behind.
//!
//! Shutdown wakeups use a self-pipe ([`WakePipe`] / [`Waker`]): the
//! read end is registered in the backend like any other fd, and any
//! thread can make the blocked reactor return by writing one byte.

#![allow(unsafe_code)]

// The other low-level surface the serving layer leans on: the
// memory-mapping primitives behind zero-copy `.urlm` model loading.
// Re-exported here so embedders can reason about the mapping backend
// (`Mapping::backend()`, `Lane::is_mapped()`) without adding a direct
// `urlid-mapped` dependency.
pub use urlid_mapped::{Lane, Mapping, Pod, ViewError};

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_void};
use std::time::Duration;

/// What the reactor wants to hear about for one fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable.
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Readable and writable.
    pub const READ_WRITE: Interest = Interest {
        read: true,
        write: true,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd has bytes to read (or a hangup/error to discover by
    /// reading — `EPOLLHUP`/`EPOLLERR` are folded in here so the
    /// state machine learns about dead peers through a zero/error
    /// read, one code path for all of them).
    pub readable: bool,
    /// The fd can accept more bytes.
    pub writable: bool,
}

/// Reserved registration token of a reactor's listening socket.
pub const LISTENER: u64 = u64::MAX;
/// Reserved registration token of a reactor's wake-pipe read end.
pub const WAKE: u64 = u64::MAX - 1;

/// The I/O engine a reactor drives its connections through.
///
/// [`Poller`] (epoll) is the one production engine: it reports which
/// fds are ready and `read`/`write` are the plain syscalls on
/// the ready socket. The trait stays so a test can swap in a simulated
/// engine; the token parameters let such an engine key per-connection
/// state without a fd. The reactor sees a level-triggered surface:
/// [`Event`]s keyed by token, `WouldBlock` when an operation cannot
/// progress yet, and a later event when it can.
pub trait Backend: Send {
    /// Register `fd` under `token`. The reserved [`LISTENER`] and
    /// [`WAKE`] tokens identify the two special fds.
    fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()>;

    /// Change the interest set of a registered fd.
    fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()>;

    /// Deregister a fd. The caller closes the fd *after* this returns.
    fn remove(&mut self, fd: RawFd, token: u64) -> io::Result<()>;

    /// Block until at least one event (or `timeout`); append ready
    /// events to `events`.
    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()>;

    /// Accept one pending connection on the registered listener
    /// (`WouldBlock` when the backlog is empty).
    fn accept(&mut self, listener: &std::net::TcpListener) -> io::Result<std::net::TcpStream>;

    /// Read into `buf` for the connection registered under `token`.
    fn read(
        &mut self,
        token: u64,
        stream: &std::net::TcpStream,
        buf: &mut [u8],
    ) -> io::Result<usize>;

    /// Write `buf` for the connection registered under `token`.
    fn write(&mut self, token: u64, stream: &std::net::TcpStream, buf: &[u8]) -> io::Result<usize>;
}

impl Backend for Poller {
    fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        Poller::add(self, fd, token, interest)
    }

    fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        Poller::modify(self, fd, token, interest)
    }

    fn remove(&mut self, fd: RawFd, _token: u64) -> io::Result<()> {
        Poller::remove(self, fd)
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        Poller::wait(self, events, timeout)
    }

    fn accept(&mut self, listener: &std::net::TcpListener) -> io::Result<std::net::TcpStream> {
        listener.accept().map(|(stream, _)| stream)
    }

    fn read(
        &mut self,
        _token: u64,
        stream: &std::net::TcpStream,
        buf: &mut [u8],
    ) -> io::Result<usize> {
        use std::io::Read as _;
        (&mut &*stream).read(buf)
    }

    fn write(
        &mut self,
        _token: u64,
        stream: &std::net::TcpStream,
        buf: &[u8],
    ) -> io::Result<usize> {
        use std::io::Write as _;
        (&mut &*stream).write(buf)
    }
}

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

/// Close an fd, ignoring errors (used from `Drop` impls only).
fn close_fd(fd: RawFd) {
    extern "C" {
        fn close(fd: c_int) -> c_int;
    }
    unsafe {
        close(fd);
    }
}

// ---------------------------------------------------------------------
// Readiness backend: epoll
// ---------------------------------------------------------------------

mod epoll {
    use super::*;

    // x86_64 is the one ABI where the kernel declares epoll_event
    // packed (`__EPOLL_PACKED`); everywhere else it has natural
    // alignment.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;

    /// Readiness multiplexer over an epoll instance.
    pub struct Poller {
        epfd: RawFd,
        /// Scratch buffer `epoll_wait` fills; reused across calls.
        raw: Vec<EpollEvent>,
    }

    impl Poller {
        /// Engine name reported by `/healthz` and `/metrics`
        /// (`reactors.io_backend`, the Prometheus `io` label).
        pub const NAME: &'static str = "epoll";

        /// A fresh epoll instance (close-on-exec).
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(last_os_error());
            }
            Ok(Poller {
                epfd,
                raw: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut events = 0u32;
            if interest.read {
                events |= EPOLLIN;
            }
            if interest.write {
                events |= EPOLLOUT;
            }
            let mut event = EpollEvent {
                events,
                data: token,
            };
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut event) };
            if rc < 0 {
                return Err(last_os_error());
            }
            Ok(())
        }

        /// Register `fd` under `token`.
        pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Change the interest set of a registered fd.
        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Deregister a fd (kernel-side removal also happens on close,
        /// but explicit removal keeps the registration count honest).
        pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
            let mut event = EpollEvent { events: 0, data: 0 };
            let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut event) };
            if rc < 0 {
                return Err(last_os_error());
            }
            Ok(())
        }

        /// Block until at least one registered fd is ready or `timeout`
        /// expires (`None` blocks indefinitely); ready events are
        /// appended to `events`. A signal interruption reports zero
        /// events rather than an error.
        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(c_int::MAX as u128) as c_int,
            };
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.raw.as_mut_ptr(),
                    self.raw.len() as c_int,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for raw in &self.raw[..n as usize] {
                let bits = raw.events;
                events.push(Event {
                    token: raw.data,
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            close_fd(self.epfd);
        }
    }
}

pub use epoll::Poller;

// ---------------------------------------------------------------------
// SO_REUSEPORT listener creation
// ---------------------------------------------------------------------

/// Create a non-blocking TCP listener with `SO_REUSEPORT` set *before*
/// `bind`, so several listeners can share one port and the kernel
/// load-balances incoming connections across them by 4-tuple hash.
///
/// `std`'s `TcpListener::bind` offers no hook between `socket()` and
/// `bind()`, so the whole sequence is hand-rolled here. Binding to
/// port 0 works: the first listener gets an ephemeral port and the
/// caller re-binds siblings to the resolved address.
pub fn bind_reuseport(addr: std::net::SocketAddr) -> io::Result<std::net::TcpListener> {
    use std::os::fd::FromRawFd;

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
        fn bind(fd: c_int, addr: *const c_void, len: u32) -> c_int;
        fn listen(fd: c_int, backlog: c_int) -> c_int;
    }

    const AF_INET: c_int = 2;
    const AF_INET6: c_int = 10;
    const SOCK_STREAM: c_int = 1;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;
    const SO_REUSEPORT: c_int = 15;
    const BACKLOG: c_int = 1024;

    // The kernel's sockaddr layouts, byte for byte.
    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port: u16, // network byte order
        addr: u32, // network byte order
        zero: [u8; 8],
    }
    #[repr(C)]
    struct SockAddrIn6 {
        family: u16,
        port: u16, // network byte order
        flowinfo: u32,
        addr: [u8; 16],
        scope_id: u32,
    }

    let domain = match addr {
        std::net::SocketAddr::V4(_) => AF_INET,
        std::net::SocketAddr::V6(_) => AF_INET6,
    };
    let fd = unsafe { socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(last_os_error());
    }
    let fail = |fd: RawFd| -> io::Error {
        let err = last_os_error();
        close_fd(fd);
        err
    };
    for opt in [SO_REUSEADDR, SO_REUSEPORT] {
        let one: c_int = 1;
        let rc = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                opt,
                (&one as *const c_int).cast::<c_void>(),
                std::mem::size_of::<c_int>() as u32,
            )
        };
        if rc < 0 {
            return Err(fail(fd));
        }
    }
    let rc = match addr {
        std::net::SocketAddr::V4(v4) => {
            let raw = SockAddrIn {
                family: AF_INET as u16,
                port: v4.port().to_be(),
                addr: u32::from_be_bytes(v4.ip().octets()).to_be(),
                zero: [0; 8],
            };
            unsafe {
                bind(
                    fd,
                    (&raw as *const SockAddrIn).cast::<c_void>(),
                    std::mem::size_of::<SockAddrIn>() as u32,
                )
            }
        }
        std::net::SocketAddr::V6(v6) => {
            let raw = SockAddrIn6 {
                family: AF_INET6 as u16,
                port: v6.port().to_be(),
                flowinfo: 0,
                addr: v6.ip().octets(),
                scope_id: v6.scope_id(),
            };
            unsafe {
                bind(
                    fd,
                    (&raw as *const SockAddrIn6).cast::<c_void>(),
                    std::mem::size_of::<SockAddrIn6>() as u32,
                )
            }
        }
    };
    if rc < 0 {
        return Err(fail(fd));
    }
    if unsafe { listen(fd, BACKLOG) } < 0 {
        return Err(fail(fd));
    }
    if let Err(e) = set_nonblocking(fd) {
        close_fd(fd);
        return Err(e);
    }
    Ok(unsafe { std::net::TcpListener::from_raw_fd(fd) })
}

// ---------------------------------------------------------------------
// Self-pipe waker
// ---------------------------------------------------------------------

extern "C" {
    fn pipe(fds: *mut c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
const O_NONBLOCK: c_int = 0o4000;

fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    let flags = unsafe { fcntl(fd, F_GETFL) };
    if flags < 0 {
        return Err(last_os_error());
    }
    if unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
        return Err(last_os_error());
    }
    Ok(())
}

/// The write end of the self-pipe. Cloned into an `Arc` and handed to
/// every thread that needs to interrupt the reactor's `wait` — the
/// server handle on shutdown, a panicking sibling reactor. A one-byte
/// write is async-signal-safe, atomic, and cheap; a full pipe
/// (`EAGAIN`) means a wakeup is already pending, which is exactly as
/// good as another one.
pub struct Waker {
    fd: RawFd,
}

// A raw fd used only for single-byte writes is freely shareable.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

impl Waker {
    /// Make the reactor's next (or current) `wait` return.
    pub fn wake(&self) {
        let byte = 1u8;
        loop {
            let n = unsafe { write(self.fd, (&byte as *const u8).cast::<c_void>(), 1) };
            if n == 1 {
                return;
            }
            let err = last_os_error();
            match err.kind() {
                // A signal landed between the call and the write:
                // nothing was delivered, so the wakeup would be lost —
                // retry.
                io::ErrorKind::Interrupted => continue,
                // EAGAIN: the pipe is full, which means a wakeup is
                // already pending — exactly as good as another one.
                io::ErrorKind::WouldBlock => return,
                // EPIPE: the reactor closed its read end (shutdown
                // teardown); there is nobody left to wake.
                io::ErrorKind::BrokenPipe => return,
                _ => {
                    debug_assert!(false, "wake pipe write failed: {err}");
                    return;
                }
            }
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        close_fd(self.fd);
    }
}

/// The read end of the self-pipe, owned by the reactor and registered
/// in its [`Poller`] under a reserved token.
pub struct WakePipe {
    fd: RawFd,
}

impl WakePipe {
    /// A fresh non-blocking pipe; returns the reactor-side read end and
    /// the shareable write end.
    pub fn new() -> io::Result<(WakePipe, Waker)> {
        let mut fds = [0 as c_int; 2];
        if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
            return Err(last_os_error());
        }
        let (read_fd, write_fd) = (fds[0], fds[1]);
        // Both ends non-blocking: the reactor's drain must not hang on
        // an empty pipe, and a waker must not hang on a full one.
        for fd in [read_fd, write_fd] {
            if let Err(e) = set_nonblocking(fd) {
                close_fd(read_fd);
                close_fd(write_fd);
                return Err(e);
            }
        }
        Ok((WakePipe { fd: read_fd }, Waker { fd: write_fd }))
    }

    /// The fd to register for readability.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Swallow every pending wakeup byte (level-triggered pollers would
    /// otherwise spin on the readable pipe).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { read(self.fd, buf.as_mut_ptr().cast::<c_void>(), buf.len()) };
            if n > 0 {
                continue;
            }
            if n == 0 {
                // Every write end is closed; nothing can arrive again.
                return;
            }
            let err = last_os_error();
            match err.kind() {
                // A signal interrupted the read mid-drain: bytes may
                // remain, and leaving them makes the next `wait` spin —
                // retry.
                io::ErrorKind::Interrupted => continue,
                // EAGAIN: the pipe is empty — drained.
                io::ErrorKind::WouldBlock => return,
                _ => {
                    debug_assert!(false, "wake pipe drain failed: {err}");
                    return;
                }
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        close_fd(self.fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn wake_pipe_interrupts_an_indefinite_wait() {
        let mut poller = Poller::new().unwrap();
        let (pipe, waker) = WakePipe::new().unwrap();
        poller.add(pipe.fd(), 7, Interest::READ).unwrap();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
            waker.wake(); // coalesces, must not break anything
            waker // keep the write end open (closing it reads as HUP)
        });
        let mut events = Vec::new();
        poller.wait(&mut events, None).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        // Both wakes have landed once the thread is done; a drain then
        // leaves the pipe empty and an immediate re-wait times out.
        let _waker = handle.join().unwrap();
        pipe.drain();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn socket_readability_is_reported_under_its_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 42, Interest::READ).unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "no data yet");

        client.write_all(b"x").unwrap();
        client.flush().unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.readable));

        poller.remove(server.as_raw_fd()).unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "removed fd no longer reports");
    }

    #[test]
    fn reuseport_listeners_share_a_port_and_both_accept() {
        use std::io::Read as _;
        let first = bind_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = first.local_addr().unwrap();
        let second = bind_reuseport(addr).unwrap();
        assert_eq!(second.local_addr().unwrap(), addr);

        // Enough connections that the kernel's 4-tuple hash is
        // overwhelmingly likely to spread them over both listeners;
        // the invariant under test is only that every connection is
        // accepted by exactly one of them.
        let mut clients = Vec::new();
        for i in 0..32 {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(&[i as u8]).unwrap();
            clients.push(c);
        }
        let mut accepted = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while accepted < 32 && std::time::Instant::now() < deadline {
            for listener in [&first, &second] {
                while let Ok((mut conn, _)) = listener.accept() {
                    let mut byte = [0u8; 1];
                    conn.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
                    conn.read_exact(&mut byte).unwrap();
                    accepted += 1;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(accepted, 32, "every connection lands on some listener");
    }

    #[test]
    fn write_interest_fires_when_the_buffer_has_room() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (_server, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller
            .add(client.as_raw_fd(), 9, Interest::READ_WRITE)
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.writable));
    }
}
