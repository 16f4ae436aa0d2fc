//! A minimal readiness-notification wrapper — the std-only substrate
//! of the event-driven connection core.
//!
//! The build environment has no crates.io access (no `mio`, no
//! `libc`), but Rust's std links the platform C library, so the
//! handful of symbols this module needs (`epoll_*`, `setsockopt`,
//! `setrlimit`) can be declared `extern "C"` and resolved at link
//! time — the same technique the `iloc-server` binary already uses for
//! `signal(2)`. This is the **only** module in the crate allowed to use
//! `unsafe`; everything it exports is a safe API over raw fds that the
//! event loop owns for the lifetime of the registration.
//!
//! Linux is the supported platform, and readiness is `epoll`
//! (level-triggered): one `epoll_wait` returns only the *ready*
//! connections, so a loop owning 10 000 mostly-idle subscribers pays
//! O(ready), not O(registered), per wake. The constants below are the
//! Linux ABI's.
//!
//! The poller never allocates in [`Poller::wait`] once its internal
//! event buffer has grown to the high-water mark, keeping the serving
//! hot path on the crate's zero-allocation budget.

#![allow(unsafe_code)]

use std::io;
use std::net::TcpStream;
use std::os::raw::{c_int, c_void};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// What a registration wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Read + write interest — a connection with buffered output.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (includes peer hang-up — a read will observe EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hang-up condition; the connection should be read to
    /// EOF / closed.
    pub hangup: bool,
}

// ---------------------------------------------------------------------------
// libc declarations
// ---------------------------------------------------------------------------

extern "C" {
    fn close(fd: c_int) -> c_int;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_void, len: u32) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
}

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: c_int = 7;
const SOL_SOCKET: c_int = 1;
const SO_SNDBUF: c_int = 7;
const SO_RCVBUF: c_int = 8;

/// Raises this process's open-file soft limit toward `want` (capped at
/// the hard limit); returns the resulting soft limit. A C10K run needs
/// one fd per connection on each side of the socket, which outgrows
/// the common 1024-fd default — callers clamp their connection counts
/// to what this returns.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: plain C struct out-parameter, checked return.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let target = want.min(lim.max);
    if target > lim.cur {
        let next = Rlimit {
            cur: target,
            max: lim.max,
        };
        // SAFETY: plain C struct in-parameter, checked return.
        if unsafe { setrlimit(RLIMIT_NOFILE, &next) } == 0 {
            lim.cur = target;
        }
    }
    Ok(lim.cur)
}

/// Shrinks a stream's kernel send buffer (`SO_SNDBUF`) — the
/// slow-reader integration tests use a tiny buffer to force
/// backpressure onto the server's per-connection write queue within a
/// handful of frames.
pub fn set_send_buffer(stream: &TcpStream, bytes: usize) -> io::Result<()> {
    let v: c_int = bytes.min(c_int::MAX as usize) as c_int;
    // SAFETY: value points at a live c_int of the advertised length;
    // the fd is borrowed from a live TcpStream.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_SNDBUF,
            (&v as *const c_int).cast(),
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Shrinks a stream's kernel receive buffer (`SO_RCVBUF`) — the
/// slow-reader tests pin a *client* socket small so a stalled reader
/// exhausts the kernel's slack quickly and the backpressure reaches
/// the server's per-connection push queue.
pub fn set_recv_buffer(stream: &TcpStream, bytes: usize) -> io::Result<()> {
    let v: c_int = bytes.min(c_int::MAX as usize) as c_int;
    // SAFETY: value points at a live c_int of the advertised length;
    // the fd is borrowed from a live TcpStream.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&v as *const c_int).cast(),
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Readiness: epoll
// ---------------------------------------------------------------------------

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// The kernel's `struct epoll_event`; packed on x86-64 (the kernel
/// ABI has no padding there).
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, max: c_int, timeout_ms: c_int) -> c_int;
}

fn mask(interest: Interest) -> u32 {
    let mut m = EPOLLRDHUP;
    if interest.readable {
        m |= EPOLLIN;
    }
    if interest.writable {
        m |= EPOLLOUT;
    }
    m
}

/// Readiness poller over one epoll instance.
#[derive(Debug)]
pub struct Poller {
    epfd: c_int,
    /// Reused kernel-event buffer; grows to the high-water mark of
    /// simultaneously ready fds, then never again.
    buf: Vec<u64>,
    cap: usize,
}

// 16 bytes per event slot is enough on every layout (the packed
// x86-64 event is 12 bytes); the buffer is a u64 vec so it is
// always sufficiently aligned for the unpacked layout too.
const SLOT_WORDS: usize = 2;

impl Poller {
    /// Creates the epoll instance.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall, checked return.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            epfd,
            buf: Vec::new(),
            cap: 256,
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: mask(interest),
            data: token,
        };
        // SAFETY: `ev` is a live, correctly-laid-out epoll_event;
        // the caller guarantees `fd` is open for the registration
        // lifetime (the event loop owns both).
        if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Starts watching `fd` under `token`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes an existing registration's interest set.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stops watching `fd` (must still be open).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `ctl`; DEL ignores the event argument but
        // pre-2.6.9 kernels demanded a non-null pointer.
        if unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Waits for readiness, appending into `out` (cleared first).
    /// `None` blocks until an event; a spurious `EINTR` wake
    /// returns an empty set, like a timeout.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        self.buf.resize(self.cap * SLOT_WORDS, 0);
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(t) => t.as_millis().min(i32::MAX as u128) as c_int,
        };
        // SAFETY: `buf` provides `cap` correctly-aligned event
        // slots; the kernel writes at most `cap` of them.
        let n = unsafe {
            epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr().cast::<EpollEvent>(),
                self.cap as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            return if e.kind() == io::ErrorKind::Interrupted {
                Ok(())
            } else {
                Err(e)
            };
        }
        let n = n as usize;
        for k in 0..n {
            // SAFETY: slot `k < n <= cap` was just written by the
            // kernel; read_unaligned tolerates the packed layout.
            let ev: EpollEvent =
                unsafe { std::ptr::read_unaligned(self.buf.as_ptr().cast::<EpollEvent>().add(k)) };
            out.push(Event {
                token: ev.data,
                readable: ev.events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: ev.events & EPOLLOUT != 0,
                hangup: ev.events & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        if n == self.cap {
            // Full buffer: more may be pending; serve bigger
            // batches next time.
            self.cap *= 2;
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: closing the fd we created; errors are moot.
        unsafe {
            close(self.epfd);
        }
    }
}

// ---------------------------------------------------------------------------
// Waker: a pure-std self-pipe
// ---------------------------------------------------------------------------

/// Wakes a [`Poller`] blocked in `wait` from another thread.
///
/// Built on a `UnixStream` pair (pure std — no extra syscall surface):
/// the receiving end lives in the event loop, registered like any
/// connection; [`Waker::wake`] writes one byte from anywhere. Multiple
/// wakes before a drain coalesce into a full pipe, which is fine —
/// wakes carry no payload, only "look at your queues".
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
}

/// The event-loop end of a [`Waker`]; drain it on every wake event.
#[derive(Debug)]
pub struct WakeReceiver {
    rx: UnixStream,
}

/// Creates a connected waker pair.
pub fn waker() -> io::Result<(Waker, WakeReceiver)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, WakeReceiver { rx }))
}

impl Waker {
    /// Signals the loop. Never blocks: a full pipe already guarantees
    /// a pending wake.
    pub fn wake(&self) {
        use std::io::Write as _;
        let _ = (&self.tx).write(&[1u8]);
    }
}

impl WakeReceiver {
    /// The fd to register with the loop's poller.
    pub fn raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consumes every pending wake byte.
    pub fn drain(&self) {
        use std::io::Read as _;
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn readable_when_peer_writes_and_eof_reads_ready() {
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "nothing written yet");

        a.write_all(b"hello").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        let mut buf = [0u8; 16];
        let n = (&b).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello");

        drop(a);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].readable, "hang-up must surface as readable");
        assert_eq!((&b).read(&mut buf).unwrap(), 0, "clean EOF");
        poller.deregister(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn writable_interest_follows_modify() {
        let (_a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 1, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "read-only interest on a quiet socket");

        poller
            .modify(b.as_raw_fd(), 1, Interest::READ_WRITE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));
    }

    #[test]
    fn waker_wakes_and_drains() {
        let (waker, wake_rx) = waker().unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .register(wake_rx.raw_fd(), u64::MAX, Interest::READ)
            .unwrap();
        let mut events = Vec::new();

        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
            waker.wake();
            waker
        });
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == u64::MAX && e.readable));
        wake_rx.drain();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "drained waker is quiet");
        let _ = t.join().unwrap();
    }

    #[test]
    fn nofile_limit_is_readable_and_monotonic() {
        let now = raise_nofile_limit(0).expect("getrlimit");
        assert!(now > 0);
        let raised = raise_nofile_limit(now).expect("setrlimit");
        assert!(raised >= now);
    }

    #[test]
    fn send_buffer_can_be_shrunk() {
        let (a, b) = pair();
        set_send_buffer(&a, 4096).expect("SO_SNDBUF");
        set_recv_buffer(&b, 4096).expect("SO_RCVBUF");
    }
}
