//! The connection core: the one socket state machine under both
//! `iloc-server` and `iloc-router`.
//!
//! ```text
//!  accept() ──▶ listener thread ── connection cap, round-robin hand-off
//!                      │ mpsc<TcpStream> + waker
//!        ┌─────────────┼─────────────┐
//!        ▼             ▼             ▼
//!   event loop 0  event loop 1 … event loop N-1      one Handler each
//!   (epoll readiness over MANY non-blocking connections: frame
//!    reassembly, validation, buffered output, push accounting)
//! ```
//!
//! Everything the paper did not specify about serving — sockets,
//! framing, backpressure, push delivery — lives here once. A front end
//! is a [`Handler`]: it says what a frame does, what state a
//! connection carries, where pushes come from, what a close cleans up,
//! what a caught panic quarantines, and what its HELLO_ACK reports.
//! The core is generic over it (monomorphised — no `dyn` on the frame
//! path) and owns the rest:
//!
//! * **Connections multiplex onto a small loop pool.** Each loop owns
//!   a slab of non-blocking connections and blocks in one readiness
//!   wait ([`crate::poll`]). A mostly-idle subscriber costs one slab
//!   slot and one kernel registration, not a thread.
//! * **Frames are reassembled per connection** from whatever bytes the
//!   socket has (split length prefixes, dripped payloads, many
//!   pipelined frames in one read). The handler sees each whole frame,
//!   length prefix included, borrowed from the read buffer, and appends
//!   its response to the connection's output buffer.
//! * **A frame that cannot be delimited poisons its connection**: a
//!   length below 2 or above [`protocol::MAX_FRAME_LEN`], or a foreign
//!   version byte, is answered with an error frame, reading stops, and
//!   the connection closes once the error has drained. HELLO is
//!   answered here too — a foreign version earns a typed `BadVersion`
//!   naming both versions, never a silent close.
//! * **All writes are buffered and flushed on writability.** There is
//!   no blocking write on the serving path and no swallowed write
//!   error: a failed flush closes the connection.
//! * **Push backpressure is all-or-nothing.** NOTIFY frames queue in
//!   the output buffer through [`PushQueue::queue_push`]. A push that
//!   would take the un-flushed backlog past [`Config::push_backlog`]
//!   is rolled back and the connection closed; that push, every later
//!   one of the same pass, and every queued push that never fully
//!   reached the socket are counted in `dropped_pushes`. A live
//!   connection never silently loses a push — loss implies close,
//!   which the subscriber observes as EOF and answers by reconnecting
//!   and resubscribing.
//! * **Slow readers are flow-controlled**: while a connection's
//!   un-flushed output exceeds the backlog budget the loop stops
//!   *reading* from it, so a client that pipelines requests without
//!   draining responses cannot balloon memory.
//! * **Large answers leave as they are produced, and a connection gets
//!   one turn per readiness event.** Once 32 KiB of output is pending
//!   it is written out before the next buffered frame is handled, not
//!   when the read pass ends. A pass that has written answers out
//!   serves the frames it already holds and goes back to the readiness
//!   wait: what the socket holds by then may be the peer's reply to
//!   those answers, and reading on would let one fast, pipelining peer
//!   keep the loop from every other connection (measured: a commit on
//!   the writer connection waited 300 ms instead of 4).
//! * **Ordering.** Responses leave in request order. A handler may
//!   hold responses back from [`Handler::frame`] (the router batches a
//!   pass's queries this way); the core calls [`Handler::release`] at
//!   the end of every read pass and before it appends any output of its
//!   own — a HELLO_ACK, a refusal, a caught panic's error frame, a
//!   [`Handler::pump`] — and the handler then appends everything it
//!   held, in request order. Pushes enter a connection one way, through
//!   [`Handler::pump`], and the pushes a handler owes are queued
//!   before the next frame it handles: [`Handler::needs_pump`] is
//!   asked before every frame, and on the sweep a [`Remote::wake_all`]
//!   starts. So a front end whose `needs_pump` turns true before it
//!   acknowledges a commit puts the NOTIFY ahead of anything the
//!   subscriber asks afterwards — on the committing connection, or on
//!   any other once the client has seen the acknowledgement.
//! * **Idle connections are reaped on a monotonic deadline**: with
//!   [`Config::idle_timeout`] set, a connection whose last *complete*
//!   frame is older than the timeout is closed. Only whole frames
//!   re-arm the deadline, so dripping single bytes cannot pin a slot.
//! * **A panic while serving one frame** — which validation should
//!   make unreachable — is caught, answered with an `Internal` error
//!   frame, quarantined by [`Handler::quarantine`], and closes that
//!   connection; the loop's other connections are unaffected.
//! * **Failures that are not a peer's fault are retried, not fatal.**
//!   A failed `accept` (say `EMFILE`) backs off ~10 ms — `Interrupted`
//!   retries at once — and a failed readiness wait backs off 5 ms;
//!   only shutdown ends the listener or a loop, so no error strands
//!   the connections a thread owns.

use std::collections::VecDeque;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use crate::poll::{self, Event, Interest, Poller, WakeReceiver, Waker};
use crate::protocol::{self, opcode, ErrorCode, HelloAck, PROTOCOL_VERSION};

/// Tunables for one listening front end.
#[derive(Debug, Clone)]
pub struct Config {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral loopback
    /// port; read the real one from the handle's `addr()`).
    pub addr: String,
    /// Event-loop threads. Each owns many connections, so this scales
    /// with cores, not with clients — a few loops serve thousands of
    /// connections.
    pub event_loops: usize,
    /// Concurrent-connection cap across all loops; connections
    /// accepted beyond it are closed immediately. (Also raise the
    /// process's open-file limit: [`poll::raise_nofile_limit`].)
    pub max_connections: usize,
    /// Cadence of the loop sweep: pending pushes reach idle
    /// subscribers and idle deadlines are checked at least this often.
    /// Also bounds shutdown latency.
    pub idle_poll: Duration,
    /// Close a connection that completes no frame for this long (any
    /// complete frame re-arms it; PING is the cheapest keepalive).
    /// `None` disables reaping — fine for tests and in-process load
    /// generation; the standalone server binary defaults it on so
    /// abandoned subscriber sockets cannot pin connection slots
    /// forever.
    pub idle_timeout: Option<Duration>,
    /// Per-connection buffered-output budget in bytes. While a
    /// connection's un-flushed output exceeds it, reading from that
    /// connection pauses (request flow control); a NOTIFY push that
    /// would exceed it closes the connection and counts the
    /// undelivered pushes (push backpressure — see the module docs).
    pub push_backlog: usize,
    /// Kernel send-buffer size (`SO_SNDBUF`) for accepted connections;
    /// `None` keeps the system default. Tests shrink it to force
    /// partial writes and backpressure within a few frames.
    pub send_buffer: Option<usize>,
}

impl Config {
    /// Loopback on an ephemeral port with two event loops — what tests
    /// and in-process load generation want.
    pub fn loopback() -> Self {
        Config {
            addr: "127.0.0.1:0".to_string(),
            event_loops: 2,
            max_connections: 16_384,
            idle_poll: Duration::from_millis(50),
            idle_timeout: None,
            push_backlog: 1 << 20,
            send_buffer: None,
        }
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::loopback()
    }
}

/// Names one connection for as long as it lives: its loop, its slab
/// slot, and the slot's generation. A slot is reused after a close
/// but its generation moves on, so an id kept past its connection's
/// death resolves to nothing instead of to a stranger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId {
    event_loop: u32,
    slot: u32,
    generation: u32,
}

/// What a front end plugs into the core: one value per event loop,
/// owned by that loop's thread.
pub trait Handler: Send + 'static {
    /// Per-connection state, created with the connection and handed
    /// back to [`Handler::closed`].
    type Conn: Default;

    /// The contents of this front end's HELLO_ACK.
    fn hello_ack(&self) -> HelloAck;

    /// Serves one validated frame: `frame` is the whole frame — length
    /// prefix, version, opcode, payload — and the response (exactly
    /// one frame; an error frame on failure) is appended to `out`, now
    /// or at the next [`Handler::release`].
    fn frame(&mut self, frame: &[u8], id: ConnId, conn: &mut Self::Conn, out: &mut Vec<u8>);

    /// Appends every response held back from [`Handler::frame`] to
    /// `out`, in request order. The core calls this at the end of every
    /// read pass and before it appends output of its own, so nothing is
    /// held from one pass — or one connection — to the next.
    fn release(&mut self, _out: &mut Vec<u8>) {}

    /// The loop is starting a sweep — on its cadence, and at once when
    /// another thread wakes it. For what a handler holds on behalf of
    /// no connection in particular.
    fn sweeping(&mut self) {}

    /// Whether [`Handler::pump`] has pushes to queue for `conn` —
    /// checked before every frame and on every sweep, so it must be
    /// cheap.
    fn needs_pump(&self, _conn: &Self::Conn) -> bool {
        false
    }

    /// Queues the pushes `conn` is owed. A panic in here closes the
    /// connection (its state dies with it); [`Handler::quarantine`] is
    /// not called.
    fn pump(&mut self, _conn: &mut Self::Conn, _pushes: &mut PushQueue<'_>) {}

    /// The connection `id` is gone; release what it held elsewhere.
    fn closed(&mut self, _id: ConnId, _conn: Self::Conn) {}

    /// [`Handler::frame`] panicked and may have left this handler's
    /// state mid-flight: make it safe to serve the next connection.
    fn quarantine(&mut self);
}

/// The queue end of one connection's output buffer, as a push source
/// sees it.
pub struct PushQueue<'a> {
    out: &'a mut Vec<u8>,
    out_at: usize,
    push_ends: &'a mut VecDeque<usize>,
    budget: usize,
    refused: u64,
}

impl PushQueue<'_> {
    /// Queues the one NOTIFY frame `encode` appends. If it would take
    /// the un-flushed backlog past the budget it is rolled back and
    /// refused, as is every later push of this pass; the core then
    /// closes the connection and counts the refusals as dropped.
    pub fn queue_push(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        if self.refused > 0 {
            self.refused += 1;
            return;
        }
        let before = self.out.len();
        encode(self.out);
        if self.out.len() - self.out_at > self.budget {
            self.out.truncate(before);
            self.refused = 1;
        } else {
            self.push_ends.push_back(self.out.len());
        }
    }
}

/// The core's process-wide counters, as a STATS report wants them.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    /// Frames handled since start (all opcodes).
    pub requests_served: u64,
    /// Concurrent-connection capacity ([`Config::max_connections`]).
    pub capacity: u32,
    /// Event-loop threads.
    pub event_loops: u32,
    /// Live connections right now.
    pub connections: u64,
    /// NOTIFY frames that were due to a subscriber but never reached
    /// it; every count pairs with a connection close.
    pub dropped_pushes: u64,
}

struct Shared {
    config: Config,
    shutdown: AtomicBool,
    requests_served: AtomicU64,
    /// Live-connection gauge: incremented at accept, decremented at
    /// close. `Relaxed` everywhere — it guards no other memory, and
    /// the connection cap needs only the atomicity of `fetch_add`.
    connections: AtomicU64,
    dropped_pushes: AtomicU64,
    /// One waker per event loop.
    loops: Vec<Waker>,
}

/// A handle on the running core for threads other than its loops.
#[derive(Clone)]
pub struct Remote(Arc<Shared>);

impl Remote {
    /// Wakes every loop so it sweeps now: whoever publishes state that
    /// owes subscribers a push calls this, and push latency is bounded
    /// by scheduling instead of by [`Config::idle_poll`].
    pub fn wake_all(&self) {
        for waker in &self.0.loops {
            waker.wake();
        }
    }

    /// Whether [`Core::stop`] has begun.
    pub fn stopping(&self) -> bool {
        self.0.shutdown.load(Ordering::SeqCst)
    }

    /// The core's counters right now.
    pub fn counters(&self) -> Counters {
        let shared = &*self.0;
        Counters {
            requests_served: shared.requests_served.load(Ordering::Relaxed),
            capacity: shared.config.max_connections.min(u32::MAX as usize) as u32,
            event_loops: shared.loops.len() as u32,
            connections: shared.connections.load(Ordering::Relaxed),
            dropped_pushes: shared.dropped_pushes.load(Ordering::Relaxed),
        }
    }
}

/// A running core: its bound address and its threads.
pub struct Core {
    addr: SocketAddr,
    remote: Remote,
    threads: Vec<thread::JoinHandle<()>>,
}

/// Binds `config.addr` and spawns the listener plus
/// `config.event_loops` loop threads, each serving through the handler
/// `make(loop index, remote)` builds for it.
pub fn start<H: Handler>(
    config: &Config,
    mut make: impl FnMut(usize, &Remote) -> io::Result<H>,
) -> io::Result<Core> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let mut loops = Vec::with_capacity(config.event_loops);
    let mut wake_rxs = Vec::with_capacity(config.event_loops);
    for _ in 0..config.event_loops {
        let (waker, wake_rx) = poll::waker()?;
        loops.push(waker);
        wake_rxs.push(wake_rx);
    }
    let shared = Arc::new(Shared {
        config: config.clone(),
        shutdown: AtomicBool::new(false),
        requests_served: AtomicU64::new(0),
        connections: AtomicU64::new(0),
        dropped_pushes: AtomicU64::new(0),
        loops,
    });
    let remote = Remote(Arc::clone(&shared));

    // Everything fallible that is not a spawn happens before the first
    // spawn; a failed spawn drops `core`, which stops the threads
    // already running.
    let mut parts = Vec::with_capacity(config.event_loops);
    for (k, wake_rx) in wake_rxs.into_iter().enumerate() {
        let mut poller = Poller::new()?;
        poller.register(wake_rx.raw_fd(), WAKE_TOKEN, Interest::READ)?;
        parts.push((make(k, &remote)?, poller, wake_rx));
    }
    let mut core = Core {
        addr,
        remote,
        threads: Vec::with_capacity(config.event_loops + 1),
    };
    let mut conn_txs = Vec::with_capacity(config.event_loops);
    for (k, (handler, poller, wake_rx)) in parts.into_iter().enumerate() {
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        conn_txs.push(conn_tx);
        let shared = Arc::clone(&shared);
        // The loop is assembled on its own thread, so per-connection
        // state never has to be `Send`.
        let run = move || {
            let event_loop = EventLoop {
                index: k as u32,
                shared,
                handler,
                poller,
                slots: Vec::new(),
                free: Vec::new(),
            };
            event_loop.run(conn_rx, wake_rx)
        };
        core.threads.push(
            thread::Builder::new()
                .name(format!("iloc-loop-{k}"))
                .spawn(run)?,
        );
    }
    core.threads.push(
        thread::Builder::new()
            .name("iloc-listener".to_string())
            .spawn(move || listener_loop(listener, shared, conn_txs))?,
    );
    Ok(core)
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core").field("addr", &self.addr).finish()
    }
}

impl Core {
    /// The address actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for other threads.
    pub fn remote(&self) -> &Remote {
        &self.remote
    }

    /// Flags shutdown, wakes the listener and every loop, joins them.
    /// Connections close; buffered output that has not reached the
    /// socket is discarded (queued pushes among it are counted as
    /// dropped). Dropping the core does the same.
    pub fn stop(&mut self) {
        self.remote.0.shutdown.store(true, Ordering::SeqCst);
        self.remote.wake_all();
        // Wake the listener's blocking accept.
        let _ = TcpStream::connect(self.addr);
        self.join();
    }

    /// Blocks until every core thread has exited.
    pub fn join(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Core {
    fn drop(&mut self) {
        self.stop();
    }
}

fn listener_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    conn_txs: Vec<mpsc::Sender<TcpStream>>,
) {
    let mut next = 0usize;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // The cap is enforced here, before the stream reaches
                // a loop: an over-capacity peer sees EOF before any
                // frame.
                let live = shared.connections.fetch_add(1, Ordering::Relaxed);
                if live >= shared.config.max_connections as u64 {
                    shared.connections.fetch_sub(1, Ordering::Relaxed);
                    continue;
                }
                let _ = stream.set_nodelay(true);
                if let Some(bytes) = shared.config.send_buffer {
                    let _ = poll::set_send_buffer(&stream, bytes);
                }
                // Round-robin across the pool; wake the loop so the
                // connection registers now, not at the next sweep.
                let k = next % conn_txs.len();
                next = next.wrapping_add(1);
                if stream.set_nonblocking(true).is_ok() && conn_txs[k].send(stream).is_ok() {
                    shared.loops[k].wake();
                } else {
                    shared.connections.fetch_sub(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // EMFILE/ENFILE and friends persist until something
                // closes: back off instead of spinning on the core the
                // loops share.
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// One multiplexed connection's state machine.
struct Conn<S> {
    stream: TcpStream,
    /// Inbound bytes: `in_buf[parsed..in_len]` is un-consumed;
    /// compacted to the front before each read so a partial frame's
    /// tail always has room to arrive.
    in_buf: Vec<u8>,
    in_len: usize,
    parsed: usize,
    /// Outbound bytes: `out[out_at..]` awaits the socket. The buffer
    /// only resets when fully flushed, so the offsets in `push_ends`
    /// stay valid while anything is pending.
    out: Vec<u8>,
    out_at: usize,
    /// End offsets (into `out`) of queued push frames — what a close
    /// must count as dropped if not yet flushed past.
    push_ends: VecDeque<usize>,
    /// When the last *complete* frame arrived — the idle deadline's
    /// base. Partial bytes do not re-arm it.
    last_frame: Instant,
    /// Registered readiness interest (kept to skip no-op `modify`s).
    interest: Interest,
    /// Reading has stopped; close once `out` drains (EOF from the
    /// peer, or a final error frame is queued).
    close_after_flush: bool,
    state: S,
}

impl<S> Conn<S> {
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_at
    }

    /// Writes buffered output until it is gone or the socket would
    /// block; `true` when it is gone. A drained buffer is reset, and
    /// gives back what one burst grew it past `keep` bytes — it would
    /// otherwise hold that for the life of the connection.
    fn write_pending(&mut self, keep: usize) -> Result<bool, Gone> {
        while self.out_at < self.out.len() {
            match self.stream.write(&self.out[self.out_at..]) {
                Ok(0) => return Err(Gone),
                Ok(n) => self.out_at += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(Gone),
            }
        }
        self.out.clear();
        self.out.shrink_to(keep);
        self.out_at = 0;
        self.push_ends.clear();
        Ok(true)
    }
}

struct Slot<S> {
    generation: u32,
    conn: Option<Conn<S>>,
}

/// The one reason a connection closes *now*: it is of no further use
/// (EOF with nothing to drain, socket error, refused push, idle reap).
/// Soft closes — protocol errors, caught panics — drain a final error
/// frame first and go through `close_after_flush` instead.
struct Gone;

/// Token the loop's waker registers under; connection tokens are slab
/// indices, which stay far below this.
const WAKE_TOKEN: u64 = u64::MAX;

/// Granularity of inbound reads before a frame's length is known. One
/// read pass holds at most this many bytes, or one whole frame.
pub const READ_CHUNK: usize = 4 * 1024;

/// Pending output at which a response is written out as soon as its
/// frame is handled, instead of when the read batch ends: a read of
/// pipelined requests with large answers would otherwise park every
/// answer in user space before the kernel sees a byte.
const FLUSH_AT: usize = 32 * 1024;

struct EventLoop<H: Handler> {
    index: u32,
    shared: Arc<Shared>,
    handler: H,
    poller: Poller,
    slots: Vec<Slot<H::Conn>>,
    free: Vec<usize>,
}

/// Runs one push source against `conn`'s queue, then settles the
/// account: refused pushes are counted as dropped, and a refusal — or
/// a panic in the source — means the connection must close.
fn queue_pushes<S>(
    conn: &mut Conn<S>,
    shared: &Shared,
    source: impl FnOnce(&mut S, &mut PushQueue<'_>),
) -> Result<(), Gone> {
    let mut pushes = PushQueue {
        out: &mut conn.out,
        out_at: conn.out_at,
        push_ends: &mut conn.push_ends,
        budget: shared.config.push_backlog,
        refused: 0,
    };
    let state = &mut conn.state;
    let caught = catch_unwind(AssertUnwindSafe(|| source(state, &mut pushes)));
    let refused = pushes.refused;
    if refused > 0 {
        shared.dropped_pushes.fetch_add(refused, Ordering::Relaxed);
    }
    if caught.is_err() || refused > 0 {
        return Err(Gone);
    }
    Ok(())
}

/// Appends what the handler held back ([`Handler::release`]); `false`
/// when that panicked, which is answered like a panicking frame.
fn release<H: Handler>(handler: &mut H, conn: &mut Conn<H::Conn>) -> bool {
    let out = &mut conn.out;
    if catch_unwind(AssertUnwindSafe(|| handler.release(out))).is_ok() {
        return true;
    }
    protocol::encode_error(
        &mut conn.out,
        ErrorCode::Internal,
        "request handler panicked",
    );
    conn.close_after_flush = true;
    handler.quarantine();
    false
}

/// Answers a frame the stream cannot go on after, behind whatever the
/// handler held back: the error drains, then the connection closes.
fn refuse<H: Handler>(handler: &mut H, conn: &mut Conn<H::Conn>, code: ErrorCode, message: &str) {
    if release(handler, conn) {
        protocol::encode_error(&mut conn.out, code, message);
        conn.close_after_flush = true;
    }
}

/// The frame loop of [`EventLoop::serve_parsed`]: every complete frame
/// buffered on `conn`, until one closes the stream.
fn serve_frames<H: Handler>(
    shared: &Shared,
    handler: &mut H,
    conn: &mut Conn<H::Conn>,
    id: ConnId,
    now: Instant,
) -> Result<bool, Gone> {
    let mut flushed = false;
    while !conn.close_after_flush {
        // A short write here is left to `flush_and_settle`.
        if conn.pending_out() >= FLUSH_AT {
            conn.write_pending(shared.config.push_backlog)?;
            flushed = true;
        }
        let avail = conn.in_len - conn.parsed;
        if avail < 4 {
            break;
        }
        let start = conn.parsed;
        let len = u32::from_le_bytes(conn.in_buf[start..start + 4].try_into().expect("4 bytes"));
        if !(2..=protocol::MAX_FRAME_LEN).contains(&len) {
            refuse(
                handler,
                conn,
                ErrorCode::TooLarge,
                "frame length out of bounds",
            );
            break;
        }
        let end = start + 4 + len as usize;
        if conn.in_len < end {
            break; // tail still en route
        }
        conn.parsed = end;
        conn.last_frame = now;
        shared.requests_served.fetch_add(1, Ordering::Relaxed);

        let (version, op) = (conn.in_buf[start + 4], conn.in_buf[start + 5]);
        if op == opcode::HELLO {
            // Answered whatever the header version says, so a
            // mismatched peer gets a typed error naming both
            // versions instead of a silent close.
            let payload = &conn.in_buf[start + 6..end];
            let peer = protocol::hello_peer_version(payload).unwrap_or(version);
            if version != PROTOCOL_VERSION || peer != PROTOCOL_VERSION {
                let message = format!(
                    "unsupported protocol version {peer}; this peer speaks v{PROTOCOL_VERSION}"
                );
                refuse(handler, conn, ErrorCode::BadVersion, &message);
                break;
            }
            if !release(handler, conn) {
                break;
            }
            match protocol::decode_hello(&conn.in_buf[start + 6..end]) {
                Ok(_) => protocol::encode_hello_ack(&mut conn.out, &handler.hello_ack()),
                Err(e) => protocol::wire_error(&mut conn.out, e),
            }
            continue;
        }
        if version != PROTOCOL_VERSION {
            refuse(
                handler,
                conn,
                ErrorCode::BadVersion,
                "protocol version mismatch",
            );
            break;
        }

        if handler.needs_pump(&conn.state) {
            if !release(handler, conn) {
                break;
            }
            queue_pushes(conn, shared, |state, pushes| handler.pump(state, pushes))?;
        }
        let frame = &conn.in_buf[start..end];
        let (state, out) = (&mut conn.state, &mut conn.out);
        if catch_unwind(AssertUnwindSafe(|| handler.frame(frame, id, state, out))).is_err() {
            refuse(
                handler,
                conn,
                ErrorCode::Internal,
                "request handler panicked",
            );
            handler.quarantine();
        }
    }
    Ok(flushed)
}

impl<H: Handler> EventLoop<H> {
    fn run(mut self, conn_rx: mpsc::Receiver<TcpStream>, wake_rx: WakeReceiver) {
        let idle_poll = self.shared.config.idle_poll;
        let mut events: Vec<Event> = Vec::new();
        let mut next_sweep = Instant::now();
        loop {
            let waited = self.poller.wait(&mut events, Some(idle_poll));
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if waited.is_err() {
                thread::sleep(Duration::from_millis(5));
                continue;
            }
            let now = Instant::now();
            let mut woken = false;
            for ev in events.iter().copied() {
                if ev.token == WAKE_TOKEN {
                    wake_rx.drain();
                    woken = true;
                } else {
                    self.conn_ready(ev.token as usize, ev, now);
                }
            }
            // Sweep on cadence, and at once on a wake.
            if woken || now >= next_sweep {
                self.sweep(now);
                next_sweep = now + idle_poll;
            }
            // Adopt after event processing, so a slot freed above is
            // not reused while its stale events are still in the batch.
            for stream in conn_rx.try_iter() {
                self.adopt(stream, now);
            }
        }
        for idx in 0..self.slots.len() {
            self.close(idx);
        }
    }

    fn adopt(&mut self, stream: TcpStream, now: Instant) {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot {
                generation: 0,
                conn: None,
            });
            self.slots.len() - 1
        });
        match self
            .poller
            .register(stream.as_raw_fd(), idx as u64, Interest::READ)
        {
            Ok(()) => {
                self.slots[idx].conn = Some(Conn {
                    stream,
                    in_buf: Vec::new(),
                    in_len: 0,
                    parsed: 0,
                    out: Vec::new(),
                    out_at: 0,
                    push_ends: VecDeque::new(),
                    last_frame: now,
                    interest: Interest::READ,
                    close_after_flush: false,
                    state: H::Conn::default(),
                })
            }
            Err(_) => {
                self.free.push(idx);
                self.shared.connections.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    fn id_of(&self, idx: usize) -> ConnId {
        ConnId {
            event_loop: self.index,
            slot: idx as u32,
            generation: self.slots[idx].generation,
        }
    }

    /// Closes and frees slot `idx` (idempotent): deregisters the fd,
    /// counts undelivered pushes, retires the id, drops the stream.
    fn close(&mut self, idx: usize) {
        let id = self.id_of(idx);
        let slot = &mut self.slots[idx];
        let Some(conn) = slot.conn.take() else {
            return;
        };
        slot.generation = slot.generation.wrapping_add(1);
        let undelivered = conn
            .push_ends
            .iter()
            .filter(|&&end| end > conn.out_at)
            .count() as u64;
        if undelivered > 0 {
            self.shared
                .dropped_pushes
                .fetch_add(undelivered, Ordering::Relaxed);
        }
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.shared.connections.fetch_sub(1, Ordering::Relaxed);
        self.free.push(idx);
        self.handler.closed(id, conn.state);
    }

    fn conn_ready(&mut self, idx: usize, ev: Event, now: Instant) {
        if self.slots.get(idx).is_none_or(|s| s.conn.is_none()) {
            return; // freed earlier in this same event batch
        }
        let mut outcome = if ev.hangup && !ev.readable {
            Err(Gone)
        } else {
            Ok(())
        };
        if outcome.is_ok() && ev.readable {
            outcome = self.read_and_serve(idx, now);
        }
        self.flush_and_settle(idx, outcome);
    }

    /// Reads whatever the socket has, serving every complete frame.
    fn read_and_serve(&mut self, idx: usize, now: Instant) -> Result<(), Gone> {
        let backlog = self.shared.config.push_backlog;
        loop {
            let conn = self.slots[idx].conn.as_mut().expect("live conn");
            // Draining a final frame; or the peer owes us a flush
            // larger than the budget (request flow control).
            if conn.close_after_flush || conn.pending_out() > backlog {
                return Ok(());
            }
            if conn.parsed > 0 {
                conn.in_buf.copy_within(conn.parsed..conn.in_len, 0);
                conn.in_len -= conn.parsed;
                conn.parsed = 0;
            }
            // What is left after a parse pass is an incomplete frame,
            // so `in_len` is below the size picked here: one chunk, or
            // the whole frame once its length is known. A wild length
            // is refused by the parse pass; it must not size a buffer.
            // The read stops there even if an earlier frame grew the
            // buffer, so a pass never holds more (see `READ_CHUNK`).
            let needed = if conn.in_len >= 4 {
                let len = u32::from_le_bytes(conn.in_buf[0..4].try_into().expect("4 bytes"));
                (len.min(protocol::MAX_FRAME_LEN) as usize + 4).max(READ_CHUNK)
            } else {
                READ_CHUNK
            };
            if conn.in_buf.len() < needed {
                conn.in_buf.resize(needed, 0);
            }
            match conn.stream.read(&mut conn.in_buf[conn.in_len..needed]) {
                Ok(0) => {
                    // EOF. Complete frames were already served, so at
                    // most a partial frame is discarded; a half-closing
                    // peer still gets its queued responses.
                    conn.close_after_flush = true;
                    return Ok(());
                }
                Ok(n) => {
                    conn.in_len += n;
                    // Once answers of this pass have gone out, what the
                    // socket holds next may be the peer's reply to them:
                    // that is the next readiness event's, in turn with
                    // every other connection's. Reading on would let a
                    // peer that answers fast enough keep the loop to
                    // itself.
                    if self.serve_parsed(idx, now)? {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(Gone),
            }
        }
    }

    /// Serves every complete frame currently buffered on `idx`, then
    /// releases what the handler held back; `true` when some of the
    /// output was written out on the way.
    fn serve_parsed(&mut self, idx: usize, now: Instant) -> Result<bool, Gone> {
        let id = self.id_of(idx);
        let EventLoop {
            shared,
            handler,
            slots,
            ..
        } = self;
        let conn = slots[idx].conn.as_mut().expect("live conn");
        let served = serve_frames(shared, handler, conn, id, now);
        release(handler, conn);
        served
    }

    /// Writes as much buffered output as the socket takes, then
    /// finishes a drain-close or converges the poller's interest set
    /// with what the connection now needs. `outcome` is what the work
    /// before it decided; a connection that is gone is closed.
    fn flush_and_settle(&mut self, idx: usize, outcome: Result<(), Gone>) {
        let backlog = self.shared.config.push_backlog;
        let settled = outcome.and_then(|()| {
            let conn = self.slots[idx].conn.as_mut().expect("live conn");
            if conn.write_pending(backlog)? {
                if conn.close_after_flush {
                    return Err(Gone);
                }
            } else {
                // Forget fully flushed pushes, so a later close counts
                // only frames that never made it out whole.
                while conn
                    .push_ends
                    .front()
                    .is_some_and(|&end| end <= conn.out_at)
                {
                    conn.push_ends.pop_front();
                }
            }
            let pending = conn.pending_out();
            let desired = Interest {
                readable: !conn.close_after_flush && pending <= backlog,
                writable: pending > 0,
            };
            if desired != conn.interest {
                self.poller
                    .modify(conn.stream.as_raw_fd(), idx as u64, desired)
                    .map_err(|_| Gone)?;
                conn.interest = desired;
            }
            Ok(())
        });
        if settled.is_err() {
            self.close(idx);
        }
    }

    /// The periodic pass over every connection: queue the pushes the
    /// handler owes, enforce the idle deadline.
    fn sweep(&mut self, now: Instant) {
        self.handler.sweeping();
        for idx in 0..self.slots.len() {
            let Some(conn) = self.slots[idx].conn.as_mut() else {
                continue;
            };
            if !conn.close_after_flush && self.handler.needs_pump(&conn.state) {
                let handler = &mut self.handler;
                let pumped = queue_pushes(conn, &self.shared, |state, pushes| {
                    handler.pump(state, pushes)
                });
                self.flush_and_settle(idx, pumped);
            }
            if let Some(timeout) = self.shared.config.idle_timeout {
                // An abandoned socket must not pin a slot forever.
                // Closing is the signal.
                if self.slots[idx]
                    .conn
                    .as_ref()
                    .is_some_and(|conn| now.duration_since(conn.last_frame) >= timeout)
                {
                    self.close(idx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    /// Opcode the echo handler panics on.
    const BOOM: u8 = 0x7E;

    /// Echoes every frame verbatim and reports the connection it came
    /// from — the core with nothing behind it — and pumps the pushes
    /// the test owes to whichever connection it serves next.
    struct Echo {
        seen: mpsc::Sender<ConnId>,
        quarantined: Arc<AtomicUsize>,
        owed: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl Handler for Echo {
        type Conn = ();

        fn hello_ack(&self) -> HelloAck {
            HelloAck::default()
        }

        fn frame(&mut self, frame: &[u8], id: ConnId, _: &mut (), out: &mut Vec<u8>) {
            assert!(frame[5] != BOOM, "boom");
            let _ = self.seen.send(id);
            out.extend_from_slice(frame);
        }

        fn needs_pump(&self, _: &()) -> bool {
            !self.owed.lock().unwrap().is_empty()
        }

        fn pump(&mut self, _: &mut (), pushes: &mut PushQueue<'_>) {
            for push in self.owed.lock().unwrap().drain(..) {
                pushes.queue_push(|out| out.extend_from_slice(&push));
            }
        }

        fn quarantine(&mut self) {
            self.quarantined.fetch_add(1, Ordering::SeqCst);
        }
    }

    struct Rig {
        core: Core,
        seen: mpsc::Receiver<ConnId>,
        quarantined: Arc<AtomicUsize>,
        owed: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl Rig {
        /// Owes `push` to the next connection served, without waking
        /// the loop.
        fn owe(&self, push: Vec<u8>) {
            self.owed.lock().unwrap().push(push);
        }
    }

    fn rig(config: Config) -> Rig {
        let (seen_tx, seen) = mpsc::channel();
        let quarantined = Arc::new(AtomicUsize::new(0));
        let owed = Arc::new(Mutex::new(Vec::new()));
        let core = start(&config, |_, _| {
            Ok(Echo {
                seen: seen_tx.clone(),
                quarantined: Arc::clone(&quarantined),
                owed: Arc::clone(&owed),
            })
        })
        .expect("bind loopback");
        Rig {
            core,
            seen,
            quarantined,
            owed,
        }
    }

    fn one_loop() -> Config {
        Config {
            event_loops: 1,
            idle_poll: Duration::from_millis(10),
            ..Config::loopback()
        }
    }

    fn frame(op: u8, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        let at = protocol::begin_frame(&mut buf, op);
        buf.extend_from_slice(payload);
        protocol::finish_frame(&mut buf, at);
        buf
    }

    fn connect(rig: &Rig) -> TcpStream {
        let stream = TcpStream::connect(rig.core.addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        stream
    }

    fn read_frame(stream: &mut TcpStream) -> Vec<u8> {
        let mut frame = vec![0u8; 4];
        stream.read_exact(&mut frame).expect("frame length");
        let len = u32::from_le_bytes(frame[..].try_into().unwrap()) as usize;
        frame.resize(4 + len, 0);
        stream.read_exact(&mut frame[4..]).expect("frame body");
        frame
    }

    /// Polls `probe` until it holds (the core's threads need a moment;
    /// nothing here waits on a fixed sleep to be *right*, only to be
    /// *done*).
    fn eventually(what: &str, mut probe: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !probe() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn frames_reassemble_from_any_split() {
        let rig = rig(one_loop());
        let mut stream = connect(&rig);

        // A length prefix split across writes.
        let a = frame(0x01, b"split prefix");
        stream.write_all(&a[..2]).unwrap();
        thread::sleep(Duration::from_millis(20));
        stream.write_all(&a[2..]).unwrap();
        assert_eq!(read_frame(&mut stream), a);

        // A frame dripped one byte at a time.
        let b = frame(0x02, b"drip");
        for byte in &b {
            stream.write_all(std::slice::from_ref(byte)).unwrap();
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(read_frame(&mut stream), b);

        // Five pipelined frames in one write, one of them larger than
        // a read chunk, answered in order.
        let frames: Vec<Vec<u8>> = (0..5u8)
            .map(|k| frame(k + 1, &vec![k; if k == 2 { 3 * READ_CHUNK } else { 7 }]))
            .collect();
        stream.write_all(&frames.concat()).unwrap();
        for want in &frames {
            assert_eq!(&read_frame(&mut stream), want);
        }
        assert_eq!(rig.core.remote().counters().requests_served, 7);

        // Half-close after a request: the response still arrives, then EOF.
        let c = frame(0x03, b"last words");
        stream.write_all(&c).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        assert_eq!(read_frame(&mut stream), c);
        assert_eq!(stream.read(&mut [0u8; 1]).unwrap(), 0);
        eventually("the half-closed connection to be freed", || {
            rig.core.remote().counters().connections == 0
        });
    }

    #[test]
    fn undelimitable_frames_are_refused_then_closed() {
        let rig = rig(one_loop());
        let refusals: [(&[u8], ErrorCode); 4] = [
            (&0u32.to_le_bytes(), ErrorCode::TooLarge),
            (&1u32.to_le_bytes(), ErrorCode::TooLarge),
            (
                &(protocol::MAX_FRAME_LEN + 1).to_le_bytes(),
                ErrorCode::TooLarge,
            ),
            (&[2, 0, 0, 0, 99, opcode::PING], ErrorCode::BadVersion),
        ];
        for (bytes, code) in refusals {
            let mut stream = connect(&rig);
            stream.write_all(bytes).unwrap();
            let reply = read_frame(&mut stream);
            assert_eq!((reply[5], reply[6]), (opcode::ERROR, code as u8));
            assert_eq!(stream.read(&mut [0u8; 1]).unwrap_or(0), 0, "then EOF");
        }
        // A HELLO from another version is told both versions.
        let mut stream = connect(&rig);
        stream
            .write_all(&[6, 0, 0, 0, 9, opcode::HELLO, 9, 0, 0, 0])
            .unwrap();
        let reply = read_frame(&mut stream);
        assert_eq!(
            (reply[5], reply[6]),
            (opcode::ERROR, ErrorCode::BadVersion as u8)
        );
        let (_, message) = protocol::decode_error(&reply[6..]).unwrap();
        assert!(message.contains("version 9") && message.contains("v6"));
    }

    #[test]
    fn a_peer_that_does_not_drain_is_not_read_from() {
        // 16 KB echoes against a 4 KB output budget: once the peer stops
        // draining and the kernel's buffers are full, the loop must
        // stop reading its requests. 10 MB is more than the socket
        // buffers between the two ends can hold.
        let rig = rig(Config {
            push_backlog: 4_096,
            ..one_loop()
        });
        let mut stream = connect(&rig);
        const FRAMES: u64 = 640;
        let request = frame(0x01, &[0xAB; 16 * 1024]);
        let writer = {
            let mut stream = stream.try_clone().unwrap();
            let request = request.clone();
            thread::spawn(move || {
                for _ in 0..FRAMES {
                    stream.write_all(&request).unwrap();
                }
            })
        };
        // Give a core without flow control every chance to slurp it
        // all: it would have served everything long before this.
        thread::sleep(Duration::from_millis(300));
        let served = rig.core.remote().counters().requests_served;
        assert!(
            served < FRAMES,
            "read {served} of {FRAMES} requests from a peer that drained nothing"
        );
        // Draining resumes the flow; nothing was lost or reordered.
        for _ in 0..FRAMES {
            assert_eq!(read_frame(&mut stream), request);
        }
        writer.join().unwrap();
    }

    #[test]
    fn an_answer_is_flushed_when_written_not_when_the_batch_ends() {
        // Two pipelined echoes above `FLUSH_AT`, both in the kernel
        // before the first is handled, so one read batch serves both.
        // The second frame's handler waits for the peer to have seen
        // the first bytes of the first answer: they can only arrive if
        // that answer was written when it was produced. Nothing here
        // depends on how fast either side runs — a core that flushes at
        // the end of the batch times the wait out at any pace.
        struct Paced {
            /// The peer has written both requests.
            written: mpsc::Receiver<()>,
            /// The peer has read the head of an answer.
            answered: mpsc::Receiver<()>,
            frames: usize,
            flushed_early: mpsc::Sender<bool>,
        }
        impl Handler for Paced {
            type Conn = ();

            fn hello_ack(&self) -> HelloAck {
                HelloAck::default()
            }

            fn frame(&mut self, frame: &[u8], _: ConnId, _: &mut (), out: &mut Vec<u8>) {
                let wait = Duration::from_secs(5);
                match self.frames {
                    0 => self.written.recv_timeout(wait).expect("both requests sent"),
                    _ => {
                        let _ = self
                            .flushed_early
                            .send(self.answered.recv_timeout(wait).is_ok());
                    }
                }
                self.frames += 1;
                out.extend_from_slice(frame);
            }

            fn quarantine(&mut self) {}
        }

        let (written_tx, written) = mpsc::channel();
        let (answered_tx, answered) = mpsc::channel();
        let (flushed_early_tx, flushed_early) = mpsc::channel();
        let mut handler = Some(Paced {
            written,
            answered,
            frames: 0,
            flushed_early: flushed_early_tx,
        });
        let core = start(&one_loop(), |_, _| Ok(handler.take().expect("one loop")))
            .expect("bind loopback");
        let mut stream = TcpStream::connect(core.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");

        let request = frame(0x01, &[0xCD; FLUSH_AT + 1024]);
        stream.write_all(&request.repeat(2)).unwrap();
        written_tx.send(()).unwrap();
        let mut head = [0u8; 4];
        stream.read_exact(&mut head).expect("frame length");
        answered_tx.send(()).unwrap();
        assert!(
            flushed_early.recv().unwrap(),
            "the first answer was still unwritten when the second frame was handled"
        );
        let mut rest = vec![0u8; 2 * request.len() - head.len()];
        stream.read_exact(&mut rest).expect("both answers");
        assert_eq!([&head[..], &rest[..]].concat(), request.repeat(2));
    }

    #[test]
    fn a_peer_that_keeps_its_pipeline_full_does_not_keep_the_loop() {
        // A greedy peer streams echoes above `FLUSH_AT` and drains the
        // answers as they come, so its socket never runs dry; a second
        // connection then sends one small frame. The handler counts the
        // greedy frames it serves from the moment that frame is in the
        // kernel until it is handled: one pass and one turn at most. A
        // loop that reads on after writing answers out serves the rest
        // of the greedy stream first.
        const GREEDY: u8 = 0x01;
        const FRAMES: usize = 400;
        struct Turns {
            waiting: Arc<AtomicBool>,
            greedy_while_waiting: usize,
            report: mpsc::Sender<usize>,
        }
        impl Handler for Turns {
            type Conn = ();

            fn hello_ack(&self) -> HelloAck {
                HelloAck::default()
            }

            fn frame(&mut self, frame: &[u8], _: ConnId, _: &mut (), out: &mut Vec<u8>) {
                if frame[5] != GREEDY {
                    let _ = self.report.send(self.greedy_while_waiting);
                } else if self.waiting.load(Ordering::SeqCst) {
                    self.greedy_while_waiting += 1;
                }
                out.extend_from_slice(frame);
            }

            fn quarantine(&mut self) {}
        }

        let waiting = Arc::new(AtomicBool::new(false));
        let (report_tx, report) = mpsc::channel();
        let mut handler = Some(Turns {
            waiting: Arc::clone(&waiting),
            greedy_while_waiting: 0,
            report: report_tx,
        });
        let core = start(&one_loop(), |_, _| Ok(handler.take().expect("one loop")))
            .expect("bind loopback");
        let mut patient = TcpStream::connect(core.addr()).expect("connect");
        let greedy = TcpStream::connect(core.addr()).expect("connect");
        let request = frame(GREEDY, &[0xEE; FLUSH_AT + 1024]);
        let writer = {
            let (mut stream, request) = (greedy.try_clone().unwrap(), request.clone());
            thread::spawn(move || {
                for _ in 0..FRAMES {
                    stream.write_all(&request).unwrap();
                }
            })
        };
        let (streaming_tx, streaming) = mpsc::channel();
        let reader = {
            let (mut stream, len) = (greedy, request.len());
            thread::spawn(move || {
                let mut answer = vec![0u8; len];
                for k in 0..FRAMES {
                    stream.read_exact(&mut answer).expect("greedy answer");
                    if k == 20 {
                        streaming_tx.send(()).unwrap();
                    }
                }
            })
        };

        streaming.recv().expect("the greedy stream is flowing");
        let small = frame(0x02, b"my turn");
        patient.write_all(&small).unwrap();
        waiting.store(true, Ordering::SeqCst);
        let served_first = report.recv().expect("the small frame is handled");
        assert!(
            served_first <= 8,
            "{served_first} frames of one connection served while another waited"
        );
        let mut answer = vec![0u8; small.len()];
        patient.read_exact(&mut answer).expect("small answer");
        assert_eq!(answer, small);
        writer.join().unwrap();
        reader.join().unwrap();
    }

    #[test]
    fn only_whole_frames_keep_a_connection_alive() {
        let rig = rig(Config {
            idle_timeout: Some(Duration::from_millis(200)),
            ..one_loop()
        });
        let mut pinger = connect(&rig);
        let mut dripper = connect(&rig);
        let ping = frame(opcode::PING, b"");
        let started = Instant::now();
        let mut reaped = false;
        while started.elapsed() < Duration::from_millis(800) {
            pinger.write_all(&ping).unwrap();
            assert_eq!(read_frame(&mut pinger), ping);
            // Bytes of a frame that never completes re-arm nothing.
            reaped = reaped || dripper.write_all(&[0]).is_err();
            thread::sleep(Duration::from_millis(40));
        }
        dripper
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        assert!(
            reaped || matches!(dripper.read(&mut [0u8; 1]), Ok(0) | Err(_)),
            "the dripping connection outlived its idle deadline"
        );
        assert_eq!(rig.core.remote().counters().connections, 1);
    }

    #[test]
    fn owed_pushes_precede_the_next_response_and_an_id_names_one_connection() {
        // No sweep after the first: the push can only be queued by the
        // check before a frame.
        let rig = rig(Config {
            idle_poll: Duration::from_secs(3600),
            ..one_loop()
        });
        let remote = rig.core.remote().clone();
        let mut stream = connect(&rig);
        let hello = frame(0x01, b"who am i");
        stream.write_all(&hello).unwrap();
        assert_eq!(read_frame(&mut stream), hello);
        let id = rig.seen.recv().unwrap();

        // Owed before the request is written, so queued before the
        // request is handled.
        let push = frame(opcode::NOTIFY, b"pushed");
        rig.owe(push.clone());
        stream.write_all(&hello).unwrap();
        assert_eq!(read_frame(&mut stream), push);
        assert_eq!(read_frame(&mut stream), hello);
        assert_eq!(
            rig.seen.recv().unwrap(),
            id,
            "one id for a connection's life"
        );
        assert_eq!(remote.counters().dropped_pushes, 0);

        // The id dies with its connection, even once the slot is reused.
        drop(stream);
        eventually("the connection to close", || {
            remote.counters().connections == 0
        });
        let mut next = connect(&rig);
        next.write_all(&hello).unwrap();
        assert_eq!(read_frame(&mut next), hello);
        let reused = rig.seen.recv().unwrap();
        assert_eq!((reused.event_loop, reused.slot), (id.event_loop, id.slot));
        assert_ne!(reused, id);
    }

    #[test]
    fn a_push_past_the_budget_closes_and_counts() {
        let rig = rig(Config {
            push_backlog: 64,
            ..one_loop()
        });
        let remote = rig.core.remote().clone();
        let mut stream = connect(&rig);
        let hello = frame(0x01, b"");
        stream.write_all(&hello).unwrap();
        assert_eq!(read_frame(&mut stream), hello);
        rig.owe(frame(opcode::NOTIFY, &[0; 100]));
        remote.wake_all();
        eventually("the refused push to be counted", || {
            remote.counters().dropped_pushes == 1
        });
        assert_eq!(stream.read(&mut [0u8; 1]).unwrap_or(0), 0, "closed");
    }

    #[test]
    fn held_back_responses_keep_request_order_around_the_cores_own_output() {
        // Every response is held until `release`. Opcode BIG answers
        // with more than `FLUSH_AT` bytes, so the HELLO after it leaves
        // enough output for the next frame to flush early; PUSH owes the
        // connection a NOTIFY, queued before the frame after it.
        const BIG: u8 = 0x21;
        const PUSH: u8 = 0x22;
        struct Deferring {
            held: Vec<u8>,
            owe_push: bool,
            quarantined: Arc<AtomicUsize>,
        }
        impl Handler for Deferring {
            type Conn = ();

            fn hello_ack(&self) -> HelloAck {
                HelloAck::default()
            }

            fn frame(&mut self, frame: &[u8], _: ConnId, _: &mut (), _: &mut Vec<u8>) {
                assert!(frame[5] != BOOM, "boom");
                if frame[5] == BIG {
                    let at = protocol::begin_frame(&mut self.held, BIG);
                    self.held.resize(at + FLUSH_AT + 1024, 0xB1);
                    protocol::finish_frame(&mut self.held, at);
                } else {
                    self.owe_push |= frame[5] == PUSH;
                    self.held.extend_from_slice(frame);
                }
            }

            fn release(&mut self, out: &mut Vec<u8>) {
                out.append(&mut self.held);
            }

            fn needs_pump(&self, _: &()) -> bool {
                self.owe_push
            }

            fn pump(&mut self, _: &mut (), pushes: &mut PushQueue<'_>) {
                self.owe_push = false;
                pushes.queue_push(|out| out.extend_from_slice(&frame(opcode::NOTIFY, b"owed")));
            }

            fn quarantine(&mut self) {
                self.quarantined.fetch_add(1, Ordering::SeqCst);
            }
        }

        let quarantined = Arc::new(AtomicUsize::new(0));
        let core = start(&one_loop(), |_, _| {
            Ok(Deferring {
                held: Vec::new(),
                owe_push: false,
                quarantined: Arc::clone(&quarantined),
            })
        })
        .expect("bind loopback");
        let open = || {
            let stream = TcpStream::connect(core.addr()).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            stream
        };
        let mut hello = Vec::new();
        protocol::encode_hello(&mut hello, protocol::Role::Client, 0);
        let (a, b, c) = (frame(0x01, b"a"), frame(0x01, b"b"), frame(0x01, b"c"));
        let push = frame(PUSH, b"p");

        // All of it in one write: one pass serves it.
        let mut stream = open();
        let requests = [
            &a[..],
            &frame(BIG, b""),
            &hello,
            &b,
            &push,
            &c,
            &frame(BOOM, b""),
        ];
        stream.write_all(&requests.concat()).unwrap();
        assert_eq!(read_frame(&mut stream), a);
        let big = read_frame(&mut stream);
        assert_eq!((big[5], big.len()), (BIG, FLUSH_AT + 1024));
        assert_eq!(read_frame(&mut stream)[5], opcode::HELLO_ACK);
        assert_eq!(read_frame(&mut stream), b);
        assert_eq!(read_frame(&mut stream), push);
        assert_eq!(read_frame(&mut stream), frame(opcode::NOTIFY, b"owed"));
        assert_eq!(read_frame(&mut stream), c);
        let reply = read_frame(&mut stream);
        assert_eq!(
            (reply[5], reply[6]),
            (opcode::ERROR, ErrorCode::Internal as u8)
        );
        assert_eq!(stream.read(&mut [0u8; 1]).unwrap_or(0), 0, "then EOF");
        assert_eq!(quarantined.load(Ordering::SeqCst), 1);

        // A refused frame answers after what was held ahead of it.
        let mut stream = open();
        let bad_version = [2, 0, 0, 0, 99, opcode::PING];
        stream
            .write_all(&[&a[..], &b, &bad_version].concat())
            .unwrap();
        assert_eq!(read_frame(&mut stream), a);
        assert_eq!(read_frame(&mut stream), b);
        let reply = read_frame(&mut stream);
        assert_eq!(
            (reply[5], reply[6]),
            (opcode::ERROR, ErrorCode::BadVersion as u8)
        );
        assert_eq!(stream.read(&mut [0u8; 1]).unwrap_or(0), 0, "then EOF");
    }

    #[test]
    fn a_panicking_frame_is_quarantined_to_its_connection() {
        let rig = rig(one_loop());
        let mut victim = connect(&rig);
        let mut bystander = connect(&rig);
        victim.write_all(&frame(BOOM, b"")).unwrap();
        let reply = read_frame(&mut victim);
        assert_eq!(
            (reply[5], reply[6]),
            (opcode::ERROR, ErrorCode::Internal as u8)
        );
        assert_eq!(victim.read(&mut [0u8; 1]).unwrap_or(0), 0, "then EOF");
        assert_eq!(rig.quarantined.load(Ordering::SeqCst), 1);
        let ping = frame(opcode::PING, b"");
        bystander.write_all(&ping).unwrap();
        assert_eq!(read_frame(&mut bystander), ping);
    }
}
