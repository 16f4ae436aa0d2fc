//! The event-driven TCP query server.
//!
//! ## Architecture
//!
//! ```text
//!                         ┌────────────────────────────┐
//!  accept()  ─────────────▶ listener thread            │
//!                         └──────────┬─────────────────┘
//!                                    │ mpsc<TcpStream> + waker (round-robin)
//!                  ┌─────────────────┼─────────────────┐
//!                  ▼                 ▼                 ▼
//!           event loop 0      event loop 1  …   event loop N-1
//!        (epoll/poll readiness over MANY non-blocking connections;
//!         per-loop ShardServer ×2 + request/answer slots — the
//!         zero-alloc hot path; per-connection frame reassembly,
//!         buffered push queues, subscription registries)
//!                  │ reads: pinned epoch snapshot
//!                  │ writes: WriterMsg over one mpsc channel
//!                  ▼
//!           writer thread ── submit / commit on the ShardedEngines
//!                           └─ wakes every loop after a commit, so
//!                              pushes reach idle subscribers promptly
//! ```
//!
//! * **Connections multiplex onto a small loop pool.** Each event loop
//!   owns a slab of non-blocking connections and blocks in one
//!   readiness wait ([`crate::poll`] — epoll on Linux, `poll(2)`
//!   elsewhere). A mostly-idle standing subscriber costs one slab slot
//!   and one kernel registration, not a thread: C10K subscribers fit
//!   in a handful of loops. Frames are reassembled per connection from
//!   whatever bytes the socket has (partial length prefixes, split
//!   payloads, many pipelined frames in one read — all fine).
//! * **Queries never leave their loop**: the loop decodes into its
//!   long-lived request slot, executes against its pinned epoch
//!   snapshot through a warm [`ShardServer`] (rebinding — two atomic
//!   increments, no allocation — when the engine has published a newer
//!   epoch), and encodes the answer into the connection's output
//!   buffer. After warm-up the whole request path performs **zero heap
//!   allocations**; the CI smoke job gates on this over a real socket.
//! * **All writes are buffered and flushed on writability** — there is
//!   no blocking `write_all` anywhere on the serving path, and no
//!   silently swallowed write error: a failed flush is a typed
//!   connection close, and any NOTIFY frames still queued at close are
//!   counted in the server-wide `dropped_pushes` stat.
//! * **Push backpressure is explicit.** NOTIFY frames queue in the
//!   connection's output buffer. A subscriber that stops reading while
//!   commits keep changing its answers would grow that queue without
//!   bound; instead, once the buffered backlog exceeds
//!   [`ServerConfig::push_backlog`], the connection is closed and the
//!   undelivered pushes are counted. The contract is all-or-nothing:
//!   a live connection never silently loses a push — loss implies
//!   close, which the subscriber observes as EOF and answers by
//!   reconnecting and resubscribing.
//! * **Slow readers also exert backpressure on requests**: while a
//!   connection's un-flushed output exceeds the backlog budget the
//!   loop stops *reading* from it, so a client that pipelines requests
//!   without draining responses is flow-controlled instead of ballooning
//!   server memory.
//! * **Updates and commits** route through the single writer thread,
//!   so every mutation of the sharded engines is serialized in one
//!   place and the [`iloc_core::serve`] snapshot-consistency invariant
//!   ("no torn epochs, ever") holds across the network boundary
//!   exactly as it does in process. A client's own update → commit
//!   order is preserved end to end (same loop, same channel, FIFO).
//!   The issuing loop waits for the writer's reply, which briefly
//!   pauses its other connections — commits are rare next to queries,
//!   and the writer wakes every loop afterwards so the commit's pushes
//!   go out immediately.
//! * **Subscriptions live with their connection**: each connection
//!   lazily carries a [`SubscriptionRegistry`] per catalog. Before
//!   every frame — and on every loop sweep — the loop checks whether
//!   the writer published a new epoch
//!   ([`SubscriptionRegistry::needs_pump`], one atomic load) and pumps:
//!   the commit's dirty region stabs the envelope index, only affected
//!   subscriptions re-evaluate, and their deltas are **pushed** as
//!   NOTIFY frames (between, never inside, responses). Steady-state
//!   TICKs inside the safe envelope stay on the zero-allocation
//!   budget. Subscriptions end with the connection.
//! * **Idle connections are reaped on a monotonic deadline**: with
//!   [`ServerConfig::idle_timeout`] set, a connection whose last
//!   *complete* frame is older than the timeout is closed. The
//!   deadline is an [`Instant`] comparison — immune to the
//!   accumulated-poll-interval drift the blocking server suffered —
//!   and only whole frames re-arm it, so drip-feeding single bytes
//!   cannot keep a dead subscriber's slot alive. PING is the intended
//!   keepalive.
//!
//! Malformed frames are answered with error frames (see
//! [`crate::protocol`]); a frame that cannot be delimited (wild length
//! prefix, wrong version) poisons the connection: an error frame is
//! queued, reading stops, and the connection closes once the error has
//! drained. A panic while serving one frame — which validation should
//! make unreachable — is caught, answered with an `Internal` error
//! frame, and quarantined by rebuilding that loop's scratch state and
//! closing that connection; the loop's other connections are
//! unaffected.

use std::collections::VecDeque;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd as _;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use iloc_core::durable::{CatalogRecovery, DurableCatalog, FsyncPolicy, StoreConfig, StoreError};
use iloc_core::pipeline::{PointRequest, UncertainRequest};
use iloc_core::serve::{CommitReport, ShardServer};
use iloc_core::stats::REFINE_BATCH_BUCKETS;
use iloc_core::subscribe::SubscriptionRegistry;
use iloc_core::{Issuer, PointEngine, QueryAnswer, QueryStats, RangeSpec, UncertainEngine};
use iloc_geometry::Rect;
use iloc_uncertainty::{PointObject, UncertainObject};

use crate::alloc_count;
use crate::poll::{self, Event, Interest, Poller, WakeReceiver, Waker};
use crate::protocol::{
    self, opcode, CommitTarget, CountersView, ErrorCode, NotifyCause, WireError, WireUpdate,
    PROTOCOL_VERSION,
};

/// Standing subscriptions one connection may hold per catalog;
/// exceeding it is answered with
/// [`ErrorCode::TooManySubscriptions`].
pub const MAX_SUBSCRIPTIONS: usize = 4_096;

/// The two catalogs one server instance serves. Transient by default
/// ([`QueryServer::new`]); with a data directory ([`QueryServer::open`])
/// each catalog carries a write-ahead log on its commit path and
/// recovers from the newest checkpoint plus log replay.
#[derive(Debug)]
pub struct Engines {
    /// Point-object catalog (IPQ / C-IPQ).
    pub point: DurableCatalog<PointEngine>,
    /// Uncertain-object catalog (IUQ / C-IUQ).
    pub uncertain: DurableCatalog<UncertainEngine>,
}

/// Durability settings for [`QueryServer::open`].
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Directory holding both catalogs' stores (subdirectories
    /// `point/` and `uncertain/` are created inside it).
    pub data_dir: PathBuf,
    /// When WAL appends reach the disk.
    pub fsync: FsyncPolicy,
    /// Background-checkpoint a catalog once its epoch has advanced
    /// this many commits past its last checkpoint (0 disables the
    /// background checkpointer; a final checkpoint is still written on
    /// graceful shutdown).
    pub checkpoint_every: u64,
}

impl DurabilityOptions {
    /// Durable store in `data_dir` with fsync-always and a checkpoint
    /// every 256 commits.
    pub fn new(data_dir: impl Into<PathBuf>) -> DurabilityOptions {
        DurabilityOptions {
            data_dir: data_dir.into(),
            fsync: FsyncPolicy::Always,
            checkpoint_every: 256,
        }
    }
}

/// What [`QueryServer::open`] recovered, per catalog.
#[derive(Debug, Clone)]
pub struct RecoveryInfo {
    /// Point-catalog recovery report.
    pub point: CatalogRecovery,
    /// Uncertain-catalog recovery report.
    pub uncertain: CatalogRecovery,
}

/// Tunables for one listening server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral loopback
    /// port; read the real one from [`ServerHandle::addr`]).
    pub addr: String,
    /// Event-loop threads. Each owns many connections, so this scales
    /// with cores, not with clients — a few loops serve thousands of
    /// connections.
    pub event_loops: usize,
    /// Concurrent-connection cap across all loops; connections
    /// accepted beyond it are closed immediately. (Also raise the
    /// process's open-file limit: [`poll::raise_nofile_limit`].)
    pub max_connections: usize,
    /// Frames longer than this are rejected and the connection closed.
    pub max_frame_len: u32,
    /// Cadence of the loop sweep: pending pushes reach idle
    /// subscribers and idle deadlines are checked at least this often.
    pub idle_poll: Duration,
    /// Close a connection that completes no frame for this long (any
    /// complete frame re-arms it; PING is the cheapest keepalive).
    /// `None` disables reaping — fine for tests and in-process load
    /// generation; the standalone binary defaults it on so abandoned
    /// subscriber sockets cannot pin connection slots forever.
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

impl ServerConfig {
    /// Loopback on an ephemeral port with two event loops — what tests
    /// and in-process load generation want.
    pub fn loopback() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            event_loops: 2,
            max_connections: 16_384,
            max_frame_len: protocol::MAX_FRAME_LEN,
            idle_poll: Duration::from_millis(50),
            idle_timeout: None,
            push_backlog: 1 << 20,
            send_buffer: None,
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig::loopback()
    }
}

/// What one catalog mutation request asks the writer thread to do.
enum WriterMsg {
    /// Buffer updates; reply with how many were accepted plus the
    /// drained vector, so the loop's decode buffer keeps its capacity
    /// across batches.
    Submit(Vec<WireUpdate>, mpsc::SyncSender<(u32, Vec<WireUpdate>)>),
    /// Commit one catalog; reply with the report (or the durable
    /// store's failure — the epoch did not publish).
    Commit(
        CommitTarget,
        mpsc::SyncSender<Result<CommitReport, StoreError>>,
    ),
}

/// Process-wide pipeline-stage accounting: every answered query's
/// per-stage timers and refine-batch histogram are folded in here, so
/// one STATS probe tells an operator where the fleet's query time goes
/// (and how big the SoA refine batches actually run) without touching
/// the query hot path beyond a handful of relaxed adds.
#[derive(Debug, Default)]
struct StageCounters {
    filter_nanos: AtomicU64,
    prune_nanos: AtomicU64,
    refine_nanos: AtomicU64,
    refine_batches: [AtomicU64; REFINE_BATCH_BUCKETS],
}

impl StageCounters {
    /// Folds one answered query's stage stats in.
    fn absorb(&self, stats: &QueryStats) {
        self.filter_nanos
            .fetch_add(stats.filter_nanos, Ordering::Relaxed);
        self.prune_nanos
            .fetch_add(stats.prune_nanos, Ordering::Relaxed);
        self.refine_nanos
            .fetch_add(stats.refine_nanos, Ordering::Relaxed);
        for (slot, &n) in self.refine_batches.iter().zip(&stats.refine_batches) {
            if n != 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

/// State shared by every serving thread.
struct Shared {
    engines: Arc<Engines>,
    requests_served: AtomicU64,
    stage: StageCounters,
    shutdown: Arc<AtomicBool>,
    max_frame_len: u32,
    /// Connection capacity ([`ServerConfig::max_connections`]).
    capacity: u32,
    event_loops: u32,
    /// Live-connection gauge (incremented at accept, decremented at
    /// close) — both the capacity check and the STATS report read it.
    connections: AtomicU64,
    /// NOTIFY frames that were due to a subscriber but never reached
    /// it: dropped at a backpressure close, or queued behind a write
    /// that failed. A live connection never silently loses a push —
    /// every lost push pairs with a connection close — so this counter
    /// plus EOF observation gives subscribers exact loss accounting.
    dropped_pushes: AtomicU64,
    idle_poll: Duration,
    idle_timeout: Option<Duration>,
    push_backlog: usize,
    send_buffer: Option<usize>,
    /// Engine epochs this process started at (per catalog) — carried
    /// in every SUB_ACK so reconnecting subscribers detect restarts.
    recovered_epochs: (u64, u64),
}

/// A query server over one pair of sharded catalogs.
///
/// Construction partitions the catalogs; [`QueryServer::start`] binds
/// a listener and spawns the serving threads. The engines stay
/// accessible through [`QueryServer::engines`] — the loopback tests
/// compare wire answers against in-process snapshot execution on the
/// very same engines.
#[derive(Debug)]
pub struct QueryServer {
    engines: Arc<Engines>,
    /// Background-checkpoint cadence in commits (0 = no checkpointer).
    checkpoint_every: u64,
    /// Engine epochs at construction — what SUB_ACK reports so a
    /// reconnecting subscriber can detect a restart.
    recovered_epochs: (u64, u64),
}

impl QueryServer {
    /// Builds the two sharded catalogs (`shards` each) and wraps them
    /// in a transient (in-memory only) server.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn new(
        points: Vec<PointObject>,
        uncertain: Vec<UncertainObject>,
        shards: usize,
    ) -> QueryServer {
        QueryServer {
            engines: Arc::new(Engines {
                point: DurableCatalog::transient(points, shards),
                uncertain: DurableCatalog::transient(uncertain, shards),
            }),
            checkpoint_every: 0,
            recovered_epochs: (0, 0),
        }
    }

    /// Opens (or creates) a durable server in `durability.data_dir`.
    /// A fresh directory is seeded with `points` / `uncertain`; an
    /// existing one **recovers** — the seeds are ignored and each
    /// catalog is rebuilt from its newest valid checkpoint plus WAL
    /// replay, answering bit-identically to the pre-crash process.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn open(
        points: Vec<PointObject>,
        uncertain: Vec<UncertainObject>,
        shards: usize,
        durability: &DurabilityOptions,
    ) -> Result<(QueryServer, RecoveryInfo), StoreError> {
        let point_cfg = StoreConfig {
            dir: durability.data_dir.join("point"),
            fsync: durability.fsync,
        };
        let uncertain_cfg = StoreConfig {
            dir: durability.data_dir.join("uncertain"),
            fsync: durability.fsync,
        };
        let (point, point_rec) = DurableCatalog::open(&point_cfg, shards, move || points)?;
        let (uncertain_cat, uncertain_rec) =
            DurableCatalog::open(&uncertain_cfg, shards, move || uncertain)?;
        let recovered_epochs = (point_rec.epoch, uncertain_rec.epoch);
        Ok((
            QueryServer {
                engines: Arc::new(Engines {
                    point,
                    uncertain: uncertain_cat,
                }),
                checkpoint_every: durability.checkpoint_every,
                recovered_epochs,
            },
            RecoveryInfo {
                point: point_rec,
                uncertain: uncertain_rec,
            },
        ))
    }

    /// The served engines (shared; snapshots taken from here see
    /// exactly the epochs the server serves).
    pub fn engines(&self) -> Arc<Engines> {
        Arc::clone(&self.engines)
    }

    /// Binds `config.addr` and spawns the listener, event-loop pool
    /// and writer threads. The returned handle owns the threads;
    /// dropping it (or calling [`ServerHandle::shutdown`]) stops them.
    pub fn start(&self, config: &ServerConfig) -> io::Result<ServerHandle> {
        assert!(config.event_loops > 0, "need at least one event loop");
        assert!(config.max_connections > 0, "need at least one connection");
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            engines: Arc::clone(&self.engines),
            requests_served: AtomicU64::new(0),
            stage: StageCounters::default(),
            shutdown: Arc::clone(&shutdown),
            max_frame_len: config.max_frame_len,
            capacity: config.max_connections.min(u32::MAX as usize) as u32,
            event_loops: config.event_loops as u32,
            connections: AtomicU64::new(0),
            dropped_pushes: AtomicU64::new(0),
            idle_poll: config.idle_poll,
            idle_timeout: config.idle_timeout,
            push_backlog: config.push_backlog,
            send_buffer: config.send_buffer,
            recovered_epochs: self.recovered_epochs,
        });

        let (writer_tx, writer_rx) = mpsc::channel::<WriterMsg>();
        let mut threads = Vec::with_capacity(config.event_loops + 2);
        let mut wakers = Vec::with_capacity(config.event_loops);
        let mut conn_txs = Vec::with_capacity(config.event_loops);

        for k in 0..config.event_loops {
            let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
            let (waker, wake_rx) = poll::waker()?;
            conn_txs.push(conn_tx);
            wakers.push(waker);
            let shared = Arc::clone(&shared);
            let writer_tx = writer_tx.clone();
            threads.push(
                thread::Builder::new()
                    .name(format!("iloc-loop-{k}"))
                    .spawn(move || event_loop(shared, conn_rx, wake_rx, writer_tx))?,
            );
        }
        let wakers = Arc::new(wakers);
        // The writer exits when the last sender drops: the loops hold
        // the only remaining clones.
        {
            let engines = Arc::clone(&self.engines);
            let wakers = Arc::clone(&wakers);
            threads.push(
                thread::Builder::new()
                    .name("iloc-writer".to_string())
                    .spawn(move || writer_loop(engines, writer_rx, wakers))?,
            );
        }
        drop(writer_tx);

        {
            let shared = Arc::clone(&shared);
            let wakers = Arc::clone(&wakers);
            threads.push(
                thread::Builder::new()
                    .name("iloc-listener".to_string())
                    .spawn(move || listener_loop(listener, shared, conn_txs, wakers))?,
            );
        }

        if self.checkpoint_every > 0 && self.engines.point.is_durable() {
            let engines = Arc::clone(&self.engines);
            let stop = Arc::clone(&shutdown);
            let every = self.checkpoint_every;
            let poll = config.idle_poll;
            threads.push(
                thread::Builder::new()
                    .name("iloc-checkpoint".to_string())
                    .spawn(move || checkpoint_loop(engines, stop, every, poll))?,
            );
        }

        Ok(ServerHandle {
            addr,
            shutdown,
            threads,
            engines: Arc::clone(&self.engines),
            wakers,
        })
    }
}

/// A running server: its bound address and its threads.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Vec<thread::JoinHandle<()>>,
    engines: Arc<Engines>,
    wakers: Arc<Vec<Waker>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server: flags shutdown, wakes the listener and every
    /// event loop, joins every thread. Connections close; buffered
    /// output that has not reached the socket is discarded. Dropping
    /// the handle does the same.
    pub fn shutdown(self) {
        drop(self);
    }

    /// Blocks until the server stops (which, absent a shutdown from
    /// another handle-less path, is never) — what the standalone
    /// binary's main thread does.
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for waker in self.wakers.iter() {
            waker.wake();
        }
        // Wake the listener's blocking accept.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Every serving thread is joined: no more commits can happen.
        // Make the final state durable — fsync any unsynced log tail
        // and write a clean checkpoint, so the next start replays
        // nothing.
        for flushed in [self.engines.point.flush(), self.engines.uncertain.flush()] {
            if let Err(e) = flushed {
                eprintln!("iloc-server: final WAL flush failed: {e}");
            }
        }
        for written in [
            self.engines.point.checkpoint().map(|_| ()),
            self.engines.uncertain.checkpoint().map(|_| ()),
        ] {
            if let Err(e) = written {
                eprintln!("iloc-server: final checkpoint failed: {e}");
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn listener_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    conn_txs: Vec<mpsc::Sender<TcpStream>>,
    wakers: Arc<Vec<Waker>>,
) {
    let mut next = 0usize;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Enforce the connection cap here, before the stream
                // reaches a loop: over-capacity connections close
                // immediately (the client sees EOF before any frame).
                let prev = shared.connections.fetch_add(1, Ordering::Relaxed);
                if prev >= shared.capacity as u64 {
                    shared.connections.fetch_sub(1, Ordering::Relaxed);
                    drop(stream);
                    continue;
                }
                let _ = stream.set_nodelay(true);
                if let Some(bytes) = shared.send_buffer {
                    let _ = poll::set_send_buffer(&stream, bytes);
                }
                if stream.set_nonblocking(true).is_err() {
                    shared.connections.fetch_sub(1, Ordering::Relaxed);
                    continue;
                }
                // Round-robin across the loop pool; wake the loop so a
                // connection landing on an idle loop registers now,
                // not at the next sweep tick.
                let k = next % conn_txs.len();
                next = next.wrapping_add(1);
                if conn_txs[k].send(stream).is_err() {
                    shared.connections.fetch_sub(1, Ordering::Relaxed);
                    break;
                }
                wakers[k].wake();
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept failure (EMFILE, aborted handshake):
                // keep listening.
            }
        }
    }
}

fn writer_loop(engines: Arc<Engines>, rx: mpsc::Receiver<WriterMsg>, wakers: Arc<Vec<Waker>>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            WriterMsg::Submit(mut updates, reply) => {
                let n = updates.len() as u32;
                for update in updates.drain(..) {
                    match update {
                        WireUpdate::Point(u) => engines.point.submit(u),
                        WireUpdate::Uncertain(u) => engines.uncertain.submit(u),
                    }
                }
                // Hand the drained vector back with the ack so the
                // loop's decode buffer keeps its capacity.
                let _ = reply.send((n, updates));
            }
            WriterMsg::Commit(target, reply) => {
                // On a durable catalog the commit appends and fsyncs
                // the WAL record *before* the epoch publishes; an
                // append failure leaves the epoch unpublished and is
                // surfaced to the client as an error frame.
                let report = match target {
                    CommitTarget::Point => engines.point.commit(),
                    CommitTarget::Uncertain => engines.uncertain.commit(),
                };
                let _ = reply.send(report);
                // A published epoch may owe pushes to subscribers on
                // any loop; wake them all so NOTIFY latency is bounded
                // by scheduling, not by the sweep interval.
                for waker in wakers.iter() {
                    waker.wake();
                }
            }
        }
    }
}

/// Background checkpointer: whenever a catalog's epoch has advanced
/// `every` commits past its last checkpoint, snapshot it to disk and
/// rotate its log — entirely off the commit path (commits proceed
/// concurrently; only the final log rotation takes the store lock).
fn checkpoint_loop(engines: Arc<Engines>, shutdown: Arc<AtomicBool>, every: u64, poll: Duration) {
    while !shutdown.load(Ordering::SeqCst) {
        thread::sleep(poll);
        let due_point = engines
            .point
            .last_checkpoint_epoch()
            .is_some_and(|last| engines.point.epoch() >= last + every);
        if due_point {
            if let Err(e) = engines.point.checkpoint() {
                eprintln!("iloc-server: point checkpoint failed: {e}");
            }
        }
        let due_uncertain = engines
            .uncertain
            .last_checkpoint_epoch()
            .is_some_and(|last| engines.uncertain.epoch() >= last + every);
        if due_uncertain {
            if let Err(e) = engines.uncertain.checkpoint() {
                eprintln!("iloc-server: uncertain checkpoint failed: {e}");
            }
        }
    }
}

/// Everything one event loop reuses across requests and connections —
/// the reason the steady-state path allocates nothing.
struct LoopState {
    point: ShardServer<PointEngine>,
    uncertain: ShardServer<UncertainEngine>,
    point_req: PointRequest,
    uncertain_req: UncertainRequest,
    answer: QueryAnswer,
    updates: Vec<WireUpdate>,
}

impl LoopState {
    fn new(engines: &Engines) -> LoopState {
        let placeholder = || Issuer::uniform(Rect::from_coords(0.0, 0.0, 1.0, 1.0));
        LoopState {
            point: ShardServer::new(engines.point.snapshot()),
            uncertain: ShardServer::new(engines.uncertain.snapshot()),
            point_req: PointRequest::ipq(placeholder(), RangeSpec::square(1.0)),
            uncertain_req: UncertainRequest::iuq(placeholder(), RangeSpec::square(1.0)),
            answer: QueryAnswer::default(),
            updates: Vec::new(),
        }
    }
}

/// A connection's standing queries, allocated on first SUBSCRIBE so
/// the thousands of query-only connections don't pay for registries.
struct ConnSubs {
    point: SubscriptionRegistry<PointEngine>,
    uncertain: SubscriptionRegistry<UncertainEngine>,
}

impl ConnSubs {
    fn new() -> ConnSubs {
        ConnSubs {
            point: SubscriptionRegistry::new(),
            uncertain: SubscriptionRegistry::new(),
        }
    }

    fn needs_pump(&self, engines: &Engines) -> bool {
        self.point.needs_pump(engines.point.engine())
            || self.uncertain.needs_pump(engines.uncertain.engine())
    }
}

/// One multiplexed connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Inbound bytes: `in_buf[parsed..in_len]` is un-consumed;
    /// compacted to the front after each processing pass so a partial
    /// frame's tail always has room to arrive.
    in_buf: Vec<u8>,
    in_len: usize,
    parsed: usize,
    /// Outbound bytes: `out[out_at..]` awaits the socket. The buffer
    /// only resets when fully flushed, so frame offsets in `push_ends`
    /// stay valid while anything is pending.
    out: Vec<u8>,
    out_at: usize,
    /// End offsets (into `out`) of queued NOTIFY push frames — what a
    /// close must count as dropped if not yet flushed past.
    push_ends: VecDeque<usize>,
    /// When the last *complete* frame arrived — the monotonic idle
    /// deadline base. Partial bytes do not re-arm it.
    last_frame: Instant,
    /// Lazily created on first SUBSCRIBE.
    subs: Option<Box<ConnSubs>>,
    /// Registered readiness interest (kept to skip no-op `modify`s).
    interest: Interest,
    /// Reading has stopped; close once `out` drains (a protocol error
    /// or caught panic queued a final error frame).
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            in_buf: Vec::new(),
            in_len: 0,
            parsed: 0,
            out: Vec::new(),
            out_at: 0,
            push_ends: VecDeque::new(),
            last_frame: now,
            subs: None,
            interest: Interest::READ,
            close_after_flush: false,
        }
    }

    fn pending_out(&self) -> usize {
        self.out.len() - self.out_at
    }

    /// Queued push frames not yet fully flushed to the socket.
    fn undelivered_pushes(&self) -> u64 {
        self.push_ends
            .iter()
            .filter(|&&end| end > self.out_at)
            .count() as u64
    }
}

/// Why a connection must close now (soft closes — protocol errors,
/// panics — drain their error frame first and are not represented
/// here).
enum Close {
    /// EOF, socket error, idle reap, or over-capacity: nothing more to
    /// deliver.
    Gone,
    /// Push backpressure: the buffered backlog exceeded
    /// [`ServerConfig::push_backlog`] with pushes still due.
    PushOverflow,
}

/// Token the loop's waker registers under; connection tokens are slab
/// indices, which stay far below this.
const WAKE_TOKEN: u64 = u64::MAX;

/// Granularity of inbound reads before a frame's length is known.
const READ_CHUNK: usize = 4 * 1024;

struct EventLoop {
    shared: Arc<Shared>,
    writer_tx: mpsc::Sender<WriterMsg>,
    poller: Poller,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    state: LoopState,
}

fn event_loop(
    shared: Arc<Shared>,
    conn_rx: mpsc::Receiver<TcpStream>,
    wake_rx: WakeReceiver,
    writer_tx: mpsc::Sender<WriterMsg>,
) {
    let poller = match Poller::new() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("iloc-server: event loop failed to create poller: {e}");
            return;
        }
    };
    let state = LoopState::new(&shared.engines);
    let mut el = EventLoop {
        shared,
        writer_tx,
        poller,
        conns: Vec::new(),
        free: Vec::new(),
        state,
    };
    if let Err(e) = el
        .poller
        .register(wake_rx.raw_fd(), WAKE_TOKEN, Interest::READ)
    {
        eprintln!("iloc-server: event loop failed to register waker: {e}");
        return;
    }

    let mut events: Vec<Event> = Vec::new();
    let mut next_sweep = Instant::now();
    loop {
        if el
            .poller
            .wait(&mut events, Some(el.shared.idle_poll))
            .is_err()
        {
            break;
        }
        if el.shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let now = Instant::now();
        let mut woken = false;
        for ev in events.iter().copied() {
            if ev.token == WAKE_TOKEN {
                wake_rx.drain();
                woken = true;
            } else {
                el.conn_ready(ev.token as usize, ev, now);
            }
        }
        // Sweep on cadence, and immediately on wakes — the writer
        // wakes every loop after a commit so pushes to idle
        // subscribers don't wait out the poll interval.
        if woken || now >= next_sweep {
            el.sweep(now);
            next_sweep = now + el.shared.idle_poll;
        }
        // Adopt connections the listener handed over (after event
        // processing, so a slot freed above is not reused while its
        // stale events are still in this batch).
        for stream in conn_rx.try_iter() {
            el.adopt(stream, now);
        }
    }
    // Teardown: every owned connection closes; queued pushes that
    // never reached the socket are accounted.
    for idx in 0..el.conns.len() {
        el.close(idx);
    }
}

impl EventLoop {
    fn adopt(&mut self, stream: TcpStream, now: Instant) {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        match self
            .poller
            .register(stream.as_raw_fd(), idx as u64, Interest::READ)
        {
            Ok(()) => self.conns[idx] = Some(Conn::new(stream, now)),
            Err(_) => {
                self.free.push(idx);
                self.shared.connections.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Closes and frees slot `idx` (idempotent): deregisters the fd,
    /// counts undelivered pushes, drops the stream.
    fn close(&mut self, idx: usize) {
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) {
            let undelivered = conn.undelivered_pushes();
            if undelivered > 0 {
                self.shared
                    .dropped_pushes
                    .fetch_add(undelivered, Ordering::Relaxed);
            }
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.shared.connections.fetch_sub(1, Ordering::Relaxed);
            self.free.push(idx);
        }
    }

    /// Handles one readiness event for connection `idx`.
    fn conn_ready(&mut self, idx: usize, ev: Event, now: Instant) {
        if self.conns.get(idx).is_none_or(Option::is_none) {
            return; // freed earlier in this same event batch
        }
        if ev.hangup && !ev.readable {
            self.close(idx);
            return;
        }
        let mut outcome = Ok(());
        if ev.readable {
            outcome = self.read_and_serve(idx, now);
        }
        if outcome.is_ok() {
            outcome = self.flush(idx);
        }
        match outcome {
            Ok(()) => self.settle(idx),
            Err(_close) => self.close(idx),
        }
    }

    /// Reads whatever the socket has, serving every complete frame.
    fn read_and_serve(&mut self, idx: usize, now: Instant) -> Result<(), Close> {
        let mut poisoned = false;
        let result = (|| -> Result<(), Close> {
            loop {
                let conn = self.conns[idx].as_mut().expect("live conn");
                if conn.close_after_flush {
                    return Ok(()); // draining; discard nothing, read nothing
                }
                // Reading pauses while the peer owes us a flush larger
                // than the backlog budget (request flow control).
                if conn.pending_out() > self.shared.push_backlog {
                    return Ok(());
                }
                // Compact consumed bytes, then make room: enough for
                // the current frame when its length is known, one
                // chunk otherwise.
                if conn.parsed > 0 {
                    conn.in_buf.copy_within(conn.parsed..conn.in_len, 0);
                    conn.in_len -= conn.parsed;
                    conn.parsed = 0;
                }
                // Anything left after the parse pass is an incomplete
                // frame, so `in_len` is always below the target size:
                // one chunk, or the whole frame once its length is
                // known (wild lengths are rejected in the parse pass;
                // here they just must not drive allocation).
                let needed = if conn.in_len >= 4 {
                    let len = u32::from_le_bytes(conn.in_buf[0..4].try_into().expect("4 bytes"));
                    (len.min(self.shared.max_frame_len) as usize + 4).max(READ_CHUNK)
                } else {
                    READ_CHUNK
                };
                if conn.in_buf.len() < needed {
                    conn.in_buf.resize(needed, 0);
                }
                let read = conn.stream.read(&mut conn.in_buf[conn.in_len..]);
                match read {
                    Ok(0) => {
                        // EOF. Complete frames were already served, so
                        // at most a partial frame is discarded; drain
                        // whatever output is still queued, then close
                        // (a half-closing peer still gets its
                        // responses).
                        conn.close_after_flush = true;
                        return Ok(());
                    }
                    Ok(n) => {
                        conn.in_len += n;
                        self.serve_parsed(idx, now, &mut poisoned)?;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return Err(Close::Gone),
                }
            }
        })();
        if poisoned {
            // A caught panic may have left the loop scratch mid-flight;
            // rebuild it. Other connections are unaffected.
            self.state = LoopState::new(&self.shared.engines);
        }
        result
    }

    /// Serves every complete frame currently buffered on `idx`.
    fn serve_parsed(&mut self, idx: usize, now: Instant, poisoned: &mut bool) -> Result<(), Close> {
        loop {
            let conn = self.conns[idx].as_mut().expect("live conn");
            if conn.close_after_flush {
                return Ok(());
            }
            let avail = conn.in_len - conn.parsed;
            if avail < 4 {
                return Ok(());
            }
            let len_bytes: [u8; 4] = conn.in_buf[conn.parsed..conn.parsed + 4]
                .try_into()
                .expect("4 bytes");
            let len = u32::from_le_bytes(len_bytes);
            if len < 2 || len > self.shared.max_frame_len {
                // The stream cannot be re-delimited after a wild
                // length: answer and close once the error drains.
                protocol::encode_error(
                    &mut conn.out,
                    ErrorCode::TooLarge,
                    "frame length out of bounds",
                );
                conn.close_after_flush = true;
                return Ok(());
            }
            if avail - 4 < len as usize {
                return Ok(()); // tail still en route
            }
            let frame_start = conn.parsed + 4;
            conn.parsed = frame_start + len as usize;
            conn.last_frame = now;
            self.shared.requests_served.fetch_add(1, Ordering::Relaxed);

            let version = conn.in_buf[frame_start];
            let op = conn.in_buf[frame_start + 1];
            if op == opcode::HELLO {
                // Version negotiation (v6): answered regardless of the
                // header version so a mismatched peer gets a typed
                // ERROR naming the version this build speaks instead
                // of a silent close.
                let payload = &conn.in_buf[frame_start + 2..frame_start + len as usize];
                let peer = protocol::hello_peer_version(payload).unwrap_or(version);
                if version != PROTOCOL_VERSION || peer != PROTOCOL_VERSION {
                    protocol::encode_error(
                        &mut conn.out,
                        ErrorCode::BadVersion,
                        &format!(
                            "unsupported protocol version {peer}; this node speaks v{PROTOCOL_VERSION}"
                        ),
                    );
                    conn.close_after_flush = true;
                    return Ok(());
                }
                match protocol::decode_hello(payload) {
                    Ok((_, _role, _flags)) => {
                        let point = self.shared.engines.point.snapshot();
                        let uncertain = self.shared.engines.uncertain.snapshot();
                        let ack = protocol::HelloAck {
                            role: protocol::Role::Server,
                            flags: 0,
                            point_epoch: point.epoch(),
                            uncertain_epoch: uncertain.epoch(),
                            point_recovered: self.shared.recovered_epochs.0,
                            uncertain_recovered: self.shared.recovered_epochs.1,
                            point_shards: point.shard_count() as u32,
                            uncertain_shards: uncertain.shard_count() as u32,
                        };
                        protocol::encode_hello_ack(&mut conn.out, &ack);
                    }
                    Err(e) => wire_error(&mut conn.out, e),
                }
                continue;
            }
            if version != PROTOCOL_VERSION {
                protocol::encode_error(
                    &mut conn.out,
                    ErrorCode::BadVersion,
                    "protocol version mismatch",
                );
                conn.close_after_flush = true;
                return Ok(());
            }

            // Commit-driven pushes go out *before* this frame's
            // response, so the subscriber's view advances in epoch
            // order and a TICK's delta composes on top of everything
            // already delivered.
            if let Some(subs) = conn.subs.as_mut() {
                if subs.needs_pump(&self.shared.engines) {
                    pump_subs(
                        subs,
                        &self.shared,
                        &mut conn.out,
                        conn.out_at,
                        &mut conn.push_ends,
                    )
                    .map_err(|fail| match fail {
                        PumpFail::Overflow => Close::PushOverflow,
                        PumpFail::Panicked => {
                            // Registries may be mid-broken; they die
                            // with the connection. Loop scratch was
                            // not involved.
                            Close::Gone
                        }
                    })?;
                }
            }

            // Split-borrow the connection so the frame (borrowing
            // `in_buf`) can be dispatched against the other fields.
            let handled = {
                let Conn {
                    in_buf, out, subs, ..
                } = conn;
                let payload = &in_buf[frame_start + 2..frame_start + len as usize];
                std::panic::catch_unwind(AssertUnwindSafe(|| {
                    handle_frame(
                        op,
                        payload,
                        &mut self.state,
                        subs,
                        out,
                        &self.shared,
                        &self.writer_tx,
                    )
                }))
            };
            if handled.is_err() {
                let conn = self.conns[idx].as_mut().expect("live conn");
                protocol::encode_error(
                    &mut conn.out,
                    ErrorCode::Internal,
                    "request handler panicked",
                );
                conn.close_after_flush = true;
                *poisoned = true;
                return Ok(());
            }
        }
    }

    /// Flushes as much buffered output as the socket takes.
    fn flush(&mut self, idx: usize) -> Result<(), Close> {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return Ok(());
        };
        while conn.out_at < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_at..]) {
                Ok(0) => return Err(Close::Gone),
                Ok(n) => conn.out_at += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(Close::Gone),
            }
        }
        if conn.out_at == conn.out.len() {
            conn.out.clear();
            conn.out_at = 0;
            conn.push_ends.clear();
        } else {
            // Drop fully-flushed push bookkeeping so a later close
            // counts only frames that truly never made it out whole.
            while conn
                .push_ends
                .front()
                .is_some_and(|&end| end <= conn.out_at)
            {
                conn.push_ends.pop_front();
            }
        }
        Ok(())
    }

    /// Post-I/O bookkeeping: finish a drain-close, or converge the
    /// poller's interest set with what the connection now needs.
    fn settle(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let pending = conn.pending_out();
        if conn.close_after_flush && pending == 0 {
            self.close(idx);
            return;
        }
        let desired = Interest {
            readable: !conn.close_after_flush && pending <= self.shared.push_backlog,
            writable: pending > 0,
        };
        if desired != conn.interest {
            let fd = conn.stream.as_raw_fd();
            if self.poller.modify(fd, idx as u64, desired).is_ok() {
                conn.interest = desired;
            } else {
                self.close(idx);
            }
        }
    }

    /// The periodic pass over every connection: pump subscribers whose
    /// engines have moved on, enforce the monotonic idle deadline.
    fn sweep(&mut self, now: Instant) {
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            if !conn.close_after_flush {
                if let Some(subs) = conn.subs.as_mut() {
                    if subs.needs_pump(&self.shared.engines) {
                        let pumped = pump_subs(
                            subs,
                            &self.shared,
                            &mut conn.out,
                            conn.out_at,
                            &mut conn.push_ends,
                        );
                        if pumped.is_err() {
                            self.close(idx);
                            continue;
                        }
                        if self.flush(idx).is_err() {
                            self.close(idx);
                            continue;
                        }
                        self.settle(idx);
                    }
                }
            }
            if let Some(timeout) = self.shared.idle_timeout {
                let conn = match self.conns[idx].as_ref() {
                    Some(conn) => conn,
                    None => continue, // settle() may have drain-closed it
                };
                if now.duration_since(conn.last_frame) >= timeout {
                    // Reap: an abandoned socket must not pin a slot
                    // forever. Closing is the signal.
                    self.close(idx);
                }
            }
        }
    }
}

/// Why a pump pass could not deliver its pushes.
enum PumpFail {
    /// Backlog budget exceeded with pushes still due.
    Overflow,
    /// A registry panicked mid-pump.
    Panicked,
}

/// Pumps both registries, appending one NOTIFY frame per changed
/// subscription to `out` (recording each frame's end in `push_ends`).
/// A push that would drive the un-flushed backlog past the budget is
/// rolled back and counted — with every later push of the pass — into
/// the server-wide dropped-push stat, and the pass fails with
/// [`PumpFail::Overflow`]: the caller closes the connection (typed
/// close; the subscriber re-syncs by resubscribing).
fn pump_subs(
    subs: &mut ConnSubs,
    shared: &Shared,
    out: &mut Vec<u8>,
    out_at: usize,
    push_ends: &mut VecDeque<usize>,
) -> Result<(), PumpFail> {
    let cap = shared.push_backlog;
    let mut over = false;
    let mut refused = 0u64;
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        subs.point
            .pump(shared.engines.point.engine(), |id, epoch, delta| {
                if over {
                    refused += 1;
                    return;
                }
                let before = out.len();
                protocol::encode_notify(
                    out,
                    CommitTarget::Point,
                    id,
                    epoch,
                    NotifyCause::Commit,
                    delta,
                );
                if out.len() - out_at > cap {
                    out.truncate(before);
                    refused += 1;
                    over = true;
                } else {
                    push_ends.push_back(out.len());
                }
            });
        subs.uncertain
            .pump(shared.engines.uncertain.engine(), |id, epoch, delta| {
                if over {
                    refused += 1;
                    return;
                }
                let before = out.len();
                protocol::encode_notify(
                    out,
                    CommitTarget::Uncertain,
                    id,
                    epoch,
                    NotifyCause::Commit,
                    delta,
                );
                if out.len() - out_at > cap {
                    out.truncate(before);
                    refused += 1;
                    over = true;
                } else {
                    push_ends.push_back(out.len());
                }
            });
    }));
    if refused > 0 {
        shared.dropped_pushes.fetch_add(refused, Ordering::Relaxed);
    }
    match caught {
        Err(_) => Err(PumpFail::Panicked),
        Ok(()) if over => Err(PumpFail::Overflow),
        Ok(()) => Ok(()),
    }
}

/// Serves one frame: decodes the payload, executes, and appends the
/// response to `out`. Every failure mode becomes an error frame.
fn handle_frame(
    op: u8,
    payload: &[u8],
    state: &mut LoopState,
    subs: &mut Option<Box<ConnSubs>>,
    out: &mut Vec<u8>,
    shared: &Shared,
    writer_tx: &mpsc::Sender<WriterMsg>,
) {
    match op {
        opcode::POINT_QUERY => {
            match protocol::decode_point_query_into(payload, &mut state.point_req) {
                Ok(()) => {
                    if shared.engines.point.epoch() != state.point.snapshot().epoch() {
                        state.point.rebind(shared.engines.point.snapshot());
                    }
                    state
                        .point
                        .execute_into(&state.point_req, &mut state.answer);
                    shared.stage.absorb(&state.answer.stats);
                    protocol::encode_answer(out, &state.answer);
                }
                Err(e) => wire_error(out, e),
            }
        }
        opcode::UNCERTAIN_QUERY => {
            match protocol::decode_uncertain_query_into(payload, &mut state.uncertain_req) {
                Ok(()) => {
                    if shared.engines.uncertain.epoch() != state.uncertain.snapshot().epoch() {
                        state.uncertain.rebind(shared.engines.uncertain.snapshot());
                    }
                    state
                        .uncertain
                        .execute_into(&state.uncertain_req, &mut state.answer);
                    shared.stage.absorb(&state.answer.stats);
                    protocol::encode_answer(out, &state.answer);
                }
                Err(e) => wire_error(out, e),
            }
        }
        opcode::UPDATE_BATCH => match protocol::decode_update_batch(payload, &mut state.updates) {
            Ok(()) => {
                let updates = std::mem::take(&mut state.updates);
                let (reply_tx, reply_rx) = mpsc::sync_channel(1);
                // The writer outlives the loops by construction;
                // failures here mean the server is tearing down.
                let sent = writer_tx.send(WriterMsg::Submit(updates, reply_tx));
                match sent.ok().and_then(|()| reply_rx.recv().ok()) {
                    Some((accepted, drained)) => {
                        state.updates = drained;
                        protocol::encode_update_ack(out, accepted)
                    }
                    None => protocol::encode_error(out, ErrorCode::Internal, "writer unavailable"),
                }
            }
            Err(e) => wire_error(out, e),
        },
        opcode::COMMIT => match protocol::decode_commit(payload) {
            Ok(target) => {
                let (reply_tx, reply_rx) = mpsc::sync_channel(1);
                let sent = writer_tx.send(WriterMsg::Commit(target, reply_tx));
                match sent.ok().and_then(|()| reply_rx.recv().ok()) {
                    Some(Ok(report)) => {
                        protocol::encode_commit_done(out, &report);
                    }
                    Some(Err(_)) => protocol::encode_error(
                        out,
                        ErrorCode::Internal,
                        "durable commit failed; epoch not published",
                    ),
                    None => protocol::encode_error(out, ErrorCode::Internal, "writer unavailable"),
                }
            }
            Err(e) => wire_error(out, e),
        },
        opcode::STATS => {
            if !payload.is_empty() {
                wire_error(out, WireError::Malformed("stats payload"));
                return;
            }
            // Read the counter before encoding so the probe excludes
            // its own response from the reported total.
            let mut refine_batches = [0u64; REFINE_BATCH_BUCKETS];
            for (slot, counter) in refine_batches.iter_mut().zip(&shared.stage.refine_batches) {
                *slot = counter.load(Ordering::Relaxed);
            }
            let counters = CountersView {
                alloc_counting: alloc_count::counting_installed(),
                allocations: alloc_count::allocations(),
                requests_served: shared.requests_served.load(Ordering::Relaxed),
                capacity: shared.capacity,
                event_loops: shared.event_loops,
                connections: shared.connections.load(Ordering::Relaxed),
                dropped_pushes: shared.dropped_pushes.load(Ordering::Relaxed),
                filter_nanos: shared.stage.filter_nanos.load(Ordering::Relaxed),
                prune_nanos: shared.stage.prune_nanos.load(Ordering::Relaxed),
                refine_nanos: shared.stage.refine_nanos.load(Ordering::Relaxed),
                refine_batches,
            };
            let point = shared.engines.point.snapshot();
            let uncertain = shared.engines.uncertain.snapshot();
            protocol::encode_stats_report(
                out,
                counters,
                (&point, shared.engines.point.pending_len() as u64),
                (&uncertain, shared.engines.uncertain.pending_len() as u64),
            );
        }
        opcode::PING => {
            if payload.is_empty() {
                protocol::encode_empty(out, opcode::PONG);
            } else {
                wire_error(out, WireError::Malformed("ping payload"));
            }
        }
        opcode::SUBSCRIBE => {
            let mut r = protocol::Reader::new(payload);
            match protocol::decode_subscribe_header(&mut r) {
                Ok((CommitTarget::Point, slack)) => {
                    match protocol::decode_subscribe_point_body(&mut r, &mut state.point_req) {
                        Ok(()) => {
                            let subs = subs.get_or_insert_with(|| Box::new(ConnSubs::new()));
                            if subs.point.len() >= MAX_SUBSCRIPTIONS {
                                protocol::encode_error(
                                    out,
                                    ErrorCode::TooManySubscriptions,
                                    "subscription limit reached",
                                );
                            } else {
                                let id = subs.point.subscribe(
                                    shared.engines.point.engine(),
                                    state.point_req.clone(),
                                    slack,
                                );
                                let sub = subs.point.get(id).expect("just subscribed");
                                protocol::encode_sub_ack(
                                    out,
                                    CommitTarget::Point,
                                    id,
                                    sub.epoch(),
                                    shared.recovered_epochs.0,
                                    sub.last_answer(),
                                );
                            }
                        }
                        Err(e) => wire_error(out, e),
                    }
                }
                Ok((CommitTarget::Uncertain, slack)) => {
                    match protocol::decode_subscribe_uncertain_body(
                        &mut r,
                        &mut state.uncertain_req,
                    ) {
                        Ok(()) => {
                            let subs = subs.get_or_insert_with(|| Box::new(ConnSubs::new()));
                            if subs.uncertain.len() >= MAX_SUBSCRIPTIONS {
                                protocol::encode_error(
                                    out,
                                    ErrorCode::TooManySubscriptions,
                                    "subscription limit reached",
                                );
                            } else {
                                let id = subs.uncertain.subscribe(
                                    shared.engines.uncertain.engine(),
                                    state.uncertain_req.clone(),
                                    slack,
                                );
                                let sub = subs.uncertain.get(id).expect("just subscribed");
                                protocol::encode_sub_ack(
                                    out,
                                    CommitTarget::Uncertain,
                                    id,
                                    sub.epoch(),
                                    shared.recovered_epochs.1,
                                    sub.last_answer(),
                                );
                            }
                        }
                        Err(e) => wire_error(out, e),
                    }
                }
                Err(e) => wire_error(out, e),
            }
        }
        opcode::UNSUBSCRIBE => match protocol::decode_unsubscribe(payload) {
            Ok((target, id)) => {
                let existed = match (target, subs.as_mut()) {
                    (CommitTarget::Point, Some(subs)) => subs.point.unsubscribe(id),
                    (CommitTarget::Uncertain, Some(subs)) => subs.uncertain.unsubscribe(id),
                    (_, None) => false,
                };
                protocol::encode_unsub_done(out, existed);
            }
            Err(e) => wire_error(out, e),
        },
        opcode::TICK => match protocol::decode_tick(payload) {
            Ok((target, id, pdf)) => {
                // The caller pumped before dispatch, so this tick's
                // delta composes on top of every commit already
                // delivered; a steady tick inside the envelope runs
                // probe-free and allocation-free.
                let ticked = match (target, subs.as_mut()) {
                    (CommitTarget::Point, Some(subs)) => subs
                        .point
                        .tick(shared.engines.point.engine(), id, pdf)
                        .map(|(epoch, delta)| {
                            protocol::encode_notify(
                                out,
                                target,
                                id,
                                epoch,
                                NotifyCause::Tick,
                                delta,
                            );
                        }),
                    (CommitTarget::Uncertain, Some(subs)) => subs
                        .uncertain
                        .tick(shared.engines.uncertain.engine(), id, pdf)
                        .map(|(epoch, delta)| {
                            protocol::encode_notify(
                                out,
                                target,
                                id,
                                epoch,
                                NotifyCause::Tick,
                                delta,
                            );
                        }),
                    (_, None) => None,
                };
                if ticked.is_none() {
                    wire_error(out, WireError::Malformed("unknown subscription id"));
                }
            }
            Err(e) => wire_error(out, e),
        },
        _ => protocol::encode_error(out, ErrorCode::BadOpcode, "unknown request opcode"),
    }
}

/// Encodes a decode failure as an error frame without allocating (the
/// message is the static string the decoder produced).
fn wire_error(buf: &mut Vec<u8>, e: WireError) {
    let message = match e {
        WireError::Malformed(what) => what,
        WireError::UnsupportedPdf => "pdf kind not encodable on the wire",
    };
    protocol::encode_error(buf, e.into(), message);
}
