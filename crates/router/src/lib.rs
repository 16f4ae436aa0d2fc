//! # iloc-router
//!
//! Multi-node **scatter-gather serving** atop the wire protocol: an
//! event-driven proxy that speaks the same protocol as `iloc-server`
//! on both sides. Downstream it accepts ordinary protocol clients;
//! upstream it holds pipelined connections to N server nodes, each
//! owning a disjoint slice of the object catalogs (assignment by the
//! same SplitMix64 id hash the in-process sharded engine uses).
//!
//! The correctness bar is **bit-identity**: a cluster of N
//! single-shard nodes behind the router answers every query, commit
//! report, and subscription delta stream exactly as one in-process
//! [`iloc_core::serve::ShardedEngine`] with N shards would. The three
//! mechanisms that buy it:
//!
//! * **Queries** scatter to every node (one pipelined burst: all sends
//!   first, then all receives) and fan in with
//!   [`iloc_core::merge_partials_into`] — the same k-way merge of
//!   id-sorted runs the sharded engine's own fan-in uses; each node's
//!   answer frame is one run, decoded into that node's buffer. Disjoint
//!   id partitions, each in id order, make the merged answer
//!   bit-identical. The steady-state path is **allocation-free once
//!   warm**: the forwarded frame, the per-node partial answers, and
//!   the merged answer all live in reusable loop-owned buffers.
//! * **Updates** split by `shard_of(id, nodes)` so node order *is*
//!   shard order; **commits** fan out to every node, and the router
//!   publishes its own **cluster epoch** only after every node
//!   acknowledged — counters summed, per-shard counts concatenated in
//!   node order (zero-filled for untouched nodes), dirty rectangles
//!   hulled. A node failure mid-commit *poisons* the catalog: the
//!   committing client gets a typed [`ErrorCode::Unavailable`] error
//!   and no torn epoch is ever observable.
//! * **Subscriptions** fan out to every node over the shared write
//!   plane; pushed NOTIFY deltas are collected behind a PING barrier
//!   (the server flushes commit pushes before answering a PING),
//!   merged id-sorted per standing query, stamped with the cluster
//!   epoch, and delivered as a single push stream per subscription.
//!
//! The event loop reuses [`iloc_server::poll`] — the same epoll /
//! `poll(2)` substrate as the server — and the upstream sockets are
//! dialed concurrently with [`iloc_server::poll::connect_nonblocking`]
//! so router startup pays one connect round trip, not N.
//!
//! ## Known limitations (documented trade-offs)
//!
//! * All router subscriptions share one upstream connection per node,
//!   so the node-side per-connection cap bounds the *total* standing
//!   queries across all router clients.
//! * No upstream reconnect: a lost node leaves affected requests
//!   answering [`ErrorCode::Unavailable`] until the router restarts.
//! * The router is transient (`recovered_epoch` 0 in SUB_ACKs); nodes
//!   may individually be durable.
//! * Strict bit-identity with an N-shard oracle requires nodes run
//!   with `--shards 1` — otherwise ids are hashed twice (router then
//!   node) and per-shard counts no longer line up.

#![warn(missing_docs)]

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use iloc_core::serve::{shard_of, CommitReport, Update};
use iloc_core::subscribe::AnswerDelta;
use iloc_core::{merge_partials_into, sort_matches, QueryAnswer};
use iloc_server::client::{Client, ClientError};
use iloc_server::poll::{self, Event, Interest, Poller, WakeReceiver, Waker};
use iloc_server::protocol::{
    self, opcode, CommitTarget, ErrorCode, HelloAck, NodeHealth, Notification, NotifyCause, Role,
    StatsReport, WireError, WireUpdate, PROTOCOL_VERSION,
};
use iloc_server::{alloc_count, MAX_SUBSCRIPTIONS};
use iloc_uncertainty::ObjectId;

/// Token reserved for the wake pipe in each loop's poller.
const WAKE_TOKEN: u64 = u64::MAX;
/// Minimum read size per `read(2)` on a downstream connection.
const READ_CHUNK: usize = 4096;

/// How a [`Router`] listens and reaches its nodes.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"`.
    pub addr: String,
    /// The cluster nodes, in **node order** — the order that defines
    /// the id-hash partition and the shard order of merged commit
    /// reports. All peers must agree on it.
    pub nodes: Vec<SocketAddr>,
    /// Event-loop threads for downstream connections.
    pub event_loops: usize,
    /// Concurrent downstream connection capacity.
    pub max_connections: usize,
    /// Largest accepted frame.
    pub max_frame_len: u32,
    /// Poll timeout — bounds shutdown latency.
    pub idle_poll: Duration,
    /// Buffered output above which a connection stops being read, and
    /// above which a pushed NOTIFY closes it instead of queueing.
    pub push_backlog: usize,
    /// Read timeout on upstream connections: a dead node surfaces as
    /// a typed error instead of a hang.
    pub upstream_timeout: Duration,
    /// Deadline for the initial parallel dial of every upstream
    /// connection.
    pub connect_timeout: Duration,
}

impl RouterConfig {
    /// A loopback config for tests: ephemeral port, two loops.
    pub fn loopback(nodes: Vec<SocketAddr>) -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            nodes,
            event_loops: 2,
            max_connections: 256,
            max_frame_len: protocol::MAX_FRAME_LEN,
            idle_poll: Duration::from_millis(25),
            push_backlog: 1 << 20,
            upstream_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(10),
        }
    }
}

/// Per-node health, mirrored into STATS_REPORT node sections.
struct NodeState {
    connected: AtomicBool,
    point_epoch: AtomicU64,
    uncertain_epoch: AtomicU64,
    routed: AtomicU64,
    merged: AtomicU64,
}

/// One standing query as the router tracks it: the node-assigned ids
/// (index = node), and the downstream connection that owns it.
struct SubEntry {
    target: CommitTarget,
    node_ids: Vec<u64>,
    owner_loop: usize,
    owner_conn: u64,
}

/// The serialized write plane: one upstream client per node carrying
/// every update batch, commit, and subscription. Serializing writes
/// through one lane is what makes the cluster epoch well-defined — a
/// commit observes either all of a batch or none of it on every node.
struct WritePlane {
    clients: Vec<Client>,
    /// Whether any update was routed since the last commit, per
    /// catalog — the cluster-level "pending" flag that decides whether
    /// a COMMIT advances the epoch (mirroring the sharded engine's
    /// empty-commit early-out).
    routed: [bool; 2],
    subs: HashMap<u64, SubEntry>,
    /// `(node, catalog tag, node sub id) -> router sub id`.
    by_node: HashMap<(usize, u8, u64), u64>,
    next_sub_id: u64,
    // Scratch (capacity retained across requests).
    updates: Vec<WireUpdate>,
    node_batches: Vec<Vec<WireUpdate>>,
    reports: Vec<CommitReport>,
    deltas: HashMap<u64, AnswerDelta>,
    tick_delta: AnswerDelta,
    note: Notification,
    /// One SUB_ACK answer per node, fanned into `sub_merged`.
    sub_partials: Vec<QueryAnswer>,
    sub_merged: QueryAnswer,
}

/// Cross-loop push delivery: a commit handled on one loop deposits
/// encoded NOTIFY frames here for connections owned by another loop,
/// then wakes it. Deposits are drained at the top of every loop
/// iteration, which (together with the deposit happening *before* the
/// COMMIT_DONE is written) preserves the protocol's push-ordering
/// guarantee: a client that saw a commit acknowledged and then pings a
/// subscriber connection finds the NOTIFY ahead of the PONG.
struct Mailbox {
    deposits: Mutex<Vec<(u64, Vec<u8>)>>,
    waker: Waker,
}

struct Shared {
    nodes: Vec<NodeState>,
    /// Per-node `(point, uncertain)` shard counts from the HELLO
    /// handshake — sizes the zero-fill for untouched nodes in merged
    /// commit reports.
    node_shards: Vec<(u32, u32)>,
    shard_totals: (u32, u32),
    /// The cluster epochs `[point, uncertain]`, published only after
    /// every node acknowledged a commit.
    epochs: [AtomicU64; 2],
    /// Sticky per-catalog failure flags: set when a commit or routed
    /// update batch failed partway, after which the catalog's torn
    /// cluster state must not be observable — every dependent request
    /// answers [`ErrorCode::Unavailable`] until the router restarts.
    poison: [AtomicBool; 2],
    write_plane: Mutex<WritePlane>,
    /// Queries hold this shared; a commit holds it exclusive while the
    /// epoch turns over, so no query ever observes half a commit.
    commit_gate: RwLock<()>,
    mailboxes: Vec<Mailbox>,
    requests_served: AtomicU64,
    connections: AtomicU64,
    dropped_pushes: AtomicU64,
    shutdown: AtomicBool,
    capacity: usize,
    event_loops: u32,
    max_frame_len: u32,
    push_backlog: usize,
    idle_poll: Duration,
}

impl Shared {
    fn deposit(&self, loop_idx: usize, conn_id: u64, frame: Vec<u8>) {
        let mailbox = &self.mailboxes[loop_idx];
        mailbox
            .deposits
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((conn_id, frame));
        mailbox.waker.wake();
    }
}

/// The router. Construct nothing; call [`Router::start`].
#[derive(Debug)]
pub struct Router;

/// A running router: address, shutdown, join.
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many upstream nodes the router serves.
    pub fn node_count(&self) -> usize {
        self.shared.nodes.len()
    }

    /// Stops the listener and every event loop, closes all
    /// connections, and joins the threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for mailbox in &self.shared.mailboxes {
            mailbox.waker.wake();
        }
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Dials `copies` connections to every node concurrently: all connects
/// start non-blocking, one poller waits for the whole fleet, and only
/// then is each socket finished (surfacing any per-socket `SO_ERROR`).
fn dial_fleet(
    nodes: &[SocketAddr],
    copies: usize,
    timeout: Duration,
) -> io::Result<Vec<Vec<TcpStream>>> {
    let mut pending = Vec::with_capacity(nodes.len() * copies);
    for _ in 0..copies {
        for &addr in nodes {
            pending.push(poll::connect_nonblocking(addr)?);
        }
    }
    let mut poller = Poller::new()?;
    let mut waiting = 0usize;
    let mut ready: Vec<bool> = Vec::with_capacity(pending.len());
    for (i, p) in pending.iter().enumerate() {
        ready.push(!p.is_pending());
        if p.is_pending() {
            poller.register(
                p.stream().as_raw_fd(),
                i as u64,
                Interest {
                    readable: false,
                    writable: true,
                },
            )?;
            waiting += 1;
        }
    }
    let deadline = Instant::now() + timeout;
    let mut events = Vec::new();
    while waiting > 0 {
        let now = Instant::now();
        if now >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "timed out connecting to cluster nodes",
            ));
        }
        poller.wait(&mut events, Some(deadline - now))?;
        for ev in &events {
            let i = ev.token as usize;
            if !ready[i] {
                ready[i] = true;
                waiting -= 1;
                poller.deregister(pending[i].stream().as_raw_fd())?;
            }
        }
    }
    let mut streams = pending
        .into_iter()
        .map(|p| p.finish())
        .collect::<io::Result<Vec<_>>>()?
        .into_iter();
    let mut fleets = Vec::with_capacity(copies);
    for _ in 0..copies {
        fleets.push((&mut streams).take(nodes.len()).collect::<Vec<_>>());
    }
    Ok(fleets)
}

impl Router {
    /// Dials every node, performs the HELLO handshake on each upstream
    /// connection, binds the listener, and spawns the accept thread
    /// plus the event loops. Fails if any node is unreachable or
    /// speaks another protocol version.
    pub fn start(config: &RouterConfig) -> io::Result<RouterHandle> {
        if config.nodes.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a router needs at least one node",
            ));
        }
        let n = config.nodes.len();
        let loops = config.event_loops.max(1);

        // One upstream fleet for the write plane plus one per loop for
        // queries, all dialed concurrently.
        let mut fleets = dial_fleet(&config.nodes, loops + 1, config.connect_timeout)?.into_iter();
        let handshake = |streams: Vec<TcpStream>| -> io::Result<Vec<Client>> {
            streams
                .into_iter()
                .map(|s| {
                    let mut client = Client::from_stream(s, Role::Router)?;
                    client.set_read_timeout(Some(config.upstream_timeout))?;
                    Ok(client)
                })
                .collect()
        };
        let write_clients = handshake(fleets.next().expect("write-plane fleet"))?;

        let mut nodes = Vec::with_capacity(n);
        let mut node_shards = Vec::with_capacity(n);
        let mut shard_totals = (0u32, 0u32);
        let mut epochs = (0u64, 0u64);
        for client in &write_clients {
            let ack = *client.hello().expect("handshake stores the ack");
            node_shards.push((ack.point_shards, ack.uncertain_shards));
            shard_totals.0 += ack.point_shards;
            shard_totals.1 += ack.uncertain_shards;
            // A restarted durable cluster resumes from the highest
            // epoch any node recovered to.
            epochs.0 = epochs.0.max(ack.point_epoch);
            epochs.1 = epochs.1.max(ack.uncertain_epoch);
            nodes.push(NodeState {
                connected: AtomicBool::new(true),
                point_epoch: AtomicU64::new(ack.point_epoch),
                uncertain_epoch: AtomicU64::new(ack.uncertain_epoch),
                routed: AtomicU64::new(0),
                merged: AtomicU64::new(0),
            });
        }

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let mut mailboxes = Vec::with_capacity(loops);
        let mut wake_rxs = Vec::with_capacity(loops);
        for _ in 0..loops {
            let (waker, wake_rx) = poll::waker()?;
            mailboxes.push(Mailbox {
                deposits: Mutex::new(Vec::new()),
                waker,
            });
            wake_rxs.push(wake_rx);
        }

        let shared = Arc::new(Shared {
            nodes,
            node_shards,
            shard_totals,
            epochs: [AtomicU64::new(epochs.0), AtomicU64::new(epochs.1)],
            poison: [AtomicBool::new(false), AtomicBool::new(false)],
            write_plane: Mutex::new(WritePlane {
                clients: write_clients,
                routed: [false, false],
                subs: HashMap::new(),
                by_node: HashMap::new(),
                next_sub_id: 1,
                updates: Vec::new(),
                node_batches: (0..n).map(|_| Vec::new()).collect(),
                reports: Vec::new(),
                deltas: HashMap::new(),
                tick_delta: AnswerDelta::default(),
                note: Notification::default(),
                sub_partials: (0..n).map(|_| QueryAnswer::default()).collect(),
                sub_merged: QueryAnswer::default(),
            }),
            commit_gate: RwLock::new(()),
            mailboxes,
            requests_served: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            dropped_pushes: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            capacity: config.max_connections,
            event_loops: loops as u32,
            max_frame_len: config.max_frame_len,
            push_backlog: config.push_backlog,
            idle_poll: config.idle_poll,
        });

        let mut threads = Vec::with_capacity(loops + 1);
        let mut conn_txs = Vec::with_capacity(loops);
        for (k, wake_rx) in wake_rxs.into_iter().enumerate() {
            let upstream = handshake(fleets.next().expect("query fleet"))?;
            let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
            conn_txs.push(conn_tx);
            let state = LoopState::new(Arc::clone(&shared), k, upstream);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("iloc-router-loop-{k}"))
                    .spawn(move || state.run(conn_rx, wake_rx))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("iloc-router-accept".to_string())
                    .spawn(move || listener_loop(listener, shared, conn_txs))?,
            );
        }

        Ok(RouterHandle {
            addr,
            shared,
            threads,
        })
    }
}

fn listener_loop(listener: TcpListener, shared: Arc<Shared>, conn_txs: Vec<Sender<TcpStream>>) {
    let mut k = 0usize;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let live = shared.connections.fetch_add(1, Ordering::SeqCst);
                if live >= shared.capacity as u64 {
                    shared.connections.fetch_sub(1, Ordering::SeqCst);
                    continue; // over capacity: close before any frame
                }
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    shared.connections.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                let idx = k % conn_txs.len();
                k += 1;
                if conn_txs[idx].send(stream).is_ok() {
                    shared.mailboxes[idx].waker.wake();
                } else {
                    shared.connections.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Why a downstream connection is being torn down.
enum Close {
    /// Peer gone or stream unusable.
    Gone,
}

/// One downstream connection's reassembly and output state.
struct Conn {
    stream: TcpStream,
    id: u64,
    in_buf: Vec<u8>,
    in_len: usize,
    parsed: usize,
    out: Vec<u8>,
    out_at: usize,
    /// End offsets (into `out`) of buffered push frames, so a close
    /// can count the pushes that never fully left.
    push_ends: VecDeque<usize>,
    /// Standing-query counts per catalog (router-side cap, and a fast
    /// "does close need upstream cleanup" check).
    subs: [u32; 2],
    want_read: bool,
    want_write: bool,
    close_after_flush: bool,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_at
    }
}

/// One event loop: a poller over this loop's downstream connections,
/// its own upstream query clients (so loops never contend on reads),
/// and warm scratch buffers for the allocation-free steady state.
struct LoopState {
    shared: Arc<Shared>,
    loop_idx: usize,
    upstream: Vec<Client>,
    poller: Poller,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_conn_id: u64,
    frame: Vec<u8>,
    partials: Vec<QueryAnswer>,
    merged: QueryAnswer,
    node_stats: Vec<StatsReport>,
    merged_stats: StatsReport,
    deposits_scratch: Vec<(u64, Vec<u8>)>,
}

impl LoopState {
    fn new(shared: Arc<Shared>, loop_idx: usize, upstream: Vec<Client>) -> LoopState {
        let n = upstream.len();
        LoopState {
            shared,
            loop_idx,
            upstream,
            poller: Poller::new().expect("poller"),
            conns: Vec::new(),
            free: Vec::new(),
            next_conn_id: 1,
            frame: Vec::new(),
            partials: (0..n).map(|_| QueryAnswer::default()).collect(),
            merged: QueryAnswer::default(),
            node_stats: (0..n).map(|_| StatsReport::default()).collect(),
            merged_stats: StatsReport::default(),
            deposits_scratch: Vec::new(),
        }
    }

    fn run(mut self, conn_rx: Receiver<TcpStream>, wake_rx: WakeReceiver) {
        if self
            .poller
            .register(wake_rx.raw_fd(), WAKE_TOKEN, Interest::READ)
            .is_err()
        {
            return;
        }
        let mut events: Vec<Event> = Vec::new();
        let idle = self.shared.idle_poll;
        loop {
            if self.poller.wait(&mut events, Some(idle)).is_err() {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Pushed NOTIFY deposits go out before any frame handled
            // this iteration — see [`Mailbox`] for why that order is
            // what keeps cross-connection subscribers coherent.
            self.drain_mailbox();
            for ev in &events {
                if ev.token == WAKE_TOKEN {
                    wake_rx.drain();
                    continue;
                }
                self.conn_ready(ev.token as usize, *ev);
            }
            // Adopt after event processing so a token freed this
            // iteration is not reused while its events are in flight.
            for stream in conn_rx.try_iter() {
                self.adopt(stream);
            }
        }
        for idx in 0..self.conns.len() {
            if self.conns[idx].is_some() {
                self.close(idx);
            }
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        let id = self.next_conn_id;
        self.next_conn_id += 1;
        let conn = Conn {
            stream,
            id,
            in_buf: Vec::new(),
            in_len: 0,
            parsed: 0,
            out: Vec::new(),
            out_at: 0,
            push_ends: VecDeque::new(),
            subs: [0, 0],
            want_read: true,
            want_write: false,
            close_after_flush: false,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.conns[i] = Some(conn);
                i
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        let fd = self.conns[idx]
            .as_ref()
            .expect("just adopted")
            .stream
            .as_raw_fd();
        if self
            .poller
            .register(fd, idx as u64, Interest::READ)
            .is_err()
        {
            self.conns[idx] = None;
            self.free.push(idx);
            self.shared.connections.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn close(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].take() else {
            return;
        };
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
        self.shared.connections.fetch_sub(1, Ordering::SeqCst);
        self.free.push(idx);
        if conn.subs[0] > 0 || conn.subs[1] > 0 {
            self.cleanup_subs(conn.id);
        }
    }

    /// Unsubscribes every standing query a departed connection owned,
    /// on every node.
    fn cleanup_subs(&mut self, conn_id: u64) {
        let mut wp = self
            .shared
            .write_plane
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let wp = &mut *wp;
        let dead: Vec<u64> = wp
            .subs
            .iter()
            .filter(|(_, e)| e.owner_loop == self.loop_idx && e.owner_conn == conn_id)
            .map(|(&k, _)| k)
            .collect();
        for rsub in dead {
            let entry = wp.subs.remove(&rsub).expect("listed above");
            let tag = cat_of(entry.target) as u8;
            for (i, &sid) in entry.node_ids.iter().enumerate() {
                wp.by_node.remove(&(i, tag, sid));
                let _ = wp.clients[i].unsubscribe(entry.target, sid);
            }
        }
    }

    fn conn_ready(&mut self, idx: usize, ev: Event) {
        if self.conns.get(idx).is_none_or(Option::is_none) {
            return;
        }
        let result = (|| -> Result<(), Close> {
            if ev.hangup && !ev.readable {
                return Err(Close::Gone);
            }
            if ev.readable {
                self.read_and_serve(idx)?;
            }
            self.flush(idx)?;
            self.settle(idx)
        })();
        if result.is_err() {
            self.close(idx);
        }
    }

    fn read_and_serve(&mut self, idx: usize) -> Result<(), Close> {
        loop {
            let conn = self.conns[idx].as_mut().expect("live conn");
            if conn.close_after_flush {
                return Ok(());
            }
            if conn.pending_out() > self.shared.push_backlog {
                return Ok(()); // flow control: stop reading until drained
            }
            if conn.parsed > 0 {
                conn.in_buf.copy_within(conn.parsed..conn.in_len, 0);
                conn.in_len -= conn.parsed;
                conn.parsed = 0;
            }
            let needed = if conn.in_len >= 4 {
                let len_bytes: [u8; 4] = conn.in_buf[0..4].try_into().expect("4 bytes");
                let len = u32::from_le_bytes(len_bytes).min(self.shared.max_frame_len) as usize;
                (len + 4).saturating_sub(conn.in_len).max(READ_CHUNK)
            } else {
                READ_CHUNK
            };
            if conn.in_buf.len() < conn.in_len + needed {
                conn.in_buf.resize(conn.in_len + needed, 0);
            }
            let at = conn.in_len;
            match conn.stream.read(&mut conn.in_buf[at..]) {
                Ok(0) => {
                    conn.close_after_flush = true;
                    return Ok(());
                }
                Ok(n) => {
                    conn.in_len += n;
                    self.serve_parsed(idx);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(Close::Gone),
            }
        }
    }

    fn serve_parsed(&mut self, idx: usize) {
        loop {
            let conn = self.conns[idx].as_mut().expect("live conn");
            if conn.close_after_flush {
                return;
            }
            let avail = conn.in_len - conn.parsed;
            if avail < 4 {
                return;
            }
            let len_bytes: [u8; 4] = conn.in_buf[conn.parsed..conn.parsed + 4]
                .try_into()
                .expect("4 bytes");
            let len = u32::from_le_bytes(len_bytes);
            if len < 2 || len > self.shared.max_frame_len {
                protocol::encode_error(
                    &mut conn.out,
                    ErrorCode::TooLarge,
                    "frame length out of bounds",
                );
                conn.close_after_flush = true;
                return;
            }
            if avail - 4 < len as usize {
                return; // tail still en route
            }
            let frame_end = conn.parsed + 4 + len as usize;
            // Copy the whole frame — length prefix included — into the
            // loop's scratch: forwarded upstream verbatim, and it
            // frees the connection's buffers for re-borrowing.
            let mut frame = std::mem::take(&mut self.frame);
            frame.clear();
            frame.extend_from_slice(&conn.in_buf[conn.parsed..frame_end]);
            conn.parsed = frame_end;
            self.shared.requests_served.fetch_add(1, Ordering::Relaxed);
            self.serve_frame(idx, &frame);
            self.frame = frame;
        }
    }

    fn serve_frame(&mut self, idx: usize, frame: &[u8]) {
        let version = frame[4];
        let op = frame[5];
        if op == opcode::HELLO {
            let mut out = self.take_out(idx);
            let close = self.handle_hello(&mut out, frame);
            self.put_out(idx, out, close);
            return;
        }
        if version != PROTOCOL_VERSION {
            let conn = self.conns[idx].as_mut().expect("live conn");
            protocol::encode_error(
                &mut conn.out,
                ErrorCode::BadVersion,
                "protocol version mismatch",
            );
            conn.close_after_flush = true;
            return;
        }
        let mut out = self.take_out(idx);
        let panicked = {
            let this = &mut *self;
            let out = &mut out;
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                let payload = &frame[6..];
                match op {
                    opcode::POINT_QUERY => this.scatter_query(out, frame, 0),
                    opcode::UNCERTAIN_QUERY => this.scatter_query(out, frame, 1),
                    opcode::UPDATE_BATCH => this.handle_updates(out, payload),
                    opcode::COMMIT => this.handle_commit(out, payload),
                    opcode::STATS => this.handle_stats(out),
                    opcode::PING => protocol::encode_empty(out, opcode::PONG),
                    opcode::SUBSCRIBE => this.handle_subscribe(out, frame, idx),
                    opcode::UNSUBSCRIBE => this.handle_unsubscribe(out, payload, idx),
                    opcode::TICK => this.handle_tick(out, payload, idx),
                    _ => {
                        protocol::encode_error(out, ErrorCode::BadOpcode, "unknown request opcode")
                    }
                }
            }))
            .is_err()
        };
        if panicked {
            // Router state may be torn mid-operation: fail safe by
            // poisoning both catalogs rather than serving from it.
            self.shared.poison[0].store(true, Ordering::SeqCst);
            self.shared.poison[1].store(true, Ordering::SeqCst);
            protocol::encode_error(&mut out, ErrorCode::Internal, "router handler panicked");
            self.put_out(idx, out, true);
            return;
        }
        self.put_out(idx, out, false);
    }

    fn take_out(&mut self, idx: usize) -> Vec<u8> {
        std::mem::take(&mut self.conns[idx].as_mut().expect("live conn").out)
    }

    fn put_out(&mut self, idx: usize, out: Vec<u8>, close: bool) {
        let conn = self.conns[idx].as_mut().expect("live conn");
        conn.out = out;
        if close {
            conn.close_after_flush = true;
        }
    }

    fn handle_hello(&self, out: &mut Vec<u8>, frame: &[u8]) -> bool {
        let version = frame[4];
        let payload = &frame[6..];
        let peer = protocol::hello_peer_version(payload).unwrap_or(version);
        if version != PROTOCOL_VERSION || peer != PROTOCOL_VERSION {
            protocol::encode_error(
                out,
                ErrorCode::BadVersion,
                &format!(
                    "unsupported protocol version {peer}; this router speaks v{PROTOCOL_VERSION}"
                ),
            );
            return true;
        }
        match protocol::decode_hello(payload) {
            Ok((_, _role, _flags)) => {
                let ack = HelloAck {
                    role: Role::Router,
                    flags: 0,
                    point_epoch: self.shared.epochs[0].load(Ordering::SeqCst),
                    uncertain_epoch: self.shared.epochs[1].load(Ordering::SeqCst),
                    point_recovered: 0,
                    uncertain_recovered: 0,
                    point_shards: self.shared.shard_totals.0,
                    uncertain_shards: self.shared.shard_totals.1,
                };
                protocol::encode_hello_ack(out, &ack);
            }
            Err(e) => wire_error(out, e),
        }
        false
    }

    /// The hot path: scatter the frame to every node in one pipelined
    /// burst, gather the answers, merge. Allocation-free once warm —
    /// error arms are the only place a `format!` lives.
    fn scatter_query(&mut self, out: &mut Vec<u8>, frame: &[u8], cat: usize) {
        if self.shared.poison[cat].load(Ordering::SeqCst) {
            encode_poisoned(out);
            return;
        }
        let gate = self
            .shared
            .commit_gate
            .read()
            .unwrap_or_else(|e| e.into_inner());
        let mut sent = 0usize;
        let mut failed: Option<(ErrorCode, String)> = None;
        for (i, client) in self.upstream.iter_mut().enumerate() {
            self.shared.nodes[i].routed.fetch_add(1, Ordering::Relaxed);
            match client.send_raw(frame) {
                Ok(()) => sent += 1,
                Err(e) => {
                    self.shared.nodes[i]
                        .connected
                        .store(false, Ordering::SeqCst);
                    failed = Some((ErrorCode::Unavailable, format!("node {i} unreachable: {e}")));
                    break;
                }
            }
        }
        // Every node that got the frame must be read — even after a
        // failure — or its queued answer would desynchronize the next
        // request on that upstream connection.
        for i in 0..sent {
            let client = &mut self.upstream[i];
            match client.recv_answer_into(&mut self.partials[i]) {
                Ok(()) => {
                    self.shared.nodes[i].merged.fetch_add(1, Ordering::Relaxed);
                }
                Err(ClientError::Server { code, message, .. }) => {
                    // The node rejected the frame (every node decodes
                    // identically, so all report the same complaint);
                    // forward the first verbatim.
                    self.partials[i].results.clear();
                    if failed.is_none() {
                        failed = Some((code.unwrap_or(ErrorCode::Internal), message));
                    }
                }
                Err(e) => {
                    self.partials[i].results.clear();
                    self.shared.nodes[i]
                        .connected
                        .store(false, Ordering::SeqCst);
                    if failed.is_none() {
                        failed = Some((
                            ErrorCode::Unavailable,
                            format!("node {i} failed mid-query: {e}"),
                        ));
                    }
                }
            }
        }
        drop(gate);
        if let Some((code, message)) = failed {
            protocol::encode_error(out, code, &message);
            return;
        }
        merge_partials_into(
            &mut self.merged,
            self.partials.iter().map(|a| a.results.as_slice()),
        );
        protocol::encode_answer(out, &self.merged);
    }

    fn handle_updates(&mut self, out: &mut Vec<u8>, payload: &[u8]) {
        let mut wp = self
            .shared
            .write_plane
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let wp = &mut *wp;
        wp.updates.clear();
        if let Err(e) = protocol::decode_update_batch(payload, &mut wp.updates) {
            wire_error(out, e);
            return;
        }
        let mut touched = [false, false];
        for u in &wp.updates {
            touched[catalog_of(u)] = true;
        }
        if (touched[0] && self.shared.poison[0].load(Ordering::SeqCst))
            || (touched[1] && self.shared.poison[1].load(Ordering::SeqCst))
        {
            encode_poisoned(out);
            return;
        }
        let n = wp.clients.len();
        for batch in wp.node_batches.iter_mut() {
            batch.clear();
        }
        for u in wp.updates.drain(..) {
            let node = shard_of(update_id(&u), n);
            wp.node_batches[node].push(u);
        }
        let mut accepted: u64 = 0;
        let mut fail: Option<String> = None;
        for i in 0..n {
            if wp.node_batches[i].is_empty() {
                continue;
            }
            self.shared.nodes[i].routed.fetch_add(1, Ordering::Relaxed);
            match wp.clients[i].submit(&wp.node_batches[i]) {
                Ok(a) => {
                    accepted += a as u64;
                    self.shared.nodes[i].merged.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    if !matches!(e, ClientError::Server { .. }) {
                        self.shared.nodes[i]
                            .connected
                            .store(false, Ordering::SeqCst);
                    }
                    fail = Some(format!("routing updates to node {i} failed: {e}"));
                    break;
                }
            }
        }
        if let Some(message) = fail {
            // Part of the batch may already be buffered on other
            // nodes: the cluster's pending state is torn.
            for (cat, &hit) in touched.iter().enumerate() {
                if hit {
                    self.shared.poison[cat].store(true, Ordering::SeqCst);
                }
            }
            protocol::encode_error(out, ErrorCode::Unavailable, &message);
            return;
        }
        for (cat, &hit) in touched.iter().enumerate() {
            if hit {
                wp.routed[cat] = true;
            }
        }
        protocol::encode_update_ack(out, accepted as u32);
    }

    fn handle_commit(&mut self, out: &mut Vec<u8>, payload: &[u8]) {
        let target = match protocol::decode_commit(payload) {
            Ok(t) => t,
            Err(e) => {
                wire_error(out, e);
                return;
            }
        };
        let cat = cat_of(target);
        let mut wp = self
            .shared
            .write_plane
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let wp = &mut *wp;
        let _gate = self
            .shared
            .commit_gate
            .write()
            .unwrap_or_else(|e| e.into_inner());
        if self.shared.poison[cat].load(Ordering::SeqCst) {
            encode_poisoned(out);
            return;
        }
        if !wp.routed[cat] {
            // Cluster-level empty commit: mirror the sharded engine's
            // early-out — current epoch, empty report, no node traffic.
            let report = CommitReport {
                epoch: self.shared.epochs[cat].load(Ordering::SeqCst),
                ..Default::default()
            };
            protocol::encode_commit_done(out, &report);
            return;
        }
        let n = wp.clients.len();
        wp.reports.clear();
        let mut fail: Option<String> = None;
        for i in 0..n {
            self.shared.nodes[i].routed.fetch_add(1, Ordering::Relaxed);
            match wp.clients[i].commit(target) {
                Ok(report) => {
                    self.shared.nodes[i].merged.fetch_add(1, Ordering::Relaxed);
                    match target {
                        CommitTarget::Point => self.shared.nodes[i]
                            .point_epoch
                            .store(report.epoch, Ordering::Relaxed),
                        CommitTarget::Uncertain => self.shared.nodes[i]
                            .uncertain_epoch
                            .store(report.epoch, Ordering::Relaxed),
                    }
                    wp.reports.push(report);
                }
                Err(e) => {
                    if !matches!(e, ClientError::Server { .. }) {
                        self.shared.nodes[i]
                            .connected
                            .store(false, Ordering::SeqCst);
                    }
                    fail = Some(format!("commit on node {i} failed: {e}"));
                    break;
                }
            }
        }
        if let Some(message) = fail {
            // Some nodes committed, some did not: the epoch is torn.
            // Poison the catalog so the tear is never observable.
            self.shared.poison[cat].store(true, Ordering::SeqCst);
            protocol::encode_error(out, ErrorCode::Unavailable, &message);
            return;
        }
        let epoch = self.shared.epochs[cat].fetch_add(1, Ordering::SeqCst) + 1;
        wp.routed[cat] = false;
        let mut merged = CommitReport {
            epoch,
            ..Default::default()
        };
        for (i, report) in wp.reports.iter().enumerate() {
            merged.arrivals += report.arrivals;
            merged.departures += report.departures;
            merged.moves += report.moves;
            merged.missed_departures += report.missed_departures;
            if let Some(dirty) = report.dirty {
                merged.dirty = Some(match merged.dirty {
                    None => dirty,
                    Some(d) => d.hull(dirty),
                });
            }
            let shards = match target {
                CommitTarget::Point => self.shared.node_shards[i].0,
                CommitTarget::Uncertain => self.shared.node_shards[i].1,
            } as usize;
            if report.per_shard.is_empty() {
                // The node had nothing pending (its commit early-outed)
                // — its shards applied zero updates.
                merged.per_shard.extend(std::iter::repeat_n(0, shards));
            } else {
                merged.per_shard.extend_from_slice(&report.per_shard);
            }
        }
        if wp.subs.values().any(|e| e.target == target) {
            if let Some(message) = gather_deltas(wp, &self.shared, target, epoch) {
                // The commit applied everywhere, but subscriber deltas
                // can no longer be collected coherently — poisoning
                // beats silently dropping a delta from the stream.
                self.shared.poison[cat].store(true, Ordering::SeqCst);
                protocol::encode_error(out, ErrorCode::Unavailable, &message);
                return;
            }
        }
        protocol::encode_commit_done(out, &merged);
    }

    fn handle_subscribe(&mut self, out: &mut Vec<u8>, frame: &[u8], idx: usize) {
        let payload = &frame[6..];
        let mut r = protocol::Reader::new(payload);
        let (target, _slack) = match protocol::decode_subscribe_header(&mut r) {
            Ok(header) => header,
            Err(e) => {
                wire_error(out, e);
                return;
            }
        };
        let cat = cat_of(target);
        if self.shared.poison[cat].load(Ordering::SeqCst) {
            encode_poisoned(out);
            return;
        }
        let conn = self.conns[idx].as_ref().expect("live conn");
        if conn.subs[cat] as usize >= MAX_SUBSCRIPTIONS {
            protocol::encode_error(
                out,
                ErrorCode::TooManySubscriptions,
                "subscription limit reached",
            );
            return;
        }
        let (owner_loop, owner_conn) = (self.loop_idx, conn.id);
        let mut wp = self
            .shared
            .write_plane
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let wp = &mut *wp;
        let n = wp.clients.len();
        let mut acks: Vec<u64> = Vec::with_capacity(n);
        let mut fail: Option<(ErrorCode, String)> = None;
        for i in 0..n {
            self.shared.nodes[i].routed.fetch_add(1, Ordering::Relaxed);
            match wp.clients[i].forward_subscribe_into(frame, &mut wp.sub_partials[i]) {
                Ok((ack_target, node_sub, _epoch, _recovered)) => {
                    debug_assert_eq!(ack_target, target);
                    self.shared.nodes[i].merged.fetch_add(1, Ordering::Relaxed);
                    acks.push(node_sub);
                }
                Err(e) => {
                    let code = match &e {
                        ClientError::Server { code, .. } => code.unwrap_or(ErrorCode::Internal),
                        _ => {
                            self.shared.nodes[i]
                                .connected
                                .store(false, Ordering::SeqCst);
                            ErrorCode::Unavailable
                        }
                    };
                    fail = Some((code, format!("subscribe on node {i} failed: {e}")));
                    break;
                }
            }
        }
        if let Some((code, message)) = fail {
            // Roll back the nodes that did accept, so a failed
            // subscribe leaves no orphan standing queries.
            for (j, &sid) in acks.iter().enumerate() {
                let _ = wp.clients[j].unsubscribe(target, sid);
            }
            protocol::encode_error(out, code, &message);
            return;
        }
        merge_partials_into(
            &mut wp.sub_merged,
            wp.sub_partials.iter().map(|a| a.results.as_slice()),
        );
        let rsub = wp.next_sub_id;
        wp.next_sub_id += 1;
        let tag = cat as u8;
        for (i, &sid) in acks.iter().enumerate() {
            wp.by_node.insert((i, tag, sid), rsub);
        }
        wp.subs.insert(
            rsub,
            SubEntry {
                target,
                node_ids: acks,
                owner_loop,
                owner_conn,
            },
        );
        let epoch = self.shared.epochs[cat].load(Ordering::SeqCst);
        protocol::encode_sub_ack(out, target, rsub, epoch, 0, &wp.sub_merged.results);
        self.conns[idx].as_mut().expect("live conn").subs[cat] += 1;
    }

    fn handle_unsubscribe(&mut self, out: &mut Vec<u8>, payload: &[u8], idx: usize) {
        let (target, rsub) = match protocol::decode_unsubscribe(payload) {
            Ok(req) => req,
            Err(e) => {
                wire_error(out, e);
                return;
            }
        };
        let cat = cat_of(target);
        let conn_id = self.conns[idx].as_ref().expect("live conn").id;
        let mut wp = self
            .shared
            .write_plane
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let wp = &mut *wp;
        let known = wp.subs.get(&rsub).is_some_and(|e| {
            e.target == target && e.owner_loop == self.loop_idx && e.owner_conn == conn_id
        });
        if !known {
            protocol::encode_unsub_done(out, false);
            return;
        }
        let entry = wp.subs.remove(&rsub).expect("checked above");
        let tag = cat as u8;
        for (i, &sid) in entry.node_ids.iter().enumerate() {
            wp.by_node.remove(&(i, tag, sid));
            self.shared.nodes[i].routed.fetch_add(1, Ordering::Relaxed);
            match wp.clients[i].unsubscribe(target, sid) {
                Ok(_) => {
                    self.shared.nodes[i].merged.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    if !matches!(e, ClientError::Server { .. }) {
                        self.shared.nodes[i]
                            .connected
                            .store(false, Ordering::SeqCst);
                    }
                }
            }
        }
        protocol::encode_unsub_done(out, true);
        let conn = self.conns[idx].as_mut().expect("live conn");
        conn.subs[cat] = conn.subs[cat].saturating_sub(1);
    }

    fn handle_tick(&mut self, out: &mut Vec<u8>, payload: &[u8], idx: usize) {
        let (target, rsub, pdf) = match protocol::decode_tick(payload) {
            Ok(req) => req,
            Err(e) => {
                wire_error(out, e);
                return;
            }
        };
        let cat = cat_of(target);
        if self.shared.poison[cat].load(Ordering::SeqCst) {
            encode_poisoned(out);
            return;
        }
        let conn_id = self.conns[idx].as_ref().expect("live conn").id;
        let mut wp = self
            .shared
            .write_plane
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let wp = &mut *wp;
        let known = wp.subs.get(&rsub).is_some_and(|e| {
            e.target == target && e.owner_loop == self.loop_idx && e.owner_conn == conn_id
        });
        if !known {
            wire_error(out, WireError::Malformed("unknown subscription id"));
            return;
        }
        wp.tick_delta.upserts.clear();
        wp.tick_delta.removals.clear();
        let n = wp.clients.len();
        let mut fail: Option<(ErrorCode, String)> = None;
        for i in 0..n {
            let sid = wp.subs[&rsub].node_ids[i];
            self.shared.nodes[i].routed.fetch_add(1, Ordering::Relaxed);
            match wp.clients[i].tick_into(target, sid, &pdf, &mut wp.note) {
                Ok(()) => {
                    self.shared.nodes[i].merged.fetch_add(1, Ordering::Relaxed);
                    wp.tick_delta
                        .upserts
                        .extend_from_slice(&wp.note.delta.upserts);
                    wp.tick_delta
                        .removals
                        .extend_from_slice(&wp.note.delta.removals);
                }
                Err(e) => {
                    let code = match &e {
                        ClientError::Server { code, .. } => code.unwrap_or(ErrorCode::Internal),
                        _ => {
                            self.shared.nodes[i]
                                .connected
                                .store(false, Ordering::SeqCst);
                            ErrorCode::Unavailable
                        }
                    };
                    fail = Some((code, format!("tick on node {i} failed: {e}")));
                    break;
                }
            }
        }
        if let Some((code, message)) = fail {
            // A partial tick leaves node-side issuer positions torn
            // for this one subscription; the owner should resubscribe.
            protocol::encode_error(out, code, &message);
            return;
        }
        sort_matches(&mut wp.tick_delta.upserts);
        wp.tick_delta.removals.sort_unstable();
        let epoch = self.shared.epochs[cat].load(Ordering::SeqCst);
        protocol::encode_notify(out, target, rsub, epoch, NotifyCause::Tick, &wp.tick_delta);
    }

    fn handle_stats(&mut self, out: &mut Vec<u8>) {
        // Read the counter before doing any work, so the response
        // excludes allocations this very probe performs afterwards.
        let allocations = alloc_count::allocations();
        let _gate = self
            .shared
            .commit_gate
            .read()
            .unwrap_or_else(|e| e.into_inner());
        let m = &mut self.merged_stats;
        m.alloc_counting = alloc_count::counting_installed();
        m.allocations = allocations;
        m.requests_served = self.shared.requests_served.load(Ordering::Relaxed);
        m.capacity = self.shared.capacity as u32;
        m.event_loops = self.shared.event_loops;
        m.connections = self.shared.connections.load(Ordering::SeqCst);
        m.dropped_pushes = self.shared.dropped_pushes.load(Ordering::Relaxed);
        m.point.epoch = self.shared.epochs[0].load(Ordering::SeqCst);
        m.point.len = 0;
        m.point.pending = 0;
        m.point.shard_sizes.clear();
        m.uncertain.epoch = self.shared.epochs[1].load(Ordering::SeqCst);
        m.uncertain.len = 0;
        m.uncertain.pending = 0;
        m.uncertain.shard_sizes.clear();
        m.filter_nanos = 0;
        m.prune_nanos = 0;
        m.refine_nanos = 0;
        m.refine_batches.fill(0);
        m.nodes.clear();
        for i in 0..self.upstream.len() {
            self.shared.nodes[i].routed.fetch_add(1, Ordering::Relaxed);
            match self.upstream[i].stats_into(&mut self.node_stats[i]) {
                Ok(()) => {
                    self.shared.nodes[i].merged.fetch_add(1, Ordering::Relaxed);
                    let ns = &self.node_stats[i];
                    self.shared.nodes[i]
                        .point_epoch
                        .store(ns.point.epoch, Ordering::Relaxed);
                    self.shared.nodes[i]
                        .uncertain_epoch
                        .store(ns.uncertain.epoch, Ordering::Relaxed);
                    m.point.len += ns.point.len;
                    m.point.pending += ns.point.pending;
                    m.point.shard_sizes.extend_from_slice(&ns.point.shard_sizes);
                    m.uncertain.len += ns.uncertain.len;
                    m.uncertain.pending += ns.uncertain.pending;
                    m.uncertain
                        .shard_sizes
                        .extend_from_slice(&ns.uncertain.shard_sizes);
                    m.filter_nanos += ns.filter_nanos;
                    m.prune_nanos += ns.prune_nanos;
                    m.refine_nanos += ns.refine_nanos;
                    for (acc, v) in m.refine_batches.iter_mut().zip(ns.refine_batches.iter()) {
                        *acc += v;
                    }
                }
                Err(_) => {
                    self.shared.nodes[i]
                        .connected
                        .store(false, Ordering::SeqCst);
                }
            }
            m.nodes.push(NodeHealth {
                connected: self.shared.nodes[i].connected.load(Ordering::SeqCst),
                point_epoch: self.shared.nodes[i].point_epoch.load(Ordering::Relaxed),
                uncertain_epoch: self.shared.nodes[i].uncertain_epoch.load(Ordering::Relaxed),
                routed: self.shared.nodes[i].routed.load(Ordering::Relaxed),
                merged: self.shared.nodes[i].merged.load(Ordering::Relaxed),
            });
        }
        protocol::encode_stats_report_from(out, m);
    }

    /// Delivers deposited NOTIFY frames to the connections of this
    /// loop. A deposit whose connection is gone counts as a dropped
    /// push, matching the server's accounting.
    fn drain_mailbox(&mut self) {
        {
            let mut deposits = self.shared.mailboxes[self.loop_idx]
                .deposits
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if deposits.is_empty() {
                return;
            }
            std::mem::swap(&mut *deposits, &mut self.deposits_scratch);
        }
        let mut deposits = std::mem::take(&mut self.deposits_scratch);
        for (conn_id, frame) in deposits.drain(..) {
            let found = self
                .conns
                .iter()
                .position(|c| c.as_ref().is_some_and(|c| c.id == conn_id));
            let Some(idx) = found else {
                self.shared.dropped_pushes.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            let conn = self.conns[idx].as_mut().expect("found above");
            if conn.close_after_flush {
                self.shared.dropped_pushes.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            conn.out.extend_from_slice(&frame);
            conn.push_ends.push_back(conn.out.len());
            if conn.pending_out() > self.shared.push_backlog {
                self.close(idx); // push backpressure overflow
                continue;
            }
            if self.flush(idx).is_err() || self.settle(idx).is_err() {
                self.close(idx);
            }
        }
        self.deposits_scratch = deposits;
    }

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

    fn settle(&mut self, idx: usize) -> Result<(), Close> {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return Ok(());
        };
        let pending = conn.pending_out();
        if conn.close_after_flush && pending == 0 {
            return Err(Close::Gone);
        }
        let want_read = !conn.close_after_flush && pending <= self.shared.push_backlog;
        let want_write = pending > 0;
        if want_read != conn.want_read || want_write != conn.want_write {
            let interest = Interest {
                readable: want_read,
                writable: want_write,
            };
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), idx as u64, interest)
                .is_err()
            {
                return Err(Close::Gone);
            }
            conn.want_read = want_read;
            conn.want_write = want_write;
        }
        Ok(())
    }
}

/// Collects the commit's pushed deltas from every node behind a PING
/// barrier, merges them per router subscription (disjoint id
/// partitions: concatenate, sort), stamps the cluster epoch, and
/// deposits one NOTIFY per touched subscription into the owner loop's
/// mailbox — all *before* the caller writes its COMMIT_DONE, so a
/// subscriber never observes an acknowledged commit without its delta
/// en route. Returns an error message if a node could not be drained.
fn gather_deltas(
    wp: &mut WritePlane,
    shared: &Shared,
    target: CommitTarget,
    epoch: u64,
) -> Option<String> {
    let n = wp.clients.len();
    for i in 0..n {
        // The server flushes commit NOTIFYs before answering a PING,
        // so after the pong every push is queued client-side.
        if let Err(e) = wp.clients[i].ping() {
            shared.nodes[i].connected.store(false, Ordering::SeqCst);
            return Some(format!("collecting deltas from node {i} failed: {e}"));
        }
    }
    wp.deltas.clear();
    let tag = cat_of(target) as u8;
    for i in 0..n {
        while let Some(note) = wp.clients[i].take_notification() {
            if note.cause != NotifyCause::Commit || note.target != target {
                continue;
            }
            let Some(&rsub) = wp.by_node.get(&(i, tag, note.sub_id)) else {
                continue;
            };
            let slot = wp.deltas.entry(rsub).or_default();
            slot.upserts.extend_from_slice(&note.delta.upserts);
            slot.removals.extend_from_slice(&note.delta.removals);
        }
    }
    // Deterministic delivery order across subscriptions.
    let mut touched: Vec<u64> = wp.deltas.keys().copied().collect();
    touched.sort_unstable();
    for rsub in touched {
        let mut delta = wp.deltas.remove(&rsub).expect("key listed");
        sort_matches(&mut delta.upserts);
        delta.removals.sort_unstable();
        let entry = &wp.subs[&rsub];
        let mut push = Vec::new();
        protocol::encode_notify(
            &mut push,
            entry.target,
            rsub,
            epoch,
            NotifyCause::Commit,
            &delta,
        );
        shared.deposit(entry.owner_loop, entry.owner_conn, push);
    }
    None
}

fn cat_of(target: CommitTarget) -> usize {
    match target {
        CommitTarget::Point => 0,
        CommitTarget::Uncertain => 1,
    }
}

fn catalog_of(update: &WireUpdate) -> usize {
    match update {
        WireUpdate::Point(_) => 0,
        WireUpdate::Uncertain(_) => 1,
    }
}

/// The id that decides which node owns an update — the same id the
/// sharded engine hashes, so node order is shard order.
fn update_id(update: &WireUpdate) -> ObjectId {
    match update {
        WireUpdate::Point(Update::Arrive(o)) | WireUpdate::Point(Update::Move(o)) => o.id,
        WireUpdate::Point(Update::Depart(id)) => *id,
        WireUpdate::Uncertain(Update::Arrive(o)) | WireUpdate::Uncertain(Update::Move(o)) => o.id,
        WireUpdate::Uncertain(Update::Depart(id)) => *id,
    }
}

fn encode_poisoned(out: &mut Vec<u8>) {
    protocol::encode_error(
        out,
        ErrorCode::Unavailable,
        "catalog poisoned by a failed cluster operation; restart the router",
    );
}

fn wire_error(buf: &mut Vec<u8>, e: WireError) {
    let message = match e {
        WireError::Malformed(what) => what,
        WireError::UnsupportedPdf => "pdf kind not encodable on the wire",
    };
    protocol::encode_error(buf, e.into(), message);
}
