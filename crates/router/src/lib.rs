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
//! * **Queries** scatter to every node **as a batch**: the query frames
//!   one read pass delivers are held back, and at the end of the pass
//!   (or before any other frame is served) every node gets the whole
//!   batch in one write; then, query by query in request order, every
//!   node's answer is read and fanned in with
//!   [`iloc_core::merge_partials_into`] — the same k-way merge of
//!   id-sorted runs the sharded engine's own fan-in uses; each node's
//!   answer frame is one run, decoded in place into that node's
//!   buffer. Disjoint id partitions, each in id order, make the merged
//!   answer bit-identical, and a node wakes once per batch instead of
//!   once per query. The steady-state path is **allocation-free once
//!   warm**: the batch, the per-node partial answers, and the merged
//!   answer all live in reusable loop-owned buffers.
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
//! Downstream, the router is a frame [`Handler`] over
//! [`iloc_server::conn`] — the same connection core as the server, so
//! sockets, reassembly, backpressure, push accounting and their
//! guarantees are that module's, stated there once. The core hands the
//! handler each whole frame borrowed from the read buffer, which is
//! what gets forwarded upstream verbatim; the router holds query
//! responses back until the core's [`Handler::release`], which the
//! core calls before any output of its own, so responses stay in
//! request order. A commit's merged NOTIFYs go into their owners'
//! mailboxes, one per subscribing connection, and every loop is woken
//! *before* the COMMIT_DONE is written; each owner's loop then queues
//! them through [`Handler::pump`], the server's push path, before the
//! next frame it handles. So a router and a server place a commit's
//! NOTIFY at the same point of a subscriber's stream: ahead of
//! anything it asks for after seeing the commit acknowledged, with the
//! same push budget and the same all-or-nothing close. The upstream
//! sockets are dialed
//! concurrently, one thread per connection, so router startup pays one
//! connect round trip, not N.
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
//! * No idle reaper and no `SO_SNDBUF` override: the router runs the
//!   core with `idle_timeout: None` / `send_buffer: None`. The core can
//!   do both; [`RouterConfig`] exposes neither yet.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::Duration;

use iloc_core::serve::{shard_of, CommitReport};
use iloc_core::subscribe::AnswerDelta;
use iloc_core::{merge_partials_into, QueryAnswer};
use iloc_server::client::{Client, ClientError};
use iloc_server::conn::{self, ConnId, Core, Handler, PushQueue, Remote};
use iloc_server::protocol::{
    self, opcode, wire_error, CommitTarget, ErrorCode, HelloAck, NodeHealth, Notification,
    NotifyCause, Role, StatsReport, WireError, WireUpdate,
};
use iloc_server::{alloc_count, MAX_SUBSCRIPTIONS};

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
    /// The node's catalog epochs at the last exchange, indexed by
    /// [`CommitTarget`].
    epochs: [AtomicU64; 2],
    routed: AtomicU64,
    merged: AtomicU64,
}

impl NodeState {
    /// Makes one call to this node and keeps its books: the call is
    /// `routed`, a success `merged`, and a failure other than the
    /// node's own error frame marks the node disconnected. What a
    /// failure means for the request is the caller's to decide.
    fn call<T>(&self, call: impl FnOnce() -> Result<T, ClientError>) -> Result<T, ClientError> {
        self.routed.fetch_add(1, Ordering::Relaxed);
        let result = call();
        match &result {
            Ok(_) => {
                self.merged.fetch_add(1, Ordering::Relaxed);
            }
            Err(ClientError::Server { .. }) => {}
            Err(_) => self.connected.store(false, Ordering::SeqCst),
        }
        result
    }

    fn health(&self) -> NodeHealth {
        NodeHealth {
            connected: self.connected.load(Ordering::SeqCst),
            point_epoch: self.epochs[0].load(Ordering::Relaxed),
            uncertain_epoch: self.epochs[1].load(Ordering::Relaxed),
            routed: self.routed.load(Ordering::Relaxed),
            merged: self.merged.load(Ordering::Relaxed),
        }
    }
}

/// One standing query as the router tracks it: the node-assigned ids
/// (index = node), the downstream connection that owns it and that
/// connection's mailbox, and the delta the current commit's per-node
/// NOTIFYs merge into (empty between commits; capacity kept).
struct SubEntry {
    target: CommitTarget,
    node_ids: Vec<u64>,
    owner_conn: ConnId,
    mailbox: Arc<Mailbox>,
    delta: AnswerDelta,
}

/// The commit NOTIFYs owed to one downstream connection: encoded back
/// to back by the committing loop, queued by the owner's loop at its
/// next [`Handler::pump`]. The buffer keeps its capacity.
#[derive(Default)]
struct Mailbox {
    /// The owner's `needs_pump`: stored `true` (Release) after a push
    /// is appended to `frames`, loaded (Acquire) before every frame the
    /// owner handles; cleared by the pump under the `frames` lock, so
    /// a push appended meanwhile waits for the next pump.
    owed: AtomicBool,
    frames: Mutex<Vec<u8>>,
}

/// A downstream connection's router state.
#[derive(Default)]
struct RouterConn {
    /// Standing-query counts per catalog (the router-side cap, and a
    /// fast "does close need upstream cleanup" check).
    subs: [u32; 2],
    /// Created at the first SUBSCRIBE; each of its [`SubEntry`]s holds
    /// a clone.
    mailbox: Option<Arc<Mailbox>>,
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
    /// Router ids of the subscriptions a commit's NOTIFYs reached.
    notified: Vec<u64>,
    tick_delta: AnswerDelta,
    note: Notification,
    /// One SUB_ACK answer per node, fanned into `sub_merged`.
    sub_partials: Vec<QueryAnswer>,
    sub_merged: QueryAnswer,
}

struct Shared {
    nodes: Vec<NodeState>,
    /// Per-node shard counts from the HELLO handshake, indexed by
    /// [`CommitTarget`] — sizes the zero-fill for untouched nodes in
    /// merged commit reports.
    node_shards: Vec<[u32; 2]>,
    shard_totals: [u32; 2],
    /// The cluster epochs `[point, uncertain]`, published only after
    /// every node acknowledged a commit.
    epochs: [AtomicU64; 2],
    /// Sticky per-catalog failure flags: set when a commit or routed
    /// update batch failed partway, after which the catalog's torn
    /// cluster state must not be observable — every dependent request
    /// answers [`ErrorCode::Unavailable`] until the router restarts.
    poison: [AtomicBool; 2],
    write_plane: Mutex<WritePlane>,
    /// A query batch holds this shared from its write to its last
    /// answer; a commit holds it exclusive while the epoch turns over,
    /// so no query ever observes half a commit.
    commit_gate: RwLock<()>,
}

/// The router. Construct nothing; call [`Router::start`].
#[derive(Debug)]
pub struct Router;

/// A running router: address and shutdown. Dropping it stops it.
pub struct RouterHandle {
    core: Core,
    nodes: usize,
}

impl RouterHandle {
    /// The bound listening address.
    pub fn addr(&self) -> SocketAddr {
        self.core.addr()
    }

    /// How many upstream nodes the router serves.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Stops the listener and every event loop, closes all
    /// connections, and joins the threads.
    pub fn shutdown(self) {
        drop(self);
    }
}

/// Dials `copies` connections to every node concurrently: one scoped
/// thread per connection, each a blocking connect bounded by
/// `timeout`, so startup pays one connect round trip, not one per
/// connection. Fails with the first connection's error in dial order.
fn dial_fleet(
    nodes: &[SocketAddr],
    copies: usize,
    timeout: Duration,
) -> io::Result<Vec<Vec<TcpStream>>> {
    let mut streams = thread::scope(|s| {
        let dials: Vec<_> = (0..copies)
            .flat_map(|_| nodes)
            .map(|addr| s.spawn(move || TcpStream::connect_timeout(addr, timeout)))
            .collect();
        dials
            .into_iter()
            .map(|dial| dial.join().expect("dial thread panicked"))
            .collect::<io::Result<Vec<_>>>()
    })?
    .into_iter();
    Ok((0..copies)
        .map(|_| (&mut streams).take(nodes.len()).collect())
        .collect())
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
        let mut shard_totals = [0u32; 2];
        let mut epochs = (0u64, 0u64);
        for client in &write_clients {
            let ack = *client.hello().expect("handshake stores the ack");
            node_shards.push([ack.point_shards, ack.uncertain_shards]);
            shard_totals[0] += ack.point_shards;
            shard_totals[1] += ack.uncertain_shards;
            // A restarted durable cluster resumes from the highest
            // epoch any node recovered to.
            epochs.0 = epochs.0.max(ack.point_epoch);
            epochs.1 = epochs.1.max(ack.uncertain_epoch);
            nodes.push(NodeState {
                connected: AtomicBool::new(true),
                epochs: [
                    AtomicU64::new(ack.point_epoch),
                    AtomicU64::new(ack.uncertain_epoch),
                ],
                routed: AtomicU64::new(0),
                merged: AtomicU64::new(0),
            });
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
                notified: Vec::new(),
                tick_delta: AnswerDelta::default(),
                note: Notification::default(),
                sub_partials: (0..n).map(|_| QueryAnswer::default()).collect(),
                sub_merged: QueryAnswer::default(),
            }),
            commit_gate: RwLock::new(()),
        });

        let core_config = conn::Config {
            addr: config.addr.clone(),
            event_loops: loops,
            max_connections: config.max_connections,
            idle_poll: config.idle_poll,
            idle_timeout: None,
            push_backlog: config.push_backlog,
            send_buffer: None,
        };
        let core = conn::start(&core_config, |_, remote| {
            let upstream = handshake(fleets.next().expect("query fleet"))?;
            Ok(RouterHandler::new(
                Arc::clone(&shared),
                remote.clone(),
                upstream,
            ))
        })?;
        Ok(RouterHandle { core, nodes: n })
    }
}

/// A query frame held back until its read pass is drained.
#[derive(Debug, Clone, Copy)]
enum Held {
    /// Forwarded in the batch; its answers are merged at the drain.
    Scattered,
    /// Its catalog was poisoned when it arrived: it answers
    /// `Unavailable` and reaches no node.
    Poisoned,
}

/// The router's frame handler, one per event loop: its own upstream
/// query clients (so loops never contend on reads) and warm scratch
/// buffers for the allocation-free steady state.
struct RouterHandler {
    shared: Arc<Shared>,
    remote: Remote,
    upstream: Vec<Client>,
    /// The query frames this pass held back, verbatim and back to back
    /// — what every node gets in one write.
    batch: Vec<u8>,
    /// One entry per held-back query, in request order.
    held: Vec<Held>,
    partials: Vec<QueryAnswer>,
    merged: QueryAnswer,
    node_stats: Vec<StatsReport>,
    merged_stats: StatsReport,
}

impl Handler for RouterHandler {
    type Conn = RouterConn;

    fn hello_ack(&self) -> HelloAck {
        HelloAck {
            role: Role::Router,
            flags: 0,
            point_epoch: self.shared.epochs[0].load(Ordering::SeqCst),
            uncertain_epoch: self.shared.epochs[1].load(Ordering::SeqCst),
            point_recovered: 0,
            uncertain_recovered: 0,
            point_shards: self.shared.shard_totals[0],
            uncertain_shards: self.shared.shard_totals[1],
        }
    }

    /// Queries are held back and scattered as one batch when the pass
    /// ends; anything else answers behind the queries ahead of it.
    fn frame(&mut self, frame: &[u8], id: ConnId, conn: &mut RouterConn, out: &mut Vec<u8>) {
        let payload = &frame[6..];
        match frame[5] {
            opcode::POINT_QUERY => return self.hold_query(frame, CommitTarget::Point),
            opcode::UNCERTAIN_QUERY => return self.hold_query(frame, CommitTarget::Uncertain),
            _ => self.drain(out),
        }
        match frame[5] {
            opcode::UPDATE_BATCH => self.handle_updates(out, payload),
            opcode::COMMIT => self.handle_commit(out, payload),
            opcode::STATS => self.handle_stats(out),
            opcode::PING => protocol::encode_empty(out, opcode::PONG),
            opcode::SUBSCRIBE => self.handle_subscribe(out, frame, id, conn),
            opcode::UNSUBSCRIBE => self.handle_unsubscribe(out, payload, id, &mut conn.subs),
            opcode::TICK => self.handle_tick(out, payload, id),
            _ => protocol::encode_error(out, ErrorCode::BadOpcode, "unknown request opcode"),
        }
    }

    fn release(&mut self, out: &mut Vec<u8>) {
        self.drain(out);
    }

    fn needs_pump(&self, conn: &RouterConn) -> bool {
        conn.mailbox
            .as_ref()
            .is_some_and(|mailbox| mailbox.owed.load(Ordering::Acquire))
    }

    /// Queues the mailbox's NOTIFYs, each as one push.
    fn pump(&mut self, conn: &mut RouterConn, pushes: &mut PushQueue<'_>) {
        let Some(mailbox) = &conn.mailbox else { return };
        let mut frames = mailbox.frames.lock().expect("mailbox lock poisoned");
        mailbox.owed.store(false, Ordering::Relaxed);
        let mut rest = frames.as_slice();
        while let Some(len) = rest.get(..4) {
            let len = 4 + u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
            let (frame, tail) = rest.split_at(len);
            pushes.queue_push(|out| out.extend_from_slice(frame));
            rest = tail;
        }
        frames.clear();
    }

    fn closed(&mut self, id: ConnId, conn: RouterConn) {
        if conn.subs != [0, 0] {
            self.cleanup_subs(id);
        }
    }

    /// Router state may be torn mid-operation: fail safe by poisoning
    /// both catalogs rather than serving from it.
    fn quarantine(&mut self) {
        self.shared.poison[0].store(true, Ordering::SeqCst);
        self.shared.poison[1].store(true, Ordering::SeqCst);
    }
}

impl RouterHandler {
    fn new(shared: Arc<Shared>, remote: Remote, upstream: Vec<Client>) -> RouterHandler {
        let n = upstream.len();
        RouterHandler {
            shared,
            remote,
            upstream,
            batch: Vec::new(),
            held: Vec::new(),
            partials: (0..n).map(|_| QueryAnswer::default()).collect(),
            merged: QueryAnswer::default(),
            node_stats: (0..n).map(|_| StatsReport::default()).collect(),
            merged_stats: StatsReport::default(),
        }
    }

    /// Unsubscribes every standing query a departed connection owned,
    /// on every node.
    fn cleanup_subs(&mut self, conn: ConnId) {
        let mut wp = self
            .shared
            .write_plane
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let wp = &mut *wp;
        let dead: Vec<u64> = wp
            .subs
            .iter()
            .filter(|(_, e)| e.owner_conn == conn)
            .map(|(&k, _)| k)
            .collect();
        for rsub in dead {
            let entry = wp.subs.remove(&rsub).expect("listed above");
            let tag = entry.target as u8;
            for (i, &sid) in entry.node_ids.iter().enumerate() {
                wp.by_node.remove(&(i, tag, sid));
                let _ = self.shared.nodes[i].call(|| wp.clients[i].unsubscribe(entry.target, sid));
            }
        }
    }

    /// Holds a query frame back for this pass's batch. A poisoned
    /// catalog is checked now, as the frame arrives, so its query
    /// reaches no node.
    fn hold_query(&mut self, frame: &[u8], target: CommitTarget) {
        if self.shared.poison[target as usize].load(Ordering::SeqCst) {
            self.held.push(Held::Poisoned);
        } else {
            self.batch.extend_from_slice(frame);
            self.held.push(Held::Scattered);
        }
    }

    /// The hot path: answers the held-back queries in request order.
    /// One commit-gate read guard covers the batch; under it every node
    /// gets the whole batch in one write, then each query reads every
    /// node's answer, merged. Allocation-free once warm — error arms
    /// are the only place a `format!` lives.
    fn drain(&mut self, out: &mut Vec<u8>) {
        if self.held.is_empty() {
            return;
        }
        // Taken up front, so a panic below cannot forward them twice.
        let mut batch = std::mem::take(&mut self.batch);
        let mut held = std::mem::take(&mut self.held);
        let scattered = held.iter().filter(|h| matches!(h, Held::Scattered)).count();
        let gate = self
            .shared
            .commit_gate
            .read()
            .unwrap_or_else(|e| e.into_inner());
        // A batch is what one read pass held — one `READ_CHUNK` read or
        // one whole frame — and every earlier batch was read to its last
        // answer, so the upstream send buffer is empty and takes the
        // whole write without the node reading. The write cannot
        // deadlock against a node that stopped reading because its own
        // answers back up.
        debug_assert!(batch.len() <= conn::READ_CHUNK || scattered == 1);
        let mut sent = 0usize;
        let mut unreachable: Option<String> = None;
        for (i, client) in self.upstream.iter_mut().enumerate() {
            self.shared.nodes[i]
                .routed
                .fetch_add(scattered as u64, Ordering::Relaxed);
            match client.send_raw(&batch) {
                Ok(()) => sent += 1,
                Err(e) => {
                    self.shared.nodes[i]
                        .connected
                        .store(false, Ordering::SeqCst);
                    unreachable = Some(format!("node {i} unreachable: {e}"));
                    break;
                }
            }
        }
        for h in &held {
            if let Held::Poisoned = h {
                encode_poisoned(out);
                continue;
            }
            let mut failed = unreachable
                .as_ref()
                .map(|message| (ErrorCode::Unavailable, message.clone()));
            // Every node that got the batch must be read for every
            // query — even after a failure — or its queued answer would
            // desynchronize the next request on that upstream connection.
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
            if let Some((code, message)) = failed {
                protocol::encode_error(out, code, &message);
                continue;
            }
            merge_partials_into(
                &mut self.merged,
                self.partials.iter().map(|a| a.results.as_slice()),
            );
            protocol::encode_answer(out, &self.merged);
        }
        drop(gate);
        batch.clear();
        held.clear();
        (self.batch, self.held) = (batch, held);
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
            touched[u.target() as usize] = true;
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
            let node = shard_of(u.id(), n);
            wp.node_batches[node].push(u);
        }
        let mut accepted: u64 = 0;
        let mut fail: Option<String> = None;
        for i in 0..n {
            let batch = &wp.node_batches[i];
            if batch.is_empty() {
                continue;
            }
            match self.shared.nodes[i].call(|| wp.clients[i].submit(batch)) {
                Ok(a) => accepted += a as u64,
                Err(e) => {
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
        let cat = target as usize;
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
        wp.reports.clear();
        let mut fail: Option<String> = None;
        for (i, node) in self.shared.nodes.iter().enumerate() {
            match node.call(|| wp.clients[i].commit(target)) {
                Ok(report) => {
                    node.epochs[cat].store(report.epoch, Ordering::Relaxed);
                    wp.reports.push(report);
                }
                Err(e) => {
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
            let shards = self.shared.node_shards[i][cat] as usize;
            if report.per_shard.is_empty() {
                // The node had nothing pending (its commit early-outed)
                // — its shards applied zero updates.
                merged.per_shard.extend(std::iter::repeat_n(0, shards));
            } else {
                merged.per_shard.extend_from_slice(&report.per_shard);
            }
        }
        if wp.subs.values().any(|e| e.target == target) {
            if let Some(message) = gather_deltas(wp, &self.shared, &self.remote, target, epoch) {
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

    fn handle_subscribe(
        &mut self,
        out: &mut Vec<u8>,
        frame: &[u8],
        owner_conn: ConnId,
        conn: &mut RouterConn,
    ) {
        let payload = &frame[6..];
        let mut r = protocol::Reader::new(payload);
        let (target, _slack) = match protocol::decode_subscribe_header(&mut r) {
            Ok(header) => header,
            Err(e) => {
                wire_error(out, e);
                return;
            }
        };
        let cat = target as usize;
        if self.shared.poison[cat].load(Ordering::SeqCst) {
            encode_poisoned(out);
            return;
        }
        if conn.subs[cat] as usize >= MAX_SUBSCRIPTIONS {
            protocol::encode_error(
                out,
                ErrorCode::TooManySubscriptions,
                "subscription limit reached",
            );
            return;
        }
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
            let partial = &mut wp.sub_partials[i];
            match self.shared.nodes[i].call(|| wp.clients[i].forward_subscribe_into(frame, partial))
            {
                Ok((ack_target, node_sub, _epoch, _recovered)) => {
                    debug_assert_eq!(ack_target, target);
                    acks.push(node_sub);
                }
                Err(e) => {
                    fail = Some((error_code(&e), format!("subscribe on node {i} failed: {e}")));
                    break;
                }
            }
        }
        if let Some((code, message)) = fail {
            // Roll back the nodes that did accept, so a failed
            // subscribe leaves no orphan standing queries.
            for (j, &sid) in acks.iter().enumerate() {
                let _ = self.shared.nodes[j].call(|| wp.clients[j].unsubscribe(target, sid));
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
        for (i, &sid) in acks.iter().enumerate() {
            wp.by_node.insert((i, target as u8, sid), rsub);
        }
        wp.subs.insert(
            rsub,
            SubEntry {
                target,
                node_ids: acks,
                owner_conn,
                mailbox: Arc::clone(conn.mailbox.get_or_insert_with(Default::default)),
                delta: AnswerDelta::new(),
            },
        );
        let epoch = self.shared.epochs[cat].load(Ordering::SeqCst);
        protocol::encode_sub_ack(out, target, rsub, epoch, 0, &wp.sub_merged.results);
        conn.subs[cat] += 1;
    }

    fn handle_unsubscribe(
        &mut self,
        out: &mut Vec<u8>,
        payload: &[u8],
        conn: ConnId,
        subs: &mut [u32; 2],
    ) {
        let (target, rsub) = match protocol::decode_unsubscribe(payload) {
            Ok(req) => req,
            Err(e) => {
                wire_error(out, e);
                return;
            }
        };
        let mut wp = self
            .shared
            .write_plane
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let wp = &mut *wp;
        let known = wp
            .subs
            .get(&rsub)
            .is_some_and(|e| e.target == target && e.owner_conn == conn);
        if !known {
            protocol::encode_unsub_done(out, false);
            return;
        }
        let entry = wp.subs.remove(&rsub).expect("checked above");
        for (i, &sid) in entry.node_ids.iter().enumerate() {
            wp.by_node.remove(&(i, target as u8, sid));
            // The router forgets the subscription whatever the node
            // answers; a failure only shows in the node's health.
            let _ = self.shared.nodes[i].call(|| wp.clients[i].unsubscribe(target, sid));
        }
        protocol::encode_unsub_done(out, true);
        let cat = target as usize;
        subs[cat] = subs[cat].saturating_sub(1);
    }

    fn handle_tick(&mut self, out: &mut Vec<u8>, payload: &[u8], conn: ConnId) {
        let (target, rsub, pdf) = match protocol::decode_tick(payload) {
            Ok(req) => req,
            Err(e) => {
                wire_error(out, e);
                return;
            }
        };
        let cat = target as usize;
        if self.shared.poison[cat].load(Ordering::SeqCst) {
            encode_poisoned(out);
            return;
        }
        let mut wp = self
            .shared
            .write_plane
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let wp = &mut *wp;
        let known = wp
            .subs
            .get(&rsub)
            .is_some_and(|e| e.target == target && e.owner_conn == conn);
        if !known {
            wire_error(out, WireError::Malformed("unknown subscription id"));
            return;
        }
        wp.tick_delta.clear();
        let n = wp.clients.len();
        let mut fail: Option<(ErrorCode, String)> = None;
        for i in 0..n {
            let sid = wp.subs[&rsub].node_ids[i];
            let note = &mut wp.note;
            match self.shared.nodes[i].call(|| wp.clients[i].tick_into(target, sid, &pdf, note)) {
                Ok(()) => wp.tick_delta.absorb(&wp.note.delta),
                Err(e) => {
                    fail = Some((error_code(&e), format!("tick on node {i} failed: {e}")));
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
        let core = self.remote.counters();
        m.requests_served = core.requests_served;
        m.capacity = core.capacity;
        m.event_loops = core.event_loops;
        m.connections = core.connections;
        m.dropped_pushes = core.dropped_pushes;
        for (cat, epoch) in [&mut m.point, &mut m.uncertain]
            .into_iter()
            .zip(&self.shared.epochs)
        {
            cat.epoch = epoch.load(Ordering::SeqCst);
            cat.len = 0;
            cat.pending = 0;
            cat.shard_sizes.clear();
        }
        m.filter_nanos = 0;
        m.prune_nanos = 0;
        m.refine_nanos = 0;
        m.refine_batches.fill(0);
        m.nodes.clear();
        for (i, node) in self.shared.nodes.iter().enumerate() {
            let (client, ns) = (&mut self.upstream[i], &mut self.node_stats[i]);
            if node.call(|| client.stats_into(ns)).is_ok() {
                for ((cat, from), epoch) in [&mut m.point, &mut m.uncertain]
                    .into_iter()
                    .zip([&ns.point, &ns.uncertain])
                    .zip(&node.epochs)
                {
                    epoch.store(from.epoch, Ordering::Relaxed);
                    cat.len += from.len;
                    cat.pending += from.pending;
                    cat.shard_sizes.extend_from_slice(&from.shard_sizes);
                }
                m.filter_nanos += ns.filter_nanos;
                m.prune_nanos += ns.prune_nanos;
                m.refine_nanos += ns.refine_nanos;
                for (acc, v) in m.refine_batches.iter_mut().zip(ns.refine_batches.iter()) {
                    *acc += v;
                }
            }
            m.nodes.push(node.health());
        }
        protocol::encode_stats_report_from(out, m);
    }
}

/// Collects the commit's pushed deltas from every node behind a PING
/// barrier, merges them per router subscription (per-node deltas are
/// id-sorted runs over disjoint id partitions, merged as they are
/// drained), stamps the cluster epoch, encodes one NOTIFY per touched
/// subscription into its owner's mailbox and wakes every loop — all
/// *before* the caller writes its COMMIT_DONE, so a subscriber never
/// observes an acknowledged commit without its delta owed. Returns an
/// error message if a node could not be drained.
fn gather_deltas(
    wp: &mut WritePlane,
    shared: &Shared,
    remote: &Remote,
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
    wp.notified.clear();
    let tag = target as u8;
    for i in 0..n {
        while let Some(note) = wp.clients[i].take_notification() {
            if note.cause != NotifyCause::Commit || note.target != target {
                continue;
            }
            let Some(&rsub) = wp.by_node.get(&(i, tag, note.sub_id)) else {
                continue;
            };
            let Some(entry) = wp.subs.get_mut(&rsub) else {
                continue;
            };
            entry.delta.absorb(&note.delta);
            wp.notified.push(rsub);
        }
    }
    // Deterministic delivery order across subscriptions.
    wp.notified.sort_unstable();
    wp.notified.dedup();
    for rsub in &wp.notified {
        let entry = wp.subs.get_mut(rsub).expect("listed above");
        let mailbox = &entry.mailbox;
        let mut frames = mailbox.frames.lock().expect("mailbox lock poisoned");
        protocol::encode_notify(
            &mut frames,
            entry.target,
            *rsub,
            epoch,
            NotifyCause::Commit,
            &entry.delta,
        );
        mailbox.owed.store(true, Ordering::Release);
        entry.delta.clear();
    }
    if !wp.notified.is_empty() {
        remote.wake_all();
    }
    None
}

/// The error code a failed node call forwards: the node's own code
/// when it answered with an error frame, `Unavailable` when it could
/// not answer at all.
fn error_code(e: &ClientError) -> ErrorCode {
    match e {
        ClientError::Server { code, .. } => code.unwrap_or(ErrorCode::Internal),
        _ => ErrorCode::Unavailable,
    }
}

fn encode_poisoned(out: &mut Vec<u8>) {
    protocol::encode_error(
        out,
        ErrorCode::Unavailable,
        "catalog poisoned by a failed cluster operation; restart the router",
    );
}
