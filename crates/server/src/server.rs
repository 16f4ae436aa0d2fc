//! The TCP query server: a frame handler over the connection core.
//!
//! ```text
//!   connection core ([`crate::conn`]): listener, event loops, frame
//!   reassembly, buffered output, push accounting, idle reaping
//!                  │ one [`Handler`] per event loop
//!                  ▼
//!   per-loop ShardServer ×2 + request/answer slots — the zero-alloc
//!   hot path; per-connection subscription registries
//!                  │ reads: pinned epoch snapshot
//!                  │ writes: submit / commit on the issuing loop
//!                  ▼
//!   DurableCatalog ×2 — the engine's commit lock serializes commits
//!   across loops; a published commit wakes every loop, so pushes
//!   reach idle subscribers promptly
//! ```
//!
//! Sockets, framing, backpressure and push delivery are the core's
//! (its module docs state the guarantees once); this module is what a
//! frame *does*:
//!
//! * **Queries never leave their loop**: the handler decodes into its
//!   long-lived request slot, executes against its pinned epoch
//!   snapshot through a warm [`ShardServer`] (rebinding — two atomic
//!   increments, no allocation — when the engine has published a newer
//!   epoch), and encodes the answer into the connection's output
//!   buffer. After warm-up the whole request path performs **zero heap
//!   allocations**; the CI smoke job gates on this over a real socket.
//! * **Updates and commits** run on the loop that reads them. Each
//!   catalog's share of an UPDATE_BATCH is submitted under one hold of
//!   that catalog engine's pending lock, and a commit drains the queue
//!   whole under the engine's commit lock, so a commit from any loop
//!   takes a batch whole or not at all, and the
//!   [`iloc_core::serve`] invariant ("no torn epochs, ever") holds
//!   across the network exactly as in process. A client's update →
//!   commit order is its connection's frame order. A commit briefly
//!   pauses the loop's other connections, and a published one wakes
//!   every loop so its pushes go out immediately.
//! * **Subscriptions live with their connection**: each connection
//!   lazily carries a [`SubscriptionRegistry`] per catalog. Before
//!   every frame — and on every loop sweep — the core asks whether a
//!   commit published a new epoch
//!   ([`SubscriptionRegistry::needs_pump`], one atomic load) and has
//!   the handler pump: the commit's dirty region stabs the envelope
//!   index, only affected subscriptions re-evaluate, and their deltas
//!   are queued as NOTIFY pushes ahead of the frame's own response, so
//!   a subscriber's view advances in epoch order and a TICK's delta
//!   composes on top of everything already delivered. Steady-state
//!   TICKs inside the safe envelope stay on the zero-allocation
//!   budget. Subscriptions end with the connection.
//!
//! Malformed payloads are answered with error frames (see
//! [`crate::protocol`]). A panic while serving one frame is caught by
//! the core and quarantined here by rebuilding that loop's scratch
//! state.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use iloc_core::durable::{
    CatalogRecovery, DurableCatalog, DurableObject, FsyncPolicy, StoreConfig, StoreError,
};
use iloc_core::pipeline::QueryRequest;
use iloc_core::serve::{ServeEngine, ShardServer, Update};
use iloc_core::stats::REFINE_BATCH_BUCKETS;
use iloc_core::subscribe::SubscriptionRegistry;
use iloc_core::{
    Integrator, Issuer, PointEngine, QueryAnswer, QueryStats, RangeSpec, UncertainEngine,
};
use iloc_geometry::Rect;
use iloc_uncertainty::{PointObject, UncertainObject};

use crate::alloc_count;
use crate::conn::{self, ConnId, Core, Handler, PushQueue, Remote};
use crate::protocol::{
    self, opcode, wire_error, CatalogStats, CommitTarget, ErrorCode, HelloAck, NotifyCause, Role,
    StatsReport, WireError, WireStrategy, WireUpdate,
};

/// Tunables for one listening server — the connection core's, as the
/// server adds none of its own.
pub use crate::conn::Config as ServerConfig;

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

/// What every handler shares.
struct Shared {
    engines: Arc<Engines>,
    stage: StageCounters,
    /// Engine epochs this process started at, indexed by
    /// [`CommitTarget`] — carried in every SUB_ACK so reconnecting
    /// subscribers detect restarts.
    recovered_epochs: [u64; 2],
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
    /// Engine epochs at construction, indexed by [`CommitTarget`] —
    /// what SUB_ACK reports so a reconnecting subscriber can detect a
    /// restart.
    recovered_epochs: [u64; 2],
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
            recovered_epochs: [0, 0],
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
        let recovered_epochs = [point_rec.epoch, uncertain_rec.epoch];
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

    /// Binds `config.addr` and starts the connection core with one
    /// handler per event loop, plus (for a durable server) the
    /// checkpointer. The returned handle owns the threads; dropping it
    /// (or calling [`ServerHandle::shutdown`]) stops them.
    pub fn start(&self, config: &ServerConfig) -> io::Result<ServerHandle> {
        assert!(config.event_loops > 0, "need at least one event loop");
        assert!(config.max_connections > 0, "need at least one connection");
        let shared = Arc::new(Shared {
            engines: Arc::clone(&self.engines),
            stage: StageCounters::default(),
            recovered_epochs: self.recovered_epochs,
        });
        let core = conn::start(config, |_, remote| {
            Ok(ServerHandler {
                shared: Arc::clone(&shared),
                remote: remote.clone(),
                state: LoopState::new(&shared.engines),
            })
        })?;

        let checkpointer = if self.checkpoint_every > 0 && self.engines.point.is_durable() {
            let engines = Arc::clone(&self.engines);
            let remote = core.remote().clone();
            let every = self.checkpoint_every;
            let poll = config.idle_poll;
            Some(
                thread::Builder::new()
                    .name("iloc-checkpoint".to_string())
                    .spawn(move || checkpoint_loop(engines, remote, every, poll))?,
            )
        } else {
            None
        };

        Ok(ServerHandle {
            core,
            checkpointer,
            engines: Arc::clone(&self.engines),
        })
    }
}

/// A running server: its bound address and its threads.
#[derive(Debug)]
pub struct ServerHandle {
    core: Core,
    /// The checkpointer, if any; it ends once the core has stopped.
    checkpointer: Option<thread::JoinHandle<()>>,
    engines: Arc<Engines>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.core.addr()
    }

    /// Stops the server: stops the connection core (connections close;
    /// buffered output that has not reached the socket is discarded),
    /// joins every thread, and makes the final state durable. Dropping
    /// the handle does the same.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.core.stop();
        if let Some(t) = self.checkpointer.take() {
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

/// Background checkpointer: whenever a catalog's epoch has advanced
/// `every` commits past its last checkpoint, snapshot it to disk and
/// rotate its log — entirely off the commit path (commits proceed
/// concurrently; only the final log rotation takes the store lock).
fn checkpoint_loop(engines: Arc<Engines>, remote: Remote, every: u64, poll: Duration) {
    while !remote.stopping() {
        thread::sleep(poll);
        checkpoint_if_due(&engines.point, every, "point");
        checkpoint_if_due(&engines.uncertain, every, "uncertain");
    }
}

/// Checkpoints `catalog` once its epoch is `every` commits past its
/// last checkpoint.
fn checkpoint_if_due<E: Catalog>(catalog: &DurableCatalog<E>, every: u64, name: &str) {
    let due = catalog
        .last_checkpoint_epoch()
        .is_some_and(|last| catalog.epoch() >= last + every);
    if due {
        if let Err(e) = catalog.checkpoint() {
            eprintln!("iloc-server: {name} checkpoint failed: {e}");
        }
    }
}

/// One catalog as the server keeps it: picks that catalog's half out
/// of every per-catalog pair — the engines, a loop's lanes, a
/// connection's registries — so QUERY, COMMIT, SUBSCRIBE, UNSUBSCRIBE
/// and TICK each run one generic path for both catalogs.
trait Catalog: ServeEngine<Strategy: WireStrategy, Object: DurableObject> {
    fn catalog(engines: &Engines) -> &DurableCatalog<Self>;
    fn lane(state: &mut LoopState) -> (&mut Lane<Self>, &mut QueryAnswer);
    fn registry(subs: &mut ConnSubs) -> &mut SubscriptionRegistry<Self>;
}

impl Catalog for PointEngine {
    fn catalog(engines: &Engines) -> &DurableCatalog<Self> {
        &engines.point
    }
    fn lane(state: &mut LoopState) -> (&mut Lane<Self>, &mut QueryAnswer) {
        (&mut state.point, &mut state.answer)
    }
    fn registry(subs: &mut ConnSubs) -> &mut SubscriptionRegistry<Self> {
        &mut subs.point
    }
}

impl Catalog for UncertainEngine {
    fn catalog(engines: &Engines) -> &DurableCatalog<Self> {
        &engines.uncertain
    }
    fn lane(state: &mut LoopState) -> (&mut Lane<Self>, &mut QueryAnswer) {
        (&mut state.uncertain, &mut state.answer)
    }
    fn registry(subs: &mut ConnSubs) -> &mut SubscriptionRegistry<Self> {
        &mut subs.uncertain
    }
}

/// One catalog's share of a loop's scratch: the warm shard server, the
/// request slot the catalog's QUERY and SUBSCRIBE frames decode into,
/// and the catalog's share of one UPDATE_BATCH.
struct Lane<E: ServeEngine> {
    server: ShardServer<E>,
    request: QueryRequest<E::Strategy>,
    updates: Vec<Update<E::Object>>,
}

impl<E: Catalog> Lane<E> {
    fn new(engines: &Engines) -> Lane<E> {
        Lane {
            server: ShardServer::new(E::catalog(engines).snapshot()),
            request: QueryRequest {
                issuer: Issuer::uniform(Rect::from_coords(0.0, 0.0, 1.0, 1.0)),
                range: RangeSpec::square(1.0),
                integrator: Integrator::Auto,
                constraint: None,
            },
            updates: Vec::new(),
        }
    }

    /// Rebinds the shard server when the catalog has published a newer
    /// epoch than the one it reads: two atomic increments, no
    /// allocation — and the last reader to leave an epoch frees the
    /// pages only it still held.
    fn follow(&mut self, catalog: &DurableCatalog<E>) {
        if catalog.epoch() != self.server.snapshot().epoch() {
            self.server.rebind(catalog.snapshot());
        }
    }
}

/// Everything one event loop reuses across requests and connections —
/// the reason the steady-state path allocates nothing.
struct LoopState {
    point: Lane<PointEngine>,
    uncertain: Lane<UncertainEngine>,
    answer: QueryAnswer,
    /// One UPDATE_BATCH as decoded, then split per catalog.
    updates: Vec<WireUpdate>,
    /// The STATS_REPORT this loop fills and sends; its shard-size
    /// buffers are sized at construction, so a probe allocates nothing.
    stats: StatsReport,
}

impl LoopState {
    fn new(engines: &Engines) -> LoopState {
        let mut stats = StatsReport::default();
        fill_catalog_stats(&mut stats.point, &engines.point);
        fill_catalog_stats(&mut stats.uncertain, &engines.uncertain);
        LoopState {
            point: Lane::new(engines),
            uncertain: Lane::new(engines),
            answer: QueryAnswer::default(),
            updates: Vec::new(),
            stats,
        }
    }
}

/// Overwrites one catalog's slice of a stats report with its current
/// epoch, sizes and pending updates (allocation-free once `out` has
/// held the shard count — fixed for the catalog's lifetime).
fn fill_catalog_stats<E: Catalog>(out: &mut CatalogStats, catalog: &DurableCatalog<E>) {
    let snapshot = catalog.snapshot();
    out.epoch = snapshot.epoch();
    out.len = snapshot.len() as u64;
    out.pending = catalog.pending_len() as u64;
    out.shard_sizes.clear();
    out.shard_sizes
        .extend(snapshot.shard_sizes().map(|n| n as u64));
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

/// The server's frame handler: one per event loop.
struct ServerHandler {
    shared: Arc<Shared>,
    remote: Remote,
    state: LoopState,
}

impl Handler for ServerHandler {
    /// Lazily created on first SUBSCRIBE.
    type Conn = Option<Box<ConnSubs>>;

    fn hello_ack(&self) -> HelloAck {
        let point = self.shared.engines.point.snapshot();
        let uncertain = self.shared.engines.uncertain.snapshot();
        let [point_recovered, uncertain_recovered] = self.shared.recovered_epochs;
        HelloAck {
            role: Role::Server,
            flags: 0,
            point_epoch: point.epoch(),
            uncertain_epoch: uncertain.epoch(),
            point_recovered,
            uncertain_recovered,
            point_shards: point.shard_count() as u32,
            uncertain_shards: uncertain.shard_count() as u32,
        }
    }

    fn frame(&mut self, frame: &[u8], _id: ConnId, subs: &mut Self::Conn, out: &mut Vec<u8>) {
        self.handle_frame(frame[5], &frame[6..], subs, out);
    }

    /// A loop that is sent no query must not keep the epoch of its
    /// last one alive: a published commit wakes every loop, and
    /// the sweep that wake starts follows both catalogs.
    fn sweeping(&mut self) {
        self.state.point.follow(&self.shared.engines.point);
        self.state.uncertain.follow(&self.shared.engines.uncertain);
    }

    fn needs_pump(&self, subs: &Self::Conn) -> bool {
        subs.as_ref()
            .is_some_and(|subs| subs.needs_pump(&self.shared.engines))
    }

    fn pump(&mut self, subs: &mut Self::Conn, pushes: &mut PushQueue<'_>) {
        let Some(subs) = subs else { return };
        let engines = &self.shared.engines;
        pump::<PointEngine>(subs, engines, pushes);
        pump::<UncertainEngine>(subs, engines, pushes);
    }

    /// A caught panic may have left the loop scratch mid-flight;
    /// rebuild it. Other connections are unaffected.
    fn quarantine(&mut self) {
        self.state = LoopState::new(&self.shared.engines);
    }
}

/// Queues one NOTIFY push per subscription of `E`'s registry whose
/// answer the commits since its last pump changed.
fn pump<E: Catalog>(subs: &mut ConnSubs, engines: &Engines, pushes: &mut PushQueue<'_>) {
    let target = E::Strategy::TARGET;
    E::registry(subs).pump(E::catalog(engines).engine(), |id, epoch, delta| {
        pushes.queue_push(|out| {
            protocol::encode_notify(out, target, id, epoch, NotifyCause::Commit, delta)
        })
    });
}

impl ServerHandler {
    /// Serves one frame: decodes the payload, executes, and appends
    /// the response to `out`. Every failure mode becomes an error
    /// frame. A frame that addresses one catalog is dispatched on it
    /// once, into [`ServerHandler::catalog_frame`].
    fn handle_frame(
        &mut self,
        op: u8,
        payload: &[u8],
        subs: &mut Option<Box<ConnSubs>>,
        out: &mut Vec<u8>,
    ) {
        let target = match op {
            opcode::POINT_QUERY => Ok(CommitTarget::Point),
            opcode::UNCERTAIN_QUERY => Ok(CommitTarget::Uncertain),
            opcode::COMMIT | opcode::SUBSCRIBE | opcode::UNSUBSCRIBE | opcode::TICK => {
                protocol::peek_target(payload)
            }
            opcode::UPDATE_BATCH => return self.handle_updates(payload, out),
            opcode::STATS => return self.handle_stats(payload, out),
            opcode::PING if payload.is_empty() => return protocol::encode_empty(out, opcode::PONG),
            opcode::PING => return wire_error(out, WireError::Malformed("ping payload")),
            _ => {
                return protocol::encode_error(out, ErrorCode::BadOpcode, "unknown request opcode")
            }
        };
        match target {
            Ok(CommitTarget::Point) => self.catalog_frame::<PointEngine>(op, payload, subs, out),
            Ok(CommitTarget::Uncertain) => {
                self.catalog_frame::<UncertainEngine>(op, payload, subs, out)
            }
            Err(e) => wire_error(out, e),
        }
    }

    /// Serves a QUERY, COMMIT, SUBSCRIBE, UNSUBSCRIBE or TICK frame
    /// that addresses catalog `E`.
    fn catalog_frame<E: Catalog>(
        &mut self,
        op: u8,
        payload: &[u8],
        subs: &mut Option<Box<ConnSubs>>,
        out: &mut Vec<u8>,
    ) {
        let ServerHandler {
            shared,
            remote,
            state,
        } = self;
        let catalog = E::catalog(&shared.engines);
        let target = E::Strategy::TARGET;
        let (lane, answer) = E::lane(state);
        match op {
            opcode::COMMIT => match protocol::decode_commit(payload) {
                // A durable commit logs before it publishes; a failed
                // append publishes nothing.
                Ok(_) => match catalog.commit() {
                    Ok(report) => {
                        protocol::encode_commit_done(out, &report);
                        // A published epoch (an empty commit reports no
                        // shards) may owe pushes on any loop, and every
                        // loop still pins the epoch it replaced: wake
                        // them all to pump and let go.
                        if !report.per_shard.is_empty() {
                            remote.wake_all();
                        }
                    }
                    Err(_) => protocol::encode_error(
                        out,
                        ErrorCode::Internal,
                        "durable commit failed; epoch not published",
                    ),
                },
                Err(e) => wire_error(out, e),
            },
            opcode::SUBSCRIBE => {
                let mut r = protocol::Reader::new(payload);
                let decoded = protocol::decode_subscribe_header(&mut r).and_then(|(_, slack)| {
                    protocol::decode_subscribe_body(&mut r, &mut lane.request)?;
                    Ok(slack)
                });
                let slack = match decoded {
                    Ok(slack) => slack,
                    Err(e) => return wire_error(out, e),
                };
                let registry = E::registry(subs.get_or_insert_with(|| Box::new(ConnSubs::new())));
                if registry.len() >= MAX_SUBSCRIPTIONS {
                    return protocol::encode_error(
                        out,
                        ErrorCode::TooManySubscriptions,
                        "subscription limit reached",
                    );
                }
                let id = registry.subscribe(catalog.engine(), lane.request.clone(), slack);
                let sub = registry.get(id).expect("just subscribed");
                protocol::encode_sub_ack(
                    out,
                    target,
                    id,
                    sub.epoch(),
                    shared.recovered_epochs[target as usize],
                    sub.last_answer(),
                );
            }
            opcode::UNSUBSCRIBE => match protocol::decode_unsubscribe(payload) {
                Ok((_, id)) => {
                    let existed = subs
                        .as_deref_mut()
                        .is_some_and(|subs| E::registry(subs).unsubscribe(id));
                    protocol::encode_unsub_done(out, existed);
                }
                Err(e) => wire_error(out, e),
            },
            // The core pumped before dispatch, so this tick's delta
            // composes on top of every commit already delivered; a
            // steady tick inside the envelope runs probe-free and
            // allocation-free.
            opcode::TICK => match protocol::decode_tick(payload) {
                Ok((_, id, pdf)) => {
                    let delta = subs
                        .as_deref_mut()
                        .and_then(|subs| E::registry(subs).tick(catalog.engine(), id, pdf));
                    match delta {
                        Some((epoch, delta)) => protocol::encode_notify(
                            out,
                            target,
                            id,
                            epoch,
                            NotifyCause::Tick,
                            delta,
                        ),
                        None => wire_error(out, WireError::Malformed("unknown subscription id")),
                    }
                }
                Err(e) => wire_error(out, e),
            },
            // The catalog's QUERY: `handle_frame` sends nothing else here.
            _ => match protocol::decode_query_into(payload, &mut lane.request) {
                Ok(()) => {
                    lane.follow(catalog);
                    lane.server.execute_into(&lane.request, answer);
                    shared.stage.absorb(&answer.stats);
                    protocol::encode_answer(out, answer);
                }
                Err(e) => wire_error(out, e),
            },
        }
    }

    fn handle_updates(&mut self, payload: &[u8], out: &mut Vec<u8>) {
        let engines = &self.shared.engines;
        let state = &mut self.state;
        if let Err(e) = protocol::decode_update_batch(payload, &mut state.updates) {
            return wire_error(out, e);
        }
        let accepted = state.updates.len() as u32;
        for update in state.updates.drain(..) {
            match update {
                WireUpdate::Point(u) => state.point.updates.push(u),
                WireUpdate::Uncertain(u) => state.uncertain.updates.push(u),
            }
        }
        // One call per catalog: its engine's pending lock is held over
        // the whole share, so a commit from another loop takes all of
        // it or none of it.
        engines.point.submit_all(state.point.updates.drain(..));
        engines
            .uncertain
            .submit_all(state.uncertain.updates.drain(..));
        protocol::encode_update_ack(out, accepted);
    }

    fn handle_stats(&mut self, payload: &[u8], out: &mut Vec<u8>) {
        if !payload.is_empty() {
            return wire_error(out, WireError::Malformed("stats payload"));
        }
        // Read the counter before filling the report, so the probe
        // excludes its own response from the reported total.
        let allocations = alloc_count::allocations();
        let shared = &self.shared;
        let report = &mut self.state.stats;
        let core = self.remote.counters();
        report.alloc_counting = alloc_count::counting_installed();
        report.allocations = allocations;
        report.requests_served = core.requests_served;
        report.capacity = core.capacity;
        report.event_loops = core.event_loops;
        report.connections = core.connections;
        report.dropped_pushes = core.dropped_pushes;
        fill_catalog_stats(&mut report.point, &shared.engines.point);
        fill_catalog_stats(&mut report.uncertain, &shared.engines.uncertain);
        report.filter_nanos = shared.stage.filter_nanos.load(Ordering::Relaxed);
        report.prune_nanos = shared.stage.prune_nanos.load(Ordering::Relaxed);
        report.refine_nanos = shared.stage.refine_nanos.load(Ordering::Relaxed);
        for (slot, counter) in report
            .refine_batches
            .iter_mut()
            .zip(&shared.stage.refine_batches)
        {
            *slot = counter.load(Ordering::Relaxed);
        }
        protocol::encode_stats_report_from(out, report);
    }
}
