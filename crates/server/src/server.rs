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
//!   DurableCatalog ×2 — the catalog's lock serializes commits across
//!   loops; a published commit wakes every loop, so pushes reach idle
//!   subscribers promptly
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
//!   that catalog's lock and commits serialize on it, so a commit from
//!   any loop takes a batch whole or not at all, and the
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
use iloc_core::pipeline::{PointRequest, UncertainRequest};
use iloc_core::serve::{ServeEngine, ShardServer, ShardedEngine, Update};
use iloc_core::stats::REFINE_BATCH_BUCKETS;
use iloc_core::subscribe::{ContinuousEngine, SubscriptionRegistry};
use iloc_core::{Issuer, PointEngine, QueryAnswer, QueryStats, RangeSpec, UncertainEngine};
use iloc_geometry::Rect;
use iloc_uncertainty::{PdfKind, PointObject, UncertainObject};

use crate::alloc_count;
use crate::conn::{self, ConnId, Core, Handler, PushQueue, Remote};
use crate::protocol::{
    self, opcode, wire_error, CommitTarget, CountersView, ErrorCode, HelloAck, NotifyCause, Role,
    WireError, WireUpdate,
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
    /// One UPDATE_BATCH as decoded, then split per catalog.
    updates: Vec<WireUpdate>,
    point_updates: Vec<Update<PointObject>>,
    uncertain_updates: Vec<Update<UncertainObject>>,
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
            point_updates: Vec::new(),
            uncertain_updates: Vec::new(),
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

/// The server's frame handler: one per event loop.
struct ServerHandler {
    shared: Arc<Shared>,
    remote: Remote,
    state: LoopState,
}

/// Rebinds `server` when `catalog` has published a newer epoch than
/// the one it reads: two atomic increments, no allocation — and the
/// last reader to leave an epoch frees the pages only it still held.
fn follow<E: ServeEngine>(server: &mut ShardServer<E>, catalog: &DurableCatalog<E>)
where
    E::Object: DurableObject,
{
    if catalog.epoch() != server.snapshot().epoch() {
        server.rebind(catalog.snapshot());
    }
}

impl Handler for ServerHandler {
    /// Lazily created on first SUBSCRIBE.
    type Conn = Option<Box<ConnSubs>>;

    fn hello_ack(&self) -> HelloAck {
        let point = self.shared.engines.point.snapshot();
        let uncertain = self.shared.engines.uncertain.snapshot();
        HelloAck {
            role: Role::Server,
            flags: 0,
            point_epoch: point.epoch(),
            uncertain_epoch: uncertain.epoch(),
            point_recovered: self.shared.recovered_epochs.0,
            uncertain_recovered: self.shared.recovered_epochs.1,
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
        follow(&mut self.state.point, &self.shared.engines.point);
        follow(&mut self.state.uncertain, &self.shared.engines.uncertain);
    }

    fn needs_pump(&self, subs: &Self::Conn) -> bool {
        subs.as_ref()
            .is_some_and(|subs| subs.needs_pump(&self.shared.engines))
    }

    fn pump(&mut self, subs: &mut Self::Conn, pushes: &mut PushQueue<'_>) {
        let Some(subs) = subs else { return };
        let engines = &self.shared.engines;
        pump(
            &mut subs.point,
            engines.point.engine(),
            CommitTarget::Point,
            pushes,
        );
        pump(
            &mut subs.uncertain,
            engines.uncertain.engine(),
            CommitTarget::Uncertain,
            pushes,
        );
    }

    /// A caught panic may have left the loop scratch mid-flight;
    /// rebuild it. Other connections are unaffected.
    fn quarantine(&mut self) {
        self.state = LoopState::new(&self.shared.engines);
    }
}

/// Queues one NOTIFY push per subscription of `registry` whose answer
/// the commits since its last pump changed.
fn pump<E: ContinuousEngine>(
    registry: &mut SubscriptionRegistry<E>,
    engine: &ShardedEngine<E>,
    target: CommitTarget,
    pushes: &mut PushQueue<'_>,
) {
    registry.pump(engine, |id, epoch, delta| {
        pushes.queue_push(|out| {
            protocol::encode_notify(out, target, id, epoch, NotifyCause::Commit, delta)
        })
    });
}

/// Registers `request` as a standing query on `registry` and appends
/// its SUB_ACK (or the limit error).
fn subscribe<E: ContinuousEngine>(
    registry: &mut SubscriptionRegistry<E>,
    engine: &ShardedEngine<E>,
    target: CommitTarget,
    request: &E::Request,
    slack: f64,
    recovered_epoch: u64,
    out: &mut Vec<u8>,
) where
    E::Request: Clone,
{
    if registry.len() >= MAX_SUBSCRIPTIONS {
        protocol::encode_error(
            out,
            ErrorCode::TooManySubscriptions,
            "subscription limit reached",
        );
        return;
    }
    let id = registry.subscribe(engine, request.clone(), slack);
    let sub = registry.get(id).expect("just subscribed");
    protocol::encode_sub_ack(
        out,
        target,
        id,
        sub.epoch(),
        recovered_epoch,
        sub.last_answer(),
    );
}

/// Moves subscription `id`'s issuer and appends the NOTIFY that
/// answers the tick; `false` when `registry` has no such id.
fn tick<E: ContinuousEngine>(
    registry: &mut SubscriptionRegistry<E>,
    engine: &ShardedEngine<E>,
    target: CommitTarget,
    id: u64,
    pdf: PdfKind,
    out: &mut Vec<u8>,
) -> bool {
    // The core pumped before dispatch, so this tick's delta composes
    // on top of every commit already delivered; a steady tick inside
    // the envelope runs probe-free and allocation-free.
    registry
        .tick(engine, id, pdf)
        .map(|(epoch, delta)| {
            protocol::encode_notify(out, target, id, epoch, NotifyCause::Tick, delta)
        })
        .is_some()
}

impl ServerHandler {
    /// Serves one frame: decodes the payload, executes, and appends
    /// the response to `out`. Every failure mode becomes an error
    /// frame.
    fn handle_frame(
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
        let engines = &shared.engines;
        match op {
            opcode::POINT_QUERY => {
                match protocol::decode_point_query_into(payload, &mut state.point_req) {
                    Ok(()) => {
                        follow(&mut state.point, &engines.point);
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
                        follow(&mut state.uncertain, &engines.uncertain);
                        state
                            .uncertain
                            .execute_into(&state.uncertain_req, &mut state.answer);
                        shared.stage.absorb(&state.answer.stats);
                        protocol::encode_answer(out, &state.answer);
                    }
                    Err(e) => wire_error(out, e),
                }
            }
            opcode::UPDATE_BATCH => {
                match protocol::decode_update_batch(payload, &mut state.updates) {
                    Ok(()) => {
                        let accepted = state.updates.len() as u32;
                        for update in state.updates.drain(..) {
                            match update {
                                WireUpdate::Point(u) => state.point_updates.push(u),
                                WireUpdate::Uncertain(u) => state.uncertain_updates.push(u),
                            }
                        }
                        // One call per catalog: its lock is held over
                        // the whole share, so a commit from another
                        // loop takes all of it or none of it.
                        engines.point.submit_all(state.point_updates.drain(..));
                        engines
                            .uncertain
                            .submit_all(state.uncertain_updates.drain(..));
                        protocol::encode_update_ack(out, accepted);
                    }
                    Err(e) => wire_error(out, e),
                }
            }
            opcode::COMMIT => match protocol::decode_commit(payload) {
                Ok(target) => {
                    // A durable commit logs before it publishes; a
                    // failed append publishes nothing.
                    let committed = match target {
                        CommitTarget::Point => engines.point.commit(),
                        CommitTarget::Uncertain => engines.uncertain.commit(),
                    };
                    match committed {
                        Ok(report) => {
                            protocol::encode_commit_done(out, &report);
                            // A published epoch (an empty commit reports
                            // no shards) may owe pushes on any loop, and
                            // every loop still pins the epoch it
                            // replaced: wake them all to pump and let go.
                            if !report.per_shard.is_empty() {
                                remote.wake_all();
                            }
                        }
                        Err(_) => protocol::encode_error(
                            out,
                            ErrorCode::Internal,
                            "durable commit failed; epoch not published",
                        ),
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
                let core = remote.counters();
                let counters = CountersView {
                    alloc_counting: alloc_count::counting_installed(),
                    allocations: alloc_count::allocations(),
                    requests_served: core.requests_served,
                    capacity: core.capacity,
                    event_loops: core.event_loops,
                    connections: core.connections,
                    dropped_pushes: core.dropped_pushes,
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
                let decoded =
                    protocol::decode_subscribe_header(&mut r).and_then(|(target, slack)| {
                        match target {
                            CommitTarget::Point => {
                                protocol::decode_subscribe_point_body(&mut r, &mut state.point_req)
                            }
                            CommitTarget::Uncertain => protocol::decode_subscribe_uncertain_body(
                                &mut r,
                                &mut state.uncertain_req,
                            ),
                        }?;
                        Ok((target, slack))
                    });
                match decoded {
                    Ok((target, slack)) => {
                        let subs = subs.get_or_insert_with(|| Box::new(ConnSubs::new()));
                        match target {
                            CommitTarget::Point => subscribe(
                                &mut subs.point,
                                engines.point.engine(),
                                target,
                                &state.point_req,
                                slack,
                                shared.recovered_epochs.0,
                                out,
                            ),
                            CommitTarget::Uncertain => subscribe(
                                &mut subs.uncertain,
                                engines.uncertain.engine(),
                                target,
                                &state.uncertain_req,
                                slack,
                                shared.recovered_epochs.1,
                                out,
                            ),
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
                    let ticked = match (target, subs.as_mut()) {
                        (CommitTarget::Point, Some(subs)) => {
                            let engine = engines.point.engine();
                            tick(&mut subs.point, engine, target, id, pdf, out)
                        }
                        (CommitTarget::Uncertain, Some(subs)) => {
                            let engine = engines.uncertain.engine();
                            tick(&mut subs.uncertain, engine, target, id, pdf, out)
                        }
                        (_, None) => false,
                    };
                    if !ticked {
                        wire_error(out, WireError::Malformed("unknown subscription id"));
                    }
                }
                Err(e) => wire_error(out, e),
            },
            _ => protocol::encode_error(out, ErrorCode::BadOpcode, "unknown request opcode"),
        }
    }
}
