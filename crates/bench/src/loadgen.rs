//! The load driver behind the `loadgen` binary: one plain-data
//! [`Scenario`], one [`run`], one [`Report`].
//!
//! A scenario says what stands in front of the clients (one server, or
//! a router scatter-gathering over N nodes), what each client
//! connection does (fires queries from a deterministic IPQ/C-IPQ/IUQ
//! pool, or holds a standing query and ticks its issuer along a random
//! walk), how large an idle **herd** of silent standing subscribers
//! stays connected meanwhile, and the sizes, rounds, warm-up and seed.
//! The four named presets are rows of that data: `subscribers` is
//! `subscribers-c10k` with an empty herd, and `cluster` is `net` behind
//! a router.
//!
//! Every run has the same three phases:
//!
//! 1. **Herd set-up** (empty for three of the presets) — `herd`
//!    connections register one small standing point query each and
//!    never speak again: the shape the event-driven connection core
//!    exists for, thousands of idle subscribers on a couple of loops.
//! 2. **Mixed window** — `clients` actor connections run their
//!    operation `ops_per_client` times each while one updater
//!    connection interleaves arrive/depart/move batches and epoch
//!    commits. Yields throughput under churn, client-observed
//!    round-trip percentiles and (ticking) push and delta counts.
//! 3. **Steady window** — the warm control connection runs the
//!    operation with no commits in flight (a query-only loop, or ticks
//!    at a fixed position inside the safe envelope), bracketed by two
//!    stats frames. The allocation delta the front end reports,
//!    divided by the operation count, is the **allocations per
//!    operation** that `loadgen --check-allocs` and
//!    `tests/zero_alloc.rs` hold at zero. The front end reports its
//!    own counter over the wire, so the gate reads the same in process
//!    and across processes — and behind a router it is the *router's*
//!    counter, the scatter-gather path's.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use iloc_core::pipeline::{PointRequest, UncertainRequest};
use iloc_core::serve::{shard_of, Update};
use iloc_core::{CipqStrategy, CiuqStrategy, Issuer, QueryAnswer, RangeSpec};
use iloc_datagen::{
    california_points, long_beach_rects, uniform_objects, PointUpdate, PointUpdateGen, UpdateMix,
    WorkloadGen, CALIFORNIA_SIZE, LONG_BEACH_SIZE,
};
use iloc_geometry::{Point, Rect};
use iloc_router::{Router, RouterConfig, RouterHandle};
use iloc_server::client::{Client, ClientError};
use iloc_server::protocol::{CommitTarget, Notification, NotifyCause, StatsReport, WireUpdate};
use iloc_server::server::{QueryServer, ServerConfig, ServerHandle};
use iloc_uncertainty::{ObjectId, PointObject, UncertainObject};

use crate::resilient::unit;

/// Paper Table 2 defaults: issuer half-size and range half-size.
const U: f64 = 250.0;
const W: f64 = 500.0;

/// Distinct requests in each pool an actor cycles through.
const POOL: usize = 64;

/// Half-size of a herd member's issuer region and range, and its
/// safe-envelope slack: small, so commits touch few herd envelopes and
/// pushes to the herd stay sparse.
const HERD_EXTENT: f64 = 100.0;

/// How long the control connection keeps retrying its connect: the CI
/// smoke jobs start the server binary and the load generator back to
/// back, and the server builds its catalogs before it listens. Every
/// later connection is made once — the front end is up by then, and a
/// refusal is an answer, not a race.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(60);

/// File descriptors the processes need besides connections: listener,
/// loop wakers, stdio, and slack for anything the allocator maps.
const FD_MARGIN: u64 = 256;

/// The preset names, in the order the documentation lists them.
pub const SCENARIOS: [&str; 4] = ["net", "subscribers", "subscribers-c10k", "cluster"];

/// What the clients connect to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontEnd {
    /// One `iloc-server`.
    Server,
    /// An `iloc-router` over `nodes` servers, the catalogs split among
    /// them by [`shard_of`] — node order is shard order, the
    /// deployment `tests/cluster.rs` proves bit-identical to one
    /// sharded engine. (In-process runs start that many; an external
    /// router has the nodes it has.)
    Router {
        /// Server nodes behind the router.
        nodes: usize,
    },
}

/// What one actor connection does, over and over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Fires requests from its pools: four point queries (IPQ, every
    /// fifth C-IPQ) to one uncertain query (IUQ / C-IUQ) — refining
    /// uncertain objects is an order of magnitude heavier, so this is
    /// a read-mostly mix.
    Query,
    /// Holds one standing IPQ and ticks its issuer along a seeded
    /// random walk, applying tick deltas and commit-pushed NOTIFYs to
    /// its local answer in wire order.
    Tick {
        /// Safe-envelope slack in space units.
        slack: f64,
        /// Walk step per tick (small against `slack`, so most ticks
        /// stay inside the envelope).
        step: f64,
    },
}

/// One load-generation run, as data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// What the clients connect to.
    pub front: FrontEnd,
    /// What each actor connection does.
    pub op: Op,
    /// Actor connections in the mixed window.
    pub clients: usize,
    /// Idle standing-query connections held open through both windows.
    pub herd: usize,
    /// Shards per catalog, split among the nodes (in-process only).
    pub shards: usize,
    /// Event-loop threads per server (in-process only).
    pub event_loops: usize,
    /// Point-catalog size. An in-process run builds it; the updater's
    /// stream is generated over it either way, so against an external
    /// server it must be the size that server was started with.
    pub points: usize,
    /// Uncertain-catalog size (in-process only).
    pub uncertain: usize,
    /// Operations per actor in the mixed window.
    pub ops_per_client: usize,
    /// Update batches the updater commits during the mixed window.
    pub update_rounds: usize,
    /// Updates per batch (each batch is followed by one commit).
    pub updates_per_round: usize,
    /// Operations in the allocation-gated steady window.
    pub steady_ops: usize,
    /// Warm-up operations per connection before any measurement.
    pub warmup: usize,
    /// Workload seed (shared with the servers' dataset seed).
    pub seed: u64,
}

impl Scenario {
    /// The preset table: the scenario `name` (one of [`SCENARIOS`]) at
    /// CI-smoke scale (`quick`, about a tenth) or at the paper's
    /// dataset sizes. `None` for a name that is not in the table.
    pub fn preset(name: &str, quick: bool) -> Option<Scenario> {
        let net = if quick {
            Scenario {
                front: FrontEnd::Server,
                op: Op::Query,
                clients: 4,
                herd: 0,
                shards: 4,
                event_loops: 2,
                points: 6_200,
                uncertain: 5_300,
                ops_per_client: 192,
                update_rounds: 8,
                updates_per_round: 96,
                steady_ops: 512,
                warmup: 64,
                seed: 2007,
            }
        } else {
            Scenario {
                front: FrontEnd::Server,
                op: Op::Query,
                clients: 8,
                herd: 0,
                shards: 4,
                event_loops: 2,
                points: CALIFORNIA_SIZE,
                uncertain: LONG_BEACH_SIZE,
                ops_per_client: 384,
                update_rounds: 16,
                updates_per_round: 512,
                steady_ops: 2_048,
                warmup: 128,
                seed: 2007,
            }
        };
        // Ticking drives the point catalog only; the uncertain one
        // stays tiny.
        let subscribers = Scenario {
            op: Op::Tick {
                slack: 400.0,
                step: 40.0,
            },
            uncertain: 64,
            ..net
        };
        Some(match name {
            "net" => net,
            "cluster" => Scenario {
                front: FrontEnd::Router { nodes: 3 },
                ..net
            },
            "subscribers" => subscribers,
            // A herd wide enough to prove the multiplexing
            // (connections ≫ event loops) within any sane fd limit at
            // quick scale, ten thousand at full; the windows are half
            // as long, the herd set-up is the long part.
            "subscribers-c10k" => Scenario {
                op: Op::Tick {
                    slack: 100.0,
                    step: 20.0,
                },
                herd: if quick { 512 } else { 10_000 },
                ops_per_client: subscribers.ops_per_client / 2,
                update_rounds: subscribers.update_rounds / 2,
                updates_per_round: if quick { 64 } else { 256 },
                steady_ops: subscribers.steady_ops / 2,
                warmup: subscribers.warmup / 2,
                ..subscribers
            },
            _ => return None,
        })
    }
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// The operation the actors ran (names the units below).
    pub op: Op,
    /// Actor connections driven, after the capacity clamp.
    pub clients: usize,
    /// Herd connections established, after the fd and capacity clamps.
    pub herd: usize,
    /// Wall clock of herd connect + subscribe.
    pub herd_setup: Duration,
    /// The front end's connection gauge with the whole herd attached.
    pub herd_connections: u64,
    /// Operations answered in the mixed window.
    pub ops: usize,
    /// Wall clock of the mixed window (operations + updates + commits).
    pub elapsed: Duration,
    /// Median client-observed round trip in the mixed window.
    pub p50: Duration,
    /// 99th-percentile round trip — what `--max-p99-ms` gates.
    pub p99: Duration,
    /// Matches returned across the mixed window (querying).
    pub results_total: usize,
    /// Commit-pushed NOTIFY frames the actors received (ticking).
    pub pushes: usize,
    /// Upserts + removals applied across all deltas (ticking).
    pub delta_entries: usize,
    /// Updates the updater submitted.
    pub updates_submitted: usize,
    /// Epoch commits during the mixed window.
    pub commits: usize,
    /// Operations in the steady window.
    pub steady_ops: usize,
    /// Front-end allocations per operation across the steady window;
    /// `None` when the front end does not count allocations — never a
    /// zero nobody measured.
    pub steady_allocs_per_op: Option<f64>,
    /// Pushes the front end dropped (closing slow readers) during this
    /// run; nothing here reads slowly, so any is a regression.
    pub dropped_pushes: u64,
    /// The stats frame that closed the steady window: frames served,
    /// event loops, cumulative pipeline stage times and refine-batch
    /// histogram and, from a router, per-node health.
    pub stats: StatsReport,
}

impl Report {
    /// Mixed-window throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }

    /// Fraction of the front end's measured pipeline time the refine
    /// stage took (0.0 when it reported no stage timings).
    pub fn refine_share(&self) -> f64 {
        let s = &self.stats;
        match s.filter_nanos + s.prune_nanos + s.refine_nanos {
            0 => 0.0,
            total => s.refine_nanos as f64 / total as f64,
        }
    }

    /// What one operation is called: "request", "routed request" or
    /// "tick".
    pub fn unit(&self) -> &'static str {
        match self.op {
            Op::Tick { .. } => "tick",
            Op::Query if self.stats.nodes.is_empty() => "request",
            Op::Query => "routed request",
        }
    }

    /// The one gate. Two checks are unconditional, for every run that
    /// reports the field: no cluster node unhealthy, no push dropped.
    /// `max_p99_ms` bounds the mixed-window p99 and `check_allocs`
    /// demands a counted, exactly-zero steady window. `Ok` carries one
    /// line per requested gate that held; `Err` is the first that did
    /// not.
    pub fn gate(&self, check_allocs: bool, max_p99_ms: Option<f64>) -> Result<Vec<String>, String> {
        let unit = self.unit();
        let mut held = Vec::new();
        if self.stats.nodes.iter().any(|n| !n.connected) {
            return Err("a cluster node went unhealthy during the run".to_string());
        }
        if self.dropped_pushes > 0 {
            return Err(format!(
                "{} pushes dropped on subscribers that kept reading (expected 0)",
                self.dropped_pushes
            ));
        }
        if let Some(max_ms) = max_p99_ms {
            let p99_ms = self.p99.as_secs_f64() * 1e3;
            if p99_ms > max_ms {
                return Err(format!(
                    "mixed-window {unit} p99 {p99_ms:.2}ms exceeds the {max_ms:.2}ms gate"
                ));
            }
            held.push(format!(
                "{unit} p99 {p99_ms:.2}ms within the {max_ms:.2}ms gate"
            ));
        }
        if check_allocs {
            let with_herd = if self.herd > 0 {
                " with the herd connected"
            } else {
                ""
            };
            match self.steady_allocs_per_op {
                None => {
                    return Err(
                        "--check-allocs needs a front end that counts allocations".to_string()
                    )
                }
                Some(allocs) if allocs > 0.0 => {
                    return Err(format!(
                        "steady-state {unit} path performed {allocs:.3} allocations per \
                         {unit}{with_herd} (expected 0)"
                    ))
                }
                Some(_) => held.push(format!(
                    "zero steady-state allocations per {unit}{with_herd}"
                )),
            }
        }
        Ok(held)
    }
}

/// Runs `scenario` against the front end at `addr` — or, without one,
/// against an in-process loopback deployment brought up for the run and
/// torn down after it.
pub fn run(addr: Option<SocketAddr>, scenario: &Scenario) -> Result<Report, ClientError> {
    match addr {
        // One client fd per connection lives in this process…
        Some(addr) => drive(addr, scenario, 1),
        // …or two: the client's end and the server's.
        None => {
            let deployment = Deployment::start(scenario)?;
            drive(deployment.addr(), scenario, 2)
        }
    }
}

/// The standard catalogs — `points` seeded California points (ids in
/// generation order) and `uncertain` Long Beach rectangles as
/// uniform-pdf objects, what `iloc-server` builds from the same flags
/// — split among `nodes` by the shard hash.
pub fn catalogs(
    points: usize,
    uncertain: usize,
    seed: u64,
    nodes: usize,
) -> Vec<(Vec<PointObject>, Vec<UncertainObject>)> {
    let mut parts: Vec<(Vec<PointObject>, Vec<UncertainObject>)> =
        (0..nodes).map(|_| Default::default()).collect();
    for (k, p) in california_points(points, seed).into_iter().enumerate() {
        let object = PointObject::new(k as u64, p);
        parts[shard_of(object.id, nodes)].0.push(object);
    }
    for object in uniform_objects(&long_beach_rects(uncertain, seed + 1)) {
        parts[shard_of(object.id, nodes)].1.push(object);
    }
    parts
}

/// An in-process deployment; dropping it shuts it down, the router
/// before the nodes it dials.
struct Deployment {
    router: Option<RouterHandle>,
    nodes: Vec<ServerHandle>,
}

impl Deployment {
    fn start(sc: &Scenario) -> std::io::Result<Deployment> {
        let node_count = match sc.front {
            FrontEnd::Server => 1,
            FrontEnd::Router { nodes } => nodes.max(1),
        };
        let config = ServerConfig {
            event_loops: sc.event_loops,
            ..ServerConfig::loopback()
        };
        let mut nodes = Vec::with_capacity(node_count);
        for (points, uncertain) in catalogs(sc.points, sc.uncertain, sc.seed, node_count) {
            let shards = (sc.shards / node_count).max(1);
            nodes.push(QueryServer::new(points, uncertain, shards).start(&config)?);
        }
        let router = match sc.front {
            FrontEnd::Server => None,
            FrontEnd::Router { .. } => {
                let addrs = nodes.iter().map(ServerHandle::addr).collect();
                Some(Router::start(&RouterConfig::loopback(addrs))?)
            }
        };
        Ok(Deployment { router, nodes })
    }

    fn addr(&self) -> SocketAddr {
        match &self.router {
            Some(router) => router.addr(),
            None => self.nodes[0].addr(),
        }
    }
}

/// The IPQ / C-IPQ pool (every fifth request constrained).
pub fn point_pool(seed: u64) -> Vec<PointRequest> {
    let mut gen = WorkloadGen::new(seed);
    (0..POOL)
        .map(|k| {
            let issuer = Issuer::uniform(gen.issuer_region(U));
            if k % 5 == 3 {
                PointRequest::cipq(issuer, RangeSpec::square(W), 0.3, CipqStrategy::PExpanded)
            } else {
                PointRequest::ipq(issuer, RangeSpec::square(W))
            }
        })
        .collect()
}

/// The IUQ / C-IUQ pool (alternating).
pub fn uncertain_pool(seed: u64) -> Vec<UncertainRequest> {
    let mut gen = WorkloadGen::new(seed);
    (0..POOL)
        .map(|k| {
            let issuer = Issuer::uniform(gen.issuer_region(U));
            if k % 2 == 0 {
                UncertainRequest::iuq(issuer, RangeSpec::square(W))
            } else {
                UncertainRequest::ciuq(
                    issuer,
                    RangeSpec::square(W),
                    0.3,
                    CiuqStrategy::PtiPExpanded,
                )
            }
        })
        .collect()
}

/// A datagen update batch as the wire's point-catalog updates.
pub fn to_wire(batch: &[PointUpdate]) -> Vec<WireUpdate> {
    batch
        .iter()
        .map(|u| {
            WireUpdate::Point(match *u {
                PointUpdate::Arrive { id, loc } => Update::Arrive(PointObject::new(id, loc)),
                PointUpdate::Depart { id } => Update::Depart(ObjectId(id)),
                PointUpdate::Move { id, to } => Update::Move(PointObject::new(id, to)),
            })
        })
        .collect()
}

/// A square issuer region of half-size `half` centred at `(x, y)`.
fn issuer_at(x: f64, y: f64, half: f64) -> Issuer {
    Issuer::uniform(Rect::centered(Point::new(x, y), half, half))
}

/// A deterministic walk over the dataset domain, mirrored off its
/// walls.
struct Walk {
    x: f64,
    y: f64,
    dx: f64,
    dy: f64,
}

impl Walk {
    fn new(mut seed: u64, step: f64) -> Walk {
        Walk {
            x: 1_000.0 + unit(&mut seed) * 8_000.0,
            y: 1_000.0 + unit(&mut seed) * 8_000.0,
            dx: (unit(&mut seed) - 0.5) * 2.0 * step,
            dy: (unit(&mut seed) - 0.5) * 2.0 * step,
        }
    }

    fn advance(&mut self) -> (f64, f64) {
        self.x += self.dx;
        self.y += self.dy;
        if !(0.0..=10_000.0).contains(&self.x) {
            self.dx = -self.dx;
            self.x += 2.0 * self.dx;
        }
        if !(0.0..=10_000.0).contains(&self.y) {
            self.dy = -self.dy;
            self.y += 2.0 * self.dy;
        }
        (self.x, self.y)
    }
}

/// Where the threads of one mixed window meet before it starts.
struct Gate {
    start: Barrier,
    failed: AtomicBool,
}

impl Gate {
    /// Takes a thread's set-up through the barrier **whatever it
    /// returned**: a thread whose set-up failed still meets the others
    /// (returning early would strand them, and `main`, on the barrier
    /// for good), and after the barrier every thread knows whether any
    /// failed. `Ok(None)` tells a healthy thread to stand down — the
    /// run is lost, and the failed thread's error is what it reports.
    fn pass<T>(&self, prepared: Result<T, ClientError>) -> Result<Option<T>, ClientError> {
        if prepared.is_err() {
            self.failed.store(true, Ordering::SeqCst);
        }
        self.start.wait();
        let ready = prepared?;
        Ok((!self.failed.load(Ordering::SeqCst)).then_some(ready))
    }
}

/// What one actor measured in the mixed window.
#[derive(Default)]
struct Tally {
    latencies: Vec<Duration>,
    results: usize,
    pushes: usize,
    delta_entries: usize,
}

/// One querying actor: cycles its pools, records round trips.
fn query_actor(
    addr: SocketAddr,
    sc: &Scenario,
    salt: u64,
    gate: &Gate,
) -> Result<Tally, ClientError> {
    let points = point_pool(sc.seed + 11 + salt);
    let uncertains = uncertain_pool(sc.seed + 23 + salt);
    let mut answer = QueryAnswer::default();
    let warmed = (|| {
        let mut client = Client::connect(addr)?;
        for k in 0..sc.warmup {
            client.query_into(&points[k % POOL], &mut answer)?;
            client.query_into(&uncertains[k % POOL], &mut answer)?;
        }
        Ok(client)
    })();
    let mut tally = Tally::default();
    let Some(mut client) = gate.pass(warmed)? else {
        return Ok(tally);
    };
    tally.latencies.reserve(sc.ops_per_client);
    for k in 0..sc.ops_per_client {
        let t0 = Instant::now();
        if k % 5 == 4 {
            client.query_into(&uncertains[k % POOL], &mut answer)?;
        } else {
            client.query_into(&points[k % POOL], &mut answer)?;
        }
        tally.latencies.push(t0.elapsed());
        tally.results += answer.results.len();
    }
    Ok(tally)
}

/// One ticking actor's connection and the local copy of its standing
/// answer.
struct Ticker {
    client: Client,
    walk: Walk,
    sub_id: u64,
    answer: QueryAnswer,
    note: Notification,
    tally: Tally,
}

impl Ticker {
    fn subscribe(
        addr: SocketAddr,
        seed: u64,
        slack: f64,
        step: f64,
    ) -> Result<Ticker, ClientError> {
        let mut client = Client::connect(addr)?;
        let mut walk = Walk::new(seed, step);
        let (x, y) = walk.advance();
        let request = PointRequest::ipq(issuer_at(x, y, U), RangeSpec::square(W));
        let (ack, answer) = client.subscribe(&request, slack)?;
        Ok(Ticker {
            client,
            walk,
            sub_id: ack.sub_id,
            answer,
            note: Notification::default(),
            tally: Tally::default(),
        })
    }

    /// One step along the walk, its pushes and deltas tallied; returns
    /// the tick's round trip.
    fn tick(&mut self) -> Result<Duration, ClientError> {
        let (x, y) = self.walk.advance();
        let t0 = Instant::now();
        self.client.tick_into(
            CommitTarget::Point,
            self.sub_id,
            issuer_at(x, y, U).pdf(),
            &mut self.note,
        )?;
        let round_trip = t0.elapsed();
        // Pushes that raced ahead of the response arrived first on the
        // wire; deltas compose in that order.
        while let Some(push) = self.client.take_notification() {
            debug_assert_eq!(push.cause, NotifyCause::Commit);
            self.tally.pushes += 1;
            self.tally.delta_entries += push.delta.upserts.len() + push.delta.removals.len();
            push.delta.apply(&mut self.answer.results);
        }
        self.tally.delta_entries += self.note.delta.upserts.len() + self.note.delta.removals.len();
        self.note.delta.apply(&mut self.answer.results);
        debug_assert!(self.answer.results.windows(2).all(|w| w[0].id < w[1].id));
        Ok(round_trip)
    }
}

/// One ticking actor: subscribes, walks, ticks, applies every delta.
fn tick_actor(
    addr: SocketAddr,
    sc: &Scenario,
    (slack, step): (f64, f64),
    salt: u64,
    gate: &Gate,
) -> Result<Tally, ClientError> {
    let warmed = (|| {
        let mut ticker = Ticker::subscribe(addr, sc.seed.wrapping_add(salt * 7919), slack, step)?;
        for _ in 0..sc.warmup {
            ticker.tick()?;
        }
        Ok(ticker)
    })();
    let Some(mut ticker) = gate.pass(warmed)? else {
        return Ok(Tally::default());
    };
    ticker.tally.latencies.reserve(sc.ops_per_client);
    for _ in 0..sc.ops_per_client {
        let round_trip = ticker.tick()?;
        ticker.tally.latencies.push(round_trip);
    }
    ticker
        .client
        .unsubscribe(CommitTarget::Point, ticker.sub_id)?;
    Ok(ticker.tally)
}

/// The updater: one arrive/depart/move batch and one commit per round,
/// as fast as the write path absorbs them. Returns the updates
/// submitted.
fn churn(addr: SocketAddr, sc: &Scenario, gate: &Gate) -> Result<usize, ClientError> {
    // The base catalog the servers built, so the stream's departures
    // and moves reference ids that exist server-side.
    let (_, mut gen) = PointUpdateGen::over_california(sc.points, sc.seed, UpdateMix::balanced());
    let connected = Client::connect(addr).map_err(ClientError::from);
    let Some(mut client) = gate.pass(connected)? else {
        return Ok(0);
    };
    let mut submitted = 0;
    for _ in 0..sc.update_rounds {
        let batch = to_wire(&gen.stream(sc.updates_per_round));
        submitted += client.submit(&batch)? as usize;
        client.commit(CommitTarget::Point)?;
    }
    Ok(submitted)
}

/// Raises `RLIMIT_NOFILE` toward what `conns` connections at
/// `fds_per_conn` each need, and returns how many the resulting limit
/// admits.
fn fd_budget(conns: usize, fds_per_conn: u64) -> usize {
    let want = conns as u64 * fds_per_conn + FD_MARGIN;
    let limit = iloc_server::poll::raise_nofile_limit(want).unwrap_or_else(|e| {
        eprintln!("loadgen: could not read/raise RLIMIT_NOFILE ({e}); assuming 1024");
        1024
    });
    (limit.saturating_sub(FD_MARGIN) / fds_per_conn) as usize
}

/// Fits the run into the fd budget and the front end's connection
/// capacity, loudly: it opens `herd + clients + 2` connections (control
/// and updater besides), and one refused at accept would fail the run.
/// The herd gives way first, then the actors. Returns `(herd, clients)`.
fn clamp(sc: &Scenario, capacity: usize, fds_per_conn: u64) -> Result<(usize, usize), ClientError> {
    if capacity < 3 {
        return Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "front end admits {capacity} connection(s); loadgen needs at least 3 \
                 (control + updater + one actor)"
            ),
        )));
    }
    let clients = sc.clients.min(capacity - 2);
    if clients < sc.clients {
        eprintln!(
            "loadgen: front end admits {capacity} connections; clamping {} clients to {clients}",
            sc.clients
        );
    }
    let budget = fd_budget(sc.herd + clients + 2, fds_per_conn).min(capacity);
    let herd = sc.herd.min(budget.saturating_sub(clients + 2));
    if herd < sc.herd {
        eprintln!(
            "loadgen: {budget} connections fit the fd budget ({fds_per_conn} fd(s) each) and \
             the front end's capacity of {capacity}; clamping herd from {} to {herd}",
            sc.herd
        );
    }
    Ok((herd, clients))
}

/// Connects the herd: one standing point query each at scattered
/// deterministic positions, sequentially, one SUBSCRIBE round trip
/// each. The sockets stay open, and the queries registered, for as long
/// as the returned clients live, without another byte written.
fn connect_herd(addr: SocketAddr, seed: u64, herd: usize) -> Result<Vec<Client>, ClientError> {
    let mut scatter = seed;
    let range = RangeSpec::square(HERD_EXTENT);
    (0..herd)
        .map(|_| {
            let x = 500.0 + unit(&mut scatter) * 9_000.0;
            let y = 500.0 + unit(&mut scatter) * 9_000.0;
            let request = PointRequest::ipq(issuer_at(x, y, HERD_EXTENT), range);
            let mut client = Client::connect(addr)?;
            client.subscribe(&request, HERD_EXTENT)?;
            Ok(client)
        })
        .collect()
}

/// Runs the mixed window: `clients` actors and the updater, started
/// together. Returns the merged tally (latencies sorted), the wall
/// clock, and the updates submitted.
fn mixed_window(
    addr: SocketAddr,
    sc: &Scenario,
    clients: usize,
) -> Result<(Tally, Duration, usize), ClientError> {
    let gate = Gate {
        start: Barrier::new(clients + 2),
        failed: AtomicBool::new(false),
    };
    let gate = &gate;
    std::thread::scope(|s| {
        let actors: Vec<_> = (0..clients as u64)
            .map(|salt| {
                s.spawn(move || match sc.op {
                    Op::Query => query_actor(addr, sc, salt, gate),
                    Op::Tick { slack, step } => tick_actor(addr, sc, (slack, step), salt, gate),
                })
            })
            .collect();
        let updater = s.spawn(move || churn(addr, sc, gate));
        gate.pass(Ok(()))?;
        let t0 = Instant::now();
        // An early return here is safe: every thread is past the
        // barrier, so the scope's implicit joins end.
        let mut total = Tally::default();
        for actor in actors {
            let tally = actor.join().expect("actor thread panicked")?;
            total.latencies.extend(tally.latencies);
            total.results += tally.results;
            total.pushes += tally.pushes;
            total.delta_entries += tally.delta_entries;
        }
        let submitted = updater.join().expect("updater thread panicked")?;
        let elapsed = t0.elapsed();
        total.latencies.sort_unstable();
        Ok((total, elapsed, submitted))
    })
}

/// Runs `op` `warm` times, then `n` times between two stats frames, on
/// the one connection; returns the bracketing frames.
fn bracketed(
    control: &mut Client,
    warm: usize,
    n: usize,
    mut op: impl FnMut(&mut Client, usize) -> Result<(), ClientError>,
) -> Result<(StatsReport, StatsReport), ClientError> {
    let (mut before, mut after) = (StatsReport::default(), StatsReport::default());
    for k in 0..warm {
        op(control, k)?;
    }
    control.stats_into(&mut before)?; // the first one warms the report buffers
    control.stats_into(&mut before)?;
    for k in 0..n {
        op(control, k)?;
    }
    control.stats_into(&mut after)?;
    Ok((before, after))
}

/// The steady window on the control connection, re-warmed *after* the
/// churn so every buffer (the loops' rebound snapshots, grown answers)
/// is at workload size. No commits run, so any allocation the front
/// end makes here is a regression.
fn steady_window(
    control: &mut Client,
    sc: &Scenario,
) -> Result<(StatsReport, StatsReport), ClientError> {
    // At least once through the pool: a request first seen inside the
    // bracket may still grow an answer buffer.
    let warm = sc.warmup.max(POOL);
    match sc.op {
        Op::Query => {
            let pool = point_pool(sc.seed + 9);
            let mut answer = QueryAnswer::default();
            bracketed(control, warm, sc.steady_ops, |c, k| {
                c.query_into(&pool[k % POOL], &mut answer)
            })
        }
        // One fresh standing query ticked at a fixed position: after
        // the warm-up the envelope is cached, so every tick must be
        // probe-free as well as allocation-free.
        Op::Tick { slack, .. } => {
            let request = PointRequest::ipq(issuer_at(5_000.0, 5_000.0, U), RangeSpec::square(W));
            let (ack, _) = control.subscribe(&request, slack)?;
            let pdf = request.issuer.pdf().clone();
            let mut note = Notification::default();
            let frames = bracketed(control, warm, sc.steady_ops, |c, _| {
                c.tick_into(CommitTarget::Point, ack.sub_id, &pdf, &mut note)?;
                debug_assert!(note.delta.is_empty());
                Ok(())
            })?;
            control.unsubscribe(CommitTarget::Point, ack.sub_id)?;
            Ok(frames)
        }
    }
}

fn percentile(sorted: &[Duration], q: f64) -> Duration {
    match sorted.len() {
        0 => Duration::ZERO,
        n => sorted[((n - 1) as f64 * q).round() as usize],
    }
}

/// Drives the front end at `addr` through the three phases.
fn drive(addr: SocketAddr, sc: &Scenario, fds_per_conn: u64) -> Result<Report, ClientError> {
    // The control connection outlives both windows and stays warm for
    // the steady one.
    let mut control = Client::connect_retry(addr, CONNECT_TIMEOUT)?;
    let at_start = control.stats()?;
    let (herd_size, clients) = clamp(sc, at_start.capacity as usize, fds_per_conn)?;

    let t0 = Instant::now();
    let herd = connect_herd(addr, sc.seed, herd_size)?;
    let herd_setup = t0.elapsed();
    let herd_connections = control.stats()?.connections;

    let (tally, elapsed, updates_submitted) = mixed_window(addr, sc, clients)?;
    let (before, after) = steady_window(&mut control, sc)?;
    drop(herd);

    Ok(Report {
        op: sc.op,
        clients,
        herd: herd_size,
        herd_setup,
        herd_connections,
        ops: clients * sc.ops_per_client,
        elapsed,
        p50: percentile(&tally.latencies, 0.50),
        p99: percentile(&tally.latencies, 0.99),
        results_total: tally.results,
        pushes: tally.pushes,
        delta_entries: tally.delta_entries,
        updates_submitted,
        commits: sc.update_rounds,
        steady_ops: sc.steady_ops,
        steady_allocs_per_op: before
            .alloc_counting
            .then(|| (after.allocations - before.allocations) as f64 / sc.steady_ops.max(1) as f64),
        dropped_pushes: after.dropped_pushes - at_start.dropped_pushes,
        stats: after,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;

    use super::*;

    /// A preset shrunk to run in a fraction of a second.
    fn tiny(name: &str) -> Scenario {
        let preset = Scenario::preset(name, true).expect("a preset name");
        Scenario {
            front: match preset.front {
                FrontEnd::Server => FrontEnd::Server,
                FrontEnd::Router { .. } => FrontEnd::Router { nodes: 2 },
            },
            clients: 2,
            herd: preset.herd.min(64),
            shards: 2,
            points: 400,
            uncertain: preset.uncertain.min(100),
            ops_per_client: 12,
            update_rounds: 2,
            updates_per_round: 8,
            steady_ops: 16,
            warmup: 4,
            seed: 7,
            ..preset
        }
    }

    #[test]
    fn every_preset_round_trips_in_process_at_tiny_scale() {
        for name in SCENARIOS {
            let sc = tiny(name);
            let report = run(None, &sc).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(report.clients, 2, "{name}");
            assert_eq!(report.ops, 24, "{name}");
            assert_eq!(report.commits, 2, "{name}");
            assert_eq!(report.updates_submitted, 16, "{name}");
            assert!(report.elapsed > Duration::ZERO, "{name}");
            assert!(report.p99 >= report.p50, "{name}");
            assert!(report.stats.requests_served as usize > report.ops, "{name}");
            // Nothing here reads slowly: no push may be dropped.
            assert_eq!(report.dropped_pushes, 0, "{name}");
            // The test binary installs no counting allocator, and the
            // report says so instead of faking a zero.
            assert_eq!(report.steady_allocs_per_op, None, "{name}");
            assert!(
                report.gate(true, None).is_err(),
                "{name}: uncounted must not pass"
            );

            // The connection gauge saw the whole herd plus control
            // attached at once, multiplexed over 2 loops.
            assert_eq!(report.herd, sc.herd, "{name}");
            assert!(report.herd_connections > sc.herd as u64, "{name}");
            assert_eq!(report.stats.event_loops, 2, "{name}");

            match sc.front {
                // A server reports its pipeline stage split and
                // batch-size histogram over the wire.
                FrontEnd::Server if sc.op == Op::Query => {
                    assert!(report.results_total > 0, "{name}");
                    assert!(report.stats.refine_nanos > 0, "{name}");
                    assert!(report.stats.refine_batches.iter().sum::<u64>() > 0);
                    assert!((0.0..=1.0).contains(&report.refine_share()), "{name}");
                }
                FrontEnd::Server => assert!(report.stats.nodes.is_empty(), "{name}"),
                // A router reports every node healthy and carrying load.
                FrontEnd::Router { nodes } => {
                    assert_eq!(report.stats.nodes.len(), nodes, "{name}");
                    for node in &report.stats.nodes {
                        assert!(node.connected, "{name}");
                        assert!(node.merged > 0, "{name}");
                        assert!(node.routed >= node.merged, "{name}");
                    }
                }
            }
        }
        assert_eq!(tiny("subscribers-c10k").herd, 64);
        assert_eq!(Scenario::preset("throughput", true), None);
    }

    /// A server admitting `max_connections`, for the tests that need a
    /// tighter capacity than an in-process run gives itself.
    fn cramped_server(sc: &Scenario, max_connections: usize) -> ServerHandle {
        let (points, uncertain) = catalogs(sc.points, sc.uncertain, sc.seed, 1).remove(0);
        let config = ServerConfig {
            max_connections,
            ..ServerConfig::loopback()
        };
        QueryServer::new(points, uncertain, sc.shards)
            .start(&config)
            .expect("start server")
    }

    #[test]
    fn client_count_is_clamped_to_the_connection_capacity() {
        // 4 connections: control + updater leave room for 2 actors, so
        // asking for 4 must clamp rather than have connects refused.
        let sc = Scenario {
            clients: 4,
            ops_per_client: 8,
            ..tiny("net")
        };
        let server = cramped_server(&sc, 4);
        let report = run(Some(server.addr()), &sc).expect("clamped run");
        assert_eq!(report.clients, 2);
        assert_eq!(report.ops, 16);
    }

    #[test]
    fn an_actor_failing_before_the_barrier_fails_the_run_promptly() {
        // The server reports 4 slots, so 2 actors pass the clamp — but
        // a connection the clamp cannot foresee holds one, and of the
        // updater and the two actors one is refused at accept, before
        // the window's barrier. The rest must not wait for it there.
        for name in ["net", "subscribers"] {
            let sc = tiny(name);
            let server = cramped_server(&sc, 4);
            let addr = server.addr();
            let _squatter = Client::connect(addr).expect("squatter");
            let (done, outcome) = mpsc::channel();
            std::thread::spawn(move || {
                let _ = done.send(run(Some(addr), &sc).map(|_| ()));
            });
            let result = outcome
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("{name}: the run hung on its start barrier"));
            assert!(result.is_err(), "{name}: a refused actor must fail the run");
        }
    }

    #[test]
    fn one_gate_covers_every_field_a_run_reports() {
        let clean = Report {
            steady_allocs_per_op: Some(0.0),
            p99: Duration::from_millis(3),
            ..run(None, &tiny("cluster")).expect("cluster run")
        };
        assert_eq!(clean.gate(false, None), Ok(vec![]));
        let held = clean.gate(true, Some(5.0)).expect("every gate holds");
        assert_eq!(held.len(), 2);
        assert!(held[0].contains("p99") && held[1].contains("per routed request"));

        assert!(clean.gate(false, Some(2.0)).is_err());
        let allocating = Report {
            steady_allocs_per_op: Some(0.25),
            ..clean.clone()
        };
        assert_eq!(allocating.gate(false, None), Ok(vec![]));
        assert!(allocating.gate(true, None).is_err());
        // Unhealthy nodes and dropped pushes fail without being asked.
        let dropping = Report {
            dropped_pushes: 1,
            ..clean.clone()
        };
        assert!(dropping.gate(false, None).is_err());
        let mut degraded = clean;
        degraded.stats.nodes[1].connected = false;
        assert!(degraded.gate(false, None).is_err());
    }
}
