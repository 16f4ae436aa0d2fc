//! Delta-oracle property suite for the subscription subsystem.
//!
//! The contract under test: after **any** interleaving of commits,
//! pumps and ticks, applying every emitted [`AnswerDelta`] in order to
//! a subscriber's local copy reproduces the answer a **full fresh
//! re-evaluation** of that subscription would give — bit-identically
//! ([`QueryAnswer::same_matches`] semantics), for every subscription,
//! including the ones the wake-up machinery decided *not* to touch.
//! Plus: steady ticks probe nothing, dirty buffers reused across
//! scenarios carry no state, and commits racing ahead of pumps never
//! corrupt a delta stream.
//!
//! The pump patches answers from each epoch's touched set instead of
//! re-running the query; [`patched_pumps_equal_full_reevaluation`] is
//! the schedule that holds every delta it emits, and every answer it
//! leaves, to the bits of `Snapshot::execute_one` + `diff_into` — and
//! its `PumpReport` to the rule for when the full path may run.

use std::collections::HashMap;

use iloc::core::pipeline::{BatchEngine, PointRequest, UncertainRequest};
use iloc::core::serve::{ServeEngine, ShardedEngine, Snapshot, Update, DIRT_HISTORY};
use iloc::core::subscribe::{AnswerDelta, SubId, SubscriptionRegistry};
use iloc::core::{
    CipqStrategy, CiuqStrategy, Integrator, Issuer, Match, PointEngine, RangeSpec, UncertainEngine,
};
use iloc::geometry::{Point, Rect};
use iloc::uncertainty::{
    DiscPdf, ObjectId, PointObject, TruncatedGaussianPdf, UncertainObject, UniformPdf,
};

/// Deterministic xorshift for scenario generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn coord(&mut self) -> f64 {
        self.below(1_000) as f64
    }
}

fn grid_engine(shards: usize) -> ShardedEngine<PointEngine> {
    let objects = (0..400u64)
        .map(|k| {
            PointObject::new(
                k,
                Point::new((k % 20) as f64 * 50.0, (k / 20) as f64 * 50.0),
            )
        })
        .collect();
    ShardedEngine::build(objects, shards)
}

fn request_at(x: f64, y: f64, constrained: bool) -> PointRequest {
    let issuer = Issuer::uniform(Rect::centered(Point::new(x, y), 45.0, 45.0));
    if constrained {
        PointRequest::cipq(
            issuer,
            RangeSpec::square(70.0),
            0.2,
            CipqStrategy::MinkowskiSum,
        )
    } else {
        PointRequest::ipq(issuer, RangeSpec::square(70.0))
    }
}

/// A subscriber's client-side view: the request mirror (for fresh
/// re-evaluation) and the composed answer state.
struct Mirror {
    id: SubId,
    request: PointRequest,
    state: Vec<Match>,
}

fn assert_state_fresh(engine: &ShardedEngine<PointEngine>, mirror: &Mirror) {
    let fresh = engine.snapshot().execute_one(&mirror.request);
    assert_eq!(
        mirror.state.len(),
        fresh.results.len(),
        "sub {}: {} composed vs {} fresh matches",
        mirror.id,
        mirror.state.len(),
        fresh.results.len()
    );
    for (a, b) in mirror.state.iter().zip(&fresh.results) {
        assert_eq!(a.id, b.id, "sub {}", mirror.id);
        assert_eq!(
            a.probability.to_bits(),
            b.probability.to_bits(),
            "sub {}: probability for {:?} diverged",
            mirror.id,
            a.id
        );
    }
}

/// The main oracle: random churn + motion, every delta applied, every
/// subscription compared against full fresh re-evaluation after every
/// commit — across shard counts, through one registry whose scratch
/// buffers stay dirty the whole way.
#[test]
fn deltas_compose_to_fresh_reevaluation_under_churn_and_motion() {
    for &shards in &[1usize, 3, 8] {
        let engine = grid_engine(shards);
        let mut registry: SubscriptionRegistry<PointEngine> = SubscriptionRegistry::new();
        let mut rng = Rng(0x1005_0C1E + shards as u64);

        let mut mirrors: Vec<Mirror> = (0..12)
            .map(|k| {
                let request = request_at(rng.coord(), rng.coord(), k % 3 == 0);
                let id = registry.subscribe(&engine, request.clone(), 60.0 + (k % 4) as f64 * 40.0);
                let state = registry.get(id).unwrap().last_answer().to_vec();
                Mirror { id, request, state }
            })
            .collect();
        for mirror in &mirrors {
            assert_state_fresh(&engine, mirror);
        }

        let mut next_arrival = 10_000u64;
        for round in 0..25 {
            // A random batch of catalog churn...
            for _ in 0..8 {
                match rng.below(3) {
                    0 => {
                        engine.submit(Update::Arrive(PointObject::new(
                            next_arrival,
                            Point::new(rng.coord(), rng.coord()),
                        )));
                        next_arrival += 1;
                    }
                    1 => {
                        engine.submit(Update::Depart(ObjectId(rng.below(next_arrival))));
                    }
                    _ => {
                        engine.submit(Update::Move(PointObject::new(
                            rng.below(400),
                            Point::new(rng.coord(), rng.coord()),
                        )));
                    }
                }
            }
            engine.commit();

            // ...pumped into deltas, applied in emission order...
            registry.pump(&engine, |id, _, delta| {
                let mirror = mirrors.iter_mut().find(|m| m.id == id).expect("known sub");
                delta.apply(&mut mirror.state);
            });

            // ...then some issuers move (half the ticks drift inside
            // the envelope, half jump past it).
            for mirror in mirrors.iter_mut() {
                if rng.below(2) == 0 {
                    continue;
                }
                let (x, y) = if rng.below(2) == 0 {
                    let r = mirror.request.issuer.region().center();
                    (r.x + 5.0, r.y)
                } else {
                    (rng.coord(), rng.coord())
                };
                let fresh_issuer = request_at(x, y, false).issuer;
                mirror.request.issuer = fresh_issuer.clone();
                let (_, delta) = registry
                    .tick(&engine, mirror.id, fresh_issuer.pdf().clone())
                    .expect("live sub");
                delta.apply(&mut mirror.state);
            }

            // EVERY subscription — woken, ticked, or untouched — must
            // now equal full fresh re-evaluation at the current epoch.
            for mirror in &mirrors {
                assert_state_fresh(&engine, mirror);
            }

            // Occasionally churn the subscription set itself.
            if round % 7 == 6 {
                let gone = mirrors.remove(rng.below(mirrors.len() as u64) as usize);
                assert!(registry.unsubscribe(gone.id));
                let request = request_at(rng.coord(), rng.coord(), true);
                let id = registry.subscribe(&engine, request.clone(), 80.0);
                let state = registry.get(id).unwrap().last_answer().to_vec();
                mirrors.push(Mirror { id, request, state });
            }
        }
    }
}

/// A commit can land between a pump and a tick (the wire path pumps
/// before each frame, but another event loop may commit concurrently). The
/// tick must still answer consistently, and the next pump must
/// reconcile every subscription without emitting a corrupt delta.
#[test]
fn commits_racing_between_pump_and_tick_stay_consistent() {
    let engine = grid_engine(4);
    let mut registry: SubscriptionRegistry<PointEngine> = SubscriptionRegistry::new();

    // One sub near the churn, one far from it.
    let near_request = request_at(100.0, 100.0, false);
    let far_request = request_at(900.0, 900.0, false);
    let near = registry.subscribe(&engine, near_request.clone(), 60.0);
    let far = registry.subscribe(&engine, far_request.clone(), 60.0);
    let mut near_state = registry.get(near).unwrap().last_answer().to_vec();
    let mut far_state = registry.get(far).unwrap().last_answer().to_vec();

    // Commit WITHOUT pumping: depart an object inside near's range.
    engine.submit(Update::Depart(ObjectId(42))); // (100, 100)
    engine.commit();

    // A tick of the far sub served from its (clean) envelope cache:
    // still bit-identical to fresh evaluation at the current epoch,
    // because nothing inside its envelope changed.
    let pdf = far_request.issuer.pdf().clone();
    let (_, delta) = registry.tick(&engine, far, pdf).unwrap();
    delta.apply(&mut far_state);
    assert_state_fresh(
        &engine,
        &Mirror {
            id: far,
            request: far_request.clone(),
            state: far_state.clone(),
        },
    );

    // A tick that jumps INTO the dirty region before any pump must
    // re-probe against the current epoch, not serve stale state.
    let moved = request_at(100.0, 100.0, false);
    let (_, delta) = registry
        .tick(&engine, far, moved.issuer.pdf().clone())
        .unwrap();
    delta.apply(&mut far_state);
    let fresh = engine.snapshot().execute_one(&moved);
    assert_eq!(far_state.len(), fresh.results.len());
    assert!(far_state.iter().all(|m| m.id != ObjectId(42)));

    // The pump then wakes the near sub and reconciles it.
    let mut emitted = Vec::new();
    registry.pump(&engine, |id, _, delta| emitted.push((id, delta.clone())));
    assert_eq!(emitted.len(), 1);
    assert_eq!(emitted[0].0, near);
    emitted[0].1.apply(&mut near_state);
    assert_state_fresh(
        &engine,
        &Mirror {
            id: near,
            request: near_request,
            state: near_state,
        },
    );
    // A second pump with nothing new is a no-op.
    registry.pump(&engine, |_, _, _| panic!("nothing to emit"));
}

/// Steady-state ticks — motion within the envelope, no commits — issue
/// zero index probes, and the registry's scratch buffers carry no
/// state between subscriptions (a dirty registry reused for a new
/// scenario answers exactly like a fresh one).
#[test]
fn steady_ticks_are_probe_free_and_scratch_is_stateless() {
    let engine = grid_engine(2);
    let mut dirty: SubscriptionRegistry<PointEngine> = SubscriptionRegistry::new();

    // Drive the registry hard to dirty every internal buffer.
    let a = dirty.subscribe(&engine, request_at(500.0, 500.0, true), 120.0);
    for k in 0..30u64 {
        let request = request_at(400.0 + k as f64 * 9.0, 510.0, false);
        dirty
            .tick(&engine, a, request.issuer.pdf().clone())
            .unwrap();
    }
    engine.submit(Update::Move(PointObject::new(
        0u64,
        Point::new(501.0, 501.0),
    )));
    engine.commit();
    dirty.pump(&engine, |_, _, _| {});
    dirty.unsubscribe(a);
    dirty.clear();

    // Same scenario through the dirty registry and a fresh one.
    let mut fresh: SubscriptionRegistry<PointEngine> = SubscriptionRegistry::new();
    let request = request_at(300.0, 300.0, false);
    let id_dirty = dirty.subscribe(&engine, request.clone(), 150.0);
    let id_fresh = fresh.subscribe(&engine, request.clone(), 150.0);

    let probes_before = dirty.get(id_dirty).unwrap().probes();
    for k in 0..40u64 {
        let moved = request_at(300.0 + (k % 7) as f64 * 2.0, 300.0, false);
        let pdf = moved.issuer.pdf().clone();
        let d1: AnswerDelta = dirty
            .tick(&engine, id_dirty, pdf.clone())
            .unwrap()
            .1
            .clone();
        let d2: AnswerDelta = fresh.tick(&engine, id_fresh, pdf).unwrap().1.clone();
        assert_eq!(d1, d2, "tick {k}: dirty registry diverged from fresh");
    }
    let sub = dirty.get(id_dirty).unwrap();
    assert_eq!(
        sub.probes(),
        probes_before,
        "steady ticks must not probe the index"
    );
    assert_eq!(sub.cache_hits(), 40);
}

/// The uncertain catalog gets the same treatment: standing C-IUQ
/// subscriptions produce deltas bit-identical to fresh re-evaluation
/// (the wake path re-checks *region overlap* rather than point
/// containment).
#[test]
fn uncertain_subscriptions_track_fresh_reevaluation() {
    let objects: Vec<UncertainObject> = (0..144u64)
        .map(|k| {
            let c = Point::new((k % 12) as f64 * 80.0 + 40.0, (k / 12) as f64 * 80.0 + 40.0);
            UncertainObject::new(k, UniformPdf::new(Rect::centered(c, 18.0, 18.0)))
        })
        .collect();
    let engine: ShardedEngine<UncertainEngine> = ShardedEngine::build(objects, 3);
    let mut registry: SubscriptionRegistry<UncertainEngine> = SubscriptionRegistry::new();

    let make_request = |x: f64, y: f64| {
        UncertainRequest::ciuq(
            Issuer::uniform(Rect::centered(Point::new(x, y), 50.0, 50.0)),
            RangeSpec::square(90.0),
            0.15,
            CiuqStrategy::RTreeMinkowski,
        )
    };
    let mut request = make_request(400.0, 400.0);
    let id = registry.subscribe(&engine, request.clone(), 100.0);
    let mut state = registry.get(id).unwrap().last_answer().to_vec();
    assert!(!state.is_empty());

    let mut rng = Rng(77);
    for round in 0..15u64 {
        // Move a few objects and commit.
        for _ in 0..3 {
            let k = rng.below(144);
            engine.submit(Update::Move(UncertainObject::new(
                k,
                UniformPdf::new(Rect::centered(
                    Point::new(rng.coord(), rng.coord()),
                    18.0,
                    18.0,
                )),
            )));
        }
        engine.commit();
        registry.pump(&engine, |got, _, delta| {
            assert_eq!(got, id);
            delta.apply(&mut state);
        });
        // Drift the issuer.
        request = make_request(
            400.0 + round as f64 * 12.0,
            400.0 + (round % 3) as f64 * 8.0,
        );
        let (_, delta) = registry
            .tick(&engine, id, request.issuer.pdf().clone())
            .unwrap();
        delta.apply(&mut state);

        let fresh = engine.snapshot().execute_one(&request);
        assert_eq!(state.len(), fresh.results.len(), "round {round}");
        for (a, b) in state.iter().zip(&fresh.results) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.probability.to_bits(), b.probability.to_bits());
        }
    }
}

/// Constrained subscriptions are normalized to Minkowski filtering, so
/// a PExpanded request subscribes cleanly and its stream matches the
/// engine's MinkowskiSum answers (identical result sets by Lemma 5).
#[test]
fn p_expanded_requests_normalize_to_minkowski() {
    let engine = grid_engine(2);
    let mut registry: SubscriptionRegistry<PointEngine> = SubscriptionRegistry::new();
    let issuer = Issuer::uniform(Rect::centered(Point::new(500.0, 500.0), 45.0, 45.0));
    let p_expanded = PointRequest::cipq(
        issuer.clone(),
        RangeSpec::square(70.0),
        0.3,
        CipqStrategy::PExpanded,
    );
    let id = registry.subscribe(&engine, p_expanded, 50.0);
    let stored = registry.get(id).unwrap().request();
    assert_eq!(
        stored.constraint.unwrap().strategy,
        CipqStrategy::MinkowskiSum
    );
    let want = engine.snapshot().execute_one(&PointRequest::cipq(
        issuer,
        RangeSpec::square(70.0),
        0.3,
        CipqStrategy::MinkowskiSum,
    ));
    let got = registry.get(id).unwrap().last_answer();
    assert_eq!(got.len(), want.results.len());
    for (a, b) in got.iter().zip(&want.results) {
        assert_eq!(a.probability.to_bits(), b.probability.to_bits());
    }
}

/// The three kinds of standing query a catalog is tested with.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Plain,
    Constrained,
    Sampled,
}

/// The request type of a bed's engine.
type Req<B> = <<B as Bed>::Engine as BatchEngine>::Request;

/// What the patch schedule needs of a catalog: objects to put at a
/// place, requests of each kind, and a way to move a request.
trait Bed {
    type Engine: ServeEngine<Object = Self::Object>;
    type Object: Clone;

    fn engine(shards: usize) -> ShardedEngine<Self::Engine>;
    fn object(id: u64, at: Point, rng: &mut Rng) -> Self::Object;
    fn request(kind: Kind, at: Point) -> Req<Self>;
    fn issuer(request: &mut Req<Self>) -> &mut Issuer;
}

fn issuer_at(at: Point) -> Issuer {
    Issuer::uniform(Rect::centered(at, 45.0, 45.0))
}

struct Points;

impl Bed for Points {
    type Engine = PointEngine;
    type Object = PointObject;

    fn engine(shards: usize) -> ShardedEngine<PointEngine> {
        grid_engine(shards)
    }

    fn object(id: u64, at: Point, _: &mut Rng) -> PointObject {
        PointObject::new(id, at)
    }

    fn request(kind: Kind, at: Point) -> PointRequest {
        let mut request = request_at(at.x, at.y, kind == Kind::Constrained);
        match kind {
            Kind::Sampled => request.integrator = Integrator::MonteCarlo { samples: 24 },
            Kind::Plain | Kind::Constrained => {}
        }
        request
    }

    fn issuer(request: &mut PointRequest) -> &mut Issuer {
        &mut request.issuer
    }
}

struct Regions;

impl Bed for Regions {
    type Engine = UncertainEngine;
    type Object = UncertainObject;

    fn engine(shards: usize) -> ShardedEngine<UncertainEngine> {
        let mut rng = Rng(0xB0C5);
        let objects = (0..400u64)
            .map(|k| {
                let at = Point::new((k % 20) as f64 * 50.0, (k / 20) as f64 * 50.0);
                Self::object(k, at, &mut rng)
            })
            .collect();
        ShardedEngine::build(objects, shards)
    }

    /// Uniform and Gaussian regions, both closed-form under `Auto`
    /// beside a uniform issuer; one in 600 is a disc, which is not, so
    /// `Auto` subscriptions sample now and then.
    fn object(id: u64, at: Point, rng: &mut Rng) -> UncertainObject {
        let (w, h) = (6.0 + rng.below(20) as f64, 6.0 + rng.below(20) as f64);
        match rng.below(600) {
            0 => UncertainObject::new(id, DiscPdf::new(at, w)),
            1..=200 => UncertainObject::new(
                id,
                TruncatedGaussianPdf::new(Rect::centered(at, w, h), at, w / 2.0, h / 3.0),
            ),
            _ => UncertainObject::new(id, UniformPdf::new(Rect::centered(at, w, h))),
        }
    }

    fn request(kind: Kind, at: Point) -> UncertainRequest {
        let range = RangeSpec::square(70.0);
        let mut request = if kind == Kind::Constrained {
            UncertainRequest::ciuq(issuer_at(at), range, 0.2, CiuqStrategy::RTreeMinkowski)
        } else {
            UncertainRequest::iuq(issuer_at(at), range)
        };
        match kind {
            Kind::Sampled => request.integrator = Integrator::MonteCarlo { samples: 24 },
            Kind::Plain | Kind::Constrained => {}
        }
        request
    }

    fn issuer(request: &mut UncertainRequest) -> &mut Issuer {
        &mut request.issuer
    }
}

fn same_matches(a: &[Match], b: &[Match]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(a, b)| a.id == b.id && a.probability.to_bits() == b.probability.to_bits())
}

fn same_delta(a: &AnswerDelta, b: &AnswerDelta) -> bool {
    same_matches(&a.upserts, &b.upserts) && a.removals == b.removals
}

/// The subscriber's side of one standing query.
struct Standing<R> {
    id: SubId,
    kind: Kind,
    request: R,
    state: Vec<Match>,
}

/// Holds one subscription to the oracle: the answer it has delivered
/// is `execute_one` on the epoch it says it reflects (after a pump, on
/// the engine's current epoch as well), and `delta` — what was emitted
/// for it, if anything — is the `diff_into` of the subscriber's copy
/// and that answer, bit for bit.
fn check_against_oracle<B: Bed>(
    what: &str,
    registry: &SubscriptionRegistry<B::Engine>,
    snapshots: &[Snapshot<B::Engine>],
    standing: &mut Standing<Req<B>>,
    delta: Option<&AnswerDelta>,
) {
    let sub = registry.get(standing.id).expect("live sub");
    let want = snapshots[sub.epoch() as usize].execute_one(&standing.request);
    let pumped = registry.seen_epoch() as usize + 1 == snapshots.len();
    if pumped && sub.epoch() < registry.seen_epoch() {
        let now = snapshots.last().unwrap().execute_one(&standing.request);
        assert!(
            same_matches(&want.results, &now.results),
            "{what}: sub {} left at epoch {} is behind the current one",
            standing.id,
            sub.epoch()
        );
    }
    let mut expected = AnswerDelta::new();
    AnswerDelta::diff_into(&standing.state, &want.results, &mut expected);
    match delta {
        Some(delta) => assert!(
            same_delta(delta, &expected),
            "{what}: sub {}: emitted {delta:?}, the oracle has {expected:?}",
            standing.id
        ),
        None => assert!(
            expected.is_empty(),
            "{what}: sub {}: nothing emitted, the oracle has {expected:?}",
            standing.id
        ),
    }
    assert!(
        same_matches(sub.last_answer(), &want.results),
        "{what}: sub {}: delivered answer diverged",
        standing.id
    );
    standing.state = want.results;
}

/// One seeded schedule of commits, pumps and ticks over one catalog at
/// one shard count; returns how many commits it ran and what its
/// pumps did in total.
fn run_patch_schedule<B: Bed>(shards: usize, seed: u64) -> (usize, [usize; 4]) {
    let engine = B::engine(shards);
    let mut registry: SubscriptionRegistry<B::Engine> = SubscriptionRegistry::new();
    let mut rng = Rng(seed);
    let mut snapshots = vec![engine.snapshot()];

    let centers = [
        (Kind::Plain, 250.0, 250.0, 60.0),
        (Kind::Constrained, 740.0, 260.0, 40.0),
        (Kind::Sampled, 260.0, 740.0, 80.0),
        (Kind::Sampled, 500.0, 500.0, 60.0),
        (Kind::Plain, 760.0, 740.0, 0.0),
        (Kind::Constrained, 480.0, 520.0, 120.0),
    ];
    let mut standing: Vec<Standing<Req<B>>> = centers
        .iter()
        .map(|&(kind, x, y, slack)| {
            let request = B::request(kind, Point::new(x, y));
            let id = registry.subscribe(&engine, request.clone(), slack);
            let state = registry.get(id).unwrap().last_answer().to_vec();
            Standing {
                id,
                kind,
                request,
                state,
            }
        })
        .collect();
    for standing in standing.iter_mut() {
        check_against_oracle::<B>("subscribe", &registry, &snapshots, standing, None);
    }
    assert!(
        snapshots[0]
            .execute_one(&standing[3].request)
            .stats
            .mc_samples
            > 0,
        "the sampling subscription must have candidates to sample"
    );

    let mut next_id = 10_000u64;
    let mut commits = 0usize;
    let mut totals = [0usize; 4];
    // Carried from one commit to the next: an id to move once more,
    // and an arrival to move out again before anything is pumped.
    let mut again: Option<u64> = None;
    let mut visitor: Option<u64> = None;
    let mut round = 0u64;
    while commits < 300 {
        round += 1;
        // 1–5 epochs between pumps; once, more than the engine keeps.
        let epochs = if round == 20 {
            DIRT_HISTORY + 3
        } else {
            1 + rng.below(5) as usize
        };
        for epoch in 0..epochs {
            let mut batch: Vec<Update<B::Object>> = Vec::new();
            // Half the time near a standing query, or nothing hits.
            let place = |rng: &mut Rng| {
                if rng.below(2) == 0 {
                    let (_, x, y, _) = centers[rng.below(centers.len() as u64) as usize];
                    Point::new(
                        x - 150.0 + rng.below(300) as f64,
                        y - 150.0 + rng.below(300) as f64,
                    )
                } else {
                    Point::new(rng.coord(), rng.coord())
                }
            };
            if let Some(id) = again.take() {
                let at = place(&mut rng);
                batch.push(Update::Move(B::object(id, at, &mut rng)));
            }
            if let Some(id) = visitor.take() {
                let far = Point::new(rng.coord(), 990.0);
                batch.push(Update::Move(B::object(id, far, &mut rng)));
            }
            for _ in 0..4 + rng.below(8) {
                match rng.below(8) {
                    0 => {
                        let at = place(&mut rng);
                        batch.push(Update::Arrive(B::object(next_id, at, &mut rng)));
                        next_id += 1;
                    }
                    // A retried arrival: the id may be live elsewhere.
                    1 => {
                        let at = place(&mut rng);
                        batch.push(Update::Arrive(B::object(rng.below(400), at, &mut rng)));
                    }
                    // Departures: grid ids, arrivals, and past the last
                    // id handed out (missed).
                    2 => batch.push(Update::Depart(ObjectId(rng.below(400)))),
                    3 => batch.push(Update::Depart(ObjectId(
                        10_000 + rng.below(next_id - 9_990),
                    ))),
                    // Moves, of unknown ids too (they arrive).
                    4 | 5 => {
                        let at = place(&mut rng);
                        batch.push(Update::Move(B::object(rng.below(400), at, &mut rng)));
                    }
                    6 => {
                        let id = 10_000 + rng.below(next_id - 9_990);
                        let at = place(&mut rng);
                        batch.push(Update::Move(B::object(id, at, &mut rng)));
                    }
                    // One id twice in this batch, and once in the next.
                    _ => {
                        let id = rng.below(400);
                        for _ in 0..2 {
                            let at = place(&mut rng);
                            batch.push(Update::Move(B::object(id, at, &mut rng)));
                        }
                        again = Some(id);
                    }
                }
            }
            if epoch + 1 < epochs && rng.below(2) == 0 {
                // Straight into a standing query, and out in the next
                // epoch, before the pump sees either.
                let (_, x, y, _) = centers[rng.below(centers.len() as u64) as usize];
                batch.push(Update::Arrive(B::object(
                    next_id,
                    Point::new(x, y),
                    &mut rng,
                )));
                visitor = Some(next_id);
                next_id += 1;
            }
            if round == 31 && epoch == 0 {
                // One epoch over the touched-set cap.
                for k in 0..600 {
                    let at = Point::new(k as f64, 400.0 + (k % 7) as f64 * 30.0);
                    batch.push(Update::Arrive(B::object(next_id, at, &mut rng)));
                    next_id += 1;
                }
            }
            engine.submit_all(batch);
            engine.commit();
            snapshots.push(engine.snapshot());
            commits += 1;

            // Now and then a tick lands between a commit and its pump.
            if rng.below(4) == 0 {
                let k = rng.below(standing.len() as u64) as usize;
                tick_and_check::<B>(
                    &engine,
                    &mut registry,
                    &snapshots,
                    &mut standing[k],
                    &mut rng,
                );
            }
        }

        // What the pump may do, worked out before it runs.
        let mut dirt = Vec::new();
        let (current, gapless) = engine.dirt_since(registry.seen_epoch(), &mut dirt);
        let covered = current.epoch();
        let before: Vec<(u64, Rect)> = standing
            .iter()
            .map(|s| {
                let sub = registry.get(s.id).unwrap();
                (sub.epoch(), sub.envelope())
            })
            .collect();

        let mut emitted: HashMap<SubId, AnswerDelta> = HashMap::new();
        let report = registry.pump(&engine, |id, epoch, delta| {
            assert_eq!(epoch, engine.epoch());
            assert!(!delta.is_empty(), "an empty delta was emitted");
            let twice = emitted.insert(id, delta.clone());
            assert!(twice.is_none(), "sub {id} notified twice by one pump");
        });
        let what = format!("shards {shards} round {round}");
        for standing in standing.iter_mut() {
            let delta = emitted.remove(&standing.id);
            check_against_oracle::<B>(&what, &registry, &snapshots, standing, delta.as_ref());
        }
        assert!(emitted.is_empty(), "{what}: a delta for nobody");

        // The full path ran where a patch could not have the answer,
        // and nowhere else.
        let (mut woken, mut full) = (0, 0);
        for &(epoch, envelope) in &before {
            let reached = !gapless
                || dirt
                    .iter()
                    .any(|d| d.dirty.is_some_and(|d| d.overlaps(envelope)));
            if !reached || epoch >= covered {
                continue;
            }
            woken += 1;
            let no_touched_set = dirt.iter().any(|d| d.epoch > epoch && d.touched.is_none());
            if !gapless || no_touched_set {
                full += 1;
            }
        }
        assert_eq!(report.woken, woken, "{what}: woken");
        assert_eq!(
            report.woken - report.patched,
            full,
            "{what}: full re-evaluations"
        );
        assert!(report.notified <= report.woken);
        if report.patched == 0 {
            assert_eq!(report.objects_evaluated, 0);
        }
        totals[0] += report.woken;
        totals[1] += report.notified;
        totals[2] += report.patched;
        totals[3] += report.objects_evaluated;

        // Some issuers move: inside the envelope, or past it.
        for standing in standing.iter_mut() {
            if rng.below(3) == 0 {
                tick_and_check::<B>(&engine, &mut registry, &snapshots, standing, &mut rng);
            }
        }
    }
    (commits, totals)
}

/// Ticks one subscription — a small drift two times in three, a jump
/// otherwise, never far for a sampling one, which is to keep
/// candidates to sample — and holds the returned delta to the oracle
/// at the epoch it names.
fn tick_and_check<B: Bed>(
    engine: &ShardedEngine<B::Engine>,
    registry: &mut SubscriptionRegistry<B::Engine>,
    snapshots: &[Snapshot<B::Engine>],
    standing: &mut Standing<Req<B>>,
    rng: &mut Rng,
) {
    let center = B::issuer(&mut standing.request).region().center();
    let to = if rng.below(3) < 2 || standing.kind == Kind::Sampled {
        let to = Point::new(
            center.x - 6.0 + rng.below(13) as f64,
            center.y - 6.0 + rng.below(13) as f64,
        );
        // Drifts add up; the sampling query stays over the grid.
        Point::new(to.x.clamp(300.0, 700.0), to.y.clamp(300.0, 700.0))
    } else {
        Point::new(100.0 + rng.below(800) as f64, 100.0 + rng.below(800) as f64)
    };
    let issuer = issuer_at(to);
    *B::issuer(&mut standing.request) = issuer.clone();
    let (epoch, delta) = registry
        .tick(engine, standing.id, issuer.pdf().clone())
        .expect("live sub");
    let delta = delta.clone();
    assert_eq!(epoch, registry.get(standing.id).unwrap().epoch());
    // A tick delivers whatever it finds, an empty delta too.
    check_against_oracle::<B>("tick", registry, snapshots, standing, Some(&delta));
}

/// The patched pump against the full re-evaluation it replaces: 300+
/// commits a configuration, both catalogs, 1/2/4 shards.
#[test]
fn patched_pumps_equal_full_reevaluation() {
    for shards in [1usize, 2, 4] {
        let (commits, [woken, notified, patched, evaluated]) =
            run_patch_schedule::<Points>(shards, 0xD1CE_0000 + shards as u64);
        assert!(commits >= 300);
        // The schedule exercises what it is meant to: most wake-ups
        // are patched, some are not, and patches do evaluate objects.
        assert!(patched * 2 > woken, "points: {patched} of {woken} patched");
        assert!(patched < woken && notified > 0 && evaluated > 0);

        let (commits, [woken, _, patched, evaluated]) =
            run_patch_schedule::<Regions>(shards, 0x5EED_0000 + shards as u64);
        assert!(commits >= 300);
        assert!(patched * 2 > woken, "regions: {patched} of {woken} patched");
        assert!(patched < woken && evaluated > 0);
    }
}

/// A disc is not closed-form beside a uniform issuer, so it is
/// sampled, from a stream of its own: a pump patches its arrival and
/// its departure like any other update; and a patched subscription's
/// next tick probes exactly once.
#[test]
fn a_sampling_subscription_is_patched() {
    let objects: Vec<UncertainObject> = (0..144u64)
        .map(|k| {
            let c = Point::new((k % 12) as f64 * 80.0 + 40.0, (k / 12) as f64 * 80.0 + 40.0);
            UncertainObject::new(k, UniformPdf::new(Rect::centered(c, 18.0, 18.0)))
        })
        .collect();
    let engine: ShardedEngine<UncertainEngine> = ShardedEngine::build(objects, 2);
    let mut registry: SubscriptionRegistry<UncertainEngine> = SubscriptionRegistry::new();
    let mut snapshots = vec![engine.snapshot()];
    let request =
        UncertainRequest::iuq(issuer_at(Point::new(400.0, 400.0)), RangeSpec::square(90.0));
    let id = registry.subscribe(&engine, request.clone(), 100.0);
    let mut standing = Standing {
        id,
        kind: Kind::Plain,
        request,
        state: registry.get(id).unwrap().last_answer().to_vec(),
    };

    let uniform_at = |id: u64, x: f64| {
        UncertainObject::new(
            id,
            UniformPdf::new(Rect::centered(Point::new(x, 400.0), 18.0, 18.0)),
        )
    };
    let disc = |x: f64| UncertainObject::new(9_000u64, DiscPdf::new(Point::new(x, 410.0), 12.0));
    // (update, patched?, probes after the pump)
    let steps = [
        // Uniform objects move through the query: patched.
        (Update::Move(uniform_at(0, 390.0)), 1, 1),
        (Update::Move(uniform_at(1, 420.0)), 1, 1),
        // A disc arrives inside the filter rectangle: patched.
        (Update::Arrive(disc(405.0)), 1, 1),
        // While it is a candidate, wake-ups are patched...
        (Update::Move(uniform_at(0, 380.0)), 1, 1),
        // ...its own departure included...
        (Update::Depart(ObjectId(9_000)), 1, 1),
        // ...and after it has left.
        (Update::Move(uniform_at(1, 410.0)), 1, 1),
        // A disc inside the envelope but outside the filter rectangle
        // is not evaluated.
        (Update::Arrive(disc(590.0)), 1, 1),
    ];
    let mut sampled = 0;
    for (k, (update, patched, probes)) in steps.into_iter().enumerate() {
        engine.submit(update);
        engine.commit();
        snapshots.push(engine.snapshot());
        let mut emitted = None;
        let report = registry.pump(&engine, |_, _, delta| emitted = Some(delta.clone()));
        assert_eq!((report.woken, report.patched), (1, patched), "step {k}");
        assert_eq!(registry.get(id).unwrap().probes(), probes, "step {k}");
        let what = format!("step {k}");
        check_against_oracle::<Regions>(
            &what,
            &registry,
            &snapshots,
            &mut standing,
            emitted.as_ref(),
        );
        let full = snapshots.last().unwrap().execute_one(&standing.request);
        sampled += usize::from(full.stats.mc_samples > 0);
    }
    // The disc was a candidate for the full evaluation at two epochs.
    assert_eq!(sampled, 2);

    // The candidates are stale now. A tick probes once — and finds the
    // disc when the query moves over it — then ticks are probe-free.
    for (k, x) in [500.0, 503.0, 506.0, 509.0].into_iter().enumerate() {
        let issuer = issuer_at(Point::new(x, 400.0));
        standing.request.issuer = issuer.clone();
        let (_, delta) = registry.tick(&engine, id, issuer.pdf().clone()).unwrap();
        let delta = delta.clone();
        if k == 0 {
            assert!(delta.upserts.iter().any(|m| m.id == ObjectId(9_000)));
        }
        check_against_oracle::<Regions>("tick", &registry, &snapshots, &mut standing, Some(&delta));
        let sub = registry.get(id).unwrap();
        assert_eq!((sub.probes(), sub.cache_hits()), (2, k as u64), "tick {k}");
    }
}
