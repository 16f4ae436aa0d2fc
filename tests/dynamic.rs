//! Dynamic-maintenance bit-identity properties.
//!
//! The contract of every insert/remove path in the workspace: after
//! **any** interleaving of inserts and removes, a query answers
//! **bit-identically** to a from-scratch rebuild on the final live
//! set. Pinned here at three layers:
//!
//! * index level — the same `QueryPipeline` over a dynamically
//!   maintained `RTree` / `Pti` / `NaiveIndex` vs a
//!   rebuilt one;
//! * engine level — `PointEngine` / `UncertainEngine` under an
//!   arrival/departure/move stream vs `from_objects` / `build` on the
//!   survivors; for the uncertain engine also over mixed pdf kinds,
//!   with the PTI's bound table held to the pdfs it was computed from;
//! * serving level — `ShardedEngine` snapshots across shard counts
//!   1/2/8, committed in batches, vs a rebuilt single engine; and, over
//!   200 commits, snapshots held across later epochs (which share
//!   their pages and tree nodes copy-on-write) against what they
//!   answered when taken; under balanced churn every shard's live
//!   slots stay in id order, so no shard's matches need a sort; and a
//!   shard rebuilt once its vacated slots outnumber its live objects
//!   keeps their order, its answers and its old snapshots;
//! * durability level — a `DurableCatalog` whose process is "killed"
//!   at arbitrary WAL byte offsets (emulated by truncating the live
//!   segment) recovers to a bit-identical prefix of the committed
//!   stream, again across shard counts 1/2/8.
//!
//! All queries also run through **one dirty, reused
//! `ExecutionContext`** (its `QueryScratch` is never cleared between
//! layers), so scratch reuse is covered by the same bit-identity bar.
//! Probabilities are the closed forms (`Integrator::Auto` over
//! uniform pdfs) or, for the mixed-pdf catalogs under Gaussian
//! issuers, Monte-Carlo estimates drawn from each object's own stream:
//! either is a function of the query and its one object, which is
//! what makes bit-identity — not mere approximate equality — the
//! right assertion.

use iloc::core::minkowski_query;
use iloc::core::pipeline::{
    AcceptPolicy, CatalogObject, EvaluatorKind, ExecutionContext, PreparedQuery, QueryPipeline,
};
use iloc::core::pipeline::{PointRequest, UncertainRequest};
use iloc::core::serve::{ServeEngine, ShardedEngine, Snapshot, Update};
use iloc::datagen::{PointUpdate, PointUpdateGen, RectUpdate, RectUpdateGen, UpdateMix};
use iloc::index::{
    AccessStats, NaiveIndex, Pages, Pti, PtiParams, RTree, RTreeParams, RangeIndex,
    TraversalScratch,
};
use iloc::prelude::*;
use iloc::uncertainty::{
    DiscPdf, ObjectId, PointObject, TruncatedGaussianPdf, UCatalog, UncertainObject, UniformPdf,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs one IPQ-shaped pipeline over `index` and the shared object
/// arena through the caller's (dirty) context.
fn pipeline_answer<I: RangeIndex<u32>>(
    index: &I,
    objects: &Pages<PointObject>,
    issuer: &Issuer,
    range: RangeSpec,
    ctx: &mut ExecutionContext,
) -> QueryAnswer {
    let query = PreparedQuery::new(issuer, range);
    let mut answer = QueryAnswer::default();
    QueryPipeline {
        query,
        objects,
        prune: None,
        refine: EvaluatorKind::Duality,
        accept: AcceptPolicy::Positive,
    }
    .execute_into(ctx, &mut answer, |stats, traversal, out| {
        index.query_range_scratch(query.expanded, stats, traversal, out)
    });
    answer
}

/// The index-level property for one backend: interleaved
/// inserts/removes, then queries bit-identical to a rebuild.
fn index_dynamic_equals_rebuild<I: RangeIndex<u32>>(
    name: &str,
    build: impl Fn(Vec<(Rect, u32)>) -> I,
) {
    let mut rng = StdRng::seed_from_u64(0xD11A);
    // Append-only object arena; the live set indexes into it.
    let mut arena: Pages<PointObject> = Pages::new();
    let mut live: Vec<(Rect, u32)> = Vec::new();
    let mut dynamic = build(Vec::new());

    for _ in 0..1_500 {
        let grow = live.len() < 50 || rng.gen_bool(0.6);
        if grow {
            let slot = arena.len() as u32;
            let loc = Point::new(rng.gen_range(0.0..2_000.0), rng.gen_range(0.0..2_000.0));
            arena.push(PointObject::new(slot as u64, loc));
            let extent = Rect::from_point(loc);
            dynamic.insert(extent, slot);
            live.push((extent, slot));
        } else {
            let k = rng.gen_range(0..live.len());
            let (extent, slot) = live.swap_remove(k);
            assert!(dynamic.remove(extent, slot), "{name}: lost slot {slot}");
        }
    }
    let rebuilt = build(live.clone());

    // One dirty context shared by every execution below.
    let mut ctx = ExecutionContext::new(Integrator::Auto);
    for q in 0..25u64 {
        let c = Point::new(rng.gen_range(0.0..2_000.0), rng.gen_range(0.0..2_000.0));
        let issuer = Issuer::uniform(Rect::centered(c, 120.0, 120.0));
        let range = RangeSpec::square(100.0 + 10.0 * q as f64);
        let a = pipeline_answer(&dynamic, &arena, &issuer, range, &mut ctx);
        let b = pipeline_answer(&rebuilt, &arena, &issuer, range, &mut ctx);
        assert!(
            a.same_matches(&b),
            "{name}: query {q} diverged from rebuild"
        );
        // And against a fresh context (scratch reuse is inert).
        let fresh = pipeline_answer(
            &dynamic,
            &arena,
            &issuer,
            range,
            &mut ExecutionContext::new(Integrator::Auto),
        );
        assert!(a.same_matches(&fresh), "{name}: dirty scratch diverged");
    }
}

#[test]
fn rtree_dynamic_equals_rebuild() {
    index_dynamic_equals_rebuild("rtree", |entries| {
        RTree::bulk_load(entries, RTreeParams::default())
    });
}

#[test]
fn pti_dynamic_equals_rebuild() {
    index_dynamic_equals_rebuild("pti", |entries| {
        Pti::bulk_load(
            vec![0.0],
            entries.into_iter().map(|(r, t)| (vec![r], t)).collect(),
            PtiParams::default(),
        )
    });
}

#[test]
fn naive_dynamic_equals_rebuild() {
    index_dynamic_equals_rebuild("naive", NaiveIndex::new);
}

/// Shared driver for the engine/serving-level property over a point
/// stream: applies the same updates to a dynamic single engine and to
/// sharded engines (1/2/8 shards, committed in batches), then checks
/// every layer answers bit-identically to a from-scratch rebuild.
#[test]
fn point_stream_equals_rebuild_across_all_layers() {
    let (base, mut gen) = PointUpdateGen::over_california(1_500, 41, UpdateMix::balanced());
    let mut dynamic = PointEngine::build(base.clone());
    let sharded: Vec<ShardedEngine<PointEngine>> = [1usize, 2, 8]
        .iter()
        .map(|&n| {
            ShardedEngine::build(
                base.iter()
                    .enumerate()
                    .map(|(k, &p)| PointObject::new(k as u64, p))
                    .collect(),
                n,
            )
        })
        .collect();

    for _round in 0..12 {
        for event in gen.stream(150) {
            match event {
                PointUpdate::Arrive { id, loc } => {
                    dynamic.insert_object(PointObject::new(id, loc));
                    for s in &sharded {
                        s.submit(Update::Arrive(PointObject::new(id, loc)));
                    }
                }
                PointUpdate::Depart { id } => {
                    assert!(dynamic.remove(iloc::uncertainty::ObjectId(id)));
                    for s in &sharded {
                        s.submit(Update::Depart(iloc::uncertainty::ObjectId(id)));
                    }
                }
                PointUpdate::Move { id, to } => {
                    assert!(dynamic.remove(iloc::uncertainty::ObjectId(id)));
                    dynamic.insert_object(PointObject::new(id, to));
                    for s in &sharded {
                        s.submit(Update::Move(PointObject::new(id, to)));
                    }
                }
            }
        }
        // One epoch per round: queries between rounds see each batch
        // applied atomically.
        for s in &sharded {
            s.commit();
        }
    }

    // Rebuild on the survivors.
    let survivors: Vec<PointObject> = gen
        .live()
        .iter()
        .map(|&(id, loc)| PointObject::new(id, loc))
        .collect();
    let rebuilt = PointEngine::from_objects(survivors.clone());
    assert_eq!(dynamic.len(), rebuilt.len());
    for s in &sharded {
        assert_eq!(s.len(), rebuilt.len());
    }

    let mut rng = StdRng::seed_from_u64(99);
    let mut ctx = ExecutionContext::new(Integrator::Auto);
    for q in 0..30 {
        let c = Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0));
        let issuer = Issuer::uniform(Rect::centered(c, 250.0, 250.0));
        let request = if q % 3 == 0 {
            PointRequest::cipq(
                issuer,
                RangeSpec::square(500.0),
                0.3,
                CipqStrategy::PExpanded,
            )
        } else {
            PointRequest::ipq(issuer, RangeSpec::square(500.0))
        };
        let want = rebuilt.execute_one(&request);
        // Dynamic single engine, through the shared dirty context.
        let mut got = QueryAnswer::default();
        dynamic.execute_one_into(&request, &mut ctx, &mut got);
        assert!(got.same_matches(&want), "query {q}: dynamic != rebuild");
        // Every shard count.
        for s in &sharded {
            let snap = s.snapshot();
            let sharded_answer = snap.execute_one(&request);
            assert!(
                sharded_answer.same_matches(&want),
                "query {q}: {} shards != rebuild",
                snap.shard_count()
            );
        }
    }
}

#[test]
fn uncertain_stream_equals_rebuild_across_shard_counts() {
    let (base, mut gen) = RectUpdateGen::over_long_beach(500, 77, UpdateMix::balanced());
    let objects = |regions: &[(u64, Rect)]| -> Vec<UncertainObject> {
        regions
            .iter()
            .map(|&(id, r)| UncertainObject::new(id, UniformPdf::new(r)))
            .collect()
    };
    let base_objects: Vec<UncertainObject> = base
        .iter()
        .enumerate()
        .map(|(k, &r)| UncertainObject::new(k as u64, UniformPdf::new(r)))
        .collect();

    let mut dynamic = UncertainEngine::build(base_objects.clone());
    let sharded: Vec<ShardedEngine<UncertainEngine>> = [1usize, 2, 8]
        .iter()
        .map(|&n| ShardedEngine::build(base_objects.clone(), n))
        .collect();

    for _round in 0..8 {
        for event in gen.stream(100) {
            match event {
                RectUpdate::Arrive { id, region } => {
                    dynamic.insert(UncertainObject::new(id, UniformPdf::new(region)));
                    for s in &sharded {
                        s.submit(Update::Arrive(UncertainObject::new(
                            id,
                            UniformPdf::new(region),
                        )));
                    }
                }
                RectUpdate::Depart { id } => {
                    assert!(dynamic.remove(iloc::uncertainty::ObjectId(id)));
                    for s in &sharded {
                        s.submit(Update::Depart(iloc::uncertainty::ObjectId(id)));
                    }
                }
                RectUpdate::Move { id, to } => {
                    assert!(dynamic.remove(iloc::uncertainty::ObjectId(id)));
                    dynamic.insert(UncertainObject::new(id, UniformPdf::new(to)));
                    for s in &sharded {
                        s.submit(Update::Move(UncertainObject::new(id, UniformPdf::new(to))));
                    }
                }
            }
        }
        for s in &sharded {
            s.commit();
        }
    }

    let rebuilt = UncertainEngine::build(objects(gen.live()));
    assert_eq!(dynamic.len(), rebuilt.len());

    let mut rng = StdRng::seed_from_u64(7);
    let mut ctx = ExecutionContext::new(Integrator::Auto);
    for q in 0..20 {
        let c = Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0));
        let issuer = Issuer::uniform(Rect::centered(c, 250.0, 250.0));
        let request = match q % 3 {
            0 => UncertainRequest::ciuq(
                issuer,
                RangeSpec::square(500.0),
                0.25,
                CiuqStrategy::PtiPExpanded,
            ),
            1 => UncertainRequest::ciuq(
                issuer,
                RangeSpec::square(500.0),
                0.25,
                CiuqStrategy::RTreeMinkowski,
            ),
            _ => UncertainRequest::iuq(issuer, RangeSpec::square(500.0)),
        };
        let want = rebuilt.execute_one(&request);
        let mut got = QueryAnswer::default();
        dynamic.execute_one_into(&request, &mut ctx, &mut got);
        assert!(got.same_matches(&want), "query {q}: dynamic != rebuild");
        for s in &sharded {
            let snap = s.snapshot();
            assert!(
                snap.execute_one(&request).same_matches(&want),
                "query {q}: {} shards != rebuild",
                snap.shard_count()
            );
        }
    }
}

// --- Held snapshots ----------------------------------------------------

/// A snapshot kept alive past its epoch, with what it answered the day
/// it was taken.
struct Held<E: ServeEngine> {
    snapshot: Snapshot<E>,
    answers: Vec<QueryAnswer>,
    release_at: usize,
}

/// The serving-level sharing property. An epoch shares with the next
/// every page and tree node its commit did not write, so a bug in the
/// copy-on-write would show as an *old* snapshot changing under a
/// reader. Over `COMMITS` epochs at 1, 2 and 8 shards:
///
/// * snapshots taken at random epochs are held for random spans, and
///   each answers `requests` bit-identically to what it answered when
///   taken, at every epoch it is held for;
/// * every epoch answers `requests` bit-identically to an engine
///   rebuilt from scratch over that epoch's live set;
/// * `check` (the engine's `check_invariants`) passes on every shard
///   after every commit.
///
/// `next_epoch` yields each epoch's batch and the live set after it.
fn held_snapshots_answer_as_taken<E: ServeEngine>(
    base: Vec<E::Object>,
    requests: &[E::Request],
    mut next_epoch: impl FnMut() -> (Vec<Update<E::Object>>, Vec<E::Object>),
    check: impl Fn(&E),
) {
    const COMMITS: usize = 200;
    let answers = |snapshot: &Snapshot<E>| -> Vec<QueryAnswer> {
        requests.iter().map(|r| snapshot.execute_one(r)).collect()
    };
    let same =
        |a: &[QueryAnswer], b: &[QueryAnswer]| a.iter().zip(b).all(|(a, b)| a.same_matches(b));

    let engines: Vec<ShardedEngine<E>> = [1usize, 2, 8]
        .iter()
        .map(|&n| ShardedEngine::build(base.clone(), n))
        .collect();
    let mut rng = StdRng::seed_from_u64(0x4E1D);
    let mut held: Vec<Held<E>> = Vec::new();
    let mut most_held = 0;

    for epoch in 1..=COMMITS {
        let (batch, live) = next_epoch();
        let rebuilt = E::build_from(live);
        let want: Vec<QueryAnswer> = requests.iter().map(|r| rebuilt.execute_one(r)).collect();
        for engine in &engines {
            engine.submit_all(batch.iter().cloned());
            assert_eq!(engine.commit().epoch, epoch as u64);
            let snapshot = engine.snapshot();
            let shards = snapshot.shard_count();
            snapshot.shards().iter().for_each(|shard| check(shard));
            assert_eq!(snapshot.len(), rebuilt.len());
            let got = answers(&snapshot);
            assert!(
                same(&got, &want),
                "epoch {epoch}, {shards} shards != rebuild"
            );
            if rng.gen_bool(0.3) {
                held.push(Held {
                    snapshot,
                    answers: got,
                    release_at: epoch + rng.gen_range(1..40),
                });
            }
        }
        held.retain(|h| h.release_at > epoch);
        most_held = most_held.max(held.len());
        for h in &held {
            assert!(
                same(&answers(&h.snapshot), &h.answers),
                "at epoch {epoch} the snapshot of epoch {} ({} shards) no longer answers \
                 what it answered when taken",
                h.snapshot.epoch(),
                h.snapshot.shard_count()
            );
        }
    }
    assert!(most_held >= 8, "the schedule held only {most_held} at once");
}

#[test]
fn held_point_snapshots_answer_as_taken_across_200_commits() {
    let (base, mut gen) = PointUpdateGen::over_california(700, 5, UpdateMix::balanced());
    let mut rng = StdRng::seed_from_u64(17);
    let requests: Vec<PointRequest> = (0..6)
        .map(|q| {
            let c = Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0));
            let issuer = Issuer::uniform(Rect::centered(c, 400.0, 400.0));
            if q % 2 == 0 {
                PointRequest::ipq(issuer, RangeSpec::square(1_500.0))
            } else {
                PointRequest::cipq(
                    issuer,
                    RangeSpec::square(1_500.0),
                    0.2,
                    CipqStrategy::PExpanded,
                )
            }
        })
        .collect();
    held_snapshots_answer_as_taken::<PointEngine>(
        base.iter()
            .enumerate()
            .map(|(k, &p)| PointObject::new(k as u64, p))
            .collect(),
        &requests,
        || {
            let batch = gen
                .stream(24)
                .into_iter()
                .map(|u| match u {
                    PointUpdate::Arrive { id, loc } => Update::Arrive(PointObject::new(id, loc)),
                    PointUpdate::Depart { id } => Update::Depart(ObjectId(id)),
                    PointUpdate::Move { id, to } => Update::Move(PointObject::new(id, to)),
                })
                .collect();
            let live = gen.live().iter().map(|&(id, p)| PointObject::new(id, p));
            (batch, live.collect())
        },
        PointEngine::check_invariants,
    );
}

#[test]
fn held_uncertain_snapshots_answer_as_taken_across_200_commits() {
    let uniform = |id: u64, region: Rect| UncertainObject::new(id, UniformPdf::new(region));
    let (base, mut gen) = RectUpdateGen::over_long_beach(500, 6, UpdateMix::balanced());
    let mut rng = StdRng::seed_from_u64(18);
    let requests: Vec<UncertainRequest> = (0..6)
        .map(|q| {
            let c = Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0));
            let issuer = Issuer::uniform(Rect::centered(c, 400.0, 400.0));
            let range = RangeSpec::square(1_500.0);
            match q % 3 {
                0 => UncertainRequest::iuq(issuer, range),
                1 => UncertainRequest::ciuq(issuer, range, 0.25, CiuqStrategy::PtiPExpanded),
                _ => UncertainRequest::ciuq(issuer, range, 0.25, CiuqStrategy::RTreeMinkowski),
            }
        })
        .collect();
    held_snapshots_answer_as_taken::<UncertainEngine>(
        base.iter()
            .enumerate()
            .map(|(k, &r)| uniform(k as u64, r))
            .collect(),
        &requests,
        || {
            let batch = gen
                .stream(24)
                .into_iter()
                .map(|u| match u {
                    RectUpdate::Arrive { id, region } => Update::Arrive(uniform(id, region)),
                    RectUpdate::Depart { id } => Update::Depart(ObjectId(id)),
                    RectUpdate::Move { id, to } => Update::Move(uniform(id, to)),
                })
                .collect();
            let live = gen.live().iter().map(|&(id, r)| uniform(id, r));
            (batch, live.collect())
        },
        UncertainEngine::check_invariants,
    );
}

// --- Durability oracle -----------------------------------------------

/// A seeded object of the pdf kind `kind % 3` selects, somewhere in a
/// 2000 × 2000 space.
fn mixed_object(id: u64, kind: u64, rng: &mut StdRng) -> UncertainObject {
    let c = Point::new(rng.gen_range(100.0..1_900.0), rng.gen_range(100.0..1_900.0));
    let (w, h) = (rng.gen_range(10.0..60.0), rng.gen_range(10.0..60.0));
    match kind % 3 {
        0 => UncertainObject::new(id, UniformPdf::new(Rect::centered(c, w, h))),
        1 => UncertainObject::new(
            id,
            TruncatedGaussianPdf::paper_default(Rect::centered(c, w, h)),
        ),
        _ => UncertainObject::new(id, DiscPdf::new(c, w)),
    }
}

/// The engine's invariants hold, every live slot's stored bounds are
/// the catalog of the pdf in that slot, and the engine answers IUQ and
/// both C-IUQ plans bit-identically to one freshly built over its live
/// objects, in slot order.
fn assert_no_drift(phase: &str, engine: &UncertainEngine, ctx: &mut ExecutionContext) {
    engine.check_invariants();
    for (slot, object) in engine.live() {
        let want = UCatalog::build_default(object.pdf());
        let got = engine.bounds(slot);
        assert_eq!(
            got.levels(),
            want.levels().collect::<Vec<_>>(),
            "{phase}: levels"
        );
        for (k, bound) in want.bounds().iter().enumerate() {
            assert_eq!(got.rect(k), bound.rect, "{phase}: slot {slot} level {k}");
        }
    }

    let rebuilt = UncertainEngine::build(engine.live().map(|(_, o)| o.clone()).collect());
    let mut rng = StdRng::seed_from_u64(0x20_D21F);
    let mut matched = 0;
    for q in 0..6 {
        let c = Point::new(rng.gen_range(300.0..1_700.0), rng.gen_range(300.0..1_700.0));
        let issuer = Issuer::uniform(Rect::centered(c, 120.0, 90.0));
        let range = RangeSpec::square(250.0);
        let mut requests = vec![UncertainRequest::iuq(issuer.clone(), range)];
        for strategy in [CiuqStrategy::RTreeMinkowski, CiuqStrategy::PtiPExpanded] {
            for qp in [0.0, 0.3, 0.7] {
                requests.push(UncertainRequest::ciuq(issuer.clone(), range, qp, strategy));
            }
        }
        for (k, request) in requests.iter().enumerate() {
            let want = rebuilt.execute_one(request);
            let mut got = QueryAnswer::default();
            engine.execute_one_into(request, ctx, &mut got);
            assert!(
                got.same_matches(&want),
                "{phase}: query {q} request {k}: dynamic != rebuild"
            );
            matched += got.results.len();
        }
    }
    assert!(matched > 0, "{phase}: degenerate scenario, nothing matched");
}

#[test]
fn bound_table_never_drifts_from_the_pdfs() {
    const N: u64 = 450;
    let mut rng = StdRng::seed_from_u64(0x7AB1E);
    let mut ctx = ExecutionContext::new(Integrator::Auto);
    let mut live: Vec<u64> = (0..N).collect();
    let mut engine =
        UncertainEngine::build((0..N).map(|id| mixed_object(id, id, &mut rng)).collect());
    assert_no_drift("built", &engine, &mut ctx);

    for id in N..N + 150 {
        engine.insert(mixed_object(id, id, &mut rng));
        live.push(id);
    }
    assert_no_drift("arrived", &engine, &mut ctx);

    // Every object moves twice; a move may change its pdf kind.
    for round in 0..2 {
        for &id in &live {
            engine.insert(mixed_object(id, id + round + rng.gen_range(0..2), &mut rng));
        }
    }
    assert_no_drift("moved", &engine, &mut ctx);

    while live.len() > (N as usize + 150) / 10 {
        let id = live.swap_remove(rng.gen_range(0..live.len()));
        assert!(engine.remove(ObjectId(id)));
    }
    assert_no_drift("departed", &engine, &mut ctx);

    // Arrivals reuse the freed table rows: the slot → row map is by
    // now a shuffle.
    for id in 1_000..1_300 {
        engine.insert(mixed_object(id, id, &mut rng));
    }
    assert_no_drift("refilled", &engine, &mut ctx);
}

/// A sampled estimate is a function of the query and its one object:
/// a mixed uniform/Gaussian/disc catalog under Gaussian issuers, where
/// every uncertain object is sampled, answers IUQ and both C-IUQ plans
/// bit-identically on 1, 2 and 4 shards, under `Auto` and under
/// explicit Monte-Carlo; and after one matching object departs, every
/// other match keeps its probability bits.
#[test]
fn sampled_answers_are_identical_across_shard_counts_and_departures() {
    let mut rng = StdRng::seed_from_u64(0x5A_3D1E);
    let objects: Vec<UncertainObject> = (0..600).map(|id| mixed_object(id, id, &mut rng)).collect();
    let engines: Vec<ShardedEngine<UncertainEngine>> = [1, 2, 4]
        .into_iter()
        .map(|shards| ShardedEngine::build(objects.clone(), shards))
        .collect();
    let range = RangeSpec::square(120.0);
    let mut requests = Vec::new();
    for _ in 0..6 {
        let c = Point::new(rng.gen_range(300.0..1_700.0), rng.gen_range(300.0..1_700.0));
        let issuer = Issuer::gaussian(Rect::centered(c, 60.0, 45.0));
        for integrator in [Integrator::Auto, Integrator::MonteCarlo { samples: 64 }] {
            requests.push(UncertainRequest::iuq(issuer.clone(), range).with_integrator(integrator));
            for strategy in [CiuqStrategy::RTreeMinkowski, CiuqStrategy::PtiPExpanded] {
                let request = UncertainRequest::ciuq(issuer.clone(), range, 0.3, strategy);
                requests.push(request.with_integrator(integrator));
            }
        }
    }

    let mut matched = 0;
    for (k, request) in requests.iter().enumerate() {
        let want = engines[0].snapshot().execute_one(request);
        assert!(want.stats.mc_samples > 0, "request {k} does not sample");
        for engine in &engines[1..] {
            let got = engine.snapshot().execute_one(request);
            assert!(
                got.same_matches(&want),
                "request {k}: {} shards != 1 shard",
                engine.snapshot().shards().len()
            );
        }
        matched += want.results.len();
    }
    assert!(matched > 60, "degenerate scenario: {matched} matches");

    // Depart the first match of each IUQ, one at a time: the answer
    // loses that match and keeps every other one's bits.
    for (k, request) in requests.iter().enumerate().step_by(3) {
        let before: Vec<QueryAnswer> = engines
            .iter()
            .map(|e| e.snapshot().execute_one(request))
            .collect();
        let Some(gone) = before[0].results.first().map(|m| m.id) else {
            continue;
        };
        for engine in &engines {
            engine.submit(Update::Depart(gone));
            engine.commit();
        }
        for (engine, before) in engines.iter().zip(&before) {
            let mut want = before.clone();
            want.results.retain(|m| m.id != gone);
            let snapshot = engine.snapshot();
            assert!(
                snapshot.execute_one(request).same_matches(&want),
                "request {k}, {} shards: {gone:?} departed",
                snapshot.shards().len()
            );
        }
    }
}

// --- Slot order and compaction ------------------------------------------

/// `true` when `ids` strictly increase.
fn increasing(ids: &[ObjectId]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

/// The order oracle for one engine type: 200 balanced batches into a
/// 4-shard engine, and after every 20th commit
///
/// * each shard's live objects, in slot order, have strictly
///   increasing ids;
/// * each shard's filter candidates for every request of `pool` — in
///   the slot order the pipeline refines them in and emits its matches
///   in — are live objects with strictly increasing ids, so the
///   pipeline's match sort finds its input already sorted;
/// * the merged answers are bit-identical to a catalog built afresh
///   over the live set.
///
/// `next_batch` yields each batch and the live set after it.
fn live_slots_stay_in_id_order<E: ServeEngine>(
    base: Vec<E::Object>,
    pool: &[E::Request],
    mut next_batch: impl FnMut() -> (Vec<Update<E::Object>>, Vec<E::Object>),
) {
    let engine = ShardedEngine::<E>::build(base, 4);
    let mut scratch = TraversalScratch::new();
    let mut candidates = Vec::new();
    for cycle in 1..=200 {
        let (batch, live) = next_batch();
        engine.submit_all(batch);
        engine.commit();
        if cycle % 20 != 0 {
            continue;
        }
        let snapshot = engine.snapshot();
        for (k, shard) in snapshot.shards().iter().enumerate() {
            let ids: Vec<ObjectId> = shard.live_objects().map(|o| o.id()).collect();
            assert!(
                increasing(&ids),
                "cycle {cycle}: shard {k}'s live slots left id order"
            );
            let objects = shard.objects();
            for (q, request) in pool.iter().enumerate() {
                candidates.clear();
                let filter = minkowski_query(&request.issuer, request.range);
                shard.probe_into(
                    filter,
                    &mut AccessStats::new(),
                    &mut scratch,
                    &mut candidates,
                );
                candidates.sort_unstable();
                let ids: Vec<ObjectId> = candidates
                    .iter()
                    .map(|&slot| objects[slot as usize].id())
                    .collect();
                assert!(
                    increasing(&ids),
                    "cycle {cycle}: shard {k}, request {q}: the matches need a sort"
                );
                for (&slot, &id) in candidates.iter().zip(&ids) {
                    assert_eq!(
                        shard.find(id).map(|o| o.extent()),
                        Some(objects[slot as usize].extent()),
                        "cycle {cycle}: shard {k}: vacated slot {slot} is still indexed"
                    );
                }
            }
        }
        let rebuilt = ShardedEngine::<E>::build(live, 4).snapshot();
        for (q, request) in pool.iter().enumerate() {
            assert!(
                snapshot
                    .execute_one(request)
                    .same_matches(&rebuilt.execute_one(request)),
                "cycle {cycle}: request {q}: churned != rebuild"
            );
        }
    }
}

#[test]
fn slots_stay_in_id_order_under_churn() {
    let mut rng = StdRng::seed_from_u64(0x0D3E);
    let mut issuer = || {
        let c = Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0));
        Issuer::uniform(Rect::centered(c, 250.0, 250.0))
    };
    let range = RangeSpec::square(700.0);
    let points: Vec<PointRequest> = (0..64)
        .map(|q| match q % 2 {
            0 => PointRequest::ipq(issuer(), range),
            _ => PointRequest::cipq(issuer(), range, 0.3, CipqStrategy::PExpanded),
        })
        .collect();
    let regions: Vec<UncertainRequest> = (0..64)
        .map(|q| match q % 3 {
            0 => UncertainRequest::iuq(issuer(), range),
            1 => UncertainRequest::ciuq(issuer(), range, 0.3, CiuqStrategy::PtiPExpanded),
            _ => UncertainRequest::ciuq(issuer(), range, 0.3, CiuqStrategy::RTreeMinkowski),
        })
        .collect();

    let (base, mut gen) = PointUpdateGen::over_california(2_000, 28, UpdateMix::balanced());
    live_slots_stay_in_id_order::<PointEngine>(
        (0u64..)
            .zip(base)
            .map(|(k, p)| PointObject::new(k, p))
            .collect(),
        &points,
        || {
            let batch = gen
                .stream(64)
                .into_iter()
                .map(|u| match u {
                    PointUpdate::Arrive { id, loc } => Update::Arrive(PointObject::new(id, loc)),
                    PointUpdate::Depart { id } => Update::Depart(ObjectId(id)),
                    PointUpdate::Move { id, to } => Update::Move(PointObject::new(id, to)),
                })
                .collect();
            let live = gen.live().iter().map(|&(id, p)| PointObject::new(id, p));
            (batch, live.collect())
        },
    );

    let uniform = |id: u64, region: Rect| UncertainObject::new(id, UniformPdf::new(region));
    let (base, mut gen) = RectUpdateGen::over_long_beach(2_000, 28, UpdateMix::balanced());
    live_slots_stay_in_id_order::<UncertainEngine>(
        (0u64..).zip(base).map(|(k, r)| uniform(k, r)).collect(),
        &regions,
        || {
            let batch = gen
                .stream(64)
                .into_iter()
                .map(|u| match u {
                    RectUpdate::Arrive { id, region } => Update::Arrive(uniform(id, region)),
                    RectUpdate::Depart { id } => Update::Depart(ObjectId(id)),
                    RectUpdate::Move { id, to } => Update::Move(uniform(id, to)),
                })
                .collect();
            let live = gen.live().iter().map(|&(id, r)| uniform(id, r));
            (batch, live.collect())
        },
    );
}

/// Each shard's live ids, in slot order.
fn live_ids(snapshot: &Snapshot<UncertainEngine>) -> Vec<Vec<ObjectId>> {
    let shards = snapshot.shards().iter();
    shards
        .map(|s| s.live_objects().map(|o| o.id).collect())
        .collect()
}

/// Compaction, at the commit a shard's vacated slots first outnumber
/// its live objects. A control catalog takes the same updates over the
/// same objects plus far-away padding that no update or query touches,
/// so its shards never reach the threshold: it reports and answers what
/// the updates give without compaction. Over mixed pdfs, so the disc
/// objects refine by Monte-Carlo and candidate order decides the bits.
/// At that commit:
///
/// * the compacted shard has no vacated slot (`slots() == len()`) and
///   its live id sequence is the control's;
/// * the answers are bit-identical to the control's and to a catalog
///   built afresh over the live objects in slot order;
/// * a snapshot taken before the commit still answers as it did;
/// * every shard's invariants hold, and the commit reports and the
///   dirt history are the control's.
///
/// Five more commits then run through the compacted shard.
#[test]
fn compaction_keeps_live_order_and_old_snapshots() {
    const N: u64 = 300;
    const PADDING: u64 = 1 << 40;
    let mut rng = StdRng::seed_from_u64(0xC0_4AC7);
    let base: Vec<UncertainObject> = (0..N).map(|id| mixed_object(id, id, &mut rng)).collect();
    let padding = (0..3 * N).map(|k| {
        let at = Point::new(50_000.0 + 10.0 * k as f64, 50_000.0);
        UncertainObject::new(PADDING + k, UniformPdf::new(Rect::centered(at, 2.0, 2.0)))
    });
    let engine = ShardedEngine::<UncertainEngine>::build(base.clone(), 2);
    let control =
        ShardedEngine::<UncertainEngine>::build(base.into_iter().chain(padding).collect(), 2);
    let unpadded = |snapshot: &Snapshot<UncertainEngine>| -> Vec<Vec<ObjectId>> {
        let mut ids = live_ids(snapshot);
        ids.iter_mut().for_each(|s| s.retain(|id| id.0 < PADDING));
        ids
    };

    let mut requests = Vec::new();
    for _ in 0..8 {
        let c = Point::new(rng.gen_range(300.0..1_700.0), rng.gen_range(300.0..1_700.0));
        let issuer = Issuer::uniform(Rect::centered(c, 120.0, 90.0));
        let range = RangeSpec::square(250.0);
        requests.push(UncertainRequest::iuq(issuer.clone(), range));
        for strategy in [CiuqStrategy::RTreeMinkowski, CiuqStrategy::PtiPExpanded] {
            requests.push(UncertainRequest::ciuq(issuer.clone(), range, 0.3, strategy));
        }
    }
    let answers = |snapshot: &Snapshot<UncertainEngine>| -> Vec<QueryAnswer> {
        requests.iter().map(|r| snapshot.execute_one(r)).collect()
    };
    let same =
        |a: &[QueryAnswer], b: &[QueryAnswer]| a.iter().zip(b).all(|(a, b)| a.same_matches(b));

    let mut live: Vec<u64> = (0..N).collect();
    let mut next_id = N;
    let mut compacted_at = None;
    let mut after = 0;
    while after < 5 {
        let mut batch = Vec::new();
        for _ in 0..12 {
            let id = live.swap_remove(rng.gen_range(0..live.len()));
            batch.push(Update::Depart(ObjectId(id)));
        }
        for _ in 0..6 {
            let id = live[rng.gen_range(0..live.len())];
            batch.push(Update::Move(mixed_object(
                id,
                rng.gen_range(0..3),
                &mut rng,
            )));
        }
        for _ in 0..3 {
            batch.push(Update::Arrive(mixed_object(next_id, next_id, &mut rng)));
            live.push(next_id);
            next_id += 1;
        }

        let before = engine.snapshot();
        let before_answers = answers(&before);
        // Without compaction, the engine's shards would have the
        // control's vacated slots.
        let crossing: Vec<bool> = {
            control.submit_all(batch.iter().cloned());
            let report = control.commit();
            engine.submit_all(batch);
            assert_eq!(engine.commit(), report, "epoch {}", report.epoch);
            let (e, c) = (engine.snapshot(), control.snapshot());
            let pairs = e.shards().iter().zip(c.shards());
            pairs.map(|(e, c)| c.slots() - c.len() > e.len()).collect()
        };
        let (snapshot, reference) = (engine.snapshot(), control.snapshot());
        let epoch = snapshot.epoch();
        snapshot.shards().iter().for_each(|s| s.check_invariants());
        reference.shards().iter().for_each(|s| s.check_invariants());
        assert!(reference
            .shards()
            .iter()
            .all(|s| s.slots() - s.len() < s.len()));
        assert_eq!(live_ids(&snapshot), unpadded(&reference), "epoch {epoch}");
        let got = answers(&snapshot);
        assert!(
            same(&got, &answers(&reference)),
            "epoch {epoch}: != control"
        );
        let shards = snapshot.shards().iter();
        let rebuilt = shards.flat_map(|s| s.live_objects().cloned()).collect();
        let rebuilt = ShardedEngine::<UncertainEngine>::build(rebuilt, 2).snapshot();
        assert!(same(&got, &answers(&rebuilt)), "epoch {epoch}: != rebuild");
        assert!(
            same(&answers(&before), &before_answers),
            "epoch {epoch}: old snapshot moved"
        );

        if compacted_at.is_none() && crossing.contains(&true) {
            compacted_at = Some(epoch);
            for (k, shard) in snapshot.shards().iter().enumerate() {
                if crossing[k] {
                    assert_eq!(shard.slots(), shard.len(), "shard {k} did not compact");
                } else {
                    assert!(shard.slots() > shard.len(), "shard {k} compacted early");
                }
            }
            assert!(
                got.iter().any(|a| a.stats.mc_samples > 0),
                "no Monte-Carlo refinement: candidate order untested"
            );
        }
        after += usize::from(compacted_at.is_some());
    }
    assert!(
        compacted_at.is_some_and(|e| e > 5),
        "compacted at {compacted_at:?}"
    );
    let (mut dirt, mut want) = (Vec::new(), Vec::new());
    assert!(engine.dirt_since(0, &mut dirt).1 && control.dirt_since(0, &mut want).1);
    assert_eq!(dirt, want);
}

/// A unique scratch directory under the system temp dir.
fn temp_store(tag: &str) -> std::path::PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let dir =
        std::env::temp_dir().join(format!("iloc-dynamic-{tag}-{}-{nanos}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp store");
    dir
}

/// Copies every regular file from `src` into `dst` (durable stores are
/// flat directories).
fn copy_store(src: &std::path::Path, dst: &std::path::Path) {
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read store") {
        let entry = entry.expect("dir entry");
        if entry.file_type().expect("file type").is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy store file");
        }
    }
}

/// Walks the `[len][crc][payload]` framing and returns the byte offset
/// after each complete record.
fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let end = pos + 8 + len;
        if end > bytes.len() {
            break;
        }
        pos = end;
        out.push(pos);
    }
    out
}

/// Durability-level property: commit a deterministic point stream into
/// a durable catalog (checkpointing mid-stream), then emulate SIGKILL
/// at arbitrary byte offsets by truncating the surviving WAL segment.
/// Every cut must recover to some epoch `R` with the catalog answering
/// **bit-identically** to a fresh engine that applied exactly the
/// first `R` batches — and `R` must not depend on the shard count the
/// store is reopened with (1, 2 and 8 are all exercised).
#[test]
fn wal_cut_at_any_offset_recovers_a_bit_identical_prefix() {
    use iloc::core::durable::{DurableCatalog, StoreConfig};
    use std::collections::HashMap;

    const ROUNDS: usize = 20;
    const PER_ROUND: usize = 40;

    let (base, mut gen) = PointUpdateGen::over_california(800, 41, UpdateMix::balanced());
    let base_objects: Vec<PointObject> = base
        .iter()
        .enumerate()
        .map(|(k, &p)| PointObject::new(k as u64, p))
        .collect();
    let batches: Vec<Vec<Update<PointObject>>> = (0..ROUNDS)
        .map(|_| {
            gen.stream(PER_ROUND)
                .into_iter()
                .map(|u| match u {
                    PointUpdate::Arrive { id, loc } => Update::Arrive(PointObject::new(id, loc)),
                    PointUpdate::Depart { id } => Update::Depart(iloc::uncertainty::ObjectId(id)),
                    PointUpdate::Move { id, to } => Update::Move(PointObject::new(id, to)),
                })
                .collect()
        })
        .collect();

    // Build the durable history: 20 commits, checkpoints after epochs
    // 8 and 14. The second checkpoint rotates and prunes the WAL, so
    // the surviving segment holds epochs 15..=20 and the checkpoint at
    // 14 is the recovery floor for any cut.
    let dir = temp_store("cut");
    let config = StoreConfig::new(&dir);
    let seed = base_objects.clone();
    let (catalog, recovery) =
        DurableCatalog::<PointEngine>::open(&config, 2, move || seed).expect("open fresh");
    assert!(!recovery.recovered);
    for (k, batch) in batches.iter().enumerate() {
        catalog.submit_all(batch.iter().cloned());
        catalog.commit().expect("durable commit");
        if k == 7 || k == 13 {
            catalog.checkpoint().expect("mid-stream checkpoint");
        }
    }
    assert_eq!(catalog.epoch(), ROUNDS as u64);
    drop(catalog);

    // The newest (and, after pruning, only) WAL segment.
    let mut wals: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .expect("read store")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    wals.sort();
    let wal = wals.pop().expect("a live WAL segment");
    let wal_name = wal.file_name().expect("wal name").to_owned();
    let bytes = std::fs::read(&wal).expect("read WAL");
    let boundaries = record_boundaries(&bytes);
    assert_eq!(
        boundaries.len(),
        ROUNDS - 14,
        "one record per post-rotation epoch"
    );

    // Cut points: empty file, every record boundary, and interior
    // offsets that leave a torn header or torn payload behind.
    let mut cuts: Vec<usize> = vec![0];
    for &b in &boundaries {
        cuts.push(b);
        for interior in [b + 1, b + 11] {
            if interior < bytes.len() {
                cuts.push(interior);
            }
        }
    }
    cuts.sort_unstable();
    cuts.dedup();

    let mut rng = StdRng::seed_from_u64(2007);
    let pool: Vec<PointRequest> = (0..8)
        .map(|q| {
            let c = Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0));
            let issuer = Issuer::uniform(Rect::centered(c, 250.0, 250.0));
            if q % 3 == 0 {
                PointRequest::cipq(
                    issuer,
                    RangeSpec::square(500.0),
                    0.3,
                    CipqStrategy::PExpanded,
                )
            } else {
                PointRequest::ipq(issuer, RangeSpec::square(500.0))
            }
        })
        .collect();

    // Reference answers per recovered epoch: a fresh engine that
    // applied exactly the first R batches.
    let mut reference: HashMap<u64, Vec<QueryAnswer>> = HashMap::new();

    for (i, &cut) in cuts.iter().enumerate() {
        let cut_dir = temp_store(&format!("cut{i}"));
        copy_store(&dir, &cut_dir);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(cut_dir.join(&wal_name))
            .expect("open cut WAL");
        file.set_len(cut as u64).expect("truncate WAL");
        drop(file);

        let cut_config = StoreConfig::new(&cut_dir);
        let mut recovered_epoch: Option<u64> = None;
        for &shards in &[1usize, 2, 8] {
            let seed = base_objects.clone();
            let (recovered, report) =
                DurableCatalog::<PointEngine>::open(&cut_config, shards, move || seed)
                    .expect("recover from cut");
            assert!(report.recovered, "cut {cut}: a cut store is never fresh");
            let r = recovered.epoch();
            assert!(
                (14..=ROUNDS as u64).contains(&r),
                "cut {cut}: epoch {r} outside [checkpoint floor, stream length]"
            );
            // The recovered epoch is a property of the bytes on disk,
            // not of the shard count chosen at reopen.
            match recovered_epoch {
                Some(e) => assert_eq!(e, r, "cut {cut}: shard count changed recovery"),
                None => recovered_epoch = Some(r),
            }
            let want = reference.entry(r).or_insert_with(|| {
                let engine = ShardedEngine::<PointEngine>::build(base_objects.clone(), 1);
                for batch in &batches[..r as usize] {
                    engine.submit_all(batch.iter().cloned());
                    engine.commit();
                }
                let snap = engine.snapshot();
                pool.iter().map(|req| snap.execute_one(req)).collect()
            });
            let snap = recovered.snapshot();
            for (req, want) in pool.iter().zip(want.iter()) {
                assert!(
                    snap.execute_one(req).same_matches(want),
                    "cut {cut}: {shards} shards diverged from the epoch-{r} rebuild"
                );
            }
        }
        std::fs::remove_dir_all(&cut_dir).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}
