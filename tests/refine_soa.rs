//! Equivalence suite for the SoA refine batches.
//!
//! An uncertain object's duality batch
//! (`CatalogObject::probabilities` with `EvaluatorKind::Duality`) is a
//! structure-of-arrays gather that sends uniform candidates to the
//! batched closed form, separable Gaussians to the hoisted axis
//! profile, and everything else through the per-candidate integrator.
//! The contract under test here: the batch is **observably
//! identical** to a plain loop over the scalar per-object probability
//! (`CatalogObject::probability`) — same probability bits, same cost
//! counters — across every [`PdfKind`] variant,
//! every ragged batch tail, dirty scratch reuse, the full pipeline,
//! and the subscription delta path that rides on top of it.

use iloc::core::pipeline::{
    AcceptPolicy, CatalogObject, EvaluatorKind, ExecutionContext, PreparedQuery, QueryPipeline,
    UncertainRequest,
};
use iloc::core::serve::{ShardedEngine, Update};
use iloc::core::subscribe::SubscriptionRegistry;
use iloc::core::{Integrator, Issuer, RangeSpec, UncertainEngine};
use iloc::index::{AccessStats, NaiveIndex, Pages, RangeIndex, TraversalScratch};
use iloc::prelude::*;

/// The reference: the scalar per-object probability, survivor by
/// survivor, into `out` — so any divergence is the batch's.
fn scalar_ref(
    query: &PreparedQuery<'_>,
    objects: &Pages<UncertainObject>,
    survivors: &[u32],
    ctx: &mut ExecutionContext,
    out: &mut Vec<f64>,
) {
    out.clear();
    for &slot in survivors {
        out.push(objects[slot as usize].probability(query, ctx));
    }
}

/// The batch under test.
fn soa(
    query: &PreparedQuery<'_>,
    objects: &Pages<UncertainObject>,
    survivors: &[u32],
    ctx: &mut ExecutionContext,
    out: &mut Vec<f64>,
) {
    UncertainObject::probabilities(EvaluatorKind::Duality, query, objects, survivors, ctx, out);
}

/// `n` objects cycling through four shapes of the three [`PdfKind`]
/// variants on a grid overlapping the test queries: plain uniforms
/// (batched closed-form lane), truncated Gaussians (hoisted separable
/// lane), and discs of two radii (Monte-Carlo fallback lane, draws
/// samples).
fn mixed_objects(n: usize) -> Vec<UncertainObject> {
    (0..n)
        .map(|k| {
            let c = Point::new(420.0 + (k % 8) as f64 * 22.0, 430.0 + (k / 8) as f64 * 26.0);
            let id = k as u64;
            match k % 4 {
                0 => UncertainObject::new(id, UniformPdf::new(Rect::centered(c, 15.0, 12.0))),
                1 => UncertainObject::new(
                    id,
                    TruncatedGaussianPdf::new(Rect::centered(c, 20.0, 20.0), c, 7.0, 9.0),
                ),
                2 => UncertainObject::new(id, DiscPdf::new(c, 13.0)),
                _ => UncertainObject::new(id, DiscPdf::new(c, 8.0)),
            }
        })
        .collect()
}

fn uniform_objects(n: usize) -> Vec<UncertainObject> {
    (0..n)
        .map(|k| {
            let c = Point::new(440.0 + (k % 9) as f64 * 19.0, 450.0 + (k / 9) as f64 * 23.0);
            UncertainObject::new(k as u64, UniformPdf::new(Rect::centered(c, 14.0, 10.0)))
        })
        .collect()
}

/// The engines' table layout over a test's object list.
fn paged(objects: &[UncertainObject]) -> Pages<UncertainObject> {
    objects.iter().cloned().collect()
}

/// Runs the SoA override and the scalar reference over the same
/// survivor set through fresh contexts and asserts bitwise probability
/// equality and counter equality — and that each survivor's
/// probability is the one its object gets refined alone.
fn assert_batch_matches_scalar(objects: &[UncertainObject], issuer: &Issuer, range: RangeSpec) {
    let query = PreparedQuery::new(issuer, range);
    let survivors: Vec<u32> = (0..objects.len() as u32).collect();
    let objects = &paged(objects);

    let mut soa_ctx = ExecutionContext::new(Integrator::Auto);
    let mut scalar_ctx = ExecutionContext::new(Integrator::Auto);
    let mut soa = Vec::new();
    let mut scalar = Vec::new();
    self::soa(&query, objects, &survivors, &mut soa_ctx, &mut soa);
    scalar_ref(&query, objects, &survivors, &mut scalar_ctx, &mut scalar);

    assert_eq!(soa.len(), survivors.len());
    assert_eq!(scalar.len(), survivors.len());
    for (k, (a, b)) in soa.iter().zip(&scalar).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "survivor {k} diverged: SoA {a} vs scalar {b}"
        );
    }
    assert!(
        soa_ctx.stats.same_counters(&scalar_ctx.stats),
        "cost counters diverged:\nSoA    {:?}\nscalar {:?}",
        soa_ctx.stats,
        scalar_ctx.stats
    );
    let mut alone = Vec::new();
    for (k, &slot) in survivors.iter().enumerate() {
        let ctx = &mut ExecutionContext::new(Integrator::Auto);
        self::soa(&query, objects, &[slot], ctx, &mut alone);
        assert_eq!(alone[0].to_bits(), soa[k].to_bits(), "survivor {k} alone");
    }
}

fn test_issuer() -> Issuer {
    Issuer::uniform(Rect::centered(Point::new(500.0, 470.0), 30.0, 25.0))
}

#[test]
fn soa_matches_scalar_across_all_pdf_kinds() {
    let objects = mixed_objects(32);
    assert_batch_matches_scalar(&objects, &test_issuer(), RangeSpec::new(60.0, 55.0));
}

#[test]
fn soa_matches_scalar_on_each_kind_alone() {
    // Homogeneous batches: every candidate lands in one lane.
    for offset in 0..4usize {
        let objects: Vec<UncertainObject> = mixed_objects(32)
            .into_iter()
            .enumerate()
            .filter(|(k, _)| k % 4 == offset)
            .map(|(_, o)| o)
            .collect();
        assert_eq!(objects.len(), 8);
        assert_batch_matches_scalar(&objects, &test_issuer(), RangeSpec::new(60.0, 55.0));
    }
}

#[test]
fn ragged_tails_match_scalar() {
    // Uniform-only batches of every length 0..=9, and a long one,
    // exercise the lane kernel's full steps plus every padded tail
    // shape. (Zero-area objects and a zero-area issuer cannot be built
    // through the object API; `integrate::closed`'s own
    // `hoisted_kernels_match_scalar_bit_for_bit` feeds them to the
    // kernel directly.)
    for n in (0..=9usize).chain([4_096]) {
        let objects = uniform_objects(n);
        assert_batch_matches_scalar(&objects, &test_issuer(), RangeSpec::square(70.0));
    }
}

#[test]
fn objects_outside_the_expanded_query_refine_to_zero_in_every_lane() {
    // A survivor list is whatever the caller hands over: objects the
    // filter would have dropped must come out as exact zeros wherever
    // they sit in a step, beside objects that do qualify.
    let issuer = test_issuer();
    let range = RangeSpec::square(20.0);
    for n in 1..=9usize {
        for far in 0..n {
            let mut objects = uniform_objects(n);
            objects[far] = UncertainObject::new(
                far as u64,
                UniformPdf::new(Rect::centered(Point::new(5_000.0, 5_000.0), 14.0, 10.0)),
            );
            assert_batch_matches_scalar(&objects, &issuer, range);
            let query = PreparedQuery::new(&issuer, range);
            let survivors: Vec<u32> = (0..n as u32).collect();
            let mut out = Vec::new();
            soa(
                &query,
                &paged(&objects),
                &survivors,
                &mut ExecutionContext::new(Integrator::Auto),
                &mut out,
            );
            assert_eq!(out[far].to_bits(), 0.0f64.to_bits());
        }
    }
}

#[test]
fn mixed_kind_batches_of_every_length_scatter_identically() {
    // A batch with any non-uniform candidate sends the uniform lane's
    // output through `uni_out` and scatters it between the other
    // lanes' positions: every ragged length, every rotation of the
    // kinds.
    for n in 0..=9usize {
        for rotate in 0..4usize {
            let objects: Vec<UncertainObject> = mixed_objects(n + rotate).split_off(rotate);
            assert_batch_matches_scalar(&objects, &test_issuer(), RangeSpec::new(60.0, 55.0));
        }
    }
}

#[test]
fn gaussian_issuer_falls_back_to_scalar_identically() {
    // A non-uniform issuer pdf disables the closed-form lanes; the
    // override must degrade to the reference loop bit-for-bit.
    let issuer = Issuer::gaussian(Rect::centered(Point::new(500.0, 470.0), 28.0, 28.0));
    let objects = mixed_objects(24);
    assert_batch_matches_scalar(&objects, &issuer, RangeSpec::square(65.0));
}

#[test]
fn non_auto_integrator_falls_back_to_scalar_identically() {
    // Explicit Monte-Carlo also opts out of the SoA lanes.
    let issuer = test_issuer();
    let query = PreparedQuery::new(&issuer, RangeSpec::square(70.0));
    let objects = paged(&uniform_objects(7));
    let survivors: Vec<u32> = (0..objects.len() as u32).collect();
    let mut a_ctx = ExecutionContext::new(Integrator::MonteCarlo { samples: 40 });
    let mut b_ctx = ExecutionContext::new(Integrator::MonteCarlo { samples: 40 });
    let (mut a, mut b) = (Vec::new(), Vec::new());
    soa(&query, &objects, &survivors, &mut a_ctx, &mut a);
    scalar_ref(&query, &objects, &survivors, &mut b_ctx, &mut b);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert!(a_ctx.stats.same_counters(&b_ctx.stats));
}

#[test]
fn dirty_scratch_reuse_is_bit_identical() {
    // A large mixed batch leaves the gather lanes and probability
    // buffer in a well-used state; the small batch that follows must
    // still agree with the scalar reference driven through the same
    // history, and with a fresh context.
    let issuer = test_issuer();
    let big = paged(&mixed_objects(48));
    let small = paged(&uniform_objects(3));
    let query_big = PreparedQuery::new(&issuer, RangeSpec::new(60.0, 55.0));
    let query_small = PreparedQuery::new(&issuer, RangeSpec::square(70.0));

    let mut soa_ctx = ExecutionContext::new(Integrator::Auto);
    let mut scalar_ctx = ExecutionContext::new(Integrator::Auto);
    let big_survivors: Vec<u32> = (0..big.len() as u32).collect();
    let small_survivors: Vec<u32> = (0..small.len() as u32).collect();
    let (mut soa, mut scalar) = (Vec::new(), Vec::new());

    self::soa(&query_big, &big, &big_survivors, &mut soa_ctx, &mut soa);
    scalar_ref(
        &query_big,
        &big,
        &big_survivors,
        &mut scalar_ctx,
        &mut scalar,
    );
    for (a, b) in soa.iter().zip(&scalar) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    // Reuse both contexts — and both output buffers — without clearing.
    self::soa(
        &query_small,
        &small,
        &small_survivors,
        &mut soa_ctx,
        &mut soa,
    );
    scalar_ref(
        &query_small,
        &small,
        &small_survivors,
        &mut scalar_ctx,
        &mut scalar,
    );
    assert_eq!(soa.len(), small.len(), "out buffer must be re-cleared");
    for (a, b) in soa.iter().zip(&scalar) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    // Only the scratch's capacity outlives a batch, so a fresh context
    // must reproduce the dirty-context answer exactly.
    let mut fresh_ctx = ExecutionContext::new(Integrator::Auto);
    let mut fresh = Vec::new();
    self::soa(
        &query_small,
        &small,
        &small_survivors,
        &mut fresh_ctx,
        &mut fresh,
    );
    for (a, b) in soa.iter().zip(&fresh) {
        assert_eq!(a.to_bits(), b.to_bits(), "dirty scratch leaked state");
    }
}

#[test]
fn full_pipeline_answers_identical_under_both_evaluators() {
    let issuer = test_issuer();
    let range = RangeSpec::new(60.0, 55.0);
    let objects = mixed_objects(40);
    let entries: Vec<(Rect, u32)> = objects
        .iter()
        .enumerate()
        .map(|(k, o)| (o.region(), k as u32))
        .collect();
    let index = NaiveIndex::new(entries);
    let objects = paged(&objects);
    let prepared = PreparedQuery::new(&issuer, range);

    let probe = |stats: &mut AccessStats, traversal: &mut TraversalScratch, out: &mut Vec<u32>| {
        index.query_range_scratch(prepared.expanded, stats, traversal, out)
    };
    let duality = QueryPipeline {
        query: prepared,
        objects: &objects,
        prune: None,
        refine: EvaluatorKind::Duality,
        accept: AcceptPolicy::Positive,
    };
    let mut ctx_a = ExecutionContext::new(Integrator::Auto);
    let mut a = QueryAnswer::default();
    duality.execute_into(&mut ctx_a, &mut a, probe);

    // The scalar pipeline: the same probe, its candidates in slot
    // order, the scalar loop, the positive probabilities kept.
    let mut access = AccessStats::new();
    let mut candidates = Vec::new();
    probe(&mut access, &mut TraversalScratch::new(), &mut candidates);
    candidates.sort_unstable();
    let mut ctx_b = ExecutionContext::new(Integrator::Auto);
    let mut probs = Vec::new();
    scalar_ref(&prepared, &objects, &candidates, &mut ctx_b, &mut probs);
    let b = QueryAnswer {
        results: candidates
            .iter()
            .zip(&probs)
            .filter(|&(_, &probability)| probability > 0.0)
            .map(|(&slot, &probability)| Match {
                id: objects[slot as usize].id,
                probability,
            })
            .collect(),
        ..QueryAnswer::default()
    };
    assert!(
        !a.results.is_empty(),
        "degenerate scenario: nothing matched"
    );
    assert!(a.same_matches(&b), "pipeline answers diverged");
    let (sa, sb) = (&a.stats, &ctx_b.stats);
    assert_eq!(
        (sa.access, sa.prob_evals, sa.mc_samples, sa.grid_cells),
        (access, sb.prob_evals, sb.mc_samples, sb.grid_cells),
        "pipeline counters diverged"
    );
    assert_eq!(sa.refined_out as usize, candidates.len() - b.results.len());
    assert_eq!(sa.refine_batches.iter().sum::<u64>(), 1, "one batch");

    // Re-running through the now-dirty context reproduces the answer.
    let mut again = QueryAnswer::default();
    duality.execute_into(&mut ctx_a, &mut again, probe);
    assert!(again.same_matches(&a));
}

#[test]
fn subscription_deltas_track_fresh_reevaluation_over_mixed_pdfs() {
    // The standing-query path refines through the same SoA batches;
    // deltas applied in order must reproduce a fresh re-evaluation
    // bit-for-bit even with all four pdf kinds in play.
    let objects = mixed_objects(48);
    let engine: ShardedEngine<UncertainEngine> = ShardedEngine::build(objects, 3);
    let mut registry: SubscriptionRegistry<UncertainEngine> = SubscriptionRegistry::new();

    let issuer_at = |round: u64| {
        Issuer::uniform(Rect::centered(
            Point::new(490.0 + round as f64 * 9.0, 470.0 + (round % 3) as f64 * 7.0),
            30.0,
            25.0,
        ))
    };
    let request_at = |round: u64| UncertainRequest::iuq(issuer_at(round), RangeSpec::square(80.0));

    let mut request = request_at(0);
    let id = registry.subscribe(&engine, request.clone(), 90.0);
    let mut state = registry.get(id).unwrap().last_answer().to_vec();
    assert!(!state.is_empty(), "degenerate scenario: empty subscription");

    let mut seed = 0xD1CE_2007u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for round in 1..=8u64 {
        // Move a couple of objects, keeping each id's pdf kind.
        for _ in 0..2 {
            let k = next() % 48;
            let c = Point::new((next() % 900) as f64, (next() % 900) as f64);
            let moved = match k % 4 {
                0 => UncertainObject::new(k, UniformPdf::new(Rect::centered(c, 15.0, 12.0))),
                1 => UncertainObject::new(
                    k,
                    TruncatedGaussianPdf::new(Rect::centered(c, 20.0, 20.0), c, 7.0, 9.0),
                ),
                2 => UncertainObject::new(k, DiscPdf::new(c, 13.0)),
                _ => UncertainObject::new(k, DiscPdf::new(c, 8.0)),
            };
            engine.submit(Update::Move(moved));
        }
        engine.commit();
        registry.pump(&engine, |got, _, delta| {
            assert_eq!(got, id);
            delta.apply(&mut state);
        });

        // Drift the issuer and tick.
        request = request_at(round);
        let (_, delta) = registry
            .tick(&engine, id, request.issuer.pdf().clone())
            .unwrap();
        delta.apply(&mut state);

        let fresh = engine.snapshot().execute_one(&request);
        assert_eq!(state.len(), fresh.results.len(), "round {round}");
        for (a, b) in state.iter().zip(&fresh.results) {
            assert_eq!(a.id, b.id, "round {round}");
            assert_eq!(
                a.probability.to_bits(),
                b.probability.to_bits(),
                "round {round}: object {:?}",
                a.id
            );
        }
    }
}
