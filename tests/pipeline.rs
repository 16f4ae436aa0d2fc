//! Property tests for the unified query-execution pipeline:
//!
//! * the **basic** (Section 3.3) and **duality** (Section 4.2)
//!   evaluators plug into the same pipeline and agree within the
//!   integrator's discretisation tolerance on random uniform-pdf
//!   workloads;
//! * the request path (`execute_one`) answers **bit-identically** to
//!   the paper-named engine methods (`ipq`/`cipq`/`iuq`/`ciuq`) for
//!   all four query classes under the closed-form and Monte-Carlo
//!   integrators;
//! * a **dirty, reused** `ExecutionContext` — scratch buffers left
//!   over from arbitrary earlier queries — yields
//!   bit-identical answers *and* identical deterministic cost counters
//!   to a fresh context, across IPQ, C-IUQ and continuous workloads
//!   (the correctness half of the zero-allocation hot path).

use iloc::core::pipeline::{
    BatchEngine, CatalogObject, ExecutionContext, PointRequest, PreparedQuery, QueryRequest,
    UncertainRequest,
};
use iloc::core::{minkowski_query, p_expanded_query};
use iloc::index::Pages;
use iloc::prelude::*;
use proptest::prelude::*;

/// Strategy: an issuer with a uniform pdf near the middle of a
/// 1000×1000 space.
fn issuer() -> impl Strategy<Value = Issuer> {
    (
        100.0..900.0f64,
        100.0..900.0f64,
        20.0..150.0f64,
        20.0..150.0f64,
    )
        .prop_map(|(x, y, w, h)| Issuer::uniform(Rect::centered(Point::new(x, y), w, h)))
}

/// Strategy: a point database of up to 60 objects.
fn point_db() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(
        (0.0..1_000.0f64, 0.0..1_000.0f64).prop_map(|(x, y)| Point::new(x, y)),
        1..60,
    )
}

/// Strategy: an uncertain database of up to 40 uniform-pdf objects.
fn uncertain_db() -> impl Strategy<Value = Vec<UncertainObject>> {
    proptest::collection::vec(
        (0.0..1_000.0f64, 0.0..1_000.0f64, 5.0..60.0f64, 5.0..60.0f64),
        1..40,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(k, (x, y, w, h))| {
                UncertainObject::new(
                    k as u64,
                    UniformPdf::new(Rect::centered(Point::new(x, y), w, h)),
                )
            })
            .collect()
    })
}

fn assert_bit_identical(batch: &[QueryAnswer], singles: &[QueryAnswer]) {
    assert_eq!(batch.len(), singles.len());
    for (k, (a, b)) in batch.iter().zip(singles).enumerate() {
        assert!(a.same_matches(b), "answer {k} diverged: {a:?} vs {b:?}");
    }
}

/// A plan rebuilt from the public API: every object `within` `filter`,
/// in slot order, refined one at a time through a fresh context of the
/// request's integrator, kept by the request's accept policy.
fn by_hand<O: CatalogObject, S>(
    objects: &Pages<O>,
    filter: Rect,
    request: &QueryRequest<S>,
) -> QueryAnswer {
    let query = PreparedQuery::new(&request.issuer, request.range);
    let mut ctx = ExecutionContext::new(request.integrator);
    let accept = request.accept();
    let mut answer = QueryAnswer::default();
    for object in objects.iter().filter(|o| o.within(filter)) {
        let probability = object.probability(&query, &mut ctx);
        if accept.accepts(probability) {
            answer.results.push(Match {
                id: object.id(),
                probability,
            });
        }
    }
    answer.stats = ctx.stats;
    answer
}

/// Same matches, bit for bit, from the same number of integrals and
/// samples.
fn assert_same_work(got: &QueryAnswer, want: &QueryAnswer) {
    assert!(got.same_matches(want), "{got:?} vs {want:?}");
    let (g, w) = (&got.stats, &want.stats);
    assert_eq!(
        (g.prob_evals, g.mc_samples, g.grid_cells),
        (w.prob_evals, w.mc_samples, w.grid_cells)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The two refine-stage evaluators agree through the whole point
    /// pipeline: every probability the duality evaluator reports is
    /// reproduced by the basic evaluator within the midpoint grid's
    /// tolerance, and the basic evaluator finds no extra objects.
    #[test]
    fn point_pipeline_evaluators_agree(
        pts in point_db(),
        iss in issuer(),
        w in 30.0..250.0f64,
    ) {
        let engine = PointEngine::build(pts);
        let range = RangeSpec::square(w);
        let dual = engine.ipq(&iss, range);
        let basic = engine.ipq_basic(&iss, range, 96);
        // 96² midpoint cells resolve probabilities to well under 0.02.
        for m in &dual.results {
            let got = basic.probability_of(m.id).unwrap_or(0.0);
            prop_assert!(
                (m.probability - got).abs() < 0.02,
                "{}: duality {} vs basic {}", m.id, m.probability, got
            );
        }
        for m in &basic.results {
            prop_assert!(
                dual.probability_of(m.id).is_some(),
                "basic found {} that duality scores zero", m.id
            );
        }
    }

    /// Same agreement for uncertain objects (Eq. 4 vs Lemma 4 / Eq. 8).
    #[test]
    fn uncertain_pipeline_evaluators_agree(
        objs in uncertain_db(),
        iss in issuer(),
        w in 30.0..250.0f64,
    ) {
        let engine = UncertainEngine::build(objs);
        let range = RangeSpec::square(w);
        let dual = engine.iuq(&iss, range);
        let basic = engine.iuq_basic(&iss, range, 72);
        for m in &dual.results {
            if m.probability > 0.02 {
                let got = basic.probability_of(m.id).unwrap_or(0.0);
                prop_assert!(
                    (m.probability - got).abs() < 0.02,
                    "{}: duality {} vs basic {}", m.id, m.probability, got
                );
            }
        }
        for m in &basic.results {
            prop_assert!(
                dual.probability_of(m.id).is_some(),
                "basic found {} that duality scores zero", m.id
            );
        }
    }

    /// A context dirtied by arbitrary earlier point queries (warm
    /// scratch buffers) answers every subsequent request
    /// bit-identically to a fresh context, with identical cost
    /// counters. Monte-Carlo requests are mixed in so the sampling
    /// path is exercised, not just the closed forms.
    #[test]
    fn dirty_reused_context_matches_fresh_point_queries(
        pts in point_db(),
        issuers in proptest::collection::vec(
            (100.0..900.0f64, 100.0..900.0f64, 20.0..120.0f64), 2..24),
        w in 30.0..250.0f64,
        qp in 0.0..0.9f64,
    ) {
        let engine = PointEngine::build(pts);
        let range = RangeSpec::square(w);
        let requests: Vec<PointRequest> = issuers
            .into_iter()
            .enumerate()
            .map(|(k, (x, y, u))| {
                let iss = Issuer::uniform(Rect::centered(Point::new(x, y), u, u));
                match k % 4 {
                    0 => PointRequest::ipq(iss, range),
                    1 => PointRequest::cipq(iss, range, qp, CipqStrategy::MinkowskiSum),
                    2 => PointRequest::cipq(iss, range, qp, CipqStrategy::PExpanded),
                    _ => PointRequest::ipq(iss, range)
                        .with_integrator(Integrator::MonteCarlo { samples: 64 }),
                }
            })
            .collect();
        // Dirty the context and the reused answer on the whole stream.
        let mut reused_ctx = ExecutionContext::new(Integrator::Auto);
        let mut reused_answer = QueryAnswer::default();
        for request in &requests {
            engine.execute_one_into(request, &mut reused_ctx, &mut reused_answer);
        }
        // Then every request must reproduce the fresh-context result.
        for request in &requests {
            engine.execute_one_into(request, &mut reused_ctx, &mut reused_answer);
            let fresh = engine.execute_one(request);
            prop_assert!(reused_answer.same_matches(&fresh));
            prop_assert!(reused_answer.stats.same_counters(&fresh.stats));
        }
    }

    /// Same guarantee for uncertain queries, covering the PTI filter +
    /// Section-5.2 prune chain (whose per-strategy counters must also
    /// be oblivious to scratch reuse).
    #[test]
    fn dirty_reused_context_matches_fresh_uncertain_queries(
        objs in uncertain_db(),
        issuers in proptest::collection::vec(
            (100.0..900.0f64, 100.0..900.0f64, 20.0..120.0f64), 2..16),
        w in 30.0..250.0f64,
        qp in 0.0..0.9f64,
    ) {
        let engine = UncertainEngine::build(objs);
        let range = RangeSpec::square(w);
        let requests: Vec<UncertainRequest> = issuers
            .into_iter()
            .enumerate()
            .map(|(k, (x, y, u))| {
                let iss = Issuer::uniform(Rect::centered(Point::new(x, y), u, u));
                match k % 3 {
                    0 => UncertainRequest::iuq(iss, range),
                    1 => UncertainRequest::ciuq(iss, range, qp, CiuqStrategy::PtiPExpanded),
                    _ => UncertainRequest::ciuq(iss, range, qp, CiuqStrategy::RTreeMinkowski),
                }
            })
            .collect();
        let mut reused_ctx = ExecutionContext::new(Integrator::Auto);
        let mut reused_answer = QueryAnswer::default();
        for request in &requests {
            engine.execute_one_into(request, &mut reused_ctx, &mut reused_answer);
        }
        for request in &requests {
            engine.execute_one_into(request, &mut reused_ctx, &mut reused_answer);
            let fresh = engine.execute_one(request);
            prop_assert!(reused_answer.same_matches(&fresh));
            prop_assert!(reused_answer.stats.same_counters(&fresh.stats));
        }
    }

    /// A standing query (owned context + envelope cache, reused
    /// buffers) tracks snapshot evaluation exactly at every tick of a
    /// random walk, over any shard count — the filter swap, the fan-in
    /// and the buffer reuse change cost, never answers.
    #[test]
    fn continuous_steady_state_equals_snapshots(
        pts in point_db(),
        shards in 1..=3usize,
        start in (100.0..900.0f64, 100.0..900.0f64),
        steps in proptest::collection::vec((-40.0..40.0f64, -40.0..40.0f64), 1..30),
        u in 20.0..100.0f64,
        w in 30.0..200.0f64,
        slack in 0.0..300.0f64,
    ) {
        let objects = pts
            .iter()
            .enumerate()
            .map(|(k, &p)| PointObject::new(k as u64, p))
            .collect();
        let served: ShardedEngine<PointEngine> = ShardedEngine::build(objects, shards);
        let engine = PointEngine::build(pts);
        let range = RangeSpec::square(w);
        let mut registry = SubscriptionRegistry::new();
        let mut id = 0;
        let (mut x, mut y) = start;
        for (t, (dx, dy)) in steps.into_iter().enumerate() {
            x += dx;
            y += dy;
            let issuer = Issuer::uniform(Rect::centered(Point::new(x, y), u, u));
            if t == 0 {
                id = registry.subscribe(&served, PointRequest::ipq(issuer.clone(), range), slack);
            } else {
                registry.tick(&served, id, issuer.pdf().clone()).unwrap();
            }
            let snapshot = engine.ipq(&issuer, range);
            let answer = QueryAnswer {
                results: registry.get(id).unwrap().last_answer().to_vec(),
                ..Default::default()
            };
            prop_assert!(answer.same_matches(&snapshot));
        }
    }

    /// The request path (`execute_one`) answers every query class under
    /// every integrator — the request's own — exactly as the plan a
    /// caller can rebuild by hand, and the paper-named engine methods
    /// are that path under `Auto`.
    #[test]
    fn batch_equals_single_query_api(
        pts in point_db(),
        objs in uncertain_db(),
        iss in issuer(),
        w in 30.0..250.0f64,
        qp in 0.0..0.9f64,
    ) {
        let points = PointEngine::build(pts);
        let uncertain = UncertainEngine::build(objs);
        let range = RangeSpec::square(w);
        let expanded = minkowski_query(&iss, range);
        let p_expanded = p_expanded_query(&iss, range, qp);
        for integrator in [Integrator::Auto, Integrator::MonteCarlo { samples: 64 }] {
            for (request, filter) in [
                (PointRequest::ipq(iss.clone(), range), expanded),
                (PointRequest::cipq(iss.clone(), range, qp, CipqStrategy::MinkowskiSum), expanded),
                (PointRequest::cipq(iss.clone(), range, qp, CipqStrategy::PExpanded), p_expanded),
            ] {
                let request = request.with_integrator(integrator);
                let want = by_hand(points.objects(), filter, &request);
                assert_same_work(&points.execute_one(&request), &want);
            }
            let baseline =
                UncertainRequest::ciuq(iss.clone(), range, qp, CiuqStrategy::RTreeMinkowski);
            for request in [UncertainRequest::iuq(iss.clone(), range), baseline.clone()] {
                let request = request.with_integrator(integrator);
                let want = by_hand(uncertain.objects(), expanded, &request);
                assert_same_work(&uncertain.execute_one(&request), &want);
            }
            // The PTI plan prunes by exact bounds: it keeps the
            // baseline's matches, bit for bit, but for ones it pruned
            // (none at all under `Auto`; a sampled estimate may land
            // above `Qp` where the exact probability is below it).
            let pti = UncertainRequest::ciuq(iss.clone(), range, qp, CiuqStrategy::PtiPExpanded);
            let pti = uncertain.execute_one(&pti.with_integrator(integrator));
            let base = uncertain.execute_one(&baseline.with_integrator(integrator));
            for m in &pti.results {
                let b = base.probability_of(m.id).map(f64::to_bits);
                prop_assert_eq!(b, Some(m.probability.to_bits()));
            }
            if integrator == Integrator::Auto {
                prop_assert!(pti.same_matches(&base));
            }
        }
        let requests = [
            PointRequest::ipq(iss.clone(), range),
            PointRequest::cipq(iss.clone(), range, qp, CipqStrategy::MinkowskiSum),
            PointRequest::cipq(iss.clone(), range, qp, CipqStrategy::PExpanded),
        ];
        let singles = [
            points.ipq(&iss, range),
            points.cipq(&iss, range, qp, CipqStrategy::MinkowskiSum),
            points.cipq(&iss, range, qp, CipqStrategy::PExpanded),
        ];
        let batch: Vec<_> = requests.iter().map(|r| points.execute_one(r)).collect();
        assert_bit_identical(&batch, &singles);
        let requests = [
            UncertainRequest::iuq(iss.clone(), range),
            UncertainRequest::ciuq(iss.clone(), range, qp, CiuqStrategy::RTreeMinkowski),
            UncertainRequest::ciuq(iss.clone(), range, qp, CiuqStrategy::PtiPExpanded),
        ];
        let singles = [
            uncertain.iuq(&iss, range),
            uncertain.ciuq(&iss, range, qp, CiuqStrategy::RTreeMinkowski),
            uncertain.ciuq(&iss, range, qp, CiuqStrategy::PtiPExpanded),
        ];
        let batch: Vec<_> = requests.iter().map(|r| uncertain.execute_one(r)).collect();
        assert_bit_identical(&batch, &singles);
    }
}

/// Figure 13's setup — California points, Gaussian issuers, C-IPQ by
/// Monte-Carlo with the paper's 200 samples — at every threshold of the
/// sweep: the p-expanded query only drops candidates, and each object's
/// estimate is its own, so every match of the p-expanded plan is a
/// match of the Minkowski-sum plan with the same bits. (Not equality:
/// an object the exact filter drops may still estimate at `Qp` or
/// above over the wider plan.)
#[test]
fn fig13_p_expanded_matches_are_minkowski_matches_bit_for_bit() {
    use iloc::core::integrate::PAPER_MC_SAMPLES_POINT;
    use iloc::datagen::{california_points, WorkloadGen};

    let engine = PointEngine::build(california_points(3_000, 2007));
    let range = RangeSpec::square(500.0);
    let mc = Integrator::MonteCarlo {
        samples: PAPER_MC_SAMPLES_POINT,
    };
    let issuers = WorkloadGen::new(1300).issuer_regions(5, 250.0);
    let mut compared = 0;
    for qp in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
        for &region in &issuers {
            let ask = |strategy| {
                let request = PointRequest::cipq(Issuer::gaussian(region), range, qp, strategy);
                engine.execute_one(&request.with_integrator(mc))
            };
            let mink = ask(CipqStrategy::MinkowskiSum);
            let pexp = ask(CipqStrategy::PExpanded);
            assert!(pexp.stats.access.candidates <= mink.stats.access.candidates);
            for m in &pexp.results {
                assert_eq!(
                    mink.probability_of(m.id).map(f64::to_bits),
                    Some(m.probability.to_bits()),
                    "qp {qp}: {:?} of the p-expanded answer",
                    m.id
                );
            }
            compared += pexp.results.len();
        }
    }
    assert!(compared > 100, "degenerate workload: {compared} matches");
}
