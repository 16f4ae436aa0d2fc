//! Property tests for the unified query-execution pipeline:
//!
//! * the **basic** (Section 3.3) and **duality** (Section 4.2)
//!   evaluators plug into the same pipeline and agree within the
//!   integrator's discretisation tolerance on random uniform-pdf
//!   workloads;
//! * [`execute_batch`] (scoped threads, all cores, one long-lived
//!   context per worker) returns **bit-identical** answers to sequential execution
//!   under the same seed, for random mixed IPQ/C-IPQ/IUQ/C-IUQ request
//!   batches;
//! * a **dirty, reused** `ExecutionContext` — scratch buffers and RNG
//!   state left over from arbitrary earlier queries — yields
//!   bit-identical answers *and* identical deterministic cost counters
//!   to a fresh context, across IPQ, C-IUQ and continuous workloads
//!   (the correctness half of the zero-allocation hot path).

use iloc::core::pipeline::{
    execute_batch, execute_batch_sequential, BatchEngine, ExecutionContext, PointRequest,
    UncertainRequest,
};
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

fn assert_bit_identical(parallel: &[QueryAnswer], sequential: &[QueryAnswer]) {
    assert_eq!(parallel.len(), sequential.len());
    for (k, (a, b)) in parallel.iter().zip(sequential).enumerate() {
        assert!(a.same_matches(b), "answer {k} diverged: {a:?} vs {b:?}");
    }
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

    /// Rayon batches of mixed IPQ / C-IPQ requests are bit-identical
    /// to sequential execution.
    #[test]
    fn point_batches_deterministic(
        pts in point_db(),
        issuers in proptest::collection::vec(
            (100.0..900.0f64, 100.0..900.0f64, 20.0..120.0f64), 1..32),
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
                match k % 3 {
                    0 => PointRequest::ipq(iss, range),
                    1 => PointRequest::cipq(iss, range, qp, CipqStrategy::MinkowskiSum),
                    _ => PointRequest::cipq(iss, range, qp, CipqStrategy::PExpanded),
                }
            })
            .collect();
        let par = execute_batch(&engine, &requests);
        let seq = execute_batch_sequential(&engine, &requests);
        assert_bit_identical(&par, &seq);
        // And the engine-level convenience API is the same executor.
        let via_engine = engine.execute_batch(&requests);
        assert_bit_identical(&via_engine, &seq);
    }

    /// Rayon batches of mixed IUQ / C-IUQ requests (both index
    /// strategies, pruning chain included) are bit-identical to
    /// sequential execution.
    #[test]
    fn uncertain_batches_deterministic(
        objs in uncertain_db(),
        issuers in proptest::collection::vec(
            (100.0..900.0f64, 100.0..900.0f64, 20.0..120.0f64), 1..24),
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
                    1 => UncertainRequest::ciuq(iss, range, qp, CiuqStrategy::RTreeMinkowski),
                    _ => UncertainRequest::ciuq(iss, range, qp, CiuqStrategy::PtiPExpanded),
                }
            })
            .collect();
        let par = execute_batch(&engine, &requests);
        let seq = execute_batch_sequential(&engine, &requests);
        assert_bit_identical(&par, &seq);
    }

    /// A context dirtied by arbitrary earlier point queries (warm
    /// scratch buffers, consumed RNG) answers every subsequent request
    /// bit-identically to a fresh context, with identical cost
    /// counters. Monte-Carlo requests are mixed in so RNG reseeding is
    /// exercised, not just the closed-form paths.
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

    /// A continuous runner (owned context + envelope cache, reused
    /// answer) tracks snapshot evaluation exactly at every tick of a
    /// random walk — the filter swap and the buffer reuse change cost,
    /// never answers.
    #[test]
    fn continuous_steady_state_equals_snapshots(
        pts in point_db(),
        start in (100.0..900.0f64, 100.0..900.0f64),
        steps in proptest::collection::vec((-40.0..40.0f64, -40.0..40.0f64), 1..30),
        u in 20.0..100.0f64,
        w in 30.0..200.0f64,
        slack in 0.0..300.0f64,
    ) {
        let engine = PointEngine::build(pts);
        let range = RangeSpec::square(w);
        let mut runner = ContinuousIpq::new(&engine, range, slack);
        let mut answer = QueryAnswer::default();
        let (mut x, mut y) = start;
        for (dx, dy) in steps {
            x += dx;
            y += dy;
            let issuer = Issuer::uniform(Rect::centered(Point::new(x, y), u, u));
            runner.step_into(&issuer, &mut answer);
            let snapshot = engine.ipq(&issuer, range);
            prop_assert!(answer.same_matches(&snapshot));
        }
    }

    /// Batch answers equal the answers from the one-query engine
    /// methods — batching changes scheduling, never semantics.
    #[test]
    fn batch_equals_single_query_api(
        objs in uncertain_db(),
        iss in issuer(),
        w in 30.0..250.0f64,
        qp in 0.0..0.9f64,
    ) {
        let engine = UncertainEngine::build(objs);
        let range = RangeSpec::square(w);
        let requests = vec![
            UncertainRequest::iuq(iss.clone(), range),
            UncertainRequest::ciuq(iss.clone(), range, qp, CiuqStrategy::PtiPExpanded),
        ];
        let batch = engine.execute_batch(&requests);
        let singles = [
            engine.iuq(&iss, range),
            engine.ciuq(&iss, range, qp, CiuqStrategy::PtiPExpanded),
        ];
        assert_bit_identical(&batch, &singles);
    }
}
