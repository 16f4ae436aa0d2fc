//! Cross-crate integration tests: realistic datasets from `iloc-datagen`
//! flowing through the full engine pipeline.

use iloc::core::integrate::Integrator;
use iloc::datagen::{
    california_points, long_beach_rects, point_objects, uniform_objects, WorkloadGen,
};
use iloc::prelude::*;

fn small_california() -> PointEngine {
    PointEngine::from_objects(point_objects(&california_points(4_000, 1)))
}

fn small_long_beach() -> UncertainEngine {
    UncertainEngine::build(uniform_objects(&long_beach_rects(3_000, 2)))
}

#[test]
fn ipq_pipeline_equals_full_scan() {
    let engine = small_california();
    let mut gen = WorkloadGen::new(3);
    for _ in 0..10 {
        let issuer = Issuer::uniform(gen.issuer_region(250.0));
        let range = RangeSpec::square(500.0);
        let ans = engine.ipq(&issuer, range);
        // Oracle: Lemma 3 on every stored object.
        let mut expected = 0usize;
        for obj in engine.objects() {
            let pi = issuer.pdf().prob_in_rect(range.at(obj.loc));
            if pi > 0.0 {
                expected += 1;
                let got = ans
                    .probability_of(obj.id)
                    .unwrap_or_else(|| panic!("{} missing (pi={pi})", obj.id));
                assert!((got - pi).abs() < 1e-12);
            } else {
                assert_eq!(ans.probability_of(obj.id), None);
            }
        }
        assert_eq!(ans.results.len(), expected);
    }
}

#[test]
fn iuq_pipeline_equals_full_scan() {
    let engine = small_long_beach();
    let mut gen = WorkloadGen::new(4);
    for _ in 0..5 {
        let issuer = Issuer::uniform(gen.issuer_region(250.0));
        let range = RangeSpec::square(500.0);
        let expanded = iloc::core::expand::minkowski_query(&issuer, range);
        let ans = engine.iuq(&issuer, range);
        for obj in engine.objects() {
            let pi = iloc::core::integrate::closed::uniform_uniform(
                issuer.region(),
                obj.region(),
                range,
                expanded,
            );
            match ans.probability_of(obj.id) {
                Some(got) => assert!((got - pi).abs() < 1e-12),
                None => assert!(pi <= 1e-12, "{} missing with pi={pi}", obj.id),
            }
        }
    }
}

#[test]
fn constrained_queries_are_threshold_filtered_unconstrained_queries() {
    let points = small_california();
    let uncertain = small_long_beach();
    let mut gen = WorkloadGen::new(5);
    for &qp in &[0.15, 0.45, 0.75] {
        let issuer = Issuer::uniform(gen.issuer_region(250.0));
        let range = RangeSpec::square(500.0);

        let ipq = points.ipq(&issuer, range);
        let cipq = points.cipq(&issuer, range, qp, CipqStrategy::PExpanded);
        let expect: Vec<_> = ipq
            .results
            .iter()
            .filter(|m| m.probability >= qp)
            .map(|m| m.id)
            .collect();
        let got: Vec<_> = cipq.results.iter().map(|m| m.id).collect();
        assert_eq!(got, expect, "C-IPQ at qp={qp}");

        let iuq = uncertain.iuq(&issuer, range);
        let ciuq = uncertain.ciuq(&issuer, range, qp, CiuqStrategy::PtiPExpanded);
        let expect: Vec<_> = iuq
            .results
            .iter()
            .filter(|m| m.probability >= qp)
            .map(|m| m.id)
            .collect();
        let got: Vec<_> = ciuq.results.iter().map(|m| m.id).collect();
        assert_eq!(got, expect, "C-IUQ at qp={qp}");
    }
}

#[test]
fn both_ciuq_strategies_agree_on_realistic_data() {
    let engine = small_long_beach();
    let mut gen = WorkloadGen::new(6);
    for &qp in &[0.0, 0.2, 0.5, 0.8] {
        let issuer = Issuer::uniform(gen.issuer_region(400.0));
        let range = RangeSpec::square(700.0);
        let a = engine.ciuq(&issuer, range, qp, CiuqStrategy::RTreeMinkowski);
        let b = engine.ciuq(&issuer, range, qp, CiuqStrategy::PtiPExpanded);
        let ids_a: Vec<_> = a.results.iter().map(|m| m.id).collect();
        let ids_b: Vec<_> = b.results.iter().map(|m| m.id).collect();
        assert_eq!(ids_a, ids_b, "qp={qp}");
        assert!(b.stats.prob_evals <= a.stats.prob_evals);
    }
}

#[test]
fn gaussian_issuer_exact_and_mc_agree_modulo_noise() {
    let engine = small_california();
    let issuer = Issuer::gaussian(Rect::centered(Point::new(5_000.0, 5_000.0), 250.0, 250.0));
    let range = RangeSpec::square(500.0);
    let exact = engine.ipq(&issuer, range);
    let request = PointRequest::ipq(issuer.clone(), range);
    let mc =
        engine.execute_one(&request.with_integrator(Integrator::MonteCarlo { samples: 2_000 }));
    // Every confident exact answer must appear in the MC answer and
    // vice versa for probabilities well away from zero.
    for m in &exact.results {
        if m.probability > 0.05 {
            let got = mc
                .probability_of(m.id)
                .unwrap_or_else(|| panic!("{} missing from MC answer", m.id));
            assert!(
                (got - m.probability).abs() < 0.08,
                "{}: exact {} vs mc {got}",
                m.id,
                m.probability
            );
        }
    }
}

#[test]
fn basic_and_enhanced_agree_on_realistic_data() {
    let engine = UncertainEngine::build(uniform_objects(&long_beach_rects(800, 9)));
    let issuer = Issuer::uniform(Rect::centered(Point::new(5_000.0, 5_000.0), 250.0, 250.0));
    let range = RangeSpec::square(500.0);
    let enhanced = engine.iuq(&issuer, range);
    let basic = engine.iuq_basic(&issuer, range, 60);
    // The 60×60 midpoint grid cannot resolve probabilities far below
    // one cell's mass, so compare answers above that floor; everything
    // the grid does find must agree with the exact answer.
    for a in &enhanced.results {
        if a.probability > 0.01 {
            let got = basic
                .probability_of(a.id)
                .unwrap_or_else(|| panic!("{} missing from basic answer", a.id));
            assert!(
                (a.probability - got).abs() < 0.01,
                "{}: {} vs {}",
                a.id,
                a.probability,
                got
            );
        }
    }
    // The basic method can only see objects the exact method confirms.
    for b in &basic.results {
        assert!(
            enhanced.probability_of(b.id).is_some(),
            "basic found {} that the exact evaluator scores zero",
            b.id
        );
    }
}

#[test]
fn disc_issuer_works_through_whole_pipeline() {
    // A disc-shaped (GPS-style) issuer: exact rectangle masses via the
    // circle/box closed form, catalogs built from the disc marginals.
    let engine = small_california();
    let issuer = Issuer::with_pdf(DiscPdf::new(Point::new(5_000.0, 5_000.0), 250.0));
    let range = RangeSpec::square(500.0);
    let ans = engine.ipq(&issuer, range);
    assert!(!ans.results.is_empty());
    for m in &ans.results {
        assert!(m.probability > 0.0 && m.probability <= 1.0 + 1e-12);
        // Oracle: Lemma 3 against the disc pdf directly.
        let obj = engine
            .objects()
            .iter()
            .find(|o| o.id == m.id)
            .expect("answer refers to a stored object");
        let pi = issuer.pdf().prob_in_rect(range.at(obj.loc));
        assert!((pi - m.probability).abs() < 1e-12);
    }
    // Constrained version still sound (p-expanded query from the disc
    // catalog is conservative).
    for &qp in &[0.3, 0.7] {
        let c = engine.cipq(&issuer, range, qp, CipqStrategy::PExpanded);
        let expect: Vec<_> = ans
            .results
            .iter()
            .filter(|m| m.probability >= qp)
            .map(|m| m.id)
            .collect();
        let got: Vec<_> = c.results.iter().map(|m| m.id).collect();
        assert_eq!(got, expect, "qp={qp}");
    }
}

#[test]
fn gaussian_object_database_uses_exact_path() {
    use iloc::datagen::gaussian_objects;
    let engine = UncertainEngine::build(gaussian_objects(&long_beach_rects(1_500, 4)));
    let issuer = Issuer::uniform(Rect::centered(Point::new(5_000.0, 5_000.0), 250.0, 250.0));
    let range = RangeSpec::square(500.0);
    let exact = engine.iuq(&issuer, range); // Auto → separable closed form
    assert_eq!(exact.stats.mc_samples, 0, "exact path must not sample");
    let request = UncertainRequest::iuq(issuer.clone(), range);
    let mc =
        engine.execute_one(&request.with_integrator(Integrator::MonteCarlo { samples: 4_000 }));
    for m in &exact.results {
        if m.probability > 0.05 {
            let got = mc.probability_of(m.id).expect("present in MC answer");
            assert!(
                (got - m.probability).abs() < 0.05,
                "{}: exact {} vs mc {got}",
                m.id,
                m.probability
            );
        }
    }
    // Constrained pruning works against the (tighter) Gaussian
    // catalogs and stays sound.
    for &qp in &[0.2, 0.5] {
        let a = engine.ciuq(&issuer, range, qp, CiuqStrategy::RTreeMinkowski);
        let b = engine.ciuq(&issuer, range, qp, CiuqStrategy::PtiPExpanded);
        let ids_a: Vec<_> = a.results.iter().map(|m| m.id).collect();
        let ids_b: Vec<_> = b.results.iter().map(|m| m.id).collect();
        assert_eq!(ids_a, ids_b, "qp={qp}");
    }
}

#[test]
fn workload_queries_never_panic_across_space_borders() {
    // Issuer regions straddling the data-space border must work.
    let engine = small_long_beach();
    let range = RangeSpec::square(500.0);
    for c in [
        Point::new(0.0, 0.0),
        Point::new(10_000.0, 10_000.0),
        Point::new(0.0, 5_000.0),
        Point::new(10_000.0, 0.0),
    ] {
        let issuer = Issuer::uniform(Rect::centered(c, 250.0, 250.0));
        let ans = engine.ciuq(&issuer, range, 0.3, CiuqStrategy::PtiPExpanded);
        for m in &ans.results {
            assert!(m.probability >= 0.3);
        }
    }
}
