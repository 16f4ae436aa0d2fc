//! The threshold-filter oracle.
//!
//! A constrained query's filter is the issuer's `Qp`-expanded query,
//! cut at exactly `Qp` (`iloc::core::expand::p_expanded_query`). It
//! may only remove candidates that fall short of `Qp`, so the filtered
//! plan must answer what the unfiltered baseline answers, match for
//! match and bit for bit:
//!
//! * C-IPQ: `PExpanded` ≡ `MinkowskiSum`, for uniform, Gaussian and
//!   disc issuers;
//! * C-IUQ: `PtiPExpanded` ≡ `RTreeMinkowski`, for uniform issuers.
//!
//! `Qp` is drawn from `[0, 1]`, with half the cases forced onto the
//! values where the filter changes character: 0, every catalog level,
//! just past 0.5 (where the issuer's cut lines cross), 0.8 and 1.

use iloc::prelude::*;
use iloc::uncertainty::{DiscPdf, TruncatedGaussianPdf, UncertainObject, UniformPdf};
use proptest::prelude::*;

/// The forced thresholds.
const FORCED: [f64; 9] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.5 + 1e-12, 0.8, 1.0];

/// Strategy: a threshold in `[0, 1]`, half the time one of [`FORCED`].
fn threshold() -> impl Strategy<Value = f64> {
    (0..2 * FORCED.len(), 0.0..=1.0f64).prop_map(|(k, qp)| FORCED.get(k).copied().unwrap_or(qp))
}

/// Strategy: an issuer near the middle of a 1000×1000 space — uniform,
/// truncated Gaussian or disc.
fn issuer() -> impl Strategy<Value = Issuer> {
    (
        0..3u8,
        300.0..700.0f64,
        300.0..700.0f64,
        20.0..150.0f64,
        20.0..150.0f64,
    )
        .prop_map(|(kind, x, y, w, h)| {
            let c = Point::new(x, y);
            match kind {
                0 => Issuer::uniform(Rect::centered(c, w, h)),
                1 => Issuer::with_pdf(TruncatedGaussianPdf::paper_default(Rect::centered(c, w, h))),
                _ => Issuer::with_pdf(DiscPdf::new(c, w)),
            }
        })
}

/// Strategy: a uniform issuer.
fn uniform_issuer() -> impl Strategy<Value = Issuer> {
    (
        300.0..700.0f64,
        300.0..700.0f64,
        20.0..150.0f64,
        20.0..150.0f64,
    )
        .prop_map(|(x, y, w, h)| Issuer::uniform(Rect::centered(Point::new(x, y), w, h)))
}

/// Strategy: a range whose half-extents run from well under to well
/// over the issuer's, so the window is empty at high `Qp` for some
/// cases and not for others.
fn range() -> impl Strategy<Value = RangeSpec> {
    (5.0..250.0f64, 5.0..250.0f64).prop_map(|(w, h)| RangeSpec::new(w, h))
}

/// Strategy: up to 120 points around the issuers.
fn points() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(
        (100.0..900.0f64, 100.0..900.0f64).prop_map(|(x, y)| Point::new(x, y)),
        1..120,
    )
}

/// Strategy: up to 150 uniform objects around the issuers, from specks
/// (which qualify almost like points, so a window cut too tight loses
/// them) to regions wider than the issuer.
fn uncertain() -> impl Strategy<Value = Vec<UncertainObject>> {
    proptest::collection::vec(
        (200.0..800.0f64, 200.0..800.0f64, 0.5..60.0f64, 0.5..60.0f64),
        1..150,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// C-IPQ: the `Qp`-expanded filter answers what the Minkowski
    /// filter answers, from no more candidates.
    #[test]
    fn cipq_p_expanded_answers_as_minkowski(
        pts in points(),
        iss in issuer(),
        r in range(),
        qp in threshold(),
    ) {
        let engine = PointEngine::build(pts);
        let filtered = engine.cipq(&iss, r, qp, CipqStrategy::PExpanded);
        let baseline = engine.cipq(&iss, r, qp, CipqStrategy::MinkowskiSum);
        prop_assert!(
            filtered.same_matches(&baseline),
            "qp={} {:?}: {:?} vs {:?}", qp, iss.pdf(), filtered.results, baseline.results
        );
        prop_assert!(filtered.stats.access.candidates <= baseline.stats.access.candidates);
    }

    /// C-IUQ: the PTI under the `Qp`-expanded filter, with Section 5.2
    /// pruning, answers what the R-tree under the Minkowski filter
    /// answers, refining no more candidates.
    #[test]
    fn ciuq_pti_answers_as_rtree(
        objects in uncertain(),
        iss in uniform_issuer(),
        r in range(),
        qp in threshold(),
    ) {
        let engine = UncertainEngine::build(objects);
        let filtered = engine.ciuq(&iss, r, qp, CiuqStrategy::PtiPExpanded);
        let baseline = engine.ciuq(&iss, r, qp, CiuqStrategy::RTreeMinkowski);
        prop_assert!(
            filtered.same_matches(&baseline),
            "qp={}: {:?} vs {:?}", qp, filtered.results, baseline.results
        );
        prop_assert!(filtered.stats.prob_evals <= baseline.stats.prob_evals);
    }
}
