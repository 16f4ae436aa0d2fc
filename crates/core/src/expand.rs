//! Query expansion (Section 4.1) and the `p`-expanded query
//! (Definition 7 + Lemma 5).

use iloc_geometry::{minkowski, Interval, Rect};
use iloc_uncertainty::{Axis, LocationPdf};

use crate::query::{Issuer, RangeSpec};

/// The expanded query range `R ⊕ U0` (Lemma 1): the union of every
/// range query issuable from inside `U0`. Objects that do not touch it
/// have zero qualification probability.
#[inline]
pub fn minkowski_query(issuer: &Issuer, range: RangeSpec) -> Rect {
    minkowski::expand_query(issuer.region(), range.w, range.h)
}

/// The `Qp`-expanded query (Lemma 5), cut at exactly `qp ∈ [0, 1]`:
/// `[l − w, r + w] × [b − h, t + h]`, where `l` and `r` are the
/// issuer's x-marginal quantiles at `qp` and `1 − qp`, and `b`, `t`
/// the same on y.
///
/// **Why it is sound at every `qp`.** A point object at `(x, y)`
/// qualifies when the issuer lies in the range centred on it, so its
/// probability is at most the issuer's mass in the slab
/// `[x − w, x + w]`. When `x + w < l` that slab lies left of `l`,
/// whose mass is `qp`, so the object falls short of `qp`; the same
/// holds past `r`, `b` and `t`. Nothing in the argument needs
/// `l ≤ r`: above `qp = 0.5` the cut lines cross, the window shrinks
/// below the range itself, and once `l − w > r + w` it is
/// [`Rect::EMPTY`] — no position reaches `qp`. An uncertain object's
/// probability is an average of point probabilities over its region
/// `Ui`, so one whose region misses the window falls short as well
/// (Strategy 2 and the PTI's filter).
///
/// For `qp ≤ 0.5` this is the issuer's `qp`-bound grown by the range,
/// bit for bit [`iloc_uncertainty::PBound::compute`]'s arithmetic. At
/// `qp = 0` and `qp = 1` the quantiles are the region's edges, so
/// `qp = 0` gives [`minkowski_query`] itself and `qp = 1` the positions
/// whose range covers the whole issuer region.
pub fn p_expanded_query(issuer: &Issuer, range: RangeSpec, qp: f64) -> Rect {
    let pdf = issuer.pdf();
    let l = pdf.quantile(Axis::X, qp);
    let r = pdf.quantile(Axis::X, 1.0 - qp);
    let b = pdf.quantile(Axis::Y, qp);
    let t = pdf.quantile(Axis::Y, 1.0 - qp);
    Rect::from_intervals(
        Interval::new(l - range.w, r + range.w),
        Interval::new(b - range.h, t + range.h),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CipqStrategy, CiuqStrategy};
    use crate::{PointEngine, UncertainEngine};
    use iloc_geometry::Point;
    use iloc_uncertainty::catalog::DEFAULT_LEVELS;
    use iloc_uncertainty::{DiscPdf, PBound, TruncatedGaussianPdf, UncertainObject, UniformPdf};

    fn issuer() -> Issuer {
        Issuer::uniform(Rect::from_coords(100.0, 100.0, 300.0, 300.0))
    }

    /// One issuer of each pdf kind over (or around) `[100, 300]²`.
    fn issuers() -> [Issuer; 3] {
        let region = Rect::from_coords(100.0, 100.0, 300.0, 300.0);
        [
            Issuer::uniform(region),
            Issuer::with_pdf(TruncatedGaussianPdf::paper_default(region)),
            Issuer::with_pdf(DiscPdf::new(Point::new(200.0, 200.0), 100.0)),
        ]
    }

    fn bits(r: Rect) -> [u64; 4] {
        [r.min.x, r.min.y, r.max.x, r.max.y].map(f64::to_bits)
    }

    #[test]
    fn minkowski_query_expands_by_half_extents() {
        let q = minkowski_query(&issuer(), RangeSpec::new(50.0, 25.0));
        assert_eq!(q, Rect::from_coords(50.0, 75.0, 350.0, 325.0));
    }

    #[test]
    fn zero_threshold_equals_minkowski() {
        let range = RangeSpec::new(50.0, 35.0);
        for iss in issuers() {
            let pexp = p_expanded_query(&iss, range, 0.0);
            assert_eq!(bits(pexp), bits(minkowski_query(&iss, range)));
        }
    }

    #[test]
    fn catalog_levels_match_the_p_bound_bit_for_bit() {
        for iss in issuers() {
            for range in [RangeSpec::square(0.0), RangeSpec::new(40.0, 25.0)] {
                for p in DEFAULT_LEVELS {
                    let bound = PBound::compute(iss.pdf(), p).rect.expand(range.w, range.h);
                    assert_eq!(
                        bits(p_expanded_query(&iss, range, p)),
                        bits(bound),
                        "{:?} at p = {p}",
                        iss.pdf()
                    );
                }
            }
        }
    }

    #[test]
    fn p_expanded_shrinks_with_threshold() {
        let iss = issuer();
        let range = RangeSpec::square(50.0);
        let mut prev = p_expanded_query(&iss, range, 0.0);
        for k in 1..=5 {
            let qp = k as f64 / 10.0;
            let cur = p_expanded_query(&iss, range, qp);
            assert!(prev.contains_rect(cur), "qp={qp} not nested");
            assert!(cur.area() < prev.area());
            prev = cur;
        }
    }

    #[test]
    fn past_one_half_the_window_keeps_shrinking() {
        // w = 150 > the issuer's half-extent, so the window stays
        // non-empty up to Qp = 1 and must shrink strictly all the way.
        let range = RangeSpec::square(150.0);
        for iss in issuers() {
            let mut prev = p_expanded_query(&iss, range, 0.5);
            for k in 11..=20 {
                let qp = k as f64 / 20.0;
                let cur = p_expanded_query(&iss, range, qp);
                assert!(!cur.is_empty(), "{:?}: qp={qp}", iss.pdf());
                assert!(
                    prev.contains_rect(cur),
                    "{:?}: qp={qp} not nested",
                    iss.pdf()
                );
                assert!(cur.area() < prev.area(), "{:?}: qp={qp}", iss.pdf());
                prev = cur;
            }
        }
    }

    #[test]
    fn between_catalog_levels_the_window_is_cut_at_qp() {
        // Qp = 0.35 is no catalog level: the window is the exact
        // 0.35 cut, strictly inside the 0.3 level's.
        let iss = issuer();
        let range = RangeSpec::square(10.0);
        let pexp = p_expanded_query(&iss, range, 0.35);
        let (lo, hi) = (100.0 + 0.35 * 200.0 - 10.0, 300.0 - 0.35 * 200.0 + 10.0);
        for (got, want) in [
            (pexp.min.x, lo),
            (pexp.min.y, lo),
            (pexp.max.x, hi),
            (pexp.max.y, hi),
        ] {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        let at_30 = p_expanded_query(&iss, range, 0.3);
        assert!(at_30.contains_rect(pexp) && pexp.area() < at_30.area());
    }

    #[test]
    fn uniform_p_expanded_matches_lemma5_arithmetic() {
        // For a uniform issuer on [100,300]², l0(p) = 100 + 200p, so the
        // left side of the p-expanded query is l0(p) − w.
        let iss = issuer();
        let range = RangeSpec::new(40.0, 40.0);
        let pexp = p_expanded_query(&iss, range, 0.2);
        assert!((pexp.min.x - (140.0 - 40.0)).abs() < 1e-9);
        assert_eq!(pexp.center(), Point::new(200.0, 200.0));
        // Past 0.5 the lines cross: at 0.8, l = 260 and r = 140, so a
        // range of half-width 80 leaves the window [180, 220].
        let pexp = p_expanded_query(&iss, RangeSpec::square(80.0), 0.8);
        assert!((pexp.min.x - (260.0 - 80.0)).abs() < 1e-9);
        assert!((pexp.max.x - (140.0 + 80.0)).abs() < 1e-9);
    }

    #[test]
    fn crossed_lines_give_the_empty_window_and_empty_answers() {
        // w = 10 on a 200-wide uniform issuer: the window inverts once
        // 100 + 200·qp − 10 > 300 − 200·qp + 10, i.e. past qp = 0.55.
        let iss = issuer();
        let range = RangeSpec::square(10.0);
        assert!(!p_expanded_query(&iss, range, 0.5).is_empty());
        for qp in [0.6, 0.8, 1.0] {
            assert_eq!(p_expanded_query(&iss, range, qp), Rect::EMPTY, "qp={qp}");
        }
        let points: Vec<Point> = (0..400)
            .map(|k| Point::new(150.0 + (k % 20) as f64 * 5.0, 150.0 + (k / 20) as f64 * 5.0))
            .collect();
        let uncertain: Vec<UncertainObject> = points
            .iter()
            .enumerate()
            .map(|(k, &c)| {
                UncertainObject::new(k as u64, UniformPdf::new(Rect::centered(c, 3.0, 3.0)))
            })
            .collect();
        let point_engine = PointEngine::build(points);
        let uncertain_engine = UncertainEngine::build(uncertain);
        for qp in [0.6, 0.8, 1.0] {
            for strategy in [CipqStrategy::PExpanded, CipqStrategy::MinkowskiSum] {
                let answer = point_engine.cipq(&iss, range, qp, strategy);
                assert!(answer.results.is_empty(), "{strategy:?} qp={qp}");
            }
            for strategy in [CiuqStrategy::PtiPExpanded, CiuqStrategy::RTreeMinkowski] {
                let answer = uncertain_engine.ciuq(&iss, range, qp, strategy);
                assert!(answer.results.is_empty(), "{strategy:?} qp={qp}");
            }
            let answer = point_engine.cipq(&iss, range, qp, CipqStrategy::PExpanded);
            assert_eq!(answer.stats.access.candidates, 0, "qp={qp}");
        }
    }

    #[test]
    fn at_one_the_window_is_where_the_range_covers_the_issuer() {
        // Awkward coordinates: `lo + 1 · len` would round off `hi`. The
        // grid stays clear of the window's edges, where the two tests'
        // roundings could differ.
        let iss = Issuer::uniform(Rect::from_coords(0.2, 0.3, 0.9, 0.9));
        let range = RangeSpec::new(0.4, 0.35);
        let pexp = p_expanded_query(&iss, range, 1.0);
        let u0 = iss.region();
        let edges = Rect::from_coords(
            u0.max.x - range.w,
            u0.max.y - range.h,
            u0.min.x + range.w,
            u0.min.y + range.h,
        );
        assert_eq!(bits(pexp), bits(edges));
        for i in 0..=80 {
            for j in 0..=80 {
                let s = Point::new(
                    -0.2 + (i as f64 + 0.37) * 0.0125,
                    (j as f64 + 0.37) * 0.0175,
                );
                assert_eq!(
                    pexp.contains_point(s),
                    range.at(s).contains_rect(iss.region()),
                    "at {s:?}"
                );
            }
        }
    }
}
