//! Property-based tests (proptest) over the workspace's core
//! invariants: geometry algebra, the duality theorem, closed-form vs
//! numerical integration, p-bound semantics, and pruning soundness.

use iloc::core::eval::constrained::{try_prune, PruneContext, PruneOutcome};
use iloc::core::expand::p_expanded_query;
use iloc::core::integrate::{closed, Integrator};
use iloc::core::QueryStats;
use iloc::geometry::{Interval, OverlapProfile, Point, Rect};
use iloc::prelude::*;
use iloc::uncertainty::{Axis, LocationPdf, PBound};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a finite coordinate in the data space.
fn coord() -> impl Strategy<Value = f64> {
    -1_000.0..11_000.0f64
}

/// Strategy: a non-degenerate rectangle with half-extents in
/// `[1, 500]`.
fn rect() -> impl Strategy<Value = Rect> {
    (coord(), coord(), 1.0..500.0f64, 1.0..500.0f64)
        .prop_map(|(x, y, w, h)| Rect::centered(Point::new(x, y), w, h))
}

/// Strategy: a range spec with half-extents in `[1, 800]`.
fn range_spec() -> impl Strategy<Value = RangeSpec> {
    (1.0..800.0f64, 1.0..800.0f64).prop_map(|(w, h)| RangeSpec::new(w, h))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lemma 2: range membership is symmetric in query/data roles.
    #[test]
    fn duality_symmetry(ax in coord(), ay in coord(), bx in coord(), by in coord(), r in range_spec()) {
        let a = Point::new(ax, ay);
        let b = Point::new(bx, by);
        prop_assert_eq!(r.at(a).contains_point(b), r.at(b).contains_point(a));
    }

    /// Rect algebra: intersection is commutative, contained in both
    /// operands, and contained in the hull.
    #[test]
    fn rect_algebra(a in rect(), b in rect()) {
        let i1 = a.intersect(b);
        let i2 = b.intersect(a);
        prop_assert_eq!(i1, i2);
        prop_assert!(a.contains_rect(i1));
        prop_assert!(b.contains_rect(i1));
        prop_assert!(a.hull(b).contains_rect(a));
        prop_assert!(a.hull(b).contains_rect(b));
        prop_assert!((a.intersection_area(b) - b.intersection_area(a)).abs() < 1e-9);
    }

    /// Minkowski sum of boxes equals interval sums; commutative.
    #[test]
    fn minkowski_commutes(a in rect(), b in rect()) {
        use iloc::geometry::minkowski_sum;
        prop_assert_eq!(minkowski_sum(a, b), minkowski_sum(b, a));
        let s = minkowski_sum(a, b);
        prop_assert!((s.width() - (a.width() + b.width())).abs() < 1e-9);
        prop_assert!((s.height() - (a.height() + b.height())).abs() < 1e-9);
    }

    /// Piecewise-linear (overlap-profile) integrals are additive over
    /// adjacent intervals.
    #[test]
    fn piecewise_integral_additive(
        w in 0.0..100.0f64,
        lo in -100.0..100.0f64,
        len in 0.0..200.0f64,
        split in 0.0..1.0f64,
    ) {
        let side = Interval::new(lo, lo + len);
        let profile = OverlapProfile::new(w, side);
        let sup = Interval::new(side.lo - w, side.hi + w);
        let mid = sup.lo + split * sup.length();
        let total = profile.integral_over(sup);
        let left = profile.integral_over(Interval::new(sup.lo, mid));
        let right = profile.integral_over(Interval::new(mid, sup.hi));
        prop_assert!((left + right - total).abs() < 1e-9 * (1.0 + total.abs()));
    }

    /// Lemma 1 via the closed form: zero probability iff no overlap
    /// with the expanded query (up to boundary measure-zero cases).
    #[test]
    fn minkowski_filter_is_exact(u0 in rect(), ui in rect(), r in range_spec()) {
        let expanded = u0.expand(r.w, r.h);
        let pi = closed::uniform_uniform(u0, ui, r, expanded);
        prop_assert!((0.0..=1.0).contains(&pi));
        if !ui.overlaps(expanded) {
            prop_assert_eq!(pi, 0.0);
        }
        if pi > 0.0 {
            prop_assert!(ui.overlaps(expanded));
        }
    }

    /// The closed form agrees with midpoint quadrature.
    #[test]
    fn closed_form_matches_grid(u0 in rect(), ui in rect(), r in range_spec()) {
        let expanded = u0.expand(r.w, r.h);
        let exact = closed::uniform_uniform(u0, ui, r, expanded);
        let issuer = UniformPdf::new(u0);
        let object = UniformPdf::new(ui);
        let mut stats = QueryStats::new();
        let approx = iloc::core::integrate::grid::object_probability(
            &issuer, r, &object, expanded, 64, &mut stats,
        );
        prop_assert!((exact - approx).abs() < 0.02, "exact {} vs grid {}", exact, approx);
    }

    /// Uniform p-bounds cut exactly p mass on each side and nest.
    #[test]
    fn pbound_tail_mass(u0 in rect(), p in 0.0..0.5f64) {
        let pdf = UniformPdf::new(u0);
        let b = PBound::compute(&pdf, p);
        let left = pdf.marginal_cdf(Axis::X, b.left());
        let right = 1.0 - pdf.marginal_cdf(Axis::X, b.right());
        prop_assert!((left - p).abs() < 1e-9);
        prop_assert!((right - p).abs() < 1e-9);
        prop_assert!(u0.contains_rect(b.rect));
    }

    /// Lemma 5 soundness: a point object outside the `Qp`-expanded
    /// query has qualification probability at most `Qp`.
    #[test]
    fn p_expanded_query_soundness(
        u0 in rect(),
        r in range_spec(),
        qp in 0.0..=1.0f64,
        sx in coord(),
        sy in coord(),
    ) {
        let issuer = Issuer::uniform(u0);
        let pexp = p_expanded_query(&issuer, r, qp);
        let s = Point::new(sx, sy);
        if !pexp.contains_point(s) {
            let pi = issuer.pdf().prob_in_rect(r.at(s));
            prop_assert!(pi <= qp + 1e-9, "pi={} qp={}", pi, qp);
        }
    }

    /// C-IUQ pruning soundness on random uniform objects: anything
    /// pruned truly falls below the threshold.
    #[test]
    fn pruning_soundness(
        u0 in rect(),
        ui in rect(),
        r in range_spec(),
        qp in 0.01..0.95f64,
    ) {
        let issuer = Issuer::uniform(u0);
        let object = UncertainObject::new(7u64, UniformPdf::new(ui));
        let ctx = PruneContext::new(&issuer, r, qp);
        if try_prune(&object.catalog(), &ctx) != PruneOutcome::Keep {
            let mut stats = QueryStats::new();
            let pi = Integrator::Auto.object_probability(
                issuer.pdf(), r, object.pdf(), ctx.expanded, 1, &mut stats,
            );
            prop_assert!(pi <= qp + 1e-9, "pruned but pi={} > qp={}", pi, qp);
        }
    }

    /// IPQ answers from the engine match per-object closed forms, for
    /// arbitrary small point sets.
    #[test]
    fn engine_matches_oracle(
        pts in proptest::collection::vec((0.0..1_000.0f64, 0.0..1_000.0f64), 1..40),
        cx in 100.0..900.0f64,
        cy in 100.0..900.0f64,
        u in 10.0..200.0f64,
        w in 10.0..300.0f64,
    ) {
        let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let engine = PointEngine::build(points.clone());
        let issuer = Issuer::uniform(Rect::centered(Point::new(cx, cy), u, u));
        let range = RangeSpec::square(w);
        let ans = engine.ipq(&issuer, range);
        for (k, p) in points.iter().enumerate() {
            let pi = issuer.pdf().prob_in_rect(range.at(*p));
            let got = ans.probability_of(iloc::uncertainty::ObjectId(k as u64));
            if pi > 0.0 {
                prop_assert!((got.unwrap_or(-1.0) - pi).abs() < 1e-12);
            } else {
                prop_assert_eq!(got, None);
            }
        }
    }
}

proptest! {
    // Heavier cases: fewer iterations.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Monte-Carlo converges to the closed form (statistical bound).
    /// The object is generated *near* the issuer so the probability is
    /// usually non-trivial.
    #[test]
    fn mc_converges_to_closed_form(
        u0 in rect(),
        dx in -400.0..400.0f64,
        dy in -400.0..400.0f64,
        ow in 1.0..400.0f64,
        oh in 1.0..400.0f64,
        r in range_spec(),
    ) {
        let ui = Rect::centered(u0.center().translate(dx, dy), ow, oh);
        let expanded = u0.expand(r.w, r.h);
        let exact = closed::uniform_uniform(u0, ui, r, expanded);
        prop_assume!(exact > 0.05 && exact < 0.95);
        let issuer = UniformPdf::new(u0);
        let object = UniformPdf::new(ui);
        let mut stats = QueryStats::new();
        let mut rng = StdRng::seed_from_u64(12345);
        let est = iloc::core::integrate::mc::object_probability(
            &issuer, r, &object, 20_000, &mut rng, &mut stats,
        );
        // 20k samples of a [0,1] value: σ ≤ 0.5/√20000 ≈ 0.0035;
        // allow 6σ.
        prop_assert!((est - exact).abs() < 0.022, "est {} vs exact {}", est, exact);
    }

    /// The Gaussian issuer's probabilities are consistent between the
    /// engine's exact path and its grid integrator.
    #[test]
    fn gaussian_exact_vs_grid(u0 in rect(), r in range_spec(), sx in coord(), sy in coord()) {
        let issuer = Issuer::gaussian(u0);
        let s = Point::new(sx, sy);
        let exact = issuer.pdf().prob_in_rect(r.at(s));
        let mut stats = QueryStats::new();
        let approx = iloc::core::integrate::grid::point_probability(
            issuer.pdf(), r, s, 80, &mut stats,
        );
        prop_assert!((exact - approx).abs() < 0.02, "exact {} vs grid {}", exact, approx);
    }

    /// Disc pdf rectangle masses agree with quadrature over the disc
    /// density (validating the closed-form circle/box intersection).
    #[test]
    fn disc_mass_matches_quadrature(
        cx in 0.0..1_000.0f64,
        cy in 0.0..1_000.0f64,
        radius in 5.0..200.0f64,
        qx in -0.5..0.5f64,
        qy in -0.5..0.5f64,
        qw in 5.0..300.0f64,
        qh in 5.0..300.0f64,
    ) {
        use iloc::uncertainty::DiscPdf;
        let pdf = DiscPdf::new(Point::new(cx, cy), radius);
        // Query rect placed relative to the disc so overlap is common.
        let q = Rect::centered(
            Point::new(cx + qx * 2.0 * radius, cy + qy * 2.0 * radius),
            qw,
            qh,
        );
        let exact = pdf.prob_in_rect(q);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&exact));
        let domain = pdf.region().intersect(q);
        let mut approx = 0.0;
        if !domain.is_empty() && domain.area() > 0.0 {
            let n = 150;
            let (dx, dy) = (domain.width() / n as f64, domain.height() / n as f64);
            for i in 0..n {
                for j in 0..n {
                    let p = Point::new(
                        domain.min.x + (i as f64 + 0.5) * dx,
                        domain.min.y + (j as f64 + 0.5) * dy,
                    );
                    approx += pdf.density(p) * dx * dy;
                }
            }
        }
        prop_assert!((exact - approx).abs() < 0.02, "exact {} vs grid {}", exact, approx);
    }

    /// The separable Gaussian closed form agrees with quadrature on
    /// random configurations (the new exact IUQ path).
    #[test]
    fn separable_gaussian_closed_form_is_exact(
        u0 in rect(),
        dx in -600.0..600.0f64,
        dy in -600.0..600.0f64,
        ow in 10.0..300.0f64,
        oh in 10.0..300.0f64,
        r in range_spec(),
    ) {
        use iloc::uncertainty::TruncatedGaussianPdf;
        let ui = Rect::centered(u0.center().translate(dx, dy), ow, oh);
        let object = TruncatedGaussianPdf::paper_default(ui);
        let issuer = UniformPdf::new(u0);
        let expanded = u0.expand(r.w, r.h);
        let exact = closed::uniform_separable(u0, &object, r, expanded)
            .expect("gaussian objects are separable");
        prop_assert!((0.0..=1.0 + 1e-9).contains(&exact));
        let mut stats = QueryStats::new();
        let approx = iloc::core::integrate::grid::object_probability(
            &issuer, r, &object, expanded, 100, &mut stats,
        );
        prop_assert!((exact - approx).abs() < 0.02, "exact {} vs grid {}", exact, approx);
    }
}
