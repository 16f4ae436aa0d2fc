//! Property suite run uniformly over **every** `LocationPdf`
//! implementation: the trait contract the rest of the workspace builds
//! on (query evaluation, p-bounds, PTI) must hold for uniform,
//! truncated-Gaussian and disc pdfs alike — every [`PdfKind`].

use iloc_geometry::{Point, Rect};
use iloc_uncertainty::{
    Axis, DiscPdf, LocationPdf, PBound, PdfKind, TruncatedGaussianPdf, UCatalog, UniformPdf,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: parameters for one pdf of each kind over a region near
/// the origin.
fn any_pdf() -> impl Strategy<Value = PdfKind> {
    let region = (0.0..500.0f64, 0.0..500.0f64, 10.0..200.0f64, 10.0..200.0f64)
        .prop_map(|(x, y, w, h)| Rect::centered(Point::new(x, y), w, h));
    let disc = (0.0..500.0f64, 0.0..500.0f64, 10.0..150.0f64)
        .prop_map(|(x, y, r)| DiscPdf::new(Point::new(x, y), r).into());
    prop_oneof![
        region.clone().prop_map(|r| UniformPdf::new(r).into()),
        region.prop_map(|r| TruncatedGaussianPdf::paper_default(r).into()),
        disc,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Total mass over the region is 1; a covering rectangle sees all
    /// of it; a far rectangle none.
    #[test]
    fn mass_axioms(pdf in any_pdf()) {
        let region = pdf.region();
        prop_assert!((pdf.prob_in_rect(region) - 1.0).abs() < 1e-6);
        prop_assert!((pdf.prob_in_rect(region.expand(100.0, 100.0)) - 1.0).abs() < 1e-6);
        let far = region.translate(10_000.0, 10_000.0);
        prop_assert!(pdf.prob_in_rect(far).abs() < 1e-12);
    }

    /// Rectangle mass is monotone under inclusion.
    #[test]
    fn mass_monotone(pdf in any_pdf(), shrink in 0.0..0.45f64) {
        let region = pdf.region();
        let inner = region.expand(-shrink * region.width() / 2.0, -shrink * region.height() / 2.0);
        prop_assert!(pdf.prob_in_rect(inner) <= pdf.prob_in_rect(region) + 1e-12);
    }

    /// Marginal CDFs are monotone with the right limits.
    #[test]
    fn marginal_cdf_axioms(pdf in any_pdf()) {
        for axis in [Axis::X, Axis::Y] {
            let side = match axis {
                Axis::X => pdf.region().x_interval(),
                Axis::Y => pdf.region().y_interval(),
            };
            prop_assert!(pdf.marginal_cdf(axis, side.lo - 1.0).abs() < 1e-12);
            prop_assert!((pdf.marginal_cdf(axis, side.hi + 1.0) - 1.0).abs() < 1e-12);
            let mut prev: f64 = 0.0;
            for k in 0..=20 {
                let v = side.lo + side.length() * k as f64 / 20.0;
                let c = pdf.marginal_cdf(axis, v);
                prop_assert!(c >= prev - 1e-12, "cdf not monotone at {v}");
                prop_assert!((-1e-12..=1.0 + 1e-12).contains(&c));
                prev = c;
            }
        }
    }

    /// `quantile` is a right-inverse of the marginal CDF.
    #[test]
    fn quantile_inverts_cdf(pdf in any_pdf(), p in 0.01..0.99f64) {
        for axis in [Axis::X, Axis::Y] {
            let q = pdf.quantile(axis, p);
            prop_assert!(
                (pdf.marginal_cdf(axis, q) - p).abs() < 1e-6,
                "axis {axis:?}: cdf(quantile({p})) = {}",
                pdf.marginal_cdf(axis, q)
            );
        }
    }

    /// p-bounds nest and carry exactly the advertised tail masses.
    #[test]
    fn pbounds_nest_and_cut_tails(pdf in any_pdf(), p in 0.05..0.5f64) {
        let b = PBound::compute(&pdf, p);
        prop_assert!(pdf.region().contains_rect(b.rect));
        // Tail masses via the marginal CDFs.
        prop_assert!((pdf.marginal_cdf(Axis::X, b.left()) - p).abs() < 1e-6);
        prop_assert!((1.0 - pdf.marginal_cdf(Axis::X, b.right()) - p).abs() < 1e-6);
        prop_assert!((pdf.marginal_cdf(Axis::Y, b.bottom()) - p).abs() < 1e-6);
        prop_assert!((1.0 - pdf.marginal_cdf(Axis::Y, b.top()) - p).abs() < 1e-6);
        // Nesting against a smaller p.
        let smaller = PBound::compute(&pdf, p / 2.0);
        prop_assert!(smaller.rect.contains_rect(b.rect));
    }

    /// Default catalogs exist, start at the region, and nest.
    #[test]
    fn catalogs_nest(pdf in any_pdf()) {
        let cat = UCatalog::build_default(&pdf);
        prop_assert_eq!(cat.len(), 6);
        prop_assert_eq!(cat.bounds()[0].rect, pdf.region());
        for pair in cat.bounds().windows(2) {
            prop_assert!(pair[0].rect.contains_rect(pair[1].rect));
        }
    }

    /// Samples land in the region, on positive density.
    #[test]
    fn samples_in_support(pdf in any_pdf(), seed in 0u64..1_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let s = pdf.sample(&mut rng);
            prop_assert!(pdf.region().contains_point(s), "{s} outside region");
            prop_assert!(pdf.density(s) > 0.0, "{s} sampled with zero density");
        }
    }

    /// Density vanishes outside the region and is non-negative inside.
    #[test]
    fn density_support(pdf in any_pdf(), fx in -0.2..1.2f64, fy in -0.2..1.2f64) {
        let r = pdf.region();
        let p = Point::new(
            r.min.x + fx * r.width(),
            r.min.y + fy * r.height(),
        );
        let d = pdf.density(p);
        prop_assert!(d >= 0.0);
        if !r.contains_point(p) {
            prop_assert_eq!(d, 0.0);
        }
    }
}
