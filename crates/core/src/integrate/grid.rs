//! Midpoint-rule quadrature over the integration domain — the
//! deterministic reference the served integrators are tested against.
//!
//! No query refines through it: [`super::Integrator`] is the closed
//! form or Monte-Carlo. The closed forms' and the estimators' tests,
//! and the property suite, compare against these functions at a fine
//! resolution: cut the domain into `per_axis²` cells and evaluate the
//! integrand at cell centres. Exact rectangle masses (`prob_in_rect`)
//! are still used for the inner `Q(x, y)` factor, so only the outer
//! integral is approximated.

use iloc_geometry::{Point, Rect};
use iloc_uncertainty::LocationPdf;

use crate::query::RangeSpec;
use crate::stats::QueryStats;

/// Point-object probability via quadrature: integrates `f0` over
/// `R(loc) ∩ U0` with the midpoint rule.
pub fn point_probability(
    issuer_pdf: &dyn LocationPdf,
    range: RangeSpec,
    loc: Point,
    per_axis: usize,
    stats: &mut QueryStats,
) -> f64 {
    assert!(per_axis > 0, "grid resolution must be positive");
    let domain = issuer_pdf.region().intersect(range.at(loc));
    integrate_density(issuer_pdf, domain, per_axis, stats)
}

/// Uncertain-object probability via quadrature over `Ui ∩ (R ⊕ U0)`
/// (Lemma 4): `Σ fi(c) · Q(c) · ΔA` at cell centres `c`.
pub fn object_probability(
    issuer_pdf: &dyn LocationPdf,
    range: RangeSpec,
    object_pdf: &dyn LocationPdf,
    expanded: Rect,
    per_axis: usize,
    stats: &mut QueryStats,
) -> f64 {
    assert!(per_axis > 0, "grid resolution must be positive");
    let domain = object_pdf.region().intersect(expanded);
    if domain.is_empty() || domain.area() == 0.0 {
        return 0.0;
    }
    let dx = domain.width() / per_axis as f64;
    let dy = domain.height() / per_axis as f64;
    let da = dx * dy;
    let mut acc = 0.0;
    for j in 0..per_axis {
        for i in 0..per_axis {
            stats.grid_cells += 1;
            let c = Point::new(
                domain.min.x + (i as f64 + 0.5) * dx,
                domain.min.y + (j as f64 + 0.5) * dy,
            );
            let fi = object_pdf.density(c);
            if fi == 0.0 {
                continue;
            }
            let q = issuer_pdf.prob_in_rect(range.at(c));
            acc += fi * q * da;
        }
    }
    acc.clamp(0.0, 1.0)
}

/// Midpoint integral of a density over a rectangle.
fn integrate_density(
    pdf: &dyn LocationPdf,
    domain: Rect,
    per_axis: usize,
    stats: &mut QueryStats,
) -> f64 {
    if domain.is_empty() || domain.area() == 0.0 {
        return 0.0;
    }
    let dx = domain.width() / per_axis as f64;
    let dy = domain.height() / per_axis as f64;
    let da = dx * dy;
    let mut acc = 0.0;
    for j in 0..per_axis {
        for i in 0..per_axis {
            stats.grid_cells += 1;
            let c = Point::new(
                domain.min.x + (i as f64 + 0.5) * dx,
                domain.min.y + (j as f64 + 0.5) * dy,
            );
            acc += pdf.density(c) * da;
        }
    }
    acc.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc_geometry::minkowski::expand_query;
    use iloc_uncertainty::UniformPdf;

    #[test]
    fn point_probability_matches_exact_for_uniform() {
        let issuer = UniformPdf::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0));
        let range = RangeSpec::square(30.0);
        let loc = Point::new(110.0, 50.0);
        let mut stats = QueryStats::new();
        let approx = point_probability(&issuer, range, loc, 200, &mut stats);
        let exact = issuer.prob_in_rect(range.at(loc));
        assert!(exact > 0.0);
        assert!((approx - exact).abs() < 1e-6, "{approx} vs {exact}");
        assert_eq!(stats.grid_cells, 200 * 200);
    }

    #[test]
    fn empty_domain_is_zero_with_no_work() {
        let issuer = UniformPdf::new(Rect::from_coords(0.0, 0.0, 10.0, 10.0));
        let range = RangeSpec::square(1.0);
        let mut stats = QueryStats::new();
        let p = point_probability(&issuer, range, Point::new(500.0, 500.0), 100, &mut stats);
        assert_eq!(p, 0.0);
        assert_eq!(stats.grid_cells, 0);
    }

    #[test]
    fn object_probability_converges_with_resolution() {
        let issuer = UniformPdf::new(Rect::from_coords(0.0, 0.0, 50.0, 50.0));
        let object = UniformPdf::new(Rect::from_coords(40.0, 10.0, 90.0, 60.0));
        let range = RangeSpec::square(20.0);
        let expanded = expand_query(issuer.region(), 20.0, 20.0);
        let exact = super::super::closed::uniform_uniform(
            issuer.region(),
            object.region(),
            range,
            expanded,
        );
        let mut s = QueryStats::new();
        let coarse = object_probability(&issuer, range, &object, expanded, 10, &mut s);
        let fine = object_probability(&issuer, range, &object, expanded, 160, &mut s);
        assert!((fine - exact).abs() < (coarse - exact).abs() + 1e-9);
        assert!((fine - exact).abs() < 1e-3, "fine {fine} vs exact {exact}");
    }
}
