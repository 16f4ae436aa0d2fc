//! Disc-shaped (circular) uncertainty pdf — the paper's "non-
//! rectangular uncertainty regions" future-work item.
//!
//! GPS receivers report *"within r metres of the fix"*: a uniform
//! density over a disc. Rectangle masses are exact thanks to the
//! closed-form circle–rectangle intersection area
//! ([`iloc_geometry::Circle::intersection_area`]), so a disc issuer
//! evaluates IPQ/C-IPQ exactly through the ordinary duality path; disc
//! *objects* integrate by Monte-Carlo.
//!
//! [`LocationPdf::region`] returns the disc's **bounding box** — every
//! box-based structure (Minkowski filter, p-bounds, PTI) stays sound
//! because the box over-approximates the support.

use iloc_geometry::{Circle, Point, Rect};
use rand::Rng;
use rand::RngCore;

use crate::pdf::{Axis, LocationPdf};

/// Uniform density over a disc.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscPdf {
    disc: Circle,
    inv_area: f64,
}

impl DiscPdf {
    /// Creates the uniform pdf over the disc centred at `center` with
    /// radius `radius`.
    ///
    /// # Panics
    ///
    /// Panics when the radius is not finite and positive, or when the
    /// disc fails [`DiscPdf::is_representable`].
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius > 0.0,
            "disc pdf requires a positive radius"
        );
        assert!(
            DiscPdf::is_representable(center, radius),
            "disc pdf requires a finite bounding box and a finite, positive area"
        );
        let disc = Circle::new(center, radius);
        DiscPdf {
            disc,
            inv_area: 1.0 / disc.area(),
        }
    }

    /// Whether the disc has a finite, positive radius, a finite
    /// bounding box (`center ± radius` on both axes) and a finite,
    /// positive area `π r²` — the index needs the box, the density the
    /// area. The binary decoder refuses what this refuses, so a disc
    /// that decodes is one [`DiscPdf::new`] accepts.
    pub fn is_representable(center: Point, radius: f64) -> bool {
        if !(radius.is_finite() && radius > 0.0) {
            return false;
        }
        let area = Circle::new(center, radius).area();
        [center.x, center.y]
            .iter()
            .all(|c| (c - radius).is_finite() && (c + radius).is_finite())
            && area.is_finite()
            && area > 0.0
    }

    /// The underlying disc.
    pub fn disc(&self) -> Circle {
        self.disc
    }
}

impl LocationPdf for DiscPdf {
    fn region(&self) -> Rect {
        self.disc.bounding_box()
    }

    fn density(&self, p: Point) -> f64 {
        if self.disc.contains_point(p) {
            self.inv_area
        } else {
            0.0
        }
    }

    fn prob_in_rect(&self, r: Rect) -> f64 {
        (self.disc.intersection_area(r) * self.inv_area).clamp(0.0, 1.0)
    }

    fn marginal_cdf(&self, axis: Axis, v: f64) -> f64 {
        // Mass of the disc on the ≤ v side of an axis line: a circular
        // segment, `A(d) = r²·acos(d/r) − d·√(r²−d²)` for the region
        // beyond signed distance d from the centre.
        let (c, r) = match axis {
            Axis::X => (self.disc.center.x, self.disc.radius),
            Axis::Y => (self.disc.center.y, self.disc.radius),
        };
        let d = v - c;
        if d <= -r {
            return 0.0;
        }
        if d >= r {
            return 1.0;
        }
        let beyond = r * r * (d / r).acos() - d * (r * r - d * d).sqrt();
        (1.0 - beyond * self.inv_area).clamp(0.0, 1.0)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> Point {
        // Rejection from the bounding box (acceptance π/4 ≈ 0.785).
        let c = self.disc.center;
        let r = self.disc.radius;
        loop {
            let p = Point::new(c.x + rng.gen_range(-r..=r), c.y + rng.gen_range(-r..=r));
            if self.disc.contains_point(p) {
                return p;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pdf() -> DiscPdf {
        DiscPdf::new(Point::new(10.0, 20.0), 5.0)
    }

    #[test]
    fn total_mass_is_one() {
        let f = pdf();
        assert!((f.prob_in_rect(f.region()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn density_zero_outside_disc_even_inside_bbox() {
        let f = pdf();
        // Bounding-box corner is outside the disc.
        assert_eq!(f.density(Point::new(5.5, 15.5)), 0.0);
        assert!(f.density(Point::new(10.0, 20.0)) > 0.0);
    }

    #[test]
    fn half_rect_gets_half_mass() {
        let f = pdf();
        let left = Rect::from_coords(0.0, 0.0, 10.0, 40.0);
        assert!((f.prob_in_rect(left) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn marginal_cdf_endpoints_and_median() {
        let f = pdf();
        assert_eq!(f.marginal_cdf(Axis::X, 5.0), 0.0);
        assert_eq!(f.marginal_cdf(Axis::X, 15.0), 1.0);
        assert!((f.marginal_cdf(Axis::X, 10.0) - 0.5).abs() < 1e-12);
        assert!((f.marginal_cdf(Axis::Y, 20.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn marginal_cdf_matches_rect_mass() {
        let f = pdf();
        for v in [6.0, 8.0, 10.0, 12.5, 14.0] {
            let via_rect = f.prob_in_rect(Rect::from_coords(0.0, 0.0, v, 100.0));
            let via_cdf = f.marginal_cdf(Axis::X, v);
            assert!((via_rect - via_cdf).abs() < 1e-12, "v={v}");
        }
    }

    #[test]
    fn quantiles_invert_cdf() {
        let f = pdf();
        for &p in &[0.1, 0.25, 0.5, 0.75, 0.9] {
            let q = f.quantile(Axis::Y, p);
            assert!((f.marginal_cdf(Axis::Y, q) - p).abs() < 1e-9);
        }
    }

    #[test]
    fn pbounds_and_catalog_work_for_discs() {
        use crate::catalog::UCatalog;
        let f = pdf();
        let cat = UCatalog::build_default(&f);
        assert_eq!(cat.len(), 6);
        // p-bounds nest and stay within the bounding box.
        for pair in cat.bounds().windows(2) {
            assert!(pair[0].rect.contains_rect(pair[1].rect));
        }
        assert_eq!(cat.bounds()[0].rect, f.region());
    }

    #[test]
    fn samples_inside_disc_with_uniform_spread() {
        let f = pdf();
        let mut rng = StdRng::seed_from_u64(8);
        const N: usize = 20_000;
        let mut inside_half_radius = 0usize;
        for _ in 0..N {
            let s = f.sample(&mut rng);
            assert!(f.disc().contains_point(s));
            if s.distance(Point::new(10.0, 20.0)) <= 2.5 {
                inside_half_radius += 1;
            }
        }
        // Uniform over the disc: a half-radius disc holds 25% of mass.
        let frac = inside_half_radius as f64 / N as f64;
        assert!((frac - 0.25).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn extent_and_area_must_be_finite() {
        assert!(DiscPdf::is_representable(Point::new(1e300, 0.0), 1e100));
        assert!(!DiscPdf::is_representable(Point::new(1e308, 0.0), 1e308));
        assert!(!DiscPdf::is_representable(Point::new(0.0, -1e308), 1e308));
        assert!(!DiscPdf::is_representable(Point::new(0.0, 0.0), -1.0));
        assert!(!DiscPdf::is_representable(Point::new(0.0, 0.0), f64::NAN));
        // r² overflows, or underflows to a zero area.
        assert!(!DiscPdf::is_representable(Point::new(0.0, 0.0), 1e200));
        assert!(!DiscPdf::is_representable(Point::new(0.0, 0.0), 1e-200));
    }

    #[test]
    #[should_panic(expected = "finite bounding box")]
    fn rejects_an_unbounded_extent() {
        let _ = DiscPdf::new(Point::new(1e308, 0.0), 1e308);
    }

    #[test]
    #[should_panic(expected = "positive radius")]
    fn rejects_zero_radius() {
        let _ = DiscPdf::new(Point::new(0.0, 0.0), 0.0);
    }
}
