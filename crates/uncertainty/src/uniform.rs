//! Uniform uncertainty pdf — the paper's default model.
//!
//! `fi(x, y) = 1 / Area(Ui)` inside `Ui`, zero outside: the
//! "worst-case" model of Pfoser & Jensen where nothing is known about
//! which point of the region is more likely. Everything about it is
//! closed-form, which is what makes the paper's enhanced evaluation
//! methods (Eq. 6, Eq. 8) fast.

use iloc_geometry::{Point, Rect};
use rand::Rng;
use rand::RngCore;

use crate::pdf::{Axis, LocationPdf};

/// Uniform density over a non-degenerate axis-parallel rectangle.
#[derive(Debug, Clone, PartialEq)]
pub struct UniformPdf {
    region: Rect,
    inv_area: f64,
}

impl UniformPdf {
    /// Creates the uniform pdf over `region`.
    ///
    /// # Panics
    ///
    /// Panics when `region` is empty or has zero area: a uniform
    /// *density* does not exist on a degenerate region (model a point
    /// object with [`crate::object::PointObject`] instead).
    pub fn new(region: Rect) -> Self {
        assert!(
            region.area() > 0.0,
            "uniform pdf requires a region of positive area"
        );
        UniformPdf {
            region,
            inv_area: 1.0 / region.area(),
        }
    }
}

impl LocationPdf for UniformPdf {
    fn region(&self) -> Rect {
        self.region
    }

    fn density(&self, p: Point) -> f64 {
        if self.region.contains_point(p) {
            self.inv_area
        } else {
            0.0
        }
    }

    fn prob_in_rect(&self, r: Rect) -> f64 {
        // Paper Eq. 6 numerator: uniform mass is an area ratio.
        self.region.intersection_area(r) * self.inv_area
    }

    fn marginal_cdf(&self, axis: Axis, v: f64) -> f64 {
        let side = match axis {
            Axis::X => self.region.x_interval(),
            Axis::Y => self.region.y_interval(),
        };
        ((v - side.lo) / side.length()).clamp(0.0, 1.0)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> Point {
        let x = rng.gen_range(self.region.min.x..=self.region.max.x);
        let y = rng.gen_range(self.region.min.y..=self.region.max.y);
        Point::new(x, y)
    }

    fn quantile(&self, axis: Axis, p: f64) -> f64 {
        let side = match axis {
            Axis::X => self.region.x_interval(),
            Axis::Y => self.region.y_interval(),
        };
        // The top end is exact, as for every pdf: `lo + 1 · len` can
        // round off `hi`.
        if p >= 1.0 {
            return side.hi;
        }
        side.lo + p.clamp(0.0, 1.0) * side.length()
    }

    fn uniform_region(&self) -> Option<Rect> {
        Some(self.region)
    }

    fn linear_marginal_integral(
        &self,
        axis: Axis,
        i: iloc_geometry::Interval,
        c0: f64,
        c1: f64,
    ) -> Option<f64> {
        // Marginal density is constant 1/len on the side interval:
        // ∫ (c0 + c1·x) dx / len over the clipped interval.
        let side = match axis {
            Axis::X => self.region.x_interval(),
            Axis::Y => self.region.y_interval(),
        };
        let c = side.intersect(i);
        if c.is_empty() {
            return Some(0.0);
        }
        let raw = c0 * c.length() + 0.5 * c1 * (c.hi * c.hi - c.lo * c.lo);
        Some(raw / side.length())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pdf() -> UniformPdf {
        UniformPdf::new(Rect::from_coords(0.0, 0.0, 10.0, 5.0))
    }

    #[test]
    #[should_panic(expected = "positive area")]
    fn rejects_degenerate_region() {
        let _ = UniformPdf::new(Rect::from_point(Point::new(1.0, 1.0)));
    }

    #[test]
    fn density_inside_and_outside() {
        let f = pdf();
        assert!((f.density(Point::new(5.0, 2.0)) - 0.02).abs() < 1e-12);
        assert_eq!(f.density(Point::new(11.0, 2.0)), 0.0);
    }

    #[test]
    fn total_mass_is_one() {
        let f = pdf();
        assert!((f.prob_in_rect(f.region()) - 1.0).abs() < 1e-12);
        assert!(
            (f.prob_in_rect(Rect::from_coords(-100.0, -100.0, 100.0, 100.0)) - 1.0).abs() < 1e-12
        );
    }

    #[test]
    fn prob_is_area_ratio() {
        let f = pdf();
        let r = Rect::from_coords(0.0, 0.0, 5.0, 5.0);
        assert!((f.prob_in_rect(r) - 0.5).abs() < 1e-12);
        assert_eq!(
            f.prob_in_rect(Rect::from_coords(20.0, 20.0, 30.0, 30.0)),
            0.0
        );
    }

    #[test]
    fn marginal_cdf_linear() {
        let f = pdf();
        assert_eq!(f.marginal_cdf(Axis::X, -1.0), 0.0);
        assert!((f.marginal_cdf(Axis::X, 2.5) - 0.25).abs() < 1e-12);
        assert_eq!(f.marginal_cdf(Axis::X, 10.0), 1.0);
        assert!((f.marginal_cdf(Axis::Y, 1.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn quantile_is_exact_inverse() {
        let f = pdf();
        for &p in &[0.0, 0.1, 0.5, 0.9, 1.0] {
            let q = f.quantile(Axis::X, p);
            assert!((f.marginal_cdf(Axis::X, q) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_fall_in_region_and_cover_it() {
        let f = pdf();
        let mut rng = StdRng::seed_from_u64(7);
        let mut mean = Point::ORIGIN;
        const N: usize = 20_000;
        for _ in 0..N {
            let s = f.sample(&mut rng);
            assert!(f.region().contains_point(s));
            mean.x += s.x / N as f64;
            mean.y += s.y / N as f64;
        }
        // Law of large numbers: the mean approaches the region centre.
        assert!((mean.x - 5.0).abs() < 0.1);
        assert!((mean.y - 2.5).abs() < 0.05);
    }
}
