//! The uncertainty-pdf abstraction (paper Definitions 1–2).

use std::fmt::Debug;

use iloc_geometry::{Interval, Point, Rect};
use rand::RngCore;

use crate::math::invert_monotone;

/// Coordinate axis selector for marginal operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Horizontal axis.
    X,
    /// Vertical axis.
    Y,
}

/// A two-dimensional probability density supported on a closed
/// axis-parallel **uncertainty region** (paper Definitions 1–2).
///
/// Implementations must satisfy `∫∫_{region} density = 1` and
/// `density = 0` outside the region. All of the paper's machinery —
/// qualification probabilities, p-bounds, U-catalogs — is derived from
/// the three primitive quantities below plus sampling:
///
/// * [`prob_in_rect`](LocationPdf::prob_in_rect) — the mass inside an
///   axis-parallel rectangle (the paper's Eq. 3 inner integral);
/// * [`marginal_cdf`](LocationPdf::marginal_cdf) — axis marginals, from
///   which [`quantile`](LocationPdf::quantile) and hence p-bounds
///   (Section 5.1) are computed;
/// * [`sample`](LocationPdf::sample) — used by the Monte-Carlo
///   integrator for non-uniform pdfs (Section 6, Figure 13).
///
/// The trait is object-safe: the integrators and [`crate::UCatalog`]
/// take `&dyn LocationPdf`, and objects store a [`crate::PdfKind`].
pub trait LocationPdf: Debug + Send + Sync {
    /// The uncertainty region `Ui` (support of the density).
    fn region(&self) -> Rect;

    /// Density value at `p` (zero outside the region).
    fn density(&self, p: Point) -> f64;

    /// Probability mass inside `r` (equivalently inside `r ∩ region`).
    fn prob_in_rect(&self, r: Rect) -> f64;

    /// Marginal CDF along `axis`: `P[coord ≤ v]`.
    fn marginal_cdf(&self, axis: Axis, v: f64) -> f64;

    /// Draws a location distributed according to the pdf.
    fn sample(&self, rng: &mut dyn RngCore) -> Point;

    /// Marginal quantile: the coordinate `v` with
    /// `P[coord ≤ v] = p`. Default implementation inverts
    /// [`marginal_cdf`](LocationPdf::marginal_cdf) by bisection;
    /// implementations with analytic inverses may override.
    fn quantile(&self, axis: Axis, p: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&p));
        let side = match axis {
            Axis::X => self.region().x_interval(),
            Axis::Y => self.region().y_interval(),
        };
        if p <= 0.0 {
            return side.lo;
        }
        if p >= 1.0 {
            return side.hi;
        }
        invert_monotone(|v| self.marginal_cdf(axis, v), side.lo, side.hi, p)
    }

    /// Returns `Some(region)` when the pdf is *uniform* over its
    /// region, which unlocks the paper's closed-form evaluation paths
    /// (Eq. 6 / Eq. 8). Default: `None`.
    fn uniform_region(&self) -> Option<Rect> {
        None
    }

    /// Exact integral of a linear function against one axis marginal:
    /// `∫_I (c0 + c1·x) dF_axis(x)`, or `None` when the pdf cannot
    /// provide it in closed form.
    ///
    /// Implementations should only return `Some` when the 2-D density
    /// **factorises into independent axis marginals** on its region
    /// (`f(x, y) = fx(x) · fy(y)`): that property is what lets the
    /// Eq. 8 integrand separate, so it is the contract the closed-form
    /// IUQ evaluator relies on. Uniform and truncated-Gaussian pdfs
    /// qualify; the disc does not (it stays on the grid / Monte-Carlo
    /// paths).
    fn linear_marginal_integral(&self, axis: Axis, i: Interval, c0: f64, c1: f64) -> Option<f64> {
        let _ = (axis, i, c0, c1);
        None
    }

    /// Mass of the marginal inside a 1-D interval; convenience built on
    /// the marginal CDF.
    fn marginal_prob(&self, axis: Axis, i: Interval) -> f64 {
        if i.is_empty() {
            return 0.0;
        }
        (self.marginal_cdf(axis, i.hi) - self.marginal_cdf(axis, i.lo)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform::UniformPdf;

    #[test]
    fn default_quantile_inverts_cdf() {
        let pdf = UniformPdf::new(Rect::from_coords(0.0, 0.0, 10.0, 20.0));
        // Uniform marginal on [0,10]: quantile(p) = 10p.
        let q = LocationPdf::quantile(&pdf, Axis::X, 0.3);
        assert!((q - 3.0).abs() < 1e-9);
        assert_eq!(LocationPdf::quantile(&pdf, Axis::Y, 0.0), 0.0);
        assert_eq!(LocationPdf::quantile(&pdf, Axis::Y, 1.0), 20.0);
    }

    #[test]
    fn marginal_prob_of_full_support_is_one() {
        let pdf = UniformPdf::new(Rect::from_coords(-5.0, 2.0, 5.0, 4.0));
        let p = pdf.marginal_prob(Axis::X, Interval::new(-5.0, 5.0));
        assert!((p - 1.0).abs() < 1e-12);
        assert_eq!(pdf.marginal_prob(Axis::X, Interval::EMPTY), 0.0);
    }
}
