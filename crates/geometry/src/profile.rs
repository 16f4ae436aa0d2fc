//! Overlap profiles: the 1-D building block of the exact (closed-form)
//! IUQ evaluator.
//!
//! For a query half-extent `w` and a fixed interval `[a, b]` (one side
//! of the issuer region `U0`), the *overlap profile* is
//!
//! ```text
//! ox(x) = |[x − w, x + w] ∩ [a, b]|
//! ```
//!
//! the length of the overlap between the query's side and `U0`'s side
//! when the query is centred at `x`. It is a trapezoid: zero outside
//! `[a − w, b + w]`, rising with slope 1, a plateau of height
//! `min(2w, b − a)`, then falling with slope −1.
//!
//! Because `Area(R(x,y) ∩ U0) = ox(x) · oy(y)`, the paper's Eq. 8
//! integrand separates for uniform pdfs and the qualification
//! probability becomes a product of two exact 1-D integrals — the
//! "enhanced method" measured in Figure 8.

use crate::interval::Interval;

/// An overlap profile held entirely on the stack: a trapezoid needs at
/// most four knots, so the query hot path can build and integrate one
/// per candidate without touching the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapProfile {
    knots: [(f64, f64); 4],
    len: usize,
}

impl OverlapProfile {
    /// Builds the profile `x ↦ |[x−w, x+w] ∩ side|`.
    ///
    /// `w` must be non-negative and `side` non-empty. Degenerate inputs
    /// (`w == 0` or a zero-length side) yield the zero function, which
    /// makes downstream probabilities vanish exactly as measure theory
    /// dictates.
    #[inline]
    pub fn new(w: f64, side: Interval) -> Self {
        // Hard asserts: both branches are perfectly predicted in the hot loop, and an inverted side or
        // negative half-extent must surface as a caller bug rather
        // than a silently-clamped probability.
        assert!(w >= 0.0, "query half-extent must be non-negative");
        assert!(!side.is_empty(), "issuer side interval must be non-empty");
        let (a, b) = (side.lo, side.hi);
        let plateau = (2.0 * w).min(b - a);
        let x_lo = a - w;
        let x_hi = b + w;
        let mut p = OverlapProfile {
            knots: [(0.0, 0.0); 4],
            len: 0,
        };
        if x_hi <= x_lo {
            // Only possible when w == 0 and a == b: a single point of
            // zero measure — the zero function.
            return p;
        }
        let mid_lo = (a + w).min(b - w);
        let mid_hi = (a + w).max(b - w);
        p.push(x_lo, 0.0);
        if mid_lo > x_lo {
            p.push(mid_lo, plateau);
        }
        if mid_hi > p.knots[p.len - 1].0 {
            p.push(mid_hi, plateau);
        }
        if x_hi > p.knots[p.len - 1].0 {
            p.push(x_hi, 0.0);
        }
        if p.len < 2 {
            p.len = 0;
        }
        p
    }

    #[inline]
    fn push(&mut self, x: f64, y: f64) {
        self.knots[self.len] = (x, y);
        self.len += 1;
    }

    /// The knots defining the trapezoid (empty for the zero function).
    #[inline]
    pub fn knots(&self) -> &[(f64, f64)] {
        &self.knots[..self.len]
    }

    /// Exact integral `∫_I f(x) dx` over an arbitrary interval `I`
    /// (portions outside the support contribute zero): each segment
    /// the interval meets contributes its exact trapezoid area.
    #[inline]
    pub fn integral_over(&self, i: Interval) -> f64 {
        if self.len < 2 {
            return 0.0;
        }
        let support = Interval::new(self.knots[0].0, self.knots[self.len - 1].0);
        let i = i.intersect(support);
        if i.is_empty() || i.length() == 0.0 {
            return 0.0;
        }
        let mut total = 0.0;
        for pair in self.knots[..self.len].windows(2) {
            let (x0, y0) = pair[0];
            let (x1, y1) = pair[1];
            let seg = Interval::new(x0, x1).intersect(i);
            if seg.is_empty() || seg.length() == 0.0 {
                continue;
            }
            let slope = (y1 - y0) / (x1 - x0);
            let f_lo = y0 + slope * (seg.lo - x0);
            let f_hi = y0 + slope * (seg.hi - x0);
            total += 0.5 * (f_lo + f_hi) * seg.length();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(w: f64, side: Interval, x: f64) -> f64 {
        Interval::centered(x, w).overlap_length(side)
    }

    /// The profile's value at `x`: linear between knots, zero outside.
    fn eval(p: &OverlapProfile, x: f64) -> f64 {
        p.knots()
            .windows(2)
            .find(|pair| pair[0].0 <= x && x <= pair[1].0)
            .map_or(0.0, |pair| {
                let ((x0, y0), (x1, y1)) = (pair[0], pair[1]);
                y0 + (y1 - y0) * (x - x0) / (x1 - x0)
            })
    }

    fn support(p: &OverlapProfile) -> Interval {
        let knots = p.knots();
        Interval::new(knots[0].0, knots[knots.len() - 1].0)
    }

    fn max_value(p: &OverlapProfile) -> f64 {
        p.knots().iter().map(|k| k.1).fold(0.0, f64::max)
    }

    #[test]
    fn profile_matches_direct_overlap_everywhere() {
        let cases = [
            (2.0, Interval::new(0.0, 10.0)), // wide side, plateau = 2w
            (10.0, Interval::new(0.0, 4.0)), // narrow side, plateau = |side|
            (3.0, Interval::new(-5.0, 1.0)), // negative coordinates
            (2.0, Interval::new(0.0, 4.0)),  // exactly 2w == |side|
        ];
        for (w, side) in cases {
            let f = OverlapProfile::new(w, side);
            let sup = support(&f);
            let n = 1000;
            for k in 0..=n {
                let x = sup.lo - 1.0 + (sup.length() + 2.0) * k as f64 / n as f64;
                let expect = brute(w, side, x);
                assert!(
                    (eval(&f, x) - expect).abs() < 1e-9,
                    "w={w} side=[{},{}] x={x}: got {} want {expect}",
                    side.lo,
                    side.hi,
                    eval(&f, x)
                );
            }
        }
    }

    #[test]
    fn plateau_height_is_min_of_widths() {
        let f = OverlapProfile::new(2.0, Interval::new(0.0, 10.0));
        assert_eq!(max_value(&f), 4.0); // 2w
        let g = OverlapProfile::new(10.0, Interval::new(0.0, 4.0));
        assert_eq!(max_value(&g), 4.0); // side length
    }

    #[test]
    fn support_is_side_expanded_by_w() {
        let f = OverlapProfile::new(3.0, Interval::new(1.0, 5.0));
        assert_eq!(support(&f), Interval::new(-2.0, 8.0));
    }

    #[test]
    fn total_integral_is_2w_times_side_length() {
        // ∫ |[x−w,x+w] ∩ side| dx = 2w · |side| (Fubini on the indicator).
        let w = 2.5;
        let side = Interval::new(1.0, 7.0);
        let f = OverlapProfile::new(w, side);
        let total = f.integral_over(Interval::new(-100.0, 100.0));
        assert!((total - 2.0 * w * side.length()).abs() < 1e-9);
    }

    #[test]
    fn integral_over_matches_numeric_quadrature() {
        // The midpoint rule with many slices, against the profile's
        // own interpolation, over an interval cutting every segment.
        let f = OverlapProfile::new(2.0, Interval::new(0.0, 7.0));
        let i = Interval::new(-1.3, 8.1);
        let n = 200_000;
        let dx = i.length() / n as f64;
        let acc: f64 = (0..n)
            .map(|k| eval(&f, i.lo + (k as f64 + 0.5) * dx) * dx)
            .sum();
        assert!((f.integral_over(i) - acc).abs() < 1e-6);
        assert_eq!(f.integral_over(Interval::new(20.0, 30.0)), 0.0);
    }

    #[test]
    fn degenerate_w_zero_gives_zero_function() {
        let f = OverlapProfile::new(0.0, Interval::new(0.0, 5.0));
        assert_eq!(eval(&f, 2.0), 0.0);
        assert_eq!(f.integral_over(Interval::new(-10.0, 10.0)), 0.0);
    }

    #[test]
    fn degenerate_point_side() {
        // A point issuer region: overlap length is 0 almost everywhere …
        let f = OverlapProfile::new(2.0, Interval::new(3.0, 3.0));
        assert_eq!(f.integral_over(Interval::new(-10.0, 10.0)), 0.0);
        // … and the profile is identically zero.
        assert_eq!(max_value(&f), 0.0);
    }
}
