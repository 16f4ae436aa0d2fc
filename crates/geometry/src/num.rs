//! Floating-point helpers shared across the workspace.
//!
//! Query evaluation composes many exact-arithmetic-in-principle steps
//! (interval clipping, area ratios, piecewise integrals) whose results
//! are compared against probability thresholds. A single, documented
//! tolerance keeps those comparisons consistent everywhere.

/// Default absolute tolerance for probability / area comparisons.
///
/// Probabilities live in `[0, 1]` and areas in this workspace are ratios
/// of coordinates bounded by the 10 000 × 10 000 data space, so an
/// absolute epsilon is appropriate.
pub const EPS: f64 = 1e-9;

/// Returns `true` when `a` and `b` differ by at most `tol`.
#[inline]
pub fn approx_eq_tol(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// Clamps `v` into `[lo, hi]`.
///
/// Unlike `f64::clamp` this tolerates `lo > hi` by collapsing to `lo`,
/// which arises when clipping an empty interval; callers rely on the
/// "empty stays empty" behaviour rather than a panic.
#[inline]
pub fn clamp(v: f64, lo: f64, hi: f64) -> f64 {
    if hi < lo {
        return lo;
    }
    v.max(lo).min(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_tol_symmetric() {
        assert!(approx_eq_tol(2.0, 2.5, 0.5));
        assert!(approx_eq_tol(2.5, 2.0, 0.5));
        assert!(!approx_eq_tol(2.0, 2.6, 0.5));
    }

    #[test]
    fn clamp_basic() {
        assert_eq!(clamp(5.0, 0.0, 10.0), 5.0);
        assert_eq!(clamp(-5.0, 0.0, 10.0), 0.0);
        assert_eq!(clamp(15.0, 0.0, 10.0), 10.0);
    }

    #[test]
    fn clamp_inverted_bounds_collapses_to_lo() {
        assert_eq!(clamp(3.0, 10.0, 0.0), 10.0);
    }
}
