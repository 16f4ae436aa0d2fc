//! Floating-point helpers.
//!
//! Only [`clamp`] is left: interval clipping uses it so that clipping
//! an empty interval stays empty instead of panicking.

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
