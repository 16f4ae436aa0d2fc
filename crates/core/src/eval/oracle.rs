//! The Monte-Carlo **oracle**: qualification probabilities estimated
//! by simulating the paper's probability model directly, with no
//! query-evaluation machinery at all.
//!
//! The pipeline computes `pi` through query expansion, duality and
//! closed-form / numeric integration — many layers that could all be
//! consistently wrong together. The oracle sidesteps every one of
//! them: it draws the issuer's true position from its pdf (and, for
//! IUQ, the object's true position from *its* pdf), asks the
//! definition's bare question — *"is the object inside `R` centred at
//! the issuer?"* — and counts. By the law of large numbers the hit
//! rate converges to the definition's `pi` (Definitions 3–4), so any
//! systematic disagreement with the pipeline is a bug in the
//! machinery, not in the oracle. `tests/oracle.rs` runs randomized
//! scenes against it under a binomial tolerance.
//!
//! Estimates are deterministic in the seed and **independent** of the
//! pipeline's own sample streams and integrators.

use iloc_geometry::Point;
use iloc_uncertainty::{LocationPdf, UncertainObject};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::query::{Issuer, RangeSpec};

/// Monte-Carlo estimate of an IPQ qualification probability
/// (Definition 3): the chance that the point object at `loc` lies in
/// the range `R` centred at the issuer's true position.
pub fn mc_point_probability(
    issuer: &Issuer,
    loc: Point,
    range: RangeSpec,
    samples: u32,
    seed: u64,
) -> f64 {
    assert!(samples > 0, "need at least one sample");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hits = 0u64;
    for _ in 0..samples {
        let q = issuer.pdf().sample(&mut rng);
        if range.at(q).contains_point(loc) {
            hits += 1;
        }
    }
    hits as f64 / samples as f64
}

/// Monte-Carlo estimate of an IUQ qualification probability
/// (Definition 4): both the issuer's and the object's true positions
/// are drawn from their pdfs.
pub fn mc_uncertain_probability(
    issuer: &Issuer,
    object: &UncertainObject,
    range: RangeSpec,
    samples: u32,
    seed: u64,
) -> f64 {
    assert!(samples > 0, "need at least one sample");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hits = 0u64;
    for _ in 0..samples {
        let q = issuer.pdf().sample(&mut rng);
        let o = object.pdf().sample(&mut rng);
        if range.at(q).contains_point(o) {
            hits += 1;
        }
    }
    hits as f64 / samples as f64
}

/// A tolerance for comparing an estimate `p_hat` over `samples` draws
/// against an exact value: `z` standard deviations of the binomial
/// proportion, floored at `z / (2·√samples)` so near-0/1 probabilities
/// keep a usable band.
pub fn binomial_tolerance(p_hat: f64, samples: u32, z: f64) -> f64 {
    let n = samples as f64;
    let sigma = (p_hat * (1.0 - p_hat) / n).sqrt();
    (z * sigma).max(z / (2.0 * n.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc_geometry::Rect;

    #[test]
    fn oracle_is_deterministic_in_seed() {
        let issuer = Issuer::uniform(Rect::from_coords(0.0, 0.0, 100.0, 100.0));
        let loc = Point::new(120.0, 50.0);
        let a = mc_point_probability(&issuer, loc, RangeSpec::square(60.0), 5_000, 42);
        let b = mc_point_probability(&issuer, loc, RangeSpec::square(60.0), 5_000, 42);
        let c = mc_point_probability(&issuer, loc, RangeSpec::square(60.0), 5_000, 43);
        assert_eq!(a.to_bits(), b.to_bits());
        assert!((a - c).abs() < 0.05, "different seeds, same distribution");
    }

    #[test]
    fn oracle_matches_certain_cases() {
        let issuer = Issuer::uniform(Rect::from_coords(0.0, 0.0, 100.0, 100.0));
        // A point always inside R ⊕ U0's core qualifies surely...
        let sure = mc_point_probability(
            &issuer,
            Point::new(50.0, 50.0),
            RangeSpec::square(200.0),
            2_000,
            1,
        );
        assert_eq!(sure, 1.0);
        // ...and a far-away point never does.
        let never = mc_point_probability(
            &issuer,
            Point::new(10_000.0, 50.0),
            RangeSpec::square(200.0),
            2_000,
            1,
        );
        assert_eq!(never, 0.0);
    }

    #[test]
    fn tolerance_has_a_floor() {
        assert!(binomial_tolerance(0.0, 10_000, 4.0) > 0.0);
        assert!(binomial_tolerance(0.5, 10_000, 4.0) >= binomial_tolerance(0.0, 10_000, 4.0));
    }
}
