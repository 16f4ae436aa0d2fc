//! Monte-Carlo probability estimation — the paper's technique for
//! non-uniform pdfs (Section 6, Figure 13).
//!
//! After the duality transformation only **one** layer of sampling is
//! needed: for a point object we sample issuer positions and count
//! range membership; for an uncertain object we sample the *object's*
//! pdf and average the exact inner mass `Q(x, y)` (a rectangle-mass
//! lookup), which is a variance-reduced version of the paper's
//! double-sampling scheme with the same asymptotics.
//!
//! Every evaluation draws from a stream of its own: [`object_seed`]
//! derives it from the execution's seed and the object's id, the
//! counter-based construction of Salmon et al., *Parallel Random
//! Numbers: As Easy as 1, 2, 3* (SC'11). No draw is shared between
//! objects, so an estimate does not depend on which candidates were
//! sampled before it, how the catalog is sharded, or the epoch.

use iloc_geometry::Point;
use iloc_uncertainty::{LocationPdf, ObjectId};
use rand::rngs::StdRng;

use crate::query::RangeSpec;
use crate::stats::QueryStats;

/// The seed of object `id`'s sample stream under the execution seed
/// `seed`: the seed XOR a SplitMix64 finalisation of the id, so
/// distinct ids get distinct, well-spread seeds.
#[inline]
pub fn object_seed(seed: u64, id: ObjectId) -> u64 {
    let mut z = id.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    seed ^ z ^ (z >> 31)
}

/// Point-object probability: fraction of issuer samples whose range
/// query contains `loc` (the paper's Eq. 2 estimator).
pub fn point_probability(
    issuer_pdf: &dyn LocationPdf,
    range: RangeSpec,
    loc: Point,
    samples: usize,
    rng: &mut StdRng,
    stats: &mut QueryStats,
) -> f64 {
    assert!(samples > 0, "sample count must be positive");
    stats.mc_samples += samples as u64;
    let mut hits = 0usize;
    for _ in 0..samples {
        let q = issuer_pdf.sample(rng);
        if range.at(q).contains_point(loc) {
            hits += 1;
        }
    }
    hits as f64 / samples as f64
}

/// Uncertain-object probability (Lemma 4 estimator): sample object
/// positions `X ~ fi` and average `Q(X) = ∫_{R(X) ∩ U0} f0`, computed
/// exactly per sample.
pub fn object_probability(
    issuer_pdf: &dyn LocationPdf,
    range: RangeSpec,
    object_pdf: &dyn LocationPdf,
    samples: usize,
    rng: &mut StdRng,
    stats: &mut QueryStats,
) -> f64 {
    assert!(samples > 0, "sample count must be positive");
    stats.mc_samples += samples as u64;
    let mut acc = 0.0;
    for _ in 0..samples {
        let o = object_pdf.sample(rng);
        acc += issuer_pdf.prob_in_rect(range.at(o));
    }
    (acc / samples as f64).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc_geometry::minkowski::expand_query;
    use iloc_geometry::Rect;
    use iloc_uncertainty::{TruncatedGaussianPdf, UniformPdf};
    use rand::SeedableRng;

    #[test]
    fn point_estimator_unbiased_uniform() {
        let issuer = UniformPdf::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0));
        let range = RangeSpec::square(25.0);
        let loc = Point::new(110.0, 50.0);
        let exact = issuer.prob_in_rect(range.at(loc));
        let mut rng = StdRng::seed_from_u64(5);
        let mut stats = QueryStats::new();
        let est = point_probability(&issuer, range, loc, 200_000, &mut rng, &mut stats);
        assert!((est - exact).abs() < 5e-3, "est {est} vs exact {exact}");
        assert_eq!(stats.mc_samples, 200_000);
    }

    #[test]
    fn object_estimator_matches_quadrature_for_gaussian() {
        let issuer = TruncatedGaussianPdf::paper_default(Rect::from_coords(0.0, 0.0, 60.0, 60.0));
        let object =
            TruncatedGaussianPdf::paper_default(Rect::from_coords(40.0, 20.0, 100.0, 80.0));
        let range = RangeSpec::square(20.0);
        let expanded = expand_query(issuer.region(), 20.0, 20.0);
        let mut rng = StdRng::seed_from_u64(6);
        let mut stats = QueryStats::new();
        let est = object_probability(&issuer, range, &object, 120_000, &mut rng, &mut stats);
        let reference = crate::integrate::grid::object_probability(
            &issuer, range, &object, expanded, 220, &mut stats,
        );
        assert!(
            (est - reference).abs() < 5e-3,
            "mc {est} vs grid {reference}"
        );
    }

    #[test]
    fn impossible_object_estimates_zero() {
        let issuer = UniformPdf::new(Rect::from_coords(0.0, 0.0, 10.0, 10.0));
        let object = UniformPdf::new(Rect::from_coords(500.0, 500.0, 510.0, 510.0));
        let range = RangeSpec::square(5.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut stats = QueryStats::new();
        let est = object_probability(&issuer, range, &object, 1_000, &mut rng, &mut stats);
        assert_eq!(est, 0.0);
    }
}
