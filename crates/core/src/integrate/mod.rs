//! Qualification-probability integrators.
//!
//! All refinement reduces to two integrals (after the duality
//! transformation of Section 4.2):
//!
//! * **point objects** (Lemma 3): `pi = ∫_{R(xi,yi) ∩ U0} f0`, i.e. the
//!   issuer-pdf mass of one rectangle;
//! * **uncertain objects** (Lemma 4, Eq. 8):
//!   `pi = ∫_{Ui ∩ (R ⊕ U0)} fi(x,y) · Q(x,y) dx dy` with
//!   `Q(x,y) = ∫_{R(x,y) ∩ U0} f0`.
//!
//! A query refines by one of two strategies: the exact closed form
//! (uniform pdfs, [`closed`]) or Monte-Carlo sampling ([`mc`], the
//! paper's choice for non-uniform pdfs in Figure 13).
//! [`Integrator::Auto`] picks the exact path when the pdfs allow it and
//! falls back to Monte-Carlo with the paper's sensitivity-tuned sample
//! counts (200 points / 250 uncertain). Midpoint-grid quadrature
//! ([`grid`]) is no served strategy; it is the deterministic reference
//! the other two are tested against.
//!
//! A sampled probability draws from a stream of its own, seeded from
//! the execution's seed and the object's id ([`mc::object_seed`]), so
//! it is a function of the query and its one object: not of the other
//! candidates, their order, the shard count or the epoch.

pub mod closed;
pub mod grid;
pub mod mc;

use iloc_geometry::{Point, Rect};
use iloc_uncertainty::{LocationPdf, PdfKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::query::RangeSpec;
use crate::stats::QueryStats;

/// Paper Section 6 ("Non-Uniform Distribution"): at least 200 samples
/// for C-IPQ accuracy.
pub const PAPER_MC_SAMPLES_POINT: usize = 200;
/// Paper Section 6: at least 250 samples for C-IUQ accuracy.
pub const PAPER_MC_SAMPLES_UNCERTAIN: usize = 250;

/// Strategy for evaluating qualification probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Integrator {
    /// Exact where possible (uniform pdfs, or any pdf for point
    /// objects via its closed rectangle mass); Monte-Carlo with the
    /// paper's sample counts otherwise.
    Auto,
    /// Monte-Carlo estimation (the paper's method for non-uniform
    /// pdfs).
    MonteCarlo {
        /// Number of samples per probability evaluation.
        samples: usize,
    },
}

impl Integrator {
    /// Qualification probability of a **point object** at `loc`
    /// (Lemma 3: `∫_{R(loc) ∩ U0} f0`). `seed` seeds the object's own
    /// sample stream ([`mc::object_seed`]); only the Monte-Carlo arm
    /// reads it.
    ///
    /// Takes the issuer pdf as a [`PdfKind`] so the closed rectangle
    /// mass of the concrete pdfs inlines into the per-candidate loop.
    #[inline]
    pub fn point_probability(
        &self,
        issuer_pdf: &PdfKind,
        range: RangeSpec,
        loc: Point,
        seed: u64,
        stats: &mut QueryStats,
    ) -> f64 {
        stats.prob_evals += 1;
        match *self {
            Integrator::Auto => issuer_pdf.prob_in_rect(range.at(loc)),
            Integrator::MonteCarlo { samples } => {
                let mut rng = StdRng::seed_from_u64(seed);
                mc::point_probability(issuer_pdf, range, loc, samples, &mut rng, stats)
            }
        }
    }

    /// Qualification probability of an **uncertain object** (Lemma 4 /
    /// Eq. 8). `expanded` is the pre-computed `R ⊕ U0`; `seed` seeds
    /// the object's own sample stream ([`mc::object_seed`]), read only
    /// where the integral is sampled.
    ///
    /// Takes both pdfs as [`PdfKind`]s: `Auto`'s closed-form arm
    /// matches on the concrete variants, so the uniform/uniform and
    /// uniform/Gaussian paths monomorphise and inline instead of going
    /// through two layers of `dyn` dispatch.
    #[inline]
    pub fn object_probability(
        &self,
        issuer_pdf: &PdfKind,
        range: RangeSpec,
        object_pdf: &PdfKind,
        expanded: Rect,
        seed: u64,
        stats: &mut QueryStats,
    ) -> f64 {
        stats.prob_evals += 1;
        let samples = match *self {
            Integrator::Auto => {
                // Exact whenever the issuer is uniform and the object
                // pdf is axis-separable (uniform, truncated Gaussian);
                // the paper's Monte-Carlo otherwise. The nested match
                // statically dispatches the two common object kinds.
                let exact = match (issuer_pdf.uniform_region(), object_pdf) {
                    (Some(u0), PdfKind::Uniform(ui)) => {
                        Some(closed::uniform_uniform(u0, ui.region(), range, expanded))
                    }
                    (Some(u0), PdfKind::Gaussian(g)) => {
                        closed::uniform_separable(u0, g, range, expanded)
                    }
                    (Some(u0), other) => closed::uniform_separable(u0, other, range, expanded),
                    (None, _) => None,
                };
                if let Some(p) = exact {
                    return p;
                }
                PAPER_MC_SAMPLES_UNCERTAIN
            }
            Integrator::MonteCarlo { samples } => samples,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        mc::object_probability(issuer_pdf, range, object_pdf, samples, &mut rng, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc_geometry::minkowski::expand_query;
    use iloc_uncertainty::{ObjectId, TruncatedGaussianPdf, UniformPdf};

    const SEED: u64 = 99;

    /// Both integrators agree with the closed form and the quadrature
    /// reference on a uniform/uniform configuration.
    #[test]
    fn integrators_agree_on_uniform_case() {
        let issuer = PdfKind::from(UniformPdf::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0)));
        let object = PdfKind::from(UniformPdf::new(Rect::from_coords(80.0, 80.0, 160.0, 160.0)));
        let range = RangeSpec::square(30.0);
        let expanded = expand_query(issuer.region(), range.w, range.h);

        let mut stats = QueryStats::new();
        let exact = closed::uniform_uniform(issuer.region(), object.region(), range, expanded);
        let gridv = grid::object_probability(&issuer, range, &object, expanded, 200, &mut stats);
        let mcv = Integrator::MonteCarlo { samples: 60_000 }
            .object_probability(&issuer, range, &object, expanded, SEED, &mut stats);
        let auto = Integrator::Auto
            .object_probability(&issuer, range, &object, expanded, SEED, &mut stats);
        assert!(exact > 0.0 && exact < 1.0, "non-trivial case: {exact}");
        assert_eq!(auto, exact, "Auto must take the exact path");
        assert!(
            (gridv - exact).abs() < 1e-3,
            "grid {gridv} vs exact {exact}"
        );
        assert!((mcv - exact).abs() < 0.01, "mc {mcv} vs exact {exact}");
        assert!(stats.mc_samples >= 60_000);
        assert!(stats.grid_cells > 0);
    }

    #[test]
    fn point_probability_matches_across_integrators() {
        let issuer = PdfKind::from(TruncatedGaussianPdf::paper_default(Rect::from_coords(
            0.0, 0.0, 120.0, 120.0,
        )));
        let range = RangeSpec::square(40.0);
        let loc = Point::new(100.0, 60.0);
        let mut stats = QueryStats::new();
        let exact = Integrator::Auto.point_probability(&issuer, range, loc, SEED, &mut stats);
        let gridv = grid::point_probability(&issuer, range, loc, 300, &mut stats);
        let mcv = Integrator::MonteCarlo { samples: 100_000 }
            .point_probability(&issuer, range, loc, SEED, &mut stats);
        assert!(exact > 0.0 && exact < 1.0);
        assert!(
            (gridv - exact).abs() < 2e-3,
            "grid {gridv} vs exact {exact}"
        );
        assert!((mcv - exact).abs() < 0.01, "mc {mcv} vs exact {exact}");
    }

    #[test]
    fn auto_takes_exact_path_for_gaussian_objects() {
        // Uniform issuer + axis-separable (Gaussian) object: Auto must
        // use the closed form — zero sampling — and agree with fine
        // quadrature.
        let issuer = PdfKind::from(UniformPdf::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0)));
        let object = PdfKind::from(TruncatedGaussianPdf::paper_default(Rect::from_coords(
            60.0, 60.0, 140.0, 140.0,
        )));
        let range = RangeSpec::square(30.0);
        let expanded = expand_query(issuer.region(), 30.0, 30.0);
        let mut stats = QueryStats::new();
        let auto = Integrator::Auto
            .object_probability(&issuer, range, &object, expanded, SEED, &mut stats);
        assert_eq!(stats.mc_samples, 0, "closed form must not sample");
        let reference =
            grid::object_probability(&issuer, range, &object, expanded, 250, &mut stats);
        assert!(
            (auto - reference).abs() < 2e-3,
            "auto {auto} vs ref {reference}"
        );
    }

    #[test]
    fn auto_falls_back_to_mc_for_non_separable_cases() {
        use iloc_uncertainty::DiscPdf;
        // A disc object is not axis-separable: Auto must fall back to
        // the paper's Monte-Carlo with its calibrated sample count.
        let issuer = PdfKind::from(UniformPdf::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0)));
        let object = PdfKind::from(DiscPdf::new(Point::new(110.0, 50.0), 30.0));
        let range = RangeSpec::square(30.0);
        let expanded = expand_query(issuer.region(), 30.0, 30.0);
        let mut stats = QueryStats::new();
        let auto = Integrator::Auto
            .object_probability(&issuer, range, &object, expanded, SEED, &mut stats);
        assert_eq!(stats.mc_samples as usize, PAPER_MC_SAMPLES_UNCERTAIN);
        let reference =
            grid::object_probability(&issuer, range, &object, expanded, 250, &mut stats);
        assert!(
            (auto - reference).abs() < 0.08,
            "auto {auto} vs ref {reference}"
        );
    }

    #[test]
    fn a_sampled_probability_is_a_function_of_its_seed_alone() {
        // The same object seed gives the same bits whatever was drawn
        // before; another object's seed gives another estimate.
        let issuer = PdfKind::from(TruncatedGaussianPdf::paper_default(Rect::from_coords(
            0.0, 0.0, 100.0, 100.0,
        )));
        let object = PdfKind::from(UniformPdf::new(Rect::from_coords(80.0, 40.0, 140.0, 100.0)));
        let range = RangeSpec::square(30.0);
        let expanded = expand_query(issuer.region(), 30.0, 30.0);
        let mc = Integrator::MonteCarlo { samples: 200 };
        let mut stats = QueryStats::new();
        let mut estimate = |id: u64| {
            mc.object_probability(
                &issuer,
                range,
                &object,
                expanded,
                mc::object_seed(SEED, ObjectId(id)),
                &mut stats,
            )
        };
        let first = estimate(7);
        let other = estimate(8);
        assert_eq!(first.to_bits(), estimate(7).to_bits());
        assert_ne!(first.to_bits(), other.to_bits());
        assert!(first > 0.0 && first < 1.0);
    }
}
