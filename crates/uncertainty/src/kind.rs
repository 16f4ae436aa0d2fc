//! Static dispatch over the workspace's pdfs.
//!
//! [`PdfKind`] is every pdf an object or an issuer can hold: uniform
//! (the paper's default), truncated Gaussian (Figure 13) and disc. It
//! is a closed enum, so every value has a binary form on the wire, in
//! the WAL and in checkpoints, and encoding one cannot fail. All
//! [`LocationPdf`] methods dispatch with an inlinable `match`, so a
//! pipeline monomorphised over `PdfKind` compiles the uniform/uniform
//! closed form down to straight-line arithmetic.

use iloc_geometry::{Interval, Point, Rect};
use rand::RngCore;

use crate::disc::DiscPdf;
use crate::gaussian::TruncatedGaussianPdf;
use crate::pdf::{Axis, LocationPdf};
use crate::uniform::UniformPdf;

/// A location pdf with statically-dispatched concrete fast paths.
///
/// Construct via `From`/`Into` from any of the workspace pdf types;
/// [`crate::UncertainObject`] and query issuers store their pdfs this
/// way.
#[derive(Debug, Clone, PartialEq)]
pub enum PdfKind {
    /// Uniform density (the paper's default model).
    Uniform(UniformPdf),
    /// Truncated Gaussian (the paper's non-uniform model, Figure 13).
    Gaussian(TruncatedGaussianPdf),
    /// Uniform density over a disc.
    Disc(DiscPdf),
}

impl From<UniformPdf> for PdfKind {
    fn from(pdf: UniformPdf) -> Self {
        PdfKind::Uniform(pdf)
    }
}

impl From<TruncatedGaussianPdf> for PdfKind {
    fn from(pdf: TruncatedGaussianPdf) -> Self {
        PdfKind::Gaussian(pdf)
    }
}

impl From<DiscPdf> for PdfKind {
    fn from(pdf: DiscPdf) -> Self {
        PdfKind::Disc(pdf)
    }
}

/// Expands one delegating method for every variant.
macro_rules! dispatch {
    ($self:ident, $pdf:ident => $body:expr) => {
        match $self {
            PdfKind::Uniform($pdf) => $body,
            PdfKind::Gaussian($pdf) => $body,
            PdfKind::Disc($pdf) => $body,
        }
    };
}

impl LocationPdf for PdfKind {
    #[inline]
    fn region(&self) -> Rect {
        dispatch!(self, pdf => pdf.region())
    }

    #[inline]
    fn density(&self, p: Point) -> f64 {
        dispatch!(self, pdf => pdf.density(p))
    }

    #[inline]
    fn prob_in_rect(&self, r: Rect) -> f64 {
        dispatch!(self, pdf => pdf.prob_in_rect(r))
    }

    #[inline]
    fn marginal_cdf(&self, axis: Axis, v: f64) -> f64 {
        dispatch!(self, pdf => pdf.marginal_cdf(axis, v))
    }

    #[inline]
    fn sample(&self, rng: &mut dyn RngCore) -> Point {
        dispatch!(self, pdf => pdf.sample(rng))
    }

    #[inline]
    fn quantile(&self, axis: Axis, p: f64) -> f64 {
        dispatch!(self, pdf => pdf.quantile(axis, p))
    }

    #[inline]
    fn uniform_region(&self) -> Option<Rect> {
        dispatch!(self, pdf => pdf.uniform_region())
    }

    #[inline]
    fn linear_marginal_integral(&self, axis: Axis, i: Interval, c0: f64, c1: f64) -> Option<f64> {
        dispatch!(self, pdf => pdf.linear_marginal_integral(axis, i, c0, c1))
    }

    #[inline]
    fn marginal_prob(&self, axis: Axis, i: Interval) -> f64 {
        dispatch!(self, pdf => pdf.marginal_prob(axis, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type Probe = Box<dyn Fn(&dyn LocationPdf) -> f64>;

    #[test]
    fn every_variant_delegates_like_the_inner_pdf() {
        let region = Rect::from_coords(0.0, 0.0, 10.0, 20.0);
        let probes: Vec<Probe> = vec![
            Box::new(|p| p.prob_in_rect(Rect::from_coords(2.0, 3.0, 8.0, 12.0))),
            Box::new(|p| p.density(Point::new(5.0, 5.0))),
            Box::new(|p| p.marginal_cdf(Axis::X, 4.0)),
            Box::new(|p| p.quantile(Axis::Y, 0.25)),
            Box::new(|p| p.marginal_prob(Axis::X, Interval::new(1.0, 6.0))),
        ];
        let pairs: Vec<(PdfKind, Box<dyn LocationPdf>)> = vec![
            (
                UniformPdf::new(region).into(),
                Box::new(UniformPdf::new(region)),
            ),
            (
                TruncatedGaussianPdf::paper_default(region).into(),
                Box::new(TruncatedGaussianPdf::paper_default(region)),
            ),
            (
                DiscPdf::new(Point::new(5.0, 10.0), 4.0).into(),
                Box::new(DiscPdf::new(Point::new(5.0, 10.0), 4.0)),
            ),
        ];
        for (kind, reference) in &pairs {
            assert_eq!(kind.region(), reference.region());
            for probe in &probes {
                let a = probe(kind);
                let b = probe(reference.as_ref());
                assert_eq!(a.to_bits(), b.to_bits(), "kind {kind:?} diverged");
            }
            // Sampling consumes the RNG identically.
            let mut r1 = StdRng::seed_from_u64(3);
            let mut r2 = StdRng::seed_from_u64(3);
            assert_eq!(kind.sample(&mut r1), reference.sample(&mut r2));
        }
    }

    #[test]
    fn uniform_fast_path_accessor() {
        let region = Rect::from_coords(0.0, 0.0, 4.0, 4.0);
        let kind = PdfKind::from(UniformPdf::new(region));
        assert_eq!(kind.uniform_region(), Some(region));
        let gaussian = PdfKind::from(TruncatedGaussianPdf::paper_default(region));
        assert_eq!(gaussian.uniform_region(), None);
    }

    #[test]
    fn linear_marginal_integral_delegates() {
        let region = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let kind = PdfKind::from(UniformPdf::new(region));
        let inner = UniformPdf::new(region);
        let i = Interval::new(2.0, 7.0);
        assert_eq!(
            kind.linear_marginal_integral(Axis::X, i, 1.0, 0.5),
            inner.linear_marginal_integral(Axis::X, i, 1.0, 0.5)
        );
        // Disc pdfs stay on the sampling paths.
        let disc = PdfKind::from(DiscPdf::new(Point::new(5.0, 5.0), 2.0));
        assert_eq!(disc.linear_marginal_integral(Axis::X, i, 1.0, 0.5), None);
    }
}
