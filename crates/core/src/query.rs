//! Query-side types: the imprecise issuer, the range specification, and
//! the strategy selectors the experiments compare.

use iloc_geometry::{Point, Rect};
use iloc_uncertainty::{LocationPdf, PdfKind, TruncatedGaussianPdf, UCatalog, UniformPdf};

/// The range-query shape: an axis-parallel rectangle of half-width `w`
/// and half-height `h` centred wherever the issuer happens to be
/// (`R(x, y)` in the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeSpec {
    /// Half-width `w`.
    pub w: f64,
    /// Half-height `h`.
    pub h: f64,
}

impl RangeSpec {
    /// Creates a range of half-width `w`, half-height `h`.
    ///
    /// # Panics
    ///
    /// Panics when either half-extent is negative or non-finite.
    pub fn new(w: f64, h: f64) -> Self {
        assert!(w.is_finite() && h.is_finite() && w >= 0.0 && h >= 0.0);
        RangeSpec { w, h }
    }

    /// Square range of half-size `w` (the paper's experiments use
    /// square ranges).
    pub fn square(w: f64) -> Self {
        RangeSpec::new(w, w)
    }

    /// The concrete query rectangle when the issuer is at `c`.
    #[inline]
    pub fn at(self, c: Point) -> Rect {
        Rect::centered(c, self.w, self.h)
    }
}

/// The **query issuer** `O0`: an uncertain object whose pdf describes
/// where the issuer may actually be, together with its pre-computed
/// U-catalog (used to build `p`-expanded queries).
#[derive(Debug, Clone)]
pub struct Issuer {
    pdf: PdfKind,
    catalog: UCatalog,
}

impl Issuer {
    /// Issuer with a uniform pdf over `region` — the paper's default.
    pub fn uniform(region: Rect) -> Self {
        Issuer::with_pdf(UniformPdf::new(region))
    }

    /// Issuer with the paper's truncated-Gaussian model (Figure 13).
    pub fn gaussian(region: Rect) -> Self {
        Issuer::with_pdf(TruncatedGaussianPdf::paper_default(region))
    }

    /// Issuer with an arbitrary pdf; the default six-level U-catalog is
    /// computed on construction. Accepts any workspace pdf type or a
    /// [`PdfKind`].
    pub fn with_pdf(pdf: impl Into<PdfKind>) -> Self {
        let pdf = pdf.into();
        let catalog = UCatalog::build_default(&pdf);
        Issuer { pdf, catalog }
    }

    /// Issuer with custom catalog levels.
    pub fn with_pdf_and_levels(pdf: impl Into<PdfKind>, levels: &[f64]) -> Self {
        let pdf = pdf.into();
        let catalog = UCatalog::build(&pdf, levels);
        Issuer { pdf, catalog }
    }

    /// Replaces the issuer's pdf in place, recomputing the default
    /// U-catalog while **reusing its storage**. Equivalent to building
    /// a fresh [`Issuer::with_pdf`], but allocation-free once the
    /// catalog table has grown to its six default entries — the network
    /// serving layer decodes each incoming query into a long-lived
    /// issuer slot through this, which keeps the steady-state request
    /// path free of heap allocation end to end.
    pub fn set_pdf(&mut self, pdf: impl Into<PdfKind>) {
        self.pdf = pdf.into();
        self.catalog.rebuild_default(&self.pdf);
    }

    /// The issuer's pdf `f0`, statically dispatched over the concrete
    /// pdf types (coerces to `&dyn LocationPdf` where needed).
    pub fn pdf(&self) -> &PdfKind {
        &self.pdf
    }

    /// The issuer's uncertainty region `U0`.
    pub fn region(&self) -> Rect {
        self.pdf.region()
    }

    /// The issuer's U-catalog.
    pub fn catalog(&self) -> &UCatalog {
        &self.catalog
    }
}

/// Filter used when answering a constrained point query (Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CipqStrategy {
    /// Filter with the plain Minkowski sum `R ⊕ U0`, threshold on the
    /// computed probabilities afterwards.
    MinkowskiSum,
    /// Filter with the `Qp`-expanded query (Lemma 5), which shrinks as
    /// `Qp` grows.
    PExpanded,
}

/// Index/pruning combination for a constrained uncertain query
/// (Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CiuqStrategy {
    /// Plain R-tree filtered by the Minkowski sum; probabilities
    /// computed for every candidate, thresholded afterwards.
    RTreeMinkowski,
    /// PTI filtered by the `p`-expanded query with node-level
    /// Strategy 1/2 pruning, then the per-object Strategy 1/2/3 tests,
    /// then probability refinement of the survivors.
    PtiPExpanded,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_spec_constructors() {
        let r = RangeSpec::new(2.0, 3.0);
        assert_eq!(
            r.at(Point::new(10.0, 10.0)),
            Rect::from_coords(8.0, 7.0, 12.0, 13.0)
        );
        let s = RangeSpec::square(5.0);
        assert_eq!(s.w, s.h);
    }

    #[test]
    #[should_panic]
    fn range_spec_rejects_negative() {
        let _ = RangeSpec::new(-1.0, 1.0);
    }

    #[test]
    fn issuer_uniform_has_catalog() {
        let iss = Issuer::uniform(Rect::from_coords(0.0, 0.0, 100.0, 100.0));
        assert_eq!(iss.catalog().len(), 6);
        assert_eq!(iss.region(), Rect::from_coords(0.0, 0.0, 100.0, 100.0));
        assert!(iss.pdf().uniform_region().is_some());
    }

    #[test]
    fn set_pdf_rebuilds_the_catalog_in_place() {
        let mut iss = Issuer::uniform(Rect::from_coords(0.0, 0.0, 100.0, 100.0));
        let target = Rect::from_coords(40.0, 10.0, 90.0, 70.0);
        iss.set_pdf(UniformPdf::new(target));
        let fresh = Issuer::uniform(target);
        assert_eq!(iss.region(), target);
        assert_eq!(iss.catalog(), fresh.catalog());
        // Works across pdf kinds too.
        iss.set_pdf(TruncatedGaussianPdf::paper_default(target));
        assert_eq!(iss.catalog(), Issuer::gaussian(target).catalog());
    }

    #[test]
    fn issuer_gaussian() {
        let iss = Issuer::gaussian(Rect::from_coords(0.0, 0.0, 60.0, 60.0));
        assert!(iss.pdf().uniform_region().is_none());
        // Gaussian p-bounds are strictly inside the region for p > 0.
        let b = iss.catalog().best_at_most(0.3);
        assert!(iss.region().contains_rect(b.rect));
        assert!(b.rect.area() < iss.region().area());
    }

    #[test]
    fn issuer_custom_levels() {
        let iss = Issuer::with_pdf_and_levels(
            UniformPdf::new(Rect::from_coords(0.0, 0.0, 10.0, 10.0)),
            &[0.25, 0.5],
        );
        let levels: Vec<f64> = iss.catalog().levels().collect();
        assert_eq!(levels, vec![0.0, 0.25, 0.5]);
    }
}
