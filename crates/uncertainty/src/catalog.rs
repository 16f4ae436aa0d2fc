//! U-catalogs: small pre-computed tables of p-bounds (paper Section 5).
//!
//! Storing a p-bound for *every* `p` is impossible, so each **stored**
//! object keeps a **U-catalog** — a handful of `(p, p-bound)` tuples,
//! computed once, when the object is inserted. Queries with an
//! arbitrary threshold `Qp` then use the best conservative catalog
//! entry: the largest stored `m ≤ Qp` for the object's own tail test,
//! or for Strategy 3 the smallest stored value ≥ `Qp` satisfying a
//! geometric test.
//!
//! Catalogs belong to stored objects only. A query issuer keeps none:
//! its pdf is in hand when the query runs, so its `Qp`-expanded query
//! is cut at exactly `Qp` (`iloc_core::expand::p_expanded_query`), and
//! Strategy 3 computes the issuer's bounds at the [`DEFAULT_LEVELS`]
//! `≥ Qp` once per query.
//!
//! [`UCatalog`] is the catalog of **one** pdf as a value: what
//! [`crate::UncertainObject::catalog`] computes on demand for a
//! free-standing object. The catalogs the engine keeps are not
//! `UCatalog`s: it computes their [`DEFAULT_LEVELS`] bounds at insert
//! and keeps them, level-major, in the PTI.

use crate::pbound::PBound;
use crate::pdf::LocationPdf;

/// The paper's experimental setup stores six probability levels
/// (Section 5.2: "we store six probability values and their p-bounds");
/// p-bounds are defined for `p ∈ [0, 0.5]`, giving `{0, 0.1, …, 0.5}`.
pub const DEFAULT_LEVELS: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];

/// The [`DEFAULT_LEVELS`] p-bounds of `pdf`, by value — what a default
/// catalog holds, and what the engine writes into the PTI's table for
/// a stored object.
pub fn default_bounds(pdf: &dyn LocationPdf) -> [PBound; DEFAULT_LEVELS.len()] {
    DEFAULT_LEVELS.map(|p| PBound::compute(pdf, p))
}

/// A sorted table of pre-computed [`PBound`]s for one object.
#[derive(Debug, Clone, PartialEq)]
pub struct UCatalog {
    bounds: Vec<PBound>,
}

impl UCatalog {
    /// Computes a catalog for `pdf` at the given tail-mass levels.
    ///
    /// Levels are sorted and deduplicated; each must lie in `[0, 0.5]`.
    /// Level `0` is always included (the 0-bound — the uncertainty
    /// region itself — anchors every conservative lookup).
    ///
    /// # Panics
    ///
    /// Panics if any level is outside `[0, 0.5]` or non-finite.
    pub fn build(pdf: &dyn LocationPdf, levels: &[f64]) -> Self {
        let mut ls: Vec<f64> = levels.to_vec();
        assert!(
            ls.iter().all(|p| p.is_finite() && (0.0..=0.5).contains(p)),
            "catalog levels must lie in [0, 0.5]"
        );
        ls.push(0.0);
        ls.sort_by(|a, b| a.partial_cmp(b).expect("finite levels"));
        ls.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let bounds = ls.iter().map(|&p| PBound::compute(pdf, p)).collect();
        UCatalog { bounds }
    }

    /// Computes the paper's default six-level catalog.
    pub fn build_default(pdf: &dyn LocationPdf) -> Self {
        UCatalog::build(pdf, &DEFAULT_LEVELS)
    }

    /// All stored bounds, ascending in `p`.
    pub fn bounds(&self) -> &[PBound] {
        &self.bounds
    }

    /// Number of stored levels.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// `true` when the catalog stores no levels (never the case for
    /// catalogs produced by [`UCatalog::build`]).
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// The stored levels, ascending.
    pub fn levels(&self) -> impl Iterator<Item = f64> + '_ {
        self.bounds.iter().map(|b| b.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform::UniformPdf;
    use iloc_geometry::Rect;

    fn catalog() -> UCatalog {
        let pdf = UniformPdf::new(Rect::from_coords(0.0, 0.0, 10.0, 10.0));
        UCatalog::build_default(&pdf)
    }

    #[test]
    fn default_catalog_has_six_levels() {
        let c = catalog();
        assert_eq!(c.len(), 6);
        let levels: Vec<f64> = c.levels().collect();
        assert_eq!(levels, vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5]);
        assert!(!c.is_empty());
    }

    #[test]
    fn zero_level_always_included() {
        let pdf = UniformPdf::new(Rect::from_coords(0.0, 0.0, 1.0, 1.0));
        let c = UCatalog::build(&pdf, &[0.3]);
        assert_eq!(c.levels().next(), Some(0.0));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn duplicate_levels_are_merged() {
        let pdf = UniformPdf::new(Rect::from_coords(0.0, 0.0, 1.0, 1.0));
        let c = UCatalog::build(&pdf, &[0.2, 0.2, 0.0, 0.4]);
        let levels: Vec<f64> = c.levels().collect();
        assert_eq!(levels, vec![0.0, 0.2, 0.4]);
    }

    #[test]
    fn bounds_nest_within_catalog() {
        let c = catalog();
        for pair in c.bounds().windows(2) {
            assert!(pair[0].rect.contains_rect(pair[1].rect));
        }
    }

    #[test]
    #[should_panic(expected = "levels must lie in [0, 0.5]")]
    fn rejects_out_of_range_level() {
        let pdf = UniformPdf::new(Rect::from_coords(0.0, 0.0, 1.0, 1.0));
        let _ = UCatalog::build(&pdf, &[0.7]);
    }
}
