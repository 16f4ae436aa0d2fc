//! Database object types: point objects `Si` and uncertain objects `Oi`.
//!
//! An [`UncertainObject`] is its id and its pdf — nothing else, and no
//! heap block of its own. The Section-5
//! U-catalog of a *stored* object is not kept here: the engine computes
//! the p-bounds once, when the object is inserted, and the PTI's level
//! table is their only home. [`UncertainObject::catalog`] still answers,
//! by computing the default catalog from the pdf on the spot.

use std::fmt;

use iloc_geometry::{Point, Rect};

use crate::catalog::UCatalog;
use crate::kind::PdfKind;
use crate::pdf::LocationPdf;

/// Opaque object identifier (`Si` / `Oi` subscripts in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u64> for ObjectId {
    fn from(v: u64) -> Self {
        ObjectId(v)
    }
}

/// A **point object** `Si`: an exactly-known location (a shop, a
/// building, a non-moving user). Queried by IPQ / C-IPQ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointObject {
    /// Identifier.
    pub id: ObjectId,
    /// Exact location `(xi, yi)`.
    pub loc: Point,
}

impl PointObject {
    /// Creates a point object.
    pub fn new(id: impl Into<ObjectId>, loc: Point) -> Self {
        PointObject { id: id.into(), loc }
    }
}

/// An **uncertain object** `Oi`: an uncertainty region plus pdf
/// (a moving vehicle, a privacy-cloaked user). Queried by IUQ / C-IUQ.
///
/// Building its U-catalog (paper Section 5) is part of data ingestion,
/// not of query execution, matching the paper's cost model — and
/// ingestion is the engine's insert, not this constructor.
///
/// `repr(C)` keeps the id in front of the pdf, beside the pdf's kind
/// tag and region: the refine stage reads those, the accept loop then
/// reads the id of every match, and left to itself the compiler puts
/// the id at the far end of the 96 bytes — a second cache line per
/// match (a quarter more time in that loop at 5,000 matches a query).
#[derive(Debug, Clone)]
#[repr(C)]
pub struct UncertainObject {
    /// Identifier.
    pub id: ObjectId,
    pdf: PdfKind,
}

impl UncertainObject {
    /// Creates an uncertain object. Accepts any workspace pdf type or
    /// a [`PdfKind`].
    pub fn new(id: impl Into<ObjectId>, pdf: impl Into<PdfKind>) -> Self {
        UncertainObject {
            id: id.into(),
            pdf: pdf.into(),
        }
    }

    /// The uncertainty pdf `fi`, statically dispatched over the
    /// concrete pdf types (coerces to `&dyn LocationPdf` where needed).
    pub fn pdf(&self) -> &PdfKind {
        &self.pdf
    }

    /// The uncertainty region `Ui`.
    pub fn region(&self) -> Rect {
        self.pdf.region()
    }

    /// The paper's default six-level U-catalog of this object's pdf,
    /// computed on every call (a stored object's bounds are read from
    /// the engine instead).
    pub fn catalog(&self) -> UCatalog {
        UCatalog::build_default(&self.pdf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform::UniformPdf;

    #[test]
    fn point_object_construction() {
        let s = PointObject::new(3u64, Point::new(1.0, 2.0));
        assert_eq!(s.id, ObjectId(3));
        assert_eq!(s.loc, Point::new(1.0, 2.0));
        assert_eq!(s.id.to_string(), "#3");
    }

    #[test]
    fn uncertain_object_builds_default_catalog() {
        let o = UncertainObject::new(1u64, UniformPdf::new(Rect::from_coords(0.0, 0.0, 4.0, 4.0)));
        assert_eq!(o.catalog(), UCatalog::build_default(o.pdf()));
        assert_eq!(o.catalog().len(), 6);
        assert_eq!(o.region(), Rect::from_coords(0.0, 0.0, 4.0, 4.0));
    }

    #[test]
    fn uncertain_object_owns_no_catalog() {
        assert!(std::mem::size_of::<UncertainObject>() <= 96);
    }
}
