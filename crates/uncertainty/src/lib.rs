//! # iloc-uncertainty
//!
//! The probabilistic location-uncertainty model of Sistla et al. and
//! Pfoser & Jensen, as used by *Chen & Cheng (ICDE 2007)*: every
//! uncertain object `Oi` is a closed **uncertainty region** `Ui`
//! (an axis-parallel rectangle in this workspace) together with an
//! **uncertainty pdf** `fi(x, y)` that vanishes outside `Ui`
//! (Definitions 1–2 of the paper).
//!
//! This crate provides:
//!
//! * the [`LocationPdf`] trait plus three implementations — uniform
//!   (the paper's default, "worst-case" model), truncated Gaussian
//!   (the paper's non-uniform experiment, Figure 13), and a uniform
//!   disc (a non-rectangular region, the paper's future work) — and
//!   [`PdfKind`], the closed enum over them that objects and issuers
//!   store, so every pdf has a binary form;
//! * **p-bounds** ([`pbound`]) and **U-catalogs** ([`catalog`]) — the
//!   pre-computed pruning metadata of Section 5 and of the PTI index;
//! * the object types ([`object`]) shared by the index and the query
//!   engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod disc;
pub mod gaussian;
pub mod kind;
pub mod math;
pub mod object;
pub mod pbound;
pub mod pdf;
pub mod uniform;

pub use catalog::UCatalog;
pub use disc::DiscPdf;
pub use gaussian::TruncatedGaussianPdf;
pub use kind::PdfKind;
pub use object::{ObjectId, PointObject, UncertainObject};
pub use pbound::PBound;
pub use pdf::{Axis, LocationPdf};
pub use uniform::UniformPdf;

/// Glob-import surface.
pub mod prelude {
    pub use crate::catalog::UCatalog;
    pub use crate::disc::DiscPdf;
    pub use crate::gaussian::TruncatedGaussianPdf;
    pub use crate::kind::PdfKind;
    pub use crate::object::{ObjectId, PointObject, UncertainObject};
    pub use crate::pbound::PBound;
    pub use crate::pdf::{Axis, LocationPdf};
    pub use crate::uniform::UniformPdf;
}
