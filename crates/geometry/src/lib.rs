//! # iloc-geometry
//!
//! Two-dimensional computational-geometry substrate for the `iloc`
//! reproduction of *Chen & Cheng, "Efficient Evaluation of Imprecise
//! Location-Dependent Queries" (ICDE 2007)*.
//!
//! The paper works exclusively with axis-parallel rectangles: uncertainty
//! regions `Ui`, range queries `R(x, y)`, Minkowski sums `R ⊕ U0`, and
//! `p`-expanded queries are all axis-parallel boxes. This crate provides
//! those primitives plus the one non-obvious piece of machinery the
//! "enhanced" evaluation method needs: **piecewise-linear overlap
//! profiles** and their exact integrals (see [`profile`]), which turn
//! the doubly-nested integral of the paper's Equation 8 into a closed
//! form when both pdfs are uniform.
//!
//! All coordinates are `f64`. The crate is `#![forbid(unsafe_code)]` and
//! has no dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circle;
pub mod interval;
pub mod minkowski;
pub mod num;
pub mod point;
pub mod profile;
pub mod rect;

pub use circle::Circle;
pub use interval::Interval;
pub use minkowski::minkowski_sum;
pub use point::Point;
pub use profile::OverlapProfile;
pub use rect::Rect;
