//! # iloc-datagen
//!
//! Seeded synthetic spatial datasets standing in for the TIGER/Line
//! census data used in the paper's evaluation (Section 6.1):
//!
//! * **California** — 62 000 points in a 10 000 × 10 000 space, used as
//!   the point-object database (IPQ / C-IPQ experiments);
//! * **Long Beach** — 53 000 small rectangles in the same space, used
//!   as the uncertain-object database (IUQ / C-IUQ experiments).
//!
//! The real TIGER files are not redistributable here, so we generate
//! data with the properties the experiments actually exercise:
//! identical cardinality and extent, and realistic spatial skew —
//! road-like polylines plus dense urban clusters over a sparse rural
//! background for the point set; clustered, skew-sized parcels for the
//! rectangle set. Every generator is deterministic in its seed, so
//! experiments are exactly repeatable. The README's "Reproducing the
//! paper" section says what the figures rest on.
//!
//! Beyond the static sets, [`updates`] generates seeded
//! arrival/departure/move streams over them — the churn workload the
//! sharded serving layer, the `loadgen` updater and the repo benchmark's
//! write stream consume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod california;
pub mod longbeach;
pub mod objects;
pub mod updates;
pub mod workload;

pub use california::california_points;
pub use longbeach::long_beach_rects;
pub use objects::{gaussian_objects, point_objects, uniform_objects};
pub use updates::{PointUpdate, PointUpdateGen, RectUpdate, RectUpdateGen, UpdateMix};
pub use workload::WorkloadGen;

use iloc_geometry::Rect;

/// The 10 000 × 10 000 data space both datasets occupy (paper
/// Section 6.1).
pub const SPACE: Rect = Rect::from_coords(0.0, 0.0, 10_000.0, 10_000.0);

/// Cardinality of the California point set (62 K).
pub const CALIFORNIA_SIZE: usize = 62_000;

/// Cardinality of the Long Beach rectangle set (53 K).
pub const LONG_BEACH_SIZE: usize = 53_000;
