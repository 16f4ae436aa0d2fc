//! # iloc-index
//!
//! Spatial access methods built from scratch for the `iloc` workspace,
//! replacing the Spatial Index Library the paper used:
//!
//! * [`rtree`] — a Guttman R-tree with quadratic node splitting,
//!   CondenseTree deletion and Sort-Tile-Recursive (STR) bulk loading;
//!   the paper's default index (Section 4.3) and the crate's one tree
//!   implementation, generic over what an entry carries as its bound.
//! * [`pti`] — the **Probability Threshold Index** of Cheng et al.
//!   (VLDB'04) as summarised in Section 5.3: that same R-tree with one
//!   merged MBR per U-catalog level in its parent entries, the
//!   level-major table that stores every object's p-bounds (once —
//!   the PTI is the U-catalog store), and the threshold probe that
//!   lets constrained queries (C-IUQ) prune whole subtrees.
//! * [`cow`] — the paged copy-on-write vector the PTI's bound table
//!   and the engines' object tables live in, so that a clone shares
//!   every page its writer has not touched.
//! * [`naive`] — a linear-scan baseline that higher-level tests and
//!   experiments compare the indexes against.
//!
//! All indexes count node accesses through [`AccessStats`],
//! giving the experiments a machine-independent I/O metric alongside
//! wall-clock time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cow;
pub mod naive;
pub mod pti;
pub mod rtree;
pub mod stats;
pub mod traits;

pub use cow::Pages;
pub use naive::NaiveIndex;
pub use pti::{LevelRow, Pti, PtiParams, PtiQuery};
pub use rtree::{RTree, RTreeParams};
pub use stats::AccessStats;
pub use traits::{RangeIndex, TraversalScratch};
