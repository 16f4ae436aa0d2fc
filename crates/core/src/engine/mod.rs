//! Query engines: index construction plus end-to-end evaluation of the
//! four query types (the Section 4.3 / 5.3 filter-and-refine pipeline).

mod point;
mod table;
mod uncertain;

pub use point::PointEngine;
pub(crate) use table::mix_id;
pub use uncertain::UncertainEngine;

/// Seed each object's Monte-Carlo stream is derived from when the
/// caller does not supply one; query answers are deterministic for a
/// given engine.
pub(crate) const DEFAULT_QUERY_SEED: u64 = 0x110C_5EED;
