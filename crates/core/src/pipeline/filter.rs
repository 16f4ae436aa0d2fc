//! The **Filter** stage: index probes producing candidate object slots.
//!
//! Two concrete filters cover the paper:
//!
//! * [`RectFilter`] — one rectangle (the Minkowski sum `R ⊕ U0` of
//!   Lemma 1 or a `p`-expanded query of Lemma 5) probed against **any**
//!   [`RangeIndex`] backend: `RTree`, `NaiveIndex`, or a `Pti` used
//!   as a plain R-tree.
//! * [`PtiFilter`] — the PTI's threshold-aware probe (Section 5.3),
//!   which prunes whole subtrees with node-level Strategy 1/2 tests.

use iloc_geometry::Rect;
use iloc_index::{AccessStats, Pti, PtiQuery, RangeIndex, TraversalScratch};

/// A candidate producer. Implementations record their logical I/O in
/// [`AccessStats`] and **write** candidate slots into a caller-owned
/// buffer (the pipeline passes its context's scratch, keeping the hot
/// path allocation-free); the pushed `u32`s index the pipeline's
/// object table. `traversal` provides reusable index-descent state;
/// filters that do not walk a tree ignore it.
pub trait FilterStage {
    /// Probes the index, pushing candidate slots into `out` (which the
    /// caller has cleared).
    fn candidates_into(
        &self,
        stats: &mut AccessStats,
        traversal: &mut TraversalScratch,
        out: &mut Vec<u32>,
    );
}

/// Rectangle filter over any spatial index.
#[derive(Debug, Clone, Copy)]
pub struct RectFilter<'a, I> {
    /// The index to probe.
    pub index: &'a I,
    /// The filter rectangle (expanded or `p`-expanded query).
    pub query: Rect,
}

impl<I: RangeIndex<u32>> FilterStage for RectFilter<'_, I> {
    fn candidates_into(
        &self,
        stats: &mut AccessStats,
        traversal: &mut TraversalScratch,
        out: &mut Vec<u32>,
    ) {
        self.index
            .query_range_scratch(self.query, stats, traversal, out);
    }
}

/// Threshold-aware PTI filter for constrained uncertain queries.
#[derive(Debug, Clone, Copy)]
pub struct PtiFilter<'a> {
    /// The probability threshold index.
    pub index: &'a Pti<u32>,
    /// Expanded / `p`-expanded rectangles plus the threshold `Qp`.
    pub query: PtiQuery,
}

impl FilterStage for PtiFilter<'_> {
    fn candidates_into(
        &self,
        stats: &mut AccessStats,
        traversal: &mut TraversalScratch,
        out: &mut Vec<u32>,
    ) {
        self.index.query_scratch(&self.query, stats, traversal, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc_index::NaiveIndex;

    #[test]
    fn rect_filter_counts_candidates() {
        let index = NaiveIndex::new(vec![
            (Rect::from_coords(0.0, 0.0, 1.0, 1.0), 0u32),
            (Rect::from_coords(10.0, 10.0, 11.0, 11.0), 1u32),
        ]);
        let filter = RectFilter {
            index: &index,
            query: Rect::from_coords(-1.0, -1.0, 2.0, 2.0),
        };
        let mut stats = AccessStats::new();
        let mut scratch = TraversalScratch::new();
        let mut hits = Vec::new();
        filter.candidates_into(&mut stats, &mut scratch, &mut hits);
        assert_eq!(hits, vec![0]);
        assert_eq!(stats.candidates, 1);
    }
}
