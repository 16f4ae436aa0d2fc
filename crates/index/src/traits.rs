//! The common interface all spatial indexes implement.

use iloc_geometry::Rect;

use crate::stats::AccessStats;

/// Reusable index-probe state: the DFS stack of node indices.
///
/// Hierarchical indexes (`RTree`, `Pti`) need a stack of pending nodes
/// per probe; allocating it anew for every query shows up directly in
/// the hot path. Callers that probe repeatedly keep one
/// `TraversalScratch` alive and pass it to
/// [`RangeIndex::query_range_scratch`] — after warm-up the probe then
/// performs no heap allocation. Backends that need no stack ignore it.
#[derive(Debug, Clone, Default)]
pub struct TraversalScratch {
    /// Pending node arena indices (empty between probes).
    pub(crate) stack: Vec<usize>,
    /// Positions of the overlapping entries of the node being scanned,
    /// for a PTI threshold probe to run Strategy 1 on.
    pub(crate) hits: Vec<usize>,
}

impl TraversalScratch {
    /// A scratch with no retained capacity.
    pub fn new() -> Self {
        TraversalScratch::default()
    }
}

/// A spatial index over items with rectangular extents (a point object
/// is a degenerate rectangle).
///
/// The paper's query pipeline needs the **range filter** — report
/// every stored item whose extent overlaps a query rectangle (the
/// Minkowski sum `R ⊕ U0` or a `p`-expanded query); probability
/// refinement happens above the index. The serving layer additionally
/// needs **dynamic maintenance**: [`RangeIndex::insert`] and
/// [`RangeIndex::remove`] keep the index usable under
/// arrival/departure/move streams without a rebuild. Every backend
/// must answer queries identically (up to candidate order) to a
/// from-scratch rebuild on the same live set — the conformance suite
/// in `tests/conformance.rs` enforces this for all three backends.
pub trait RangeIndex<T: Copy> {
    /// Number of stored items.
    fn len(&self) -> usize;

    /// Inserts one item with the given extent.
    ///
    /// # Panics
    ///
    /// Panics when `extent` is empty or non-finite.
    fn insert(&mut self, extent: Rect, item: T);

    /// Removes one stored entry matching `(extent, item)` exactly;
    /// returns `true` when an entry was found and removed. When
    /// several identical entries exist, one of them is removed.
    fn remove(&mut self, extent: Rect, item: T) -> bool
    where
        T: PartialEq;

    /// `true` when the index stores nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes every item whose extent overlaps `query` into `out`,
    /// updating `stats` with the logical accesses performed.
    fn query_range_into(&self, query: Rect, stats: &mut AccessStats, out: &mut Vec<T>);

    /// Like [`RangeIndex::query_range_into`], but traversal state comes
    /// from (and returns to) `scratch`, so repeated probes through a
    /// warm scratch are allocation-free. The default forwards to
    /// `query_range_into`; hierarchical indexes override it.
    fn query_range_scratch(
        &self,
        query: Rect,
        stats: &mut AccessStats,
        scratch: &mut TraversalScratch,
        out: &mut Vec<T>,
    ) {
        let _ = scratch;
        self.query_range_into(query, stats, out);
    }

    /// Convenience wrapper returning a fresh vector.
    fn query_range(&self, query: Rect, stats: &mut AccessStats) -> Vec<T> {
        let mut out = Vec::new();
        self.query_range_into(query, stats, &mut out);
        out
    }
}
