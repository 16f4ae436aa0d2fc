//! The Probability Threshold Index (PTI) of Cheng, Xia, Prabhakar, Shah
//! & Vitter (VLDB'04), as summarised in Section 5.3 of the paper.
//!
//! A PTI is an R-tree over uncertain objects whose entries additionally
//! carry, for every U-catalog level `m`, a merged rectangle `MBR(m)`
//! that tightly encloses the `m`-bounds of everything below. During a
//! constrained query (C-IUQ with threshold `Qp`) whole subtrees are
//! pruned with the Section-5.2 tests lifted to the node level:
//!
//! * **Strategy 2 (p-expanded-query)** — skip an entry whose `MBR(0)`
//!   (the union of the subtree's uncertainty regions) lies completely
//!   outside the issuer's `Qp`-expanded query.
//! * **Strategy 1 (p-bounds)** — skip an entry when the expanded query
//!   `R ⊕ U0` lies entirely beyond the subtree's `MBR(m)` on some side,
//!   for the largest stored `m ≤ Qp`: every object below then has at
//!   most `m ≤ Qp` probability mass in the intersection.
//!
//! Strategy 3 (the `qmin · dmin` product rule) needs the *issuer's*
//! p-bounds and is applied per candidate by the query engine, above
//! the index.
//!
//! **The PTI is the U-catalog store.** The p-bounds of the stored
//! objects live here and nowhere else, in one level-major table: a
//! dense column of rectangles per catalog level, a row per object.
//! Rows are handed out from a free list (bulk loading assigns row =
//! input position) and read back through [`Pti::row`] — the engine's
//! object-level pruning reads them in place. Each column is a paged
//! copy-on-write vector ([`Pages`]), and a parent entry's upper-level
//! rectangles are one counted block, so a cloned PTI shares its whole
//! table and every tree node with its parent and a write copies one
//! page per column and the path it walks.
//!
//! **Leaf vs parent bounds.** A leaf entry is the R-tree's own
//! `(key, payload)` — the 0-bound plus the caller's item, with the
//! `u32` row handle riding in the payload's padding: 40 bytes for a
//! `u32` item, no pointer. A parent entry caches one merged rectangle
//! per level with `MBR(0)` inline, so a threshold-0 probe reads what a
//! plain R-tree probe reads, and a threshold probe reads exactly one
//! column at the leaves.
//!
//! **Shared with the R-tree:** everything structural. A [`Pti`] *is*
//! an [`RTree`] whose parent [`Bound`] is the per-level rectangle list,
//! derived from the table — so the arena, ChooseSubtree,
//! the quadratic split, STR packing, CondenseTree removal and the
//! invariant walk are the R-tree's own, and a PTI fed the same regions
//! in the same order has the same shape as a plain R-tree over them.
//! **PTI-specific**, and all this module holds: the level table and its
//! validation, the threshold probe, and the [`RangeIndex`] view at
//! threshold 0.

use std::sync::Arc;

use iloc_geometry::Rect;

use crate::cow::Pages;
use crate::rtree::{Bound, LeafBounds, Node, RTree, RTreeParams, Window};
use crate::stats::AccessStats;
use crate::traits::{RangeIndex, TraversalScratch};

/// PTI construction parameters.
#[derive(Debug, Clone, Copy, Default)]
pub struct PtiParams {
    /// Underlying R-tree fanout.
    pub rtree: RTreeParams,
}

/// The level-major bound table: `columns[k][row]` is the
/// `levels[k]`-bound of the object holding `row`.
#[derive(Debug, Clone)]
struct LevelTable {
    levels: Vec<f64>,
    columns: Vec<Pages<Rect>>,
    /// Rows released by removals, reused by inserts.
    free: Vec<u32>,
}

impl LevelTable {
    /// # Panics
    ///
    /// Panics when `levels` is empty, does not start at 0 or is not
    /// strictly increasing, or when `columns` is not one equally long
    /// column per level.
    fn new(levels: Vec<f64>, columns: Vec<Vec<Rect>>) -> Self {
        assert!(!levels.is_empty(), "levels must be non-empty");
        assert_eq!(levels[0], 0.0, "levels must start at 0");
        assert!(
            levels.windows(2).all(|w| w[0] < w[1]),
            "levels must be strictly increasing"
        );
        assert!(
            columns.len() == levels.len() && columns.iter().all(|c| c.len() == columns[0].len()),
            "each object needs one bound per level"
        );
        assert!(
            u32::try_from(columns[0].len()).is_ok(),
            "row handles are 32-bit"
        );
        LevelTable {
            levels,
            columns: columns
                .into_iter()
                .map(|column| column.into_iter().collect())
                .collect(),
            free: Vec::new(),
        }
    }

    /// Writes one object's bounds into a free row and returns it.
    fn write_row(&mut self, bounds: &[Rect]) -> u32 {
        assert_eq!(
            bounds.len(),
            self.levels.len(),
            "each object needs one bound per level"
        );
        let row = self.free.pop().unwrap_or_else(|| {
            let row = u32::try_from(self.columns[0].len()).expect("row handles are 32-bit");
            for column in &mut self.columns {
                column.push(Rect::EMPTY);
            }
            row
        });
        for (column, &b) in self.columns.iter_mut().zip(bounds) {
            *column
                .get_mut(row as usize)
                .expect("a handed-out row exists") = b;
        }
        row
    }
}

/// What a PTI parent entry caches: `MBR(m)` per catalog level, the
/// 0-level inline (it is the tree's key) and the rest in one block.
#[derive(Debug, Clone, PartialEq)]
struct LevelMbrs {
    key: Rect,
    /// `upper[k - 1]` is `MBR(levels[k])`. Counted, so copying a
    /// node's entry block copies no rectangle list; the first merge
    /// into a shared one copies it.
    upper: Arc<[Rect]>,
}

impl Bound for LevelMbrs {
    #[inline]
    fn key(&self) -> Rect {
        self.key
    }

    fn merge(&mut self, other: &Self) {
        self.key = self.key.hull(other.key);
        for (m, b) in Arc::make_mut(&mut self.upper)
            .iter_mut()
            .zip(other.upper.iter())
        {
            *m = m.hull(*b);
        }
    }
}

/// Leaf payloads are `(item, row)`; the levels above 0 are looked up
/// in the table.
impl<T> LeafBounds<(T, u32)> for LevelTable {
    type Parent = LevelMbrs;

    fn lift(&self, key: Rect, &(_, row): &(T, u32)) -> LevelMbrs {
        LevelMbrs {
            key,
            upper: self.columns[1..].iter().map(|c| c[row as usize]).collect(),
        }
    }

    fn absorb(&self, parent: &mut LevelMbrs, key: Rect, &(_, row): &(T, u32)) {
        parent.key = parent.key.hull(key);
        for (m, c) in Arc::make_mut(&mut parent.upper)
            .iter_mut()
            .zip(&self.columns[1..])
        {
            *m = m.hull(c[row as usize]);
        }
    }
}

/// One stored object's p-bounds, read in place from the level table
/// (see [`Pti::row`]).
#[derive(Debug, Clone, Copy)]
pub struct LevelRow<'a> {
    table: &'a LevelTable,
    row: usize,
}

impl<'a> LevelRow<'a> {
    /// The catalog levels, ascending from 0.
    #[inline]
    pub fn levels(&self) -> &'a [f64] {
        &self.table.levels
    }

    /// The object's `levels()[k]`-bound; `rect(0)` is its uncertainty
    /// region.
    #[inline]
    pub fn rect(&self, k: usize) -> Rect {
        self.table.columns[k][self.row]
    }
}

/// The pruning inputs of one constrained query.
#[derive(Debug, Clone, Copy)]
pub struct PtiQuery {
    /// The expanded query `R ⊕ U0` (Lemma 1 filter and Strategy 1 side
    /// tests).
    pub expanded: Rect,
    /// The issuer's `Qp`-expanded query, cut at `Qp` (Strategy 2); it
    /// is empty once `Qp` leaves no position that can qualify. Must
    /// satisfy `p_expanded ⊆ expanded`; pass `expanded` itself when
    /// `Qp = 0`.
    pub p_expanded: Rect,
    /// The probability threshold `Qp ∈ [0, 1]`.
    pub threshold: f64,
}

/// The Probability Threshold Index.
///
/// Built by bulk loading (the experiments index static snapshots, as in
/// the paper) and maintained incrementally via [`Pti::insert`] /
/// [`Pti::remove`]; all stored objects share the same catalog levels.
#[derive(Debug, Clone)]
pub struct Pti<T> {
    tree: RTree<(T, u32), LevelTable>,
}

impl<T: Copy> Pti<T> {
    /// Bytes of one leaf entry: the 0-bound, the item and the row
    /// handle (40 for a `u32` item — the plain R-tree's entry size).
    pub const LEAF_ENTRY_BYTES: usize = std::mem::size_of::<(Rect, (T, u32))>();

    /// Bulk loads a PTI (STR packing on the 0-bound centres, like the
    /// plain R-tree).
    ///
    /// `levels` are the shared catalog levels (ascending, starting at
    /// 0); each object supplies one rectangle per level
    /// (`bounds[k]` = its `levels[k]`-bound) plus a payload.
    ///
    /// # Panics
    ///
    /// Panics when `levels` is empty, does not start at 0, is not
    /// strictly increasing, when an object's bound count differs from
    /// `levels.len()`, or when its 0-bound is empty or non-finite.
    pub fn bulk_load(levels: Vec<f64>, objects: Vec<(Vec<Rect>, T)>, params: PtiParams) -> Self {
        let mut columns: Vec<Vec<Rect>> = levels
            .iter()
            .map(|_| Vec::with_capacity(objects.len()))
            .collect();
        let mut items = Vec::with_capacity(objects.len());
        for (bounds, item) in objects {
            assert_eq!(
                bounds.len(),
                levels.len(),
                "each object needs one bound per level"
            );
            for (column, b) in columns.iter_mut().zip(bounds) {
                column.push(b);
            }
            items.push(item);
        }
        Pti::bulk_load_columns(levels, columns, items, params)
    }

    /// [`Pti::bulk_load`] from the table's own layout: `columns[k][i]`
    /// is the `levels[k]`-bound of the object carrying `items[i]`. The
    /// columns become the table as they are, and object `i` holds row
    /// `i`.
    ///
    /// # Panics
    ///
    /// As [`Pti::bulk_load`], and when `columns` is not one column per
    /// level, each as long as `items`.
    pub fn bulk_load_columns(
        levels: Vec<f64>,
        columns: Vec<Vec<Rect>>,
        items: Vec<T>,
        params: PtiParams,
    ) -> Self {
        let table = LevelTable::new(levels, columns);
        assert_eq!(
            table.columns[0].len(),
            items.len(),
            "each object needs one bound per level"
        );
        let entries = table.columns[0]
            .iter()
            .zip(items)
            .enumerate()
            .map(|(row, (&key, item))| (key, (item, row as u32)))
            .collect();
        Pti {
            tree: RTree::bulk_load_with(entries, params.rtree, table),
        }
    }

    /// Inserts one object dynamically: `bounds[k]` is its p-bound at
    /// `levels()[k]` (with `bounds[0]` the uncertainty region). The
    /// bounds are written into a free table row, whose handle is
    /// returned; the merged per-level MBRs grow along the insertion
    /// path.
    ///
    /// # Panics
    ///
    /// Panics when the bound count does not match the catalog levels,
    /// or when the 0-bound is empty or non-finite.
    pub fn insert(&mut self, bounds: impl AsRef<[Rect]>, item: T) -> u32 {
        let bounds = bounds.as_ref();
        let row = self.tree.source_mut().write_row(bounds);
        self.tree.insert(bounds[0], (item, row));
        row
    }

    /// Removes one stored object whose **0-bound** (uncertainty
    /// region) is `region` and whose payload equals `item`, releasing
    /// its table row; returns `true` when found. When several
    /// identical entries exist, one of them is removed.
    ///
    /// Every ancestor's per-level merged MBRs are recomputed exactly
    /// from its surviving children along the removal path, and
    /// under-filled nodes are condensed as in the R-tree.
    pub fn remove(&mut self, region: Rect, item: T) -> bool
    where
        T: PartialEq,
    {
        let Some((_, row)) = self.tree.remove_where(region, |&(it, _)| it == item) else {
            return false;
        };
        self.tree.source_mut().free.push(row);
        true
    }

    /// Validates structural invariants (tests): the R-tree's, with
    /// "cached bound is exact" holding at every catalog level, and the
    /// table's — every stored entry holds a row of its own whose
    /// 0-bound is the entry's key, and every other row is on the free
    /// list. Returns the number of stored objects.
    pub fn check_invariants(&self) -> usize {
        let n = self.tree.check_invariants();
        let table = self.tree.source();
        let rows = table.columns[0].len();
        assert!(
            table.columns.iter().all(|c| c.len() == rows),
            "columns differ in length"
        );
        let mut held = vec![false; rows];
        for &(key, (_, row)) in self.tree.entries() {
            assert_eq!(table.columns[0][row as usize], key, "row 0-bound drifted");
            assert!(
                !std::mem::replace(&mut held[row as usize], true),
                "row held twice"
            );
        }
        for &row in &table.free {
            assert!(
                !std::mem::replace(&mut held[row as usize], true),
                "free row in use"
            );
        }
        assert!(held.iter().all(|&h| h), "row leaked");
        n
    }

    /// `(shared, total)`: how many of this index's tree nodes and
    /// bound-table pages are the very allocations `other` holds.
    #[doc(hidden)]
    pub fn shared_pages_with(&self, other: &Self) -> (usize, usize) {
        let mut count = self.tree.shared_pages_with(&other.tree);
        let columns = self.tree.source().columns.iter();
        for (ours, theirs) in columns.zip(&other.tree.source().columns) {
            let (shared, total) = ours.shared_pages_with(theirs);
            count.0 += shared;
            count.1 += total;
        }
        count
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The shared catalog levels.
    pub fn levels(&self) -> &[f64] {
        &self.tree.source().levels
    }

    /// The dense column of every row's `levels()[level]`-bound,
    /// indexed by row handle. Rows on the free list hold whatever their
    /// last owner left there.
    fn column(&self, level: usize) -> &Pages<Rect> {
        &self.tree.source().columns[level]
    }

    /// The stored bounds of the object holding `row` (as returned by
    /// [`Pti::insert`], or its position for a bulk-loaded object).
    #[inline]
    pub fn row(&self, row: u32) -> LevelRow<'_> {
        LevelRow {
            table: self.tree.source(),
            row: row as usize,
        }
    }

    /// Arena index of the tree's root, for reference walks in tests.
    #[doc(hidden)]
    pub fn root_index(&self) -> usize {
        self.tree.root_index()
    }

    /// A tree node, for reference walks in tests: leaf entries are
    /// `(0-bound, (item, row))`; a parent entry's bound exposes its
    /// `MBR(0)` as the key.
    #[doc(hidden)]
    pub fn node(&self, idx: usize) -> &Node<(T, u32), impl Bound> {
        self.tree.node(idx)
    }

    /// Index of the largest stored level `≤ qp` (always exists because
    /// level 0 is mandatory).
    fn level_floor(&self, qp: f64) -> usize {
        self.levels()
            .partition_point(|&l| l <= qp)
            .saturating_sub(1)
    }

    /// Returns `true` when the Strategy-1 side test prunes an entry
    /// whose `m`-level bound is `b`: the expanded query lies entirely in
    /// the `≤ m` tail on some side.
    fn strategy1_prunes(expanded: Rect, b: Rect) -> bool {
        expanded.min.x >= b.max.x // beyond r(m): right tail
            || expanded.max.x <= b.min.x // beyond l(m): left tail
            || expanded.min.y >= b.max.y // above t(m): top tail
            || expanded.max.y <= b.min.y // below b(m): bottom tail
    }

    /// Answers a constrained range filter: every object whose subtree
    /// survives the Strategy 1 + Strategy 2 node tests (and the same
    /// tests at the leaf level) is pushed into `out`.
    pub fn query_into(&self, q: &PtiQuery, stats: &mut AccessStats, out: &mut Vec<T>) {
        self.query_scratch(q, stats, &mut TraversalScratch::new(), out);
    }

    /// Like [`Pti::query_into`], but traversal state comes from (and
    /// returns to) `scratch`, so repeated probes through a warm scratch
    /// are allocation-free.
    pub fn query_scratch(
        &self,
        q: &PtiQuery,
        stats: &mut AccessStats,
        scratch: &mut TraversalScratch,
        out: &mut Vec<T>,
    ) {
        if self.tree.is_empty() {
            return;
        }
        // Nesting means nothing for a window with a NaN coordinate (it
        // overlaps nothing), so only finite windows are checked.
        debug_assert!(
            !(q.expanded.is_finite() && q.p_expanded.is_finite())
                || q.expanded.contains_rect(q.p_expanded),
            "p-expanded query must be inside the expanded query"
        );
        // Strategy 2 on the 0-bound, then Strategy 1 at level `k`: a
        // parent's `MBR(k)` sits in its entry, an object's k-bound in
        // column `k` of the table. At level 0 there is no Strategy 1,
        // and the walk is the plain R-tree's.
        match self.level_floor(q.threshold) {
            0 => self.walk(q.p_expanded, None, stats, scratch, out),
            k => self.walk(q.p_expanded, Some((k, q.expanded)), stats, scratch, out),
        }
    }

    /// Depth-first walk pushing the item of every entry whose 0-bound
    /// overlaps `window` and, given `strategy1 = (k, expanded)`, that
    /// Strategy 1 does not prune at level `k` — on a subtree's
    /// `MBR(k)`, on an object's row of column `k`.
    ///
    /// A node's overlapping entries are selected first (their
    /// positions, when Strategy 1 runs); Strategy 1 then reads only
    /// those entries' bounds, in entry order.
    fn walk(
        &self,
        window: Rect,
        strategy1: Option<(usize, Rect)>,
        stats: &mut AccessStats,
        scratch: &mut TraversalScratch,
        out: &mut Vec<T>,
    ) {
        let window = Window::new(window);
        let TraversalScratch { stack, hits } = scratch;
        stack.clear();
        stack.push(self.tree.root_index());
        while let Some(idx) = stack.pop() {
            stats.nodes_visited += 1;
            match (self.tree.node(idx), strategy1) {
                (Node::Leaf(entries), None) => {
                    stats.items_tested += entries.len() as u64;
                    let items = entries.iter().map(|&(key, (item, _))| (key, item));
                    stats.candidates += window.select(items, out) as u64;
                }
                (Node::Internal(children), None) => {
                    window.select(children.iter().map(|(mbrs, c)| (mbrs.key, *c)), stack);
                }
                (Node::Leaf(entries), Some((k, expanded))) => {
                    stats.items_tested += entries.len() as u64;
                    hits.clear();
                    window.select(entries.iter().enumerate().map(|(i, e)| (e.0, i)), hits);
                    let column = self.column(k);
                    let before = out.len();
                    out.extend(
                        hits.iter()
                            .map(|&i| entries[i].1)
                            .filter(|&(_, row)| {
                                !Self::strategy1_prunes(expanded, column[row as usize])
                            })
                            .map(|(item, _)| item),
                    );
                    stats.candidates += (out.len() - before) as u64;
                }
                (Node::Internal(children), Some((k, expanded))) => {
                    hits.clear();
                    window.select(children.iter().enumerate().map(|(i, e)| (e.0.key, i)), hits);
                    stack.extend(
                        hits.iter()
                            .map(|&i| &children[i])
                            .filter(|(mbrs, _)| {
                                !Self::strategy1_prunes(expanded, mbrs.upper[k - 1])
                            })
                            .map(|&(_, child)| child),
                    );
                }
            }
        }
    }

    /// Convenience wrapper returning a fresh vector.
    pub fn query(&self, q: &PtiQuery, stats: &mut AccessStats) -> Vec<T> {
        let mut out = Vec::new();
        self.query_into(q, stats, &mut out);
        out
    }
}

/// A PTI used as a plain spatial index: probes run at threshold 0 (no
/// p-bound pruning, exactly the Lemma-1 overlap filter), and
/// trait-level inserts store the extent replicated across every
/// catalog level — a sound, conservative p-bound (the true `m`-bound
/// of any pdf is contained in its region, so a larger stored bound
/// can only prune *less*). This keeps the PTI in the shared
/// `RangeIndex` conformance suite alongside the other backends.
impl<T: Copy> RangeIndex<T> for Pti<T> {
    fn len(&self) -> usize {
        Pti::len(self)
    }

    fn insert(&mut self, extent: Rect, item: T) {
        Pti::insert(self, vec![extent; self.levels().len()], item);
    }

    fn remove(&mut self, extent: Rect, item: T) -> bool
    where
        T: PartialEq,
    {
        Pti::remove(self, extent, item)
    }

    fn query_range_into(&self, query: Rect, stats: &mut AccessStats, out: &mut Vec<T>) {
        self.query_range_scratch(query, stats, &mut TraversalScratch::new(), out);
    }

    fn query_range_scratch(
        &self,
        query: Rect,
        stats: &mut AccessStats,
        scratch: &mut TraversalScratch,
        out: &mut Vec<T>,
    ) {
        self.query_scratch(
            &PtiQuery {
                expanded: query,
                p_expanded: query,
                threshold: 0.0,
            },
            stats,
            scratch,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc_geometry::Point;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Uniform-pdf p-bounds for a region: linear shrink per level.
    fn uniform_bounds(region: Rect, levels: &[f64]) -> Vec<Rect> {
        levels
            .iter()
            .map(|&p| {
                let dx = p * region.width();
                let dy = p * region.height();
                Rect::from_coords(
                    region.min.x + dx,
                    region.min.y + dy,
                    region.max.x - dx,
                    region.max.y - dy,
                )
            })
            .collect()
    }

    fn levels() -> Vec<f64> {
        vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    }

    fn build(n: usize, seed: u64) -> (Pti<usize>, Vec<Rect>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let regions: Vec<Rect> = (0..n)
            .map(|_| {
                let x = rng.gen_range(0.0..950.0);
                let y = rng.gen_range(0.0..950.0);
                Rect::from_coords(
                    x,
                    y,
                    x + rng.gen_range(5.0..50.0),
                    y + rng.gen_range(5.0..50.0),
                )
            })
            .collect();
        let objects = regions
            .iter()
            .enumerate()
            .map(|(k, &r)| (uniform_bounds(r, &levels()), k))
            .collect();
        (
            Pti::bulk_load(levels(), objects, PtiParams::default()),
            regions,
        )
    }

    #[test]
    fn zero_threshold_equals_plain_overlap_filter() {
        let (pti, regions) = build(500, 1);
        let expanded = Rect::from_coords(200.0, 200.0, 500.0, 500.0);
        let q = PtiQuery {
            expanded,
            p_expanded: expanded,
            threshold: 0.0,
        };
        let mut stats = AccessStats::new();
        let mut got = pti.query(&q, &mut stats);
        got.sort_unstable();
        let want: Vec<usize> = regions
            .iter()
            .enumerate()
            .filter(|(_, r)| r.overlaps(expanded))
            .map(|(k, _)| k)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn threshold_pruning_is_sound_and_effective() {
        // With a threshold, the PTI may only drop objects the plain
        // filter kept — and must keep every object whose true
        // probability could reach the threshold.
        let (pti, regions) = build(500, 2);
        let expanded = Rect::from_coords(300.0, 300.0, 600.0, 600.0);
        let qp = 0.4;
        // A p-expanded query strictly inside the expanded one.
        let p_expanded = expanded.expand(-30.0, -30.0);
        let q = PtiQuery {
            expanded,
            p_expanded,
            threshold: qp,
        };
        let mut stats = AccessStats::new();
        let constrained = pti.query(&q, &mut stats);

        let q0 = PtiQuery {
            expanded,
            p_expanded: expanded,
            threshold: 0.0,
        };
        let mut s0 = AccessStats::new();
        let unconstrained = pti.query(&q0, &mut s0);
        assert!(constrained.len() <= unconstrained.len());

        // Soundness: everything dropped violates one of the two tests.
        let lv = levels();
        let k = lv.partition_point(|&l| l <= qp) - 1;
        for id in &unconstrained {
            if constrained.contains(id) {
                continue;
            }
            let region = regions[*id];
            let bounds = uniform_bounds(region, &lv);
            let s2 = !region.overlaps(p_expanded);
            let s1 = Pti::<usize>::strategy1_prunes(expanded, bounds[k]);
            assert!(s1 || s2, "object {id} dropped without justification");
        }
    }

    #[test]
    fn node_level_pruning_visits_fewer_nodes() {
        let (pti, _) = build(5000, 3);
        let expanded = Rect::centered(Point::new(500.0, 500.0), 150.0, 150.0);
        let tight = PtiQuery {
            expanded,
            p_expanded: expanded.expand(-100.0, -100.0),
            threshold: 0.5,
        };
        let loose = PtiQuery {
            expanded,
            p_expanded: expanded,
            threshold: 0.0,
        };
        let mut s_tight = AccessStats::new();
        let mut s_loose = AccessStats::new();
        let _ = pti.query(&tight, &mut s_tight);
        let _ = pti.query(&loose, &mut s_loose);
        assert!(s_tight.candidates <= s_loose.candidates);
        assert!(s_tight.nodes_visited <= s_loose.nodes_visited);
    }

    #[test]
    fn empty_pti() {
        let pti: Pti<usize> = Pti::bulk_load(levels(), Vec::new(), PtiParams::default());
        assert!(pti.is_empty());
        let e = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        let mut stats = AccessStats::new();
        assert!(pti
            .query(
                &PtiQuery {
                    expanded: e,
                    p_expanded: e,
                    threshold: 0.3
                },
                &mut stats
            )
            .is_empty());
    }

    #[test]
    fn level_floor_selection() {
        let (pti, _) = build(10, 4);
        assert_eq!(pti.level_floor(0.0), 0);
        assert_eq!(pti.level_floor(0.15), 1);
        assert_eq!(pti.level_floor(0.5), 5);
        assert_eq!(pti.level_floor(0.99), 5);
    }

    #[test]
    fn dynamic_inserts_match_bulk_load_results() {
        let mut rng = StdRng::seed_from_u64(21);
        let lv = levels();
        let regions: Vec<Rect> = (0..800)
            .map(|_| {
                let x = rng.gen_range(0.0..950.0);
                let y = rng.gen_range(0.0..950.0);
                Rect::from_coords(
                    x,
                    y,
                    x + rng.gen_range(5.0..40.0),
                    y + rng.gen_range(5.0..40.0),
                )
            })
            .collect();
        let bulk = Pti::bulk_load(
            lv.clone(),
            regions
                .iter()
                .enumerate()
                .map(|(k, &r)| (uniform_bounds(r, &lv), k))
                .collect(),
            PtiParams::default(),
        );
        let mut dynamic: Pti<usize> = Pti::bulk_load(lv.clone(), Vec::new(), PtiParams::default());
        for (k, &r) in regions.iter().enumerate() {
            dynamic.insert(uniform_bounds(r, &lv), k);
        }
        assert_eq!(dynamic.len(), 800);
        dynamic.check_invariants();
        bulk.check_invariants();

        for qp in [0.0, 0.2, 0.5] {
            let expanded = Rect::from_coords(100.0, 100.0, 600.0, 600.0);
            let q = PtiQuery {
                expanded,
                p_expanded: expanded.expand(-40.0, -40.0),
                threshold: qp,
            };
            let mut s1 = AccessStats::new();
            let mut s2 = AccessStats::new();
            let mut a = bulk.query(&q, &mut s1);
            let mut b = dynamic.query(&q, &mut s2);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "qp={qp}");
        }
    }

    #[test]
    fn insert_grows_tree_and_keeps_invariants() {
        let lv = levels();
        let mut pti: Pti<usize> = Pti::bulk_load(lv.clone(), Vec::new(), PtiParams::default());
        let mut rng = StdRng::seed_from_u64(5);
        for k in 0..5_000usize {
            let x = rng.gen_range(0.0..990.0);
            let y = rng.gen_range(0.0..990.0);
            let r = Rect::from_coords(x, y, x + 5.0, y + 5.0);
            pti.insert(uniform_bounds(r, &lv), k);
        }
        assert_eq!(pti.check_invariants(), 5_000);
    }

    #[test]
    fn remove_missing_returns_false() {
        let (mut pti, regions) = build(50, 6);
        assert!(!pti.remove(Rect::from_coords(-5.0, -5.0, -1.0, -1.0), 0));
        assert!(!pti.remove(regions[3], 99));
        assert_eq!(pti.len(), 50);
        pti.check_invariants();
    }

    #[test]
    fn remove_repairs_merged_bounds_exactly() {
        let (mut pti, regions) = build(600, 7);
        // Remove a third of the objects; after every removal the
        // cached per-level merged MBRs must still be exact hulls.
        for (k, &r) in regions.iter().enumerate() {
            if k % 3 == 0 {
                assert!(pti.remove(r, k), "object {k} not found");
            }
        }
        assert_eq!(pti.check_invariants(), 400);
        // Survivors are still found, removed objects are not.
        let expanded = Rect::from_coords(0.0, 0.0, 1_000.0, 1_000.0);
        let q = PtiQuery {
            expanded,
            p_expanded: expanded,
            threshold: 0.0,
        };
        let mut stats = AccessStats::new();
        let mut got = pti.query(&q, &mut stats);
        got.sort_unstable();
        let want: Vec<usize> = (0..600).filter(|k| k % 3 != 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn interleaved_inserts_and_removes_keep_invariants() {
        let lv = levels();
        let mut pti: Pti<usize> = Pti::bulk_load(lv.clone(), Vec::new(), PtiParams::default());
        let mut live: Vec<(Rect, usize)> = Vec::new();
        let mut rng = StdRng::seed_from_u64(13);
        let mut next_id = 0usize;
        for step in 0..2_000 {
            let grow = live.len() < 20 || rng.gen_bool(0.55);
            if grow {
                let x = rng.gen_range(0.0..950.0);
                let y = rng.gen_range(0.0..950.0);
                let r = Rect::from_coords(x, y, x + 10.0, y + 10.0);
                pti.insert(uniform_bounds(r, &lv), next_id);
                live.push((r, next_id));
                next_id += 1;
            } else {
                let k = rng.gen_range(0..live.len());
                let (r, id) = live.swap_remove(k);
                assert!(pti.remove(r, id), "step {step}: failed to remove {id}");
            }
        }
        assert_eq!(pti.check_invariants(), live.len());
        // Query equivalence with the surviving set at threshold 0.
        for _ in 0..30 {
            let x = rng.gen_range(0.0..900.0);
            let y = rng.gen_range(0.0..900.0);
            let expanded = Rect::from_coords(x, y, x + 80.0, y + 80.0);
            let q = PtiQuery {
                expanded,
                p_expanded: expanded,
                threshold: 0.0,
            };
            let mut stats = AccessStats::new();
            let mut got = pti.query(&q, &mut stats);
            got.sort_unstable();
            let mut want: Vec<usize> = live
                .iter()
                .filter(|(r, _)| r.overlaps(expanded))
                .map(|&(_, id)| id)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn remove_to_empty_reuses_arena_slots() {
        let lv = levels();
        let mut pti: Pti<usize> = Pti::bulk_load(lv.clone(), Vec::new(), PtiParams::default());
        for round in 0..3 {
            for k in 0..300usize {
                let x = (k % 30) as f64 * 30.0;
                let y = (k / 30) as f64 * 90.0;
                let r = Rect::from_coords(x, y, x + 8.0, y + 8.0);
                pti.insert(uniform_bounds(r, &lv), k);
            }
            let nodes = pti.tree.node_count();
            for k in 0..300usize {
                let x = (k % 30) as f64 * 30.0;
                let y = (k / 30) as f64 * 90.0;
                let r = Rect::from_coords(x, y, x + 8.0, y + 8.0);
                assert!(pti.remove(r, k), "round {round}: object {k} not found");
            }
            assert!(pti.is_empty());
            // Dissolved slots are reused, so the arena stays bounded
            // across churn rounds.
            assert!(pti.tree.node_count() <= nodes);
        }
        pti.check_invariants();
    }

    #[test]
    fn rows_are_input_positions_then_recycled() {
        let (mut pti, regions) = build(100, 8);
        let lv = levels();
        for (k, &r) in regions.iter().enumerate() {
            let row = pti.row(k as u32);
            assert_eq!(row.levels(), &lv[..]);
            for (level, want) in uniform_bounds(r, &lv).into_iter().enumerate() {
                assert_eq!(row.rect(level), want);
            }
        }
        // A removal frees its row; the next insert takes it.
        assert!(pti.remove(regions[7], 7));
        let r = Rect::from_coords(1.0, 1.0, 9.0, 9.0);
        assert_eq!(pti.insert(uniform_bounds(r, &lv), 500), 7);
        assert_eq!(pti.column(0)[7], r);
        assert_eq!(pti.column(5)[7], uniform_bounds(r, &lv)[5]);
        // With no row free the table grows.
        assert_eq!(pti.insert(uniform_bounds(r, &lv), 501), 100);
        assert_eq!(pti.check_invariants(), 101);
    }

    #[test]
    fn a_leaf_entry_is_the_r_trees() {
        assert_eq!(Pti::<u32>::LEAF_ENTRY_BYTES, 40);
        assert_eq!(
            Pti::<u32>::LEAF_ENTRY_BYTES,
            std::mem::size_of::<(Rect, u32)>()
        );
    }

    #[test]
    #[should_panic(expected = "one bound per level")]
    fn insert_rejects_wrong_bound_count() {
        let mut pti: Pti<usize> = Pti::bulk_load(levels(), Vec::new(), PtiParams::default());
        pti.insert(vec![Rect::from_coords(0.0, 0.0, 1.0, 1.0)], 0);
    }

    #[test]
    #[should_panic(expected = "extent must be finite and non-empty")]
    fn rejects_non_finite_region() {
        // Used to get as far as STR's sort comparator.
        let region = Rect::from_coords(0.0, 0.0, f64::NAN, 1.0);
        let _: Pti<usize> = Pti::bulk_load(
            vec![0.0, 0.1],
            vec![(vec![region; 2], 1)],
            PtiParams::default(),
        );
    }

    #[test]
    #[should_panic(expected = "levels must start at 0")]
    fn rejects_missing_zero_level() {
        let _: Pti<usize> = Pti::bulk_load(vec![0.1, 0.2], Vec::new(), PtiParams::default());
    }

    #[test]
    #[should_panic(expected = "one bound per level")]
    fn rejects_mismatched_bounds() {
        let _: Pti<usize> = Pti::bulk_load(
            vec![0.0, 0.1],
            vec![(vec![Rect::from_coords(0.0, 0.0, 1.0, 1.0)], 1)],
            PtiParams::default(),
        );
    }
}
