//! A Guttman R-tree (SIGMOD'84) built from scratch — the one tree
//! implementation of this crate.
//!
//! * dynamic insertion with the **quadratic split** heuristic;
//! * deletion with **CondenseTree** (under-filled nodes dissolved,
//!   their items re-inserted);
//! * **Sort-Tile-Recursive** bulk loading for the experiment datasets;
//! * range queries with logical node-access counting.
//!
//! The tree is generic over what an entry carries as its bound
//! ([`Bound`]): `RTree<T>` stores a plain [`Rect`] per entry; the
//! [PTI](crate::pti) is the same tree storing one rectangle per
//! U-catalog level, keyed on the 0-bound. Arena, ChooseSubtree, split,
//! packing, removal and the invariant walk exist once, here.
//!
//! Nodes live in an arena (`Vec<Node<T, B>>`); parents reference
//! children by index, and each parent entry caches the child's bound —
//! the classic disk layout transplanted to memory. The default fanout
//! models the paper's 4 KB pages: an entry is ~40 bytes (4 × f64 MBR +
//! id), so ~100 entries fit; we default to 64/26 to stay comparable
//! while keeping splits cheap.

mod bulk;
mod knn;
mod node;
mod remove;
mod split;

pub use node::{Bound, Node};

use iloc_geometry::Rect;

use crate::stats::AccessStats;
use crate::traits::{RangeIndex, TraversalScratch};

/// Fanout configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeParams {
    /// Maximum entries per node (`M`).
    pub max_entries: usize,
    /// Minimum entries per node after a split (`m ≤ M/2`).
    pub min_entries: usize,
}

impl RTreeParams {
    /// Creates a parameter set.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ min_entries ≤ max_entries / 2`.
    pub fn new(max_entries: usize, min_entries: usize) -> Self {
        assert!(min_entries >= 2, "min_entries must be at least 2");
        assert!(
            min_entries <= max_entries / 2,
            "min_entries must be at most max_entries / 2"
        );
        RTreeParams {
            max_entries,
            min_entries,
        }
    }
}

impl Default for RTreeParams {
    /// 64 max / 26 min (~40 % fill), modelling the paper's 4 KB pages.
    fn default() -> Self {
        RTreeParams::new(64, 26)
    }
}

/// An R-tree storing items of type `T` under bounds of type `B` — by
/// default rectangular extents.
#[derive(Debug, Clone)]
pub struct RTree<T, B = Rect> {
    params: RTreeParams,
    nodes: Vec<Node<T, B>>,
    root: usize,
    len: usize,
    /// Arena slots released by removals, reused by inserts.
    free: Vec<usize>,
}

impl<T> Default for RTree<T> {
    fn default() -> Self {
        RTree::new(RTreeParams::default())
    }
}

/// The check every entry passes on its way into a tree.
fn assert_key(bound: &impl Bound) {
    let key = bound.key();
    assert!(
        key.is_finite() && !key.is_empty(),
        "extent must be finite and non-empty"
    );
}

impl<T, B: Bound> RTree<T, B> {
    /// Creates an empty tree.
    pub fn new(params: RTreeParams) -> Self {
        RTree {
            params,
            nodes: vec![Node::Leaf(Vec::new())],
            root: 0,
            len: 0,
            free: Vec::new(),
        }
    }

    /// Bulk loads a tree with Sort-Tile-Recursive packing.
    ///
    /// # Panics
    ///
    /// Panics when an item's extent is empty or non-finite.
    pub fn bulk_load(items: Vec<(B, T)>, params: RTreeParams) -> Self {
        bulk::str_bulk_load(items, params)
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the tree stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fanout configuration.
    pub fn params(&self) -> RTreeParams {
        self.params
    }

    /// Tree height (1 for a tree that is a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut idx = self.root;
        loop {
            match &self.nodes[idx] {
                Node::Leaf(_) => return h,
                Node::Internal(children) => {
                    idx = children[0].1;
                    h += 1;
                }
            }
        }
    }

    /// MBR of the whole tree ([`Rect::EMPTY`] when empty).
    pub fn mbr(&self) -> Rect {
        if self.len == 0 {
            return Rect::EMPTY;
        }
        self.nodes[self.root].bound().key()
    }

    /// Total number of allocated nodes (diagnostics; includes nodes on
    /// the free list after removals).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Arena index of the root (internal; for the probes that live
    /// outside this module: kNN and the PTI's threshold probe).
    pub(crate) fn root_index(&self) -> usize {
        self.root
    }

    /// Node accessor (internal; see [`RTree::root_index`]).
    pub(crate) fn node(&self, idx: usize) -> &Node<T, B> {
        &self.nodes[idx]
    }

    /// Inserts an item under the given bound.
    ///
    /// # Panics
    ///
    /// Panics when the bound's extent is empty or non-finite.
    pub fn insert(&mut self, bound: B, item: T) {
        assert_key(&bound);
        if let Some(halves) = self.insert_rec(self.root, bound, item) {
            // Root split: grow the tree by one level.
            self.root = self.alloc(Node::Internal(halves.into()));
        }
        self.len += 1;
    }

    /// Recursive insert; on overflow returns the two halves of the split
    /// node as `[(bound1, idx1), (bound2, idx2)]` where `idx1` is the
    /// original node index (reused) and `idx2` a fresh sibling.
    fn insert_rec(&mut self, node_idx: usize, bound: B, item: T) -> Option<[(B, usize); 2]> {
        let max = self.params.max_entries;
        let min = self.params.min_entries;
        let (bound_a, bound_b, sibling) = match &mut self.nodes[node_idx] {
            Node::Leaf(entries) => {
                entries.push((bound, item));
                if entries.len() <= max {
                    return None;
                }
                let (bound_a, bound_b, b) = split_in_place(entries, min);
                (bound_a, bound_b, Node::Leaf(b))
            }
            Node::Internal(children) => {
                // ChooseSubtree: least enlargement, ties by smaller area.
                let key = bound.key();
                let mut best = 0usize;
                let mut best_enl = f64::INFINITY;
                let mut best_area = f64::INFINITY;
                for (i, (child, _)) in children.iter().enumerate() {
                    let mbr = child.key();
                    let area = mbr.area();
                    let enl = mbr.hull(key).area() - area;
                    if enl < best_enl || (enl == best_enl && area < best_area) {
                        best = i;
                        best_enl = enl;
                        best_area = area;
                    }
                }
                // Grow the chosen entry on the way down; a split below
                // replaces it with exact halves anyway.
                children[best].0.merge(&bound);
                let child_idx = children[best].1;
                let [half1, half2] = self.insert_rec(child_idx, bound, item)?;
                let Node::Internal(children) = &mut self.nodes[node_idx] else {
                    unreachable!("node kind cannot change during insert");
                };
                children[best] = half1;
                children.push(half2);
                if children.len() <= max {
                    return None;
                }
                let (bound_a, bound_b, b) = split_in_place(children, min);
                (bound_a, bound_b, Node::Internal(b))
            }
        };
        let sibling = self.alloc(sibling);
        Some([(bound_a, node_idx), (bound_b, sibling)])
    }

    /// Validates structural invariants; used by tests. Returns the
    /// number of items reachable from the root.
    ///
    /// Checked invariants: cached child bounds equal the child's actual
    /// bound (for a PTI: at every level); every non-root node respects
    /// the fill factor; all leaves sit at the same depth.
    pub fn check_invariants(&self) -> usize {
        self.check_invariants_filled(self.params.min_entries)
    }

    /// [`RTree::check_invariants`] with `min_fill` in place of the
    /// configured minimum: STR packing may leave the last node of a
    /// slice under-filled, so a freshly bulk-loaded tree is checked
    /// against 1.
    pub(crate) fn check_invariants_filled(&self, min_fill: usize) -> usize {
        let mut leaf_depth = None;
        let n = self.check_node(self.root, 0, min_fill, &mut leaf_depth);
        assert_eq!(n, self.len, "len out of sync with reachable items");
        n
    }

    fn check_node(
        &self,
        idx: usize,
        depth: usize,
        min_fill: usize,
        leaf_depth: &mut Option<usize>,
    ) -> usize {
        let node = &self.nodes[idx];
        let fill = node.entry_count();
        if idx != self.root {
            assert!(
                (min_fill..=self.params.max_entries).contains(&fill),
                "fill factor violated: {fill}"
            );
        }
        match node {
            Node::Leaf(entries) => {
                match leaf_depth {
                    None => *leaf_depth = Some(depth),
                    Some(d) => assert_eq!(*d, depth, "leaves at different depths"),
                }
                entries.len()
            }
            Node::Internal(children) => {
                assert!(!children.is_empty(), "empty internal node");
                let mut count = 0;
                for (cached, child) in children {
                    assert_eq!(
                        *cached,
                        self.nodes[*child].bound(),
                        "cached child bound out of date"
                    );
                    count += self.check_node(*child, depth + 1, min_fill, leaf_depth);
                }
                count
            }
        }
    }
}

/// Splits an overflowing node's entries, leaving the first group in
/// place; returns both groups' bounds and the second group.
fn split_in_place<B: Bound, E>(entries: &mut Vec<(B, E)>, min: usize) -> (B, B, Vec<(B, E)>) {
    let [a, b] = split::quadratic_split(std::mem::take(entries), min);
    let bounds = (node::hull(&a), node::hull(&b));
    *entries = a;
    (bounds.0, bounds.1, b)
}

impl<T: Copy> RangeIndex<T> for RTree<T> {
    fn len(&self) -> usize {
        RTree::len(self)
    }

    fn insert(&mut self, extent: Rect, item: T) {
        RTree::insert(self, extent, item);
    }

    fn remove(&mut self, extent: Rect, item: T) -> bool
    where
        T: PartialEq,
    {
        RTree::remove(self, extent, item)
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
        if self.len == 0 {
            return;
        }
        let stack = &mut scratch.stack;
        stack.clear();
        stack.push(self.root);
        while let Some(idx) = stack.pop() {
            stats.nodes_visited += 1;
            match &self.nodes[idx] {
                Node::Leaf(entries) => {
                    for &(extent, item) in entries {
                        stats.items_tested += 1;
                        if extent.overlaps(query) {
                            stats.candidates += 1;
                            out.push(item);
                        }
                    }
                }
                Node::Internal(children) => {
                    for &(mbr, child) in children {
                        if mbr.overlaps(query) {
                            stack.push(child);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests;
