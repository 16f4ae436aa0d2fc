//! A Guttman R-tree (SIGMOD'84) built from scratch — the one tree
//! implementation of this crate.
//!
//! * dynamic insertion with the **quadratic split** heuristic;
//! * deletion with **CondenseTree** (under-filled nodes dissolved,
//!   their items re-inserted);
//! * **Sort-Tile-Recursive** bulk loading for the experiment datasets;
//! * range queries with logical node-access counting.
//!
//! A leaf entry is always `(key rectangle, item)`. What a *parent*
//! entry caches for its subtree is generic ([`Bound`]), derived from
//! the leaf entries through the tree's [`LeafBounds`] source:
//! `RTree<T>` caches the plain hull of the keys; the
//! [PTI](crate::pti) is the same tree caching one merged rectangle per
//! U-catalog level, looked up in its level table. Arena,
//! ChooseSubtree, split, packing, removal and the invariant walk exist
//! once, here.
//!
//! Nodes live in an arena (`Vec<Node<T, B>>`); parents reference
//! children by index, and each parent entry caches the child's bound —
//! the classic disk layout transplanted to memory. An arena slot holds
//! its node's entries as one reference-counted block (see `node.rs`'s
//! module docs), so a node visit is `nodes[idx]` → one heap block, and
//! **`clone()` copies the arena spine and takes one count per node —
//! no entry**. The clone and its parent share every node until one of
//! them writes it: an insert or a removal copies (or rebuilds) the
//! blocks on its one root-to-leaf path, a split or a CondenseTree the
//! nodes it rearranges, and nothing else. That is what a commit of the
//! serving layer relies on: the next epoch's tree differs from the
//! current one by the paths its batch walked, and a reader holding the
//! old epoch pins only the blocks that were replaced. The default
//! fanout models the paper's 4 KB pages: an entry is ~40 bytes
//! (4 × f64 MBR + id), so ~100 entries fit; we default to 64/26 to
//! stay comparable while keeping splits cheap.

mod bulk;
mod node;
mod remove;
mod select;
mod split;

pub use node::{Bound, LeafBounds, Node};
pub(crate) use select::Window;

use std::sync::Arc;

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

/// An R-tree storing items of type `T` under rectangular extents; `S`
/// is where parent bounds come from — by default the hull of the
/// extents.
#[derive(Debug, Clone)]
pub struct RTree<T, S: LeafBounds<T> = ()> {
    params: RTreeParams,
    nodes: Vec<Node<T, S::Parent>>,
    root: usize,
    len: usize,
    /// Arena slots released by removals, reused by inserts.
    free: Vec<usize>,
    /// Built by STR packing, which may leave the last node of a level
    /// under-filled: the invariant walk then holds the fill factor to
    /// one entry.
    packed: bool,
    source: S,
}

impl<T: Clone> Default for RTree<T> {
    fn default() -> Self {
        RTree::new(RTreeParams::default())
    }
}

/// The check every entry passes on its way into a tree.
fn assert_key(key: Rect) {
    assert!(
        key.is_finite() && !key.is_empty(),
        "extent must be finite and non-empty"
    );
}

impl<T: Clone> RTree<T> {
    /// Creates an empty tree.
    pub fn new(params: RTreeParams) -> Self {
        RTree::with_source(params, ())
    }

    /// Bulk loads a tree with Sort-Tile-Recursive packing.
    ///
    /// # Panics
    ///
    /// Panics when an item's extent is empty or non-finite.
    pub fn bulk_load(items: Vec<(Rect, T)>, params: RTreeParams) -> Self {
        bulk::str_bulk_load(items, params, ())
    }
}

impl<T: Clone, S: LeafBounds<T>> RTree<T, S> {
    /// An empty tree whose parent bounds come from `source`.
    pub(crate) fn with_source(params: RTreeParams, source: S) -> Self {
        RTree {
            params,
            nodes: vec![Node::empty()],
            root: 0,
            len: 0,
            free: Vec::new(),
            packed: false,
            source,
        }
    }

    /// [`RTree::bulk_load`] with parent bounds from `source`.
    pub(crate) fn bulk_load_with(items: Vec<(Rect, T)>, params: RTreeParams, source: S) -> Self {
        bulk::str_bulk_load(items, params, source)
    }

    /// Where parent bounds come from.
    pub(crate) fn source(&self) -> &S {
        &self.source
    }

    /// Mutable access to the bound source. Changing what it reports
    /// for a *stored* entry would leave cached parent bounds stale.
    pub(crate) fn source_mut(&mut self) -> &mut S {
        &mut self.source
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
        self.nodes[self.root].bound(&self.source).key()
    }

    /// Total number of allocated nodes (diagnostics; includes nodes on
    /// the free list after removals).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// `(shared, total)`: how many of this tree's nodes are the very
    /// entry blocks `other` holds in the same arena slot. Slots without
    /// entries (released ones, an empty root) are not counted.
    #[doc(hidden)]
    pub fn shared_pages_with(&self, other: &Self) -> (usize, usize) {
        let mut shared = 0;
        let mut total = 0;
        for (idx, node) in self.nodes.iter().enumerate() {
            if node.entry_count() == 0 {
                continue;
            }
            total += 1;
            if other
                .nodes
                .get(idx)
                .is_some_and(|o| node.shares_entries_with(o))
            {
                shared += 1;
            }
        }
        (shared, total)
    }

    /// Arena index of the root, for walks outside this module: the
    /// PTI's threshold probe, and the reference walks the conformance
    /// suite holds the probes to.
    #[doc(hidden)]
    pub fn root_index(&self) -> usize {
        self.root
    }

    /// Node accessor (see [`RTree::root_index`]).
    #[doc(hidden)]
    pub fn node(&self, idx: usize) -> &Node<T, S::Parent> {
        &self.nodes[idx]
    }

    /// Every stored `(key, item)` entry, in arena order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &(Rect, T)> {
        // Released arena slots are empty leaves, so this is exactly
        // the reachable set.
        self.nodes.iter().flat_map(|node| match node {
            Node::Leaf(entries) => &entries[..],
            Node::Internal(_) => &[],
        })
    }

    /// Inserts an item with the given extent.
    ///
    /// # Panics
    ///
    /// Panics when the extent is empty or non-finite.
    pub fn insert(&mut self, key: Rect, item: T) {
        assert_key(key);
        if let Some(halves) = self.insert_rec(self.root, key, item) {
            // Root split: grow the tree by one level.
            self.root = self.alloc(Node::Internal(Arc::new(halves)));
        }
        self.len += 1;
    }

    /// Recursive insert; on overflow returns the two halves of the split
    /// node as `[(bound1, idx1), (bound2, idx2)]` where `idx1` is the
    /// original node index (reused) and `idx2` a fresh sibling.
    fn insert_rec(
        &mut self,
        node_idx: usize,
        key: Rect,
        item: T,
    ) -> Option<[(S::Parent, usize); 2]> {
        let max = self.params.max_entries;
        let min = self.params.min_entries;
        let (bound_a, bound_b, sibling) = match &mut self.nodes[node_idx] {
            Node::Leaf(entries) => {
                if entries.len() < max {
                    *entries = node::pushed(entries, (key, item));
                    return None;
                }
                let mut all = entries.to_vec();
                all.push((key, item));
                let [a, b] = split::quadratic_split(all, min);
                let bounds = (
                    node::leaf_hull(&self.source, &a),
                    node::leaf_hull(&self.source, &b),
                );
                *entries = a.into();
                (bounds.0, bounds.1, Node::Leaf(b.into()))
            }
            Node::Internal(children) => {
                // ChooseSubtree: least enlargement, ties by smaller area.
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
                // replaces it with exact halves anyway. The first
                // write since this tree was cloned copies the block.
                let chosen = &mut Arc::make_mut(children)[best];
                self.source.absorb(&mut chosen.0, key, &item);
                let child_idx = chosen.1;
                let [half1, half2] = self.insert_rec(child_idx, key, item)?;
                let Node::Internal(children) = &mut self.nodes[node_idx] else {
                    unreachable!("node kind cannot change during insert");
                };
                let mut all = children.to_vec();
                all[best] = half1;
                all.push(half2);
                if all.len() <= max {
                    *children = all.into();
                    return None;
                }
                let [a, b] = split::quadratic_split(all, min);
                let bounds = (node::hull(&a), node::hull(&b));
                *children = a.into();
                (bounds.0, bounds.1, Node::Internal(b.into()))
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
    /// the fill factor (one entry for a tree that was bulk loaded); all
    /// leaves sit at the same depth.
    pub fn check_invariants(&self) -> usize {
        let min_fill = if self.packed {
            1
        } else {
            self.params.min_entries
        };
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
                for (cached, child) in children.iter() {
                    assert_eq!(
                        *cached,
                        self.nodes[*child].bound(&self.source),
                        "cached child bound out of date"
                    );
                    count += self.check_node(*child, depth + 1, min_fill, leaf_depth);
                }
                count
            }
        }
    }
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
        let window = Window::new(query);
        let stack = &mut scratch.stack;
        stack.clear();
        stack.push(self.root);
        while let Some(idx) = stack.pop() {
            stats.nodes_visited += 1;
            match &self.nodes[idx] {
                Node::Leaf(entries) => {
                    stats.items_tested += entries.len() as u64;
                    stats.candidates += window.select(entries.iter().copied(), out) as u64;
                }
                Node::Internal(children) => {
                    window.select(children.iter().copied(), stack);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests;
