//! Deletion with tree condensation (Guttman's `Delete`/`CondenseTree`)
//! and the arena's slot management.
//!
//! Removing an entry may under-fill its leaf; under-filled nodes are
//! dissolved and their surviving items re-inserted from the top, which
//! keeps the tree within its fill-factor invariants. Along the removal
//! path every ancestor's cached bound is recomputed exactly from its
//! surviving entries (a hull cannot be shrunk in place). Dissolved
//! arena slots go onto a free list that `insert` reuses, so long
//! insert/delete workloads do not leak arena space.
//!
//! The search only reads: a leaf whose bound covers the key but that
//! does not hold the entry stays shared with the tree this one was
//! cloned from. Blocks are written on the way back up the one path
//! that found it.

use std::sync::Arc;

use iloc_geometry::Rect;

use super::node::{swap_removed, Bound, LeafBounds, Node};
use super::RTree;

impl<T: Copy + PartialEq> RTree<T> {
    /// Removes one stored entry whose extent is `key` and whose item
    /// equals `item`. Returns `true` when an entry was found and
    /// removed.
    ///
    /// When several identical entries exist, one of them is removed.
    pub fn remove(&mut self, key: Rect, item: T) -> bool {
        self.remove_where(key, |it| *it == item).is_some()
    }
}

impl<T: Clone, S: LeafBounds<T>> RTree<T, S> {
    /// Removes one stored entry whose key is `key` and whose item
    /// satisfies `is_item`, returning the item. When several entries
    /// match, one of them is removed.
    pub(crate) fn remove_where(&mut self, key: Rect, is_item: impl Fn(&T) -> bool) -> Option<T> {
        let mut orphans: Vec<(Rect, T)> = Vec::new();
        let removed = self.remove_rec(self.root, key, &is_item, &mut orphans)?;
        self.len -= 1;

        // Shrink the root while it is an internal node with one child.
        while let Node::Internal(children) = &self.nodes[self.root] {
            let [(_, child)] = &children[..] else {
                break;
            };
            let old = std::mem::replace(&mut self.root, *child);
            self.release(old);
        }
        // An emptied internal root degenerates to an empty leaf.
        if self.len == 0 {
            self.nodes[self.root] = Node::empty();
        }

        // Re-insert orphaned items (they are still counted in `len`;
        // `insert` increments, so compensate first).
        for (key, it) in orphans {
            self.len -= 1;
            self.insert(key, it);
        }
        Some(removed)
    }

    /// Depth-first search and removal; returns the item once removed.
    fn remove_rec(
        &mut self,
        node_idx: usize,
        key: Rect,
        is_item: &impl Fn(&T) -> bool,
        orphans: &mut Vec<(Rect, T)>,
    ) -> Option<T> {
        let min = self.params.min_entries;
        let child_count = match &mut self.nodes[node_idx] {
            Node::Leaf(entries) => {
                let pos = entries
                    .iter()
                    .position(|(k, it)| *k == key && is_item(it))?;
                let removed = entries[pos].1.clone();
                *entries = swap_removed(entries, pos);
                return Some(removed);
            }
            Node::Internal(children) => children.len(),
        };
        // Internal: try the children whose bound covers the key, in
        // entry order. A failed descent changes nothing, so the entry
        // list is as it was when the next child is looked up.
        for i in 0..child_count {
            let Node::Internal(children) = &self.nodes[node_idx] else {
                unreachable!("node kind is stable");
            };
            let (bound, child_idx) = &children[i];
            if !bound.key().contains_rect(key) {
                continue;
            }
            let child_idx = *child_idx;
            let Some(removed) = self.remove_rec(child_idx, key, is_item, orphans) else {
                continue;
            };
            if self.nodes[child_idx].entry_count() < min {
                // Dissolve the under-filled child: orphan its items
                // and drop the entry.
                let Node::Internal(children) = &mut self.nodes[node_idx] else {
                    unreachable!("node kind is stable");
                };
                *children = swap_removed(children, i);
                self.drain_subtree(child_idx, orphans);
            } else {
                // Exact repair: re-merge the child's bound.
                let bound = self.nodes[child_idx].bound(&self.source);
                let Node::Internal(children) = &mut self.nodes[node_idx] else {
                    unreachable!("node kind is stable");
                };
                Arc::make_mut(children)[i].0 = bound;
            }
            return Some(removed);
        }
        None
    }

    /// Moves every leaf item under `idx` into `orphans` and releases
    /// the subtree's arena slots.
    fn drain_subtree(&mut self, idx: usize, orphans: &mut Vec<(Rect, T)>) {
        match std::mem::replace(&mut self.nodes[idx], Node::empty()) {
            Node::Leaf(entries) => orphans.extend(entries.iter().cloned()),
            Node::Internal(children) => {
                for (_, child) in children.iter() {
                    self.drain_subtree(*child, orphans);
                }
            }
        }
        self.release(idx);
    }

    /// Allocates a node, reusing freed slots when available.
    pub(super) fn alloc(&mut self, node: Node<T, S::Parent>) -> usize {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = node;
            idx
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    /// Puts an arena slot on the free list.
    fn release(&mut self, idx: usize) {
        debug_assert_ne!(idx, self.root, "cannot release the root");
        self.nodes[idx] = Node::empty();
        self.free.push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtree::RTreeParams;
    use crate::stats::AccessStats;
    use crate::traits::RangeIndex;
    use iloc_geometry::Point;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pt(x: f64, y: f64) -> Rect {
        Rect::from_point(Point::new(x, y))
    }

    #[test]
    fn remove_missing_returns_false() {
        let mut tree: RTree<usize> = RTree::default();
        tree.insert(pt(1.0, 1.0), 7);
        assert!(!tree.remove(pt(2.0, 2.0), 7));
        assert!(!tree.remove(pt(1.0, 1.0), 8));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn remove_to_empty_and_reuse() {
        let mut tree: RTree<usize> = RTree::default();
        tree.insert(pt(1.0, 1.0), 1);
        assert!(tree.remove(pt(1.0, 1.0), 1));
        assert!(tree.is_empty());
        let mut stats = AccessStats::new();
        assert!(tree
            .query_range(Rect::from_coords(0.0, 0.0, 5.0, 5.0), &mut stats)
            .is_empty());
        // Tree remains usable.
        tree.insert(pt(2.0, 2.0), 2);
        assert_eq!(tree.len(), 1);
        tree.check_invariants();
    }

    #[test]
    fn interleaved_inserts_and_removes_match_oracle() {
        let params = RTreeParams::new(8, 3);
        let mut tree = RTree::new(params);
        let mut live: Vec<(Rect, usize)> = Vec::new();
        let mut rng = StdRng::seed_from_u64(11);
        let mut next_id = 0usize;
        for step in 0..3_000 {
            let grow = live.len() < 20 || rng.gen_bool(0.55);
            if grow {
                let r = pt(rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0));
                tree.insert(r, next_id);
                live.push((r, next_id));
                next_id += 1;
            } else {
                let k = rng.gen_range(0..live.len());
                let (r, id) = live.swap_remove(k);
                assert!(tree.remove(r, id), "step {step}: failed to remove {id}");
            }
        }
        assert_eq!(tree.len(), live.len());
        tree.check_invariants();
        // Query equivalence with the surviving set.
        for _ in 0..50 {
            let x = rng.gen_range(0.0..500.0);
            let y = rng.gen_range(0.0..500.0);
            let q = Rect::centered(Point::new(x, y), 40.0, 40.0);
            let mut stats = AccessStats::new();
            let mut got = tree.query_range(q, &mut stats);
            got.sort_unstable();
            let mut want: Vec<usize> = live
                .iter()
                .filter(|(r, _)| r.overlaps(q))
                .map(|&(_, id)| id)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn mass_removal_shrinks_height() {
        let params = RTreeParams::new(4, 2);
        let mut tree = RTree::new(params);
        for k in 0..200usize {
            tree.insert(pt(k as f64, k as f64), k);
        }
        let tall = tree.height();
        assert!(tall >= 3);
        for k in 0..195usize {
            assert!(tree.remove(pt(k as f64, k as f64), k));
        }
        assert_eq!(tree.len(), 5);
        tree.check_invariants();
        assert!(tree.height() < tall, "root should have been demoted");
        // Freed slots get reused by later inserts.
        let nodes_before = tree.node_count();
        for k in 1000..1100usize {
            tree.insert(pt(k as f64, 0.0), k);
        }
        assert!(tree.node_count() <= nodes_before + 2, "free list unused");
        tree.check_invariants();
    }

    #[test]
    fn duplicate_entries_removed_one_at_a_time() {
        let mut tree: RTree<usize> = RTree::new(RTreeParams::new(4, 2));
        for _ in 0..3 {
            tree.insert(pt(5.0, 5.0), 9);
        }
        assert!(tree.remove(pt(5.0, 5.0), 9));
        assert_eq!(tree.len(), 2);
        assert!(tree.remove(pt(5.0, 5.0), 9));
        assert!(tree.remove(pt(5.0, 5.0), 9));
        assert!(!tree.remove(pt(5.0, 5.0), 9));
        assert!(tree.is_empty());
    }
}
