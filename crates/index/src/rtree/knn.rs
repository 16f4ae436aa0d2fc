//! Best-first k-nearest-neighbour search on the R-tree
//! (Hjaltason & Samet's incremental algorithm).
//!
//! Used by the imprecise NN query's candidate stage and exposed as a
//! general index operation. Distances are measured from a query point
//! to entry extents (`MINDIST`); returned items are ordered by
//! non-decreasing distance.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use iloc_geometry::Point;

use super::{Node, RTree};
use crate::stats::AccessStats;

/// Priority-queue element: min-heap on distance via reversed ordering.
struct HeapItem<T> {
    dist: f64,
    kind: QueueKind<T>,
}

enum QueueKind<T> {
    Node(usize),
    Item(T),
}

impl<T> PartialEq for HeapItem<T> {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl<T> Eq for HeapItem<T> {}
impl<T> PartialOrd for HeapItem<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapItem<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we need the smallest
        // distance first. NaNs cannot occur (extents are finite).
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("finite distances")
    }
}

impl<T: Copy> RTree<T> {
    /// Returns the `k` stored items nearest to `q` (by `MINDIST` to
    /// their extents), closest first, with their distances. Returns
    /// fewer than `k` when the tree is smaller.
    pub fn nearest_neighbors(&self, q: Point, k: usize, stats: &mut AccessStats) -> Vec<(T, f64)> {
        let mut out = Vec::with_capacity(k.min(self.len()));
        if k == 0 || self.is_empty() {
            return out;
        }
        let mut heap: BinaryHeap<HeapItem<T>> = BinaryHeap::new();
        heap.push(HeapItem {
            dist: 0.0,
            kind: QueueKind::Node(self.root_index()),
        });
        while let Some(HeapItem { dist, kind }) = heap.pop() {
            match kind {
                QueueKind::Item(item) => {
                    out.push((item, dist));
                    if out.len() == k {
                        break;
                    }
                }
                QueueKind::Node(idx) => {
                    stats.nodes_visited += 1;
                    match self.node(idx) {
                        Node::Leaf(entries) => {
                            for &(extent, item) in entries.iter() {
                                stats.items_tested += 1;
                                heap.push(HeapItem {
                                    dist: extent.min_distance(q),
                                    kind: QueueKind::Item(item),
                                });
                            }
                        }
                        Node::Internal(children) => {
                            for &(mbr, child) in children.iter() {
                                heap.push(HeapItem {
                                    dist: mbr.min_distance(q),
                                    kind: QueueKind::Node(child),
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtree::RTreeParams;
    use iloc_geometry::Rect;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<(Rect, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|k| {
                let p = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
                (Rect::from_point(p), k)
            })
            .collect()
    }

    #[test]
    fn knn_matches_brute_force() {
        let items = random_points(2_000, 1);
        let tree = RTree::bulk_load(items.clone(), RTreeParams::default());
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let q = Point::new(rng.gen_range(-100.0..1100.0), rng.gen_range(-100.0..1100.0));
            let k = rng.gen_range(1..20usize);
            let mut stats = AccessStats::new();
            let got = tree.nearest_neighbors(q, k, &mut stats);
            let mut brute: Vec<(usize, f64)> = items
                .iter()
                .map(|&(r, id)| (id, r.min_distance(q)))
                .collect();
            brute.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            assert_eq!(got.len(), k);
            for (i, (item, d)) in got.iter().enumerate() {
                // Ties can permute ids; distances must match exactly.
                assert!((d - brute[i].1).abs() < 1e-12, "rank {i}");
                let _ = item;
            }
        }
    }

    #[test]
    fn knn_ordered_and_prunes_nodes() {
        let items = random_points(5_000, 3);
        let tree = RTree::bulk_load(items, RTreeParams::default());
        let mut stats = AccessStats::new();
        let got = tree.nearest_neighbors(Point::new(500.0, 500.0), 10, &mut stats);
        for pair in got.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "results must be sorted by distance");
        }
        // Best-first search must not visit most of the tree for k=10.
        assert!(
            (stats.nodes_visited as usize) < tree.node_count() / 4,
            "visited {} of {}",
            stats.nodes_visited,
            tree.node_count()
        );
    }

    #[test]
    fn knn_on_small_or_empty_trees() {
        let empty: RTree<usize> = RTree::default();
        let mut stats = AccessStats::new();
        assert!(empty
            .nearest_neighbors(Point::new(0.0, 0.0), 3, &mut stats)
            .is_empty());

        let tree = RTree::bulk_load(random_points(2, 4), RTreeParams::default());
        let got = tree.nearest_neighbors(Point::new(0.0, 0.0), 10, &mut stats);
        assert_eq!(got.len(), 2);
        assert_eq!(
            tree.nearest_neighbors(Point::new(0.0, 0.0), 0, &mut stats)
                .len(),
            0
        );
    }
}
