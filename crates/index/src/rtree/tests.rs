//! R-tree unit tests: invariants and oracle equivalence.

use iloc_geometry::{Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::naive::NaiveIndex;
use crate::stats::AccessStats;
use crate::traits::RangeIndex;

use super::{RTree, RTreeParams};

fn random_rects(n: usize, seed: u64) -> Vec<(Rect, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|k| {
            let x = rng.gen_range(0.0..1000.0);
            let y = rng.gen_range(0.0..1000.0);
            let w = rng.gen_range(0.0..20.0);
            let h = rng.gen_range(0.0..20.0);
            (Rect::from_coords(x, y, x + w, y + h), k)
        })
        .collect()
}

fn sorted(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v
}

#[test]
fn empty_tree_queries_cleanly() {
    let tree: RTree<usize> = RTree::default();
    assert!(tree.is_empty());
    assert!(tree.mbr().is_empty());
    let mut stats = AccessStats::new();
    assert!(tree
        .query_range(Rect::from_coords(0.0, 0.0, 10.0, 10.0), &mut stats)
        .is_empty());
    assert_eq!(stats.nodes_visited, 0);
}

#[test]
fn single_insert_and_hit() {
    let mut tree = RTree::default();
    tree.insert(Rect::from_point(Point::new(5.0, 5.0)), 42usize);
    assert_eq!(tree.len(), 1);
    let mut stats = AccessStats::new();
    let hits = tree.query_range(Rect::from_coords(0.0, 0.0, 10.0, 10.0), &mut stats);
    assert_eq!(hits, vec![42]);
    assert_eq!(stats.nodes_visited, 1);
    let miss = tree.query_range(Rect::from_coords(20.0, 20.0, 30.0, 30.0), &mut stats);
    assert!(miss.is_empty());
}

#[test]
fn inserts_maintain_invariants_and_match_oracle() {
    let params = RTreeParams::new(8, 3);
    let items = random_rects(500, 1);
    let mut tree = RTree::new(params);
    let mut oracle = NaiveIndex::default();
    for &(r, k) in &items {
        tree.insert(r, k);
        oracle.insert(r, k);
    }
    assert_eq!(tree.check_invariants(), 500);
    assert!(tree.height() > 1);

    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..100 {
        let x = rng.gen_range(-50.0..1050.0);
        let y = rng.gen_range(-50.0..1050.0);
        let q = Rect::from_coords(
            x,
            y,
            x + rng.gen_range(0.0..200.0),
            y + rng.gen_range(0.0..200.0),
        );
        let mut s1 = AccessStats::new();
        let mut s2 = AccessStats::new();
        assert_eq!(
            sorted(tree.query_range(q, &mut s1)),
            sorted(oracle.query_range(q, &mut s2)),
            "query {q:?}"
        );
        // The tree should test no more items than the scan.
        assert!(s1.items_tested <= s2.items_tested);
    }
}

#[test]
fn bulk_load_matches_oracle() {
    let items = random_rects(2000, 3);
    let tree = RTree::bulk_load(items.clone(), RTreeParams::default());
    let oracle = NaiveIndex::new(items);
    assert_eq!(tree.len(), 2000);
    tree.check_invariants();

    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..100 {
        let x = rng.gen_range(0.0..1000.0);
        let y = rng.gen_range(0.0..1000.0);
        let q = Rect::centered(Point::new(x, y), 80.0, 80.0);
        let mut s1 = AccessStats::new();
        let mut s2 = AccessStats::new();
        assert_eq!(
            sorted(tree.query_range(q, &mut s1)),
            sorted(oracle.query_range(q, &mut s2))
        );
    }
}

#[test]
fn bulk_load_is_shallow() {
    // 2000 items at fanout 64: ⌈2000/64⌉ = 32 leaves → height 2.
    let tree = RTree::bulk_load(random_rects(2000, 5), RTreeParams::default());
    assert_eq!(tree.height(), 2);
    // Bulk loading a handful of items yields a single leaf.
    let small = RTree::bulk_load(random_rects(10, 6), RTreeParams::default());
    assert_eq!(small.height(), 1);
}

#[test]
fn bulk_load_empty() {
    let tree: RTree<usize> = RTree::bulk_load(Vec::new(), RTreeParams::default());
    assert!(tree.is_empty());
    let mut stats = AccessStats::new();
    assert!(tree
        .query_range(Rect::from_coords(0.0, 0.0, 1.0, 1.0), &mut stats)
        .is_empty());
}

#[test]
fn duplicate_extents_are_kept() {
    let mut tree = RTree::new(RTreeParams::new(4, 2));
    let r = Rect::from_point(Point::new(1.0, 1.0));
    for k in 0..10usize {
        tree.insert(r, k);
    }
    let mut stats = AccessStats::new();
    let hits = tree.query_range(r, &mut stats);
    assert_eq!(sorted(hits), (0..10).collect::<Vec<_>>());
    tree.check_invariants();
}

#[test]
fn query_visits_fraction_of_nodes_on_clustered_data() {
    // A small query over bulk-loaded clustered data must not touch most
    // leaves — this is the whole point of the index.
    let items = random_rects(5000, 7);
    let tree = RTree::bulk_load(items, RTreeParams::default());
    let mut stats = AccessStats::new();
    let _ = tree.query_range(
        Rect::centered(Point::new(500.0, 500.0), 20.0, 20.0),
        &mut stats,
    );
    assert!(
        (stats.nodes_visited as usize) < tree.node_count() / 4,
        "visited {} of {} nodes",
        stats.nodes_visited,
        tree.node_count()
    );
}

#[test]
#[should_panic(expected = "min_entries")]
fn params_reject_bad_fill() {
    let _ = RTreeParams::new(8, 5);
}

#[test]
fn a_clone_shares_every_node_and_a_write_copies_one_path() {
    let items = random_rects(5_000, 21);
    let parent = RTree::bulk_load(items.clone(), RTreeParams::default());
    let probe = Rect::from_coords(100.0, 100.0, 700.0, 700.0);
    let before = parent.query_range(probe, &mut AccessStats::new());
    let nodes = parent.node_count();
    let height = parent.height();

    let mut child = parent.clone();
    assert_eq!(child.shared_pages_with(&parent), (nodes, nodes));

    // A failed removal reads leaves and writes none.
    assert!(!child.remove(items[0].0, usize::MAX));
    assert_eq!(child.shared_pages_with(&parent), (nodes, nodes));

    // One removal, one insert: at most a root-to-leaf path each, plus
    // the sibling a split of a packed leaf adds.
    assert!(child.remove(items[7].0, items[7].1));
    child.insert(Rect::from_coords(300.0, 300.0, 305.0, 305.0), 9_999);
    let (shared, total) = child.shared_pages_with(&parent);
    assert!(total - shared <= 2 * height + 1, "{shared} of {total}");
    assert!(shared >= nodes - 2 * height, "{shared} of {nodes}");

    // The parent still answers, in the same order, what it answered.
    assert_eq!(parent.query_range(probe, &mut AccessStats::new()), before);
    assert_eq!(parent.check_invariants(), items.len());
    assert_eq!(child.check_invariants(), items.len());
    let got = child.query_range(probe, &mut AccessStats::new());
    assert!(got.contains(&9_999) && !got.contains(&items[7].1));
}
