//! The PTI is the R-tree with richer bounds — one tree, two bound
//! types — and these two tests hold it to that.
//!
//! * [`pti_and_rtree_stay_one_shape_under_churn`]: an `RTree` and a
//!   multi-level `Pti` fed the same inserts, moves and departures make
//!   the same structural decisions (their keys are the same
//!   rectangles), so they must stay the same tree: same invariants,
//!   fill factor included, and the same node visits for the same
//!   threshold-0 probes. When the PTI was a hand-copied second tree
//!   without CondenseTree it visited 1.4× the nodes here after the
//!   departures (971 against 698), 2.1× at 20,000 objects.
//! * [`shapes_are_the_two_tree_parents`]: the constants were produced
//!   by running this body when there still were two implementations;
//!   bulk-loaded shapes (every node-access column of Figures 9–12) and
//!   the plain R-tree's dynamic shape (split output order, orphan
//!   re-insertion order) must not have moved in the merge.

use iloc_geometry::{Point, Rect};
use iloc_index::{AccessStats, Pti, PtiParams, PtiQuery, RTree, RTreeParams, RangeIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LEVELS: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
const SPACE: f64 = 10_000.0;

/// A 20×20 uncertainty region somewhere in the space.
fn random_region(rng: &mut StdRng) -> Rect {
    let x = rng.gen_range(0.0..SPACE - 20.0);
    let y = rng.gen_range(0.0..SPACE - 20.0);
    Rect::from_coords(x, y, x + 20.0, y + 20.0)
}

/// Uniform-pdf p-bounds of a region: a linear shrink per level.
fn uniform_bounds(region: Rect) -> Vec<Rect> {
    LEVELS
        .iter()
        .map(|&p| region.expand(-p * region.width(), -p * region.height()))
        .collect()
}

/// `n` seeded 300×300 probe rectangles.
fn probes(seed: u64, n: usize) -> Vec<Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let c = Point::new(rng.gen_range(0.0..SPACE), rng.gen_range(0.0..SPACE));
            Rect::centered(c, 300.0, 300.0)
        })
        .collect()
}

/// What a probe set sees of a tree's shape: the nodes it visited plus
/// an order-sensitive fold of the candidate sequence (candidates come
/// out in traversal order, so two different shapes disagree on it
/// even where their visit totals happen to coincide).
fn fold(stats: AccessStats, candidates: &[u32]) -> (u64, u64) {
    let order = candidates
        .iter()
        .fold(0u64, |h, &c| h.wrapping_mul(31).wrapping_add(c as u64));
    (stats.nodes_visited, order)
}

fn rtree_view(tree: &RTree<u32>, probes: &[Rect]) -> (u64, u64) {
    let mut stats = AccessStats::new();
    let mut out = Vec::new();
    for &q in probes {
        tree.query_range_into(q, &mut stats, &mut out);
    }
    fold(stats, &out)
}

/// Probes at `threshold`, the p-expanded query a fixed inset of the
/// expanded one (equal to it at threshold 0, as the engines pass it).
fn pti_view(pti: &Pti<u32>, probes: &[Rect], threshold: f64) -> (u64, u64) {
    let mut stats = AccessStats::new();
    let mut out = Vec::new();
    for &expanded in probes {
        let inset = if threshold > 0.0 { -40.0 } else { 0.0 };
        let q = PtiQuery {
            expanded,
            p_expanded: expanded.expand(inset, inset),
            threshold,
        };
        pti.query_into(&q, &mut stats, &mut out);
    }
    fold(stats, &out)
}

#[test]
fn pti_and_rtree_stay_one_shape_under_churn() {
    const N: usize = 3_000;
    let mut rng = StdRng::seed_from_u64(0x19_C0DE);
    let probes = probes(77, 300);
    let mut live: Vec<(Rect, u32)> = (0..N as u32)
        .map(|id| (random_region(&mut rng), id))
        .collect();

    let mut rtree: RTree<u32> = RTree::new(RTreeParams::default());
    let mut pti: Pti<u32> = Pti::bulk_load(LEVELS.to_vec(), Vec::new(), PtiParams::default());
    let same_shape = |phase: &str, rtree: &RTree<u32>, pti: &Pti<u32>, live: usize| {
        // Fill factor and exact per-level bounds, on both.
        assert_eq!(rtree.check_invariants(), live, "{phase}: r-tree");
        assert_eq!(pti.check_invariants(), live, "{phase}: pti");
        assert_eq!(
            rtree_view(rtree, &probes),
            pti_view(pti, &probes, 0.0),
            "{phase}: the PTI is no longer the R-tree's shape"
        );
    };

    for &(region, id) in &live {
        rtree.insert(region, id);
        pti.insert(uniform_bounds(region), id);
    }
    same_shape("inserted", &rtree, &pti, N);

    for _ in 0..3 {
        for entry in live.iter_mut() {
            let (old, id) = *entry;
            let new = random_region(&mut rng);
            assert!(rtree.remove(old, id) && pti.remove(old, id));
            rtree.insert(new, id);
            pti.insert(uniform_bounds(new), id);
            entry.0 = new;
        }
    }
    same_shape("moved", &rtree, &pti, N);

    while live.len() > N / 10 {
        let (region, id) = live.swap_remove(rng.gen_range(0..live.len()));
        assert!(rtree.remove(region, id) && pti.remove(region, id));
    }
    same_shape("departed", &rtree, &pti, N / 10);
}

#[test]
fn shapes_are_the_two_tree_parents() {
    let mut rng = StdRng::seed_from_u64(0x60_1DE2);
    let probes = probes(78, 400);
    let regions: Vec<(Rect, u32)> = (0..6_000).map(|id| (random_region(&mut rng), id)).collect();

    // Bulk-loaded: both trees pack the same STR tiles.
    let rtree = RTree::<u32>::bulk_load(regions.clone(), RTreeParams::default());
    let pti = Pti::<u32>::bulk_load(
        LEVELS.to_vec(),
        regions
            .iter()
            .map(|&(r, id)| (uniform_bounds(r), id))
            .collect(),
        PtiParams::default(),
    );
    assert_eq!(rtree_view(&rtree, &probes), GOLD_BULK);
    assert_eq!(pti_view(&pti, &probes, 0.0), GOLD_BULK);
    assert_eq!(pti_view(&pti, &probes, 0.3), GOLD_PTI_03);

    // A fixed trace over the bulk-loaded R-tree (what every serving
    // workload does to it), then over a small-fanout tree built by
    // inserts, where splits and condenses are frequent and deep.
    let mut served = rtree;
    let mut small: RTree<u32> = RTree::new(RTreeParams::new(8, 3));
    let mut live = regions;
    let mut next_id = live.len() as u32;
    for &(r, id) in &live {
        small.insert(r, id);
    }
    for _ in 0..9_000 {
        if live.len() < 500 || rng.gen_bool(0.4) {
            let r = random_region(&mut rng);
            served.insert(r, next_id);
            small.insert(r, next_id);
            live.push((r, next_id));
            next_id += 1;
        } else {
            let (r, id) = live.swap_remove(rng.gen_range(0..live.len()));
            assert!(served.remove(r, id) && small.remove(r, id));
        }
    }
    assert_eq!(served.check_invariants(), live.len());
    assert_eq!(small.check_invariants(), live.len());
    assert_eq!(rtree_view(&served, &probes), GOLD_TRACE_SERVED);
    assert_eq!(rtree_view(&small, &probes), GOLD_TRACE_SMALL);
}

/// `(nodes_visited, candidate-order fold)` at commit 1daed17, the last
/// one with two tree implementations.
const GOLD_BULK: (u64, u64) = (1847, 10453078167418509285);
const GOLD_PTI_03: (u64, u64) = (1773, 2068702782906662497);
const GOLD_TRACE_SERVED: (u64, u64) = (2003, 14500301731823273433);
const GOLD_TRACE_SMALL: (u64, u64) = (5725, 18360475794734770445);
