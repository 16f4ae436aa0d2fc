//! Shared `RangeIndex` conformance suite.
//!
//! One generic scenario is run against every backend — `RTree`, `Pti`,
//! `NaiveIndex` — and checked against an independent
//! brute-force oracle (a plain `Vec`, *not* `NaiveIndex`, which is
//! itself under test). Covered per backend:
//!
//! * `query_range` and `query_range_scratch` (including a deliberately
//!   dirty, reused scratch) return the same candidate **set** as the
//!   oracle;
//! * for the two trees, both probe paths also return the candidates in
//!   the **order** of a plain recursive walk kept in this file, with
//!   the same `AccessStats` — nodes visited, entries tested,
//!   candidates — so a probe that scans nodes differently still has to
//!   count and emit what the textbook walk does;
//! * `insert` / `remove` keep queries equivalent to the oracle under
//!   interleaved churn, and `remove` reports presence correctly;
//! * degenerate extents (points, zero-width slivers) and
//!   boundary-straddling extents are stored and found, and degenerate
//!   windows — touching an entry's edge or corner exactly (overlap is
//!   closed), inverted, NaN, zero-width — answer as `Rect::overlaps`
//!   says.
//!
//! The PTI's threshold probe (Strategy 1 on top of the window) gets the
//! same reference check at every catalog level, bulk-loaded and after
//! churn, in [`pti_threshold_probe_replays_the_reference_walk`].
//!
//! Oracle comparisons are on sorted outputs; only the reference walk
//! pins an order.

use iloc_geometry::{Point, Rect};
use iloc_index::rtree::{Bound, Node, RTreeParams};
use iloc_index::{
    AccessStats, NaiveIndex, Pti, PtiParams, PtiQuery, RTree, RangeIndex, TraversalScratch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The space the scenario plays in (entries may straddle its border).
const SPACE: Rect = Rect::from_coords(0.0, 0.0, 1_000.0, 1_000.0);

/// A deterministic random extent: mostly small rectangles, some
/// degenerate points and slivers, a few straddling the space border.
fn random_extent(rng: &mut StdRng) -> Rect {
    let x = rng.gen_range(-20.0..SPACE.max.x + 20.0);
    let y = rng.gen_range(-20.0..SPACE.max.y + 20.0);
    match rng.gen_range(0..10) {
        // Degenerate point.
        0 => Rect::from_point(Point::new(x, y)),
        // Zero-width / zero-height sliver.
        1 => Rect::from_coords(x, y, x, y + rng.gen_range(1.0..30.0)),
        2 => Rect::from_coords(x, y, x + rng.gen_range(1.0..30.0), y),
        // Ordinary rectangle.
        _ => Rect::from_coords(
            x,
            y,
            x + rng.gen_range(0.5..40.0),
            y + rng.gen_range(0.5..40.0),
        ),
    }
}

/// Windows no random draw produces: for each of the first `edges`
/// entries, one touching its right edge and one touching its lower-left
/// corner from outside, exactly; then an inverted window, NaN windows
/// and zero-width / zero-height windows.
fn degenerate_windows(live: &[(Rect, u32)], edges: usize) -> Vec<Rect> {
    let nan = f64::NAN;
    let mut windows: Vec<Rect> = live
        .iter()
        .take(edges)
        .flat_map(|&(e, _)| {
            [
                Rect::from_coords(e.max.x, e.min.y - 1.0, e.max.x + 9.0, e.min.y + 1.0),
                Rect::from_coords(e.min.x - 9.0, e.min.y - 9.0, e.min.x, e.min.y),
            ]
        })
        .collect();
    windows.extend([
        Rect::from_coords(600.0, 600.0, 400.0, 400.0),
        Rect::from_coords(nan, 0.0, 1_000.0, 1_000.0),
        Rect::from_coords(nan, nan, nan, nan),
        Rect::from_coords(500.0, -50.0, 500.0, 1_050.0),
        Rect::from_coords(-50.0, 250.0, 1_050.0, 250.0),
    ]);
    windows
}

/// Sorted oracle answer over the live `(extent, item)` set.
fn oracle_answer(live: &[(Rect, u32)], query: Rect) -> Vec<u32> {
    let mut want: Vec<u32> = live
        .iter()
        .filter(|(r, _)| r.overlaps(query))
        .map(|&(_, item)| item)
        .collect();
    want.sort_unstable();
    want
}

/// The probe as a plain recursion: count the visit, test every leaf
/// entry with `keep`, and descend into the children `descend` admits —
/// in reverse entry order, which is the order a stack pops them.
/// Pushes the payloads of the kept entries into `out`.
fn reference_walk<'a, T: Copy + 'a, B: 'a>(
    node: &impl Fn(usize) -> &'a Node<T, B>,
    idx: usize,
    descend: &impl Fn(&B, usize) -> bool,
    keep: &impl Fn(Rect, &T) -> bool,
    stats: &mut AccessStats,
    out: &mut Vec<T>,
) {
    stats.nodes_visited += 1;
    match node(idx) {
        Node::Leaf(entries) => {
            for (key, item) in entries.iter() {
                stats.items_tested += 1;
                if keep(*key, item) {
                    stats.candidates += 1;
                    out.push(*item);
                }
            }
        }
        Node::Internal(children) => {
            for (bound, child) in children.iter().rev() {
                if descend(bound, *child) {
                    reference_walk(node, *child, descend, keep, stats, out);
                }
            }
        }
    }
}

/// A backend whose probe the reference walk can replay.
trait Replay: RangeIndex<u32> {
    /// `(stats, candidates in probe order)` of the reference walk for
    /// `query`; `None` for a backend without a tree.
    fn replay(&self, query: Rect) -> Option<(AccessStats, Vec<u32>)>;
}

impl Replay for NaiveIndex<u32> {
    fn replay(&self, _: Rect) -> Option<(AccessStats, Vec<u32>)> {
        None
    }
}

impl Replay for RTree<u32> {
    fn replay(&self, query: Rect) -> Option<(AccessStats, Vec<u32>)> {
        let mut stats = AccessStats::new();
        let mut out = Vec::new();
        if !self.is_empty() {
            reference_walk(
                &|idx| self.node(idx),
                self.root_index(),
                &|mbr: &Rect, _| mbr.overlaps(query),
                &|key, _| key.overlaps(query),
                &mut stats,
                &mut out,
            );
        }
        Some((stats, out))
    }
}

impl Replay for Pti<u32> {
    fn replay(&self, query: Rect) -> Option<(AccessStats, Vec<u32>)> {
        Some(pti_replay(
            self,
            &PtiQuery {
                expanded: query,
                p_expanded: query,
                threshold: 0.0,
            },
        ))
    }
}

/// Strategy 1 (p-bounds), as the paper states it: the expanded query
/// lies beyond `b` on some side.
fn strategy1_prunes(expanded: Rect, b: Rect) -> bool {
    expanded.min.x >= b.max.x
        || expanded.max.x <= b.min.x
        || expanded.min.y >= b.max.y
        || expanded.max.y <= b.min.y
}

/// `MBR(levels[k])` of the subtree at `idx`, recomputed from the rows
/// of the objects below it.
fn subtree_bound(pti: &Pti<u32>, idx: usize, k: usize) -> Rect {
    match pti.node(idx) {
        Node::Leaf(entries) => entries.iter().fold(Rect::EMPTY, |h, (_, (_, row))| {
            h.hull(pti.row(*row).rect(k))
        }),
        Node::Internal(children) => children.iter().fold(Rect::EMPTY, |h, (_, child)| {
            h.hull(subtree_bound(pti, *child, k))
        }),
    }
}

/// The reference walk of a PTI probe: Strategy 2 on the 0-bounds, then
/// Strategy 1 at the largest stored level `k ≤ Qp` (none at `k = 0`).
fn pti_replay(pti: &Pti<u32>, q: &PtiQuery) -> (AccessStats, Vec<u32>) {
    let k = pti.levels().partition_point(|&l| l <= q.threshold) - 1;
    let mut stats = AccessStats::new();
    let mut out = Vec::new();
    if !pti.is_empty() {
        reference_walk(
            &|idx| pti.node(idx),
            pti.root_index(),
            &|bound, child| {
                bound.key().overlaps(q.p_expanded)
                    && (k == 0 || !strategy1_prunes(q.expanded, subtree_bound(pti, child, k)))
            },
            &|key, &(_, row)| {
                key.overlaps(q.p_expanded)
                    && (k == 0 || !strategy1_prunes(q.expanded, pti.row(row).rect(k)))
            },
            &mut stats,
            &mut out,
        );
    }
    (stats, out.into_iter().map(|(item, _)| item).collect())
}

/// Asserts both probe paths of `index` agree with the oracle on
/// `query`, and with the reference walk where there is one. `scratch`
/// is reused (dirty) across calls on purpose.
fn check_query<I: Replay>(
    index: &I,
    live: &[(Rect, u32)],
    query: Rect,
    scratch: &mut TraversalScratch,
    ctx: &str,
) {
    let want = oracle_answer(live, query);
    let replayed = index.replay(query);
    let check = |path: &str, mut got: Vec<u32>, stats: AccessStats| {
        if let Some((want_stats, want_order)) = &replayed {
            assert_eq!(
                &got, want_order,
                "{ctx}: {path} left the reference walk's order on {query:?}"
            );
            assert_eq!(
                stats, *want_stats,
                "{ctx}: {path} counted other accesses than the reference walk on {query:?}"
            );
        }
        got.sort_unstable();
        assert_eq!(got, want, "{ctx}: {path} diverged on {query:?}");
    };

    let mut stats = AccessStats::new();
    let got = index.query_range(query, &mut stats);
    check("query_range", got, stats);

    let mut stats = AccessStats::new();
    let mut got = Vec::new();
    index.query_range_scratch(query, &mut stats, scratch, &mut got);
    check("query_range_scratch", got, stats);
}

/// The conformance scenario, generic over how the backend is built
/// from an initial entry set.
fn conformance<I: Replay>(name: &str, build: impl Fn(Vec<(Rect, u32)>) -> I) {
    let mut rng = StdRng::seed_from_u64(0x1D0C);
    let mut scratch = TraversalScratch::new();

    // Phase 0: empty index answers nothing and rejects removes.
    let mut index = build(Vec::new());
    assert_eq!(index.len(), 0);
    assert!(index.is_empty());
    check_query(&index, &[], SPACE, &mut scratch, name);
    assert!(!index.remove(Rect::from_point(Point::new(1.0, 1.0)), 7));

    // Phase 1: bulk construction from a random scene.
    let mut next_item = 0u32;
    let mut live: Vec<(Rect, u32)> = (0..400)
        .map(|_| {
            let e = (random_extent(&mut rng), next_item);
            next_item += 1;
            e
        })
        .collect();
    let mut index = build(live.clone());
    assert_eq!(index.len(), live.len());

    let queries: Vec<Rect> = (0..60)
        .map(|_| random_extent(&mut rng))
        .chain([
            SPACE,
            Rect::from_point(Point::new(500.0, 500.0)),
            Rect::from_coords(-50.0, -50.0, -10.0, -10.0),
            Rect::from_coords(990.0, 990.0, 1_050.0, 1_050.0),
        ])
        .chain(degenerate_windows(&live, 12))
        .collect();
    for &q in &queries {
        check_query(&index, &live, q, &mut scratch, name);
    }

    // Phase 2: interleaved insert/remove churn, checking queries and
    // remove's return value as we go.
    for step in 0..1_200 {
        let grow = live.len() < 40 || rng.gen_bool(0.55);
        if grow {
            let extent = random_extent(&mut rng);
            index.insert(extent, next_item);
            live.push((extent, next_item));
            next_item += 1;
        } else {
            let k = rng.gen_range(0..live.len());
            let (extent, item) = live.swap_remove(k);
            assert!(
                index.remove(extent, item),
                "{name}: step {step}: failed to remove live item {item}"
            );
            // A second remove of the same entry must miss.
            assert!(
                !index.remove(extent, item),
                "{name}: step {step}: double-removed item {item}"
            );
        }
        assert_eq!(index.len(), live.len(), "{name}: step {step}: len drifted");
        if step % 100 == 0 {
            check_query(
                &index,
                &live,
                random_extent(&mut rng),
                &mut scratch,
                &format!("{name} step {step}"),
            );
        }
    }
    for &q in queries.iter().chain(&degenerate_windows(&live, 12)) {
        check_query(&index, &live, q, &mut scratch, &format!("{name} churned"));
    }

    // Phase 3: drain to empty; the index stays usable.
    for (extent, item) in live.drain(..) {
        assert!(index.remove(extent, item));
    }
    assert!(index.is_empty());
    check_query(&index, &[], SPACE, &mut scratch, name);
    index.insert(Rect::from_point(Point::new(3.0, 4.0)), 999_999);
    assert_eq!(index.len(), 1);
    check_query(
        &index,
        &[(Rect::from_point(Point::new(3.0, 4.0)), 999_999)],
        SPACE,
        &mut scratch,
        name,
    );
}

#[test]
fn rtree_conforms() {
    conformance("rtree", |entries| {
        RTree::bulk_load(entries, RTreeParams::default())
    });
}

#[test]
fn rtree_small_fanout_conforms() {
    // A tiny fanout forces deep trees, frequent splits and condenses.
    conformance("rtree(4,2)", |entries| {
        let mut tree = RTree::new(RTreeParams::new(4, 2));
        for (extent, item) in entries {
            RTree::insert(&mut tree, extent, item);
        }
        tree
    });
}

#[test]
fn pti_single_level_conforms() {
    conformance("pti[0]", |entries| {
        Pti::bulk_load(
            vec![0.0],
            entries.into_iter().map(|(r, t)| (vec![r], t)).collect(),
            PtiParams::default(),
        )
    });
}

#[test]
fn pti_multi_level_conforms() {
    // Multi-level catalog with the region replicated per level (the
    // conservative bound the trait-level insert also uses).
    let levels = vec![0.0, 0.25, 0.5];
    conformance("pti[0,.25,.5]", move |entries| {
        Pti::bulk_load(
            levels.clone(),
            entries.into_iter().map(|(r, t)| (vec![r; 3], t)).collect(),
            PtiParams::default(),
        )
    });
}

#[test]
fn naive_conforms() {
    conformance("naive", NaiveIndex::new);
}

/// Uniform-pdf p-bounds: the region shrunk linearly per level, so
/// Strategy 1 has something to prune.
fn shrunk_bounds(levels: &[f64], region: Rect) -> Vec<Rect> {
    levels
        .iter()
        .map(|&p| region.expand(-p * region.width(), -p * region.height()))
        .collect()
}

#[test]
fn pti_threshold_probe_replays_the_reference_walk() {
    let levels = vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    let mut rng = StdRng::seed_from_u64(0x571);
    let mut live: Vec<(Rect, u32)> = (0..600).map(|id| (random_extent(&mut rng), id)).collect();
    let mut pti = Pti::bulk_load(
        levels.clone(),
        live.iter()
            .map(|&(r, id)| (shrunk_bounds(&levels, r), id))
            .collect(),
        PtiParams::default(),
    );
    let mut scratch = TraversalScratch::new();
    let windows: Vec<Rect> = (0..40)
        .map(|_| {
            let c = Point::new(rng.gen_range(0.0..1_000.0), rng.gen_range(0.0..1_000.0));
            Rect::centered(c, rng.gen_range(10.0..150.0), rng.gen_range(10.0..150.0))
        })
        .chain([SPACE])
        .collect();

    let mut probe_all = |pti: &Pti<u32>, live: &[(Rect, u32)], phase: &str| {
        let mut pruned = 0;
        for expanded in windows.iter().copied().chain(degenerate_windows(live, 12)) {
            for (threshold, inset) in [(0.0, 0.0), (0.15, -1.0), (0.3, -2.0), (0.5, -3.0)] {
                let q = PtiQuery {
                    expanded,
                    p_expanded: expanded.expand(inset, inset),
                    threshold,
                };
                let (want_stats, want) = pti_replay(pti, &q);
                let mut stats = AccessStats::new();
                let mut got = Vec::new();
                pti.query_scratch(&q, &mut stats, &mut scratch, &mut got);
                assert_eq!(
                    got, want,
                    "{phase}: order at Qp {threshold} on {expanded:?}"
                );
                assert_eq!(
                    stats, want_stats,
                    "{phase}: counts at Qp {threshold} on {expanded:?}"
                );
                if threshold > 0.0 {
                    pruned += oracle_answer(live, q.p_expanded).len() - got.len();
                }
            }
        }
        // Strategy 1 ran: it dropped objects the window alone kept.
        assert!(pruned > 0, "{phase}: Strategy 1 pruned nothing");
    };
    probe_all(&pti, &live, "bulk-loaded");

    let mut next_id = live.len() as u32;
    for _ in 0..1_500 {
        if live.len() < 100 || rng.gen_bool(0.5) {
            let r = random_extent(&mut rng);
            pti.insert(shrunk_bounds(&levels, r), next_id);
            live.push((r, next_id));
            next_id += 1;
        } else {
            let (r, id) = live.swap_remove(rng.gen_range(0..live.len()));
            assert!(pti.remove(r, id));
        }
    }
    assert_eq!(pti.check_invariants(), live.len());
    probe_all(&pti, &live, "churned");
}
