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
//! * `insert` / `remove` keep queries equivalent to the oracle under
//!   interleaved churn, and `remove` reports presence correctly;
//! * degenerate extents (points, zero-width slivers) and
//!   boundary-straddling extents are stored and found.
//!
//! Candidate *order* is backend-specific (the query pipeline sorts),
//! so all comparisons are on sorted outputs.

use iloc_geometry::{Point, Rect};
use iloc_index::rtree::RTreeParams;
use iloc_index::{AccessStats, NaiveIndex, Pti, PtiParams, RTree, RangeIndex, TraversalScratch};
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

/// Asserts both probe paths of `index` agree with the oracle on
/// `query`. `scratch` is reused (dirty) across calls on purpose.
fn check_query<I: RangeIndex<u32>>(
    index: &I,
    live: &[(Rect, u32)],
    query: Rect,
    scratch: &mut TraversalScratch,
    ctx: &str,
) {
    let want = oracle_answer(live, query);

    let mut stats = AccessStats::new();
    let mut got = index.query_range(query, &mut stats);
    got.sort_unstable();
    assert_eq!(got, want, "{ctx}: query_range diverged on {query:?}");

    let mut stats = AccessStats::new();
    let mut got_scratch = Vec::new();
    index.query_range_scratch(query, &mut stats, scratch, &mut got_scratch);
    got_scratch.sort_unstable();
    assert_eq!(
        got_scratch, want,
        "{ctx}: query_range_scratch diverged on {query:?}"
    );
}

/// The conformance scenario, generic over how the backend is built
/// from an initial entry set.
fn conformance<I: RangeIndex<u32>>(name: &str, build: impl Fn(Vec<(Rect, u32)>) -> I) {
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
    for &q in &queries {
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
