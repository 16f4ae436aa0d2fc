//! Guttman's quadratic split.
//!
//! On overflow, pick the two entries whose combined MBR wastes the most
//! area as seeds, then greedily assign the rest to the group whose MBR
//! grows least, switching to forced assignment once a group must absorb
//! everything left to reach the minimum fill. Every decision reads the
//! entries' [`Bound::key`]; the entries themselves are moved, never
//! copied, so the routine serves any bound and payload.

use super::node::Bound;

/// Splits an overflowing entry list into two groups, each with at least
/// `min` entries: the seed first, then the entries in the order they
/// were picked.
pub fn quadratic_split<B: Bound, E>(mut entries: Vec<(B, E)>, min: usize) -> [Vec<(B, E)>; 2] {
    debug_assert!(entries.len() >= 2 * min, "cannot split below 2*min entries");
    let n = entries.len();

    // PickSeeds: maximise dead area of the pair's hull.
    let (mut s1, mut s2) = (0usize, 1usize);
    let mut worst = f64::NEG_INFINITY;
    for i in 0..n {
        for j in (i + 1)..n {
            let (a, b) = (entries[i].0.key(), entries[j].0.key());
            let d = a.hull(b).area() - a.area() - b.area();
            if d > worst {
                worst = d;
                s1 = i;
                s2 = j;
            }
        }
    }

    // Take the seeds out (the later one first, so `s1` stays valid);
    // what remains keeps its order.
    let seed2 = entries.remove(s2);
    let seed1 = entries.remove(s1);
    let mut rest = entries;
    let mut mbr1 = seed1.0.key();
    let mut mbr2 = seed2.0.key();
    let mut g1 = vec![seed1];
    let mut g2 = vec![seed2];

    while !rest.is_empty() {
        // Forced assignment to satisfy the minimum fill.
        let remaining = rest.len();
        if g1.len() + remaining == min {
            g1.append(&mut rest);
            break;
        }
        if g2.len() + remaining == min {
            g2.append(&mut rest);
            break;
        }

        // PickNext: the entry with the strongest preference.
        let mut pick = 0usize;
        let mut pick_diff = f64::NEG_INFINITY;
        for (i, (b, _)) in rest.iter().enumerate() {
            let r = b.key();
            let d1 = mbr1.hull(r).area() - mbr1.area();
            let d2 = mbr2.hull(r).area() - mbr2.area();
            let diff = (d1 - d2).abs();
            if diff > pick_diff {
                pick_diff = diff;
                pick = i;
            }
        }
        let e = rest.swap_remove(pick);
        let r = e.0.key();
        let d1 = mbr1.hull(r).area() - mbr1.area();
        let d2 = mbr2.hull(r).area() - mbr2.area();
        // Ties: smaller enlargement, then smaller area, then fewer entries.
        let to_g1 = match d1.partial_cmp(&d2).expect("finite areas") {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => {
                if mbr1.area() != mbr2.area() {
                    mbr1.area() < mbr2.area()
                } else {
                    g1.len() <= g2.len()
                }
            }
        };
        if to_g1 {
            mbr1 = mbr1.hull(r);
            g1.push(e);
        } else {
            mbr2 = mbr2.hull(r);
            g2.push(e);
        }
    }

    debug_assert!(g1.len() >= min && g2.len() >= min);
    [g1, g2]
}

#[cfg(test)]
mod tests {
    use super::super::node::hull;
    use super::*;
    use iloc_geometry::Rect;

    fn pt(x: f64, y: f64) -> Rect {
        Rect::from_coords(x, y, x, y)
    }

    #[test]
    fn split_separates_two_clusters() {
        // Two far-apart clusters of 4 points each must not be mixed.
        let mut entries = Vec::new();
        for k in 0..4 {
            entries.push((pt(k as f64, k as f64), k));
        }
        for k in 0..4 {
            entries.push((pt(100.0 + k as f64, 100.0 + k as f64), 10 + k));
        }
        let [g1, g2] = quadratic_split(entries, 2);
        let m1 = hull(&g1);
        let m2 = hull(&g2);
        assert!(!m1.overlaps(m2), "clusters should be disjoint after split");
        assert_eq!(g1.len() + g2.len(), 8);
    }

    #[test]
    fn split_respects_min_fill() {
        // 9 collinear near-identical points plus one outlier: the
        // outlier group must still be topped up to `min`.
        let mut entries: Vec<(Rect, usize)> =
            (0..9).map(|k| (pt(k as f64 * 0.01, 0.0), k)).collect();
        entries.push((pt(1000.0, 1000.0), 9));
        let min = 4;
        let [g1, g2] = quadratic_split(entries, min);
        assert!(g1.len() >= min && g2.len() >= min);
        assert_eq!(g1.len() + g2.len(), 10);
    }

    #[test]
    fn entries_mbr_hulls_all() {
        let entries = vec![(pt(0.0, 0.0), 0), (pt(5.0, -2.0), 1), (pt(3.0, 7.0), 2)];
        assert_eq!(hull(&entries), Rect::from_coords(0.0, -2.0, 5.0, 7.0));
    }
}
