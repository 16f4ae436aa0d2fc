//! The **Prune** stage: object-level elimination before any
//! probability integral (paper Section 5.2).
//!
//! The paper's three strategies are applied in their published order,
//! each elimination attributed to its own [`QueryStats`] counter — that
//! is how the experiments report pruning power per strategy (Figure
//! 12's discussion). They read a candidate's p-bounds where the engine
//! keeps them — in the PTI's level table, through [`StoredBounds`].

use iloc_index::{LevelRow, Pages, Pti};

use crate::eval::constrained::{try_prune, PruneContext, PruneOutcome};
use crate::stats::QueryStats;

/// The stored p-bounds of an engine's object slots: the PTI's level
/// table, reached through the engine's slot → row map.
#[derive(Debug, Clone, Copy)]
pub struct StoredBounds<'a> {
    /// The index holding the level table.
    pub index: &'a Pti<u32>,
    /// Object slot → table row.
    pub rows: &'a Pages<u32>,
}

impl<'a> StoredBounds<'a> {
    /// The bounds of the object in `slot`.
    #[inline]
    pub fn of(&self, slot: u32) -> LevelRow<'a> {
        self.index.row(self.rows[slot as usize])
    }
}

/// Runs the Section 5.2 stack — Strategy 2 (cheapest), then Strategy
/// 1, then the Strategy 3 product rule — on the candidate in `slot`;
/// `true` eliminates it, counted under the strategy that fired.
#[inline]
pub(crate) fn prunes(
    ctx: &PruneContext,
    bounds: &StoredBounds<'_>,
    slot: u32,
    stats: &mut QueryStats,
) -> bool {
    match try_prune(&bounds.of(slot), ctx) {
        PruneOutcome::Strategy1 => stats.pruned_s1 += 1,
        PruneOutcome::Strategy2 => stats.pruned_s2 += 1,
        PruneOutcome::Strategy3 => stats.pruned_s3 += 1,
        PruneOutcome::Keep => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{CiuqStrategy, Issuer, RangeSpec};
    use iloc_geometry::Rect;
    use iloc_uncertainty::{UncertainObject, UniformPdf};

    /// `n` small objects swept across the space.
    fn sweep(n: u64) -> crate::UncertainEngine {
        crate::UncertainEngine::build(
            (0..n)
                .map(|k| {
                    let c = iloc_geometry::Point::new((k / 40) as f64 * 5.0, (k % 40) as f64 * 5.0);
                    UncertainObject::new(k, UniformPdf::new(Rect::centered(c, 8.0, 8.0)))
                })
                .collect(),
        )
    }

    #[test]
    fn chain_matches_legacy_try_prune_order_and_counters() {
        let issuer = Issuer::uniform(Rect::from_coords(0.0, 0.0, 100.0, 100.0));
        let range = RangeSpec::square(20.0);
        let ctx = PruneContext::new(&issuer, range, 0.5);
        // The stack, reading the engine's stored bounds, must agree
        // with the combined test over each object's own catalog
        // everywhere, with counters attributing each elimination to
        // the same strategy.
        let engine = sweep(1600);
        let bounds = engine.stored_bounds();
        for (slot, o) in engine.objects().iter().enumerate() {
            let mut stats = QueryStats::new();
            let chained = prunes(&ctx, &bounds, slot as u32, &mut stats);
            let legacy = try_prune(&o.catalog(), &ctx);
            assert_eq!(chained, legacy != PruneOutcome::Keep, "at {:?}", o.region());
            match legacy {
                PruneOutcome::Strategy1 => assert_eq!(stats.pruned_s1, 1),
                PruneOutcome::Strategy2 => assert_eq!(stats.pruned_s2, 1),
                PruneOutcome::Strategy3 => assert_eq!(stats.pruned_s3, 1),
                PruneOutcome::Keep => {
                    assert_eq!(stats.pruned_s1 + stats.pruned_s2 + stats.pruned_s3, 0)
                }
            }
        }
    }

    #[test]
    fn empty_chain_keeps_everything() {
        // A plan without the stack (the paper's R-tree baseline)
        // refines every candidate, at a threshold where the stack
        // prunes.
        let engine = sweep(1600);
        let issuer = Issuer::uniform(Rect::from_coords(0.0, 0.0, 100.0, 100.0));
        let range = RangeSpec::square(20.0);
        let baseline = engine.ciuq(&issuer, range, 0.5, CiuqStrategy::RTreeMinkowski);
        let s = &baseline.stats;
        assert_eq!(s.pruned_s1 + s.pruned_s2 + s.pruned_s3, 0);
        assert_eq!(s.prob_evals, s.access.candidates);
        let pruned = engine.ciuq(&issuer, range, 0.5, CiuqStrategy::PtiPExpanded);
        assert!(pruned.stats.prob_evals < s.prob_evals);
        assert!(baseline.same_matches(&pruned));
    }
}
