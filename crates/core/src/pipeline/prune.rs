//! The **Prune** stage: object-level elimination before any
//! probability integral (paper Section 5.2).
//!
//! The paper's three strategies are applied in their published order,
//! each elimination attributed to its own [`QueryStats`] counter — that
//! is how the experiments report pruning power per strategy (Figure
//! 12's discussion). They read a candidate's p-bounds where the engine
//! keeps them — in the PTI's level table, through [`StoredBounds`].

use std::fmt;
use std::marker::PhantomData;

use iloc_index::{LevelRow, Pages, Pti};
use iloc_uncertainty::UncertainObject;

use crate::eval::constrained::{try_prune, PruneContext, PruneOutcome};
use crate::stats::QueryStats;

use super::PreparedQuery;

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

/// The prune stage of a plan: the paper's Section-5.2 stack, or
/// nothing. The first strategy that fires eliminates the candidate
/// (cheapest-first, as in the paper).
///
/// The stack is held **inline** (one copied [`PruneContext`] and the
/// bounds it reads), so assembling a constrained plan performs no heap
/// allocation — part of the query hot path's zero-allocation
/// invariant.
pub struct PruneChain<'p, O> {
    section52: Option<(PruneContext<'p>, StoredBounds<'p>)>,
    object: PhantomData<fn(&O)>,
}

impl<'p, O> PruneChain<'p, O> {
    /// The empty chain (unconstrained queries, and the paper's R-tree
    /// baseline which refines every candidate).
    pub fn none() -> Self {
        PruneChain {
            section52: None,
            object: PhantomData,
        }
    }

    /// Number of stages (the Section-5.2 stack counts as its three
    /// strategies).
    pub fn len(&self) -> usize {
        self.section52.map_or(0, |_| 3)
    }

    /// `true` when no stage is installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs the chain on the candidate in `slot`; `true` eliminates
    /// it. The strategies read only the slot's stored bounds and the
    /// chain's own context, not `query` or `object`.
    #[inline]
    pub fn try_prune(
        &self,
        _query: &PreparedQuery<'_>,
        slot: u32,
        _object: &O,
        stats: &mut QueryStats,
    ) -> bool {
        let Some((ctx, stored)) = &self.section52 else {
            return false;
        };
        match try_prune(&stored.of(slot), ctx) {
            PruneOutcome::Strategy1 => stats.pruned_s1 += 1,
            PruneOutcome::Strategy2 => stats.pruned_s2 += 1,
            PruneOutcome::Strategy3 => stats.pruned_s3 += 1,
            PruneOutcome::Keep => return false,
        }
        true
    }
}

impl<'p> PruneChain<'p, UncertainObject> {
    /// The paper's Section 5.2 stack in its published order —
    /// Strategy 2 (cheapest), then Strategy 1, then the Strategy 3
    /// product rule — over the candidates' stored `bounds`.
    /// Allocation-free: the chain is the copied context.
    pub fn section_5_2(ctx: PruneContext<'p>, bounds: StoredBounds<'p>) -> Self {
        PruneChain {
            section52: Some((ctx, bounds)),
            object: PhantomData,
        }
    }
}

impl<O> fmt::Debug for PruneChain<'_, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stages = if self.section52.is_some() {
            &[
                "strategy2-p-expanded",
                "strategy1-tail",
                "strategy3-product",
            ][..]
        } else {
            &[]
        };
        f.debug_list().entries(stages.iter().copied()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::{minkowski_query, p_expanded_query};
    use crate::query::{Issuer, RangeSpec};
    use iloc_geometry::Rect;
    use iloc_uncertainty::UniformPdf;

    #[test]
    fn chain_matches_legacy_try_prune_order_and_counters() {
        let issuer = Issuer::uniform(Rect::from_coords(0.0, 0.0, 100.0, 100.0));
        let range = RangeSpec::square(20.0);
        let qp = 0.5;
        let expanded = minkowski_query(&issuer, range);
        let (_, p_expanded) = p_expanded_query(&issuer, range, qp);
        let ctx = PruneContext {
            qp,
            expanded,
            p_expanded,
            issuer: &issuer,
            range,
        };
        // Sweep a small object across the space; the chain, reading
        // the engine's stored bounds, must agree with the legacy
        // combined test over each object's own catalog everywhere, with
        // counters attributing each elimination to the same strategy.
        let objects: Vec<UncertainObject> = (0..1600u64)
            .map(|k| {
                let c = iloc_geometry::Point::new((k / 40) as f64 * 5.0, (k % 40) as f64 * 5.0);
                UncertainObject::new(k, UniformPdf::new(Rect::centered(c, 8.0, 8.0)))
            })
            .collect();
        let engine = crate::UncertainEngine::build(objects);
        let chain = PruneChain::section_5_2(ctx, engine.stored_bounds());
        assert_eq!(chain.len(), 3);
        let query = PreparedQuery::new(&issuer, range);
        for (slot, o) in engine.objects().iter().enumerate() {
            let mut stats = QueryStats::new();
            let chained = chain.try_prune(&query, slot as u32, o, &mut stats);
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
        let issuer = Issuer::uniform(Rect::from_coords(0.0, 0.0, 10.0, 10.0));
        let query = PreparedQuery::new(&issuer, RangeSpec::square(1.0));
        let chain: PruneChain<'_, UncertainObject> = PruneChain::none();
        assert!(chain.is_empty());
        let far = UncertainObject::new(
            1u64,
            UniformPdf::new(Rect::from_coords(900.0, 900.0, 910.0, 910.0)),
        );
        let mut stats = QueryStats::new();
        assert!(!chain.try_prune(&query, 0, &far, &mut stats));
    }
}
