//! Object-level pruning for constrained queries (paper Section 5.2).
//!
//! Given a C-IUQ with threshold `Qp`, each candidate uncertain object
//! is put through three increasingly clever tests before any
//! probability integral is evaluated:
//!
//! * **Strategy 1** — if the region the object could possibly qualify
//!   from, `Ui ∩ (R ⊕ U0)`, lies entirely in one of the object's
//!   `m`-tails (beyond `ri(m)` / `li(m)` / `ti(m)` / `bi(m)`) for the
//!   largest stored `m ≤ Qp`, then `pi ≤ m ≤ Qp`: prune.
//! * **Strategy 2** — if `Ui` lies completely outside the issuer's
//!   `Qp`-expanded query, every dual point of the object has `Q < Qp`,
//!   hence `pi < Qp`: prune.
//! * **Strategy 3** — when neither single test fires, combine them:
//!   find the smallest stored `dmin ≥ Qp` whose tail test passes and
//!   the smallest catalog level `qmin ≥ Qp` whose expanded-query test
//!   passes; then `pi ≤ qmin · dmin`, so if `qmin · dmin < Qp`: prune.
//!   The issuer's side of that search is computed once per query, at
//!   the [`DEFAULT_LEVELS`] `≥ Qp` ([`PruneContext::new`]).
//!
//! The tests read a candidate's p-bounds through [`PBounds`]: for a
//! stored object that is a row of the PTI's level table
//! ([`iloc_index::LevelRow`], handed out by
//! [`crate::UncertainEngine::bounds`]); for a free-standing object, the
//! catalog [`iloc_uncertainty::UncertainObject::catalog`] computes.

use iloc_geometry::Rect;
use iloc_index::LevelRow;
use iloc_uncertainty::catalog::DEFAULT_LEVELS;
use iloc_uncertainty::UCatalog;

use crate::expand::{minkowski_query, p_expanded_query};
use crate::query::{Issuer, RangeSpec};

/// Pre-computed per-query pruning context shared by all candidates.
#[derive(Debug, Clone, Copy)]
pub struct PruneContext {
    /// Probability threshold `Qp`.
    pub qp: f64,
    /// `R ⊕ U0`.
    pub expanded: Rect,
    /// The issuer's `Qp`-expanded query, cut at `Qp`
    /// ([`p_expanded_query`]).
    pub p_expanded: Rect,
    /// Strategy 3's `qmin` candidates: the issuer's p-expanded queries
    /// at the [`DEFAULT_LEVELS`] `≥ Qp`, ascending; the first
    /// `qmin_len` are set.
    qmin: [(f64, Rect); DEFAULT_LEVELS.len()],
    qmin_len: usize,
}

impl PruneContext {
    /// The context of a constrained query at threshold `qp`: the
    /// issuer's expanded and `qp`-expanded queries, and its p-expanded
    /// queries at the catalog levels `≥ qp` that Strategy 3 searches.
    pub fn new(issuer: &Issuer, range: RangeSpec, qp: f64) -> Self {
        let mut qmin = [(0.0, Rect::EMPTY); DEFAULT_LEVELS.len()];
        let mut qmin_len = 0;
        for p in DEFAULT_LEVELS.into_iter().filter(|&p| p >= qp) {
            qmin[qmin_len] = (p, p_expanded_query(issuer, range, p));
            qmin_len += 1;
        }
        // At a catalog level the `qp`-expanded query is the first of
        // them; a cut costs four quantiles, bisected for most pdfs.
        let p_expanded = match qmin[..qmin_len].first() {
            Some(&(p, window)) if p == qp => window,
            _ => p_expanded_query(issuer, range, qp),
        };
        PruneContext {
            qp,
            expanded: minkowski_query(issuer, range),
            p_expanded,
            qmin,
            qmin_len,
        }
    }
}

/// Which test, if any, eliminated the candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneOutcome {
    /// Object's p-bound tail test (Strategy 1).
    Strategy1,
    /// Issuer's p-expanded-query test (Strategy 2).
    Strategy2,
    /// Product rule `qmin · dmin < Qp` (Strategy 3).
    Strategy3,
    /// Not prunable without computing `pi`.
    Keep,
}

/// One object's stored p-bounds, ascending in `p` from the 0-bound
/// (the uncertainty region `Ui`).
pub trait PBounds {
    /// Number of stored levels (at least one: level 0).
    fn levels(&self) -> usize;

    /// The `k`-th stored tail mass.
    fn p(&self, k: usize) -> f64;

    /// The `k`-th stored bound; `rect(0)` is `Ui`.
    fn rect(&self, k: usize) -> Rect;
}

impl PBounds for LevelRow<'_> {
    #[inline]
    fn levels(&self) -> usize {
        LevelRow::levels(self).len()
    }

    #[inline]
    fn p(&self, k: usize) -> f64 {
        LevelRow::levels(self)[k]
    }

    #[inline]
    fn rect(&self, k: usize) -> Rect {
        LevelRow::rect(self, k)
    }
}

impl PBounds for UCatalog {
    fn levels(&self) -> usize {
        self.len()
    }

    fn p(&self, k: usize) -> f64 {
        self.bounds()[k].p
    }

    fn rect(&self, k: usize) -> Rect {
        self.bounds()[k].rect
    }
}

/// `true` when `region` lies entirely in one of `bound`'s four tails
/// (the side tests shared by Strategies 1 and 3 and by the PTI).
#[inline]
fn in_tail(region: Rect, bound: Rect) -> bool {
    region.min.x >= bound.max.x
        || region.max.x <= bound.min.x
        || region.min.y >= bound.max.y
        || region.max.y <= bound.min.y
}

/// Strategy 1 in isolation: the possible-qualification region
/// `Ui ∩ (R ⊕ U0)` lies in a `≤ Qp` tail of the object's own pdf
/// (or is empty, in which case Lemma 1 already rules the object out).
pub fn strategy1_prunes(bounds: &impl PBounds, ctx: &PruneContext) -> bool {
    let overlap = bounds.rect(0).intersect(ctx.expanded);
    if overlap.is_empty() {
        return true;
    }
    // The largest stored level `≤ Qp`; level 0 says nothing.
    let own = (1..bounds.levels())
        .take_while(|&k| bounds.p(k) <= ctx.qp)
        .last();
    own.is_some_and(|k| in_tail(overlap, bounds.rect(k)))
}

/// Strategy 2 in isolation: `Ui` lies completely outside the issuer's
/// `Qp`-expanded query.
pub fn strategy2_prunes(bounds: &impl PBounds, ctx: &PruneContext) -> bool {
    !bounds.rect(0).overlaps(ctx.p_expanded)
}

/// Strategy 3 in isolation: the `qmin · dmin < Qp` product rule.
pub fn strategy3_prunes(bounds: &impl PBounds, ctx: &PruneContext) -> bool {
    let ui = bounds.rect(0);
    let overlap = ui.intersect(ctx.expanded);
    if overlap.is_empty() {
        return false; // attributed to Strategy 1
    }
    let dmin = (0..bounds.levels())
        .skip_while(|&k| bounds.p(k) < ctx.qp)
        .find(|&k| in_tail(overlap, bounds.rect(k)))
        .map(|k| bounds.p(k));
    let qmin = ctx.qmin[..ctx.qmin_len]
        .iter()
        .find(|&&(_, window)| !ui.overlaps(window))
        .map(|&(p, _)| p);
    matches!((dmin, qmin), (Some(d), Some(q)) if q * d < ctx.qp)
}

/// Applies Strategies 1–3 in the paper's order (cheapest test first)
/// and reports which one, if any, eliminated the candidate.
pub fn try_prune(bounds: &impl PBounds, ctx: &PruneContext) -> PruneOutcome {
    if strategy2_prunes(bounds, ctx) {
        return PruneOutcome::Strategy2;
    }
    if strategy1_prunes(bounds, ctx) {
        return PruneOutcome::Strategy1;
    }
    if strategy3_prunes(bounds, ctx) {
        return PruneOutcome::Strategy3;
    }
    PruneOutcome::Keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::Integrator;
    use crate::stats::QueryStats;
    use iloc_geometry::Point;
    use iloc_uncertainty::{UncertainObject, UniformPdf};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn obj(region: Rect) -> UncertainObject {
        UncertainObject::new(0u64, UniformPdf::new(region))
    }

    #[test]
    fn strategy2_fires_outside_p_expanded_query() {
        let issuer = Issuer::uniform(Rect::from_coords(0.0, 0.0, 100.0, 100.0));
        let range = RangeSpec::square(20.0);
        // With Qp = 0.5 the issuer's 0.5-bound collapses to the centre
        // point (50,50), so the p-expanded query is [30,70]². An object
        // inside the Minkowski sum but outside that must be pruned by
        // Strategy 2.
        let c = PruneContext::new(&issuer, range, 0.5);
        let o = obj(Rect::from_coords(95.0, 95.0, 118.0, 118.0));
        assert!(
            o.region().overlaps(c.expanded),
            "test setup: in Minkowski sum"
        );
        assert_eq!(try_prune(&o.catalog(), &c), PruneOutcome::Strategy2);
    }

    #[test]
    fn strategy1_fires_when_overlap_in_own_tail() {
        let issuer = Issuer::uniform(Rect::from_coords(0.0, 0.0, 100.0, 100.0));
        let range = RangeSpec::square(20.0);
        let c = PruneContext::new(&issuer, range, 0.3);
        // Wide object whose left sliver only pokes into the expanded
        // query: the overlap is left of its own l(0.3) line.
        // Object on [80, 380] × [40, 60]: it overlaps the 0.3-expanded
        // query [10, 90]² (so Strategy 2 cannot fire), the expanded
        // query is [-20, 120]², the overlap is [80, 120] × [40, 60],
        // and l(0.3) = 80 + 0.3·300 = 170 > 120 → left-tail prune.
        let o = obj(Rect::from_coords(80.0, 40.0, 380.0, 60.0));
        assert_eq!(try_prune(&o.catalog(), &c), PruneOutcome::Strategy1);
    }

    #[test]
    fn keep_when_no_test_applies() {
        let issuer = Issuer::uniform(Rect::from_coords(0.0, 0.0, 100.0, 100.0));
        let range = RangeSpec::square(30.0);
        let c = PruneContext::new(&issuer, range, 0.2);
        // Object dead-centre on the issuer: certainly not prunable.
        let o = obj(Rect::from_coords(40.0, 40.0, 60.0, 60.0));
        assert_eq!(try_prune(&o.catalog(), &c), PruneOutcome::Keep);
    }

    #[test]
    fn pruning_is_sound_on_random_configurations() {
        // Soundness: anything pruned must truly have pi < qp (we allow
        // pi == qp on the boundary, which has measure zero and matches
        // the paper's usage).
        let mut rng = StdRng::seed_from_u64(33);
        let mut pruned = 0usize;
        for trial in 0..300 {
            let issuer = Issuer::uniform(Rect::centered(
                Point::new(rng.gen_range(100.0..900.0), rng.gen_range(100.0..900.0)),
                rng.gen_range(10.0..120.0),
                rng.gen_range(10.0..120.0),
            ));
            let range = RangeSpec::new(rng.gen_range(10.0..150.0), rng.gen_range(10.0..150.0));
            let qp = rng.gen_range(0.05..0.9);
            let c = PruneContext::new(&issuer, range, qp);
            let o = obj(Rect::centered(
                Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)),
                rng.gen_range(5.0..200.0),
                rng.gen_range(5.0..200.0),
            ));
            let outcome = try_prune(&o.catalog(), &c);
            if outcome != PruneOutcome::Keep {
                pruned += 1;
                let mut stats = QueryStats::new();
                let pi = Integrator::Auto.object_probability(
                    issuer.pdf(),
                    range,
                    o.pdf(),
                    c.expanded,
                    trial,
                    &mut stats,
                );
                assert!(
                    pi <= qp + 1e-9,
                    "trial {trial}: pruned by {outcome:?} but pi={pi} > qp={qp}"
                );
            }
        }
        assert!(pruned > 20, "test should exercise pruning ({pruned})");
    }

    #[test]
    fn strategy3_product_rule_fires() {
        // Construct a configuration where both single tests fail but
        // the product rule succeeds: choose Qp = 0.3 and arrange the
        // object so the overlap crosses its 0.3 line but is inside its
        // 0.4 tail, and Ui crosses the 0.3-expanded query but is
        // outside the 0.4-expanded one. Then qmin = dmin = 0.4 and
        // 0.16 < 0.3 prunes.
        let issuer = Issuer::uniform(Rect::from_coords(0.0, 0.0, 100.0, 100.0));
        let range = RangeSpec::square(10.0);
        let qp = 0.3;
        let c = PruneContext::new(&issuer, range, qp);
        // p-expanded(0.3) = [30,70]+±10 → [20,80]²; p-expanded(0.4) =
        // [40,60]±10 → [30,70]².
        // Expanded = [-10,110]².
        // Object x-range [72, 132]: overlaps pexp(0.3) (x ≤ 80) but is
        // outside pexp(0.4) (x ≥ 70 boundary: 72 > 70 ✓ outside).
        // Its own l(0.4) = 72 + 0.4·60 = 96 < overlap? overlap x =
        // [72, 110]; need overlap inside a 0.4 tail: right of r(0.4) =
        // 132−24 = 108? No. Use the left tail: l(0.4) = 96; overlap
        // must be ≤ 96 ... overlap is [72,110]: crosses. Shrink the
        // object: x ∈ [72, 300]: l(0.4) = 72+91.2=163.2, overlap =
        // [72, 110] ≤ 163.2 → inside left 0.4-tail ✓; l(0.3) =
        // 72+68.4 = 140.4 → also inside 0.3 tail... that would fire S1.
        // S1 uses the stored level 0.3: overlap [72,110] is
        // left of l(0.3)=140.4 → S1 fires first. To *demonstrate* S3 we
        // need the S1 level-0.3 test to fail: overlap must cross
        // l(0.3) but stay under l(0.4). l(0.3)=72+0.3·W,
        // l(0.4)=72+0.4·W; need 72+0.3W < 110 < 72+0.4W → 95 < W <
        // 126.67. Take W = 100: object x ∈ [72, 172], l(0.3)=102,
        // l(0.4)=112. Overlap=[72,110]: crosses 102, under 112. ✓
        // y: keep trivially overlapping (object y = issuer y range).
        let o = obj(Rect::from_coords(72.0, 0.0, 172.0, 100.0));
        assert_eq!(try_prune(&o.catalog(), &c), PruneOutcome::Strategy3);
    }
}
