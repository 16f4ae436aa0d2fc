//! Standing continuous queries with incremental re-evaluation — the
//! subscription subsystem.
//!
//! The paper evaluates *snapshot* imprecise location-dependent
//! queries; continuous serving is this crate's extension of them. An
//! issuer registers a query once and expects its answer to track both
//! its own motion and the catalog's churn. This module holds such
//! queries as **snapshot-owning** standing queries over
//! [`crate::serve::ShardedEngine`] epochs, built so that millions of
//! subscriptions can be held server-side and only the ones a commit
//! actually touched ever do work.
//!
//! ## The four ideas
//!
//! 1. **Safe envelope as the per-subscription cache.** Each
//!    subscription probes the index once with its expanded query grown
//!    by a `slack` margin and keeps the candidate list (per shard, in
//!    probe order). Every tick whose expanded query still fits inside
//!    the envelope refines from that list — by Lemma 1 no object
//!    outside the envelope can qualify while the query stays inside
//!    it — performing **zero index probes and zero heap allocations**
//!    in steady state.
//! 2. **Pinned snapshots.** A subscription owns the
//!    [`Snapshot`](crate::serve::Snapshot) it last evaluated against. Commits never invalidate it: the epoch
//!    machinery keeps the old shard engines alive, so an unaffected
//!    subscription keeps answering from its pinned epoch, bit-identical
//!    to fresh evaluation there (and — because nothing inside its
//!    envelope changed — result-identical to the current epoch too).
//! 3. **Affected-subscription detection.** Envelopes live in a spatial
//!    stabbing index (an R-tree over envelope rectangles). When a
//!    commit publishes, its merged **dirty rectangle**
//!    ([`CommitReport::dirty`](crate::serve::CommitReport)) stabs that
//!    index; only the hit subscriptions are woken. Everything else
//!    does *nothing* — not even a per-subscription check.
//! 4. **A commit is applied, not re-run.** The dirty rectangle of a
//!    spread-out batch is the whole domain, so it wakes everyone; what
//!    it must not do is cost everyone a re-evaluation. The commit
//!    keeps the footprints that rectangle is the hull of, with their
//!    ids — the epoch's **touched set**
//!    ([`EpochDirt::touched`](crate::serve::EpochDirt)) — and a woken
//!    subscription looks up and evaluates just the touched objects
//!    whose footprint meets its expanded query, each on its own, and
//!    patches the outcome into its last answer: an upsert, a removal,
//!    or nothing. That costs the updates inside the query, not its
//!    candidates. The subscription rebinds to the new epoch without
//!    probing; its cached candidates are stale, and the first tick
//!    that needs them probes once.
//!
//! Either way the result is an [`AnswerDelta`] against the last answer
//! the subscriber saw: upserted matches (new or changed probability)
//! plus removed ids. Applying the delta to the subscriber's copy
//! reproduces the full fresh answer **bit-identically**
//! (`tests/subscribe.rs` pins this after every commit and tick).
//!
//! ## When an answer may be patched
//!
//! Every emitted state is bit-identical to
//! [`Snapshot::execute_one`](crate::serve::Snapshot::execute_one) of
//! the subscription's request against the snapshot it is bound to. A
//! patch gets there without running the query because, under every
//! integrator, a probability is a function of the query and its one
//! object: not of the other candidates, their order, the shard count
//! or the epoch. The closed forms are; a Monte-Carlo estimate draws
//! from the object's own stream, seeded from the execution's seed and
//! the object's id ([`crate::integrate::mc::object_seed`]). For the
//! same reason an unaffected subscription's answer is also
//! bit-identical to evaluation at the *current* epoch.
//!
//! A woken subscription re-probes and re-runs in full only where the
//! touched objects are not known: an epoch too large to keep a touched
//! set, and every subscription when the registry falls behind the
//! engine's dirt history.
//!
//! Constrained subscriptions are **normalized to Minkowski-sum
//! filtering** (`CipqStrategy::MinkowskiSum` /
//! `CiuqStrategy::RTreeMinkowski`): the p-expanded and PTI plans prune
//! candidates a cached envelope cannot reproduce, and the envelope
//! cache already plays the role those filters play for one-shot
//! queries.

mod registry;

pub use registry::{PumpReport, SubId, Subscription, SubscriptionRegistry};

use iloc_geometry::Rect;
use iloc_uncertainty::ObjectId;

use crate::expand::minkowski_query;
use crate::pipeline::{
    CatalogObject, EvaluatorKind, ExecutionContext, PreparedQuery, QueryPipeline, QueryRequest,
};
use crate::result::{Match, QueryAnswer};
use crate::serve::ServeEngine;

/// The rectangle fresh filtering would probe the index with — the
/// Minkowski sum `R ⊕ U0` of Lemma 1. The safe envelope is this grown
/// by the slack margin, and a tick is a cache hit while this stays
/// inside the envelope.
fn filter_rect<S>(request: &QueryRequest<S>) -> Rect {
    minkowski_query(&request.issuer, request.range)
}

/// Answers a (normalized) standing request over one shard from its
/// cached candidates, as the shard's own plan would from an index
/// probe — the same candidate set and bit-identical probabilities,
/// each a function of the query and the object alone: the cache
/// re-checked against the Minkowski filter, no pruning, duality
/// refinement, the request's accept policy. The matches come out in
/// the cache's order, like the plan's in its probe's; the fan-out
/// sorts the union once. No allocation per tick.
fn evaluate_cached_into<E: ServeEngine>(
    shard: &E,
    request: &E::Request,
    cached: &[u32],
    ctx: &mut ExecutionContext,
    answer: &mut QueryAnswer,
) {
    ctx.prepare(request.integrator);
    let query = PreparedQuery::new(&request.issuer, request.range);
    let objects = shard.objects();
    QueryPipeline {
        query,
        objects,
        prune: None,
        refine: EvaluatorKind::Duality,
        accept: request.accept(),
    }
    .run_into(ctx, answer, |stats, _, out| {
        for &slot in cached {
            if objects[slot as usize].within(query.expanded) {
                out.push(slot);
            }
        }
        stats.items_tested += cached.len() as u64;
        stats.candidates += out.len() as u64;
    });
}

/// What [`evaluate_cached_into`] makes of the one object `id` of
/// `shard` on its own: the filter's membership test, the duality
/// refinement, the request's accept policy — `Some` exactly when the
/// object is live and in the answer. Adds to `ctx.stats` without
/// resetting it. The probability has the pipeline's bits: it is a
/// function of the query and the object alone.
fn evaluate_object<E: ServeEngine>(
    shard: &E,
    request: &E::Request,
    id: ObjectId,
    ctx: &mut ExecutionContext,
) -> Option<Match> {
    let object = shard.find(id)?;
    ctx.prepare(request.integrator);
    let query = PreparedQuery::new(&request.issuer, request.range);
    if !object.within(query.expanded) {
        return None;
    }
    let probability = object.probability(&query, ctx);
    request
        .accept()
        .accepts(probability)
        .then_some(Match { id, probability })
}

/// The change between two answers of one standing query: matches that
/// are new or whose probability changed, plus ids that no longer
/// qualify. Both lists are id-sorted. Applying a delta to the previous
/// answer reproduces the next answer **bit-identically** — this is
/// what NOTIFY frames carry instead of full answers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnswerDelta {
    /// New or changed matches, sorted by id.
    pub upserts: Vec<Match>,
    /// Ids that left the result set, sorted.
    pub removals: Vec<ObjectId>,
}

impl AnswerDelta {
    /// An empty delta with no retained capacity.
    pub fn new() -> Self {
        AnswerDelta::default()
    }

    /// `true` when applying this delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.upserts.is_empty() && self.removals.is_empty()
    }

    /// Empties both lists, keeping their capacity.
    pub fn clear(&mut self) {
        self.upserts.clear();
        self.removals.clear();
    }

    /// Overwrites `out` with the delta turning `prev` into `next`
    /// (both id-sorted; a shared id with a bit-different probability
    /// becomes an upsert). Allocation-free once `out` is warm.
    pub fn diff_into(prev: &[Match], next: &[Match], out: &mut AnswerDelta) {
        out.clear();
        let (mut i, mut j) = (0usize, 0usize);
        while i < prev.len() && j < next.len() {
            match prev[i].id.cmp(&next[j].id) {
                std::cmp::Ordering::Less => {
                    out.removals.push(prev[i].id);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.upserts.push(next[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    if prev[i].probability.to_bits() != next[j].probability.to_bits() {
                        out.upserts.push(next[j]);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out.removals.extend(prev[i..].iter().map(|m| m.id));
        out.upserts.extend_from_slice(&next[j..]);
    }

    /// Merges in `other`, the delta of the same standing query over a
    /// disjoint set of ids (another node's share of the catalog): both
    /// lists stay id-sorted, as concatenating and sorting would leave
    /// them. In place, from the back; allocation-free once warm.
    pub fn absorb(&mut self, other: &AnswerDelta) {
        merge_sorted_into(&mut self.upserts, &other.upserts, |m| m.id);
        merge_sorted_into(&mut self.removals, &other.removals, |&id| id);
    }

    /// Applies the delta to an id-sorted match list in place
    /// (the subscriber-side half of the delta contract).
    pub fn apply(&self, results: &mut Vec<Match>) {
        if self.is_empty() {
            return;
        }
        let prev = std::mem::take(results);
        results.reserve(prev.len() + self.upserts.len());
        let (mut i, mut u, mut r) = (0usize, 0usize, 0usize);
        loop {
            let take_upsert = match (prev.get(i), self.upserts.get(u)) {
                (None, None) => break,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (Some(p), Some(q)) => q.id <= p.id,
            };
            if take_upsert {
                let q = self.upserts[u];
                u += 1;
                if i < prev.len() && prev[i].id == q.id {
                    i += 1; // replaced in place
                }
                results.push(q);
            } else {
                let p = prev[i];
                i += 1;
                while r < self.removals.len() && self.removals[r] < p.id {
                    r += 1;
                }
                if r < self.removals.len() && self.removals[r] == p.id {
                    r += 1;
                    continue; // dropped
                }
                results.push(p);
            }
        }
    }
}

/// Merges the sorted `run` into the sorted `into`, filling the grown
/// vector from its end so nothing is overwritten before it is read.
fn merge_sorted_into<T: Copy, K: Ord>(into: &mut Vec<T>, run: &[T], key: impl Fn(&T) -> K) {
    let mut unread = into.len();
    into.extend_from_slice(run);
    let mut at = into.len();
    for item in run.iter().rev() {
        while unread > 0 && key(&into[unread - 1]) > key(item) {
            unread -= 1;
            at -= 1;
            into[at] = into[unread];
        }
        at -= 1;
        into[at] = *item;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc_geometry::Point;

    fn matches(ps: &[(u64, f64)]) -> Vec<Match> {
        ps.iter()
            .map(|&(id, p)| Match {
                id: ObjectId(id),
                probability: p,
            })
            .collect()
    }

    #[test]
    fn diff_then_apply_round_trips() {
        let cases: Vec<(Vec<Match>, Vec<Match>)> = vec![
            (matches(&[]), matches(&[])),
            (matches(&[]), matches(&[(1, 0.5), (7, 0.25)])),
            (matches(&[(1, 0.5), (7, 0.25)]), matches(&[])),
            (
                matches(&[(1, 0.5), (3, 0.1), (7, 0.25)]),
                matches(&[(1, 0.5), (3, 0.2), (9, 1.0)]),
            ),
            (
                matches(&[(2, 0.5), (4, 0.5), (6, 0.5)]),
                matches(&[(1, 0.5), (4, 0.5), (5, 0.5)]),
            ),
            // Probability changed by one ulp still travels.
            (
                matches(&[(1, 0.5)]),
                matches(&[(1, f64::from_bits(0.5f64.to_bits() + 1))]),
            ),
        ];
        let mut delta = AnswerDelta::new();
        for (prev, next) in cases {
            AnswerDelta::diff_into(&prev, &next, &mut delta);
            let mut applied = prev.clone();
            delta.apply(&mut applied);
            assert_eq!(applied.len(), next.len());
            for (a, b) in applied.iter().zip(&next) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.probability.to_bits(), b.probability.to_bits());
            }
            // Identical answers produce an empty delta.
            AnswerDelta::diff_into(&next, &next, &mut delta);
            assert!(delta.is_empty());
        }
    }

    #[test]
    fn absorbing_disjoint_deltas_equals_concatenate_and_sort() {
        // Four "nodes" with disjoint ids, some runs empty.
        let part = |upserts: &[(u64, f64)], removals: &[u64]| AnswerDelta {
            upserts: matches(upserts),
            removals: removals.iter().map(|&id| ObjectId(id)).collect(),
        };
        let parts = [
            part(&[(3, 0.3), (9, 0.9), (12, 0.1)], &[5, 40]),
            part(&[], &[1]),
            part(&[(1, 0.1), (2, 0.2), (30, 0.5)], &[]),
            part(&[(0, 0.7), (31, 0.2)], &[2, 6, 41]),
        ];
        let mut merged = AnswerDelta::new();
        let mut want = AnswerDelta::new();
        for part in &parts {
            merged.absorb(part);
            want.upserts.extend_from_slice(&part.upserts);
            want.removals.extend_from_slice(&part.removals);
        }
        want.upserts.sort_by_key(|m| m.id);
        want.removals.sort_unstable();
        assert_eq!(merged, want);
        assert_eq!(merged.upserts.len(), 8);
    }

    #[test]
    fn cached_filter_matches_membership_semantics() {
        use iloc_uncertainty::{PointObject, UncertainObject};

        let pts = [
            PointObject::new(0u64, Point::new(5.0, 5.0)),
            PointObject::new(1u64, Point::new(50.0, 50.0)),
        ];
        assert!(pts[0].within(Rect::from_coords(0.0, 0.0, 10.0, 10.0)));
        assert!(!pts[1].within(Rect::from_coords(0.0, 0.0, 10.0, 10.0)));
        // Boundary inclusion matches an index probe's closed-region
        // semantics.
        assert!(pts[0].within(Rect::from_coords(5.0, 5.0, 6.0, 6.0)));

        let unc = UncertainObject::new(
            2u64,
            iloc_uncertainty::UniformPdf::new(Rect::from_coords(8.0, 8.0, 12.0, 12.0)),
        );
        assert!(unc.within(Rect::from_coords(0.0, 0.0, 10.0, 10.0)));
        assert!(!unc.within(Rect::from_coords(0.0, 0.0, 7.0, 7.0)));
    }
}
