//! The subscription registry: standing queries, their pinned
//! snapshots, and commit-driven wake-up.

use std::collections::HashMap;

use iloc_geometry::Rect;
use iloc_index::{AccessStats, RTree, RTreeParams, RangeIndex};
use iloc_uncertainty::PdfKind;

use crate::integrate::Integrator;
use crate::pipeline::ExecutionContext;
use crate::result::{Match, QueryAnswer};
use crate::serve::{EpochDirt, ShardedEngine, Snapshot};

use super::{eval_from_cache, AnswerDelta, ContinuousEngine};

/// Identifier of one standing query within a registry. Ids are never
/// reused, so a late NOTIFY can never be misattributed to a newer
/// subscription.
pub type SubId = u64;

/// One standing continuous query: its (normalized) request, the safe
/// envelope with its per-shard cached candidates, the pinned snapshot
/// those candidates index into, and the last answer the subscriber
/// saw.
pub struct Subscription<E: ContinuousEngine> {
    id: SubId,
    request: E::Request,
    slack: f64,
    snapshot: Snapshot<E>,
    envelope: Rect,
    /// Slot-sorted envelope candidates, one list per shard of the
    /// pinned snapshot (inner buffers reused across re-probes).
    cached: Vec<Vec<u32>>,
    /// The last answer delivered (id-sorted): the base every delta is
    /// computed against.
    last: Vec<Match>,
    /// Index probes issued for this subscription (≤ evaluations).
    probes: u64,
    /// Evaluations served entirely from the cached envelope.
    cache_hits: u64,
}

impl<E: ContinuousEngine> Subscription<E> {
    /// The (normalized) standing request.
    pub fn request(&self) -> &E::Request {
        &self.request
    }

    /// The current safe-envelope rectangle.
    pub fn envelope(&self) -> Rect {
        self.envelope
    }

    /// The epoch of the pinned snapshot the state reflects.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// The last answer delivered, sorted by id.
    pub fn last_answer(&self) -> &[Match] {
        &self.last
    }

    /// Index probes issued so far.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Evaluations served from the cached envelope so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Rebinds to `snapshot` and re-probes the envelope around the
    /// current filter rectangle.
    fn reprobe(&mut self, snapshot: &Snapshot<E>, ctx: &mut ExecutionContext) {
        let expanded = E::filter_rect(&self.request);
        self.envelope = expanded.expand(self.slack, self.slack);
        self.snapshot = snapshot.clone();
        let shards = snapshot.shards();
        self.cached.resize_with(shards.len(), Vec::new);
        let mut stats = AccessStats::new();
        for (shard, cached) in shards.iter().zip(self.cached.iter_mut()) {
            cached.clear();
            shard.envelope_candidates_into(
                self.envelope,
                &mut stats,
                &mut ctx.scratch.traversal,
                cached,
            );
            // Sorted once per probe: every evaluation's filtered
            // subset then stays slot-sorted, collapsing the pipeline's
            // candidate sort to its linear pre-check.
            cached.sort_unstable();
        }
        self.probes += 1;
    }
}

/// What one [`SubscriptionRegistry::pump`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpReport {
    /// Subscriptions re-evaluated (their envelope intersected the
    /// dirty region, or the registry fell behind the dirt history).
    pub woken: usize,
    /// Deltas emitted (woken subscriptions whose answer actually
    /// changed).
    pub notified: usize,
}

/// A registry of standing continuous queries over one
/// [`ShardedEngine`].
///
/// The registry owns every subscription's state plus one shared
/// [`ExecutionContext`] and reusable answer/delta buffers, so a
/// steady-state [`tick`](SubscriptionRegistry::tick) — motion inside
/// the envelope, no intervening commit — performs **zero index probes
/// and zero heap allocations**. Envelope rectangles live in an R-tree
/// stabbing index; [`pump`](SubscriptionRegistry::pump) stabs it with
/// the dirty rectangles of newly committed epochs and re-evaluates
/// only the hits.
///
/// A registry serves one consumer (the network layer keeps one per
/// connection); it is `Send` but not shared.
pub struct SubscriptionRegistry<E: ContinuousEngine> {
    subs: Vec<Option<Subscription<E>>>,
    free: Vec<u32>,
    by_id: HashMap<SubId, u32>,
    /// Stabbing index: envelope rectangle → subscription slot.
    envelopes: RTree<u32>,
    next_id: SubId,
    /// Epochs whose dirt has been fully processed.
    seen_epoch: u64,
    live: usize,
    ctx: ExecutionContext,
    partials: Vec<QueryAnswer>,
    fresh: QueryAnswer,
    delta: AnswerDelta,
    dirt: Vec<EpochDirt>,
    stab: Vec<u32>,
}

impl<E: ContinuousEngine> Default for SubscriptionRegistry<E> {
    fn default() -> Self {
        SubscriptionRegistry::new()
    }
}

impl<E: ContinuousEngine> SubscriptionRegistry<E> {
    /// An empty registry with cold buffers.
    pub fn new() -> Self {
        SubscriptionRegistry {
            subs: Vec::new(),
            free: Vec::new(),
            by_id: HashMap::new(),
            envelopes: RTree::new(RTreeParams::default()),
            next_id: 1,
            seen_epoch: 0,
            live: 0,
            ctx: ExecutionContext::new(Integrator::Auto),
            partials: Vec::new(),
            fresh: QueryAnswer::default(),
            delta: AnswerDelta::new(),
            dirt: Vec::new(),
            stab: Vec::new(),
        }
    }

    /// Number of live subscriptions.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no subscription is registered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The newest epoch whose dirt this registry has processed.
    pub fn seen_epoch(&self) -> u64 {
        self.seen_epoch
    }

    /// `true` when [`SubscriptionRegistry::pump`] would do real work:
    /// something stands and the engine has published past what this
    /// registry has seen. One length check plus one atomic epoch load —
    /// cheap enough for an event loop to ask per connection per tick
    /// while sweeping tens of thousands of mostly-idle subscribers.
    pub fn needs_pump(&self, engine: &ShardedEngine<E>) -> bool {
        self.live != 0 && engine.epoch() > self.seen_epoch
    }

    /// The subscription with this id, if live.
    pub fn get(&self, id: SubId) -> Option<&Subscription<E>> {
        let &slot = self.by_id.get(&id)?;
        self.subs[slot as usize].as_ref()
    }

    /// Registers a standing query against the engine's current epoch;
    /// returns its id. The request is normalized to the envelope plan
    /// (see the module docs) and evaluated immediately —
    /// [`Subscription::last_answer`] holds the initial full answer to
    /// hand the subscriber.
    ///
    /// `slack` is the envelope margin in space units: larger values
    /// mean fewer index probes under motion but more cached candidates
    /// to re-filter per tick; `slack = 0` degenerates to one probe per
    /// tick.
    ///
    /// # Panics
    ///
    /// Panics when `slack` is negative or non-finite (the network
    /// layer validates this at the decode boundary instead).
    pub fn subscribe(
        &mut self,
        engine: &ShardedEngine<E>,
        mut request: E::Request,
        slack: f64,
    ) -> SubId {
        assert!(
            slack >= 0.0 && slack.is_finite(),
            "subscription slack must be finite and ≥ 0"
        );
        E::normalize_request(&mut request);
        let snapshot = engine.snapshot();
        if self.live == 0 {
            // Nothing stands yet: older epochs' dirt concerns nobody.
            self.seen_epoch = snapshot.epoch();
        }
        let id = self.next_id;
        self.next_id += 1;

        let mut sub = Subscription {
            id,
            request,
            slack,
            snapshot: snapshot.clone(),
            envelope: Rect::EMPTY,
            cached: Vec::new(),
            last: Vec::new(),
            probes: 0,
            cache_hits: 0,
        };
        sub.reprobe(&snapshot, &mut self.ctx);
        eval_from_cache(
            &snapshot,
            &sub.request,
            &sub.cached,
            &mut self.ctx,
            &mut self.partials,
            &mut self.fresh,
        );
        sub.last.extend_from_slice(&self.fresh.results);

        let slot = match self.free.pop() {
            Some(slot) => {
                self.subs[slot as usize] = Some(sub);
                slot
            }
            None => {
                self.subs.push(Some(sub));
                (self.subs.len() - 1) as u32
            }
        };
        let envelope = self.subs[slot as usize]
            .as_ref()
            .expect("just stored")
            .envelope;
        self.envelopes.insert(envelope, slot);
        self.by_id.insert(id, slot);
        self.live += 1;
        id
    }

    /// Drops a standing query; `true` when it existed.
    pub fn unsubscribe(&mut self, id: SubId) -> bool {
        let Some(slot) = self.by_id.remove(&id) else {
            return false;
        };
        let sub = self.subs[slot as usize].take().expect("live slot");
        let removed = self.envelopes.remove(sub.envelope, slot);
        debug_assert!(removed, "stab index out of sync");
        self.free.push(slot);
        self.live -= 1;
        true
    }

    /// Drops every subscription, keeping the registry's warm buffers
    /// (what a serving worker does between connections).
    pub fn clear(&mut self) {
        self.subs.clear();
        self.free.clear();
        self.by_id.clear();
        self.envelopes = RTree::new(RTreeParams::default());
        self.live = 0;
        self.seen_epoch = 0;
    }

    /// Moves a subscription's issuer and re-evaluates, returning the
    /// epoch the state reflects and the delta against the last
    /// delivered answer (possibly empty). `None` when the id is
    /// unknown.
    ///
    /// A tick whose expanded query stays inside the safe envelope is
    /// served entirely from the cached candidates of the pinned
    /// snapshot — zero index probes, zero heap allocations once warm.
    /// Motion past the envelope rebinds to the engine's current epoch
    /// and re-probes.
    pub fn tick(
        &mut self,
        engine: &ShardedEngine<E>,
        id: SubId,
        pdf: PdfKind,
    ) -> Option<(u64, &AnswerDelta)> {
        let &slot = self.by_id.get(&id)?;
        let sub = self.subs[slot as usize].as_mut().expect("live slot");
        E::set_issuer_pdf(&mut sub.request, pdf);
        let expanded = E::filter_rect(&sub.request);
        if sub.envelope.contains_rect(expanded) {
            sub.cache_hits += 1;
        } else {
            let old = sub.envelope;
            sub.reprobe(&engine.snapshot(), &mut self.ctx);
            let removed = self.envelopes.remove(old, slot);
            debug_assert!(removed, "stab index out of sync");
            self.envelopes.insert(sub.envelope, slot);
        }
        eval_from_cache(
            &sub.snapshot,
            &sub.request,
            &sub.cached,
            &mut self.ctx,
            &mut self.partials,
            &mut self.fresh,
        );
        AnswerDelta::diff_into(&sub.last, &self.fresh.results, &mut self.delta);
        sub.last.clear();
        sub.last.extend_from_slice(&self.fresh.results);
        Some((sub.snapshot.epoch(), &self.delta))
    }

    /// Processes every epoch committed since the last pump: the merged
    /// dirty rectangle stabs the envelope index, the hit subscriptions
    /// rebind to the current epoch and re-evaluate, and `emit` is
    /// called with `(id, epoch, delta)` for each one whose answer
    /// changed. Subscriptions the dirt missed do **no work at all**.
    ///
    /// Falling more than the engine's dirt history behind degrades
    /// gracefully: every subscription is re-evaluated.
    pub fn pump(
        &mut self,
        engine: &ShardedEngine<E>,
        mut emit: impl FnMut(SubId, u64, &AnswerDelta),
    ) -> PumpReport {
        let mut report = PumpReport::default();
        if engine.epoch() <= self.seen_epoch {
            return report;
        }
        if self.live == 0 {
            self.seen_epoch = engine.epoch();
            return report;
        }
        self.dirt.clear();
        let gapless = engine.dirt_since(self.seen_epoch, &mut self.dirt);
        // Taken AFTER reading the dirt log: an epoch's dirt is only
        // logged once its snapshot has published, so `current` is
        // guaranteed to cover every entry processed below. (The other
        // order would let a commit land in between — subscriptions
        // would re-evaluate against the older snapshot while
        // `seen_epoch` advanced past the new epoch, silently dropping
        // its notification.)
        let current = engine.snapshot();

        let mut stab = std::mem::take(&mut self.stab);
        stab.clear();
        let covered = if gapless {
            let Some(last) = self.dirt.last() else {
                // The commit has published its epoch but not yet
                // logged its dirt; the next pump picks it up.
                self.stab = stab;
                return report;
            };
            debug_assert!(last.epoch <= current.epoch(), "dirt logged before publish");
            // One stab per epoch, deduped — never a cross-epoch hull:
            // two small commits at opposite corners of the domain must
            // not wake every subscription standing in the rectangle
            // between them.
            let mut stats = AccessStats::new();
            for dirt in &self.dirt {
                if let Some(d) = dirt.dirty {
                    self.envelopes.query_range_scratch(
                        d,
                        &mut stats,
                        &mut self.ctx.scratch.traversal,
                        &mut stab,
                    );
                }
            }
            stab.sort_unstable();
            stab.dedup();
            last.epoch
        } else {
            // Behind the bounded history: conservatively wake all.
            stab.extend(
                self.subs
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.is_some())
                    .map(|(k, _)| k as u32),
            );
            current.epoch()
        };

        for &slot in &stab {
            let Some(sub) = self.subs[slot as usize].as_mut() else {
                continue;
            };
            if sub.snapshot.epoch() >= covered {
                // Already rebound past everything processed here (a
                // tick re-probed mid-span).
                continue;
            }
            report.woken += 1;
            let old_envelope = sub.envelope;
            sub.reprobe(&current, &mut self.ctx);
            if sub.envelope != old_envelope {
                // The envelope re-centers on wherever the issuer has
                // drifted to; the stab index must follow.
                let removed = self.envelopes.remove(old_envelope, slot);
                debug_assert!(removed, "stab index out of sync");
                self.envelopes.insert(sub.envelope, slot);
            }
            eval_from_cache(
                &current,
                &sub.request,
                &sub.cached,
                &mut self.ctx,
                &mut self.partials,
                &mut self.fresh,
            );
            AnswerDelta::diff_into(&sub.last, &self.fresh.results, &mut self.delta);
            if !self.delta.is_empty() {
                sub.last.clear();
                sub.last.extend_from_slice(&self.fresh.results);
                report.notified += 1;
                emit(sub.id, current.epoch(), &self.delta);
            }
        }
        self.stab = stab;
        self.seen_epoch = covered;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PointEngine;
    use crate::pipeline::PointRequest;
    use crate::query::{Issuer, RangeSpec};
    use crate::serve::Update;
    use iloc_geometry::Point;
    use iloc_uncertainty::{ObjectId, PointObject};

    fn engine(shards: usize) -> ShardedEngine<PointEngine> {
        let objects = (0..400u64)
            .map(|k| {
                PointObject::new(
                    k,
                    Point::new((k % 20) as f64 * 50.0, (k / 20) as f64 * 50.0),
                )
            })
            .collect();
        ShardedEngine::build(objects, shards)
    }

    fn request_at(x: f64, y: f64) -> PointRequest {
        PointRequest::ipq(
            Issuer::uniform(Rect::centered(Point::new(x, y), 40.0, 40.0)),
            RangeSpec::square(80.0),
        )
    }

    #[test]
    fn subscribe_answers_match_snapshot_execution() {
        let engine = engine(4);
        let mut registry: SubscriptionRegistry<PointEngine> = SubscriptionRegistry::new();
        let request = request_at(500.0, 500.0);
        let id = registry.subscribe(&engine, request.clone(), 100.0);
        let want = engine.snapshot().execute_one(&request);
        assert!(!want.results.is_empty());
        let got = registry.get(id).unwrap().last_answer();
        assert_eq!(got.len(), want.results.len());
        for (a, b) in got.iter().zip(&want.results) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.probability.to_bits(), b.probability.to_bits());
        }
    }

    #[test]
    fn steady_ticks_probe_nothing() {
        let engine = engine(2);
        let mut registry: SubscriptionRegistry<PointEngine> = SubscriptionRegistry::new();
        let id = registry.subscribe(&engine, request_at(500.0, 500.0), 150.0);
        assert_eq!(registry.get(id).unwrap().probes(), 1);
        for k in 0..50u64 {
            // A drifting walk that never escapes the envelope.
            let request = request_at(500.0 + (k % 5) as f64, 500.0);
            let (_, delta) = registry
                .tick(&engine, id, request.issuer.pdf().clone())
                .unwrap();
            let _ = delta;
        }
        let sub = registry.get(id).unwrap();
        assert_eq!(sub.probes(), 1, "steady ticks must not probe the index");
        assert_eq!(sub.cache_hits(), 50);
    }

    #[test]
    fn escaping_the_envelope_reprobes_and_restabs() {
        let engine = engine(2);
        let mut registry: SubscriptionRegistry<PointEngine> = SubscriptionRegistry::new();
        let id = registry.subscribe(&engine, request_at(200.0, 200.0), 50.0);
        let far = request_at(800.0, 800.0);
        let (_, _) = registry
            .tick(&engine, id, far.issuer.pdf().clone())
            .unwrap();
        assert_eq!(registry.get(id).unwrap().probes(), 2);
        // The stab index follows: a commit near the new position wakes
        // the subscription.
        engine.submit(Update::Arrive(PointObject::new(
            9_000u64,
            Point::new(801.0, 801.0),
        )));
        engine.commit();
        let mut woken = Vec::new();
        registry.pump(&engine, |id, _, delta| woken.push((id, delta.clone())));
        assert_eq!(woken.len(), 1);
        assert_eq!(woken[0].0, id);
        assert_eq!(woken[0].1.upserts.len(), 1);
        assert_eq!(woken[0].1.upserts[0].id, ObjectId(9_000));
    }

    #[test]
    fn pump_skips_unaffected_subscriptions() {
        let engine = engine(4);
        let mut registry: SubscriptionRegistry<PointEngine> = SubscriptionRegistry::new();
        let near = registry.subscribe(&engine, request_at(100.0, 100.0), 60.0);
        let far = registry.subscribe(&engine, request_at(900.0, 900.0), 60.0);
        let probes_before = registry.get(far).unwrap().probes();

        engine.submit(Update::Depart(ObjectId(42))); // (100, 100)
        let report = engine.commit();
        assert!(report.dirty.is_some());

        let mut woken = Vec::new();
        let pump = registry.pump(&engine, |id, _, _| woken.push(id));
        assert_eq!(pump.woken, 1);
        assert_eq!(woken, vec![near]);
        // The far subscription did no work at all.
        assert_eq!(registry.get(far).unwrap().probes(), probes_before);
        assert_eq!(registry.seen_epoch(), 1);
    }

    #[test]
    fn multi_epoch_pump_stabs_per_commit_not_a_cross_epoch_hull() {
        let engine = engine(4);
        let mut registry: SubscriptionRegistry<PointEngine> = SubscriptionRegistry::new();
        // Standing in the middle of the domain, between two commits at
        // opposite corners.
        let middle = registry.subscribe(&engine, request_at(450.0, 450.0), 40.0);
        let corner = registry.subscribe(&engine, request_at(50.0, 50.0), 40.0);
        let probes_before = registry.get(middle).unwrap().probes();

        // Two epochs land before one pump: their hull would cover the
        // whole domain, but neither commit touches the middle.
        engine.submit(Update::Depart(ObjectId(0))); // (0, 0)
        engine.commit();
        engine.submit(Update::Depart(ObjectId(399))); // (950, 950)
        engine.commit();

        let report = registry.pump(&engine, |_, _, _| {});
        assert_eq!(report.woken, 1, "only the corner subscription wakes");
        assert_eq!(
            registry.get(middle).unwrap().probes(),
            probes_before,
            "the middle subscription must not be woken by the hull of two corner commits"
        );
        assert!(registry.get(corner).unwrap().probes() > 1);
        assert_eq!(registry.seen_epoch(), 2);
    }

    #[test]
    fn unsubscribe_stops_wakeups_and_ids_are_not_reused() {
        let engine = engine(2);
        let mut registry: SubscriptionRegistry<PointEngine> = SubscriptionRegistry::new();
        let a = registry.subscribe(&engine, request_at(300.0, 300.0), 80.0);
        assert!(registry.unsubscribe(a));
        assert!(!registry.unsubscribe(a));
        assert!(registry.is_empty());
        let b = registry.subscribe(&engine, request_at(300.0, 300.0), 80.0);
        assert_ne!(a, b);

        engine.submit(Update::Depart(ObjectId(126))); // (300, 300)
        engine.commit();
        let mut woken = Vec::new();
        registry.pump(&engine, |id, _, _| woken.push(id));
        assert_eq!(woken, vec![b]);
        assert!(registry
            .tick(&engine, a, request_at(0.0, 0.0).issuer.pdf().clone())
            .is_none());
    }

    #[test]
    #[should_panic(expected = "slack")]
    fn subscribe_rejects_nan_slack() {
        let engine = engine(1);
        let mut registry: SubscriptionRegistry<PointEngine> = SubscriptionRegistry::new();
        registry.subscribe(&engine, request_at(0.0, 0.0), f64::NAN);
    }
}
