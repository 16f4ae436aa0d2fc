//! The subscription registry: standing queries, their pinned
//! snapshots, and commit-driven wake-up.

use std::collections::HashMap;

use iloc_geometry::Rect;
use iloc_index::{AccessStats, RTree, RTreeParams, RangeIndex};
use iloc_uncertainty::{ObjectId, PdfKind};

use crate::integrate::Integrator;
use crate::pipeline::ExecutionContext;
use crate::result::{Match, QueryAnswer};
use crate::serve::{shard_of, EpochDirt, ServeEngine, ShardedEngine, Snapshot};
use crate::stats::QueryStats;

use super::{evaluate_cached_into, evaluate_object, filter_rect, AnswerDelta};

/// Identifier of one standing query within a registry. Ids are never
/// reused, so a late NOTIFY can never be misattributed to a newer
/// subscription.
pub type SubId = u64;

/// One standing continuous query: its (normalized) request, the safe
/// envelope with its per-shard cached candidates, the pinned snapshot
/// those candidates index into, and the last answer the subscriber
/// saw.
pub struct Subscription<E: ServeEngine> {
    id: SubId,
    request: E::Request,
    slack: f64,
    snapshot: Snapshot<E>,
    envelope: Rect,
    /// Slot-sorted envelope candidates, one list per shard of the
    /// snapshot they were probed from (inner buffers reused across
    /// re-probes).
    cached: Vec<Vec<u32>>,
    /// `true` once the pump has carried the answer to a newer epoch
    /// by patching it instead of re-probing: `cached` lists slots of
    /// an epoch older than `snapshot`, and the next evaluation that
    /// needs candidates probes for them first.
    stale: bool,
    /// The last answer delivered (id-sorted): the base every delta is
    /// computed against.
    last: Vec<Match>,
    /// Index probes issued for this subscription (≤ evaluations).
    probes: u64,
    /// Evaluations served entirely from the cached envelope.
    cache_hits: u64,
}

impl<E: ServeEngine> Subscription<E> {
    /// The (normalized) standing request.
    pub fn request(&self) -> &E::Request {
        &self.request
    }

    /// The current safe-envelope rectangle.
    pub fn envelope(&self) -> Rect {
        self.envelope
    }

    /// The epoch the state reflects: that of the snapshot the answer
    /// was last evaluated on in full or patched up to. Older than the
    /// engine's for as long as no commit's dirty rectangle has reached
    /// the envelope — the answer is the current epoch's all the same.
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
    /// current filter rectangle, counting the probe's I/O into
    /// `buffers.probe` for the evaluation that follows.
    fn reprobe(&mut self, snapshot: &Snapshot<E>, buffers: &mut Buffers) {
        let expanded = filter_rect(&self.request);
        self.envelope = expanded.expand(self.slack, self.slack);
        self.snapshot = snapshot.clone();
        let shards = snapshot.shards();
        self.cached.resize_with(shards.len(), Vec::new);
        for (shard, cached) in shards.iter().zip(self.cached.iter_mut()) {
            cached.clear();
            shard.probe_into(
                self.envelope,
                &mut buffers.probe,
                &mut buffers.ctx.scratch.traversal,
                cached,
            );
            // Sorted once per probe: every evaluation's filtered
            // subset then stays slot-sorted, collapsing the pipeline's
            // candidate sort to its linear pre-check.
            cached.sort_unstable();
        }
        // The probe's hits are the envelope's candidates, not the
        // query's; the evaluation's filter stage counts those.
        buffers.probe.candidates = 0;
        self.stale = false;
        self.probes += 1;
    }

    /// The full evaluation: the cached candidates through the pipeline
    /// on the pinned snapshot, the answer left in `buffers.fresh` and
    /// the I/O of the probe it follows, if any, added to its stats.
    fn evaluate(&mut self, buffers: &mut Buffers) {
        debug_assert!(!self.stale, "evaluating from candidates of another epoch");
        self.snapshot.fan_out_into(
            &mut buffers.ctx,
            &mut buffers.partials,
            &mut buffers.fresh,
            |k, shard, ctx, partial| {
                evaluate_cached_into(shard, &self.request, &self.cached[k], ctx, partial)
            },
        );
        buffers
            .fresh
            .stats
            .access
            .absorb(std::mem::take(&mut buffers.probe));
    }

    /// Replaces the delivered answer with `buffers.fresh`, leaving the
    /// difference in `buffers.delta`.
    fn deliver(&mut self, buffers: &mut Buffers) {
        AnswerDelta::diff_into(&self.last, &buffers.fresh.results, &mut buffers.delta);
        if !buffers.delta.is_empty() {
            self.last.clear();
            self.last.extend_from_slice(&buffers.fresh.results);
        }
    }

    /// Applies the epochs of `dirt` past the bound one to the delivered
    /// answer without re-running the query: every touched id whose
    /// footprint meets the filter rectangle is looked up in `current`
    /// and evaluated on its own, and the outcome becomes an upsert, a
    /// removal or nothing. `buffers.delta` and `last` end up as the
    /// full evaluation on `current` and its diff would leave them, and
    /// the subscription is rebound to `current` — which is all that
    /// happens when no footprint meets the rectangle. Returns how
    /// many objects were evaluated, or `None` with the subscription as
    /// it was when an epoch kept no touched set.
    ///
    /// The candidates are not looked at and come out stale. (When
    /// nothing touched the envelope they would still be right, for the
    /// old snapshot. Staying bound to that to keep them holds every
    /// page later commits replace: with 64 standing queries beside
    /// 256-update commits, 2–5 MB for the few behind at any time.
    /// Letting go costs a subscription that ticks one probe.)
    fn patch(
        &mut self,
        current: &Snapshot<E>,
        dirt: &[EpochDirt],
        buffers: &mut Buffers,
    ) -> Option<usize> {
        let Buffers {
            ctx,
            fresh,
            delta,
            ids,
            ..
        } = buffers;
        delta.clear();
        ids.clear();
        let filter = filter_rect(&self.request);
        for epoch in dirt.iter().filter(|d| d.epoch > self.snapshot.epoch()) {
            for &(id, extent) in epoch.touched.as_deref()? {
                if filter.overlaps(extent) {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();

        // One merge of `last` with the evaluated ids into the scratch
        // answer, copied back to `last` when anything changed.
        let next = &mut fresh.results;
        next.clear();
        let shards = current.shards();
        let mut rest = self.last.as_slice();
        for &id in ids.iter() {
            let (before, from) = rest.split_at(rest.partition_point(|m| m.id < id));
            next.extend_from_slice(before);
            let was = from.first().filter(|m| m.id == id);
            rest = &from[was.is_some() as usize..];
            let now = evaluate_object(&*shards[shard_of(id, shards.len())], &self.request, id, ctx);
            match (was, now) {
                (_, Some(now)) => {
                    next.push(now);
                    if was.is_none_or(|m| m.probability.to_bits() != now.probability.to_bits()) {
                        delta.upserts.push(now);
                    }
                }
                (Some(_), None) => delta.removals.push(id),
                (None, None) => {}
            }
        }
        if !delta.is_empty() {
            next.extend_from_slice(rest);
            self.last.clear();
            self.last.extend_from_slice(next);
        }
        self.snapshot = current.clone();
        self.stale = true;
        Some(ids.len())
    }
}

/// What one [`SubscriptionRegistry::pump`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpReport {
    /// Subscriptions woken: their envelope intersected a new epoch's
    /// dirty rectangle, or the registry fell behind the dirt history.
    pub woken: usize,
    /// Deltas emitted (woken subscriptions whose answer actually
    /// changed).
    pub notified: usize,
    /// Woken subscriptions served from the epochs' touched sets, their
    /// answer patched object by object. `woken - patched` re-ran the
    /// query in full.
    pub patched: usize,
    /// Single objects the patches looked up and evaluated.
    pub objects_evaluated: usize,
}

/// The registry's reusable evaluation state, apart from the
/// subscriptions so that one of those can be borrowed beside it.
struct Buffers {
    ctx: ExecutionContext,
    partials: Vec<QueryAnswer>,
    fresh: QueryAnswer,
    delta: AnswerDelta,
    /// The touched ids one patch evaluates.
    ids: Vec<ObjectId>,
    /// Index I/O of the envelope probe the next evaluation follows.
    probe: AccessStats,
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
/// the dirty rectangles of newly committed epochs and applies those
/// epochs' touched sets to the hits, equally without allocating.
///
/// A registry serves one consumer (the network layer keeps one per
/// connection); it is `Send` but not shared.
pub struct SubscriptionRegistry<E: ServeEngine> {
    subs: Vec<Option<Subscription<E>>>,
    free: Vec<u32>,
    by_id: HashMap<SubId, u32>,
    /// Stabbing index: envelope rectangle → subscription slot.
    envelopes: RTree<u32>,
    next_id: SubId,
    /// Epochs whose dirt has been fully processed.
    seen_epoch: u64,
    live: usize,
    buffers: Buffers,
    dirt: Vec<EpochDirt>,
    stab: Vec<u32>,
}

impl<E: ServeEngine> Default for SubscriptionRegistry<E> {
    fn default() -> Self {
        SubscriptionRegistry::new()
    }
}

/// Re-probes `sub` on `snapshot`; the envelope re-centers on wherever
/// the issuer has drifted to, and the stab index follows.
fn reprobe_and_restab<E: ServeEngine>(
    sub: &mut Subscription<E>,
    slot: u32,
    snapshot: &Snapshot<E>,
    envelopes: &mut RTree<u32>,
    buffers: &mut Buffers,
) {
    let old = sub.envelope;
    sub.reprobe(snapshot, buffers);
    if sub.envelope != old {
        let removed = envelopes.remove(old, slot);
        debug_assert!(removed, "stab index out of sync");
        envelopes.insert(sub.envelope, slot);
    }
}

impl<E: ServeEngine> SubscriptionRegistry<E> {
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
            buffers: Buffers {
                ctx: ExecutionContext::new(Integrator::Auto),
                partials: Vec::new(),
                fresh: QueryAnswer::default(),
                delta: AnswerDelta::new(),
                ids: Vec::new(),
                probe: AccessStats::new(),
            },
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

    /// The cost counters of the last full evaluation — a subscribe, a
    /// tick, or a pump that re-ran a query: the pipeline's over the
    /// cached candidates, plus the node visits and items tested of the
    /// envelope probe it followed, if any. A pump that patches an
    /// answer runs no evaluation and leaves these as they were.
    pub fn last_stats(&self) -> &QueryStats {
        &self.buffers.fresh.stats
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
        if let Some(c) = &mut request.constraint {
            c.strategy = E::MINKOWSKI;
        }
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
            stale: true,
            last: Vec::new(),
            probes: 0,
            cache_hits: 0,
        };
        sub.reprobe(&snapshot, &mut self.buffers);
        sub.evaluate(&mut self.buffers);
        sub.last.extend_from_slice(&self.buffers.fresh.results);

        let envelope = sub.envelope;
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
    /// snapshot — zero index probes, zero heap allocations once warm —
    /// unless a pump has woken the subscription since they were
    /// probed: it patched the answer and left them stale, and the
    /// first tick after it probes once. So does motion past the
    /// envelope. Either rebinds to the engine's current epoch.
    pub fn tick(
        &mut self,
        engine: &ShardedEngine<E>,
        id: SubId,
        pdf: PdfKind,
    ) -> Option<(u64, &AnswerDelta)> {
        let &slot = self.by_id.get(&id)?;
        let sub = self.subs[slot as usize].as_mut().expect("live slot");
        sub.request.issuer.set_pdf(pdf);
        let expanded = filter_rect(&sub.request);
        if !sub.stale && sub.envelope.contains_rect(expanded) {
            sub.cache_hits += 1;
        } else {
            reprobe_and_restab(
                sub,
                slot,
                &engine.snapshot(),
                &mut self.envelopes,
                &mut self.buffers,
            );
        }
        sub.evaluate(&mut self.buffers);
        sub.deliver(&mut self.buffers);
        Some((sub.snapshot.epoch(), &self.buffers.delta))
    }

    /// Processes every epoch committed since the last pump, calling
    /// `emit` with `(id, epoch, delta)` for each subscription whose
    /// answer changed. Each epoch's dirty rectangle stabs the envelope
    /// index; subscriptions it misses do **no work at all**. A hit
    /// subscription is **patched** from the epochs' touched sets
    /// ([`EpochDirt::touched`]): each touched object whose footprint
    /// meets the filter rectangle is looked up in the current epoch
    /// and evaluated on its own, which costs the updates inside the
    /// expanded query, not its candidates. The subscription rebinds to
    /// the current epoch with its candidates marked stale (the next
    /// tick probes for them).
    ///
    /// The delta and the delivered answer are bit for bit those of the
    /// full re-evaluation, which is what runs instead — re-probe,
    /// pipeline, diff, the code `tick` runs — where a patch cannot
    /// have them: an epoch over
    /// [`TOUCHED_CAP`](crate::serve::TOUCHED_CAP). The engine publishes
    /// an epoch and its dirt together, so the dirt a pump reads always
    /// ends at the snapshot it patches against.
    ///
    /// Falling more than the engine's dirt history behind degrades
    /// gracefully: every subscription is re-evaluated in full.
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
        let (current, gapless) = engine.dirt_since(self.seen_epoch, &mut self.dirt);

        let mut stab = std::mem::take(&mut self.stab);
        stab.clear();
        if gapless {
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
                        &mut self.buffers.ctx.scratch.traversal,
                        &mut stab,
                    );
                }
            }
            stab.sort_unstable();
            stab.dedup();
        } else {
            // Behind the bounded history: conservatively wake all.
            stab.extend(
                self.subs
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.is_some())
                    .map(|(k, _)| k as u32),
            );
        }

        for &slot in &stab {
            let Some(sub) = self.subs[slot as usize].as_mut() else {
                continue;
            };
            if sub.snapshot.epoch() >= current.epoch() {
                // Already rebound past everything processed here (a
                // tick re-probed mid-span).
                continue;
            }
            report.woken += 1;
            let patched = if gapless {
                sub.patch(&current, &self.dirt, &mut self.buffers)
            } else {
                None
            };
            match patched {
                Some(evaluated) => {
                    report.patched += 1;
                    report.objects_evaluated += evaluated;
                }
                None => {
                    reprobe_and_restab(sub, slot, &current, &mut self.envelopes, &mut self.buffers);
                    sub.evaluate(&mut self.buffers);
                    sub.deliver(&mut self.buffers);
                }
            }
            if !self.buffers.delta.is_empty() {
                report.notified += 1;
                emit(sub.id, current.epoch(), &self.buffers.delta);
            }
        }
        self.stab = stab;
        // The touched sets are the engine's; keep none past its history.
        self.dirt.clear();
        self.seen_epoch = current.epoch();
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

    fn assert_matches_fresh(
        engine: &ShardedEngine<PointEngine>,
        registry: &SubscriptionRegistry<PointEngine>,
        id: SubId,
    ) {
        let sub = registry.get(id).unwrap();
        let want = engine.snapshot().execute_one(sub.request());
        assert_eq!(sub.last_answer().len(), want.results.len());
        for (a, b) in sub.last_answer().iter().zip(&want.results) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.probability.to_bits(), b.probability.to_bits());
        }
    }

    #[test]
    fn subscribe_answers_match_snapshot_execution() {
        let engine = engine(4);
        let mut registry: SubscriptionRegistry<PointEngine> = SubscriptionRegistry::new();
        let id = registry.subscribe(&engine, request_at(500.0, 500.0), 100.0);
        assert!(!registry.get(id).unwrap().last_answer().is_empty());
        assert_matches_fresh(&engine, &registry, id);
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

        let mut emitted = Vec::new();
        let report = registry.pump(&engine, |id, epoch, delta| {
            emitted.push((id, epoch, delta.clone()));
        });
        assert_eq!(report.woken, 1, "only the corner subscription wakes");
        assert_eq!(
            registry.get(middle).unwrap().probes(),
            probes_before,
            "the middle subscription must not be woken by the hull of two corner commits"
        );
        // Waking is no probe any more: the corner's answer is patched
        // from epoch 1's touched set — one object looked up, gone.
        assert_eq!(
            report,
            PumpReport {
                woken: 1,
                notified: 1,
                patched: 1,
                objects_evaluated: 1,
            }
        );
        assert_eq!(emitted.len(), 1);
        let (id, epoch, delta) = &emitted[0];
        assert_eq!((*id, *epoch), (corner, 2));
        assert!(delta.upserts.is_empty());
        assert_eq!(delta.removals, vec![ObjectId(0)]);
        assert_eq!(registry.get(corner).unwrap().epoch(), 2);
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
    fn a_patched_subscription_probes_once_on_its_next_tick() {
        let engine = engine(2);
        let mut registry: SubscriptionRegistry<PointEngine> = SubscriptionRegistry::new();
        let request = request_at(500.0, 500.0);
        let id = registry.subscribe(&engine, request.clone(), 100.0);

        // Inside the envelope, outside the filter rectangle: nothing to
        // evaluate, nothing to emit, but the candidates are stale.
        engine.submit(Update::Arrive(PointObject::new(
            9_000u64,
            Point::new(690.0, 500.0),
        )));
        engine.commit();
        let report = registry.pump(&engine, |_, _, _| panic!("the answer did not change"));
        assert_eq!((report.woken, report.patched), (1, 1));
        assert_eq!(report.objects_evaluated, 0);
        assert_eq!(registry.get(id).unwrap().epoch(), 1);
        assert_eq!(registry.get(id).unwrap().probes(), 1);

        // The tick that needs them probes once, and sees the arrival
        // when the query moves over it.
        let moved = request_at(600.0, 500.0);
        let (_, delta) = registry
            .tick(&engine, id, moved.issuer.pdf().clone())
            .unwrap();
        assert!(delta.upserts.iter().any(|m| m.id == ObjectId(9_000)));
        assert_eq!(registry.get(id).unwrap().probes(), 2);
        assert_matches_fresh(&engine, &registry, id);
        for _ in 0..5 {
            registry
                .tick(&engine, id, moved.issuer.pdf().clone())
                .unwrap();
        }
        let sub = registry.get(id).unwrap();
        assert_eq!((sub.probes(), sub.cache_hits()), (2, 5));
    }

    #[test]
    fn a_hull_hit_with_nothing_near_the_query_costs_no_evaluation() {
        let engine = engine(2);
        let mut registry: SubscriptionRegistry<PointEngine> = SubscriptionRegistry::new();
        let id = registry.subscribe(&engine, request_at(500.0, 500.0), 50.0);
        // Two corners in one batch: the hull is the domain.
        engine.submit(Update::Depart(ObjectId(0)));
        engine.submit(Update::Depart(ObjectId(399)));
        engine.commit();
        let report = registry.pump(&engine, |_, _, _| panic!("nothing changed"));
        assert_eq!(
            report,
            PumpReport {
                woken: 1,
                notified: 0,
                patched: 1,
                objects_evaluated: 0,
            }
        );
        // Rebound, so the old epoch's pages are let go.
        let sub = registry.get(id).unwrap();
        assert_eq!((sub.epoch(), sub.probes()), (1, 1));
        assert_matches_fresh(&engine, &registry, id);
    }

    #[test]
    fn the_full_path_runs_only_where_a_patch_cannot_have_the_answer() {
        use crate::serve::{DIRT_HISTORY, TOUCHED_CAP};

        let engine = engine(4);
        let mut registry: SubscriptionRegistry<PointEngine> = SubscriptionRegistry::new();
        let exact = registry.subscribe(&engine, request_at(500.0, 500.0), 60.0);
        let mut sampled = request_at(500.0, 500.0);
        sampled.integrator = Integrator::MonteCarlo { samples: 50 };
        let sampled = registry.subscribe(&engine, sampled, 60.0);
        let mut next_id = 10_000u64;
        let mut arrive_near = |n: usize| {
            for _ in 0..n {
                engine.submit(Update::Arrive(PointObject::new(
                    next_id,
                    Point::new(480.0 + (next_id % 40) as f64, 510.0),
                )));
                next_id += 1;
            }
            engine.commit();
        };

        // A sampling subscription is patched like any other: each
        // object's estimate draws from its own stream.
        arrive_near(3);
        let report = registry.pump(&engine, |_, _, _| {});
        assert_eq!((report.woken, report.patched, report.notified), (2, 2, 2));
        assert_eq!(report.objects_evaluated, 6);
        assert_eq!(registry.get(exact).unwrap().probes(), 1);
        assert_eq!(registry.get(sampled).unwrap().probes(), 1);
        assert_matches_fresh(&engine, &registry, sampled);
        assert!(registry.unsubscribe(sampled));

        // An epoch over the cap keeps no touched set.
        arrive_near(TOUCHED_CAP + 1);
        let report = registry.pump(&engine, |_, _, _| {});
        assert_eq!((report.woken, report.patched), (1, 0));
        assert_eq!(registry.get(exact).unwrap().probes(), 2);
        assert_matches_fresh(&engine, &registry, exact);

        // One at the cap does.
        arrive_near(TOUCHED_CAP);
        let report = registry.pump(&engine, |_, _, _| {});
        assert_eq!((report.woken, report.patched), (1, 1));
        assert_eq!(report.objects_evaluated, TOUCHED_CAP);
        assert_matches_fresh(&engine, &registry, exact);

        // Behind the dirt history everything re-runs.
        for _ in 0..DIRT_HISTORY + 1 {
            arrive_near(1);
        }
        let report = registry.pump(&engine, |_, _, _| {});
        assert_eq!((report.woken, report.patched), (1, 0));
        assert_eq!(registry.get(exact).unwrap().probes(), 3);
        assert_matches_fresh(&engine, &registry, exact);
    }

    #[test]
    fn slack_trades_probes_for_cached_filtering() {
        let engine = engine(2);
        // Subscribed where a 60-tick straight walk starts: its first
        // tick stands still, the other 59 move.
        let walk = |slack: f64| {
            let mut registry: SubscriptionRegistry<PointEngine> = SubscriptionRegistry::new();
            let id = registry.subscribe(&engine, request_at(200.0, 300.0), slack);
            for t in 0..60 {
                let request = request_at(200.0 + t as f64 * 6.0, 300.0 + t as f64 * 2.5);
                registry
                    .tick(&engine, id, request.issuer.pdf().clone())
                    .unwrap();
                assert_matches_fresh(&engine, &registry, id);
            }
            let sub = registry.get(id).unwrap();
            assert_eq!(sub.probes() + sub.cache_hits(), 61);
            sub.probes()
        };
        assert_eq!(walk(0.0), 1 + 59, "zero slack probes on every move");
        let wide = walk(150.0);
        assert!(wide < 10, "a wide envelope amortises probes, got {wide}");
    }

    #[test]
    fn last_stats_count_the_probe_io_of_the_evaluation_it_preceded() {
        let engine = engine(2);
        let mut registry: SubscriptionRegistry<PointEngine> = SubscriptionRegistry::new();
        let id = registry.subscribe(&engine, request_at(500.0, 500.0), 100.0);
        let fresh = |registry: &SubscriptionRegistry<PointEngine>| {
            let request = registry.get(id).unwrap().request();
            engine.snapshot().execute_one(request).stats.access
        };

        // Inside the envelope: no node is read.
        let near = request_at(510.0, 500.0);
        registry
            .tick(&engine, id, near.issuer.pdf().clone())
            .unwrap();
        assert_eq!(registry.get(id).unwrap().cache_hits(), 1);
        let hit = registry.last_stats().access;
        assert_eq!(hit.nodes_visited, 0);
        assert_eq!(hit.candidates, fresh(&registry).candidates);

        // Past it: the probe's node visits are the evaluation's, its
        // hits are not — the candidates are the query's, as fresh.
        let far = request_at(800.0, 800.0);
        registry
            .tick(&engine, id, far.issuer.pdf().clone())
            .unwrap();
        assert_eq!(registry.get(id).unwrap().probes(), 2);
        let probed = registry.last_stats().access;
        assert!(probed.nodes_visited > 0);
        assert_eq!(probed.candidates, fresh(&registry).candidates);
    }

    #[test]
    #[should_panic(expected = "slack")]
    fn subscribe_rejects_nan_slack() {
        let engine = engine(1);
        let subscribe = |slack: f64| {
            SubscriptionRegistry::<PointEngine>::new().subscribe(
                &engine,
                request_at(0.0, 0.0),
                slack,
            )
        };
        // The two other ways out of [0, ∞) are refused too ...
        for slack in [-1.0, f64::INFINITY] {
            let refused =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| subscribe(slack)));
            assert!(refused.is_err(), "subscribed with {slack}");
        }
        // ... and NaN, which no comparison with 0 catches, ends the test.
        subscribe(f64::NAN);
    }
}
