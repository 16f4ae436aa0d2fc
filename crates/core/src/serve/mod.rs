//! The sharded serving layer: dynamic catalogs behind epoch-style
//! snapshots.
//!
//! The paper evaluates queries over a *static* object set; a deployed
//! location service faces a churning one — users arrive, depart and
//! move while queries keep draining. This module serves that workload
//! with a [`ShardedEngine`]: objects are hash-partitioned by id across
//! `n` shards, each shard a complete single-node engine
//! ([`PointEngine`] or [`UncertainEngine`]) answering the full
//! filter → prune → refine pipeline over its partition, and a query
//! fans out to every shard and the **fan-in sorts the union of the
//! per-shard matches by id once**, so a sharded answer is
//! indistinguishable from a single-engine answer over the union
//! (property-tested across shard counts).
//!
//! ## The snapshot-consistency invariant
//!
//! All reads go through a [`Snapshot`], an immutable epoch of the
//! whole catalog:
//!
//! > **Every query executed against a snapshot sees exactly the
//! > objects that were live when that snapshot's epoch was
//! > committed — never a torn state with some updates applied on one
//! > shard but not another, no matter how many updates are submitted
//! > or committed concurrently.**
//!
//! The implementation makes the invariant structural rather than
//! policed: a snapshot is an `Arc` of an immutable shard list,
//! [`ShardedEngine::submit`] only buffers updates, and
//! [`ShardedEngine::commit`] applies the buffer **copy-on-write, page
//! by page**. A shard's object table, bound table and id map live in
//! reference-counted pages and sub-maps and its R-tree / PTI nodes in
//! reference-counted entry blocks, so the `Arc::make_mut` that gives
//! the commit its own copy of a touched shard copies spines — a
//! pointer per page and per node, no object and no entry. Each update
//! then copies the first time it writes them, and only then: the object
//! page and id sub-maps it changes, one page per bound-table column,
//! and the tree nodes on the root-to-leaf paths its incremental
//! maintenance walks (R-tree insert/condense, PTI constrained-rectangle
//! repair). A departure writes no object page at all: it vacates its
//! slot, and a shard is rebuilt only once its vacated slots outnumber
//! its live objects. Everything else the new epoch shares with
//! the old one, which is published by an atomic pointer swap. In-flight
//! queries keep reading the epoch they started on; new queries pick up
//! the new epoch with the next [`ShardedEngine::snapshot`] call; a
//! snapshot someone keeps — a checkpointer, a slow subscriber, an idle
//! serving loop — pins only the pages and nodes later epochs replaced,
//! not a second catalog. Readers never block writers and writers never
//! block readers (the `RwLock` guards only the pointer swap itself,
//! held for nanoseconds).
//!
//! Determinism carries over from the pipeline: with closed-form
//! integrators, answers through any shard count are **bit-identical**
//! to a from-scratch rebuild on the same live set (`tests/dynamic.rs`
//! pins this for shard counts 1/2/8).
//!
//! ```
//! use iloc_core::serve::{ShardedEngine, Update};
//! use iloc_core::pipeline::PointRequest;
//! use iloc_core::{Issuer, PointEngine, RangeSpec};
//! use iloc_geometry::{Point, Rect};
//! use iloc_uncertainty::{ObjectId, PointObject};
//!
//! let objects: Vec<PointObject> = (0..100)
//!     .map(|k| PointObject::new(k as u64, Point::new(k as f64 * 10.0, 500.0)))
//!     .collect();
//! let engine: ShardedEngine<PointEngine> = ShardedEngine::build(objects, 4);
//!
//! // Queries run against a consistent snapshot...
//! let snapshot = engine.snapshot();
//! let issuer = Issuer::uniform(Rect::centered(Point::new(500.0, 500.0), 50.0, 50.0));
//! let before = snapshot.execute_one(&PointRequest::ipq(issuer.clone(), RangeSpec::square(80.0)));
//!
//! // ...while updates buffer and apply atomically at the next epoch.
//! engine.submit(Update::Depart(ObjectId(50)));
//! engine.submit(Update::Arrive(PointObject::new(1_000u64, Point::new(505.0, 500.0))));
//! engine.commit();
//!
//! let after = engine.snapshot().execute_one(&PointRequest::ipq(issuer, RangeSpec::square(80.0)));
//! // The old snapshot still answers from its own epoch.
//! assert_eq!(before.results.len(), after.results.len());
//! assert!(before.probability_of(ObjectId(50)).is_some());
//! assert!(after.probability_of(ObjectId(50)).is_none());
//! assert!(after.probability_of(ObjectId(1_000)).is_some());
//! ```

mod sharded;

pub use sharded::{
    CommitReport, EpochDirt, ShardServer, ShardedEngine, Snapshot, DIRT_HISTORY, TOUCHED_CAP,
};

use iloc_geometry::Rect;
use iloc_index::{AccessStats, Pages, TraversalScratch};
use iloc_uncertainty::{ObjectId, PointObject, UncertainObject};

use crate::engine::{PointEngine, UncertainEngine};
use crate::pipeline::{BatchEngine, CatalogObject, EvaluatorKind, ExecutionContext, QueryRequest};
use crate::query::{CipqStrategy, CiuqStrategy};
use crate::result::QueryAnswer;

/// One catalog mutation, routed to the shard owning its object id.
#[derive(Debug, Clone)]
pub enum Update<O> {
    /// A new object enters the catalog.
    Arrive(O),
    /// The object with this id leaves the catalog (a no-op when the
    /// id is unknown — departures can race with expiry).
    Depart(ObjectId),
    /// The object with this payload's id is replaced wholesale (its
    /// new location / uncertainty region); equivalent to a departure
    /// plus an arrival within one epoch.
    Move(O),
}

/// A single-node engine the sharded serving layer can partition and
/// hold standing queries over: buildable from an object list,
/// queryable request by request, **dynamically maintainable** through
/// incremental index updates, and probeable with a bare rectangle (a
/// standing query's safe envelope). (`Send` on top of `BatchEngine`'s
/// `Sync` because snapshots share shard `Arc`s across serving
/// threads.)
pub trait ServeEngine:
    BatchEngine<Request = QueryRequest<<Self as ServeEngine>::Strategy>> + Clone + Send
{
    /// The catalog object type (point or uncertain).
    type Object: CatalogObject;

    /// The catalog's constrained-query strategy.
    type Strategy: Copy + Send + Sync;

    /// The strategy that filters with the Minkowski sum `R ⊕ U0`: what
    /// a standing query's cached envelope reproduces (see
    /// [`crate::subscribe`]).
    const MINKOWSKI: Self::Strategy;

    /// Builds one shard engine over a partition of the catalog.
    fn build_from(objects: Vec<Self::Object>) -> Self;

    /// Inserts one object, maintaining every index incrementally.
    /// **Must upsert**: when the object's id is already live, the
    /// existing object is replaced — [`ShardedEngine::commit`] relies
    /// on this for both `Move` and retried `Arrive` updates.
    fn insert_object(&mut self, object: Self::Object);

    /// Removes the object with this id incrementally; `true` when it
    /// was present.
    fn remove_object(&mut self, id: ObjectId) -> bool;

    /// The live object with this id, if present — whose extent is the
    /// *pre-update* footprint a departure or move dirties.
    fn find(&self, id: ObjectId) -> Option<&Self::Object>;

    /// Number of live objects in this shard.
    fn len(&self) -> usize;

    /// `true` when this shard holds nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of object slots in this shard, vacated ones included: a
    /// departure vacates its slot and leaves every other object where
    /// it is. [`ShardedEngine::commit`] rebuilds a shard once its
    /// vacated slots outnumber its live objects.
    fn slots(&self) -> usize;

    /// Every slot's object, in the engine's copy-on-write pages — the
    /// storage the pipeline indexes by slot. A vacated slot still holds
    /// the object that departed from it.
    fn objects(&self) -> &Pages<Self::Object>;

    /// The live objects of this shard, in slot order. Checkpointing
    /// and compaction enumerate shard state through this; a snapshot
    /// held for a checkpoint pins only the pages later epochs replace.
    fn live_objects(&self) -> impl Iterator<Item = &Self::Object>;

    /// Probes this shard's index with `filter`, appending the slots of
    /// the objects [`CatalogObject::within`] it to `out`
    /// (allocation-free once `scratch`/`out` are warm).
    fn probe_into(
        &self,
        filter: Rect,
        stats: &mut AccessStats,
        scratch: &mut TraversalScratch,
        out: &mut Vec<u32>,
    );

    /// Answers one request like [`BatchEngine::execute_one_into`] but
    /// leaves the matches in the order the index probe found them: the
    /// shard's part of a fan-out, which sorts the union of every
    /// shard's matches once.
    fn execute_unordered_into(
        &self,
        request: &Self::Request,
        ctx: &mut ExecutionContext,
        answer: &mut QueryAnswer,
    );
}

impl ServeEngine for PointEngine {
    type Object = PointObject;
    type Strategy = CipqStrategy;
    const MINKOWSKI: CipqStrategy = CipqStrategy::MinkowskiSum;

    fn build_from(objects: Vec<Self::Object>) -> Self {
        PointEngine::from_objects(objects)
    }

    fn insert_object(&mut self, object: Self::Object) {
        PointEngine::insert_object(self, object);
    }

    fn remove_object(&mut self, id: ObjectId) -> bool {
        PointEngine::remove(self, id)
    }

    fn find(&self, id: ObjectId) -> Option<&Self::Object> {
        PointEngine::find(self, id)
    }

    fn len(&self) -> usize {
        PointEngine::len(self)
    }

    fn slots(&self) -> usize {
        PointEngine::slots(self)
    }

    fn objects(&self) -> &Pages<Self::Object> {
        PointEngine::objects(self)
    }

    fn live_objects(&self) -> impl Iterator<Item = &Self::Object> {
        self.live().map(|(_, object)| object)
    }

    fn probe_into(
        &self,
        filter: Rect,
        stats: &mut AccessStats,
        scratch: &mut TraversalScratch,
        out: &mut Vec<u32>,
    ) {
        PointEngine::probe_into(self, filter, stats, scratch, out);
    }

    fn execute_unordered_into(
        &self,
        request: &Self::Request,
        ctx: &mut ExecutionContext,
        answer: &mut QueryAnswer,
    ) {
        self.execute_by(request, EvaluatorKind::Duality, ctx, answer);
    }
}

impl ServeEngine for UncertainEngine {
    type Object = UncertainObject;
    type Strategy = CiuqStrategy;
    const MINKOWSKI: CiuqStrategy = CiuqStrategy::RTreeMinkowski;

    fn build_from(objects: Vec<Self::Object>) -> Self {
        UncertainEngine::build(objects)
    }

    fn insert_object(&mut self, object: Self::Object) {
        UncertainEngine::insert(self, object);
    }

    fn remove_object(&mut self, id: ObjectId) -> bool {
        UncertainEngine::remove(self, id)
    }

    fn find(&self, id: ObjectId) -> Option<&Self::Object> {
        UncertainEngine::find(self, id)
    }

    fn len(&self) -> usize {
        UncertainEngine::len(self)
    }

    fn slots(&self) -> usize {
        UncertainEngine::slots(self)
    }

    fn objects(&self) -> &Pages<Self::Object> {
        UncertainEngine::objects(self)
    }

    fn live_objects(&self) -> impl Iterator<Item = &Self::Object> {
        self.live().map(|(_, object)| object)
    }

    fn probe_into(
        &self,
        filter: Rect,
        stats: &mut AccessStats,
        scratch: &mut TraversalScratch,
        out: &mut Vec<u32>,
    ) {
        UncertainEngine::probe_into(self, filter, stats, scratch, out);
    }

    fn execute_unordered_into(
        &self,
        request: &Self::Request,
        ctx: &mut ExecutionContext,
        answer: &mut QueryAnswer,
    ) {
        self.execute_by(request, EvaluatorKind::Duality, ctx, answer);
    }
}

/// A shard engine answers a request on its own by sorting its one
/// unordered run.
impl<E: ServeEngine> BatchEngine for E {
    type Request = QueryRequest<E::Strategy>;

    fn execute_one_into(
        &self,
        request: &Self::Request,
        ctx: &mut ExecutionContext,
        answer: &mut QueryAnswer,
    ) {
        ctx.gather_into(1, answer, |_, ctx, part| {
            self.execute_unordered_into(request, ctx, part)
        });
    }
}

/// The shard owning an object id: a SplitMix64 finalizer over the raw
/// id, reduced modulo the shard count. The mix step keeps sequential
/// ids (the common allocation pattern) spread evenly instead of
/// striping them.
pub fn shard_of(id: ObjectId, shard_count: usize) -> usize {
    debug_assert!(shard_count > 0);
    (crate::engine::mix_id(id) % shard_count as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for n in [1usize, 2, 3, 8, 17] {
            for id in 0..1_000u64 {
                let s = shard_of(ObjectId(id), n);
                assert!(s < n);
                assert_eq!(s, shard_of(ObjectId(id), n), "must be deterministic");
            }
        }
    }

    #[test]
    fn sequential_ids_spread_across_shards() {
        let n = 8;
        let mut counts = vec![0usize; n];
        for id in 0..8_000u64 {
            counts[shard_of(ObjectId(id), n)] += 1;
        }
        for &c in &counts {
            // Perfectly balanced would be 1000; allow wide slack.
            assert!((700..=1_300).contains(&c), "skewed shard load: {counts:?}");
        }
    }
}
