//! `ShardedEngine`, its epoch snapshots, and the per-worker
//! `ShardServer` serving loop. See the [module docs](super) for the
//! snapshot-consistency invariant.

use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use iloc_geometry::Rect;
use iloc_uncertainty::ObjectId;

use crate::integrate::Integrator;
use crate::pipeline::{BatchEngine, CatalogObject, ExecutionContext};
use crate::result::QueryAnswer;

use super::{shard_of, ServeEngine, Update};

/// One immutable epoch of the whole sharded catalog. Cloning is two
/// atomic increments; every clone reads the same object set forever.
///
/// Consecutive epochs share what the commit between them did not
/// write: an untouched shard is the same `Arc`, and a touched shard
/// shares every table page and tree node its updates left alone. A
/// snapshot held across later commits therefore keeps alive the shard
/// spines of its epoch plus the pages and nodes since replaced — on
/// the order of the updates committed meanwhile, not a copy of the
/// catalog.
#[derive(Debug, Clone)]
pub struct Snapshot<E> {
    epoch: u64,
    shards: Arc<Vec<Arc<E>>>,
}

impl<E: ServeEngine> Snapshot<E> {
    /// The epoch this snapshot was committed at (0 = the build).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total live objects across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// `true` when no shard holds an object.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Per-shard live-object counts in shard order (what the serving
    /// layer's stats frame reports; also handy for eyeballing the hash
    /// partitioning balance).
    pub fn shard_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.shards.iter().map(|s| s.len())
    }

    /// The per-shard engines (each a complete single-node engine over
    /// its partition).
    pub fn shards(&self) -> &[Arc<E>] {
        &self.shards
    }

    /// Answers one request with a fresh context: fan-out to every
    /// shard, fan-in sorted by id.
    pub fn execute_one(&self, request: &E::Request) -> QueryAnswer {
        BatchEngine::execute_one(self, request)
    }
}

impl<E: ServeEngine> BatchEngine for Snapshot<E> {
    type Request = E::Request;

    /// The one fan-out/fan-in: every shard answers through `ctx` into
    /// its own partial answer in the context's scratch — the shard's
    /// disjoint id set, in probe order — and the union of the partials
    /// is sorted into `answer` by id with one radix sort
    /// ([`crate::sort_matches_into`]), the cost counters summed. The
    /// cluster router merges its nodes' id-sorted answers instead
    /// ([`crate::merge_partials_into`]); both give the list a single
    /// engine over the whole catalog gives.
    fn execute_one_into(
        &self,
        request: &E::Request,
        ctx: &mut ExecutionContext,
        answer: &mut QueryAnswer,
    ) {
        ctx.gather_into(self.shards.len(), answer, |k, ctx, partial| {
            self.shards[k].execute_unordered_into(request, ctx, partial)
        });
    }
}

/// A per-worker serving loop bound to one snapshot: owns a long-lived
/// context, whose scratch holds the per-shard answer buffers, so a
/// steady-state query through a warm server performs **no heap
/// allocation** (the same invariant the single-engine hot path has;
/// every server event loop answers queries through one of these,
/// which is where `loadgen --check-allocs` and `tests/zero_alloc.rs`
/// measure it).
#[derive(Debug)]
pub struct ShardServer<E: ServeEngine> {
    snapshot: Snapshot<E>,
    ctx: ExecutionContext,
}

impl<E: ServeEngine> ShardServer<E> {
    /// A server for `snapshot` with cold buffers.
    pub fn new(snapshot: Snapshot<E>) -> Self {
        ShardServer {
            snapshot,
            ctx: ExecutionContext::new(Integrator::Auto),
        }
    }

    /// The snapshot this server reads.
    pub fn snapshot(&self) -> &Snapshot<E> {
        &self.snapshot
    }

    /// Follows a newer epoch, keeping the warm buffers.
    pub fn rebind(&mut self, snapshot: Snapshot<E>) {
        self.snapshot = snapshot;
    }

    /// Answers one request into `answer` (cleared first);
    /// allocation-free once buffers have grown to workload size.
    pub fn execute_into(&mut self, request: &E::Request, answer: &mut QueryAnswer) {
        self.snapshot
            .execute_one_into(request, &mut self.ctx, answer);
    }
}

/// What one [`ShardedEngine::commit`] applied.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommitReport {
    /// The epoch now current (unchanged when nothing was pending).
    pub epoch: u64,
    /// Arrivals inserted.
    pub arrivals: usize,
    /// Departures that removed a live object.
    pub departures: usize,
    /// Moves applied (including moves of unknown ids, which upsert).
    pub moves: usize,
    /// Departures whose id was not live (no-ops).
    pub missed_departures: usize,
    /// Updates applied per shard, in shard order (empty for an empty
    /// commit). Sums to [`CommitReport::applied`].
    pub per_shard: Vec<usize>,
    /// The merged **dirty rectangle**: the hull of every footprint
    /// this commit touched — the extent an arrival or move lands on,
    /// and the extent a departure, a move or an arrival over a live id
    /// replaces. `None` when nothing spatial changed (an empty commit,
    /// or one of missed departures only). Subscription wake-up stabs
    /// standing queries with this: a safe envelope disjoint from it
    /// cannot have had its answer changed by this epoch. The
    /// footprints themselves are the epoch's touched set
    /// ([`EpochDirt::touched`]).
    pub dirty: Option<Rect>,
}

impl CommitReport {
    /// Total updates this commit applied (arrivals + departures +
    /// moves; missed departures were consumed but changed nothing).
    pub fn applied(&self) -> usize {
        self.arrivals + self.departures + self.moves
    }

    /// Grows the dirty rectangle to cover `extent`.
    fn dirty_absorb(&mut self, extent: Rect) {
        self.dirty = Some(match self.dirty {
            None => extent,
            Some(d) => d.hull(extent),
        });
    }
}

/// How many recent commits a [`ShardedEngine`] remembers for
/// [`ShardedEngine::dirt_since`]: enough that any serving loop polling
/// at frame granularity sees every epoch, bounded so a long-running
/// server never grows the history.
pub const DIRT_HISTORY: usize = 64;

/// The most `(id, extent)` pairs one epoch's touched set holds
/// ([`EpochDirt::touched`]); a commit that touches more records none.
/// Two pairs a move, so a 256-update batch always fits, and the whole
/// history stays under `DIRT_HISTORY × TOUCHED_CAP × 40` bytes.
pub const TOUCHED_CAP: usize = 512;

/// One committed epoch's spatial footprint, as remembered by the
/// engine's bounded dirt history.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochDirt {
    /// The epoch this commit published.
    pub epoch: u64,
    /// Its merged dirty rectangle (see [`CommitReport::dirty`]).
    pub dirty: Option<Rect>,
    /// The epoch's **touched set**: every footprint `dirty` is the hull
    /// of, with the id it belongs to, in update order — the extent an
    /// arrival or move lands on, and the extent a departure, a move or
    /// an arrival over a live id replaces. An id updated twice appears
    /// once per footprint. A standing query whose envelope none of
    /// these extents meets kept its answer through this epoch; one
    /// they do meet need only look at the ids listed. `None` when the
    /// commit touched more than [`TOUCHED_CAP`] footprints: everything
    /// under `dirty` must then be taken as changed. Shared, not
    /// copied, by every [`ShardedEngine::dirt_since`] caller.
    pub touched: Option<Arc<[(ObjectId, Rect)]>>,
}

/// A dynamic, hash-sharded serving engine. See the
/// [module docs](super) for the design and the snapshot-consistency
/// invariant.
#[derive(Debug)]
pub struct ShardedEngine<E: ServeEngine> {
    /// The current epoch, swapped wholesale at commit, and the bounded
    /// history of the last [`DIRT_HISTORY`] commits' spatial footprints
    /// that subscription wake-up consumes, ending at that epoch. A
    /// commit publishes both in one write; the lock guards only that
    /// and the clone, never query execution.
    current: RwLock<(Snapshot<E>, VecDeque<EpochDirt>)>,
    /// `current`'s epoch, stored (Release) after each snapshot swap so
    /// [`ShardedEngine::epoch`] is one Acquire load: a reader that sees
    /// epoch `e` here gets a snapshot of epoch `>= e` from
    /// [`ShardedEngine::snapshot`].
    epoch: AtomicU64,
    /// Updates buffered for the next epoch.
    pending: Mutex<Vec<Update<E::Object>>>,
    /// The previous commit's drained update buffer, kept so repeated
    /// submit/commit cycles stop re-growing `pending` from empty (the
    /// commit path's dominant steady-state allocation).
    pending_spare: Mutex<Vec<Update<E::Object>>>,
    /// Serializes commits (readers are never blocked by it). What it
    /// guards is the buffer a commit collects its touched set in, kept
    /// so that only the shared copy is allocated per commit.
    commit_lock: Mutex<Vec<(ObjectId, Rect)>>,
}

impl<E: ServeEngine> ShardedEngine<E> {
    /// Partitions `objects` by id hash across `shard_count` shards and
    /// builds one engine per shard (epoch 0).
    ///
    /// # Panics
    ///
    /// Panics when `shard_count` is zero.
    pub fn build(objects: Vec<E::Object>, shard_count: usize) -> Self {
        Self::build_at(objects, shard_count, 0)
    }

    /// [`ShardedEngine::build`], but the initial snapshot publishes as
    /// `epoch` instead of 0. Crash recovery uses this to rebuild an
    /// engine at a checkpoint's epoch before replaying the log suffix;
    /// everything else should build at 0.
    ///
    /// # Panics
    ///
    /// Panics when `shard_count` is zero.
    pub fn build_at(objects: Vec<E::Object>, shard_count: usize, epoch: u64) -> Self {
        assert!(shard_count > 0, "shard count must be positive");
        let mut partitions: Vec<Vec<E::Object>> = (0..shard_count).map(|_| Vec::new()).collect();
        for object in objects {
            partitions[shard_of(object.id(), shard_count)].push(object);
        }
        let shards: Vec<Arc<E>> = partitions
            .into_iter()
            .map(|p| Arc::new(E::build_from(p)))
            .collect();
        ShardedEngine {
            current: RwLock::new((
                Snapshot {
                    epoch,
                    shards: Arc::new(shards),
                },
                VecDeque::with_capacity(DIRT_HISTORY),
            )),
            epoch: AtomicU64::new(epoch),
            pending: Mutex::new(Vec::new()),
            pending_spare: Mutex::new(Vec::new()),
            commit_lock: Mutex::new(Vec::new()),
        }
    }

    /// The current epoch's snapshot (two atomic increments; never
    /// blocks on a running commit's apply phase).
    pub fn snapshot(&self) -> Snapshot<E> {
        let (snapshot, _) = &*self.current.read().expect("snapshot lock poisoned");
        snapshot.clone()
    }

    /// The current epoch number: one atomic load, cheap enough to poll
    /// per request or per connection per tick.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Live objects in the current epoch.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// `true` when the current epoch holds no objects.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// Buffers one update for the next epoch (applied at
    /// [`ShardedEngine::commit`]; invisible to queries until then).
    pub fn submit(&self, update: Update<E::Object>) {
        self.pending
            .lock()
            .expect("pending lock poisoned")
            .push(update);
    }

    /// Buffers a batch of updates for the next epoch.
    pub fn submit_all(&self, updates: impl IntoIterator<Item = Update<E::Object>>) {
        self.pending
            .lock()
            .expect("pending lock poisoned")
            .extend(updates);
    }

    /// Updates buffered but not yet committed.
    pub fn pending_len(&self) -> usize {
        self.pending.lock().expect("pending lock poisoned").len()
    }

    /// Applies every buffered update copy-on-write and publishes the
    /// next epoch. The first update routed to a shard clones it
    /// (`Arc::make_mut`) — spines only: one count per table page, id
    /// sub-map and tree node, no object copied. The updates then go
    /// through the shard's incremental index maintenance, which copies
    /// a page, a sub-map or a node the first time this commit writes
    /// it, so a batch of `b` updates copies O(`b`) pages and shares the
    /// rest with the epoch it started from. The new shard list is
    /// swapped in atomically. Outstanding snapshots keep reading their
    /// own epoch. Commits serialize with each other; queries proceed
    /// throughout.
    ///
    /// A departure vacates its object's slot instead of moving another
    /// object into it, so a shard's live slots keep the order they were
    /// filled in. The commit after which a shard's vacated slots
    /// outnumber its live objects rebuilds that shard from its live
    /// objects in slot order ([`ServeEngine::build_from`]) — a fixed
    /// threshold, not an option, which the serving workloads' balanced
    /// churn does not reach in a run of minutes.
    ///
    /// Every extent an update replaces or lands on is looked up here
    /// anyway, for the dirty hull; the commit also keeps them, as the
    /// epoch's touched set ([`EpochDirt::touched`], one allocation),
    /// so that what the epoch costs a standing query is the updates
    /// inside its expanded query, not a re-evaluation.
    pub fn commit(&self) -> CommitReport {
        match self.commit_logged(|_, _| Ok::<(), Infallible>(())) {
            Ok(report) => report,
            Err(never) => match never {},
        }
    }

    /// [`ShardedEngine::commit`] with a log step: the drained batch is
    /// handed to `log` with the epoch it is about to publish as, before
    /// anything is applied. The batch `log` sees is exactly the batch
    /// the engine applies as that epoch, so a write-ahead log written
    /// here cannot disagree with the published state. If `log` fails,
    /// the batch goes back to the head of the pending queue, ahead of
    /// anything submitted meanwhile, nothing is published, and the
    /// error is returned; the next commit offers the same updates
    /// again. An empty commit does not call `log`.
    pub fn commit_logged<X>(
        &self,
        log: impl FnOnce(u64, &[Update<E::Object>]) -> Result<(), X>,
    ) -> Result<CommitReport, X> {
        let mut touched = self.commit_lock.lock().expect("commit lock poisoned");
        // Swap the pending buffer out against the spare (empty, but
        // capacity-retaining) one instead of `mem::take`-ing it, so
        // submit/commit cycles reuse one allocation in steady state.
        let mut updates = std::mem::take(&mut *self.pending_spare.lock().expect("spare poisoned"));
        std::mem::swap(
            &mut updates,
            &mut *self.pending.lock().expect("pending lock poisoned"),
        );
        if updates.is_empty() {
            *self.pending_spare.lock().expect("spare poisoned") = updates;
            // Early out before touching the shard list: an empty commit
            // costs two lock round-trips and no epoch (serving loops
            // commit on a timer, which often fires with nothing
            // pending).
            return Ok(CommitReport {
                epoch: self.epoch(),
                ..CommitReport::default()
            });
        }
        let base = self.snapshot();
        if let Err(e) = log(base.epoch + 1, &updates) {
            // Put the batch back in front of whatever was submitted
            // while `log` ran, keeping the queue in submission order.
            let mut pending = self.pending.lock().expect("pending lock poisoned");
            updates.append(&mut pending);
            std::mem::swap(&mut updates, &mut *pending);
            drop(pending);
            *self.pending_spare.lock().expect("spare poisoned") = updates;
            return Err(e);
        }
        touched.clear();
        let mut report = CommitReport {
            epoch: base.epoch,
            ..CommitReport::default()
        };
        let shard_count = base.shards.len();
        report.per_shard = vec![0; shard_count];
        let mut shards: Vec<Arc<E>> = base.shards.as_ref().clone();
        // One footprint: into the hull always, into the touched set
        // until it holds one pair more than it may (which is how an
        // overflow is told apart from a full set below).
        let mut touch = |report: &mut CommitReport, id: ObjectId, extent: Rect| {
            report.dirty_absorb(extent);
            if touched.len() <= TOUCHED_CAP {
                touched.push((id, extent));
            }
        };
        for update in updates.drain(..) {
            let arrival = matches!(update, Update::Arrive(_));
            match update {
                Update::Arrive(object) | Update::Move(object) => {
                    let id = object.id();
                    let s = shard_of(id, shard_count);
                    let shard = Arc::make_mut(&mut shards[s]);
                    // insert_object upserts, so a move replaces the
                    // live object, a move of an unknown id arrives and
                    // a retried arrival moves: all three dirty where
                    // the object was, if it was, and where it lands.
                    if let Some(old) = shard.find(id) {
                        touch(&mut report, id, old.extent());
                    }
                    touch(&mut report, id, object.extent());
                    shard.insert_object(object);
                    if arrival {
                        report.arrivals += 1;
                    } else {
                        report.moves += 1;
                    }
                    report.per_shard[s] += 1;
                }
                Update::Depart(id) => {
                    let s = shard_of(id, shard_count);
                    let shard = Arc::make_mut(&mut shards[s]);
                    let old = shard.find(id).map(|o| o.extent());
                    if shard.remove_object(id) {
                        if let Some(old) = old {
                            touch(&mut report, id, old);
                        }
                        report.departures += 1;
                        report.per_shard[s] += 1;
                    } else {
                        report.missed_departures += 1;
                    }
                }
            }
        }
        // Compaction: a shard whose vacated slots now outnumber its live
        // objects is rebuilt from them, in slot order — a vector's
        // growth slack, amortised the same way (only a shard this
        // commit touched can have crossed). Keeping the order keeps
        // every answer what the shard gave before, Monte-Carlo ones
        // included, and what a recovery from a checkpoint of it gives.
        for shard in &mut shards {
            if shard.slots() - shard.len() > shard.len() {
                *shard = Arc::new(E::build_from(shard.live_objects().cloned().collect()));
            }
        }
        report.epoch = base.epoch + 1;
        let dirt = EpochDirt {
            epoch: report.epoch,
            dirty: report.dirty,
            touched: (touched.len() <= TOUCHED_CAP).then(|| Arc::from(touched.as_slice())),
        };
        {
            let (current, recent) = &mut *self.current.write().expect("snapshot lock poisoned");
            *current = Snapshot {
                epoch: report.epoch,
                shards: Arc::new(shards),
            };
            if recent.len() == DIRT_HISTORY {
                recent.pop_front();
            }
            recent.push_back(dirt);
        }
        self.epoch.store(report.epoch, Ordering::Release);
        *self.pending_spare.lock().expect("spare poisoned") = updates;
        Ok(report)
    }

    /// Appends the spatial footprints of every *retained* commit after
    /// `epoch` (ascending) to `out`, and returns the snapshot they end
    /// at — both read under one lock, so the entries are exactly the
    /// commits between `epoch` and that snapshot when the flag is
    /// `true`: a gapless record from `epoch + 1` on. `false` means the
    /// caller fell more than [`DIRT_HISTORY`] commits behind (or is
    /// behind the epoch the engine was built at) and must treat
    /// **everything** as dirty. Each entry shares its epoch's touched
    /// set with the history (a reference count, no copy).
    pub fn dirt_since(&self, epoch: u64, out: &mut Vec<EpochDirt>) -> (Snapshot<E>, bool) {
        let current = self.current.read().expect("snapshot lock poisoned");
        let (snapshot, recent) = &*current;
        out.extend(recent.iter().filter(|d| d.epoch > epoch).cloned());
        let gapless = recent
            .front()
            .map_or(snapshot.epoch <= epoch, |first| epoch + 1 >= first.epoch);
        (snapshot.clone(), gapless)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PointEngine;
    use crate::pipeline::PointRequest;
    use crate::query::{Issuer, RangeSpec};
    use iloc_geometry::{Point, Rect};
    use iloc_uncertainty::{ObjectId, PointObject};

    fn grid_objects(n_side: u64) -> Vec<PointObject> {
        (0..n_side * n_side)
            .map(|k| {
                PointObject::new(
                    k,
                    Point::new((k % n_side) as f64 * 50.0, (k / n_side) as f64 * 50.0),
                )
            })
            .collect()
    }

    fn ipq_at(x: f64, y: f64) -> PointRequest {
        PointRequest::ipq(
            Issuer::uniform(Rect::centered(Point::new(x, y), 60.0, 60.0)),
            RangeSpec::square(90.0),
        )
    }

    #[test]
    fn sharded_answers_match_single_engine() {
        let objects = grid_objects(20);
        let single = PointEngine::from_objects(objects.clone());
        // 3 and 5: merge trees with a run left over at a level.
        for shards in [1usize, 2, 3, 5, 8] {
            let sharded: ShardedEngine<PointEngine> = ShardedEngine::build(objects.clone(), shards);
            assert_eq!(sharded.len(), objects.len());
            let snapshot = sharded.snapshot();
            for request in [
                ipq_at(500.0, 500.0),
                ipq_at(10.0, 10.0),
                ipq_at(950.0, 80.0),
            ] {
                let want = single.execute_one(&request);
                let got = snapshot.execute_one(&request);
                assert!(got.same_matches(&want), "{shards} shards diverged");
                // Merged matches are in id order.
                assert!(got.results.windows(2).all(|w| w[0].id < w[1].id));
            }
        }
    }

    #[test]
    fn snapshots_are_immutable_across_commits() {
        let sharded: ShardedEngine<PointEngine> = ShardedEngine::build(grid_objects(10), 4);
        let request = ipq_at(250.0, 250.0);
        let old = sharded.snapshot();
        let before = old.execute_one(&request);
        assert!(!before.results.is_empty());

        // Depart everything the query saw.
        for m in &before.results {
            sharded.submit(Update::Depart(m.id));
        }
        let report = sharded.commit();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.departures, before.results.len());

        // The old snapshot still answers from epoch 0.
        assert!(old.execute_one(&request).same_matches(&before));
        // The new epoch sees the departures.
        assert!(sharded.snapshot().execute_one(&request).results.is_empty());
    }

    #[test]
    fn moves_relocate_objects_atomically() {
        let sharded: ShardedEngine<PointEngine> = ShardedEngine::build(grid_objects(10), 2);
        sharded.submit(Update::Move(PointObject::new(
            0u64,
            Point::new(480.0, 480.0),
        )));
        // Move of an unknown id upserts.
        sharded.submit(Update::Move(PointObject::new(
            5_000u64,
            Point::new(520.0, 520.0),
        )));
        let report = sharded.commit();
        assert_eq!((report.moves, report.arrivals), (2, 0));
        assert_eq!(sharded.len(), 101);

        let ans = sharded.snapshot().execute_one(&ipq_at(500.0, 500.0));
        assert!(ans.probability_of(ObjectId(0)).is_some());
        assert!(ans.probability_of(ObjectId(5_000)).is_some());
    }

    #[test]
    fn duplicate_arrivals_upsert_instead_of_corrupting() {
        let sharded: ShardedEngine<PointEngine> = ShardedEngine::build(grid_objects(4), 2);
        let n = sharded.len();
        // A retried arrival committed twice must not duplicate the id.
        for _ in 0..2 {
            sharded.submit(Update::Arrive(PointObject::new(
                3u64,
                Point::new(100.0, 100.0),
            )));
        }
        sharded.commit();
        assert_eq!(sharded.len(), n);
        // One departure fully removes it — no unremovable orphan.
        sharded.submit(Update::Depart(ObjectId(3)));
        let report = sharded.commit();
        assert_eq!(report.departures, 1);
        assert_eq!(sharded.len(), n - 1);
        let ans = sharded.snapshot().execute_one(&ipq_at(100.0, 100.0));
        assert!(ans.probability_of(ObjectId(3)).is_none());
    }

    #[test]
    fn empty_commit_keeps_epoch() {
        let sharded: ShardedEngine<PointEngine> = ShardedEngine::build(grid_objects(4), 3);
        assert_eq!(sharded.commit(), CommitReport::default());
        assert_eq!(sharded.epoch(), 0);
        sharded.submit(Update::Depart(ObjectId(999)));
        let report = sharded.commit();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.missed_departures, 1);
        assert_eq!(report.applied(), 0);
        // An empty commit after a real one reports the current epoch.
        assert_eq!(sharded.commit().epoch, 1);
    }

    #[test]
    fn snapshot_shard_sizes_sum_to_len() {
        let sharded: ShardedEngine<PointEngine> = ShardedEngine::build(grid_objects(10), 4);
        let snapshot = sharded.snapshot();
        let sizes: Vec<usize> = snapshot.shard_sizes().collect();
        assert_eq!(sizes.len(), 4);
        assert_eq!(sizes.iter().sum::<usize>(), snapshot.len());
    }

    #[test]
    fn commit_report_tracks_dirty_region_and_per_shard_counts() {
        let sharded: ShardedEngine<PointEngine> = ShardedEngine::build(grid_objects(10), 4);
        // Arrive at (800, 20), move object 0 from (0, 0) to (5, 900),
        // depart object 11 at (50, 50): the dirty hull must cover all
        // five footprints.
        sharded.submit(Update::Arrive(PointObject::new(
            777u64,
            Point::new(800.0, 20.0),
        )));
        sharded.submit(Update::Move(PointObject::new(0u64, Point::new(5.0, 900.0))));
        sharded.submit(Update::Depart(ObjectId(11)));
        sharded.submit(Update::Depart(ObjectId(424_242))); // missed
        let report = sharded.commit();
        let dirty = report.dirty.expect("spatial changes must dirty");
        for p in [
            Point::new(800.0, 20.0),
            Point::new(0.0, 0.0),
            Point::new(5.0, 900.0),
            Point::new(50.0, 50.0),
        ] {
            assert!(dirty.contains_point(p), "dirty {dirty:?} misses {p:?}");
        }
        assert_eq!(report.per_shard.len(), 4);
        assert_eq!(report.per_shard.iter().sum::<usize>(), report.applied());
        assert_eq!(report.applied(), 3);

        // A commit of only missed departures moves the epoch but
        // dirties nothing.
        sharded.submit(Update::Depart(ObjectId(999_999)));
        let report = sharded.commit();
        assert_eq!(report.dirty, None);
        assert_eq!(report.per_shard.iter().sum::<usize>(), 0);

        // Empty commits report empty per-shard counts.
        assert!(sharded.commit().per_shard.is_empty());
    }

    #[test]
    fn dirt_carries_each_epochs_touched_set() {
        fn at(x: f64, y: f64) -> Rect {
            Rect::from_point(Point::new(x, y))
        }
        let sharded: ShardedEngine<PointEngine> = ShardedEngine::build(grid_objects(10), 4);
        // Epoch 1: an arrival, a move (old and new), a departure, a
        // missed departure (nothing), a move of an unknown id (new
        // only), the same id moved again (from where the batch put
        // it), and an arrival over a live id (old and new).
        sharded.submit_all([
            Update::Arrive(PointObject::new(777u64, Point::new(800.0, 20.0))),
            Update::Move(PointObject::new(0u64, Point::new(5.0, 900.0))),
            Update::Depart(ObjectId(11)),
            Update::Depart(ObjectId(424_242)),
            Update::Move(PointObject::new(5_000u64, Point::new(1.0, 2.0))),
            Update::Move(PointObject::new(0u64, Point::new(6.0, 901.0))),
            Update::Arrive(PointObject::new(12u64, Point::new(300.0, 300.0))),
        ]);
        let first = sharded.commit();
        assert_eq!((first.arrivals, first.moves, first.departures), (2, 3, 1));
        // Epoch 2: only a missed departure.
        sharded.submit(Update::Depart(ObjectId(424_242)));
        let second = sharded.commit();
        // Epoch 3: over the cap.
        sharded.submit_all(
            (0..=TOUCHED_CAP as u64)
                .map(|k| Update::Arrive(PointObject::new(10_000 + k, Point::new(k as f64, 7.0)))),
        );
        let third = sharded.commit();
        // Epoch 4: exactly at it (each move of a live id is two).
        sharded.submit_all(
            (0..TOUCHED_CAP as u64 / 2)
                .map(|k| Update::Move(PointObject::new(10_000 + k, Point::new(k as f64, 8.0)))),
        );
        sharded.commit();

        let mut dirt = Vec::new();
        assert!(sharded.dirt_since(0, &mut dirt).1);
        assert_eq!(dirt.len(), 4);
        let want = [
            (777u64, at(800.0, 20.0)),
            (0, at(0.0, 0.0)),
            (0, at(5.0, 900.0)),
            (11, at(50.0, 50.0)),
            (5_000, at(1.0, 2.0)),
            (0, at(5.0, 900.0)),
            (0, at(6.0, 901.0)),
            (12, at(100.0, 50.0)),
            (12, at(300.0, 300.0)),
        ]
        .map(|(id, extent)| (ObjectId(id), extent));
        assert_eq!(dirt[0].touched.as_deref(), Some(&want[..]));
        // The dirty rectangle is the hull of exactly these.
        let hull = want
            .iter()
            .map(|&(_, extent)| extent)
            .reduce(Rect::hull)
            .unwrap();
        assert_eq!((dirt[0].dirty, first.dirty), (Some(hull), Some(hull)));

        assert_eq!(dirt[1].touched.as_deref(), Some(&[][..]));
        assert_eq!((dirt[1].dirty, second.dirty), (None, None));

        assert_eq!(dirt[2].touched, None);
        assert_eq!(dirt[2].dirty, third.dirty);
        assert_eq!(third.dirty, Some(Rect::from_coords(0.0, 7.0, 512.0, 7.0)));

        assert_eq!(dirt[3].touched.as_ref().map(|t| t.len()), Some(TOUCHED_CAP));

        // A second reader shares the sets, it does not copy them.
        let mut again = Vec::new();
        sharded.dirt_since(0, &mut again);
        let (a, b) = (dirt[0].touched.as_ref(), again[0].touched.as_ref());
        assert!(Arc::ptr_eq(a.unwrap(), b.unwrap()));
    }

    #[test]
    fn dirt_history_is_bounded_and_gapless_within_the_window() {
        let sharded: ShardedEngine<PointEngine> = ShardedEngine::build(grid_objects(4), 2);
        for k in 0..DIRT_HISTORY as u64 + 10 {
            sharded.submit(Update::Move(PointObject::new(
                0u64,
                Point::new(k as f64, 0.0),
            )));
            sharded.commit();
        }
        let total = DIRT_HISTORY as u64 + 10;
        // Within the retained window: gapless, ascending, complete.
        let mut out = Vec::new();
        let (snapshot, gapless) = sharded.dirt_since(total - 5, &mut out);
        assert!(gapless);
        assert_eq!(out.len(), 5);
        assert!(out.windows(2).all(|w| w[0].epoch + 1 == w[1].epoch));
        assert_eq!(out.last().unwrap().epoch, total);
        assert_eq!(snapshot.epoch(), total);
        assert!(out.iter().all(|d| d.dirty.is_some()));
        // Fallen behind the window: truncated.
        out.clear();
        assert!(!sharded.dirt_since(0, &mut out).1);
        assert_eq!(out.len(), DIRT_HISTORY);
        // Fully caught up: gapless and empty.
        out.clear();
        assert!(sharded.dirt_since(total, &mut out).1);
        assert!(out.is_empty());
    }

    #[test]
    fn a_gapless_dirt_record_ends_at_the_snapshot_it_comes_with() {
        const COMMITS: u64 = 2_000;
        let sharded: ShardedEngine<PointEngine> = ShardedEngine::build(grid_objects(4), 2);
        std::thread::scope(|s| {
            s.spawn(|| {
                for k in 0..COMMITS {
                    let moved = PointObject::new(0u64, Point::new(k as f64, 0.0));
                    sharded.submit(Update::Move(moved));
                    sharded.commit();
                }
            });
            let (mut seen, mut out) = (0, Vec::new());
            while seen < COMMITS {
                out.clear();
                let (snapshot, gapless) = sharded.dirt_since(seen, &mut out);
                if gapless {
                    let epochs: Vec<u64> = out.iter().map(|d| d.epoch).collect();
                    let want: Vec<u64> = (seen + 1..=snapshot.epoch()).collect();
                    assert_eq!(epochs, want, "the record from {seen} on");
                }
                seen = snapshot.epoch();
            }
        });
    }

    #[test]
    fn commit_report_counts_applied_updates() {
        let sharded: ShardedEngine<PointEngine> = ShardedEngine::build(grid_objects(4), 2);
        sharded.submit(Update::Arrive(PointObject::new(
            900u64,
            Point::new(1.0, 1.0),
        )));
        sharded.submit(Update::Depart(ObjectId(0)));
        sharded.submit(Update::Move(PointObject::new(1u64, Point::new(2.0, 2.0))));
        sharded.submit(Update::Depart(ObjectId(777)));
        let report = sharded.commit();
        assert_eq!(report.applied(), 3);
        assert_eq!(report.missed_departures, 1);
    }

    /// A log step that fails publishes nothing and puts its batch back
    /// ahead of what was submitted while it ran; the next commit logs
    /// and applies the whole queue, in submission order.
    #[test]
    fn a_failed_append_returns_the_batch_ahead_of_later_submits() {
        let sharded: ShardedEngine<PointEngine> = ShardedEngine::build(Vec::new(), 2);
        for id in [1u64, 2] {
            sharded.submit(Update::Arrive(PointObject::new(id, Point::new(1.0, 1.0))));
        }
        let failed = sharded.commit_logged(|epoch, batch| {
            assert_eq!((epoch, batch.len()), (1, 2));
            sharded.submit(Update::Depart(ObjectId(1)));
            Err("disk full")
        });
        assert_eq!(failed, Err("disk full"));
        assert_eq!((sharded.epoch(), sharded.pending_len()), (0, 3));
        let mut logged = Vec::new();
        let report = sharded
            .commit_logged(|epoch, batch| {
                logged.push((epoch, batch.len()));
                Ok::<(), ()>(())
            })
            .expect("commit");
        assert_eq!(logged, [(1, 3)]);
        assert_eq!(
            (report.epoch, report.arrivals, report.departures),
            (1, 2, 1)
        );
        assert_eq!(sharded.len(), 1, "the departure applied after the arrivals");
        // An empty commit does not call its log step.
        let empty = sharded.commit_logged(|_, _| Err("logged an empty batch"));
        assert_eq!(empty.map(|r| r.epoch), Ok(1));
    }

    #[test]
    fn shard_server_matches_one_shot_execution() {
        let sharded: ShardedEngine<PointEngine> = ShardedEngine::build(grid_objects(14), 4);
        let snapshot = sharded.snapshot();
        let mut server = ShardServer::new(snapshot.clone());
        let mut answer = QueryAnswer::default();
        for k in 0..40u64 {
            let request = ipq_at(25.0 * k as f64 % 700.0, 300.0);
            server.execute_into(&request, &mut answer);
            assert!(answer.same_matches(&snapshot.execute_one(&request)), "{k}");
        }
    }

    #[test]
    fn concurrent_queries_see_consistent_epochs() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let sharded: Arc<ShardedEngine<PointEngine>> =
            Arc::new(ShardedEngine::build(grid_objects(10), 4));
        let stop = Arc::new(AtomicBool::new(false));
        let request = ipq_at(250.0, 250.0);

        // Readers: the result-set size for the fixed query flips
        // between "all present" and "all departed" but must never be
        // partial — that would be a torn epoch.
        let full = sharded.snapshot().execute_one(&request).results.len();
        assert!(full >= 4);
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let sharded = Arc::clone(&sharded);
                let stop = Arc::clone(&stop);
                let request = request.clone();
                std::thread::spawn(move || {
                    let mut observed = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let n = sharded.snapshot().execute_one(&request).results.len();
                        observed.push(n);
                    }
                    observed
                })
            })
            .collect();

        // Writer: alternately departs and re-arrives the whole result
        // set, one commit per transition.
        let members = sharded.snapshot().execute_one(&request);
        for _ in 0..20 {
            for m in &members.results {
                sharded.submit(Update::Depart(m.id));
            }
            sharded.commit();
            for m in &members.results {
                let k = m.id.0;
                sharded.submit(Update::Arrive(PointObject::new(
                    m.id,
                    Point::new((k % 10) as f64 * 50.0, (k / 10) as f64 * 50.0),
                )));
            }
            sharded.commit();
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            for n in reader.join().expect("reader panicked") {
                assert!(
                    n == full || n == 0,
                    "torn epoch: query saw {n} of {full} objects"
                );
            }
        }
        assert_eq!(sharded.epoch(), 40);
    }
}
