//! [`DurableCatalog`]: a [`ShardedEngine`] with an optional
//! write-ahead log and checkpoint store attached to its commit path.

use std::path::PathBuf;
use std::sync::Mutex;

use super::checkpoint;
use super::wal::Wal;
use super::{DurableObject, FsyncPolicy, StoreError};
use crate::serve::{CommitReport, ServeEngine, ShardedEngine, Snapshot, Update};

/// How many checkpoints to retain (the newest is the recovery base; one
/// older survives as a fallback should the newest be found corrupt, and
/// the log is kept from it on, so the fallback has its records to
/// replay).
const KEEP_CHECKPOINTS: usize = 2;

/// Where and how a [`DurableCatalog`] persists.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding this catalog's WAL segments and checkpoints.
    pub dir: PathBuf,
    /// When WAL appends reach the disk (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
}

impl StoreConfig {
    /// A store in `dir` with the strictest fsync policy.
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
        }
    }
}

/// What [`DurableCatalog::open`] did to bring the catalog up.
#[derive(Debug, Clone, Default)]
pub struct CatalogRecovery {
    /// `false`: the directory held no usable state and the catalog was
    /// seeded fresh (writing its epoch-0 base checkpoint). `true`: the
    /// catalog was rebuilt from disk.
    pub recovered: bool,
    /// Engine epoch after recovery — what queries now answer against,
    /// and what the serving layer reports to reconnecting subscribers.
    pub epoch: u64,
    /// Epoch of the checkpoint recovery started from.
    pub checkpoint_epoch: u64,
    /// WAL batches replayed through the normal submit/commit path.
    pub replayed_batches: usize,
    /// Updates those batches carried.
    pub replayed_updates: usize,
    /// A torn or corrupt WAL tail was detected and truncated.
    pub wal_truncated: bool,
    /// Well-formed WAL records skipped as stale duplicates (epoch at
    /// or below the recovery base — rotation leftovers).
    pub stale_records: usize,
    /// Checkpoint files newer than the one used that failed
    /// validation.
    pub invalid_checkpoints: usize,
    /// Live objects after recovery.
    pub objects: usize,
}

#[derive(Debug)]
struct DurableState {
    wal: Wal,
    dir: PathBuf,
    /// The epochs of the retained checkpoints, ascending: each was
    /// written by this store or validated at open.
    checkpoints: Vec<u64>,
}

/// A sharded catalog whose commit path is (optionally) durable.
///
/// In **transient** mode ([`DurableCatalog::transient`]) this is a
/// plain [`ShardedEngine`] behind passthrough methods. In **durable**
/// mode ([`DurableCatalog::open`]) [`DurableCatalog::commit`] appends
/// the batch the engine drains from its pending queue — keyed by the
/// epoch it is about to commit as, fsync'd per policy — **before** the
/// engine applies it and publishes the new snapshot
/// ([`ShardedEngine::commit_logged`]): the engine's queue is the one
/// record of what an epoch holds. The read path
/// ([`DurableCatalog::snapshot`] and everything downstream) is
/// untouched: queries never see the store.
///
/// Commits must go through the catalog: committing through the inner
/// engine would publish an epoch the log never saw.
#[derive(Debug)]
pub struct DurableCatalog<E: ServeEngine> {
    engine: ShardedEngine<E>,
    durable: Option<Mutex<DurableState>>,
}

impl<E: ServeEngine> DurableCatalog<E>
where
    E::Object: DurableObject,
{
    /// A catalog with no store attached — exactly a
    /// [`ShardedEngine::build`].
    pub fn transient(objects: Vec<E::Object>, shard_count: usize) -> Self {
        DurableCatalog {
            engine: ShardedEngine::build(objects, shard_count),
            durable: None,
        }
    }

    /// Opens (or creates) the store in `config.dir` and brings the
    /// catalog up:
    ///
    /// * **Fresh directory** — `seed()` provides the initial objects,
    ///   the engine is built at epoch 0, and a base checkpoint is
    ///   written synchronously so recovery never depends on re-running
    ///   the seed.
    /// * **Existing state** — loads the newest valid checkpoint,
    ///   rebuilds the engine at that epoch, and replays the WAL suffix
    ///   through the normal submit/commit path. A torn WAL tail is
    ///   truncated; a record that breaks the epoch sequence cuts the
    ///   log there (replaying a prefix is safe, guessing past damage
    ///   is not).
    pub fn open(
        config: &StoreConfig,
        shard_count: usize,
        seed: impl FnOnce() -> Vec<E::Object>,
    ) -> Result<(Self, CatalogRecovery), StoreError> {
        let mut recovery = CatalogRecovery::default();
        let ckpt_scan = checkpoint::load_latest::<E::Object>(&config.dir)?;
        recovery.invalid_checkpoints = ckpt_scan.invalid;
        let checkpoints = ckpt_scan.loaded.iter().map(|c| c.epoch).collect();
        let (mut wal, batches, wal_scan) = Wal::recover::<E::Object>(&config.dir, config.fsync)?;
        recovery.wal_truncated = wal_scan.truncated;

        let fresh = ckpt_scan.loaded.is_none() && batches.is_empty() && ckpt_scan.invalid == 0;
        let (base_epoch, base_objects) = match ckpt_scan.loaded {
            Some(c) => (c.epoch, c.objects),
            // No usable checkpoint. With WAL records (or corrupt
            // checkpoints) present this is itself a recovery — the
            // base state is the deterministic seed at epoch 0, which
            // the epoch-0 checkpoint recorded before any commit.
            None => (0, seed()),
        };
        recovery.checkpoint_epoch = base_epoch;
        recovery.recovered = !fresh;

        let engine = ShardedEngine::build_at(base_objects, shard_count, base_epoch);

        // Replay strictly ascending from the base epoch; cut the log
        // at the first record that gaps or rewinds the sequence.
        for batch in batches {
            let current = engine.epoch();
            if batch.epoch <= current {
                recovery.stale_records += 1;
                continue;
            }
            if batch.epoch != current + 1 {
                wal.truncate_from(batch.segment, batch.offset)?;
                recovery.wal_truncated = true;
                break;
            }
            recovery.replayed_batches += 1;
            recovery.replayed_updates += batch.updates.len();
            engine.submit_all(batch.updates);
            let report = engine.commit();
            debug_assert_eq!(report.epoch, batch.epoch, "replay must track the log");
        }

        let catalog = DurableCatalog {
            engine,
            durable: Some(Mutex::new(DurableState {
                wal,
                dir: config.dir.clone(),
                checkpoints,
            })),
        };
        if fresh {
            // The base checkpoint makes the seed durable: every later
            // recovery starts from disk, never from re-seeding.
            catalog.checkpoint()?;
        }
        recovery.epoch = catalog.engine.epoch();
        recovery.objects = catalog.engine.len();
        Ok((catalog, recovery))
    }

    /// The inner engine, for read paths that want it directly
    /// (subscription pumps, snapshot comparisons). Do **not** commit
    /// through it on a durable catalog.
    pub fn engine(&self) -> &ShardedEngine<E> {
        &self.engine
    }

    /// `true` when a store is attached.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The epoch of the most recent completed checkpoint — 0 while
    /// there is none, as the seed at epoch 0 is then the recovery base
    /// (`None` when transient).
    pub fn last_checkpoint_epoch(&self) -> Option<u64> {
        self.durable.as_ref().map(|d| {
            let st = d.lock().expect("store lock poisoned");
            st.checkpoints.last().copied().unwrap_or(0)
        })
    }

    /// Buffers one update for the next epoch.
    pub fn submit(&self, update: Update<E::Object>) {
        self.submit_all(std::iter::once(update));
    }

    /// Buffers a batch of updates for the next epoch, under one hold of
    /// the engine's pending lock, so a concurrent commit takes the
    /// whole batch or none of it.
    pub fn submit_all(&self, updates: impl IntoIterator<Item = Update<E::Object>>) {
        self.engine.submit_all(updates);
    }

    /// Applies every buffered update and publishes the next epoch. A
    /// durable catalog first appends the batch to the log, fsync'd per
    /// policy, so an acknowledged commit is durable before it is
    /// visible. A failed append publishes nothing and leaves the batch
    /// pending, to be logged and applied by the next commit that
    /// succeeds. Transient catalogs just commit.
    pub fn commit(&self) -> Result<CommitReport, StoreError> {
        let Some(d) = &self.durable else {
            return Ok(self.engine.commit());
        };
        // The store lock serializes commits with checkpoint rotation.
        let mut st = d.lock().expect("store lock poisoned");
        self.engine
            .commit_logged(|epoch, batch| st.wal.append(epoch, batch))
    }

    /// Writes a checkpoint of the current snapshot, then rotates the
    /// log and prunes the checkpoints past the two it retains and the
    /// segments every retained checkpoint covers. The
    /// snapshot serialization runs **without** the store lock —
    /// commits proceed concurrently; only the final rotation takes the
    /// lock briefly. Returns the checkpointed epoch, or `None` when
    /// transient or already checkpointed at this epoch.
    pub fn checkpoint(&self) -> Result<Option<u64>, StoreError> {
        let Some(d) = &self.durable else {
            return Ok(None);
        };
        let snapshot = self.engine.snapshot();
        let epoch = snapshot.epoch();
        let dir = {
            let st = d.lock().expect("store lock poisoned");
            if st.checkpoints.last().is_some_and(|&last| last >= epoch) {
                return Ok(None);
            }
            st.dir.clone()
        };
        checkpoint::write_checkpoint(&dir, epoch, snapshot.shards())?;
        let mut st = d.lock().expect("store lock poisoned");
        if st.checkpoints.last().is_none_or(|&last| last < epoch) {
            st.checkpoints.push(epoch);
            if st.checkpoints.len() > KEEP_CHECKPOINTS {
                st.checkpoints.remove(0);
            }
            // Future records land in a fresh segment; what the oldest
            // retained checkpoint covers becomes prunable, so a
            // fallback to it still finds every later record.
            let next = self.engine.epoch() + 1;
            st.wal.rotate(next)?;
            let oldest = st.checkpoints[0];
            st.wal.prune_covered(oldest)?;
            checkpoint::prune(&st.dir, &st.checkpoints)?;
        }
        Ok(Some(epoch))
    }

    /// Fsyncs any unsynced log appends regardless of policy (a no-op
    /// when transient). Graceful shutdown calls this before the final
    /// checkpoint.
    pub fn flush(&self) -> Result<(), StoreError> {
        if let Some(d) = &self.durable {
            d.lock().expect("store lock poisoned").wal.flush()?;
        }
        Ok(())
    }

    // --- passthroughs ----------------------------------------------------

    /// The current epoch's snapshot.
    pub fn snapshot(&self) -> Snapshot<E> {
        self.engine.snapshot()
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.engine.epoch()
    }

    /// Live objects in the current epoch.
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// `true` when the current epoch holds no objects.
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }

    /// Updates buffered but not yet committed.
    pub fn pending_len(&self) -> usize {
        self.engine.pending_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PointEngine;
    use iloc_geometry::Point;
    use iloc_uncertainty::{ObjectId, PointObject};

    /// Every shard's live objects in slot order, in their durable
    /// binary form: equal bytes are a bit-identical snapshot.
    fn snapshot_bytes(catalog: &DurableCatalog<PointEngine>) -> Vec<u8> {
        let mut bytes = Vec::new();
        for shard in catalog.snapshot().shards() {
            bytes.extend_from_slice(&(shard.len() as u64).to_le_bytes());
            for object in shard.live_objects() {
                object.encode(&mut bytes);
            }
        }
        bytes
    }

    /// An append that fails before writing a byte (the segment's
    /// handle is read-only) publishes nothing and keeps its batch
    /// pending; once the handle is writable again the next commit logs
    /// and publishes that batch, and a reopen recovers it bit for bit.
    #[test]
    fn failed_append_keeps_the_batch_for_the_next_commit() {
        let dir = std::env::temp_dir().join(format!("iloc-failed-append-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StoreConfig::new(&dir);
        let (catalog, _) = DurableCatalog::<PointEngine>::open(&config, 2, Vec::new).expect("open");
        let arrivals = |from: u64| {
            (from..from + 50)
                .map(|id| Update::Arrive(PointObject::new(id, Point::new(id as f64, 1.0))))
        };
        let read_only = |on: bool| {
            let store = catalog.durable.as_ref().expect("durable");
            let mut st = store.lock().expect("store lock");
            st.wal.reopen_read_only(on).expect("reopen the segment");
        };
        catalog.submit_all(arrivals(0));
        assert_eq!(catalog.commit().expect("commit").epoch, 1);

        read_only(true);
        catalog.submit_all(arrivals(100));
        assert!(catalog.commit().is_err(), "append to a read-only segment");
        assert_eq!(catalog.epoch(), 1, "nothing published");
        assert_eq!(catalog.pending_len(), 50, "the batch is still pending");
        assert_eq!(catalog.len(), 50);

        read_only(false);
        catalog.submit(Update::Depart(ObjectId(100)));
        let report = catalog.commit().expect("commit once writable");
        assert_eq!(
            (report.epoch, report.arrivals, report.departures),
            (2, 50, 1)
        );
        let before = snapshot_bytes(&catalog);
        drop(catalog);

        let (reopened, recovery) =
            DurableCatalog::<PointEngine>::open(&config, 2, Vec::new).expect("reopen");
        assert_eq!(recovery.epoch, 2, "recovered epoch");
        assert!(!recovery.wal_truncated, "no torn record left behind");
        assert!(
            snapshot_bytes(&reopened) == before,
            "recovered snapshot differs"
        );
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Single-update submits racing commits from another thread: each
    /// update must be applied in the epoch whose log record carries it,
    /// so a reopen recovers the last acknowledged epoch bit for bit.
    #[test]
    fn submits_racing_commits_recover_the_acknowledged_state() {
        const SUBMITTERS: u64 = 8;
        const EACH: u64 = 1_000;
        let dir = std::env::temp_dir().join(format!("iloc-catalog-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StoreConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::Off,
        };
        let (catalog, _) = DurableCatalog::<PointEngine>::open(&config, 2, Vec::new).expect("open");
        let acknowledged = std::thread::scope(|scope| {
            for t in 0..SUBMITTERS {
                let catalog = &catalog;
                scope.spawn(move || {
                    for id in t * EACH..(t + 1) * EACH {
                        let at = Point::new((id % 997) as f64, (id % 991) as f64);
                        catalog.submit(Update::Arrive(PointObject::new(id, at)));
                    }
                });
            }
            let mut acknowledged = 0;
            while catalog.len() < (SUBMITTERS * EACH) as usize {
                acknowledged = catalog.commit().expect("commit").epoch;
            }
            acknowledged
        });
        let before = snapshot_bytes(&catalog);
        drop(catalog);

        let (reopened, recovery) =
            DurableCatalog::<PointEngine>::open(&config, 2, Vec::new).expect("reopen");
        assert_eq!(recovery.epoch, acknowledged, "recovered epoch");
        assert!(
            snapshot_bytes(&reopened) == before,
            "recovered snapshot differs"
        );
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
