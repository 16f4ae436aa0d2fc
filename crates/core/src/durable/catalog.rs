//! [`DurableCatalog`]: a [`ShardedEngine`] with an optional
//! write-ahead log and checkpoint store attached to its commit path.

use std::path::PathBuf;
use std::sync::Mutex;

use super::checkpoint;
use super::wal::Wal;
use super::{DurableObject, FsyncPolicy, StoreError};
use crate::serve::{CommitReport, EpochDirt, ServeEngine, ShardedEngine, Snapshot, Update};

/// How many checkpoint files to retain (the newest is the recovery
/// base; one older survives as a fallback should the newest be found
/// corrupt).
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
struct DurableState<O> {
    wal: Wal,
    dir: PathBuf,
    staged: Vec<Update<O>>,
    staged_spare: Vec<Update<O>>,
    last_checkpoint_epoch: u64,
}

/// A sharded catalog whose commit path is (optionally) durable.
///
/// In **transient** mode ([`DurableCatalog::transient`]) this is a
/// plain [`ShardedEngine`] behind passthrough methods. In **durable**
/// mode ([`DurableCatalog::open`]) every submitted update is also
/// staged for the log, and [`DurableCatalog::commit`] appends the
/// staged batch — keyed by the epoch it is about to commit as, fsync'd
/// per policy — **before** the engine publishes the new snapshot. The
/// read path ([`DurableCatalog::snapshot`] and everything downstream)
/// is untouched: queries never see the store.
///
/// All mutations must go through the catalog (`submit` / `submit_all`
/// / `commit`); submitting to the inner engine directly would desync
/// the log from the published state.
#[derive(Debug)]
pub struct DurableCatalog<E: ServeEngine> {
    engine: ShardedEngine<E>,
    durable: Option<Mutex<DurableState<E::Object>>>,
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
                staged: Vec::new(),
                staged_spare: Vec::new(),
                last_checkpoint_epoch: base_epoch,
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
    /// (subscription pumps, snapshot comparisons). Do **not** submit
    /// or commit through it on a durable catalog.
    pub fn engine(&self) -> &ShardedEngine<E> {
        &self.engine
    }

    /// `true` when a store is attached.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The epoch of the most recent completed checkpoint (`None` when
    /// transient).
    pub fn last_checkpoint_epoch(&self) -> Option<u64> {
        self.durable
            .as_ref()
            .map(|d| d.lock().expect("store lock poisoned").last_checkpoint_epoch)
    }

    /// Buffers one update for the next epoch (and stages it for the
    /// log when durable).
    pub fn submit(&self, update: Update<E::Object>) {
        self.submit_all(std::iter::once(update));
    }

    /// Buffers a batch of updates for the next epoch. A durable
    /// catalog stages and submits them under one hold of its store
    /// lock (a transient one, of the engine's pending lock), so a
    /// concurrent commit takes the whole batch or none of it, and logs
    /// every update in the epoch that applies it.
    pub fn submit_all(&self, updates: impl IntoIterator<Item = Update<E::Object>>) {
        match &self.durable {
            Some(d) => {
                let mut st = d.lock().expect("store lock poisoned");
                for update in updates {
                    st.staged.push(update.clone());
                    self.engine.submit(update);
                }
            }
            None => self.engine.submit_all(updates),
        }
    }

    /// Applies every buffered update and publishes the next epoch —
    /// after the staged batch has been appended to the log and fsync'd
    /// per policy, so an acknowledged commit is durable before it is
    /// visible. Transient catalogs just commit.
    pub fn commit(&self) -> Result<CommitReport, StoreError> {
        let Some(d) = &self.durable else {
            return Ok(self.engine.commit());
        };
        let mut st = d.lock().expect("store lock poisoned");
        // Drain the staged batch against the spare buffer so steady
        // submit/commit cycles reuse one allocation (the same idiom as
        // the engine's pending buffer).
        let mut staged = std::mem::take(&mut st.staged_spare);
        std::mem::swap(&mut staged, &mut st.staged);
        if staged.is_empty() {
            st.staged_spare = staged;
            return Ok(self.engine.commit());
        }
        let epoch = self.engine.epoch() + 1;
        let appended = st.wal.append(epoch, &staged);
        staged.clear();
        st.staged_spare = staged;
        appended?;
        // The log record is on disk (per policy); only now may the
        // epoch become visible. Still under the store lock, so commits
        // serialize with each other and with checkpoint rotation.
        let report = self.engine.commit();
        debug_assert_eq!(report.epoch, epoch, "commit must publish the logged epoch");
        Ok(report)
    }

    /// Writes a checkpoint of the current snapshot, then rotates the
    /// log and prunes segments and checkpoints it superseded. The
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
            if st.last_checkpoint_epoch >= epoch && epoch != 0 {
                return Ok(None);
            }
            st.dir.clone()
        };
        checkpoint::write_checkpoint(&dir, epoch, snapshot.shards())?;
        let mut st = d.lock().expect("store lock poisoned");
        if st.last_checkpoint_epoch < epoch || epoch == 0 {
            st.last_checkpoint_epoch = epoch;
            // Future records land in a fresh segment; everything the
            // checkpoint covers becomes prunable.
            let next = self.engine.epoch() + 1;
            st.wal.rotate(next)?;
            st.wal.prune_covered(epoch)?;
            checkpoint::prune(&st.dir, KEEP_CHECKPOINTS)?;
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

    /// See [`ShardedEngine::dirt_since`].
    pub fn dirt_since(&self, epoch: u64, out: &mut Vec<EpochDirt>) -> bool {
        self.engine.dirt_since(epoch, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PointEngine;
    use iloc_geometry::Point;
    use iloc_uncertainty::PointObject;

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
