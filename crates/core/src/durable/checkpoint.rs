//! Binary checkpoints of per-shard catalog state.
//!
//! A checkpoint file `ckpt-<epoch>.bin` is a sequence of framed
//! records (see [`super`]):
//!
//! ```text
//! header  := magic "ILOCCKP1" | epoch u64 | shard_count u32 | total u64
//! shard k := index u32 | count u32 | object × count      (k = 0..shard_count)
//! footer  := magic "ILOCCKPE" | epoch u64
//! ```
//!
//! The footer proves the file is complete; a checkpoint missing it (or
//! failing any record checksum, or disagreeing with its own header) is
//! skipped and recovery falls back to the next-older one. Files are
//! written to a temp name, fsync'd, then renamed in — a crash mid-write
//! leaves only a temp file the next startup sweeps away. The writer
//! encodes one record at a time through a buffer the size of the
//! largest shard and drops it with the call: a checkpoint leaves no
//! copy of the file in memory.

use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::serve::ServeEngine;

use super::codec::{put_u32, put_u64, Cursor, DurableObject};
use super::wal::sync_dir;
use super::{begin_record, finish_record, RecordScanner, StoreError};

const HEADER_MAGIC: &[u8; 8] = b"ILOCCKP1";
const FOOTER_MAGIC: &[u8; 8] = b"ILOCCKPE";

/// Shard counts above this are not a checkpoint we wrote.
const MAX_SHARDS: u32 = 1 << 20;

fn checkpoint_name(epoch: u64) -> String {
    format!("ckpt-{epoch:020}.bin")
}

fn parse_checkpoint_name(name: &str) -> Option<u64> {
    let stem = name.strip_prefix("ckpt-")?.strip_suffix(".bin")?;
    if stem.len() != 20 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

/// A successfully loaded and validated checkpoint.
#[derive(Debug)]
pub(crate) struct LoadedCheckpoint<O> {
    /// The epoch the snapshot was taken at.
    pub epoch: u64,
    /// Every live object, in shard order. (The writer's shard count is
    /// validated but not kept — recovery may rebuild at any count;
    /// answers are bit-identical across shard counts.)
    pub objects: Vec<O>,
}

/// What scanning the checkpoint directory found.
#[derive(Debug, Default)]
pub(crate) struct CheckpointScan<O> {
    /// The newest checkpoint that validated end to end, if any.
    pub loaded: Option<LoadedCheckpoint<O>>,
    /// Newer checkpoint files that failed validation and were skipped.
    pub invalid: usize,
}

impl<O> CheckpointScan<O> {
    fn empty() -> Self {
        CheckpointScan {
            loaded: None,
            invalid: 0,
        }
    }
}

/// Frames what `fill` encodes as one record and writes it out through
/// `buf` (cleared first, so one buffer serves every record of a file).
fn write_record(
    file: &mut fs::File,
    buf: &mut Vec<u8>,
    fill: impl FnOnce(&mut Vec<u8>),
) -> Result<(), StoreError> {
    buf.clear();
    let at = begin_record(buf);
    fill(buf);
    finish_record(buf, at);
    Ok(file.write_all(buf)?)
}

/// Writes a checkpoint of `shards` (in shard order) taken at `epoch`,
/// atomically: temp file, fsync, rename, directory fsync. Each shard
/// contributes its live objects in slot order, so the file holds no
/// vacated slot. Also sweeps any stale temp file a crashed writer left
/// behind.
pub(crate) fn write_checkpoint<E: ServeEngine<Object: DurableObject>>(
    dir: &Path,
    epoch: u64,
    shards: &[Arc<E>],
) -> Result<PathBuf, StoreError> {
    fs::create_dir_all(dir)?;
    let total: u64 = shards.iter().map(|s| s.len() as u64).sum();

    let path = dir.join(checkpoint_name(epoch));
    let tmp = dir.join(format!("{}.tmp", checkpoint_name(epoch)));
    {
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        let mut buf = Vec::new();
        write_record(&mut f, &mut buf, |buf| {
            buf.extend_from_slice(HEADER_MAGIC);
            put_u64(buf, epoch);
            put_u32(buf, shards.len() as u32);
            put_u64(buf, total);
        })?;
        for (k, shard) in shards.iter().enumerate() {
            write_record(&mut f, &mut buf, |buf| {
                put_u32(buf, k as u32);
                put_u32(buf, shard.len() as u32);
                for o in shard.live_objects() {
                    o.encode(buf);
                }
            })?;
        }
        write_record(&mut f, &mut buf, |buf| {
            buf.extend_from_slice(FOOTER_MAGIC);
            put_u64(buf, epoch);
        })?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    sync_dir(dir);
    Ok(path)
}

/// Loads the newest checkpoint that validates end to end, counting
/// (and leaving in place) newer ones that do not. Stale `.tmp` files
/// from a crashed writer are removed.
pub(crate) fn load_latest<O: DurableObject>(dir: &Path) -> Result<CheckpointScan<O>, StoreError> {
    if !dir.exists() {
        return Ok(CheckpointScan::empty());
    }
    let mut candidates: Vec<(u64, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".tmp") && name.starts_with("ckpt-") {
            let _ = fs::remove_file(entry.path());
            continue;
        }
        if let Some(epoch) = parse_checkpoint_name(name) {
            candidates.push((epoch, entry.path()));
        }
    }
    candidates.sort_unstable_by_key(|(epoch, _)| std::cmp::Reverse(*epoch));

    let mut scan = CheckpointScan::empty();
    for (epoch, path) in candidates {
        let bytes = fs::read(&path)?;
        match validate::<O>(&bytes, epoch) {
            Ok(loaded) => {
                scan.loaded = Some(loaded);
                return Ok(scan);
            }
            Err(_) => scan.invalid += 1,
        }
    }
    Ok(scan)
}

/// Deletes every checkpoint file whose epoch `keep` does not list —
/// superseded ones, and any that failed validation.
pub(crate) fn prune(dir: &Path, keep: &[u64]) -> Result<(), StoreError> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let epoch = entry.file_name().to_str().and_then(parse_checkpoint_name);
        if epoch.is_some_and(|epoch| !keep.contains(&epoch)) {
            fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

fn validate<O: DurableObject>(
    bytes: &[u8],
    name_epoch: u64,
) -> Result<LoadedCheckpoint<O>, StoreError> {
    let mut scan = RecordScanner::new(bytes);
    let header = scan
        .next_record()
        .ok_or(StoreError::Corrupt("missing checkpoint header"))?;
    let mut c = Cursor::new(header);
    let mut magic = [0u8; 8];
    for b in &mut magic {
        *b = c.u8()?;
    }
    if &magic != HEADER_MAGIC {
        return Err(StoreError::Corrupt("bad checkpoint magic"));
    }
    let epoch = c.u64()?;
    if epoch != name_epoch {
        return Err(StoreError::Corrupt(
            "checkpoint epoch disagrees with file name",
        ));
    }
    let shard_count = c.u32()?;
    if shard_count == 0 || shard_count > MAX_SHARDS {
        return Err(StoreError::Corrupt("checkpoint shard count out of bounds"));
    }
    let total = c.u64()?;
    c.done()?;

    let mut objects: Vec<O> = Vec::new();
    for k in 0..shard_count {
        let shard = scan
            .next_record()
            .ok_or(StoreError::Corrupt("missing shard record"))?;
        let mut c = Cursor::new(shard);
        if c.u32()? != k {
            return Err(StoreError::Corrupt("shard record out of order"));
        }
        let count = c.u32()?;
        // The smallest object is 9 payload bytes; a count the record
        // cannot possibly hold must not size an allocation or a loop.
        if count as usize * 9 > shard.len() {
            return Err(StoreError::Corrupt("shard object count out of bounds"));
        }
        for _ in 0..count {
            objects.push(O::decode(&mut c)?);
        }
        c.done()?;
    }
    if objects.len() as u64 != total {
        return Err(StoreError::Corrupt("checkpoint object total disagrees"));
    }
    let footer = scan
        .next_record()
        .ok_or(StoreError::Corrupt("missing checkpoint footer"))?;
    let mut c = Cursor::new(footer);
    for b in &mut magic {
        *b = c.u8()?;
    }
    if &magic != FOOTER_MAGIC {
        return Err(StoreError::Corrupt("bad checkpoint footer magic"));
    }
    if c.u64()? != epoch {
        return Err(StoreError::Corrupt("checkpoint footer epoch disagrees"));
    }
    c.done()?;
    if scan.next_record().is_some() || scan.torn_reason().is_some() {
        return Err(StoreError::Corrupt(
            "trailing bytes after checkpoint footer",
        ));
    }
    Ok(LoadedCheckpoint { epoch, objects })
}
