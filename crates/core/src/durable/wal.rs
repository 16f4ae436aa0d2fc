//! The write-ahead log: epoch-keyed update-batch records in
//! checksummed segments.
//!
//! A log is a directory of segment files `wal-<start-epoch>.log`; each
//! segment is a sequence of framed records (see the module docs of
//! [`super`]), one per committed epoch:
//!
//! ```text
//! payload := epoch u64 | count u32 | update × count
//! ```
//!
//! Segments rotate when a checkpoint completes, so the log's tail
//! stays short: a segment whose every epoch is covered by the latest
//! checkpoint is deleted. Within one segment epochs are strictly
//! ascending; recovery enforces this and truncates the log at the
//! first record that breaks it (torn, corrupt, duplicate-backwards or
//! gapped) — replaying a prefix is always safe, guessing past damage
//! never is.

use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use super::codec::{put_u32, put_u64, put_update, read_update, Cursor, DurableObject};
use super::{begin_record, finish_record, FsyncPolicy, RecordScanner, StoreError};
use crate::serve::Update;

/// Updates per record beyond which the record is rejected as corrupt
/// (the count field must be plausible before it sizes a loop).
const MAX_BATCH: u32 = 16 * 1024 * 1024;

/// One decoded WAL record: the batch committed as `epoch`.
#[derive(Debug)]
pub(crate) struct WalBatch<O> {
    pub epoch: u64,
    pub updates: Vec<Update<O>>,
    /// Which segment the record came from and where it starts — the
    /// coordinates [`Wal::truncate_from`] needs to cut the log here.
    pub segment: usize,
    pub offset: u64,
}

/// What recovering the log found, besides the batches themselves.
#[derive(Debug, Default)]
pub(crate) struct WalScan {
    /// A torn or corrupt tail was truncated away.
    pub truncated: bool,
    /// Why, when it was.
    pub torn_reason: Option<&'static str>,
}

fn segment_name(start_epoch: u64) -> String {
    // Zero-padded so lexical order is numeric order.
    format!("wal-{start_epoch:020}.log")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let stem = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if stem.len() != 20 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

/// Best-effort directory fsync so renames and creations survive a
/// crash of the whole machine (ignored where directories cannot be
/// opened, e.g. non-POSIX filesystems).
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// An open write-ahead log positioned for appending.
#[derive(Debug)]
pub(crate) struct Wal {
    dir: PathBuf,
    /// Segments on disk, ascending by start epoch. The last one is the
    /// append target.
    segments: Vec<(u64, PathBuf)>,
    /// Append handle on the last segment (`None` until first append —
    /// a fresh log defers creating its first segment so the segment
    /// name can carry the first epoch it holds).
    file: Option<File>,
    fsync: FsyncPolicy,
    /// Appends since the last fsync (drives [`FsyncPolicy::EveryN`]).
    unsynced: u64,
    /// Reusable encode buffer — the append path allocates nothing once
    /// this has grown to batch size.
    buf: Vec<u8>,
}

impl Wal {
    /// Opens the log in `dir` (creating the directory if needed),
    /// scans every segment, truncates any torn tail, and returns the
    /// decoded batches in log order.
    pub(crate) fn recover<O: DurableObject>(
        dir: &Path,
        fsync: FsyncPolicy,
    ) -> Result<(Wal, Vec<WalBatch<O>>, WalScan), StoreError> {
        fs::create_dir_all(dir)?;
        let mut segments: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if let Some(start) = name.to_str().and_then(parse_segment_name) {
                segments.push((start, entry.path()));
            }
        }
        segments.sort_unstable_by_key(|(start, _)| *start);

        let mut batches: Vec<WalBatch<O>> = Vec::new();
        let mut scan_out = WalScan::default();
        for (seg_idx, (_, path)) in segments.iter().enumerate() {
            let bytes = fs::read(path)?;
            let mut scan = RecordScanner::new(&bytes);
            let mut offset = 0u64;
            let mut bad: Option<&'static str> = None;
            while let Some(payload) = scan.next_record() {
                match decode_batch::<O>(payload) {
                    Ok((epoch, updates)) => {
                        batches.push(WalBatch {
                            epoch,
                            updates,
                            segment: seg_idx,
                            offset,
                        });
                        offset = scan.valid_end() as u64;
                    }
                    Err(e) => {
                        // Framed correctly but not a batch we wrote:
                        // treat as corruption starting at this record.
                        bad = Some(match e {
                            StoreError::Corrupt(what) => what,
                            _ => "undecodable batch record",
                        });
                        break;
                    }
                }
            }
            let cut = if bad.is_some() {
                Some(offset)
            } else if scan.torn_reason().is_some() {
                Some(scan.valid_end() as u64)
            } else {
                None
            };
            if let Some(cut) = cut {
                scan_out.truncated = true;
                scan_out.torn_reason = bad.or(scan.torn_reason());
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(cut)?;
                f.sync_all()?;
                // Anything in later segments sits past damage; a
                // record there can only duplicate or gap the epoch
                // sequence, so cut them too.
                for (_, later) in segments.iter().skip(seg_idx + 1) {
                    fs::remove_file(later)?;
                }
                segments.truncate(seg_idx + 1);
                sync_dir(dir);
                break;
            }
        }

        let file = match segments.last() {
            Some((_, path)) => Some(OpenOptions::new().append(true).open(path)?),
            None => None,
        };
        Ok((
            Wal {
                dir: dir.to_path_buf(),
                segments,
                file,
                fsync,
                unsynced: 0,
                buf: Vec::new(),
            },
            batches,
            scan_out,
        ))
    }

    /// Appends the record for the batch committing as `epoch` and
    /// fsyncs per policy. Must be called **before** the engine
    /// publishes that epoch.
    pub(crate) fn append<O: DurableObject>(
        &mut self,
        epoch: u64,
        updates: &[Update<O>],
    ) -> Result<(), StoreError> {
        self.buf.clear();
        let at = begin_record(&mut self.buf);
        put_u64(&mut self.buf, epoch);
        put_u32(&mut self.buf, updates.len() as u32);
        for u in updates {
            put_update(&mut self.buf, u);
        }
        finish_record(&mut self.buf, at);

        if self.file.is_none() {
            self.create_segment(epoch)?;
        }
        let file = self.file.as_mut().expect("segment just ensured");
        file.write_all(&self.buf)?;
        self.unsynced += 1;
        match self.fsync {
            FsyncPolicy::Always => {
                file.sync_data()?;
                self.unsynced = 0;
            }
            FsyncPolicy::EveryN(n) => {
                if self.unsynced >= n {
                    file.sync_data()?;
                    self.unsynced = 0;
                }
            }
            FsyncPolicy::Off => {}
        }
        Ok(())
    }

    /// Fsyncs any unsynced appends regardless of policy.
    pub(crate) fn flush(&mut self) -> Result<(), StoreError> {
        if let Some(f) = &mut self.file {
            f.sync_data()?;
        }
        self.unsynced = 0;
        Ok(())
    }

    /// Starts a fresh segment for records from `start_epoch` on (the
    /// checkpointer calls this after a checkpoint lands, so covered
    /// segments become prunable).
    pub(crate) fn rotate(&mut self, start_epoch: u64) -> Result<(), StoreError> {
        if let Some(f) = &mut self.file {
            f.sync_data()?;
        }
        self.unsynced = 0;
        self.create_segment(start_epoch)
    }

    fn create_segment(&mut self, start_epoch: u64) -> Result<(), StoreError> {
        let path = self.dir.join(segment_name(start_epoch));
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        sync_dir(&self.dir);
        self.segments.push((start_epoch, path));
        self.file = Some(file);
        Ok(())
    }

    /// Deletes every segment whose entire epoch range is at or below
    /// `covered_epoch` (a segment's range ends where the next
    /// segment's starts). The append segment is never deleted.
    pub(crate) fn prune_covered(&mut self, covered_epoch: u64) -> Result<(), StoreError> {
        let mut keep_from = 0usize;
        for i in 0..self.segments.len().saturating_sub(1) {
            let next_start = self.segments[i + 1].0;
            if next_start > 0 && next_start - 1 <= covered_epoch {
                fs::remove_file(&self.segments[i].1)?;
                keep_from = i + 1;
            } else {
                break;
            }
        }
        if keep_from > 0 {
            self.segments.drain(..keep_from);
            sync_dir(&self.dir);
        }
        Ok(())
    }

    /// Cuts the log at a decoded batch's coordinates: truncates that
    /// segment at the batch's start offset and deletes every later
    /// segment. Used when replay finds a record that is well-formed
    /// but breaks the epoch sequence — everything from it on is
    /// unreachable and must not collide with future appends.
    pub(crate) fn truncate_from(&mut self, segment: usize, offset: u64) -> Result<(), StoreError> {
        for (_, path) in self.segments.iter().skip(segment + 1) {
            fs::remove_file(path)?;
        }
        self.segments.truncate(segment + 1);
        let (_, path) = &self.segments[segment];
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(offset)?;
        f.sync_all()?;
        self.file = Some(OpenOptions::new().append(true).open(path)?);
        sync_dir(&self.dir);
        Ok(())
    }
}

fn decode_batch<O: DurableObject>(payload: &[u8]) -> Result<(u64, Vec<Update<O>>), StoreError> {
    let mut c = Cursor::new(payload);
    let epoch = c.u64()?;
    let count = c.u32()?;
    if count == 0 {
        return Err(StoreError::Corrupt("empty batch record"));
    }
    // The smallest update (a departure) is 9 payload bytes; a count
    // the payload cannot possibly hold must not size an allocation.
    if count > MAX_BATCH || count as usize * 9 > payload.len() {
        return Err(StoreError::Corrupt("batch count out of bounds"));
    }
    let mut updates = Vec::with_capacity(count as usize);
    for _ in 0..count {
        updates.push(read_update(&mut c)?);
    }
    c.done()?;
    Ok((epoch, updates))
}
