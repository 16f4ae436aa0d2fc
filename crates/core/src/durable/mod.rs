//! Durability: a write-ahead log and binary checkpoints for the
//! sharded serving layer, with **bit-identical** crash recovery.
//!
//! Everything above this module is in-memory: a process crash loses
//! the catalog and every standing query. This module makes the
//! mutation stream durable without touching the query hot path:
//!
//! * **Write-ahead log** (`wal`) — every non-empty `Update` batch is
//!   encoded and appended *before* [`crate::serve::ShardedEngine::commit`]
//!   publishes the epoch it will commit as, fsync'd per
//!   [`FsyncPolicy`]. Records are length-prefixed and CRC-checksummed,
//!   so a torn tail (the process died mid-append) is **detected and
//!   truncated**, never misread.
//! * **Checkpoints** (`checkpoint`) — periodic binary snapshots of
//!   per-shard object state, written to a temp file and renamed in
//!   atomically, so the log never has to be replayed from epoch 0.
//! * **Recovery** ([`DurableCatalog::open`]) — loads the newest valid
//!   checkpoint, rebuilds the engine at that epoch, and replays the
//!   log suffix **through the normal submit/commit path**. Because
//!   replay reuses the exact machinery `tests/dynamic.rs` pins
//!   (dynamic == rebuild, bit for bit), a recovered catalog answers
//!   every query bit-identically to one that never crashed.
//!
//! Objects and updates are encoded by [`codec`], the one object codec
//! the wire protocol uses too: little-endian integers and `f64`s as
//! raw IEEE-754 bit patterns ([`f64::to_bits`] / [`f64::from_bits`]),
//! with every decoder validating constructor preconditions so
//! adversarial bytes surface as a [`StoreError`], never a panic.
//!
//! See `docs/DURABILITY.md` for the record formats, the recovery
//! algorithm, and the crash-consistency guarantees.

mod catalog;
mod checkpoint;
pub mod codec;
mod wal;

pub use catalog::{CatalogRecovery, DurableCatalog, StoreConfig};
pub use codec::{CodecError, Cursor, DurableObject};

use std::fmt;
use std::io;

/// When the write-ahead log calls `fsync` after appending a commit
/// record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Every appended record is fsync'd before the commit publishes —
    /// an acknowledged commit survives power loss.
    Always,
    /// Fsync once per `N` appended records (and always on
    /// [`DurableCatalog::flush`]). A crash loses at most the last
    /// `N - 1` acknowledged commits; a torn tail is still truncated
    /// cleanly.
    EveryN(u64),
    /// Never fsync on the commit path (the OS flushes the page cache
    /// on its own schedule). A kill still recovers everything written;
    /// power loss may lose the cached suffix.
    Off,
}

impl FsyncPolicy {
    /// Parses the `--fsync` CLI spelling: `always`, `off`,
    /// `every=N` / `every-N` (N ≥ 1).
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "off" => Some(FsyncPolicy::Off),
            _ => {
                let n = s
                    .strip_prefix("every=")
                    .or_else(|| s.strip_prefix("every-"))?;
                let n: u64 = n.parse().ok()?;
                if n == 0 {
                    None
                } else {
                    Some(FsyncPolicy::EveryN(n))
                }
            }
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryN(n) => write!(f, "every={n}"),
            FsyncPolicy::Off => write!(f, "off"),
        }
    }
}

/// Why a durable-store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// On-disk bytes that frame correctly (length + checksum) decode
    /// to something no encoder produces — recovery refuses to guess.
    Corrupt(&'static str),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "durable store i/o: {e}"),
            StoreError::Corrupt(what) => write!(f, "durable store corrupt: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE, reflected) — the record checksum
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the checksum every
/// WAL and checkpoint record carries.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Record framing — `[len u32][crc u32][payload]`, shared by the WAL
// and checkpoint files
// ---------------------------------------------------------------------------

/// Bytes of framing in front of every record payload.
pub(crate) const RECORD_HEADER: usize = 8;

/// Hard ceiling on one record's payload; a larger length field is
/// corruption (or a file that is not ours), not a real record.
pub(crate) const MAX_RECORD_LEN: u32 = 256 * 1024 * 1024;

/// Opens a record in `buf`, returning its start offset for
/// [`finish_record`]. Mirrors the wire protocol's
/// `begin_frame`/`finish_frame` idiom: the payload is encoded in
/// place, then the header is patched.
pub(crate) fn begin_record(buf: &mut Vec<u8>) -> usize {
    let at = buf.len();
    buf.extend_from_slice(&[0u8; RECORD_HEADER]);
    at
}

/// Patches the length and checksum of the record opened at `at`.
pub(crate) fn finish_record(buf: &mut [u8], at: usize) {
    let payload_len = (buf.len() - at - RECORD_HEADER) as u32;
    let crc = crc32(&buf[at + RECORD_HEADER..]);
    buf[at..at + 4].copy_from_slice(&payload_len.to_le_bytes());
    buf[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Walks the well-formed record prefix of a byte buffer, stopping at
/// the first torn or corrupt frame (short header, wild length,
/// truncated payload, checksum mismatch). [`RecordScanner::valid_end`]
/// is then the byte offset the file should be truncated to.
pub(crate) struct RecordScanner<'a> {
    buf: &'a [u8],
    pos: usize,
    torn: Option<&'static str>,
}

impl<'a> RecordScanner<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> RecordScanner<'a> {
        RecordScanner {
            buf,
            pos: 0,
            torn: None,
        }
    }

    /// The next record's payload, or `None` at the end of the valid
    /// prefix (clean or torn — see [`RecordScanner::torn_reason`]).
    pub(crate) fn next_record(&mut self) -> Option<&'a [u8]> {
        if self.torn.is_some() {
            return None;
        }
        let rest = &self.buf[self.pos..];
        if rest.is_empty() {
            return None;
        }
        if rest.len() < RECORD_HEADER {
            self.torn = Some("torn record header");
            return None;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
        if len as u64 > MAX_RECORD_LEN as u64 {
            self.torn = Some("record length out of bounds");
            return None;
        }
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if rest.len() < RECORD_HEADER + len {
            self.torn = Some("torn record payload");
            return None;
        }
        let payload = &rest[RECORD_HEADER..RECORD_HEADER + len];
        if crc32(payload) != crc {
            self.torn = Some("record checksum mismatch");
            return None;
        }
        self.pos += RECORD_HEADER + len;
        Some(payload)
    }

    /// Byte offset of the end of the last well-formed record.
    pub(crate) fn valid_end(&self) -> usize {
        self.pos
    }

    /// Why scanning stopped early, if it did.
    pub(crate) fn torn_reason(&self) -> Option<&'static str> {
        self.torn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_round_trip_and_torn_tail() {
        let mut buf = Vec::new();
        for payload in [&b"hello"[..], &b""[..], &b"world!"[..]] {
            let at = begin_record(&mut buf);
            buf.extend_from_slice(payload);
            finish_record(&mut buf, at);
        }
        let mut scan = RecordScanner::new(&buf);
        assert_eq!(scan.next_record(), Some(&b"hello"[..]));
        assert_eq!(scan.next_record(), Some(&b""[..]));
        assert_eq!(scan.next_record(), Some(&b"world!"[..]));
        assert_eq!(scan.next_record(), None);
        assert_eq!(scan.valid_end(), buf.len());
        assert_eq!(scan.torn_reason(), None);

        // Every proper prefix that cuts into the last record scans to
        // exactly the first two records.
        let two = buf.len() - (RECORD_HEADER + 6);
        for cut in two + 1..buf.len() {
            let mut scan = RecordScanner::new(&buf[..cut]);
            assert_eq!(scan.next_record(), Some(&b"hello"[..]));
            assert_eq!(scan.next_record(), Some(&b""[..]));
            assert_eq!(scan.next_record(), None, "cut at {cut}");
            assert_eq!(scan.valid_end(), two);
            assert!(scan.torn_reason().is_some());
        }
    }

    #[test]
    fn flipped_bit_is_a_checksum_mismatch() {
        let mut buf = Vec::new();
        let at = begin_record(&mut buf);
        buf.extend_from_slice(b"payload");
        finish_record(&mut buf, at);
        for bit in 0..buf.len() * 8 {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let mut scan = RecordScanner::new(&bad);
            // Either the record is rejected outright, or (flipping a
            // length bit downward) a shorter record would need a
            // matching checksum — astronomically unlikely and not
            // constructible here.
            assert_eq!(scan.next_record(), None, "bit {bit} accepted");
        }
    }

    #[test]
    fn fsync_policy_parses_cli_spellings() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("off"), Some(FsyncPolicy::Off));
        assert_eq!(FsyncPolicy::parse("every=8"), Some(FsyncPolicy::EveryN(8)));
        assert_eq!(FsyncPolicy::parse("every-3"), Some(FsyncPolicy::EveryN(3)));
        assert_eq!(FsyncPolicy::parse("every=0"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }
}
