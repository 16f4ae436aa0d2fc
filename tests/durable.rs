//! Adversarial durability tests: the WAL and checkpoint decoders must
//! survive anything the filesystem can throw at them — torn tails,
//! flipped bits, duplicated and gapped epochs, empty and leftover
//! files, random garbage — **without panicking**, and always recover
//! a consistent prefix of the committed history.
//!
//! The happy path (clean shutdown, reopen, bit-identical answers) and
//! the cut-at-every-offset oracle live in `tests/dynamic.rs`; this
//! file is the hostile half of the contract.

use iloc::core::durable::{DurableCatalog, FsyncPolicy, StoreConfig};
use iloc::core::pipeline::UncertainRequest;
use iloc::core::serve::{ShardedEngine, Update};
use iloc::datagen::{PointUpdate, PointUpdateGen, UpdateMix};
use iloc::prelude::*;
use iloc::uncertainty::{
    DiscPdf, ObjectId, PdfKind, PointObject, TruncatedGaussianPdf, UncertainObject, UniformPdf,
};

// --- Scaffolding -----------------------------------------------------

fn temp_store(tag: &str) -> std::path::PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let dir =
        std::env::temp_dir().join(format!("iloc-durable-{tag}-{}-{nanos}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp store");
    dir
}

/// Point batches 1..=N over a small deterministic catalog; batch `k`
/// commits as epoch `k`.
fn point_fixture(rounds: usize) -> (Vec<PointObject>, Vec<Vec<Update<PointObject>>>) {
    let (base, mut gen) = PointUpdateGen::over_california(300, 13, UpdateMix::balanced());
    let objects: Vec<PointObject> = base
        .iter()
        .enumerate()
        .map(|(k, &p)| PointObject::new(k as u64, p))
        .collect();
    let batches = (0..rounds)
        .map(|_| {
            gen.stream(24)
                .into_iter()
                .map(|u| match u {
                    PointUpdate::Arrive { id, loc } => Update::Arrive(PointObject::new(id, loc)),
                    PointUpdate::Depart { id } => Update::Depart(ObjectId(id)),
                    PointUpdate::Move { id, to } => Update::Move(PointObject::new(id, to)),
                })
                .collect()
        })
        .collect();
    (objects, batches)
}

/// Builds a durable point store with `rounds` committed epochs and
/// only the base (epoch 0) checkpoint, so the WAL holds one record per
/// epoch. Returns the store directory and the deterministic history.
fn committed_store(
    tag: &str,
    rounds: usize,
) -> (
    std::path::PathBuf,
    Vec<PointObject>,
    Vec<Vec<Update<PointObject>>>,
) {
    let (objects, batches) = point_fixture(rounds);
    let dir = temp_store(tag);
    let seed = objects.clone();
    let (catalog, _) =
        DurableCatalog::<PointEngine>::open(&StoreConfig::new(&dir), 2, move || seed)
            .expect("open fresh");
    for batch in &batches {
        catalog.submit_all(batch.iter().cloned());
        catalog.commit().expect("commit");
    }
    assert_eq!(catalog.epoch(), rounds as u64);
    drop(catalog);
    (dir, objects, batches)
}

/// Live-set size after applying the first `r` batches — the cheap
/// consistency probe for "recovered exactly a prefix".
fn prefix_len(objects: &[PointObject], batches: &[Vec<Update<PointObject>>], r: usize) -> usize {
    let engine = ShardedEngine::<PointEngine>::build(objects.to_vec(), 1);
    for batch in &batches[..r] {
        engine.submit_all(batch.iter().cloned());
        engine.commit();
    }
    engine.len()
}

/// The single WAL segment of a base-checkpoint-only store.
fn the_wal(dir: &std::path::Path) -> std::path::PathBuf {
    let mut wals: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .expect("read store")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    assert_eq!(wals.len(), 1, "expected exactly one WAL segment");
    wals.pop().unwrap()
}

/// `(start, end)` byte ranges of every complete `[len][crc][payload]`
/// record in the buffer.
fn record_ranges(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let end = pos + 8 + len;
        if end > bytes.len() {
            break;
        }
        out.push((pos, end));
        pos = end;
    }
    out
}

/// CRC-32 (IEEE, reflected) — reimplemented here so the tests can
/// forge records with *valid* checksums over hostile payloads.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn reopen(
    dir: &std::path::Path,
    shards: usize,
) -> (
    DurableCatalog<PointEngine>,
    iloc::core::durable::CatalogRecovery,
) {
    DurableCatalog::<PointEngine>::open(&StoreConfig::new(dir), shards, || {
        panic!("an existing store must never re-run its seed")
    })
    .expect("recover")
}

// --- Tests -----------------------------------------------------------

#[test]
fn reopen_never_reseeds_once_the_base_checkpoint_exists() {
    let dir = temp_store("reseed");
    let objects: Vec<PointObject> = (0..64)
        .map(|k| PointObject::new(k as u64, Point::new(k as f64, -(k as f64))))
        .collect();
    let n = objects.len();
    let (catalog, recovery) =
        DurableCatalog::<PointEngine>::open(&StoreConfig::new(&dir), 2, move || objects)
            .expect("open fresh");
    assert!(!recovery.recovered);
    assert_eq!(recovery.epoch, 0);
    drop(catalog);

    // The seed closure must not run: the fresh open wrote an epoch-0
    // base checkpoint, and recovery starts from disk.
    let (recovered, recovery) = reopen(&dir, 8);
    assert!(recovery.recovered);
    assert_eq!(recovery.epoch, 0);
    assert_eq!(recovered.len(), n);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn uncertain_catalog_round_trips_every_pdf_kind() {
    let region = |k: u64| {
        Rect::centered(
            Point::new(100.0 * k as f64, 50.0 * k as f64),
            40.0 + k as f64,
            30.0 + k as f64,
        )
    };
    let objects: Vec<UncertainObject> = (0..30u64)
        .map(|k| match k % 3 {
            0 => UncertainObject::new(k, PdfKind::Uniform(UniformPdf::new(region(k)))),
            1 => UncertainObject::new(
                k,
                PdfKind::Gaussian(TruncatedGaussianPdf::new(
                    region(k),
                    region(k).center(),
                    9.0 + k as f64,
                    7.0 + k as f64,
                )),
            ),
            _ => UncertainObject::new(
                k,
                PdfKind::Disc(DiscPdf::new(region(k).center(), 12.0 + k as f64)),
            ),
        })
        .collect();
    let updates: Vec<Update<UncertainObject>> = (30..40u64)
        .map(|k| {
            Update::Arrive(UncertainObject::new(
                k,
                PdfKind::Uniform(UniformPdf::new(region(k))),
            ))
        })
        .chain((0..5u64).map(|k| Update::Depart(ObjectId(k * 3))))
        .collect();

    let dir = temp_store("pdf");
    let seed = objects.clone();
    let (catalog, _) =
        DurableCatalog::<UncertainEngine>::open(&StoreConfig::new(&dir), 2, move || seed)
            .expect("open fresh");
    catalog.submit_all(updates.iter().cloned());
    catalog.commit().expect("commit");
    catalog.checkpoint().expect("checkpoint");
    drop(catalog);

    // Reopen from the checkpoint alone, at another shard count, and
    // compare bit-identically against a transient rebuild at the old
    // one: a sampled (disc, or any object under a Gaussian issuer)
    // probability is a function of the query and its object, not of
    // which shard holds it.
    let (recovered, recovery) =
        DurableCatalog::<UncertainEngine>::open(&StoreConfig::new(&dir), 3, || {
            panic!("must recover from the checkpoint")
        })
        .expect("recover");
    assert!(recovery.recovered);
    assert_eq!(recovery.epoch, 1);
    let reference = ShardedEngine::<UncertainEngine>::build(objects, 2);
    reference.submit_all(updates);
    reference.commit();
    assert_eq!(recovered.len(), reference.len());
    let (got, want) = (recovered.snapshot(), reference.snapshot());
    let mut sampled = 0;
    for k in 0..12u64 {
        let region = Rect::centered(Point::new(100.0 * k as f64, 50.0 * k as f64), 200.0, 200.0);
        for issuer in [Issuer::uniform(region), Issuer::gaussian(region)] {
            let request = UncertainRequest::iuq(issuer, RangeSpec::square(150.0));
            let answer = got.execute_one(&request);
            assert!(
                answer.same_matches(&want.execute_one(&request)),
                "query {k} diverged after pdf round trip"
            );
            sampled += usize::from(answer.stats.mc_samples > 0 && !answer.results.is_empty());
        }
    }
    assert!(sampled > 12, "only {sampled} answers sampled");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_bit_flips_never_panic_and_recover_an_exact_prefix() {
    const ROUNDS: usize = 8;
    let (dir, objects, batches) = committed_store("flip", ROUNDS);
    let wal = the_wal(&dir);
    let pristine = std::fs::read(&wal).expect("read WAL");
    let ranges = record_ranges(&pristine);
    assert_eq!(ranges.len(), ROUNDS);
    let lens: Vec<usize> = (0..=ROUNDS)
        .map(|r| prefix_len(&objects, &batches, r))
        .collect();

    // Flip one bit at a stride of positions covering headers and
    // payloads of every record. CRC-32 catches any single-bit error,
    // so recovery must always stop at the damaged record — epoch and
    // live-set size match the exact prefix before it.
    for pos in (0..pristine.len()).step_by(13) {
        let mut damaged = pristine.clone();
        damaged[pos] ^= 0x10;
        std::fs::write(&wal, &damaged).expect("write damaged WAL");
        let (recovered, recovery) = reopen(&dir, 2);
        let damaged_record = ranges
            .iter()
            .position(|&(s, e)| (s..e).contains(&pos))
            .unwrap_or(ROUNDS);
        assert_eq!(
            recovered.epoch(),
            damaged_record as u64,
            "flip at {pos}: must replay exactly the records before the damage"
        );
        assert!(recovery.recovered);
        assert_eq!(recovered.len(), lens[damaged_record], "flip at {pos}");
        // Recovery truncated the damage away; put the history back for
        // the next iteration.
        std::fs::write(&wal, &pristine).expect("restore WAL");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_base_checkpoint_falls_back_to_the_wal_and_is_counted() {
    const ROUNDS: usize = 6;
    let (dir, objects, batches) = committed_store("ckptflip", ROUNDS);
    let ckpt = std::fs::read_dir(&dir)
        .expect("read store")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".bin"))
        })
        .expect("base checkpoint");
    let mut bytes = std::fs::read(&ckpt).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&ckpt, &bytes).expect("write corrupt checkpoint");

    // No valid checkpoint remains, but the WAL covers epoch 1..=N from
    // the deterministic seed — so this time the seed closure *does*
    // run, and the full history replays on top of it.
    let seed = objects.clone();
    let (recovered, recovery) =
        DurableCatalog::<PointEngine>::open(&StoreConfig::new(&dir), 2, move || seed)
            .expect("recover");
    assert!(recovery.recovered);
    assert_eq!(recovery.invalid_checkpoints, 1);
    assert_eq!(recovery.checkpoint_epoch, 0);
    assert_eq!(recovered.epoch(), ROUNDS as u64);
    assert_eq!(recovered.len(), prefix_len(&objects, &batches, ROUNDS));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_records_are_skipped_as_stale() {
    const ROUNDS: usize = 6;
    let (dir, objects, batches) = committed_store("dup", ROUNDS);
    let wal = the_wal(&dir);
    let mut bytes = std::fs::read(&wal).expect("read WAL");
    let ranges = record_ranges(&bytes);
    // Re-append copies of epochs 3 and 6 after the end — the shape a
    // segment-rotation race could leave behind.
    let (s3, e3) = ranges[2];
    let dup3 = bytes[s3..e3].to_vec();
    let (s6, e6) = ranges[5];
    let dup6 = bytes[s6..e6].to_vec();
    bytes.extend_from_slice(&dup3);
    bytes.extend_from_slice(&dup6);
    std::fs::write(&wal, &bytes).expect("write WAL with duplicates");

    let (recovered, recovery) = reopen(&dir, 2);
    assert_eq!(recovered.epoch(), ROUNDS as u64);
    assert_eq!(recovery.stale_records, 2);
    assert_eq!(recovered.len(), prefix_len(&objects, &batches, ROUNDS));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_epoch_gap_cuts_the_log_and_stays_cut() {
    const ROUNDS: usize = 6;
    let (dir, objects, batches) = committed_store("gap", ROUNDS);
    let wal = the_wal(&dir);
    let mut bytes = std::fs::read(&wal).expect("read WAL");
    let ranges = record_ranges(&bytes);
    // Splice out epoch 4: epochs 5 and 6 now gap the sequence.
    let (s4, e4) = ranges[3];
    bytes.drain(s4..e4);
    std::fs::write(&wal, &bytes).expect("write gapped WAL");

    let (recovered, recovery) = reopen(&dir, 2);
    assert_eq!(
        recovered.epoch(),
        3,
        "replay must stop at the gap, not guess past it"
    );
    assert!(recovery.wal_truncated);
    assert_eq!(recovered.len(), prefix_len(&objects, &batches, 3));
    drop(recovered);

    // The cut is physical: a second recovery sees a clean 3-epoch log
    // and has nothing left to truncate.
    let (recovered, recovery) = reopen(&dir, 8);
    assert_eq!(recovered.epoch(), 3);
    assert!(!recovery.wal_truncated);
    assert_eq!(recovery.stale_records, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn garbage_payload_with_a_valid_checksum_cuts_the_log() {
    const ROUNDS: usize = 5;
    let (dir, objects, batches) = committed_store("forged", ROUNDS);
    let wal = the_wal(&dir);
    let mut bytes = std::fs::read(&wal).expect("read WAL");
    let ranges = record_ranges(&bytes);
    // Forge record 2: same length, hostile payload, *correct* CRC —
    // the decoder itself, not the checksum, must reject it.
    let (start, end) = ranges[1];
    for b in &mut bytes[start + 8..end] {
        *b = 0xAA;
    }
    let crc = crc32(&bytes[start + 8..end]);
    bytes[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&wal, &bytes).expect("write forged WAL");

    let (recovered, recovery) = reopen(&dir, 2);
    assert_eq!(
        recovered.epoch(),
        1,
        "replay must stop at the forged record"
    );
    assert!(recovery.wal_truncated);
    assert_eq!(recovered.len(), prefix_len(&objects, &batches, 1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_and_leftover_files_are_tolerated() {
    const ROUNDS: usize = 4;
    let (dir, objects, batches) = committed_store("leftover", ROUNDS);
    // The debris a crash (or a confused operator) can leave behind:
    // an empty late WAL segment, an empty checkpoint claiming a newer
    // epoch, a torn checkpoint temp file, and an unrelated file.
    std::fs::write(dir.join("wal-00000000000000000050.log"), b"").unwrap();
    std::fs::write(dir.join("ckpt-00000000000000000099.bin"), b"").unwrap();
    std::fs::write(
        dir.join("ckpt-00000000000000000098.tmp"),
        b"torn half-write",
    )
    .unwrap();
    std::fs::write(dir.join("notes.txt"), b"operator scribble").unwrap();

    let (recovered, recovery) = reopen(&dir, 2);
    assert_eq!(recovered.epoch(), ROUNDS as u64);
    assert!(
        recovery.invalid_checkpoints >= 1,
        "the empty checkpoint must be counted, not trusted"
    );
    assert_eq!(recovered.len(), prefix_len(&objects, &batches, ROUNDS));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn random_bytes_as_a_wal_segment_never_panic() {
    const ROUNDS: usize = 3;
    let (dir, objects, batches) = committed_store("noise", ROUNDS);
    let wal = the_wal(&dir);
    // Deterministic noise (xorshift64*) in place of the real log.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let noise: Vec<u8> = (0..4096)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect();
    std::fs::write(&wal, &noise).expect("write noise");

    let (recovered, recovery) = reopen(&dir, 2);
    assert!(recovery.recovered);
    assert_eq!(
        recovered.epoch(),
        0,
        "noise holds no valid records; only the base checkpoint survives"
    );
    assert_eq!(recovered.len(), prefix_len(&objects, &batches, 0));
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovered vs never crashed, across the commit that compacts a
/// shard. The store checkpoints at epoch 3, before any compaction, and
/// the log then carries the catalog past the epoch at which a shard's
/// vacated slots first outnumber its live objects. Recovery rebuilds
/// each shard dense from the checkpoint and replays the log, so its
/// shards compact at other epochs or not at all — yet each enumerates
/// the never-crashed catalog's live objects in the same order, and
/// Monte-Carlo answers (disc pdfs) come out bit-identical. A
/// checkpoint of the recovered catalog reopens to the same again.
#[test]
fn recovery_across_compaction_answers_as_the_never_crashed_catalog() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const SHARDS: usize = 2;
    let mut rng = StdRng::seed_from_u64(0xC0_DE);
    let object = |id: u64, rng: &mut StdRng| {
        let c = Point::new(rng.gen_range(100.0..1_900.0), rng.gen_range(100.0..1_900.0));
        let (w, h) = (rng.gen_range(10.0..60.0), rng.gen_range(10.0..60.0));
        match id % 3 {
            0 => UncertainObject::new(id, UniformPdf::new(Rect::centered(c, w, h))),
            1 => UncertainObject::new(
                id,
                TruncatedGaussianPdf::paper_default(Rect::centered(c, w, h)),
            ),
            _ => UncertainObject::new(id, DiscPdf::new(c, w)),
        }
    };
    let objects: Vec<UncertainObject> = (0..240).map(|id| object(id, &mut rng)).collect();
    let (mut live, mut next_id): (Vec<u64>, u64) = ((0..240).collect(), 240);
    let requests: Vec<UncertainRequest> = (0..10)
        .map(|k| {
            let c = Point::new(rng.gen_range(300.0..1_700.0), rng.gen_range(300.0..1_700.0));
            let issuer = Issuer::uniform(Rect::centered(c, 120.0, 90.0));
            match k % 2 {
                0 => UncertainRequest::iuq(issuer, RangeSpec::square(250.0)),
                _ => UncertainRequest::ciuq(
                    issuer,
                    RangeSpec::square(250.0),
                    0.3,
                    CiuqStrategy::PtiPExpanded,
                ),
            }
        })
        .collect();

    let dir = temp_store("compaction");
    let seed = objects.clone();
    let (catalog, _) =
        DurableCatalog::<UncertainEngine>::open(&StoreConfig::new(&dir), SHARDS, move || seed)
            .expect("open fresh");
    let never_crashed = ShardedEngine::<UncertainEngine>::build(objects, SHARDS);
    let slots = |snapshot: &Snapshot<UncertainEngine>| -> Vec<usize> {
        snapshot.shards().iter().map(|s| s.slots()).collect()
    };
    // Departures outpace arrivals; a shard's slot count falls only
    // when it compacts.
    let (mut compacted, mut epoch) = (None, 0);
    while compacted.is_none_or(|at| epoch < at + 3) {
        let mut batch = Vec::new();
        for _ in 0..10 {
            let id = live.swap_remove(rng.gen_range(0..live.len()));
            batch.push(Update::Depart(ObjectId(id)));
        }
        for _ in 0..4 {
            let id = live[rng.gen_range(0..live.len())];
            batch.push(Update::Move(object(id, &mut rng)));
        }
        for _ in 0..2 {
            batch.push(Update::Arrive(object(next_id, &mut rng)));
            live.push(next_id);
            next_id += 1;
        }
        let before = slots(&never_crashed.snapshot());
        catalog.submit_all(batch.iter().cloned());
        epoch = catalog.commit().expect("commit").epoch;
        never_crashed.submit_all(batch);
        never_crashed.commit();
        let after = slots(&never_crashed.snapshot());
        if compacted.is_none() && after.iter().zip(&before).any(|(a, b)| a < b) {
            compacted = Some(epoch);
        }
        if epoch == 3 {
            catalog.checkpoint().expect("checkpoint before compaction");
        }
    }
    assert!(
        compacted.is_some_and(|at| at > 3),
        "compacted at {compacted:?}"
    );
    drop(catalog);

    let live_ids = |snapshot: &Snapshot<UncertainEngine>| -> Vec<Vec<ObjectId>> {
        let shards = snapshot.shards().iter();
        shards
            .map(|s| s.live_objects().map(|o| o.id).collect())
            .collect()
    };
    let want = never_crashed.snapshot();
    let answers: Vec<QueryAnswer> = requests.iter().map(|r| want.execute_one(r)).collect();
    assert!(
        answers.iter().any(|a| a.stats.mc_samples > 0),
        "no Monte-Carlo refinement"
    );
    for (pass, base) in [("replayed", 3), ("checkpointed after the replay", epoch)] {
        let (recovered, recovery) =
            DurableCatalog::<UncertainEngine>::open(&StoreConfig::new(&dir), SHARDS, || {
                panic!("must recover from disk")
            })
            .expect("recover");
        assert_eq!(
            (recovery.checkpoint_epoch, recovery.epoch),
            (base, epoch),
            "{pass}"
        );
        let got = recovered.snapshot();
        assert_eq!(live_ids(&got), live_ids(&want), "{pass}: live order");
        for (k, (request, answer)) in requests.iter().zip(&answers).enumerate() {
            assert!(
                got.execute_one(request).same_matches(answer),
                "{pass}: request {k}"
            );
        }
        recovered
            .checkpoint()
            .expect("checkpoint the recovered catalog");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fsync_policies_off_and_every_n_still_replay_after_a_clean_drop() {
    for (tag, policy) in [
        ("off", FsyncPolicy::Off),
        ("everyn", FsyncPolicy::EveryN(3)),
    ] {
        let (objects, batches) = point_fixture(5);
        let dir = temp_store(tag);
        let config = StoreConfig {
            dir: dir.clone(),
            fsync: policy,
        };
        let seed = objects.clone();
        let (catalog, _) =
            DurableCatalog::<PointEngine>::open(&config, 2, move || seed).expect("open fresh");
        for batch in &batches {
            catalog.submit_all(batch.iter().cloned());
            catalog.commit().expect("commit");
        }
        drop(catalog);

        // Relaxed fsync weakens what survives a *power cut*, not what
        // a clean process exit leaves in the page cache.
        let (recovered, recovery) =
            DurableCatalog::<PointEngine>::open(&config, 2, || panic!("must not reseed"))
                .expect("recover");
        assert!(recovery.recovered);
        assert_eq!(recovered.epoch(), 5);
        assert_eq!(recovered.len(), prefix_len(&objects, &batches, 5));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// 50 seed objects on a line, and the arrival epoch `k` commits.
fn line_seed() -> Vec<PointObject> {
    (0..50u64)
        .map(|k| PointObject::new(k, Point::new(k as f64, 1.0)))
        .collect()
}

fn arrival(k: u64) -> Update<PointObject> {
    Update::Arrive(PointObject::new(49 + k, Point::new(49.0 + k as f64, 2.0)))
}

#[test]
fn store_survives_a_second_checkpoint_at_epoch_zero() {
    let dir = temp_store("ckpt0twice");
    let (catalog, _) = DurableCatalog::<PointEngine>::open(&StoreConfig::new(&dir), 2, line_seed)
        .expect("open fresh");
    // The base checkpoint is already there: this one must change nothing.
    catalog.checkpoint().expect("checkpoint at epoch 0");
    catalog.submit(arrival(1));
    assert_eq!(catalog.commit().expect("commit").epoch, 1);
    let bytes = snapshot_bytes(&catalog);
    drop(catalog);

    let (recovered, recovery) = reopen(&dir, 2);
    assert_eq!(recovery.epoch, 1, "the acknowledged epoch");
    assert_eq!(recovered.len(), 51);
    assert!(
        snapshot_bytes(&recovered) == bytes,
        "recovered snapshot differs"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_survives_a_damaged_newest_checkpoint() {
    let dir = temp_store("ckptfallback");
    let (catalog, _) = DurableCatalog::<PointEngine>::open(&StoreConfig::new(&dir), 2, line_seed)
        .expect("open fresh");
    for k in 1..=15 {
        catalog.submit(arrival(k));
        catalog.commit().expect("commit");
        if k == 5 || k == 10 {
            assert_eq!(catalog.checkpoint().expect("checkpoint"), Some(k));
        }
    }
    assert_eq!(catalog.len(), 65);
    let bytes = snapshot_bytes(&catalog);
    drop(catalog);

    let newest = dir.join(format!("ckpt-{:020}.bin", 10));
    let mut damaged = std::fs::read(&newest).expect("read the newest checkpoint");
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x01;
    std::fs::write(&newest, &damaged).expect("damage it");

    let (recovered, recovery) = reopen(&dir, 2);
    assert_eq!(recovery.invalid_checkpoints, 1);
    assert_eq!(recovery.checkpoint_epoch, 5, "the fallback");
    assert_eq!(recovery.epoch, 15, "every acknowledged epoch");
    assert!(!recovery.wal_truncated, "the log has no gap");
    assert!(
        snapshot_bytes(&recovered) == bytes,
        "recovered snapshot differs"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Set, to its store directory, only in the child process of
/// `failed_append_under_a_file_size_limit_recovers_the_acknowledged_epoch`.
const LIMITED_CHILD_STORE: &str = "ILOC_TEST_LIMITED_CHILD_STORE";

/// Every shard's live objects in slot order, in their durable binary
/// form: equal bytes are a bit-identical snapshot.
fn snapshot_bytes(catalog: &DurableCatalog<PointEngine>) -> Vec<u8> {
    use iloc::core::durable::DurableObject;
    let mut bytes = Vec::new();
    for shard in catalog.snapshot().shards() {
        bytes.extend_from_slice(&(shard.len() as u64).to_le_bytes());
        for object in shard.live_objects() {
            object.encode(&mut bytes);
        }
    }
    bytes
}

/// An append cut short by the file-size limit (EFBIG, with SIGXFSZ
/// ignored) publishes nothing, then or later, and leaves the log
/// ending at its last whole record. The test re-runs itself as a
/// child under `ulimit -f 64`, which limits that child only: it
/// commits 100-arrival batches until an append fails, retries the
/// commit once, and prints the epoch it last acknowledged with that
/// epoch's snapshot bytes. This process then reopens the store without
/// the limit and must recover exactly that state, cutting nothing.
#[test]
fn failed_append_under_a_file_size_limit_recovers_the_acknowledged_epoch() {
    if let Some(dir) = std::env::var_os(LIMITED_CHILD_STORE) {
        return limited_child(std::path::Path::new(&dir));
    }
    let dir = temp_store("fsize");
    let output = std::process::Command::new("bash")
        .arg("-c")
        .arg(
            "trap '' XFSZ; ulimit -f 64; exec \"$0\" --exact --nocapture --test-threads 1 \
             failed_append_under_a_file_size_limit_recovers_the_acknowledged_epoch",
        )
        .arg(std::env::current_exe().expect("this test binary"))
        .env(LIMITED_CHILD_STORE, &dir)
        .output()
        .expect("run the limited child");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "limited child failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("acknowledged "))
        .expect("the child reports its acknowledged state");
    let (epoch, hex) = line.split_once(' ').expect("epoch and bytes");
    let acknowledged: u64 = epoch.parse().expect("epoch");
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
        .collect();

    let (recovered, recovery) =
        DurableCatalog::<PointEngine>::open(&StoreConfig::new(&dir), 2, || {
            panic!("must not reseed")
        })
        .expect("reopen without the limit");
    assert_eq!(recovery.epoch, acknowledged, "recovered epoch");
    assert!(
        !recovery.wal_truncated,
        "the failed append left a torn tail"
    );
    assert!(
        snapshot_bytes(&recovered) == bytes,
        "recovered snapshot differs"
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn limited_child(dir: &std::path::Path) {
    let (catalog, _) = DurableCatalog::<PointEngine>::open(&StoreConfig::new(dir), 2, Vec::new)
        .expect("open fresh");
    let mut next = 0u64;
    let error = loop {
        catalog.submit_all((next..next + 100).map(|id| {
            let at = Point::new((id % 997) as f64, (id % 991) as f64);
            Update::Arrive(PointObject::new(id, at))
        }));
        next += 100;
        match catalog.commit() {
            Ok(report) => assert!(report.epoch < 1_000, "the file-size limit never bit"),
            Err(e) => break e,
        }
    };
    let epoch = catalog.epoch();
    assert_eq!(epoch, next / 100 - 1, "a failed append publishes nothing");
    assert_eq!(catalog.pending_len(), 100, "its batch stays pending");
    // Nothing new is submitted: the retry offers the same batch, which
    // the limit refuses again.
    let acknowledged = catalog.commit().map_or(epoch, |report| report.epoch);
    let hex: String = snapshot_bytes(&catalog)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    println!("failed append: {error}");
    println!("acknowledged {acknowledged} {hex}");
}
