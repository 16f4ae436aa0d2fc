//! The object codec is one piece of code with two callers — the wire
//! protocol and the durable store — and this suite pins that: the
//! bytes of an update on the wire are the bytes in the write-ahead log
//! behind a catalog-target byte, both equal a checked-in literal, and
//! one adversarial input maps onto both callers' typed errors.

use iloc::core::durable::codec::{put_f64, read_pdf, read_update, Cursor};
use iloc::core::durable::{CodecError, DurableCatalog, StoreConfig, StoreError};
use iloc::core::serve::{ServeEngine, Update};
use iloc::core::{DurableObject, PointEngine, UncertainEngine};
use iloc::geometry::{Point, Rect};
use iloc::server::protocol::{self, WireError, WireUpdate};
use iloc::uncertainty::{
    DiscPdf, ObjectId, PdfKind, PointObject, TruncatedGaussianPdf, UncertainObject, UniformPdf,
};

fn temp_store(tag: &str) -> std::path::PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let dir = std::env::temp_dir().join(format!("iloc-codec-{tag}-{}-{nanos}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp store");
    dir
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Commits each update as its own epoch on a fresh durable catalog and
/// returns, per update, the bytes the WAL appended for it: the record
/// payload past the 8-byte record header and the `epoch u64 | count
/// u32` batch header.
fn wal_bytes<E>(tag: &str, updates: &[Update<E::Object>]) -> Vec<Vec<u8>>
where
    E: ServeEngine,
    E::Object: DurableObject,
{
    let dir = temp_store(tag);
    let (catalog, _) =
        DurableCatalog::<E>::open(&StoreConfig::new(&dir), 1, Vec::new).expect("open fresh store");
    let mut out = Vec::new();
    let mut seen = 0usize;
    for update in updates {
        catalog.submit(update.clone());
        catalog.commit().expect("commit");
        let mut log = Vec::new();
        for entry in std::fs::read_dir(&dir).expect("list store") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("wal-") {
                log.extend(std::fs::read(&path).expect("read segment"));
            }
        }
        let record = &log[seen..];
        let payload_len = u32::from_le_bytes(record[0..4].try_into().unwrap()) as usize;
        assert_eq!(record.len(), 8 + payload_len, "one record per commit");
        assert_eq!(
            &record[16..20],
            &1u32.to_le_bytes(),
            "one update per record"
        );
        out.push(record[20..].to_vec());
        seen = log.len();
    }
    drop(catalog);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The per-entry bytes `encode_update_batch` emits for `updates`: the
/// frame past its 6-byte header and the `count u32`, split where the
/// per-entry encodings of single-update batches say the seams are.
fn wire_entries(updates: &[WireUpdate]) -> Vec<Vec<u8>> {
    let mut batch = Vec::new();
    protocol::encode_update_batch(&mut batch, updates).expect("encodable");
    let mut at = 10;
    let mut out = Vec::new();
    for update in updates {
        let mut one = Vec::new();
        protocol::encode_update_batch(&mut one, std::slice::from_ref(update)).expect("encodable");
        let entry = &one[10..];
        assert_eq!(&batch[at..at + entry.len()], entry, "batch is its entries");
        at += entry.len();
        out.push(entry.to_vec());
    }
    assert_eq!(at, batch.len());
    out
}

#[test]
fn wire_update_bytes_are_target_plus_wal_bytes_and_match_the_golden_literal() {
    let region = Rect::from_coords(10.0, 20.0, 110.0, 170.0);
    let point: Vec<Update<PointObject>> = vec![
        Update::Arrive(PointObject::new(7u64, Point::new(1.5, -2.25))),
        Update::Move(PointObject::new(7u64, Point::new(3.0, 4.0))),
        Update::Depart(ObjectId(7)),
    ];
    let pdfs = [
        PdfKind::Uniform(UniformPdf::new(region)),
        PdfKind::Gaussian(TruncatedGaussianPdf::new(
            region,
            Point::new(60.0, 95.0),
            12.5,
            33.25,
        )),
        PdfKind::Disc(DiscPdf::new(Point::new(5.0, -7.0), 2.5)),
    ];
    let mut uncertain: Vec<Update<UncertainObject>> = Vec::new();
    for (k, pdf) in pdfs.iter().enumerate() {
        uncertain.push(Update::Arrive(UncertainObject::new(k as u64, pdf.clone())));
    }
    for (k, pdf) in pdfs.iter().enumerate() {
        // Every kind also travels as a move, onto a slot that held another kind.
        let id = (k as u64 + 1) % 3;
        uncertain.push(Update::Move(UncertainObject::new(id, pdf.clone())));
    }
    uncertain.push(Update::Depart(ObjectId(1)));

    // What the parent commit's wire encoder (the pre-merge twin)
    // emitted for these updates.
    let golden_point = [
        "00000700000000000000000000000000f83f00000000000002c0",
        "0002070000000000000000000000000008400000000000001040",
        "00010700000000000000",
    ];
    let golden_uncertain = [
        "0100000000000000000000000000000000244000000000000034400000000000805b400000000000406540",
        "0100010000000000000001000000000000244000000000000034400000000000805b400000000000406540\
         0000000000004e400000000000c0574000000000000029400000000000a04040",
        "010002000000000000000200000000000014400000000000001cc00000000000000440",
        "0102010000000000000000000000000000244000000000000034400000000000805b400000000000406540",
        "0102020000000000000001000000000000244000000000000034400000000000805b400000000000406540\
         0000000000004e400000000000c0574000000000000029400000000000a04040",
        "010200000000000000000200000000000014400000000000001cc00000000000000440",
        "01010100000000000000",
    ];

    let wire_point = wire_entries(
        &point
            .iter()
            .cloned()
            .map(WireUpdate::Point)
            .collect::<Vec<_>>(),
    );
    let wal_point = wal_bytes::<PointEngine>("point", &point);
    for (k, golden) in golden_point.iter().enumerate() {
        assert_eq!(wire_point[k][0], 0, "point target byte");
        assert_eq!(wire_point[k][1..], wal_point[k][..], "point update {k}");
        assert_eq!(hex(&wire_point[k]), *golden, "point update {k}");
    }
    let wire_uncertain = wire_entries(
        &uncertain
            .iter()
            .cloned()
            .map(WireUpdate::Uncertain)
            .collect::<Vec<_>>(),
    );
    let wal_uncertain = wal_bytes::<UncertainEngine>("uncertain", &uncertain);
    assert_eq!(wire_uncertain.len(), golden_uncertain.len());
    for (k, golden) in golden_uncertain.iter().enumerate() {
        assert_eq!(wire_uncertain[k][0], 1, "uncertain target byte");
        assert_eq!(
            wire_uncertain[k][1..],
            wal_uncertain[k][..],
            "uncertain update {k}"
        );
        assert_eq!(hex(&wire_uncertain[k]), *golden, "uncertain update {k}");
    }
}

/// One adversarial input through the shared decoder, and the error it
/// must become on each side.
fn assert_rejected<T: std::fmt::Debug>(got: Result<T, CodecError>, what: &'static str) {
    let e = got.expect_err(what);
    assert_eq!(e, CodecError::Malformed(what));
    assert_eq!(WireError::from(e), WireError::Malformed(what));
    match StoreError::from(e) {
        StoreError::Corrupt(w) => assert_eq!(w, what),
        other => panic!("{what}: expected Corrupt, got {other:?}"),
    }
}

fn floats(tag: u8, values: &[f64]) -> Vec<u8> {
    let mut buf = vec![tag];
    for &v in values {
        put_f64(&mut buf, v);
    }
    buf
}

#[test]
fn adversarial_bytes_are_typed_errors_on_both_sides() {
    let pdf = |bytes: &[u8]| read_pdf(&mut Cursor::new(bytes));
    assert_rejected(pdf(&floats(0, &[f64::NAN, 0.0, 1.0, 1.0])), "rect min.x");
    assert_rejected(
        pdf(&floats(0, &[5.0, 5.0, 1.0, 9.0])),
        "rect min exceeds max",
    );
    assert_rejected(pdf(&[9]), "unknown pdf tag");
    assert_rejected(pdf(&floats(2, &[1.0])), "payload truncated");
    assert_rejected(
        pdf(&floats(2, &[1.0, 1.0, -3.0])),
        "disc radius must be positive",
    );
    // Finite fields, but the bounding box reaches infinity: the index
    // would refuse the key after the WAL append.
    assert_rejected(
        pdf(&floats(2, &[1e308, 0.0, 1e308])),
        "disc extent or area not finite",
    );
    // r² underflows: a zero area, an infinite density.
    assert_rejected(
        pdf(&floats(2, &[0.0, 0.0, 1e-200])),
        "disc extent or area not finite",
    );
    assert_rejected(
        pdf(&floats(0, &[5.0, 5.0, 5.0, 9.0])),
        "uniform pdf region has zero area",
    );
    assert_rejected(
        pdf(&floats(1, &[0.0, 0.0, 1.0, 1.0, 50.0, 50.0, 0.001, 0.001])),
        "gaussian mean outside its region",
    );
    assert_rejected(
        pdf(&floats(1, &[0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 0.0, 1.0])),
        "gaussian sigma must be positive",
    );
    assert_rejected(
        read_update::<PointObject>(&mut Cursor::new(&[7])),
        "unknown update tag",
    );
    assert_rejected(
        read_update::<PointObject>(&mut Cursor::new(&floats(0, &[0.0, f64::INFINITY, 0.0]))),
        "point object x",
    );

    // Trailing bytes: a whole pdf decodes, the remainder is refused.
    let mut long = floats(2, &[1.0, 1.0, 3.0]);
    long.push(0);
    let mut c = Cursor::new(&long);
    read_pdf(&mut c).expect("a valid disc");
    assert_rejected(c.done(), "trailing bytes");
}
