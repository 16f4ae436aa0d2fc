//! The one bit-exact binary encoding of catalog objects and updates,
//! shared by the durable store (WAL records, checkpoints) and the
//! wire protocol (`iloc-server`'s `protocol` module): little-endian
//! integers, `f64`s as raw IEEE-754 bit patterns. A wire update is
//! byte-for-byte one catalog-target byte followed by [`put_update`]'s
//! output, so neither format can drift from the other.
//!
//! Every decoder validates the preconditions of the constructor it is
//! about to call, so adversarial or corrupt bytes surface as a
//! [`CodecError`], never a panic. The two callers map it onto their
//! own error types: [`StoreError`] here, `WireError` in the server
//! crate.

use iloc_geometry::{Point, Rect};
use iloc_uncertainty::{
    DiscPdf, LocationPdf, ObjectId, PdfKind, PointObject, TruncatedGaussianPdf, UncertainObject,
    UniformPdf,
};

use super::StoreError;
use crate::serve::Update;

/// Why an encode or decode failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Bytes ended early, carried a trailing remainder, or held an
    /// out-of-range value; the message names the offending field.
    Malformed(&'static str),
    /// The pdf is a [`PdfKind::Shared`] handle, which has no binary
    /// form.
    UnsupportedPdf,
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> StoreError {
        match e {
            CodecError::Malformed(what) => StoreError::Corrupt(what),
            CodecError::UnsupportedPdf => StoreError::Unsupported("shared pdf handle"),
        }
    }
}

/// A bounds-checked reader over one record or frame payload. Its
/// methods and the `put_*` integer writers are `#[inline]`: the wire
/// protocol calls them from another crate, twice per match of every
/// answer it encodes or decodes.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Next `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(CodecError::Malformed("payload truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    /// Next little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(
            self.bytes(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Next little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Next little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Next `f64`, decoded from its raw bit pattern (bit-exact; NaN
    /// and infinities pass through — use [`Cursor::finite`] where
    /// finiteness matters).
    #[inline]
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Next `f64`, rejected unless finite.
    #[inline]
    pub fn finite(&mut self, what: &'static str) -> Result<f64, CodecError> {
        let v = self.f64()?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(CodecError::Malformed(what))
        }
    }

    /// Errors unless the payload was consumed exactly.
    #[inline]
    pub fn done(&self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes"))
        }
    }
}

/// Appends a little-endian `u16`.
#[inline]
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its raw bit pattern.
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a rectangle (min.x, min.y, max.x, max.y).
pub fn put_rect(buf: &mut Vec<u8>, r: Rect) {
    put_f64(buf, r.min.x);
    put_f64(buf, r.min.y);
    put_f64(buf, r.max.x);
    put_f64(buf, r.max.y);
}

/// Reads a rectangle with finite coordinates and `min ≤ max`.
pub fn read_rect(c: &mut Cursor<'_>) -> Result<Rect, CodecError> {
    let (x0, y0) = (c.finite("rect min.x")?, c.finite("rect min.y")?);
    let (x1, y1) = (c.finite("rect max.x")?, c.finite("rect max.y")?);
    if x0 > x1 || y0 > y1 {
        return Err(CodecError::Malformed("rect min exceeds max"));
    }
    Ok(Rect::from_coords(x0, y0, x1, y1))
}

const PDF_UNIFORM: u8 = 0;
const PDF_GAUSSIAN: u8 = 1;
const PDF_DISC: u8 = 2;

/// Appends one pdf. Only the concrete kinds have a binary form;
/// `Shared` handles are rejected with [`CodecError::UnsupportedPdf`].
pub fn put_pdf(buf: &mut Vec<u8>, pdf: &PdfKind) -> Result<(), CodecError> {
    match pdf {
        PdfKind::Uniform(u) => {
            buf.push(PDF_UNIFORM);
            put_rect(buf, u.region());
        }
        PdfKind::Gaussian(g) => {
            buf.push(PDF_GAUSSIAN);
            put_rect(buf, g.region());
            put_f64(buf, g.mean().x);
            put_f64(buf, g.mean().y);
            put_f64(buf, g.sigma().0);
            put_f64(buf, g.sigma().1);
        }
        PdfKind::Disc(d) => {
            buf.push(PDF_DISC);
            let c = d.disc();
            put_f64(buf, c.center.x);
            put_f64(buf, c.center.y);
            put_f64(buf, c.radius);
        }
        PdfKind::Shared(_) => return Err(CodecError::UnsupportedPdf),
    }
    Ok(())
}

/// Reads one pdf, validating every constructor precondition.
pub fn read_pdf(c: &mut Cursor<'_>) -> Result<PdfKind, CodecError> {
    match c.u8()? {
        PDF_UNIFORM => {
            let region = read_rect(c)?;
            if region.area() <= 0.0 {
                return Err(CodecError::Malformed("uniform pdf region has zero area"));
            }
            Ok(PdfKind::Uniform(UniformPdf::new(region)))
        }
        PDF_GAUSSIAN => {
            let region = read_rect(c)?;
            let mean = Point::new(c.finite("gaussian mean.x")?, c.finite("gaussian mean.y")?);
            let (sx, sy) = (c.finite("gaussian sigma.x")?, c.finite("gaussian sigma.y")?);
            if region.area() <= 0.0 {
                return Err(CodecError::Malformed("gaussian region has zero area"));
            }
            if sx <= 0.0 || sy <= 0.0 {
                return Err(CodecError::Malformed("gaussian sigma must be positive"));
            }
            // A mean inside the region guarantees the truncation keeps
            // positive mass on both axes (the constructor asserts it).
            if !region.contains_point(mean) {
                return Err(CodecError::Malformed("gaussian mean outside its region"));
            }
            Ok(PdfKind::Gaussian(TruncatedGaussianPdf::new(
                region, mean, sx, sy,
            )))
        }
        PDF_DISC => {
            let center = Point::new(c.finite("disc center.x")?, c.finite("disc center.y")?);
            let radius = c.finite("disc radius")?;
            if radius <= 0.0 {
                return Err(CodecError::Malformed("disc radius must be positive"));
            }
            Ok(PdfKind::Disc(DiscPdf::new(center, radius)))
        }
        _ => Err(CodecError::Malformed("unknown pdf tag")),
    }
}

/// A catalog object with a bit-exact binary form that decodes back
/// with full validation. Implemented for the two object
/// types the serving layer catalogs.
pub trait DurableObject: Clone + Send + Sync {
    /// Appends this object's binary form (including its id).
    ///
    /// Fails only for state with no binary form (a
    /// [`PdfKind::Shared`] handle).
    fn encode(&self, buf: &mut Vec<u8>) -> Result<(), CodecError>;

    /// Decodes one object, validating every constructor precondition.
    fn decode(c: &mut Cursor<'_>) -> Result<Self, CodecError>;
}

impl DurableObject for PointObject {
    fn encode(&self, buf: &mut Vec<u8>) -> Result<(), CodecError> {
        put_u64(buf, self.id.0);
        put_f64(buf, self.loc.x);
        put_f64(buf, self.loc.y);
        Ok(())
    }

    fn decode(c: &mut Cursor<'_>) -> Result<PointObject, CodecError> {
        let id = c.u64()?;
        let x = c.finite("point object x")?;
        let y = c.finite("point object y")?;
        Ok(PointObject::new(id, Point::new(x, y)))
    }
}

impl DurableObject for UncertainObject {
    fn encode(&self, buf: &mut Vec<u8>) -> Result<(), CodecError> {
        put_u64(buf, self.id.0);
        put_pdf(buf, self.pdf())
    }

    fn decode(c: &mut Cursor<'_>) -> Result<UncertainObject, CodecError> {
        let id = c.u64()?;
        let pdf = read_pdf(c)?;
        Ok(UncertainObject::new(id, pdf))
    }
}

const UPDATE_ARRIVE: u8 = 0;
const UPDATE_DEPART: u8 = 1;
const UPDATE_MOVE: u8 = 2;

/// Appends one update's binary form.
pub fn put_update<O: DurableObject>(
    buf: &mut Vec<u8>,
    update: &Update<O>,
) -> Result<(), CodecError> {
    match update {
        Update::Arrive(o) => {
            buf.push(UPDATE_ARRIVE);
            o.encode(buf)
        }
        Update::Depart(id) => {
            buf.push(UPDATE_DEPART);
            put_u64(buf, id.0);
            Ok(())
        }
        Update::Move(o) => {
            buf.push(UPDATE_MOVE);
            o.encode(buf)
        }
    }
}

/// Decodes one update.
pub fn read_update<O: DurableObject>(c: &mut Cursor<'_>) -> Result<Update<O>, CodecError> {
    match c.u8()? {
        UPDATE_ARRIVE => Ok(Update::Arrive(O::decode(c)?)),
        UPDATE_DEPART => Ok(Update::Depart(ObjectId(c.u64()?))),
        UPDATE_MOVE => Ok(Update::Move(O::decode(c)?)),
        _ => Err(CodecError::Malformed("unknown update tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_object_round_trips_bit_exactly() {
        // A coordinate with no short decimal form: the round trip must
        // preserve the exact bit pattern, not a reparse.
        let o = PointObject::new(42, Point::new(1.0 + 1e-15, -0.0));
        let mut buf = Vec::new();
        o.encode(&mut buf).unwrap();
        let mut c = Cursor::new(&buf);
        let back = PointObject::decode(&mut c).unwrap();
        c.done().unwrap();
        assert_eq!(back.id, o.id);
        assert_eq!(back.loc.x.to_bits(), o.loc.x.to_bits());
        assert_eq!(back.loc.y.to_bits(), o.loc.y.to_bits());
    }

    #[test]
    fn uncertain_object_round_trips_every_concrete_pdf() {
        let region = Rect::from_coords(10.0, 20.0, 110.0, 170.0);
        let objects = [
            UncertainObject::new(1, PdfKind::Uniform(UniformPdf::new(region))),
            UncertainObject::new(
                2,
                PdfKind::Gaussian(TruncatedGaussianPdf::new(
                    region,
                    Point::new(60.0, 95.0),
                    12.5,
                    33.25,
                )),
            ),
            UncertainObject::new(3, PdfKind::Disc(DiscPdf::new(Point::new(5.0, -7.0), 2.5))),
        ];
        for o in &objects {
            let mut buf = Vec::new();
            o.encode(&mut buf).unwrap();
            let mut c = Cursor::new(&buf);
            let back = UncertainObject::decode(&mut c).unwrap();
            c.done().unwrap();
            assert_eq!(back.id, o.id);
            assert_eq!(back.region(), o.region());
        }
    }

    #[test]
    fn updates_round_trip() {
        let updates: Vec<Update<PointObject>> = vec![
            Update::Arrive(PointObject::new(7, Point::new(1.5, 2.5))),
            Update::Depart(ObjectId(9)),
            Update::Move(PointObject::new(7, Point::new(3.5, 4.5))),
        ];
        let mut buf = Vec::new();
        for u in &updates {
            put_update(&mut buf, u).unwrap();
        }
        let mut c = Cursor::new(&buf);
        for u in &updates {
            let back: Update<PointObject> = read_update(&mut c).unwrap();
            match (u, &back) {
                (Update::Arrive(a), Update::Arrive(b)) | (Update::Move(a), Update::Move(b)) => {
                    assert_eq!(a.id, b.id);
                    assert_eq!(a.loc.x.to_bits(), b.loc.x.to_bits());
                }
                (Update::Depart(a), Update::Depart(b)) => assert_eq!(a, b),
                _ => panic!("update kind changed in round trip"),
            }
        }
        c.done().unwrap();
    }
}
