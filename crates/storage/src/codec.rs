//! Hand-rolled binary codec for durable state.
//!
//! The durability layer (WAL + checkpoints in `inverda-core`) persists
//! storage values with a small, self-describing-enough binary format built
//! here, next to [`Value`] and [`Relation`] — no serde, no external crates.
//! Design points:
//!
//! * **Length-prefixed, fixed-endian primitives.** All integers are
//!   little-endian; lengths are `u32`. Floats are stored as their *raw*
//!   `f64` bits (`to_bits`/`from_bits`), not the canonicalised bits used by
//!   `Value`'s ordering, so a decode reproduces the exact in-memory value.
//! * **Defensive decoding.** Every read is bounds-checked; corrupt input
//!   (truncated, bit-flipped, over-length) yields a clean
//!   [`StorageError::Codec`] — the decoder never panics and never attempts
//!   an allocation larger than the input could justify.
//! * **CRC-framed records.** [`write_frame`]/[`read_frame`] wrap a payload
//!   as `[len: u32][crc32: u32][payload]`. The CRC covers the payload only;
//!   a frame that ends early or fails its checksum is reported distinctly
//!   so the WAL can apply its torn-tail truncation rule.

use crate::batch::{WriteBatch, WriteOp};
use crate::error::StorageError;
use crate::relation::{Relation, Row};
use crate::schema::TableSchema;
use crate::value::{Key, Value};
use crate::Result;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, table-driven)
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC32 (IEEE) of `bytes` — the checksum used by the WAL record framing.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Outcome of scanning for one CRC frame at the start of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameScan<'a> {
    /// A complete, checksum-valid frame; `consumed` counts header + payload.
    Ok {
        /// The frame's payload bytes.
        payload: &'a [u8],
        /// Total bytes the frame occupies (8-byte header + payload).
        consumed: usize,
    },
    /// The buffer ends before the frame does — a torn tail.
    Torn,
    /// The frame is complete but its checksum does not match.
    Corrupt,
    /// The buffer is empty — a clean end of log.
    End,
}

/// Append one `[len][crc][payload]` frame to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Scan the frame starting at `buf[0]`. Never panics; a length field that
/// overruns the buffer reads as [`FrameScan::Torn`].
pub fn read_frame(buf: &[u8]) -> FrameScan<'_> {
    if buf.is_empty() {
        return FrameScan::End;
    }
    if buf.len() < 8 {
        return FrameScan::Torn;
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    let crc = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let Some(end) = len.checked_add(8) else {
        return FrameScan::Torn;
    };
    if buf.len() < end {
        return FrameScan::Torn;
    }
    let payload = &buf[8..end];
    if crc32(payload) != crc {
        return FrameScan::Corrupt;
    }
    FrameScan::Ok {
        payload,
        consumed: end,
    }
}

// ---------------------------------------------------------------------------
// Reader + Codec trait
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over a byte slice; every failure is a clean
/// [`StorageError::Codec`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True iff every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Consume the next `n` raw bytes (magic prefixes, fixed-width blobs).
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StorageError::codec(format!(
                "input truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
    }

    /// Read a length prefix that must be coverable by the remaining input
    /// (each counted element occupies at least `min_unit` bytes) — rejects
    /// over-length counts before any allocation is sized from them.
    pub fn len_prefix(&mut self, min_unit: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n.checked_mul(min_unit.max(1))
            .is_none_or(|need| need > self.remaining())
        {
            return Err(StorageError::codec(format!(
                "over-length count {n} at offset {} ({} bytes remain)",
                self.pos,
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String> {
        let n = self.len_prefix(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StorageError::codec("invalid UTF-8 in string"))
    }
}

/// Binary encode/decode for one durable type.
pub trait Codec: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode one value from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode from a buffer, requiring every byte to be consumed.
    fn from_bytes(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        if !r.is_exhausted() {
            return Err(StorageError::codec(format!(
                "{} trailing bytes after value",
                r.remaining()
            )));
        }
        Ok(v)
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    debug_assert!(n <= u32::MAX as usize, "collection too large for codec");
    put_u32(out, n as u32);
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(StorageError::codec(format!("invalid bool byte {t}"))),
        }
    }
}

impl Codec for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, *self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.u32()
    }
}

impl Codec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.u64()
    }
}

impl Codec for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.i64()
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_len(out, self.len());
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.string()
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(StorageError::codec(format!("invalid Option tag {t}"))),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_len(out, self.len());
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.len_prefix(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_len(out, self.len());
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.len_prefix(2)?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Storage type impls
// ---------------------------------------------------------------------------

impl Codec for Key {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Key(r.u64()?))
    }
}

const VALUE_NULL: u8 = 0;
const VALUE_BOOL: u8 = 1;
const VALUE_INT: u8 = 2;
const VALUE_FLOAT: u8 = 3;
const VALUE_TEXT: u8 = 4;

impl Codec for Value {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(VALUE_NULL),
            Value::Bool(b) => {
                out.push(VALUE_BOOL);
                b.encode(out);
            }
            Value::Int(i) => {
                out.push(VALUE_INT);
                i.encode(out);
            }
            Value::Float(f) => {
                // Raw bits, not the canonicalised compare/hash bits: a decode
                // must reproduce the exact stored value (-0.0 stays -0.0).
                out.push(VALUE_FLOAT);
                f.to_bits().encode(out);
            }
            Value::Text(t) => {
                out.push(VALUE_TEXT);
                put_len(out, t.len());
                out.extend_from_slice(t.as_bytes());
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.u8()? {
            VALUE_NULL => Ok(Value::Null),
            VALUE_BOOL => Ok(Value::Bool(bool::decode(r)?)),
            VALUE_INT => Ok(Value::Int(r.i64()?)),
            VALUE_FLOAT => Ok(Value::Float(f64::from_bits(r.u64()?))),
            VALUE_TEXT => Ok(Value::text(r.string()?)),
            t => Err(StorageError::codec(format!("invalid Value tag {t}"))),
        }
    }
}

impl Codec for TableSchema {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.columns.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let name = r.string()?;
        let columns = Vec::<String>::decode(r)?;
        // Re-validate through the constructor so a corrupt schema with
        // duplicate columns is rejected here, not deep inside the engine.
        TableSchema::new(name, columns)
    }
}

impl Codec for Relation {
    fn encode(&self, out: &mut Vec<u8>) {
        self.schema().encode(out);
        put_len(out, self.len());
        for (key, row) in self.iter() {
            key.encode(out);
            put_len(out, row.len());
            for v in row {
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let schema = TableSchema::decode(r)?;
        let n = r.len_prefix(8)?;
        let mut rel = Relation::new(schema);
        // Each row is decoded into one reused buffer and moved from there
        // into the relation's flat chunks: no allocation per row.
        let mut row = Vec::with_capacity(rel.schema().arity());
        for _ in 0..n {
            let key = Key::decode(r)?;
            for _ in 0..r.len_prefix(1)? {
                row.push(Value::decode(r)?);
            }
            if rel.insert_vacant_from(key, row.drain(..))?.is_err() {
                return Err(StorageError::DuplicateKey {
                    table: rel.name().to_string(),
                    key: key.0,
                });
            }
        }
        Ok(rel)
    }
}

const OP_INSERT: u8 = 0;
const OP_UPSERT: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_DELETE_IF_PRESENT: u8 = 3;
const OP_UPDATE: u8 = 4;

impl Codec for WriteOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WriteOp::Insert { table, key, row } => {
                out.push(OP_INSERT);
                table.encode(out);
                key.encode(out);
                row.encode(out);
            }
            WriteOp::Upsert { table, key, row } => {
                out.push(OP_UPSERT);
                table.encode(out);
                key.encode(out);
                row.encode(out);
            }
            WriteOp::Delete { table, key } => {
                out.push(OP_DELETE);
                table.encode(out);
                key.encode(out);
            }
            WriteOp::DeleteIfPresent { table, key } => {
                out.push(OP_DELETE_IF_PRESENT);
                table.encode(out);
                key.encode(out);
            }
            WriteOp::Update { table, key, row } => {
                out.push(OP_UPDATE);
                table.encode(out);
                key.encode(out);
                row.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let tag = r.u8()?;
        let table = r.string()?;
        let key = Key::decode(r)?;
        match tag {
            OP_INSERT => Ok(WriteOp::Insert {
                table,
                key,
                row: Row::decode(r)?,
            }),
            OP_UPSERT => Ok(WriteOp::Upsert {
                table,
                key,
                row: Row::decode(r)?,
            }),
            OP_DELETE => Ok(WriteOp::Delete { table, key }),
            OP_DELETE_IF_PRESENT => Ok(WriteOp::DeleteIfPresent { table, key }),
            OP_UPDATE => Ok(WriteOp::Update {
                table,
                key,
                row: Row::decode(r)?,
            }),
            t => Err(StorageError::codec(format!("invalid WriteOp tag {t}"))),
        }
    }
}

impl Codec for WriteBatch {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ops.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(WriteBatch {
            ops: Vec::<WriteOp>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(true);
        roundtrip(false);
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(String::from("héllo"));
        roundtrip(Option::<u64>::None);
        roundtrip(Some(7u64));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(BTreeMap::from([(String::from("a"), 1u64)]));
    }

    #[test]
    fn values_roundtrip_including_raw_float_bits() {
        roundtrip(Value::Null);
        roundtrip(Value::Bool(true));
        roundtrip(Value::Int(-42));
        roundtrip(Value::text("τables"));
        // -0.0 and 0.0 compare equal through Value's Eq, so check raw bits.
        let neg_zero = Value::Float(-0.0).to_bytes();
        match Value::from_bytes(&neg_zero).unwrap() {
            Value::Float(f) => assert_eq!(f.to_bits(), (-0.0f64).to_bits()),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn relation_roundtrip() {
        let mut rel = Relation::with_columns("Task", ["author", "prio"]);
        rel.insert(Key(2), vec!["Ann".into(), 3.into()]).unwrap();
        rel.insert(Key(9), vec![Value::Null, Value::Float(2.5)])
            .unwrap();
        roundtrip(rel);
    }

    #[test]
    fn write_batch_roundtrip() {
        let mut b = WriteBatch::new();
        b.insert("T", Key(1), vec![1.into()])
            .upsert("T", Key(2), vec![2.into()])
            .delete("U", Key(3))
            .delete_if_present("U", Key(4))
            .update("T", Key(1), vec![5.into()]);
        roundtrip(b);
    }

    #[test]
    fn truncated_input_is_a_clean_error() {
        let bytes = Value::text("a long enough text value").to_bytes();
        for cut in 0..bytes.len() {
            assert!(Value::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn over_length_count_is_rejected_before_allocating() {
        // A Vec<u64> claiming u32::MAX elements in a 4-byte buffer.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert!(Vec::<u64>::from_bytes(&buf).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Value::Int(1).to_bytes();
        bytes.push(0);
        assert!(Value::from_bytes(&bytes).is_err());
    }

    #[test]
    fn frames_roundtrip_and_detect_damage() {
        let mut log = Vec::new();
        write_frame(&mut log, b"first");
        write_frame(&mut log, b"second");
        let FrameScan::Ok { payload, consumed } = read_frame(&log) else {
            panic!("expected first frame");
        };
        assert_eq!(payload, b"first");
        let FrameScan::Ok {
            payload,
            consumed: c2,
        } = read_frame(&log[consumed..])
        else {
            panic!("expected second frame");
        };
        assert_eq!(payload, b"second");
        assert_eq!(read_frame(&log[consumed + c2..]), FrameScan::End);
        // Every proper prefix of a frame is torn, and a payload bit flip is
        // corrupt.
        for cut in 1..13 {
            assert_eq!(read_frame(&log[..cut]), FrameScan::Torn, "cut {cut}");
        }
        let mut flipped = log.clone();
        flipped[10] ^= 0x01;
        assert_eq!(read_frame(&flipped), FrameScan::Corrupt);
    }
}
