//! A tiny self-describing binary wire format for checkpoints.
//!
//! The workspace builds offline (no serde), so the checkpoint subsystem
//! (`cer-core`'s `checkpoint` module) hand-rolls its snapshot
//! encoding on top of this module: a [`WireWriter`]/[`WireReader`] pair
//! over little-endian fixed-width scalars plus length-prefixed
//! sequences, and a [`Wire`] trait implemented by every type that
//! participates in a snapshot. Encoding is fallible because some
//! runtime values cannot round-trip (e.g. user-supplied closure
//! predicates); decoding is fallible because snapshot bytes come from
//! disk or the network and must never panic the process.
//!
//! The format carries no type tags beyond what each `Wire`
//! implementation writes itself — compatibility across releases is
//! handled one level up by the snapshot header's version field, not per
//! field here.

use crate::value::Value;
use crate::RelationId;
use std::fmt;

/// Why an encode or decode failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The value contains state that cannot be serialized (e.g. a
    /// `UnaryPredicate::Custom` closure). The payload names it.
    Unsupported(&'static str),
    /// The reader ran out of bytes mid-value.
    Truncated,
    /// A tag or length field held a value the decoder does not know.
    Corrupt(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Unsupported(what) => {
                write!(f, "cannot serialize {what}")
            }
            WireError::Truncated => write!(f, "snapshot bytes truncated"),
            WireError::Corrupt(what) => write!(f, "snapshot bytes corrupt: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only byte sink for encoding.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that appends to `buf`, keeping what it already holds —
    /// lets a caller encode many messages back to back into one reused
    /// buffer (take it back with [`into_bytes`](Self::into_bytes)).
    pub fn appending_to(buf: Vec<u8>) -> Self {
        WireWriter { buf }
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far (for nesting blobs).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Make room for `additional` more bytes in one step, for a caller
    /// that knows the size of what it is about to write.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Write one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as a `u64` (portable across word sizes).
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Write raw bytes with a length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_len(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Write a string with a length prefix.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Cursor over snapshot bytes for decoding. Every read is
/// bounds-checked; malformed input yields [`WireError`], never a panic.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet consumed: the hard upper bound on anything a
    /// length field read from here can honestly announce.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read one raw byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a length written by [`WireWriter::put_len`], sanity-bounded
    /// by the remaining input so a corrupt length cannot trigger a huge
    /// allocation.
    pub fn get_len(&mut self) -> Result<usize, WireError> {
        let v = self.get_u64()?;
        if v > self.buf.len() as u64 * 64 + (1 << 20) {
            return Err(WireError::Corrupt("implausible length"));
        }
        Ok(v as usize)
    }

    /// Read length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.get_u64()?;
        usize::try_from(n)
            .ok()
            .and_then(|n| self.take(n).ok())
            .ok_or(WireError::Truncated)
    }

    /// Read a length-prefixed string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Corrupt("non-UTF-8 string"))
    }
}

/// Types that can round-trip through the checkpoint wire format.
pub trait Wire: Sized {
    /// Append the encoding of `self` to `w`.
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError>;
    /// Decode one value from the reader's current position.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

impl Wire for u8 {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_u8(*self);
        Ok(())
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_u8()
    }
}

impl Wire for u32 {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_u32(*self);
        Ok(())
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_u32()
    }
}

impl Wire for u64 {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_u64(*self);
        Ok(())
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_u64()
    }
}

impl Wire for i64 {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_i64(*self);
        Ok(())
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_i64()
    }
}

impl Wire for usize {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_len(*self);
        Ok(())
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let v = r.get_u64()?;
        usize::try_from(v).map_err(|_| WireError::Corrupt("usize overflow"))
    }
}

impl Wire for bool {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_u8(u8::from(*self));
        Ok(())
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Corrupt("bool tag")),
        }
    }
}

impl Wire for String {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_str(self);
        Ok(())
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_str()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_len(self.len());
        for item in self {
            item.encode(w)?;
        }
        Ok(())
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.get_len()?;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Box<[T]> {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_len(self.len());
        for item in self.iter() {
            item.encode(w)?;
        }
        Ok(())
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Vec::<T>::decode(r)?.into_boxed_slice())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w)?;
            }
        }
        Ok(())
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(WireError::Corrupt("option tag")),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        self.0.encode(w)?;
        self.1.encode(w)
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        self.0.encode(w)?;
        self.1.encode(w)?;
        self.2.encode(w)
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl Wire for RelationId {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_u32(self.0);
        Ok(())
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RelationId(r.get_u32()?))
    }
}

impl Wire for Value {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        match self {
            Value::Int(i) => {
                w.put_u8(0);
                w.put_i64(*i);
            }
            Value::Str(s) => {
                w.put_u8(1);
                w.put_str(s);
            }
            Value::Bool(b) => {
                w.put_u8(2);
                w.put_u8(u8::from(*b));
            }
            Value::Fixed(i) => {
                w.put_u8(3);
                w.put_i64(*i);
            }
        }
        Ok(())
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(Value::Int(r.get_i64()?)),
            1 => Ok(Value::Str(r.get_str()?.into_boxed_str())),
            2 => match r.get_u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                _ => Err(WireError::Corrupt("bool value tag")),
            },
            3 => Ok(Value::Fixed(r.get_i64()?)),
            _ => Err(WireError::Corrupt("value tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = WireWriter::new();
        v.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(&T::decode(&mut r).unwrap(), v);
        assert!(r.is_exhausted(), "no trailing bytes");
    }

    #[test]
    fn scalars_and_containers_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&u32::MAX);
        roundtrip(&u64::MAX);
        roundtrip(&i64::MIN);
        roundtrip(&usize::MAX);
        roundtrip(&true);
        roundtrip(&String::from("héllo"));
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&Vec::<u32>::new());
        roundtrip(&Some(7u32));
        roundtrip(&Option::<u32>::None);
        roundtrip(&(3u32, String::from("x")));
        roundtrip(&(1u64, 2u32, false));
        roundtrip(&Box::<[u64]>::from(vec![9, 8]));
    }

    #[test]
    fn values_and_relation_ids_roundtrip() {
        roundtrip(&RelationId(42));
        roundtrip(&Value::Int(-5));
        roundtrip(&Value::Str("AAPL".into()));
        roundtrip(&Value::Bool(true));
        roundtrip(&Value::fixed(10.5));
        roundtrip(&vec![Value::Int(1), Value::Str("a".into())]);
    }

    #[test]
    fn truncated_and_corrupt_inputs_error_cleanly() {
        let mut w = WireWriter::new();
        Value::Str("hello".into()).encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            assert!(Value::decode(&mut r).is_err(), "cut at {cut}");
        }
        // Unknown tag.
        let mut r = WireReader::new(&[9u8]);
        assert_eq!(Value::decode(&mut r), Err(WireError::Corrupt("value tag")));
        // Implausible vec length must not allocate petabytes.
        let mut w = WireWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(Vec::<u64>::decode(&mut r).is_err());
    }
}
