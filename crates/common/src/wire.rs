//! A tiny self-describing binary wire format for checkpoints, WAL
//! records and the serving protocol.
//!
//! The workspace builds offline (no serde), so everything that leaves
//! the process is encoded on top of this module: a
//! [`WireWriter`]/[`WireReader`] pair over little-endian fixed-width
//! scalars plus length-prefixed sequences, and a [`Wire`] trait
//! implemented by every type that travels. Encoding is fallible because
//! some runtime values cannot round-trip (e.g. user-supplied closure
//! predicates); decoding is fallible because the bytes come from disk or
//! the network and must never panic the process.
//!
//! The format carries no type tags beyond what each `Wire`
//! implementation writes itself — compatibility across releases is
//! handled one level up by the snapshot header's version field, not per
//! field here.
//!
//! # A wire type is one declaration
//!
//! [`wire_struct!`](crate::wire_struct) and
//! [`wire_enum!`](crate::wire_enum) take a type's declaration — docs,
//! derives, fields, and for an enum a `tag => Variant` row per variant —
//! and emit the type *and* its [`Wire`] impl, so a tag and a field list
//! are written once and encode and decode cannot drift apart:
//!
//! ```
//! use cer_common::wire::{Len, Wire, WireReader, WireWriter};
//!
//! cer_common::wire_enum! {
//!     /// A toy op table.
//!     #[derive(Clone, Debug, PartialEq)]
//!     pub enum Op {
//!         /// No payload: the tag alone.
//!         0 => Ping,
//!         /// Fields travel in declaration order.
//!         1 => Resize {
//!             /// A count, read with the bounded [`Len`] codec.
//!             shards: usize as Len,
//!             force: bool,
//!         },
//!         2 => Name(String),
//!     }
//! }
//!
//! let mut w = WireWriter::new();
//! Op::Resize { shards: 4, force: true }.encode(&mut w).unwrap();
//! let bytes = w.into_bytes();
//! assert_eq!(bytes, [1, 4, 0, 0, 0, 0, 0, 0, 0, 1]);
//! let back = Op::decode(&mut WireReader::new(&bytes)).unwrap();
//! assert_eq!(back, Op::Resize { shards: 4, force: true });
//! ```
//!
//! A field travels as its type's own [`Wire`] form unless the row names
//! a [`Codec`] (`field: Type as Codec`) — for the few places where the
//! bytes or the checks differ from the type's own: a count bounded by
//! the input length ([`Len`]), a blob copied in one piece ([`Bytes`]).
//!
//! **When a type is a row, and when it stays hand-written.** A type
//! whose encoding is "its fields in order" or "a tag byte, then the
//! variant's fields" is declared through the macros; that is every
//! protocol op, every WAL record and every plain data type in the
//! workspace. An `impl Wire` is written by hand only when decoding does
//! something a field list cannot say — it validates the value against
//! other state, sorts, bounds recursion or pre-sizes an allocation — and
//! each such impl carries one line saying which.

use crate::value::Value;
use crate::RelationId;
use std::borrow::Cow;
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
            WireError::Truncated => write!(f, "bytes truncated"),
            WireError::Corrupt(what) => write!(f, "bytes corrupt: {what}"),
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
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Write one raw byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u32`, little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as a `u64` (portable across word sizes).
    #[inline]
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

/// Cursor over encoded bytes for decoding. Every read is
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

fn encode_slice<T: Wire>(items: &[T], w: &mut WireWriter) -> Result<(), WireError> {
    w.put_len(items.len());
    items.iter().try_for_each(|item| item.encode(w))
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        encode_slice(self, w)
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
        encode_slice(self, w)
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Vec::<T>::decode(r)?.into_boxed_slice())
    }
}

/// A slice that encodes from a borrow and decodes owned, in `Vec<T>`'s
/// bytes: lets a record type be built around a caller's `&[T]` without
/// cloning it.
impl<T: Wire + Clone> Wire for Cow<'_, [T]> {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        encode_slice(self, w)
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Vec::<T>::decode(r).map(Cow::Owned)
    }
}

/// A value that encodes from a borrow and decodes owned, in `T`'s bytes.
impl<T: Wire + Clone> Wire for Cow<'_, T> {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        T::encode(self, w)
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        T::decode(r).map(Cow::Owned)
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

/// How one field of a [`wire_struct!`](crate::wire_struct) /
/// [`wire_enum!`](crate::wire_enum) row travels. Every [`Wire`] type is
/// its own codec; a row names another one (`field: Type as Codec`) only
/// where the bytes or the checks differ from the type's own.
pub trait Codec<T> {
    /// Append `v`.
    fn put(v: &T, w: &mut WireWriter) -> Result<(), WireError>;
    /// Read one value.
    fn get(r: &mut WireReader<'_>) -> Result<T, WireError>;
    /// Bytes `put(v)` is about to write, if the codec knows: an enum row
    /// reserves the sum of its fields' hints once, in front of its tag.
    fn size_hint(_v: &T) -> usize {
        0
    }
}

impl<T: Wire> Codec<T> for T {
    fn put(v: &T, w: &mut WireWriter) -> Result<(), WireError> {
        v.encode(w)
    }
    fn get(r: &mut WireReader<'_>) -> Result<T, WireError> {
        T::decode(r)
    }
}

/// A count: `usize`'s bytes, but read with [`WireReader::get_len`], so a
/// value no honest peer could mean is `Corrupt("implausible length")`.
pub struct Len;

impl Codec<usize> for Len {
    fn put(v: &usize, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_len(*v);
        Ok(())
    }
    fn get(r: &mut WireReader<'_>) -> Result<usize, WireError> {
        r.get_len()
    }
}

/// A blob: `Vec<u8>`'s bytes, but copied in one piece
/// ([`WireWriter::put_bytes`] / [`WireReader::get_bytes`]).
pub struct Bytes;

impl Codec<Vec<u8>> for Bytes {
    fn put(v: &Vec<u8>, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_bytes(v);
        Ok(())
    }
    fn get(r: &mut WireReader<'_>) -> Result<Vec<u8>, WireError> {
        r.get_bytes().map(<[u8]>::to_vec)
    }
}

/// One [`Codec`](crate::wire::Codec) function of a row's field: the
/// named codec's, else the field type's own.
#[doc(hidden)]
#[macro_export]
macro_rules! wire_via {
    ($op:ident, $ty:ty) => {
        <$ty as $crate::wire::Codec<$ty>>::$op
    };
    ($op:ident, $ty:ty, $codec:ty) => {
        <$codec as $crate::wire::Codec<$ty>>::$op
    };
}

/// Declare a struct together with its [`Wire`](crate::wire::Wire) impl:
/// the fields, in order (see the [module docs](crate::wire)). Also
/// takes a one-field tuple struct, which travels as that field.
#[macro_export]
macro_rules! wire_struct {
    ($(#[$meta:meta])* $vis:vis struct $name:ident $(<$lt:lifetime>)? {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty $(as $codec:ty)?),* $(,)?
    }) => {
        $(#[$meta])* $vis struct $name $(<$lt>)? { $($(#[$fmeta])* $fvis $field: $fty),* }
        $crate::wire_struct!(@impl $name $(<$lt>)? { $($field: $fty $(as $codec)?),* });
    };
    ($(#[$meta:meta])* $vis:vis struct $name:ident($fvis:vis $fty:ty);) => {
        $(#[$meta])* $vis struct $name($fvis $fty);
        $crate::wire_struct!(@impl $name { 0: $fty });
    };
    (@impl $name:ident $(<$lt:lifetime>)? { $($field:tt : $fty:ty $(as $codec:ty)?),* }) => {
        impl $(<$lt>)? $crate::wire::Wire for $name $(<$lt>)? {
            fn encode(
                &self,
                w: &mut $crate::wire::WireWriter,
            ) -> Result<(), $crate::wire::WireError> {
                $($crate::wire_via!(put, $fty $(, $codec)?)(&self.$field, w)?;)*
                Ok(())
            }
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok($name { $($field: $crate::wire_via!(get, $fty $(, $codec)?)(r)?),* })
            }
        }
    };
}

/// Declare an enum together with its [`Wire`](crate::wire::Wire) impl:
/// one `tag => Variant` row per variant — a unit, a struct of fields or
/// one tuple field — travelling as the tag byte, then the fields (see
/// the [module docs](crate::wire)). An unknown tag is `Corrupt`.
#[macro_export]
macro_rules! wire_enum {
    ($(#[$meta:meta])* $vis:vis enum $name:ident $(<$lt:lifetime>)? {
        $($(#[$vmeta:meta])* $tag:literal => $variant:ident
            $({ $($(#[$fmeta:meta])* $field:ident : $fty:ty $(as $codec:ty)?),* $(,)? })?
            $(( $tty:ty $(as $tcodec:ty)? ))?
        ),* $(,)?
    }) => {
        $(#[$meta])* $vis enum $name $(<$lt>)? {
            $($(#[$vmeta])* $variant $({ $($(#[$fmeta])* $field: $fty),* })? $(($tty))?),*
        }
        impl $(<$lt>)? $crate::wire::Wire for $name $(<$lt>)? {
            fn encode(
                &self,
                w: &mut $crate::wire::WireWriter,
            ) -> Result<(), $crate::wire::WireError> {
                match self {
                    $(Self::$variant $({ $($field),* })? $(($crate::wire_enum!(@bind x $tty)))? => {
                        w.reserve(
                            0 $($(+ $crate::wire_via!(size_hint, $fty $(, $codec)?)($field))*)?
                                $(+ $crate::wire_via!(size_hint, $tty $(, $tcodec)?)(x))?,
                        );
                        w.put_u8($tag);
                        $($($crate::wire_via!(put, $fty $(, $codec)?)($field, w)?;)*)?
                        $($crate::wire_via!(put, $tty $(, $tcodec)?)(x, w)?;)?
                    })*
                }
                Ok(())
            }
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok(match r.get_u8()? {
                    $($tag => Self::$variant
                        $({ $($field: $crate::wire_via!(get, $fty $(, $codec)?)(r)?),* })?
                        $(($crate::wire_via!(get, $tty $(, $tcodec)?)(r)?))?,)*
                    _ => {
                        return Err($crate::wire::WireError::Corrupt(concat!(
                            "unknown ",
                            stringify!($name),
                            " tag"
                        )))
                    }
                })
            }
        }
    };
    (@bind $x:ident $ty:ty) => { $x };
}

/// Every copy of `bytes` with one 4-byte window — aligned or not —
/// overwritten by 7 and by `u32::MAX`: values out of range for every
/// tag, count and index field. The hostile-bytes tests feed each copy to
/// a decoder, which must answer with a value that re-encodes or with an
/// error — never a panic, never a huge allocation.
pub fn hostile_mutations(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    [7u32, u32::MAX].into_iter().flat_map(move |poison| {
        (0..bytes.len().saturating_sub(3)).map(move |k| {
            let mut mutated = bytes.to_vec();
            mutated[k..k + 4].copy_from_slice(&poison.to_le_bytes());
            mutated
        })
    })
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

    crate::wire_struct! {
        /// A newtype travels as its field.
        #[derive(Clone, Debug, PartialEq)]
        struct Id(u32);
    }

    crate::wire_struct! {
        /// Named fields, one with a codec, over a borrowed slice.
        #[derive(Clone, Debug, PartialEq)]
        struct Page<'a> {
            id: Id,
            rows: Cow<'a, [u64]>,
            title: Cow<'a, String>,
            blob: Vec<u8> as Bytes,
            count: usize as Len,
        }
    }

    crate::wire_enum! {
        #[derive(Clone, Debug, PartialEq)]
        enum Op<'a> {
            0 => Nop,
            2 => Show(Page<'a>),
            5 => Move { from: Id, to: Id },
        }
    }

    fn bytes_of<T: Wire>(v: &T) -> Vec<u8> {
        let mut w = WireWriter::new();
        v.encode(&mut w).unwrap();
        w.into_bytes()
    }

    #[test]
    fn declared_types_travel_as_their_fields_in_order() {
        let (rows, title) = ([7u64, 8], String::from("t"));
        let page = Page {
            id: Id(3),
            rows: Cow::Borrowed(&rows),
            title: Cow::Borrowed(&title),
            blob: vec![9, 9],
            count: 4,
        };
        // A borrowed field encodes as the owned one would, and a named
        // codec keeps the field type's bytes.
        let by_hand = ((3u32, rows.to_vec(), title.clone()), (vec![9u8, 9], 4usize));
        assert_eq!(bytes_of(&page), bytes_of(&by_hand));
        roundtrip(&page);
        roundtrip(&Op::Nop);
        roundtrip(&Op::Move {
            from: Id(1),
            to: Id(2),
        });
        let show = Op::Show(page.clone());
        assert_eq!(bytes_of(&show)[0], 2, "the tag leads");
        assert_eq!(bytes_of(&show)[1..], bytes_of(&page));
        roundtrip(&show);
        for unknown in [1u8, 3, 4, 6, 255] {
            let got = Op::decode(&mut WireReader::new(&[unknown]));
            assert_eq!(got, Err(WireError::Corrupt("unknown Op tag")));
        }
    }

    #[test]
    fn len_and_bytes_codecs_bound_what_they_read() {
        let mut page = bytes_of(&Page {
            id: Id(0),
            rows: Cow::Owned(vec![]),
            title: Cow::Owned(String::new()),
            blob: vec![],
            count: 0,
        });
        let n = page.len();
        // `count` is the last word: `usize`'s own decode would take any
        // value, the `Len` codec takes none the input could not hold.
        page[n - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
        let got = Page::decode(&mut WireReader::new(&page));
        assert_eq!(got, Err(WireError::Corrupt("implausible length")));
        // `blob`'s length is the word before it: the bytes must be there.
        page[n - 16..n - 8].copy_from_slice(&9u64.to_le_bytes());
        let got = Page::decode(&mut WireReader::new(&page));
        assert_eq!(got, Err(WireError::Truncated));
    }

    #[test]
    fn hostile_mutations_cover_every_window_twice() {
        let bytes = [1u8, 2, 3, 4, 5, 6];
        let all: Vec<Vec<u8>> = hostile_mutations(&bytes).collect();
        assert_eq!(all.len(), 2 * 3);
        assert_eq!(all[1], [1, 7, 0, 0, 0, 6]);
        assert_eq!(all[5], [1, 2, 255, 255, 255, 255]);
        assert_eq!(hostile_mutations(&bytes[..3]).count(), 0);
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
