//! The working-memory byte format. The WAL's commit records and
//! checkpoints ([`crate::wal`], through the snapshot and change-batch
//! codecs in `persist`) and `dps-server`'s wire protocol encode and
//! decode values, tuples and strings here, so the formats on disk and
//! on the wire cannot drift apart:
//!
//! * integers are little-endian fixed width; a float is its bits;
//! * a string is `[u32 len][UTF-8]`; every length or count is a `u32`,
//!   and a longer one is refused with [`CodecError::TooLarge`], never
//!   truncated;
//! * a [`Value`] is a tag ([`NIL`] 0, [`BOOL`] 1, [`INT`] 2, [`FLOAT`] 3,
//!   [`SYM`] 4, [`STR`] 5) and its payload;
//! * a tuple is `[class][count: u32]([attr][value])*`.
//!
//! One encoder lives elsewhere: `dps-core`'s in-memory commit log
//! (`log.rs`) writes its numbers as LEB128 varints, its atoms as table
//! indices and each op's skeleton as a shape-table index, with an
//! encoder of its own, until that record grammar moves here too. It
//! shares this module's value tags.
//!
//! Decoding reads strings in place (a borrowed `&str`, UTF-8 checked)
//! and makes atoms without an intermediate `String`; [`Names`] interns
//! a document's repeated class and attribute names once per decode.
//! The per-field readers and writers are `#[inline]`: `dps-server`
//! calls them once per field from another crate.

use std::fmt;

use crate::{Atom, AttrMap, Value, WmeData, WmeId};

/// Value tag of [`Value::Nil`].
pub const NIL: u8 = 0;
/// Value tag of [`Value::Bool`].
pub const BOOL: u8 = 1;
/// Value tag of [`Value::Int`].
pub const INT: u8 = 2;
/// Value tag of [`Value::Float`].
pub const FLOAT: u8 = 3;
/// Value tag of [`Value::Sym`].
pub const SYM: u8 = 4;
/// Value tag of [`Value::Str`].
pub const STR: u8 = 5;

/// Errors raised while encoding or decoding working-memory data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended prematurely.
    Truncated,
    /// Bad magic or unsupported version.
    BadHeader,
    /// An unknown tag byte.
    BadTag(u8),
    /// Embedded string is not UTF-8.
    BadString,
    /// Well-formed prefix followed by bytes that are not part of the
    /// document — distinct from [`CodecError::BadHeader`] so "your
    /// snapshot has garbage appended" never reads as "your magic bytes
    /// are wrong".
    TrailingBytes {
        /// Offset of the first unconsumed byte.
        at: usize,
    },
    /// A length field would not fit its `u32` width; encoding refuses
    /// rather than truncate the count and corrupt the stream.
    TooLarge,
    /// A replayed batch conflicts with the state it is applied to (a
    /// removal of a dead element, or an insertion of a live id). The
    /// batch is rejected *whole*: working memory is left untouched.
    ReplayConflict(WmeId),
    /// A CRC-framed record failed its checksum with valid data after it
    /// — genuine corruption, not a torn tail (see [`crate::wal`]).
    Corrupt {
        /// Byte offset of the corrupt record.
        at: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input is truncated"),
            CodecError::BadHeader => write!(f, "bad magic bytes or unsupported version"),
            CodecError::BadTag(t) => write!(f, "unknown tag byte {t:#x}"),
            CodecError::BadString => write!(f, "embedded string is not valid UTF-8"),
            CodecError::TrailingBytes { at } => {
                write!(f, "trailing bytes after a well-formed document (offset {at})")
            }
            CodecError::TooLarge => write!(f, "length field exceeds its u32 width"),
            CodecError::ReplayConflict(id) => {
                write!(f, "redo batch conflicts with the base state at {id}; batch not applied")
            }
            CodecError::Corrupt { at } => write!(f, "corrupt log record at byte offset {at}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A cursor over an encoded document.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// A `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// A `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// An `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// A string, borrowed from the input.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| CodecError::BadString)
    }

    /// A [`Value`].
    #[inline]
    pub fn value(&mut self) -> Result<Value, CodecError> {
        Ok(match self.u8()? {
            NIL => Value::Nil,
            BOOL => Value::Bool(self.u8()? != 0),
            INT => Value::Int(self.i64()?),
            FLOAT => Value::Float(f64::from_bits(self.u64()?)),
            SYM => Value::Sym(Atom::new(self.str()?)),
            STR => Value::Str(Atom::new(self.str()?)),
            t => return Err(CodecError::BadTag(t)),
        })
    }

    /// A tuple, its class and attribute names through `names`.
    #[inline]
    pub fn data(&mut self, names: &mut Names<'a>) -> Result<WmeData, CodecError> {
        let class = names.read(self)?;
        let mut attrs = AttrMap::new();
        for _ in 0..self.u32()? {
            let attr = names.read(self)?;
            attrs.insert(attr, self.value()?);
        }
        Ok(WmeData { class, attrs })
    }

    /// Offset of the next unread byte.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// `true` once every byte has been read.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// `Ok` at the end of the input, else [`CodecError::TrailingBytes`].
    pub fn finish(&self) -> Result<(), CodecError> {
        self.at_end().then_some(()).ok_or(CodecError::TrailingBytes { at: self.pos })
    }
}

/// The class and attribute names one decode call has interned so far
/// (see the module docs). Lookups scan, so the table stops growing at
/// [`Names::CAP`] entries; a document with more distinct names interns
/// the rest each time they occur.
#[derive(Default)]
pub struct Names<'a>(Vec<(&'a str, Atom)>);

impl<'a> Names<'a> {
    /// Most names a table keeps.
    pub const CAP: usize = 16;

    /// Reads a string and returns its atom.
    #[inline]
    pub fn read(&mut self, r: &mut Reader<'a>) -> Result<Atom, CodecError> {
        let s = r.str()?;
        if let Some((_, atom)) = self.0.iter().find(|(seen, _)| *seen == s) {
            return Ok(atom.clone());
        }
        let atom = Atom::new(s);
        if self.0.len() < Names::CAP {
            self.0.push((s, atom.clone()));
        }
        Ok(atom)
    }
}

/// `n` as a `u32` length field, or [`CodecError::TooLarge`].
pub fn checked_len(n: usize) -> Result<u32, CodecError> {
    u32::try_from(n).map_err(|_| CodecError::TooLarge)
}

/// Writes a `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes a `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes a string.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), CodecError> {
    put_u32(out, checked_len(s.len())?);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Writes a [`Value`].
#[inline]
pub fn put_value(out: &mut Vec<u8>, v: &Value) -> Result<(), CodecError> {
    out.push(match v {
        Value::Nil => NIL,
        Value::Bool(_) => BOOL,
        Value::Int(_) => INT,
        Value::Float(_) => FLOAT,
        Value::Sym(_) => SYM,
        Value::Str(_) => STR,
    });
    match v {
        Value::Nil => {}
        Value::Bool(b) => out.push(u8::from(*b)),
        Value::Int(i) => out.extend_from_slice(&i.to_le_bytes()),
        Value::Float(f) => put_u64(out, f.to_bits()),
        Value::Sym(a) | Value::Str(a) => put_str(out, a.as_str())?,
    }
    Ok(())
}

/// Writes a tuple from its class and `(attribute, value)` pairs.
pub fn put_tuple<'v>(
    out: &mut Vec<u8>,
    class: &str,
    attrs: impl ExactSizeIterator<Item = (&'v str, &'v Value)>,
) -> Result<(), CodecError> {
    put_str(out, class)?;
    put_u32(out, checked_len(attrs.len())?);
    for (attr, value) in attrs {
        put_str(out, attr)?;
        put_value(out, value)?;
    }
    Ok(())
}

/// Writes a [`WmeData`] as a tuple.
pub fn put_data(out: &mut Vec<u8>, data: &WmeData) -> Result<(), CodecError> {
    put_tuple(out, data.class.as_str(), data.attrs.iter().map(|(k, v)| (k.as_str(), v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_past_u32_are_refused_not_truncated() {
        assert_eq!(checked_len(u32::MAX as usize), Ok(u32::MAX));
        assert_eq!(checked_len(u32::MAX as usize + 1), Err(CodecError::TooLarge));
    }
}
