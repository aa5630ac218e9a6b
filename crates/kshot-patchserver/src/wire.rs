//! Minimal binary serialization helpers shared by the patch bundle and
//! the SGX→SMM patch package (paper Fig. 3).

use std::fmt;
use std::ops::Range;

/// Bytes a [`Writer`] grows by beyond what a field needs. Without them,
/// a megabyte payload followed by a four-byte count reallocates to
/// twice the payload's size.
const TRAILER_ROOM: usize = 256;

/// Serialization writer.
///
/// Length-prefixed fields carry a `u32` prefix, so a payload longer
/// than `u32::MAX` bytes cannot be represented. Rather than silently
/// truncating the prefix (the pre-fix behaviour: `len as u32`), an
/// oversize [`Writer::put_bytes`]/[`Writer::put_str`] *poisons* the
/// writer: the field is not appended, subsequent puts become no-ops,
/// and [`Writer::into_bytes`] returns the error. Poisoning keeps the
/// chained-call style at encode sites while guaranteeing a corrupt
/// frame can never leave the writer.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
    error: Option<WireError>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        if self.error.is_none() {
            self.buf.push(v);
        }
        self
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        if self.error.is_none() {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        if self.error.is_none() {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// Append a length-prefixed byte string. Payloads longer than
    /// `u32::MAX` bytes poison the writer instead of truncating the
    /// length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        if self.error.is_some() {
            return self;
        }
        let Ok(len) = u32::try_from(v.len()) else {
            self.error = Some(WireError::Oversize { len: v.len() });
            return self;
        };
        self.put_u32(len);
        self.append(v);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Append raw bytes with no length prefix (fixed-size fields).
    pub fn put_raw(&mut self, v: &[u8]) -> &mut Self {
        if self.error.is_none() {
            self.append(v);
        }
        self
    }

    /// Append `v`. When the buffer must grow, it grows by
    /// [`TRAILER_ROOM`] bytes more than `v` needs, so the short fields
    /// that close a message (a reloc count, a segment table, a trailing
    /// hash or MAC) fit instead of doubling a payload-sized buffer.
    fn append(&mut self, v: &[u8]) {
        if self.buf.capacity() - self.buf.len() < v.len() {
            self.buf.reserve(v.len() + TRAILER_ROOM);
        }
        self.buf.extend_from_slice(v);
    }

    /// The poisoning error, if an oversize put was rejected.
    pub fn error(&self) -> Option<&WireError> {
        self.error.as_ref()
    }

    /// Finish, returning the buffer — or the poisoning error if any
    /// put was rejected.
    pub fn into_bytes(self) -> Result<Vec<u8>, WireError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.buf),
        }
    }

    /// The bytes written so far, to rewrite in place.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended before the field.
    Truncated {
        /// What was being read.
        what: &'static str,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A length prefix exceeded the remaining buffer (corruption guard).
    BadLength {
        /// What was being read.
        what: &'static str,
        /// The claimed length.
        claimed: usize,
        /// Remaining bytes.
        remaining: usize,
    },
    /// An enum tag was out of range.
    BadTag {
        /// What was being read.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// Trailing bytes after a complete decode.
    TrailingBytes(usize),
    /// A writer-side payload exceeded the `u32` length-prefix range.
    Oversize {
        /// Byte length of the rejected payload.
        len: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "truncated while reading {what}"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadLength {
                what,
                claimed,
                remaining,
            } => write!(
                f,
                "length {claimed} for {what} exceeds remaining {remaining} bytes"
            ),
            WireError::BadTag { what, tag } => write!(f, "invalid tag {tag} for {what}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
            WireError::Oversize { len } => {
                write!(f, "payload of {len} bytes exceeds the u32 length prefix")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Deserialization reader.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        // `checked_add` so a hostile `n` near `usize::MAX` cannot wrap
        // the bound check into a false pass.
        let end = match self.pos.checked_add(n) {
            Some(end) if end <= self.buf.len() => end,
            _ => return Err(WireError::Truncated { what }),
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a length-prefixed byte string. The declared length is
    /// checked against the remaining buffer *before* any allocation,
    /// so a corrupt prefix cannot drive an outsized `Vec`.
    pub fn get_bytes(&mut self, what: &'static str) -> Result<Vec<u8>, WireError> {
        let range = self.get_bytes_range(what)?;
        Ok(self.buf[range].to_vec())
    }

    /// Read a length-prefixed byte string and return where it lies in
    /// the buffer instead of a copy, for callers that work on the bytes
    /// in place. Fails exactly as [`Reader::get_bytes`] does.
    pub fn get_bytes_range(&mut self, what: &'static str) -> Result<Range<usize>, WireError> {
        let len = self.get_u32(what)? as usize;
        if len > self.remaining() {
            return Err(WireError::BadLength {
                what,
                claimed: len,
                remaining: self.remaining(),
            });
        }
        let start = self.pos;
        self.take(len, what)?;
        Ok(start..self.pos)
    }

    /// Read a `u32` element count and validate it against the
    /// remaining buffer: each element occupies at least
    /// `min_elem_bytes` on the wire, so a count whose minimum footprint
    /// exceeds the remaining bytes is rejected here — before the caller
    /// sizes a `Vec::with_capacity` from it.
    pub fn get_count(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, WireError> {
        let n = self.get_u32(what)? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(WireError::BadLength {
                what,
                claimed: n,
                remaining: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, what: &'static str) -> Result<String, WireError> {
        let b = self.get_bytes(what)?;
        String::from_utf8(b).map_err(|_| WireError::BadUtf8)
    }

    /// Read `n` raw bytes (fixed-size fields).
    pub fn get_raw(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        self.take(n, what)
    }

    /// Remaining unread byte count.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the buffer is fully consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_kinds() {
        let mut w = Writer::new();
        w.put_u8(7)
            .put_u32(0xAABB_CCDD)
            .put_u64(u64::MAX)
            .put_bytes(&[1, 2, 3])
            .put_str("kshot")
            .put_raw(&[9, 9]);
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u32("b").unwrap(), 0xAABB_CCDD);
        assert_eq!(r.get_u64("c").unwrap(), u64::MAX);
        assert_eq!(r.get_bytes("d").unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_str("e").unwrap(), "kshot");
        assert_eq!(r.get_raw(2, "f").unwrap(), &[9, 9]);
        r.finish().unwrap();
    }

    #[test]
    fn trailer_after_a_large_field_does_not_double_the_buffer() {
        let payload = vec![7u8; 1 << 20];
        let mut w = Writer::new();
        w.put_str("id")
            .put_bytes(&payload)
            .put_u32(0)
            .put_raw(&[0u8; 32]);
        assert!(w.buf.capacity() < (1 << 20) + 4 * TRAILER_ROOM);
        let bytes = w.into_bytes().unwrap();
        assert_eq!(bytes.len(), 4 + 2 + 4 + (1 << 20) + 4 + 32);
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new();
        w.put_u64(1);
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes[..4]);
        assert!(matches!(
            r.get_u64("x"),
            Err(WireError::Truncated { what: "x" })
        ));
    }

    #[test]
    fn bad_length_detected() {
        let mut w = Writer::new();
        w.put_u32(1000); // claims 1000 bytes follow
        w.put_raw(&[1, 2]);
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.get_bytes("payload"),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn bad_utf8_detected() {
        let mut w = Writer::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_str("s"), Err(WireError::BadUtf8));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Writer::new();
        w.put_u8(1).put_u8(2);
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        r.get_u8("a").unwrap();
        assert_eq!(r.clone().finish(), Err(WireError::TrailingBytes(1)));
        r.get_u8("b").unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn errors_display() {
        for e in [
            WireError::Truncated { what: "x" },
            WireError::BadUtf8,
            WireError::BadLength {
                what: "y",
                claimed: 9,
                remaining: 1,
            },
            WireError::BadTag { what: "z", tag: 9 },
            WireError::TrailingBytes(3),
            WireError::Oversize { len: 1 << 33 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    /// Regression (pre-fix: `put_bytes` did `v.len() as u32`, silently
    /// truncating the prefix of a >4 GiB payload). The payload is a
    /// zeroed `Vec`, so the pages are never touched — the rejection
    /// must happen before any copy.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn oversize_put_bytes_poisons_the_writer() {
        let huge = vec![0u8; u32::MAX as usize + 1];
        let mut w = Writer::new();
        w.put_u8(1).put_bytes(&huge).put_u8(2);
        assert_eq!(w.error(), Some(&WireError::Oversize { len: huge.len() }));
        // Poison is sticky: the trailing put did not land either.
        assert_eq!(w.len(), 1);
        assert_eq!(w.into_bytes(), Err(WireError::Oversize { len: huge.len() }));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn exactly_u32_max_is_representable() {
        // The boundary itself must still be accepted: try_from(u32::MAX)
        // succeeds, one past it does not. Checked without materializing
        // 4 GiB by probing the conversion the writer relies on.
        assert!(u32::try_from(u32::MAX as usize).is_ok());
        assert!(u32::try_from(u32::MAX as usize + 1).is_err());
    }

    /// Regression: `take` computed `pos + n` unchecked, so a hostile
    /// `get_raw` length near `usize::MAX` would overflow-panic in debug
    /// (or wrap in release) instead of reporting truncation.
    #[test]
    fn reader_length_overflow_is_truncation_not_panic() {
        let bytes = [1u8, 2, 3];
        let mut r = Reader::new(&bytes);
        r.get_u8("a").unwrap();
        assert!(matches!(
            r.get_raw(usize::MAX - 1, "huge"),
            Err(WireError::Truncated { what: "huge" })
        ));
        // Reader is still usable after the rejected read.
        assert_eq!(r.get_u8("b").unwrap(), 2);
    }

    #[test]
    fn get_count_rejects_counts_larger_than_the_buffer() {
        let mut w = Writer::new();
        w.put_u32(1_000_000); // claims a million 8-byte elements
        w.put_u64(0);
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.get_count("entries", 8),
            Err(WireError::BadLength {
                what: "entries",
                claimed: 1_000_000,
                ..
            })
        ));
        // A plausible count passes.
        let mut w = Writer::new();
        w.put_u32(1);
        w.put_u64(42);
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_count("entries", 8).unwrap(), 1);
        assert_eq!(r.get_u64("e").unwrap(), 42);
    }
}
