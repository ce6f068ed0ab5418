//! Big-endian byte codec helpers.
//!
//! Every wire format in the workspace (SOME/IP-style middleware headers,
//! signed update packages, typed payload values) is encoded through the same
//! two small types: [`ByteWriter`] appends big-endian fields to a buffer,
//! [`ByteReader`] consumes them with explicit bounds checking and a
//! meaningful error type (C-GOOD-ERR).
//!
//! # Examples
//!
//! ```
//! use dynplat_common::codec::{ByteReader, ByteWriter};
//!
//! let mut w = ByteWriter::new();
//! w.put_u16(0x0103);
//! w.put_len_prefixed(b"abc");
//! let buf = w.into_vec();
//!
//! let mut r = ByteReader::new(&buf);
//! assert_eq!(r.take_u16()?, 0x0103);
//! assert_eq!(r.take_len_prefixed(16)?, b"abc");
//! assert!(r.is_empty());
//! # Ok::<(), dynplat_common::codec::CodecError>(())
//! ```

use std::fmt;

/// Error produced when decoding malformed or truncated byte input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the requested field could be read.
    UnexpectedEnd {
        /// Bytes needed by the read.
        needed: usize,
        /// Bytes remaining in the input.
        remaining: usize,
    },
    /// A field held a value that is not valid for its type.
    InvalidValue {
        /// The field being decoded.
        field: &'static str,
        /// The offending raw value.
        value: u64,
    },
    /// A length prefix exceeded a sanity bound.
    LengthOutOfRange {
        /// The decoded length.
        len: usize,
        /// The maximum allowed.
        max: usize,
    },
    /// A string field was not valid UTF-8.
    InvalidUtf8,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} bytes, {remaining} remain"
                )
            }
            CodecError::InvalidValue { field, value } => {
                write!(f, "invalid value {value} for field `{field}`")
            }
            CodecError::LengthOutOfRange { len, max } => {
                write!(f, "length {len} exceeds maximum {max}")
            }
            CodecError::InvalidUtf8 => write!(f, "invalid UTF-8 in string field"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends big-endian encoded fields to a growable buffer.
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// Creates a writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Wraps an existing buffer, clearing it first but keeping its
    /// capacity — the reuse path for encoders called in a hot loop, where
    /// a warmed buffer makes repeated encodes allocation-free.
    pub fn from_vec(mut buf: Vec<u8>) -> Self {
        buf.clear();
        ByteWriter { buf }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an IEEE-754 `f64` in big-endian byte order.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u32` length prefix followed by the bytes.
    pub fn put_len_prefixed(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.put_bytes(v);
    }

    /// Appends a `u32` length prefix followed by UTF-8 string bytes.
    pub fn put_string(&mut self, v: &str) {
        self.put_len_prefixed(v.as_bytes());
    }

    /// Finishes writing and returns an owned `Vec<u8>`.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Consumes big-endian encoded fields from a byte slice with bounds checking.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `input`.
    pub fn new(input: &'a [u8]) -> Self {
        ByteReader { input, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// `true` once all input is consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current read offset from the start of the input.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEnd {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEnd`] if the input is exhausted.
    pub fn take_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEnd`] if fewer than 2 bytes remain.
    pub fn take_u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEnd`] if fewer than 4 bytes remain.
    pub fn take_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEnd`] if fewer than 8 bytes remain.
    pub fn take_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_be_bytes(arr))
    }

    /// Reads a big-endian `i64`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEnd`] if fewer than 8 bytes remain.
    pub fn take_i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.take_u64()? as i64)
    }

    /// Reads a big-endian IEEE-754 `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEnd`] if fewer than 8 bytes remain.
    pub fn take_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a `u32` length prefix followed by that many bytes, rejecting
    /// prefixes larger than `max`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::LengthOutOfRange`] if the prefix exceeds `max`,
    /// or [`CodecError::UnexpectedEnd`] if the input is truncated.
    pub fn take_len_prefixed(&mut self, max: usize) -> Result<&'a [u8], CodecError> {
        let len = self.take_u32()? as usize;
        if len > max {
            return Err(CodecError::LengthOutOfRange { len, max });
        }
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string (max 1 MiB).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidUtf8`] for non-UTF-8 content, or the
    /// errors of [`ByteReader::take_len_prefixed`].
    pub fn take_string(&mut self) -> Result<String, CodecError> {
        let raw = self.take_len_prefixed(1 << 20)?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| CodecError::InvalidUtf8)
    }

    /// Returns the rest of the input without consuming it.
    pub fn peek_rest(&self) -> &'a [u8] {
        &self.input[self.pos..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_types() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(0xABCD);
        w.put_u32(0xDEADBEEF);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_f64(3.5);
        w.put_string("hello");
        let buf = w.into_vec();

        let mut r = ByteReader::new(&buf);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u16().unwrap(), 0xABCD);
        assert_eq!(r.take_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.take_i64().unwrap(), -42);
        assert_eq!(r.take_f64().unwrap(), 3.5);
        assert_eq!(r.take_string().unwrap(), "hello");
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_input_reports_unexpected_end() {
        let mut r = ByteReader::new(&[1, 2]);
        let err = r.take_u32().unwrap_err();
        assert_eq!(
            err,
            CodecError::UnexpectedEnd {
                needed: 4,
                remaining: 2
            }
        );
    }

    #[test]
    fn length_prefix_sanity_bound() {
        let mut w = ByteWriter::new();
        w.put_u32(10_000);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        let err = r.take_len_prefixed(100).unwrap_err();
        assert_eq!(
            err,
            CodecError::LengthOutOfRange {
                len: 10_000,
                max: 100
            }
        );
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_len_prefixed(&[0xFF, 0xFE]);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.take_string().unwrap_err(), CodecError::InvalidUtf8);
    }

    #[test]
    fn position_tracking() {
        let data = [0u8; 8];
        let mut r = ByteReader::new(&data);
        r.take_u16().unwrap();
        assert_eq!(r.position(), 2);
        assert_eq!(r.remaining(), 6);
        assert_eq!(r.peek_rest().len(), 6);
        assert_eq!(r.remaining(), 6);
    }
}
