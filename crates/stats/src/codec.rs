//! A dependency-free little-endian byte codec for state snapshots.
//!
//! The primitives under the engine snapshot format in `aboram-core`: a
//! growable writer, a bounds-checked reader that fails (never panics) on
//! truncated input, and the FNV-1a digest used for integrity trailers.

use std::error::Error;
use std::fmt;

/// Why a snapshot byte stream was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Human-readable reason.
    pub reason: String,
}

impl CodecError {
    /// Creates an error with the given reason.
    pub fn new(reason: impl Into<String>) -> Self {
        CodecError { reason: reason.into() }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot rejected: {}", self.reason)
    }
}

impl Error for CodecError {}

/// FNV-1a over a byte stream — stable, fast, and dependency-free; used for
/// snapshot integrity trailers and cache-key digests.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Growable little-endian byte writer for snapshot bodies.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends the float's raw bit pattern (bit-exact round trip, NaN safe).
    pub fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Everything written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the byte stream.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian reader over a snapshot stream. Every read
/// past the end returns a [`CodecError`] instead of panicking, so corrupted
/// or truncated cache files degrade to a cache miss.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| CodecError::new("truncated snapshot stream"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a float stored as its raw bit pattern.
    pub fn f64_bits(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length prefix that will be used to allocate, rejecting
    /// lengths that cannot fit in the remaining stream (corruption guard —
    /// `min_elem_bytes` is the smallest serialized size of one element).
    pub fn len_prefix(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u64()? as usize;
        let remaining = self.buf.len() - self.pos;
        match n.checked_mul(min_elem_bytes) {
            Some(total) if total <= remaining => Ok(n),
            _ => Err(CodecError::new("length prefix exceeds snapshot size")),
        }
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(0x0123_4567_89ab_cdef);
        w.f64_bits(-0.0);
        w.f64_bits(f64::NAN);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.f64_bits().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64_bits().unwrap().is_nan());
        assert_eq!(r.remaining(), 0);
        assert!(r.u8().is_err(), "reads past the end must fail, not panic");
    }

    #[test]
    fn len_prefix_rejects_oversized_lengths() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX); // absurd length prefix
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).len_prefix(8).is_err());

        let mut w = ByteWriter::new();
        w.u64(2);
        w.u64(1);
        w.u64(2);
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes).len_prefix(8).unwrap(), 2);
    }

    #[test]
    fn fnv_digest_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"), "order matters");
    }
}
