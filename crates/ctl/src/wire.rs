//! Length-prefixed binary framing for control-plane messages.
//!
//! A deliberately small, dependency-free encoding (the role protobuf plays
//! under gRPC): little-endian fixed-width integers, length-prefixed strings
//! and byte blobs, and a one-byte tag per message variant.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// A destination for wire-format fields. [`WireWriter`] appends the bytes;
/// [`WireLen`] only counts them. Message encoders are written once against
/// this trait, so sizing a message can never disagree with encoding it.
pub trait WireSink {
    /// Appends raw bytes — the one primitive every field is built from.
    fn put(&mut self, bytes: &[u8]);

    /// Appends a `u8`.
    fn u8(&mut self, v: u8) -> &mut Self {
        self.put(&[v]);
        self
    }
    /// Appends a `u32`.
    fn u32(&mut self, v: u32) -> &mut Self {
        self.put(&v.to_le_bytes());
        self
    }
    /// Appends a `u64`.
    fn u64(&mut self, v: u64) -> &mut Self {
        self.put(&v.to_le_bytes());
        self
    }
    /// Appends a bool as one byte.
    fn boolean(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }
    /// Appends a length-prefixed UTF-8 string.
    fn string(&mut self, v: &str) -> &mut Self {
        self.blob(v.as_bytes())
    }
    /// Appends a length-prefixed byte blob.
    fn blob(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.put(v);
        self
    }

    /// Appends a short key (DAOS dkey/akey wire form): a one-byte length
    /// prefix then the bytes. Keys longer than 255 bytes are not
    /// representable — the object model never produces them (dkeys are u64
    /// chunk indices or path components) — and are rejected loudly in
    /// every build: truncating the length prefix would desynchronize the
    /// whole frame for the reader.
    fn key(&mut self, v: &[u8]) -> &mut Self {
        assert!(
            v.len() <= u8::MAX as usize,
            "key of {} bytes exceeds the 255-byte wire form",
            v.len()
        );
        self.u8(v.len() as u8);
        self.put(v);
        self
    }
}

/// Encoding buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }
    /// Finalizes into immutable bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

impl WireSink for WireWriter {
    fn put(&mut self, bytes: &[u8]) {
        self.buf.put_slice(bytes);
    }
}

/// A sink that counts the bytes an encoding would produce without storing
/// them, so sizing a message allocates nothing.
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct WireLen(pub(crate) usize);

impl WireSink for WireLen {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// Decoding failures.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes mid-field.
    Truncated,
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// An unknown message tag.
    BadTag(u8),
}

/// Decoding cursor.
#[derive(Debug)]
pub struct WireReader {
    buf: Bytes,
}

impl WireReader {
    /// Wraps `buf` for reading.
    pub fn new(buf: Bytes) -> Self {
        WireReader { buf }
    }
    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.buf.remaining() < n {
            Err(WireError::Truncated)
        } else {
            Ok(())
        }
    }
    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }
    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }
    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }
    /// Reads a bool.
    pub fn boolean(&mut self) -> Result<bool, WireError> {
        Ok(self.u8()? != 0)
    }
    /// Reads a length-prefixed string. Validates UTF-8 in place and copies
    /// once into the returned `String` (the seed validated a throwaway
    /// `to_vec` copy first — two copies per decoded string).
    pub fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        self.need(len)?;
        let raw = self.buf.copy_to_bytes(len);
        std::str::from_utf8(&raw)
            .map(str::to_owned)
            .map_err(|_| WireError::BadUtf8)
    }
    /// Reads a length-prefixed blob.
    pub fn blob(&mut self) -> Result<Bytes, WireError> {
        let len = self.u32()? as usize;
        self.need(len)?;
        Ok(self.buf.copy_to_bytes(len))
    }

    /// Reads a short key (one-byte length prefix; see [`WireWriter::key`]).
    /// The bytes are returned as a refcounted slice of the frame.
    pub fn key(&mut self) -> Result<Bytes, WireError> {
        let len = self.u8()? as usize;
        self.need(len)?;
        Ok(self.buf.copy_to_bytes(len))
    }
    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = WireWriter::new();
        w.u8(7).u32(1234).u64(0xDEAD_BEEF_CAFE).boolean(true);
        w.string("hello").blob(b"blobby");
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 1234);
        assert_eq!(r.u64().unwrap(), 0xDEAD_BEEF_CAFE);
        assert!(r.boolean().unwrap());
        assert_eq!(r.string().unwrap(), "hello");
        assert_eq!(&r.blob().unwrap()[..], b"blobby");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_detected() {
        let mut w = WireWriter::new();
        w.u64(42);
        let bytes = w.finish();
        let mut r = WireReader::new(bytes.slice(0..5));
        assert_eq!(r.u64().unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn bad_utf8_detected() {
        let mut w = WireWriter::new();
        w.blob(&[0xFF, 0xFE]);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.string().unwrap_err(), WireError::BadUtf8);
    }

    #[test]
    fn keys_round_trip() {
        let mut w = WireWriter::new();
        w.key(b"")
            .key(&7u64.to_le_bytes())
            .key(b"a-longer-file-name.bin");
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.key().unwrap().len(), 0);
        assert_eq!(&r.key().unwrap()[..], &7u64.to_le_bytes());
        assert_eq!(&r.key().unwrap()[..], b"a-longer-file-name.bin");
        assert_eq!(r.remaining(), 0);
        // Truncated key detected.
        let mut w = WireWriter::new();
        w.key(b"abcdef");
        let frame = w.finish();
        let mut r = WireReader::new(frame.slice(0..3));
        assert_eq!(r.key().unwrap_err(), WireError::Truncated);
    }

    #[test]
    #[should_panic(expected = "exceeds the 255-byte wire form")]
    fn oversized_key_rejected_in_every_build() {
        let mut w = WireWriter::new();
        let long = vec![7u8; 300];
        w.key(&long);
    }

    #[test]
    fn empty_string_and_blob() {
        let mut w = WireWriter::new();
        w.string("").blob(b"");
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.string().unwrap(), "");
        assert_eq!(r.blob().unwrap().len(), 0);
    }
}
