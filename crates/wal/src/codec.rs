//! A minimal binary encoder/decoder for log records.
//!
//! Records are framed as `[u32 len][u32 crc][payload]`, where `crc`
//! ([`face_pagestore::crc32`]) covers the payload. The payload itself is written with the little-endian
//! primitives below. A hand-rolled codec keeps the on-log format stable and
//! auditable and avoids pulling a serialisation framework into the recovery
//! path.

/// Incrementally builds a payload buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with preallocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// An empty writer that keeps `buf`'s allocation: `buf` is cleared, its
    /// capacity reused (the log writer hands its per-thread scratch buffer
    /// through here once per record).
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self { buf }
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16` (little endian).
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32` (little endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` (little endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed byte slice (u32 length).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// The accumulated payload.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Current payload length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Errors from [`ByteReader`].
#[derive(Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the requested value could be read.
    UnexpectedEnd,
    /// A discriminant byte had an unknown value.
    InvalidTag(u8),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEnd => write!(f, "payload truncated"),
            CodecError::InvalidTag(t) => write!(f, "invalid record tag {t}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Reads values back out of a payload buffer.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from `buf` starting at offset zero.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.buf.len() {
            return Err(CodecError::UnexpectedEnd);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Bytes remaining after the current position.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_bytes(b"payload");
        assert!(!w.is_empty());
        let buf = w.into_vec();

        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_bytes().unwrap(), b"payload");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_read_fails_cleanly() {
        let mut w = ByteWriter::with_capacity(8);
        w.put_u32(7);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_u64().unwrap_err(), CodecError::UnexpectedEnd);
        // A bytes header promising more data than exists also fails.
        let mut w = ByteWriter::new();
        w.put_u32(100);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_bytes().unwrap_err(), CodecError::UnexpectedEnd);
    }

    #[test]
    fn empty_bytes_round_trip() {
        let mut w = ByteWriter::new();
        w.put_bytes(b"");
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_bytes().unwrap(), b"");
    }

    #[test]
    fn error_display() {
        assert!(format!("{}", CodecError::UnexpectedEnd).contains("truncated"));
        assert!(format!("{}", CodecError::InvalidTag(9)).contains('9'));
    }
}
