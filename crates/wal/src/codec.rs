//! A minimal binary encoder/decoder for log records.
//!
//! Records are framed as `[u32 len][u32 crc][payload]`, where `crc` covers
//! the payload. The payload itself is written with the little-endian
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

/// Slice-by-8 lookup tables for [`crc32`]: `CRC_TABLES[0]` is the classic
/// byte table of the reflected ISO-HDLC polynomial, and `CRC_TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, which lets eight input
/// bytes fold into the running value with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (ISO-HDLC polynomial, table-driven, eight bytes per step) over a
/// payload. Used to detect torn or partially written log records at the
/// recovery boundary.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
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
    fn crc32_known_vector_and_sensitivity() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let a = crc32(b"face");
        let b = crc32(b"face!");
        let c = crc32(b"facf");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn crc32_matches_the_bitwise_definition_at_every_length() {
        // The bit-at-a-time definition every stored CRC was computed with.
        fn bitwise(data: &[u8]) -> u32 {
            let mut crc: u32 = 0xFFFF_FFFF;
            for &b in data {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                }
            }
            !crc
        }
        let data: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        // Every length covers every remainder of the eight-byte step.
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn error_display() {
        assert!(format!("{}", CodecError::UnexpectedEnd).contains("truncated"));
        assert!(format!("{}", CodecError::InvalidTag(9)).contains('9'));
    }
}
