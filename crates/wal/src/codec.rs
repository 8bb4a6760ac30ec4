//! A minimal binary encoder/decoder for log records.
//!
//! A record is framed as `[len][crc][payload]`: `len` is the payload length
//! as a varint (at most four bytes: payloads are shorter than 256 MiB), `crc`
//! the little-endian `u32` [`face_pagestore::crc32`] of the payload. In the
//! payload, a record's tag is one byte and every other integer is a varint;
//! a byte string is its length as a varint, then its bytes.
//!
//! The varint is unsigned LEB128: seven bits per byte, least significant
//! group first, the high bit set on every byte but the last. A value below
//! 128 takes one byte, a `u32` at most five and a `u64` at most ten. The
//! decoder rejects a varint longer than ten bytes, a ten-byte one whose value
//! overflows `u64`, and a value too large for the `u32` field it is read
//! into. A hand-rolled codec keeps the on-log format stable and auditable and
//! avoids pulling a serialisation framework into the recovery path.

use face_pagestore::crc32;

/// Longest frame header: a four-byte payload length and the four CRC bytes.
/// A header is never shorter than five bytes (a one-byte length).
pub(crate) const MAX_FRAME_HEADER_SIZE: usize = 8;

/// Payloads are shorter than this: their length fits a four-byte varint.
pub(crate) const MAX_PAYLOAD_LEN: usize = 1 << 28;

/// Incrementally builds a payload buffer, or a whole frame.
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

    /// A writer that builds one frame in `buf`, whose allocation it keeps
    /// (the log writer hands its per-thread scratch buffer through here once
    /// per record): room for the longest header, then the payload written
    /// to it. [`ByteWriter::finish_frame`] writes the header.
    pub(crate) fn frame(mut buf: Vec<u8>) -> Self {
        buf.clear();
        buf.extend_from_slice(&[0; MAX_FRAME_HEADER_SIZE]);
        Self { buf }
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append `v` as a varint.
    #[inline]
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Append a byte string: its length as a varint, then its bytes.
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Close a frame begun with [`ByteWriter::frame`]: write its header
    /// right before the payload. Returns the offset at which the frame
    /// starts in [`ByteWriter::into_vec`].
    ///
    /// # Panics
    /// If the payload is [`MAX_PAYLOAD_LEN`] or longer.
    pub(crate) fn finish_frame(&mut self) -> usize {
        let (head, payload) = self.buf.split_at_mut(MAX_FRAME_HEADER_SIZE);
        assert!(
            payload.len() < MAX_PAYLOAD_LEN,
            "a log record shorter than 256 MiB"
        );
        let crc = crc32(payload);
        let (len_field, crc_field) = head.split_at_mut(MAX_FRAME_HEADER_SIZE - 4);
        let start = len_field.len() - varint_len(payload.len() as u64);
        write_varint(payload.len() as u64, &mut len_field[start..]);
        crc_field.copy_from_slice(&crc.to_le_bytes());
        start
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

/// Bytes the varint of `v` takes.
fn varint_len(v: u64) -> usize {
    ((64 - (v | 1).leading_zeros()) as usize).div_ceil(7)
}

/// Write `v` as a varint that fills `out`, which is [`varint_len`]`(v)`
/// bytes long.
fn write_varint(mut v: u64, out: &mut [u8]) {
    let (last, groups) = out.split_last_mut().expect("a varint takes a byte");
    for b in groups {
        *b = v as u8 | 0x80;
        v >>= 7;
    }
    *last = v as u8;
}

/// A parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameHeader {
    /// Bytes the header itself takes (five to eight).
    pub(crate) header_len: usize,
    /// Bytes of payload that follow it.
    pub(crate) payload_len: usize,
    /// The payload's CRC.
    pub(crate) crc: u32,
}

impl FrameHeader {
    /// Bytes the whole frame takes.
    pub(crate) fn frame_len(&self) -> usize {
        self.header_len + self.payload_len
    }

    /// Parse the frame header at the start of `bytes`.
    /// [`CodecError::UnexpectedEnd`] when `bytes` ends inside it;
    /// [`CodecError::OutOfRange`] for a length of [`MAX_PAYLOAD_LEN`] or more.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let payload_len = r.get_varint()?;
        if payload_len >= MAX_PAYLOAD_LEN as u64 {
            return Err(CodecError::OutOfRange);
        }
        let payload_len = payload_len as usize;
        let crc = u32::from_le_bytes(r.take(4)?.try_into().expect("four bytes taken"));
        Ok(Self {
            header_len: r.pos,
            payload_len,
            crc,
        })
    }
}

/// Errors from [`ByteReader`].
#[derive(Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the requested value could be read.
    UnexpectedEnd,
    /// A discriminant byte had an unknown value.
    InvalidTag(u8),
    /// A varint ran past ten bytes, or its tenth byte overflowed `u64`.
    InvalidVarint,
    /// A varint's value does not fit the field it encodes: a `u32`, or a
    /// frame's payload length.
    OutOfRange,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEnd => write!(f, "payload truncated"),
            CodecError::InvalidTag(t) => write!(f, "invalid record tag {t}"),
            CodecError::InvalidVarint => write!(f, "overlong or overflowing varint"),
            CodecError::OutOfRange => write!(f, "varint too large for its field"),
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
        if n > self.remaining() {
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

    /// Read a varint. A one-byte varint — most fields of most records — is
    /// one compare; a longer one is a short loop, inlined like it.
    #[inline]
    pub fn get_varint(&mut self) -> Result<u64, CodecError> {
        let mut pos = self.pos;
        let first = *self.buf.get(pos).ok_or(CodecError::UnexpectedEnd)?;
        if first < 0x80 {
            self.pos = pos + 1;
            return Ok(first.into());
        }
        let mut v = u64::from(first & 0x7F);
        let mut shift = 7;
        loop {
            pos += 1;
            let b = *self.buf.get(pos).ok_or(CodecError::UnexpectedEnd)?;
            if shift == 63 && b > 1 {
                // The tenth group holds bit 63 only, and ends the varint.
                return Err(CodecError::InvalidVarint);
            }
            v |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                self.pos = pos + 1;
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read a varint that encodes a `u32` field.
    #[inline]
    pub fn get_varint_u32(&mut self) -> Result<u32, CodecError> {
        u32::try_from(self.get_varint()?).map_err(|_| CodecError::OutOfRange)
    }

    /// Read a byte string: a varint length, then that many bytes.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_varint()?;
        self.take(usize::try_from(len).map_err(|_| CodecError::UnexpectedEnd)?)
    }

    /// Bytes remaining after the current position.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn varint(v: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_varint(v);
        w.into_vec()
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_varint(0xBEEF);
        w.put_varint(0xDEAD_BEEF);
        w.put_varint(0x0123_4567_89AB_CDEF);
        w.put_bytes(b"payload");
        assert!(!w.is_empty());
        let buf = w.into_vec();

        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_varint().unwrap(), 0xBEEF);
        assert_eq!(r.get_varint_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_varint().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_bytes().unwrap(), b"payload");
        assert_eq!(r.remaining(), 0);
    }

    /// Each group of seven bits costs one byte, at every boundary.
    #[test]
    fn varint_lengths_step_every_seven_bits() {
        for bits in 0..64u32 {
            for v in [(1u64 << bits) - 1, 1u64 << bits] {
                let enc = varint(v);
                let want = (64 - v.leading_zeros()).max(1).div_ceil(7) as usize;
                assert_eq!(enc.len(), want, "{v:#x}");
                let mut r = ByteReader::new(&enc);
                assert_eq!(r.get_varint().unwrap(), v);
                assert_eq!(r.remaining(), 0);
            }
        }
        assert_eq!(varint(0), [0]);
        assert_eq!(varint(127), [0x7F]);
        assert_eq!(varint(128), [0x80, 0x01]);
        assert_eq!(varint(300), [0xAC, 0x02]);
    }

    #[test]
    fn u64_max_takes_ten_bytes_and_longer_or_overflowing_varints_are_rejected() {
        let max = varint(u64::MAX);
        assert_eq!(
            max,
            [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]
        );
        assert_eq!(ByteReader::new(&max).get_varint().unwrap(), u64::MAX);

        // Eleven bytes, even of a value that fits (zero, padded).
        let mut padded = [0x80u8; 11];
        padded[10] = 0;
        assert_eq!(
            ByteReader::new(&padded).get_varint(),
            Err(CodecError::InvalidVarint)
        );
        // Ten bytes whose last group carries more than bit 63.
        let mut over = max.clone();
        over[9] = 0x02;
        assert_eq!(
            ByteReader::new(&over).get_varint(),
            Err(CodecError::InvalidVarint)
        );
        // Ten bytes that never end.
        assert_eq!(
            ByteReader::new(&[0xFF; 10]).get_varint(),
            Err(CodecError::InvalidVarint)
        );
        // A varint the buffer cuts short is a truncation, not a bad varint.
        assert_eq!(
            ByteReader::new(&max[..9]).get_varint(),
            Err(CodecError::UnexpectedEnd)
        );
        assert_eq!(
            ByteReader::new(&[]).get_varint(),
            Err(CodecError::UnexpectedEnd)
        );
    }

    #[test]
    fn a_u32_field_rejects_larger_values_instead_of_truncating() {
        let fits = varint(u64::from(u32::MAX));
        assert_eq!(fits.len(), 5);
        assert_eq!(ByteReader::new(&fits).get_varint_u32().unwrap(), u32::MAX);
        let over = u64::from(u32::MAX) + 1;
        assert_eq!(
            ByteReader::new(&varint(over)).get_varint_u32(),
            Err(CodecError::OutOfRange)
        );
    }

    #[test]
    fn truncated_read_fails_cleanly() {
        let buf = varint(300);
        let mut r = ByteReader::new(&buf[..1]);
        assert_eq!(r.get_varint().unwrap_err(), CodecError::UnexpectedEnd);
        // A bytes header promising more data than exists also fails, however
        // large the promise.
        for claim in [100, u64::MAX] {
            let buf = varint(claim);
            let mut r = ByteReader::new(&buf);
            assert_eq!(r.get_bytes().unwrap_err(), CodecError::UnexpectedEnd);
        }
    }

    #[test]
    fn empty_bytes_round_trip() {
        let mut w = ByteWriter::new();
        w.put_bytes(b"");
        let buf = w.into_vec();
        assert_eq!(buf, [0]);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_bytes().unwrap(), b"");
    }

    /// A frame header is the length varint then the CRC, written right
    /// before the payload; parsing it back gives the same numbers.
    #[test]
    fn frame_headers_round_trip_at_every_length_width() {
        let widths = [
            (0, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (2_097_152, 4),
        ];
        for (len, width) in widths {
            let mut w = ByteWriter::frame(vec![0xEE; 3]);
            for i in 0..len {
                w.put_u8(i as u8);
            }
            let start = w.finish_frame();
            let frame = w.into_vec();
            assert_eq!(start, MAX_FRAME_HEADER_SIZE - 4 - width);
            let header = FrameHeader::decode(&frame[start..]).unwrap();
            assert_eq!(header.header_len, width + 4);
            assert_eq!(header.payload_len, len);
            assert_eq!(header.crc, crc32(&frame[MAX_FRAME_HEADER_SIZE..]));
            assert_eq!(header.frame_len(), frame.len() - start);
            // Cut anywhere inside, the header is incomplete.
            for cut in 0..header.header_len {
                assert_eq!(
                    FrameHeader::decode(&frame[start..start + cut]),
                    Err(CodecError::UnexpectedEnd)
                );
            }
        }
        // A length of 256 MiB or more is no frame.
        let mut huge = varint(MAX_PAYLOAD_LEN as u64);
        huge.extend_from_slice(&[0; 4]);
        assert_eq!(FrameHeader::decode(&huge), Err(CodecError::OutOfRange));
    }

    #[test]
    fn error_display() {
        assert!(format!("{}", CodecError::UnexpectedEnd).contains("truncated"));
        assert!(format!("{}", CodecError::InvalidTag(9)).contains('9'));
        assert!(format!("{}", CodecError::InvalidVarint).contains("varint"));
        assert!(format!("{}", CodecError::OutOfRange).contains("too large"));
    }
}
