//! Fixed-size pages with a self-describing header.
//!
//! The header checksum is [`crate::crc32`] over the page with the checksum
//! field counted as zero. Builds before this one stored a byte-serial FNV-1a
//! there, so a `FilePageStore` directory they wrote does not verify under
//! this build (every read reports a checksum mismatch); there is no
//! migration, as for the WAL's record-tag change before it.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::crc::crc32_fold;

/// Size of a database page in bytes. The paper's PostgreSQL setup uses 4 KiB
/// pages and all Table 1 device calibrations are for 4 KiB requests.
pub const PAGE_SIZE: usize = 4096;

/// Size of the page header in bytes.
pub const PAGE_HEADER_SIZE: usize = 32;

/// Usable body size of a page.
pub const PAGE_BODY_SIZE: usize = PAGE_SIZE - PAGE_HEADER_SIZE;

const MAGIC: u32 = 0xFACE_CA4E;

// Header layout (little endian):
//   0..4    magic
//   4..8    file id
//   8..12   page number
//   12..20  pageLSN
//   20..24  checksum (CRC-32 over header-with-zero-checksum + body)
//   24..28  flags (reserved for the record layer)
//   28..32  reserved
const OFF_MAGIC: usize = 0;
const OFF_FILE: usize = 4;
const OFF_PAGENO: usize = 8;
const OFF_LSN: usize = 12;
const OFF_CHECKSUM: usize = 20;
const OFF_FLAGS: usize = 24;

/// A log sequence number. `Lsn(0)` means "never logged".
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The null LSN: no logged update has touched the page.
    pub const ZERO: Lsn = Lsn(0);

    /// Whether this is the null LSN.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The next LSN after this one when advancing by `len` bytes of log.
    pub fn advance(self, len: u64) -> Lsn {
        Lsn(self.0 + len)
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

/// Identifies a page: a file (table, index or catalog segment) and a page
/// number within that file.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct PageId {
    /// File (relation segment) number.
    pub file: u32,
    /// Zero-based page number within the file.
    pub page_no: u32,
}

impl PageId {
    /// Construct a page id.
    pub fn new(file: u32, page_no: u32) -> Self {
        Self { file, page_no }
    }

    /// Pack into a single 64-bit value (file in the high half).
    pub fn to_u64(self) -> u64 {
        ((self.file as u64) << 32) | self.page_no as u64
    }

    /// The lock stripe (of `stripes`) this page id routes to — the shared
    /// hash used by every lock-striped layer (buffer-pool shards, flash-cache
    /// shards), so routing never drifts between them.
    pub fn stripe_of(self, stripes: usize) -> usize {
        stripe_of(self.to_u64(), stripes)
    }

    /// Unpack from a 64-bit value produced by [`PageId::to_u64`].
    pub fn from_u64(v: u64) -> Self {
        Self {
            file: (v >> 32) as u32,
            page_no: v as u32,
        }
    }

    /// Byte offset of this page within its file.
    pub fn byte_offset(self) -> u64 {
        self.page_no as u64 * PAGE_SIZE as u64
    }

    /// A global byte offset that folds the file id in, used to lay pages of
    /// different files out on one simulated device address space.
    pub fn global_offset(self) -> u64 {
        self.to_u64() * PAGE_SIZE as u64
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.page_no)
    }
}

/// Route an arbitrary 64-bit key to one of `stripes` lock stripes with a
/// Fibonacci multiplicative hash (the high half mixes file/page-number
/// patterns well). Callers that stripe at a coarser granularity (e.g. TAC's
/// temperature extents) pre-divide the key before routing.
pub fn stripe_of(key: u64, stripes: usize) -> usize {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % stripes.max(1)
}

/// A 4 KiB page: header plus body.
///
/// `Page` is a plain byte buffer with typed accessors, so it can be written
/// to and read from storage without any serialisation step.
#[derive(Clone)]
pub struct Page {
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// A zeroed page with a valid header for `id`.
    pub fn new(id: PageId) -> Self {
        let mut p = Self {
            bytes: Box::new([0u8; PAGE_SIZE]),
        };
        p.write_u32(OFF_MAGIC, MAGIC);
        p.set_id(id);
        p
    }

    /// An entirely zeroed page (no valid header). Used as a read target.
    pub fn zeroed() -> Self {
        Self {
            bytes: Box::new([0u8; PAGE_SIZE]),
        }
    }

    /// Build a page from raw bytes (e.g. read from a file).
    pub fn from_bytes(bytes: [u8; PAGE_SIZE]) -> Self {
        Self {
            bytes: Box::new(bytes),
        }
    }

    /// The raw bytes of the page.
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    /// Mutable access to the raw bytes.
    pub fn as_bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.bytes
    }

    /// Whether the header magic is present (the page has been formatted).
    pub fn is_formatted(&self) -> bool {
        self.read_u32(OFF_MAGIC) == MAGIC
    }

    /// The page id stored in the header.
    pub fn id(&self) -> PageId {
        PageId {
            file: self.read_u32(OFF_FILE),
            page_no: self.read_u32(OFF_PAGENO),
        }
    }

    /// Set the page id in the header (also writes the magic).
    pub fn set_id(&mut self, id: PageId) {
        self.write_u32(OFF_MAGIC, MAGIC);
        self.write_u32(OFF_FILE, id.file);
        self.write_u32(OFF_PAGENO, id.page_no);
    }

    /// The pageLSN: the LSN of the last logged update applied to this page.
    pub fn lsn(&self) -> Lsn {
        Lsn(self.read_u64(OFF_LSN))
    }

    /// Set the pageLSN.
    pub fn set_lsn(&mut self, lsn: Lsn) {
        self.write_u64(OFF_LSN, lsn.0);
    }

    /// The record-layer flags word.
    pub fn flags(&self) -> u32 {
        self.read_u32(OFF_FLAGS)
    }

    /// Set the record-layer flags word.
    pub fn set_flags(&mut self, flags: u32) {
        self.write_u32(OFF_FLAGS, flags);
    }

    /// The page body (everything after the header).
    pub fn body(&self) -> &[u8] {
        &self.bytes[PAGE_HEADER_SIZE..]
    }

    /// Mutable access to the page body.
    pub fn body_mut(&mut self) -> &mut [u8] {
        &mut self.bytes[PAGE_HEADER_SIZE..]
    }

    /// Copy `data` into the body at `offset`.
    ///
    /// # Panics
    /// Panics if the write would run past the end of the body.
    pub fn write_body(&mut self, offset: usize, data: &[u8]) {
        assert!(
            offset + data.len() <= PAGE_BODY_SIZE,
            "body write out of bounds: offset {} + len {} > {}",
            offset,
            data.len(),
            PAGE_BODY_SIZE
        );
        let start = PAGE_HEADER_SIZE + offset;
        self.bytes[start..start + data.len()].copy_from_slice(data);
    }

    /// Read `len` bytes from the body at `offset`.
    pub fn read_body(&self, offset: usize, len: usize) -> &[u8] {
        assert!(offset + len <= PAGE_BODY_SIZE, "body read out of bounds");
        let start = PAGE_HEADER_SIZE + offset;
        &self.bytes[start..start + len]
    }

    /// Compute and store the checksum. Call just before writing to storage.
    pub fn update_checksum(&mut self) {
        let sum = self.compute_checksum();
        self.write_u32(OFF_CHECKSUM, sum);
    }

    /// Verify the stored checksum against the page contents.
    pub fn verify_checksum(&self) -> bool {
        self.read_u32(OFF_CHECKSUM) == self.compute_checksum()
    }

    /// CRC-32 over the page with the checksum field treated as zero.
    fn compute_checksum(&self) -> u32 {
        let crc = crc32_fold(!0, &self.bytes[..OFF_CHECKSUM]);
        let crc = crc32_fold(crc, &[0; 4]);
        !crc32_fold(crc, &self.bytes[OFF_CHECKSUM + 4..])
    }

    fn read_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.bytes[off..off + 4].try_into().unwrap())
    }

    fn write_u32(&mut self, off: usize, v: u32) {
        self.bytes[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    fn read_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    fn write_u64(&mut self, off: usize, v: u64) {
        self.bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Page")
            .field("id", &self.id())
            .field("lsn", &self.lsn())
            .field("formatted", &self.is_formatted())
            .finish()
    }
}

impl Default for Page {
    fn default() -> Self {
        Self::zeroed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_id_packing_round_trips() {
        let id = PageId::new(7, 123_456);
        assert_eq!(PageId::from_u64(id.to_u64()), id);
        assert_eq!(id.byte_offset(), 123_456 * PAGE_SIZE as u64);
        assert_eq!(format!("{id}"), "7:123456");
        // Distinct files with the same page number map to distinct global
        // offsets.
        assert_ne!(
            PageId::new(1, 5).global_offset(),
            PageId::new(2, 5).global_offset()
        );
    }

    #[test]
    fn new_page_has_valid_header() {
        let id = PageId::new(3, 42);
        let p = Page::new(id);
        assert!(p.is_formatted());
        assert_eq!(p.id(), id);
        assert_eq!(p.lsn(), Lsn::ZERO);
        assert!(p.lsn().is_zero());
    }

    #[test]
    fn zeroed_page_is_unformatted() {
        let p = Page::zeroed();
        assert!(!p.is_formatted());
    }

    #[test]
    fn lsn_and_flags_round_trip() {
        let mut p = Page::new(PageId::new(0, 0));
        p.set_lsn(Lsn(987_654_321));
        p.set_flags(0xAB);
        assert_eq!(p.lsn(), Lsn(987_654_321));
        assert_eq!(p.flags(), 0xAB);
    }

    #[test]
    fn lsn_ordering_and_advance() {
        assert!(Lsn(5) < Lsn(9));
        assert_eq!(Lsn(10).advance(32), Lsn(42));
        assert_eq!(format!("{}", Lsn(7)), "lsn:7");
    }

    #[test]
    fn body_read_write_round_trips() {
        let mut p = Page::new(PageId::new(1, 1));
        p.write_body(100, b"hello face");
        assert_eq!(p.read_body(100, 10), b"hello face");
        assert_eq!(p.body().len(), PAGE_BODY_SIZE);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn body_write_past_end_panics() {
        let mut p = Page::new(PageId::new(0, 0));
        p.write_body(PAGE_BODY_SIZE - 2, b"xxxx");
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut p = Page::new(PageId::new(2, 9));
        p.write_body(0, b"important data");
        p.set_lsn(Lsn(55));
        p.update_checksum();
        assert!(p.verify_checksum());

        // Corrupt one body byte.
        let mut corrupted = p.clone();
        corrupted.as_bytes_mut()[PAGE_HEADER_SIZE + 3] ^= 0xFF;
        assert!(!corrupted.verify_checksum());

        // Corrupt the header (LSN).
        let mut corrupted = p.clone();
        corrupted.set_lsn(Lsn(56));
        assert!(!corrupted.verify_checksum());

        // Corrupt the stored checksum itself.
        let mut corrupted = p.clone();
        corrupted.as_bytes_mut()[OFF_CHECKSUM] ^= 1;
        assert!(!corrupted.verify_checksum());
    }

    #[test]
    fn checksum_counts_its_own_field_as_zero() {
        let mut p = Page::new(PageId::new(2, 9));
        p.write_body(17, b"payload");
        p.update_checksum();
        let stored = u32::from_le_bytes(
            p.as_bytes()[OFF_CHECKSUM..OFF_CHECKSUM + 4]
                .try_into()
                .unwrap(),
        );
        let mut zeroed = *p.as_bytes();
        zeroed[OFF_CHECKSUM..OFF_CHECKSUM + 4].fill(0);
        assert_eq!(stored, crate::crc32(&zeroed));
        // Recomputing over a page that already carries a checksum is stable.
        p.update_checksum();
        assert!(p.verify_checksum());
        assert_eq!(
            p.as_bytes()[OFF_CHECKSUM..OFF_CHECKSUM + 4],
            stored.to_le_bytes()
        );
    }

    #[test]
    fn from_bytes_preserves_content() {
        let mut p = Page::new(PageId::new(4, 4));
        p.write_body(10, b"roundtrip");
        p.update_checksum();
        let copy = Page::from_bytes(*p.as_bytes());
        assert_eq!(copy.id(), PageId::new(4, 4));
        assert!(copy.verify_checksum());
        assert_eq!(copy.read_body(10, 9), b"roundtrip");
    }

    #[test]
    fn header_body_do_not_overlap() {
        let mut p = Page::new(PageId::new(9, 9));
        // Fill the entire body; header fields must be unaffected.
        let body = vec![0xCD; PAGE_BODY_SIZE];
        p.write_body(0, &body);
        assert_eq!(p.id(), PageId::new(9, 9));
        assert!(p.is_formatted());
    }
}
