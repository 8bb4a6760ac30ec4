//! Fixed-size pages with a self-describing header.
//!
//! ## The checksum
//!
//! The header checksum is [`crate::crc32`] over the page with the checksum
//! field counted as zero. (Builds before PR 15 stored a byte-serial FNV-1a
//! there; a `FilePageStore` directory they wrote does not verify, and there
//! is no migration.) Nothing keeps it current while a page is being edited:
//! a DRAM frame's checksum is stale from its first update on. It is stamped
//! ([`Page::update_checksum`]) **once per trip down the hierarchy, on the
//! private copy made when the page leaves DRAM** — the buffer pool's
//! eviction or checkpoint hands the tier a `&Page`, the tier copies it into
//! the frame it stages and stamps that copy. Every later hop (pending group,
//! flash slot, copy in transit, destage queue, disk) moves or shares those same
//! bytes, so the stamp is still right when they reach a page store, and a
//! store verifies it ([`crate::store::validate_read`]) on every read.
//!
//! ## Who owns a buffer
//!
//! A `Page` owns one 4 KiB heap buffer for its whole life and hands it back
//! when it drops — not to the allocator but to a **bounded free list**, from
//! which the next [`Page::new`], [`Page::zeroed`], [`Page::from_bytes`] or
//! `clone` takes it. Pages are created and dropped at every crossing of the
//! DRAM boundary (a miss's placeholder, an eviction's staged copy, a flash
//! read's result), often on different threads (a client stages, a destager
//! drops), and going to the allocator each time cost more than the copy.
//!
//! The list has two levels. Each thread keeps up to
//! [`THREAD_CACHE_BUFFERS`] buffers to itself and touches no lock while it
//! has some (or room for some). An empty cache refills from, and a full one
//! spills to, one shared list of at most [`SHARED_BUFFERS`] buffers
//! (2 MiB) behind a lock of class `page_buffers` — the innermost class, since
//! a `Page` can be dropped under any other lock. Whatever does not fit is
//! freed, a thread's cache is freed when the thread exits, and an empty list
//! falls back to the allocator, so the list bounds what is *retained* and
//! never what can be allocated. A recycled buffer holds its previous
//! contents until its new owner overwrites them: `new`/`zeroed` zero it,
//! `from_bytes`/`clone` copy over all of it.

use std::cell::RefCell;
use std::fmt;
use std::mem::ManuallyDrop;
use std::sync::LazyLock;

use face_analysis::classes::PAGE_BUFFERS;
use face_analysis::OrderedMutex;
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
    let h = key.wrapping_mul(crate::idhash::GOLDEN);
    ((h >> 32) as usize) % stripes.max(1)
}

type Buffer = Box<[u8; PAGE_SIZE]>;

/// Buffers a thread keeps to itself before it touches the shared list.
pub const THREAD_CACHE_BUFFERS: usize = 32;

/// Bound on the shared free list: 512 buffers, 2 MiB.
pub const SHARED_BUFFERS: usize = 512;

/// Buffers moved per refill or spill, so the shared lock is taken once per
/// this many pages and not once per page.
const TRANSFER_BUFFERS: usize = THREAD_CACHE_BUFFERS / 2;

static SHARED_FREE: LazyLock<OrderedMutex<Vec<Buffer>>> =
    LazyLock::new(|| OrderedMutex::new(PAGE_BUFFERS, Vec::with_capacity(SHARED_BUFFERS)));

thread_local! {
    /// Dropped with the thread, which frees what it holds.
    static THREAD_FREE: RefCell<Vec<Buffer>> = const { RefCell::new(Vec::new()) };
}

/// A recycled buffer with stale contents, if the free list has one.
fn recycled_buffer() -> Option<Buffer> {
    THREAD_FREE
        .try_with(|cache| {
            let mut cache = cache.borrow_mut();
            if cache.is_empty() {
                let mut shared = SHARED_FREE.lock();
                let keep = shared.len().saturating_sub(TRANSFER_BUFFERS);
                cache.extend(shared.drain(keep..));
            }
            cache.pop()
        })
        // A thread that is already tearing its locals down allocates.
        .ok()
        .flatten()
}

/// Hand a buffer to the free list, or free it when the list is full (or this
/// thread's cache is already gone).
fn recycle_buffer(buffer: Buffer) {
    let _ = THREAD_FREE.try_with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.len() >= THREAD_CACHE_BUFFERS {
            let spill = cache.len() - TRANSFER_BUFFERS;
            let mut shared = SHARED_FREE.lock();
            let room = SHARED_BUFFERS.saturating_sub(shared.len());
            // What the shared list has no room for is freed with the drain.
            shared.extend(cache.drain(spill..).take(room));
        }
        cache.push(buffer);
    });
}

/// A 4 KiB page: header plus body.
///
/// `Page` is a plain byte buffer with typed accessors, so it can be written
/// to and read from storage without any serialisation step. Its buffer comes
/// from, and returns to, the free list of the module docs.
pub struct Page {
    /// Always present; `ManuallyDrop` only so `drop` can move it out.
    bytes: ManuallyDrop<Buffer>,
}

impl Page {
    /// A page over a buffer whose every byte the caller is about to write.
    fn for_overwrite() -> Self {
        let buffer = recycled_buffer().unwrap_or_else(|| Box::new([0u8; PAGE_SIZE]));
        Self {
            bytes: ManuallyDrop::new(buffer),
        }
    }

    /// A zeroed page with a valid header for `id`.
    pub fn new(id: PageId) -> Self {
        let mut p = Self::zeroed();
        p.set_id(id);
        p
    }

    /// An entirely zeroed page (no valid header). Used as a read target.
    pub fn zeroed() -> Self {
        let mut p = Self::for_overwrite();
        p.bytes.fill(0);
        p
    }

    /// Build a page from raw bytes (e.g. read from a file).
    pub fn from_bytes(bytes: [u8; PAGE_SIZE]) -> Self {
        let mut p = Self::for_overwrite();
        **p.bytes = bytes;
        p
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

    /// Compute and store the checksum. Call on the private copy made when
    /// the page leaves DRAM (see the module docs), or just before writing a
    /// page built by hand to storage.
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

impl Clone for Page {
    fn clone(&self) -> Self {
        let mut p = Self::for_overwrite();
        p.clone_from(self);
        p
    }

    /// Copy `source`'s bytes into this page's own buffer: no buffer changes
    /// hands. The way to fill a caller's read target from a stored page.
    fn clone_from(&mut self, source: &Self) {
        self.bytes.copy_from_slice(source.bytes.as_slice());
    }
}

impl Drop for Page {
    fn drop(&mut self) {
        // SAFETY: `drop` runs at most once and nothing touches `self.bytes`
        // after it, so the buffer is moved out exactly once and never used
        // through `self` again.
        recycle_buffer(unsafe { ManuallyDrop::take(&mut self.bytes) });
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

    /// The checksum of one fixed page, recorded at the commit before the
    /// carry-less-multiply CRC path existed: a page file written then still
    /// verifies now.
    #[test]
    fn checksum_of_a_fixed_page_is_the_recorded_literal() {
        let mut p = Page::new(PageId::new(7, 42));
        p.set_lsn(Lsn(0x0123_4567_89AB));
        p.set_flags(0x5A);
        let body: Vec<u8> = (0..PAGE_BODY_SIZE as u32)
            .map(|i| (i * 31 + 7) as u8)
            .collect();
        p.write_body(0, &body);
        p.update_checksum();
        assert_eq!(p.read_u32(OFF_CHECKSUM), 0x732E_BE5C);
        assert_eq!(
            p.as_bytes()[..PAGE_HEADER_SIZE],
            [
                78, 202, 206, 250, 7, 0, 0, 0, 42, 0, 0, 0, 171, 137, 103, 69, 35, 1, 0, 0, 92,
                190, 46, 115, 90, 0, 0, 0, 0, 0, 0, 0
            ]
        );
        assert!(p.verify_checksum());
    }

    fn dirty_page() -> Page {
        let mut p = Page::zeroed();
        p.as_bytes_mut().fill(0xEE);
        p
    }

    fn shared_free_len() -> usize {
        SHARED_FREE.lock().len()
    }

    #[test]
    fn a_recycled_buffer_comes_back_zeroed() {
        drop(dirty_page());
        let z = Page::zeroed();
        assert!(z.as_bytes().iter().all(|&b| b == 0));
        drop(dirty_page());
        let n = Page::new(PageId::new(3, 9));
        assert_eq!(n.id(), PageId::new(3, 9));
        assert!(n.as_bytes()[OFF_LSN..].iter().all(|&b| b == 0));
        // And the copying constructors overwrite every byte.
        drop(dirty_page());
        let mut src = Page::new(PageId::new(1, 1));
        src.write_body(0, b"copied");
        assert_eq!(src.clone().as_bytes(), src.as_bytes());
        drop(dirty_page());
        assert_eq!(Page::from_bytes(*src.as_bytes()).as_bytes(), src.as_bytes());
        let mut target = dirty_page();
        target.clone_from(&src);
        assert_eq!(target.as_bytes(), src.as_bytes());
    }

    #[test]
    fn the_free_list_is_bounded() {
        let pages: Vec<Page> = (0..10_000).map(|_| dirty_page()).collect();
        drop(pages);
        assert!(shared_free_len() <= SHARED_BUFFERS);
        let cached = THREAD_FREE.with(|c| c.borrow().len());
        assert!(cached <= THREAD_CACHE_BUFFERS, "{cached} buffers cached");
    }

    /// The client → destager flow: one thread allocates, another drops, and
    /// both exit with buffers still in their caches.
    #[test]
    fn pages_cross_threads_and_threads_exit_with_cached_buffers() {
        let (tx, rx) = std::sync::mpsc::channel::<Page>();
        let consumer = std::thread::spawn(move || {
            let mut seen = 0usize;
            for page in rx {
                assert!(page.as_bytes().iter().all(|&b| b == 0xEE));
                seen += 1;
            }
            assert!(THREAD_FREE.with(|c| !c.borrow().is_empty()));
            seen
        });
        let producer = std::thread::spawn(move || {
            for _ in 0..5_000 {
                tx.send(dirty_page()).unwrap();
            }
            // A few dropped here too, so this thread also exits with a cache.
            drop((0..8).map(|_| dirty_page()).collect::<Vec<_>>());
        });
        producer.join().unwrap();
        assert_eq!(consumer.join().unwrap(), 5_000);
        assert!(shared_free_len() <= SHARED_BUFFERS);
        // The list still serves pages after both threads are gone.
        assert!(Page::zeroed().as_bytes().iter().all(|&b| b == 0));
    }
}
