//! Storage for the flash-resident cache frames.
//!
//! The cache policies address the flash device as an array of page *slots*
//! (frame numbers). A [`FlashStore`] holds the actual bytes of those slots;
//! the [`NullFlashStore`] holds nothing and is used in metadata-only
//! simulation mode.
//!
//! All data operations are fallible: reads and writes return
//! [`DeviceResult`], so a worn-out or injected-faulty device reports a typed
//! [`face_pagestore::DeviceError`] instead of panicking or silently
//! conflating "empty slot"
//! with "unreadable slot". The [`InstrumentedFlashStore`] view puts a
//! device's [`DeviceHooks`] (lockdep check, service time, seeded faults)
//! over any store.

use std::sync::Arc;

use face_analysis::classes::FLASH_SLOTS;
use face_analysis::OrderedRwLock;
use face_pagestore::{Counter, DeviceHooks, DeviceResult, HookOp, Page, PageId};

/// Storage for flash cache slots.
pub trait FlashStore: Send + Sync {
    /// Number of page slots.
    fn capacity(&self) -> usize;

    /// Write a page into `slot`. On error nothing is guaranteed to have
    /// reached the medium.
    fn write_slot(&self, slot: usize, page: &Page) -> DeviceResult<()>;

    /// Write a batch of pages into consecutive slots starting at `start_slot`
    /// (wrapping around the capacity), modelling FaCE's single batch-sized
    /// sequential write. On error a *prefix* of the batch may have been
    /// persisted (torn write) — callers must not seal metadata for the batch.
    fn write_slots(&self, start_slot: usize, pages: &[Page]) -> DeviceResult<()> {
        for (i, p) in pages.iter().enumerate() {
            self.write_slot((start_slot + i) % self.capacity(), p)?;
        }
        Ok(())
    }

    /// Write an explicit (slot, page) batch as one sequential device
    /// operation — the destage pipeline's group write, whose slots were
    /// assigned consecutively at the queue rear (possibly wrapping).
    /// [`InstrumentedFlashStore`] overrides this to bill the batch once
    /// instead of per page. Same torn-write caveat as
    /// [`FlashStore::write_slots`].
    fn write_batch(&self, writes: &[(usize, &Page)]) -> DeviceResult<()> {
        for (slot, page) in writes {
            self.write_slot(*slot, page)?;
        }
        Ok(())
    }

    /// Read the page stored in `slot`. `Ok(None)` means the slot is empty —
    /// distinct from `Err`, which means the slot (or device) failed to read.
    fn read_slot(&self, slot: usize) -> DeviceResult<Option<Page>>;

    /// Read the pages stored in `slots` as one device operation — the group
    /// dequeue's single batch-sized read (paper §3.3). Results come back in
    /// the order of `slots`. On error nothing is returned; the error names at
    /// most one slot, so a caller that needs to know *which* slot is bad
    /// re-reads them one by one. [`InstrumentedFlashStore`] overrides this to
    /// bill the batch once instead of per page; the default reads slot by
    /// slot.
    fn read_batch(&self, slots: &[usize]) -> DeviceResult<Vec<Option<Page>>> {
        slots.iter().map(|&slot| self.read_slot(slot)).collect()
    }

    /// The id and LSN of the page stored in `slot`, without the body. Used by
    /// recovery to rebuild metadata from page headers (paper §4.2). An
    /// unreadable slot reports `None` — recovery simply does not re-admit it.
    fn slot_header(&self, slot: usize) -> Option<(PageId, face_pagestore::Lsn)> {
        self.read_slot(slot)
            .ok()
            .flatten()
            .map(|p| (p.id(), p.lsn()))
    }

    /// Note which page (and pageLSN) now occupies `slot`. Data-carrying
    /// stores can ignore this (the header is inside the page); header-only
    /// stores use it so that recovery's page-header scan works without
    /// storing page bodies.
    fn note_slot_header(&self, _slot: usize, _page: PageId, _lsn: face_pagestore::Lsn) {}

    /// Whether this store keeps page data (false for the null store).
    fn carries_data(&self) -> bool;

    /// Drop every slot (used to model a brand-new cache device).
    fn clear(&self);

    /// Invalidate a single slot: its bytes and header become unreadable, as
    /// if the frame were trimmed. Recovery uses this when it discards a
    /// version that outran the durable log — leaving the bytes readable
    /// would let a *later* recovery's header scan resurrect the dead
    /// timeline once the (reused) LSN range becomes durable again.
    fn clear_slot(&self, _slot: usize) {}

    /// Lifetime count of page-program operations this device has absorbed —
    /// the flash-wear tally behind
    /// [`crate::types::CacheStats::flash_pages_written`]. Monotonic (a
    /// [`FlashStore::clear`] does not rewind it) and readable lock-free, so
    /// [`crate::ShardedFlashCache::stats`] can surface it without sweeping
    /// the shard locks. Header-only and null stores count their header notes
    /// (the metadata-granularity stand-in for the page program); wrappers
    /// must delegate.
    fn pages_written(&self) -> u64 {
        0
    }
}

/// An in-memory flash store: one optional page per slot.
///
/// This doubles as the "durable" flash device in crash-simulation tests: a
/// crash drops the DRAM buffer and the in-memory metadata directory but keeps
/// the `MemFlashStore` contents, exactly like a real non-volatile SSD.
///
/// A slot keeps its buffer once written: programming it again **overwrites
/// the stored bytes in place**, so the slot lock covers one 4 KiB copy per
/// page and no allocation. A batch — [`FlashStore::write_batch`] and
/// [`FlashStore::read_batch`] — takes the lock once for all of its pages.
pub struct MemFlashStore {
    slots: OrderedRwLock<Vec<Option<Page>>>,
    written: Counter,
}

impl MemFlashStore {
    /// A store with `capacity` empty slots.
    pub fn new(capacity: usize) -> Self {
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || None);
        Self {
            slots: OrderedRwLock::new(FLASH_SLOTS, slots),
            written: Counter::default(),
        }
    }

    /// Number of occupied slots (diagnostic).
    pub fn occupied(&self) -> usize {
        self.slots.read().iter().filter(|s| s.is_some()).count()
    }
}

impl FlashStore for MemFlashStore {
    fn capacity(&self) -> usize {
        self.slots.read().len()
    }

    fn write_slot(&self, slot: usize, page: &Page) -> DeviceResult<()> {
        self.write_batch(&[(slot, page)])
    }

    fn write_batch(&self, writes: &[(usize, &Page)]) -> DeviceResult<()> {
        self.written.add(writes.len() as u64);
        let mut slots = self.slots.write();
        let len = slots.len();
        for &(slot, page) in writes {
            match &mut slots[slot % len] {
                Some(stored) => stored.clone_from(page),
                empty => *empty = Some(page.clone()),
            }
        }
        Ok(())
    }

    fn read_slot(&self, slot: usize) -> DeviceResult<Option<Page>> {
        let slots = self.slots.read();
        Ok(slots.get(slot % slots.len().max(1)).cloned().flatten())
    }

    fn read_batch(&self, slots: &[usize]) -> DeviceResult<Vec<Option<Page>>> {
        let stored = self.slots.read();
        let len = stored.len().max(1);
        Ok(slots
            .iter()
            .map(|slot| stored.get(slot % len).cloned().flatten())
            .collect())
    }

    fn carries_data(&self) -> bool {
        true
    }

    fn clear(&self) {
        let mut slots = self.slots.write();
        for s in slots.iter_mut() {
            *s = None;
        }
    }

    fn clear_slot(&self, slot: usize) {
        let mut slots = self.slots.write();
        let len = slots.len();
        if len > 0 {
            slots[slot % len] = None;
        }
    }

    fn pages_written(&self) -> u64 {
        self.written.get()
    }
}

/// A store that keeps only the page id and pageLSN of each slot — what a real
/// flash device's page headers would reveal to a recovery scan — but no page
/// bodies. The performance simulation uses this so that multi-gigabyte flash
/// caches cost only a few bytes per slot while recovery experiments still
/// exercise the paper's §4.2 header-scan path.
pub struct HeaderFlashStore {
    headers: OrderedRwLock<Vec<Option<(PageId, face_pagestore::Lsn)>>>,
    written: Counter,
}

impl HeaderFlashStore {
    /// A header-only store with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        let mut headers = Vec::with_capacity(capacity);
        headers.resize_with(capacity, || None);
        Self {
            headers: OrderedRwLock::new(FLASH_SLOTS, headers),
            written: Counter::default(),
        }
    }
}

impl FlashStore for HeaderFlashStore {
    fn capacity(&self) -> usize {
        self.headers.read().len()
    }

    fn write_slot(&self, slot: usize, page: &Page) -> DeviceResult<()> {
        self.written.inc();
        let mut headers = self.headers.write();
        let len = headers.len();
        headers[slot % len] = Some((page.id(), page.lsn()));
        Ok(())
    }

    fn read_slot(&self, _slot: usize) -> DeviceResult<Option<Page>> {
        Ok(None)
    }

    fn slot_header(&self, slot: usize) -> Option<(PageId, face_pagestore::Lsn)> {
        let headers = self.headers.read();
        *headers.get(slot)?
    }

    fn note_slot_header(&self, slot: usize, page: PageId, lsn: face_pagestore::Lsn) {
        // In header-only mode the note *is* the page program — the policies
        // skip `write_slot` when the store carries no data.
        self.written.inc();
        let mut headers = self.headers.write();
        let len = headers.len();
        headers[slot % len] = Some((page, lsn));
    }

    fn carries_data(&self) -> bool {
        false
    }

    fn clear(&self) {
        for h in self.headers.write().iter_mut() {
            *h = None;
        }
    }

    fn clear_slot(&self, slot: usize) {
        let mut headers = self.headers.write();
        let len = headers.len();
        if len > 0 {
            headers[slot % len] = None;
        }
    }

    fn pages_written(&self) -> u64 {
        self.written.get()
    }
}

/// A boolean gate that parks callers until it opens. Poisoning is erased
/// (a panicking holder cannot corrupt a `bool`), so no path here can panic
/// a second thread.
struct Gate {
    open: std::sync::Mutex<bool>,
    cv: std::sync::Condvar,
    /// Calls that have arrived at the gate, parked or not.
    arrivals: Counter,
}

impl Gate {
    fn new(open: bool) -> Self {
        Self {
            open: std::sync::Mutex::new(open),
            cv: std::sync::Condvar::new(),
            arrivals: Counter::default(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, bool> {
        self.open
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn release(&self) {
        *self.lock() = true;
        self.cv.notify_all();
    }

    fn hold(&self) {
        *self.lock() = false;
    }

    fn wait(&self) {
        let guard = self.lock();
        self.arrivals.inc();
        let _guard = self
            .cv
            .wait_while(guard, |open| !*open)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

/// A test instrument: a data-carrying flash store whose **writes block**
/// until [`GateFlashStore::release`] opens the write gate, and whose
/// **reads** can likewise be parked with [`GateFlashStore::hold_reads`] /
/// [`GateFlashStore::release_reads`] (the read gate starts open).
///
/// This is how the no-device-I/O-under-lock acceptance gates and the
/// in-pipeline crash-point tests park a device operation mid-flight: close a
/// gate, drive the system, observe that foreground operations proceed (or
/// that a lock-light reader parked inside a device read blocks nobody), then
/// release.
pub struct GateFlashStore {
    inner: MemFlashStore,
    writes: Gate,
    reads: Gate,
}

impl GateFlashStore {
    /// A gated store with `capacity` slots; the **write** gate starts
    /// closed, the read gate open.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: MemFlashStore::new(capacity),
            writes: Gate::new(false),
            reads: Gate::new(true),
        }
    }

    /// Open the write gate: blocked writers proceed, later writers never
    /// wait.
    pub fn release(&self) {
        self.writes.release();
    }

    /// Close the write gate again: subsequent slot writes park until
    /// [`GateFlashStore::release`].
    pub fn hold_writes(&self) {
        self.writes.hold();
    }

    /// How many write calls (a [`FlashStore::write_batch`] is one call) have
    /// arrived at the write gate. With the gate held, tests poll this to know
    /// a writer is parked.
    pub fn write_calls(&self) -> u64 {
        self.writes.arrivals.get()
    }

    /// Close the read gate: subsequent slot reads park until
    /// [`GateFlashStore::release_reads`].
    pub fn hold_reads(&self) {
        self.reads.hold();
    }

    /// Open the read gate: parked readers proceed.
    pub fn release_reads(&self) {
        self.reads.release();
    }

    /// How many read calls (a [`FlashStore::read_batch`] is one call) have
    /// arrived at the read gate. With the gate held, tests poll this to know
    /// a reader is parked; afterwards it is the number of device read
    /// operations issued.
    pub fn read_calls(&self) -> u64 {
        self.reads.arrivals.get()
    }
}

impl FlashStore for GateFlashStore {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn write_slot(&self, slot: usize, page: &Page) -> DeviceResult<()> {
        self.writes.wait();
        self.inner.write_slot(slot, page)
    }

    fn write_batch(&self, writes: &[(usize, &Page)]) -> DeviceResult<()> {
        self.writes.wait();
        self.inner.write_batch(writes)
    }

    fn read_slot(&self, slot: usize) -> DeviceResult<Option<Page>> {
        self.reads.wait();
        self.inner.read_slot(slot)
    }

    fn read_batch(&self, slots: &[usize]) -> DeviceResult<Vec<Option<Page>>> {
        self.reads.wait();
        self.inner.read_batch(slots)
    }

    fn carries_data(&self) -> bool {
        true
    }

    fn clear(&self) {
        self.inner.clear();
    }

    fn clear_slot(&self, slot: usize) {
        self.inner.clear_slot(slot);
    }

    fn pages_written(&self) -> u64 {
        self.inner.pages_written()
    }
}

/// A flash store that keeps no data. Reads return `None`; writes are
/// accepted and dropped. Metadata-only simulation uses this so that caches of
/// millions of slots cost only their metadata.
#[derive(Debug, Clone)]
pub struct NullFlashStore {
    capacity: usize,
    /// Shared across clones: a clone models another handle to the same
    /// device, not a second device.
    written: Arc<Counter>,
}

impl NullFlashStore {
    /// A data-less store with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            written: Arc::new(Counter::default()),
        }
    }
}

impl FlashStore for NullFlashStore {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn write_slot(&self, _slot: usize, _page: &Page) -> DeviceResult<()> {
        self.written.inc();
        Ok(())
    }

    fn note_slot_header(&self, _slot: usize, _page: PageId, _lsn: face_pagestore::Lsn) {
        // Like the header store: the note is the metadata-granularity page
        // program in data-less simulation mode.
        self.written.inc();
    }

    fn read_slot(&self, _slot: usize) -> DeviceResult<Option<Page>> {
        Ok(None)
    }

    fn carries_data(&self) -> bool {
        false
    }

    fn clear(&self) {}

    fn pages_written(&self) -> u64 {
        self.written.get()
    }
}

/// The instrumented [`FlashStore`] view: every slot read, slot or batch
/// write and whole-device `clear` goes through [`DeviceHooks::admit`] (see
/// its module docs for the order); header notes, slot clears, capacity and
/// the wear tally pass straight through — they are bookkeeping, not data I/O.
pub struct InstrumentedFlashStore {
    inner: Arc<dyn FlashStore>,
    hooks: DeviceHooks,
}

impl InstrumentedFlashStore {
    /// `inner` behind `hooks` — or `inner` itself when the hooks are inert.
    pub fn wrap(inner: Arc<dyn FlashStore>, hooks: DeviceHooks) -> Arc<dyn FlashStore> {
        if hooks.is_inert() {
            return inner;
        }
        Arc::new(Self { inner, hooks })
    }
}

impl FlashStore for InstrumentedFlashStore {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn write_slot(&self, slot: usize, page: &Page) -> DeviceResult<()> {
        self.hooks
            .admit("flash.write_slot", HookOp::Write, Some(slot))?;
        self.inner.write_slot(slot, page)
    }

    fn write_slots(&self, start_slot: usize, pages: &[Page]) -> DeviceResult<()> {
        let write = |part: &[Page]| self.inner.write_slots(start_slot, part);
        self.hooks
            .admit_batch("flash.write_slots", Some(start_slot), pages, write)
    }

    fn write_batch(&self, writes: &[(usize, &Page)]) -> DeviceResult<()> {
        let first_slot = writes.first().map(|(s, _)| *s);
        let write = |part: &[(usize, &Page)]| self.inner.write_batch(part);
        self.hooks
            .admit_batch("flash.write_batch", first_slot, writes, write)
    }

    fn read_slot(&self, slot: usize) -> DeviceResult<Option<Page>> {
        self.hooks
            .admit("flash.read_slot", HookOp::Read, Some(slot))?;
        self.inner.read_slot(slot)
    }

    fn read_batch(&self, slots: &[usize]) -> DeviceResult<Vec<Option<Page>>> {
        // One sequential read: one check, one read time and one fault
        // decision on the first slot, as `write_batch` is one write.
        self.hooks
            .admit("flash.read_batch", HookOp::Read, slots.first().copied())?;
        self.inner.read_batch(slots)
    }

    fn slot_header(&self, slot: usize) -> Option<(PageId, face_pagestore::Lsn)> {
        self.hooks
            .admit("flash.slot_header", HookOp::HeaderRead, Some(slot))
            .ok()?;
        self.inner.slot_header(slot)
    }

    fn note_slot_header(&self, slot: usize, page: PageId, lsn: face_pagestore::Lsn) {
        self.inner.note_slot_header(slot, page, lsn);
    }

    fn carries_data(&self) -> bool {
        self.inner.carries_data()
    }

    fn clear(&self) {
        // A control operation: checked, never faulted, and infallible.
        let _ = self.hooks.admit("flash.clear", HookOp::Sync, None);
        self.inner.clear();
    }

    fn clear_slot(&self, slot: usize) {
        self.inner.clear_slot(slot);
    }

    fn pages_written(&self) -> u64 {
        self.inner.pages_written()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use face_pagestore::{DeviceErrorKind, FaultMode, FaultPlan, Lsn};
    use std::time::{Duration, Instant};

    #[test]
    fn mem_store_round_trips_pages() {
        let store = MemFlashStore::new(8);
        assert_eq!(store.capacity(), 8);
        assert!(store.carries_data());
        assert!(store.read_slot(3).unwrap().is_none());

        let mut page = Page::new(PageId::new(1, 7));
        page.set_lsn(Lsn(5));
        page.write_body(0, b"cached");
        store.write_slot(3, &page).unwrap();
        let out = store.read_slot(3).unwrap().unwrap();
        assert_eq!(out.id(), PageId::new(1, 7));
        assert_eq!(out.read_body(0, 6), b"cached");
        assert_eq!(store.slot_header(3), Some((PageId::new(1, 7), Lsn(5))));
        assert_eq!(store.occupied(), 1);

        store.clear();
        assert_eq!(store.occupied(), 0);
    }

    #[test]
    fn batch_write_wraps_around() {
        let store = MemFlashStore::new(4);
        let pages: Vec<Page> = (0..3).map(|i| Page::new(PageId::new(0, i))).collect();
        store.write_slots(3, &pages).unwrap();
        // Slots 3, 0, 1 are now occupied.
        assert_eq!(store.read_slot(3).unwrap().unwrap().id(), PageId::new(0, 0));
        assert_eq!(store.read_slot(0).unwrap().unwrap().id(), PageId::new(0, 1));
        assert_eq!(store.read_slot(1).unwrap().unwrap().id(), PageId::new(0, 2));
        assert!(store.read_slot(2).unwrap().is_none());
    }

    fn marked(page_no: u32, marker: u8) -> Page {
        let mut p = Page::new(PageId::new(0, page_no));
        p.write_body(0, &[marker; 32]);
        p
    }

    #[test]
    fn overwriting_a_slot_in_place_reads_back_the_new_bytes() {
        let store = MemFlashStore::new(4);
        for marker in 1..=3u8 {
            let mut page = marked(marker as u32, marker);
            store.write_slot(2, &page).unwrap();
            // The caller's page is only read from.
            page.write_body(0, &[0xFF; 32]);
            assert_eq!(store.occupied(), 1);
            let out = store.read_slot(2).unwrap().unwrap();
            assert_eq!(out.id(), PageId::new(0, marker as u32));
            assert_eq!(out.read_body(0, 32), [marker; 32]);
        }
        assert_eq!(store.pages_written(), 3);
    }

    #[test]
    fn write_batch_equals_the_same_write_slot_sequence() {
        let pages: Vec<Page> = (0..6).map(|i| marked(i, i as u8 + 1)).collect();
        // Slots beyond the capacity wrap, and slot 1 is written twice: the
        // later write wins in both stores.
        let slots = [3usize, 4, 5, 1, 9, 2];
        let batch: Vec<(usize, &Page)> = slots.iter().copied().zip(&pages).collect();

        let batched = MemFlashStore::new(4);
        batched.write_batch(&batch).unwrap();
        let serial = MemFlashStore::new(4);
        for (slot, page) in &batch {
            serial.write_slot(*slot, page).unwrap();
        }
        assert_eq!(batched.pages_written(), 6);
        assert_eq!(serial.pages_written(), 6);
        assert_eq!(batched.occupied(), serial.occupied());
        for slot in 0..4 {
            let (a, b) = (
                batched.read_slot(slot).unwrap(),
                serial.read_slot(slot).unwrap(),
            );
            assert_eq!(
                a.as_ref().map(|p| p.as_bytes()),
                b.as_ref().map(|p| p.as_bytes()),
                "slot {slot}"
            );
        }
        assert_eq!(
            batched.read_slot(1).unwrap().unwrap().id(),
            PageId::new(0, 4)
        );
        assert_eq!(
            batched.read_batch(&[5, 0]).unwrap()[0]
                .as_ref()
                .unwrap()
                .id(),
            PageId::new(0, 4)
        );
        batched.write_batch(&[]).unwrap();
        assert_eq!(batched.pages_written(), 6);
    }

    #[test]
    fn header_store_remembers_headers_only() {
        let store = HeaderFlashStore::new(16);
        assert_eq!(store.capacity(), 16);
        assert!(!store.carries_data());
        assert!(store.slot_header(3).is_none());

        let mut page = Page::new(PageId::new(2, 5));
        page.set_lsn(Lsn(77));
        store.write_slot(3, &page).unwrap();
        assert_eq!(store.slot_header(3), Some((PageId::new(2, 5), Lsn(77))));
        assert!(store.read_slot(3).unwrap().is_none(), "bodies are not kept");

        store.note_slot_header(4, PageId::new(9, 9), Lsn(1));
        assert_eq!(store.slot_header(4), Some((PageId::new(9, 9), Lsn(1))));
        store.clear();
        assert!(store.slot_header(3).is_none());
    }

    #[test]
    fn null_store_holds_nothing() {
        let store = NullFlashStore::new(1000);
        assert_eq!(store.capacity(), 1000);
        assert!(!store.carries_data());
        store.write_slot(5, &Page::new(PageId::new(0, 0))).unwrap();
        assert!(store.read_slot(5).unwrap().is_none());
        assert!(store.slot_header(5).is_none());
        store.clear();
    }

    #[test]
    fn pages_written_tallies_every_program_and_survives_clear() {
        let store = MemFlashStore::new(8);
        assert_eq!(store.pages_written(), 0);
        let page = Page::new(PageId::new(0, 1));
        store.write_slot(0, &page).unwrap();
        let pages: Vec<Page> = (0..3).map(|i| Page::new(PageId::new(0, i))).collect();
        store.write_slots(2, &pages).unwrap();
        store.write_batch(&[(6, &page), (7, &page)]).unwrap();
        assert_eq!(store.pages_written(), 6);
        store.clear();
        assert_eq!(store.pages_written(), 6, "wear tally is monotonic");

        // Header and null stores count their header notes — the page-program
        // stand-in when no bodies are kept.
        let header = HeaderFlashStore::new(4);
        header.note_slot_header(0, PageId::new(0, 1), Lsn(1));
        header.write_slot(1, &page).unwrap();
        assert_eq!(header.pages_written(), 2);

        let null = NullFlashStore::new(4);
        null.note_slot_header(0, PageId::new(0, 1), Lsn(1));
        let null2 = null.clone();
        null2.write_slot(1, &page).unwrap();
        assert_eq!(null.pages_written(), 2, "clones share the device tally");
    }

    /// `inner` behind a view whose only live hook is `plan`.
    fn faulty(inner: Arc<MemFlashStore>, plan: &Arc<FaultPlan>) -> Arc<dyn FlashStore> {
        let hooks = DeviceHooks {
            faults: Some(Arc::clone(plan)),
            ..DeviceHooks::default()
        };
        InstrumentedFlashStore::wrap(inner, hooks)
    }

    #[test]
    fn faulty_store_injects_typed_errors_and_passes_through_otherwise() {
        let plan = Arc::new(FaultPlan::new(9).fail_nth(2).permanent());
        let store = faulty(Arc::new(MemFlashStore::new(8)), &plan);
        let mut page = Page::new(PageId::new(0, 1));
        page.set_lsn(Lsn(3));

        store.write_slot(1, &page).unwrap();
        let err = store.write_slot(2, &page).unwrap_err();
        assert_eq!(err.kind, DeviceErrorKind::Permanent);
        assert_eq!(err.slot(), Some(2));
        assert_eq!(plan.faults_injected(), 1);

        // Op 3 passes; the earlier successful write is readable.
        assert_eq!(store.read_slot(1).unwrap().unwrap().id(), PageId::new(0, 1));
        // The failed write never reached the inner store.
        assert!(store.read_slot(2).unwrap().is_none());
    }

    #[test]
    fn torn_batch_persists_a_prefix_then_fails() {
        let inner = Arc::new(MemFlashStore::new(8));
        let plan = Arc::new(
            FaultPlan::new(1)
                .fail_nth(1)
                .mode(FaultMode::TornWrite)
                .transient(),
        );
        let store = faulty(inner.clone(), &plan);
        let pages: Vec<Page> = (0..4).map(|i| Page::new(PageId::new(0, i))).collect();
        let err = store.write_slots(0, &pages).unwrap_err();
        assert!(err.is_transient());
        // Half the batch landed; the rest did not.
        assert_eq!(inner.occupied(), 2);
        assert!(inner.read_slot(0).unwrap().is_some());
        assert!(inner.read_slot(3).unwrap().is_none());
    }

    /// The full chain on one group write: lockdep check on, a write service
    /// time, and a plan that tears the batch.
    #[test]
    fn torn_write_batch_through_the_full_chain_pays_once_and_persists_half() {
        let inner = Arc::new(MemFlashStore::new(8));
        let plan = Arc::new(
            FaultPlan::new(1)
                .fail_nth(1)
                .mode(FaultMode::TornWrite)
                .permanent(),
        );
        let write = Duration::from_millis(5);
        let hooks = DeviceHooks {
            write,
            faults: Some(Arc::clone(&plan)),
            check: true,
            ..DeviceHooks::default()
        };
        let store = InstrumentedFlashStore::wrap(inner.clone(), hooks);
        let pages: Vec<Page> = (0..6).map(|i| Page::new(PageId::new(0, i))).collect();
        let batch: Vec<(usize, &Page)> = pages.iter().enumerate().collect();

        let start = Instant::now();
        let err = store.write_batch(&batch).unwrap_err();
        assert!(start.elapsed() >= write, "a torn batch still pays");
        assert_eq!(err.kind, DeviceErrorKind::Permanent);
        assert_eq!(err.slot(), Some(0), "faults match on the first slot");
        // One batch is one admitted operation — one pause, one decision —
        // however many pages it carries.
        assert_eq!(plan.ops_observed(), 1);
        assert_eq!(inner.occupied(), 3, "first half persisted");
        for slot in 0..3 {
            let landed = inner.read_slot(slot).unwrap().unwrap();
            assert_eq!(landed.id(), PageId::new(0, slot as u32));
        }
        assert!(inner.read_slot(3).unwrap().is_none());
        assert_eq!(inner.pages_written(), 3);

        // A torn single-page write persists nothing.
        let plan = Arc::new(FaultPlan::new(1).fail_nth(1).mode(FaultMode::TornWrite));
        let inner = Arc::new(MemFlashStore::new(8));
        let store = faulty(inner.clone(), &plan);
        store.write_slot(0, &pages[0]).unwrap_err();
        assert_eq!(inner.occupied(), 0);
    }

    /// A batch read is one admitted operation: one read time, one decision
    /// on its first slot, and every slot's page back in request order.
    #[test]
    fn batch_read_through_the_full_chain_pays_and_decides_once() {
        let inner = Arc::new(MemFlashStore::new(8));
        let pages: Vec<Page> = (0..6).map(|i| Page::new(PageId::new(0, i))).collect();
        inner.write_slots(0, &pages).unwrap();
        // The second admitted operation fails, whichever it is.
        let plan = Arc::new(FaultPlan::new(1).fail_nth(2).permanent());
        let read = Duration::from_millis(5);
        let hooks = DeviceHooks {
            read,
            faults: Some(Arc::clone(&plan)),
            check: true,
            ..DeviceHooks::default()
        };
        let store = InstrumentedFlashStore::wrap(inner, hooks);

        let start = Instant::now();
        let got = store.read_batch(&[4, 1, 7, 3]).unwrap();
        assert!(start.elapsed() >= read);
        let ids: Vec<Option<u32>> = got
            .iter()
            .map(|p| p.as_ref().map(|p| p.id().page_no))
            .collect();
        assert_eq!(ids, [Some(4), Some(1), None, Some(3)]);
        assert_eq!(plan.ops_observed(), 1);

        let err = store.read_batch(&[5, 2]).unwrap_err();
        assert_eq!(err.slot(), Some(5), "faults match on the first slot");
        assert_eq!(plan.ops_observed(), 2);
    }

    #[test]
    fn faulty_header_scan_skips_unreadable_slots() {
        let inner = Arc::new(MemFlashStore::new(4));
        let mut page = Page::new(PageId::new(0, 1));
        page.set_lsn(Lsn(1));
        inner.write_slot(0, &page).unwrap();
        inner.write_slot(1, &page).unwrap();

        let plan = Arc::new(FaultPlan::new(2).fail_nth(1).permanent().reads_only());
        let store = faulty(inner, &plan);
        // First header scan hits the injected read fault → slot skipped...
        assert_eq!(store.slot_header(0), None);
        // ...later slots still scan fine.
        assert!(store.slot_header(1).is_some());
    }
}
