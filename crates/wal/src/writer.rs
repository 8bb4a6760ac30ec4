//! The log writer: LSN assignment, a group-commit buffer and forced flushes.
//!
//! What runs where:
//!
//! * **Off every lock** — a record is encoded, checksummed and framed into a
//!   per-thread scratch buffer ([`WalWriter::append`] for an owned
//!   [`LogRecord`], [`WalWriter::append_update`] / [`WalWriter::append_clr`]
//!   for images borrowed from a page, all three through the same routine, so
//!   the bytes are the same). No heap allocation per record.
//! * **Under the append mutex (`wal_append`)** — copying that frame onto the
//!   pending tail and advancing `next_lsn`; the flush leader's steal of the
//!   tail and, after its write, the hand-back of the spare buffer with the
//!   flush counters; `next_lsn()`, the statistics getters and
//!   `discard_unflushed`. Nothing else.
//! * **On two atomics** — the durable horizon and the poisoned flag. Only a
//!   flush leader (holding the flush lock) stores them, after its storage
//!   write and sync returned; everybody reads them without a lock:
//!   [`WalWriter::durable_lsn`], and [`WalWriter::force`] for an LSN that is
//!   already durable, which is what the write-ahead guard in front of every
//!   dirty eviction and stage-out calls.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use face_analysis::classes::{WAL_APPEND, WAL_FLUSH};
use face_analysis::OrderedMutex;
use face_pagestore::{Lsn, PageId};

use crate::codec::ByteWriter;
use crate::record::{encode_clr, encode_update, CheckpointData, LogRecord, TxnId};
use crate::storage::{LogStorage, WalError, WalResult};

#[derive(Debug, Default, Clone, Copy)]
struct WriterStats {
    records_appended: u64,
    forces: u64,
    bytes_flushed: u64,
}

/// Largest tail buffer kept for reuse after a flush. A burst can grow the
/// tail past this; such a buffer is freed when its flush completes and the
/// tail regrows from empty, so one burst does not pin its high-water mark.
const MAX_RETAINED_TAIL: usize = 1 << 20;

/// What a thread's frame scratch buffer starts with: room for the longest
/// frame header ([`crate::codec::MAX_FRAME_HEADER_SIZE`], 8 bytes) and the
/// engine's usual update (a dozen bytes of varint fields, two images of the
/// few bytes that changed), with room to spare. A full-slot insert (about
/// 272 bytes framed) grows it once and it stays grown.
const FRAME_SCRATCH: usize = 128;

/// Largest scratch buffer a thread keeps between records; one huge record (a
/// checkpoint listing thousands of transactions) does not stay pinned to
/// the thread that wrote it.
const MAX_RETAINED_SCRATCH: usize = 64 * 1024;

thread_local! {
    /// The appending thread's frame scratch buffer, empty while a frame is
    /// being built in it.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

struct WriterInner {
    /// Frames appended but not yet written to storage.
    pending: Vec<u8>,
    /// The other tail buffer: empty, with the capacity an earlier flush left
    /// it. A flush leader swaps it in for `pending` and hands the written
    /// buffer back here, so in steady state the two alternate and appends
    /// never grow a tail from nothing. Holds no capacity until the first
    /// flush, after a failed one, and after one that outgrew
    /// [`MAX_RETAINED_TAIL`].
    spare: Vec<u8>,
    /// LSN that will be assigned to the next record.
    next_lsn: Lsn,
    stats: WriterStats,
}

/// Appends records to the log, assigns LSNs and forces the tail on demand.
///
/// The writer implements the paper's (and every ARIES system's) commit rule:
/// a transaction's commit record — and everything before it — must be forced
/// to stable storage before the commit is acknowledged.
///
/// Group commit is leader-based: `force` steals the pending buffer under the
/// short append lock (swapping the retained spare buffer in, so the tail
/// keeps its capacity from flush to flush), then performs the physical write
/// under a separate flush lock so that *appends keep flowing while the device
/// is busy*. Committers
/// arriving mid-flush block on the flush lock; when they get in, either a
/// leader's write already covered their LSN (their force is a no-op — one
/// physical flush acknowledged many commits) or they become the next leader
/// and flush everything that accumulated, batch-sized.
pub struct WalWriter {
    storage: Arc<dyn LogStorage>,
    inner: OrderedMutex<WriterInner>,
    /// Serialises physical flushes; held across storage I/O, never while
    /// holding `inner`. Lock order: `flush_lock` → `inner`.
    flush_lock: OrderedMutex<()>,
    /// All records with LSN below this are durable in storage. Stored
    /// (`Release`) only by a flush leader, after its `append` + `sync`
    /// returned `Ok`; an `Acquire` load that sees a value therefore sees
    /// those bytes in storage — what lets a reader persist a page on the
    /// strength of it.
    durable_lsn: AtomicU64,
    /// A physical flush failed: the bytes it stole may or may not have
    /// reached storage, so no later flush can be allowed to write at what
    /// would now be a desynchronised offset — and no committer may be told
    /// its record is durable. Every subsequent force fails fast. Stored
    /// (`Release`) by the failing leader, never cleared.
    poisoned: AtomicBool,
    /// Commit-path forces that found their LSN already durable — a
    /// preceding leader's flush covered them (group commit piggy-backing).
    /// A statistic: `Relaxed`.
    piggybacked_forces: AtomicU64,
}

impl WalWriter {
    /// Create a writer appending to `storage`. The next LSN continues from
    /// the existing end of the log, so reopening after a crash keeps LSNs
    /// monotonic. Fails if the storage cannot report its length — guessing
    /// an end-of-log here would assign already-used LSNs.
    pub fn new(storage: Arc<dyn LogStorage>) -> WalResult<Self> {
        let end = Lsn(storage.len()?);
        Ok(Self {
            storage,
            inner: OrderedMutex::new(
                WAL_APPEND,
                WriterInner {
                    pending: Vec::new(),
                    spare: Vec::new(),
                    next_lsn: end,
                    stats: WriterStats::default(),
                },
            ),
            flush_lock: OrderedMutex::new(WAL_FLUSH, ()),
            durable_lsn: AtomicU64::new(end.0),
            poisoned: AtomicBool::new(false),
            piggybacked_forces: AtomicU64::new(0),
        })
    }

    /// Append a record to the in-memory log tail; returns its LSN.
    /// The record is *not* durable until a subsequent [`WalWriter::force`].
    pub fn append(&self, record: &LogRecord) -> Lsn {
        self.append_frame(|w| record.encode_into(w)).0
    }

    /// Append a [`LogRecord::Update`] whose images are borrowed — `after`
    /// from the page just written, `before` from the caller's stack — and
    /// return its LSN. The log receives exactly the bytes
    /// [`WalWriter::append`] writes for the owned record with these fields.
    pub fn append_update(
        &self,
        txn: TxnId,
        page: PageId,
        offset: u32,
        after: &[u8],
        before: &[u8],
        prev_lsn: Lsn,
    ) -> Lsn {
        self.append_frame(|w| encode_update(w, txn, page, offset, after, before, prev_lsn))
            .0
    }

    /// Append a [`LogRecord::Clr`] whose compensation image is borrowed (from
    /// the update record being undone); the counterpart of
    /// [`WalWriter::append_update`].
    pub fn append_clr(
        &self,
        txn: TxnId,
        page: PageId,
        offset: u32,
        data: &[u8],
        undo_next_lsn: Lsn,
    ) -> Lsn {
        self.append_frame(|w| encode_clr(w, txn, page, offset, data, undo_next_lsn))
            .0
    }

    /// Frame what `encode` writes and put it on the tail. Returns the
    /// record's LSN and the LSN one past it. Encoding, checksum and framing
    /// happen before the append lock is taken: callers hold a page latch
    /// here, and every other appender queues behind that lock.
    fn append_frame(&self, encode: impl FnOnce(&mut ByteWriter)) -> (Lsn, Lsn) {
        with_frame(encode, |frame| {
            let mut inner = self.inner.lock();
            let lsn = inner.next_lsn;
            inner.pending.extend_from_slice(frame);
            inner.next_lsn = lsn.advance(frame.len() as u64);
            inner.stats.records_appended += 1;
            (lsn, inner.next_lsn)
        })
    }

    /// Append a checkpoint record, force the log through it, and only then
    /// persist its LSN as the storage's restart anchor — an anchor never
    /// names a record that is not durable. Returns the record's LSN. When
    /// the anchor write fails the checkpoint record itself stands; restart
    /// falls back to the previous anchor or to a scan from LSN 0.
    pub fn append_checkpoint(&self, data: CheckpointData) -> WalResult<Lsn> {
        let lsn = self.append_and_force(&LogRecord::Checkpoint(data))?;
        self.storage.set_restart_anchor(lsn)?;
        Ok(lsn)
    }

    /// Append a record and immediately force the log through it — the
    /// commit-time path. When the force turns out to be a no-op because
    /// another leader's flush already covered this record, the commit is
    /// counted as piggy-backed ([`WalWriter::piggybacked_forces`]).
    pub fn append_and_force(&self, record: &LogRecord) -> WalResult<Lsn> {
        let (lsn, end) = self.append_frame(|w| record.encode_into(w));
        if !self.force(end)? {
            self.piggybacked_forces.fetch_add(1, Ordering::Relaxed);
        }
        Ok(lsn)
    }

    /// Whether every record below `upto` is durable, from the two atomics
    /// alone; `Err` once a flush has failed, whatever `upto` is.
    fn is_durable(&self, upto: Lsn) -> WalResult<bool> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(WalError::Poisoned);
        }
        Ok(upto.0 <= self.durable_lsn.load(Ordering::Acquire))
    }

    /// Force the log so that every record with LSN strictly below `upto` is
    /// durable. Forcing an already-durable LSN is a no-op that takes no
    /// lock.
    ///
    /// Returns `true` if a physical write was performed (the caller may want
    /// to charge a simulated log-device I/O only in that case). `false` means
    /// the LSN was already durable — under concurrency, usually because this
    /// committer piggy-backed on another leader's flush.
    pub fn force(&self, upto: Lsn) -> WalResult<bool> {
        // A force of an already-durable LSN must not queue behind a slow
        // device, nor behind the appenders. (An empty `pending` alone would
        // prove nothing here — the bytes may be riding in a leader's
        // in-flight write, which only the durable horizon reflects.)
        if self.is_durable(upto)? {
            return Ok(false);
        }
        // Become (or wait for) the flush leader. Holding `flush_lock` across
        // the storage I/O — but *not* `inner` — is what lets appends continue
        // while the device works, which is where group commit's batching
        // comes from. Only leaders store the two atomics, so from here on
        // this thread reads them exactly.
        let _leader = self.flush_lock.lock();
        if self.is_durable(upto)? {
            // A preceding leader's flush covered this LSN while we waited.
            return Ok(false);
        }
        let (mut buf, end) = {
            let mut inner = self.inner.lock();
            if inner.pending.is_empty() {
                return Ok(false);
            }
            // Steal the whole pending tail: everything appended so far rides
            // in this leader's single physical write. The spare (empty, and
            // ours alone while we hold the flush lock) becomes the new tail.
            let spare = std::mem::take(&mut inner.spare);
            (std::mem::replace(&mut inner.pending, spare), inner.next_lsn)
        };
        if let Err(e) = self.storage.append(&buf).and_then(|_| self.storage.sync()) {
            // The stolen bytes are in limbo (the append may have partially
            // reached storage). Poison the writer: followers waiting on this
            // batch — and everyone after them — get an error instead of a
            // false durability acknowledgement, and no later leader writes at
            // a desynchronised offset.
            self.poisoned.store(true, Ordering::Release);
            return Err(e);
        }
        // `end` was `next_lsn` at steal time; appends that raced in since are
        // still in `pending` and not yet durable.
        self.durable_lsn.store(end.0, Ordering::Release);
        let mut inner = self.inner.lock();
        inner.stats.forces += 1;
        inner.stats.bytes_flushed += buf.len() as u64;
        // The written buffer is the next flush's spare.
        if buf.capacity() <= MAX_RETAINED_TAIL {
            buf.clear();
            inner.spare = buf;
        }
        Ok(true)
    }

    /// Force everything appended so far.
    pub fn force_all(&self) -> WalResult<bool> {
        self.force(self.next_lsn())
    }

    /// Crash support: drop the volatile log tail. Records appended but never
    /// flushed are discarded and LSN assignment rewinds to the durable end —
    /// exactly what a real crash does to the log buffer. Returns the number
    /// of bytes dropped. Must only be called with no appender or flush
    /// leader in flight (the engine calls it from `crash()`, whose contract
    /// already requires quiesced clients).
    pub fn discard_unflushed(&self) -> u64 {
        let mut inner = self.inner.lock();
        let dropped = inner.pending.len() as u64;
        inner.pending.clear();
        inner.next_lsn = self.durable_lsn();
        dropped
    }

    /// The LSN that will be assigned to the next appended record. This is
    /// also one past the LSN range covered by [`WalWriter::force_all`].
    pub fn next_lsn(&self) -> Lsn {
        self.inner.lock().next_lsn
    }

    /// All records below this LSN are durable. Takes no lock.
    pub fn durable_lsn(&self) -> Lsn {
        Lsn(self.durable_lsn.load(Ordering::Acquire))
    }

    /// Number of records appended since creation.
    pub fn records_appended(&self) -> u64 {
        self.inner.lock().stats.records_appended
    }

    /// Number of physical force (flush) operations performed.
    pub fn forces(&self) -> u64 {
        self.inner.lock().stats.forces
    }

    /// Number of commit-path appends ([`WalWriter::append_and_force`]) that
    /// were acknowledged without leading a physical write because another
    /// committer's flush already covered their LSN. Under a concurrent commit
    /// load, `piggybacked_forces / (forces + piggybacked_forces)` is the
    /// share of commits that group commit amortised away. (Plain
    /// [`WalWriter::force`] no-ops on already-durable LSNs are not counted —
    /// they amortise nothing.)
    pub fn piggybacked_forces(&self) -> u64 {
        self.piggybacked_forces.load(Ordering::Relaxed)
    }

    /// Total bytes flushed to storage.
    pub fn bytes_flushed(&self) -> u64 {
        self.inner.lock().stats.bytes_flushed
    }

    /// The underlying storage (shared with readers).
    pub fn storage(&self) -> Arc<dyn LogStorage> {
        Arc::clone(&self.storage)
    }
}

/// Build the frame `[varint len][u32 crc][payload]` (see [`crate::codec`])
/// around the payload `encode` writes, in this thread's scratch buffer, and
/// hand it to `then`. The payload is written after room for the longest
/// header, and the header right before it, so nothing is moved.
fn with_frame<R>(encode: impl FnOnce(&mut ByteWriter), then: impl FnOnce(&[u8]) -> R) -> R {
    // `try_with`: a record appended while the thread's locals are being torn
    // down just frames into a fresh buffer.
    let mut buf = SCRATCH.try_with(Cell::take).unwrap_or_default();
    if buf.capacity() == 0 {
        buf.reserve(FRAME_SCRATCH);
    }
    let mut w = ByteWriter::frame(buf);
    encode(&mut w);
    let start = w.finish_frame();
    let frame = w.into_vec();
    let result = then(&frame[start..]);
    if frame.capacity() <= MAX_RETAINED_SCRATCH {
        let _ = SCRATCH.try_with(|scratch| scratch.set(frame));
    }
    result
}

/// The framed bytes of `record`, as the log receives them.
#[cfg(test)]
fn frame(record: &LogRecord) -> Vec<u8> {
    with_frame(|w| record.encode_into(w), <[u8]>::to_vec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::InMemoryLogStorage;

    fn writer() -> WalWriter {
        WalWriter::new(Arc::new(InMemoryLogStorage::new())).unwrap()
    }

    #[test]
    fn lsns_are_byte_offsets_and_monotonic() {
        let w = writer();
        let l1 = w.append(&LogRecord::Begin { txn: TxnId(1) });
        let l2 = w.append(&LogRecord::Commit { txn: TxnId(1) });
        assert_eq!(l1, Lsn(0));
        // Begin payload = 1 tag + 1 varint txn = 2 bytes; framed = 1 length
        // byte + 4 CRC bytes + 2 = 7.
        assert_eq!(l2, Lsn(7));
        assert!(w.next_lsn() > l2);
    }

    #[test]
    fn nothing_durable_until_force() {
        let w = writer();
        w.append(&LogRecord::Begin { txn: TxnId(1) });
        assert_eq!(w.durable_lsn(), Lsn(0));
        assert_eq!(w.storage().len().unwrap(), 0);
        assert!(w.force_all().unwrap());
        assert_eq!(w.durable_lsn(), w.next_lsn());
        assert_eq!(w.storage().len().unwrap(), w.next_lsn().0);
    }

    #[test]
    fn force_is_idempotent() {
        let w = writer();
        w.append(&LogRecord::Begin { txn: TxnId(1) });
        assert!(w.force_all().unwrap());
        // Second force has nothing to do.
        assert!(!w.force_all().unwrap());
        assert_eq!(w.forces(), 1);
        // Forcing an already-durable LSN does nothing even with new pending
        // data present.
        w.append(&LogRecord::Commit { txn: TxnId(1) });
        assert!(!w.force(Lsn(1)).unwrap());
        assert!(w.force_all().unwrap());
        assert_eq!(w.forces(), 2);
    }

    #[test]
    fn group_commit_batches_records() {
        let w = writer();
        for i in 0..10 {
            w.append(&LogRecord::Begin { txn: TxnId(i) });
        }
        w.force_all().unwrap();
        assert_eq!(w.records_appended(), 10);
        assert_eq!(w.forces(), 1);
        assert_eq!(w.bytes_flushed(), w.next_lsn().0);
    }

    #[test]
    fn append_and_force_makes_commit_durable() {
        let w = writer();
        w.append(&LogRecord::Begin { txn: TxnId(1) });
        let commit_lsn = w
            .append_and_force(&LogRecord::Commit { txn: TxnId(1) })
            .unwrap();
        assert!(w.durable_lsn() > commit_lsn);
    }

    /// Storage whose appends can be switched to fail.
    struct FlakyStorage {
        inner: InMemoryLogStorage,
        fail: AtomicBool,
    }

    impl LogStorage for FlakyStorage {
        fn append(&self, data: &[u8]) -> WalResult<u64> {
            if self.fail.load(Ordering::Relaxed) {
                return Err(WalError::Io(std::io::Error::other("device gone")));
            }
            self.inner.append(data)
        }
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> WalResult<usize> {
            self.inner.read_at(offset, buf)
        }
        fn len(&self) -> WalResult<u64> {
            self.inner.len()
        }
        fn sync(&self) -> WalResult<()> {
            self.inner.sync()
        }
        fn truncate(&self, len: u64) -> WalResult<()> {
            self.inner.truncate(len)
        }
    }

    #[test]
    fn failed_flush_poisons_the_writer_instead_of_lying() {
        let storage = Arc::new(FlakyStorage {
            inner: InMemoryLogStorage::new(),
            fail: AtomicBool::new(false),
        });
        let w = WalWriter::new(Arc::clone(&storage) as Arc<dyn LogStorage>).unwrap();
        // A healthy commit first.
        w.append(&LogRecord::Begin { txn: TxnId(1) });
        w.append_and_force(&LogRecord::Commit { txn: TxnId(1) })
            .unwrap();
        let durable_before = w.durable_lsn();

        // The device dies mid-batch: the leader's flush fails...
        storage.fail.store(true, Ordering::Relaxed);
        w.append(&LogRecord::Begin { txn: TxnId(2) });
        assert!(matches!(
            w.append_and_force(&LogRecord::Commit { txn: TxnId(2) }),
            Err(WalError::Io(_))
        ));
        // ...durability must NOT have advanced past what really hit storage,
        // and every later force fails fast instead of acknowledging commits
        // whose bytes are in limbo — even after the device "recovers".
        assert_eq!(w.durable_lsn(), durable_before);
        // The bytes in limbo are not handed back as the next tail's spare.
        assert_eq!(w.inner.lock().spare.capacity(), 0);
        storage.fail.store(false, Ordering::Relaxed);
        assert!(matches!(
            w.append_and_force(&LogRecord::Commit { txn: TxnId(3) }),
            Err(WalError::Poisoned)
        ));
        assert!(matches!(w.force_all(), Err(WalError::Poisoned)));
        assert_eq!(w.durable_lsn(), durable_before);
        // The physical log still parses cleanly up to the durable point.
        let mut reader = crate::reader::LogReader::new(w.storage());
        let records = reader.read_to_end().unwrap();
        assert_eq!(records.len(), 2);
    }

    fn update(txn: u64, image: usize) -> LogRecord {
        LogRecord::Update {
            txn: TxnId(txn),
            page: face_pagestore::PageId::new(1, txn as u32),
            offset: 0,
            data: vec![txn as u8; image],
            before: vec![!(txn as u8); image],
            prev_lsn: Lsn::ZERO,
        }
    }

    #[test]
    fn the_tail_and_its_spare_alternate_across_forces() {
        let w = writer();
        let mut expected = Lsn::ZERO;
        for round in 0..1_000u64 {
            for record in [
                LogRecord::Begin { txn: TxnId(round) },
                update(round, 128),
                LogRecord::Commit { txn: TxnId(round) },
            ] {
                // LSNs stay contiguous: each record starts where the last ended.
                assert_eq!(w.append(&record), expected);
                expected = w.next_lsn();
            }
            assert!(w.force_all().unwrap());
            assert_eq!(w.durable_lsn(), expected);
            let inner = w.inner.lock();
            assert!(inner.pending.is_empty() && inner.spare.is_empty());
            if round >= 1 {
                // From the second flush on both buffers carry capacity: the
                // next tail does not grow from nothing.
                assert!(inner.pending.capacity() > 0 && inner.spare.capacity() > 0);
            }
        }
        assert_eq!(w.storage().len().unwrap(), expected.0);
        let mut reader = crate::reader::LogReader::new(w.storage());
        assert_eq!(reader.read_to_end().unwrap().len(), 3_000);
    }

    #[test]
    fn a_tail_grown_past_the_cap_is_not_retained() {
        let w = writer();
        w.append(&update(1, 64));
        w.force_all().unwrap();
        w.append(&update(2, 64));
        w.force_all().unwrap();
        assert!(w.inner.lock().spare.capacity() > 0);
        // One burst larger than the cap...
        for i in 0..20 {
            w.append(&update(i, 40_000));
        }
        assert!(w.inner.lock().pending.capacity() > MAX_RETAINED_TAIL);
        w.force_all().unwrap();
        // ...is written, then freed; the small buffer it displaced is the tail.
        let inner = w.inner.lock();
        assert_eq!(inner.spare.capacity(), 0);
        assert!(inner.pending.is_empty() && inner.pending.capacity() <= MAX_RETAINED_TAIL);
        assert_eq!(w.durable_lsn(), inner.next_lsn);
    }

    /// The log format, byte for byte: one framed `Update`, and the frame
    /// header of an engine-sized one whose payload is long enough to take
    /// the carry-less-multiply CRC path. The CRCs are zlib's CRC-32 of the
    /// payloads, computed outside this crate.
    #[test]
    fn framed_update_records_are_the_recorded_literals() {
        let small = LogRecord::Update {
            txn: TxnId(9),
            page: face_pagestore::PageId::new(3, 17),
            offset: 64,
            data: (0..8u8).map(|i| 0xA0 + i).collect(),
            before: (0..8u8).map(|i| 0x10 + i).collect(),
            prev_lsn: Lsn(4242),
        };
        // Payload: tag 2; txn 9, file 3, page 17, offset 64 and the first
        // image's length 8, one byte each; 8 image bytes; length 8; 8 image
        // bytes; prev_lsn 4242 = 0x21 << 7 | 0x12 as [0x92, 0x21]. That is
        // 1 + 5 + 8 + 1 + 8 + 2 = 25 bytes, framed as [25][crc] + payload.
        assert_eq!(
            frame(&small),
            [
                25, 34, 213, 91, 45, 2, 9, 3, 17, 64, 8, 160, 161, 162, 163, 164, 165, 166, 167, 8,
                16, 17, 18, 19, 20, 21, 22, 23, 146, 33
            ]
        );
        let big = LogRecord::Update {
            txn: TxnId(0x0102_0304_0506),
            page: face_pagestore::PageId::new(5, 70_000),
            offset: 1024,
            data: (0..128u32).map(|i| (i * 7 + 3) as u8).collect(),
            before: (0..128u32).map(|i| (i * 13 + 1) as u8).collect(),
            prev_lsn: Lsn(987_654_321),
        };
        // Payload: tag 1 + txn 6 (41 bits) + file 1 + page 3 (17 bits) +
        // offset 2 (11 bits) + 2 × (length 2 + 128 image bytes) + prev_lsn 5
        // (30 bits) = 278 bytes; its length takes two varint bytes
        // (278 = 2 << 7 | 22: [0x96, 0x02]), so the frame is 2 + 4 + 278.
        let framed = frame(&big);
        assert_eq!(framed.len(), 284);
        assert!(framed.len() - 6 >= face_pagestore::crc::CLMUL_MIN_LEN);
        assert_eq!(framed[..8], [150, 2, 133, 18, 166, 10, 2, 134]);
    }

    /// The borrowed appends put on the log exactly the frame the owned
    /// record frames to — for full-slot, few-byte and zero-length images.
    #[test]
    fn borrowed_appends_write_the_bytes_frame_writes_for_the_owned_record() {
        let w = writer();
        let mut expected = Vec::new();
        let page = PageId::new(1, 4_000);
        for (i, len) in [128usize, 3, 0, 1, 117].into_iter().enumerate() {
            let txn = TxnId(70 + i as u64);
            let after: Vec<u8> = (0..len).map(|b| (b * 5 + i) as u8).collect();
            let before: Vec<u8> = after.iter().map(|b| b ^ 0x3C).collect();
            let (offset, prev) = (128 * i as u32 + 11, Lsn(9_000 + i as u64));
            let lsn = w.append_update(txn, page, offset, &after, &before, prev);
            assert_eq!(lsn.0, expected.len() as u64);
            expected.extend(frame(&LogRecord::Update {
                txn,
                page,
                offset,
                data: after.clone(),
                before: before.clone(),
                prev_lsn: prev,
            }));
            let lsn = w.append_clr(txn, page, offset, &before, prev);
            assert_eq!(lsn.0, expected.len() as u64);
            expected.extend(frame(&LogRecord::Clr {
                txn,
                page,
                offset,
                data: before,
                undo_next_lsn: prev,
            }));
        }
        assert_eq!(w.records_appended(), 10);
        w.force_all().unwrap();
        let mut logged = vec![0u8; expected.len()];
        assert_eq!(w.storage().read_at(0, &mut logged).unwrap(), logged.len());
        assert_eq!(logged, expected);
        assert_eq!(w.storage().len().unwrap(), expected.len() as u64);
    }

    /// A record larger than the retained scratch bound frames correctly and
    /// the next small record still does.
    #[test]
    fn an_oversized_record_does_not_disturb_the_scratch_buffer() {
        let huge = update(1, MAX_RETAINED_SCRATCH);
        let small = update(2, 2);
        let (first, big, again) = (frame(&small), frame(&huge), frame(&small));
        assert_eq!(first, again);
        // Payload: tag, txn, file, page, offset and prev_lsn (one byte each)
        // and two images of 65,536 bytes behind three-byte lengths:
        // 12 + 2 × 65,536 = 131,084 bytes, framed behind a three-byte length
        // (18 bits) and the CRC.
        assert_eq!(big.len(), 7 + 12 + 2 * MAX_RETAINED_SCRATCH);
        let payload = &big[7..];
        assert_eq!(LogRecord::decode(payload).unwrap(), huge);
    }

    /// Run `f` on a second thread and fail, instead of hanging, if it has
    /// not returned after ten seconds.
    fn returns_promptly<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("the call waited for the append lock")
    }

    /// With the append mutex held by someone else, the durable horizon can
    /// still be read and an already-durable LSN still forced: neither path
    /// takes `wal_append` (nor the flush lock). This is every call the
    /// write-ahead guard makes while group commit keeps the horizon ahead
    /// of the pages being evicted.
    #[test]
    fn durable_reads_and_durable_forces_take_no_append_lock() {
        let w = Arc::new(writer());
        w.append(&LogRecord::Begin { txn: TxnId(1) });
        w.append_and_force(&LogRecord::Commit { txn: TxnId(1) })
            .unwrap();
        let durable = w.durable_lsn();
        // Not yet durable, and left that way.
        w.append(&LogRecord::Begin { txn: TxnId(2) });

        let flush_lock = w.flush_lock.lock();
        let append_lock = w.inner.lock();
        let w2 = Arc::clone(&w);
        assert_eq!(returns_promptly(move || w2.durable_lsn()), durable);
        for upto in [Lsn(1), Lsn(durable.0 - 1), durable] {
            let w2 = Arc::clone(&w);
            let led = returns_promptly(move || w2.force(upto));
            assert!(!led.unwrap(), "a durable LSN needs no write");
        }
        drop(append_lock);
        drop(flush_lock);
        // The locks were only borrowed: the writer still flushes.
        assert!(w.force_all().unwrap());
        assert!(w.durable_lsn() > durable);
    }

    /// Four appenders and two forcers against one writer, each sampling the
    /// atomics after every call it makes: the published horizon never passes
    /// what storage holds and never moves backwards. Then the device fails,
    /// and from the failed flush on every force errors — the lock-free fast
    /// path included, for durable and not-yet-durable LSNs alike — while
    /// the horizon stays where it was.
    #[test]
    fn the_durable_mirror_trails_storage_never_retreats_and_poison_sticks() {
        use std::sync::Barrier;

        let storage = Arc::new(FlakyStorage {
            inner: InMemoryLogStorage::new(),
            fail: AtomicBool::new(false),
        });
        let w = Arc::new(WalWriter::new(Arc::clone(&storage) as Arc<dyn LogStorage>).unwrap());
        let (appenders, forcers, per_appender) = (4u64, 2, 400u64);
        // One sample: horizon first, storage second. Storage only grows, so
        // a horizon ahead of this reading was ahead when it was published.
        let sample = |last: &mut Lsn| {
            let durable = w.durable_lsn();
            let stored = storage.len().unwrap();
            assert!(durable.0 <= stored, "durable {durable:?} > stored {stored}");
            assert!(
                durable >= *last,
                "durable went from {last:?} to {durable:?}"
            );
            *last = durable;
        };
        let appending = AtomicU64::new(appenders);
        // Everybody starts together, so appends and forces overlap.
        let start = Barrier::new(appenders as usize + forcers);
        std::thread::scope(|s| {
            for t in 0..appenders {
                let (w, start, sample, appending) = (&w, &start, &sample, &appending);
                s.spawn(move || {
                    let mut last = Lsn::ZERO;
                    start.wait();
                    for i in 0..per_appender {
                        let txn = TxnId(t * 10_000 + i);
                        let image = [i as u8; 3];
                        w.append(&LogRecord::Begin { txn });
                        let lsn = w.append_update(
                            txn,
                            PageId::new(1, t as u32),
                            i as u32,
                            &image[..(i % 4) as usize],
                            &image[..(i % 4) as usize],
                            Lsn::ZERO,
                        );
                        sample(&mut last);
                        // Every tenth transaction commits through the
                        // writer; the rest ride in the forcers' flushes.
                        if i % 10 == 0 {
                            let end = w.append_and_force(&LogRecord::Commit { txn }).unwrap();
                            assert!(w.durable_lsn() > end && end > lsn);
                            sample(&mut last);
                        }
                    }
                    appending.fetch_sub(1, Ordering::SeqCst);
                });
            }
            for _ in 0..forcers {
                let (w, start, sample, appending) = (&w, &start, &sample, &appending);
                s.spawn(move || {
                    let mut last = Lsn::ZERO;
                    start.wait();
                    while appending.load(Ordering::SeqCst) > 0 {
                        // The write-ahead guard's call: force through some
                        // LSN seen on a page, usually durable already.
                        let upto = w.next_lsn();
                        w.force(upto).unwrap();
                        assert!(w.durable_lsn() >= upto);
                        assert!(!w.force(upto).unwrap());
                        sample(&mut last);
                    }
                });
            }
        });
        w.force_all().unwrap();
        assert_eq!(w.durable_lsn(), w.next_lsn());
        assert_eq!(storage.len().unwrap(), w.next_lsn().0);
        let mut reader = crate::reader::LogReader::new(w.storage());
        assert_eq!(
            reader.read_to_end().unwrap().len() as u64,
            w.records_appended()
        );

        // The device dies under a flush.
        let durable = w.durable_lsn();
        let pending = w.append(&LogRecord::Begin { txn: TxnId(1) });
        storage.fail.store(true, Ordering::Relaxed);
        assert!(matches!(w.force_all(), Err(WalError::Io(_))));
        storage.fail.store(false, Ordering::Relaxed);
        assert_eq!(w.durable_lsn(), durable);
        std::thread::scope(|s| {
            for _ in 0..forcers {
                s.spawn(|| {
                    for upto in [Lsn(1), durable, pending.advance(1), w.next_lsn()] {
                        assert!(matches!(w.force(upto), Err(WalError::Poisoned)));
                    }
                    let commit = LogRecord::Commit { txn: TxnId(1) };
                    assert!(matches!(
                        w.append_and_force(&commit),
                        Err(WalError::Poisoned)
                    ));
                });
            }
        });
        assert_eq!(w.durable_lsn(), durable);
        assert_eq!(storage.len().unwrap(), durable.0);
    }

    #[test]
    fn concurrent_commits_stay_ordered_and_durable() {
        use std::sync::Arc;
        let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
        let w = Arc::new(WalWriter::new(Arc::clone(&storage)).unwrap());
        let threads = 8;
        let per_thread = 50u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let w = Arc::clone(&w);
                s.spawn(move || {
                    for i in 0..per_thread {
                        let txn = TxnId(t * 1000 + i);
                        w.append(&LogRecord::Begin { txn });
                        let lsn = w.append_and_force(&LogRecord::Commit { txn }).unwrap();
                        // The commit rule: everything up to and including the
                        // commit record is durable before commit returns.
                        assert!(w.durable_lsn() > lsn);
                    }
                });
            }
        });
        assert_eq!(w.records_appended(), threads * per_thread * 2);
        // Every byte appended ended up durable exactly once, in LSN order.
        assert_eq!(w.durable_lsn(), w.next_lsn());
        assert_eq!(storage.len().unwrap(), w.next_lsn().0);
        // The frame stream parses end to end (no interleaving corruption).
        let mut reader = crate::reader::LogReader::new(storage);
        let records = reader.read_to_end().unwrap();
        assert_eq!(records.len() as u64, threads * per_thread * 2);
        assert_eq!(w.forces() + w.piggybacked_forces(), threads * per_thread);
    }

    #[test]
    fn discard_unflushed_rewinds_to_the_durable_end() {
        let w = writer();
        w.append(&LogRecord::Begin { txn: TxnId(1) });
        w.append_and_force(&LogRecord::Commit { txn: TxnId(1) })
            .unwrap();
        let durable = w.durable_lsn();
        // Volatile tail: appended, never forced.
        w.append(&LogRecord::Begin { txn: TxnId(2) });
        w.append(&LogRecord::Update {
            txn: TxnId(2),
            page: face_pagestore::PageId::new(0, 1),
            offset: 0,
            data: vec![9; 8],
            before: vec![0; 8],
            prev_lsn: Lsn::ZERO,
        });
        assert!(w.next_lsn() > durable);
        let dropped = w.discard_unflushed();
        assert!(dropped > 0);
        assert_eq!(w.next_lsn(), durable);
        assert_eq!(w.durable_lsn(), durable);
        assert_eq!(w.storage().len().unwrap(), durable.0);
        // The log keeps working; new records reuse the freed LSN range.
        let lsn = w.append(&LogRecord::Begin { txn: TxnId(3) });
        assert_eq!(lsn, durable);
        assert!(w.force_all().unwrap());
        // Nothing to drop when everything is durable.
        assert_eq!(w.discard_unflushed(), 0);
    }

    #[test]
    fn lsns_continue_after_reopen() {
        let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
        let end = {
            let w = WalWriter::new(Arc::clone(&storage)).unwrap();
            w.append(&LogRecord::Begin { txn: TxnId(1) });
            w.force_all().unwrap();
            w.next_lsn()
        };
        let w2 = WalWriter::new(storage).unwrap();
        assert_eq!(w2.next_lsn(), end);
        assert_eq!(w2.durable_lsn(), end);
        let lsn = w2.append(&LogRecord::Commit { txn: TxnId(1) });
        assert_eq!(lsn, end);
    }
}
