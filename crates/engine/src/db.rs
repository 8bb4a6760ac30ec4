//! The transactional key-value database hosting the FaCE flash cache.
//!
//! ## Concurrency
//!
//! Every public operation takes `&self`; [`Database`] is `Send + Sync` and is
//! meant to be shared behind an [`Arc`] by one thread per client. The state
//! is partitioned so threads rarely meet:
//!
//! * the key→page map is a pure hash (`bucket_of` — no shared state at
//!   all);
//! * the DRAM buffer pool is lock-striped by page id
//!   ([`face_buffer::BufferPool`]);
//! * the flash cache is lock-striped by page id
//!   ([`face_cache::ShardedFlashCache`] inside [`FaceTier`]);
//! * the transaction table (active set + per-transaction last-LSN chain
//!   heads; rollback state lives in the log itself) is lock-striped by
//!   transaction id; **one writer per transaction is enforced**: each
//!   operation claims its transaction for its duration, and a concurrent
//!   operation on the same id fails with
//!   [`EngineError::TransactionBusy`] rather than interleaving with the
//!   chain-head read / WAL append / new-head store and breaking the
//!   `prev_lsn` chain that rollback walks;
//! * WAL appends serialise on the writer's short append mutex — taken to
//!   copy an already framed record onto the tail, not to build it, and not
//!   at all to ask whether an LSN is durable — and commits amortise the log
//!   force through leader-based group commit ([`face_wal::WalWriter`]);
//! * counters are atomics.
//!
//! Lock order (outer to inner): txn stripe → buffer-pool shard → page latch
//! → tier internals (cache shard, I/O log, stores) → WAL. A thread never holds
//! two locks of the same layer, so the order is acyclic.
//!
//! The engine page-latches writes (the WAL record is appended while the
//! page's latch is held exclusively, so log order matches apply order per
//! page) but
//! provides **no key-level write locking**: two transactions racing a
//! read-modify-write of the *same key* can lose one update, exactly like the
//! paper's host system without row locks. Drivers partition keys across
//! threads (as the TPC-C driver partitions warehouses).
//!
//! [`Database::crash`] / [`Database::restart`] model whole-system events and
//! must be called after client threads have quiesced.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use face_analysis::classes::{DIAG, TXN_STRIPE};
use face_analysis::OrderedMutex;
use face_buffer::{BufferPool, FetchSource};
use face_cache::{
    CachePolicyKind, CacheRecoveryInfo, CacheStats, Counter, DegradeStats, FlashStore,
    InstrumentedFlashStore, MemFlashStore, ShardedFlashCache,
};
use face_pagestore::{
    DeviceHooks, FilePageStore, InMemoryPageStore, InstrumentedPageStore, Page, PageId, PageStore,
};
use face_wal::{
    recovery::build_recovery_plan, ActiveTxn, CheckpointData, FileLogStorage, InMemoryLogStorage,
    InstrumentedLogStorage, LogReader, LogRecord, LogStorage, Lsn, TxnId, WalWriter,
};

use crate::config::{EngineConfig, StorageBackend};
use crate::error::{EngineError, EngineResult};
use crate::latency::DeviceLatency;
use crate::table::{self, PutOutcome, SlotDiff, VALUE_CAPACITY};
use crate::tier::{FaceTier, TierStats};

/// File id of the key-value table within the page store.
pub const TABLE_FILE: u32 = 1;

/// Lock stripes of the transaction table.
const TXN_STRIPES: usize = 16;

/// Aggregate activity counters of the database.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Transactions started.
    pub txns_started: u64,
    /// Transactions committed.
    pub txns_committed: u64,
    /// Transactions aborted.
    pub txns_aborted: u64,
    /// put operations.
    pub puts: u64,
    /// get operations.
    pub gets: u64,
    /// delete operations.
    pub deletes: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
}

/// Atomic twin of [`DbStats`], built from the flash-cache crate's relaxed
/// [`Counter`] primitive.
#[derive(Debug, Default)]
struct DbStatCounters {
    txns_started: Counter,
    txns_committed: Counter,
    txns_aborted: Counter,
    puts: Counter,
    gets: Counter,
    deletes: Counter,
    checkpoints: Counter,
}

impl DbStatCounters {
    fn snapshot(&self) -> DbStats {
        DbStats {
            txns_started: self.txns_started.get(),
            txns_committed: self.txns_committed.get(),
            txns_aborted: self.txns_aborted.get(),
            puts: self.puts.get(),
            gets: self.gets.get(),
            deletes: self.deletes.get(),
            checkpoints: self.checkpoints.get(),
        }
    }
}

/// One row of the transaction table.
struct TxnEntry {
    /// LSN of the transaction's `Begin` record: nothing it logged lies below.
    first_lsn: Lsn,
    /// LSN of its most recent update record (the head of its `prev_lsn`
    /// chain); [`Lsn::ZERO`] before the first update.
    last_lsn: Lsn,
    /// `abort` has started and its rollback is not durable yet. The
    /// transaction takes no further operations, but checkpoints must keep
    /// listing it: its updates may lie below the checkpoint's redo LSN, and
    /// a crash before the last CLR is durable leaves restart to finish the
    /// rollback.
    rolling_back: bool,
}

/// One stripe of the transaction table (the ARIES transaction table: who may
/// still need undo and where each transaction's backward update chain ends).
/// Rollback keeps no before-images in RAM — they are in the log records, and
/// `abort` walks the chain from `last_lsn`.
#[derive(Default)]
struct TxnStripe {
    /// Every transaction from its `Begin` until its `Commit` is appended or
    /// its rollback is durable — the conservative table checkpoints record.
    active: HashMap<u64, TxnEntry>,
    /// Transactions with an operation currently in flight. One writer per
    /// transaction is an enforced contract, not a convention: the chain-head
    /// read (at claim), the WAL append under the page latch and the new-head
    /// store (at release) are three separate critical sections, and a second
    /// thread interleaving them on the same id would silently break the
    /// `prev_lsn` chain that rollback and restart undo walk.
    busy: HashSet<u64>,
}

/// Exclusive claim on one transaction for the duration of one operation
/// (`put` / `delete` / `commit` / `abort`). The claim carries the
/// transaction's chain head out of the table; dropping it stores the head
/// back (an update sets it to its record's LSN first) and releases the
/// transaction for the next operation — one stripe acquisition each way. See
/// [`Database::claim_txn`].
struct TxnClaim<'a> {
    db: &'a Database,
    txn: TxnId,
    /// Head of the transaction's backward update chain ([`Lsn::ZERO`] before
    /// its first update). Nobody else can move it while the claim is held.
    head: Lsn,
}

impl Drop for TxnClaim<'_> {
    fn drop(&mut self) {
        let mut stripe = self.db.stripe(self.txn).lock();
        stripe.busy.remove(&self.txn.0);
        // Absent once `commit` or a finished `abort` has removed the row.
        if let Some(entry) = stripe.active.get_mut(&self.txn.0) {
            entry.last_lsn = self.head;
        }
    }
}

/// What restart undo had to do: losers rolled back, compensation records
/// written (and skipped because an earlier crashed rollback already covered
/// them), and where the undo pass found its pages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Loser transactions the analysis pass identified (in-flight at the
    /// crash, or aborted with an unfinished rollback).
    pub losers_found: u64,
    /// Loser updates reverted by the undo pass.
    pub updates_undone: u64,
    /// Compensation records written by the undo pass (one per reverted
    /// update).
    pub clrs_written: u64,
    /// Loser updates skipped because a durable CLR from a previous
    /// (crashed) rollback already compensates them. Counted over the
    /// records the plan scan decodes — the scan starts at the earlier of
    /// the checkpoint's redo LSN and the oldest loser's Begin, so fully
    /// compensated work before that point is (rightly) never re-read.
    pub clrs_skipped: u64,
    /// CLRs repeated by the redo pass (repeat-history: persisted loser
    /// pages are repaired without re-running undo).
    pub clrs_replayed: u64,
    /// Undo page fetches served by the flash cache.
    pub undo_pages_from_flash: u64,
    /// Undo page fetches served by the disk.
    pub undo_pages_from_disk: u64,
}

/// What a restart after a crash had to do, and where it found its pages.
/// Table 6 and Figure 6 of the paper are about making these numbers small.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Log records this restart decoded: the restart-anchor probe, the
    /// analysis scan from the last durable checkpoint (from LSN 0 without
    /// one) and the plan scan over the same tail.
    pub records_scanned: u64,
    /// Redo updates applied.
    pub redo_applied: u64,
    /// Redo updates skipped because the page already contained them
    /// (pageLSN at or above the record's LSN).
    pub redo_skipped: u64,
    /// Redo records whose page copy is not the version its pageLSN names: a
    /// copy carrying another page's id, or, for a record the pageLSN says is
    /// not applied yet, one without the record's before-image. Always 0 on a
    /// correct restart; in debug and test builds the first one fails the
    /// restart with [`EngineError::RedoBaseMismatch`].
    pub redo_base_mismatches: u64,
    /// Redo page fetches served by the flash cache.
    pub pages_from_flash: u64,
    /// Redo page fetches served by the disk.
    pub pages_from_disk: u64,
    /// The durable end of the WAL that cache recovery reconciled against:
    /// no recovered flash page carries a pageLSN beyond this.
    pub durable_lsn: Lsn,
    /// What the flash cache could restore of itself.
    pub cache_recovery: CacheRecoveryInfo,
    /// What the undo pass did (loser rollback work).
    pub undo: RecoveryStats,
}

impl RecoveryReport {
    /// Share of redo page fetches served by the flash cache (the paper
    /// observes more than 98 %).
    pub fn flash_fetch_ratio(&self) -> f64 {
        let total = self.pages_from_flash + self.pages_from_disk;
        if total == 0 {
            0.0
        } else {
            self.pages_from_flash as f64 / total as f64
        }
    }
}

/// A transactional key-value database over the FaCE storage hierarchy.
/// All operations take `&self`; see the module docs for the concurrency
/// contract.
pub struct Database {
    config: EngineConfig,
    pool: BufferPool<FaceTier>,
    wal: Arc<WalWriter>,
    log_storage: Arc<dyn LogStorage>,
    disk: Arc<dyn PageStore>,
    next_txn: AtomicU64,
    stripes: Vec<OrderedMutex<TxnStripe>>,
    crashed: AtomicBool,
    stats: DbStatCounters,
    /// Crash-point injection for recovery itself: number of redo/undo page
    /// applications before the next restart crashes mid-recovery
    /// (`u64::MAX` = disarmed). Test hook; see
    /// [`Database::arm_restart_crash`].
    restart_crash_budget: AtomicU64,
    /// Report of the most recent completed recovery, for
    /// [`Database::recovery_info`].
    last_recovery: OrderedMutex<Option<RecoveryReport>>,
}

impl Database {
    /// Open (or create) a database with the given configuration. If the log
    /// already contains work (a file-backed database being reopened), redo is
    /// run before the database becomes available.
    pub fn open(config: EngineConfig) -> EngineResult<Self> {
        if matches!(
            config.cache_policy,
            CachePolicyKind::Lc | CachePolicyKind::Tac
        ) {
            return Err(EngineError::SimulatorOnlyPolicy(config.cache_policy));
        }
        let (disk, log_storage): (Arc<dyn PageStore>, Arc<dyn LogStorage>) = match &config.backend {
            StorageBackend::InMemory => (
                Arc::new(InMemoryPageStore::new()),
                Arc::new(InMemoryLogStorage::new()),
            ),
            StorageBackend::OnDisk(dir) => (
                Arc::new(FilePageStore::open(dir.join("data"))?),
                Arc::new(FileLogStorage::open(dir.join("wal.log"))?),
            ),
        };
        // Each device gets one instrumented view over its raw store (or the
        // raw store itself when nothing is switched on): see
        // `face_pagestore::hooks` for what a physical operation pays, in
        // which order, and why.
        let latency = config.device_latency.unwrap_or_else(DeviceLatency::zero);
        let check = face_analysis::enabled();
        let disk = InstrumentedPageStore::wrap(
            disk,
            DeviceHooks {
                read: latency.disk_read,
                write: latency.disk_write,
                faults: config.disk_faults.clone(),
                check,
                ..DeviceHooks::default()
            },
        );
        let log_storage = InstrumentedLogStorage::wrap(
            log_storage,
            DeviceHooks {
                sync: latency.log_sync,
                check,
                ..DeviceHooks::default()
            },
        );
        // Group writes run through the asynchronous destage pipeline: the
        // policy hands filled groups back instead of writing them under the
        // shard lock. The read-side counterpart: flash fetches pin under the
        // shard lock and read the device off-lock.
        let mut cache_config = config.cache_config.clone();
        cache_config.defer_group_writes = true;
        cache_config.lock_light_reads = config.lock_light_reads;
        let cache = ShardedFlashCache::build(
            config.cache_policy,
            cache_config,
            config.cache_shards,
            |shard_capacity| {
                let store: Arc<dyn FlashStore> = match &config.flash_store_factory {
                    Some(factory) => (factory.0)(shard_capacity),
                    None => Arc::new(MemFlashStore::new(shard_capacity)),
                };
                // Foreground paths never touch flash under the shard lock,
                // and the detector checks that for every policy.
                InstrumentedFlashStore::wrap(
                    store,
                    DeviceHooks {
                        read: latency.flash_read,
                        write: latency.flash_write,
                        faults: config.flash_faults.clone(),
                        check,
                        ..DeviceHooks::default()
                    },
                )
            },
        );
        let wal = Arc::new(WalWriter::new(Arc::clone(&log_storage))?);
        // The tier carries the write-ahead guard: no dirty page reaches the
        // flash cache or the disk before its log records are durable, so a
        // recovered flash directory never outruns the durable log. With a
        // cache it also builds the one degrade controller the cache (error
        // classification, quarantine strikes), the tier (trip, evacuation,
        // heal) and the destager (retry accounting) share.
        let tier = FaceTier::new(
            Arc::clone(&disk),
            cache,
            Arc::clone(&wal),
            config.degrade,
            face_cache::DestageConfig {
                threads: config.destage_threads,
                queue_depth: config.destage_queue_depth,
            },
        );
        let pool = BufferPool::with_shards(config.buffer_frames, config.buffer_shards, tier)
            .lock_light_reads(config.lock_light_reads);

        let db = Self {
            config,
            pool,
            wal,
            log_storage,
            disk,
            next_txn: AtomicU64::new(1),
            stripes: (0..TXN_STRIPES)
                .map(|_| OrderedMutex::new(TXN_STRIPE, TxnStripe::default()))
                .collect(),
            crashed: AtomicBool::new(false),
            stats: DbStatCounters::default(),
            restart_crash_budget: AtomicU64::new(u64::MAX),
            last_recovery: OrderedMutex::new(DIAG, None),
        };
        db.ensure_table_allocated()?;
        // A reopened database may have committed work in the log that never
        // reached the data files, and losers from a previous process death;
        // replay the one, roll back the other.
        if !db.log_storage.is_empty()? {
            let report = db.run_recovery()?;
            *db.last_recovery.lock() = Some(report);
        }
        Ok(db)
    }

    fn ensure_table_allocated(&self) -> EngineResult<()> {
        while self.disk.num_pages(TABLE_FILE) < self.config.table_buckets as u64 {
            self.disk.allocate(TABLE_FILE)?;
        }
        Ok(())
    }

    fn bucket_of(&self, key: u64) -> PageId {
        // A multiplicative hash spreads adjacent keys over the buckets.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        PageId::new(TABLE_FILE, (h % self.config.table_buckets as u64) as u32)
    }

    fn stripe(&self, txn: TxnId) -> &OrderedMutex<TxnStripe> {
        &self.stripes[(txn.0 as usize) % TXN_STRIPES]
    }

    fn check_not_crashed(&self) -> EngineResult<()> {
        if self.crashed.load(Ordering::Acquire) {
            Err(EngineError::Crashed)
        } else {
            Ok(())
        }
    }

    /// Claim `txn` for one operation (one writer per transaction). The
    /// claim is what makes an update's chain-head read, its WAL append
    /// under the page latch and its new-head store atomic with respect to
    /// the transaction: a second thread using the same id concurrently gets
    /// [`EngineError::TransactionBusy`] instead of silently corrupting the
    /// `prev_lsn` chain. The stripe lock is never held across a call into
    /// another layer (the `txn_stripe` class contract); exclusion comes from
    /// the `busy` marker the returned guard holds until dropped.
    fn claim_txn(&self, txn: TxnId) -> EngineResult<TxnClaim<'_>> {
        let mut stripe = self.stripe(txn).lock();
        let head = match stripe.active.get(&txn.0) {
            Some(entry) if !entry.rolling_back => entry.last_lsn,
            _ => return Err(EngineError::UnknownTransaction(txn.0)),
        };
        if !stripe.busy.insert(txn.0) {
            return Err(EngineError::TransactionBusy(txn.0));
        }
        Ok(TxnClaim {
            db: self,
            txn,
            head,
        })
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Start a new transaction.
    pub fn begin(&self) -> TxnId {
        let txn = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed));
        // Log first, list second: the table row needs the Begin's LSN. A
        // checkpoint that reads the table in between misses the transaction,
        // which is sound — the caller has no id to log an update with until
        // this returns, so every update lands above that checkpoint's redo
        // LSN (see `face_wal::recovery`).
        let first_lsn = self.wal.append(&LogRecord::Begin { txn });
        self.stripe(txn).lock().active.insert(
            txn.0,
            TxnEntry {
                first_lsn,
                last_lsn: Lsn::ZERO,
                rolling_back: false,
            },
        );
        self.stats.txns_started.inc();
        txn
    }

    /// Commit a transaction: its commit record (and everything before it) is
    /// forced to the log before this returns. Concurrent commits share
    /// physical log flushes (group commit): one leader's device write covers
    /// every commit record appended while it was in flight.
    pub fn commit(&self, txn: TxnId) -> EngineResult<()> {
        self.check_not_crashed()?;
        let _claim = self.claim_txn(txn)?;
        self.wal.append_and_force(&LogRecord::Commit { txn })?;
        self.stripe(txn).lock().active.remove(&txn.0);
        self.stats.txns_committed.inc();
        Ok(())
    }

    /// Abort a transaction: log-driven rollback. The transaction's update
    /// chain is walked backwards from its newest record, each update's
    /// before-image is re-applied through the normal buffer/cache tier, and
    /// a compensation record ([`face_wal::LogRecord::Clr`]) is logged per
    /// reverted update. If the process crashes mid-rollback, restart undo
    /// resumes at the `undo_next_lsn` of the last durable CLR — rollback
    /// work is never repeated and never lost.
    pub fn abort(&self, txn: TxnId) -> EngineResult<()> {
        self.check_not_crashed()?;
        let claim = self.claim_txn(txn)?;
        // Force the Abort record: the chain walk below reads the
        // transaction's update records back from log storage, and the
        // unforced tail lives only in the writer's RAM buffer.
        self.wal.append_and_force(&LogRecord::Abort { txn })?;
        self.stripe(txn)
            .lock()
            .active
            .get_mut(&txn.0)
            .expect("claimed above")
            .rolling_back = true;
        self.stats.txns_aborted.inc();
        self.rollback_chain(txn, claim.head)?;
        // Make the rollback durable so a crash cannot resurrect the aborted
        // updates from persisted pages without their compensations.
        self.wal.force_all()?;
        // Only now does the transaction leave the table. A checkpoint taken
        // while the chain was being walked listed it, so a restart anchored
        // there still reads its updates and finishes the rollback. (When the
        // rollback fails the row stays: restart owes the remaining undo.)
        self.stripe(txn).lock().active.remove(&txn.0);
        Ok(())
    }

    /// Walk a transaction's backward update chain from `head`, compensating
    /// each update. Returns the number of updates reverted. Encountering a
    /// CLR (possible when resuming a crashed rollback) skips to its
    /// `undo_next_lsn` instead of undoing anything twice. A chain LSN that
    /// yields no record or a non-undoable one means the log is truncated or
    /// corrupt: the incomplete rollback is surfaced as
    /// [`EngineError::CorruptUndoChain`], never reported as success.
    fn rollback_chain(&self, txn: TxnId, head: Lsn) -> EngineResult<u64> {
        let mut next = head;
        let mut undone = 0u64;
        while next != Lsn::ZERO {
            let Some(rec) = LogReader::record_at(Arc::clone(&self.log_storage), next)? else {
                return Err(EngineError::CorruptUndoChain {
                    txn: txn.0,
                    at: next.0,
                });
            };
            match rec.record {
                LogRecord::Update {
                    page,
                    offset,
                    before,
                    prev_lsn,
                    ..
                } => {
                    self.compensate(txn, page, offset, &before, prev_lsn)?;
                    undone += 1;
                    next = prev_lsn;
                }
                LogRecord::Clr { undo_next_lsn, .. } => {
                    next = undo_next_lsn;
                }
                _ => {
                    return Err(EngineError::CorruptUndoChain {
                        txn: txn.0,
                        at: next.0,
                    })
                }
            }
        }
        Ok(undone)
    }

    /// Revert one update: restore the before-image under the page latch and
    /// log the CLR in the same critical section (log order matches apply
    /// order per page, exactly as forward updates do).
    fn compensate(
        &self,
        txn: TxnId,
        page: PageId,
        offset: u32,
        before: &[u8],
        undo_next_lsn: Lsn,
    ) -> EngineResult<()> {
        self.pool.update_with(page, |p| {
            p.write_body(offset as usize, before);
            let lsn = self
                .wal
                .append_clr(txn, page, offset, before, undo_next_lsn);
            if lsn > p.lsn() {
                p.set_lsn(lsn);
            }
        })?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Key-value operations
    // ------------------------------------------------------------------

    /// Insert or update `key` with `value` under transaction `txn`.
    pub fn put(&self, txn: TxnId, key: u64, value: &[u8]) -> EngineResult<()> {
        self.check_not_crashed()?;
        let mut claim = self.claim_txn(txn)?;
        if value.len() > VALUE_CAPACITY {
            return Err(EngineError::ValueTooLarge {
                len: value.len(),
                max: VALUE_CAPACITY,
            });
        }
        let page_id = self.bucket_of(key);
        let prev_lsn = claim.head;
        // Apply the change and append its log record under the page latch:
        // with concurrent writers, redo correctness needs the log order of a
        // page's records to match the order the page absorbed them. The
        // record carries the byte range that changed, both ways — empty when
        // the put stored what was already there, and still one record.
        let write = self.pool.update_with(page_id, |p| {
            let diff = match table::put_with_undo(p, key, value) {
                PutOutcome::Inserted(d) | PutOutcome::Updated(d) => d,
                PutOutcome::PageFull => return Err(EngineError::TableFull(key)),
            };
            Ok(self.log_update(p, page_id, txn, &diff, prev_lsn))
        })?;
        claim.head = write?;
        drop(claim);
        self.stats.puts.inc();
        Ok(())
    }

    /// Log what a table write changed in `page` (latched by the caller) and
    /// stamp the page with the record's LSN, which is returned.
    fn log_update(
        &self,
        page: &mut Page,
        page_id: PageId,
        txn: TxnId,
        diff: &SlotDiff,
        prev_lsn: Lsn,
    ) -> Lsn {
        let lsn = self.wal.append_update(
            txn,
            page_id,
            diff.offset() as u32,
            diff.after(),
            diff.before(),
            prev_lsn,
        );
        if lsn > page.lsn() {
            page.set_lsn(lsn);
        }
        lsn
    }

    /// Read the value stored under `key`.
    pub fn get(&self, key: u64) -> EngineResult<Option<Vec<u8>>> {
        self.check_not_crashed()?;
        let page_id = self.bucket_of(key);
        let value = self.pool.read(page_id, |p| table::get(p, key))?;
        self.stats.gets.inc();
        Ok(value)
    }

    /// Delete `key` under transaction `txn`. Returns whether the key existed.
    pub fn delete(&self, txn: TxnId, key: u64) -> EngineResult<bool> {
        self.check_not_crashed()?;
        let mut claim = self.claim_txn(txn)?;
        let page_id = self.bucket_of(key);
        let prev_lsn = claim.head;
        let write = self.pool.update_with(page_id, |p| {
            let diff = table::delete_with_undo(p, key)?;
            Some(self.log_update(p, page_id, txn, &diff, prev_lsn))
        })?;
        let Some(lsn) = write else {
            return Ok(false);
        };
        claim.head = lsn;
        drop(claim);
        self.stats.deletes.inc();
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Checkpointing, crash and restart
    // ------------------------------------------------------------------

    /// Take a (fuzzy) checkpoint. With a flash cache, dirty DRAM pages are
    /// flushed to it (sequential flash writes); without one they go to disk.
    /// The checkpoint record — redo LSN,
    /// transaction table, transaction-id fence — is forced to the log and
    /// its LSN then stored as the log's restart anchor, so the next restart
    /// reads the log from here rather than from LSN 0. Operations may keep
    /// running concurrently; their updates simply stay dirty for the next
    /// checkpoint.
    pub fn checkpoint(&self) -> EngineResult<usize> {
        self.check_not_crashed()?;
        let redo_lsn = self.wal.next_lsn();
        let flushed = self.pool.flush_all_dirty()?;
        // Seal the flushed pages' groups and write the cache's own metadata
        // checkpoint, so they are durable in flash.
        self.pool.lower().checkpoint_cache()?;
        // The table and the id fence are read after `redo_lsn` was taken: a
        // transaction missing from the table either ended before this point
        // or logs its first update after it, and every id in a record below
        // `redo_lsn` was allocated before the fence is read.
        let mut active_txns = Vec::new();
        for stripe in &self.stripes {
            active_txns.extend(stripe.lock().active.iter().map(|(id, t)| ActiveTxn {
                txn: TxnId(*id),
                first_lsn: t.first_lsn,
            }));
        }
        let next_txn = TxnId(self.next_txn.load(Ordering::Relaxed));
        self.wal.append_checkpoint(CheckpointData {
            redo_lsn,
            active_txns,
            next_txn,
        })?;
        self.stats.checkpoints.inc();
        Ok(flushed)
    }

    /// Simulate a crash: everything volatile (DRAM buffer contents, active
    /// transactions, RAM-resident cache metadata, the unflushed WAL tail) is
    /// lost; the disk store, the flash store, the flash-resident cache
    /// metadata (sealed journal groups + cache checkpoint) and the forced
    /// portion of the WAL survive. Client threads must have quiesced.
    pub fn crash(&self) {
        self.crashed.store(true, Ordering::Release);
        // The destage pipeline dies with the process: queued group writes
        // and disk destages are dropped (they never reached a device), and a
        // worker mid-write finishes its device operation but never seals —
        // restart's recovery drain waits for that before reading metadata.
        self.pool.lower().crash_destage();
        self.pool.crash();
        // The log buffer is RAM: records appended but never forced die with
        // the process, and LSN assignment rewinds to the durable end.
        self.wal.discard_unflushed();
        for stripe in &self.stripes {
            let mut stripe = stripe.lock();
            stripe.active.clear();
            stripe.busy.clear();
        }
    }

    /// Restart after [`Database::crash`]: restore the flash-cache directory
    /// from its persistent metadata (cache checkpoint + journal), reconcile
    /// it against the WAL's durable end, then run log analysis, redo and
    /// undo (losers are rolled back via compensation records).
    ///
    /// Reconciliation rules (paper §4):
    /// * a flash page whose pageLSN exceeds the last durable log record is
    ///   **discarded** — its log records were lost in the crash, so serving
    ///   it would diverge from what redo can reconstruct;
    /// * a dirty flash page at or below the durable end **substitutes for
    ///   the disk copy** during redo — redo and undo page fetches go through
    ///   the normal buffer/cache path, so most of them are served by the
    ///   flash cache when FaCE is enabled (the warm-restart effect of
    ///   Figure 6).
    ///
    /// Recovery is itself crash-safe: restarting again after a crash at any
    /// point (mid-redo, mid-undo) converges to the same state, because redo
    /// is pageLSN-guarded and every completed piece of undo left a durable
    /// CLR that the next attempt resumes after.
    pub fn restart(&self) -> EngineResult<RecoveryReport> {
        self.prepare_restart();

        // Phase 1: restore the flash cache directory, reconciled against the
        // durable log horizon.
        let durable_lsn = self.wal.durable_lsn();
        let cache_recovery = self.pool.lower().recover_cache(durable_lsn);

        // Phase 2: WAL analysis + redo + undo.
        let mut report = self.run_recovery()?;
        report.durable_lsn = durable_lsn;
        report.cache_recovery = cache_recovery;
        *self.last_recovery.lock() = Some(report.clone());
        Ok(report)
    }

    /// Restart with a **cold** flash cache — the path a production system
    /// takes when decommissioning or replacing the cache device. Because
    /// FaCE's dirty flash pages are part of the persistent database (they
    /// exist nowhere else), the cache cannot simply be wiped: its directory
    /// is first recovered from the persistent metadata exactly as in
    /// [`Database::restart`], every dirty valid page is evacuated to disk,
    /// and only then is the device wiped. Redo and the workload that follows
    /// ramp up from disk — the cold baseline of the warm-restart
    /// experiments.
    pub fn restart_cold(&self) -> EngineResult<RecoveryReport> {
        self.prepare_restart();
        let durable_lsn = self.wal.durable_lsn();
        // Recover the directory (reconciled) so the evacuation knows which
        // flash pages are dirty, drain them to disk, then wipe the device.
        self.pool.lower().recover_cache(durable_lsn);
        self.pool.lower().reset_cache_cold()?;
        let mut report = self.run_recovery()?;
        report.durable_lsn = durable_lsn;
        // Nothing survives into the wiped cache by construction.
        report.cache_recovery = CacheRecoveryInfo::default();
        *self.last_recovery.lock() = Some(report.clone());
        Ok(report)
    }

    /// Shared prologue of [`Database::restart`] / [`Database::restart_cold`].
    fn prepare_restart(&self) {
        if !self.crashed.load(Ordering::Acquire) {
            // Restarting a healthy database is allowed and just runs redo.
            // Flush the log tail first so reconciliation does not discard
            // flash pages whose records are merely buffered, not lost.
            let _ = self.wal.force_all();
            self.pool.crash();
            for stripe in &self.stripes {
                let mut stripe = stripe.lock();
                stripe.active.clear();
                stripe.busy.clear();
            }
        }
        self.crashed.store(false, Ordering::Release);
    }

    /// Arm a crash `after_applies` page applications into the next
    /// recovery (counting redo and undo applications alike). When the
    /// budget runs out the database crashes exactly as [`Database::crash`]
    /// and the restart call returns [`EngineError::Crashed`]; a further
    /// [`Database::restart`] resumes recovery from the durable state. The
    /// arming covers one recovery only: completing a recovery disarms any
    /// unconsumed budget. Test hook for the crash-anywhere recovery
    /// suites; disarmed by default.
    pub fn arm_restart_crash(&self, after_applies: u64) {
        self.restart_crash_budget
            .store(after_applies, Ordering::Relaxed);
    }

    /// Consume one unit of the armed crash budget (recovery is
    /// single-threaded, so plain load/store suffices). At zero: disarm,
    /// crash, and fail the surrounding recovery.
    fn consume_restart_budget(&self) -> EngineResult<()> {
        let budget = self.restart_crash_budget.load(Ordering::Relaxed);
        if budget == u64::MAX {
            return Ok(());
        }
        if budget == 0 {
            self.restart_crash_budget.store(u64::MAX, Ordering::Relaxed);
            self.crash();
            return Err(EngineError::Crashed);
        }
        self.restart_crash_budget
            .store(budget - 1, Ordering::Relaxed);
        Ok(())
    }

    /// The ARIES pipeline: analysis (losers + resume points), redo
    /// (committed updates and repeated CLRs, pageLSN-guarded), undo (loser
    /// rollback through the normal tier, one CLR per reverted update).
    fn run_recovery(&self) -> EngineResult<RecoveryReport> {
        let (analysis, redo, undo_plan) = build_recovery_plan(Arc::clone(&self.log_storage))?;
        let mut report = RecoveryReport {
            records_scanned: analysis.records_scanned,
            ..Default::default()
        };
        report.undo.losers_found = analysis.losers.len() as u64;
        report.undo.clrs_skipped = undo_plan.already_compensated;
        let before = self.pool.stats();
        // The tier each page's current copy was read from, for a mismatch
        // report: the pool is empty when redo starts, so every page redo
        // touches is loaded here — read ahead, or on a miss.
        let mut sources: HashMap<PageId, FetchSource> = HashMap::new();
        let mut ahead = ReadAhead::new(redo.updates.iter().map(|u| u.page));
        for update in &redo.updates {
            self.consume_restart_budget()?;
            sources.extend(ahead.before(&self.pool, update.page)?);
            let loads = self.pool.stats();
            let (page_lsn, found) = self.pool.read(update.page, |p| (p.lsn(), p.id()))?;
            let now = self.pool.stats();
            if now.misses > loads.misses {
                let source = if now.flash_hits > loads.flash_hits {
                    FetchSource::FlashCache
                } else {
                    FetchSource::Disk
                };
                sources.insert(update.page, source);
            }
            // Redo repeats history: the copy must be this page, and if it has
            // not seen this record it must hold exactly what the record says
            // it replaced (a CLR carries no before-image, and checks nothing).
            let mut base_matches = found == update.page;
            let offset = update.offset as usize;
            if page_lsn >= update.lsn {
                report.redo_skipped += 1;
            } else {
                base_matches &= self.pool.update(update.page, update.lsn, |p| {
                    let matches = p.read_body(offset, update.before.len()) == update.before;
                    p.write_body(offset, &update.data);
                    matches
                })?;
                report.redo_applied += 1;
                if update.clr {
                    report.undo.clrs_replayed += 1;
                }
            }
            if !base_matches {
                report.redo_base_mismatches += 1;
                if cfg!(any(test, debug_assertions)) {
                    self.crash();
                    return Err(EngineError::RedoBaseMismatch {
                        page: update.page,
                        found,
                        slot: offset / table::SLOT_SIZE,
                        page_lsn,
                        record_lsn: update.lsn,
                        source: sources[&update.page],
                    });
                }
            }
        }
        let after_redo = self.pool.stats();
        report.pages_from_flash = after_redo.flash_hits - before.flash_hits;
        report.pages_from_disk = after_redo.disk_fetches - before.disk_fetches;

        // Undo pass: newest-first over all losers. Each compensation goes
        // through the normal tier (WAL-ahead guard, wash table, wounded-page
        // rules all apply) and logs a CLR, so a crash here never repeats
        // completed undo work on the next attempt.
        let mut ahead = ReadAhead::new(undo_plan.updates.iter().map(|u| u.page));
        for undo in &undo_plan.updates {
            self.consume_restart_budget()?;
            ahead.before(&self.pool, undo.page)?;
            self.compensate(
                undo.txn,
                undo.page,
                undo.offset,
                &undo.before,
                undo.undo_next_lsn,
            )?;
            report.undo.updates_undone += 1;
            report.undo.clrs_written += 1;
        }
        // Bound rework: the rollback is durable before recovery completes.
        self.wal.force_all()?;
        let after_undo = self.pool.stats();
        report.undo.undo_pages_from_flash = after_undo.flash_hits - after_redo.flash_hits;
        report.undo.undo_pages_from_disk = after_undo.disk_fetches - after_redo.disk_fetches;

        // Keep transaction ids monotonic across the restart. The fence is
        // the highest id mentioned by *any* log record — a fully
        // rolled-back aborted transaction is in none of committed /
        // in_flight / losers, but reusing its id would let a later crash
        // stitch the old incarnation's already-compensated updates into the
        // new transaction's undo chain and re-apply stale before-images
        // over committed data.
        self.next_txn
            .fetch_max(analysis.max_txn_seen.0 + 1, Ordering::Relaxed);
        // A crash armed for this recovery does not leak into the next one.
        self.restart_crash_budget.store(u64::MAX, Ordering::Relaxed);
        Ok(report)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Database-level counters (a point-in-time snapshot).
    pub fn stats(&self) -> DbStats {
        self.stats.snapshot()
    }

    /// Report of the most recent completed recovery (from
    /// [`Database::open`] on a non-empty log, [`Database::restart`] or
    /// [`Database::restart_cold`]), including the undo work in
    /// [`RecoveryReport::undo`]. `None` if no recovery has run.
    pub fn recovery_info(&self) -> Option<RecoveryReport> {
        self.last_recovery.lock().clone()
    }

    /// Buffer pool counters (hits, misses, flash hits, evictions).
    pub fn buffer_stats(&self) -> face_buffer::BufferStats {
        self.pool.stats()
    }

    /// Lower-tier counters (flash fetches, disk fetches, disk writes).
    pub fn tier_stats(&self) -> TierStats {
        self.pool.lower().stats()
    }

    /// Destage pipeline counters (queued vs completed groups and disk
    /// pages), when the background destager is enabled.
    pub fn destage_stats(&self) -> Option<face_cache::DestageStats> {
        self.pool.lower().destage_stats()
    }

    /// Block until every queued destage job has completed (benchmarks use
    /// this to compare like with like; ordinary operation never waits).
    pub fn drain_destage(&self) -> EngineResult<()> {
        self.pool.lower().drain_destage().map_err(EngineError::from)
    }

    /// Flash cache counters, if a cache is configured (merged over shards).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.pool.lower().cache().map(|c| c.stats())
    }

    /// Lifetime flash page programs across the cache device(s) — a lock-free
    /// read of the per-store atomic tallies, zero without a cache. Monotonic
    /// (never reset): the write-economy benches diff before/after readings
    /// to charge each measured window its exact flash wear.
    pub fn flash_pages_written(&self) -> u64 {
        self.pool
            .lower()
            .cache()
            .map_or(0, |c| c.flash_pages_written())
    }

    /// Number of log records written so far.
    pub fn wal_records(&self) -> u64 {
        self.wal.records_appended()
    }

    /// Physical log flushes performed (one per group-commit leader).
    pub fn wal_forces(&self) -> u64 {
        self.wal.forces()
    }

    /// Commits whose force piggy-backed on another leader's flush.
    pub fn wal_piggybacked_forces(&self) -> u64 {
        self.wal.piggybacked_forces()
    }

    /// The durable end of the WAL: every record below this LSN survives a
    /// crash, and cache recovery discards any flash page above it.
    pub fn wal_durable_lsn(&self) -> Lsn {
        self.wal.durable_lsn()
    }

    /// The per-shard flash stores (crash-simulation tests inspect them), or
    /// an empty slice with no cache configured.
    pub fn flash_stores(&self) -> &[Arc<dyn FlashStore>] {
        self.pool.lower().cache().map(|c| c.stores()).unwrap_or(&[])
    }

    /// Degraded-mode counters and breaker state, when a flash cache is
    /// configured: retries, quarantined slots, evacuated pages, bypassed
    /// operations (see [`face_cache::DegradeStats`]).
    pub fn degrade_stats(&self) -> Option<DegradeStats> {
        self.pool.lower().degrade_stats()
    }

    /// Bring a tripped (or quarantining) flash cache back into service: the
    /// cache restarts cold — directory dropped, slots writable again — and
    /// the breaker closes. Returns the number of dirty pages the reset
    /// evacuated to disk. After a trip these include every page the trip
    /// evacuated: the trip leaves their dirty flags set, so the reset writes
    /// them again, over any newer version written to disk meanwhile (a
    /// known fault, ROADMAP item 2).
    ///
    /// Call after replacing or re-trusting the flash device. A no-op
    /// without a cache.
    pub fn heal_flash(&self) -> EngineResult<usize> {
        self.pool.lower().heal_cache().map_err(EngineError::from)
    }
}

/// A restart pass's pages, read ahead of the pass in first-touch order with
/// [`BufferPool::prefetch`]: one window at a time, as many pages as the pool
/// holds, so each window costs one flash read call per cache shard instead
/// of one per page.
struct ReadAhead {
    order: Vec<PageId>,
    first_touch: HashMap<PageId, usize>,
    /// How many pages of `order` have been read ahead.
    read: usize,
}

impl ReadAhead {
    fn new(pages: impl Iterator<Item = PageId>) -> Self {
        let mut order = Vec::new();
        let mut first_touch = HashMap::new();
        for page in pages {
            first_touch.entry(page).or_insert_with(|| {
                order.push(page);
                order.len() - 1
            });
        }
        Self {
            order,
            first_touch,
            read: 0,
        }
    }

    /// Before the pass touches `page`: if its window has not been read yet
    /// — `page` is then the first page of it — read the window. Returns the
    /// pages loaded and where each copy came from. Without a flash cache
    /// there is nothing to batch: the disk serves page by page, and a window
    /// would only evict pages the pass comes back to.
    fn before(
        &mut self,
        pool: &BufferPool<FaceTier>,
        page: PageId,
    ) -> EngineResult<Vec<(PageId, FetchSource)>> {
        if !pool.lower().has_cache() || self.first_touch[&page] < self.read {
            return Ok(Vec::new());
        }
        let (taken, loaded) = pool.prefetch(&self.order[self.read..])?;
        self.read += taken;
        Ok(loaded)
    }
}

#[cfg(test)]
mod diff_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use face_cache::CachePolicyKind;

    fn small_db(policy: CachePolicyKind) -> Database {
        let config = EngineConfig::in_memory()
            .buffer_frames(8)
            .table_buckets(64)
            .flash_cache(policy, 128);
        Database::open(config).unwrap()
    }

    #[test]
    fn database_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
    }

    #[test]
    fn put_get_commit_cycle() {
        let db = small_db(CachePolicyKind::FaceGsc);
        let txn = db.begin();
        db.put(txn, 1, b"one").unwrap();
        db.put(txn, 2, b"two").unwrap();
        db.commit(txn).unwrap();
        assert_eq!(db.get(1).unwrap().unwrap(), b"one");
        assert_eq!(db.get(2).unwrap().unwrap(), b"two");
        assert_eq!(db.get(3).unwrap(), None);
        let stats = db.stats();
        assert_eq!(stats.puts, 2);
        assert_eq!(stats.txns_committed, 1);
        assert!(db.wal_records() >= 4);
    }

    #[test]
    fn updates_overwrite_previous_values() {
        let db = small_db(CachePolicyKind::Face);
        let txn = db.begin();
        db.put(txn, 9, b"v1").unwrap();
        db.put(txn, 9, b"v2").unwrap();
        db.commit(txn).unwrap();
        assert_eq!(db.get(9).unwrap().unwrap(), b"v2");
    }

    #[test]
    fn delete_removes_keys() {
        let db = small_db(CachePolicyKind::FaceGr);
        let txn = db.begin();
        db.put(txn, 5, b"gone soon").unwrap();
        assert!(db.delete(txn, 5).unwrap());
        assert!(!db.delete(txn, 5).unwrap());
        db.commit(txn).unwrap();
        assert_eq!(db.get(5).unwrap(), None);
    }

    #[test]
    fn abort_undoes_applied_changes() {
        let db = small_db(CachePolicyKind::FaceGsc);
        let setup = db.begin();
        db.put(setup, 1, b"original").unwrap();
        db.commit(setup).unwrap();

        let txn = db.begin();
        db.put(txn, 1, b"doomed").unwrap();
        db.put(txn, 2, b"also doomed").unwrap();
        db.abort(txn).unwrap();
        assert_eq!(db.get(1).unwrap().unwrap(), b"original");
        assert_eq!(db.get(2).unwrap(), None);

        // The compensation is itself durable: after a crash the aborted
        // changes still do not reappear.
        db.crash();
        db.restart().unwrap();
        assert_eq!(db.get(1).unwrap().unwrap(), b"original");
        assert_eq!(db.get(2).unwrap(), None);
        assert_eq!(db.stats().txns_aborted, 1);
        // Log-driven rollback spawns no extra transactions.
        assert_eq!(db.stats().txns_started, 2);
    }

    #[test]
    fn persisted_loser_update_is_rolled_back_on_restart() {
        let db = small_db(CachePolicyKind::FaceGsc);
        let setup = db.begin();
        db.put(setup, 1, b"original").unwrap();
        db.commit(setup).unwrap();

        // A loser writes, and a checkpoint then flushes the dirty page into
        // the flash cache (WAL-ahead guard forces the update record first):
        // the loser's bytes have reached a persistent device.
        let loser = db.begin();
        db.put(loser, 1, b"doomed").unwrap();
        db.put(loser, 2, b"phantom").unwrap();
        db.checkpoint().unwrap();
        db.crash();

        // Redo alone cannot help here — the page already contains the loser
        // update at a high pageLSN. Only the undo pass removes it.
        let report = db.restart().unwrap();
        assert_eq!(report.undo.losers_found, 1);
        assert!(report.undo.updates_undone >= 2);
        assert_eq!(report.undo.clrs_written, report.undo.updates_undone);
        assert_eq!(db.get(1).unwrap().unwrap(), b"original");
        assert_eq!(db.get(2).unwrap(), None);

        // The rollback itself is durable: a second crash-restart finds the
        // CLRs, has nothing left to undo, and the state is unchanged. (The
        // fully-compensated txn is no loser, so the plan scan starts at the
        // checkpoint and never re-reads its pre-checkpoint updates — the
        // compensation shows up as replayed CLRs, not skipped updates.)
        db.crash();
        let report = db.restart().unwrap();
        assert_eq!(report.undo.updates_undone, 0);
        assert!(report.undo.clrs_replayed >= 2);
        assert_eq!(db.get(1).unwrap().unwrap(), b"original");
        assert_eq!(db.get(2).unwrap(), None);
    }

    #[test]
    fn crash_mid_undo_recovery_converges() {
        let db = small_db(CachePolicyKind::FaceGsc);
        let setup = db.begin();
        for k in 0..20u64 {
            db.put(setup, k, b"committed").unwrap();
        }
        db.commit(setup).unwrap();
        let loser = db.begin();
        for k in 0..20u64 {
            db.put(loser, k, b"loser bytes").unwrap();
        }
        // Persist the loser's pages, then crash with the txn in flight.
        db.checkpoint().unwrap();
        db.crash();

        // Crash recovery itself at every budget until it survives; every
        // intermediate crash must leave a state the next attempt completes
        // from.
        let mut budget = 0u64;
        let report = loop {
            db.arm_restart_crash(budget);
            match db.restart() {
                Ok(report) => break report,
                Err(EngineError::Crashed) => budget += 1,
                Err(other) => panic!("unexpected recovery error: {other}"),
            }
        };
        assert!(budget > 0, "recovery never consumed the crash budget");
        assert!(report.undo.updates_undone + report.undo.clrs_skipped >= 20);
        for k in 0..20u64 {
            assert_eq!(
                db.get(k).unwrap().unwrap(),
                b"committed",
                "loser byte visible at key {k}"
            );
        }
        assert_eq!(db.recovery_info().unwrap().undo, report.undo);
    }

    #[test]
    fn runtime_abort_resumes_from_durable_clrs_after_crash() {
        let db = small_db(CachePolicyKind::FaceGsc);
        let setup = db.begin();
        db.put(setup, 3, b"keep me").unwrap();
        db.commit(setup).unwrap();

        let txn = db.begin();
        db.put(txn, 3, b"overwritten").unwrap();
        db.put(txn, 4, b"inserted").unwrap();
        db.abort(txn).unwrap();
        assert_eq!(db.get(3).unwrap().unwrap(), b"keep me");
        assert_eq!(db.get(4).unwrap(), None);

        // The abort's CLR chain is complete and durable: restart finds no
        // loser and repeats the CLRs at most via redo.
        db.crash();
        let report = db.restart().unwrap();
        assert_eq!(report.undo.losers_found, 0);
        assert_eq!(report.undo.updates_undone, 0);
        assert_eq!(db.get(3).unwrap().unwrap(), b"keep me");
        assert_eq!(db.get(4).unwrap(), None);
    }

    /// Every durable record of `db`'s log.
    fn log_records(db: &Database) -> Vec<face_wal::reader::LoggedRecord> {
        LogReader::new(Arc::clone(&db.log_storage))
            .read_to_end()
            .unwrap()
    }

    /// Whether `rec` is a checkpoint whose table lists `txn`; `None` for any
    /// other record.
    fn checkpoint_lists(rec: &face_wal::reader::LoggedRecord, txn: TxnId) -> Option<bool> {
        match &rec.record {
            LogRecord::Checkpoint(data) => Some(data.active_txns.iter().any(|t| t.txn == txn)),
            _ => None,
        }
    }

    #[test]
    fn failed_rollback_stays_in_the_checkpoint_table_and_restart_finishes_it() {
        use face_pagestore::FaultPlan;
        // Dormant until armed: then the next disk read fails, once.
        let plan = Arc::new(
            FaultPlan::new(3)
                .armed_on_crash()
                .reads_only()
                .permanent()
                .probability(1.0)
                .max_faults(1),
        );
        let db = Database::open(
            EngineConfig::in_memory()
                .buffer_frames(4)
                .buffer_shards(1)
                .table_buckets(64)
                .no_flash_cache()
                .disk_faults(Arc::clone(&plan)),
        )
        .unwrap();
        const KEYS: u64 = 24;
        let setup = db.begin();
        for k in 0..KEYS {
            db.put(setup, k, b"original").unwrap();
        }
        db.commit(setup).unwrap();

        // Far more pages than frames: the oldest updates' pages are on disk
        // again by the time the rollback walks back to them.
        let txn = db.begin();
        for k in 0..KEYS {
            db.put(txn, k, b"doomed").unwrap();
        }
        plan.arm();
        assert!(db.abort(txn).is_err(), "the rollback should hit the fault");
        assert_eq!(plan.faults_injected(), 1);
        // The transaction is over for its client...
        assert!(matches!(
            db.put(txn, 0, b"late"),
            Err(EngineError::UnknownTransaction(_))
        ));
        assert!(matches!(
            db.commit(txn),
            Err(EngineError::UnknownTransaction(_))
        ));
        // ...but a checkpoint still lists it: part of its rollback is owed.
        db.checkpoint().unwrap();
        let records = log_records(&db);
        let listed: Vec<bool> = records
            .iter()
            .filter_map(|r| checkpoint_lists(r, txn))
            .collect();
        assert_eq!(listed, [true], "one checkpoint, listing the transaction");
        let compensated = records
            .iter()
            .filter(|r| matches!(r.record, LogRecord::Clr { .. }))
            .count() as u64;
        assert!(
            compensated > 0 && compensated < KEYS,
            "the rollback should stop part-way, got {compensated} CLRs"
        );

        // The checkpoint flushed the half-rolled-back pages, and its redo LSN
        // lies above every record of the transaction. Restart reads the log
        // from the transaction's Begin because the table says so.
        db.crash();
        let report = db.restart().unwrap();
        assert_eq!(report.undo.losers_found, 1);
        assert_eq!(report.undo.updates_undone, KEYS - compensated);
        for k in 0..KEYS {
            assert_eq!(db.get(k).unwrap().unwrap(), b"original", "key {k}");
        }
    }

    #[test]
    fn checkpoint_from_a_second_thread_during_abort_lists_the_aborting_txn() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        const KEYS: u64 = 300;
        // Which interleaving the two threads get is up to the scheduler, so
        // the scenario repeats until a checkpoint record landed between the
        // Abort record and the rollback's last CLR.
        let mut landed_mid_rollback = 0;
        for _attempt in 0..200 {
            let db = Database::open(
                EngineConfig::in_memory()
                    .buffer_frames(16)
                    .table_buckets(512)
                    .flash_cache(CachePolicyKind::FaceGsc, 256),
            )
            .unwrap();
            let setup = db.begin();
            for k in 0..KEYS {
                db.put(setup, k, b"original").unwrap();
            }
            db.commit(setup).unwrap();
            let txn = db.begin();
            for k in 0..KEYS {
                db.put(txn, k, b"doomed").unwrap();
            }
            let (start, done) = (Barrier::new(2), AtomicBool::new(false));
            std::thread::scope(|s| {
                s.spawn(|| {
                    start.wait();
                    db.abort(txn).unwrap();
                    done.store(true, Ordering::SeqCst);
                });
                s.spawn(|| {
                    start.wait();
                    while !done.load(Ordering::SeqCst) {
                        db.checkpoint().unwrap();
                    }
                });
            });

            let records = log_records(&db);
            let abort_lsn = records
                .iter()
                .find(|r| r.record == LogRecord::Abort { txn })
                .expect("the Abort record")
                .lsn;
            let last_clr_lsn = records
                .iter()
                .rfind(|r| matches!(r.record, LogRecord::Clr { .. }))
                .expect("the rollback's CLRs")
                .lsn;
            for rec in &records {
                if rec.lsn > abort_lsn && rec.lsn < last_clr_lsn {
                    if let Some(listed) = checkpoint_lists(rec, txn) {
                        landed_mid_rollback += 1;
                        assert!(listed, "checkpoint at {} omits {txn}", rec.lsn);
                    }
                }
            }
            // Whatever the interleaving, the abort holds across a crash.
            db.crash();
            db.restart().unwrap();
            for k in (0..KEYS).step_by(17) {
                assert_eq!(db.get(k).unwrap().unwrap(), b"original", "key {k}");
            }
            if landed_mid_rollback > 0 {
                return;
            }
        }
        panic!("no checkpoint landed inside a {KEYS}-update rollback in 200 attempts");
    }

    #[test]
    fn recovery_info_is_none_until_a_recovery_ran() {
        let db = small_db(CachePolicyKind::FaceGsc);
        assert!(db.recovery_info().is_none());
        let txn = db.begin();
        db.put(txn, 1, b"x").unwrap();
        db.commit(txn).unwrap();
        db.crash();
        let report = db.restart().unwrap();
        let info = db.recovery_info().expect("restart stored its report");
        assert_eq!(info.records_scanned, report.records_scanned);
        assert_eq!(info.undo, report.undo);
    }

    #[test]
    fn errors_for_bad_usage() {
        let db = small_db(CachePolicyKind::FaceGsc);
        let txn = db.begin();
        db.commit(txn).unwrap();
        assert!(matches!(
            db.put(txn, 1, b"late"),
            Err(EngineError::UnknownTransaction(_))
        ));
        let txn2 = db.begin();
        let huge = vec![0u8; 4000];
        assert!(matches!(
            db.put(txn2, 1, &huge),
            Err(EngineError::ValueTooLarge { .. })
        ));
    }

    #[test]
    fn operations_after_crash_require_restart() {
        let db = small_db(CachePolicyKind::FaceGsc);
        let txn = db.begin();
        db.put(txn, 1, b"x").unwrap();
        db.commit(txn).unwrap();
        db.crash();
        assert!(matches!(db.get(1), Err(EngineError::Crashed)));
        db.restart().unwrap();
        assert_eq!(db.get(1).unwrap().unwrap(), b"x");
    }

    #[test]
    fn committed_data_survives_crash_without_checkpoint() {
        let db = small_db(CachePolicyKind::FaceGsc);
        let txn = db.begin();
        for k in 0..50u64 {
            db.put(txn, k, format!("value-{k}").as_bytes()).unwrap();
        }
        db.commit(txn).unwrap();
        db.crash();
        let report = db.restart().unwrap();
        assert!(report.redo_applied > 0);
        for k in 0..50u64 {
            assert_eq!(
                db.get(k).unwrap().unwrap(),
                format!("value-{k}").as_bytes(),
                "key {k} lost"
            );
        }
    }

    #[test]
    fn uncommitted_work_is_not_redone() {
        let db = small_db(CachePolicyKind::FaceGsc);
        let committed = db.begin();
        db.put(committed, 1, b"keep").unwrap();
        db.commit(committed).unwrap();
        let in_flight = db.begin();
        db.put(in_flight, 2, b"lose").unwrap();
        // No commit for txn 2.
        db.crash();
        db.restart().unwrap();
        assert_eq!(db.get(1).unwrap().unwrap(), b"keep");
        // The in-flight update is not replayed by redo.
        // (It may or may not have reached storage before the crash; with a
        // crash immediately after the update and no eviction, it is gone.)
        assert_eq!(db.get(2).unwrap(), None);
    }

    #[test]
    fn checkpoint_reduces_redo_work() {
        let db = small_db(CachePolicyKind::FaceGsc);
        let txn = db.begin();
        for k in 0..40u64 {
            db.put(txn, k, b"before checkpoint").unwrap();
        }
        db.commit(txn).unwrap();
        db.checkpoint().unwrap();
        let txn = db.begin();
        for k in 40..50u64 {
            db.put(txn, k, b"after checkpoint").unwrap();
        }
        db.commit(txn).unwrap();
        db.crash();
        let report = db.restart().unwrap();
        // Only the post-checkpoint work needs redo (some of it may even be
        // skipped if the pages were flushed).
        assert!(
            report.redo_applied + report.redo_skipped <= 10,
            "redo touched {} records",
            report.redo_applied + report.redo_skipped
        );
        for k in 0..50u64 {
            assert!(db.get(k).unwrap().is_some(), "key {k} lost");
        }
    }

    #[test]
    fn face_recovery_fetches_pages_from_flash() {
        let db = small_db(CachePolicyKind::FaceGsc);
        // Write enough data that pages are evicted from the tiny DRAM buffer
        // into the flash cache.
        let txn = db.begin();
        for k in 0..200u64 {
            db.put(txn, k, format!("v{k}").as_bytes()).unwrap();
        }
        db.commit(txn).unwrap();
        db.checkpoint().unwrap();
        let txn = db.begin();
        for k in 0..200u64 {
            db.put(txn, k, format!("w{k}").as_bytes()).unwrap();
        }
        db.commit(txn).unwrap();
        db.crash();
        let report = db.restart().unwrap();
        assert!(report.cache_recovery.survived);
        assert!(
            report.pages_from_flash > report.pages_from_disk,
            "flash {} vs disk {}",
            report.pages_from_flash,
            report.pages_from_disk
        );
        for k in 0..200u64 {
            assert_eq!(db.get(k).unwrap().unwrap(), format!("w{k}").as_bytes());
        }
    }

    #[test]
    fn hdd_only_configuration_still_recovers() {
        let config = EngineConfig::in_memory()
            .buffer_frames(8)
            .table_buckets(32)
            .no_flash_cache();
        let db = Database::open(config).unwrap();
        assert!(db.flash_stores().is_empty());
        let txn = db.begin();
        for k in 0..60u64 {
            db.put(txn, k, b"hdd only").unwrap();
        }
        db.commit(txn).unwrap();
        db.crash();
        let report = db.restart().unwrap();
        assert!(!report.cache_recovery.survived);
        assert_eq!(report.pages_from_flash, 0);
        for k in 0..60u64 {
            assert!(db.get(k).unwrap().is_some());
        }
    }

    /// Two commits of key 7 and of a key on another page, each followed by
    /// `between`, then a third commit of both that only the log holds.
    /// Returns the database and the other page.
    fn three_commits_of_two_pages(
        config: EngineConfig,
        mut between: impl FnMut(&Database),
    ) -> (Database, PageId) {
        let db = Database::open(config).unwrap();
        let other = (0..).find(|k| db.bucket_of(*k) != db.bucket_of(7)).unwrap();
        for value in [&b"first"[..], b"second", b"third"] {
            let txn = db.begin();
            db.put(txn, 7, value).unwrap();
            db.put(txn, other, value).unwrap();
            db.commit(txn).unwrap();
            if value != b"third" {
                between(&db);
            }
        }
        let other = db.bucket_of(other);
        (db, other)
    }

    /// What a failed restart reported: (page named, page found, its LSN,
    /// the record's LSN, the tier).
    fn redo_mismatch(db: &Database) -> (PageId, PageId, Lsn, Lsn, FetchSource) {
        db.crash();
        match db.restart() {
            Err(EngineError::RedoBaseMismatch {
                page,
                found,
                page_lsn,
                record_lsn,
                source,
                ..
            }) => {
                assert!(db.get(7).is_err(), "the failed restart leaves it crashed");
                (page, found, page_lsn, record_lsn, source)
            }
            other => panic!("restart gave {other:?}"),
        }
    }

    #[test]
    fn redo_names_a_stale_base_page() {
        // No flash cache: checkpoints write the disk. Keep the first
        // checkpoint's copy of key 7's page and put it back after the second.
        let mut old = Page::zeroed();
        let (db, _) = three_commits_of_two_pages(
            EngineConfig::in_memory()
                .buffer_frames(8)
                .table_buckets(32)
                .no_flash_cache(),
            |db| {
                db.checkpoint().unwrap();
                if !old.is_formatted() {
                    db.disk.read_page(db.bucket_of(7), &mut old).unwrap();
                }
            },
        );
        db.disk.write_page(db.bucket_of(7), &old).unwrap();
        let (page, found, page_lsn, record_lsn, source) = redo_mismatch(&db);
        assert_eq!((page, found), (db.bucket_of(7), db.bucket_of(7)));
        assert_eq!(page_lsn, old.lsn());
        assert!(page_lsn < record_lsn);
        assert_eq!(source, FetchSource::Disk);
    }

    #[test]
    fn redo_names_a_foreign_base_page() {
        // A checkpoint puts both pages in flash; then the flash slot of key
        // 7's page is overwritten with the other page's copy.
        let (db, other) = three_commits_of_two_pages(
            EngineConfig::in_memory()
                .buffer_frames(8)
                .table_buckets(32)
                .destage_threads(0)
                .flash_cache(CachePolicyKind::FaceGsc, 64),
            |db| {
                db.checkpoint().unwrap();
            },
        );
        let target = db.bucket_of(7);
        let newest = |id: PageId| {
            db.flash_stores()
                .iter()
                .enumerate()
                .flat_map(|(s, store)| (0..store.capacity()).map(move |slot| (s, slot)))
                .filter_map(|(s, slot)| {
                    let (page, lsn) = db.flash_stores()[s].slot_header(slot)?;
                    (page == id).then_some((lsn, s, slot))
                })
                .max()
                .expect("the checkpoint put the page in flash")
        };
        let (_, s, slot) = newest(target);
        let (_, os, oslot) = newest(other);
        let copy = db.flash_stores()[os].read_slot(oslot).unwrap().unwrap();
        db.flash_stores()[s].write_slot(slot, &copy).unwrap();
        let (page, found, _, _, source) = redo_mismatch(&db);
        assert_eq!((page, found), (target, other));
        assert_eq!(source, FetchSource::FlashCache);
    }

    #[test]
    fn open_rejects_the_simulator_only_baselines() {
        for policy in [CachePolicyKind::Lc, CachePolicyKind::Tac] {
            let config = EngineConfig::in_memory().flash_cache(policy, 128);
            match Database::open(config) {
                Err(EngineError::SimulatorOnlyPolicy(p)) => assert_eq!(p, policy),
                Err(e) => panic!("{policy}: wrong error {e}"),
                Ok(_) => panic!("{policy}: opened a simulator-only policy"),
            }
        }
    }

    #[test]
    fn s3fifo_engine_round_trip_survives_crash() {
        let db = small_db(CachePolicyKind::S3Fifo);
        // Repeated update rounds: dirty evictions are absorbed, hot pages
        // migrate into the main queue, and the metadata journal seals with
        // the group writes — committed data must survive a crash.
        for round in 0..3u64 {
            let txn = db.begin();
            for k in 0..80u64 {
                db.put(txn, k, format!("r{round}-k{k}").as_bytes()).unwrap();
            }
            db.commit(txn).unwrap();
        }
        db.crash();
        let report = db.restart().unwrap();
        assert!(
            report.cache_recovery.survived,
            "S3-FIFO persists its mapping metadata like FaCE"
        );
        for k in 0..80u64 {
            assert_eq!(
                db.get(k).unwrap().unwrap(),
                format!("r2-k{k}").as_bytes(),
                "key {k} lost or stale"
            );
        }
        assert!(db.cache_stats().is_some_and(|s| s.flash_pages_written > 0));
    }

    #[test]
    fn ghost_admission_engine_reduces_flash_writes_for_cold_reads() {
        // Two identical engines, one with the admission filter: a scan of
        // never-re-referenced keys (clean DRAM evictions) must cost the
        // filtered engine strictly fewer flash page programs.
        let run = |ghost: bool| {
            let mut config = EngineConfig::in_memory()
                .buffer_frames(8)
                .table_buckets(64)
                .flash_cache(CachePolicyKind::FaceGsc, 64);
            config.cache_config.ghost_admission = ghost;
            let db = Database::open(config).unwrap();
            // Seed far more keys than the flash cache holds, so the scan
            // below misses the cache and re-inserts clean pages (an insert
            // of a still-cached identical copy is conditionally skipped and
            // would cost neither arm anything).
            let txn = db.begin();
            for k in 0..400u64 {
                db.put(txn, k, b"seed").unwrap();
            }
            db.commit(txn).unwrap();
            db.checkpoint().unwrap();
            let before = db.flash_pages_written();
            // Cold single-pass scan: every buffer miss evicts a clean page.
            for k in 0..400u64 {
                let _ = db.get(k).unwrap();
            }
            db.drain_destage().unwrap();
            (db.flash_pages_written() - before, db)
        };
        let (unfiltered, _db1) = run(false);
        let (filtered, db2) = run(true);
        assert!(
            filtered < unfiltered,
            "ghost admission must save flash writes on a one-touch scan \
             (filtered {filtered} vs unfiltered {unfiltered})"
        );
        assert!(db2.cache_stats().is_some_and(|s| s.admission_filtered > 0));
    }

    #[test]
    fn workload_drives_flash_hits() {
        let db = small_db(CachePolicyKind::FaceGsc);
        // Working set larger than the 8-frame DRAM buffer but smaller than
        // the 128-page flash cache: re-reads should hit flash.
        let txn = db.begin();
        for k in 0..60u64 {
            db.put(txn, k, b"warm").unwrap();
        }
        db.commit(txn).unwrap();
        for _ in 0..3 {
            for k in 0..60u64 {
                db.get(k).unwrap();
            }
        }
        let buffer = db.buffer_stats();
        assert!(buffer.flash_hits > 0, "expected flash hits: {buffer:?}");
        let cache = db.cache_stats().unwrap();
        assert!(cache.hits > 0);
        assert!(db.tier_stats().flash_fetches > 0);
        assert!(!db.flash_stores().is_empty());
    }

    #[test]
    fn gsc_pulls_dirty_pages_from_dram_through_the_concurrent_front() {
        // The §3.3 supplier, end to end through the multi-threaded engine:
        // a full GSC cache tops its write batches up with cold dirty frames
        // pulled from other buffer shards (non-blocking try-lock pulls,
        // WAL-covered pages only).
        let db = Database::open(
            EngineConfig::in_memory()
                .buffer_frames(32)
                .buffer_shards(4)
                .table_buckets(512)
                .flash_cache(CachePolicyKind::FaceGsc, 64)
                .cache_shards(1),
        )
        .unwrap();
        for round in 0..20u64 {
            let txn = db.begin();
            for k in 0..40u64 {
                db.put(txn, round * 1000 + k, b"gsc batch fill").unwrap();
            }
            db.commit(txn).unwrap();
        }
        let pulled = db.cache_stats().unwrap().pulled_from_dram;
        assert!(pulled > 0, "GSC never pulled from the DRAM LRU tail");
        assert_eq!(db.tier_stats().gsc_pulls, pulled);
        // Pulled pages entered the persistent cache WAL-covered: nothing in
        // flash may outrun the durable log.
        let durable = db.wal_durable_lsn();
        for store in db.flash_stores() {
            for slot in 0..store.capacity() {
                if let Some((page, lsn)) = store.slot_header(slot) {
                    assert!(lsn <= durable, "page {page} at {lsn:?} beyond durable");
                }
            }
        }
        // And the data is intact.
        for round in 0..20u64 {
            for k in 0..40u64 {
                assert_eq!(
                    db.get(round * 1000 + k).unwrap().as_deref(),
                    Some(b"gsc batch fill".as_ref())
                );
            }
        }
    }

    #[test]
    fn gsc_pulls_and_second_chance_survivors_verify_on_disk() {
        // Pages are checksummed once, when they are staged out of DRAM.
        // Pulled pages and re-enqueued survivors take other routes to the
        // disk than a plain eviction does; whatever route, what the disk
        // store holds must pass its read validation.
        let db = Database::open(
            EngineConfig::in_memory()
                .buffer_frames(32)
                .buffer_shards(4)
                .table_buckets(512)
                .flash_cache(CachePolicyKind::FaceGsc, 64)
                .cache_shards(1)
                .destage_threads(2),
        )
        .unwrap();
        for round in 0..20u64 {
            let txn = db.begin();
            for k in 0..40u64 {
                db.put(txn, round * 1000 + k, b"stamped once").unwrap();
            }
            db.commit(txn).unwrap();
            // Re-reads reference cached versions: second-chance candidates.
            for k in 0..40u64 {
                db.get(round.saturating_sub(1) * 1000 + k).unwrap();
            }
        }
        db.drain_destage().unwrap();
        let cache = db.cache_stats().unwrap();
        assert!(cache.pulled_from_dram > 0, "no GSC pull: {cache:?}");
        assert!(cache.second_chances > 0, "no survivor: {cache:?}");
        assert!(cache.staged_out_to_disk > 0, "nothing reached disk");
        let disk = db.pool.lower().disk();
        let mut written = 0;
        let mut buf = face_pagestore::Page::zeroed();
        for page_no in 0..disk.num_pages(TABLE_FILE) as u32 {
            let id = PageId::new(TABLE_FILE, page_no);
            disk.read_page(id, &mut buf)
                .unwrap_or_else(|e| panic!("page {id} on disk does not validate: {e}"));
            written += usize::from(buf.is_formatted());
        }
        assert!(written > 0);
    }

    #[test]
    fn async_destage_keeps_all_data_correct_under_load() {
        // Small DRAM buffer + small cache: constant evictions, group writes
        // and disk destages, all through the background pipeline. Every
        // committed value must read back correctly while the pipeline is
        // busy and after it drains.
        let db = Database::open(
            EngineConfig::in_memory()
                .buffer_frames(16)
                .table_buckets(256)
                .flash_cache(CachePolicyKind::FaceGr, 64)
                .cache_shards(2)
                .destage_threads(2)
                .destage_queue_depth(8),
        )
        .unwrap();
        for round in 0..10u64 {
            let txn = db.begin();
            for k in 0..60u64 {
                db.put(txn, k, format!("r{round}-k{k}").as_bytes()).unwrap();
            }
            db.commit(txn).unwrap();
            // Reads race the pipeline: they must never see a stale version.
            for k in 0..60u64 {
                assert_eq!(
                    db.get(k).unwrap().unwrap(),
                    format!("r{round}-k{k}").as_bytes(),
                    "round {round} key {k} stale"
                );
            }
        }
        db.drain_destage().unwrap();
        let stats = db.destage_stats().expect("destager enabled");
        assert!(stats.groups_enqueued > 0, "pipeline was never used");
        assert_eq!(stats.groups_enqueued, stats.groups_completed);
        assert_eq!(stats.disk_pages_enqueued, stats.disk_pages_completed);
        for k in 0..60u64 {
            assert_eq!(db.get(k).unwrap().unwrap(), format!("r9-k{k}").as_bytes());
        }
    }

    #[test]
    fn on_disk_backend_survives_reopen() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "face_engine_reopen_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::open(
                EngineConfig::on_disk(&dir)
                    .buffer_frames(8)
                    .table_buckets(16)
                    .flash_cache(CachePolicyKind::FaceGsc, 64),
            )
            .unwrap();
            let txn = db.begin();
            db.put(txn, 7, b"persisted").unwrap();
            db.commit(txn).unwrap();
            // No checkpoint, no clean shutdown: the reopened instance must
            // recover from the WAL alone.
        }
        {
            let db = Database::open(
                EngineConfig::on_disk(&dir)
                    .buffer_frames(8)
                    .table_buckets(16)
                    .flash_cache(CachePolicyKind::FaceGsc, 64),
            )
            .unwrap();
            assert_eq!(db.get(7).unwrap().unwrap(), b"persisted");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_starts_analysis_at_the_anchored_checkpoint() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "face_engine_anchor_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // No flash cache: the checkpoint flushes to the data files, which a
        // new process finds again (a `MemFlashStore` would die with this one).
        let config = || {
            EngineConfig::on_disk(&dir)
                .buffer_frames(8)
                .table_buckets(64)
                .no_flash_cache()
        };
        let last_id = {
            let db = Database::open(config()).unwrap();
            for k in 0..40u64 {
                let txn = db.begin();
                db.put(txn, k, b"history").unwrap();
                db.commit(txn).unwrap();
            }
            let loser = db.begin();
            db.put(loser, 1_000, b"loser").unwrap();
            db.checkpoint().unwrap();
            let tail = db.begin();
            db.put(tail, 2_000, b"tail").unwrap();
            db.commit(tail).unwrap();
            tail
            // The process dies here: no clean shutdown.
        };
        assert!(dir.join("wal.log.anchor").exists());
        {
            let db = Database::open(config()).unwrap();
            let info = db.recovery_info().expect("reopen ran recovery");
            // Loser Begin + update, checkpoint, tail Begin + update + Commit,
            // read by the probe and the two passes — not the 120 records of
            // history in front of them.
            assert!(
                info.records_scanned <= 14,
                "reopen decoded {} records",
                info.records_scanned
            );
            assert_eq!(info.undo.losers_found, 1);
            assert_eq!(info.undo.updates_undone, 1);
            for k in 0..40u64 {
                assert_eq!(db.get(k).unwrap().unwrap(), b"history");
            }
            assert_eq!(db.get(2_000).unwrap().unwrap(), b"tail");
            assert_eq!(db.get(1_000).unwrap(), None);
            // The id fence came from the checkpoint and the tail, not from
            // the history.
            assert!(db.begin().0 > last_id.0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_never_reuses_fully_rolled_back_txn_ids() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "face_engine_txn_fence_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || {
            EngineConfig::on_disk(&dir)
                .buffer_frames(8)
                .table_buckets(16)
                .flash_cache(CachePolicyKind::FaceGsc, 64)
        };
        let aborted = {
            let db = Database::open(config()).unwrap();
            let txn = db.begin();
            db.put(txn, 1, b"doomed").unwrap();
            db.abort(txn).unwrap();
            txn
        };
        {
            // The aborted transaction is fully compensated, so it is in
            // none of analysis' committed / in-flight / loser sets — its id
            // must be fenced anyway.
            let db = Database::open(config()).unwrap();
            assert!(
                db.begin().0 > aborted.0,
                "reopen reused the fully-rolled-back id {}",
                aborted.0
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reused_txn_id_cannot_resurrect_stale_before_images() {
        // The end-to-end corruption an id reuse would cause: the old
        // incarnation (aborted, fully compensated) updated key K; after
        // reopen a new transaction with the same id crashes uncommitted,
        // and restart undo — which collects loser work by transaction id —
        // would re-apply the old incarnation's before-image of K over a
        // value committed since.
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "face_engine_txn_reuse_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || {
            EngineConfig::on_disk(&dir)
                .buffer_frames(8)
                .table_buckets(16)
                .flash_cache(CachePolicyKind::FaceGsc, 64)
        };
        const K: u64 = 1;
        const J: u64 = 2;
        {
            let db = Database::open(config()).unwrap();
            let base = db.begin();
            db.put(base, K, b"base").unwrap();
            db.commit(base).unwrap();
            let doomed = db.begin();
            db.put(doomed, K, b"doomed").unwrap();
            db.abort(doomed).unwrap();
        }
        {
            let db = Database::open(config()).unwrap();
            // First new transaction: were the fence broken, this would wear
            // the aborted transaction's id. It updates J and dies
            // uncommitted at the crash.
            let loser = db.begin();
            db.put(loser, J, b"loser").unwrap();
            let winner = db.begin();
            db.put(winner, K, b"committed").unwrap();
            // The commit force also makes the loser's earlier update
            // durable, so restart sees it and must roll it back.
            db.commit(winner).unwrap();
            db.crash();
        }
        {
            let db = Database::open(config()).unwrap();
            assert_eq!(
                db.get(K).unwrap().unwrap(),
                b"committed",
                "stale before-image from a previous txn-id incarnation \
                 overwrote committed data"
            );
            assert_eq!(db.get(J).unwrap(), None, "loser update survived");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_ops_on_one_txn_are_rejected_not_corrupting() {
        // Two threads hammer the same transaction. Every operation must
        // either succeed or fail with TransactionBusy; whatever succeeded
        // forms one intact prev_lsn chain, so the final abort reverts every
        // surviving update.
        let db = Arc::new(small_db(CachePolicyKind::FaceGsc));
        let setup = db.begin();
        for k in 0..8u64 {
            db.put(setup, k, b"base").unwrap();
        }
        db.commit(setup).unwrap();

        let txn = db.begin();
        let mut rejected = 0u64;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let db = Arc::clone(&db);
                    s.spawn(move || {
                        let mut busy = 0u64;
                        for i in 0..200u64 {
                            match db.put(txn, (t * 97 + i) % 8, b"dirty") {
                                Ok(()) => {}
                                Err(EngineError::TransactionBusy(id)) => {
                                    assert_eq!(id, txn.0);
                                    busy += 1;
                                }
                                Err(e) => panic!("unexpected error: {e}"),
                            }
                        }
                        busy
                    })
                })
                .collect();
            for h in handles {
                rejected += h.join().unwrap();
            }
        });
        let _ = rejected; // Contention is timing-dependent; zero is legal.
        db.abort(txn).unwrap();
        for k in 0..8u64 {
            assert_eq!(
                db.get(k).unwrap().unwrap(),
                b"base",
                "abort missed an update on key {k}: the undo chain broke \
                 under same-txn concurrency"
            );
        }
    }

    #[test]
    fn concurrent_transactions_from_many_threads() {
        let db = Arc::new(
            Database::open(
                EngineConfig::in_memory()
                    .buffer_frames(64)
                    .table_buckets(256)
                    .flash_cache(CachePolicyKind::FaceGsc, 512),
            )
            .unwrap(),
        );
        let threads = 4u64;
        let keys_per_thread = 50u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    let txn = db.begin();
                    for i in 0..keys_per_thread {
                        let key = t * 10_000 + i;
                        db.put(txn, key, format!("t{t}-{i}").as_bytes()).unwrap();
                    }
                    db.commit(txn).unwrap();
                });
            }
        });
        for t in 0..threads {
            for i in 0..keys_per_thread {
                let key = t * 10_000 + i;
                assert_eq!(
                    db.get(key).unwrap().unwrap(),
                    format!("t{t}-{i}").as_bytes(),
                    "key {key} lost"
                );
            }
        }
        let stats = db.stats();
        assert_eq!(stats.txns_committed, threads);
        assert_eq!(stats.puts, threads * keys_per_thread);
    }
}
