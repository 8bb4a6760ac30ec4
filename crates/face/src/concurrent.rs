//! A sharded, concurrency-safe front for the ring policies (FaCE, FaCE+GR,
//! FaCE+GSC, S3-FIFO) — the flash cache of the functional engine. The LC
//! and TAC baselines run only in the trace simulator.
//!
//! A [`crate::RingCache`] is deliberately single-threaded: its directory is
//! intricate (circular multi-version queues, a pending batch, in-flight
//! groups) and the paper's algorithms are specified sequentially.
//! [`ShardedFlashCache`] makes it safe for concurrent callers the same way
//! the paper's host system (PostgreSQL) partitions its buffer table: the
//! page-id space is hashed over `N` independent shards, each a full policy
//! instance over its own slice of the flash device, each behind its own
//! mutex. Callers holding different pages proceed in parallel; the global
//! mvFIFO order becomes a per-shard FIFO order, which preserves every
//! property the paper relies on (sequential batch writes, multi-version
//! invalidation, bounded occupancy) within each shard.
//!
//! Statistics are atomic inside the policies ([`crate::types::Counter`]), so
//! [`ShardedFlashCache::stats`] merges per-shard snapshots without stalling
//! writers for long.

use std::sync::Arc;

use face_analysis::classes::CACHE_SHARD;
use face_analysis::{witness, OrderedRwLock};
use face_pagestore::{backoff_sleep, Counter, DeviceResult, Lsn, Page, PageId};

use crate::admission::SharedGhost;
use crate::degrade::{DegradeConfig, DegradeController};
use crate::destage::PendingGroupWrite;
use crate::io::IoLog;
use crate::policy::{build_ring, CachePolicyKind, NoSupplier, PageSupplier};
use crate::ring::RingCache;
use crate::store::FlashStore;
use crate::types::{
    CacheConfig, CacheRecoveryInfo, CacheStats, Evacuation, FetchPin, FlashFetch, InsertFailure,
    InsertOutcome, QuarantineOutcome,
};
use crate::StagedPage;

/// A lock-striped set of independent ring-policy instances, routable by page
/// id, exposing the whole [`RingCache`] surface through `&self`.
///
/// Each shard sits behind an `RwLock`: mutating operations take the write
/// lock, while pure lookups ([`ShardedFlashCache::contains`], the validate
/// half of the lock-light fetch, [`ShardedFlashCache::stats`]) share a read
/// lock. With [`CacheConfig::lock_light_reads`] set,
/// [`ShardedFlashCache::fetch`] pins the version under a short write lock,
/// **drops the lock, performs the flash device read with no lock held**, and
/// revalidates against the slot's generation — so one slow device read never
/// stalls the other threads hashing to the shard (the read-side counterpart
/// of the deferred group writes).
pub struct ShardedFlashCache {
    shards: Vec<OrderedRwLock<Box<dyn RingCache>>>,
    stores: Vec<Arc<dyn FlashStore>>,
    /// Per-shard occupancy mirrors, refreshed after every mutating shard
    /// operation, so [`ShardedFlashCache::len`] never sweeps the shard locks
    /// (it used to take every lock per call). Exact whenever writers are
    /// quiesced; a point-in-time approximation under concurrency, like
    /// [`ShardedFlashCache::stats`].
    occupancy: Vec<Counter>,
    /// Per-shard configurations (each shard owns a slice of the capacity);
    /// kept so a shard can be rebuilt cold ([`ShardedFlashCache::reset_cold`]).
    configs: Vec<CacheConfig>,
    kind: CachePolicyKind,
    capacity: usize,
    /// Mirror of [`CacheConfig::lock_light_reads`].
    lock_light: bool,
    name: &'static str,
    /// Ghost-queue admission filter in front of the mvFIFO family
    /// ([`CacheConfig::ghost_admission`]): a clean first-touch page is
    /// recorded here instead of earning a flash write. `None` when the flag
    /// is off and for S3-FIFO, whose ghost queue is integral to the policy.
    ghost: Option<SharedGhost>,
    /// Clean first touches the ghost filter kept off the flash.
    admission_filtered: Counter,
    /// Ghost re-references that earned their flash write.
    admission_ghost_hits: Counter,
    /// Degrade controller, when the owner installed one
    /// ([`ShardedFlashCache::with_degrade`]): bounds the off-lock fetch
    /// retries and counts them. Error *classification* (quarantine, breaker)
    /// stays with the owner, which sees the errors this type propagates.
    degrade: Option<Arc<DegradeController>>,
}

impl ShardedFlashCache {
    /// Build `shards` independent caches of `kind`, splitting
    /// `config.capacity_pages` between them. `store_factory` is called once
    /// per shard with that shard's slot capacity (the functional engine hands
    /// out one [`crate::MemFlashStore`] per shard).
    ///
    /// Returns `None` for [`CachePolicyKind::None`].
    ///
    /// # Panics
    /// Panics for LC and TAC, which are not ring policies ([`build_ring`]).
    pub fn build(
        kind: CachePolicyKind,
        config: CacheConfig,
        shards: usize,
        store_factory: impl Fn(usize) -> Arc<dyn FlashStore>,
    ) -> Option<Self> {
        if kind == CachePolicyKind::None {
            return None;
        }
        let capacity = config.capacity_pages.max(1);
        // Never create shards so small that a policy's group size exceeds its
        // capacity; each shard must hold at least one replacement group.
        // S3-FIFO additionally needs two slots per shard (one per region).
        let min_per_shard = config.group_size.max(if kind == CachePolicyKind::S3Fifo {
            2
        } else {
            1
        });
        let shards = shards.clamp(1, (capacity / min_per_shard).max(1));
        let base = capacity / shards;
        let rem = capacity % shards;

        let mut built = Vec::with_capacity(shards);
        let mut stores = Vec::with_capacity(shards);
        let mut configs = Vec::with_capacity(shards);
        let mut name = "";
        for i in 0..shards {
            let shard_capacity = base + usize::from(i < rem);
            let shard_config = CacheConfig {
                capacity_pages: shard_capacity,
                ..config.clone()
            };
            let store = store_factory(shard_capacity);
            let cache = build_ring(kind, shard_config.clone(), Arc::clone(&store))
                .expect("kind is not None");
            name = cache.policy_name();
            stores.push(store);
            configs.push(shard_config);
            built.push(OrderedRwLock::new(CACHE_SHARD, cache));
        }
        // One filter for the whole cache, not per shard: a page's first touch
        // and its comeback must meet even though insert order is arbitrary.
        let ghost = (config.ghost_admission && kind != CachePolicyKind::S3Fifo)
            .then(|| SharedGhost::new(config.effective_ghost_capacity()));
        Some(Self {
            ghost,
            admission_filtered: Counter::default(),
            admission_ghost_hits: Counter::default(),
            degrade: None,
            occupancy: (0..built.len()).map(|_| Counter::default()).collect(),
            shards: built,
            stores,
            configs,
            kind,
            capacity,
            lock_light: config.lock_light_reads,
            name,
        })
    }

    /// Install a degrade controller: bounds (and counts) the transient-error
    /// retries of the off-lock fetch path. Call once at construction time,
    /// before the cache is shared.
    pub fn with_degrade(mut self, controller: Arc<DegradeController>) -> Self {
        self.degrade = Some(controller);
        self
    }

    /// Retry budget for transient device errors on the off-lock read path.
    fn max_retries(&self) -> u32 {
        self.degrade
            .as_ref()
            .map(|c| c.config().max_retries)
            .unwrap_or_else(|| DegradeConfig::default().max_retries)
    }

    /// Refresh a shard's occupancy mirror from the policy, while its lock is
    /// still held by the caller.
    fn note_len(&self, shard: usize, cache: &dyn RingCache) {
        self.occupancy[shard].set(cache.len() as u64);
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard flash stores (crash-simulation tests inspect them).
    pub fn stores(&self) -> &[Arc<dyn FlashStore>] {
        &self.stores
    }

    /// The policy kind every shard runs.
    pub fn kind(&self) -> CachePolicyKind {
        self.kind
    }

    /// Human-readable policy name.
    pub fn policy_name(&self) -> &'static str {
        self.name
    }

    /// Total capacity in page slots across all shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The shard `page` routes to. Public so callers can filter work by
    /// shard — the GSC pull-from-DRAM supplier must only feed a shard pages
    /// that belong to it, and destage jobs route by shard.
    pub fn shard_of(&self, page: PageId) -> usize {
        face_pagestore::stripe_of(page.to_u64(), self.shards.len())
    }

    /// Whether a valid copy of `page` is cached. Takes only the shard's
    /// **read** lock, so hot-path callers never serialize behind writers
    /// already inside the shard (and never block readers at all).
    pub fn contains(&self, page: PageId) -> bool {
        self.shards[self.shard_of(page)].read().contains(page)
    }

    /// Look up `page` on a DRAM miss (see [`crate::FlashCache::fetch`]).
    ///
    /// With [`CacheConfig::lock_light_reads`] set this is the lock-light
    /// protocol: pin the version under a short shard write lock
    /// ([`RingCache::fetch_pin`]), drop the lock, perform the flash device
    /// read **off-lock**, then revalidate the slot's generation under a read
    /// lock ([`RingCache::fetch_validate`]). Losing the race to an eviction
    /// or slot reuse discards the read and retries the lookup from scratch
    /// ([`CacheStats::fetch_retries`]); versions still in a deferred group
    /// are served from their shared RAM frames with no device read at all.
    /// Without the flag, the classic read-under-lock path runs unchanged.
    ///
    /// Device read errors surface as `Err`: transient errors are retried
    /// off-lock (with backoff, up to the degrade controller's budget) before
    /// giving up. The caller decides what an error means — for a clean copy
    /// the disk is still authoritative and a miss-to-disk is safe; for a
    /// dirty copy the flash held the only current version.
    pub fn fetch(&self, page: PageId, io: &mut IoLog) -> DeviceResult<Option<FlashFetch>> {
        let shard = self.shard_of(page);
        if !self.lock_light {
            // The classic read-under-lock path is the A/B baseline the
            // lock-light experiments compare against: its device read under
            // the shard lock is the measured cost, not an accident.
            let _allow = witness::allow_device_io("cache: classic read-under-lock fetch");
            return self.shards[shard].write().fetch(page, io);
        }
        self.fetch_from(shard, page, false, io)
    }

    /// Look up several pages on DRAM misses at once — a warm restart's
    /// working set. Results come back in the order of `pages`, each what
    /// [`ShardedFlashCache::fetch`] would have returned for it.
    ///
    /// Per shard, every requested version is pinned under **one** write lock
    /// ([`RingCache::fetch_pin`], no I/O); the lock is dropped and the pins
    /// that need the device are read with **one**
    /// [`FlashStore::read_batch`], sorted by slot, then validated one by
    /// one as `fetch` validates. RAM-resident frames and metadata-only hits
    /// need no read. A page whose validation lost to an eviction or slot
    /// reuse goes back to the single-page path as a retry; if the batch read
    /// fails, each pinned page is read on its own, so an error names the
    /// slot it belongs to and surfaces for that page alone. Without
    /// [`CacheConfig::lock_light_reads`] this is one `fetch` per page.
    pub fn fetch_batch(
        &self,
        pages: &[PageId],
        io: &mut IoLog,
    ) -> Vec<DeviceResult<Option<FlashFetch>>> {
        if !self.lock_light {
            return pages.iter().map(|&page| self.fetch(page, io)).collect();
        }
        let mut by_shard = vec![Vec::new(); self.shards.len()];
        for (i, &page) in pages.iter().enumerate() {
            by_shard[self.shard_of(page)].push(i);
        }
        let mut results: Vec<Option<DeviceResult<Option<FlashFetch>>>> =
            pages.iter().map(|_| None).collect();
        for (shard, wanted) in by_shard.into_iter().enumerate() {
            if wanted.is_empty() {
                continue;
            }
            let pins: Vec<(usize, Option<FetchPin>)> = {
                let mut guard = self.shards[shard].write();
                wanted
                    .into_iter()
                    .map(|i| (i, guard.fetch_pin(pages[i], false, io)))
                    .collect()
            };
            let mut reads = Vec::with_capacity(pins.len());
            for (i, pin) in pins {
                match pin {
                    None => results[i] = Some(Ok(None)),
                    Some(pin) => match self.served_without_read(shard, &pin) {
                        Some(hit) => results[i] = Some(Ok(Some(hit))),
                        None => reads.push((i, pin)),
                    },
                }
            }
            if reads.is_empty() {
                continue;
            }
            reads.sort_unstable_by_key(|(_, pin)| pin.slot);
            let slots: Vec<usize> = reads.iter().map(|(_, pin)| pin.slot).collect();
            // The flash device read, with no shard lock held.
            match self.stores[shard].read_batch(&slots) {
                Ok(data) => {
                    for ((i, pin), data) in reads.into_iter().zip(data) {
                        results[i] = Some(self.validated(shard, pages[i], &pin, data, io));
                    }
                }
                Err(_) => {
                    for (i, pin) in reads {
                        results[i] = Some(
                            self.read_pinned(shard, pin.slot)
                                .and_then(|data| self.validated(shard, pages[i], &pin, data, io)),
                        );
                    }
                }
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every page was answered"))
            .collect()
    }

    /// The lock-light fetch of `page` from `shard`, from its pin on: pin
    /// under a short write lock, read off-lock, validate, and on a lost race
    /// discard the bytes and pin again as a retry.
    fn fetch_from(
        &self,
        shard: usize,
        page: PageId,
        mut retry: bool,
        io: &mut IoLog,
    ) -> DeviceResult<Option<FlashFetch>> {
        loop {
            let Some(pin) = self.shards[shard].write().fetch_pin(page, retry, io) else {
                return Ok(None);
            };
            if let Some(hit) = self.served_without_read(shard, &pin) {
                return Ok(Some(hit));
            }
            let data = self.read_pinned(shard, pin.slot)?;
            if self.still_valid(shard, &pin) {
                return Ok(Some(served(&pin, data)));
            }
            // The slot was evicted or reused while we read: the bytes may
            // belong to a different version. Discard and retry.
            retry = true;
        }
    }

    /// A pinned version that needs no device read: a RAM-resident frame
    /// (pending batch / in-flight group: immutable and Arc-shared, valid
    /// regardless of what happens to the slot), or a metadata-only hit
    /// (nothing to read, nothing to validate — the pinned metadata was
    /// consistent under the lock).
    fn served_without_read(&self, shard: usize, pin: &FetchPin) -> Option<FlashFetch> {
        if let Some(frame) = &pin.frame {
            return Some(served(pin, Some(frame.as_ref().clone())));
        }
        (!pin.data_expected || !self.stores[shard].carries_data()).then(|| served(pin, None))
    }

    /// Whether `pin`'s slot still holds the pinned version (the generation
    /// check, under a read lock).
    fn still_valid(&self, shard: usize, pin: &FetchPin) -> bool {
        self.shards[shard]
            .read()
            .fetch_validate(pin.slot, pin.generation)
    }

    /// Read one pinned slot with no shard lock held — which is also why the
    /// transient-error backoff may sleep right here.
    fn read_pinned(&self, shard: usize, slot: usize) -> DeviceResult<Option<Page>> {
        let mut attempt: u32 = 0;
        loop {
            match self.stores[shard].read_slot(slot) {
                Ok(data) => return Ok(data),
                Err(e) if e.is_transient() && attempt < self.max_retries() => {
                    attempt += 1;
                    if let Some(c) = &self.degrade {
                        c.note_retry();
                    }
                    backoff_sleep(attempt);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Serve `data`, read off-lock for `pin`, if the pin is still valid;
    /// otherwise fall back to the single-page path as a retry.
    fn validated(
        &self,
        shard: usize,
        page: PageId,
        pin: &FetchPin,
        data: Option<Page>,
        io: &mut IoLog,
    ) -> DeviceResult<Option<FlashFetch>> {
        if self.still_valid(shard, pin) {
            return Ok(Some(served(pin, data)));
        }
        self.fetch_from(shard, page, true, io)
    }

    /// Hand a page leaving the DRAM buffer to its shard (see
    /// [`crate::FlashCache::insert`]) with no GSC supplier and no sink.
    pub fn insert(
        &self,
        staged: StagedPage,
        io: &mut IoLog,
    ) -> Result<InsertOutcome, InsertFailure> {
        self.insert_with_sink(staged, &mut NoSupplier, io, &mut |_| {})
    }

    /// Hand a page to its shard with a Group Second Chance supplier. The
    /// supplier runs **while the shard lock is held**, so it must never block
    /// on another cache shard and must only return pages that route to this
    /// same shard (check with [`ShardedFlashCache::shard_of`]); the engine's
    /// supplier additionally only uses `try_lock` on buffer shards, keeping
    /// the lock graph acyclic. Pages it returns must already be WAL-covered
    /// — they enter the persistent database right here.
    ///
    /// In deferred mode ([`CacheConfig::defer_group_writes`]) the returned
    /// outcome may carry a [`PendingGroupWrite`] stamped with this shard's
    /// index; the caller must apply it off-lock
    /// ([`ShardedFlashCache::apply_group_write`]) and then seal it
    /// ([`ShardedFlashCache::complete_group`]) — typically by enqueueing it
    /// on a [`crate::destage::Destager`].
    ///
    /// `staged_out_sink` sees the dequeued pages **before the shard lock is
    /// released**. The tier uses this to publish stage-outs into its wash
    /// table atomically with their removal from the directory — otherwise a
    /// concurrent fetch could miss both the cache (entry already gone) and
    /// the wash table (entry not yet published) and serve the stale disk
    /// version. The sink must be short and must not take cache locks. A
    /// failed insert hands the dirty pages it un-cached to the sink the same
    /// way and returns them in [`InsertFailure::fallout`].
    pub fn insert_with_sink(
        &self,
        staged: StagedPage,
        supplier: &mut dyn PageSupplier,
        io: &mut IoLog,
        staged_out_sink: &mut dyn FnMut(&[StagedPage]),
    ) -> Result<InsertOutcome, InsertFailure> {
        let shard = self.shard_of(staged.page);
        let mut guard = self.shards[shard].write();
        if let Some(ghost) = &self.ghost {
            // The admission filter applies to **clean first touches only**:
            // dirty pages must be absorbed (rejecting one would drop the only
            // up-to-date copy), and an already-cached page's insert is the
            // policy's business (conditional enqueue / version supersession).
            // A rejected clean page still exists on disk, so `cached: false`
            // is safe. The ghost stripe nests inside the shard lock
            // (`ghost_admission` ranks below `cache_shard`), keeping the
            // reject decision atomic with the directory check.
            if !staged.dirty && !guard.contains(staged.page) {
                if ghost.admit_or_record(staged.page) {
                    self.admission_ghost_hits.inc();
                } else {
                    self.admission_filtered.inc();
                    return Ok(InsertOutcome {
                        cached: false,
                        ..Default::default()
                    });
                }
            }
        }
        let mut outcome = match guard.insert(staged, supplier, io) {
            Ok(outcome) => outcome,
            Err(error) => {
                // The policy rolled its directory back and parked every
                // dirty page it had to un-cache in its fallout buffer.
                // Publish them to the sink *before* releasing the lock (same
                // race as regular stage-outs), then hand them up.
                let fallout = guard.take_write_fallout();
                if !fallout.is_empty() {
                    staged_out_sink(&fallout);
                }
                self.note_len(shard, &**guard);
                return Err(InsertFailure { error, fallout });
            }
        };
        if !outcome.staged_out.is_empty() {
            staged_out_sink(&outcome.staged_out);
        }
        self.note_len(shard, &**guard);
        drop(guard);
        if let Some(pending) = outcome.pending_group.as_mut() {
            pending.shard = shard;
        }
        Ok(outcome)
    }

    /// Apply a deferred group's physical flash batch write against its
    /// shard's store. Takes **no shard lock** — exactly why the write was
    /// deferred. On error the group is still owed: the caller aborts it
    /// ([`ShardedFlashCache::abort_group`]) or retries (the batch rewrite is
    /// idempotent; the journal seals only on completion).
    pub fn apply_group_write(&self, write: &PendingGroupWrite, io: &mut IoLog) -> DeviceResult<()> {
        write.apply(&*self.stores[write.shard % self.stores.len()], io)
    }

    /// Whether a group's physical write is still owed (formed, neither
    /// completed nor aborted). The destager consults this before applying,
    /// so a group handed over twice — by the insert that formed it and
    /// again by [`ShardedFlashCache::owed_groups`] — is not written (and
    /// charged) twice.
    pub fn group_write_pending(&self, shard: usize, epoch: u64) -> bool {
        self.shards[shard % self.shards.len()]
            .read()
            .group_write_pending(epoch)
    }

    /// Seal a deferred group's journal records now that its batch write is
    /// on flash (briefly takes the shard lock; see
    /// [`RingCache::complete_group`]).
    pub fn complete_group(&self, shard: usize, epoch: u64, io: &mut IoLog) {
        self.shards[shard % self.shards.len()]
            .write()
            .complete_group(epoch, io);
    }

    /// Form every shard's pending batch into a group and return every group
    /// whose batch write is still owed, stamped with its shard, oldest first
    /// within a shard (see [`RingCache::owed_groups`]). Each shard lock is
    /// held only to collect them; no device I/O.
    pub fn owed_groups(&self) -> Vec<PendingGroupWrite> {
        let mut owed = Vec::new();
        for (shard, cache) in self.shards.iter().enumerate() {
            for mut write in cache.write().owed_groups() {
                write.shard = shard;
                owed.push(write);
            }
        }
        owed
    }

    /// Write every shard's metadata checkpoint (see
    /// [`RingCache::checkpoint_metadata`]); write the owed groups first.
    pub fn checkpoint_metadata(&self, io: &mut IoLog) {
        for shard in &self.shards {
            shard.write().checkpoint_metadata(io);
        }
    }

    /// Evacuate every dirty valid page from every shard (see
    /// [`RingCache::evacuate_dirty`]), one evacuation per shard, indexed by
    /// shard: the caller must write them to disk before wiping the cache
    /// with [`ShardedFlashCache::reset_cold`]. `unread_dirty` counts dirty
    /// pages whose slots could not be read — their committed updates are
    /// recoverable only through WAL redo.
    pub fn evacuate_dirty(&self, io: &mut IoLog) -> Vec<Evacuation> {
        // Admin/quiesced operation: reads every dirty slot under the lock.
        let _allow = witness::allow_device_io("cache: quiesced dirty evacuation");
        self.shards
            .iter()
            .map(|shard| shard.write().evacuate_dirty(io))
            .collect()
    }

    /// Quarantine one slot of one shard (see [`RingCache::quarantine_slot`]):
    /// the slot leaves rotation, a clean resident is dropped, a dirty
    /// resident is evacuated. The evacuee (if any) is published to
    /// `staged_out_sink` **before the shard lock is released** — same
    /// atomicity contract as [`ShardedFlashCache::insert_with_sink`] — and
    /// also returned for the caller to hand to its disk writer.
    pub fn quarantine_slot(
        &self,
        shard: usize,
        slot: usize,
        io: &mut IoLog,
        staged_out_sink: &mut dyn FnMut(&[StagedPage]),
    ) -> QuarantineOutcome {
        // Quarantine makes a last-resort read of the failing slot to rescue
        // a dirty resident; acknowledged under-lock I/O.
        let _allow = witness::allow_device_io("cache: quarantine evacuates the failing slot");
        let shard = shard % self.shards.len();
        let mut guard = self.shards[shard].write();
        let out = guard.quarantine_slot(slot, io);
        if let Some(evacuee) = &out.evacuee {
            staged_out_sink(std::slice::from_ref(evacuee));
        }
        self.note_len(shard, &**guard);
        out
    }

    /// Abort a deferred group whose batch write failed (see
    /// [`RingCache::abort_group`]): the group's slots become reclaimable
    /// holes, its journal records die unsealed, and its dirty pages come
    /// back for disk failover. Like
    /// [`ShardedFlashCache::quarantine_slot`], the returned pages are
    /// published to `staged_out_sink` under the shard lock.
    pub fn abort_group(
        &self,
        shard: usize,
        epoch: u64,
        io: &mut IoLog,
        staged_out_sink: &mut dyn FnMut(&[StagedPage]),
    ) -> Vec<StagedPage> {
        let shard = shard % self.shards.len();
        let mut guard = self.shards[shard].write();
        let fallout = guard.abort_group(epoch, io);
        if !fallout.is_empty() {
            staged_out_sink(&fallout);
        }
        self.note_len(shard, &**guard);
        fallout
    }

    /// Crash and recover every shard, merging the per-shard reports.
    /// `survived` is true only if every shard's metadata survived.
    /// Each shard reconciles its recovered directory against `durable_lsn`
    /// (the durable end of the WAL): versions newer than it are discarded.
    /// Callers without a WAL pass `Lsn(u64::MAX)`.
    pub fn crash_and_recover(&self, durable_lsn: Lsn, io: &mut IoLog) -> CacheRecoveryInfo {
        // Restart path: the world is quiesced, metadata scans and slot reads
        // run under the shard lock by construction.
        let _allow = witness::allow_device_io("cache: quiesced crash-and-recover");
        let mut merged = CacheRecoveryInfo {
            survived: true,
            ..CacheRecoveryInfo::default()
        };
        for (i, shard) in self.shards.iter().enumerate() {
            let mut guard = shard.write();
            let info = guard.crash_and_recover(durable_lsn, io);
            self.note_len(i, &**guard);
            merged = merged.merged(&info);
        }
        merged
    }

    /// Drop every shard cold: flash store contents and all cache metadata
    /// (journal, checkpoint, directory) are discarded and fresh policy
    /// instances are built. Models restarting with a wiped or replaced cache
    /// device — the baseline the warm-recovery experiments compare against.
    pub fn reset_cold(&self) {
        let _allow = witness::allow_device_io("cache: quiesced cold reset wipes stores");
        for (i, ((shard, store), config)) in self
            .shards
            .iter()
            .zip(self.stores.iter())
            .zip(self.configs.iter())
            .enumerate()
        {
            let mut guard = shard.write();
            store.clear();
            *guard =
                build_ring(self.kind, config.clone(), Arc::clone(store)).expect("kind is not None");
            self.note_len(i, &**guard);
        }
        if let Some(ghost) = &self.ghost {
            ghost.clear();
        }
    }

    /// Merged activity counters across shards.
    ///
    /// The snapshot is **consistent across shards**: every shard's read lock
    /// is acquired (in shard order) before any counter is read, so the
    /// merged numbers reflect one instant and per-shard sums cannot tear
    /// against a concurrent mutating operation that spans the snapshot (a
    /// read lock suffices: mutators hold the write lock). The result is
    /// still a *point-in-time* value: by the time the caller looks at it,
    /// further operations may have run. Callers needing exact books must
    /// quiesce writers first — the staleness, not the tearing, is the
    /// contract.
    pub fn stats(&self) -> CacheStats {
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let mut merged = guards
            .iter()
            .map(|g| g.stats())
            .fold(CacheStats::default(), |acc, s| acc.merged(&s));
        // Device-level page-program tally and the sharded admission filter's
        // counters live outside the shards — atomic reads, no extra lock
        // sweep. (S3-FIFO shards report their admission counters through the
        // per-shard stats merged above; exactly one of the two sources is
        // nonzero.)
        merged.flash_pages_written = self.flash_pages_written();
        merged.admission_filtered += self.admission_filtered.get();
        merged.admission_ghost_hits += self.admission_ghost_hits.get();
        merged
    }

    /// Lifetime flash page programs across every shard's store — a
    /// **lock-free** sum of the per-device atomic tallies (monotonic: it
    /// survives [`CacheStats`] resets and cold wipes, so callers diff
    /// before/after readings).
    pub fn flash_pages_written(&self) -> u64 {
        self.stores.iter().map(|s| s.pages_written()).sum()
    }

    /// Reset activity counters on every shard, under an all-shards **write**
    /// pass: a reset is a mutation, and holding mere read locks would let a
    /// concurrent [`ShardedFlashCache::stats`] snapshot interleave with the
    /// zeroing and merge pre-reset and post-reset shard values.
    pub fn reset_stats(&self) {
        let guards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        for g in &guards {
            g.reset_stats();
        }
        self.admission_filtered.set(0);
        self.admission_ghost_hits.set(0);
    }

    /// Occupied page slots across shards, from the per-shard occupancy
    /// mirrors — **no shard lock is taken**. Exact at quiesce; under
    /// concurrent inserts the value may lag the shards by in-flight
    /// operations (the previous implementation locked every shard per call,
    /// which serialized hot-path callers against the whole cache).
    pub fn len(&self) -> usize {
        self.occupancy.iter().map(|c| c.get() as usize).sum()
    }

    /// Whether no shard holds anything (same contract as
    /// [`ShardedFlashCache::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a fetch returns for `pin`, carrying `data`.
fn served(pin: &FetchPin, data: Option<Page>) -> FlashFetch {
    FlashFetch {
        data,
        dirty: pin.dirty,
        lsn: pin.lsn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemFlashStore;
    use face_pagestore::{Lsn, Page};

    fn sharded(kind: CachePolicyKind, capacity: usize, shards: usize) -> ShardedFlashCache {
        let config = CacheConfig {
            capacity_pages: capacity,
            group_size: 4,
            meta_checkpoint_interval_groups: 1_000_000,
            // The whole suite runs through the lock-light read path (the
            // policy-level tests in mvfifo/s3fifo keep covering the classic
            // read-under-lock fetch).
            lock_light_reads: true,
            ..CacheConfig::default()
        };
        ShardedFlashCache::build(kind, config, shards, |cap| {
            Arc::new(MemFlashStore::new(cap)) as Arc<dyn FlashStore>
        })
        .unwrap()
    }

    fn data_page(n: u32) -> StagedPage {
        let mut p = Page::new(PageId::new(0, n));
        p.set_lsn(Lsn(n as u64 + 1));
        p.write_body(0, &n.to_le_bytes());
        StagedPage::with_data(p, true, true)
    }

    /// A checkpoint on the caller's thread: apply and seal every owed group,
    /// then write the metadata checkpoints.
    fn sync(c: &ShardedFlashCache, io: &mut IoLog) {
        for write in c.owed_groups() {
            c.apply_group_write(&write, io).unwrap();
            c.complete_group(write.shard, write.epoch, io);
        }
        c.checkpoint_metadata(io);
    }

    #[test]
    fn none_policy_builds_nothing() {
        assert!(ShardedFlashCache::build(
            CachePolicyKind::None,
            CacheConfig::default(),
            4,
            |cap| Arc::new(MemFlashStore::new(cap)) as Arc<dyn FlashStore>
        )
        .is_none());
    }

    #[test]
    fn capacity_splits_exactly_across_shards() {
        let c = sharded(CachePolicyKind::FaceGsc, 130, 4);
        assert_eq!(c.shard_count(), 4);
        assert_eq!(c.capacity(), 130);
        let total: usize = c.stores().iter().map(|s| s.capacity()).sum();
        assert_eq!(total, 130);
        assert_eq!(c.policy_name(), "FaCE+GSC");
        assert_eq!(c.kind(), CachePolicyKind::FaceGsc);
    }

    #[test]
    fn tiny_caches_collapse_to_fewer_shards() {
        // 8 slots with group size 4 support at most 2 shards.
        let c = sharded(CachePolicyKind::FaceGr, 8, 16);
        assert!(c.shard_count() <= 2);
        assert_eq!(c.capacity(), 8);
    }

    #[test]
    fn insert_fetch_round_trip_across_shards() {
        let c = sharded(CachePolicyKind::Face, 256, 4);
        let mut io = IoLog::new();
        for n in 0..64u32 {
            c.insert(data_page(n), &mut io).unwrap();
        }
        assert_eq!(c.len(), 64);
        assert!(!c.is_empty());
        for n in 0..64u32 {
            let page = PageId::new(0, n);
            assert!(c.contains(page), "page {n} routed consistently");
            let hit = c.fetch(page, &mut io).unwrap().expect("cached");
            assert_eq!(hit.data.unwrap().read_body(0, 4), &n.to_le_bytes());
        }
        let stats = c.stats();
        assert_eq!(stats.inserts, 64);
        assert_eq!(stats.hits, 64);
        c.reset_stats();
        let after = c.stats();
        // Everything resets except the device-level page-program tally,
        // which is monotonic by contract (callers diff readings).
        assert_eq!(
            after,
            CacheStats {
                flash_pages_written: after.flash_pages_written,
                ..CacheStats::default()
            }
        );
        assert_eq!(after.flash_pages_written, c.flash_pages_written());
    }

    #[test]
    fn concurrent_callers_keep_shards_consistent() {
        let c = Arc::new(sharded(CachePolicyKind::FaceGsc, 512, 4));
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    let mut io = IoLog::new();
                    for i in 0..200u32 {
                        let n = t * 1000 + (i % 50);
                        c.insert(data_page(n), &mut io).unwrap();
                        c.fetch(PageId::new(0, n), &mut io).unwrap();
                    }
                });
            }
        });
        let stats = c.stats();
        assert_eq!(stats.inserts, 8 * 200);
        assert_eq!(stats.lookups, 8 * 200);
        assert!(c.len() <= c.capacity());
    }

    #[test]
    fn crash_and_recover_merges_shard_reports() {
        let c = sharded(CachePolicyKind::FaceGsc, 256, 4);
        let mut io = IoLog::new();
        for n in 0..40u32 {
            c.insert(data_page(n), &mut io).unwrap();
        }
        sync(&c, &mut io);
        let info = c.crash_and_recover(Lsn(u64::MAX), &mut io);
        assert!(info.survived);
        assert_eq!(info.entries_restored, 40);
        assert!(info.checkpoint_loaded, "sync writes a cache checkpoint");
        assert_eq!(info.entries_discarded_beyond_wal, 0);
        // The recovered shards still serve every page.
        for n in 0..40u32 {
            assert!(c.contains(PageId::new(0, n)), "page {n} lost");
        }
    }

    #[test]
    fn recovery_reconciles_against_the_durable_lsn() {
        let c = sharded(CachePolicyKind::FaceGsc, 256, 4);
        let mut io = IoLog::new();
        for n in 0..40u32 {
            c.insert(data_page(n), &mut io).unwrap(); // page n carries Lsn(n + 1)
        }
        sync(&c, &mut io);
        // Only LSNs <= 20 are durable in the WAL: the newer half of the cache
        // must be discarded at recovery, the older half stays warm.
        let info = c.crash_and_recover(Lsn(20), &mut io);
        assert!(info.survived);
        assert_eq!(info.entries_discarded_beyond_wal, 20);
        assert_eq!(info.entries_restored, 20);
        for n in 0..40u32 {
            assert_eq!(
                c.contains(PageId::new(0, n)),
                n < 20,
                "page {n} on the wrong side of the durable LSN"
            );
        }
    }

    #[test]
    fn reset_cold_drops_contents_but_keeps_working() {
        let c = sharded(CachePolicyKind::FaceGsc, 256, 4);
        let mut io = IoLog::new();
        for n in 0..32u32 {
            c.insert(data_page(n), &mut io).unwrap();
        }
        sync(&c, &mut io);
        assert!(!c.is_empty());
        c.reset_cold();
        assert!(c.is_empty());
        assert!(!c.contains(PageId::new(0, 3)));
        // The stores were wiped too — nothing to recover.
        let info = c.crash_and_recover(Lsn(u64::MAX), &mut io);
        assert_eq!(info.entries_restored, 0);
        // The cold cache accepts new work.
        c.insert(data_page(99), &mut io).unwrap();
        assert!(c.contains(PageId::new(0, 99)));
    }

    #[test]
    fn insert_with_supplier_feeds_the_target_shard() {
        // One shard so every supplied page routes correctly; GSC pulls from
        // the supplier once a replacement batch has room to top up.
        let config = CacheConfig {
            capacity_pages: 8,
            group_size: 4,
            second_chance: true,
            meta_checkpoint_interval_groups: 1_000_000,
            ..CacheConfig::default()
        };
        let c = ShardedFlashCache::build(CachePolicyKind::FaceGsc, config, 1, |cap| {
            Arc::new(MemFlashStore::new(cap)) as Arc<dyn FlashStore>
        })
        .unwrap();
        let mut io = IoLog::new();
        for n in 0..8u32 {
            c.insert(data_page(n), &mut io).unwrap();
        }
        let mut next = 200u32;
        let mut supplier = || {
            let s = data_page(next);
            next += 1;
            Some(s)
        };
        c.insert_with_sink(data_page(100), &mut supplier, &mut io, &mut |_| {})
            .unwrap();
        assert!(c.stats().pulled_from_dram > 0, "supplier was consulted");
        assert_eq!(c.shard_of(PageId::new(0, 200)), 0);
        assert!(c.contains(PageId::new(0, 200)));
    }

    use crate::store::GateFlashStore;

    #[test]
    fn deferred_inserts_hold_no_shard_lock_across_flash_writes() {
        let config = CacheConfig {
            capacity_pages: 64,
            group_size: 4,
            defer_group_writes: true,
            meta_checkpoint_interval_groups: 1_000_000,
            ..CacheConfig::default()
        };
        let store = Arc::new(GateFlashStore::new(64));
        let store_for_build = Arc::clone(&store);
        let c = Arc::new(
            ShardedFlashCache::build(CachePolicyKind::FaceGr, config, 1, move |_| {
                Arc::clone(&store_for_build) as Arc<dyn FlashStore>
            })
            .unwrap(),
        );

        // Foreground: the gate is CLOSED, yet filling a group returns
        // instantly — insert performs no flash I/O at all.
        let mut io = IoLog::new();
        let mut pending = None;
        for n in 0..4u32 {
            let out = c.insert(data_page(n), &mut io).unwrap();
            if out.pending_group.is_some() {
                pending = out.pending_group;
            }
        }
        let write = pending.expect("group filled");
        assert!(io.is_empty(), "foreground charged I/O under deferral");

        // Background: apply the group write; it blocks on the gate. The
        // shard must stay usable the whole time — contains/fetch/insert from
        // another thread proceed because apply holds no shard lock.
        let bg = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                let mut io = IoLog::new();
                c.apply_group_write(&write, &mut io).unwrap();
                c.complete_group(write.shard, write.epoch, &mut io);
            })
        };
        // Give the background thread time to enter the blocked write.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let start = std::time::Instant::now();
        assert!(c.contains(PageId::new(0, 1)), "directory intact");
        let mut io = IoLog::new();
        assert!(c.fetch(PageId::new(0, 2), &mut io).unwrap().is_some());
        c.insert(data_page(50), &mut io).unwrap();
        assert!(
            start.elapsed() < std::time::Duration::from_millis(250),
            "shard mutex was held across the blocked flash write"
        );
        store.release();
        bg.join().unwrap();
        // The batch landed and sealed once the device unblocked.
        assert!(store.read_slot(0).unwrap().is_some());
    }

    #[test]
    fn lock_light_fetch_holds_no_shard_lock_across_flash_reads() {
        let config = CacheConfig {
            capacity_pages: 64,
            group_size: 4,
            lock_light_reads: true,
            meta_checkpoint_interval_groups: 1_000_000,
            ..CacheConfig::default()
        };
        let store = Arc::new(GateFlashStore::new(64));
        store.release(); // writes flow; only reads are gated below
        let store_for_build = Arc::clone(&store);
        let c = Arc::new(
            ShardedFlashCache::build(CachePolicyKind::FaceGr, config, 1, move |_| {
                Arc::clone(&store_for_build) as Arc<dyn FlashStore>
            })
            .unwrap(),
        );
        let mut io = IoLog::new();
        for n in 0..8u32 {
            c.insert(data_page(n), &mut io).unwrap(); // two sealed groups on the store
        }

        // Background: a fetch parks inside the device read. The shard must
        // stay fully usable the whole time — the reader holds no shard lock
        // across the read.
        store.hold_reads();
        let bg = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                let mut io = IoLog::new();
                c.fetch(PageId::new(0, 1), &mut io)
                    .unwrap()
                    .expect("cached")
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        let start = std::time::Instant::now();
        assert!(c.contains(PageId::new(0, 2)), "directory reachable");
        let mut io = IoLog::new();
        c.insert(data_page(50), &mut io).unwrap();
        // Page 50 sits in the pending batch: its fetch is served from the
        // shared RAM frame, no device read, no waiting on the gate.
        let ram_hit = c
            .fetch(PageId::new(0, 50), &mut io)
            .unwrap()
            .expect("pending");
        assert_eq!(ram_hit.data.unwrap().read_body(0, 4), &50u32.to_le_bytes());
        assert!(
            start.elapsed() < std::time::Duration::from_millis(250),
            "shard lock was held across the blocked flash read"
        );
        store.release_reads();
        let hit = bg.join().unwrap();
        assert_eq!(hit.data.unwrap().read_body(0, 4), &1u32.to_le_bytes());
        assert_eq!(c.stats().fetch_retries, 0, "nothing raced this read");
    }

    #[test]
    fn lock_light_fetch_retries_when_losing_the_eviction_race() {
        // Single shard, capacity = one group, clean pages throughout: the
        // dequeue that steals the parked reader's slot performs no device
        // read of its own (clean + valid + no second chance = silent drop),
        // so only the reader is parked at the gate.
        let config = CacheConfig {
            capacity_pages: 4,
            group_size: 4,
            lock_light_reads: true,
            meta_checkpoint_interval_groups: 1_000_000,
            ..CacheConfig::default()
        };
        let store = Arc::new(GateFlashStore::new(4));
        store.release();
        let store_for_build = Arc::clone(&store);
        let c = Arc::new(
            ShardedFlashCache::build(CachePolicyKind::FaceGr, config, 1, move |_| {
                Arc::clone(&store_for_build) as Arc<dyn FlashStore>
            })
            .unwrap(),
        );
        let clean = |n: u32| {
            let mut p = Page::new(PageId::new(0, n));
            p.set_lsn(Lsn(1));
            p.write_body(0, &n.to_le_bytes());
            StagedPage::with_data(p, false, true)
        };
        let mut io = IoLog::new();
        for n in 0..4u32 {
            c.insert(clean(n), &mut io).unwrap();
        }

        store.hold_reads();
        let bg = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.fetch(PageId::new(0, 1), &mut IoLog::new()).unwrap())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Evict the whole first group and reuse its slots while the reader
        // is parked inside the device read: the bytes it will get back
        // belong to a different page, and the generation check must say so.
        let mut io = IoLog::new();
        for n in 10..14u32 {
            c.insert(clean(n), &mut io).unwrap();
        }
        assert!(!c.contains(PageId::new(0, 1)), "pinned version evicted");
        store.release_reads();
        let result = bg.join().unwrap();
        assert!(
            result.is_none(),
            "a read that lost the slot to reuse must not serve foreign bytes"
        );
        assert!(
            c.stats().fetch_retries > 0,
            "the generation-validation retry path was not exercised"
        );
    }

    #[test]
    fn fetch_batch_sends_a_page_that_lost_its_slot_back_to_the_single_path() {
        // The set-up of the eviction race above, with a batch in the parked
        // read: one shard, capacity = one group, clean pages throughout.
        let config = CacheConfig {
            capacity_pages: 4,
            group_size: 4,
            lock_light_reads: true,
            meta_checkpoint_interval_groups: 1_000_000,
            ..CacheConfig::default()
        };
        let store = Arc::new(GateFlashStore::new(4));
        store.release();
        let store_for_build = Arc::clone(&store);
        let c = Arc::new(
            ShardedFlashCache::build(CachePolicyKind::FaceGr, config, 1, move |_| {
                Arc::clone(&store_for_build) as Arc<dyn FlashStore>
            })
            .unwrap(),
        );
        let clean = |n: u32, marker: u32| {
            let mut p = Page::new(PageId::new(0, n));
            p.set_lsn(Lsn(1));
            p.write_body(0, &marker.to_le_bytes());
            StagedPage::with_data(p, false, true)
        };
        let mut io = IoLog::new();
        for n in 0..4u32 {
            c.insert(clean(n, n), &mut io).unwrap();
        }

        store.hold_reads();
        let bg = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                c.fetch_batch(&[PageId::new(0, 1), PageId::new(0, 2)], &mut IoLog::new())
            })
        };
        while store.read_calls() == 0 {
            std::thread::yield_now();
        }
        // While the batch is parked: the whole first group leaves and its
        // slots are reused, page 1 coming back as a new version.
        let mut io = IoLog::new();
        for (n, marker) in [(10, 10), (11, 11), (12, 12), (1, 99)] {
            c.insert(clean(n, marker), &mut io).unwrap();
        }
        assert!(!c.contains(PageId::new(0, 2)), "pinned version evicted");
        store.release_reads();
        let results = bg.join().unwrap();
        let page_1 = results[0]
            .as_ref()
            .unwrap()
            .as_ref()
            .expect("page 1 is cached again");
        let data = page_1.data.as_ref().expect("a data-carrying store");
        assert_eq!(data.id(), PageId::new(0, 1), "no foreign bytes");
        assert_eq!(
            data.read_body(0, 4),
            99u32.to_le_bytes(),
            "the new version, not the stale one"
        );
        assert!(
            results[1].as_ref().unwrap().is_none(),
            "a page whose slot was reused must not serve the bytes read from it"
        );
        assert_eq!(
            c.stats().fetch_retries,
            2,
            "both pages went back as retries"
        );
    }

    #[test]
    fn a_failed_batch_read_names_the_bad_slot_through_the_single_page_fallback() {
        use crate::degrade::DegradeAction;

        let config = CacheConfig {
            capacity_pages: 8,
            group_size: 4,
            lock_light_reads: true,
            meta_checkpoint_interval_groups: 1_000_000,
            ..CacheConfig::default()
        };
        // Where page 5 lands, found on a plain store with the same history.
        let probe = sharded_one(config.clone(), Arc::new(MemFlashStore::new(8)));
        let bad = probe_slot(&probe, 5);
        let store = Arc::new(crate::store::BadSlotStore {
            inner: MemFlashStore::new(8),
            bad,
        });
        let controller = Arc::new(DegradeController::new(DegradeConfig::default()));
        let c = sharded_one(config, store).with_degrade(Arc::clone(&controller));

        let pages = [1u32, 5, 6].map(|n| PageId::new(0, n));
        let results = c.fetch_batch(&pages, &mut IoLog::new());
        for (n, result) in [1u32, 6].into_iter().zip([&results[0], &results[2]]) {
            let hit = result.as_ref().unwrap().as_ref().expect("cached");
            assert_eq!(hit.data.as_ref().unwrap().read_body(0, 4), n.to_le_bytes());
        }
        let error = results[1].as_ref().expect_err("page 5's slot is bad");
        assert_eq!(error.slot(), Some(bad), "the error names page 5's own slot");
        assert_eq!(
            controller.note_error(0, error),
            DegradeAction::Quarantine {
                shard: 0,
                slot: bad
            }
        );
    }

    /// One shard over `store`, holding pages 0..8 (two written groups).
    fn sharded_one(config: CacheConfig, store: Arc<dyn FlashStore>) -> ShardedFlashCache {
        let c = ShardedFlashCache::build(CachePolicyKind::FaceGr, config, 1, move |_| {
            Arc::clone(&store)
        })
        .unwrap();
        let mut io = IoLog::new();
        for n in 0..8u32 {
            c.insert(data_page(n), &mut io).unwrap();
        }
        c
    }

    /// The slot holding `page_no`'s current version.
    fn probe_slot(c: &ShardedFlashCache, page_no: u32) -> usize {
        let store = &c.stores()[0];
        (0..store.capacity())
            .find(|&slot| {
                store.slot_header(slot).map(|(id, _)| id) == Some(PageId::new(0, page_no))
            })
            .expect("page written to flash")
    }

    #[test]
    fn len_mirror_matches_shards_at_quiesce() {
        let c = sharded(CachePolicyKind::FaceGsc, 256, 4);
        let mut io = IoLog::new();
        for n in 0..100u32 {
            c.insert(data_page(n), &mut io).unwrap();
        }
        // The lock-free mirror agrees with a locked sweep of the shards.
        let swept: usize = c.shards.iter().map(|s| s.read().len()).sum();
        assert_eq!(c.len(), swept);
        assert_eq!(c.len(), 100);
        let info = c.crash_and_recover(Lsn(u64::MAX), &mut io);
        assert!(info.survived);
        let swept: usize = c.shards.iter().map(|s| s.read().len()).sum();
        assert_eq!(c.len(), swept, "mirror refreshed by recovery");
        c.reset_cold();
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn exclusive_fetch_path_still_serves_hits() {
        // lock_light_reads off: the classic read-under-lock fetch.
        let config = CacheConfig {
            capacity_pages: 64,
            group_size: 4,
            meta_checkpoint_interval_groups: 1_000_000,
            ..CacheConfig::default()
        };
        assert!(!config.lock_light_reads);
        let c = ShardedFlashCache::build(CachePolicyKind::FaceGsc, config, 2, |cap| {
            Arc::new(MemFlashStore::new(cap)) as Arc<dyn FlashStore>
        })
        .unwrap();
        let mut io = IoLog::new();
        for n in 0..16u32 {
            c.insert(data_page(n), &mut io).unwrap();
        }
        for n in 0..16u32 {
            let hit = c
                .fetch(PageId::new(0, n), &mut io)
                .unwrap()
                .expect("cached");
            assert_eq!(hit.data.unwrap().read_body(0, 4), &n.to_le_bytes());
        }
        assert_eq!(c.stats().fetch_retries, 0);
        assert_eq!(c.stats().hits, 16);
    }

    fn clean_page(n: u32) -> StagedPage {
        let mut p = Page::new(PageId::new(0, n));
        p.set_lsn(Lsn(n as u64 + 1));
        p.write_body(0, &n.to_le_bytes());
        StagedPage::with_data(p, false, true)
    }

    fn ghosted(kind: CachePolicyKind, capacity: usize, shards: usize) -> ShardedFlashCache {
        let config = CacheConfig {
            capacity_pages: capacity,
            group_size: 4,
            meta_checkpoint_interval_groups: 1_000_000,
            ghost_admission: true,
            ..CacheConfig::default()
        };
        ShardedFlashCache::build(kind, config, shards, |cap| {
            Arc::new(MemFlashStore::new(cap)) as Arc<dyn FlashStore>
        })
        .unwrap()
    }

    #[test]
    fn ghost_admission_rejects_clean_first_touches() {
        let c = ghosted(CachePolicyKind::FaceGsc, 256, 4);
        let mut io = IoLog::new();
        // Clean one-touch pages: every insert is filtered, no flash writes.
        for n in 0..32u32 {
            let out = c.insert(clean_page(n), &mut io).unwrap();
            assert!(!out.cached, "clean first touch must be filtered");
            assert!(!c.contains(PageId::new(0, n)));
        }
        sync(&c, &mut io);
        assert_eq!(c.flash_pages_written(), 0, "one-touch pages cost nothing");
        let stats = c.stats();
        assert_eq!(stats.admission_filtered, 32);
        assert_eq!(stats.admission_ghost_hits, 0);
        assert_eq!(stats.flash_pages_written, 0);

        // The comeback earns the write.
        for n in 0..32u32 {
            let out = c.insert(clean_page(n), &mut io).unwrap();
            assert!(out.cached, "ghost re-reference must be admitted");
            assert!(c.contains(PageId::new(0, n)));
        }
        sync(&c, &mut io);
        assert!(c.flash_pages_written() >= 32);
        assert_eq!(c.stats().admission_ghost_hits, 32);
    }

    #[test]
    fn ghost_admission_never_rejects_dirty_pages() {
        let c = ghosted(CachePolicyKind::FaceGsc, 256, 4);
        let mut io = IoLog::new();
        for n in 0..16u32 {
            // data_page() stages dirty pages: the only up-to-date copy.
            let out = c.insert(data_page(n), &mut io).unwrap();
            assert!(out.cached, "a dirty page must always be absorbed");
            assert!(c.contains(PageId::new(0, n)));
        }
        assert_eq!(c.stats().admission_filtered, 0);
    }

    #[test]
    fn s3fifo_shards_round_trip_and_recover() {
        let config = CacheConfig {
            capacity_pages: 256,
            group_size: 4,
            meta_checkpoint_interval_groups: 1_000_000,
            lock_light_reads: true,
            ..CacheConfig::default()
        };
        let c = ShardedFlashCache::build(CachePolicyKind::S3Fifo, config, 4, |cap| {
            Arc::new(MemFlashStore::new(cap)) as Arc<dyn FlashStore>
        })
        .unwrap();
        assert_eq!(c.policy_name(), "S3-FIFO");
        let mut io = IoLog::new();
        for n in 0..64u32 {
            assert!(
                c.insert(data_page(n), &mut io).unwrap().cached,
                "dirty absorbed"
            );
        }
        // Dirty first touches sit on probation in the small queue and would
        // demote if never touched again; a second version of each page is a
        // proven re-reference and lands in the roomy main queue.
        for n in 0..64u32 {
            assert!(
                c.insert(data_page(n), &mut io).unwrap().cached,
                "update absorbed"
            );
        }
        for n in 0..64u32 {
            let hit = c
                .fetch(PageId::new(0, n), &mut io)
                .unwrap()
                .expect("cached");
            assert_eq!(hit.data.unwrap().read_body(0, 4), &n.to_le_bytes());
        }
        sync(&c, &mut io);
        assert!(c.flash_pages_written() > 0);
        let info = c.crash_and_recover(Lsn(u64::MAX), &mut io);
        assert!(info.survived, "S3-FIFO metadata persists like FaCE's");
        for n in 0..64u32 {
            assert!(c.contains(PageId::new(0, n)), "page {n} lost in crash");
        }
    }
}
