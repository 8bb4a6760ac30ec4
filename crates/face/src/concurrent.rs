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
//! lock. Callers holding different pages proceed in parallel; the global
//! mvFIFO order becomes a per-shard FIFO order, which preserves every
//! property the paper relies on (sequential batch writes, multi-version
//! invalidation, bounded occupancy) within each shard. Admission is each
//! shard's policy's too: a ghost-filtered clean first touch (S3-FIFO always,
//! mvFIFO under [`CacheConfig::ghost_admission`]) is decided in the ring,
//! under the shard lock, and a page always routes to the same shard, so its
//! comeback meets the same ghost.
//!
//! Every page below DRAM has one newest copy: in a flash slot, in transit
//! to disk, or on disk. A shard owns the first two, under one lock. Whatever
//! un-caches a dirty page (a stage-out, a failed insert's fallout, a
//! quarantine evacuee, an aborted group, an evacuation) records it in the
//! shard's in-transit map in the same critical section, so a lookup never
//! misses both; the caller writes it to disk, then retires it
//! ([`ShardedFlashCache::retire_in_transit`]). A data-less entry is a *wound
//! marker*: the newest version died with a flash slot and is refused until
//! a version at or above its LSN is placed. The map sits beside the ring
//! because a cold reset rebuilds the ring and the markers must outlive it.
//!
//! Statistics are plain [`CacheStats`] fields inside each ring, bumped under
//! the shard's write lock; [`ShardedFlashCache::stats`] merges per-shard
//! copies under every shard's read lock.

use std::sync::Arc;

use face_analysis::classes::CACHE_SHARD;
use face_analysis::{witness, OrderedRwLock};
use face_pagestore::{backoff_sleep, DeviceResult, IdHashMap, Lsn, Page, PageId};

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

/// What one shard lock guards: the ring, and the dirty pages it un-cached
/// whose disk write has not landed, one entry per page (its newest version).
struct Shard {
    ring: Box<dyn RingCache>,
    in_transit: IdHashMap<PageId, StagedPage>,
}

impl Shard {
    /// Record un-cached pages as in transit. A data-less clean page carries
    /// nothing worth keeping, so every data-less entry is a dirty page's
    /// wound marker. An older LSN never replaces a newer entry, and a
    /// same-LSN marker never replaces the bytes.
    fn publish(&mut self, staged: &[StagedPage]) {
        for s in staged {
            if s.data.is_none() && !s.dirty {
                continue;
            }
            let superseded = self
                .in_transit
                .get(&s.page)
                .is_some_and(|w| w.lsn > s.lsn || (w.lsn == s.lsn && w.data.is_some()));
            if !superseded {
                self.in_transit.insert(s.page, s.clone());
            }
        }
    }

    /// Drop `page`'s wound marker if a version at or above its LSN is now
    /// placed. Entries with bytes are left to
    /// [`ShardedFlashCache::retire_in_transit`].
    fn heal_wound(&mut self, page: PageId, lsn: Lsn) {
        if self
            .in_transit
            .get(&page)
            .is_some_and(|w| w.data.is_none() && w.lsn <= lsn)
        {
            self.in_transit.remove(&page);
        }
    }
}

/// A lock-striped set of independent ring-policy instances, routable by page
/// id, exposing the whole [`RingCache`] surface through `&self`, plus the
/// pages each shard has in transit to disk.
///
/// Each shard sits behind an `RwLock`: mutating operations take the write
/// lock, while pure lookups ([`ShardedFlashCache::contains`],
/// [`ShardedFlashCache::in_transit`], the validate half of the lock-light
/// fetch, [`ShardedFlashCache::stats`]) share a read lock. Every fetch is
/// lock-light: [`ShardedFlashCache::fetch`] pins the version under a short
/// write lock, **drops the lock, performs the flash device read with no lock
/// held**, and revalidates against the slot's generation — so one slow
/// device read never stalls the other threads hashing to the shard (the
/// read-side counterpart of the deferred group writes).
pub struct ShardedFlashCache {
    shards: Vec<OrderedRwLock<Shard>>,
    stores: Vec<Arc<dyn FlashStore>>,
    /// Per-shard configurations (each shard owns a slice of the capacity);
    /// kept so a shard can be rebuilt cold ([`ShardedFlashCache::reset_cold`]).
    configs: Vec<CacheConfig>,
    kind: CachePolicyKind,
    capacity: usize,
    name: &'static str,
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
    /// out one [`crate::MemFlashStore`] per shard). Group writes are always
    /// deferred: a shard never writes flash under its lock.
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
        let config = CacheConfig {
            defer_group_writes: true,
            ..config
        };
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
            let ring = build_ring(kind, shard_config.clone(), Arc::clone(&store))
                .expect("kind is not None");
            name = ring.policy_name();
            stores.push(store);
            configs.push(shard_config);
            let shard = Shard {
                ring,
                in_transit: IdHashMap::default(),
            };
            built.push(OrderedRwLock::new(CACHE_SHARD, shard));
        }
        Some(Self {
            degrade: None,
            shards: built,
            stores,
            configs,
            kind,
            capacity,
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

    /// The shard lock `page` routes to.
    fn shard_for(&self, page: PageId) -> &OrderedRwLock<Shard> {
        &self.shards[self.shard_of(page)]
    }

    /// Whether a valid copy of `page` is cached. Takes only the shard's
    /// **read** lock, so hot-path callers never serialize behind writers
    /// already inside the shard (and never block readers at all).
    pub fn contains(&self, page: PageId) -> bool {
        self.shard_for(page).read().ring.contains(page)
    }

    /// Look up `page` on a DRAM miss (see [`crate::FlashCache::fetch`]).
    ///
    /// The lock-light protocol: pin the version under a short shard write
    /// lock ([`RingCache::fetch_pin`]), drop the lock, perform the flash
    /// device read **off-lock**, then revalidate the slot's generation under
    /// a read lock ([`RingCache::fetch_validate`]). Losing the race to an
    /// eviction or slot reuse discards the read and retries the lookup from
    /// scratch ([`CacheStats::fetch_retries`]); versions still in a deferred
    /// group are served from their shared RAM frames with no device read at
    /// all.
    ///
    /// Device read errors surface as `Err`: transient errors are retried
    /// off-lock (with backoff, up to the degrade controller's budget) before
    /// giving up. The caller decides what an error means — for a clean copy
    /// the disk is still authoritative and a miss-to-disk is safe; for a
    /// dirty copy the flash held the only current version.
    pub fn fetch(&self, page: PageId, io: &mut IoLog) -> DeviceResult<Option<FlashFetch>> {
        self.fetch_from(self.shard_of(page), page, false, io)
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
    /// slot it belongs to and surfaces for that page alone.
    pub fn fetch_batch(
        &self,
        pages: &[PageId],
        io: &mut IoLog,
    ) -> Vec<DeviceResult<Option<FlashFetch>>> {
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
                    .map(|i| (i, guard.ring.fetch_pin(pages[i], false, io)))
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
            let Some(pin) = self.shards[shard].write().ring.fetch_pin(page, retry, io) else {
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
            .ring
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
    /// [`crate::FlashCache::insert`]) with no GSC supplier.
    pub fn insert(
        &self,
        staged: StagedPage,
        io: &mut IoLog,
    ) -> Result<InsertOutcome, InsertFailure> {
        self.insert_with_supplier(staged, &mut NoSupplier, io)
    }

    /// Hand a page to its shard with a Group Second Chance supplier; the
    /// shard's policy decides whether it is cached at all (a ghost-filtered
    /// clean first touch comes back `cached: false`). The
    /// supplier runs **while the shard lock is held**, so it must never block
    /// on another cache shard and must only return pages that route to this
    /// same shard (check with [`ShardedFlashCache::shard_of`]); the engine's
    /// supplier additionally only uses `try_lock` on buffer shards, keeping
    /// the lock graph acyclic. Pages it returns must already be WAL-covered
    /// — they enter the persistent database right here.
    ///
    /// A filled group comes back as a [`PendingGroupWrite`] stamped with this
    /// shard's index; the caller must apply it off-lock
    /// ([`ShardedFlashCache::apply_group_write`]) and then seal it
    /// ([`ShardedFlashCache::complete_group`]) — typically by enqueueing it
    /// on a [`crate::destage::Destager`].
    ///
    /// The dequeued dirty pages ([`InsertOutcome::staged_out`]) and, when
    /// the insert fails, the dirty pages it un-cached
    /// ([`InsertFailure::fallout`]) are recorded in transit before the shard
    /// lock drops; the caller writes them to disk. A dirty page that was
    /// cached heals a wound marker at or below its LSN.
    pub fn insert_with_supplier(
        &self,
        staged: StagedPage,
        supplier: &mut dyn PageSupplier,
        io: &mut IoLog,
    ) -> Result<InsertOutcome, InsertFailure> {
        let shard = self.shard_of(staged.page);
        let (page, lsn, dirty) = (staged.page, staged.lsn, staged.dirty);
        let mut guard = self.shards[shard].write();
        let mut outcome = match guard.ring.insert(staged, supplier, io) {
            Ok(outcome) => outcome,
            Err(failure) => {
                guard.publish(&failure.fallout);
                return Err(failure);
            }
        };
        guard.publish(&outcome.staged_out);
        if outcome.cached && dirty {
            guard.heal_wound(page, lsn);
        }
        drop(guard);
        if let Some(pending) = outcome.pending_group.as_mut() {
            pending.shard = shard;
        }
        Ok(outcome)
    }

    /// The copy of `page` in transit to disk, if any: the bytes to serve
    /// instead of the stale disk copy, or a wound marker (`data: None`,
    /// dirty) saying the newest version is lost until WAL redo rebuilds it.
    /// Takes the shard's read lock.
    pub fn in_transit(&self, page: PageId) -> Option<StagedPage> {
        self.shard_for(page).read().in_transit.get(&page).cloned()
    }

    /// Retire `page`'s in-transit entry now that its version at `lsn` is on
    /// disk, unless a newer version was un-cached meanwhile.
    pub fn retire_in_transit(&self, page: PageId, lsn: Lsn) {
        let mut guard = self.shard_for(page).write();
        if guard.in_transit.get(&page).is_some_and(|w| w.lsn <= lsn) {
            guard.in_transit.remove(&page);
        }
    }

    /// Heal `page`'s wound marker, if any, now that a version at `lsn` was
    /// written past the cache straight to disk. A cached dirty insert heals
    /// its own ([`ShardedFlashCache::insert_with_supplier`]).
    pub fn heal_wound(&self, page: PageId, lsn: Lsn) {
        self.shard_for(page).write().heal_wound(page, lsn);
    }

    /// Some wound marker, as `(page, lsn)`, if any shard holds one: a
    /// committed version that exists only in the WAL.
    pub fn first_wound(&self) -> Option<(PageId, Lsn)> {
        self.shards.iter().find_map(|shard| {
            shard
                .read()
                .in_transit
                .values()
                .find(|s| s.data.is_none())
                .map(|s| (s.page, s.lsn))
        })
    }

    /// Forget every page in transit: the map is volatile and dies with a
    /// crash, together with the disk writes that were to retire it.
    pub fn clear_in_transit(&self) {
        for shard in &self.shards {
            shard.write().in_transit.clear();
        }
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
            .ring
            .group_write_pending(epoch)
    }

    /// Seal a deferred group's journal records now that its batch write is
    /// on flash (briefly takes the shard lock; see
    /// [`RingCache::complete_group`]).
    pub fn complete_group(&self, shard: usize, epoch: u64, io: &mut IoLog) {
        self.shards[shard % self.shards.len()]
            .write()
            .ring
            .complete_group(epoch, io);
    }

    /// Form every shard's pending batch into a group and return every group
    /// whose batch write is still owed, stamped with its shard, oldest first
    /// within a shard (see [`RingCache::owed_groups`]). Each shard lock is
    /// held only to collect them; no device I/O.
    pub fn owed_groups(&self) -> Vec<PendingGroupWrite> {
        let mut owed = Vec::new();
        for (shard, cache) in self.shards.iter().enumerate() {
            for mut write in cache.write().ring.owed_groups() {
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
            shard.write().ring.checkpoint_metadata(io);
        }
    }

    /// Evacuate every dirty valid page from every shard (see
    /// [`RingCache::evacuate_dirty`]), one evacuation per shard, indexed by
    /// shard, each recorded in transit under its shard lock: the caller must
    /// write them to disk before wiping the cache with
    /// [`ShardedFlashCache::reset_cold`]. `unread_dirty` counts dirty pages
    /// whose slots could not be read — their wound markers stay in transit,
    /// past the wipe, until a newer version or WAL redo heals them.
    pub fn evacuate_dirty(&self, io: &mut IoLog) -> Vec<Evacuation> {
        // Admin/quiesced operation: reads every dirty slot under the lock.
        let _allow = witness::allow_device_io("cache: quiesced dirty evacuation");
        self.shards
            .iter()
            .map(|shard| {
                let mut guard = shard.write();
                let evacuation = guard.ring.evacuate_dirty(io);
                guard.publish(&evacuation.pages);
                evacuation
            })
            .collect()
    }

    /// Quarantine one slot of one shard (see [`RingCache::quarantine_slot`]):
    /// the slot leaves rotation, a clean resident is dropped, a dirty
    /// resident is evacuated — recorded in transit before the shard lock
    /// drops, and returned for the caller to hand to its disk writer.
    pub fn quarantine_slot(&self, shard: usize, slot: usize, io: &mut IoLog) -> QuarantineOutcome {
        // Quarantine makes a last-resort read of the failing slot to rescue
        // a dirty resident; acknowledged under-lock I/O.
        let _allow = witness::allow_device_io("cache: quarantine evacuates the failing slot");
        let shard = shard % self.shards.len();
        let mut guard = self.shards[shard].write();
        let out = guard.ring.quarantine_slot(slot, io);
        guard.publish(out.evacuee.as_slice());
        out
    }

    /// Abort a deferred group whose batch write failed (see
    /// [`RingCache::abort_group`]): the group's slots become reclaimable
    /// holes, its journal records die unsealed, and its dirty pages come
    /// back for disk failover, recorded in transit under the shard lock.
    pub fn abort_group(&self, shard: usize, epoch: u64, io: &mut IoLog) -> Vec<StagedPage> {
        let shard = shard % self.shards.len();
        let mut guard = self.shards[shard].write();
        let fallout = guard.ring.abort_group(epoch, io);
        guard.publish(&fallout);
        fallout
    }

    /// Crash and recover every shard, merging the per-shard reports.
    /// `survived` is true only if every shard's metadata survived.
    /// Each shard reconciles its recovered directory against `durable_lsn`
    /// (the durable end of the WAL): versions newer than it are discarded.
    /// Callers without a WAL pass `Lsn(u64::MAX)`. The in-transit maps are
    /// left as they are ([`ShardedFlashCache::clear_in_transit`] is the
    /// crash's).
    pub fn crash_and_recover(&self, durable_lsn: Lsn, io: &mut IoLog) -> CacheRecoveryInfo {
        // Restart path: the world is quiesced, metadata scans and slot reads
        // run under the shard lock by construction.
        let _allow = witness::allow_device_io("cache: quiesced crash-and-recover");
        let mut merged = CacheRecoveryInfo {
            survived: true,
            ..CacheRecoveryInfo::default()
        };
        for shard in &self.shards {
            let info = shard.write().ring.crash_and_recover(durable_lsn, io);
            merged = merged.merged(&info);
        }
        merged
    }

    /// Drop every shard cold: flash store contents and all cache metadata
    /// (journal, checkpoint, directory) are discarded and fresh policy
    /// instances are built. Models restarting with a wiped or replaced cache
    /// device — the baseline the warm-recovery experiments compare against.
    /// Pages in transit stay: their wound markers must outlive the wipe.
    pub fn reset_cold(&self) {
        let _allow = witness::allow_device_io("cache: quiesced cold reset wipes stores");
        for ((shard, store), config) in self
            .shards
            .iter()
            .zip(self.stores.iter())
            .zip(self.configs.iter())
        {
            let mut guard = shard.write();
            store.clear();
            guard.ring =
                build_ring(self.kind, config.clone(), Arc::clone(store)).expect("kind is not None");
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
            .map(|g| g.ring.stats())
            .fold(CacheStats::default(), |acc, s| acc.merged(&s));
        // The device-level page-program tally lives outside the shards — an
        // atomic read, no extra lock sweep.
        merged.flash_pages_written = self.flash_pages_written();
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
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        for g in &mut guards {
            g.ring.reset_stats();
        }
    }

    /// Occupied page slots across shards, each shard's read under its read
    /// lock in turn: exact at quiesce, a point-in-time sum under concurrent
    /// inserts.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().ring.len()).sum()
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
        c.insert_with_supplier(data_page(100), &mut supplier, &mut io)
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
    fn fetch_holds_no_shard_lock_across_flash_reads() {
        let config = CacheConfig {
            capacity_pages: 64,
            group_size: 4,
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
            c.insert(data_page(n), &mut io).unwrap();
        }
        sync(&c, &mut io); // two sealed groups on the store

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
    fn fetch_retries_when_losing_the_eviction_race() {
        // Single shard, capacity = one group, clean pages throughout: the
        // dequeue that steals the parked reader's slot performs no device
        // read of its own (clean + valid + no second chance = silent drop),
        // so only the reader is parked at the gate.
        let config = CacheConfig {
            capacity_pages: 4,
            group_size: 4,
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
        sync(&c, &mut io);

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
        sync(&c, &mut io);

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
        sync(&c, &mut io);
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
    fn len_sums_the_shards_at_quiesce() {
        let c = sharded(CachePolicyKind::FaceGsc, 256, 4);
        let mut io = IoLog::new();
        for n in 0..100u32 {
            c.insert(data_page(n), &mut io).unwrap();
        }
        let swept: usize = c.shards.iter().map(|s| s.read().ring.len()).sum();
        assert_eq!(c.len(), swept);
        assert_eq!(c.len(), 100);
        let info = c.crash_and_recover(Lsn(u64::MAX), &mut io);
        assert!(info.survived);
        let swept: usize = c.shards.iter().map(|s| s.read().ring.len()).sum();
        assert_eq!(c.len(), swept, "recovery's rebuilt rings are counted");
        c.reset_cold();
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
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
    fn ghost_admission_is_forgotten_by_a_crash() {
        for kind in [CachePolicyKind::FaceGsc, CachePolicyKind::S3Fifo] {
            let c = ghosted(kind, 256, 4);
            let mut io = IoLog::new();
            let first = c.insert(clean_page(7), &mut io).unwrap();
            assert!(!first.cached, "{kind:?}: clean first touch is filtered");
            c.crash_and_recover(Lsn(u64::MAX), &mut io);
            // The ghost is RAM-only: after the crash the comeback is a first
            // touch again.
            let comeback = c.insert(clean_page(7), &mut io).unwrap();
            assert!(!comeback.cached, "{kind:?}: the crash forgets the ghost");
            assert!(!c.contains(PageId::new(0, 7)));
            let stats = c.stats();
            assert_eq!(stats.admission_filtered, 2, "{kind:?}");
            assert_eq!(stats.admission_ghost_hits, 0, "{kind:?}");
        }
    }

    #[test]
    fn s3fifo_shards_round_trip_and_recover() {
        let config = CacheConfig {
            capacity_pages: 256,
            group_size: 4,
            meta_checkpoint_interval_groups: 1_000_000,
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

    /// One FaCE+GR shard of four slots in groups of two.
    fn four_slots() -> ShardedFlashCache {
        let config = CacheConfig {
            capacity_pages: 4,
            group_size: 2,
            meta_checkpoint_interval_groups: 1_000_000,
            ..CacheConfig::default()
        };
        ShardedFlashCache::build(CachePolicyKind::FaceGr, config, 1, |cap| {
            Arc::new(MemFlashStore::new(cap)) as Arc<dyn FlashStore>
        })
        .unwrap()
    }

    /// A dirty version of page `n` at `lsn` whose body starts with `marker`.
    fn version(n: u32, lsn: u64, marker: u32) -> StagedPage {
        let mut p = Page::new(PageId::new(0, n));
        p.set_lsn(Lsn(lsn));
        p.write_body(0, &marker.to_le_bytes());
        StagedPage::with_data(p, true, true)
    }

    /// Insert `staged`, write and seal the group it owes, and return the
    /// pages the insert dequeued.
    fn insert_synced(c: &ShardedFlashCache, staged: StagedPage) -> Vec<StagedPage> {
        let mut io = IoLog::new();
        let out = c.insert(staged, &mut io).unwrap();
        sync(c, &mut io);
        out.staged_out
    }

    #[test]
    fn a_dequeued_dirty_victim_is_in_transit_as_soon_as_the_insert_returns() {
        let c = four_slots();
        for n in 0..4u32 {
            assert!(insert_synced(&c, version(n, 1, n)).is_empty());
        }
        let page_0 = PageId::new(0, 0);
        assert!(c.in_transit(page_0).is_none(), "nothing dequeued yet");
        // The cache is full: page 4's insert dequeues the oldest group.
        let staged_out = insert_synced(&c, version(4, 1, 4));
        assert!(staged_out.iter().any(|s| s.page == page_0));
        // No disk write happened (there is no disk here): the lookup that
        // misses the directory finds the victim's bytes in transit.
        assert!(!c.contains(page_0));
        assert!(c.fetch(page_0, &mut IoLog::new()).unwrap().is_none());
        let in_transit = c.in_transit(page_0).expect("the victim is in transit");
        assert!(in_transit.dirty);
        assert_eq!(in_transit.lsn, Lsn(1));
        let bytes = in_transit.data.expect("a stage-out carries its bytes");
        assert_eq!(bytes.read_body(0, 4), 0u32.to_le_bytes());
        // Its disk write landed: retired.
        c.retire_in_transit(page_0, Lsn(1));
        assert!(c.in_transit(page_0).is_none());
    }

    #[test]
    fn retiring_an_older_version_leaves_the_newer_one_in_transit() {
        let c = four_slots();
        let page_0 = PageId::new(0, 0);
        // v1 of page 0 (lsn 1) is dequeued, then v2 (lsn 5) is cached and
        // dequeued too, before v1's disk write lands.
        let mut next = 1u32;
        let mut dequeue = |c: &ShardedFlashCache, lsn: u64| loop {
            let out = insert_synced(c, version(next, 1, next));
            next += 1;
            if let Some(s) = out.iter().find(|s| s.page == page_0) {
                assert_eq!(s.lsn, Lsn(lsn));
                return;
            }
        };
        insert_synced(&c, version(0, 1, 1));
        dequeue(&c, 1);
        insert_synced(&c, version(0, 5, 2));
        dequeue(&c, 5);
        // v1's write lands: v2 stays in transit.
        c.retire_in_transit(page_0, Lsn(1));
        let newer = c.in_transit(page_0).expect("v2 still in transit");
        assert_eq!(newer.lsn, Lsn(5));
        assert_eq!(newer.data.unwrap().read_body(0, 4), 2u32.to_le_bytes());
        c.retire_in_transit(page_0, Lsn(5));
        assert!(c.in_transit(page_0).is_none());
    }

    #[test]
    fn a_wound_marker_outlives_a_cold_reset_and_heals_only_at_or_above_its_lsn() {
        let config = CacheConfig {
            capacity_pages: 8,
            group_size: 4,
            meta_checkpoint_interval_groups: 1_000_000,
            ..CacheConfig::default()
        };
        // Page 5 (lsn 6) sits on a slot whose reads fail for good.
        let probe = sharded_one(config.clone(), Arc::new(MemFlashStore::new(8)));
        let bad = probe_slot(&probe, 5);
        let store = Arc::new(crate::store::BadSlotStore {
            inner: MemFlashStore::new(8),
            bad,
        });
        let c = sharded_one(config, store);
        let page_5 = PageId::new(0, 5);
        let out = c.quarantine_slot(0, bad, &mut IoLog::new());
        assert!(out.quarantined && out.dirty_unread);
        let marker = c.in_transit(page_5).expect("a wound marker");
        assert!(marker.data.is_none() && marker.dirty);
        assert_eq!(marker.lsn, Lsn(6));
        assert_eq!(c.first_wound(), Some((page_5, Lsn(6))));

        c.reset_cold();
        assert!(c.is_empty());
        assert_eq!(
            c.first_wound(),
            Some((page_5, Lsn(6))),
            "wiped with the ring"
        );

        // Neither a same-LSN data-less clean entry nor an older version with
        // bytes replaces the marker.
        let mut clean = marker.clone();
        clean.dirty = false;
        let older = version(5, 5, 55);
        c.shards[0].write().publish(&[clean, older.clone()]);
        assert_eq!(c.first_wound(), Some((page_5, Lsn(6))));

        // A version below the lost one, cached or written past the cache,
        // does not heal it; one at its LSN does.
        assert!(c.insert(older, &mut IoLog::new()).unwrap().cached);
        c.heal_wound(page_5, Lsn(5));
        assert_eq!(c.first_wound(), Some((page_5, Lsn(6))));
        assert!(
            c.insert(version(5, 6, 66), &mut IoLog::new())
                .unwrap()
                .cached
        );
        assert_eq!(c.first_wound(), None);
        assert!(c.in_transit(page_5).is_none());
    }

    #[test]
    fn the_bytes_win_over_a_same_lsn_wound_marker() {
        let c = four_slots();
        let page_0 = PageId::new(0, 0);
        let bytes = version(0, 3, 7);
        let mut marker = bytes.clone();
        marker.data = None;
        c.shards[0].write().publish(&[bytes, marker.clone()]);
        let kept = c.in_transit(page_0).unwrap();
        assert_eq!(kept.data.unwrap().read_body(0, 4), 7u32.to_le_bytes());
        assert_eq!(c.first_wound(), None);
        // Written straight to disk at its LSN: a heal leaves the bytes to
        // their own retirement.
        c.heal_wound(page_0, Lsn(3));
        assert!(c.in_transit(page_0).is_some());
        c.clear_in_transit();
        assert!(c.in_transit(page_0).is_none());
    }
}
