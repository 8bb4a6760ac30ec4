//! The group ring: the one mechanism under every FIFO-family policy
//! (paper §3 for the write path, §4 for its metadata).
//!
//! The flash device is a table of page slots cut into one or two **regions**,
//! each a circular queue. Pages are *enqueued at a region's rear* — append
//! only, hence sequential flash writes — and victims are *dequeued from its
//! front*. An older version of a page is never overwritten in place, so
//! several versions can coexist; only the most recently enqueued one is
//! *valid* (the `dir` map points at it), and only valid versions are served
//! or, when dirty, written to disk at dequeue.
//!
//! [`GroupRing`] owns everything about that which is not a replacement
//! decision:
//!
//! * **Slots, regions, directory, generations.** Every change of a slot's
//!   occupant (enqueue, dequeue, rollback, abort, quarantine) bumps the
//!   slot's generation, which is what lets a lock-light reader detect that
//!   the bytes it read off-lock no longer belong to the version it pinned
//!   ([`RingCache::fetch_pin`] / [`RingCache::fetch_validate`]).
//! * **One group lifecycle.** Enqueues collect in the pending batch until
//!   `group_size` of them exist. Every batch then leaves it the same way:
//!   it *forms* a group (`form_pending_group`), whose frames stay readable
//!   from the in-flight table, and the group is applied — one batch write —
//!   and then completed ([`RingCache::complete_group`]) or, if the write
//!   failed, aborted ([`RingCache::abort_group`]).
//!   [`CacheConfig::defer_group_writes`] decides only *who* applies it: the
//!   caller, handed a [`PendingGroupWrite`], or the ring itself before the
//!   call returns (`apply_group_inline`). What is still owed when a
//!   checkpoint comes — the pending batch and every unwritten in-flight
//!   group — is handed out by [`RingCache::owed_groups`]; only
//!   [`FlashCache::sync`] applies it inline.
//! * **The metadata journal.** A group's records are derived from its slots
//!   when it forms, so a slot dequeued while still pending leaves no record
//!   behind. **A journal group seals strictly after its batch write, and
//!   groups seal in epoch order** (§4.3): a crash or a failed write in
//!   between loses the data and its metadata *together*, so recovery never
//!   finds metadata for bytes that were not written. For the same reason a
//!   cadence checkpoint snapshots only the durable prefix of the directory —
//!   entries whose group has sealed. The [`MetaJournal`] itself holds only
//!   that durable state. Both regions share the one journal; their queue
//!   pointers pack into the journal's `front`/`size` pair (`pack_pointers`).
//! * **Dequeue mechanics.** A group dequeue first collects, read-only, the
//!   bytes of every victim that needs them — RAM frames where the write is
//!   still pending or in flight, and **one batch read**
//!   ([`FlashStore::read_batch`]) for all the rest; a device error therefore
//!   aborts with no mutation at all. Which victims survive is the policy's
//!   call.
//! * **Failure handling.** Abort of a group whose batch write failed, the
//!   write-fallout buffer the caller drains to disk after an inline
//!   failure, slot quarantine, and dirty evacuation before a cache wipe.
//! * **Recovery.** The directory is rebuilt from the cache checkpoint plus
//!   the sealed groups and reconciled against the WAL: versions above the
//!   durable LSN are discarded ([`GroupRing::recover`]).
//!
//! A policy ([`RingPolicy`]) supplies the region layout, where an inserted
//! page goes, and what happens to the victims of a dequeue.
//! [`crate::mvfifo`] and [`crate::s3fifo`] are the two in the tree.
//!
//! [`RingCache`] is the contract the functional engine holds a cache to:
//! the simulator's [`FlashCache`] plus the lock-light fetch, the deferred
//! group hand-back and the fault paths above. [`GroupRing`] is its one
//! implementation; the LC and TAC baselines implement [`FlashCache`] only.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use face_pagestore::{DeviceResult, IdHashMap, Lsn, Page, PageId};

use crate::destage::{PendingGroupWrite, PendingSlotWrite};
use crate::io::IoLog;
use crate::meta::{JournalEntry, MetaJournal};
use crate::policy::{FlashCache, PageSupplier};
use crate::store::FlashStore;
use crate::types::{
    CacheConfig, CacheRecoveryInfo, CacheStatCounters, CacheStats, Evacuation, FetchPin,
    FlashFetch, InsertOutcome, QuarantineOutcome, SlotGenerations, StagedPage,
};

/// The replacement decisions a [`GroupRing`] leaves open. Implemented inside
/// this crate only: the building blocks a policy calls (`admit`,
/// `group_dequeue`, `reenqueue`, …) are crate-private.
pub trait RingPolicy: Send + Sync + Sized {
    /// Fresh policy state (also after a crash: whatever a policy keeps is
    /// RAM-only).
    fn new(config: &CacheConfig) -> Self;

    /// Name for reports.
    fn name(config: &CacheConfig) -> &'static str;

    /// Capacities of the regions, in slot order: one or two, each at least
    /// one slot, summing to `config.capacity_pages`.
    fn region_capacities(config: &CacheConfig) -> Vec<usize>;

    /// Decide what to do with a page leaving the DRAM buffer: skip it,
    /// reject it, or `admit` it into a region.
    fn place(
        ring: &mut GroupRing<Self>,
        staged: StagedPage,
        supplier: &mut dyn PageSupplier,
        outcome: &mut InsertOutcome,
        io: &mut IoLog,
    ) -> DeviceResult<()>;

    /// `region` is full: `group_dequeue` its front and decide
    /// the victims' fate. Must free at least one slot or fail.
    fn make_room(
        ring: &mut GroupRing<Self>,
        region: usize,
        outcome: &mut InsertOutcome,
        io: &mut IoLog,
    ) -> DeviceResult<()>;
}

/// Metadata for one occupied flash slot.
#[derive(Debug, Clone)]
struct SlotMeta {
    page: PageId,
    lsn: Lsn,
    /// The cached version is newer than the disk copy.
    dirty: bool,
    /// This is the latest version of the page (only valid copies are served
    /// and only valid dirty copies are flushed to disk at dequeue).
    valid: bool,
    /// The page was hit while cached — second-chance or promotion candidate.
    referenced: bool,
    /// The journal group epoch this version was enqueued under.
    epoch: u64,
}

impl SlotMeta {
    fn journal_entry(&self, slot: usize) -> JournalEntry {
        JournalEntry {
            epoch: self.epoch,
            slot: slot as u32,
            page: self.page,
            lsn: self.lsn,
            dirty: self.dirty,
        }
    }

    /// This dirty version on its way to disk, with whatever bytes could be
    /// produced for it.
    fn disk_bound(&self, data: Option<Arc<Page>>) -> StagedPage {
        StagedPage {
            page: self.page,
            lsn: self.lsn,
            dirty: true,
            fdirty: false,
            data,
        }
    }
}

/// A formed group: the directory already references its slots, but the
/// physical batch write is still owed — by the caller (the destage
/// pipeline) under [`CacheConfig::defer_group_writes`], else by the ring
/// before the call that formed it returns.
struct InflightGroup {
    write: PendingGroupWrite,
    /// The group's journal records, RAM-resident until
    /// [`RingCache::complete_group`] seals them — a crash before then loses
    /// data and metadata together, the §4.3 invariant.
    records: Vec<JournalEntry>,
    /// The physical write is done; the group seals once every older
    /// in-flight group has sealed too.
    completed: bool,
}

/// A circular FIFO over the slot range `[base, base + cap)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Region {
    base: usize,
    pub(crate) cap: usize,
    /// Offset (within the region) of the oldest occupied slot.
    front: usize,
    /// Occupied slots, quarantine holes included.
    pub(crate) size: usize,
}

impl Region {
    fn new(base: usize, cap: usize) -> Self {
        Self {
            base,
            cap,
            front: 0,
            size: 0,
        }
    }

    pub(crate) fn free(&self) -> usize {
        self.cap - self.size
    }

    /// Absolute slot index of the `i`-th occupied slot (queue order).
    fn slot_at(&self, i: usize) -> usize {
        self.base + (self.front + i) % self.cap
    }

    fn rear(&self) -> usize {
        self.slot_at(self.size)
    }

    fn covers(&self, slot: usize) -> bool {
        slot >= self.base && slot < self.base + self.cap
    }

    /// Whether the absolute slot index lies inside the occupied window.
    fn in_window(&self, slot: usize) -> bool {
        self.covers(slot) && (slot - self.base + self.cap - self.front) % self.cap < self.size
    }
}

/// Pack two regions' queue pointers into one u64 (the first region in the
/// low half) for the journal's single `front`/`size` pointer pair.
/// Capacities are asserted below `u32::MAX`, so the halves cannot collide; a
/// single-region ring leaves the high half zero.
pub(crate) fn pack_pointers(first: usize, second: usize) -> u64 {
    (first as u64) | ((second as u64) << 32)
}

/// Inverse of [`pack_pointers`].
pub(crate) fn unpack_pointers(packed: u64) -> (usize, usize) {
    ((packed & u32::MAX as u64) as usize, (packed >> 32) as usize)
}

/// What [`GroupRing::group_dequeue`] took off a region's front.
#[derive(Default)]
pub(crate) struct Dequeued {
    /// Slots dequeued (holes and superseded versions included).
    slots: usize,
    /// Dirty valid victims, already counted and charged as disk writes.
    pub(crate) to_disk: Vec<StagedPage>,
    /// Referenced valid victims the policy's second-chance rule kept, marked
    /// `fdirty` so their re-enqueue is unconditional.
    pub(crate) survivors: Vec<StagedPage>,
    /// Valid victims that left the flash in the dequeue pass, clean or dirty.
    pub(crate) evicted: Vec<PageId>,
}

/// The flash cache shared by the FIFO-family policies: the ring mechanics of
/// the module docs plus a policy `P` making the replacement decisions.
pub struct GroupRing<P> {
    config: CacheConfig,
    pub(crate) store: Arc<dyn FlashStore>,
    /// Slot metadata over the whole device; `None` means the slot is outside
    /// every queue window, or a hole inside one.
    slots: Vec<Option<SlotMeta>>,
    pub(crate) regions: Vec<Region>,
    /// Latest valid version of each cached page.
    pub(crate) dir: IdHashMap<PageId, usize>,
    /// Slots assigned to the group now collecting, with their data when the
    /// store carries data. Shared by all regions: their entries seal under
    /// one journal group.
    pending: Vec<(usize, Option<Arc<Page>>)>,
    /// Formed groups awaiting their physical batch write or their seal, by
    /// epoch.
    inflight: BTreeMap<u64, InflightGroup>,
    /// `slot -> (epoch, frame)` for the in-flight groups, so fetches of
    /// versions whose batch write has not completed are served from RAM —
    /// the foreground never waits for a specific group write to finish.
    inflight_data: IdHashMap<usize, (u64, Arc<Page>)>,
    generations: SlotGenerations,
    /// Slots removed from the replacement rotation after repeated device
    /// failures ([`RingCache::quarantine_slot`]). RAM-only by design: the
    /// flash bytes are not trimmed, so a post-crash recovery may still use
    /// them if they turn out readable; a slot that keeps failing is simply
    /// re-quarantined. Inside a queue window a quarantined slot is a hole
    /// (`slots[s]` stays `None`); at the rear it is absorbed into the window
    /// without a page (`absorb_quarantined_rear`).
    quarantined: HashSet<usize>,
    /// Dirty pages un-cached by a failed call — an aborted inline group or a
    /// failed dequeue — awaiting the caller's disk failover
    /// ([`RingCache::take_write_fallout`]).
    write_fallout: Vec<StagedPage>,
    journal: MetaJournal,
    pub(crate) stats: CacheStatCounters,
    pub(crate) policy: P,
}

impl<P: RingPolicy> GroupRing<P> {
    /// Create a cache with the given configuration over `store`.
    ///
    /// # Panics
    /// Panics if the capacity is zero or too small for the policy's regions,
    /// reaches `u32::MAX` (queue pointers and journal slots are u32), or
    /// exceeds the store's capacity.
    pub fn new(config: CacheConfig, store: Arc<dyn FlashStore>) -> Self {
        let capacity = config.capacity_pages;
        assert!(capacity > 0, "flash cache needs capacity");
        assert!(
            capacity < u32::MAX as usize,
            "queue pointers pack into u32 halves"
        );
        assert!(
            store.capacity() >= capacity,
            "flash store smaller than configured capacity"
        );
        assert!(config.group_size >= 1, "group size must be at least 1");
        let capacities = P::region_capacities(&config);
        assert!(
            matches!(capacities.len(), 1 | 2) && capacities.iter().sum::<usize>() == capacity,
            "a ring has one or two regions covering the device"
        );
        let mut base = 0;
        let regions = capacities
            .into_iter()
            .map(|cap| {
                let region = Region::new(base, cap);
                base += cap;
                region
            })
            .collect();
        Self {
            policy: P::new(&config),
            journal: MetaJournal::new(config.meta_checkpoint_interval_groups),
            config,
            store,
            slots: vec![None; capacity],
            regions,
            dir: IdHashMap::default(),
            pending: Vec::new(),
            inflight: BTreeMap::new(),
            inflight_data: IdHashMap::default(),
            generations: SlotGenerations::new(capacity),
            quarantined: HashSet::new(),
            write_fallout: Vec::new(),
            stats: CacheStatCounters::default(),
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The persistent mapping-metadata journal (for recovery experiments).
    pub fn journal(&self) -> &MetaJournal {
        &self.journal
    }

    /// The valid (served) page versions with their LSN and dirty flag, region
    /// by region, each in queue (oldest-to-newest) order. Recovery tests
    /// assert against this.
    pub fn valid_versions(&self) -> Vec<(PageId, Lsn, bool)> {
        self.snapshot_filtered(u64::MAX)
            .into_iter()
            .map(|e| (e.page, e.lsn, e.dirty))
            .collect()
    }

    /// Fraction of occupied slots holding invalidated (duplicate) versions —
    /// the paper reports 30–40 % duplicates for an 8 GB cache.
    pub fn duplicate_ratio(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let invalid = self.slots.iter().flatten().filter(|m| !m.valid).count();
        invalid as f64 / self.len() as f64
    }

    /// Slots of every occupied window, region by region in queue order.
    fn window_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.regions
            .iter()
            .flat_map(|r| (0..r.size).map(move |i| r.slot_at(i)))
    }

    /// The valid versions enqueued under an epoch below `below_epoch`, as
    /// journal entries — the payload of a [`crate::meta::CacheCheckpoint`].
    fn snapshot_filtered(&self, below_epoch: u64) -> Vec<JournalEntry> {
        self.window_slots()
            .filter_map(|slot| {
                let m = self.slots[slot].as_ref()?;
                (m.valid && m.epoch < below_epoch).then(|| m.journal_entry(slot))
            })
            .collect()
    }

    /// Snapshot only the **durable** part of the directory: entries whose
    /// group has sealed. A cadence checkpoint can fire while newer groups are
    /// still in flight (or collecting in the pending batch); their
    /// bytes have not reached flash, so a snapshot referencing them would let
    /// a crash resurrect metadata for pages that were never written — the
    /// exact §4.3 violation the group-seal coupling exists to prevent.
    fn durable_directory_snapshot(&self) -> Vec<JournalEntry> {
        // Seals are contiguous in epoch order, so everything strictly below
        // the oldest unsealed epoch (oldest in-flight group, else the group
        // still collecting) is durable.
        let oldest_unsealed = self
            .inflight
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.journal.current_epoch());
        self.snapshot_filtered(oldest_unsealed)
    }

    /// The regions' `(front, size)` pointers in the journal's packed form.
    fn packed_pointers(&self) -> (u64, u64) {
        let pack = |field: fn(&Region) -> usize| {
            pack_pointers(
                field(&self.regions[0]),
                self.regions.get(1).map_or(0, field),
            )
        };
        (pack(|r| r.front), pack(|r| r.size))
    }

    fn install_checkpoint(&mut self, snapshot: Vec<JournalEntry>, io: &mut IoLog) {
        let (front, size) = self.packed_pointers();
        self.journal.install_checkpoint(front, size, snapshot, io);
    }

    /// Free slots of `region`.
    pub(crate) fn free(&self, region: usize) -> usize {
        self.regions[region].free()
    }

    /// Slots of the pending batch.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Slots of `region` that can still host pages: its capacity minus the
    /// quarantined ones. At zero the region cannot admit anything and
    /// inserts degrade to serve-through (the engine's breaker trips long
    /// before this point).
    fn usable_capacity(&self, region: usize) -> usize {
        let r = &self.regions[region];
        r.cap - self.quarantined.iter().filter(|&&s| r.covers(s)).count()
    }

    /// Absorb quarantined slots sitting at `region`'s rear into the window
    /// as holes, so the next enqueue lands on a usable slot. Each absorbed
    /// slot consumes window space and is reclaimed when it circulates back
    /// to the front (a dequeue of an empty slot is a no-op).
    pub(crate) fn absorb_quarantined_rear(&mut self, region: usize) {
        while self.free(region) > 0 && self.quarantined.contains(&self.regions[region].rear()) {
            let slot = self.regions[region].rear();
            debug_assert!(self.slots[slot].is_none(), "quarantined slot occupied");
            self.generations.bump(slot);
            self.regions[region].size += 1;
        }
    }

    /// The RAM-resident frame for `slot`, when its batch write has not
    /// reached the device yet: `Some(frame)` for a slot in the not-yet-formed
    /// pending batch or an in-flight group (the inner option is
    /// `None` for metadata-only staged pages), `None` when the slot's bytes
    /// live on the flash store.
    fn ram_frame(&self, slot: usize) -> Option<Option<Arc<Page>>> {
        if let Some((_, frame)) = self.pending.iter().find(|(s, _)| *s == slot) {
            return Some(frame.clone());
        }
        self.inflight_data
            .get(&slot)
            .map(|(_, frame)| Some(Arc::clone(frame)))
    }

    /// Drop `slot` from the pending batch, returning its frame.
    fn take_pending(&mut self, slot: usize) -> Option<Option<Arc<Page>>> {
        let pos = self.pending.iter().position(|(s, _)| *s == slot)?;
        Some(self.pending.remove(pos).1)
    }

    /// The slot's occupant leaves: bump the generation (outstanding
    /// lock-light pins on the slot must fail), take the metadata and drop the
    /// directory entry if it pointed here.
    fn vacate(&mut self, slot: usize) -> Option<SlotMeta> {
        self.generations.bump(slot);
        let meta = self.slots[slot].take()?;
        if self.dir.get(&meta.page) == Some(&slot) {
            self.dir.remove(&meta.page);
        }
        Some(meta)
    }

    /// Assign `region`'s rear slot to a page version under the epoch of the
    /// group now collecting. The physical write — data pages and the group's
    /// metadata records together — waits in the pending batch.
    fn enqueue_assign(&mut self, region: usize, staged: &StagedPage) {
        debug_assert!(self.free(region) > 0, "enqueue without free slot");
        let slot = self.regions[region].rear();
        debug_assert!(
            !self.quarantined.contains(&slot),
            "enqueue onto a quarantined slot"
        );
        self.regions[region].size += 1;
        self.generations.bump(slot);
        self.slots[slot] = Some(SlotMeta {
            page: staged.page,
            lsn: staged.lsn,
            dirty: staged.dirty,
            valid: true,
            referenced: false,
            epoch: self.journal.current_epoch(),
        });
        self.dir.insert(staged.page, slot);
        self.pending.push((slot, staged.data.clone()));
    }

    /// Invalidate the previous version of `page`, if cached.
    fn invalidate_previous(&mut self, page: PageId) {
        if let Some(slot) = self.dir.remove(&page) {
            if let Some(meta) = &mut self.slots[slot] {
                meta.valid = false;
                self.stats.invalidations.inc();
            }
        }
    }

    /// Enqueue a new version at `region`'s rear, superseding any cached one.
    pub(crate) fn enqueue_fresh(&mut self, region: usize, staged: &StagedPage) {
        self.invalidate_previous(staged.page);
        self.enqueue_assign(region, staged);
        self.stats.cached_inserts.inc();
    }

    /// Count a page handed to the cache.
    pub(crate) fn count_insert(&self, staged: &StagedPage) {
        self.stats.inserts.inc();
        if staged.dirty {
            self.stats.dirty_inserts.inc();
        }
    }

    /// Conditional enqueue (Algorithm 1): a clean page whose identical copy
    /// is already cached is not enqueued again.
    pub(crate) fn skip_clean_duplicate(&self, staged: &StagedPage) -> bool {
        let skip = !staged.fdirty && self.dir.contains_key(&staged.page);
        if skip {
            self.stats.skipped_inserts.inc();
        }
        skip
    }

    /// Divert a page that cannot be (or no longer is) cached: a dirty page is
    /// counted, charged as a disk write and pushed to `sink` for the caller
    /// to write; a clean page is simply dropped (the disk copy is current).
    fn serve_through(
        stats: &CacheStatCounters,
        staged: StagedPage,
        sink: &mut Vec<StagedPage>,
        io: &mut IoLog,
    ) {
        if staged.dirty {
            io.disk_write(staged.page);
            stats.staged_out_to_disk.inc();
            sink.push(staged);
        }
    }

    /// Admit one page version into `region`: make space (the policy decides
    /// the victims' fate), then assign a slot.
    ///
    /// On a device error the insert is not admitted: the staged page (if
    /// dirty) moves to the write-fallout buffer for disk failover, and the
    /// error propagates. Pages already dequeued into `outcome.staged_out`
    /// follow it there in [`FlashCache::insert`].
    pub(crate) fn admit(
        &mut self,
        region: usize,
        staged: StagedPage,
        outcome: &mut InsertOutcome,
        io: &mut IoLog,
    ) -> DeviceResult<()> {
        if self.usable_capacity(region) == 0 {
            // Every slot of the region is quarantined: serve through.
            outcome.cached = false;
            Self::serve_through(&self.stats, staged, &mut outcome.staged_out, io);
            return Ok(());
        }
        // Each iteration frees at least one slot; quarantined holes at the
        // rear are absorbed into the window so the enqueue lands on a usable
        // slot (progress is guaranteed while one slot remains usable).
        loop {
            self.absorb_quarantined_rear(region);
            if self.free(region) > 0 {
                break;
            }
            if let Err(e) = P::make_room(self, region, outcome, io) {
                Self::serve_through(&self.stats, staged, &mut self.write_fallout, io);
                return Err(e);
            }
        }
        self.enqueue_fresh(region, &staged);
        Ok(())
    }

    /// [`GroupRing::admit`] each of `pages` into `region`, in order. On a
    /// device error the pages not yet admitted move to the write-fallout
    /// buffer: they were already dequeued, so dropping them would lose the
    /// only copy of a dirty one.
    pub(crate) fn admit_all(
        &mut self,
        region: usize,
        pages: Vec<StagedPage>,
        outcome: &mut InsertOutcome,
        io: &mut IoLog,
    ) -> DeviceResult<()> {
        let mut pages = pages.into_iter();
        while let Some(page) = pages.next() {
            if let Err(e) = self.admit(region, page, outcome, io) {
                for rest in pages {
                    Self::serve_through(&self.stats, rest, &mut self.write_fallout, io);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Re-enqueue dequeue survivors at `region`'s rear. Space for them is
    /// normally guaranteed (the dequeue freed `n` slots and at most `n - 1`
    /// survivors remain) — unless quarantined holes absorbed the freed
    /// space, in which case a survivor loses its second chance: dirty to
    /// disk, clean dropped.
    pub(crate) fn reenqueue(
        &mut self,
        region: usize,
        survivors: Vec<StagedPage>,
        outcome: &mut InsertOutcome,
        io: &mut IoLog,
    ) {
        for survivor in survivors {
            self.absorb_quarantined_rear(region);
            if self.free(region) == 0 {
                Self::serve_through(&self.stats, survivor, &mut outcome.staged_out, io);
                continue;
            }
            self.invalidate_previous(survivor.page);
            self.enqueue_assign(region, &survivor);
        }
    }

    /// Dequeue up to `group_size` slots from `region`'s front. Every slot
    /// leaves the queue. Of the valid victims, a referenced one survives when
    /// `second_chance` is set; any other is evicted, a dirty one to disk.
    /// Invalid (superseded) versions and holes are discarded with no I/O.
    ///
    /// A device read error aborts the dequeue with **no mutation at all**:
    /// the bytes of every victim that needs them (disk-bound dirty pages,
    /// survivors) are collected in a read-only first pass — one batch read
    /// for those not in RAM — so an error leaves the queue exactly as it was
    /// and the caller can retry or degrade. The error names the slot that
    /// failed, not merely the batch.
    pub(crate) fn group_dequeue(
        &mut self,
        region: usize,
        second_chance: bool,
        io: &mut IoLog,
    ) -> DeviceResult<Dequeued> {
        let window = self.regions[region];
        let n = self.config.group_size.min(window.size);
        let mut batch = Dequeued {
            slots: n,
            ..Dequeued::default()
        };
        // Pass 1 (read-only): collect the bytes of every victim that will be
        // flushed to disk or re-enqueued; clean unreferenced pages are
        // discarded without ever touching the device. Frames still in RAM
        // (pending batch, in-flight group) are shared; the rest are fetched
        // below with one batch read.
        let mut prefetched: Vec<Option<Arc<Page>>> = vec![None; n];
        let mut needs_read = false;
        let mut on_device: Vec<usize> = Vec::new();
        for (i, frame) in prefetched.iter_mut().enumerate() {
            let slot = window.slot_at(i);
            let Some(m) = &self.slots[slot] else {
                continue;
            };
            if m.valid && (m.dirty || (second_chance && m.referenced)) {
                needs_read = true;
                match self.ram_frame(slot) {
                    Some(ram) => *frame = ram,
                    None => on_device.push(i),
                }
            }
        }
        if !on_device.is_empty() {
            // The residual under-lock flash read: these victims' group
            // writes completed long ago, so their bytes come off the device
            // while the shard lock is held — as the one batch-sized read of
            // the paper's group replacement (§3.3), which is also how
            // `flash_read_seq` below bills it.
            let _allow = face_analysis::witness::allow_device_io(
                "ring: dequeue reads its non-resident victims' slots",
            );
            let slots: Vec<usize> = on_device.iter().map(|&i| window.slot_at(i)).collect();
            let pages = match self.store.read_batch(&slots) {
                Ok(pages) => pages,
                Err(batch_err) => {
                    // The dequeue aborts either way. A slot-scoped error from
                    // a batch names the batch's first slot, though, and
                    // quarantine acts on the slot it is given: re-read slot
                    // by slot so that a slot which is really bad is the one
                    // named.
                    if batch_err.slot().is_some() {
                        for &slot in &slots {
                            self.store.read_slot(slot)?;
                        }
                    }
                    return Err(batch_err);
                }
            };
            for (i, page) in on_device.into_iter().zip(pages) {
                prefetched[i] = page.map(Arc::new);
            }
        }
        if needs_read {
            io.flash_read_seq(n as u32);
        }

        for (i, data) in prefetched.into_iter().enumerate() {
            let slot = window.slot_at(i);
            let Some(meta) = self.vacate(slot) else {
                continue;
            };
            // If this slot's write is still pending, take it out of the
            // pending batch: its bytes are never written and, since a
            // group's records derive from its slots, no record of it ever
            // seals. A slot
            // whose write is *in flight* keeps its queued write (the frames
            // are shared and a later re-enqueue of the slot lands in a later
            // group, which the per-shard FIFO destage order applies after).
            self.take_pending(slot);
            self.stats.staged_out.inc();
            if !meta.valid {
                continue;
            }
            if second_chance && meta.referenced {
                self.stats.second_chances.inc();
                batch.survivors.push(StagedPage {
                    page: meta.page,
                    lsn: meta.lsn,
                    dirty: meta.dirty,
                    fdirty: true,
                    data,
                });
            } else {
                batch.evicted.push(meta.page);
                if meta.dirty {
                    let victim = meta.disk_bound(data);
                    Self::serve_through(&self.stats, victim, &mut batch.to_disk, io);
                }
            }
        }
        let r = &mut self.regions[region];
        r.front = (r.front + n) % r.cap;
        r.size -= n;
        // Pointer movement becomes durable with the next group seal or
        // checkpoint; recovery may therefore see a slightly stale front and
        // re-admit recently dequeued versions. That is safe because every
        // re-admitted version is at or below the durable LSN (so redo
        // patches it forward), not because it matches the disk — a
        // second-chance survivor's old slot, for example, was never staged
        // to disk.
        Ok(batch)
    }

    /// Forced progress (paper §3.3): if every slot of the dequeue survived, a
    /// full re-enqueue would replace nothing — force the oldest survivor out.
    pub(crate) fn force_progress(&self, batch: &mut Dequeued, io: &mut IoLog) {
        if batch.slots > 0 && batch.survivors.len() == batch.slots {
            let forced = batch.survivors.remove(0);
            self.stats.second_chances.sub(1);
            Self::serve_through(&self.stats, forced, &mut batch.to_disk, io);
        }
    }

    /// Form a group from the pending batch: the directory keeps referencing
    /// the slots, the frames move into the in-flight table so fetches and
    /// dequeues still see them, and the group's journal records — one per
    /// slot the batch will write — wait in the in-flight table until
    /// [`RingCache::complete_group`] seals them. No I/O happens here: the
    /// batch write is the caller's under
    /// [`CacheConfig::defer_group_writes`] or after
    /// [`RingCache::owed_groups`], else `apply_group_inline`'s.
    fn form_pending_group(&mut self) -> Option<PendingGroupWrite> {
        if self.pending.is_empty() {
            return None;
        }
        let epoch = self.journal.begin_group();
        let mut pages = Vec::with_capacity(self.pending.len());
        let mut records = Vec::with_capacity(self.pending.len());
        for (slot, data) in std::mem::take(&mut self.pending) {
            let meta = self.slots[slot]
                .as_ref()
                .expect("pending slot has metadata");
            debug_assert_eq!(meta.epoch, epoch, "pending slot of another group");
            records.push(meta.journal_entry(slot));
            if let Some(frame) = &data {
                self.inflight_data.insert(slot, (epoch, Arc::clone(frame)));
            }
            pages.push(PendingSlotWrite {
                slot,
                page: meta.page,
                lsn: meta.lsn,
                data,
            });
        }
        let write = PendingGroupWrite {
            shard: 0,
            epoch,
            pages,
        };
        self.inflight.insert(
            epoch,
            InflightGroup {
                write: write.clone(),
                records,
                completed: false,
            },
        );
        Some(write)
    }

    /// Apply one group's batch write inline and seal it; on a device error
    /// abort it, its dirty pages joining the write-fallout buffer. A prefix
    /// of the batch may have persisted, but its records never seal, so those
    /// bytes are invisible to recovery — exactly what a crash between the
    /// write and the seal would leave.
    fn apply_group_inline(
        &mut self,
        write: &PendingGroupWrite,
        io: &mut IoLog,
    ) -> DeviceResult<()> {
        if let Err(e) = write.apply(&*self.store, io) {
            let fallout = self.abort_group(write.epoch, io);
            self.write_fallout.extend(fallout);
            return Err(e);
        }
        self.complete_group(write.epoch, io);
        Ok(())
    }

    /// Seal the completed groups at the head of the in-flight table, so
    /// groups seal in epoch order even if completions race (they do not
    /// under the per-shard FIFO destage routing; this is the ring's own
    /// guarantee), then take a cadence checkpoint if one is due.
    fn seal_completed_prefix(&mut self, io: &mut IoLog) {
        while let Some(entry) = self.inflight.first_entry() {
            if !entry.get().completed {
                break;
            }
            let group = entry.remove();
            self.release_inflight_frames(&group.write);
            let (front, size) = self.packed_pointers();
            self.journal.seal_group(group.records, front, size, io);
        }
        if self.journal.checkpoint_due() {
            self.install_checkpoint(self.durable_directory_snapshot(), io);
            self.stats.metadata_flushes.inc();
        }
    }

    /// Drop the in-flight frames `write` still owns.
    fn release_inflight_frames(&mut self, write: &PendingGroupWrite) {
        for w in &write.pages {
            if matches!(self.inflight_data.get(&w.slot), Some((e, _)) if *e == write.epoch) {
                self.inflight_data.remove(&w.slot);
            }
        }
    }

    /// Restore a cache from its surviving flash-resident state after a crash:
    /// the cache checkpoint plus the sealed journal groups, reconciled
    /// against the WAL's durable end, plus a bounded header scan of window
    /// slots the journal left uncovered (paper §4.2). The recovered cache
    /// serves fetches for every page whose metadata could be restored, in
    /// the original FIFO order (queue pointers and per-slot versions are
    /// rebuilt), so eviction order is preserved across the crash. Policy
    /// state restarts fresh.
    ///
    /// Reconciliation rules:
    /// * a journaled version with `lsn > durable_lsn` is **discarded** — its
    ///   WAL records were lost with the crash, so serving it would diverge
    ///   from redo; any older surviving version of the page becomes valid
    ///   again and redo patches it forward;
    /// * a dirty version with `lsn <= durable_lsn` is kept and substitutes
    ///   for the disk copy during redo (the paper's fast-restart path).
    pub fn recover(
        config: CacheConfig,
        store: Arc<dyn FlashStore>,
        survived: &MetaJournal,
        durable_lsn: Lsn,
        io: &mut IoLog,
    ) -> (Self, CacheRecoveryInfo) {
        let recovered = survived.recover(io);
        let scan_cap = 2 * config.group_size as u64;
        let mut cache = Self::new(config, Arc::clone(&store));
        let (fronts, sizes) = (
            unpack_pointers(recovered.front),
            unpack_pointers(recovered.size),
        );
        for (r, (front, size)) in cache
            .regions
            .iter_mut()
            .zip([(fronts.0, sizes.0), (fronts.1, sizes.1)])
        {
            r.front = front % r.cap;
            r.size = size.min(r.cap);
        }
        let mut info = CacheRecoveryInfo {
            survived: true,
            metadata_segments_loaded: u64::from(recovered.checkpoint_loaded)
                + survived.sealed_groups() as u64,
            checkpoint_loaded: recovered.checkpoint_loaded,
            checkpoint_entries_loaded: recovered.checkpoint_entries,
            journal_records_replayed: recovered.journal_records_replayed,
            ..CacheRecoveryInfo::default()
        };

        // Replay in journal order (checkpoint snapshot, then sealed groups
        // oldest-first): a later entry is the newer version and supersedes
        // earlier ones, for its page and for its slot alike.
        cache.dir.reserve(recovered.entries.len());
        let mut doomed_slots: HashSet<usize> = HashSet::new();
        for e in &recovered.entries {
            let slot = e.slot as usize;
            // Only slots inside an occupied window are live.
            if !cache.regions.iter().any(|r| r.in_window(slot)) {
                continue;
            }
            if e.lsn > durable_lsn {
                // The version outran the durable log; rule 1 discards it.
                // The slot's physical bytes belong to this discarded version
                // (data and metadata seal together), so any earlier entry
                // replayed onto the same slot must go too — its metadata
                // would otherwise serve the discarded version's bytes. The
                // slot is marked for physical invalidation below (deferred:
                // a *later* replay entry may legitimately re-occupy it).
                info.entries_discarded_beyond_wal += 1;
                doomed_slots.insert(slot);
                cache.vacate(slot);
                continue;
            }
            // A later entry re-occupying a doomed slot owns its bytes again.
            // (Nothing is doomed on a restart that discarded nothing.)
            if !doomed_slots.is_empty() {
                doomed_slots.remove(&slot);
            }
            // A stale occupant of a reused slot loses its directory entry.
            if let Some(old) = &cache.slots[slot] {
                if old.page != e.page && cache.dir.get(&old.page) == Some(&slot) {
                    cache.dir.remove(&old.page);
                }
            }
            if let Some(prev) = cache.dir.insert(e.page, slot) {
                if prev != slot {
                    if let Some(m) = &mut cache.slots[prev] {
                        m.valid = false;
                    }
                }
            }
            cache.slots[slot] = Some(SlotMeta {
                page: e.page,
                lsn: e.lsn,
                dirty: e.dirty,
                valid: true,
                referenced: false,
                epoch: e.epoch,
            });
        }

        // Physically invalidate the slots whose only content is a discarded
        // version: a readable header there would let a *later* recovery's
        // tail scan resurrect the dead timeline once the reused LSN range
        // becomes durable again.
        for slot in &doomed_slots {
            store.clear_slot(*slot);
        }

        // Bounded tail scan (§4.2): window slots the journal did not cover —
        // normally none, because metadata seals with its group — are probed
        // through their page headers, last region first and newest-first
        // within each, capped at two groups overall. A scanned header is
        // admitted only under the same reconciliation rule and never over a
        // journaled version of the same page.
        let mut scanned = 0u64;
        let windows: Vec<Region> = cache.regions.iter().rev().copied().collect();
        for region in windows {
            for slot in (0..region.size).rev().map(|i| region.slot_at(i)) {
                if scanned >= scan_cap {
                    break;
                }
                if cache.slots[slot].is_some() {
                    continue;
                }
                scanned += 1;
                let Some((page, lsn)) = store.slot_header(slot) else {
                    continue;
                };
                if lsn > durable_lsn || cache.dir.contains_key(&page) {
                    continue;
                }
                cache.dir.insert(page, slot);
                cache.slots[slot] = Some(SlotMeta {
                    page,
                    lsn,
                    // The dirty flag is not in the page header; assume dirty
                    // (safe: at worst an extra disk write at stage-out).
                    dirty: true,
                    valid: true,
                    referenced: false,
                    epoch: 0,
                });
            }
        }
        info.pages_scanned = scanned;
        if scanned > 0 {
            io.flash_read_seq(scanned as u32);
        }

        info.entries_restored = cache.dir.len() as u64;
        // The restored journal continues from the survivor.
        cache.journal = survived.clone();
        // If reconciliation discarded anything, the survivor's durable
        // metadata still describes the discarded versions. Rewrite the
        // snapshot from the reconciled directory immediately: otherwise a
        // later recovery — once the (reused) LSN range becomes durable
        // again — would re-admit versions from the dead timeline.
        if info.entries_discarded_beyond_wal > 0 {
            cache.install_checkpoint(cache.snapshot_filtered(u64::MAX), io);
        }
        (cache, info)
    }

    /// Resolve `page` to its valid slot for a fetch: count the lookup (or
    /// the retry), mark the version referenced and charge the random flash
    /// read. Returns the slot with the version's LSN and dirty flag.
    fn reference(
        &mut self,
        page: PageId,
        retry: bool,
        io: &mut IoLog,
    ) -> Option<(usize, Lsn, bool)> {
        if retry {
            self.stats.fetch_retries.inc();
        } else {
            self.stats.lookups.inc();
        }
        let slot = *self.dir.get(&page)?;
        let meta = self.slots[slot].as_mut()?;
        debug_assert!(meta.valid, "directory points at an invalid version");
        if !retry {
            self.stats.hits.inc();
        }
        meta.referenced = true;
        io.flash_read_rand(1);
        Some((slot, meta.lsn, meta.dirty))
    }
}

/// The production cache contract: what [`crate::ShardedFlashCache`] and the
/// engine's tier need beyond the trace simulator's [`FlashCache`].
/// Implemented once, for [`GroupRing`], so both ring policies sit behind one
/// `Box<dyn RingCache>` per shard.
pub trait RingCache: FlashCache {
    /// Human-readable policy name (used in reports).
    fn policy_name(&self) -> &'static str;

    /// Whether a valid copy of `page` is cached.
    fn contains(&self, page: PageId) -> bool;

    /// Capacity in page slots.
    fn capacity(&self) -> usize;

    /// Occupied page slots, invalidated old versions and quarantine holes
    /// included.
    fn len(&self) -> usize;

    /// Whether the cache currently holds nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// First half of the lock-light fetch: resolve `page` to its slot, mark
    /// it referenced, charge the flash read in `io`, and return a
    /// [`FetchPin`] carrying the slot's generation — **without touching the
    /// device**. The caller drops the shard lock, performs the read, and
    /// revalidates with [`RingCache::fetch_validate`].
    ///
    /// `retry` is true when this lookup repeats after a failed validation:
    /// the retry is counted in [`CacheStats::fetch_retries`] instead of
    /// being double-counted as a fresh lookup/hit. (A pinned hit whose
    /// retry then misses stays counted as a hit — the version existed at
    /// pin time; the race is visible in the retry counter.)
    fn fetch_pin(&mut self, page: PageId, retry: bool, io: &mut IoLog) -> Option<FetchPin>;

    /// Second half of the lock-light fetch: whether `slot` still holds the
    /// version pinned at `generation`. `false` means the slot was evicted or
    /// reused while the caller read the device off-lock — the bytes may
    /// belong to a different version (or page) and must be discarded.
    fn fetch_validate(&self, slot: usize, generation: u64) -> bool;

    /// Dirty pages un-cached by a failed call — a dequeue whose victim read
    /// failed, or a group write the ring applied itself — awaiting disk
    /// failover. Populated when [`FlashCache::insert`] or
    /// [`FlashCache::sync`] return a device error; the caller drains this
    /// immediately (under the same lock) and routes the pages through its
    /// stage-out-to-disk path.
    fn take_write_fallout(&mut self) -> Vec<StagedPage>;

    /// Report that a group's physical batch write finished: the group's
    /// journal records may now seal (become crash-durable) — never before,
    /// preserving the data-with-metadata coupling of §4.3. A no-op for
    /// unknown epochs (idempotent: a copy of the group handed out by
    /// [`RingCache::owed_groups`] may have been applied and sealed first).
    fn complete_group(&mut self, epoch: u64, io: &mut IoLog);

    /// Whether the group `epoch` still owes its physical batch write
    /// (formed, neither completed nor aborted). `false` for sealed and
    /// unknown epochs.
    fn group_write_pending(&self, epoch: u64) -> bool;

    /// Form the pending batch into a group and return every group whose
    /// batch write is still owed, oldest first. A group already handed to a
    /// destager comes back as a copy: whoever applies it second finds it no
    /// longer pending ([`RingCache::group_write_pending`]). No I/O.
    fn owed_groups(&mut self) -> Vec<PendingGroupWrite>;

    /// Write a flash-cache checkpoint: the durable directory (sealed groups
    /// only) and the queue pointers, so a restart replays no journal. Write
    /// the owed groups first ([`RingCache::owed_groups`]), or their pages
    /// miss it. The journal bills its write to `io`; no device I/O.
    fn checkpoint_metadata(&mut self, io: &mut IoLog);

    /// Abort a deferred group whose physical batch write failed
    /// permanently: drop its directory entries and journal records (they
    /// never seal — exactly the crash contract: data and metadata are lost
    /// together) and return the group's dirty pages (bytes from the
    /// in-flight RAM copy) for disk failover. Idempotent for unknown epochs.
    fn abort_group(&mut self, epoch: u64, io: &mut IoLog) -> Vec<StagedPage>;

    /// Take `slot` out of the replacement rotation permanently (until the
    /// cache is rebuilt cold) and invalidate its resident version: the
    /// degraded-mode response to a slot that keeps failing. A clean resident
    /// is simply dropped (re-fetched from disk on next miss); a dirty
    /// resident comes back in [`QuarantineOutcome::evacuee`] for a
    /// WAL-guarded disk write — its bytes are pulled from RAM when the
    /// group is still in flight, else read from the device (the caller
    /// wraps the call in an acknowledged-I/O scope; quarantine is a rare
    /// failure-path event). The flash store is *not* trimmed: if the bytes
    /// are still readable after a crash, recovery may legitimately use them.
    fn quarantine_slot(&mut self, slot: usize, io: &mut IoLog) -> QuarantineOutcome;

    /// Evacuation support: return **every** dirty valid cached page (with
    /// data when available) so the caller can write them to disk before
    /// wiping or replacing the cache device — dirty flash pages are part of
    /// the persistent database and exist nowhere else. A version whose
    /// group write is still owed carries its RAM frame; the engine writes
    /// the owed groups first ([`RingCache::owed_groups`]). Dirty flags are
    /// **left set**: the caller's disk writes may still fail, and clearing
    /// early would let a retried evacuation (or a later eviction) drop the
    /// only copy. A successful evacuation is followed by a wipe, which
    /// retires the flags; repeated calls are idempotent.
    ///
    /// Best-effort by design: evacuation runs precisely when the device is
    /// suspect, so an unreadable dirty page is *counted*
    /// ([`Evacuation::unread_dirty`]) rather than aborting the evacuation —
    /// those pages are recovered from WAL redo instead of flash.
    fn evacuate_dirty(&mut self, io: &mut IoLog) -> Evacuation;
}

impl<P: RingPolicy> FlashCache for GroupRing<P> {
    fn fetch(&mut self, page: PageId, io: &mut IoLog) -> DeviceResult<Option<FlashFetch>> {
        let Some((slot, lsn, dirty)) = self.reference(page, false, io) else {
            return Ok(None);
        };
        // RAM-resident frames first (pending batch, in-flight groups), then
        // the flash store (fallible).
        let frame = match self.ram_frame(slot) {
            Some(frame) => frame,
            None => self.store.read_slot(slot)?.map(Arc::new),
        };
        Ok(Some(FlashFetch {
            data: frame.map(|f| f.as_ref().clone()),
            dirty,
            lsn,
        }))
    }

    fn insert(
        &mut self,
        staged: StagedPage,
        supplier: &mut dyn PageSupplier,
        io: &mut IoLog,
    ) -> DeviceResult<InsertOutcome> {
        self.count_insert(&staged);
        let mut outcome = InsertOutcome {
            cached: true,
            ..Default::default()
        };
        let mut done = P::place(self, staged, supplier, &mut outcome, io);
        // A batch that reached the group size forms a group. In deferred
        // mode it is handed back: the caller owns the physical write, and
        // this insert performed no device I/O at all.
        if done.is_ok() && self.pending.len() >= self.config.group_size {
            if let Some(write) = self.form_pending_group() {
                if self.config.defer_group_writes {
                    outcome.pending_group = Some(write);
                } else {
                    done = self.apply_group_inline(&write, io);
                }
            }
        }
        if let Err(e) = done {
            // The page (or the whole group) went to the fallout buffer.
            // Pages already dequeued by this call join it — `Err` carries no
            // outcome, and the caller must still write them to disk.
            self.write_fallout.append(&mut outcome.staged_out);
            return Err(e);
        }
        Ok(outcome)
    }

    fn sync(&mut self, io: &mut IoLog) -> DeviceResult<()> {
        // Apply and seal every owed group, then snapshot the directory, so a
        // clean shutdown restarts with zero replay. A failed write aborts
        // its group (dirty pages to the write fallout) and skips the
        // snapshot.
        for write in self.owed_groups() {
            self.apply_group_inline(&write, io)?;
        }
        self.checkpoint_metadata(io);
        Ok(())
    }

    fn persists_dirty_pages(&self) -> bool {
        true
    }

    fn crash_and_recover(&mut self, durable_lsn: Lsn, io: &mut IoLog) -> CacheRecoveryInfo {
        // RAM-resident state (directory, slot metadata, pending batch, the
        // in-flight groups and their records, the policy's own state) is
        // lost; the flash store contents and the journal — only durable
        // state — survive and the cache is rebuilt from them, reconciled
        // against `durable_lsn`.
        let config = self.config.clone();
        let store = Arc::clone(&self.store);
        let stats = self.stats.snapshot();
        let (mut rebuilt, info) = Self::recover(config, store, &self.journal, durable_lsn, io);
        rebuilt.stats = CacheStatCounters::from(stats);
        *self = rebuilt;
        info
    }

    fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }
}

impl<P: RingPolicy> RingCache for GroupRing<P> {
    fn policy_name(&self) -> &'static str {
        P::name(&self.config)
    }

    fn contains(&self, page: PageId) -> bool {
        self.dir.contains_key(&page)
    }

    fn capacity(&self) -> usize {
        self.config.capacity_pages
    }

    fn len(&self) -> usize {
        self.regions.iter().map(|r| r.size).sum()
    }

    fn fetch_pin(&mut self, page: PageId, retry: bool, io: &mut IoLog) -> Option<FetchPin> {
        let (slot, lsn, dirty) = self.reference(page, retry, io)?;
        // A version whose batch write has not reached the device is served
        // from its shared RAM frame — the store may still hold the slot's
        // previous occupant, so an off-lock device read would be wrong, not
        // merely stale. The frame is immutable and `Arc`-shared: it outlives
        // any eviction or destage completing mid-read.
        let (frame, data_expected) = match self.ram_frame(slot) {
            Some(frame) => {
                let expected = frame.is_some();
                (frame, expected)
            }
            None => (None, true),
        };
        Some(FetchPin {
            slot,
            lsn,
            dirty,
            generation: self.generations.current(slot),
            frame,
            data_expected,
        })
    }

    fn fetch_validate(&self, slot: usize, generation: u64) -> bool {
        self.generations.check(slot, generation)
    }

    fn take_write_fallout(&mut self) -> Vec<StagedPage> {
        std::mem::take(&mut self.write_fallout)
    }

    fn group_write_pending(&self, epoch: u64) -> bool {
        self.inflight.get(&epoch).is_some_and(|g| !g.completed)
    }

    fn complete_group(&mut self, epoch: u64, io: &mut IoLog) {
        let Some(group) = self.inflight.get_mut(&epoch) else {
            // Unknown epoch: another copy of the group was applied and
            // sealed first, or a crash dropped it. Idempotent by design.
            return;
        };
        group.completed = true;
        self.seal_completed_prefix(io);
    }

    fn owed_groups(&mut self) -> Vec<PendingGroupWrite> {
        self.form_pending_group();
        self.inflight
            .values()
            .filter(|g| !g.completed)
            .map(|g| g.write.clone())
            .collect()
    }

    fn checkpoint_metadata(&mut self, io: &mut IoLog) {
        // A cadence checkpoint at the last seal (or a previous call) may
        // have folded the journal at these pointers already: skip the
        // second, identical snapshot write then.
        let pointers = self.packed_pointers();
        let already_folded = self.journal.replay_entries() == 0
            && self.journal.checkpoint().map(|c| (c.front, c.size)) == Some(pointers);
        if !already_folded {
            self.install_checkpoint(self.durable_directory_snapshot(), io);
            self.stats.metadata_flushes.inc();
        }
    }

    fn abort_group(&mut self, epoch: u64, io: &mut IoLog) -> Vec<StagedPage> {
        let Some(group) = self.inflight.remove(&epoch) else {
            return Vec::new();
        };
        self.release_inflight_frames(&group.write);
        let mut out = Vec::new();
        for w in group.write.pages {
            let occupant_matches = self.slots[w.slot]
                .as_ref()
                .is_some_and(|m| m.epoch == epoch && m.page == w.page);
            if !occupant_matches {
                // Already dequeued, or the slot was reused by a later
                // version — nothing of this group remains there.
                continue;
            }
            let meta = self.vacate(w.slot).expect("occupant just observed");
            if meta.valid && meta.dirty {
                Self::serve_through(&self.stats, meta.disk_bound(w.data), &mut out, io);
            }
        }
        // The group's journal records drop with `group`: they never seal,
        // so data and metadata are lost together — the crash contract.
        // Younger groups that completed meanwhile no longer wait for it.
        self.seal_completed_prefix(io);
        out
    }

    fn quarantine_slot(&mut self, slot: usize, io: &mut IoLog) -> QuarantineOutcome {
        let mut out = QuarantineOutcome::default();
        if slot >= self.config.capacity_pages || !self.quarantined.insert(slot) {
            return out;
        }
        out.quarantined = true;
        // Pull the slot out of the not-yet-written pending batch: its record
        // is never derived, so data and metadata leave together.
        let pending = self.take_pending(slot).flatten();
        let inflight = self.inflight_data.get(&slot).map(|(_, f)| Arc::clone(f));
        let Some(meta) = self.vacate(slot).filter(|m| m.valid) else {
            return out;
        };
        if !meta.dirty {
            // Clean resident: simply dropped, re-fetched from disk on the
            // next miss.
            return out;
        }
        // Dirty resident: its bytes must reach the disk. RAM copies first;
        // the device only as a last resort — the slot is being quarantined
        // because it fails, so an unreadable dirty resident is counted and
        // recovered through WAL redo instead.
        let data = match pending.or(inflight) {
            Some(frame) => Some(frame),
            None if self.store.carries_data() => match self.store.read_slot(slot) {
                Ok(Some(p)) => Some(Arc::new(p)),
                Ok(None) | Err(_) => {
                    // Bytes lost: hand back a data-less evacuee so the
                    // caller can block stale disk serves of this page until
                    // WAL redo rebuilds it.
                    out.dirty_unread = true;
                    out.evacuee = Some(meta.disk_bound(None));
                    return out;
                }
            },
            None => None,
        };
        io.disk_write(meta.page);
        out.evacuee = Some(meta.disk_bound(data));
        out
    }

    fn evacuate_dirty(&mut self, io: &mut IoLog) -> Evacuation {
        // Dirty flash pages are the only persistent copy of their contents
        // (write-back, checkpoint-to-flash): before the cache device can be
        // wiped they must reach the disk. Clean and invalidated versions
        // need nothing. The dirty flags are deliberately *left set*: the
        // caller's disk writes may still fail, and clearing early would let
        // a retry (or a later eviction) drop the only persistent copy. A
        // successful evacuation is followed by a cache wipe, which retires
        // the flags anyway; a repeated call is idempotent, merely re-listing
        // the same pages.
        //
        // Best-effort under a failing device: residents whose bytes the
        // device refuses to return are counted in `unread_dirty` and left to
        // WAL redo.
        let mut ev = Evacuation::default();
        let mut read = 0u32;
        for slot in self.window_slots() {
            let Some(meta) = self.slots[slot].as_ref().filter(|m| m.valid && m.dirty) else {
                continue;
            };
            // A version whose group write is still owed lives in RAM only:
            // its slot may hold a previous occupant.
            let data = match self.ram_frame(slot) {
                Some(frame) => frame,
                None if self.store.carries_data() => match self.store.read_slot(slot) {
                    Ok(Some(p)) => Some(Arc::new(p)),
                    Ok(None) | Err(_) => {
                        // Bytes lost with the failing slot: emit a data-less
                        // marker so the caller can refuse stale disk serves
                        // of this page until WAL redo rebuilds it. The
                        // failed read is not charged.
                        ev.unread_dirty += 1;
                        ev.pages.push(meta.disk_bound(None));
                        continue;
                    }
                },
                None => None,
            };
            read += 1;
            io.disk_write(meta.page);
            ev.pages.push(meta.disk_bound(data));
        }
        if read > 0 {
            io.flash_read_seq(read);
        }
        ev
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use face_pagestore::{DeviceHooks, FaultMode, FaultPlan};

    use super::*;
    use crate::mvfifo::MvFifo;
    use crate::policy::NoSupplier;
    use crate::s3fifo::S3Fifo;
    use crate::store::{InstrumentedFlashStore, MemFlashStore, NullFlashStore};

    /// Run a policy-generic test body against every ring policy.
    macro_rules! for_each_policy {
        ($check:ident($($arg:expr),*)) => {{
            $check::<MvFifo>($($arg.clone()),*);
            $check::<S3Fifo>($($arg.clone()),*);
        }};
    }

    fn pid(n: u32) -> PageId {
        PageId::new(0, n)
    }

    fn meta_cfg(capacity: usize, group: usize, sc: bool) -> CacheConfig {
        CacheConfig {
            capacity_pages: capacity,
            group_size: group,
            second_chance: sc,
            meta_checkpoint_interval_groups: 1_000_000, // keep checkpoints out of the way
            ..CacheConfig::default()
        }
    }

    /// A data-carrying page whose newest version is `lsn`.
    fn staged(n: u32, lsn: u64, dirty: bool) -> StagedPage {
        let mut page = Page::new(pid(n));
        page.set_lsn(Lsn(lsn));
        page.update_checksum();
        StagedPage::with_data(page, dirty, true)
    }

    /// A `P` cache over a fresh data-carrying store.
    fn mem_cache<P: RingPolicy>(cfg: CacheConfig) -> (GroupRing<P>, Arc<MemFlashStore>) {
        let store = Arc::new(MemFlashStore::new(cfg.capacity_pages));
        (GroupRing::new(cfg, Arc::clone(&store) as _), store)
    }

    /// A `P` cache in which dirty first touches see one FIFO of
    /// `cfg.capacity_pages` slots, so capacity-exact scenarios read the same
    /// for every policy: mvFIFO as configured; S3-FIFO gets one extra slot
    /// for its main queue and gives the small queue everything else.
    fn fifo_of<P: RingPolicy>(cfg: CacheConfig) -> (GroupRing<P>, Arc<MemFlashStore>) {
        mem_cache(fifo_cfg::<P>(cfg))
    }

    fn fifo_cfg<P: RingPolicy>(cfg: CacheConfig) -> CacheConfig {
        let extra = P::region_capacities(&cfg).len() - 1;
        CacheConfig {
            capacity_pages: cfg.capacity_pages + extra,
            s3_small_fraction: 1.0,
            ..cfg
        }
    }

    /// The structural invariants of a ring: bounded regions, a directory
    /// that only points at valid in-window slots holding the right page, and
    /// at most one valid version per page.
    pub(crate) fn check_structure<P: RingPolicy>(cache: &GroupRing<P>) {
        assert!(cache.len() <= cache.capacity());
        for r in &cache.regions {
            assert!(r.size <= r.cap, "region within its cap");
        }
        for (p, s) in cache.dir.iter() {
            let m = cache.slots[*s]
                .as_ref()
                .expect("directory points at a slot");
            assert!(m.valid, "directory must reference valid versions only");
            assert_eq!(m.page, *p);
            assert!(
                cache.regions.iter().any(|r| r.in_window(*s)),
                "slot {s} outside every queue window"
            );
        }
        let mut valid_pages = HashSet::new();
        for m in cache.slots.iter().flatten() {
            if m.valid {
                assert!(valid_pages.insert(m.page), "duplicate valid version");
            }
        }
    }

    #[test]
    fn pointers_of_a_single_region_pack_as_themselves() {
        assert_eq!(pack_pointers(7, 0), 7);
        assert_eq!(unpack_pointers(7), (7, 0));
    }

    #[test]
    fn capacity_invariant_under_random_workload() {
        fn case<P: RingPolicy>() {
            let mut c: GroupRing<P> =
                GroupRing::new(meta_cfg(32, 8, true), Arc::new(NullFlashStore::new(32)));
            let mut io = IoLog::new();
            let mut rng: u64 = 0x12345;
            for i in 0..2000u32 {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                let page = (rng >> 16) as u32 % 200;
                if rng.is_multiple_of(3) {
                    c.fetch(pid(page), &mut io).unwrap();
                } else {
                    let s = StagedPage::meta_only(
                        pid(page),
                        Lsn(page as u64),
                        rng.is_multiple_of(2),
                        true,
                    );
                    c.insert(s, &mut NoSupplier, &mut io).unwrap();
                }
                assert!(c.len() <= c.capacity(), "overflow at step {i}");
                check_structure(&c);
            }
            // Writes to flash are never random on a ring.
            assert_eq!(io.flash_pages_written_random(), 0);
            assert!(c.stats().hits > 0);
            assert!(c.stats().staged_out > 0);
        }
        case::<MvFifo>();
        case::<S3Fifo>();
    }

    #[test]
    fn a_seal_records_only_the_slots_its_batch_wrote() {
        // S3-FIFO's small region gets 2 of the 20 slots, so a group of 4
        // never fills there: every second dirty first touch dequeues both
        // pending slots before their bytes were ever written.
        let (mut c, store) = mem_cache::<S3Fifo>(meta_cfg(20, 4, false));
        let mut io = IoLog::new();
        for n in 0..12u32 {
            c.insert(staged(n, n as u64 + 1, true), &mut NoSupplier, &mut io)
                .unwrap();
        }
        assert_eq!(c.region_sizes(), (2, 0));
        assert_eq!(c.stats().staged_out_to_disk, 10, "ten pending victims");
        assert_eq!(store.occupied(), 0, "no batch reached the device yet");

        for write in c.owed_groups() {
            c.apply_group_inline(&write, &mut io).unwrap();
        }
        assert_eq!(store.occupied(), 2, "the one batch wrote two slots");
        assert_eq!(c.journal().sealed_groups(), 1);
        let sealed = c.journal().recover(&mut IoLog::new()).entries;
        let pages: Vec<u32> = sealed.iter().map(|e| e.page.page_no).collect();
        assert_eq!(
            pages,
            [10, 11],
            "one record per written slot, not per insert"
        );
        for e in &sealed {
            let written = store.read_slot(e.slot as usize).unwrap();
            assert_eq!(written.map(|p| p.id()), Some(e.page), "slot {}", e.slot);
        }
    }

    mod properties {
        use proptest::prelude::*;

        use super::*;

        /// An arbitrary interleaving of inserts and fetches against any
        /// cache geometry preserves the structural invariants of the ring
        /// and never causes a random flash write.
        fn check<P: RingPolicy>(
            ops: Vec<(u8, u32, bool)>,
            capacity: usize,
            group: usize,
            sc: bool,
        ) {
            let (mut cache, _) = mem_cache::<P>(meta_cfg(capacity, group, sc));
            let mut io = IoLog::new();
            for (i, (op, page, dirty)) in ops.into_iter().enumerate() {
                if op % 3 == 0 {
                    cache.fetch(pid(page % 64), &mut io).unwrap();
                } else {
                    cache
                        .insert(
                            staged(page % 64, i as u64 + 1, dirty),
                            &mut NoSupplier,
                            &mut io,
                        )
                        .unwrap();
                }
                check_structure(&cache);
            }
            assert_eq!(io.flash_pages_written_random(), 0);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn invariants_hold_for_base_face(ops in prop::collection::vec((any::<u8>(), any::<u32>(), any::<bool>()), 1..200)) {
                for_each_policy!(check(ops, 16, 1, false));
            }

            #[test]
            fn invariants_hold_for_gr_and_gsc(
                ops in prop::collection::vec((any::<u8>(), any::<u32>(), any::<bool>()), 1..200),
                group in 2usize..8,
                sc in any::<bool>(),
            ) {
                for_each_policy!(check(ops, 24, group, sc));
            }
        }

        /// Crash-point recovery property: run a recorded operation history
        /// against a data-carrying cache, crash after `crash_at` operations,
        /// recover with an arbitrary durable LSN, and check that the
        /// post-recovery directory is a prefix-consistent subset of what the
        /// history enqueued:
        ///
        /// * every recovered mapping `page -> (lsn, dirty-or-cleaner)` is a
        ///   version the pre-crash history actually enqueued;
        /// * no recovered version is newer than the pre-crash latest version
        ///   of its page;
        /// * no recovered version has an LSN beyond the durable log end.
        #[allow(clippy::too_many_arguments)]
        fn check_crash_recovery<P: RingPolicy>(
            ops: Vec<(u8, u32, bool)>,
            crash_at: usize,
            durable_pick: u8,
            capacity: usize,
            group: usize,
            sc: bool,
            defer: bool,
        ) {
            let (mut cache, store) = mem_cache::<P>(CacheConfig {
                defer_group_writes: defer,
                meta_checkpoint_interval_groups: 4,
                ..meta_cfg(capacity, group, sc)
            });
            let mut io = IoLog::new();
            // Every version ever enqueued, and the latest version per page.
            let mut enqueued: HashSet<(PageId, Lsn)> = HashSet::new();
            let mut latest: IdHashMap<PageId, Lsn> = IdHashMap::default();
            let crash_at = crash_at % (ops.len() + 1);
            let mut max_lsn = 0u64;
            for (i, (op, page, dirty)) in ops.iter().take(crash_at).enumerate() {
                let lsn = Lsn(i as u64 + 1);
                let page_id = pid(page % 48);
                match op % 4 {
                    0 => {
                        cache.fetch(page_id, &mut io).unwrap();
                    }
                    1 => cache.sync(&mut io).unwrap(),
                    _ => {
                        let out = cache
                            .insert(staged(page % 48, lsn.0, *dirty), &mut NoSupplier, &mut io)
                            .unwrap();
                        // Deferred pipeline: the op byte decides how far the
                        // destage of a returned group got before the crash —
                        // never started (dropped), write applied but seal
                        // lost, or fully completed. These are exactly the
                        // in-pipeline crash points.
                        if let Some(write) = out.pending_group {
                            match op % 3 {
                                0 => {} // enqueued, never written
                                1 => write.apply(&*store, &mut io).unwrap(),
                                _ => {
                                    write.apply(&*store, &mut io).unwrap();
                                    cache.complete_group(write.epoch, &mut io);
                                }
                            }
                        }
                        // An admission filter may have turned the page away.
                        if out.cached {
                            enqueued.insert((page_id, lsn));
                            latest.insert(page_id, lsn);
                        }
                        max_lsn = lsn.0;
                    }
                }
            }
            let durable = Lsn((durable_pick as u64) % (max_lsn + 2));
            let info = cache.crash_and_recover(durable, &mut io);
            assert!(info.survived);
            for (page, lsn, _dirty) in cache.valid_versions() {
                assert!(
                    lsn <= durable,
                    "{page}: recovered lsn {lsn:?} beyond durable {durable:?}"
                );
                assert!(
                    enqueued.contains(&(page, lsn)),
                    "{page}: recovered version {lsn:?} was never enqueued"
                );
                let newest = latest.get(&page).copied().expect("page was enqueued");
                assert!(
                    lsn <= newest,
                    "{page}: recovered {lsn:?} newer than pre-crash latest {newest:?}"
                );
            }
            // The recovered cache still honours its structural invariants.
            check_structure(&cache);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn any_crash_point_recovers_a_prefix_consistent_subset(
                ops in prop::collection::vec((any::<u8>(), any::<u32>(), any::<bool>()), 1..250),
                crash_at in any::<u16>(),
                durable in any::<u8>(),
                group in 1usize..8,
                sc in any::<bool>(),
            ) {
                for_each_policy!(check_crash_recovery(ops, crash_at as usize, durable, 32, group, sc, false));
            }

            /// Same property with the asynchronous destage pipeline in every
            /// intermediate state: groups enqueued but unwritten, written
            /// but unsealed, and completed, interleaved arbitrarily.
            #[test]
            fn any_destage_crash_point_recovers_a_prefix_consistent_subset(
                ops in prop::collection::vec((any::<u8>(), any::<u32>(), any::<bool>()), 1..250),
                crash_at in any::<u16>(),
                durable in any::<u8>(),
                group in 1usize..8,
                sc in any::<bool>(),
            ) {
                for_each_policy!(check_crash_recovery(ops, crash_at as usize, durable, 32, group, sc, true));
            }
        }
    }

    mod deferred {
        use super::*;

        fn defer_cfg(capacity: usize, group: usize) -> CacheConfig {
            CacheConfig {
                defer_group_writes: true,
                ..meta_cfg(capacity, group, false)
            }
        }

        fn data_staged(n: u32, lsn: u64) -> StagedPage {
            let mut p = Page::new(pid(n));
            p.set_lsn(Lsn(lsn));
            p.write_body(0, &n.to_le_bytes());
            StagedPage::with_data(p, true, true)
        }

        #[test]
        fn filled_group_is_returned_not_written() {
            fn case<P: RingPolicy>() {
                let (mut c, store) = fifo_of::<P>(defer_cfg(16, 4));
                let mut io = IoLog::new();
                let mut pending = None;
                for n in 0..4u32 {
                    let out = c
                        .insert(data_staged(n, n as u64 + 1), &mut NoSupplier, &mut io)
                        .unwrap();
                    if out.pending_group.is_some() {
                        pending = out.pending_group;
                    }
                }
                // The foreground performed no device I/O at all: the insert only
                // mutated the directory and handed the batch back.
                assert!(io.is_empty(), "deferred insert must charge no I/O");
                assert_eq!(store.occupied(), 0, "no bytes reached the store");
                let write = pending.expect("fourth insert fills the group");
                assert_eq!(write.pages.len(), 4);
                assert!(c.group_write_pending(write.epoch));
                assert_eq!(c.journal().sealed_groups(), 0, "not yet durable");

                // Fetches of in-flight versions are served from the shared RAM
                // frames — the foreground never waits for the batch write.
                let hit = c
                    .fetch(pid(2), &mut io)
                    .unwrap()
                    .expect("in-flight page served");
                assert_eq!(hit.data.unwrap().read_body(0, 4), &2u32.to_le_bytes());

                // The caller applies the batch off-lock, then seals it.
                let mut apply_io = IoLog::new();
                write.apply(&*store, &mut apply_io).unwrap();
                assert_eq!(apply_io.flash_pages_written(), 4);
                assert_eq!(store.occupied(), 4);
                c.complete_group(write.epoch, &mut apply_io);
                assert_eq!(c.journal().sealed_groups(), 1);
                // Completion is idempotent.
                c.complete_group(write.epoch, &mut apply_io);
                assert_eq!(c.journal().sealed_groups(), 1);
            }
            case::<MvFifo>();
            case::<S3Fifo>();
        }

        #[test]
        fn completions_seal_in_epoch_order() {
            fn case<P: RingPolicy>() {
                let (mut c, store) = fifo_of::<P>(defer_cfg(32, 2));
                let mut io = IoLog::new();
                let mut groups = Vec::new();
                for n in 0..6u32 {
                    let out = c
                        .insert(data_staged(n, n as u64 + 1), &mut NoSupplier, &mut io)
                        .unwrap();
                    groups.extend(out.pending_group);
                }
                assert_eq!(groups.len(), 3);
                // Complete the *youngest* group first: nothing may seal until the
                // older ones complete, or replay order (and §4.3) would break.
                for g in &groups {
                    g.apply(&*store, &mut io).unwrap();
                }
                c.complete_group(groups[2].epoch, &mut io);
                assert_eq!(c.journal().sealed_groups(), 0);
                c.complete_group(groups[0].epoch, &mut io);
                assert_eq!(c.journal().sealed_groups(), 1);
                c.complete_group(groups[1].epoch, &mut io);
                assert_eq!(c.journal().sealed_groups(), 3);
                let rec = c.journal().recover(&mut IoLog::new());
                let epochs: Vec<u64> = rec.entries.iter().map(|e| e.epoch).collect();
                let mut sorted = epochs.clone();
                sorted.sort_unstable();
                assert_eq!(epochs, sorted, "replay must be epoch-ordered");
            }
            case::<MvFifo>();
            case::<S3Fifo>();
        }

        #[test]
        fn crash_with_group_enqueued_but_unwritten_loses_it_consistently() {
            fn case<P: RingPolicy>() {
                // Crash point 1: the group left the foreground but its batch
                // write never ran. Data and metadata die together — recovery
                // sees neither.
                let (mut c, _) = fifo_of::<P>(defer_cfg(16, 4));
                let mut io = IoLog::new();
                let mut pending = None;
                for n in 0..4u32 {
                    let out = c
                        .insert(data_staged(n, n as u64 + 1), &mut NoSupplier, &mut io)
                        .unwrap();
                    if out.pending_group.is_some() {
                        pending = out.pending_group;
                    }
                }
                assert!(pending.is_some());
                let info = c.crash_and_recover(Lsn(u64::MAX), &mut IoLog::new());
                assert!(info.survived);
                assert_eq!(info.entries_restored, 0, "unwritten group fully lost");
                for n in 0..4u32 {
                    assert!(!c.contains(pid(n)));
                }
            }
            case::<MvFifo>();
            case::<S3Fifo>();
        }

        #[test]
        fn crash_with_write_done_but_seal_pending_readmits_only_reconciled() {
            fn case<P: RingPolicy>() {
                // Crash point 2: the batch hit the device but the journal seal
                // never happened. The journal does not reference the slots; when
                // the durable queue pointers cover them (a cadence checkpoint
                // fired after an older group sealed), the bounded tail scan may
                // re-admit them from page headers — but only under the WAL
                // reconciliation rule.
                let cfg = CacheConfig {
                    meta_checkpoint_interval_groups: 1,
                    ..defer_cfg(16, 2)
                };
                let (mut c, store) = fifo_of::<P>(cfg);
                let mut io = IoLog::new();
                let mut groups = Vec::new();
                for n in 0..4u32 {
                    let out = c
                        .insert(data_staged(n, 10 + n as u64), &mut NoSupplier, &mut io)
                        .unwrap();
                    groups.extend(out.pending_group);
                }
                assert_eq!(groups.len(), 2);
                // Group 1 (pages 0,1) fully destages; its completion installs a
                // cadence checkpoint whose pointers cover all four slots. Group 2
                // (pages 2,3) hits the device but its seal is lost in the crash.
                groups[0].apply(&*store, &mut io).unwrap();
                c.complete_group(groups[0].epoch, &mut io);
                groups[1].apply(&*store, &mut io).unwrap();
                // Durable LSN 12 covers pages 0..=2; the header scan may re-admit
                // page 2 but must discard page 3 (lsn 13).
                let info = c.crash_and_recover(Lsn(12), &mut IoLog::new());
                assert!(info.survived);
                assert!(info.pages_scanned > 0, "tail scan probed the slots");
                for (page, lsn, _) in c.valid_versions() {
                    assert!(lsn <= Lsn(12), "{page} outran the durable log");
                }
                assert!(c.contains(pid(0)) && c.contains(pid(1)), "sealed group");
                assert!(c.contains(pid(2)), "scan re-admitted the covered page");
                assert!(!c.contains(pid(3)), "scan must respect the durable LSN");
            }
            case::<MvFifo>();
            case::<S3Fifo>();
        }

        #[test]
        fn sync_applies_and_seals_outstanding_groups_inline() {
            fn case<P: RingPolicy>() {
                let (mut c, store) = fifo_of::<P>(defer_cfg(16, 4));
                let mut io = IoLog::new();
                for n in 0..5u32 {
                    c.insert(data_staged(n, n as u64 + 1), &mut NoSupplier, &mut io)
                        .unwrap();
                    // The pending group is deliberately "leaked": sync is the
                    // safety net for callers that never drained it.
                }
                c.sync(&mut io).unwrap();
                assert_eq!(store.occupied(), 5, "group + partial batch written");
                assert_eq!(c.journal().replay_entries(), 0, "checkpoint folded all");
                let info = c.crash_and_recover(Lsn(u64::MAX), &mut IoLog::new());
                assert_eq!(info.entries_restored, 5);
            }
            case::<MvFifo>();
            case::<S3Fifo>();
        }

        #[test]
        fn cadence_checkpoint_never_references_unwritten_groups() {
            fn case<P: RingPolicy>() {
                // Group 1 completes while groups 2..N are still in flight; the
                // cadence checkpoint (interval 1) fires at the completion and
                // must exclude the in-flight entries — their bytes are not on
                // flash, and a crash would otherwise serve garbage.
                let cfg = CacheConfig {
                    meta_checkpoint_interval_groups: 1,
                    ..defer_cfg(32, 2)
                };
                let (mut c, store) = fifo_of::<P>(cfg);
                let mut io = IoLog::new();
                let mut groups = Vec::new();
                for n in 0..6u32 {
                    let out = c
                        .insert(data_staged(n, n as u64 + 1), &mut NoSupplier, &mut io)
                        .unwrap();
                    groups.extend(out.pending_group);
                }
                // Apply and seal only the first group; 2 and 3 stay in flight.
                groups[0].apply(&*store, &mut io).unwrap();
                c.complete_group(groups[0].epoch, &mut io);
                let ckpt = c.journal().checkpoint().expect("cadence fired");
                assert_eq!(ckpt.entries.len(), 2, "only the sealed group's pages");
                // Crash: in-flight groups vanish; the checkpoint must not
                // resurrect their entries.
                let info = c.crash_and_recover(Lsn(u64::MAX), &mut IoLog::new());
                assert_eq!(info.entries_restored, 2);
                assert!(c.contains(pid(0)) && c.contains(pid(1)));
                for n in 2..6u32 {
                    assert!(!c.contains(pid(n)), "page {n} resurrected unwritten");
                }
            }
            case::<MvFifo>();
            case::<S3Fifo>();
        }

        #[test]
        fn dequeue_of_inflight_slot_carries_its_ram_frame() {
            fn case<P: RingPolicy>() {
                // A 4-slot cache with group 4: the first group is in flight when
                // the next inserts force a dequeue of its slots. The staged-out
                // dirty pages must carry data from the shared RAM frames (the
                // store has nothing yet).
                let (mut c, _) = fifo_of::<P>(defer_cfg(4, 4));
                let mut io = IoLog::new();
                let mut groups = Vec::new();
                for n in 0..4u32 {
                    let out = c
                        .insert(data_staged(n, n as u64 + 1), &mut NoSupplier, &mut io)
                        .unwrap();
                    groups.extend(out.pending_group);
                }
                assert_eq!(groups.len(), 1);
                // Group 1 not applied yet; the next insert dequeues its slots.
                let out = c
                    .insert(data_staged(100, 100), &mut NoSupplier, &mut io)
                    .unwrap();
                assert_eq!(out.staged_out.len(), 4, "all four were dirty+valid");
                for s in &out.staged_out {
                    let data = s.data.as_ref().expect("RAM frame travels along");
                    assert_eq!(data.id(), s.page);
                }
            }
            case::<MvFifo>();
            case::<S3Fifo>();
        }
    }

    /// The fault paths, where the two policies' accounting used to differ.
    /// Every scenario fills a four-slot FIFO with dirty pages 0..4.
    mod faults {
        use super::*;

        /// A fresh in-memory store behind a view that fails as `plan` says.
        fn faulty_store(capacity: usize, plan: &Arc<FaultPlan>) -> Arc<dyn FlashStore> {
            let hooks = DeviceHooks {
                faults: Some(Arc::clone(plan)),
                ..DeviceHooks::default()
            };
            InstrumentedFlashStore::wrap(Arc::new(MemFlashStore::new(capacity)), hooks)
        }

        /// A `P` cache (see [`fifo_of`]) over `store` with pages 0..4 inserted
        /// dirty, the last insert's result and the I/O so far.
        fn filled_fifo<P: RingPolicy>(
            cfg: CacheConfig,
            store: impl FnOnce(usize) -> Arc<dyn FlashStore>,
        ) -> (GroupRing<P>, DeviceResult<InsertOutcome>, IoLog) {
            let cfg = fifo_cfg::<P>(cfg);
            let store = store(cfg.capacity_pages);
            let mut cache: GroupRing<P> = GroupRing::new(cfg, store);
            let mut io = IoLog::new();
            let mut last = Ok(InsertOutcome::default());
            for n in 0..4u32 {
                last = cache.insert(staged(n, n as u64 + 1, true), &mut NoSupplier, &mut io);
            }
            (cache, last, io)
        }

        /// [`filled_fifo`] over a store that fails as `plan` says.
        fn faulty_fifo<P: RingPolicy>(
            cfg: CacheConfig,
            plan: FaultPlan,
        ) -> (
            GroupRing<P>,
            Arc<FaultPlan>,
            DeviceResult<InsertOutcome>,
            IoLog,
        ) {
            let plan = Arc::new(plan);
            let (cache, last, io) = filled_fifo(cfg, |capacity| faulty_store(capacity, &plan));
            (cache, plan, last, io)
        }

        #[test]
        fn rolled_back_batch_counts_its_dirty_pages_as_staged_out_to_disk() {
            fn case<P: RingPolicy>() {
                // The fourth insert fills the group, and the ring applies it
                // itself: its one batch write persists two slots and fails.
                let plan = FaultPlan::new(1)
                    .writes_only()
                    .fail_nth(1)
                    .mode(FaultMode::TornWrite)
                    .permanent();
                let (mut c, plan, last, io) = faulty_fifo::<P>(meta_cfg(4, 4, false), plan);
                assert!(last.is_err(), "the inline batch write failed");
                assert_eq!(plan.faults_injected(), 1);
                assert_eq!(c.take_write_fallout().len(), 4);
                assert_eq!(c.stats().staged_out_to_disk, 4);
                assert_eq!(io.disk_writes(), 4);
                assert_eq!(io.flash_pages_written(), 0, "a failed batch is not charged");
                assert!((0..4).all(|n| !c.contains(pid(n))));
                assert_eq!(
                    c.journal().sealed_groups(),
                    0,
                    "records dropped with the data"
                );
            }
            case::<MvFifo>();
            case::<S3Fifo>();
        }

        #[test]
        fn aborted_group_counts_its_dirty_pages_as_staged_out_to_disk() {
            fn case<P: RingPolicy>() {
                let cfg = CacheConfig {
                    defer_group_writes: true,
                    ..meta_cfg(4, 4, false)
                };
                let plan = FaultPlan::new(2).writes_only().fail_nth(1).permanent();
                let (mut c, _, last, mut io) = faulty_fifo::<P>(cfg, plan);
                let write = last.unwrap().pending_group.expect("group handed back");
                assert!(write.apply(&*c.store, &mut io).is_err());
                let failover = c.abort_group(write.epoch, &mut io);
                assert_eq!(failover.len(), 4);
                assert!(failover.iter().all(|s| s.dirty && s.data.is_some()));
                assert_eq!(c.stats().staged_out_to_disk, 4);
                assert_eq!(io.disk_writes(), 4);
                assert!(!c.group_write_pending(write.epoch));
                assert_eq!(c.journal().sealed_groups(), 0, "the group never seals");
            }
            case::<MvFifo>();
            case::<S3Fifo>();
        }

        #[test]
        fn insert_displaced_by_a_failed_dequeue_counts_as_staged_out_to_disk() {
            fn case<P: RingPolicy>() {
                let plan = FaultPlan::new(3)
                    .reads_only()
                    .probability(1.0)
                    .armed_on_crash();
                let (mut c, plan, last, mut io) = faulty_fifo::<P>(meta_cfg(4, 1, false), plan);
                last.unwrap();
                let before = c.valid_versions();
                plan.arm();
                // The queue is full; the victim's bytes are on the device and
                // cannot be read, so the dequeue aborts before any mutation.
                assert!(c
                    .insert(staged(9, 9, true), &mut NoSupplier, &mut io)
                    .is_err());
                let fallout = c.take_write_fallout();
                assert_eq!(fallout.len(), 1);
                assert_eq!(fallout[0].page, pid(9));
                assert_eq!(c.stats().staged_out_to_disk, 1);
                assert_eq!(c.valid_versions(), before, "no victim was touched");
            }
            case::<MvFifo>();
            case::<S3Fifo>();
        }

        /// What the batched-dequeue scenarios share: one four-slot group of
        /// dirty pages, written out inline, so the next dirty insert dequeues
        /// four victims whose bytes are on the device only.
        fn full_of_written_dirty_pages<P: RingPolicy>(
            store: impl FnOnce(usize) -> Arc<dyn FlashStore>,
        ) -> GroupRing<P> {
            let (cache, last, _) = filled_fifo::<P>(meta_cfg(4, 4, false), store);
            last.unwrap();
            assert_eq!(cache.pending_len(), 0, "the group went out inline");
            cache
        }

        #[test]
        fn dequeue_reads_its_non_resident_victims_with_one_device_operation() {
            fn case<P: RingPolicy>() {
                // A plan that never fires still counts every admitted op.
                let plan = Arc::new(FaultPlan::new(6));
                let mut c = full_of_written_dirty_pages::<P>(|n| faulty_store(n, &plan));
                let before = plan.ops_observed();
                let mut io = IoLog::new();
                let out = c
                    .insert(staged(9, 9, true), &mut NoSupplier, &mut io)
                    .unwrap();
                assert_eq!(out.staged_out.len(), 4);
                for s in &out.staged_out {
                    assert_eq!(s.data.as_ref().expect("bytes read back").id(), s.page);
                }
                assert_eq!(plan.ops_observed() - before, 1, "four victims, one read");
                let reads: Vec<u32> = io
                    .events()
                    .iter()
                    .filter(|e| !e.is_write())
                    .map(|e| e.pages())
                    .collect();
                assert_eq!(reads, [4], "billed as one batch-sized read, as before");
            }
            case::<MvFifo>();
            case::<S3Fifo>();
        }

        #[test]
        fn whole_device_read_fault_surfaces_as_it_is() {
            fn case<P: RingPolicy>() {
                let plan = FaultPlan::new(7)
                    .reads_only()
                    .probability(1.0)
                    .permanent()
                    .device_scoped()
                    .max_faults(1)
                    .armed_on_crash();
                let plan = Arc::new(plan);
                let mut c = full_of_written_dirty_pages::<P>(|n| faulty_store(n, &plan));
                let before = c.valid_versions();
                plan.arm();
                let ops = plan.ops_observed();
                let err = c
                    .insert(staged(9, 9, true), &mut NoSupplier, &mut IoLog::new())
                    .unwrap_err();
                // No slot to narrow down: nothing is re-read, and a one-shot
                // fault is not retried away before the breaker hears of it.
                assert_eq!(err.slot(), None);
                assert_eq!(plan.ops_observed() - ops, 1);
                assert_eq!(c.valid_versions(), before);
            }
            case::<MvFifo>();
            case::<S3Fifo>();
        }

        #[test]
        fn held_read_gate_parks_a_dequeue_exactly_once() {
            let store = Arc::new(crate::store::GateFlashStore::new(4));
            store.release();
            let mut c = full_of_written_dirty_pages::<MvFifo>(|_| Arc::clone(&store) as _);
            store.hold_reads();
            let calls = store.read_calls();
            std::thread::scope(|s| {
                let dequeue = s.spawn(|| {
                    c.insert(staged(9, 9, true), &mut NoSupplier, &mut IoLog::new())
                        .unwrap()
                });
                while store.read_calls() == calls {
                    std::thread::yield_now();
                }
                store.release_reads();
                assert_eq!(dequeue.join().unwrap().staged_out.len(), 4);
            });
            assert_eq!(store.read_calls() - calls, 1);
        }

        #[test]
        fn read_fault_on_one_victim_names_that_slot_and_mutates_nothing() {
            fn case<P: RingPolicy>() {
                const BAD: usize = 2;
                let mut c = full_of_written_dirty_pages::<P>(|capacity| {
                    Arc::new(crate::store::BadSlotStore {
                        inner: MemFlashStore::new(capacity),
                        bad: BAD,
                    })
                });
                let before = c.valid_versions();
                let mut io = IoLog::new();
                let err = c
                    .insert(staged(9, 9, true), &mut NoSupplier, &mut io)
                    .unwrap_err();
                assert_eq!(err.slot(), Some(BAD), "the slot quarantine must act on");
                assert_eq!(c.valid_versions(), before, "no victim was touched");
                check_structure(&c);
                assert_eq!(c.take_write_fallout().len(), 1, "only the new page");
                // The ladder's next step works on that slot and unblocks the
                // queue: the resident leaves (its bytes are gone), and the
                // retried insert dequeues the three readable victims.
                let out = c.quarantine_slot(BAD, &mut io);
                assert_eq!(
                    out.evacuee.expect("slot was occupied").page,
                    pid(BAD as u32)
                );
                let out = c
                    .insert(staged(9, 10, true), &mut NoSupplier, &mut io)
                    .unwrap();
                assert_eq!(out.staged_out.len(), 3);
                assert!(out.staged_out.iter().all(|s| s.data.is_some()));
            }
            case::<MvFifo>();
            case::<S3Fifo>();
        }

        #[test]
        fn evacuation_charges_only_the_reads_that_succeeded() {
            fn case<P: RingPolicy>() {
                let plan = FaultPlan::new(4)
                    .reads_only()
                    .probability(1.0)
                    .slot_range(0, 2)
                    .armed_on_crash();
                let (mut c, plan, last, _) = faulty_fifo::<P>(meta_cfg(4, 1, false), plan);
                last.unwrap();
                plan.arm();
                let mut io = IoLog::new();
                let ev = c.evacuate_dirty(&mut io);
                assert_eq!(ev.pages.len(), 4);
                assert_eq!(ev.unread_dirty, 2, "slots 0 and 1 refuse reads");
                assert_eq!(ev.pages.iter().filter(|s| s.data.is_none()).count(), 2);
                let read: u32 = io
                    .events()
                    .iter()
                    .filter(|e| !e.is_write())
                    .map(|e| e.pages())
                    .sum();
                assert_eq!(read, 2, "failed reads are not charged");
                assert_eq!(io.disk_writes(), 2);
            }
            case::<MvFifo>();
            case::<S3Fifo>();
        }

        #[test]
        fn failed_promotion_sends_the_remaining_survivors_to_fallout() {
            // Main (18 slots) is full of dirty pages that live on the device;
            // small (2 slots) holds two referenced dirty pages still in the
            // pending batch. The next dirty first touch dequeues small from
            // RAM, then the first promotion fails to make room in main.
            let plan = FaultPlan::new(5)
                .reads_only()
                .probability(1.0)
                .armed_on_crash();
            let plan = Arc::new(plan);
            let store = faulty_store(20, &plan);
            let mut c: GroupRing<S3Fifo> = GroupRing::new(meta_cfg(20, 4, false), store);
            let mut io = IoLog::new();
            for n in 0..18u32 {
                c.insert(staged(n, 1, false), &mut NoSupplier, &mut io)
                    .unwrap();
                c.insert(staged(n, 2, true), &mut NoSupplier, &mut io)
                    .unwrap();
            }
            c.sync(&mut io).unwrap();
            for n in [100u32, 101] {
                c.insert(staged(n, 3, true), &mut NoSupplier, &mut io)
                    .unwrap();
                c.fetch(pid(n), &mut io).unwrap().unwrap();
            }
            assert_eq!(c.region_sizes(), (2, 18));
            plan.arm();
            assert!(c
                .insert(staged(102, 4, true), &mut NoSupplier, &mut io)
                .is_err());
            let mut lost: Vec<u32> = c
                .take_write_fallout()
                .iter()
                .map(|s| s.page.page_no)
                .collect();
            lost.sort_unstable();
            assert_eq!(lost, [100, 101, 102], "no dequeued dirty page may vanish");
        }
    }
}
