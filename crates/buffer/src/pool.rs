//! The data-carrying DRAM buffer pool, sharded for concurrent callers.
//!
//! The pool hashes page ids over `N` independent shards — the same lock
//! striping PostgreSQL applies to its buffer table — so threads touching
//! different pages proceed in parallel. Each shard owns a fixed slice of the
//! frame budget and splits its state two ways:
//!
//! * a **read-optimized mapping** (`RwLock<HashMap<PageId, Arc<FrameCell>>>`)
//!   that lookups share, and
//! * a **structural mutex** guarding the replacement order; misses,
//!   evictions and updates serialize here.
//!
//! With [`BufferPool::lock_light_reads`] enabled, a read **hit** is a shared
//! map lookup, a shared page latch and an atomic reference-bit touch — no
//! exclusive lock anywhere. Replacement switches from strict LRU to a
//! second-chance sweep over those reference bits (a clock approximation of
//! LRU, as in the paper's host system). Without the flag every lookup takes
//! the structural mutex and maintains exact LRU order, which several tests
//! pin down.
//!
//! The structural mutex covers lookups, replacement and the eviction
//! write-back; it is **never held across a lower-tier fetch** and never
//! while waiting for a page latch on the access paths. A miss makes room,
//! maps a placeholder frame whose latch it already holds exclusively,
//! releases the mutex, and only then fetches into the latched page; the
//! caller's closure runs under that same latch hold. Everyone else who wants
//! the page finds the placeholder and queues on its latch — one fetch per
//! page, and other pages of the shard are not delayed by it.
//!
//! Frames live in `Arc`ed cells, so an eviction (or a destage completing
//! mid-read) can never free a frame a reader still holds. Whoever takes a
//! frame out of the pool flips its `evicted` flag under the exclusive page
//! latch — the evictor and the GSC pull after unmapping it, a loader whose
//! fetch failed before unmapping it — and every access revalidates the flag
//! after acquiring its latch, retrying the lookup if it lost the race
//! ([`BufferStats::read_retries`]).
//!
//! Lock order within the pool: structural mutex → mapping lock → page latch.
//! A thread holds at most one shard's structural mutex (the GSC victim pull
//! only ever `try_lock`s others). It calls into the lower tier holding a page
//! latch (fetch: the loading frame's) or the structural mutex and a page
//! latch (write-back: the victim's). The lower tier never calls back into
//! the pool except through that pull, so `shard → tier-internals` stays
//! acyclic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use face_analysis::classes::{BUFFER_MAP, BUFFER_STRUCTURAL, PAGE_LATCH};
use face_analysis::{witness, OrderedMutex, OrderedMutexGuard, OrderedRwLock};
use face_pagestore::{Counter, IdHashMap, Lsn, Page, PageId};

use crate::flags::{AtomicFrameFlags, FrameFlags};
use crate::lru::LruList;
use crate::tier::{FetchSource, LowerTier, TierResult, VictimPull, WriteBackReason};

/// How many LRU-tail frames a shard is probed for when the lower tier pulls
/// extra dirty victims (Group Second Chance batch top-up). Bounds the time
/// spent under an opportunistically `try_lock`ed shard.
const VICTIM_PROBE_DEPTH: usize = 8;

/// Default shard count for pools that do not specify one.
pub const DEFAULT_POOL_SHARDS: usize = 8;

/// Counters describing buffer pool activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Logical page accesses (reads + updates).
    pub accesses: u64,
    /// Accesses satisfied from a DRAM frame.
    pub hits: u64,
    /// Accesses that had to fetch from the lower tier.
    pub misses: u64,
    /// Misses satisfied by the flash cache.
    pub flash_hits: u64,
    /// Misses satisfied by the disk.
    pub disk_fetches: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Evicted frames that were dirty or fdirty (needed write-back).
    pub dirty_evictions: u64,
    /// Pages flushed by checkpoints.
    pub checkpoint_writes: u64,
    /// Accesses that latched a frame only to find it had left the pool
    /// meanwhile (evicted, pulled by GSC, or its load failed) and retried the
    /// lookup. Lookups hold no lock across the latch wait, so every hit
    /// revalidates.
    pub read_retries: u64,
    /// Eviction candidates spared by the second-chance sweep because their
    /// reference bit was set (lock-light mode only).
    pub ref_rescues: u64,
}

impl BufferStats {
    /// DRAM hit ratio over all accesses.
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Share of DRAM misses that were served by the flash cache — the
    /// paper's Table 3(a) metric.
    pub fn flash_hit_ratio(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.flash_hits as f64 / self.misses as f64
        }
    }
}

/// Atomic twin of [`BufferStats`]: bumped from any shard without extra locks.
#[derive(Debug, Default)]
struct AtomicBufferStats {
    accesses: Counter,
    hits: Counter,
    misses: Counter,
    flash_hits: Counter,
    disk_fetches: Counter,
    evictions: Counter,
    dirty_evictions: Counter,
    checkpoint_writes: Counter,
    read_retries: Counter,
    ref_rescues: Counter,
}

impl AtomicBufferStats {
    fn snapshot(&self) -> BufferStats {
        BufferStats {
            accesses: self.accesses.get(),
            hits: self.hits.get(),
            misses: self.misses.get(),
            flash_hits: self.flash_hits.get(),
            disk_fetches: self.disk_fetches.get(),
            evictions: self.evictions.get(),
            dirty_evictions: self.dirty_evictions.get(),
            checkpoint_writes: self.checkpoint_writes.get(),
            read_retries: self.read_retries.get(),
            ref_rescues: self.ref_rescues.get(),
        }
    }

    fn reset(&self) {
        self.accesses.set(0);
        self.hits.set(0);
        self.misses.set(0);
        self.flash_hits.set(0);
        self.disk_fetches.set(0);
        self.evictions.set(0);
        self.dirty_evictions.set(0);
        self.checkpoint_writes.set(0);
        self.read_retries.set(0);
        self.ref_rescues.set(0);
    }
}

/// One resident frame: the page body behind its latch, plus the atomic
/// per-frame state the lock-light read path touches without the shard lock.
struct FrameCell {
    /// The page latch. Readers share it; updaters and the evictor hold it
    /// exclusively (WAL appends happen under it, keeping per-page log order
    /// consistent with apply order).
    page: OrderedRwLock<Page>,
    flags: AtomicFrameFlags,
    /// Reference bit for the second-chance sweep: set by hits, cleared (one
    /// rescue each) by the evictor.
    referenced: AtomicBool,
    /// Flipped by the evictor under the page latch; an optimistic reader
    /// that sees it set lost the race and retries its lookup.
    evicted: AtomicBool,
}

impl FrameCell {
    fn new(page: Page, flags: FrameFlags) -> Self {
        Self {
            page: OrderedRwLock::new(PAGE_LATCH, page),
            flags: AtomicFrameFlags::new(flags),
            referenced: AtomicBool::new(false),
            evicted: AtomicBool::new(false),
        }
    }
}

/// Replacement state of one shard, behind the structural mutex.
struct ShardCore {
    lru: LruList<PageId>,
}

/// One lock-striped slice of the pool.
struct Shard {
    capacity: usize,
    /// The read-optimized mapping; see the module docs for the lock order.
    map: OrderedRwLock<IdHashMap<PageId, Arc<FrameCell>>>,
    core: OrderedMutex<ShardCore>,
}

/// A fixed-capacity, sharded DRAM buffer pool with per-shard replacement
/// over a pluggable [`LowerTier`].
///
/// All operations take `&self`; the pool is `Send + Sync` whenever its lower
/// tier is. The pool owns page data; callers access pages through closures so
/// that a page reference can never outlive its latch.
pub struct BufferPool<L: LowerTier> {
    capacity: usize,
    shards: Vec<Shard>,
    lower: L,
    stats: AtomicBufferStats,
    /// Resident-frame mirror, so [`BufferPool::len`] never sweeps the shard
    /// locks. Maintained at insert/evict; exact at quiesce.
    resident: Counter,
    lock_light: bool,
}

impl<L: LowerTier> BufferPool<L> {
    /// A pool holding at most `capacity` pages over `lower`, striped over
    /// [`DEFAULT_POOL_SHARDS`] shards (fewer if the capacity is smaller).
    pub fn new(capacity: usize, lower: L) -> Self {
        Self::with_shards(capacity, DEFAULT_POOL_SHARDS, lower)
    }

    /// A pool striped over exactly `shards` shards (clamped to `capacity` so
    /// every shard owns at least one frame). `shards == 1` reproduces the
    /// classic single-LRU pool, which some tests rely on for exact eviction
    /// order. Reads take the exclusive structural path; see
    /// [`BufferPool::lock_light_reads`].
    pub fn with_shards(capacity: usize, shards: usize, lower: L) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let shards = shards.clamp(1, capacity);
        let base = capacity / shards;
        let rem = capacity % shards;
        let shards = (0..shards)
            .map(|i| {
                let cap = base + usize::from(i < rem);
                Shard {
                    capacity: cap,
                    map: OrderedRwLock::new(
                        BUFFER_MAP,
                        IdHashMap::with_capacity_and_hasher(cap, Default::default()),
                    ),
                    core: OrderedMutex::new(
                        BUFFER_STRUCTURAL,
                        ShardCore {
                            lru: LruList::with_capacity(cap),
                        },
                    ),
                }
            })
            .collect();
        Self {
            capacity,
            shards,
            lower,
            stats: AtomicBufferStats::default(),
            resident: Counter::default(),
            lock_light: false,
        }
    }

    /// Builder-style switch for the lock-light read path: hits become a
    /// shared map lookup + shared page latch + atomic reference-bit touch,
    /// and replacement becomes a second-chance sweep over those bits. Off
    /// (the default), every access takes the structural mutex and maintains
    /// exact LRU order.
    pub fn lock_light_reads(mut self, on: bool) -> Self {
        self.lock_light = on;
        self
    }

    /// Whether the lock-light read path is enabled.
    pub fn is_lock_light(&self) -> bool {
        self.lock_light
    }

    /// Pool capacity in frames (summed over shards).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of resident pages, from the atomic mirror — no shard lock is
    /// taken (the previous implementation locked every shard per call).
    /// Exact whenever no insert/evict is in flight.
    pub fn len(&self) -> usize {
        self.resident.get() as usize
    }

    /// Whether the pool holds no pages (same contract as [`BufferPool::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident pages per shard, counted under the mapping locks (test and
    /// diagnostic support for checking the [`BufferPool::len`] mirror).
    pub fn resident_by_shard(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.map.read().len()).collect()
    }

    /// Whether `id` is resident. A shared map lookup — never an exclusive
    /// lock.
    pub fn contains(&self, id: PageId) -> bool {
        self.shard(id).map.read().contains_key(&id)
    }

    /// The flags of a resident page.
    pub fn flags(&self, id: PageId) -> Option<FrameFlags> {
        self.shard(id).map.read().get(&id).map(|c| c.flags.load())
    }

    /// Activity counters (a point-in-time snapshot of the atomic tallies).
    pub fn stats(&self) -> BufferStats {
        self.stats.snapshot()
    }

    /// Reset activity counters (e.g. after warm-up).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Shared access to the lower tier.
    pub fn lower(&self) -> &L {
        &self.lower
    }

    fn shard_index(&self, id: PageId) -> usize {
        id.stripe_of(self.shards.len())
    }

    fn shard(&self, id: PageId) -> &Shard {
        &self.shards[self.shard_index(id)]
    }

    /// Read access to a page: fetches it from the lower tier on a miss and
    /// passes a shared reference to `f`.
    ///
    /// `f` runs under the page latch only. In lock-light mode a hit takes no
    /// exclusive lock at all (shared mapping lock, shared latch, reference
    /// bit); otherwise the lookup goes through the shard's structural mutex,
    /// which is released before the latch is taken.
    pub fn read<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> TierResult<R> {
        self.stats.accesses.inc();
        let sidx = self.shard_index(id);
        let shard = &self.shards[sidx];
        // After a lost race the lookup repeats under the structural mutex,
        // which is where a dead frame still in the map gets unlinked.
        let mut optimistic = self.lock_light;
        loop {
            let mapped = optimistic
                .then(|| shard.map.read().get(&id).cloned())
                .flatten();
            let cell = match mapped {
                Some(cell) => cell,
                None => {
                    let mut core = shard.core.lock();
                    match self.lookup(shard, &mut core, id) {
                        Some(cell) => cell,
                        None => return self.load(sidx, core, id, |_, page| f(page)),
                    }
                }
            };
            let page = cell.page.read();
            if cell.evicted.load(Ordering::Acquire) {
                // The frame left the pool between our lookup and our latch.
                self.stats.read_retries.inc();
                optimistic = false;
                continue;
            }
            self.note_hit(&cell);
            return Ok(f(&page));
        }
    }

    /// Update a page: fetches on miss, applies `f`, stamps `lsn` into the
    /// page header if it is newer, and raises the dirty/fdirty flags.
    ///
    /// Write-ahead discipline is the caller's responsibility: append the log
    /// record (obtaining `lsn`) *before* calling `update`, or use
    /// [`BufferPool::update_with`] to append while the page latch is held.
    pub fn update<R>(&self, id: PageId, lsn: Lsn, f: impl FnOnce(&mut Page) -> R) -> TierResult<R> {
        self.update_with(id, |page| {
            let r = f(page);
            if lsn > page.lsn() {
                page.set_lsn(lsn);
            }
            r
        })
    }

    /// Update a page under its page latch, leaving LSN stamping to the
    /// closure. This is the concurrent engine's write path: appending the
    /// WAL record and applying the change inside one critical section keeps
    /// the log order consistent with the page's update order, which redo
    /// correctness requires once multiple threads write.
    ///
    /// The frame is flagged dirty under the latch *before* `f` runs, so a
    /// checkpoint that starts after `f` logged its record finds the flag
    /// (it latches every flagged frame, which waits `f` out).
    pub fn update_with<R>(&self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> TierResult<R> {
        self.stats.accesses.inc();
        let sidx = self.shard_index(id);
        let shard = &self.shards[sidx];
        loop {
            let cell = {
                let mut core = shard.core.lock();
                match self.lookup(shard, &mut core, id) {
                    Some(cell) => cell,
                    None => {
                        return self.load(sidx, core, id, |cell, page| {
                            cell.flags.mark_updated();
                            f(page)
                        })
                    }
                }
            };
            let mut page = cell.page.write();
            if cell.evicted.load(Ordering::Acquire) {
                self.stats.read_retries.inc();
                continue;
            }
            self.note_hit(&cell);
            cell.flags.mark_updated();
            return Ok(f(&mut page));
        }
    }

    /// Allocate a new page on the backing store and install it resident and
    /// dirty (it exists nowhere below the buffer yet).
    pub fn allocate_page(&self, file: u32) -> TierResult<PageId> {
        let id = self.lower.allocate(file)?;
        let sidx = self.shard_index(id);
        let mut core = self.shards[sidx].core.lock();
        self.make_room(sidx, &mut core)?;
        let mut flags = FrameFlags::fetched_from_disk();
        flags.mark_updated();
        self.shards[sidx]
            .map
            .write()
            .insert(id, Arc::new(FrameCell::new(Page::new(id), flags)));
        core.lru.insert_mru(id);
        self.resident.inc();
        Ok(id)
    }

    /// Evict the least-recently-used frame of the *fullest* shard, handing it
    /// to the lower tier. Returns the evicted page id, or `None` if the pool
    /// is empty.
    ///
    /// With one shard this is the exact global LRU victim; with several it is
    /// the LRU victim of the most loaded stripe — the hook Group Second
    /// Chance uses to "pull pages from the LRU tail of the DRAM buffer"
    /// (paper §3.3) only needs *a* cold dirty page, not *the* coldest.
    pub fn evict_lru_frame(&self) -> TierResult<Option<PageId>> {
        let fullest = self
            .shards
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.map.read().len())
            .map(|(i, _)| i)
            .expect("at least one shard");
        let mut core = self.shards[fullest].core.lock();
        self.evict_from(fullest, &mut core)
    }

    /// Opportunistically remove one cold dirty frame whose id passes `wants`
    /// and whose pageLSN is below `lsn_below` (see [`VictimPull::pull`]) from
    /// a shard other than `exclude`, probing each shard's LRU tail at most
    /// [`VICTIM_PROBE_DEPTH`] deep. Only `try_lock` is used on the
    /// structural mutex, so this can run while the caller holds other locks
    /// (it never blocks on a buffer shard); shards currently contended are
    /// simply skipped. Returns the frame's page and flags; the frame leaves
    /// the pool.
    fn pull_dirty_victim(
        &self,
        exclude: usize,
        wants: &dyn Fn(PageId) -> bool,
        lsn_below: Option<Lsn>,
    ) -> Option<(Page, bool, bool)> {
        // The lower tier invokes this pull while holding its own (higher-
        // ranked) locks, so the donor shard's map/latch acquisitions below
        // run against the documented order. They are deadlock-free by
        // construction: the donor's structural mutex is only ever
        // `try_lock`ed, and holding it excludes every exclusive path on that
        // shard, so nothing the donor side holds can be waiting on us.
        let _region =
            witness::nested_region("buffer: GSC donor-shard probe under the cache shard lock");
        for (i, shard) in self.shards.iter().enumerate() {
            if i == exclude {
                continue;
            }
            let Some(mut core) = shard.core.try_lock() else {
                continue;
            };
            let candidate = {
                let map = shard.map.read();
                core.lru
                    .iter_lru_to_mru()
                    .take(VICTIM_PROBE_DEPTH)
                    .copied()
                    .find(|id| {
                        // The id test first: most tail frames route to
                        // another cache shard and are turned away here, before
                        // any lookup. `try_read`: a frame that is loading or
                        // being updated is not cold, and waiting for it here
                        // would be waiting under the caller's cache shard lock.
                        wants(*id)
                            && map.get(id).is_some_and(|c| {
                                c.flags.load().dirty
                                    && c.page
                                        .try_read()
                                        .is_some_and(|p| lsn_below.is_none_or(|b| p.lsn() < b))
                            })
                    })
            };
            if let Some(id) = candidate {
                let cell = shard
                    .map
                    .write()
                    .remove(&id)
                    .expect("candidate is resident");
                core.lru.remove(&id);
                let page = cell.page.write();
                cell.evicted.store(true, Ordering::Release);
                self.resident.sub(1);
                let flags = cell.flags.load();
                self.stats.evictions.inc();
                self.stats.dirty_evictions.inc();
                return Some((page.clone(), flags.dirty, flags.fdirty));
            }
        }
        None
    }

    /// Checkpoint support: hand every dirty page to the lower tier (which
    /// will direct it to the flash cache under FaCE, or to disk otherwise)
    /// and update the resident flags according to where the copy landed.
    /// Returns the number of pages written.
    ///
    /// Shards are flushed one at a time (their structural mutex held, so no
    /// frame evicts or loads mid-flush; hits on other frames keep flowing);
    /// updates racing ahead of the checkpoint simply leave their pages dirty
    /// for the next one (a fuzzy checkpoint, as in the paper's host system).
    /// An update that logged its record before the checkpoint began has
    /// flagged its frame already ([`BufferPool::update_with`]), so it is
    /// collected here and the latch below waits for it to finish.
    pub fn flush_all_dirty(&self) -> TierResult<usize> {
        let mut written = 0;
        for shard in &self.shards {
            let _core = shard.core.lock();
            let dirty: Vec<Arc<FrameCell>> = shard
                .map
                .read()
                .values()
                .filter(|c| c.flags.load().needs_writeback())
                .map(Arc::clone)
                .collect();
            for cell in dirty {
                // The shared latch keeps the body stable and holds updaters
                // off (they flag the frame under the exclusive latch), so the
                // flag transition below cannot swallow a mark_updated.
                let page = cell.page.read();
                let flags = cell.flags.load();
                let outcome = self.lower.write_back(
                    &page,
                    flags.dirty,
                    flags.fdirty,
                    WriteBackReason::Checkpoint,
                )?;
                if outcome.on_disk {
                    cell.flags.written_to_disk();
                }
                if outcome.in_flash {
                    cell.flags.staged_to_flash();
                }
                written += 1;
                self.stats.checkpoint_writes.inc();
            }
        }
        self.lower.sync()?;
        Ok(written)
    }

    /// Drop every frame without writing anything back. This models a crash:
    /// the DRAM buffer's contents are lost. Callers must have quiesced
    /// concurrent operations (a real crash does so by definition).
    pub fn crash(&self) {
        for shard in &self.shards {
            let mut core = shard.core.lock();
            let mut map = shard.map.write();
            for cell in map.values() {
                cell.evicted.store(true, Ordering::Release);
            }
            map.clear();
            core.lru.clear();
        }
        self.resident.set(0);
    }

    /// The resident pages from least- to most-recently used within each
    /// shard, concatenated in shard order (for inspection and tests; exact
    /// global order only with one shard and the exclusive read path).
    pub fn resident_lru_order(&self) -> Vec<PageId> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.core
                    .lock()
                    .lru
                    .iter_lru_to_mru()
                    .copied()
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// The frame mapped for `id`, looked up under the shard's structural
    /// mutex (exact-LRU mode records the touch here). The caller releases
    /// the mutex, latches the frame and checks `evicted` before using it: the
    /// frame may be evicted, or still loading and then fail, in between.
    fn lookup(&self, shard: &Shard, core: &mut ShardCore, id: PageId) -> Option<Arc<FrameCell>> {
        let cell = shard.map.read().get(&id).cloned()?;
        if cell.evicted.load(Ordering::Acquire) {
            // Evictions unmap a frame before they mark it, so a marked frame
            // still mapped is a failed load its loader has not unlinked yet.
            self.unlink(shard, core, id, &cell);
            return None;
        }
        if !self.lock_light {
            core.lru.touch(&id);
        }
        Some(cell)
    }

    /// Count a hit on a latched, validated frame.
    fn note_hit(&self, cell: &FrameCell) {
        self.stats.hits.inc();
        if self.lock_light {
            cell.referenced.store(true, Ordering::Relaxed);
        }
    }

    /// The miss path. Under the structural mutex: make room, then map a
    /// placeholder frame with its latch already held exclusively, so nobody
    /// can see the frame's bytes before they are loaded. The mutex is then
    /// released; the lower-tier fetch — device time — runs under the page
    /// latch alone, and `run` (the caller's closure) runs under that same
    /// latch hold. Accesses to this page queue on the latch meanwhile, other
    /// pages of the shard proceed.
    ///
    /// If the fetch fails the frame is marked `evicted` before the latch is
    /// released, which sends every queued access back to the lookup, and then
    /// unlinked.
    fn load<R>(
        &self,
        sidx: usize,
        mut core: OrderedMutexGuard<'_, ShardCore>,
        id: PageId,
        run: impl FnOnce(&FrameCell, &mut Page) -> R,
    ) -> TierResult<R> {
        let shard = &self.shards[sidx];
        self.stats.misses.inc();
        self.make_room(sidx, &mut core)?;
        let cell = Arc::new(FrameCell::new(Page::zeroed(), FrameFlags::default()));
        let mut page = {
            let mut map = shard.map.write();
            map.insert(id, Arc::clone(&cell));
            cell.page.write()
        };
        core.lru.insert_mru(id);
        self.resident.inc();
        drop(core);
        let outcome = match self.lower.fetch(id, &mut page) {
            Ok(outcome) => outcome,
            Err(e) => {
                cell.evicted.store(true, Ordering::Release);
                drop(page);
                self.unlink(shard, &mut shard.core.lock(), id, &cell);
                return Err(e);
            }
        };
        cell.flags.store(match outcome.source {
            FetchSource::FlashCache => {
                self.stats.flash_hits.inc();
                FrameFlags::fetched_from_flash(outcome.dirty)
            }
            FetchSource::Disk => {
                self.stats.disk_fetches.inc();
                FrameFlags::fetched_from_disk()
            }
        });
        // A page fetched from storage may be unformatted (never written);
        // give it a proper header so later updates are well-formed.
        if !page.is_formatted() {
            page.set_id(id);
        }
        Ok(run(&cell, &mut page))
    }

    /// Take `cell` out of the map, the LRU list and the resident count — if
    /// it is still the frame mapped for `id`. An evictor may have unmapped it
    /// already, and a later miss may have mapped a new frame under the same
    /// id; neither may be disturbed.
    fn unlink(&self, shard: &Shard, core: &mut ShardCore, id: PageId, cell: &Arc<FrameCell>) {
        let mut map = shard.map.write();
        if map.get(&id).is_some_and(|mapped| Arc::ptr_eq(mapped, cell)) {
            map.remove(&id);
            core.lru.remove(&id);
            self.resident.sub(1);
        }
    }

    fn make_room(&self, sidx: usize, core: &mut ShardCore) -> TierResult<()> {
        while self.shards[sidx].map.read().len() >= self.shards[sidx].capacity {
            self.evict_from(sidx, core)?;
        }
        Ok(())
    }

    fn evict_from(&self, sidx: usize, core: &mut ShardCore) -> TierResult<Option<PageId>> {
        let shard = &self.shards[sidx];
        // Pick the victim. In lock-light mode the LRU tail is only an
        // admission order, so sweep it with second chances for frames whose
        // reference bit readers set; bound the sweep to one full rotation so
        // hammered shards still make progress.
        let mut sweep = core.lru.len();
        let victim = loop {
            let Some(candidate) = core.lru.pop_lru() else {
                return Ok(None);
            };
            if self.lock_light && sweep > 0 {
                let referenced = shard
                    .map
                    .read()
                    .get(&candidate)
                    .is_some_and(|c| c.referenced.swap(false, Ordering::Relaxed));
                if referenced {
                    core.lru.insert_mru(candidate);
                    self.stats.ref_rescues.inc();
                    sweep -= 1;
                    continue;
                }
            }
            break candidate;
        };
        let cell = shard
            .map
            .write()
            .remove(&victim)
            .expect("lru and map in sync");
        // The exclusive latch waits out in-flight accesses — a frame still
        // loading included, so what is written back below is what its fetch
        // brought in. `evicted` then turns away everyone who already holds
        // the cell.
        let page = cell.page.write();
        self.resident.sub(1);
        if cell.evicted.swap(true, Ordering::AcqRel) {
            // Its load failed while we waited: there is nothing to write.
            return Ok(Some(victim));
        }
        let flags = cell.flags.load();
        self.stats.evictions.inc();
        if flags.needs_writeback() {
            self.stats.dirty_evictions.inc();
        }
        // Offer the tier a pull source over the *other* shards so a batching
        // cache (GSC) can top its write group up with more cold dirty pages.
        // The source excludes this shard (its structural mutex is held) and
        // only try_locks the rest, so the lock graph stays acyclic.
        let mut victims = PoolVictims {
            pool: self,
            exclude: sidx,
        };
        self.lower.write_back_with(
            &page,
            flags.dirty,
            flags.fdirty,
            WriteBackReason::Eviction,
            &mut victims,
        )?;
        Ok(Some(victim))
    }
}

/// The pool's [`VictimPull`] implementation handed to the lower tier during
/// evictions (see [`BufferPool::evict_from`]).
struct PoolVictims<'a, L: LowerTier> {
    pool: &'a BufferPool<L>,
    exclude: usize,
}

impl<L: LowerTier> VictimPull for PoolVictims<'_, L> {
    fn pull(
        &mut self,
        wants: &dyn Fn(PageId) -> bool,
        lsn_below: Option<Lsn>,
    ) -> Option<(Page, bool, bool)> {
        self.pool.pull_dirty_victim(self.exclude, wants, lsn_below)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::DirectDiskTier;
    use face_pagestore::{InMemoryPageStore, PageStore};
    use std::sync::Arc;

    /// Single-shard pool: exact global LRU, as the original pool had.
    fn pool(capacity: usize) -> (BufferPool<DirectDiskTier>, Arc<InMemoryPageStore>) {
        let store = Arc::new(InMemoryPageStore::new());
        let tier = DirectDiskTier::new(store.clone() as Arc<dyn PageStore>);
        (BufferPool::with_shards(capacity, 1, tier), store)
    }

    fn sharded_pool(
        capacity: usize,
        shards: usize,
    ) -> (BufferPool<DirectDiskTier>, Arc<InMemoryPageStore>) {
        let store = Arc::new(InMemoryPageStore::new());
        let tier = DirectDiskTier::new(store.clone() as Arc<dyn PageStore>);
        (BufferPool::with_shards(capacity, shards, tier), store)
    }

    fn lock_light_pool(
        capacity: usize,
        shards: usize,
    ) -> (BufferPool<DirectDiskTier>, Arc<InMemoryPageStore>) {
        let store = Arc::new(InMemoryPageStore::new());
        let tier = DirectDiskTier::new(store.clone() as Arc<dyn PageStore>);
        (
            BufferPool::with_shards(capacity, shards, tier).lock_light_reads(true),
            store,
        )
    }

    #[test]
    fn allocate_update_read_round_trip() {
        let (pool, _store) = pool(4);
        let id = pool.allocate_page(0).unwrap();
        pool.update(id, Lsn(10), |p| p.write_body(0, b"hello"))
            .unwrap();
        let val = pool.read(id, |p| p.read_body(0, 5).to_vec()).unwrap();
        assert_eq!(val, b"hello");
        let flags = pool.flags(id).unwrap();
        assert!(flags.dirty && flags.fdirty);
        // LSN stamped.
        let lsn = pool.read(id, |p| p.lsn()).unwrap();
        assert_eq!(lsn, Lsn(10));
    }

    #[test]
    fn older_lsn_does_not_regress_page_lsn() {
        let (pool, _) = pool(4);
        let id = pool.allocate_page(0).unwrap();
        pool.update(id, Lsn(10), |_| ()).unwrap();
        pool.update(id, Lsn(5), |_| ()).unwrap();
        assert_eq!(pool.read(id, |p| p.lsn()).unwrap(), Lsn(10));
    }

    #[test]
    fn update_with_leaves_lsn_to_the_closure() {
        let (pool, _) = pool(4);
        let id = pool.allocate_page(0).unwrap();
        pool.update_with(id, |p| {
            p.write_body(0, b"latched");
            p.set_lsn(Lsn(33));
        })
        .unwrap();
        assert_eq!(pool.read(id, |p| p.lsn()).unwrap(), Lsn(33));
        assert!(pool.flags(id).unwrap().dirty);
    }

    #[test]
    fn eviction_writes_dirty_pages_to_lower_tier() {
        let (pool, store) = pool(2);
        let a = pool.allocate_page(0).unwrap();
        let b = pool.allocate_page(0).unwrap();
        pool.update(a, Lsn(1), |p| p.write_body(0, b"a")).unwrap();
        pool.update(b, Lsn(2), |p| p.write_body(0, b"b")).unwrap();
        // Third page forces the eviction of `a` (LRU).
        let c = pool.allocate_page(0).unwrap();
        assert!(!pool.contains(a));
        assert!(pool.contains(b));
        assert!(pool.contains(c));
        // `a` must now be readable from the store with its update.
        let mut out = Page::zeroed();
        store.read_page(a, &mut out).unwrap();
        assert_eq!(out.read_body(0, 1), b"a");
        assert_eq!(pool.stats().evictions, 1);
        assert_eq!(pool.stats().dirty_evictions, 1);
    }

    #[test]
    fn hits_and_misses_counted() {
        let (pool, _) = pool(2);
        let a = pool.allocate_page(0).unwrap();
        let b = pool.allocate_page(0).unwrap();
        let _c = pool.allocate_page(0).unwrap(); // evicts a
        pool.read(b, |_| ()).unwrap(); // hit
        pool.read(a, |_| ()).unwrap(); // miss -> disk fetch
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.disk_fetches, 1);
        assert_eq!(s.flash_hits, 0);
        assert!(s.hit_ratio() > 0.0);
        pool.reset_stats();
        assert_eq!(pool.stats().accesses, 0);
    }

    #[test]
    fn lru_order_follows_access_recency() {
        let (pool, _) = pool(3);
        let a = pool.allocate_page(0).unwrap();
        let b = pool.allocate_page(0).unwrap();
        let c = pool.allocate_page(0).unwrap();
        pool.read(a, |_| ()).unwrap();
        assert_eq!(pool.resident_lru_order(), vec![b, c, a]);
    }

    #[test]
    fn flush_all_dirty_cleans_frames_without_evicting() {
        let (pool, store) = pool(4);
        let a = pool.allocate_page(0).unwrap();
        let b = pool.allocate_page(0).unwrap();
        pool.update(a, Lsn(1), |p| p.write_body(0, b"ck")).unwrap();
        let written = pool.flush_all_dirty().unwrap();
        // Both pages were dirty (freshly allocated counts as dirty).
        assert_eq!(written, 2);
        assert!(pool.contains(a) && pool.contains(b));
        // DirectDiskTier reports on_disk, so frames are now clean.
        assert!(!pool.flags(a).unwrap().dirty);
        assert!(!pool.flags(b).unwrap().dirty);
        let mut out = Page::zeroed();
        store.read_page(a, &mut out).unwrap();
        assert_eq!(out.read_body(0, 2), b"ck");
        // A second checkpoint has nothing to write.
        assert_eq!(pool.flush_all_dirty().unwrap(), 0);
    }

    #[test]
    fn crash_drops_unflushed_updates() {
        let (pool, store) = pool(4);
        let a = pool.allocate_page(0).unwrap();
        pool.update(a, Lsn(1), |p| p.write_body(0, b"lost"))
            .unwrap();
        pool.crash();
        assert!(pool.is_empty());
        // The store never saw the update.
        let mut out = Page::zeroed();
        store.read_page(a, &mut out).unwrap();
        assert!(!out.is_formatted());
    }

    #[test]
    fn explicit_evict_lru_frame() {
        let (pool, _) = pool(4);
        let a = pool.allocate_page(0).unwrap();
        let b = pool.allocate_page(0).unwrap();
        assert_eq!(pool.evict_lru_frame().unwrap(), Some(a));
        assert_eq!(pool.evict_lru_frame().unwrap(), Some(b));
        assert_eq!(pool.evict_lru_frame().unwrap(), None);
    }

    #[test]
    fn capacity_never_exceeded() {
        let (pool, _) = pool(3);
        for _ in 0..20 {
            pool.allocate_page(0).unwrap();
        }
        assert!(pool.len() <= 3);
        assert_eq!(pool.capacity(), 3);
    }

    #[test]
    fn sharded_capacity_never_exceeded() {
        let (pool, _) = sharded_pool(13, 4);
        assert_eq!(pool.shard_count(), 4);
        for _ in 0..100 {
            pool.allocate_page(0).unwrap();
        }
        assert!(pool.len() <= 13, "len {} over capacity", pool.len());
        assert_eq!(pool.capacity(), 13);
    }

    #[test]
    fn shard_count_clamped_to_capacity() {
        let (pool, _) = sharded_pool(3, 64);
        assert_eq!(pool.shard_count(), 3);
        // Per-shard capacities sum to the total.
        for _ in 0..10 {
            pool.allocate_page(0).unwrap();
        }
        assert!(pool.len() <= 3);
    }

    #[test]
    fn resident_mirror_matches_shards_at_quiesce() {
        let (pool, _) = lock_light_pool(64, 8);
        let ids: Vec<PageId> = (0..48).map(|_| pool.allocate_page(0).unwrap()).collect();
        std::thread::scope(|s| {
            for t in 0..8usize {
                let pool = &pool;
                let ids = ids.clone();
                s.spawn(move || {
                    for (i, id) in ids.iter().enumerate() {
                        if i % 8 == t {
                            pool.update(*id, Lsn(1), |_| ()).unwrap();
                        } else {
                            pool.read(*id, |_| ()).unwrap();
                        }
                    }
                });
            }
        });
        // At quiesce, the lock-free mirror equals the per-shard truth.
        let swept: usize = pool.resident_by_shard().iter().sum();
        assert_eq!(pool.len(), swept);
        assert!(pool.len() <= pool.capacity());
    }

    #[test]
    fn lock_light_hits_round_trip_and_count() {
        let (pool, _) = lock_light_pool(8, 2);
        assert!(pool.is_lock_light());
        let id = pool.allocate_page(0).unwrap();
        pool.update(id, Lsn(3), |p| p.write_body(0, b"optimistic"))
            .unwrap();
        for _ in 0..10 {
            let val = pool.read(id, |p| p.read_body(0, 10).to_vec()).unwrap();
            assert_eq!(val, b"optimistic");
        }
        let s = pool.stats();
        assert_eq!(s.hits, 11, "update hit + 10 read hits");
        assert_eq!(s.read_retries, 0, "nothing evicted under us");
    }

    #[test]
    fn second_chance_spares_referenced_frames() {
        // Capacity 2, one shard, lock-light: hits do not reorder the LRU
        // list, but the reference bit must rescue the hot page from
        // eviction (the clock sweep standing in for recency).
        let (pool, _) = lock_light_pool(2, 1);
        let a = pool.allocate_page(0).unwrap();
        let b = pool.allocate_page(0).unwrap();
        pool.read(a, |_| ()).unwrap(); // sets a's reference bit
        let c = pool.allocate_page(0).unwrap();
        assert!(pool.contains(a), "referenced frame was evicted");
        assert!(!pool.contains(b), "unreferenced frame should have gone");
        assert!(pool.contains(c));
        assert!(pool.stats().ref_rescues > 0);
    }

    #[test]
    fn lock_light_concurrent_reads_and_updates_do_not_lose_pages() {
        use std::sync::Arc;
        let store = Arc::new(InMemoryPageStore::new());
        let tier = DirectDiskTier::new(store.clone() as Arc<dyn PageStore>);
        let pool = Arc::new(BufferPool::with_shards(24, 4, tier).lock_light_reads(true));
        // Fewer frames than pages: constant eviction under the readers.
        let ids: Vec<PageId> = (0..32).map(|_| pool.allocate_page(0).unwrap()).collect();
        std::thread::scope(|s| {
            for t in 0..8usize {
                let pool = Arc::clone(&pool);
                let ids = ids.clone();
                s.spawn(move || {
                    for round in 0..50u64 {
                        for (i, id) in ids.iter().enumerate() {
                            if i % 8 == t {
                                // Each thread owns a disjoint slice of pages.
                                pool.update(*id, Lsn(round + 1), |p| {
                                    p.write_body(0, &(t as u64 * 1000 + round).to_le_bytes())
                                })
                                .unwrap();
                            } else {
                                pool.read(*id, |p| p.lsn()).unwrap();
                            }
                        }
                    }
                });
            }
        });
        // Every owned page carries its owner's final round value.
        for (i, id) in ids.iter().enumerate() {
            let t = i % 8;
            let val = pool
                .read(*id, |p| {
                    u64::from_le_bytes(p.read_body(0, 8).try_into().unwrap())
                })
                .unwrap();
            assert_eq!(val, t as u64 * 1000 + 49, "page {i} lost an update");
        }
        let stats = pool.stats();
        assert_eq!(stats.accesses, 8 * 50 * 32 + 32);
        assert_eq!(stats.hits + stats.misses, stats.accesses);
    }

    #[test]
    fn concurrent_reads_and_updates_do_not_lose_pages() {
        use std::sync::Arc;
        let store = Arc::new(InMemoryPageStore::new());
        let tier = DirectDiskTier::new(store.clone() as Arc<dyn PageStore>);
        let pool = Arc::new(BufferPool::with_shards(64, 8, tier));
        // Pre-allocate pages single-threaded (allocation order is global).
        let ids: Vec<PageId> = (0..32).map(|_| pool.allocate_page(0).unwrap()).collect();
        std::thread::scope(|s| {
            for t in 0..8usize {
                let pool = Arc::clone(&pool);
                let ids = ids.clone();
                s.spawn(move || {
                    for round in 0..50u64 {
                        for (i, id) in ids.iter().enumerate() {
                            if i % 8 == t {
                                // Each thread owns a disjoint slice of pages.
                                pool.update(*id, Lsn(round + 1), |p| {
                                    p.write_body(0, &(t as u64 * 1000 + round).to_le_bytes())
                                })
                                .unwrap();
                            } else {
                                pool.read(*id, |p| p.lsn()).unwrap();
                            }
                        }
                    }
                });
            }
        });
        // Every owned page carries its owner's final round value.
        for (i, id) in ids.iter().enumerate() {
            let t = i % 8;
            let val = pool
                .read(*id, |p| {
                    u64::from_le_bytes(p.read_body(0, 8).try_into().unwrap())
                })
                .unwrap();
            assert_eq!(val, t as u64 * 1000 + 49, "page {i} lost an update");
        }
        let stats = pool.stats();
        assert_eq!(stats.accesses, 8 * 50 * 32 + 32);
    }

    #[test]
    fn eviction_offers_dirty_victims_from_other_shards() {
        use crate::tier::{LowerTier, VictimPull, WriteBackOutcome};
        use std::sync::Mutex as StdMutex;

        /// A tier that pulls every dirty victim it is offered, recording them.
        struct PullingTier {
            inner: DirectDiskTier,
            pulled: StdMutex<Vec<PageId>>,
        }
        impl LowerTier for PullingTier {
            fn fetch(&self, id: PageId, buf: &mut Page) -> TierResult<crate::tier::FetchOutcome> {
                self.inner.fetch(id, buf)
            }
            fn write_back(
                &self,
                page: &Page,
                dirty: bool,
                fdirty: bool,
                reason: WriteBackReason,
            ) -> TierResult<WriteBackOutcome> {
                self.inner.write_back(page, dirty, fdirty, reason)
            }
            fn write_back_with(
                &self,
                page: &Page,
                dirty: bool,
                fdirty: bool,
                reason: WriteBackReason,
                victims: &mut dyn VictimPull,
            ) -> TierResult<WriteBackOutcome> {
                while let Some((extra, d, f)) = victims.pull(&|_| true, None) {
                    self.pulled.lock().unwrap().push(extra.id());
                    self.inner.write_back(&extra, d, f, reason)?;
                }
                self.inner.write_back(page, dirty, fdirty, reason)
            }
            fn allocate(&self, file: u32) -> TierResult<PageId> {
                self.inner.allocate(file)
            }
            fn sync(&self) -> TierResult<()> {
                self.inner.sync()
            }
        }

        let store = Arc::new(InMemoryPageStore::new());
        let tier = PullingTier {
            inner: DirectDiskTier::new(store.clone() as Arc<dyn PageStore>),
            pulled: StdMutex::new(Vec::new()),
        };
        let pool = BufferPool::with_shards(8, 4, tier);
        // Fill the pool with dirty pages, then overflow it: the eviction
        // offers cold dirty frames from the other shards to the tier.
        let ids: Vec<PageId> = (0..8).map(|_| pool.allocate_page(0).unwrap()).collect();
        for id in &ids {
            pool.update(*id, Lsn(1), |p| p.write_body(0, b"d")).unwrap();
        }
        for _ in 0..4 {
            pool.allocate_page(0).unwrap();
        }
        let pulled = pool.lower().pulled.lock().unwrap().clone();
        assert!(!pulled.is_empty(), "no victims were pulled across shards");
        // Pulled frames really left the pool, and their data reached disk.
        for id in &pulled {
            assert!(!pool.contains(*id));
            let mut buf = Page::zeroed();
            store.read_page(*id, &mut buf).unwrap();
            assert!(buf.is_formatted(), "pulled dirty page lost");
        }
        assert!(pool.len() <= pool.capacity());
    }

    /// The miss protocol: the fetch runs under the loading frame's latch, not
    /// under the shard's structural mutex. Every pool here has one shard, so
    /// "another page" is always a page of the same shard.
    mod loading {
        use super::*;
        use crate::tier::{FetchOutcome, LowerTier, TierError, WriteBackOutcome};
        use std::collections::HashMap;
        use std::sync::{mpsc, Condvar, Mutex as StdMutex};
        use std::time::Duration;

        #[derive(Default)]
        struct GateState {
            /// Fetches of this page park until released.
            held: Option<PageId>,
            /// A fetch is parked on `held`.
            parked: bool,
            /// The parked (or, with nothing held, the next) fetch fails.
            fail: bool,
            fetches: HashMap<PageId, u32>,
        }

        /// A disk tier whose fetch of one chosen page can be parked
        /// mid-flight and made to fail.
        struct GatedTier {
            inner: DirectDiskTier,
            state: StdMutex<GateState>,
            cv: Condvar,
        }

        impl GatedTier {
            fn hold(&self, id: PageId) {
                self.state.lock().unwrap().held = Some(id);
            }

            fn fail_next(&self) {
                self.state.lock().unwrap().fail = true;
            }

            /// Block until a fetch is parked on the held page.
            fn wait_parked(&self) {
                let state = self.state.lock().unwrap();
                drop(self.cv.wait_while(state, |s| !s.parked).unwrap());
            }

            fn release(&self) {
                self.state.lock().unwrap().held = None;
                self.cv.notify_all();
            }

            fn fetches(&self, id: PageId) -> u32 {
                self.state
                    .lock()
                    .unwrap()
                    .fetches
                    .get(&id)
                    .copied()
                    .unwrap_or(0)
            }
        }

        impl LowerTier for GatedTier {
            fn fetch(&self, id: PageId, buf: &mut Page) -> TierResult<FetchOutcome> {
                let mut state = self.state.lock().unwrap();
                *state.fetches.entry(id).or_default() += 1;
                if state.held == Some(id) {
                    state.parked = true;
                    self.cv.notify_all();
                    state = self.cv.wait_while(state, |s| s.held == Some(id)).unwrap();
                    state.parked = false;
                }
                if std::mem::take(&mut state.fail) {
                    // What a failing device may leave behind in the buffer.
                    buf.as_bytes_mut().fill(0xEE);
                    return Err(TierError::Cache("injected fetch failure".into()));
                }
                drop(state);
                self.inner.fetch(id, buf)
            }
            fn write_back(
                &self,
                page: &Page,
                dirty: bool,
                fdirty: bool,
                reason: WriteBackReason,
            ) -> TierResult<WriteBackOutcome> {
                self.inner.write_back(page, dirty, fdirty, reason)
            }
            fn allocate(&self, file: u32) -> TierResult<PageId> {
                self.inner.allocate(file)
            }
            fn sync(&self) -> TierResult<()> {
                self.inner.sync()
            }
        }

        /// A one-shard pool of `capacity` frames over `pages` pages that all
        /// exist on disk, page `i` holding the byte `i`; the last `capacity`
        /// of them are resident.
        fn gated_pool(
            capacity: usize,
            pages: usize,
            lock_light: bool,
        ) -> (BufferPool<GatedTier>, Arc<InMemoryPageStore>, Vec<PageId>) {
            let store = Arc::new(InMemoryPageStore::new());
            let tier = GatedTier {
                inner: DirectDiskTier::new(store.clone() as Arc<dyn PageStore>),
                state: StdMutex::default(),
                cv: Condvar::new(),
            };
            let pool = BufferPool::with_shards(capacity, 1, tier).lock_light_reads(lock_light);
            let ids: Vec<PageId> = (0..pages)
                .map(|i| {
                    let id = pool.allocate_page(0).unwrap();
                    pool.update(id, Lsn(i as u64 + 1), |p| p.write_body(0, &[i as u8]))
                        .unwrap();
                    id
                })
                .collect();
            pool.flush_all_dirty().unwrap();
            (pool, store, ids)
        }

        fn first_byte(pool: &BufferPool<GatedTier>, id: PageId) -> TierResult<u8> {
            pool.read(id, |p| p.read_body(0, 1)[0])
        }

        /// Run `work` on a thread of its own and wait for it, but not for
        /// ever: a pool that holds the shard across the parked fetch would
        /// hang the test instead of failing it.
        fn finishes<'s, T: Send + 's>(
            scope: &'s std::thread::Scope<'s, '_>,
            work: impl FnOnce() -> T + Send + 's,
        ) -> Option<T> {
            let (tx, rx) = mpsc::channel();
            scope.spawn(move || tx.send(work()));
            rx.recv_timeout(Duration::from_secs(20)).ok()
        }

        #[test]
        fn parked_fetch_blocks_neither_a_hit_nor_a_miss_on_another_page() {
            for lock_light in [false, true] {
                let (pool, _, ids) = gated_pool(4, 8, lock_light);
                let (pool, tier) = (&pool, pool.lower());
                tier.hold(ids[0]);
                std::thread::scope(|s| {
                    let loader = s.spawn(|| first_byte(pool, ids[0]));
                    tier.wait_parked();
                    // ids[7] is resident, ids[1] is not; ids[2] takes an
                    // update through the miss path.
                    let others = finishes(s, || {
                        (
                            first_byte(pool, ids[7]).unwrap(),
                            first_byte(pool, ids[1]).unwrap(),
                            pool.update(ids[2], Lsn(100), |p| p.read_body(0, 1)[0])
                                .unwrap(),
                        )
                    });
                    tier.release();
                    assert_eq!(
                        others.expect("accesses to other pages waited for the parked fetch"),
                        (7, 1, 2)
                    );
                    assert_eq!(loader.join().unwrap().unwrap(), 0);
                });
                assert_eq!(tier.fetches(ids[0]), 1);
                assert!(pool.len() <= pool.capacity());
                assert_eq!(pool.len(), pool.resident_by_shard()[0]);
            }
        }

        #[test]
        fn two_misses_on_one_page_share_one_fetch() {
            let (pool, _, ids) = gated_pool(4, 8, false);
            let (pool, tier) = (&pool, pool.lower());
            pool.reset_stats();
            tier.hold(ids[0]);
            std::thread::scope(|s| {
                let loader = s.spawn(|| first_byte(pool, ids[0]));
                tier.wait_parked();
                let second = s.spawn(|| {
                    pool.update(ids[0], Lsn(100), |p| {
                        let seen = p.read_body(0, 1)[0];
                        p.write_body(1, b"x");
                        seen
                    })
                });
                // Let the second access get in behind the first (it counts
                // itself on entry); whether it has reached the latch yet or
                // not, the outcome below is the same.
                while pool.stats().accesses < 2 {
                    std::thread::yield_now();
                }
                tier.release();
                assert_eq!(loader.join().unwrap().unwrap(), 0);
                assert_eq!(second.join().unwrap().unwrap(), 0, "saw the loaded page");
            });
            assert_eq!(tier.fetches(ids[0]), 1);
            let stats = pool.stats();
            assert_eq!((stats.misses, stats.hits), (1, 1));
            assert!(pool.flags(ids[0]).unwrap().dirty);
        }

        #[test]
        fn failed_fetch_leaves_no_trace_of_the_placeholder() {
            let (pool, _, ids) = gated_pool(4, 8, false);
            let tier = pool.lower();
            tier.fail_next();
            assert!(first_byte(&pool, ids[0]).is_err());
            assert!(!pool.contains(ids[0]));
            // Room was made before the fetch, as it always was; the frame
            // that was to hold the page is gone from map, LRU and count.
            assert_eq!(pool.resident_lru_order(), [ids[5], ids[6], ids[7]]);
            assert_eq!(pool.resident_by_shard(), [3]);
            assert_eq!(pool.len(), 3);
            // The page itself is fine: the next access loads it.
            assert_eq!(first_byte(&pool, ids[0]).unwrap(), 0);
            assert_eq!(pool.len(), 4);
        }

        #[test]
        fn access_queued_on_a_failing_load_retries_and_never_sees_the_placeholder() {
            let (pool, _, ids) = gated_pool(4, 8, false);
            let (pool, tier) = (&pool, pool.lower());
            pool.reset_stats();
            tier.hold(ids[0]);
            std::thread::scope(|s| {
                let loader = s.spawn(|| first_byte(pool, ids[0]));
                tier.wait_parked();
                tier.fail_next();
                let second = s.spawn(|| first_byte(pool, ids[0]));
                while pool.stats().accesses < 2 {
                    std::thread::yield_now();
                }
                tier.release();
                assert!(loader.join().unwrap().is_err());
                // Queued on the latch or arriving after the unlink: either
                // way the second access fetches for itself.
                assert_eq!(second.join().unwrap().unwrap(), 0);
            });
            assert_eq!(tier.fetches(ids[0]), 2);
            assert_eq!(pool.len(), pool.resident_by_shard()[0]);
            assert_eq!(pool.resident_lru_order().last(), Some(&ids[0]));
        }

        #[test]
        fn evictor_waits_for_a_loading_frame_and_writes_back_what_it_loaded() {
            let (pool, store, ids) = gated_pool(1, 3, false);
            let (pool, tier) = (&pool, pool.lower());
            tier.hold(ids[0]);
            std::thread::scope(|s| {
                // The update's miss takes the only frame and parks loading it.
                let updater = s.spawn(|| {
                    pool.update(ids[0], Lsn(50), |p| {
                        assert_eq!(p.read_body(0, 1), [0], "loaded before the closure");
                        p.write_body(0, b"U");
                    })
                });
                tier.wait_parked();
                // A miss on another page must evict that loading frame. It
                // unmaps the frame first, then waits on its latch.
                let other = s.spawn(|| first_byte(pool, ids[1]));
                while pool.contains(ids[0]) {
                    std::thread::yield_now();
                }
                tier.release();
                updater.join().unwrap().unwrap();
                assert_eq!(other.join().unwrap().unwrap(), 1);
            });
            let mut out = Page::zeroed();
            store.read_page(ids[0], &mut out).unwrap();
            assert_eq!(out.read_body(0, 1), b"U", "the loaded, updated bytes");
            assert_eq!(out.lsn(), Lsn(50));
            assert_eq!(pool.resident_lru_order(), [ids[1]]);
            assert_eq!(pool.len(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_rejected() {
        let store = Arc::new(InMemoryPageStore::new());
        let tier = DirectDiskTier::new(store as Arc<dyn PageStore>);
        let _ = BufferPool::new(0, tier);
    }
}
