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
//! map lookup, a shared page latch and one relaxed store to the frame's
//! access frequency — no exclusive lock anywhere. Replacement switches from
//! strict LRU to per-shard **S3-FIFO** (Yang et al., SOSP 2023) with its
//! published constants:
//!
//! * a newcomer enters a small FIFO of 10 % of the shard's frames (at least
//!   one). At its tail, a frame hit at least twice since it arrived moves to
//!   the main FIFO; any other frame is evicted and its id is remembered in a
//!   ghost list (ids only, at most the shard's capacity);
//! * a miss on a remembered id enters the main FIFO directly;
//! * at the main FIFO's tail, a frame with a non-zero frequency is
//!   reinserted at the head with one count less, and a frame at zero is
//!   evicted;
//! * the frequency is two bits, saturating at 3.
//!
//! So a page touched once leaves first and never displaces one that is
//! being re-read. The sweep never waits for a page latch: a candidate whose
//! latch is busy (a frame still loading, or one being read this instant) is
//! rotated, and the sweep moves on to the other queue. Only when every
//! resident frame is busy does it wait, as the exact-LRU evictor always
//! does. Without the flag every lookup takes the structural mutex and
//! maintains exact LRU order, which several tests pin down.
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
//! latch (fetch: the loading frame's; a prefetch: its window's, one batched
//! fetch) or the structural mutex and a page latch (write-back: the
//! victim's). A prefetch is the one site that takes a structural mutex with
//! latches held — its own placeholders' from earlier shards, which nobody
//! waits for under a structural mutex (see [`BufferPool::prefetch`]). The
//! lower tier never calls back into the pool except through that pull, so
//! `shard → tier-internals` stays acyclic.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

use face_analysis::classes::{BUFFER_MAP, BUFFER_STRUCTURAL, PAGE_LATCH};
use face_analysis::{witness, OrderedMutex, OrderedMutexGuard, OrderedRwLock};
use face_pagestore::{Counter, IdHashMap, Lsn, Page, PageId};

use crate::flags::{AtomicFrameFlags, FrameFlags};
use crate::lru::LruList;
use crate::tier::{FetchOutcome, FetchSource, LowerTier, TierResult, VictimPull, WriteBackReason};

/// How many of a shard's next eviction candidates are probed when the lower
/// tier pulls extra dirty victims (Group Second Chance batch top-up). Bounds
/// the time spent under an opportunistically `try_lock`ed shard.
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
    /// Eviction candidates S3-FIFO kept because they had been hit: frames
    /// promoted from the small queue to the main queue, plus main-queue
    /// frames reinserted with one count less (lock-light mode only).
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
    /// S3-FIFO access frequency, `0..=MAX_FREQ` (lock-light mode only):
    /// raised by hits with a plain relaxed store — two racing hits may count
    /// once, and neither takes a lock — and spent by the evictor.
    freq: AtomicU8,
    /// Flipped by the evictor under the page latch; an optimistic reader
    /// that sees it set lost the race and retries its lookup.
    evicted: AtomicBool,
}

/// Where a frame's access frequency saturates (two bits).
const MAX_FREQ: u8 = 3;

impl FrameCell {
    fn new(page: Page, flags: FrameFlags) -> Self {
        Self {
            page: OrderedRwLock::new(PAGE_LATCH, page),
            flags: AtomicFrameFlags::new(flags),
            freq: AtomicU8::new(0),
            evicted: AtomicBool::new(false),
        }
    }

    fn freq(&self) -> u8 {
        self.freq.load(Ordering::Relaxed)
    }

    /// Whether nobody holds the page latch right now: a probe that never
    /// waits (a frame still loading holds it exclusively).
    fn latch_free(&self) -> bool {
        self.page.try_write().is_some()
    }
}

/// A shard's id-to-frame mapping.
type FrameMap = IdHashMap<PageId, Arc<FrameCell>>;

/// Replacement state of one shard, behind the structural mutex. Exclusive
/// mode keeps every frame in `main`, in exact LRU order; lock-light mode
/// runs S3-FIFO over all three lists (see the module docs).
struct ShardCore {
    /// S3-FIFO's small FIFO of newcomers (empty in exclusive mode).
    small: LruList<PageId>,
    /// S3-FIFO's main FIFO, or the exact LRU list in exclusive mode.
    main: LruList<PageId>,
    /// Ids S3-FIFO recently evicted from `small`, without their pages (empty
    /// in exclusive mode).
    ghost: LruList<PageId>,
}

impl ShardCore {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            small: LruList::with_capacity(capacity / 10 + 1),
            main: LruList::with_capacity(capacity),
            ghost: LruList::with_capacity(capacity),
        }
    }

    /// Queue a newly mapped frame: into `main` in exclusive mode or when
    /// S3-FIFO remembers the id, into `small` otherwise.
    fn admit(&mut self, id: PageId, s3fifo: bool) {
        if !s3fifo || self.ghost.remove(&id) {
            self.main.insert_mru(id);
        } else {
            self.small.insert_mru(id);
        }
    }

    /// Unqueue a frame that leaves the pool. Returns whether it was in
    /// `small`.
    fn remove(&mut self, id: &PageId) -> bool {
        let in_small = self.small.remove(id);
        if !in_small {
            self.main.remove(id);
        }
        in_small
    }

    /// Remember an id evicted from `small`, forgetting the oldest beyond the
    /// shard's `capacity`.
    fn remember(&mut self, id: PageId, capacity: usize) {
        if self.ghost.len() >= capacity {
            self.ghost.pop_lru();
        }
        self.ghost.insert_mru(id);
    }

    /// Resident ids, the next eviction candidates first.
    fn coldest_first(&self) -> impl Iterator<Item = &PageId> {
        self.small
            .iter_lru_to_mru()
            .chain(self.main.iter_lru_to_mru())
    }

    fn clear(&mut self) {
        self.small.clear();
        self.main.clear();
        self.ghost.clear();
    }
}

/// One lock-striped slice of the pool.
struct Shard {
    capacity: usize,
    /// S3-FIFO's target for the small queue: 10 % of `capacity`, at least 1.
    small_capacity: usize,
    /// The read-optimized mapping; see the module docs for the lock order.
    map: OrderedRwLock<FrameMap>,
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
                    small_capacity: (cap / 10).max(1),
                    map: OrderedRwLock::new(
                        BUFFER_MAP,
                        IdHashMap::with_capacity_and_hasher(cap, Default::default()),
                    ),
                    core: OrderedMutex::new(BUFFER_STRUCTURAL, ShardCore::with_capacity(cap)),
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
    /// shared map lookup + shared page latch + one relaxed store to the
    /// frame's access frequency, and replacement becomes S3-FIFO over those
    /// frequencies (see the module docs). Off (the default), every access
    /// takes the structural mutex and maintains exact LRU order.
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
    /// exclusive lock at all (shared mapping lock, shared latch, frequency
    /// store); otherwise the lookup goes through the shard's structural mutex,
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
        core.admit(id, self.lock_light);
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
    /// (paper §3.3) only needs *a* cold dirty page, not *the* coldest. In
    /// lock-light mode the victim is S3-FIFO's.
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

    /// Opportunistically remove one cold frame whose flash copy is stale
    /// (`fdirty`), whose id passes `wants` and whose pageLSN is below
    /// `lsn_below` (see [`VictimPull::pull`]) from a shard other than
    /// `exclude`, probing each shard's next eviction candidates at most
    /// [`VICTIM_PROBE_DEPTH`] deep. Cold means never hit since it arrived
    /// or since the evictor last spent its frequency: a frame that is being
    /// re-read stays, whatever its position. A frame only `dirty` (newer
    /// than disk, but its flash copy is current) stays too: the cache would
    /// skip it as a duplicate, so pulling it would only cost a DRAM miss.
    ///
    /// Only `try_lock` is used on the structural mutex, so this can run
    /// while the caller holds other locks (it never blocks on a buffer
    /// shard); shards currently contended are simply skipped. Returns the
    /// frame's page and flags; the frame leaves the pool, and a frame pulled
    /// from S3-FIFO's small queue is remembered as if evicted from it.
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
                core.coldest_first()
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
                                c.freq() == 0
                                    && c.flags.load().fdirty
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
                if core.remove(&id) {
                    core.remember(id, shard.capacity);
                }
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
            core.clear();
        }
        self.resident.set(0);
    }

    /// The resident pages from least- to most-recently used within each
    /// shard, concatenated in shard order (for inspection and tests; exact
    /// global order only with one shard and the exclusive read path). In
    /// lock-light mode each shard lists its small queue, then its main
    /// queue, each from tail to head.
    pub fn resident_lru_order(&self) -> Vec<PageId> {
        self.shards
            .iter()
            .flat_map(|s| s.core.lock().coldest_first().copied().collect::<Vec<_>>())
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
            core.main.touch(&id);
        }
        Some(cell)
    }

    /// Count a hit on a latched, validated frame.
    fn note_hit(&self, cell: &FrameCell) {
        self.stats.hits.inc();
        if self.lock_light {
            let freq = cell.freq();
            if freq < MAX_FREQ {
                cell.freq.store(freq + 1, Ordering::Relaxed);
            }
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
        core.admit(id, self.lock_light);
        self.resident.inc();
        drop(core);
        match self.lower.fetch(id, &mut page) {
            Ok(outcome) => self.loaded(id, &cell, &mut page, outcome),
            Err(e) => {
                cell.evicted.store(true, Ordering::Release);
                drop(page);
                self.unlink(shard, &mut shard.core.lock(), id, &cell);
                return Err(e);
            }
        };
        Ok(run(&cell, &mut page))
    }

    /// Finish a placeholder whose fetch succeeded, under its latch: set its
    /// flags from where the copy came from and count the source.
    fn loaded(&self, id: PageId, cell: &FrameCell, page: &mut Page, outcome: FetchOutcome) {
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
    }

    /// Load the pages of `ids` that are not resident with **one**
    /// [`LowerTier::fetch_batch`] — a warm restart's working set, ahead of
    /// the accesses that need it. Each page is installed the way a miss in
    /// [`BufferPool::read`] installs it: room is made under the shard's
    /// structural mutex, a placeholder frame is mapped with its page latch
    /// already held exclusively, and the fetch runs under the latches alone.
    /// An installed page counts as an access and a miss from its source, so
    /// the access that consumes it is a hit and `hits + misses == accesses`
    /// still holds.
    ///
    /// One call takes the longest prefix of `ids` whose pages fit half of
    /// each shard: a window never evicts its own pages, and the other half
    /// keeps pages of the window before that the caller still re-touches
    /// (on a warm restart's TPC-C redo, full-shard windows loaded 7 % more
    /// pages for the same number of batches). Resident pages are skipped.
    /// Returns how many ids the call took, and the pages it installed with
    /// where each copy came from. A page whose fetch failed is dropped as a
    /// failed load is, the others stay installed, and the first error is
    /// returned.
    pub fn prefetch(&self, ids: &[PageId]) -> TierResult<(usize, Vec<(PageId, FetchSource)>)> {
        let mut wanted = vec![Vec::new(); self.shards.len()];
        let mut room: Vec<usize> = self
            .shards
            .iter()
            .map(|s| (s.capacity / 2).max(1))
            .collect();
        let mut taken = 0;
        for &id in ids {
            let sidx = self.shard_index(id);
            if !self.contains(id) {
                if room[sidx] == 0 {
                    break;
                }
                room[sidx] -= 1;
                wanted[sidx].push(id);
            }
            taken += 1;
        }
        // Room first, while no latch of ours is held: an eviction may wait
        // for its victim's latch, and must never wait for one of ours.
        for (sidx, ids) in wanted.iter_mut().enumerate() {
            if ids.is_empty() {
                continue;
            }
            let shard = &self.shards[sidx];
            let mut core = shard.core.lock();
            ids.retain(|id| !shard.map.read().contains_key(id));
            while shard.map.read().len() + ids.len() > shard.capacity {
                if self.evict_from(sidx, &mut core)?.is_none() {
                    break;
                }
            }
        }
        let cells: Vec<(PageId, Arc<FrameCell>)> = wanted
            .iter()
            .flatten()
            .map(|&id| {
                let cell = FrameCell::new(Page::zeroed(), FrameFlags::default());
                (id, Arc::new(cell))
            })
            .collect();
        let mut loading = Vec::with_capacity(cells.len());
        {
            // Shard by shard in ascending order, each shard's mutex taken
            // once, with the latches of the shards before it held. Nobody
            // waits for a placeholder's latch while holding a structural
            // mutex: an evictor only waits for its own shard's frames, and
            // these are mapped already latched, after that shard's room was
            // made; a GSC pull never takes a frame that is not `fdirty`.
            let _region = witness::nested_region(
                "buffer: a prefetch maps each shard's placeholders holding earlier shards' latches",
            );
            let mut next = cells.iter().peekable();
            for (sidx, shard) in self.shards.iter().enumerate() {
                if next
                    .peek()
                    .is_none_or(|(id, _)| self.shard_index(*id) != sidx)
                {
                    continue;
                }
                let mut core = shard.core.lock();
                let mut map = shard.map.write();
                while let Some((id, cell)) = next.next_if(|(id, _)| self.shard_index(*id) == sidx) {
                    if map.len() >= shard.capacity || map.contains_key(id) {
                        continue;
                    }
                    map.insert(*id, Arc::clone(cell));
                    loading.push((*id, &**cell, cell.page.write()));
                    core.admit(*id, self.lock_light);
                    self.resident.inc();
                    self.stats.accesses.inc();
                    self.stats.misses.inc();
                }
            }
        }
        let ids: Vec<PageId> = loading.iter().map(|(id, _, _)| *id).collect();
        let mut bufs: Vec<&mut Page> = loading.iter_mut().map(|(_, _, page)| &mut **page).collect();
        let outcomes = self.lower.fetch_batch(&ids, &mut bufs);
        drop(bufs);
        let mut installed = Vec::with_capacity(ids.len());
        let mut failed = Vec::new();
        let mut first_error = None;
        for ((id, cell, mut page), outcome) in loading.into_iter().zip(outcomes) {
            match outcome {
                Ok(outcome) => {
                    installed.push((id, outcome.source));
                    self.loaded(id, cell, &mut page, outcome);
                }
                Err(e) => {
                    cell.evicted.store(true, Ordering::Release);
                    failed.push(id);
                    first_error.get_or_insert(e);
                }
            }
        }
        // Every latch is released by now: unlink the failed loads.
        for (id, cell) in cells.iter().filter(|(id, _)| failed.contains(id)) {
            let shard = self.shard(*id);
            self.unlink(shard, &mut shard.core.lock(), *id, cell);
        }
        first_error.map_or(Ok((taken, installed)), Err)
    }

    /// Take `cell` out of the map, its queue and the resident count — if
    /// it is still the frame mapped for `id`. An evictor may have unmapped it
    /// already, and a later miss may have mapped a new frame under the same
    /// id; neither may be disturbed.
    fn unlink(&self, shard: &Shard, core: &mut ShardCore, id: PageId, cell: &Arc<FrameCell>) {
        let mut map = shard.map.write();
        if map.get(&id).is_some_and(|mapped| Arc::ptr_eq(mapped, cell)) {
            map.remove(&id);
            core.remove(&id);
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
        let (victim, cell) = {
            let mut map = shard.map.write();
            let victim = if self.lock_light {
                self.s3fifo_victim(shard, core, &map)
            } else {
                core.main.pop_lru()
            };
            let Some(victim) = victim else {
                return Ok(None);
            };
            let cell = map.remove(&victim).expect("queues and map in sync");
            (victim, cell)
        };
        // The exclusive latch waits out in-flight accesses — a frame still
        // loading included, so what is written back below is what its fetch
        // brought in. (S3-FIFO picked a frame whose latch was free, unless
        // every frame of the shard was busy.) `evicted` then turns away
        // everyone who already holds the cell.
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

    /// S3-FIFO's next victim in `shard`, taken off its queue: from the small
    /// queue while it holds its share of the frames (or the main queue is
    /// empty), from the main queue otherwise, and from the other queue when
    /// the first finds only busy frames. If every frame is busy, the small
    /// queue's tail (else the main queue's) is returned anyway and the
    /// caller waits for its latch.
    fn s3fifo_victim(&self, shard: &Shard, core: &mut ShardCore, map: &FrameMap) -> Option<PageId> {
        let victim = if core.small.len() >= shard.small_capacity || core.main.is_empty() {
            self.sweep_small(shard, core, map)
                .or_else(|| self.sweep_main(core, map))
        } else {
            self.sweep_main(core, map)
                .or_else(|| self.sweep_small(shard, core, map))
        };
        victim.or_else(|| core.small.pop_lru().or_else(|| core.main.pop_lru()))
    }

    /// Evict from S3-FIFO's small queue. Its tail moves to the main queue if
    /// it was hit at least twice since it arrived; otherwise it is the victim
    /// and its id goes to the ghost list. A tail whose latch is busy is
    /// rotated to the head; `None` once every frame left in the queue has
    /// been found busy (or the queue is empty).
    fn sweep_small(&self, shard: &Shard, core: &mut ShardCore, map: &FrameMap) -> Option<PageId> {
        let mut busy = 0;
        while busy < core.small.len() {
            let id = core.small.pop_lru()?;
            let cell = &map[&id];
            if cell.freq() > 1 {
                core.main.insert_mru(id);
                self.stats.ref_rescues.inc();
            } else if cell.latch_free() {
                core.remember(id, shard.capacity);
                return Some(id);
            } else {
                core.small.insert_mru(id);
                busy += 1;
            }
        }
        None
    }

    /// Evict from S3-FIFO's main queue. A tail with a non-zero frequency is
    /// reinserted at the head with one count less; the first at zero is the
    /// victim. Busy tails rotate as in [`BufferPool::sweep_small`].
    /// Reinsertions stop after `MAX_FREQ + 1` passes' worth, so readers that
    /// keep hitting every frame cannot stall the evictor.
    fn sweep_main(&self, core: &mut ShardCore, map: &FrameMap) -> Option<PageId> {
        let mut busy = 0;
        let mut reinsertions = (usize::from(MAX_FREQ) + 1) * core.main.len();
        while busy < core.main.len() {
            let id = core.main.pop_lru()?;
            let cell = &map[&id];
            let freq = cell.freq();
            if freq > 0 && reinsertions > 0 {
                cell.freq.store(freq - 1, Ordering::Relaxed);
                core.main.insert_mru(id);
                reinsertions -= 1;
                self.stats.ref_rescues.inc();
            } else if cell.latch_free() {
                return Some(id);
            } else {
                core.main.insert_mru(id);
                busy += 1;
            }
        }
        None
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
    use crate::tier::{DirectDiskTier, WriteBackOutcome};
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
    fn the_small_queue_promotes_a_page_hit_twice_and_evicts_a_page_hit_once() {
        // Capacity 3, one shard, lock-light: a small queue of one frame, so
        // every newcomer is judged at its tail. `a` and `b` arrived before
        // `c`; `a` was hit twice, `b` once, `c` not at all.
        let (pool, _) = lock_light_pool(3, 1);
        let a = pool.allocate_page(0).unwrap();
        let b = pool.allocate_page(0).unwrap();
        let c = pool.allocate_page(0).unwrap();
        pool.read(a, |_| ()).unwrap();
        pool.read(a, |_| ()).unwrap();
        pool.read(b, |_| ()).unwrap();
        let d = pool.allocate_page(0).unwrap();
        // `a` moved to the main queue; `b`, next at the tail, left.
        assert!(!pool.contains(b), "a page hit once should have gone");
        assert_eq!(pool.resident_lru_order(), [c, d, a]);
        let stats = pool.stats();
        assert_eq!((stats.evictions, stats.ref_rescues), (1, 1));
    }

    #[test]
    fn a_page_touched_once_cannot_evict_a_page_hit_twice() {
        // Ten frames, one shard: nine pages hit twice, then a stream of
        // twenty pages touched once (allocation is their only access).
        let (pool, _) = lock_light_pool(10, 1);
        let hot: Vec<PageId> = (0..9).map(|_| pool.allocate_page(0).unwrap()).collect();
        for id in &hot {
            pool.read(*id, |_| ()).unwrap();
            pool.read(*id, |_| ()).unwrap();
        }
        let cold: Vec<PageId> = (0..21).map(|_| pool.allocate_page(0).unwrap()).collect();
        // The first eviction promoted the nine hot pages and took the cold
        // page behind them; every later one took the previous cold page.
        for id in &hot {
            assert!(pool.contains(*id), "hot page {id} was evicted");
        }
        assert_eq!(pool.resident_lru_order()[0], cold[20]);
        let stats = pool.stats();
        assert_eq!(stats.hits, 18);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.evictions, 20);
        assert_eq!(stats.ref_rescues, 9);
    }

    #[test]
    fn a_ghost_hit_re_enters_the_main_queue() {
        let (pool, _) = lock_light_pool(10, 1);
        let pages: Vec<PageId> = (0..11).map(|_| pool.allocate_page(0).unwrap()).collect();
        // The eleventh allocation evicted the first page, touched once, and
        // remembered its id.
        assert!(!pool.contains(pages[0]));
        // A miss on a remembered id skips the small queue.
        pool.read(pages[0], |_| ()).unwrap();
        assert_eq!(pool.resident_lru_order().last(), Some(&pages[0]));
        // So a stream of one-touch pages, which only ever cycles the small
        // queue, passes it by although it is never hit again.
        for _ in 0..30 {
            pool.allocate_page(0).unwrap();
        }
        assert!(pool.contains(pages[0]), "the ghost hit was evicted");
        let stats = pool.stats();
        assert_eq!((stats.misses, stats.hits), (1, 0));
        assert_eq!(stats.evictions, 1 + 1 + 30);
        assert_eq!(stats.ref_rescues, 0);
    }

    #[test]
    fn hits_and_misses_account_for_every_access_under_concurrent_load() {
        const THREADS: u64 = 4;
        const OPS: u64 = 2_000;
        let (pool, _) = lock_light_pool(16, 4);
        let ids: Vec<PageId> = (0..64).map(|_| pool.allocate_page(0).unwrap()).collect();
        let allocated_and_resident = pool.len() as u64;
        pool.reset_stats();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (pool, ids) = (&pool, &ids);
                s.spawn(move || {
                    // A skewed stream: half the accesses go to eight pages.
                    let mut x = t + 1;
                    for i in 0..OPS {
                        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        let pick = (x >> 33) as usize;
                        let idx = if i % 2 == 0 {
                            pick % 8
                        } else {
                            pick % ids.len()
                        };
                        // Each thread updates only pages it owns.
                        if idx as u64 % THREADS == t && i % 5 == 0 {
                            pool.update(ids[idx], Lsn(i + 1), |_| ()).unwrap();
                        } else {
                            pool.read(ids[idx], |_| ()).unwrap();
                        }
                    }
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.accesses, THREADS * OPS);
        assert_eq!(stats.hits + stats.misses, stats.accesses);
        // Every miss mapped a frame and every eviction unmapped one.
        assert_eq!(
            pool.len() as u64,
            allocated_and_resident + stats.misses - stats.evictions
        );
        assert!(stats.hits > 0 && stats.misses > 0);
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

    /// A tier that pulls every victim it is offered when it absorbs an
    /// eviction, recording each with its flags. A checkpoint leaves the copy
    /// in "flash" only, as FaCE does: the frame stays dirty, not fdirty.
    struct PullingTier {
        inner: DirectDiskTier,
        pulled: std::sync::Mutex<Vec<(PageId, bool, bool)>>,
    }

    impl PullingTier {
        fn new(store: &Arc<InMemoryPageStore>) -> Self {
            Self {
                inner: DirectDiskTier::new(store.clone() as Arc<dyn PageStore>),
                pulled: Default::default(),
            }
        }

        fn pulled(&self) -> Vec<(PageId, bool, bool)> {
            self.pulled.lock().unwrap().clone()
        }
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
            if reason == WriteBackReason::Checkpoint {
                return Ok(WriteBackOutcome {
                    in_flash: true,
                    on_disk: false,
                });
            }
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
                self.pulled.lock().unwrap().push((extra.id(), d, f));
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

    #[test]
    fn eviction_offers_dirty_victims_from_other_shards() {
        let store = Arc::new(InMemoryPageStore::new());
        let pool = BufferPool::with_shards(8, 4, PullingTier::new(&store));
        // Fill the pool with dirty pages, then overflow it: the eviction
        // offers cold dirty frames from the other shards to the tier.
        let ids: Vec<PageId> = (0..8).map(|_| pool.allocate_page(0).unwrap()).collect();
        for id in &ids {
            pool.update(*id, Lsn(1), |p| p.write_body(0, b"d")).unwrap();
        }
        for _ in 0..4 {
            pool.allocate_page(0).unwrap();
        }
        let pulled = pool.lower().pulled();
        assert!(!pulled.is_empty(), "no victims were pulled across shards");
        // Pulled frames really left the pool, and their data reached disk.
        for (id, _, _) in &pulled {
            assert!(!pool.contains(*id));
            let mut buf = Page::zeroed();
            store.read_page(*id, &mut buf).unwrap();
            assert!(buf.is_formatted(), "pulled dirty page lost");
        }
        assert!(pool.len() <= pool.capacity());
    }

    #[test]
    fn a_pull_never_takes_a_frame_whose_flash_copy_is_current() {
        for lock_light in [false, true] {
            let store = Arc::new(InMemoryPageStore::new());
            // Five pages of shard 0 and four of each other shard, on disk.
            let mut by_shard: Vec<Vec<PageId>> = vec![Vec::new(); 4];
            while by_shard
                .iter()
                .enumerate()
                .any(|(i, s)| s.len() < 4 + usize::from(i == 0))
            {
                let id = store.allocate(0).unwrap();
                by_shard[id.stripe_of(4)].push(id);
            }
            let pool = BufferPool::with_shards(16, 4, PullingTier::new(&store))
                .lock_light_reads(lock_light);
            let update = |id: PageId| pool.update(id, Lsn(1), |p| p.write_body(0, b"d")).unwrap();
            // Per shard: a page whose flash copy is current (a checkpoint
            // put it there: dirty, not fdirty) ...
            by_shard.iter().for_each(|s| update(s[0]));
            pool.flush_all_dirty().unwrap();
            // ... one read and then updated (a hit) ...
            for s in &by_shard {
                pool.read(s[1], |_| ()).unwrap();
                update(s[1]);
            }
            // ... and two loaded by an update (a miss), never hit since.
            by_shard
                .iter()
                .for_each(|s| s[2..4].iter().for_each(|id| update(*id)));
            assert_eq!(pool.resident_by_shard(), [4, 4, 4, 4]);
            assert!(pool.lower().pulled().is_empty());

            // A miss in shard 0 evicts there and offers the tier every frame
            // of the other shards.
            pool.read(by_shard[0][4], |_| ()).unwrap();
            let pulled = pool.lower().pulled();
            assert!(pulled.iter().all(|&(_, dirty, fdirty)| dirty && fdirty));
            let mut got: Vec<PageId> = pulled.iter().map(|&(id, _, _)| id).collect();
            got.sort();
            // Exact LRU has no frequencies: every fdirty frame is cold enough.
            // S3-FIFO leaves the frame that was hit.
            let first = if lock_light { 2 } else { 1 };
            let mut expected: Vec<PageId> = by_shard[1..]
                .iter()
                .flat_map(|s| s[first..4].iter().copied())
                .collect();
            expected.sort();
            assert_eq!(got, expected, "lock-light {lock_light}");
            for s in &by_shard[1..] {
                assert!(
                    pool.contains(s[0]),
                    "a frame with a current flash copy left"
                );
            }
            assert_eq!(pool.stats().evictions, 1 + expected.len() as u64);
        }
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
        fn a_loading_frame_next_in_the_small_queue_is_skipped_not_waited_on() {
            // Four frames: pages 8–11 resident, each hit three times; pages
            // 4–7 in the ghost list, 0–3 forgotten.
            let (pool, _, ids) = gated_pool(4, 12, true);
            let (pool, tier) = (&pool, pool.lower());
            for id in &ids[8..] {
                first_byte(pool, *id).unwrap();
                first_byte(pool, *id).unwrap();
            }
            pool.reset_stats();
            tier.hold(ids[0]);
            std::thread::scope(|s| {
                // The miss promotes pages 8–11 to the main queue, spends their
                // frequencies (twelve reinsertions) and evicts page 8; page 0
                // is then alone in the small queue, loading.
                let loader = s.spawn(|| first_byte(pool, ids[0]));
                tier.wait_parked();
                // This miss finds the small queue at its share and page 0 at
                // its tail, busy: it rotates it and evicts page 9 instead.
                let other = finishes(s, || first_byte(pool, ids[1]).unwrap());
                tier.release();
                assert_eq!(other, Some(1), "the evictor waited for the loading frame");
                assert_eq!(loader.join().unwrap().unwrap(), 0);
            });
            assert_eq!(
                pool.resident_lru_order(),
                [ids[0], ids[1], ids[10], ids[11]]
            );
            let stats = pool.stats();
            assert_eq!((stats.misses, stats.evictions), (2, 2));
            assert_eq!(stats.ref_rescues, 4 + 12);
            assert_eq!(tier.fetches(ids[0]), 1);
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

    mod prefetching {
        use super::*;
        use crate::tier::{FetchOutcome, LowerTier, TierError, WriteBackOutcome};
        use std::sync::Mutex as StdMutex;

        /// A disk tier that records each batch it is asked for and fails
        /// the fetches of one chosen page.
        struct BatchTier {
            inner: DirectDiskTier,
            batches: StdMutex<Vec<Vec<PageId>>>,
            failing: Option<PageId>,
        }

        impl LowerTier for BatchTier {
            fn fetch(&self, id: PageId, buf: &mut Page) -> TierResult<FetchOutcome> {
                if self.failing == Some(id) {
                    return Err(TierError::PageNotFound(id));
                }
                self.inner.fetch(id, buf)
            }

            fn fetch_batch(
                &self,
                ids: &[PageId],
                bufs: &mut [&mut Page],
            ) -> Vec<TierResult<FetchOutcome>> {
                self.batches.lock().unwrap().push(ids.to_vec());
                ids.iter()
                    .zip(bufs.iter_mut())
                    .map(|(&id, buf)| self.fetch(id, buf))
                    .collect()
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

        /// A lock-light pool of 16 frames over 4 shards, and 24 pages on
        /// disk, each carrying its number.
        fn pool_over_disk(failing: Option<usize>) -> (BufferPool<BatchTier>, Vec<PageId>) {
            let store = Arc::new(InMemoryPageStore::new());
            let ids: Vec<PageId> = (0..24u32)
                .map(|n| {
                    let id = store.allocate(0).unwrap();
                    let mut page = Page::new(id);
                    page.write_body(0, &n.to_le_bytes());
                    page.update_checksum();
                    store.write_page(id, &page).unwrap();
                    id
                })
                .collect();
            let tier = BatchTier {
                inner: DirectDiskTier::new(store as Arc<dyn PageStore>),
                batches: StdMutex::default(),
                failing: failing.map(|i| ids[i]),
            };
            let pool = BufferPool::with_shards(16, 4, tier).lock_light_reads(true);
            (pool, ids)
        }

        #[test]
        fn a_window_is_one_batch_and_the_accesses_that_use_it_hit() {
            let (pool, ids) = pool_over_disk(None);
            let (taken, loaded) = pool.prefetch(&ids).unwrap();
            assert!(
                (3..24).contains(&taken),
                "a window is the longest prefix that fits half of its shards: {taken}"
            );
            assert_eq!(loaded.len(), taken);
            assert!(loaded
                .iter()
                .all(|&(_, source)| source == FetchSource::Disk));
            let mut batches = pool.lower().batches.lock().unwrap().clone();
            assert_eq!(batches.len(), 1, "one batch for the window");
            batches[0].sort_unstable();
            assert_eq!(batches[0], ids[..taken]);
            for (n, &id) in ids[..taken].iter().enumerate() {
                let got = pool.read(id, |p| p.read_body(0, 4).to_vec()).unwrap();
                assert_eq!(got, (n as u32).to_le_bytes());
            }
            let stats = pool.stats();
            assert_eq!(
                stats.misses, taken as u64,
                "each prefetched page is one miss"
            );
            assert_eq!(stats.disk_fetches, taken as u64);
            assert_eq!(
                stats.hits, taken as u64,
                "and the access that uses it a hit"
            );
            assert_eq!(stats.hits + stats.misses, stats.accesses);

            // Resident pages are skipped: the next call goes on from there.
            let (next, loaded) = pool.prefetch(&ids[taken - 1..]).unwrap();
            assert!(next > 1);
            assert_eq!(loaded.len(), next - 1);
            assert!(!loaded.iter().any(|&(id, _)| id == ids[taken - 1]));
            assert_eq!(pool.lower().batches.lock().unwrap().len(), 2);
            assert!(pool.len() <= pool.capacity());
            let stats = pool.stats();
            assert_eq!(stats.hits + stats.misses, stats.accesses);
        }

        #[test]
        fn a_failed_fetch_drops_its_page_and_keeps_the_others() {
            let (pool, ids) = pool_over_disk(Some(2));
            let err = pool.prefetch(&ids[..3]).unwrap_err();
            assert!(matches!(err, TierError::PageNotFound(id) if id == ids[2]));
            assert!(!pool.contains(ids[2]), "the failed load is unmapped");
            for &id in ids[..3].iter().filter(|&&id| id != ids[2]) {
                assert!(pool.contains(id), "{id} stays installed");
            }
            assert_eq!(pool.len(), 2);
            assert_eq!(pool.resident_by_shard().iter().sum::<usize>(), 2);
            let stats = pool.stats();
            assert_eq!(stats.hits + stats.misses, stats.accesses);
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
