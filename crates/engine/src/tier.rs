//! [`FaceTier`]: the storage stack below the DRAM buffer — flash cache first,
//! disk second.
//!
//! This adapter is the reproduction's equivalent of the paper's modifications
//! to PostgreSQL's `bufferAlloc` / `getFreeBuffer` / `bufferSync`: it decides,
//! for every page crossing the DRAM boundary, whether the flash cache or the
//! disk serves or receives it, and it applies the stage-out writes the cache
//! requests.
//!
//! The tier is called concurrently by every shard of the buffer pool, so all
//! of its state is interior-mutable: the flash cache is the lock-striped
//! [`ShardedFlashCache`] and activity counters are atomics. The tier keeps
//! no I/O event log: the cache's operations describe their physical I/O into
//! a scratch [`IoLog`] that is dropped (the trace simulator, `crate::sim`, is
//! the consumer of those events), and what the functional engine did is in
//! [`TierStats`], the cache's and the stores' own counters.
//!
//! ## The destage pipeline
//!
//! A tier with a flash cache owns a [`Destager`], and the destager alone
//! writes what the tier sends down: a foreground `write_back` only mutates
//! the cache directory and hands over one job — the disk writes of the
//! dirty pages it dequeued and the group's flash batch write. With destage
//! threads, background workers perform it; with none (the sync A/B
//! baseline) the destager runs the same job body on the calling thread
//! before the hand-over returns. Every job goes through `hand_over`, which
//! runs the write-ahead guard **before** anything is handed over, in both
//! drivers: a write-back's stage-outs and group, a failed insert's fallout,
//! a quarantine evacuee, a trip's or a cold reset's evacuation, and the
//! groups a checkpoint or an evacuation finds still owed
//! (`flush_owed_groups`). So `destage::execute` is the one code path that
//! writes a group, and one shard's jobs run on its queue in hand-over order:
//! an older version never overwrites a newer one.
//!
//! ## Pages in transit
//!
//! The tier keeps no map of its own. The cache shard that un-caches a dirty
//! page records it as in transit in the same critical section, and
//! `persist_staged_page` retires it after its disk write
//! ([`ShardedFlashCache::retire_in_transit`]). A fetch the cache cannot
//! serve asks for the copy in transit ([`ShardedFlashCache::in_transit`])
//! before the disk, so it never reads the stale disk version of a page
//! whose write-out is in flight, and it refuses a wounded page.
//!
//! ## The read paths
//!
//! [`ShardedFlashCache::fetch`] pins the version under a short cache-shard
//! lock, reads the flash device **off-lock** and revalidates against the
//! slot's generation; versions still in a deferred group are served from
//! their shared `Arc<Page>` frames. A warm restart reads a window at a time
//! ([`face_buffer::BufferPool::prefetch`]) through [`FaceTier::fetch_batch`]:
//! while the breaker is closed, [`ShardedFlashCache::fetch_batch`] pins each
//! shard's versions under one lock and reads them with one
//! `FlashStore::read_batch`, and every answer is then served as
//! [`FaceTier::fetch`] serves one (a device error goes to the degrade
//! controller, whose allowed re-attempt is a single-page fetch). A breaker
//! that is not closed sends the window down the single-page path, which
//! claims a requested trip or bypasses a tripped cache.
//!
//! ## One copy, one checksum per crossing
//!
//! A page that leaves DRAM is copied once, into the frame `stage` builds,
//! and a dirty one is checksummed there. The pending group, the flash store's
//! batch write, the copy in transit, the destage queue and the disk write all
//! share that `Arc<Page>`; `persist_staged_page` writes it as it is (after
//! verifying the stamp). Coming back up, a store copies into the buffer the
//! pool handed down (`Page::clone_from`), never into a fresh one.
//!
//! ## Locks
//!
//! Outer → inner: buffer shard (structural mutex → mapping → page latch) →
//! cache shard (directory and pages in transit) → destage queue → WAL.
//! **No device I/O happens under a cache shard lock**: group writes and
//! every disk write of a staged page run on destager threads (or, in
//! sync-destage mode, on the calling thread after every cache lock is
//! released), and a retirement takes the shard lock only after its disk
//! write. [`FaceTier::fetch`] runs under the loading frame's page latch only
//! and [`FaceTier::fetch_batch`] under its window's latches, so a slow fetch
//! delays that page and nobody else; [`FaceTier::write_back_with`] runs
//! under the evicting shard's structural mutex. Both hand disk writes over
//! (an evacuee, a fallout) under those locks, which rank above the destage
//! queue.

use std::sync::Arc;

use face_buffer::{
    FetchOutcome, FetchSource, LowerTier, TierError, TierResult, VictimPull, WriteBackOutcome,
    WriteBackReason,
};
use face_cache::{
    BreakerState, CacheRecoveryInfo, Counter, DegradeAction, DegradeConfig, DegradeController,
    DegradeStats, DestageConfig, DestageJob, DestageSink, DestageStats, Destager, FlashFetch,
    InsertFailure, IoLog, PageSupplier, PendingGroupWrite, ShardedFlashCache, StagedPage,
};
use face_pagestore::{
    DeviceError, DeviceResult, Lsn, Page, PageId, PageStore, StoreError, StoreResult,
};
use face_wal::WalWriter;

/// Counters for the tier's physical activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Pages fetched from the flash cache.
    pub flash_fetches: u64,
    /// Pages fetched from disk.
    pub disk_fetches: u64,
    /// Disk fetches served from a copy in transit to disk (the page's
    /// destage disk write had not completed yet; serving the disk copy
    /// would have been stale).
    pub wash_table_hits: u64,
    /// Pages written to disk (stage-outs, fail-overs and no-cache writes).
    pub disk_writes: u64,
    /// Pages handed to the flash cache.
    pub cache_inserts: u64,
    /// Dirty pages pulled from the DRAM LRU tail into a GSC write batch.
    pub gsc_pulls: u64,
    /// Physical log flushes led by the tier's write-ahead guard (a dirty
    /// page could not be persisted before its log records were).
    pub wal_guard_forces: u64,
}

/// Atomic twin of [`TierStats`], built from the flash-cache crate's relaxed
/// [`Counter`] primitive.
#[derive(Debug, Default)]
struct TierStatCounters {
    flash_fetches: Counter,
    disk_fetches: Counter,
    wash_table_hits: Counter,
    disk_writes: Counter,
    cache_inserts: Counter,
    gsc_pulls: Counter,
    wal_guard_forces: Counter,
}

impl TierStatCounters {
    fn snapshot(&self) -> TierStats {
        TierStats {
            flash_fetches: self.flash_fetches.get(),
            disk_fetches: self.disk_fetches.get(),
            wash_table_hits: self.wash_table_hits.get(),
            disk_writes: self.disk_writes.get(),
            cache_inserts: self.cache_inserts.get(),
            gsc_pulls: self.gsc_pulls.get(),
            wal_guard_forces: self.wal_guard_forces.get(),
        }
    }
}

/// A page leaving DRAM becomes a staged page. `page` is the one private copy
/// of its trip down the hierarchy (the evicted frame's clone, or a frame a
/// GSC pull took out of the pool), and a dirty one is checksummed here and
/// nowhere later (see the `face_pagestore::page` module docs): every hop
/// below — pending group, flash slot, in-transit map, destage queue, disk —
/// shares or moves these bytes. A clean page keeps the checksum it was read
/// with; it is never written to disk.
fn stage(mut page: Page, dirty: bool, fdirty: bool) -> StagedPage {
    if dirty {
        page.update_checksum();
    }
    StagedPage::with_data(page, dirty, fdirty)
}

/// Write `page` to `disk` under a checksum that verifies. A page whose stamp
/// already does — every frame `stage` built — is written as it is, with no
/// copy; one whose stamp does not (a pool frame carries the checksum of its
/// last read, a hand-built one none) is copied and stamped first, so an
/// unverifiable page never reaches the store.
fn write_verifying(disk: &dyn PageStore, page: &Page) -> StoreResult<()> {
    if page.verify_checksum() {
        return disk.write_page(page.id(), page);
    }
    let mut stamped = page.clone();
    stamped.update_checksum();
    disk.write_page(stamped.id(), &stamped)
}

/// The one place a staged page's bytes reach the disk, called only from the
/// destager's jobs ([`DestageTarget::write_pages_to_disk`]), so the write
/// protocol (checksum, store write, accounting, retiring the copy in
/// transit) is stated once. The shared frame was checksummed when it was
/// staged; [`write_verifying`] checks that rather than assume it.
fn persist_staged_page(
    disk: &dyn PageStore,
    stats: &TierStatCounters,
    cache: &ShardedFlashCache,
    s: &StagedPage,
) -> StoreResult<()> {
    let Some(data) = &s.data else {
        // A wound marker (dirty page whose flash bytes were lost): nothing
        // to write, and the marker must *stay* in transit so fetches refuse
        // the stale disk copy until a newer version or WAL redo heals it.
        return Ok(());
    };
    write_verifying(disk, data)?;
    stats.disk_writes.inc();
    // The disk now holds this version: retire the copy in transit unless a
    // newer version of the page was un-cached meanwhile.
    cache.retire_in_transit(s.page, s.lsn);
    Ok(())
}

/// The typed error served for a *wounded* page: its newest committed version
/// was dirty on a flash slot whose bytes are gone, so serving the stale disk
/// copy would let a later write-back stamp it with a newer pageLSN and make
/// WAL redo skip the lost records — silent data loss. The page is
/// unavailable until a newer version is written back or restart redo
/// rebuilds it from the log.
fn lost_page_error(page: PageId, lsn: Lsn) -> TierError {
    TierError::Device(DeviceError::permanent_device(
        face_pagestore::DeviceOp::Read,
        format!(
            "page {page}: newest committed version (lsn {lsn}) was lost with a \
             failing flash slot; it will be rebuilt from the WAL at the next restart"
        ),
    ))
}

/// Lift a disk-store failure into the typed device-error vocabulary the
/// degraded-mode machinery speaks. Fault-injecting stores already report
/// typed errors; anything else (I/O error, closed store) is a permanent
/// whole-device condition.
fn disk_write_error(page: PageId, e: StoreError) -> DeviceError {
    match e {
        StoreError::Device(d) => d,
        other => face_pagestore::DeviceError::permanent_device(
            face_pagestore::DeviceOp::Write,
            format!("disk write of page {page}: {other}"),
        ),
    }
}

/// Take a condemned slot out of rotation: the one quarantine the tier and
/// the destage sink share. The displaced dirty resident, recorded in transit
/// by the cache, is returned for the caller to hand to the disk. A slot
/// counts once, when this call condemned it; an evacuee counts as evacuated
/// only with bytes, and as unread without.
fn quarantine(
    cache: &ShardedFlashCache,
    degrade: &DegradeController,
    shard: usize,
    slot: usize,
) -> Option<StagedPage> {
    let out = cache.quarantine_slot(shard, slot, &mut IoLog::new());
    if out.quarantined {
        degrade.note_quarantined();
    }
    if out.dirty_unread {
        degrade.note_dirty_unread(1);
    }
    if out.evacuee.as_ref().is_some_and(|s| s.data.is_some()) {
        degrade.note_evacuated(1);
    }
    out.evacuee
}

/// The destager's view of the tier: the cache front for group writes and
/// for retiring pages in transit, the disk store for destage writes, the
/// tier's counters for accounting.
struct DestageTarget {
    cache: Arc<ShardedFlashCache>,
    disk: Arc<dyn PageStore>,
    wal: Arc<WalWriter>,
    stats: Arc<TierStatCounters>,
    degrade: Arc<DegradeController>,
}

impl DestageSink for DestageTarget {
    fn apply_group(&self, write: &PendingGroupWrite) -> DeviceResult<()> {
        // A checkpoint or evacuation enqueues every owed group, a copy of
        // one already queued here included: whoever applies second finds it
        // sealed. Don't write — and charge — the batch twice.
        if !self.cache.group_write_pending(write.shard, write.epoch) {
            return Ok(());
        }
        self.cache.apply_group_write(write, &mut IoLog::new())
    }

    fn complete_group(&self, shard: usize, epoch: u64) {
        self.cache.complete_group(shard, epoch, &mut IoLog::new());
    }

    fn abort_group(&self, shard: usize, epoch: u64) -> Vec<StagedPage> {
        self.cache.abort_group(shard, epoch, &mut IoLog::new())
    }

    fn quarantine_slot(&self, shard: usize, slot: usize) -> Option<StagedPage> {
        quarantine(&self.cache, &self.degrade, shard, slot)
    }

    fn write_pages_to_disk(&self, pages: &[StagedPage]) -> Result<(), DeviceError> {
        for s in pages {
            // A job never forces the log, and never has to: the tier's
            // hand-over ran the write-ahead guard, and the fail-over pages of
            // an aborted group or of a slot a job condemned entered a
            // persisting cache behind it.
            debug_assert!(
                s.lsn == Lsn::ZERO || s.lsn < self.wal.durable_lsn(),
                "page {} (lsn {}) reached a destage write ahead of the log",
                s.page,
                s.lsn.0
            );
            persist_staged_page(&*self.disk, &self.stats, &self.cache, s)
                .map_err(|e| disk_write_error(s.page, e))?;
        }
        Ok(())
    }
}

/// What a tier has only beside a flash cache: the cache, the degraded-mode
/// brain that decides retry budgets, slot quarantine and breaker trips for
/// every final device error the cache, the tier or the destager observes,
/// and the destager that owns filled groups and stage-outs.
struct FlashSide {
    cache: Arc<ShardedFlashCache>,
    degrade: Arc<DegradeController>,
    destager: Destager,
}

/// The lower tier used by [`crate::Database`]: an optional flash cache backed
/// by the disk store. Safe for concurrent callers.
pub struct FaceTier {
    flash: Option<FlashSide>,
    disk: Arc<dyn PageStore>,
    /// The engine's log writer: the tier observes the write-ahead rule for
    /// every dirty page it persists — to flash as much as to disk, because a
    /// page in the flash cache *is* part of the persistent database (paper
    /// §4). Forcing here sits at the innermost position of the documented
    /// lock order (buffer shard → cache shard → destage queue → WAL), so no
    /// new ordering is introduced.
    wal: Arc<WalWriter>,
    stats: Arc<TierStatCounters>,
}

impl FaceTier {
    /// Build a tier over `disk` with an optional (sharded) flash cache,
    /// observing the write-ahead rule against `wal`. With a cache the tier
    /// builds the degrade controller the cache front, the tier and the
    /// destager share, and the destager itself: `destage.threads` workers,
    /// or with `0` the inline driver.
    pub fn new(
        disk: Arc<dyn PageStore>,
        cache: Option<ShardedFlashCache>,
        wal: Arc<WalWriter>,
        degrade: DegradeConfig,
        destage: DestageConfig,
    ) -> Self {
        let stats = Arc::new(TierStatCounters::default());
        let flash = cache.map(|cache| {
            let degrade = Arc::new(DegradeController::new(degrade));
            let cache = Arc::new(cache.with_degrade(Arc::clone(&degrade)));
            let target = DestageTarget {
                cache: Arc::clone(&cache),
                disk: Arc::clone(&disk),
                wal: Arc::clone(&wal),
                stats: Arc::clone(&stats),
                degrade: Arc::clone(&degrade),
            };
            let destager = Destager::new(destage, Arc::new(target), Arc::clone(&degrade));
            FlashSide {
                cache,
                degrade,
                destager,
            }
        });
        Self {
            flash,
            disk,
            wal,
            stats,
        }
    }

    /// Write-ahead guard: make every log record up to and including `lsn`
    /// durable before the caller persists a page carrying that pageLSN.
    /// Almost always a no-op under a committing workload (group commit keeps
    /// the durable horizon ahead of evicted pages) — and then one atomic
    /// load, no WAL lock; when it does lead a flush, that flush is counted
    /// in [`TierStats::wal_guard_forces`].
    fn ensure_wal_durable(&self, lsn: Lsn) -> TierResult<()> {
        if lsn == Lsn::ZERO {
            return Ok(());
        }
        match self.wal.force(Lsn(lsn.0 + 1)) {
            Ok(led_flush) => {
                if led_flush {
                    self.stats.wal_guard_forces.inc();
                }
                Ok(())
            }
            Err(e) => Err(TierError::Wal(format!(
                "cannot persist page with LSN {}: {e}",
                lsn.0
            ))),
        }
    }

    /// Whether a flash cache is configured.
    pub fn has_cache(&self) -> bool {
        self.flash.is_some()
    }

    /// The flash cache, if configured.
    pub fn cache(&self) -> Option<&ShardedFlashCache> {
        self.flash.as_ref().map(|f| &*f.cache)
    }

    /// The disk store.
    pub fn disk(&self) -> &Arc<dyn PageStore> {
        &self.disk
    }

    /// Physical-activity counters.
    pub fn stats(&self) -> TierStats {
        self.stats.snapshot()
    }

    /// Destage pipeline counters (queued vs completed), if background
    /// workers run. `None` without a cache and under the inline driver,
    /// which has no pipeline: its work is done when the write-back returns.
    pub fn destage_stats(&self) -> Option<DestageStats> {
        let destager = &self.flash.as_ref()?.destager;
        (destager.threads() > 0).then(|| destager.stats())
    }

    /// Snapshot of the degraded-mode counters and breaker state.
    pub fn degrade_stats(&self) -> Option<DegradeStats> {
        self.flash.as_ref().map(|f| f.degrade.snapshot())
    }

    /// Carry out the degrade controller's verdict on a *final* device error
    /// (retries exhausted): nothing, a slot quarantine, or the breaker trip.
    /// A quarantine's evacuee goes to its shard's disk queue and is also
    /// returned, so a fetch that condemned the slot can serve it.
    fn carry_out(
        &self,
        flash: &FlashSide,
        action: DegradeAction,
    ) -> TierResult<Option<StagedPage>> {
        match action {
            DegradeAction::Continue => Ok(None),
            DegradeAction::Quarantine { shard, slot } => {
                let evacuee = quarantine(&flash.cache, &flash.degrade, shard, slot);
                self.hand_over(flash, shard, evacuee.iter().cloned().collect(), None)?;
                Ok(evacuee)
            }
            DegradeAction::Trip => self.maybe_claim_trip(flash).map(|()| None),
        }
    }

    /// Claim and run the breaker's trip transition if one is requested:
    /// drain the pipeline, evacuate every dirty flash page to disk
    /// (WAL-guarded, in transit until written), then flip the breaker to
    /// `Tripped` so fetches and inserts bypass the flash tier. Exactly one
    /// caller wins the claim; the rest return immediately.
    fn maybe_claim_trip(&self, flash: &FlashSide) -> TierResult<()> {
        let controller = &flash.degrade;
        if controller.state() != BreakerState::TripRequested || !controller.begin_evacuation() {
            return Ok(());
        }
        let (evacuated, persisted) = self.evacuate_to_disk(flash);
        controller.note_evacuated(evacuated as u64);
        // Complete the trip even if the disk also failed: the evacuated
        // pages stay readable in transit, and a wedged `Evacuating` state
        // would keep routing traffic at the bad device.
        controller.complete_trip();
        persisted
    }

    /// The first half of a breaker trip and of a cold reset: drain the
    /// pipeline, write the owed groups, evacuate every dirty flash page (the
    /// cache records them in transit), hand each shard's share to its disk
    /// queue and drain again, so every evacuee is on disk when this returns.
    /// Returns how many carried bytes, and the disk writes' result.
    fn evacuate_to_disk(&self, flash: &FlashSide) -> (usize, TierResult<()>) {
        // The device is failing: a drain or group-write error is more of the
        // same evidence and must not abort the evacuation, which is the
        // recovery. A group that fails for good fails over to disk itself.
        let _ = flash.destager.drain();
        let _ = self.flush_owed_groups(flash);
        let mut evacuated = 0;
        let mut handed = Ok(());
        let evacuations = flash.cache.evacuate_dirty(&mut IoLog::new());
        for (shard, ev) in evacuations.into_iter().enumerate() {
            flash.degrade.note_dirty_unread(ev.unread_dirty);
            evacuated += ev.pages.iter().filter(|s| s.data.is_some()).count();
            handed = handed.and(self.hand_over(flash, shard, ev.pages, None));
        }
        let drained = flash.destager.drain().map_err(TierError::Device);
        (evacuated, handed.and(drained))
    }

    /// Hand every owed group to the destager, stamped with its shard, and
    /// wait for them: a checkpoint's or an evacuation's group write is
    /// retried, aborted, quarantined and failed over like any other.
    fn flush_owed_groups(&self, flash: &FlashSide) -> TierResult<()> {
        for write in flash.cache.owed_groups() {
            self.hand_over(flash, write.shard, Vec::new(), Some(write))?;
        }
        flash.destager.drain().map_err(TierError::Device)
    }

    /// Re-enable a tripped (or merely suspect) flash tier: evacuate whatever
    /// dirty pages remain, wipe the cache cold, and re-close the breaker —
    /// forgiving quarantine tallies (the policies were rebuilt, so their
    /// tombstones are gone too). Returns the number of pages evacuated; a
    /// no-op without a cache.
    pub fn heal_cache(&self) -> TierResult<usize> {
        let n = self.reset_cache_cold()?;
        if let Some(flash) = self.flash.as_ref() {
            flash.degrade.heal();
        }
        Ok(n)
    }

    /// Wait until every queued destage job has completed, surfacing any
    /// background write error. Checkpoints, restarts, cache evacuation and
    /// shutdown call this before touching cache metadata; ordinary
    /// operations never do.
    pub fn drain_destage(&self) -> TierResult<()> {
        match self.flash.as_ref() {
            Some(flash) => flash.destager.drain().map_err(TierError::Device),
            None => Ok(()),
        }
    }

    /// Crash semantics for the pipeline: queued jobs are dropped (their
    /// writes never reached a device) and in-flight completions are
    /// invalidated — a worker mid-write finishes the device operation but
    /// the group is never sealed. The pages in transit are volatile and die
    /// too.
    pub fn crash_destage(&self) {
        if let Some(flash) = self.flash.as_ref() {
            flash.destager.abort_pending();
            flash.cache.clear_in_transit();
        }
    }

    /// Hand `shard`'s destager one job: staged pages bound for the disk,
    /// already in transit (stage-outs, a failed insert's fallout, quarantine
    /// evacuees, evacuations), and a formed group. This is the one way the
    /// tier's work reaches the destager, so one shard's writes land in
    /// hand-over order. The write-ahead guard runs here on the disk-bound
    /// pages — *before* the hand-over, whichever driver takes it — so a
    /// destage job always finds durable log records (normally a no-op: the
    /// guard already ran when the page entered the cache). If it fails, the
    /// pages stay in transit and the error is returned, but the group still
    /// goes over: a formed group nobody enqueues stays owed, and every later
    /// group of its shard completes but cannot seal behind it.
    fn hand_over(
        &self,
        flash: &FlashSide,
        shard: usize,
        to_disk: Vec<StagedPage>,
        group: Option<PendingGroupWrite>,
    ) -> TierResult<()> {
        let guarded = to_disk
            .iter()
            .try_for_each(|s| self.ensure_wal_durable(s.lsn));
        let to_disk = if guarded.is_ok() { to_disk } else { Vec::new() };
        if to_disk.is_empty() && group.is_none() {
            return guarded;
        }
        let job = DestageJob {
            shard,
            to_disk,
            group,
        };
        guarded.and(flash.destager.enqueue(job).map_err(TierError::Device))
    }

    fn write_page_to_disk(&self, page: &Page) -> TierResult<()> {
        self.ensure_wal_durable(page.lsn())?;
        write_verifying(&*self.disk, page)?;
        self.stats.disk_writes.inc();
        // The disk now holds this version: any wound at or below its LSN is
        // healed (the lost flash version is superseded).
        if let Some(flash) = self.flash.as_ref() {
            flash.cache.heal_wound(page.id(), page.lsn());
        }
        Ok(())
    }

    /// Restart support: crash and recover the flash cache from its persistent
    /// flash-resident state (cache checkpoint + sealed journal groups),
    /// reconciling every recovered version against `durable_lsn` — the
    /// durable end of the WAL. A flash page newer than the last durable log
    /// record is discarded; a dirty flash page at or below it substitutes
    /// for disk reads during the redo that follows. Merges the per-shard
    /// reports; returns the default (nothing survived) report when no cache
    /// is configured.
    pub fn recover_cache(&self, durable_lsn: Lsn) -> CacheRecoveryInfo {
        let Some(flash) = self.flash.as_ref() else {
            return CacheRecoveryInfo::default();
        };
        // Let in-flight workers finish their (discarded) device operations
        // before rebuilding metadata — a real restart begins after the dust
        // settles on the devices. Queued jobs were dropped at crash time.
        let _ = flash.destager.drain();
        flash
            .cache
            .crash_and_recover(durable_lsn, &mut IoLog::new())
    }

    /// Restart support, cold variant: **evacuate** every dirty valid flash
    /// page to disk (under FaCE those pages are the only persistent copy of
    /// their contents — wiping without draining loses committed data), then
    /// wipe the cache (stores, journal, checkpoint, directory). Models
    /// decommissioning or replacing the cache device — the baseline the
    /// warm-restart experiments compare against. Returns the number of pages
    /// evacuated; a no-op without a cache.
    pub fn reset_cache_cold(&self) -> TierResult<usize> {
        let Some(flash) = self.flash.as_ref() else {
            return Ok(0);
        };
        let (evacuated, persisted) = self.evacuate_to_disk(flash);
        persisted?;
        flash.cache.reset_cold();
        Ok(evacuated)
    }
}

/// The tier-side [`PageSupplier`] adapter for Group Second Chance: pulls
/// cold dirty frames out of the DRAM buffer (via the pool's non-blocking
/// [`VictimPull`]) to top a shard's write batch up, paper §3.3.
///
/// It runs while the target cache shard's lock is held, so it accepts only
/// pages that (a) route to that same shard and (b) are already WAL-covered —
/// a page needing a log force would put device I/O under the shard lock,
/// which this PR exists to eliminate. Skipped pages simply stay in DRAM.
struct GscSupplier<'a> {
    victims: &'a mut dyn VictimPull,
    cache: &'a ShardedFlashCache,
    target_shard: usize,
    durable_lsn: Lsn,
    stats: &'a TierStatCounters,
}

impl PageSupplier for GscSupplier<'_> {
    fn next_dirty_page(&mut self) -> Option<StagedPage> {
        let cache = self.cache;
        let shard = self.target_shard;
        let (page, dirty, fdirty) = self
            .victims
            .pull(&|id| cache.shard_of(id) == shard, Some(self.durable_lsn))?;
        self.stats.gsc_pulls.inc();
        Some(stage(page, dirty, fdirty))
    }
}

impl FaceTier {
    /// The cache arm of [`FaceTier::fetch`]: returns the served outcome, or
    /// `None` to fall through to the copy in transit and the disk.
    ///
    /// Device errors reaching here already exhausted the concurrent layer's
    /// off-lock transient retries, so each one is *final*: it is reported to
    /// the degrade controller, whose verdict this loop carries out —
    /// `Continue` re-attempts the fetch (bounded: strikes accumulate toward
    /// quarantine or trip), `Quarantine` condemns the slot (a rescued dirty
    /// evacuee serves the fetch directly; otherwise the disk copy is current
    /// again), `Trip` evacuates and flips to disk-only.
    fn fetch_from_cache(
        &self,
        flash: &FlashSide,
        id: PageId,
        buf: &mut Page,
    ) -> TierResult<Option<FetchOutcome>> {
        let looked_up = flash.cache.fetch(id, &mut IoLog::new());
        self.serve_from_cache(flash, id, buf, looked_up)
    }

    /// [`FaceTier::fetch_from_cache`] from the cache's answer on: `looked_up`
    /// is what the cache returned for `id`, on its own or in a batch. A
    /// re-attempt the degrade controller allows is a single-page fetch.
    fn serve_from_cache(
        &self,
        flash: &FlashSide,
        id: PageId,
        buf: &mut Page,
        mut looked_up: DeviceResult<Option<FlashFetch>>,
    ) -> TierResult<Option<FetchOutcome>> {
        let cache = &*flash.cache;
        loop {
            match looked_up {
                Ok(None) => return Ok(None),
                Ok(Some(hit)) => {
                    self.stats.flash_fetches.inc();
                    match hit.data {
                        Some(data) => *buf = data,
                        None => {
                            // The cache is metadata-only (null flash store):
                            // fall back to disk for the bytes but keep the
                            // flash-hit accounting. Hybrid test setups only.
                            self.disk.read_page(id, buf)?;
                        }
                    }
                    return Ok(Some(FetchOutcome {
                        source: FetchSource::FlashCache,
                        dirty: hit.dirty,
                    }));
                }
                Err(e) => {
                    let action = flash.degrade.note_error(cache.shard_of(id), &e);
                    if action == DegradeAction::Continue {
                        looked_up = cache.fetch(id, &mut IoLog::new());
                        continue;
                    }
                    // A quarantine of the slot that held our page rescued
                    // it: serve its bytes (in transit, and queued for their
                    // disk write).
                    if let Some(s) = self.carry_out(flash, action)?.filter(|s| s.page == id) {
                        if let Some(data) = &s.data {
                            buf.clone_from(data);
                            self.stats.flash_fetches.inc();
                            return Ok(Some(FetchOutcome {
                                source: FetchSource::FlashCache,
                                dirty: s.dirty,
                            }));
                        }
                        if s.dirty {
                            // The dirty resident's bytes are gone: the page
                            // is wounded (the quarantine left a marker in
                            // transit) — refuse the stale disk copy.
                            return Err(lost_page_error(id, s.lsn));
                        }
                    }
                    // A clean (or vanished) resident, or a trip: the disk
                    // copy or the copy in transit is current — fall through.
                    return Ok(None);
                }
            }
        }
    }

    /// The rest of a fetch once the flash cache has no copy to serve.
    fn fetch_below_cache(
        &self,
        flash: &FlashSide,
        id: PageId,
        buf: &mut Page,
    ) -> TierResult<FetchOutcome> {
        // A page whose disk write is queued or in flight must be served from
        // its copy in transit: the disk still holds the older version. (The
        // inline driver records and retires within one write-back too, so
        // concurrent fetches need the copy either way.)
        if let Some(s) = flash.cache.in_transit(id) {
            let Some(frame) = &s.data else {
                // A wound marker: the page's newest committed version died
                // with a flash slot. Refuse the stale disk copy (see
                // `lost_page_error`) rather than serve it.
                return Err(lost_page_error(id, s.lsn));
            };
            buf.clone_from(frame);
            self.stats.disk_fetches.inc();
            self.stats.wash_table_hits.inc();
            return Ok(FetchOutcome {
                source: FetchSource::Disk,
                dirty: false,
            });
        }
        self.fetch_from_disk(id, buf)
    }

    /// Serve `id` from the disk store.
    fn fetch_from_disk(&self, id: PageId, buf: &mut Page) -> TierResult<FetchOutcome> {
        self.disk.read_page(id, buf)?;
        self.stats.disk_fetches.inc();
        Ok(FetchOutcome {
            source: FetchSource::Disk,
            dirty: false,
        })
    }
}

impl LowerTier for FaceTier {
    fn fetch(&self, id: PageId, buf: &mut Page) -> TierResult<FetchOutcome> {
        let Some(flash) = self.flash.as_ref() else {
            return self.fetch_from_disk(id, buf);
        };
        self.maybe_claim_trip(flash)?;
        if flash.degrade.bypass_fetches() {
            flash.degrade.note_bypassed_fetch();
        } else if let Some(outcome) = self.fetch_from_cache(flash, id, buf)? {
            return Ok(outcome);
        }
        self.fetch_below_cache(flash, id, buf)
    }

    /// One flash read call per cache shard for the flash-resident pages
    /// ([`ShardedFlashCache::fetch_batch`]); each answer is then served as
    /// [`FaceTier::fetch`] serves it, and the pages the cache does not hold
    /// go to their copies in transit and the disk one by one.
    fn fetch_batch(&self, ids: &[PageId], bufs: &mut [&mut Page]) -> Vec<TierResult<FetchOutcome>> {
        let pages = ids.iter().zip(bufs.iter_mut());
        // Without a cache, or once a trip is requested, running or done, the
        // single-page path claims the trip or bypasses the flash tier.
        let Some(flash) =
            (self.flash.as_ref()).filter(|flash| flash.degrade.state() == BreakerState::Closed)
        else {
            return pages.map(|(&id, buf)| self.fetch(id, buf)).collect();
        };
        let looked_up = flash.cache.fetch_batch(ids, &mut IoLog::new());
        pages
            .zip(looked_up)
            .map(|((&id, buf), looked_up)| {
                match self.serve_from_cache(flash, id, buf, looked_up)? {
                    Some(outcome) => Ok(outcome),
                    None => self.fetch_below_cache(flash, id, buf),
                }
            })
            .collect()
    }

    fn write_back(
        &self,
        page: &Page,
        dirty: bool,
        fdirty: bool,
        reason: WriteBackReason,
    ) -> TierResult<WriteBackOutcome> {
        self.write_back_with(page, dirty, fdirty, reason, &mut face_buffer::NoVictims)
    }

    fn write_back_with(
        &self,
        page: &Page,
        dirty: bool,
        fdirty: bool,
        reason: WriteBackReason,
        victims: &mut dyn VictimPull,
    ) -> TierResult<WriteBackOutcome> {
        /// The page went to the disk store, or needed no write at all.
        const ON_DISK: WriteBackOutcome = WriteBackOutcome {
            in_flash: false,
            on_disk: true,
        };
        let Some(flash) = self.flash.as_ref() else {
            // No flash cache: dirty pages go straight to disk.
            if dirty {
                self.write_page_to_disk(page)?;
            }
            return Ok(ON_DISK);
        };
        self.maybe_claim_trip(flash)?;
        // Disk-only degraded mode: the flash tier is bypassed outright.
        // (Earlier breaker states — TripRequested, Evacuating — still route
        // inserts *through* the failing cache with error absorption: fetches
        // still serve from flash then, and bypassing an insert would let a
        // stale resident copy win a later fetch.)
        if flash.degrade.state() == BreakerState::Tripped {
            flash.degrade.note_bypassed_insert();
            if dirty {
                self.write_page_to_disk(page)?;
            }
            return Ok(ON_DISK);
        }
        let cache = &*flash.cache;
        let shard = cache.shard_of(page.id());
        // Write-ahead guard: a dirty page entering the flash cache joins the
        // persistent database right there (checkpoints flush into flash
        // too), so its log records must be durable first — same rule as a
        // disk write.
        if dirty {
            self.ensure_wal_durable(page.lsn())?;
        }
        let staged = stage(page.clone(), dirty, fdirty);
        let mut io = IoLog::new();
        let inserted = if reason == WriteBackReason::Eviction {
            // Offer the GSC supplier; non-GSC policies ignore it.
            let mut supplier = GscSupplier {
                victims,
                cache,
                target_shard: shard,
                durable_lsn: self.wal.durable_lsn(),
                stats: &self.stats,
            };
            cache.insert_with_supplier(staged, &mut supplier, &mut io)
        } else {
            cache.insert(staged, &mut io)
        };
        let outcome = match inserted {
            Ok(outcome) => outcome,
            Err(InsertFailure { error, fallout }) => {
                // The policy rolled the failed write back and un-cached
                // every dirty page it displaced (this one too, if dirty):
                // they go down like any stage-out, then the controller
                // decides whether the slot or the whole device is condemned
                // — whatever the hand-over returned.
                let fell_out = self.hand_over(flash, shard, fallout, None);
                let verdict = self.carry_out(flash, flash.degrade.note_error(shard, &error));
                fell_out.and(verdict)?;
                return Ok(ON_DISK);
            }
        };
        if outcome.cached {
            self.stats.cache_inserts.inc();
        }
        // Stage-outs and the filled group are the destager's from here, as
        // one job — strictly after every cache lock was released, in both
        // drivers.
        self.hand_over(flash, shard, outcome.staged_out, outcome.pending_group)?;
        Ok(WriteBackOutcome {
            in_flash: outcome.cached,
            on_disk: false,
        })
    }

    fn allocate(&self, file: u32) -> TierResult<PageId> {
        self.disk.allocate(file).map_err(TierError::from)
    }

    /// A checkpoint's one pass through the tier: drain the pipeline, write
    /// every owed group through the destager and checkpoint the cache
    /// metadata, so the pages the checkpoint flushed into flash are durable
    /// there (or, where a group write failed for good, on disk); claim a
    /// trip a failed group write requested; sync the disk.
    fn sync(&self) -> TierResult<()> {
        if let Some(flash) = self.flash.as_ref() {
            flash.destager.drain().map_err(TierError::Device)?;
            self.flush_owed_groups(flash)?;
            flash.cache.checkpoint_metadata(&mut IoLog::new());
            self.maybe_claim_trip(flash)?;
        }
        self.disk.sync()?;
        // A wound marker means a committed version exists only in the WAL
        // (its flash copy died unread). A checkpoint taken now would let the
        // log truncate past the records that can still rebuild it — refuse
        // until the wound heals or a restart's redo repairs the disk copy.
        match self
            .flash
            .as_ref()
            .and_then(|flash| flash.cache.first_wound())
        {
            Some((page, lsn)) => Err(lost_page_error(page, lsn)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use face_buffer::LowerTier;
    use face_cache::{CacheConfig, CachePolicyKind, FlashStore, MemFlashStore};
    use face_pagestore::{InMemoryPageStore, Lsn};
    use face_wal::{InMemoryLogStorage, LogRecord, TxnId};

    /// A log with one `Begin` record in it, as in the engine: `Lsn(1)`, the
    /// pageLSN [`dirty_page`] stamps, then lies inside the log, so the
    /// write-ahead guard has something to make durable for it.
    fn wal() -> Arc<WalWriter> {
        let wal = WalWriter::new(Arc::new(InMemoryLogStorage::new())).unwrap();
        wal.append(&LogRecord::Begin { txn: TxnId(1) });
        Arc::new(wal)
    }

    /// A tier over `disk` and `cache` with a fresh log, default degrade
    /// thresholds and `destage_threads` workers (0: the inline driver).
    fn tier_over(
        disk: Arc<dyn PageStore>,
        cache: Option<ShardedFlashCache>,
        destage_threads: usize,
    ) -> FaceTier {
        let destage = DestageConfig {
            threads: destage_threads,
            queue_depth: 256,
        };
        FaceTier::new(disk, cache, wal(), DegradeConfig::default(), destage)
    }

    fn tier(policy: CachePolicyKind, capacity: usize) -> (FaceTier, Arc<InMemoryPageStore>) {
        let disk = Arc::new(InMemoryPageStore::new());
        let cfg = CacheConfig {
            capacity_pages: capacity,
            group_size: 4,
            ..CacheConfig::default()
        };
        let cache = ShardedFlashCache::build(policy, cfg, 2, |cap| {
            Arc::new(MemFlashStore::new(cap)) as Arc<dyn FlashStore>
        });
        (tier_over(disk.clone(), cache, 0), disk)
    }

    /// An in-memory disk that shows `on_write` every page it is handed,
    /// before storing it.
    struct SpyDisk<F> {
        inner: InMemoryPageStore,
        on_write: F,
    }

    impl<F: Fn(&Page) + Send + Sync> SpyDisk<F> {
        fn new(on_write: F) -> Self {
            Self {
                inner: InMemoryPageStore::new(),
                on_write,
            }
        }
    }

    impl<F: Fn(&Page) + Send + Sync> PageStore for SpyDisk<F> {
        fn read_page(&self, id: PageId, buf: &mut Page) -> StoreResult<()> {
            self.inner.read_page(id, buf)
        }
        fn write_page(&self, id: PageId, page: &Page) -> StoreResult<()> {
            (self.on_write)(page);
            self.inner.write_page(id, page)
        }
        fn allocate(&self, file: u32) -> StoreResult<PageId> {
            self.inner.allocate(file)
        }
        fn num_pages(&self, file: u32) -> u64 {
            self.inner.num_pages(file)
        }
        fn sync(&self) -> StoreResult<()> {
            self.inner.sync()
        }
    }

    fn dirty_page(id: PageId, marker: &[u8]) -> Page {
        let mut p = Page::new(id);
        p.set_lsn(Lsn(1));
        p.write_body(0, marker);
        p
    }

    #[test]
    fn eviction_goes_to_flash_then_serves_fetches() {
        let (tier, disk) = tier(CachePolicyKind::FaceGsc, 64);
        let id = tier.allocate(0).unwrap();
        let page = dirty_page(id, b"cached in flash");
        let out = tier
            .write_back(&page, true, true, WriteBackReason::Eviction)
            .unwrap();
        assert!(out.in_flash);
        assert!(!out.on_disk);
        // The disk never saw the write (write-back).
        let mut buf = Page::zeroed();
        disk.read_page(id, &mut buf).unwrap();
        assert!(!buf.is_formatted());

        // A fetch is served from the flash cache with the dirty flag set.
        let mut buf = Page::zeroed();
        let fetched = tier.fetch(id, &mut buf).unwrap();
        assert_eq!(fetched.source, FetchSource::FlashCache);
        assert!(fetched.dirty);
        assert_eq!(buf.read_body(0, 15), b"cached in flash");
        assert_eq!(tier.stats().flash_fetches, 1);
        assert_eq!(tier.stats().disk_writes, 0);
    }

    #[test]
    fn no_cache_tier_writes_disk_directly() {
        let disk = Arc::new(InMemoryPageStore::new());
        let tier = tier_over(disk.clone(), None, 2);
        assert!(!tier.has_cache());
        assert!(tier.cache().is_none());
        assert!(tier.destage_stats().is_none() && tier.degrade_stats().is_none());
        tier.sync().unwrap();
        assert!(!tier.recover_cache(Lsn(u64::MAX)).survived);
        assert_eq!(tier.reset_cache_cold().unwrap(), 0);
        let id = tier.allocate(0).unwrap();
        let page = dirty_page(id, b"straight to disk");
        let out = tier
            .write_back(&page, true, true, WriteBackReason::Eviction)
            .unwrap();
        assert!(out.on_disk && !out.in_flash);
        let mut buf = Page::zeroed();
        let fetched = tier.fetch(id, &mut buf).unwrap();
        assert_eq!(fetched.source, FetchSource::Disk);
        assert_eq!(buf.read_body(0, 16), b"straight to disk");
    }

    #[test]
    fn stage_outs_reach_the_disk_store() {
        // A tiny FaCE cache: filling it forces dirty stage-outs to disk.
        let (tier, disk) = tier(CachePolicyKind::Face, 2);
        let ids: Vec<PageId> = (0..6).map(|_| tier.allocate(0).unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            let page = dirty_page(*id, format!("v{i}").as_bytes());
            tier.write_back(&page, true, true, WriteBackReason::Eviction)
                .unwrap();
        }
        // Early pages were staged out of the 2-slot cache onto disk.
        assert!(tier.stats().disk_writes >= 2);
        let mut staged_to_disk = 0;
        for id in &ids {
            let mut buf = Page::zeroed();
            disk.read_page(*id, &mut buf).unwrap();
            if buf.is_formatted() {
                staged_to_disk += 1;
            }
        }
        assert!(staged_to_disk >= 2);
    }

    #[test]
    fn an_unstamped_staged_page_still_reaches_the_disk_verifying() {
        let (tier, disk) = tier(CachePolicyKind::Face, 8);
        let ids: Vec<PageId> = (0..2).map(|_| tier.allocate(0).unwrap()).collect();
        // One frame staged the tier's way, one built by hand with the
        // checksum never computed.
        let stamped = stage(dirty_page(ids[0], b"stamped"), true, true);
        let unstamped = StagedPage::with_data(dirty_page(ids[1], b"by hand"), true, true);
        assert!(stamped.data.as_ref().unwrap().verify_checksum());
        assert!(!unstamped.data.as_ref().unwrap().verify_checksum());
        let flash = tier.flash.as_ref().unwrap();
        for s in [stamped, unstamped.clone()] {
            let shard = flash.cache.shard_of(s.page);
            tier.hand_over(flash, shard, vec![s], None).unwrap();
        }
        assert_eq!(tier.stats().disk_writes, 2);
        let mut buf = Page::zeroed();
        disk.read_page(ids[0], &mut buf).unwrap();
        assert_eq!(buf.read_body(0, 7), b"stamped");
        disk.read_page(ids[1], &mut buf).unwrap();
        assert_eq!(buf.read_body(0, 7), b"by hand");
        // The shared frame itself was left alone.
        assert!(!unstamped.data.unwrap().verify_checksum());
    }

    #[test]
    fn a_stamped_page_reaches_the_disk_with_no_copy() {
        // Where the bytes of each page the disk was handed live.
        fn addr(page: &Page) -> usize {
            page.as_bytes().as_ptr() as usize
        }
        let handed = Arc::new(std::sync::Mutex::new(Vec::new()));
        let disk = {
            let handed = Arc::clone(&handed);
            Arc::new(SpyDisk::new(move |p: &Page| {
                assert!(p.verify_checksum(), "an unverifiable page reached the disk");
                handed.lock().unwrap().push(addr(p));
            }))
        };
        let cfg = CacheConfig {
            capacity_pages: 8,
            group_size: 4,
            ..CacheConfig::default()
        };
        let cache = ShardedFlashCache::build(CachePolicyKind::Face, cfg, 1, |cap| {
            Arc::new(MemFlashStore::new(cap)) as Arc<dyn FlashStore>
        });
        let tier = tier_over(disk, cache, 0);
        let ids: Vec<PageId> = (0..3).map(|_| tier.allocate(0).unwrap()).collect();
        // Both routes to the disk — a staged frame handed to the destager,
        // and a page written back past the (tripped) cache — write a page
        // whose stamp verifies from where it is.
        let staged = stage(dirty_page(ids[0], b"staged"), true, true);
        let flash = tier.flash.as_ref().unwrap();
        tier.hand_over(flash, 0, vec![staged.clone()], None)
            .unwrap();
        flash.degrade.request_trip();
        tier.maybe_claim_trip(flash).unwrap();
        let mut stamped = dirty_page(ids[1], b"stamped");
        stamped.update_checksum();
        tier.write_back(&stamped, true, true, WriteBackReason::Eviction)
            .unwrap();
        // A pool frame's stamp is as old as its last read: copied, stamped.
        let frame = dirty_page(ids[2], b"pool frame");
        tier.write_back(&frame, true, true, WriteBackReason::Eviction)
            .unwrap();
        let handed = handed.lock().unwrap();
        assert_eq!(
            handed[..2],
            [addr(staged.data.as_ref().unwrap()), addr(&stamped)]
        );
        assert_eq!(handed.len(), 3);
        assert_ne!(handed[2], addr(&frame));
        assert_eq!(tier.stats().disk_writes, 3);
    }

    #[test]
    fn checkpoint_write_back_stays_in_flash() {
        let (tier, disk) = tier(CachePolicyKind::FaceGsc, 64);
        let id = tier.allocate(0).unwrap();
        let page = dirty_page(id, b"ckpt");
        let out = tier
            .write_back(&page, true, true, WriteBackReason::Checkpoint)
            .unwrap();
        assert!(out.in_flash && !out.on_disk);
        let mut buf = Page::zeroed();
        disk.read_page(id, &mut buf).unwrap();
        assert!(!buf.is_formatted());
    }

    #[test]
    fn wal_guard_forces_log_before_persisting_dirty_pages() {
        let disk = Arc::new(InMemoryPageStore::new());
        let cfg = CacheConfig {
            capacity_pages: 16,
            group_size: 1,
            ..CacheConfig::default()
        };
        let cache = ShardedFlashCache::build(CachePolicyKind::FaceGsc, cfg, 1, |cap| {
            Arc::new(MemFlashStore::new(cap)) as Arc<dyn FlashStore>
        });
        // The log opens with a Begin record, as in the engine: updates never
        // sit at log offset zero (`Lsn::ZERO` is the "never logged" page
        // sentinel).
        let wal = wal();
        let tier = FaceTier::new(
            disk,
            cache,
            Arc::clone(&wal),
            DegradeConfig::default(),
            DestageConfig::default(),
        );

        let id = tier.allocate(0).unwrap();
        let lsn = wal.append(&LogRecord::Update {
            txn: TxnId(1),
            page: id,
            offset: 0,
            data: vec![1; 8],
            before: vec![0; 8],
            prev_lsn: Lsn::ZERO,
        });
        assert_eq!(wal.durable_lsn(), Lsn(0), "nothing durable yet");

        // Evicting the dirty page into the (persisting) flash cache must
        // force the log record first: flash membership is persistence.
        let mut page = dirty_page(id, b"guarded");
        page.set_lsn(lsn);
        tier.write_back(&page, true, true, WriteBackReason::Eviction)
            .unwrap();
        assert!(wal.durable_lsn() > lsn, "record durable before the page");
        assert_eq!(tier.stats().wal_guard_forces, 1);

        // A second write-back of already-covered LSNs is a no-op force.
        tier.write_back(&page, true, true, WriteBackReason::Eviction)
            .unwrap();
        assert_eq!(tier.stats().wal_guard_forces, 1);
    }

    #[test]
    fn destaged_stage_outs_reach_disk_and_stay_readable_meanwhile() {
        // A tiny FaCE cache + a destager: stage-outs are queued, not written
        // synchronously — yet a fetch between enqueue and completion must
        // see the new version (its copy in transit), never the stale disk copy.
        let disk = Arc::new(InMemoryPageStore::new());
        let cfg = CacheConfig {
            capacity_pages: 4,
            group_size: 2,
            ..CacheConfig::default()
        };
        let cache = ShardedFlashCache::build(CachePolicyKind::FaceGr, cfg, 1, |cap| {
            Arc::new(MemFlashStore::new(cap)) as Arc<dyn FlashStore>
        });
        let tier = tier_over(disk.clone(), cache, 1);
        let ids: Vec<PageId> = (0..10).map(|_| tier.allocate(0).unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            let page = dirty_page(*id, format!("v{i}").as_bytes());
            tier.write_back(&page, true, true, WriteBackReason::Eviction)
                .unwrap();
        }
        // Every page is readable right now with its latest contents,
        // whether it sits in flash, in transit or on disk already.
        for (i, id) in ids.iter().enumerate() {
            let mut buf = Page::zeroed();
            tier.fetch(*id, &mut buf).unwrap();
            assert_eq!(
                buf.read_body(0, 2),
                format!("v{i}").as_bytes(),
                "page {i} served stale"
            );
        }
        tier.drain_destage().unwrap();
        let stats = tier.destage_stats().unwrap();
        assert!(stats.groups_enqueued > 0, "group writes used the pipeline");
        assert_eq!(stats.groups_enqueued, stats.groups_completed);
        assert_eq!(stats.disk_pages_enqueued, stats.disk_pages_completed);
        assert!(stats.disk_pages_completed >= 2, "stage-outs destaged");
        // After the drain, the staged-out pages are physically on disk.
        let mut on_disk = 0;
        for id in &ids {
            let mut buf = Page::zeroed();
            disk.read_page(*id, &mut buf).unwrap();
            if buf.is_formatted() {
                on_disk += 1;
            }
        }
        assert!(on_disk >= 2, "destage writes never reached the disk");
    }

    #[test]
    fn foreground_write_back_does_not_pay_for_destage_disk_io() {
        use std::time::{Duration, Instant};

        // A disk whose page writes cost 25 ms — foreground write-backs must
        // not pay it once the destager owns stage-outs.
        let disk = Arc::new(SpyDisk::new(|_| {
            std::thread::sleep(Duration::from_millis(25))
        }));
        let cfg = CacheConfig {
            capacity_pages: 4,
            group_size: 2,
            ..CacheConfig::default()
        };
        let cache = ShardedFlashCache::build(CachePolicyKind::FaceGr, cfg, 1, |cap| {
            Arc::new(MemFlashStore::new(cap)) as Arc<dyn FlashStore>
        });
        let tier = tier_over(disk, cache, 2);
        let ids: Vec<PageId> = (0..12).map(|_| tier.allocate(0).unwrap()).collect();
        // Warm the cache to capacity so later write-backs force stage-outs.
        for id in &ids[..4] {
            tier.write_back(
                &dirty_page(*id, b"w"),
                true,
                true,
                WriteBackReason::Eviction,
            )
            .unwrap();
        }
        // Each of these evicts dirty pages to disk (8 stage-outs, 200 ms of
        // device time) — but the foreground only enqueues.
        let start = Instant::now();
        for id in &ids[4..] {
            tier.write_back(
                &dirty_page(*id, b"x"),
                true,
                true,
                WriteBackReason::Eviction,
            )
            .unwrap();
        }
        let foreground = start.elapsed();
        assert!(
            foreground < Duration::from_millis(100),
            "foreground paid for destage disk I/O: {foreground:?}"
        );
        tier.drain_destage().unwrap();
        assert!(tier.stats().disk_writes >= 4);
    }

    #[test]
    fn concurrent_write_backs_and_fetches() {
        let (tier, _) = tier(CachePolicyKind::FaceGsc, 256);
        let tier = Arc::new(tier);
        let ids: Vec<PageId> = (0..64).map(|_| tier.allocate(0).unwrap()).collect();
        std::thread::scope(|s| {
            for t in 0..4usize {
                let tier = Arc::clone(&tier);
                let ids = ids.clone();
                s.spawn(move || {
                    for (i, id) in ids.iter().enumerate() {
                        if i % 4 == t {
                            let page = dirty_page(*id, &(i as u32).to_le_bytes());
                            tier.write_back(&page, true, true, WriteBackReason::Eviction)
                                .unwrap();
                            let mut buf = Page::zeroed();
                            let out = tier.fetch(*id, &mut buf).unwrap();
                            assert_eq!(out.source, FetchSource::FlashCache);
                            assert_eq!(buf.read_body(0, 4), &(i as u32).to_le_bytes());
                        }
                    }
                });
            }
        });
        assert_eq!(tier.stats().flash_fetches, 64);
        assert_eq!(tier.cache().unwrap().stats().inserts, 64);
    }

    #[test]
    fn fetch_holds_no_cache_shard_lock_across_the_flash_read() {
        // The read-side mirror of the PR-4 write-side gate: a fetch parked
        // inside the flash device read must not stall any other operation
        // hashing to the same (single) cache shard.
        use face_cache::GateFlashStore;
        use std::time::{Duration, Instant};

        let disk = Arc::new(InMemoryPageStore::new());
        let cfg = CacheConfig {
            capacity_pages: 64,
            group_size: 4,
            ..CacheConfig::default()
        };
        let store = Arc::new(GateFlashStore::new(64));
        store.release(); // writes flow; only reads get gated
        let store_for_build = Arc::clone(&store);
        let cache = ShardedFlashCache::build(CachePolicyKind::FaceGr, cfg, 1, move |_| {
            Arc::clone(&store_for_build) as Arc<dyn FlashStore>
        });
        let tier = Arc::new(tier_over(disk, cache, 0));
        let ids: Vec<PageId> = (0..8).map(|_| tier.allocate(0).unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            tier.write_back(
                &dirty_page(*id, format!("v{i}").as_bytes()),
                true,
                true,
                WriteBackReason::Eviction,
            )
            .unwrap();
        }

        store.hold_reads();
        let bg = {
            let tier = Arc::clone(&tier);
            let id = ids[1];
            std::thread::spawn(move || {
                let mut buf = Page::zeroed();
                let out = tier.fetch(id, &mut buf).unwrap();
                assert_eq!(out.source, FetchSource::FlashCache);
                buf
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        // Foreground traffic through the same shard proceeds while the
        // reader is parked inside the device.
        tier.write_back(
            &dirty_page(ids[0], b"w2"),
            true,
            true,
            WriteBackReason::Eviction,
        )
        .unwrap();
        assert!(tier.cache().unwrap().contains(ids[2]));
        assert!(
            start.elapsed() < Duration::from_millis(250),
            "a cache shard lock was held across the blocked flash read"
        );
        store.release_reads();
        let buf = bg.join().unwrap();
        assert_eq!(buf.read_body(0, 2), b"v1", "parked fetch served stale");
    }

    /// Both destage drivers: the inline one and a worker pool.
    const DRIVERS: [usize; 2] = [0, 2];

    #[test]
    fn a_checkpoint_whose_flush_fails_on_shard_1_quarantines_shard_1s_slot() {
        use face_cache::InstrumentedFlashStore;
        use face_pagestore::{DeviceHooks, FaultPlan};
        use std::sync::atomic::{AtomicUsize, Ordering};

        for destage_threads in DRIVERS {
            // Shard 1's device fails every write for good once armed.
            let plan = Arc::new(
                FaultPlan::new(5)
                    .writes_only()
                    .permanent()
                    .probability(1.0)
                    .armed_on_crash(),
            );
            let built = AtomicUsize::new(0);
            let cfg = CacheConfig {
                capacity_pages: 64,
                group_size: 8,
                ..CacheConfig::default()
            };
            let cache = ShardedFlashCache::build(CachePolicyKind::FaceGsc, cfg, 2, |cap| {
                let store = Arc::new(MemFlashStore::new(cap)) as Arc<dyn FlashStore>;
                if built.fetch_add(1, Ordering::SeqCst) == 0 {
                    return store;
                }
                let hooks = DeviceHooks {
                    faults: Some(Arc::clone(&plan)),
                    ..DeviceHooks::default()
                };
                InstrumentedFlashStore::wrap(store, hooks)
            });
            let tier = tier_over(Arc::new(InMemoryPageStore::new()), cache, destage_threads);
            // A partial batch on each shard: the checkpoint owes both groups.
            let ids: Vec<PageId> = (0..8).map(|_| tier.allocate(0).unwrap()).collect();
            for (i, id) in ids.iter().enumerate() {
                let page = dirty_page(*id, format!("v{i}").as_bytes());
                tier.write_back(&page, true, true, WriteBackReason::Checkpoint)
                    .unwrap();
            }
            let cache = tier.cache().unwrap();
            let (on_0, on_1): (Vec<PageId>, Vec<PageId>) =
                ids.iter().copied().partition(|id| cache.shard_of(*id) == 0);
            assert!(!on_0.is_empty() && !on_1.is_empty(), "pages on both shards");

            plan.arm();
            tier.sync().unwrap();
            let stats = tier.degrade_stats().unwrap();
            assert_eq!(stats.quarantined_slots, 1, "driver {destage_threads}");
            assert!(
                on_0.iter().all(|id| cache.contains(*id)),
                "driver {destage_threads}: a healthy shard-0 slot was quarantined"
            );
            // Shard 1's group was aborted and its pages failed over to disk.
            assert!(on_1.iter().all(|id| !cache.contains(*id)));
            for (i, id) in ids.iter().enumerate() {
                let mut buf = Page::zeroed();
                tier.fetch(*id, &mut buf).unwrap();
                assert_eq!(buf.read_body(0, 2), format!("v{i}").as_bytes());
            }
        }
    }

    #[test]
    fn a_checkpoint_group_write_holds_no_cache_shard_lock() {
        use face_cache::GateFlashStore;
        use std::sync::mpsc;
        use std::time::Duration;

        for destage_threads in DRIVERS {
            let store = Arc::new(GateFlashStore::new(64));
            store.release();
            let cfg = CacheConfig {
                capacity_pages: 64,
                group_size: 8,
                ..CacheConfig::default()
            };
            let gate = Arc::clone(&store);
            let cache = ShardedFlashCache::build(CachePolicyKind::FaceGr, cfg, 1, move |_| {
                Arc::clone(&gate) as Arc<dyn FlashStore>
            });
            let tier = Arc::new(tier_over(
                Arc::new(InMemoryPageStore::new()),
                cache,
                destage_threads,
            ));
            let ids: Vec<PageId> = (0..3).map(|_| tier.allocate(0).unwrap()).collect();
            // Two pages of an eight-page group: the checkpoint owes it.
            for id in &ids[..2] {
                let page = dirty_page(*id, b"ck");
                tier.write_back(&page, true, true, WriteBackReason::Checkpoint)
                    .unwrap();
            }
            let calls = store.write_calls();
            store.hold_writes();
            let checkpoint = {
                let tier = Arc::clone(&tier);
                std::thread::spawn(move || tier.sync())
            };
            while store.write_calls() == calls {
                std::thread::yield_now();
            }
            // The group write is parked at the gate. A write-back and a fetch
            // on the same (only) shard must not wait for it.
            let (done, finished) = mpsc::channel();
            let foreground = {
                let tier = Arc::clone(&tier);
                let (fresh, parked) = (ids[2], ids[0]);
                std::thread::spawn(move || {
                    let page = dirty_page(fresh, b"fg");
                    tier.write_back(&page, true, true, WriteBackReason::Eviction)
                        .unwrap();
                    let mut buf = Page::zeroed();
                    tier.fetch(parked, &mut buf).unwrap();
                    done.send(buf.read_body(0, 2).to_vec()).unwrap();
                })
            };
            let served = finished.recv_timeout(Duration::from_millis(250));
            store.release();
            foreground.join().unwrap();
            checkpoint.join().unwrap().unwrap();
            assert_eq!(
                served.ok().as_deref(),
                Some(&b"ck"[..]),
                "destage_threads({destage_threads}): a write-back and a fetch \
                 waited behind the checkpoint's group write"
            );
        }
    }

    /// A one-shard FaCE cache of `capacity` slots and groups of `group_size`
    /// over flash stores `store` builds.
    fn one_shard_face(
        capacity: usize,
        group_size: usize,
        store: impl Fn(usize) -> Arc<dyn FlashStore>,
    ) -> Option<ShardedFlashCache> {
        let cfg = CacheConfig {
            capacity_pages: capacity,
            group_size,
            ..CacheConfig::default()
        };
        ShardedFlashCache::build(CachePolicyKind::Face, cfg, 1, store)
    }

    /// A fresh in-memory flash store behind a view that fails as `plan` says.
    fn faulty_flash(capacity: usize, plan: &Arc<face_pagestore::FaultPlan>) -> Arc<dyn FlashStore> {
        let hooks = face_pagestore::DeviceHooks {
            faults: Some(Arc::clone(plan)),
            ..face_pagestore::DeviceHooks::default()
        };
        face_cache::InstrumentedFlashStore::wrap(Arc::new(MemFlashStore::new(capacity)), hooks)
    }

    #[test]
    fn a_failed_inserts_fallout_lands_after_an_older_queued_stage_out() {
        use face_pagestore::FaultPlan;
        use std::sync::{Condvar, Mutex};

        // With no worker the parked write below would park the test itself.
        for destage_threads in [1, 2] {
            // Flash reads fail for good once armed.
            let plan = Arc::new(
                FaultPlan::new(9)
                    .reads_only()
                    .permanent()
                    .probability(1.0)
                    .armed_on_crash(),
            );
            let cache = one_shard_face(4, 2, |cap| faulty_flash(cap, &plan));
            // The disk parks every write of a version whose body starts `v1`
            // until the gate opens.
            let gate = Arc::new((Mutex::new(false), Condvar::new()));
            let disk = {
                let gate = Arc::clone(&gate);
                Arc::new(SpyDisk::new(move |p: &Page| {
                    if p.read_body(0, 2) == b"v1" {
                        let (open, opened) = &*gate;
                        let mut open = open.lock().unwrap();
                        while !*open {
                            open = opened.wait(open).unwrap();
                        }
                    }
                }))
            };
            let tier = tier_over(disk, cache, destage_threads);
            let write = |id: PageId, body: &[u8], lsn: u64| {
                let mut page = dirty_page(id, body);
                page.set_lsn(Lsn(lsn));
                tier.write_back(&page, true, true, WriteBackReason::Eviction)
            };
            let ids: Vec<PageId> = (0..6).map(|_| tier.allocate(0).unwrap()).collect();
            let a = ids[0];
            // A v1, B, C and D fill the ring: two groups, written and sealed.
            write(a, b"v1", 1).unwrap();
            for id in &ids[1..4] {
                write(*id, b"xx", 1).unwrap();
            }
            tier.drain_destage().unwrap();
            // E and F dequeue A v1 and B: A v1's disk write parks.
            for id in &ids[4..6] {
                write(*id, b"xx", 1).unwrap();
            }
            // A v2's insert must dequeue C and D, whose bytes are on the
            // now-failing device: the insert fails and A v2 falls out.
            plan.arm();
            write(a, b"v2", 2).unwrap();
            {
                let (open, opened) = &*gate;
                *open.lock().unwrap() = true;
                opened.notify_all();
            }
            tier.drain_destage().unwrap();
            let mut buf = Page::zeroed();
            tier.fetch(a, &mut buf).unwrap();
            assert_eq!(
                buf.read_body(0, 2),
                b"v2",
                "destage_threads({destage_threads}): v1 landed on the disk after v2"
            );
        }
    }

    #[test]
    fn a_group_formed_by_a_write_back_whose_stage_out_failed_is_still_written() {
        use face_pagestore::{DeviceHooks, FaultPlan, InstrumentedPageStore};

        // The disk fails one write for good once armed.
        let plan = Arc::new(
            FaultPlan::new(3)
                .writes_only()
                .permanent()
                .probability(1.0)
                .max_faults(1)
                .armed_on_crash(),
        );
        let hooks = DeviceHooks {
            faults: Some(Arc::clone(&plan)),
            ..DeviceHooks::default()
        };
        let disk = InstrumentedPageStore::wrap(Arc::new(InMemoryPageStore::new()), hooks);
        let cache = one_shard_face(5, 2, |cap| {
            Arc::new(MemFlashStore::new(cap)) as Arc<dyn FlashStore>
        });
        let tier = tier_over(disk, cache, 0);
        let write = |id: PageId| {
            tier.write_back(
                &dirty_page(id, b"pg"),
                true,
                true,
                WriteBackReason::Eviction,
            )
        };
        let ids: Vec<PageId> = (0..8).map(|_| tier.allocate(0).unwrap()).collect();
        // A to D: two sealed groups; E waits in the pending batch.
        for id in &ids[..5] {
            write(*id).unwrap();
        }
        // F stages A and B out and forms the group {E, F}; A's disk write
        // fails for good.
        plan.arm();
        assert!(write(ids[5]).is_err(), "the failed stage-out surfaces");
        // G and H form and write the next group.
        for id in &ids[6..] {
            write(*id).unwrap();
        }
        let owed = tier.cache().unwrap().owed_groups();
        assert!(
            owed.is_empty(),
            "a group nobody wrote is still owed: {owed:?}"
        );
    }

    #[test]
    fn a_slot_condemned_twice_counts_once_and_an_unread_evacuee_is_not_evacuated() {
        use face_pagestore::{DeviceOp, FaultPlan};

        for destage_threads in DRIVERS {
            // Flash reads and writes fail for good once armed.
            let plan = Arc::new(
                FaultPlan::new(11)
                    .permanent()
                    .probability(1.0)
                    .armed_on_crash(),
            );
            let cache = one_shard_face(8, 2, |cap| faulty_flash(cap, &plan));
            let tier = tier_over(Arc::new(InMemoryPageStore::new()), cache, destage_threads);
            let flash = tier.flash.as_ref().unwrap();
            let ids: Vec<PageId> = (0..4).map(|_| tier.allocate(0).unwrap()).collect();
            // A and B: a group written and sealed, its bytes on the device.
            for id in &ids[..2] {
                tier.write_back(
                    &dirty_page(*id, b"ab"),
                    true,
                    true,
                    WriteBackReason::Eviction,
                )
                .unwrap();
            }
            tier.drain_destage().unwrap();
            // C and D: a group formed but not yet written.
            let mut io = IoLog::new();
            let mut insert = |id| {
                let staged = stage(dirty_page(id, b"cd"), true, true);
                flash.cache.insert(staged, &mut io).unwrap().pending_group
            };
            let write = [ids[2], ids[3]]
                .into_iter()
                .filter_map(&mut insert)
                .next()
                .expect("C forms a group");
            plan.arm();
            // The tier condemns C's slot and hands C to the disk ...
            let slot = write.pages[0].slot;
            let err = DeviceError::permanent_slot(DeviceOp::Read, slot, "condemned");
            let evacuee = tier
                .carry_out(flash, flash.degrade.note_error(0, &err))
                .unwrap();
            assert_eq!(evacuee.map(|s| s.page), Some(ids[2]));
            // ... and then the group's batch write fails on the same slot.
            let job = DestageJob {
                shard: write.shard,
                to_disk: Vec::new(),
                group: Some(write),
            };
            flash.destager.enqueue(job).unwrap();
            tier.drain_destage().unwrap();
            let stats = tier.degrade_stats().unwrap();
            assert_eq!(
                (stats.quarantined_slots, stats.evacuated_pages),
                (1, 1),
                "driver {destage_threads}"
            );
            // A's bytes are on the failing device only: condemning its slot
            // leaves a wound, unread and not evacuated.
            let mut buf = Page::zeroed();
            assert!(tier.fetch(ids[0], &mut buf).is_err());
            let stats = tier.degrade_stats().unwrap();
            assert_eq!(
                (
                    stats.quarantined_slots,
                    stats.evacuated_pages,
                    stats.dirty_pages_unread
                ),
                (2, 1, 1),
                "driver {destage_threads}"
            );
        }
    }

    #[test]
    fn a_sync_refuses_while_a_wound_stands_and_succeeds_once_it_heals() {
        use face_pagestore::FaultPlan;

        for destage_threads in DRIVERS {
            // Flash reads fail for good once armed.
            let plan = Arc::new(
                FaultPlan::new(17)
                    .reads_only()
                    .permanent()
                    .probability(1.0)
                    .armed_on_crash(),
            );
            let cache = one_shard_face(8, 2, |cap| faulty_flash(cap, &plan));
            let tier = tier_over(Arc::new(InMemoryPageStore::new()), cache, destage_threads);
            let ids: Vec<PageId> = (0..2).map(|_| tier.allocate(0).unwrap()).collect();
            // A and B: a group written and sealed, dirty on the device only.
            for id in &ids {
                tier.write_back(
                    &dirty_page(*id, b"v1"),
                    true,
                    true,
                    WriteBackReason::Eviction,
                )
                .unwrap();
            }
            tier.sync().unwrap();
            plan.arm();
            // A's read fails: its slot is quarantined with the dirty resident
            // unread, leaving a data-less marker in transit.
            let mut buf = Page::zeroed();
            assert!(tier.fetch(ids[0], &mut buf).is_err());
            let cache = tier.cache().unwrap();
            assert_eq!(cache.first_wound(), Some((ids[0], Lsn(1))));
            let refused = tier.sync().expect_err("a sync with a wound standing");
            assert!(
                refused
                    .to_string()
                    .contains("was lost with a failing flash slot"),
                "driver {destage_threads}: {refused}"
            );
            // A newer version of A placed in the cache heals the wound.
            tier.write_back(
                &dirty_page(ids[0], b"v2"),
                true,
                true,
                WriteBackReason::Eviction,
            )
            .unwrap();
            assert_eq!(cache.first_wound(), None);
            tier.sync().unwrap();
        }
    }
}
