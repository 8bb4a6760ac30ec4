//! The asynchronous group-write & destage pipeline.
//!
//! As in the paper's host systems (PostgreSQL's bgwriter, Oracle's DBWR),
//! the *foreground* thread does not pay for a group's device I/O: an insert
//! that fills a replacement group only mutates the shard's directory and
//! hands back a [`PendingGroupWrite`]; the batch write, the journal-group
//! seal and the disk writes of dequeued dirty pages run on the destager.
//!
//! ## Ordering and durability
//!
//! * A job ([`DestageJob`]) is one hand-over from one cache shard, and
//!   `execute` runs its phases in the one order its docs list. Every disk
//!   write of a job, an aborted group's fallout included, goes through one
//!   retrying write-out.
//! * Jobs are routed to workers by **cache shard** (`shard % threads`), so
//!   one shard's jobs execute in FIFO order on one worker. Two versions of
//!   the same page can therefore never reach the disk (or the same flash
//!   slot) out of order — a page always routes to the same shard, and a
//!   shard always routes to the same worker.
//! * A group's journal records are sealed (made crash-durable) by
//!   [`crate::RingCache::complete_group`] strictly **after** its
//!   batch write is applied, preserving PR 3's invariant that metadata never
//!   outlives data it describes. Between enqueue and completion the records
//!   are RAM-resident in the ring's in-flight table and die with a crash,
//!   together with the group's data.
//! * The write-ahead guard runs in the foreground **before** a page enters
//!   the pipeline, so every queued page already has durable log records.
//!
//! ## Crash semantics
//!
//! [`Destager::abort_pending`] models a crash: queued jobs are dropped (their
//! writes never reached the device) and the generation counter is bumped so a
//! worker that is mid-write finishes its device operation but *discards* the
//! completion — the bytes may land on flash, but the group is never sealed.
//! Those are precisely the two in-pipeline crash points recovery must
//! tolerate: work enqueued but unwritten (data and metadata both lost —
//! consistent), and data written but metadata unsealed (the journal does not
//! reference the slots; the bounded tail scan re-admits them only under the
//! WAL reconciliation rules).
//!
//! ## Drivers
//!
//! What a job does — `execute` — is written once and has two drivers.
//! With [`DestageConfig::threads`] ≥ 1 the worker threads call it on what
//! they pop from their queues. With `threads: 0` (the engine's sync A/B
//! baseline) there is no queue and no worker: [`Destager::enqueue`] calls it
//! on the enqueuing thread and returns when the job is done. Retry, abort,
//! fail-over and the seal-after-write order are therefore the same protocol
//! in both; only who pays the device time differs.
//!
//! ## Backpressure
//!
//! Each worker owns a bounded queue ([`DestageConfig::queue_depth`] jobs).
//! A foreground thread that enqueues into a full queue blocks — without
//! holding any cache lock — until the worker drains; the stall is counted in
//! [`DestageStats::backpressure_stalls`]. A page whose group write has not
//! completed is served from its slot's RAM frame, which the ring's slot
//! table keeps until the group seals, so the foreground never waits for a
//! *specific* group to finish.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use face_analysis::classes::{DESTAGE_QUEUE, DIAG};
use face_analysis::{OrderedCondvar, OrderedMutex};
use face_pagestore::{backoff_sleep, DeviceError, DeviceResult, Lsn, PageId};

use crate::degrade::{DegradeAction, DegradeController};
use crate::io::IoLog;
use crate::store::FlashStore;
use crate::types::{Counter, StagedPage};

/// One slot of a pending group write: where the version goes and, in
/// data-carrying mode, the shared frame to write there.
#[derive(Debug, Clone)]
pub struct PendingSlotWrite {
    /// The flash slot the version was assigned.
    pub slot: usize,
    /// The cached page.
    pub page: PageId,
    /// The pageLSN of the cached version.
    pub lsn: Lsn,
    /// The page contents (`None` with header-only or null stores).
    pub data: Option<Arc<face_pagestore::Page>>,
}

/// A formed replacement group: the slots its physical batch write must fill.
/// Produced under the shard lock (directory mutation only); handed back to
/// the caller under [`crate::types::CacheConfig::defer_group_writes`] and
/// then applied and completed off-lock.
#[derive(Debug, Clone)]
pub struct PendingGroupWrite {
    /// The cache shard that formed the group (stamped by
    /// [`crate::concurrent::ShardedFlashCache`]; 0 for direct policy use).
    pub shard: usize,
    /// The journal group epoch these slots seal under.
    pub epoch: u64,
    /// The slots to write, in rear-assignment (queue) order.
    pub pages: Vec<PendingSlotWrite>,
}

impl PendingGroupWrite {
    /// Perform the group's physical flash I/O against `store`: one
    /// batch-sized sequential write of the data pages (the slots were
    /// assigned consecutively at the queue rear) plus the slot-header notes
    /// recovery's tail scan relies on. Holds **no** cache lock — that is the
    /// point of deferring it.
    ///
    /// On `Err` a prefix of the batch may have reached flash, but the
    /// group's journal records are never sealed, so recovery cannot see the
    /// partial group (crash-equivalent). Retrying the whole batch is safe —
    /// it rewrites the same slots with the same bytes.
    pub fn apply(&self, store: &dyn FlashStore, io: &mut IoLog) -> DeviceResult<()> {
        if self.pages.is_empty() {
            return Ok(());
        }
        if store.carries_data() {
            let batch: Vec<(usize, &face_pagestore::Page)> = self
                .pages
                .iter()
                .filter_map(|w| w.data.as_ref().map(|d| (w.slot, &**d)))
                .collect();
            store.write_batch(&batch)?;
        }
        io.flash_write_seq(self.pages.len() as u32);
        for w in &self.pages {
            store.note_slot_header(w.slot, w.page, w.lsn);
        }
        Ok(())
    }
}

/// Configuration of a [`Destager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DestageConfig {
    /// Worker threads. `0` selects the inline driver: [`Destager::enqueue`]
    /// runs the job on the calling thread before it returns.
    pub threads: usize,
    /// Maximum queued jobs per worker before enqueue blocks (backpressure).
    pub queue_depth: usize,
}

impl Default for DestageConfig {
    fn default() -> Self {
        Self {
            threads: 2,
            queue_depth: 64,
        }
    }
}

/// One hand-over from the tier to a shard's destager: the staged pages the
/// shard sends to the disk, and the group it formed, if any (phases in
/// `execute`'s order).
#[derive(Debug, Clone)]
pub struct DestageJob {
    /// The cache shard that handed the job over (routing key).
    pub shard: usize,
    /// Pages bound for the disk array, each already WAL-covered and in
    /// transit.
    pub to_disk: Vec<StagedPage>,
    /// A deferred flash group write: apply the batch, then seal its journal
    /// group.
    pub group: Option<PendingGroupWrite>,
}

/// Where the destager sends its work. Implemented by the engine tier, which
/// knows the flash stores, the cache front for group completion and the disk
/// store.
pub trait DestageSink: Send + Sync {
    /// Apply a group's physical flash batch write (no cache lock held).
    fn apply_group(&self, write: &PendingGroupWrite) -> DeviceResult<()>;
    /// Seal the group's journal records now that its data is on flash
    /// (briefly takes the shard lock).
    fn complete_group(&self, shard: usize, epoch: u64);
    /// Abandon a group whose batch write failed for good: drop its journal
    /// records, free its slots and return the dirty pages that now need
    /// disk failover (each still WAL-covered). Default: nothing to abort.
    fn abort_group(&self, shard: usize, epoch: u64) -> Vec<StagedPage> {
        let _ = (shard, epoch);
        Vec::new()
    }
    /// Take a condemned slot out of rotation and count it with the degrade
    /// controller, returning the dirty evacuee (if any) that needs disk
    /// failover. Default: nothing to quarantine.
    fn quarantine_slot(&self, shard: usize, slot: usize) -> Option<StagedPage> {
        let _ = (shard, slot);
        None
    }
    /// Write dequeued dirty pages to the disk array.
    fn write_pages_to_disk(&self, pages: &[StagedPage]) -> Result<(), DeviceError>;
}

/// Counters describing pipeline activity — the queued-versus-completed split
/// the accounting contract promises (a queued write is *not yet* physical
/// I/O; only completion moves it into the completed tallies).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DestageStats {
    /// Group writes accepted into the pipeline.
    pub groups_enqueued: u64,
    /// Group writes applied and sealed.
    pub groups_completed: u64,
    /// Group writes dropped by a crash ([`Destager::abort_pending`]).
    pub groups_dropped: u64,
    /// Dirty pages accepted for disk destaging: a job's pages when it is
    /// enqueued, an aborted group's fallout when its job takes it over.
    /// Each one ends up completed or dropped.
    pub disk_pages_enqueued: u64,
    /// Dirty pages written to disk.
    pub disk_pages_completed: u64,
    /// Dirty pages dropped by a crash.
    pub disk_pages_dropped: u64,
    /// Enqueue attempts that blocked on a full worker queue.
    pub backpressure_stalls: u64,
    /// Transient device errors retried with backoff.
    pub retries: u64,
    /// Device errors that exhausted their retries (or were never worth
    /// retrying) with `kind == Transient`.
    pub transient_errors: u64,
    /// Device errors with `kind == Permanent`.
    pub permanent_errors: u64,
    /// Group writes abandoned after a final device error (slots freed,
    /// dirty pages failed over to disk).
    pub groups_aborted: u64,
}

#[derive(Debug, Default)]
struct DestageStatCounters {
    groups_enqueued: Counter,
    groups_completed: Counter,
    groups_dropped: Counter,
    disk_pages_enqueued: Counter,
    disk_pages_completed: Counter,
    disk_pages_dropped: Counter,
    backpressure_stalls: Counter,
    retries: Counter,
    transient_errors: Counter,
    permanent_errors: Counter,
    groups_aborted: Counter,
}

impl DestageStatCounters {
    fn snapshot(&self) -> DestageStats {
        DestageStats {
            groups_enqueued: self.groups_enqueued.get(),
            groups_completed: self.groups_completed.get(),
            groups_dropped: self.groups_dropped.get(),
            disk_pages_enqueued: self.disk_pages_enqueued.get(),
            disk_pages_completed: self.disk_pages_completed.get(),
            disk_pages_dropped: self.disk_pages_dropped.get(),
            backpressure_stalls: self.backpressure_stalls.get(),
            retries: self.retries.get(),
            transient_errors: self.transient_errors.get(),
            permanent_errors: self.permanent_errors.get(),
            groups_aborted: self.groups_aborted.get(),
        }
    }

    /// Count a job's pages and group as dropped by a crash.
    fn note_dropped(&self, job: &DestageJob) {
        self.disk_pages_dropped.add(job.to_disk.len() as u64);
        if job.group.is_some() {
            self.groups_dropped.inc();
        }
    }

    fn note_final_error(&self, err: &DeviceError) {
        if err.is_transient() {
            self.transient_errors.inc();
        } else {
            self.permanent_errors.inc();
        }
    }
}

struct QueueState {
    jobs: VecDeque<(u64, DestageJob)>,
    /// The worker is executing a popped job right now.
    busy: bool,
}

struct WorkerQueue {
    state: OrderedMutex<QueueState>,
    /// Signalled when a job is pushed or shutdown is requested.
    work_ready: OrderedCondvar,
    /// Signalled when the queue shrinks or goes idle.
    space_ready: OrderedCondvar,
}

struct Shared {
    queues: Vec<WorkerQueue>,
    queue_depth: usize,
    sink: Arc<dyn DestageSink>,
    stats: DestageStatCounters,
    /// Bumped by [`Destager::abort_pending`]; a worker mid-job compares its
    /// job's generation before sealing/counting, so completions of a
    /// pre-crash job are discarded.
    generation: AtomicU64,
    shutdown: AtomicBool,
    last_error: OrderedMutex<Option<DeviceError>>,
    /// Degraded-mode brain: hears every final group-write error and sets the
    /// retry budget.
    controller: Arc<DegradeController>,
}

/// A fixed pool of background destager threads with bounded per-worker
/// queues, shard-affine routing and crash-abort support — or, with zero
/// threads, the same jobs run on the enqueuing thread. See the module docs
/// for the ordering and durability contract.
pub struct Destager {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Destager {
    /// Spawn `config.threads` workers draining into `sink` (none for the
    /// inline driver). Final group-write errors are reported to
    /// `controller`, whose configuration also bounds the retries.
    pub fn new(
        config: DestageConfig,
        sink: Arc<dyn DestageSink>,
        controller: Arc<DegradeController>,
    ) -> Self {
        let threads = config.threads;
        let shared = Arc::new(Shared {
            queues: (0..threads)
                .map(|_| WorkerQueue {
                    state: OrderedMutex::new(
                        DESTAGE_QUEUE,
                        QueueState {
                            jobs: VecDeque::new(),
                            busy: false,
                        },
                    ),
                    work_ready: OrderedCondvar::new(),
                    space_ready: OrderedCondvar::new(),
                })
                .collect(),
            queue_depth: config.queue_depth.max(1),
            sink,
            stats: DestageStatCounters::default(),
            generation: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            last_error: OrderedMutex::new(DIAG, None),
            controller,
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("face-destage-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    // Thread-spawn failure is an OS resource error at pool
                    // construction, not device I/O: panicking is right.
                    .expect("spawn destager worker") // face-lint: allow(unwrap-device)
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of worker threads (0: jobs run inside [`Destager::enqueue`]).
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Hand a job over. With workers: queue it, blocking (without any cache
    /// lock) while the target worker's queue is full; always `Ok` — a write
    /// error surfaces at the next [`Destager::drain`]. Without: run it here,
    /// and return the write error nothing could absorb to the caller whose
    /// write-back caused it.
    pub fn enqueue(&self, job: DestageJob) -> Result<(), DeviceError> {
        let stats = &self.shared.stats;
        stats.disk_pages_enqueued.add(job.to_disk.len() as u64);
        if job.group.is_some() {
            stats.groups_enqueued.inc();
        }
        let generation = self.shared.generation.load(Ordering::Acquire);
        if self.shared.queues.is_empty() {
            return execute(&self.shared, generation, job);
        }
        let queue = &self.shared.queues[job.shard % self.shared.queues.len()];
        let mut state = queue.state.lock();
        // One logical stall per blocking enqueue, however many wakeups the
        // wait loop takes (notify_all wakes every sleeper on each completed
        // job, often with the queue still full).
        let mut stalled = false;
        while state.jobs.len() >= self.shared.queue_depth
            && !self.shared.shutdown.load(Ordering::Acquire)
        {
            if !stalled {
                stalled = true;
                self.shared.stats.backpressure_stalls.inc();
            }
            state = queue.space_ready.wait(state);
        }
        state.jobs.push_back((generation, job));
        drop(state);
        queue.work_ready.notify_one();
        Ok(())
    }

    /// Wait until every queue is empty and every worker idle, then surface
    /// any background write error exactly once.
    pub fn drain(&self) -> Result<(), DeviceError> {
        for queue in &self.shared.queues {
            let mut state = queue.state.lock();
            while !state.jobs.is_empty() || state.busy {
                state = queue.space_ready.wait(state);
            }
        }
        self.shared.last_error.lock().take().map_or(Ok(()), Err)
    }

    /// Crash semantics: drop every queued job and invalidate in-flight
    /// completions (a worker mid-write finishes the device operation but
    /// never seals or counts it). Returns immediately; callers that need the
    /// in-flight writes finished (restart does) follow up with
    /// [`Destager::drain`].
    pub fn abort_pending(&self) {
        self.shared.generation.fetch_add(1, Ordering::AcqRel);
        for queue in &self.shared.queues {
            let dropped = std::mem::take(&mut queue.state.lock().jobs);
            for (_, job) in dropped {
                self.shared.stats.note_dropped(&job);
            }
            queue.space_ready.notify_all();
        }
    }

    /// Pipeline activity counters.
    pub fn stats(&self) -> DestageStats {
        self.shared.stats.snapshot()
    }
}

impl Drop for Destager {
    fn drop(&mut self) {
        for queue in &self.shared.queues {
            // Raised under the queue's lock: a worker reads the flag under
            // it and then waits, so the notify cannot fall in between.
            let state = queue.state.lock();
            self.shared.shutdown.store(true, Ordering::Release);
            drop(state);
            queue.work_ready.notify_all();
            queue.space_ready.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let queue = &shared.queues[index];
    loop {
        let (generation, job) = {
            let mut state = queue.state.lock();
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    state.busy = true;
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                state = queue.work_ready.wait(state);
            }
        };
        if let Err(e) = execute(shared, generation, job) {
            *shared.last_error.lock() = Some(e);
        }
        queue.state.lock().busy = false;
        // Wake both backpressured producers and drain()ers.
        queue.space_ready.notify_all();
    }
}

/// Run one job to its end on the calling thread — a worker, or under the
/// inline driver the thread that enqueued it. The phases run in this order,
/// and a crash ([`Destager::abort_pending`]) before phase 1, phase 2 or the
/// seal drops what is left:
///
/// 1. the stage-outs go to disk;
/// 2. the group's batch write runs;
/// 3. the group seals, or — its batch failed for good — it aborts, its slot
///    may be quarantined and its dirty pages go to disk.
///
/// `Err` is a disk write-out that failed for good with nothing below it to
/// absorb the pages (the first, if two did): a worker parks it for the next
/// [`Destager::drain`], the inline driver returns it.
fn execute(shared: &Shared, generation: u64, job: DestageJob) -> Result<(), DeviceError> {
    let current = || shared.generation.load(Ordering::Acquire) == generation;
    if !current() {
        shared.stats.note_dropped(&job);
        return Ok(());
    }
    let written = write_out(shared, job.to_disk);
    let Some(write) = job.group else {
        return written;
    };
    if !current() {
        shared.stats.groups_dropped.inc();
        return written;
    }
    match retrying(shared, Some(&current), || shared.sink.apply_group(&write)) {
        // Crash point: the batch hit the device but the crash raced the
        // seal — the journal must never reference it.
        Ok(()) if !current() => shared.stats.groups_dropped.inc(),
        Ok(()) => {
            shared.sink.complete_group(write.shard, write.epoch);
            shared.stats.groups_completed.inc();
        }
        Err(e) => {
            // A successfully absorbed abort (slots freed, dirty pages safe
            // on disk) shows in the abort and error counters, not as an
            // error: only a fail-over that itself failed leaves data in
            // jeopardy.
            let fallout = fail_group(shared, &write, &e);
            shared.stats.disk_pages_enqueued.add(fallout.len() as u64);
            return written.and(write_out(shared, fallout));
        }
    }
    written
}

/// Run `op` until it succeeds or fails for good: a transient error is
/// retried with backoff within the controller's budget while the pool runs.
/// A flash write passes its job's `current` check, whose `false` (a crash
/// came) ends the retries, and its retries count with the controller. The
/// disk is the backstop, not the breaker's subject: its retries are never
/// reported (tripping would not help — there is no tier below disk to fail
/// over to; recovery's WAL redo is the last resort).
fn retrying(
    shared: &Shared,
    current: Option<&dyn Fn() -> bool>,
    mut op: impl FnMut() -> DeviceResult<()>,
) -> DeviceResult<()> {
    let mut attempt: u32 = 0;
    loop {
        match op() {
            Err(e)
                if e.is_transient()
                    && attempt < shared.controller.config().max_retries
                    && !shared.shutdown.load(Ordering::Acquire)
                    && current.is_none_or(|current| current()) =>
            {
                attempt += 1;
                shared.stats.retries.inc();
                if current.is_some() {
                    shared.controller.note_retry();
                }
                backoff_sleep(attempt);
            }
            done => return done,
        }
    }
}

/// The one way a job's pages reach the disk: the stage-outs it was handed
/// and the fallout of its aborted group, each written with retries.
fn write_out(shared: &Shared, pages: Vec<StagedPage>) -> Result<(), DeviceError> {
    if pages.is_empty() {
        return Ok(());
    }
    let n = pages.len() as u64;
    let written = retrying(shared, None, || shared.sink.write_pages_to_disk(&pages));
    match &written {
        Ok(()) => shared.stats.disk_pages_completed.add(n),
        Err(e) => {
            shared.stats.note_final_error(e);
            shared.stats.disk_pages_dropped.add(n);
        }
    }
    written
}

/// A group write failed for good: abandon the group (its journal records
/// drop with it, its slots free up) and let the degrade controller decide
/// whether the offending slot leaves the rotation or the breaker trips.
/// Returns the dirty pages that now need the disk.
fn fail_group(shared: &Shared, write: &PendingGroupWrite, err: &DeviceError) -> Vec<StagedPage> {
    shared.stats.note_final_error(err);
    shared.stats.groups_aborted.inc();
    let mut fallout = shared.sink.abort_group(write.shard, write.epoch);
    // The sink counts the quarantine and its evacuee, as the tier does for
    // the slots it condemns.
    if let DegradeAction::Quarantine { shard, slot } =
        shared.controller.note_error(write.shard, err)
    {
        fallout.extend(shared.sink.quarantine_slot(shard, slot));
    }
    // `DegradeAction::Trip` already moved the breaker to TripRequested
    // inside note_error; the next foreground operation claims the
    // evacuation (a job never forces the log). `Continue` needs nothing.
    fallout
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    use face_pagestore::DeviceOp;

    use crate::degrade::DegradeConfig;

    /// Both drivers: the inline one and a worker pool.
    const DRIVERS: [usize; 2] = [0, 2];

    #[derive(Default)]
    struct RecordingSink {
        groups: AtomicUsize,
        completions: AtomicUsize,
        disk_pages: AtomicUsize,
        aborts: AtomicUsize,
        quarantines: AtomicUsize,
        delay: Option<Duration>,
        /// apply_group meets the test at the first barrier on entry and
        /// waits at the second until the test lets it go on.
        gate: Option<(Barrier, Barrier)>,
        fail_disk: AtomicBool,
        /// Fail the next N write_pages_to_disk calls with a transient error.
        fail_disk_transient: AtomicUsize,
        /// Fail the next N apply_group calls with a transient slot error.
        fail_group_transient: AtomicUsize,
        /// Fail every apply_group call with a permanent slot error.
        fail_group_permanent: AtomicBool,
        /// Pages abort_group hands back for disk failover: pages `0..n` of
        /// file 0, at LSN 2.
        abort_fallout: usize,
        /// Every page written to disk, in write order.
        written: std::sync::Mutex<Vec<(PageId, Lsn)>>,
        /// The thread of every sink call, in call order.
        callers: std::sync::Mutex<Vec<ThreadId>>,
    }

    impl RecordingSink {
        fn called(&self) {
            self.callers
                .lock()
                .unwrap()
                .push(std::thread::current().id());
        }
    }

    impl DestageSink for RecordingSink {
        fn apply_group(&self, _write: &PendingGroupWrite) -> DeviceResult<()> {
            self.called();
            if let Some(d) = self.delay {
                std::thread::sleep(d);
            }
            if let Some((entered, go_on)) = &self.gate {
                entered.wait();
                go_on.wait();
            }
            if self.fail_group_permanent.load(Ordering::SeqCst) {
                return Err(DeviceError::permanent_slot(DeviceOp::Write, 0, "injected"));
            }
            if self
                .fail_group_transient
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                return Err(DeviceError::transient_slot(DeviceOp::Write, 0, "injected"));
            }
            self.groups.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
        fn complete_group(&self, _shard: usize, _epoch: u64) {
            self.called();
            self.completions.fetch_add(1, Ordering::SeqCst);
        }
        fn abort_group(&self, _shard: usize, _epoch: u64) -> Vec<StagedPage> {
            self.called();
            self.aborts.fetch_add(1, Ordering::SeqCst);
            (0..self.abort_fallout)
                .map(|i| StagedPage::meta_only(PageId::new(0, i as u32), Lsn(2), true, false))
                .collect()
        }
        fn quarantine_slot(&self, _shard: usize, _slot: usize) -> Option<StagedPage> {
            self.called();
            self.quarantines.fetch_add(1, Ordering::SeqCst);
            None
        }
        fn write_pages_to_disk(&self, pages: &[StagedPage]) -> Result<(), DeviceError> {
            self.called();
            if self.fail_disk.load(Ordering::SeqCst) {
                return Err(DeviceError::permanent_device(
                    DeviceOp::Write,
                    "injected disk failure",
                ));
            }
            if self
                .fail_disk_transient
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                return Err(DeviceError::transient_device(DeviceOp::Write, "injected"));
            }
            self.disk_pages.fetch_add(pages.len(), Ordering::SeqCst);
            let mut written = self.written.lock().unwrap();
            written.extend(pages.iter().map(|s| (s.page, s.lsn)));
            Ok(())
        }
    }

    fn destager(
        threads: usize,
        queue_depth: usize,
        sink: &Arc<RecordingSink>,
        controller: &Arc<DegradeController>,
    ) -> Destager {
        Destager::new(
            DestageConfig {
                threads,
                queue_depth,
            },
            Arc::clone(sink) as Arc<dyn DestageSink>,
            Arc::clone(controller),
        )
    }

    fn group(shard: usize, epoch: u64) -> PendingGroupWrite {
        PendingGroupWrite {
            shard,
            epoch,
            pages: vec![PendingSlotWrite {
                slot: 0,
                page: PageId::new(0, epoch as u32),
                lsn: Lsn(epoch),
                data: None,
            }],
        }
    }

    fn group_job(shard: usize, epoch: u64) -> DestageJob {
        DestageJob {
            shard,
            to_disk: Vec::new(),
            group: Some(group(shard, epoch)),
        }
    }

    fn disk_job(shard: usize, page_no: u32) -> DestageJob {
        DestageJob {
            shard,
            to_disk: vec![StagedPage::meta_only(
                PageId::new(0, page_no),
                Lsn(1),
                true,
                false,
            )],
            group: None,
        }
    }

    /// Drain `d`, then check its books: every page a job took over was
    /// written or dropped.
    fn drain(d: &Destager) -> Result<(), DeviceError> {
        let drained = d.drain();
        let s = d.stats();
        assert_eq!(
            s.disk_pages_enqueued,
            s.disk_pages_completed + s.disk_pages_dropped,
            "{s:?}"
        );
        drained
    }

    #[test]
    fn drains_groups_and_disk_jobs() {
        for threads in DRIVERS {
            let sink = Arc::new(RecordingSink::default());
            let d = destager(threads, 4, &sink, &Arc::default());
            assert_eq!(d.threads(), threads);
            for e in 0..10 {
                d.enqueue(group_job(e as usize % 3, e)).unwrap();
            }
            d.enqueue(disk_job(1, 9)).unwrap();
            drain(&d).unwrap();
            assert_eq!(sink.groups.load(Ordering::SeqCst), 10);
            assert_eq!(sink.completions.load(Ordering::SeqCst), 10);
            assert_eq!(sink.disk_pages.load(Ordering::SeqCst), 1);
            let stats = d.stats();
            assert_eq!(stats.groups_enqueued, 10);
            assert_eq!(stats.groups_completed, 10);
            assert_eq!(stats.disk_pages_completed, 1);
        }
    }

    #[test]
    fn with_zero_workers_a_job_is_done_on_the_caller_when_enqueue_returns() {
        let sink = Arc::new(RecordingSink {
            fail_group_permanent: AtomicBool::new(true),
            abort_fallout: 2,
            ..RecordingSink::default()
        });
        let controller = Arc::new(DegradeController::default());
        let d = destager(0, 4, &sink, &controller);
        // A group that fails for good walks every sink method but the seal …
        d.enqueue(group_job(0, 1)).unwrap();
        assert_eq!(sink.aborts.load(Ordering::SeqCst), 1);
        assert_eq!(sink.quarantines.load(Ordering::SeqCst), 1);
        assert_eq!(sink.disk_pages.load(Ordering::SeqCst), 2, "failed over");
        // … a healthy one seals, and a stage-out is written: all before
        // `enqueue` returned, with no drain.
        sink.fail_group_permanent.store(false, Ordering::SeqCst);
        d.enqueue(group_job(0, 2)).unwrap();
        d.enqueue(disk_job(0, 9)).unwrap();
        assert_eq!(sink.completions.load(Ordering::SeqCst), 1);
        assert_eq!(sink.disk_pages.load(Ordering::SeqCst), 3);
        let stats = d.stats();
        assert_eq!((stats.groups_enqueued, stats.groups_completed), (2, 1));
        assert_eq!(stats.groups_aborted, 1);
        let callers = sink.callers.lock().unwrap();
        assert_eq!(callers.len(), 7);
        let me = std::thread::current().id();
        assert!(
            callers.iter().all(|&t| t == me),
            "a sink call left the caller"
        );
        drop(callers);
        drain(&d).unwrap();
    }

    #[test]
    fn backpressure_blocks_until_the_worker_catches_up() {
        let sink = Arc::new(RecordingSink {
            delay: Some(Duration::from_millis(2)),
            ..RecordingSink::default()
        });
        let d = destager(1, 2, &sink, &Arc::default());
        for e in 0..8 {
            d.enqueue(group_job(0, e)).unwrap();
        }
        drain(&d).unwrap();
        assert_eq!(sink.completions.load(Ordering::SeqCst), 8);
        assert!(
            d.stats().backpressure_stalls > 0,
            "queue depth 2 must stall"
        );
    }

    #[test]
    fn abort_drops_queued_work_and_in_flight_completions() {
        let sink = Arc::new(RecordingSink {
            delay: Some(Duration::from_millis(20)),
            ..RecordingSink::default()
        });
        let d = destager(1, 16, &sink, &Arc::default());
        for e in 0..5 {
            d.enqueue(group_job(0, e)).unwrap();
        }
        // Give the worker time to start job 0, then crash.
        std::thread::sleep(Duration::from_millis(5));
        d.abort_pending();
        drain(&d).unwrap();
        let stats = d.stats();
        // The in-flight job may have applied its device write, but nothing
        // from this generation was ever *completed* (sealed).
        assert_eq!(stats.groups_completed, 0, "no pre-crash group sealed");
        assert_eq!(stats.groups_enqueued, 5);
        assert_eq!(stats.groups_dropped, 5);
        assert_eq!(sink.completions.load(Ordering::SeqCst), 0);
        // The pipeline still accepts and completes post-crash work.
        d.enqueue(group_job(0, 99)).unwrap();
        drain(&d).unwrap();
        assert_eq!(d.stats().groups_completed, 1);
    }

    #[test]
    fn disk_write_failure_surfaces_on_drain_once() {
        for threads in DRIVERS {
            let sink = Arc::new(RecordingSink::default());
            sink.fail_disk.store(true, Ordering::SeqCst);
            let d = destager(threads, 64, &sink, &Arc::default());
            // Workers park the error for the drain; the inline driver hands
            // it straight back. Either way it is reported exactly once.
            let enqueued = d.enqueue(disk_job(0, 1));
            assert_eq!(enqueued.is_err(), threads == 0);
            let err = enqueued.and(drain(&d)).unwrap_err();
            assert!(err.to_string().contains("injected"), "{err}");
            assert!(drain(&d).is_ok(), "error reported exactly once");
            assert_eq!(d.stats().disk_pages_dropped, 1);
            assert_eq!(d.stats().permanent_errors, 1);
        }
    }

    #[test]
    fn transient_group_failure_is_retried_until_it_succeeds() {
        for threads in DRIVERS {
            let sink = Arc::new(RecordingSink {
                fail_group_transient: AtomicUsize::new(2),
                ..RecordingSink::default()
            });
            let d = destager(threads, 4, &sink, &Arc::default());
            d.enqueue(group_job(0, 1)).unwrap();
            drain(&d).unwrap();
            let stats = d.stats();
            assert_eq!(stats.groups_completed, 1, "third attempt succeeds");
            assert_eq!(stats.retries, 2);
            assert_eq!(stats.groups_aborted, 0);
            assert_eq!(sink.completions.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn permanent_group_failure_aborts_quarantines_and_fails_over() {
        for threads in DRIVERS {
            let sink = Arc::new(RecordingSink {
                fail_group_permanent: AtomicBool::new(true),
                abort_fallout: 3,
                ..RecordingSink::default()
            });
            let controller = Arc::new(DegradeController::default());
            let d = destager(threads, 4, &sink, &controller);
            // A permanent error never retries and the failover absorbed the
            // dirty pages, so neither the enqueue nor the drain reports it.
            d.enqueue(group_job(0, 1)).unwrap();
            drain(&d).unwrap();
            let stats = d.stats();
            assert_eq!(stats.groups_aborted, 1);
            assert_eq!(stats.permanent_errors, 1);
            assert_eq!(stats.retries, 0);
            assert_eq!(stats.groups_completed, 0);
            assert_eq!(stats.disk_pages_completed, 3, "fallout failed over");
            assert_eq!(sink.aborts.load(Ordering::SeqCst), 1);
            assert_eq!(
                sink.quarantines.load(Ordering::SeqCst),
                1,
                "permanent slot error condemns the slot on first strike"
            );
        }
    }

    #[test]
    fn transient_group_failure_that_exhausts_retries_aborts() {
        for threads in DRIVERS {
            let sink = Arc::new(RecordingSink {
                fail_group_transient: AtomicUsize::new(usize::MAX),
                ..RecordingSink::default()
            });
            let controller = Arc::new(DegradeController::new(DegradeConfig {
                max_retries: 2,
                slot_failure_threshold: 100,
                trip_threshold: 100,
            }));
            let d = destager(threads, 4, &sink, &controller);
            d.enqueue(group_job(0, 1)).unwrap();
            drain(&d).unwrap();
            let stats = d.stats();
            assert_eq!(stats.retries, 2, "budget from the controller config");
            assert_eq!(stats.transient_errors, 1);
            assert_eq!(stats.groups_aborted, 1);
            assert_eq!(sink.aborts.load(Ordering::SeqCst), 1);
            assert_eq!(controller.snapshot().transient_errors, 1);
        }
    }

    #[test]
    fn same_shard_jobs_execute_in_fifo_order() {
        struct OrderSink {
            seen: OrderedMutex<Vec<u64>>,
        }
        impl DestageSink for OrderSink {
            fn apply_group(&self, write: &PendingGroupWrite) -> DeviceResult<()> {
                self.seen.lock().push(write.epoch);
                Ok(())
            }
            fn complete_group(&self, _s: usize, _e: u64) {}
            fn write_pages_to_disk(&self, _p: &[StagedPage]) -> Result<(), DeviceError> {
                Ok(())
            }
        }
        let sink = Arc::new(OrderSink {
            seen: OrderedMutex::new(DIAG, Vec::new()),
        });
        let d = Destager::new(
            DestageConfig {
                threads: 3,
                queue_depth: 64,
            },
            Arc::clone(&sink) as Arc<dyn DestageSink>,
            Arc::default(),
        );
        for e in 0..50 {
            // one shard -> one worker
            d.enqueue(group_job(4, e)).unwrap();
        }
        drain(&d).unwrap();
        let seen = sink.seen.lock();
        assert_eq!(*seen, (0..50).collect::<Vec<u64>>(), "FIFO per shard");
    }

    #[test]
    fn a_jobs_stage_outs_land_before_its_groups_fallout_and_the_next_jobs_pages() {
        for threads in DRIVERS {
            let sink = Arc::new(RecordingSink {
                fail_group_permanent: AtomicBool::new(true),
                abort_fallout: 1,
                ..RecordingSink::default()
            });
            let d = destager(threads, 4, &sink, &Arc::default());
            // Page 0:0 at LSN 1 is staged out; the job's group fails for
            // good with page 0:0 at LSN 2 in its fallout.
            let job = DestageJob {
                group: Some(group(0, 1)),
                ..disk_job(0, 0)
            };
            d.enqueue(job).unwrap();
            d.enqueue(disk_job(0, 9)).unwrap();
            drain(&d).unwrap();
            let p = |n| PageId::new(0, n);
            assert_eq!(
                *sink.written.lock().unwrap(),
                [(p(0), Lsn(1)), (p(0), Lsn(2)), (p(9), Lsn(1))],
                "driver {threads}"
            );
        }
    }

    #[test]
    fn a_transient_disk_error_on_an_aborted_groups_fallout_is_retried() {
        for threads in DRIVERS {
            let sink = Arc::new(RecordingSink {
                fail_group_permanent: AtomicBool::new(true),
                fail_disk_transient: AtomicUsize::new(2),
                abort_fallout: 3,
                ..RecordingSink::default()
            });
            let d = destager(threads, 4, &sink, &Arc::default());
            d.enqueue(group_job(0, 1)).unwrap();
            drain(&d).unwrap();
            let stats = d.stats();
            assert_eq!(stats.retries, 2, "driver {threads}");
            assert_eq!(stats.disk_pages_completed, 3);
            assert_eq!(stats.disk_pages_dropped, 0);
            assert_eq!(stats.transient_errors, 0);
            assert_eq!(sink.disk_pages.load(Ordering::SeqCst), 3);
        }
    }

    #[test]
    fn a_crash_drops_both_halves_of_a_queued_job() {
        let sink = Arc::new(RecordingSink {
            gate: Some((Barrier::new(2), Barrier::new(2))),
            ..RecordingSink::default()
        });
        let d = destager(1, 16, &sink, &Arc::default());
        for e in 0..4 {
            let job = DestageJob {
                group: Some(group(0, e)),
                ..disk_job(0, e as u32)
            };
            d.enqueue(job).unwrap();
        }
        // Crash while the first job's batch write is on the device: its
        // page is on disk, its group never seals, and the three queued jobs
        // drop both halves.
        let (entered, go_on) = sink.gate.as_ref().unwrap();
        entered.wait();
        d.abort_pending();
        go_on.wait();
        drain(&d).unwrap();
        let stats = d.stats();
        assert_eq!((stats.groups_enqueued, stats.groups_dropped), (4, 4));
        assert_eq!(stats.groups_completed, 0);
        assert_eq!(
            (stats.disk_pages_completed, stats.disk_pages_dropped),
            (1, 3)
        );
    }

    #[test]
    fn dropping_a_pool_never_loses_a_workers_wakeup() {
        // A worker that read `shutdown` as false but had not started its
        // wait yet slept through the drop's notify, and the join hung.
        const DROPS: usize = 20_000;
        const STALL: Duration = Duration::from_secs(5);
        let dropped = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&dropped);
        // Joined only if it finishes: a hung drop leaves it parked.
        let dropper = std::thread::spawn(move || {
            for _ in 0..DROPS {
                drop(destager(2, 4, &Arc::default(), &Arc::default()));
                counter.fetch_add(1, Ordering::SeqCst);
            }
        });
        let (mut seen, mut since) = (0, Instant::now());
        while seen < DROPS {
            std::thread::sleep(Duration::from_millis(10));
            let now = dropped.load(Ordering::SeqCst);
            if now != seen {
                (seen, since) = (now, Instant::now());
            }
            assert!(
                since.elapsed() < STALL,
                "drop {} of a 2-worker pool hung for {STALL:?}",
                seen + 1
            );
        }
        dropper.join().unwrap();
    }
}
