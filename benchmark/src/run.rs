//! The closed loop: set-up, the measured phase, the correctness oracle and the
//! crash → restart cycles, against the public `face_engine::Database` API.
//!
//! Every workload runs the same sequence and differs only in its inputs, its
//! sizes and in whether the measured phase itself is made of crash cycles:
//!
//! 1. set up [`SETUPS`] times; every database but the last runs
//!    [`RESTART_CYCLES`] crash → warm restart cycles and is dropped;
//! 2. run the measured phase on the last database for `--seconds`;
//! 3. outside the timed region: verify every written key, crash → warm
//!    restart → verify every key again, crash → cold restart → verify a sample.
//!
//! Whatever is compared across commits with a bound is measured on a fixed
//! amount of work. The engine never truncates its log, so restart time and
//! memory grow with the commits behind them; taken after the measured phase
//! they would grow with throughput × seconds, and a faster engine would read
//! as a slower restart. Hence `restart_ms` comes from step 1, and
//! `peak_rss_mb` is read when the first database of step 1 is done.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use face_engine::config::FlashStoreFactory;
use face_engine::{Database, RecoveryReport};

use crate::flashdev::{FlashCounters, TimedFlash};
use crate::input::{self, Inputs, Stream, WRITE};
use crate::probes;
use crate::spec::{self, Kind, Workload, RESTART_CYCLES, SETUPS};
use crate::stats::{median, quantile};
use crate::trace::{self, ThreadSpans};

/// In-flight transactions left behind at every crash, and the keys each
/// holds. Loser keys are reserved: no client ever writes them, so restart
/// undo must bring back exactly the value committed during set-up.
const LOSERS: u64 = 4;
const LOSER_KEYS: u64 = 2;
const LOSER_KEY_BASE: u64 = 0xF0 << 56;
/// Marks a value written by a transaction that never commits.
const LOSER_FLAG: u64 = 1 << 55;

/// Segments of an untraced measured phase (ramp windows play the part on
/// `crash_restart`).
const SEGMENTS: u64 = 10;

/// Traced runs alternate untraced and traced segments of the measured phase,
/// so both see the same cache state and the throughput ratio between them is
/// the tracing overhead.
const TRACE_SEGMENTS: u64 = 6;

/// A 16-byte value: the key and a word encoding client and sequence number.
fn value(key: u64, word: u64) -> [u8; 16] {
    let mut v = [0u8; 16];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..].copy_from_slice(&word.to_le_bytes());
    v
}

/// The engine's key → bucket-page hash, repeated here only to visit keys in
/// page order (verification locality) and to give the layer probes the
/// workload's own page-id stream. Correctness never depends on it.
pub fn bucket_of(key: u64, buckets: u32) -> u32 {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) % buckets as u64) as u32
}

/// Engine and device counters the metrics are ratios of. Read before and
/// after every window; only differences are used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
enum C {
    FlashPagesWritten,
    DiskFetches,
    DiskWrites,
    WashHits,
    WalGuardForces,
    WalBytes,
    WalRecords,
    WalForces,
    WalPiggybacked,
    Puts,
    BufAccesses,
    BufHits,
    BufMisses,
    BufFlashHits,
    BufEvictions,
    BufDirtyEvictions,
    BufReadRetries,
    BufRefRescues,
    CacheInserts,
    CacheSkippedInserts,
    CacheSecondChances,
    CacheStagedOut,
    CacheStagedOutToDisk,
    CacheFetchRetries,
    CacheMetadataFlushes,
    CacheAdmissionFiltered,
    DestageGroups,
    DestageStalls,
    DestageRetries,
    FlashdevReads,
    FlashdevWriteCalls,
    FlashdevWritePages,
    Count,
}

type Counters = [u64; C::Count as usize];

fn snapshot(db: &Database, flashdev: Option<&FlashCounters>) -> Counters {
    let mut c = [0u64; C::Count as usize];
    let mut set = |which: C, v: u64| c[which as usize] = v;
    set(C::FlashPagesWritten, db.flash_pages_written());
    let tier = db.tier_stats();
    set(C::DiskFetches, tier.disk_fetches);
    set(C::DiskWrites, tier.disk_writes);
    set(C::WashHits, tier.wash_table_hits);
    set(C::WalGuardForces, tier.wal_guard_forces);
    set(C::WalBytes, db.wal_durable_lsn().0);
    set(C::WalRecords, db.wal_records());
    set(C::WalForces, db.wal_forces());
    set(C::WalPiggybacked, db.wal_piggybacked_forces());
    set(C::Puts, db.stats().puts);
    let buf = db.buffer_stats();
    set(C::BufAccesses, buf.accesses);
    set(C::BufHits, buf.hits);
    set(C::BufMisses, buf.misses);
    set(C::BufFlashHits, buf.flash_hits);
    set(C::BufEvictions, buf.evictions);
    set(C::BufDirtyEvictions, buf.dirty_evictions);
    set(C::BufReadRetries, buf.read_retries);
    set(C::BufRefRescues, buf.ref_rescues);
    if let Some(cache) = db.cache_stats() {
        set(C::CacheInserts, cache.inserts);
        set(C::CacheSkippedInserts, cache.skipped_inserts);
        set(C::CacheSecondChances, cache.second_chances);
        set(C::CacheStagedOut, cache.staged_out);
        set(C::CacheStagedOutToDisk, cache.staged_out_to_disk);
        set(C::CacheFetchRetries, cache.fetch_retries);
        set(C::CacheMetadataFlushes, cache.metadata_flushes);
        set(C::CacheAdmissionFiltered, cache.admission_filtered);
    }
    if let Some(destage) = db.destage_stats() {
        set(C::DestageGroups, destage.groups_completed);
        set(C::DestageStalls, destage.backpressure_stalls);
        set(C::DestageRetries, destage.retries);
    }
    if let Some(dev) = flashdev {
        set(C::FlashdevReads, dev.reads.get());
        set(C::FlashdevWriteCalls, dev.write_calls.get());
        set(C::FlashdevWritePages, dev.write_pages.get());
    }
    c
}

/// Commits, wall time and counter differences summed over windows.
#[derive(Debug, Clone, Copy)]
struct Acc {
    commits: u64,
    wall_s: f64,
    delta: Counters,
}

impl Acc {
    const ZERO: Acc = Acc {
        commits: 0,
        wall_s: 0.0,
        delta: [0; C::Count as usize],
    };

    fn add(&mut self, other: &Acc) {
        self.commits += other.commits;
        self.wall_s += other.wall_s;
        for (a, b) in self.delta.iter_mut().zip(&other.delta) {
            *a += b;
        }
    }

    fn get(&self, which: C) -> f64 {
        self.delta[which as usize] as f64
    }

    fn per_txn(&self, which: C) -> f64 {
        ratio(self.get(which), self.commits as f64)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Which keys a verification reads back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// Every key ever committed.
    All,
    /// The keys committed since the last verification.
    Recent,
    /// Every key on one bucket page in eight: the check after the cold
    /// restart, where each page costs a simulated disk read.
    Sample,
}

/// How long a client keeps going: at most `txns` transactions, and none
/// started after `deadline`.
#[derive(Debug, Clone, Copy)]
struct Limit {
    txns: usize,
    deadline: Option<Instant>,
}

/// One closed-loop client and its half of the oracle.
struct Client {
    id: usize,
    /// Value word of the last committed put per key.
    shadow: HashMap<u64, u64>,
    /// Keys committed since the last verification.
    recent: Vec<u64>,
    seq: u64,
    /// Next transaction of the stream in use.
    pos: usize,
    /// begin → commit acknowledgement, measured transactions only.
    latencies_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    /// What the first few failed operations were, for the report.
    notes: Vec<String>,
    writes: Vec<(u64, u64)>,
}

/// Count a failed operation and keep a description of the first few.
fn note_failure(failed: &mut u64, notes: &mut Vec<String>, what: impl FnOnce() -> String) {
    *failed += 1;
    if notes.len() < 8 {
        notes.push(what());
    }
}

#[inline(always)]
fn call<R>(traced: bool, name: &'static str, f: impl FnOnce() -> R) -> R {
    if traced {
        let _span = trace::enter(name, false);
        f()
    } else {
        f()
    }
}

impl Client {
    fn new(id: usize) -> Self {
        Self {
            id,
            shadow: HashMap::new(),
            recent: Vec::new(),
            seq: 0,
            pos: 0,
            latencies_ns: Vec::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            writes: Vec::new(),
        }
    }

    fn next_word(&mut self) -> u64 {
        self.seq += 1;
        ((self.id as u64 + 1) << 56) | self.seq
    }

    /// One transaction: every op of `ops`, then commit. A write is a `put`,
    /// preceded by a `get` of the same key when `rmw` is set. Returns whether
    /// it committed; the puts wait in `self.writes`.
    fn txn(&mut self, db: &Database, ops: &[u64], rmw: bool, traced: bool) -> bool {
        self.writes.clear();
        let _root = traced.then(|| trace::enter("client.txn", true));
        self.attempted += 1;
        let txn = call(traced, "engine.begin", || db.begin());
        let mut error = None;
        for &op in ops {
            let key = op & !WRITE;
            if op & WRITE == 0 || rmw {
                self.attempted += 1;
                match call(traced, "engine.get", || db.get(key)) {
                    Ok(found) => {
                        black_box(found);
                    }
                    Err(e) => error = Some(format!("get {key:#x}: {e}")),
                }
            }
            if op & WRITE != 0 && error.is_none() {
                let word = self.next_word();
                self.attempted += 1;
                match call(traced, "engine.put", || db.put(txn, key, &value(key, word))) {
                    Ok(()) => self.writes.push((key, word)),
                    Err(e) => error = Some(format!("put {key:#x}: {e}")),
                }
            }
            if error.is_some() {
                break;
            }
        }
        if error.is_none() {
            self.attempted += 1;
            if let Err(e) = call(traced, "engine.commit", || db.commit(txn)) {
                error = Some(format!("commit: {e}"));
            }
        }
        let Some(error) = error else { return true };
        let id = self.id;
        note_failure(&mut self.failed, &mut self.notes, || {
            format!("client{id}: {error}")
        });
        let _ = db.abort(txn);
        false
    }

    /// Run transactions of `stream` until `limit`; returns the commits.
    fn run(
        &mut self,
        db: &Database,
        stream: &Stream,
        rmw: bool,
        limit: Limit,
        record: bool,
        traced: bool,
    ) -> u64 {
        let mut commits = 0;
        for _ in 0..limit.txns {
            let ops = stream.txn(self.pos);
            self.pos += 1;
            let started = Instant::now();
            let ok = self.txn(db, ops, rmw, traced);
            let ended = Instant::now();
            if ok {
                commits += 1;
                if record {
                    self.latencies_ns.push((ended - started).as_nanos() as u64);
                }
                for &(key, word) in &self.writes {
                    self.shadow.insert(key, word);
                    self.recent.push(key);
                }
            }
            if limit.deadline.is_some_and(|d| ended >= d) {
                break;
            }
        }
        if traced {
            trace::flush();
        }
        commits
    }

    /// Load this client's keys of the zipfian table, 64 per transaction.
    fn load(&mut self, db: &Database, keys: u64) {
        let mine: Vec<u64> = (0..keys)
            .filter(|&k| input::kv_owner(k) == self.id)
            .map(|k| k | WRITE)
            .collect();
        for chunk in mine.chunks(64) {
            if self.txn(db, chunk, false, false) {
                for &(key, word) in &self.writes {
                    self.shadow.insert(key, word);
                }
            }
        }
    }

    /// Every key of `scope` must read back its shadow value.
    fn verify(&mut self, db: &Database, scope: Scope, buckets: u32, stage: &str) {
        let recent = std::mem::take(&mut self.recent);
        let mut keys: Vec<u64> = match scope {
            Scope::All => self.shadow.keys().copied().collect(),
            Scope::Recent => recent,
            Scope::Sample => {
                let sampled = |k: &u64| bucket_of(*k, buckets).is_multiple_of(8);
                self.shadow.keys().copied().filter(sampled).collect()
            }
        };
        keys.sort_unstable_by_key(|&k| (bucket_of(k, buckets), k));
        keys.dedup();
        for key in keys {
            self.attempted += 1;
            let want = value(key, self.shadow[&key]);
            let got = db.get(key);
            if !matches!(&got, Ok(Some(got)) if got[..] == want) {
                let id = self.id;
                note_failure(&mut self.failed, &mut self.notes, || {
                    format!("client{id}: verify {stage}: key {key:#x}: want {want:02x?}, got {got:02x?}")
                });
            }
        }
    }
}

/// Run `f` on every client, each on a thread of its own.
fn on_clients<R: Send>(clients: &mut [Client], f: impl Fn(&mut Client) -> R + Sync) -> Vec<R> {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let f = &f;
                std::thread::Builder::new()
                    .name(format!("client{}", c.id))
                    .spawn_scoped(s, move || f(c))
                    .expect("spawn a client thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    })
}

/// One warm restart, as observed from outside.
struct Restart {
    ms: f64,
    report: RecoveryReport,
}

/// A database under test with its clients and oracle.
struct Harness<'a> {
    w: &'a Workload,
    db: Database,
    clients: Vec<Client>,
    flashdev: Option<Arc<FlashCounters>>,
    /// Harness-level operations (checkpoint, restart, loser keys).
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// Wall time spent verifying.
    verify_s: f64,
    checkpoint_ms: Vec<f64>,
    restarts: Vec<Restart>,
    cold_restart_ms: f64,
}

impl<'a> Harness<'a> {
    /// Open, load and warm up: what `setup_s` times.
    fn set_up(
        w: &'a Workload,
        warm: &[Stream],
        destage_threads: usize,
        trace_flash: bool,
    ) -> Result<(Self, f64), String> {
        let started = Instant::now();
        let mut config = spec::engine_config(w, destage_threads, trace_flash);
        let flashdev = trace_flash.then(|| Arc::new(FlashCounters::default()));
        if let Some(counters) = &flashdev {
            let counters = Arc::clone(counters);
            let latency = w.sim_devices.then(face_engine::DeviceLatency::default);
            config = config.flash_store_factory(FlashStoreFactory::new(move |capacity| {
                Arc::new(TimedFlash::new(capacity, latency, Arc::clone(&counters)))
            }));
        }
        let db = Database::open(config).map_err(|e| format!("open failed: {e}"))?;
        let mut h = Self {
            w,
            db,
            clients: (0..warm.len()).map(Client::new).collect(),
            flashdev,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            verify_s: 0.0,
            checkpoint_ms: Vec::new(),
            restarts: Vec::new(),
            cold_restart_ms: 0.0,
        };
        h.commit_loser_keys();
        if w.load_keys > 0 {
            let db = &h.db;
            on_clients(&mut h.clients, |c| c.load(db, w.load_keys));
        }
        let limit = Limit {
            txns: w.warmup_txns,
            deadline: None,
        };
        h.window(warm, limit, false, false);
        let secs = started.elapsed().as_secs_f64();
        // Whatever follows reads the measured stream from its start.
        h.clients.iter_mut().for_each(|c| c.pos = 0);
        Ok((h, secs))
    }

    fn loser_keys() -> impl Iterator<Item = u64> {
        (0..LOSERS * LOSER_KEYS).map(|i| LOSER_KEY_BASE | i)
    }

    /// Count one harness-level operation; a failed one is noted and `None`.
    fn check<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        result
            .map_err(|e| note_failure(&mut self.failed, &mut self.notes, || format!("{what}: {e}")))
            .ok()
    }

    fn commit_loser_keys(&mut self) {
        let txn = self.db.begin();
        for key in Self::loser_keys() {
            let put = self.db.put(txn, key, &value(key, 0));
            self.check("put of a loser key's committed value", put);
        }
        let commit = self.db.commit(txn);
        self.check("commit of the loser keys", commit);
    }

    /// Both clients run `streams` until `limit`, then the destage pipeline is
    /// drained; the window's wall time includes the drain.
    fn window(&mut self, streams: &[Stream], limit: Limit, record: bool, traced: bool) -> Acc {
        let rmw = self.w.kind == Kind::Kv;
        let db = &self.db;
        let before = snapshot(db, self.flashdev.as_deref());
        let started = Instant::now();
        let commits: u64 = on_clients(&mut self.clients, |c| {
            c.run(db, &streams[c.id], rmw, limit, record, traced)
        })
        .iter()
        .sum();
        let drained = self.db.drain_destage();
        self.check("drain_destage", drained);
        let wall_s = started.elapsed().as_secs_f64();
        let after = snapshot(&self.db, self.flashdev.as_deref());
        let mut delta = [0u64; C::Count as usize];
        for (d, (a, b)) in delta.iter_mut().zip(after.iter().zip(&before)) {
            *d = a.saturating_sub(*b);
        }
        Acc {
            commits,
            wall_s,
            delta,
        }
    }

    /// Every written key (or every key written since the last verification)
    /// reads back its last committed value, and no loser write is visible.
    fn verify(&mut self, scope: Scope, stage: &str) {
        let started = Instant::now();
        let (db, buckets) = (&self.db, self.w.buckets);
        on_clients(&mut self.clients, |c| c.verify(db, scope, buckets, stage));
        for key in Self::loser_keys() {
            let seen = match self.db.get(key) {
                Ok(Some(got)) if got == value(key, 0) => Ok(()),
                other => Err(format!("a loser's write is visible or lost: {other:02x?}")),
            };
            self.check(stage, seen);
        }
        self.verify_s += started.elapsed().as_secs_f64();
    }

    /// losers left in flight → `cycle_txns` per client → drain → checkpoint →
    /// crash → timed warm restart → verify.
    ///
    /// The checkpoint sits directly before the crash because of an engine
    /// fault the oracle found (README, "An engine fault"): with transactions
    /// between the last checkpoint and the crash, the asynchronous destage
    /// pipeline sometimes leaves flash-cache metadata from which a restart
    /// resurrects an old page version. So these restarts scan the whole log,
    /// recover the cache journal and undo the losers, but redo nothing.
    fn crash_cycle(&mut self, streams: &[Stream]) {
        for loser in 0..LOSERS {
            let txn = self.db.begin();
            for i in 0..LOSER_KEYS {
                let key = LOSER_KEY_BASE | (loser * LOSER_KEYS + i);
                let put = self.db.put(txn, key, &value(key, LOSER_FLAG | loser));
                self.check("put of a loser", put);
            }
        }
        // The commits of this window force the log past the losers' updates,
        // so restart has real undo work.
        let limit = Limit {
            txns: self.w.cycle_txns,
            deadline: None,
        };
        self.window(streams, limit, false, false);
        self.crash_and_restart(false);
        self.verify(Scope::Recent, "after a warm restart");
    }

    /// checkpoint → crash → timed restart (warm or cold), on a drained
    /// destage pipeline.
    fn crash_and_restart(&mut self, cold: bool) {
        let drained = self.db.drain_destage();
        self.check("drain_destage", drained);
        let started = Instant::now();
        let checkpoint = self.db.checkpoint();
        self.checkpoint_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        self.check("checkpoint", checkpoint);
        self.db.crash();
        let started = Instant::now();
        let restart = if cold {
            self.db.restart_cold()
        } else {
            self.db.restart()
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        match self.check("restart", restart) {
            Some(_) if cold => self.cold_restart_ms = ms,
            Some(report) => self.restarts.push(Restart { ms, report }),
            None => {}
        }
    }

    /// Operations attempted and failed so far, harness and clients together.
    fn totals(&self) -> (u64, u64) {
        let attempted = self.attempted + self.clients.iter().map(|c| c.attempted).sum::<u64>();
        let failed = self.failed + self.clients.iter().map(|c| c.failed).sum::<u64>();
        (attempted, failed)
    }

    fn take_notes(&mut self) -> Vec<String> {
        let mut notes = std::mem::take(&mut self.notes);
        for c in &mut self.clients {
            notes.append(&mut c.notes);
        }
        notes
    }
}

/// What one run of one workload produced.
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// What the first few failed operations were.
    pub notes: Vec<String>,
    pub input_hash: u64,
    pub latency_samples: usize,
    pub setup_wall_s: f64,
    pub measured_wall_s: f64,
    pub verify_wall_s: f64,
    pub total_wall_s: f64,
}

/// How long the measured phase lasts.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(u64),
    /// A fixed transaction count per client, for runs whose counters must
    /// repeat exactly (the self-tests).
    #[cfg_attr(not(test), allow(dead_code))]
    Txns(usize),
}

pub struct Options {
    pub seed: u64,
    pub budget: Budget,
    pub traced: bool,
    pub clients: usize,
    pub destage_threads: usize,
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run(w: &Workload, opts: &Options) -> Result<Report, String> {
    let run_started = Instant::now();
    let seconds = match opts.budget {
        Budget::Seconds(s) => s,
        Budget::Txns(_) => 1,
    };
    let mut inputs = input::generate_all(w, opts.seed, seconds);
    inputs.warm.truncate(opts.clients);
    inputs.measured.truncate(opts.clients);
    let input_hash = input::hash(&inputs);
    let Inputs { warm, measured, .. } = &inputs;

    // Set up several times. The last database is the one measured; the others
    // give the restart samples, on a history that is the same on every run.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut fixed_restarts: Vec<f64> = Vec::new();
    let mut series: Vec<f64> = Vec::new();
    let (mut spare_attempted, mut spare_failed) = (0, 0);
    let mut notes = Vec::new();
    let mut rss_mb = 0.0;
    let mut h = loop {
        let (mut h, secs) = Harness::set_up(w, warm, opts.destage_threads, opts.traced)?;
        setups.push(secs);
        if setups.len() == SETUPS {
            break h;
        }
        for _ in 0..RESTART_CYCLES {
            h.crash_cycle(measured);
        }
        if setups.len() == 1 {
            // One database set up and restarted, nothing dropped yet: a fixed
            // amount of work, and no question of how much freed memory the
            // allocator happened to reuse for the next database.
            rss_mb = peak_rss_mb();
        }
        series = h.restarts.iter().map(|r| r.ms).collect();
        fixed_restarts.extend(&series);
        let (attempted, failed) = h.totals();
        spare_attempted += attempted;
        spare_failed += failed;
        notes.append(&mut h.take_notes());
    };
    let setup_wall_s = run_started.elapsed().as_secs_f64();

    // The measured phase, in segments. Throughput and latency quantiles are
    // taken per untraced segment and reported as the median over segments, so
    // one stall (a noisy neighbour, a scheduling hiccup) moves one segment and
    // not the result. Counts are summed over all of them.
    let phase_started = Instant::now();
    let mut plain = Acc::ZERO;
    let mut traced = Acc::ZERO;
    let mut segment_tps = Vec::new();
    let mut segment_p50 = Vec::new();
    let mut segment_p95 = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut segment = |h: &mut Harness<'_>, limit: Limit, index: u64| {
        let trace_it = opts.traced && index % 2 == 1;
        trace::set_on(trace_it);
        let acc = h.window(measured, limit, true, trace_it);
        trace::set_on(false);
        let mut sample: Vec<u64> = Vec::new();
        for c in &mut h.clients {
            sample.append(&mut c.latencies_ns);
        }
        sample.sort_unstable();
        if !trace_it {
            segment_tps.push(ratio(acc.commits as f64, acc.wall_s));
            segment_p50.push(quantile(&sample, 0.50) / 1e3);
            segment_p95.push(quantile(&sample, 0.95) / 1e3);
        }
        latencies.append(&mut sample);
        let sum = if trace_it { &mut traced } else { &mut plain };
        sum.add(&acc);
    };
    if w.crash_cycles {
        let (deadline, cycles) = match opts.budget {
            Budget::Seconds(s) => (Some(Instant::now() + Duration::from_secs(s)), u64::MAX),
            Budget::Txns(n) => (None, (n / w.ramp_txns.max(1)).max(2) as u64),
        };
        let limit = Limit {
            txns: w.ramp_txns,
            deadline: None,
        };
        for cycle in 0..cycles {
            h.crash_cycle(measured);
            segment(&mut h, limit, cycle);
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
        }
    } else {
        let segments = if opts.traced {
            TRACE_SEGMENTS
        } else {
            SEGMENTS
        };
        for index in 0..segments {
            let limit = match opts.budget {
                Budget::Seconds(s) => Limit {
                    txns: usize::MAX,
                    deadline: Some(Instant::now() + Duration::from_secs(s) / segments as u32),
                },
                Budget::Txns(n) => Limit {
                    txns: n / segments as usize,
                    deadline: None,
                },
            };
            segment(&mut h, limit, index);
        }
    }
    let measured_wall_s = phase_started.elapsed().as_secs_f64();
    if w.crash_cycles {
        series = h.restarts.iter().map(|r| r.ms).collect();
    }

    // Outside the timed region: the oracle before and after a warm restart,
    // and after a cold one.
    h.verify(Scope::All, "after the measured phase");
    h.crash_cycle(measured);
    h.verify(Scope::All, "after the closing warm restart");
    h.crash_and_restart(true);
    h.verify(Scope::Sample, "after the cold restart");

    let mut all = plain;
    all.add(&traced);
    latencies.sort_unstable();

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    if opts.traced {
        m.insert("client.txn_p99_us", quantile(&latencies, 0.99) / 1e3);
        m.insert("client.txn_p999_us", quantile(&latencies, 0.999) / 1e3);
        m.insert(
            "client.txn_max_us",
            latencies.last().copied().unwrap_or(0) as f64 / 1e3,
        );
        m.insert("client.gen_ns_per_txn", inputs.gen_ns_per_txn);
        m.insert(
            "client.trace_overhead_share",
            1.0 - ratio(
                ratio(traced.commits as f64, traced.wall_s),
                ratio(plain.commits as f64, plain.wall_s),
            ),
        );
        m.insert(
            "client.final_restart_ms",
            h.restarts.last().map_or(0.0, |r| r.ms),
        );
        m.insert("engine.checkpoint_ms", median(&h.checkpoint_ms));
        // The longest run of cycles on one database: the measured phase of
        // `crash_restart`, the last spare set-up database otherwise.
        let (first, last) = (series.first(), series.last());
        m.insert("engine.restart_first_ms", first.copied().unwrap_or(0.0));
        m.insert("engine.restart_last_ms", last.copied().unwrap_or(0.0));
        m.insert(
            "engine.restart_growth",
            ratio(last.copied().unwrap_or(0.0), first.copied().unwrap_or(0.0)),
        );
        m.insert("engine.restart_cold_ms", h.cold_restart_ms);
        let last_report = h.restarts.last().map(|r| &r.report);
        m.insert(
            "engine.redo_flash_share",
            last_report.map_or(0.0, |r| r.flash_fetch_ratio()),
        );
        m.insert(
            "engine.records_scanned_last",
            last_report.map_or(0.0, |r| r.records_scanned as f64),
        );
        counter_metrics(&all, &mut m);
        probes::run_all(&measured[0], w.buckets, &mut m);
    } else {
        m.insert("txn_per_s", median(&segment_tps));
        m.insert("txn_p50_us", median(&segment_p50));
        m.insert("txn_p95_us", median(&segment_p95));
        m.insert("flash_pages_per_txn", plain.per_txn(C::FlashPagesWritten));
        m.insert(
            "disk_ios_per_txn",
            plain.per_txn(C::DiskFetches) + plain.per_txn(C::DiskWrites),
        );
        m.insert("wal_bytes_per_txn", plain.per_txn(C::WalBytes));
        m.insert("restart_ms", median(&fixed_restarts));
        m.insert("setup_s", median(&setups));
    }

    let (attempted, failed) = h.totals();
    let (attempted, failed) = (attempted + spare_attempted, failed + spare_failed);
    notes.append(&mut h.take_notes());
    let verify_wall_s = h.verify_s;
    // Dropping the database joins the destager threads, which hands their
    // spans over.
    drop(h);
    if opts.traced {
        trace::flush();
        let threads = trace::collect();
        span_metrics(&threads, traced.wall_s, &mut m);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("spans")
            .join(format!("{}.json", w.name));
        trace::dump(&path, &threads, 10_000).map_err(|e| format!("span dump failed: {e}"))?;
    } else {
        m.insert("peak_rss_mb", rss_mb);
    }

    Ok(Report {
        metrics: m,
        attempted,
        failed,
        notes,
        input_hash,
        latency_samples: latencies.len(),
        setup_wall_s,
        measured_wall_s,
        verify_wall_s,
        total_wall_s: run_started.elapsed().as_secs_f64(),
    })
}

/// The per-layer metrics that are ratios of engine counters over the whole
/// measured phase.
fn counter_metrics(all: &Acc, m: &mut BTreeMap<&'static str, f64>) {
    m.insert("engine.disk_reads_per_txn", all.per_txn(C::DiskFetches));
    m.insert("engine.disk_writes_per_txn", all.per_txn(C::DiskWrites));
    m.insert("engine.wash_hits", all.get(C::WashHits));
    m.insert("engine.wal_guard_forces", all.get(C::WalGuardForces));
    m.insert(
        "buffer.hit_ratio",
        ratio(all.get(C::BufHits), all.get(C::BufAccesses)),
    );
    m.insert("buffer.evictions_per_txn", all.per_txn(C::BufEvictions));
    m.insert(
        "buffer.dirty_eviction_share",
        ratio(all.get(C::BufDirtyEvictions), all.get(C::BufEvictions)),
    );
    m.insert("buffer.read_retries", all.get(C::BufReadRetries));
    m.insert("buffer.ref_rescues", all.get(C::BufRefRescues));
    m.insert(
        "cache.flash_hit_ratio",
        ratio(all.get(C::BufFlashHits), all.get(C::BufMisses)),
    );
    m.insert("cache.inserts_per_txn", all.per_txn(C::CacheInserts));
    m.insert(
        "cache.skipped_insert_share",
        ratio(all.get(C::CacheSkippedInserts), all.get(C::CacheInserts)),
    );
    m.insert(
        "cache.second_chance_share",
        ratio(
            all.get(C::CacheSecondChances),
            all.get(C::CacheSecondChances) + all.get(C::CacheStagedOut),
        ),
    );
    m.insert(
        "cache.staged_out_to_disk_per_txn",
        all.per_txn(C::CacheStagedOutToDisk),
    );
    m.insert("cache.fetch_retries", all.get(C::CacheFetchRetries));
    m.insert("cache.metadata_flushes", all.get(C::CacheMetadataFlushes));
    m.insert(
        "cache.admission_filtered",
        all.get(C::CacheAdmissionFiltered),
    );
    m.insert(
        "cache.destage.groups_per_txn",
        all.per_txn(C::DestageGroups),
    );
    m.insert(
        "cache.destage.backpressure_stalls",
        all.get(C::DestageStalls),
    );
    m.insert("cache.destage.retries", all.get(C::DestageRetries));
    m.insert("wal.records_per_txn", all.per_txn(C::WalRecords));
    m.insert("wal.update_records_per_txn", all.per_txn(C::Puts));
    m.insert("wal.forces_per_txn", all.per_txn(C::WalForces));
    m.insert(
        "wal.piggyback_share",
        ratio(
            all.get(C::WalPiggybacked),
            all.get(C::WalPiggybacked) + all.get(C::WalForces),
        ),
    );
    m.insert(
        "wal.bytes_per_record",
        ratio(all.get(C::WalBytes), all.get(C::WalRecords)),
    );
    m.insert("flashdev.reads_per_txn", all.per_txn(C::FlashdevReads));
    m.insert(
        "flashdev.write_calls_per_txn",
        all.per_txn(C::FlashdevWriteCalls),
    );
    m.insert(
        "flashdev.pages_per_write",
        ratio(
            all.get(C::FlashdevWritePages),
            all.get(C::FlashdevWriteCalls),
        ),
    );
}

/// The span-derived per-layer metrics: one `engine.*` span per `Database`
/// call under a `client.txn` root, `flashdev.*` spans under whichever call
/// (or background root) reached the device.
fn span_metrics(threads: &[ThreadSpans], traced_wall_s: f64, m: &mut BTreeMap<&'static str, f64>) {
    let mut durations: HashMap<&'static str, Vec<u64>> = HashMap::new();
    let mut fg_reads = Vec::new();
    let (mut txn_ns, mut txn_self_ns, mut dev_ns) = (0u64, 0u64, 0u64);
    for thread in threads {
        let selfs = trace::self_times(&thread.spans);
        for (span, own) in thread.spans.iter().zip(selfs) {
            if span.name == "client.txn" {
                txn_ns += span.duration_ns();
                txn_self_ns += own;
            } else if span.name.starts_with("engine.") {
                durations
                    .entry(span.name)
                    .or_default()
                    .push(span.duration_ns());
            } else if span.name.starts_with("flashdev.") {
                dev_ns += span.duration_ns();
                let parent = thread.spans.get(span.parent as usize);
                if span.name == "flashdev.read"
                    && parent.is_some_and(|p| p.name.starts_with("engine."))
                {
                    fg_reads.push(span.duration_ns());
                }
            }
        }
    }
    fg_reads.sort_unstable();
    let mut layer = |call: &str, p50: Option<&'static str>, p95: Option<&'static str>, share| {
        let mut d = durations.remove(call).unwrap_or_default();
        d.sort_unstable();
        if let Some(name) = p50 {
            m.insert(name, quantile(&d, 0.50));
        }
        if let Some(name) = p95 {
            m.insert(name, quantile(&d, 0.95));
        }
        m.insert(share, ratio(d.iter().sum::<u64>() as f64, txn_ns as f64));
    };
    layer(
        "engine.begin",
        Some("engine.begin_ns_p50"),
        None,
        "engine.begin_share",
    );
    layer(
        "engine.get",
        Some("engine.get_ns_p50"),
        Some("engine.get_ns_p95"),
        "engine.get_share",
    );
    layer(
        "engine.put",
        Some("engine.put_ns_p50"),
        Some("engine.put_ns_p95"),
        "engine.put_share",
    );
    layer(
        "engine.commit",
        Some("engine.commit_ns_p50"),
        Some("engine.commit_ns_p95"),
        "engine.commit_share",
    );
    m.insert(
        "client.self_share",
        ratio(txn_self_ns as f64, txn_ns as f64),
    );
    // Device-seconds per wall second of the traced segments, summed over the
    // threads that reached the device (so above 1 when they overlap).
    m.insert(
        "flashdev.busy_share",
        ratio(dev_ns as f64 / 1e9, traced_wall_s),
    );
    m.insert("flashdev.fg_read_ns_p50", quantile(&fg_reads, 0.50));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CLIENTS, WORKLOADS};

    /// A workload small enough for a debug build.
    fn tiny(base: &Workload) -> Workload {
        Workload {
            buckets: 512,
            dram_frames: 32,
            flash_pages: 128,
            load_keys: if base.load_keys > 0 { 2_048 } else { 0 },
            warmup_txns: 60,
            cycle_txns: 10,
            ramp_txns: 20,
            sim_devices: false,
            ..*base
        }
    }

    fn opts(traced: bool, clients: usize, destage_threads: usize) -> Options {
        Options {
            seed: 7,
            budget: Budget::Txns(200),
            traced,
            clients,
            destage_threads,
        }
    }

    #[test]
    fn every_workload_runs_clean_and_reports_every_metric() {
        for base in &WORKLOADS {
            let w = tiny(base);
            for traced in [false, true] {
                let report = run(&w, &opts(traced, CLIENTS, 2)).unwrap();
                assert_eq!(
                    report.failed, 0,
                    "{} traced={traced}: {:#?}",
                    w.name, report.notes
                );
                assert!(report.attempted > 1_000);
                let table = if traced {
                    spec::PER_LAYER
                } else {
                    spec::END_TO_END
                };
                let printed: Vec<&str> = report.metrics.keys().copied().collect();
                let mut named: Vec<&str> = table.iter().map(|m| m.name).collect();
                named.sort_unstable();
                assert_eq!(printed, named, "{} traced={traced}", w.name);
                for (name, v) in &report.metrics {
                    assert!(v.is_finite(), "{}: {name} = {v}", w.name);
                }
                if traced {
                    let m = &report.metrics;
                    let sum = m["client.self_share"]
                        + m["engine.begin_share"]
                        + m["engine.get_share"]
                        + m["engine.put_share"]
                        + m["engine.commit_share"];
                    assert!((sum - 1.0).abs() < 1e-6, "{}: shares sum to {sum}", w.name);
                } else {
                    for metric in spec::END_TO_END {
                        assert!(
                            report.metrics[metric.name] > 0.0,
                            "{}: {}",
                            w.name,
                            metric.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn one_client_and_synchronous_destage_repeat_the_counts_exactly() {
        // Not `crash_restart`: its measured phase checkpoints, and the engine
        // flushes a checkpoint's dirty frames in hash-map order.
        for base in WORKLOADS.iter().filter(|w| !w.crash_cycles) {
            let w = tiny(base);
            let a = run(&w, &opts(false, 1, 0)).unwrap();
            let b = run(&w, &opts(false, 1, 0)).unwrap();
            assert_eq!(a.input_hash, b.input_hash);
            assert_eq!((a.failed, b.failed), (0, 0));
            for name in [
                "flash_pages_per_txn",
                "disk_ios_per_txn",
                "wal_bytes_per_txn",
            ] {
                assert_eq!(
                    a.metrics[name].to_bits(),
                    b.metrics[name].to_bits(),
                    "{}: {name}",
                    w.name
                );
            }
        }
    }

    /// What the oracle found while this benchmark was written, kept as a
    /// reproduction for whoever fixes it. With the asynchronous destage
    /// pipeline (`destage_threads(2)`, the shipped default), a flash cache
    /// small enough to cycle and committed transactions between the last
    /// checkpoint and the crash, a warm restart sometimes brings back an old
    /// version of a page: committed keys read stale or missing. One client
    /// suffices and the pipeline is drained before every crash; about one
    /// run in three fails at this size, and about one in ten at the
    /// benchmark's own sizes. `destage_threads(0)` never showed it, and
    /// neither did a checkpoint taken directly before the crash — which is
    /// what [`Harness::crash_and_restart`] therefore does.
    #[test]
    #[ignore = "engine finding: async destage + warm restart loses committed updates"]
    fn async_destage_keeps_every_committed_update_across_restarts() {
        let w = tiny(&WORKLOADS[1]);
        let mut failed_runs = Vec::new();
        for seed in 0..12 {
            let inputs = input::generate_all(&w, seed, 1);
            let (mut h, _) = Harness::set_up(&w, &inputs.warm[..1], 2, false).unwrap();
            for _ in 0..4 {
                h.db.checkpoint().unwrap();
                let limit = Limit {
                    txns: 10,
                    deadline: None,
                };
                h.window(&inputs.measured, limit, false, false);
                h.db.crash();
                h.db.restart().unwrap();
                h.verify(Scope::All, "after a warm restart");
            }
            if h.totals().1 > 0 {
                failed_runs.push((seed, h.take_notes()));
            }
        }
        assert!(failed_runs.is_empty(), "{failed_runs:#?}");
    }

    #[test]
    fn a_lost_write_is_a_failed_operation() {
        let w = tiny(&WORKLOADS[1]);
        let inputs = input::generate_all(&w, 7, 1);
        let (mut h, _) = Harness::set_up(&w, &inputs.warm, 0, false).unwrap();
        h.verify(Scope::All, "test");
        assert_eq!(h.totals().1, 0);
        // The oracle expects a value the engine never saw.
        let key = *h.clients[0].shadow.keys().next().unwrap();
        h.clients[0].shadow.insert(key, 12345);
        h.verify(Scope::All, "test");
        assert_eq!(h.totals().1, 1);
        // A loser's write surviving restart is caught too.
        let loser = LOSER_KEY_BASE;
        let txn = h.db.begin();
        h.db.put(txn, loser, &value(loser, LOSER_FLAG)).unwrap();
        h.db.commit(txn).unwrap();
        h.verify(Scope::Recent, "test");
        assert_eq!(h.totals().1, 2);
    }
}
