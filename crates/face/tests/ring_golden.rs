//! Golden equivalence test for the ring policies (FaCE, FaCE+GR, FaCE+GSC,
//! S3-FIFO).
//!
//! One seeded single-threaded trace per policy and write mode drives the
//! cache through `build_ring` over a `MemFlashStore` and compares every
//! counter the policy exposes against literals recorded on the commit
//! *before* the two policies were moved onto the shared `GroupRing` core.
//! The trace has no destage threads and iterates no hash map, so the numbers
//! repeat exactly; a refactor of the ring machinery that changes any of them
//! changed behaviour. (The committed `BENCH_*.json` counters cannot serve as
//! this gate: their destage threads make `flash_pages_written` and
//! `admission_filtered` move by a few percent between identical runs.)
//!
//! Both write modes run the ring's one group lifecycle; they differ only in
//! who applies a formed group — the ring inside `insert`, or this trace's
//! `destage`. The fault paths (`abort_group` in either mode, failed
//! evacuation reads) are not exercised here; `ring::tests` covers them.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;

use face_cache::{
    build_ring, CacheConfig, CachePolicyKind, CacheRecoveryInfo, CacheStats, FlashIoEvent,
    FlashStore, IoLog, MemFlashStore, PendingGroupWrite, RingCache, StagedPage,
};
use face_pagestore::{Lsn, Page, PageId};

const CAPACITY: usize = 256;
const PAGES: u64 = 640;
const STEPS: u64 = 24_000;
const CRASH_AT: u64 = 12_000;
/// The WAL's durable end at the crash. Every arm has handed out more LSNs
/// than this by then, so each loses its newest versions to the
/// reconciliation rule.
const DURABLE_AT_CRASH: Lsn = Lsn(5_700);

/// xorshift64*: the whole trace derives from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A page id with a hot set: three picks in four land on the first
    /// eighth of the key space.
    fn page(&mut self) -> PageId {
        let n = if self.below(4) < 3 {
            self.below(PAGES / 8)
        } else {
            self.below(PAGES)
        };
        PageId::new(0, n as u32)
    }
}

fn staged(page: PageId, lsn: u64, dirty: bool, fdirty: bool) -> StagedPage {
    let mut p = Page::new(page);
    p.set_lsn(Lsn(lsn));
    StagedPage::with_data(p, dirty, fdirty)
}

/// Flash and disk page totals of an [`IoLog`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct IoTotals {
    flash_write_seq: u64,
    flash_write_rand: u64,
    flash_read_seq: u64,
    flash_read_rand: u64,
    disk_writes: u64,
    disk_reads: u64,
}

impl IoTotals {
    fn absorb(&mut self, io: &mut IoLog) {
        for e in io.drain() {
            match e {
                FlashIoEvent::FlashWrite { pages, sequential } => {
                    if sequential {
                        self.flash_write_seq += u64::from(pages);
                    } else {
                        self.flash_write_rand += u64::from(pages);
                    }
                }
                FlashIoEvent::FlashRead { pages, sequential } => {
                    if sequential {
                        self.flash_read_seq += u64::from(pages);
                    } else {
                        self.flash_read_rand += u64::from(pages);
                    }
                }
                FlashIoEvent::DiskWrite { .. } => self.disk_writes += 1,
                FlashIoEvent::DiskRead { .. } => self.disk_reads += 1,
            }
        }
    }
}

/// Everything the trace observes. Compared field by field against the
/// recorded literal.
#[derive(Debug, PartialEq)]
struct Observed {
    stats: CacheStats,
    len: usize,
    /// Count and FNV-1a digest of the sorted `(page, lsn, dirty)` set of
    /// valid versions, right after the mid-trace recovery and at the end.
    versions_after_crash: (usize, u64),
    versions_at_end: (usize, u64),
    recovery: CacheRecoveryInfo,
    io: IoTotals,
    device_pages_written: u64,
    staged_out_pages: u64,
    groups_handed_back: u64,
    pins_validated: u64,
    pins_lost: u64,
}

/// The sorted set of valid versions, read through the trait: every page of
/// the key space the cache contains is fetched for its LSN and dirty flag.
/// Perturbs `lookups`, `hits` and reference bits, identically on every run.
fn valid_versions(cache: &mut dyn RingCache) -> (usize, u64) {
    let mut io = IoLog::new();
    let mut set = Vec::new();
    for n in 0..PAGES {
        let page = PageId::new(0, n as u32);
        if cache.contains(page) {
            let hit = cache
                .fetch(page, &mut io)
                .expect("mem store never fails")
                .expect("contained page fetches");
            set.push((n, hit.lsn.0, hit.dirty));
        }
    }
    set.sort_unstable();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (n, lsn, dirty) in &set {
        for word in [*n, *lsn, u64::from(*dirty)] {
            for byte in word.to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    (set.len(), digest)
}

/// Apply the `take` oldest handed-back groups in hand-back order (the
/// device order the destage pipeline guarantees), then report their
/// completions youngest first, so seals have to wait for older epochs.
fn destage(
    cache: &mut dyn RingCache,
    store: &MemFlashStore,
    queue: &mut VecDeque<PendingGroupWrite>,
    take: usize,
    io: &mut IoLog,
) {
    let mut applied = Vec::new();
    for _ in 0..take {
        let Some(group) = queue.pop_front() else {
            break;
        };
        // A sync may have applied and sealed the group inline already.
        if cache.group_write_pending(group.epoch) {
            group.apply(store, io).expect("mem store never fails");
            applied.push(group.epoch);
        }
    }
    for epoch in applied.into_iter().rev() {
        cache.complete_group(epoch, io);
    }
}

fn run(kind: CachePolicyKind, defer: bool) -> Observed {
    let store = Arc::new(MemFlashStore::new(CAPACITY));
    let config = CacheConfig {
        capacity_pages: CAPACITY,
        group_size: 8,
        meta_checkpoint_interval_groups: 4,
        defer_group_writes: defer,
        ..CacheConfig::default()
    };
    let mut cache = build_ring(kind, config, Arc::clone(&store) as Arc<dyn FlashStore>)
        .expect("a caching policy");
    let cache = cache.as_mut();

    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut tail_rng = Rng(0xD1B5_4A32_D192_ED03);
    let lsn = Cell::new(0u64);
    let next_lsn = || {
        lsn.set(lsn.get() + 1);
        lsn.get()
    };
    // The DRAM LRU tail Group Second Chance tops its batch up from: mostly
    // has a dirty page to give, sometimes runs dry.
    let mut dram_tail = || {
        if tail_rng.below(4) == 0 {
            return None;
        }
        let page = tail_rng.page();
        Some(staged(page, next_lsn(), true, true))
    };

    let mut io = IoLog::new();
    let mut totals = IoTotals::default();
    let mut queue: VecDeque<PendingGroupWrite> = VecDeque::new();
    let mut out = Observed {
        stats: CacheStats::default(),
        len: 0,
        versions_after_crash: (0, 0),
        versions_at_end: (0, 0),
        recovery: CacheRecoveryInfo::default(),
        io: IoTotals::default(),
        device_pages_written: 0,
        staged_out_pages: 0,
        groups_handed_back: 0,
        pins_validated: 0,
        pins_lost: 0,
    };

    let mut insert = |cache: &mut dyn RingCache,
                      queue: &mut VecDeque<PendingGroupWrite>,
                      out: &mut Observed,
                      io: &mut IoLog,
                      s: StagedPage| {
        let outcome = cache
            .insert(s, &mut dram_tail, io)
            .expect("mem store never fails");
        out.staged_out_pages += outcome.staged_out.len() as u64;
        if let Some(group) = outcome.pending_group {
            out.groups_handed_back += 1;
            queue.push_back(group);
        }
    };

    for step in 0..STEPS {
        if step == CRASH_AT {
            // Leave the pipeline in every intermediate state: the oldest
            // group applied and sealed, the next applied but unsealed, the
            // rest never written. All of it dies with the crash.
            destage(cache, &store, &mut queue, 1, &mut io);
            if let Some(group) = queue.pop_front() {
                if cache.group_write_pending(group.epoch) {
                    group
                        .apply(&*store, &mut io)
                        .expect("mem store never fails");
                }
            }
            queue.clear();
            out.recovery = cache.crash_and_recover(DURABLE_AT_CRASH, &mut io);
            out.versions_after_crash = valid_versions(cache);
        }
        let page = rng.page();
        match rng.below(100) {
            // Insert: clean re-eviction, clean first eviction, update, and
            // the rare dirty page whose flash copy is already current.
            0..=44 => {
                let (dirty, fdirty) = match rng.below(10) {
                    0..=1 => (false, false),
                    2..=4 => (false, true),
                    5..=8 => (true, true),
                    _ => (true, false),
                };
                let s = staged(page, next_lsn(), dirty, fdirty);
                insert(cache, &mut queue, &mut out, &mut io, s);
            }
            // Lock-light fetch; one in eight races a burst of inserts between
            // the pin and the validation, and retries if the slot was reused.
            45..=79 => {
                if let Some(pin) = cache.fetch_pin(page, false, &mut io) {
                    if rng.below(8) == 0 {
                        for _ in 0..6 {
                            let s = staged(rng.page(), next_lsn(), true, true);
                            insert(cache, &mut queue, &mut out, &mut io, s);
                        }
                    }
                    if pin.frame.is_none() && pin.data_expected {
                        store.read_slot(pin.slot).expect("mem store never fails");
                    }
                    if cache.fetch_validate(pin.slot, pin.generation) {
                        out.pins_validated += 1;
                    } else {
                        out.pins_lost += 1;
                        cache.fetch_pin(page, true, &mut io);
                    }
                }
            }
            80..=89 => {
                cache.fetch(page, &mut io).expect("mem store never fails");
            }
            90..=94 => {
                cache
                    .on_fetched_from_disk(page, &mut io)
                    .expect("mem store never fails");
            }
            95 => cache.sync(&mut io).expect("mem store never fails"),
            _ => {
                let take = 1 + rng.below(3) as usize;
                destage(cache, &store, &mut queue, take, &mut io);
            }
        }
        totals.absorb(&mut io);
    }

    out.stats = cache.stats();
    out.len = cache.len();
    out.io = totals;
    out.device_pages_written = store.pages_written();
    out.versions_at_end = valid_versions(cache);
    out
}

fn check(kind: CachePolicyKind, defer: bool, golden: Observed) {
    assert_eq!(run(kind, defer), golden, "{kind} defer={defer}");
}

#[test]
fn face_inline() {
    check(
        CachePolicyKind::Face,
        false,
        Observed {
            stats: CacheStats {
                lookups: 10830,
                hits: 8119,
                inserts: 15554,
                cached_inserts: 13124,
                skipped_inserts: 2430,
                dirty_inserts: 10212,
                invalidations: 9131,
                staged_out: 12612,
                staged_out_to_disk: 2547,
                second_chances: 0,
                pulled_from_dram: 0,
                lazily_cleaned: 0,
                metadata_flushes: 3373,
                fetch_retries: 5,
                flash_pages_written: 0,
                admission_filtered: 0,
                admission_ghost_hits: 0,
            },
            len: 256,
            versions_after_crash: (0, 14695981039346656037),
            versions_at_end: (133, 5657966168275095813),
            recovery: CacheRecoveryInfo {
                survived: true,
                metadata_segments_loaded: 1,
                pages_scanned: 2,
                entries_restored: 0,
                checkpoint_loaded: true,
                checkpoint_entries_loaded: 142,
                journal_records_replayed: 0,
                entries_discarded_beyond_wal: 142,
            },
            io: IoTotals {
                flash_write_seq: 32524,
                flash_write_rand: 0,
                flash_read_seq: 2551,
                flash_read_rand: 8120,
                disk_writes: 2547,
                disk_reads: 0,
            },
            device_pages_written: 13124,
            staged_out_pages: 2547,
            groups_handed_back: 0,
            pins_validated: 6351,
            pins_lost: 5,
        },
    );
}

#[test]
fn face_deferred() {
    check(
        CachePolicyKind::Face,
        true,
        Observed {
            stats: CacheStats {
                lookups: 10830,
                hits: 8119,
                inserts: 15554,
                cached_inserts: 13124,
                skipped_inserts: 2430,
                dirty_inserts: 10212,
                invalidations: 9131,
                staged_out: 12612,
                staged_out_to_disk: 2547,
                second_chances: 0,
                pulled_from_dram: 0,
                lazily_cleaned: 0,
                metadata_flushes: 3363,
                fetch_retries: 5,
                flash_pages_written: 0,
                admission_filtered: 0,
                admission_ghost_hits: 0,
            },
            len: 256,
            versions_after_crash: (0, 14695981039346656037),
            versions_at_end: (133, 5657966168275095813),
            recovery: CacheRecoveryInfo {
                survived: true,
                metadata_segments_loaded: 1,
                pages_scanned: 2,
                entries_restored: 0,
                checkpoint_loaded: true,
                checkpoint_entries_loaded: 139,
                journal_records_replayed: 0,
                entries_discarded_beyond_wal: 139,
            },
            io: IoTotals {
                flash_write_seq: 30111,
                flash_write_rand: 0,
                flash_read_seq: 2551,
                flash_read_rand: 8120,
                disk_writes: 2547,
                disk_reads: 0,
            },
            device_pages_written: 13082,
            staged_out_pages: 2547,
            groups_handed_back: 13124,
            pins_validated: 6351,
            pins_lost: 5,
        },
    );
}

#[test]
fn face_gr_inline() {
    check(
        CachePolicyKind::FaceGr,
        false,
        Observed {
            stats: CacheStats {
                lookups: 10791,
                hits: 8027,
                inserts: 15569,
                cached_inserts: 13122,
                skipped_inserts: 2447,
                dirty_inserts: 10184,
                invalidations: 9100,
                staged_out: 12618,
                staged_out_to_disk: 2572,
                second_chances: 0,
                pulled_from_dram: 0,
                lazily_cleaned: 0,
                metadata_flushes: 525,
                fetch_retries: 3,
                flash_pages_written: 0,
                admission_filtered: 0,
                admission_ghost_hits: 0,
            },
            len: 249,
            versions_after_crash: (0, 14695981039346656037),
            versions_at_end: (136, 17669575606665417865),
            recovery: CacheRecoveryInfo {
                survived: true,
                metadata_segments_loaded: 1,
                pages_scanned: 16,
                entries_restored: 0,
                checkpoint_loaded: true,
                checkpoint_entries_loaded: 134,
                journal_records_replayed: 0,
                entries_discarded_beyond_wal: 134,
            },
            io: IoTotals {
                flash_write_seq: 15828,
                flash_write_rand: 0,
                flash_read_seq: 10626,
                flash_read_rand: 8028,
                disk_writes: 2572,
                disk_reads: 0,
            },
            device_pages_written: 13116,
            staged_out_pages: 2572,
            groups_handed_back: 0,
            pins_validated: 6286,
            pins_lost: 3,
        },
    );
}

#[test]
fn face_gr_deferred() {
    check(
        CachePolicyKind::FaceGr,
        true,
        Observed {
            stats: CacheStats {
                lookups: 10791,
                hits: 8027,
                inserts: 15569,
                cached_inserts: 13122,
                skipped_inserts: 2447,
                dirty_inserts: 10184,
                invalidations: 9100,
                staged_out: 12618,
                staged_out_to_disk: 2572,
                second_chances: 0,
                pulled_from_dram: 0,
                lazily_cleaned: 0,
                metadata_flushes: 507,
                fetch_retries: 3,
                flash_pages_written: 0,
                admission_filtered: 0,
                admission_ghost_hits: 0,
            },
            len: 249,
            versions_after_crash: (0, 14695981039346656037),
            versions_at_end: (136, 17669575606665417865),
            recovery: CacheRecoveryInfo {
                survived: true,
                metadata_segments_loaded: 1,
                pages_scanned: 16,
                entries_restored: 0,
                checkpoint_loaded: true,
                checkpoint_entries_loaded: 134,
                journal_records_replayed: 0,
                entries_discarded_beyond_wal: 134,
            },
            io: IoTotals {
                flash_write_seq: 15627,
                flash_write_rand: 0,
                flash_read_seq: 10626,
                flash_read_rand: 8028,
                disk_writes: 2572,
                disk_reads: 0,
            },
            device_pages_written: 13116,
            staged_out_pages: 2572,
            groups_handed_back: 1535,
            pins_validated: 6286,
            pins_lost: 3,
        },
    );
}

#[test]
fn face_gsc_inline() {
    check(
        CachePolicyKind::FaceGsc,
        false,
        Observed {
            stats: CacheStats {
                lookups: 10774,
                hits: 8454,
                inserts: 20361,
                cached_inserts: 17739,
                skipped_inserts: 2622,
                dirty_inserts: 15001,
                invalidations: 13158,
                staged_out: 18626,
                staged_out_to_disk: 3278,
                second_chances: 1396,
                pulled_from_dram: 4503,
                lazily_cleaned: 0,
                metadata_flushes: 713,
                fetch_retries: 8,
                flash_pages_written: 0,
                admission_filtered: 0,
                admission_ghost_hits: 0,
            },
            len: 256,
            versions_after_crash: (0, 14695981039346656037),
            versions_at_end: (143, 8641401899899020811),
            recovery: CacheRecoveryInfo {
                survived: true,
                metadata_segments_loaded: 3,
                pages_scanned: 16,
                entries_restored: 0,
                checkpoint_loaded: true,
                checkpoint_entries_loaded: 138,
                journal_records_replayed: 16,
                entries_discarded_beyond_wal: 154,
            },
            io: IoTotals {
                flash_write_seq: 22968,
                flash_write_rand: 0,
                flash_read_seq: 16748,
                flash_read_rand: 8462,
                disk_writes: 3278,
                disk_reads: 0,
            },
            device_pages_written: 19126,
            staged_out_pages: 3278,
            groups_handed_back: 0,
            pins_validated: 6588,
            pins_lost: 8,
        },
    );
}

#[test]
fn face_gsc_deferred() {
    check(
        CachePolicyKind::FaceGsc,
        true,
        Observed {
            stats: CacheStats {
                lookups: 10774,
                hits: 8454,
                inserts: 20361,
                cached_inserts: 17739,
                skipped_inserts: 2622,
                dirty_inserts: 15001,
                invalidations: 13158,
                staged_out: 18626,
                staged_out_to_disk: 3278,
                second_chances: 1396,
                pulled_from_dram: 4503,
                lazily_cleaned: 0,
                metadata_flushes: 710,
                fetch_retries: 8,
                flash_pages_written: 0,
                admission_filtered: 0,
                admission_ghost_hits: 0,
            },
            len: 256,
            versions_after_crash: (0, 14695981039346656037),
            versions_at_end: (143, 8641401899899020811),
            recovery: CacheRecoveryInfo {
                survived: true,
                metadata_segments_loaded: 1,
                pages_scanned: 16,
                entries_restored: 0,
                checkpoint_loaded: true,
                checkpoint_entries_loaded: 136,
                journal_records_replayed: 0,
                entries_discarded_beyond_wal: 136,
            },
            io: IoTotals {
                flash_write_seq: 22489,
                flash_write_rand: 0,
                flash_read_seq: 16746,
                flash_read_rand: 8462,
                disk_writes: 3278,
                disk_reads: 0,
            },
            device_pages_written: 19046,
            staged_out_pages: 3278,
            groups_handed_back: 2305,
            pins_validated: 6588,
            pins_lost: 8,
        },
    );
}

#[test]
fn s3_fifo_inline() {
    check(
        CachePolicyKind::S3Fifo,
        false,
        Observed {
            stats: CacheStats {
                lookups: 10820,
                hits: 8343,
                inserts: 15762,
                cached_inserts: 12587,
                skipped_inserts: 2548,
                dirty_inserts: 10436,
                invalidations: 9579,
                staged_out: 13046,
                staged_out_to_disk: 2185,
                second_chances: 1077,
                pulled_from_dram: 0,
                lazily_cleaned: 0,
                metadata_flushes: 542,
                fetch_retries: 6,
                flash_pages_written: 0,
                admission_filtered: 746,
                admission_ghost_hits: 1380,
            },
            len: 247,
            versions_after_crash: (0, 14695981039346656037),
            versions_at_end: (127, 18347169103490503955),
            recovery: CacheRecoveryInfo {
                survived: true,
                metadata_segments_loaded: 3,
                pages_scanned: 16,
                entries_restored: 0,
                checkpoint_loaded: true,
                checkpoint_entries_loaded: 124,
                journal_records_replayed: 16,
                entries_discarded_beyond_wal: 139,
            },
            io: IoTotals {
                flash_write_seq: 16151,
                flash_write_rand: 0,
                flash_read_seq: 10371,
                flash_read_rand: 8349,
                disk_writes: 2185,
                disk_reads: 0,
            },
            device_pages_written: 13543,
            staged_out_pages: 2185,
            groups_handed_back: 0,
            pins_validated: 6518,
            pins_lost: 6,
        },
    );
}

#[test]
fn s3_fifo_deferred() {
    check(
        CachePolicyKind::S3Fifo,
        true,
        Observed {
            stats: CacheStats {
                lookups: 10826,
                hits: 8350,
                inserts: 15758,
                cached_inserts: 12583,
                skipped_inserts: 2546,
                dirty_inserts: 10432,
                invalidations: 9573,
                staged_out: 13044,
                staged_out_to_disk: 2188,
                second_chances: 1077,
                pulled_from_dram: 0,
                lazily_cleaned: 0,
                metadata_flushes: 517,
                fetch_retries: 3,
                flash_pages_written: 0,
                admission_filtered: 746,
                admission_ghost_hits: 1384,
            },
            len: 247,
            versions_after_crash: (0, 14695981039346656037),
            versions_at_end: (128, 3741777861694953945),
            recovery: CacheRecoveryInfo {
                survived: true,
                metadata_segments_loaded: 3,
                pages_scanned: 16,
                entries_restored: 0,
                checkpoint_loaded: true,
                checkpoint_entries_loaded: 124,
                journal_records_replayed: 16,
                entries_discarded_beyond_wal: 140,
            },
            io: IoTotals {
                flash_write_seq: 15976,
                flash_write_rand: 0,
                flash_read_seq: 10387,
                flash_read_rand: 8353,
                disk_writes: 2188,
                disk_reads: 0,
            },
            device_pages_written: 13517,
            staged_out_pages: 2188,
            groups_handed_back: 1575,
            pins_validated: 6526,
            pins_lost: 3,
        },
    );
}
