//! Golden test for the trace simulator (`face_engine::sim`).
//!
//! One small seeded run per cache policy, plus an SSD-only data arm, replays
//! a skewed page-access trace for a closed population of clients: a warm-up,
//! a checkpoint, a measured window with a second checkpoint half-way, then
//! one crash and restart. Every integer the run produces — the makespan in
//! simulated nanoseconds, the run counters, the cache and DRAM-buffer
//! statistics of the measured window, and where restart found its redo
//! pages — is compared against literals recorded before `face-iosim` was cut
//! down to the device model the simulator runs.
//!
//! Only IEEE arithmetic (division, multiplication, `round`) reaches these
//! values, with no libm call on the path, so they do not depend on the host.
//! The nine trace suites are compared against a second run of the same
//! commit; this test is the check across commits. A change that moves a
//! literal changed what the simulator charges.

use face_buffer::sim::SimBufferStats;
use face_cache::{CacheConfig, CachePolicyKind, CacheStats};
use face_engine::sim::{PageAccess, SimConfig, SimEngine};
use face_pagestore::PageId;

const DB_PAGES: u64 = 4_000;
const WARMUP_TXNS: usize = 300;
const MEASURED_TXNS: usize = 600;

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

    /// A transaction of 4–15 accesses: three picks in four land on the
    /// first tenth of the database, one access in three is an update.
    fn transaction(&mut self) -> Vec<PageAccess> {
        let len = 4 + self.below(12);
        (0..len)
            .map(|_| {
                let range = if self.below(4) < 3 {
                    DB_PAGES / 10
                } else {
                    DB_PAGES
                };
                PageAccess {
                    page: PageId::from_u64(self.below(range)),
                    write: self.below(3) == 0,
                }
            })
            .collect()
    }
}

/// Everything the run observes, compared field by field.
#[derive(Debug, PartialEq)]
struct Observed {
    makespan_ns: u64,
    /// `SimCounters`: committed, committed NewOrders, page accesses.
    counters: (u64, u64, u64),
    cache: Option<CacheStats>,
    buffer: SimBufferStats,
    pages_from_flash: u64,
    pages_from_disk: u64,
}

fn drive(engine: &mut SimEngine, rng: &mut Rng, txns: usize) {
    for _ in 0..txns {
        let accesses = rng.transaction();
        let new_order = rng.below(2) == 0;
        engine.run_transaction(&accesses, new_order);
    }
}

fn run(policy: CachePolicyKind, data_on_flash: bool) -> Observed {
    let mut engine = SimEngine::new(SimConfig {
        db_pages: DB_PAGES,
        buffer_frames: 96,
        policy,
        cache_config: CacheConfig {
            capacity_pages: 384,
            group_size: 16,
            ..CacheConfig::default()
        },
        num_disks: 4,
        data_on_flash,
        clients: 6,
        ..SimConfig::default()
    });
    let mut rng = Rng(0x5EED_F00D_CAFE_0001);
    drive(&mut engine, &mut rng, WARMUP_TXNS);
    engine.checkpoint();
    engine.start_measurement();
    drive(&mut engine, &mut rng, MEASURED_TXNS / 2);
    engine.checkpoint();
    drive(&mut engine, &mut rng, MEASURED_TXNS / 2);
    let makespan_ns = engine.makespan();
    let c = engine.counters();
    let counters = (c.committed, c.committed_new_orders, c.accesses);
    let cache = engine.cache_stats();
    let buffer = engine.buffer_stats();
    let report = engine.crash_and_restart();
    Observed {
        makespan_ns,
        counters,
        cache,
        buffer,
        pages_from_flash: report.pages_from_flash,
        pages_from_disk: report.pages_from_disk,
    }
}

fn check(policy: CachePolicyKind, data_on_flash: bool, golden: Observed) {
    assert_eq!(
        run(policy, data_on_flash),
        golden,
        "{policy} data_on_flash={data_on_flash}"
    );
}

#[test]
fn no_cache() {
    check(
        CachePolicyKind::None,
        false,
        Observed {
            makespan_ns: 22266064145,
            counters: (900, 472, 8422),
            cache: None,
            buffer: SimBufferStats {
                accesses: 5523,
                hits: 773,
                misses: 4750,
                evictions: 4750,
                dirty_evictions: 1619,
            },
            pages_from_flash: 0,
            pages_from_disk: 523,
        },
    );
}

#[test]
fn face() {
    check(
        CachePolicyKind::Face,
        false,
        Observed {
            makespan_ns: 15478488550,
            counters: (900, 472, 8422),
            cache: Some(CacheStats {
                lookups: 4750,
                hits: 2119,
                inserts: 4805,
                cached_inserts: 3588,
                skipped_inserts: 1217,
                dirty_inserts: 2524,
                invalidations: 634,
                staged_out: 3588,
                staged_out_to_disk: 1424,
                second_chances: 0,
                pulled_from_dram: 0,
                lazily_cleaned: 0,
                metadata_flushes: 448,
                fetch_retries: 0,
                flash_pages_written: 0,
                admission_filtered: 0,
                admission_ghost_hits: 0,
            }),
            buffer: SimBufferStats {
                accesses: 5523,
                hits: 773,
                misses: 4750,
                evictions: 4750,
                dirty_evictions: 2469,
            },
            pages_from_flash: 237,
            pages_from_disk: 286,
        },
    );
}

#[test]
fn face_gr() {
    check(
        CachePolicyKind::FaceGr,
        false,
        Observed {
            makespan_ns: 14447017426,
            counters: (900, 472, 8422),
            cache: Some(CacheStats {
                lookups: 4750,
                hits: 2096,
                inserts: 4804,
                cached_inserts: 3613,
                skipped_inserts: 1191,
                dirty_inserts: 2510,
                invalidations: 618,
                staged_out: 3616,
                staged_out_to_disk: 1442,
                second_chances: 0,
                pulled_from_dram: 0,
                lazily_cleaned: 0,
                metadata_flushes: 28,
                fetch_retries: 0,
                flash_pages_written: 0,
                admission_filtered: 0,
                admission_ghost_hits: 0,
            }),
            buffer: SimBufferStats {
                accesses: 5523,
                hits: 773,
                misses: 4750,
                evictions: 4750,
                dirty_evictions: 2456,
            },
            pages_from_flash: 234,
            pages_from_disk: 289,
        },
    );
}

#[test]
fn face_gsc() {
    check(
        CachePolicyKind::FaceGsc,
        false,
        Observed {
            makespan_ns: 13112642125,
            counters: (900, 472, 8422),
            cache: Some(CacheStats {
                lookups: 4854,
                hits: 2355,
                inserts: 4896,
                cached_inserts: 3362,
                skipped_inserts: 1534,
                dirty_inserts: 2756,
                invalidations: 867,
                staged_out: 4592,
                staged_out_to_disk: 1200,
                second_chances: 1238,
                pulled_from_dram: 2444,
                lazily_cleaned: 0,
                metadata_flushes: 36,
                fetch_retries: 0,
                flash_pages_written: 0,
                admission_filtered: 0,
                admission_ghost_hits: 0,
            }),
            buffer: SimBufferStats {
                accesses: 5523,
                hits: 669,
                misses: 4854,
                evictions: 4854,
                dirty_evictions: 2714,
            },
            pages_from_flash: 239,
            pages_from_disk: 284,
        },
    );
}

#[test]
fn s3fifo() {
    check(
        CachePolicyKind::S3Fifo,
        false,
        Observed {
            makespan_ns: 11880206107,
            counters: (900, 472, 8422),
            cache: Some(CacheStats {
                lookups: 4750,
                hits: 2461,
                inserts: 4814,
                cached_inserts: 2091,
                skipped_inserts: 1636,
                dirty_inserts: 2966,
                invalidations: 909,
                staged_out: 3072,
                staged_out_to_disk: 926,
                second_chances: 1063,
                pulled_from_dram: 0,
                lazily_cleaned: 0,
                metadata_flushes: 21,
                fetch_retries: 0,
                flash_pages_written: 0,
                admission_filtered: 1161,
                admission_ghost_hits: 561,
            }),
            buffer: SimBufferStats {
                accesses: 5523,
                hits: 773,
                misses: 4750,
                evictions: 4750,
                dirty_evictions: 2902,
            },
            pages_from_flash: 278,
            pages_from_disk: 245,
        },
    );
}

#[test]
fn lc() {
    check(
        CachePolicyKind::Lc,
        false,
        Observed {
            makespan_ns: 12205007023,
            counters: (900, 472, 8422),
            cache: Some(CacheStats {
                lookups: 4750,
                hits: 3168,
                inserts: 4750,
                cached_inserts: 4750,
                skipped_inserts: 0,
                dirty_inserts: 2541,
                invalidations: 0,
                staged_out: 1582,
                staged_out_to_disk: 431,
                second_chances: 0,
                pulled_from_dram: 0,
                lazily_cleaned: 118,
                metadata_flushes: 0,
                fetch_retries: 0,
                flash_pages_written: 0,
                admission_filtered: 0,
                admission_ghost_hits: 0,
            }),
            buffer: SimBufferStats {
                accesses: 5523,
                hits: 773,
                misses: 4750,
                evictions: 4750,
                dirty_evictions: 2541,
            },
            pages_from_flash: 0,
            pages_from_disk: 523,
        },
    );
}

#[test]
fn tac() {
    check(
        CachePolicyKind::Tac,
        false,
        Observed {
            makespan_ns: 21166458223,
            counters: (900, 472, 8422),
            cache: Some(CacheStats {
                lookups: 4750,
                hits: 2130,
                inserts: 4750,
                cached_inserts: 4239,
                skipped_inserts: 0,
                dirty_inserts: 1619,
                invalidations: 0,
                staged_out: 2620,
                staged_out_to_disk: 1619,
                second_chances: 0,
                pulled_from_dram: 0,
                lazily_cleaned: 0,
                metadata_flushes: 6859,
                fetch_retries: 0,
                flash_pages_written: 0,
                admission_filtered: 0,
                admission_ghost_hits: 0,
            }),
            buffer: SimBufferStats {
                accesses: 5523,
                hits: 773,
                misses: 4750,
                evictions: 4750,
                dirty_evictions: 1619,
            },
            pages_from_flash: 0,
            pages_from_disk: 523,
        },
    );
}

#[test]
fn ssd_only_data() {
    check(
        CachePolicyKind::None,
        true,
        Observed {
            makespan_ns: 809101983,
            counters: (900, 472, 8422),
            cache: None,
            buffer: SimBufferStats {
                accesses: 5523,
                hits: 773,
                misses: 4750,
                evictions: 4750,
                dirty_evictions: 1619,
            },
            pages_from_flash: 0,
            pages_from_disk: 523,
        },
    );
}
