//! Standalone layer probes of the traced run: each layer's public functions
//! timed from outside, on zero-latency stores, with the workload's own
//! page-id stream. A probe is the per-call software cost of one layer with
//! nothing above or below it, so a change in `engine.*` self time can be
//! pinned on (or cleared of) the layer it calls into.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use face_analysis::{classes, OrderedMutex};
use face_buffer::{
    BufferPool, FetchOutcome, FetchSource, LowerTier, TierResult, WriteBackOutcome, WriteBackReason,
};
use face_cache::{
    CacheConfig, CachePolicyKind, FlashStore, IoLog, MemFlashStore, ShardedFlashCache, StagedPage,
};
use face_pagestore::{InMemoryPageStore, Lsn, Page, PageId, PageStore};
use face_wal::{InMemoryLogStorage, LogReader, LogRecord, LogStorage, TxnId, WalWriter};

use crate::input::{Stream, WRITE};
use crate::run::bucket_of;

/// Wall time of one probe; a dozen of them stay well inside the run.
const BUDGET: Duration = Duration::from_millis(120);

/// Call `op(i)` with `i = 0, 1, …` for [`BUDGET`]; nanoseconds per call.
fn ns_per_call(mut op: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    let mut calls = 0usize;
    loop {
        for _ in 0..128 {
            op(calls);
            calls += 1;
        }
        if started.elapsed() >= BUDGET {
            return started.elapsed().as_nanos() as f64 / calls as f64;
        }
    }
}

/// A lower tier that makes pages up, so the buffer pool is timed alone.
struct NullTier;

impl LowerTier for NullTier {
    fn fetch(&self, id: PageId, buf: &mut Page) -> TierResult<FetchOutcome> {
        *buf = Page::new(id);
        Ok(FetchOutcome {
            source: FetchSource::Disk,
            dirty: false,
        })
    }

    fn write_back(
        &self,
        _page: &Page,
        _dirty: bool,
        _fdirty: bool,
        _reason: WriteBackReason,
    ) -> TierResult<WriteBackOutcome> {
        Ok(WriteBackOutcome {
            in_flash: false,
            on_disk: true,
        })
    }

    fn allocate(&self, file: u32) -> TierResult<PageId> {
        Ok(PageId::new(file, 0))
    }

    fn sync(&self) -> TierResult<()> {
        Ok(())
    }
}

const FRAMES: usize = 512;
const FLASH_PAGES: usize = 4_096;
const GROUP: usize = 16;

/// The bucket pages `stream` touches, distinct, in first-touch order, topped
/// up with untouched pages so that cycling through them always misses a pool
/// of [`FRAMES`] frames.
fn page_ids(stream: &Stream, buckets: u32) -> Vec<PageId> {
    let mut seen = HashSet::new();
    let mut pages: Vec<PageId> = stream
        .ops()
        .iter()
        .map(|&op| bucket_of(op & !WRITE, buckets))
        .filter(|b| seen.insert(*b))
        .take(FLASH_PAGES)
        .map(|b| PageId::new(1, b))
        .collect();
    let mut next = buckets;
    while pages.len() < 4 * FRAMES {
        pages.push(PageId::new(1, next));
        next += 1;
    }
    pages
}

fn page_with_lsn(id: PageId, lsn: u64) -> Page {
    let mut page = Page::new(id);
    page.set_lsn(Lsn(lsn));
    page.update_checksum();
    page
}

pub fn run_all(stream: &Stream, buckets: u32, m: &mut BTreeMap<&'static str, f64>) {
    let pages = page_ids(stream, buckets);
    buffer(&pages, m);
    cache(&pages, m);
    wal(&pages, m);
    pagestore(&pages, m);
    let mutex = OrderedMutex::new(classes::SCRATCH_A, 0u64);
    m.insert(
        "analysis.probe.lock_ns",
        ns_per_call(|i| *mutex.lock() += i as u64),
    );
}

fn buffer(pages: &[PageId], m: &mut BTreeMap<&'static str, f64>) {
    let pool = BufferPool::with_shards(FRAMES, 8, NullTier).lock_light_reads(true);
    let hot = &pages[..FRAMES / 2];
    for &id in hot {
        pool.read(id, |p| p.lsn()).expect("NullTier never fails");
    }
    m.insert(
        "buffer.probe.read_hit_ns",
        ns_per_call(|i| {
            black_box(
                pool.read(hot[i % hot.len()], |p| p.lsn())
                    .expect("NullTier never fails"),
            );
        }),
    );
    m.insert(
        "buffer.probe.update_ns",
        ns_per_call(|i| {
            pool.update_with(hot[i % hot.len()], |p| p.write_body(0, &i.to_le_bytes()))
                .expect("NullTier never fails");
        }),
    );
    // Cycling through more pages than frames misses every time, and every
    // miss evicts.
    m.insert(
        "buffer.probe.read_miss_ns",
        ns_per_call(|i| {
            black_box(
                pool.read(pages[i % pages.len()], |p| p.lsn())
                    .expect("NullTier never fails"),
            );
        }),
    );
}

fn cache(pages: &[PageId], m: &mut BTreeMap<&'static str, f64>) {
    let config = CacheConfig {
        capacity_pages: FLASH_PAGES,
        group_size: GROUP,
        defer_group_writes: true,
        lock_light_reads: true,
        ..CacheConfig::default()
    };
    let cache = ShardedFlashCache::build(CachePolicyKind::FaceGsc, config, 4, |capacity| {
        Arc::new(MemFlashStore::new(capacity)) as Arc<dyn FlashStore>
    })
    .expect("FaceGsc builds a cache");
    let mut io = IoLog::new();
    // Ready-made dirty versions, so the probe times the cache and not the
    // making of a page.
    let images: Vec<Arc<Page>> = pages
        .iter()
        .enumerate()
        .map(|(i, &id)| Arc::new(page_with_lsn(id, i as u64 + 1)))
        .collect();
    let mut group_writes = 0u64;
    let mut group_write_ns = 0u128;
    // insert: dirty evictions enter the cache, filled groups are written and
    // sealed the way a destager thread would, timed apart.
    let started = Instant::now();
    let mut inserts = 0usize;
    while started.elapsed() < BUDGET + Duration::from_nanos(group_write_ns as u64) {
        let image = Arc::clone(&images[inserts % images.len()]);
        let staged = StagedPage::with_shared(image, true, true);
        let outcome = cache
            .insert(staged, &mut io)
            .expect("MemFlashStore never fails");
        inserts += 1;
        if let Some(group) = outcome.pending_group {
            let write_started = Instant::now();
            cache
                .apply_group_write(&group, &mut io)
                .expect("MemFlashStore never fails");
            cache.complete_group(group.shard, group.epoch, &mut io);
            group_write_ns += write_started.elapsed().as_nanos();
            group_writes += 1;
        }
        io.clear();
    }
    let insert_ns = started.elapsed().as_nanos() - group_write_ns;
    m.insert("cache.probe.insert_ns", insert_ns as f64 / inserts as f64);
    m.insert(
        "cache.probe.group_write_ns",
        group_write_ns as f64 / group_writes.max(1) as f64,
    );
    let cached: Vec<PageId> = pages
        .iter()
        .copied()
        .filter(|&p| cache.contains(p))
        .collect();
    m.insert(
        "cache.probe.fetch_hit_ns",
        ns_per_call(|i| {
            black_box(
                cache
                    .fetch(cached[i % cached.len()], &mut io)
                    .expect("no faults"),
            );
            io.clear();
        }),
    );
    m.insert(
        "cache.probe.fetch_miss_ns",
        ns_per_call(|i| {
            let absent = PageId::new(2, (i % FLASH_PAGES) as u32);
            black_box(cache.fetch(absent, &mut io).expect("no faults"));
            io.clear();
        }),
    );
    let started = Instant::now();
    black_box(cache.crash_and_recover(Lsn(u64::MAX), &mut io));
    m.insert(
        "cache.probe.recover_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
}

fn wal(pages: &[PageId], m: &mut BTreeMap<&'static str, f64>) {
    let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
    let writer = WalWriter::new(Arc::clone(&storage)).expect("an empty in-memory log opens");
    // The record the engine logs per put: one 128-byte slot image each way.
    let update = |i: usize| LogRecord::Update {
        txn: TxnId(i as u64 / 8 + 1),
        page: pages[i % pages.len()],
        offset: 128 * (i % 31) as u32,
        data: vec![i as u8; 128],
        before: vec![0u8; 128],
        prev_lsn: Lsn::ZERO,
    };
    // A transaction's worth of appends is timed, then forced untimed, so the
    // writer's RAM tail stays as short as it is under the engine.
    let (mut appends, mut append_ns, mut forces, mut force_ns) = (0usize, 0u128, 0usize, 0u128);
    let started = Instant::now();
    while started.elapsed() < 2 * BUDGET {
        let batch = Instant::now();
        for _ in 0..12 {
            black_box(writer.append(&update(appends)));
            appends += 1;
        }
        append_ns += batch.elapsed().as_nanos();
        let commit = LogRecord::Commit {
            txn: TxnId(forces as u64 + 1),
        };
        let force = Instant::now();
        black_box(writer.append_and_force(&commit).expect("in-memory log"));
        force_ns += force.elapsed().as_nanos();
        forces += 1;
    }
    m.insert("wal.probe.append_ns", append_ns as f64 / appends as f64);
    m.insert("wal.probe.force_ns", force_ns as f64 / forces as f64);
    writer.force_all().expect("in-memory log");
    let started = Instant::now();
    let mut reader = LogReader::new(storage);
    let mut records = 0u64;
    while let Some(record) = reader
        .next_record()
        .expect("the log just written reads back")
    {
        black_box(record);
        records += 1;
        if records.is_multiple_of(4096) && started.elapsed() >= BUDGET {
            break;
        }
    }
    m.insert(
        "wal.probe.scan_ns_per_record",
        started.elapsed().as_nanos() as f64 / records.max(1) as f64,
    );
}

fn pagestore(pages: &[PageId], m: &mut BTreeMap<&'static str, f64>) {
    let store = InMemoryPageStore::new();
    // The workload's page order, folded onto a range small enough to keep a
    // ready-made image of every page.
    let images: Vec<Page> = (0..2 * FRAMES)
        .map(|i| {
            let id = store.allocate(1).expect("in-memory allocate");
            page_with_lsn(id, i as u64 + 1)
        })
        .collect();
    let order: Vec<usize> = pages
        .iter()
        .map(|p| p.page_no as usize % images.len())
        .collect();
    m.insert(
        "pagestore.probe.write_ns",
        ns_per_call(|i| {
            let image = &images[order[i % order.len()]];
            store
                .write_page(image.id(), image)
                .expect("in-memory write");
        }),
    );
    let mut buf = Page::zeroed();
    m.insert(
        "pagestore.probe.read_ns",
        ns_per_call(|i| {
            let id = images[order[i % order.len()]].id();
            store.read_page(id, &mut buf).expect("in-memory read");
            black_box(buf.lsn());
        }),
    );
}
