//! Criterion benchmarks of the recovery path: flash-cache directory restore
//! from the metadata journal and WAL redo/undo planning.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use face_cache::{
    CacheConfig, FlashCache, FlashStore, HeaderFlashStore, IoLog, MvFifoCache, NoSupplier,
    StagedPage,
};
use face_pagestore::{Lsn, PageId};
use face_wal::{
    build_recovery_plan, recovery::build_redo_plan, InMemoryLogStorage, LogRecord, LogStorage,
    TxnId, WalWriter,
};

/// The production restore path: 100k enqueues journaled through the ring
/// (group size 64, default checkpoint cadence), then a crash, then
/// [`MvFifoCache::recover`] rebuilding the directory from the surviving
/// checkpoint and sealed groups.
fn bench_ring_recover(c: &mut Criterion) {
    c.bench_function("mvfifo_recover_100k", |b| {
        let capacity = 200_000;
        let config = CacheConfig {
            capacity_pages: capacity,
            ..CacheConfig::default()
        };
        let store: Arc<dyn FlashStore> = Arc::new(HeaderFlashStore::new(capacity));
        let mut cache = MvFifoCache::new(config.clone(), Arc::clone(&store));
        let mut io = IoLog::new();
        for i in 0..100_000u32 {
            let page = StagedPage::meta_only(PageId::new(0, i), Lsn(i as u64), i % 2 == 0, true);
            cache
                .insert(page, &mut NoSupplier, &mut io)
                .expect("header store never fails");
            io.clear();
        }
        let mut survivor = cache.journal().clone();
        survivor.crash();
        b.iter(|| {
            let (recovered, info) = MvFifoCache::recover(
                config.clone(),
                Arc::clone(&store),
                &survivor,
                Lsn(u64::MAX),
                &mut IoLog::new(),
            );
            black_box((recovered.len(), info.entries_restored));
        });
    });
}

fn bench_redo_plan(c: &mut Criterion) {
    c.bench_function("wal_redo_plan_20k_records", |b| {
        let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
        let writer = WalWriter::new(Arc::clone(&storage)).unwrap();
        for t in 0..1_000u64 {
            writer.append(&LogRecord::Begin { txn: TxnId(t) });
            for u in 0..18u32 {
                writer.append(&LogRecord::Update {
                    txn: TxnId(t),
                    page: PageId::new(1, (t as u32 * 18 + u) % 5_000),
                    offset: 0,
                    data: vec![0xAB; 64],
                    before: vec![0xBA; 64],
                    prev_lsn: Lsn::ZERO,
                });
            }
            writer.append(&LogRecord::Commit { txn: TxnId(t) });
        }
        writer.force_all().unwrap();
        b.iter(|| {
            let (_, plan) = build_redo_plan(Arc::clone(&storage)).unwrap();
            black_box(plan.len());
        });
    });
}

fn bench_recovery_plan_with_losers(c: &mut Criterion) {
    c.bench_function("wal_recovery_plan_20k_records_10pct_losers", |b| {
        let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
        let writer = WalWriter::new(Arc::clone(&storage)).unwrap();
        for t in 0..1_000u64 {
            writer.append(&LogRecord::Begin { txn: TxnId(t) });
            let mut prev = Lsn::ZERO;
            for u in 0..18u32 {
                prev = writer.append(&LogRecord::Update {
                    txn: TxnId(t),
                    page: PageId::new(1, (t as u32 * 18 + u) % 5_000),
                    offset: 0,
                    data: vec![0xAB; 64],
                    before: vec![0xBA; 64],
                    prev_lsn: prev,
                });
            }
            // One transaction in ten is a loser: no commit, its chain feeds
            // the undo plan.
            if t % 10 != 0 {
                writer.append(&LogRecord::Commit { txn: TxnId(t) });
            }
        }
        writer.force_all().unwrap();
        b.iter(|| {
            let (_, redo, undo) = build_recovery_plan(Arc::clone(&storage)).unwrap();
            black_box((redo.len(), undo.len()));
        });
    });
}

criterion_group!(
    benches,
    bench_ring_recover,
    bench_redo_plan,
    bench_recovery_plan_with_losers
);
criterion_main!(benches);
