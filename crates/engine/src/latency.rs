//! Real-time device emulation for the functional engine.
//!
//! The trace-driven simulator ([`crate::sim`]) charges *virtual* time, which
//! is right for reproducing the paper's figures but useless for exercising
//! the engine's actual concurrency: virtual clocks do not block threads.
//! [`DeviceLatency`] names the real (scaled-down) service time each physical
//! operation costs the calling thread; [`crate::db::Database::open`] splits
//! it into one [`face_pagestore::DeviceHooks`] per device, whose `admit`
//! does the sleeping. Under that emulation, multi-threaded throughput
//! behaves like the paper's MPL sweeps even on a single-core host — while
//! one committer sleeps in the log device's `sync`, other threads keep
//! appending, so group commit batches and aggregate transactions per second
//! rise with the thread count.
//!
//! The default latencies are the paper's testbed devices (15k RPM disk array,
//! MLC SSD, dedicated log disk) scaled down 10× so experiment runs stay in
//! the hundreds of milliseconds.

use std::time::Duration;

/// Per-operation service times of the three emulated devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceLatency {
    /// Random disk page read (the data array).
    pub disk_read: Duration,
    /// Random disk page write.
    pub disk_write: Duration,
    /// Random flash page read (flash-cache hit).
    pub flash_read: Duration,
    /// Flash page/batch write (sequential; charged once per batch).
    pub flash_write: Duration,
    /// Commit-time log force (sequential append + device sync).
    pub log_sync: Duration,
}

impl Default for DeviceLatency {
    fn default() -> Self {
        // Paper testbed, scaled 1:10 — disk ≈5 ms random I/O, MLC flash
        // ≈0.2/0.4 ms read/write, log force ≈1.5 ms on the dedicated disk.
        Self {
            disk_read: Duration::from_micros(500),
            disk_write: Duration::from_micros(500),
            flash_read: Duration::from_micros(20),
            flash_write: Duration::from_micros(40),
            log_sync: Duration::from_micros(150),
        }
    }
}

impl DeviceLatency {
    /// No sleeping at all.
    pub fn zero() -> Self {
        Self {
            disk_read: Duration::ZERO,
            disk_write: Duration::ZERO,
            flash_read: Duration::ZERO,
            flash_write: Duration::ZERO,
            log_sync: Duration::ZERO,
        }
    }
}

/// The behaviours the three instrumented device views share, each asserted
/// once over a table of every trait method of every view: delegation, which
/// calls are physical operations (checked by the lockdep I/O detector and
/// charged a service time) and which are bookkeeping (neither). The engine is
/// the one crate that sees all three views, so the table lives here.
#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::Arc;
    use std::time::Instant;

    use face_analysis::classes::{SCRATCH_A, SCRATCH_INNER};
    use face_analysis::witness::{self, ViolationKind};
    use face_analysis::{LockClassId, OrderedMutex};
    use face_cache::{FlashStore, InstrumentedFlashStore, MemFlashStore};
    use face_pagestore::{
        DeviceHooks, FaultPlan, InMemoryPageStore, InstrumentedPageStore, Lsn, Page, PageId,
        PageStore,
    };
    use face_wal::{InMemoryLogStorage, InstrumentedLogStorage, LogStorage};

    const TICK: Duration = Duration::from_millis(3);

    /// The three views over fresh in-memory devices, all behind `hooks`.
    struct Views {
        disk: Arc<dyn PageStore>,
        flash: Arc<dyn FlashStore>,
        log: Arc<dyn LogStorage>,
        /// An allocated disk page, checksummed and ready to write.
        page: Page,
    }

    fn views(hooks: DeviceHooks) -> Views {
        let disk = Arc::new(InMemoryPageStore::new());
        let id = disk.allocate(0).unwrap();
        let mut page = Page::new(id);
        page.set_lsn(Lsn(5));
        page.write_body(0, b"w");
        page.update_checksum();
        Views {
            disk: InstrumentedPageStore::wrap(disk, hooks.clone()),
            flash: InstrumentedFlashStore::wrap(Arc::new(MemFlashStore::new(8)), hooks.clone()),
            log: InstrumentedLogStorage::wrap(Arc::new(InMemoryLogStorage::new()), hooks),
            page,
        }
    }

    type Op = (&'static str, fn(&Views));

    /// Every trait method that is one physical device operation. Each entry
    /// also asserts that the call reached the inner store.
    const PHYSICAL: &[Op] = &[
        ("disk.write_page", |v| {
            v.disk.write_page(v.page.id(), &v.page).unwrap();
        }),
        ("disk.read_page", |v| {
            let mut out = Page::zeroed();
            v.disk.read_page(v.page.id(), &mut out).unwrap();
        }),
        ("disk.sync", |v| v.disk.sync().unwrap()),
        ("flash.write_slot", |v| {
            v.flash.write_slot(1, &v.page).unwrap();
            assert!(v.flash.slot_header(1).is_some());
        }),
        ("flash.write_slots", |v| {
            let pages = vec![v.page.clone(); 4];
            v.flash.write_slots(6, &pages).unwrap();
            assert!(v.flash.slot_header(1).is_some(), "wraps around");
        }),
        ("flash.write_batch", |v| {
            v.flash
                .write_batch(&[(2, &v.page), (3, &v.page), (4, &v.page)])
                .unwrap();
            assert!(v.flash.slot_header(4).is_some());
        }),
        ("flash.read_slot", |v| {
            assert!(v.flash.read_slot(5).unwrap().is_none());
        }),
        ("flash.read_batch", |v| {
            let pages = v.flash.read_batch(&[5, 6, 7]).unwrap();
            assert_eq!(pages.len(), 3);
        }),
        ("flash.clear", |v| v.flash.clear()),
        ("log.append", |v| {
            let at = v.log.len().unwrap();
            assert_eq!(v.log.append(b"abc").unwrap(), at);
        }),
        ("log.read_at", |v| {
            let mut buf = [0u8; 3];
            v.log.read_at(0, &mut buf).unwrap();
        }),
        ("log.sync", |v| v.log.sync().unwrap()),
        ("log.truncate", |v| v.log.truncate(1).unwrap()),
        ("log.set_restart_anchor", |v| {
            v.log.set_restart_anchor(Lsn(1)).unwrap();
        }),
        ("log.restart_anchor", |v| {
            v.log.restart_anchor().unwrap();
        }),
    ];

    /// Device operations one call of the entry makes: the anchor is written
    /// and then synced.
    fn device_ops(name: &str) -> usize {
        if name == "log.set_restart_anchor" {
            2
        } else {
            1
        }
    }

    /// Every trait method that only touches in-memory directory metadata.
    const BOOKKEEPING: &[Op] = &[
        ("disk.allocate", |v| {
            let before = v.disk.num_pages(0);
            v.disk.allocate(0).unwrap();
            assert_eq!(v.disk.num_pages(0), before + 1);
        }),
        ("disk.contains", |v| assert!(v.disk.contains(v.page.id()))),
        ("flash.capacity", |v| assert_eq!(v.flash.capacity(), 8)),
        ("flash.carries_data", |v| assert!(v.flash.carries_data())),
        ("flash.slot_header", |v| {
            let _ = v.flash.slot_header(0);
        }),
        ("flash.note_slot_header", |v| {
            // MemFlashStore derives headers from stored pages, so the explicit
            // note is a no-op there — this only checks the call delegates.
            v.flash.note_slot_header(3, PageId::new(0, 0), Lsn(5));
        }),
        ("flash.clear_slot", |v| v.flash.clear_slot(0)),
        ("flash.pages_written", |v| {
            let _ = v.flash.pages_written();
        }),
        ("log.len", |v| {
            v.log.len().unwrap();
        }),
    ];

    /// Hooks that are live (so the views really wrap) but change nothing.
    fn live_but_harmless() -> DeviceHooks {
        DeviceHooks {
            faults: Some(Arc::new(FaultPlan::new(0))),
            check: true,
            ..DeviceHooks::default()
        }
    }

    #[test]
    fn views_delegate_every_trait_method() {
        let v = views(live_but_harmless());
        for (_, op) in PHYSICAL.iter().chain(BOOKKEEPING) {
            op(&v);
        }
        // What the table wrote is what the views read back.
        v.flash.write_slot(1, &v.page).unwrap();
        let cached = v.flash.read_slot(1).unwrap().unwrap();
        assert_eq!(cached.read_body(0, 1), b"w");
        assert_eq!(v.flash.slot_header(1), Some((v.page.id(), Lsn(5))));
        assert_eq!(v.flash.pages_written(), 9);
        v.flash.clear_slot(1);
        assert!(v.flash.read_slot(1).unwrap().is_none());
        let mut out = Page::zeroed();
        v.disk.read_page(v.page.id(), &mut out).unwrap();
        assert_eq!(out.read_body(0, 1), b"w");
        assert_eq!(v.log.len().unwrap(), 1, "truncated to one byte");
        assert_eq!(v.log.restart_anchor().unwrap(), Some(Lsn(1)));

        // With nothing switched on there is no view at all.
        let raw: Arc<dyn FlashStore> = Arc::new(MemFlashStore::new(1));
        let same = InstrumentedFlashStore::wrap(Arc::clone(&raw), DeviceHooks::default());
        assert!(Arc::ptr_eq(&raw, &same));
        let raw: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
        let same = InstrumentedLogStorage::wrap(Arc::clone(&raw), DeviceHooks::default());
        assert!(Arc::ptr_eq(&raw, &same));
    }

    fn charging(read: Duration, write: Duration, sync: Duration) -> DeviceHooks {
        DeviceHooks {
            read,
            write,
            sync,
            ..DeviceHooks::default()
        }
    }

    #[test]
    fn nonzero_latency_actually_blocks() {
        let v = views(charging(TICK, TICK, TICK));
        for (name, op) in PHYSICAL {
            let start = Instant::now();
            op(&v);
            assert!(start.elapsed() >= TICK, "{name} did not pay");
        }
        // Hour-long service times: a call that pauses would hang the test.
        let hour = Duration::from_secs(3600);
        let v = views(charging(hour, hour, hour));
        for (_, op) in BOOKKEEPING {
            op(&v);
        }
        // A log device's hooks carry a sync time only, so only `sync` and the
        // anchor write (which ends in one) pause.
        let v = views(charging(Duration::ZERO, Duration::ZERO, hour));
        for (name, op) in PHYSICAL {
            let syncs = ["log.sync", "log.set_restart_anchor"].contains(name);
            if name.starts_with("log.") && !syncs {
                op(&v);
            }
        }
    }

    /// Violations recorded while running `op` with a lock of `class` held.
    fn violations_under(
        class: LockClassId,
        allow: bool,
        op: fn(&Views),
    ) -> Vec<witness::Violation> {
        let v = views(live_but_harmless());
        let guard = OrderedMutex::new(class, ());
        let (_, violations) = witness::capture(|| {
            // The scratch classes rank above every real store's internal lock;
            // suspend order checks so only the I/O detector speaks.
            let _region = witness::nested_region("test: isolate the I/O detector");
            let _g = guard.lock();
            let _allow = allow.then(|| witness::allow_device_io("test: acknowledged I/O"));
            op(&v);
        });
        violations
    }

    #[test]
    fn io_under_forbidding_lock_is_flagged() {
        if !face_analysis::enabled() {
            return;
        }
        for (name, op) in PHYSICAL {
            let violations = violations_under(SCRATCH_INNER, false, *op);
            // The flash entries read a header back after their one device op;
            // that is bookkeeping, so still exactly one report per device op.
            assert_eq!(violations.len(), device_ops(name), "{name}: {violations:?}");
            assert!(violations
                .iter()
                .all(|v| matches!(v.kind, ViolationKind::IoUnderLock)));
        }
        // Bookkeeping is legal under any lock.
        for (name, op) in BOOKKEEPING {
            let violations = violations_under(SCRATCH_INNER, false, *op);
            assert!(violations.is_empty(), "{name}: {violations:?}");
        }
    }

    #[test]
    fn io_without_forbidding_locks_is_clean() {
        if !face_analysis::enabled() {
            return;
        }
        // SCRATCH_A does not forbid I/O: device ops under it are legal.
        for (name, op) in PHYSICAL {
            let violations = violations_under(SCRATCH_A, false, *op);
            assert!(violations.is_empty(), "{name}: {violations:?}");
        }
    }

    #[test]
    fn allow_scope_exempts_acknowledged_io() {
        if !face_analysis::enabled() {
            return;
        }
        for (name, op) in PHYSICAL {
            let exempted = witness::exempted_io_ops();
            let violations = violations_under(SCRATCH_INNER, true, *op);
            assert!(violations.is_empty(), "{name}: {violations:?}");
            assert!(witness::exempted_io_ops() > exempted, "{name} not tallied");
        }
    }

    /// The whole order on one call: the check fires although the operation then
    /// fails (outermost), the failed operation pays (pause before fault), and
    /// nothing reaches the device (fault over the raw store).
    #[test]
    fn check_then_pause_then_fault_then_device() {
        let plan = Arc::new(FaultPlan::new(7).probability(1.0).permanent());
        let inner = Arc::new(MemFlashStore::new(4));
        let flash = InstrumentedFlashStore::wrap(
            inner.clone(),
            DeviceHooks {
                write: TICK,
                faults: Some(Arc::clone(&plan)),
                check: true,
                ..DeviceHooks::default()
            },
        );
        let guard = OrderedMutex::new(SCRATCH_INNER, ());
        let page = Page::new(PageId::new(0, 1));
        let start = Instant::now();
        let (result, violations) = witness::capture(|| {
            let _region = witness::nested_region("test: isolate the I/O detector");
            let _g = guard.lock();
            flash.write_slot(2, &page)
        });
        assert!(start.elapsed() >= TICK);
        assert_eq!(result.unwrap_err().slot(), Some(2));
        assert_eq!(inner.occupied(), 0);
        assert_eq!(plan.ops_observed(), 1);
        if face_analysis::enabled() {
            assert_eq!(violations.len(), 1, "{violations:?}");
        }
    }

    #[test]
    fn default_latency_orders_devices_sensibly() {
        let d = DeviceLatency::default();
        assert!(d.flash_read < d.disk_read, "flash must beat disk");
        assert!(d.log_sync < d.disk_read, "sequential log beats random disk");
    }
}
