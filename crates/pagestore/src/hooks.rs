//! The per-operation device pipeline: what every physical I/O pays before it
//! reaches the raw device.
//!
//! One [`DeviceHooks`] value per device (disk, flash, log) holds that
//! device's read / write / sync service times, an optional seeded
//! [`FaultPlan`], and whether the lockdep I/O-under-lock check applies. The
//! three instrumented views — [`InstrumentedPageStore`] here,
//! `InstrumentedFlashStore` in `face-cache`, `InstrumentedLogStorage` in
//! `face-wal` — each delegate every trait method to the raw store and route
//! every *physical* operation through [`DeviceHooks::admit`] (or, for a group
//! write, [`DeviceHooks::admit_batch`]) first; both run the one pipeline.
//!
//! ## Per-operation order
//!
//! 1. **Lockdep check** ([`check_device_op`]) — outermost, so the witness
//!    sees exactly the locks the *caller* holds when it touches the device.
//!    A lock of a `forbids_io` class (cache shard, ghost admission, destage
//!    queue) held here is an `IoUnderLock` violation: the machine-checked
//!    form of FaCE's contract that foreground paths never touch a device
//!    under a hot lock. The flash check applies to the FaCE-family policies
//!    only; LC and TAC stage to flash synchronously under the shard lock *by
//!    design* (the overhead the paper's group write removes).
//! 2. **Service-time pause** — before the fault decision, so a failed
//!    operation costs what a real one would. Charged once per call: a
//!    `write_slots` / `write_batch` group is one sequential device operation
//!    and pays one write time, not one per page, and a flash `read_batch`
//!    (the group dequeue's victim read) pays one read time. On the log `append`,
//!    `read_at`, `sync`, `truncate` and the restart-anchor calls are all
//!    checked but only `sync` pauses (an anchor write is a write then a
//!    sync) — the group-commit lever: the leader sleeps there while other
//!    committers append and pile onto the next batch.
//! 3. **Fault decision** ([`FaultPlan::decide`]) — directly over the raw
//!    device, so the retry / quarantine / breaker machinery above sees an
//!    injected error exactly as it would a failing medium. Called exactly
//!    once per data operation (reads, writes, and the recovery header scan;
//!    a batch is one operation, decided on its first slot), never for syncs,
//!    so seeded plans fire on stable operation indices. A
//!    latency spike sleeps and proceeds; a torn *batch* persists its first
//!    half and then errors; a torn single-page write persists nothing.
//! 4. **The inner store.**
//!
//! Directory bookkeeping (`allocate`, `num_pages`, `contains`, `len`,
//! `capacity`, `note_slot_header`, `clear_slot`, `carries_data`,
//! `pages_written`) reads or writes in-memory metadata: it is legal under
//! any lock and costs nothing, so the views pass it straight through.
//! `slot_header` is the one in-between case ([`HookOp::HeaderRead`]).
//!
//! When a device's hooks are all inert ([`DeviceHooks::is_inert`]) the views'
//! `wrap` constructors hand back the raw store unwrapped.
//!
//! This file is the one place on the device path allowed to block on
//! wall-clock time (service times, latency spikes, retry backoff);
//! `face-lint` exempts it the way it exempts the `face-iosim` emulators.

use std::sync::Arc;
use std::time::Duration;

use face_analysis::witness::check_device_op;

use crate::device::{DeviceOp, DeviceResult};
use crate::fault::{FaultAction, FaultPlan};
use crate::page::{Page, PageId};
use crate::store::{PageStore, StoreResult};

/// How one trait method is treated by [`DeviceHooks::admit`].
#[derive(Debug, Clone, Copy)]
pub enum HookOp {
    /// A physical read: checked, charged the read time, fault-gated as
    /// [`DeviceOp::Read`].
    Read,
    /// A physical write (one page or one sequential batch): checked, charged
    /// the write time once, fault-gated as [`DeviceOp::Write`].
    Write,
    /// A barrier or whole-device control operation (`sync`, flash `clear`):
    /// checked and charged the sync time, never faulted.
    Sync,
    /// Recovery's `slot_header` probe: in-memory directory metadata on every
    /// shipped store, so neither checked nor charged, but fault-gated as a
    /// [`DeviceOp::Read`] — an unreadable slot is simply not re-admitted.
    HeaderRead,
}

/// One device's instrumentation; see the module docs for the order it is
/// applied in. The default is inert.
#[derive(Debug, Clone, Default)]
pub struct DeviceHooks {
    /// Service time of a page read.
    pub read: Duration,
    /// Service time of a write call (one page or one batch).
    pub write: Duration,
    /// Service time of a sync.
    pub sync: Duration,
    /// Seed-deterministic fault injection over the raw device.
    pub faults: Option<Arc<FaultPlan>>,
    /// Report physical operations to the lockdep I/O-under-lock detector.
    pub check: bool,
}

impl DeviceHooks {
    /// Whether every hook is a no-op, so wrapping a store would only add a
    /// dynamic hop.
    pub fn is_inert(&self) -> bool {
        !self.check && self.faults.is_none() && (self.read + self.write + self.sync).is_zero()
    }

    /// Admit one operation that is performed whole or not at all: a read, a
    /// sync, or a single-page write — page granularity is the smallest unit
    /// the stores model, so a torn one persists nothing. `label` names the
    /// operation in witness reports; `slot` is the slot (or page number)
    /// fault triggers match on.
    pub fn admit(&self, label: &'static str, op: HookOp, slot: Option<usize>) -> DeviceResult<()> {
        match self.verdict(label, op, slot) {
            Some(FaultAction::Fail(e) | FaultAction::Torn(e)) => Err(e),
            _ => Ok(()),
        }
    }

    /// Admit one sequential batch write of `items` — one operation, charged
    /// and fault-gated once on its first slot — and perform it with `write`.
    /// A torn batch persists its first half, then fails: the journal group
    /// must not seal, so recovery ignores it.
    pub fn admit_batch<T>(
        &self,
        label: &'static str,
        first_slot: Option<usize>,
        items: &[T],
        write: impl Fn(&[T]) -> DeviceResult<()>,
    ) -> DeviceResult<()> {
        match self.verdict(label, HookOp::Write, first_slot) {
            Some(FaultAction::Fail(e)) => Err(e),
            Some(FaultAction::Torn(e)) => {
                write(&items[..items.len() / 2])?;
                Err(e)
            }
            _ => write(items),
        }
    }

    /// The pipeline itself: lockdep check, service-time pause, fault
    /// decision. A latency spike is served here, so what comes back is
    /// proceed (`None`), fail, or torn.
    fn verdict(&self, label: &'static str, op: HookOp, slot: Option<usize>) -> Option<FaultAction> {
        let (checked, charge, fault_as) = match op {
            HookOp::Read => (true, self.read, Some(DeviceOp::Read)),
            HookOp::Write => (true, self.write, Some(DeviceOp::Write)),
            HookOp::Sync => (true, self.sync, None),
            HookOp::HeaderRead => (false, Duration::ZERO, Some(DeviceOp::Read)),
        };
        if self.check && checked {
            check_device_op(label);
        }
        std::thread::sleep(charge);
        let (plan, device_op) = self.faults.as_ref().zip(fault_as)?;
        match plan.decide(device_op, slot)? {
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                None
            }
            verdict => Some(verdict),
        }
    }
}

/// Capped exponential backoff between retries of a transient device error:
/// 50 µs doubling per attempt, capped at 2 ms. Callers must not hold any
/// lock (the destager retries between jobs; foreground retries run off-lock).
pub fn backoff_sleep(attempt: u32) {
    let micros = 50u64.saturating_mul(1 << attempt.min(6));
    std::thread::sleep(Duration::from_micros(micros.min(2_000)));
}

/// The instrumented [`PageStore`] view: every disk read, write and sync goes
/// through [`DeviceHooks::admit`]. Fault slot-range triggers match on the
/// page number within its file.
pub struct InstrumentedPageStore {
    inner: Arc<dyn PageStore>,
    hooks: DeviceHooks,
}

impl InstrumentedPageStore {
    /// `inner` behind `hooks` — or `inner` itself when the hooks are inert.
    pub fn wrap(inner: Arc<dyn PageStore>, hooks: DeviceHooks) -> Arc<dyn PageStore> {
        if hooks.is_inert() {
            return inner;
        }
        Arc::new(Self { inner, hooks })
    }
}

impl PageStore for InstrumentedPageStore {
    fn read_page(&self, id: PageId, buf: &mut Page) -> StoreResult<()> {
        let slot = Some(id.page_no as usize);
        self.hooks.admit("disk.read_page", HookOp::Read, slot)?;
        self.inner.read_page(id, buf)
    }

    fn write_page(&self, id: PageId, page: &Page) -> StoreResult<()> {
        let slot = Some(id.page_no as usize);
        self.hooks.admit("disk.write_page", HookOp::Write, slot)?;
        self.inner.write_page(id, page)
    }

    fn allocate(&self, file: u32) -> StoreResult<PageId> {
        self.inner.allocate(file)
    }

    fn num_pages(&self, file: u32) -> u64 {
        self.inner.num_pages(file)
    }

    fn sync(&self) -> StoreResult<()> {
        self.hooks.admit("disk.sync", HookOp::Sync, None)?;
        self.inner.sync()
    }

    fn contains(&self, id: PageId) -> bool {
        self.inner.contains(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceErrorKind;
    use crate::fault::FaultMode;
    use crate::mem_store::InMemoryPageStore;
    use crate::page::Lsn;
    use crate::store::StoreError;
    use std::time::Instant;

    const TICK: Duration = Duration::from_millis(5);

    fn faulty(plan: FaultPlan) -> DeviceHooks {
        DeviceHooks {
            faults: Some(Arc::new(plan)),
            ..DeviceHooks::default()
        }
    }

    /// An inner store no operation may reach.
    struct Untouchable;

    impl PageStore for Untouchable {
        fn read_page(&self, _: PageId, _: &mut Page) -> StoreResult<()> {
            unreachable!("read reached the device")
        }
        fn write_page(&self, _: PageId, _: &Page) -> StoreResult<()> {
            unreachable!("write reached the device")
        }
        fn allocate(&self, _: u32) -> StoreResult<PageId> {
            unreachable!()
        }
        fn num_pages(&self, _: u32) -> u64 {
            unreachable!()
        }
        fn sync(&self) -> StoreResult<()> {
            unreachable!("sync reached the device")
        }
    }

    #[test]
    fn inert_hooks_hand_back_the_raw_store() {
        assert!(DeviceHooks::default().is_inert());
        let raw: Arc<dyn PageStore> = Arc::new(InMemoryPageStore::new());
        let same = InstrumentedPageStore::wrap(Arc::clone(&raw), DeviceHooks::default());
        assert!(Arc::ptr_eq(&raw, &same));
        for live in [
            DeviceHooks {
                read: TICK,
                ..DeviceHooks::default()
            },
            DeviceHooks {
                check: true,
                ..DeviceHooks::default()
            },
            faulty(FaultPlan::new(0)),
        ] {
            assert!(!live.is_inert());
            let view = InstrumentedPageStore::wrap(Arc::clone(&raw), live);
            assert!(!Arc::ptr_eq(&raw, &view));
        }
    }

    #[test]
    fn faulty_page_store_surfaces_typed_errors() {
        let inner = Arc::new(InMemoryPageStore::new());
        let id = inner.allocate(0).unwrap();
        let mut page = Page::new(id);
        page.set_lsn(Lsn(1));
        page.update_checksum();

        // Torn mode: a torn single-page write persists nothing.
        let hooks = faulty(
            FaultPlan::new(11)
                .fail_nth(1)
                .permanent()
                .mode(FaultMode::TornWrite),
        );
        let plan = hooks.faults.clone().unwrap();
        let store = InstrumentedPageStore::wrap(inner.clone(), hooks);
        let err = store.write_page(id, &page).unwrap_err();
        match err {
            StoreError::Device(e) => {
                assert_eq!(e.kind, DeviceErrorKind::Permanent);
                assert_eq!(e.op, DeviceOp::Write);
                assert_eq!(e.slot(), Some(id.page_no as usize));
            }
            other => panic!("expected device error, got {other}"),
        }
        // The failed write persisted nothing.
        assert_eq!(inner.materialized_pages(), 0);
        // Later ops pass through.
        store.write_page(id, &page).unwrap();
        let mut out = Page::zeroed();
        store.read_page(id, &mut out).unwrap();
        assert_eq!(out.lsn(), Lsn(1));
        assert_eq!(plan.faults_injected(), 1);
    }

    /// The composed order: a failing operation still pays its service time
    /// (pause before fault), and the fault sits between the pause and the
    /// device (the inner store is never reached).
    #[test]
    fn failed_read_pays_the_service_time_and_never_reaches_the_device() {
        let hooks = DeviceHooks {
            read: TICK,
            ..faulty(FaultPlan::new(3).probability(1.0).permanent())
        };
        let plan = hooks.faults.clone().unwrap();
        let store = InstrumentedPageStore::wrap(Arc::new(Untouchable), hooks);
        let start = Instant::now();
        let err = store
            .read_page(PageId::new(0, 7), &mut Page::zeroed())
            .unwrap_err();
        assert!(start.elapsed() >= TICK, "a failed read costs a real one");
        assert!(matches!(err, StoreError::Device(e) if e.slot() == Some(7)));
        assert_eq!(plan.ops_observed(), 1);
    }

    #[test]
    fn latency_spike_sleeps_and_proceeds() {
        let hooks = faulty(
            FaultPlan::new(1)
                .fail_nth(1)
                .mode(FaultMode::LatencySpike(TICK)),
        );
        let start = Instant::now();
        assert_eq!(hooks.admit("t", HookOp::Write, Some(0)), Ok(()));
        assert!(start.elapsed() >= TICK);
    }

    #[test]
    fn syncs_are_never_faulted_and_header_reads_are_never_charged() {
        let hooks = DeviceHooks {
            read: Duration::from_secs(3600),
            sync: TICK,
            ..faulty(FaultPlan::new(1).probability(1.0))
        };
        let plan = hooks.faults.clone().unwrap();
        let start = Instant::now();
        assert_eq!(hooks.admit("t", HookOp::Sync, None), Ok(()));
        assert!(start.elapsed() >= TICK);
        assert_eq!(plan.ops_observed(), 0, "a sync never consults the plan");
        // Fault-gated as a read on its slot, but free (an hour-long read
        // time would hang the test otherwise).
        let e = hooks.admit("t", HookOp::HeaderRead, Some(4)).unwrap_err();
        assert_eq!((e.op, e.slot()), (DeviceOp::Read, Some(4)));
    }
}
