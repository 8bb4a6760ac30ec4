//! Degraded-mode policy: retry budgets, slot quarantine and the disk-only
//! trip breaker.
//!
//! FaCE's safety argument makes the flash cache *disposable* — committed
//! data is always reconstructible from WAL + disk — so the right response
//! to a failing flash device is never a panic: it is to stop depending on
//! the failing part and keep serving. The [`DegradeController`] centralises
//! that policy:
//!
//! * **Transient** errors earn a bounded retry with backoff, always off the
//!   foreground path (destager workers, or off-lock read retries) — never
//!   while a `no device I/O` lock class is held.
//! * **Permanent slot-scoped** errors (and transient ones that exhaust
//!   their retries) quarantine the slot: it leaves the replacement
//!   rotation, its resident version is invalidated (clean pages re-fetch
//!   from disk; dirty pages are WAL-guard-evacuated first).
//! * Repeated failures — or any **whole-device** permanent error — trip
//!   the breaker into disk-only degraded mode: flash inserts become
//!   no-ops, fetches miss to disk, dirty flash pages are evacuated, and
//!   the engine keeps serving. `Database::heal_flash()` later re-enables
//!   the tier cold.
//!
//! The breaker state machine (see README "Degraded mode"):
//!
//! ```text
//! Closed ──failure threshold──▶ TripRequested ──foreground claims──▶
//! Evacuating ──dirty pages on disk──▶ Tripped ──heal_flash()──▶ Closed
//! ```
//!
//! `TripRequested`/`Evacuating` still serve flash fetches (the data is intact
//! until evacuated) and still admit new pages: the tier routes every insert
//! through the cache until the breaker reads `Tripped`, because a bypassed
//! insert would leave an older resident copy to win a later fetch. `Tripped`
//! bypasses the flash tier entirely. Every transition and counter is observable
//! through [`DegradeStats`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use face_analysis::classes::DIAG;
use face_analysis::OrderedMutex;
use face_pagestore::{DeviceError, DeviceErrorKind, DeviceOp, DeviceScope};
use serde::{Deserialize, Serialize};

/// The trip breaker's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: the flash tier admits and serves pages.
    Closed,
    /// Failures passed the threshold; the next foreground operation will
    /// claim the evacuation. Fetches and inserts still go through flash.
    TripRequested,
    /// A thread is evacuating dirty flash pages to disk (WAL-guarded).
    /// Fetches and inserts still go through flash.
    Evacuating,
    /// Disk-only degraded mode: inserts are no-ops, fetches miss to disk.
    Tripped,
}

impl BreakerState {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => BreakerState::Closed,
            1 => BreakerState::TripRequested,
            2 => BreakerState::Evacuating,
            _ => BreakerState::Tripped,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::TripRequested => 1,
            BreakerState::Evacuating => 2,
            BreakerState::Tripped => 3,
        }
    }

    /// Stable lower-case name (bench JSON, logs).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::TripRequested => "trip-requested",
            BreakerState::Evacuating => "evacuating",
            BreakerState::Tripped => "tripped",
        }
    }
}

/// What the caller that observed a device error should do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeAction {
    /// Absorb the failure locally (miss to disk / drop the group) and move
    /// on.
    Continue,
    /// Quarantine this slot of this shard: take it out of rotation and
    /// invalidate its resident version (evacuating a dirty one first).
    Quarantine {
        /// The cache shard owning the slot.
        shard: usize,
        /// The store-local slot index.
        slot: usize,
    },
    /// Failures passed the threshold: run the trip transition (evacuate
    /// dirty flash pages, then serve disk-only).
    Trip,
}

/// Thresholds and budgets for the degraded-mode policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradeConfig {
    /// Bounded retries for a transient error before it is treated as a
    /// failure (per operation, with capped-exponential backoff between
    /// attempts).
    pub max_retries: u32,
    /// Failures charged to one slot before it is quarantined.
    pub slot_failure_threshold: u32,
    /// Total device failures (across slots) before the breaker trips.
    /// A permanent whole-device error trips immediately regardless.
    pub trip_threshold: u32,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        Self {
            max_retries: 3,
            slot_failure_threshold: 2,
            trip_threshold: 8,
        }
    }
}

/// Observable counters of the degraded-mode machinery. Snapshot via
/// [`DegradeController::snapshot`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DegradeStats {
    /// Breaker state name: `closed`, `trip-requested`, `evacuating`,
    /// `tripped`.
    pub breaker: String,
    /// Transient-error retries attempted.
    pub retries: u64,
    /// Transient device errors observed (after retries were exhausted, for
    /// retried paths).
    pub transient_errors: u64,
    /// Permanent device errors observed.
    pub permanent_errors: u64,
    /// Failed device reads.
    pub read_errors: u64,
    /// Failed device writes.
    pub write_errors: u64,
    /// Slots quarantined out of the replacement rotation.
    pub quarantined_slots: u64,
    /// Dirty pages evacuated to disk by quarantine or trip transitions.
    pub evacuated_pages: u64,
    /// Dirty flash pages whose bytes could not be read back during
    /// evacuation (recovered later from WAL redo, not from flash).
    pub dirty_pages_unread: u64,
    /// Breaker trips into disk-only mode.
    pub trips: u64,
    /// `heal_flash()` completions.
    pub heals: u64,
    /// Inserts bypassed because the breaker was tripped.
    pub bypassed_inserts: u64,
    /// Fetches bypassed straight to disk because the breaker was tripped.
    pub bypassed_fetches: u64,
}

/// The shared degraded-mode brain: one per engine, consulted by the
/// flash-cache front, the destager sink and the tier.
pub struct DegradeController {
    config: DegradeConfig,
    state: AtomicU8,
    /// Failure tally per (shard, slot); protected by a leaf diagnostic lock
    /// (no I/O, no nested acquisition).
    slot_failures: OrderedMutex<HashMap<(usize, usize), u32>>,
    device_failures: AtomicU64,
    retries: AtomicU64,
    transient_errors: AtomicU64,
    permanent_errors: AtomicU64,
    read_errors: AtomicU64,
    write_errors: AtomicU64,
    quarantined: AtomicU64,
    evacuated: AtomicU64,
    dirty_unread: AtomicU64,
    trips: AtomicU64,
    heals: AtomicU64,
    bypassed_inserts: AtomicU64,
    bypassed_fetches: AtomicU64,
}

impl DegradeController {
    /// A closed breaker with the given thresholds.
    pub fn new(config: DegradeConfig) -> Self {
        Self {
            config,
            state: AtomicU8::new(BreakerState::Closed.as_u8()),
            slot_failures: OrderedMutex::new(DIAG, HashMap::new()),
            device_failures: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            transient_errors: AtomicU64::new(0),
            permanent_errors: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            evacuated: AtomicU64::new(0),
            dirty_unread: AtomicU64::new(0),
            trips: AtomicU64::new(0),
            heals: AtomicU64::new(0),
            bypassed_inserts: AtomicU64::new(0),
            bypassed_fetches: AtomicU64::new(0),
        }
    }

    /// The configured thresholds and retry budget.
    pub fn config(&self) -> DegradeConfig {
        self.config
    }

    /// Current breaker state.
    pub fn state(&self) -> BreakerState {
        BreakerState::from_u8(self.state.load(Ordering::SeqCst))
    }

    /// Whether fetches should skip flash entirely (fully tripped only —
    /// until evacuation completes, resident data is still the freshest
    /// copy and must keep serving).
    pub fn bypass_fetches(&self) -> bool {
        self.state() == BreakerState::Tripped
    }

    /// Count one retry of a transient error.
    pub fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one bypassed insert.
    pub fn note_bypassed_insert(&self) {
        self.bypassed_inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one bypassed fetch.
    pub fn note_bypassed_fetch(&self) {
        self.bypassed_fetches.fetch_add(1, Ordering::Relaxed);
    }

    /// Count dirty pages successfully evacuated to disk.
    pub fn note_evacuated(&self, pages: u64) {
        self.evacuated.fetch_add(pages, Ordering::Relaxed);
    }

    /// Count dirty pages whose flash bytes were unreadable at evacuation.
    pub fn note_dirty_unread(&self, pages: u64) {
        self.dirty_unread.fetch_add(pages, Ordering::Relaxed);
    }

    /// Record a *final* device failure (transient errors should be retried
    /// before reporting) and decide the recovery action. `shard` is the
    /// cache shard the operation targeted.
    pub fn note_error(&self, shard: usize, err: &DeviceError) -> DegradeAction {
        match err.kind {
            DeviceErrorKind::Transient => {
                self.transient_errors.fetch_add(1, Ordering::Relaxed);
            }
            DeviceErrorKind::Permanent => {
                self.permanent_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        match err.op {
            DeviceOp::Read => self.read_errors.fetch_add(1, Ordering::Relaxed),
            DeviceOp::Write => self.write_errors.fetch_add(1, Ordering::Relaxed),
        };
        let total = self.device_failures.fetch_add(1, Ordering::SeqCst) + 1;

        // A permanent whole-device failure trips immediately.
        if err.kind == DeviceErrorKind::Permanent && err.scope == DeviceScope::Device {
            self.request_trip();
            return DegradeAction::Trip;
        }
        if total >= self.config.trip_threshold as u64 {
            self.request_trip();
            return DegradeAction::Trip;
        }

        if let DeviceScope::Slot(slot) = err.scope {
            let strikes = {
                let mut map = self.slot_failures.lock();
                let s = map.entry((shard, slot)).or_insert(0);
                *s += 1;
                *s
            };
            // Permanent slot errors condemn the slot on first strike.
            let threshold = match err.kind {
                DeviceErrorKind::Permanent => 1,
                DeviceErrorKind::Transient => self.config.slot_failure_threshold,
            };
            if strikes >= threshold {
                return DegradeAction::Quarantine { shard, slot };
            }
        }
        DegradeAction::Continue
    }

    /// Count a slot actually quarantined (the policy accepted the action).
    pub fn note_quarantined(&self) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Move `Closed → TripRequested`. Idempotent; later states win.
    pub fn request_trip(&self) {
        let _ = self.state.compare_exchange(
            BreakerState::Closed.as_u8(),
            BreakerState::TripRequested.as_u8(),
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    /// Claim the evacuation work: `TripRequested → Evacuating`. Returns
    /// `true` for exactly one caller.
    pub fn begin_evacuation(&self) -> bool {
        self.state
            .compare_exchange(
                BreakerState::TripRequested.as_u8(),
                BreakerState::Evacuating.as_u8(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }

    /// Evacuation finished: `Evacuating → Tripped`. The flash tier is now
    /// fully bypassed.
    pub fn complete_trip(&self) {
        let prev = self
            .state
            .swap(BreakerState::Tripped.as_u8(), Ordering::SeqCst);
        if prev != BreakerState::Tripped.as_u8() {
            self.trips.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Re-close the breaker after the tier was reset cold: failure tallies
    /// are forgiven, quarantine bookkeeping clears (the policies were
    /// rebuilt, so their tombstones are gone too).
    pub fn heal(&self) {
        self.slot_failures.lock().clear();
        self.device_failures.store(0, Ordering::SeqCst);
        let prev = self
            .state
            .swap(BreakerState::Closed.as_u8(), Ordering::SeqCst);
        if prev != BreakerState::Closed.as_u8() {
            self.heals.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot every counter plus the breaker state.
    pub fn snapshot(&self) -> DegradeStats {
        DegradeStats {
            breaker: self.state().name().to_string(),
            retries: self.retries.load(Ordering::Relaxed),
            transient_errors: self.transient_errors.load(Ordering::Relaxed),
            permanent_errors: self.permanent_errors.load(Ordering::Relaxed),
            read_errors: self.read_errors.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            quarantined_slots: self.quarantined.load(Ordering::Relaxed),
            evacuated_pages: self.evacuated.load(Ordering::Relaxed),
            dirty_pages_unread: self.dirty_unread.load(Ordering::Relaxed),
            trips: self.trips.load(Ordering::Relaxed),
            heals: self.heals.load(Ordering::Relaxed),
            bypassed_inserts: self.bypassed_inserts.load(Ordering::Relaxed),
            bypassed_fetches: self.bypassed_fetches.load(Ordering::Relaxed),
        }
    }
}

impl Default for DegradeController {
    fn default() -> Self {
        Self::new(DegradeConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use face_pagestore::DeviceOp;

    fn transient_slot(slot: usize) -> DeviceError {
        DeviceError::transient_slot(DeviceOp::Write, slot, "t")
    }

    #[test]
    fn transient_slot_errors_quarantine_after_threshold() {
        let c = DegradeController::new(DegradeConfig {
            max_retries: 2,
            slot_failure_threshold: 2,
            trip_threshold: 100,
        });
        assert_eq!(c.note_error(0, &transient_slot(5)), DegradeAction::Continue);
        assert_eq!(
            c.note_error(0, &transient_slot(5)),
            DegradeAction::Quarantine { shard: 0, slot: 5 }
        );
        // A different shard's slot 5 is a different tally.
        assert_eq!(c.note_error(1, &transient_slot(5)), DegradeAction::Continue);
    }

    #[test]
    fn permanent_slot_errors_quarantine_immediately() {
        let c = DegradeController::default();
        let e = DeviceError::permanent_slot(DeviceOp::Read, 3, "dead block");
        assert_eq!(
            c.note_error(2, &e),
            DegradeAction::Quarantine { shard: 2, slot: 3 }
        );
        c.note_quarantined();
        assert_eq!(c.snapshot().quarantined_slots, 1);
        assert_eq!(c.snapshot().permanent_errors, 1);
        assert_eq!(c.snapshot().read_errors, 1);
    }

    #[test]
    fn device_scoped_permanent_error_trips_immediately() {
        let c = DegradeController::default();
        let e = DeviceError::permanent_device(DeviceOp::Write, "controller gone");
        assert_eq!(c.note_error(0, &e), DegradeAction::Trip);
        assert_eq!(c.state(), BreakerState::TripRequested);
        assert!(!c.bypass_fetches(), "fetches keep serving until evacuated");
    }

    #[test]
    fn accumulated_failures_trip_at_threshold() {
        let c = DegradeController::new(DegradeConfig {
            max_retries: 1,
            slot_failure_threshold: 100,
            trip_threshold: 3,
        });
        assert_eq!(c.note_error(0, &transient_slot(1)), DegradeAction::Continue);
        assert_eq!(c.note_error(0, &transient_slot(2)), DegradeAction::Continue);
        assert_eq!(c.note_error(0, &transient_slot(3)), DegradeAction::Trip);
    }

    #[test]
    fn breaker_walks_the_full_state_machine_once() {
        let c = DegradeController::default();
        c.request_trip();
        assert_eq!(c.state(), BreakerState::TripRequested);
        assert!(c.begin_evacuation(), "first claimer wins");
        assert!(!c.begin_evacuation(), "second claimer loses");
        assert_eq!(c.state(), BreakerState::Evacuating);
        assert!(!c.bypass_fetches());
        c.complete_trip();
        assert_eq!(c.state(), BreakerState::Tripped);
        assert!(c.bypass_fetches());
        assert_eq!(c.snapshot().trips, 1);

        c.heal();
        assert_eq!(c.state(), BreakerState::Closed);
        assert_eq!(c.snapshot().heals, 1);
        assert_eq!(c.snapshot().breaker, "closed");
    }

    #[test]
    fn heal_forgives_slot_strikes() {
        let c = DegradeController::new(DegradeConfig {
            max_retries: 1,
            slot_failure_threshold: 2,
            trip_threshold: 100,
        });
        let _ = c.note_error(0, &transient_slot(7));
        c.heal();
        // One strike was forgiven: the next failure starts the tally over.
        assert_eq!(c.note_error(0, &transient_slot(7)), DegradeAction::Continue);
    }
}
