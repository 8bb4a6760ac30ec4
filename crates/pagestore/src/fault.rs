//! Seed-deterministic fault injection for storage devices.
//!
//! A [`FaultPlan`] decides, per device operation, whether to inject a
//! failure. Decisions are a pure function of `(seed, operation index,
//! slot)` — no RNG state is shared between operations — so a plan fires the
//! same faults on every run with the same seed, even when operations race:
//! thread interleaving can permute *which thread* observes a given fault,
//! but not how many fire over N operations or which operation indices fail.
//!
//! The plan is installed as the `faults` field of a device's
//! [`crate::hooks::DeviceHooks`], whose `admit` consults it once per data
//! operation. Triggers (nth-op, probability, slot-range, arm-after) and
//! modes (typed error, torn write, latency spike) compose freely.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use crate::device::{DeviceError, DeviceErrorKind, DeviceOp, DeviceScope};

/// What an injected fault does to the operation it hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The operation fails outright with a [`DeviceError`]; nothing is
    /// persisted.
    Error,
    /// A *write* persists only a prefix of its payload, then reports the
    /// error — the classic torn batch write. (Reads behave like `Error`.)
    TornWrite,
    /// The operation succeeds, but only after stalling for the given
    /// duration — a latency spike, not a failure.
    LatencySpike(Duration),
}

/// The injection decision for one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the operation with this error; persist nothing.
    Fail(DeviceError),
    /// Persist a prefix of the payload, then fail with this error.
    Torn(DeviceError),
    /// Stall for this long, then perform the operation normally.
    Delay(Duration),
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic, thread-safe fault-injection plan for one device.
///
/// Defaults to never firing; builders opt into triggers and modes.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    mode: FaultMode,
    kind: DeviceErrorKind,
    /// Force every injected error to be whole-device scoped (breaker-trip
    /// tests); otherwise errors are slot-scoped when the slot is known.
    device_scoped: bool,
    /// 1-based operation indices that always fail. Sorted.
    nth_ops: Vec<u64>,
    /// Per-operation failure probability in `[0, 1]`.
    probability: f64,
    /// Only operations touching these slots are eligible (half-open range).
    slot_range: Option<(usize, usize)>,
    /// Operations to let through before any trigger becomes eligible.
    arm_after_ops: u64,
    /// Inject on reads / on writes.
    fail_reads: bool,
    fail_writes: bool,
    /// Stop injecting after this many faults.
    max_faults: u64,
    /// When `false`, the plan stays dormant until [`FaultPlan::arm`] — used
    /// by the fault-then-crash scenarios that arm the plan at restart.
    armed: AtomicBool,
    ops: AtomicU64,
    faults: AtomicU64,
}

impl FaultPlan {
    /// A plan that never fires until triggers are configured.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            mode: FaultMode::Error,
            kind: DeviceErrorKind::Transient,
            device_scoped: false,
            nth_ops: Vec::new(),
            probability: 0.0,
            slot_range: None,
            arm_after_ops: 0,
            fail_reads: true,
            fail_writes: true,
            max_faults: u64::MAX,
            armed: AtomicBool::new(true),
            ops: AtomicU64::new(0),
            faults: AtomicU64::new(0),
        }
    }

    /// Fail the nth operation (1-based). May be called repeatedly.
    pub fn fail_nth(mut self, n: u64) -> Self {
        self.nth_ops.push(n);
        self.nth_ops.sort_unstable();
        self
    }

    /// Fail each eligible operation with this probability.
    pub fn probability(mut self, p: f64) -> Self {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    /// Only operations touching slots in `start..end` are eligible.
    pub fn slot_range(mut self, start: usize, end: usize) -> Self {
        self.slot_range = Some((start, end));
        self
    }

    /// Let the first `n` operations through before any trigger fires.
    pub fn arm_after(mut self, n: u64) -> Self {
        self.arm_after_ops = n;
        self
    }

    /// Start dormant; [`FaultPlan::arm`] (called after a crash/restart)
    /// activates the plan.
    pub fn armed_on_crash(self) -> Self {
        self.armed.store(false, Ordering::SeqCst);
        self
    }

    /// What an injected fault does (error / torn write / latency spike).
    pub fn mode(mut self, mode: FaultMode) -> Self {
        self.mode = mode;
        self
    }

    /// Injected errors are transient (retryable).
    pub fn transient(mut self) -> Self {
        self.kind = DeviceErrorKind::Transient;
        self
    }

    /// Injected errors are permanent (quarantine / breaker fodder).
    pub fn permanent(mut self) -> Self {
        self.kind = DeviceErrorKind::Permanent;
        self
    }

    /// Scope every injected error to the whole device instead of one slot.
    pub fn device_scoped(mut self) -> Self {
        self.device_scoped = true;
        self
    }

    /// Inject only on reads.
    pub fn reads_only(mut self) -> Self {
        self.fail_reads = true;
        self.fail_writes = false;
        self
    }

    /// Inject only on writes.
    pub fn writes_only(mut self) -> Self {
        self.fail_reads = false;
        self.fail_writes = true;
        self
    }

    /// Stop after injecting `n` faults.
    pub fn max_faults(mut self, n: u64) -> Self {
        self.max_faults = n;
        self
    }

    /// Activate a plan built with [`FaultPlan::armed_on_crash`].
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults.load(Ordering::SeqCst)
    }

    /// Operations observed so far (fired or not).
    pub fn ops_observed(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Decide what happens to one device operation. Counts the operation
    /// either way so nth-op indices are stable.
    pub fn decide(&self, op: DeviceOp, slot: Option<usize>) -> Option<FaultAction> {
        let idx = self.ops.fetch_add(1, Ordering::SeqCst) + 1;
        if !self.armed.load(Ordering::SeqCst) || idx <= self.arm_after_ops {
            return None;
        }
        match op {
            DeviceOp::Read if !self.fail_reads => return None,
            DeviceOp::Write if !self.fail_writes => return None,
            _ => {}
        }
        if let Some((start, end)) = self.slot_range {
            match slot {
                Some(s) if s >= start && s < end => {}
                _ => return None,
            }
        }
        let by_nth = self.nth_ops.binary_search(&idx).is_ok();
        let by_chance = self.probability > 0.0 && {
            // Derive the coin flip from (seed, op index) alone: stateless,
            // so concurrent callers stay deterministic in aggregate.
            let r = splitmix64(self.seed ^ idx.wrapping_mul(0x2545_f491_4f6c_dd1d));
            (r as f64 / u64::MAX as f64) < self.probability
        };
        if !by_nth && !by_chance {
            return None;
        }
        // Reserve a fault ticket; give the ticket back if over budget.
        let ticket = self.faults.fetch_add(1, Ordering::SeqCst);
        if ticket >= self.max_faults {
            self.faults.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        let err = self.build_error(op, slot, ticket + 1, idx);
        Some(match self.mode {
            FaultMode::Error => FaultAction::Fail(err),
            FaultMode::TornWrite if op == DeviceOp::Write => FaultAction::Torn(err),
            FaultMode::TornWrite => FaultAction::Fail(err),
            FaultMode::LatencySpike(d) => FaultAction::Delay(d),
        })
    }

    fn build_error(
        &self,
        op: DeviceOp,
        slot: Option<usize>,
        fault_no: u64,
        idx: u64,
    ) -> DeviceError {
        let scope = match (self.device_scoped, slot) {
            (false, Some(s)) => DeviceScope::Slot(s),
            _ => DeviceScope::Device,
        };
        DeviceError {
            kind: self.kind,
            scope,
            op,
            detail: format!("injected fault #{fault_no} (op {idx}, seed {})", self.seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_op_trigger_is_deterministic() {
        let plan = FaultPlan::new(1).fail_nth(2).permanent();
        assert_eq!(plan.decide(DeviceOp::Write, Some(0)), None);
        let action = plan.decide(DeviceOp::Write, Some(3));
        match action {
            Some(FaultAction::Fail(e)) => {
                assert_eq!(e.kind, DeviceErrorKind::Permanent);
                assert_eq!(e.slot(), Some(3));
            }
            other => panic!("expected failure on op 2, got {other:?}"),
        }
        assert_eq!(plan.decide(DeviceOp::Write, Some(0)), None);
        assert_eq!(plan.faults_injected(), 1);
        assert_eq!(plan.ops_observed(), 3);
    }

    #[test]
    fn probability_trigger_replays_identically() {
        let run = || {
            let plan = FaultPlan::new(99).probability(0.3);
            (0..200)
                .map(|i| plan.decide(DeviceOp::Write, Some(i)).is_some())
                .collect::<Vec<bool>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must replay the same faults");
        let fired = a.iter().filter(|f| **f).count();
        assert!(
            fired > 20 && fired < 120,
            "p=0.3 over 200 ops fired {fired}"
        );
    }

    #[test]
    fn slot_range_and_direction_filters_apply() {
        let plan = FaultPlan::new(7)
            .probability(1.0)
            .slot_range(10, 20)
            .reads_only();
        assert_eq!(
            plan.decide(DeviceOp::Write, Some(15)),
            None,
            "writes exempt"
        );
        assert_eq!(plan.decide(DeviceOp::Read, Some(9)), None, "below range");
        assert_eq!(plan.decide(DeviceOp::Read, Some(20)), None, "past range");
        assert!(plan.decide(DeviceOp::Read, Some(10)).is_some());
        assert_eq!(
            plan.decide(DeviceOp::Read, None),
            None,
            "unknown slot exempt"
        );
    }

    #[test]
    fn arm_after_and_max_faults_bound_the_blast_radius() {
        let plan = FaultPlan::new(3)
            .probability(1.0)
            .arm_after(2)
            .max_faults(1);
        assert_eq!(plan.decide(DeviceOp::Write, Some(0)), None);
        assert_eq!(plan.decide(DeviceOp::Write, Some(0)), None);
        assert!(plan.decide(DeviceOp::Write, Some(0)).is_some());
        assert_eq!(plan.decide(DeviceOp::Write, Some(0)), None, "budget spent");
        assert_eq!(plan.faults_injected(), 1);
    }

    #[test]
    fn armed_on_crash_stays_dormant_until_armed() {
        let plan = FaultPlan::new(5).probability(1.0).armed_on_crash();
        assert_eq!(plan.decide(DeviceOp::Write, Some(0)), None);
        plan.arm();
        assert!(plan.decide(DeviceOp::Write, Some(0)).is_some());
    }

    #[test]
    fn torn_mode_fails_writes_as_torn_and_reads_as_plain() {
        let plan = FaultPlan::new(5)
            .probability(1.0)
            .mode(FaultMode::TornWrite);
        assert!(matches!(
            plan.decide(DeviceOp::Write, Some(0)),
            Some(FaultAction::Torn(_))
        ));
        assert!(matches!(
            plan.decide(DeviceOp::Read, Some(0)),
            Some(FaultAction::Fail(_))
        ));
    }
}
