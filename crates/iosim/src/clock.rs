//! Virtual time for the simulation.
//!
//! All simulated latencies are expressed in nanoseconds. The clock is shared
//! (cheaply clonable) so that devices, the workload driver and statistics all
//! observe the same notion of "now".

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point in simulated time, in nanoseconds since the start of the run.
pub type SimInstant = u64;

/// A span of simulated time, in nanoseconds.
pub type SimDuration = u64;

/// Nanoseconds per second, for conversions.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Nanoseconds per microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;

/// Convert a [`SimDuration`] to floating-point seconds.
pub fn duration_to_secs(d: SimDuration) -> f64 {
    d as f64 / NANOS_PER_SEC as f64
}

/// A shared, monotonically non-decreasing virtual clock.
///
/// The clock only moves forward via [`SimClock::advance_to`] (typically called
/// by the workload driver when a client blocks on an I/O completion) or
/// [`SimClock::advance_by`].
///
/// Cloning a `SimClock` yields a handle to the *same* underlying clock.
#[derive(Clone, Default)]
pub struct SimClock {
    now: Arc<AtomicU64>,
}

impl SimClock {
    /// Create a new clock starting at time zero.
    pub fn new() -> Self {
        Self {
            now: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimInstant {
        self.now.load(Ordering::Relaxed)
    }

    /// Advance the clock to `t` if `t` is later than the current time.
    /// Returns the (possibly unchanged) current time afterwards.
    pub fn advance_to(&self, t: SimInstant) -> SimInstant {
        self.now.fetch_max(t, Ordering::Relaxed);
        self.now()
    }

    /// Advance the clock by `d` nanoseconds and return the new time.
    pub fn advance_by(&self, d: SimDuration) -> SimInstant {
        self.now.fetch_add(d, Ordering::Relaxed) + d
    }

    /// Reset the clock to zero. Intended for reuse between experiment runs.
    pub fn reset(&self) {
        self.now.store(0, Ordering::Relaxed);
    }

    /// Current simulated time in floating-point seconds.
    pub fn now_secs(&self) -> f64 {
        duration_to_secs(self.now())
    }
}

impl fmt::Debug for SimClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimClock({:.6}s)", self.now_secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let c = SimClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.now_secs(), 0.0);
    }

    #[test]
    fn advance_to_is_monotonic() {
        let c = SimClock::new();
        assert_eq!(c.advance_to(100), 100);
        // Advancing to an earlier instant does not move the clock backwards.
        assert_eq!(c.advance_to(50), 100);
        assert_eq!(c.advance_to(200), 200);
    }

    #[test]
    fn advance_by_accumulates() {
        let c = SimClock::new();
        assert_eq!(c.advance_by(10), 10);
        assert_eq!(c.advance_by(15), 25);
        assert_eq!(c.now(), 25);
    }

    #[test]
    fn clones_share_time() {
        let c = SimClock::new();
        let c2 = c.clone();
        c.advance_to(1_000);
        assert_eq!(c2.now(), 1_000);
        c2.advance_by(500);
        assert_eq!(c.now(), 1_500);
    }

    #[test]
    fn reset_returns_to_zero() {
        let c = SimClock::new();
        c.advance_to(123_456);
        c.reset();
        assert_eq!(c.now(), 0);
    }

    #[test]
    fn duration_converts_to_seconds() {
        assert_eq!(duration_to_secs(NANOS_PER_SEC), 1.0);
        assert!((duration_to_secs(NANOS_PER_SEC * 5 / 2) - 2.5).abs() < 1e-9);
    }
}
