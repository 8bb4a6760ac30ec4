//! A relaxed atomic event counter shared by every layer's statistics.
//!
//! Relaxed ordering is sufficient: each counter is an independent monotonic
//! tally, never used to synchronise other memory. The buffer pool, the flash
//! stores, the destager and the engine all snapshot these without stopping
//! writers.

use std::sync::atomic::{AtomicU64, Ordering};

/// A relaxed atomic event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrite the value (reset / restore paths).
    #[inline]
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_set_round_trip() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.set(10);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn concurrent_increments_all_land() {
        let c = std::sync::Arc::new(Counter::default());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
