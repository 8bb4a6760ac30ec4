//! The timing flash store of the traced run, injected through
//! `EngineConfig::flash_store_factory`. It counts device calls and records a
//! `flashdev.*` span around each one.
//!
//! The engine stacks its own latency wrapper *above* an injected store, where
//! a span recorded here could not see the simulated service time. So in a
//! traced run on simulated devices the engine's flash latency is set to zero
//! and this store sleeps the same service times itself, charged the same way
//! (once per read, once per batch). End-to-end metrics never come from a
//! traced run, so they are measured on the engine's own wrapper.

use std::sync::Arc;

use face_cache::{FlashStore, MemFlashStore};
use face_engine::DeviceLatency;
use face_pagestore::{Counter, DeviceResult, Lsn, Page, PageId};

use crate::trace;

/// Device calls seen by every shard's store of one database.
#[derive(Debug, Default)]
pub struct FlashCounters {
    pub reads: Counter,
    pub write_calls: Counter,
    pub write_pages: Counter,
}

pub struct TimedFlash {
    inner: MemFlashStore,
    latency: Option<DeviceLatency>,
    counters: Arc<FlashCounters>,
}

impl TimedFlash {
    pub fn new(
        capacity: usize,
        latency: Option<DeviceLatency>,
        counters: Arc<FlashCounters>,
    ) -> Self {
        Self {
            inner: MemFlashStore::new(capacity),
            latency,
            counters,
        }
    }

    fn write<R>(&self, pages: usize, f: impl FnOnce() -> R) -> R {
        let _span = trace::enter("flashdev.write", false);
        self.counters.write_calls.inc();
        self.counters.write_pages.add(pages as u64);
        if let Some(latency) = self.latency {
            std::thread::sleep(latency.flash_write);
        }
        f()
    }
}

impl FlashStore for TimedFlash {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn write_slot(&self, slot: usize, page: &Page) -> DeviceResult<()> {
        self.write(1, || self.inner.write_slot(slot, page))
    }

    fn write_slots(&self, start_slot: usize, pages: &[Page]) -> DeviceResult<()> {
        self.write(pages.len(), || self.inner.write_slots(start_slot, pages))
    }

    fn write_batch(&self, writes: &[(usize, &Page)]) -> DeviceResult<()> {
        self.write(writes.len(), || self.inner.write_batch(writes))
    }

    fn read_slot(&self, slot: usize) -> DeviceResult<Option<Page>> {
        let _span = trace::enter("flashdev.read", false);
        self.counters.reads.inc();
        if let Some(latency) = self.latency {
            std::thread::sleep(latency.flash_read);
        }
        self.inner.read_slot(slot)
    }

    fn slot_header(&self, slot: usize) -> Option<(PageId, Lsn)> {
        self.inner.slot_header(slot)
    }

    fn note_slot_header(&self, slot: usize, page: PageId, lsn: Lsn) {
        self.inner.note_slot_header(slot, page, lsn);
    }

    fn carries_data(&self) -> bool {
        self.inner.carries_data()
    }

    fn clear(&self) {
        self.inner.clear();
    }

    fn clear_slot(&self, slot: usize) {
        self.inner.clear_slot(slot);
    }

    fn pages_written(&self) -> u64 {
        self.inner.pages_written()
    }
}
