//! Engine configuration.

use std::path::PathBuf;
use std::sync::Arc;

use face_cache::{CacheConfig, CachePolicyKind, DegradeConfig, FlashStore};
use face_pagestore::FaultPlan;

use crate::latency::DeviceLatency;

/// A pluggable flash-store constructor (per cache shard, given the shard's
/// slot capacity). Tests inject their own stores — e.g. one whose writes
/// block — to pin down where device I/O happens; production configurations
/// leave it unset and get in-memory stores.
#[derive(Clone)]
pub struct FlashStoreFactory(pub Arc<dyn Fn(usize) -> Arc<dyn FlashStore> + Send + Sync>);

impl FlashStoreFactory {
    /// Wrap a constructor closure.
    pub fn new(f: impl Fn(usize) -> Arc<dyn FlashStore> + Send + Sync + 'static) -> Self {
        Self(Arc::new(f))
    }
}

impl std::fmt::Debug for FlashStoreFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FlashStoreFactory(..)")
    }
}

/// Where the engine keeps its durable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageBackend {
    /// Everything in memory (fast; "durable" for the lifetime of the process,
    /// which is exactly what crash-simulation tests need).
    InMemory,
    /// Real files under a directory (database files and WAL).
    OnDisk(PathBuf),
}

/// Configuration for [`crate::Database`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Durable storage backend.
    pub backend: StorageBackend,
    /// DRAM buffer pool capacity in page frames.
    pub buffer_frames: usize,
    /// Which flash-cache policy to run: FaCE, FaCE+GR, FaCE+GSC or S3-FIFO
    /// ([`CachePolicyKind::None`] disables the cache entirely). LC and TAC
    /// run only in the trace simulator ([`crate::sim::SimEngine`]);
    /// [`crate::Database::open`] rejects them with
    /// [`crate::EngineError::SimulatorOnlyPolicy`].
    pub cache_policy: CachePolicyKind,
    /// Flash cache parameters (capacity, group size, ...).
    pub cache_config: CacheConfig,
    /// Number of hash buckets (pages) in the key-value table.
    pub table_buckets: u32,
    /// Lock stripes of the DRAM buffer pool (clamped to `buffer_frames`).
    pub buffer_shards: usize,
    /// Lock stripes of the flash cache (clamped so each shard holds at least
    /// one replacement group).
    pub cache_shards: usize,
    /// When set, every physical store operation charges a real (scaled)
    /// service time on the calling thread, so multi-threaded throughput
    /// behaves like the paper's testbed. `None` (the default) runs at memory
    /// speed.
    pub device_latency: Option<DeviceLatency>,
    /// Background destager threads performing the flash group writes and the
    /// dequeued-dirty-page disk destages. `0` selects the destager's inline
    /// driver (the "sync destage" baseline): the same jobs run to their end
    /// on the thread whose write-back produced them — still outside any
    /// cache shard lock — a final disk-write error fails that write-back
    /// instead of the next drain, and [`crate::Database::destage_stats`]
    /// reports `None`, there being no pipeline.
    pub destage_threads: usize,
    /// Bound on queued jobs per destager worker; a foreground thread
    /// enqueueing into a full queue blocks (backpressure) without holding
    /// any cache lock.
    pub destage_queue_depth: usize,
    /// Optional per-shard flash store constructor (tests inject instrumented
    /// stores). `None` builds in-memory stores.
    pub flash_store_factory: Option<FlashStoreFactory>,
    /// Retry / quarantine / breaker thresholds of the degraded-mode
    /// machinery (active whenever a flash cache is configured).
    pub degrade: DegradeConfig,
    /// Fault-injection plan consulted by every flash slot read and write
    /// (one plan shared across all cache shards; slot indices are
    /// shard-local). `None` injects nothing.
    pub flash_faults: Option<Arc<FaultPlan>>,
    /// Fault-injection plan for the disk page store (`slot` = page number).
    pub disk_faults: Option<Arc<FaultPlan>>,
}

impl EngineConfig {
    /// An in-memory configuration with small defaults, suitable for tests and
    /// examples.
    pub fn in_memory() -> Self {
        Self {
            backend: StorageBackend::InMemory,
            buffer_frames: 128,
            cache_policy: CachePolicyKind::FaceGsc,
            cache_config: CacheConfig {
                capacity_pages: 512,
                group_size: 16,
                ..CacheConfig::default()
            },
            table_buckets: 1024,
            buffer_shards: 8,
            cache_shards: 4,
            device_latency: None,
            destage_threads: 2,
            destage_queue_depth: 64,
            flash_store_factory: None,
            degrade: DegradeConfig::default(),
            flash_faults: None,
            disk_faults: None,
        }
    }

    /// A file-backed configuration rooted at `dir`.
    pub fn on_disk(dir: impl Into<PathBuf>) -> Self {
        Self {
            backend: StorageBackend::OnDisk(dir.into()),
            ..Self::in_memory()
        }
    }

    /// Set the buffer pool size in frames.
    pub fn buffer_frames(mut self, frames: usize) -> Self {
        self.buffer_frames = frames;
        self
    }

    /// Choose the flash-cache policy and its capacity in pages.
    pub fn flash_cache(mut self, policy: CachePolicyKind, capacity_pages: usize) -> Self {
        self.cache_policy = policy;
        self.cache_config.capacity_pages = capacity_pages;
        self
    }

    /// Disable the flash cache (HDD-only / SSD-only configurations).
    pub fn no_flash_cache(mut self) -> Self {
        self.cache_policy = CachePolicyKind::None;
        self
    }

    /// Override the full cache configuration.
    pub fn cache_config(mut self, config: CacheConfig) -> Self {
        self.cache_config = config;
        self
    }

    /// Set the number of hash buckets in the key-value table.
    pub fn table_buckets(mut self, buckets: u32) -> Self {
        self.table_buckets = buckets;
        self
    }

    /// Set the buffer pool's lock-stripe count.
    pub fn buffer_shards(mut self, shards: usize) -> Self {
        self.buffer_shards = shards.max(1);
        self
    }

    /// Set the flash cache's lock-stripe count.
    pub fn cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards.max(1);
        self
    }

    /// Set the number of background destager threads (`0` = the same jobs
    /// on the foreground thread, still off the shard locks).
    pub fn destage_threads(mut self, threads: usize) -> Self {
        self.destage_threads = threads;
        self
    }

    /// Set the per-worker destage queue bound (backpressure depth).
    pub fn destage_queue_depth(mut self, depth: usize) -> Self {
        self.destage_queue_depth = depth.max(1);
        self
    }

    /// Kept only so existing callers of the removed exclusive-lock read
    /// path still build. Reads are always lock-light: buffer-pool hits take
    /// only shared locks (replacement is S3-FIFO), and flash-cache fetches
    /// read the device off the shard lock and revalidate. The only accepted
    /// argument is `true`, and the call changes nothing.
    ///
    /// # Panics
    /// Panics if `on` is `false`: the exclusive-lock read path it selected
    /// was removed.
    pub fn lock_light_reads(self, on: bool) -> Self {
        assert!(
            on,
            "the exclusive-lock read path was removed; reads are always lock-light"
        );
        self
    }

    /// Inject a flash-store constructor (instrumented stores for tests).
    pub fn flash_store_factory(mut self, factory: FlashStoreFactory) -> Self {
        self.flash_store_factory = Some(factory);
        self
    }

    /// Override the degraded-mode thresholds (retry budget, per-slot strike
    /// count, breaker trip threshold).
    pub fn degrade_config(mut self, degrade: DegradeConfig) -> Self {
        self.degrade = degrade;
        self
    }

    /// Install a fault-injection plan on the flash cache device. Keep a
    /// clone of the `Arc` to arm the plan or read its fault counters.
    pub fn flash_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.flash_faults = Some(plan);
        self
    }

    /// Install a fault-injection plan on the disk page store.
    pub fn disk_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.disk_faults = Some(plan);
        self
    }

    /// Emulate the (scaled) paper-testbed devices with real per-operation
    /// service times.
    pub fn simulated_devices(mut self) -> Self {
        self.device_latency = Some(DeviceLatency::default());
        self
    }

    /// Emulate devices with explicit service times.
    pub fn device_latency(mut self, latency: DeviceLatency) -> Self {
        self.device_latency = Some(latency);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let cfg = EngineConfig::in_memory()
            .buffer_frames(32)
            .flash_cache(CachePolicyKind::S3Fifo, 64)
            .table_buckets(10);
        assert_eq!(cfg.buffer_frames, 32);
        assert_eq!(cfg.cache_policy, CachePolicyKind::S3Fifo);
        assert_eq!(cfg.cache_config.capacity_pages, 64);
        assert_eq!(cfg.table_buckets, 10);
        assert_eq!(cfg.backend, StorageBackend::InMemory);

        let cfg = cfg.no_flash_cache();
        assert_eq!(cfg.cache_policy, CachePolicyKind::None);

        let on_disk = EngineConfig::on_disk("/tmp/facedb");
        assert!(matches!(on_disk.backend, StorageBackend::OnDisk(_)));
    }
}
