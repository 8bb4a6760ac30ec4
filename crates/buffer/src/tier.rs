//! The interface between the DRAM buffer pool and whatever sits below it.
//!
//! With FaCE enabled the lower tier is the flash cache backed by the disk
//! array; without it the lower tier is the disk alone. The buffer pool does
//! not know the difference — exactly the paper's point that the flash cache
//! "simply goes along with the replacement mechanism provided by the DRAM
//! buffer pool".

use face_pagestore::{DeviceError, Lsn, Page, PageId, StoreError};

/// Errors surfaced by a lower tier.
#[derive(Debug)]
pub enum TierError {
    /// The page does not exist anywhere below the buffer.
    PageNotFound(PageId),
    /// An error from the underlying page store (disk).
    Store(StoreError),
    /// An error from the flash-cache layer.
    Cache(String),
    /// A typed device failure that survived retry, failover and quarantine —
    /// what the tier surfaces when degraded-mode machinery could not absorb
    /// a flash or disk fault (e.g. a dirty flash page whose bytes are gone).
    Device(DeviceError),
    /// The WAL could not be forced up to a page's LSN before persisting the
    /// page (tiers that observe the write-ahead rule refuse to write a dirty
    /// page whose log records are not durable).
    Wal(String),
}

impl std::fmt::Display for TierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierError::PageNotFound(id) => write!(f, "page {id} not found in any tier"),
            TierError::Store(e) => write!(f, "store error: {e}"),
            TierError::Cache(msg) => write!(f, "flash cache error: {msg}"),
            TierError::Device(e) => write!(f, "device error: {e}"),
            TierError::Wal(msg) => write!(f, "write-ahead rule violated: {msg}"),
        }
    }
}

impl std::error::Error for TierError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TierError::Store(e) => Some(e),
            TierError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for TierError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::PageNotFound(id) => TierError::PageNotFound(id),
            StoreError::Device(e) => TierError::Device(e),
            other => TierError::Store(other),
        }
    }
}

impl From<DeviceError> for TierError {
    fn from(e: DeviceError) -> Self {
        TierError::Device(e)
    }
}

/// Result alias for tier operations.
pub type TierResult<T> = Result<T, TierError>;

/// Where a fetched page came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchSource {
    /// The flash cache ("flash hit").
    FlashCache,
    /// The disk-resident database.
    Disk,
}

/// The result of fetching a page from the lower tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchOutcome {
    /// Where the page was found.
    pub source: FetchSource,
    /// Whether the fetched copy is newer than the disk copy (only possible
    /// for flash-cache hits under a write-back policy).
    pub dirty: bool,
}

/// Why a page is being handed to the lower tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteBackReason {
    /// The DRAM buffer evicted the page to make room.
    Eviction,
    /// A checkpoint is flushing dirty pages.
    Checkpoint,
}

/// What the lower tier did with a written-back page, so the buffer pool can
/// maintain its flags when the page stays resident (checkpoint case).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteBackOutcome {
    /// The page (this exact version) now exists in the flash cache.
    pub in_flash: bool,
    /// The page (this exact version) now exists on disk.
    pub on_disk: bool,
}

/// A source of additional cold dirty victims the lower tier may pull while
/// absorbing an eviction — the paper's §3.3 hook where Group Second Chance
/// tops a flash write batch up "with dirty pages from the LRU tail of the
/// DRAM buffer" (like Linux's writeback daemons or Oracle's DBWR batching).
///
/// Implementations must be **non-blocking with respect to buffer shards**
/// (the pool's implementation only `try_lock`s other shards) because the
/// tier invokes this while cache-internal locks are held; a blocking wait on
/// a buffer shard would close a lock cycle.
pub trait VictimPull {
    /// Remove and return a cold dirty frame whose page id passes `wants`
    /// and whose pageLSN is strictly below `lsn_below` (`None`: any LSN), or
    /// `None` if none is available cheaply. `wants` is asked first and needs
    /// nothing but the id, so a frame it rejects costs no map lookup and no
    /// latch; the LSN bound is tested under the frame's page latch. The
    /// frame leaves the DRAM buffer for good: the caller owns its fate.
    /// Returns `(page, dirty, fdirty)`.
    fn pull(
        &mut self,
        wants: &dyn Fn(PageId) -> bool,
        lsn_below: Option<Lsn>,
    ) -> Option<(Page, bool, bool)>;
}

/// A pull source that never yields anything (checkpoint flushes and tiers
/// without batching use this).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoVictims;

impl VictimPull for NoVictims {
    fn pull(
        &mut self,
        _wants: &dyn Fn(PageId) -> bool,
        _lsn_below: Option<Lsn>,
    ) -> Option<(Page, bool, bool)> {
        None
    }
}

/// The storage stack below the DRAM buffer pool.
///
/// Every method takes `&self`: the sharded buffer pool calls into the tier
/// from many threads at once (one per shard), so implementations must manage
/// their own interior mutability (atomics for counters, locks around any
/// structural state).
pub trait LowerTier: Send + Sync {
    /// Fetch page `id` into `buf`, looking in the flash cache first if one is
    /// present.
    fn fetch(&self, id: PageId, buf: &mut Page) -> TierResult<FetchOutcome>;

    /// Fetch several pages at once, `ids[i]` into `bufs[i]`, with one result
    /// per page in the same order — what [`LowerTier::fetch`] would have
    /// returned for it. A tier whose device rewards batched reads overrides
    /// this; the default fetches page by page.
    fn fetch_batch(&self, ids: &[PageId], bufs: &mut [&mut Page]) -> Vec<TierResult<FetchOutcome>> {
        ids.iter()
            .zip(bufs.iter_mut())
            .map(|(&id, buf)| self.fetch(id, buf))
            .collect()
    }

    /// Accept a page leaving the DRAM buffer (eviction) or being flushed by a
    /// checkpoint. `dirty` / `fdirty` are the DRAM frame's flags.
    fn write_back(
        &self,
        page: &Page,
        dirty: bool,
        fdirty: bool,
        reason: WriteBackReason,
    ) -> TierResult<WriteBackOutcome>;

    /// Like [`LowerTier::write_back`], with a [`VictimPull`] the tier may
    /// use to pull additional cold dirty pages out of the DRAM buffer (Group
    /// Second Chance batch top-up). The default ignores the source; tiers
    /// without batching need not override.
    fn write_back_with(
        &self,
        page: &Page,
        dirty: bool,
        fdirty: bool,
        reason: WriteBackReason,
        victims: &mut dyn VictimPull,
    ) -> TierResult<WriteBackOutcome> {
        let _ = victims;
        self.write_back(page, dirty, fdirty, reason)
    }

    /// Allocate a brand-new page on the backing store.
    fn allocate(&self, file: u32) -> TierResult<PageId>;

    /// Force everything the tier has buffered to durable storage.
    fn sync(&self) -> TierResult<()>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct_disk::DirectDiskTier;
    use face_pagestore::InMemoryPageStore;
    use std::sync::Arc;

    #[test]
    fn direct_tier_reads_and_writes_disk() {
        let store = Arc::new(InMemoryPageStore::new());
        let tier = DirectDiskTier::new(store.clone());
        let id = tier.allocate(0).unwrap();

        let mut page = Page::new(id);
        page.write_body(0, b"v1");
        let out = tier
            .write_back(&page, true, true, WriteBackReason::Eviction)
            .unwrap();
        assert!(out.on_disk);
        assert!(!out.in_flash);
        assert_eq!(tier.disk_writes(), 1);

        let mut buf = Page::zeroed();
        let fetched = tier.fetch(id, &mut buf).unwrap();
        assert_eq!(fetched.source, FetchSource::Disk);
        assert!(!fetched.dirty);
        assert_eq!(buf.read_body(0, 2), b"v1");
        assert_eq!(tier.disk_reads(), 1);
        tier.sync().unwrap();
    }

    #[test]
    fn clean_writeback_skips_disk() {
        let store = Arc::new(InMemoryPageStore::new());
        let tier = DirectDiskTier::new(store);
        let id = tier.allocate(0).unwrap();
        let page = Page::new(id);
        tier.write_back(&page, false, false, WriteBackReason::Eviction)
            .unwrap();
        assert_eq!(tier.disk_writes(), 0);
    }

    #[test]
    fn missing_page_maps_to_tier_error() {
        let store = Arc::new(InMemoryPageStore::new());
        let tier = DirectDiskTier::new(store);
        let mut buf = Page::zeroed();
        let err = tier.fetch(PageId::new(0, 99), &mut buf).unwrap_err();
        assert!(matches!(err, TierError::PageNotFound(_)));
        assert!(format!("{err}").contains("0:99"));
    }

    #[test]
    fn error_display_variants() {
        let e = TierError::Cache("bad state".into());
        assert!(format!("{e}").contains("bad state"));
        let e: TierError = StoreError::Closed.into();
        assert!(matches!(e, TierError::Store(_)));
        let e = TierError::Wal("log force failed".into());
        assert!(format!("{e}").contains("log force failed"));
        let e: TierError = face_pagestore::DeviceError::permanent_device(
            face_pagestore::DeviceOp::Write,
            "controller gone",
        )
        .into();
        assert!(matches!(e, TierError::Device(_)));
        assert!(format!("{e}").contains("controller gone"));
    }
}
