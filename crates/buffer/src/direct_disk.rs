//! A test fixture: the buffer pool over the disk alone.
//!
//! The pool and tier unit tests run over [`DirectDiskTier`]. The engine's
//! no-cache configuration (the paper's "HDD only") is `FaceTier` without a
//! flash cache; nothing outside this crate's tests uses this tier.

use std::sync::Arc;

use face_pagestore::{Counter, Page, PageId, PageStore};

use crate::tier::{
    FetchOutcome, FetchSource, LowerTier, TierResult, WriteBackOutcome, WriteBackReason,
};

/// A lower tier that is the disk alone: fetches read the store, dirty
/// write-backs go straight to it.
pub(crate) struct DirectDiskTier {
    store: Arc<dyn PageStore>,
    disk_reads: Counter,
    disk_writes: Counter,
}

impl DirectDiskTier {
    /// Create a tier over the given store.
    pub(crate) fn new(store: Arc<dyn PageStore>) -> Self {
        Self {
            store,
            disk_reads: Counter::default(),
            disk_writes: Counter::default(),
        }
    }

    /// Physical reads issued to the store.
    pub(crate) fn disk_reads(&self) -> u64 {
        self.disk_reads.get()
    }

    /// Physical writes issued to the store.
    pub(crate) fn disk_writes(&self) -> u64 {
        self.disk_writes.get()
    }
}

impl LowerTier for DirectDiskTier {
    fn fetch(&self, id: PageId, buf: &mut Page) -> TierResult<FetchOutcome> {
        self.store.read_page(id, buf)?;
        self.disk_reads.inc();
        Ok(FetchOutcome {
            source: FetchSource::Disk,
            dirty: false,
        })
    }

    fn write_back(
        &self,
        page: &Page,
        dirty: bool,
        _fdirty: bool,
        _reason: WriteBackReason,
    ) -> TierResult<WriteBackOutcome> {
        if dirty {
            let mut copy = page.clone();
            copy.update_checksum();
            self.store.write_page(copy.id(), &copy)?;
            self.disk_writes.inc();
        }
        Ok(WriteBackOutcome {
            in_flash: false,
            on_disk: true,
        })
    }

    fn allocate(&self, file: u32) -> TierResult<PageId> {
        Ok(self.store.allocate(file)?)
    }

    fn sync(&self) -> TierResult<()> {
        self.store.sync()?;
        Ok(())
    }
}
