//! An in-memory page store, used by unit tests and by simulation-mode engines
//! where page *contents* still matter but real files would be wasteful.
//!
//! A stored page keeps one buffer from its first write on: a later
//! `write_page` of the same id **overwrites those bytes in place** under the
//! store's write lock, and `read_page` copies them into the caller's buffer
//! under the read lock. Neither allocates, so the store-wide lock is held for
//! one 4 KiB copy and nothing else; the checksum is verified on the caller's
//! copy after the lock is released.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use face_analysis::classes::PAGE_STORE;
use face_analysis::OrderedRwLock;

use crate::idhash::IdHashMap;
use crate::page::{Page, PageId};
use crate::store::{validate_read, PageStore, StoreError, StoreResult};

#[derive(Default)]
struct Inner {
    pages: IdHashMap<PageId, Page>,
    /// Highest allocated page number per file, +1.
    file_sizes: HashMap<u32, u64>,
}

/// A heap-allocated page store.
pub struct InMemoryPageStore {
    inner: OrderedRwLock<Inner>,
}

impl Default for InMemoryPageStore {
    fn default() -> Self {
        Self::new()
    }
}

impl InMemoryPageStore {
    /// An empty store.
    pub fn new() -> Self {
        Self {
            inner: OrderedRwLock::new(PAGE_STORE, Inner::default()),
        }
    }

    /// Number of pages that have actually been written (not just allocated).
    pub fn materialized_pages(&self) -> usize {
        self.inner.read().pages.len()
    }

    /// Drop all contents (simulates media loss; used in crash tests to verify
    /// that recovery really does depend on the flash cache / disk contents).
    pub fn clear(&self) {
        let mut g = self.inner.write();
        g.pages.clear();
        g.file_sizes.clear();
    }
}

impl PageStore for InMemoryPageStore {
    fn read_page(&self, id: PageId, buf: &mut Page) -> StoreResult<()> {
        {
            let g = self.inner.read();
            let size = g.file_sizes.get(&id.file).copied().unwrap_or(0);
            if (id.page_no as u64) >= size {
                return Err(StoreError::PageNotFound(id));
            }
            match g.pages.get(&id) {
                Some(p) => buf.clone_from(p),
                None => {
                    // Allocated but never written: zero-filled.
                    buf.as_bytes_mut().fill(0);
                    return Ok(());
                }
            }
        }
        // Checksumming the caller's copy needs no lock.
        validate_read(id, buf)
    }

    fn write_page(&self, id: PageId, page: &Page) -> StoreResult<()> {
        debug_assert_eq!(page.id(), id, "page header id must match slot");
        let mut g = self.inner.write();
        let size = g.file_sizes.entry(id.file).or_insert(0);
        if (id.page_no as u64) >= *size {
            // Implicit extension keeps the store permissive for tests that
            // write without allocating first.
            *size = id.page_no as u64 + 1;
        }
        match g.pages.entry(id) {
            Entry::Occupied(stored) => stored.into_mut().clone_from(page),
            Entry::Vacant(slot) => {
                slot.insert(page.clone());
            }
        }
        Ok(())
    }

    fn allocate(&self, file: u32) -> StoreResult<PageId> {
        let mut g = self.inner.write();
        let size = g.file_sizes.entry(file).or_insert(0);
        let id = PageId::new(file, *size as u32);
        *size += 1;
        Ok(id)
    }

    fn num_pages(&self, file: u32) -> u64 {
        self.inner
            .read()
            .file_sizes
            .get(&file)
            .copied()
            .unwrap_or(0)
    }

    fn sync(&self) -> StoreResult<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Lsn;

    #[test]
    fn allocate_read_write_round_trip() {
        let store = InMemoryPageStore::new();
        let id = store.allocate(1).unwrap();
        assert_eq!(id, PageId::new(1, 0));
        assert_eq!(store.num_pages(1), 1);
        assert!(store.contains(id));

        let mut page = Page::new(id);
        page.write_body(0, b"data");
        page.set_lsn(Lsn(7));
        page.update_checksum();
        store.write_page(id, &page).unwrap();

        let mut out = Page::zeroed();
        store.read_page(id, &mut out).unwrap();
        assert_eq!(out.read_body(0, 4), b"data");
        assert_eq!(out.lsn(), Lsn(7));
    }

    #[test]
    fn allocated_but_unwritten_page_reads_zeroed() {
        let store = InMemoryPageStore::new();
        let id = store.allocate(0).unwrap();
        let mut out = Page::new(PageId::new(9, 9));
        store.read_page(id, &mut out).unwrap();
        assert!(!out.is_formatted());
    }

    #[test]
    fn unallocated_page_not_found() {
        let store = InMemoryPageStore::new();
        let mut out = Page::zeroed();
        let err = store.read_page(PageId::new(0, 5), &mut out).unwrap_err();
        assert!(matches!(err, StoreError::PageNotFound(_)));
        assert!(!store.contains(PageId::new(0, 5)));
    }

    #[test]
    fn sequential_allocation_per_file() {
        let store = InMemoryPageStore::new();
        for i in 0..10u32 {
            assert_eq!(store.allocate(2).unwrap(), PageId::new(2, i));
        }
        assert_eq!(store.allocate(3).unwrap(), PageId::new(3, 0));
        assert_eq!(store.num_pages(2), 10);
        assert_eq!(store.num_pages(3), 1);
        assert_eq!(store.num_pages(4), 0);
    }

    #[test]
    fn implicit_extension_on_write() {
        let store = InMemoryPageStore::new();
        let id = PageId::new(0, 99);
        let mut page = Page::new(id);
        page.update_checksum();
        store.write_page(id, &page).unwrap();
        assert_eq!(store.num_pages(0), 100);
        assert_eq!(store.materialized_pages(), 1);
    }

    #[test]
    fn overwriting_a_page_in_place_reads_back_the_new_bytes() {
        let store = InMemoryPageStore::new();
        let id = store.allocate(0).unwrap();
        let other = store.allocate(0).unwrap();
        let mut out = Page::zeroed();
        for round in 0..3u8 {
            let mut page = Page::new(id);
            page.write_body(0, &[round; 64]);
            page.set_lsn(Lsn(round as u64 + 1));
            page.update_checksum();
            store.write_page(id, &page).unwrap();
            // The caller's page is only read from.
            page.write_body(0, &[0xFF; 64]);
            assert_eq!(store.materialized_pages(), 1);
            store.read_page(id, &mut out).unwrap();
            assert_eq!(out.read_body(0, 64), [round; 64]);
            assert_eq!(out.lsn(), Lsn(round as u64 + 1));
            // A read target is fully overwritten, also by an unwritten page.
            store.read_page(other, &mut out).unwrap();
            assert!(out.as_bytes().iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn clear_drops_everything() {
        let store = InMemoryPageStore::new();
        let id = store.allocate(0).unwrap();
        let mut p = Page::new(id);
        p.update_checksum();
        store.write_page(id, &p).unwrap();
        store.clear();
        assert_eq!(store.num_pages(0), 0);
        assert_eq!(store.materialized_pages(), 0);
    }

    #[test]
    fn corrupted_page_detected_on_read() {
        let store = InMemoryPageStore::new();
        let id = store.allocate(0).unwrap();
        let mut p = Page::new(id);
        p.write_body(0, b"x");
        // Deliberately skip update_checksum so the stored checksum (0) is
        // wrong for the contents.
        store.write_page(id, &p).unwrap();
        let mut out = Page::zeroed();
        let err = store.read_page(id, &mut out).unwrap_err();
        assert!(matches!(err, StoreError::ChecksumMismatch(_)));
    }
}
