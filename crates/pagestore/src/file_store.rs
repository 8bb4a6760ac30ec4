//! A file-backed page store: one file per relation segment under a directory.
//!
//! This is the "real I/O" backend used by the functional tests, the examples
//! and the crash-recovery integration tests. Performance experiments use the
//! simulated devices instead (see `face-iosim`), because the paper's numbers
//! depend on 2012-era device characteristics, not on whatever disk this
//! reproduction happens to run on.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use face_analysis::classes::PAGE_STORE;
use face_analysis::OrderedMutex;

use crate::page::{Page, PageId, PAGE_SIZE};
use crate::store::{validate_read, PageStore, StoreError, StoreResult};

/// A directory of `file_<n>.db` files, each a dense array of 4 KiB pages.
pub struct FilePageStore {
    dir: PathBuf,
    files: OrderedMutex<HashMap<u32, File>>,
}

impl FilePageStore {
    /// Open (creating if necessary) a page store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> StoreResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            files: OrderedMutex::new(PAGE_STORE, HashMap::new()),
        })
    }

    /// The root directory of this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_path(&self, file: u32) -> PathBuf {
        self.dir.join(format!("file_{file}.db"))
    }

    fn with_file<T>(
        &self,
        file: u32,
        f: impl FnOnce(&mut File) -> StoreResult<T>,
    ) -> StoreResult<T> {
        let mut files = self.files.lock();
        let handle = match files.entry(file) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                // Existing segment contents must survive reopening.
                let handle = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(false)
                    .open(self.file_path(file))?;
                e.insert(handle)
            }
        };
        f(handle)
    }

    fn file_len_pages(&self, file: u32) -> u64 {
        match fs::metadata(self.file_path(file)) {
            Ok(m) => m.len() / PAGE_SIZE as u64,
            Err(_) => 0,
        }
    }
}

impl PageStore for FilePageStore {
    fn read_page(&self, id: PageId, buf: &mut Page) -> StoreResult<()> {
        let len = self.file_len_pages(id.file);
        if (id.page_no as u64) >= len {
            return Err(StoreError::PageNotFound(id));
        }
        self.with_file(id.file, |f| {
            f.seek(SeekFrom::Start(id.byte_offset()))?;
            f.read_exact(buf.as_bytes_mut())?;
            Ok(())
        })?;
        validate_read(id, buf)
    }

    fn write_page(&self, id: PageId, page: &Page) -> StoreResult<()> {
        debug_assert_eq!(page.id(), id, "page header id must match slot");
        self.with_file(id.file, |f| {
            let needed = (id.page_no as u64 + 1) * PAGE_SIZE as u64;
            if f.metadata()?.len() < needed {
                f.set_len(needed)?;
            }
            f.seek(SeekFrom::Start(id.byte_offset()))?;
            f.write_all(page.as_bytes())?;
            Ok(())
        })
    }

    fn allocate(&self, file: u32) -> StoreResult<PageId> {
        self.with_file(file, |f| {
            let len = f.metadata()?.len();
            let page_no = (len / PAGE_SIZE as u64) as u32;
            f.set_len(len + PAGE_SIZE as u64)?;
            Ok(PageId::new(file, page_no))
        })
    }

    fn num_pages(&self, file: u32) -> u64 {
        self.file_len_pages(file)
    }

    fn sync(&self) -> StoreResult<()> {
        let files = self.files.lock();
        for f in files.values() {
            f.sync_data()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Lsn;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("face_pagestore_{tag}_{pid}_{n}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_then_read_round_trips() {
        let dir = temp_dir("rw");
        let store = FilePageStore::open(&dir).unwrap();
        let id = store.allocate(1).unwrap();
        let mut page = Page::new(id);
        page.write_body(5, b"durable bytes");
        page.set_lsn(Lsn(42));
        page.update_checksum();
        store.write_page(id, &page).unwrap();
        store.sync().unwrap();

        let mut out = Page::zeroed();
        store.read_page(id, &mut out).unwrap();
        assert_eq!(out.read_body(5, 13), b"durable bytes");
        assert_eq!(out.lsn(), Lsn(42));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persists_across_reopen() {
        let dir = temp_dir("reopen");
        let id;
        {
            let store = FilePageStore::open(&dir).unwrap();
            id = store.allocate(0).unwrap();
            let mut page = Page::new(id);
            page.write_body(0, b"survives");
            page.update_checksum();
            store.write_page(id, &page).unwrap();
            store.sync().unwrap();
        }
        {
            let store = FilePageStore::open(&dir).unwrap();
            assert_eq!(store.num_pages(0), 1);
            let mut out = Page::zeroed();
            store.read_page(id, &mut out).unwrap();
            assert_eq!(out.read_body(0, 8), b"survives");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn allocation_grows_file() {
        let dir = temp_dir("alloc");
        let store = FilePageStore::open(&dir).unwrap();
        for i in 0..5u32 {
            assert_eq!(store.allocate(7).unwrap(), PageId::new(7, i));
        }
        assert_eq!(store.num_pages(7), 5);
        // An allocated but never written page reads back zeroed.
        let mut out = Page::zeroed();
        store.read_page(PageId::new(7, 3), &mut out).unwrap();
        assert!(!out.is_formatted());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_page_is_an_error() {
        let dir = temp_dir("missing");
        let store = FilePageStore::open(&dir).unwrap();
        let mut out = Page::zeroed();
        assert!(matches!(
            store.read_page(PageId::new(0, 0), &mut out),
            Err(StoreError::PageNotFound(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_extends_file_implicitly() {
        let dir = temp_dir("extend");
        let store = FilePageStore::open(&dir).unwrap();
        let id = PageId::new(0, 9);
        let mut page = Page::new(id);
        page.update_checksum();
        store.write_page(id, &page).unwrap();
        assert_eq!(store.num_pages(0), 10);
        // Pages 0..9 read back zeroed; page 9 reads back formatted.
        let mut out = Page::zeroed();
        store.read_page(PageId::new(0, 4), &mut out).unwrap();
        assert!(!out.is_formatted());
        store.read_page(id, &mut out).unwrap();
        assert!(out.is_formatted());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_detected_on_read() {
        let dir = temp_dir("corrupt");
        let store = FilePageStore::open(&dir).unwrap();
        let id = store.allocate(0).unwrap();
        let mut page = Page::new(id);
        page.write_body(0, b"to be corrupted");
        page.update_checksum();
        store.write_page(id, &page).unwrap();
        store.sync().unwrap();
        drop(store);

        // Flip a byte in the middle of the page on disk.
        let path = dir.join("file_0.db");
        let mut bytes = fs::read(&path).unwrap();
        bytes[2000] ^= 0xFF;
        fs::write(&path, bytes).unwrap();

        let store = FilePageStore::open(&dir).unwrap();
        let mut out = Page::zeroed();
        assert!(matches!(
            store.read_page(id, &mut out),
            Err(StoreError::ChecksumMismatch(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
