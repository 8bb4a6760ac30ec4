//! Durable homes for the log stream.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use face_analysis::classes::WAL_STORAGE;
use face_analysis::OrderedMutex;
use face_pagestore::{DeviceHooks, HookOp};

/// Errors from the WAL layer.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A record frame failed its CRC or was truncated mid-write.
    Corrupt {
        /// Byte offset of the bad frame.
        at: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// An earlier physical log flush failed, so the writer can no longer
    /// guarantee which appended bytes reached storage; every subsequent
    /// force is refused rather than risk acknowledging lost commits or
    /// writing at desynchronised offsets.
    Poisoned,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
            WalError::Corrupt { at, reason } => {
                write!(f, "corrupt log frame at offset {at}: {reason}")
            }
            WalError::Poisoned => {
                write!(f, "WAL writer poisoned by an earlier failed log flush")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Result alias for WAL operations.
pub type WalResult<T> = Result<T, WalError>;

/// An append-only byte stream with random reads, used to persist the log.
pub trait LogStorage: Send + Sync {
    /// Append `data` at the end of the stream; returns the offset at which it
    /// was written.
    fn append(&self, data: &[u8]) -> WalResult<u64>;

    /// Read up to `buf.len()` bytes starting at `offset`; returns the number
    /// of bytes read (0 at end of stream).
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> WalResult<usize>;

    /// Current length of the stream in bytes. Fallible: on file-backed
    /// storage this is a metadata query of the device, and recovery decides
    /// where the durable log ends from it — an I/O error here must surface,
    /// not read as "empty log".
    fn len(&self) -> WalResult<u64>;

    /// Whether the stream is empty (same fallibility as [`LogStorage::len`]).
    fn is_empty(&self) -> WalResult<bool> {
        Ok(self.len()? == 0)
    }

    /// Make all appended data durable.
    fn sync(&self) -> WalResult<()>;

    /// Truncate the stream to `len` bytes (used by tests to simulate a torn
    /// tail after a crash).
    fn truncate(&self, len: u64) -> WalResult<()>;
}

/// A log kept in memory. Durability is simulated: the contents survive as
/// long as the process does, which is exactly what the crash-simulation tests
/// need (they drop volatile state explicitly but keep the "devices").
pub struct InMemoryLogStorage {
    data: OrderedMutex<Vec<u8>>,
}

impl InMemoryLogStorage {
    /// An empty log.
    pub fn new() -> Self {
        Self {
            data: OrderedMutex::new(WAL_STORAGE, Vec::new()),
        }
    }
}

impl Default for InMemoryLogStorage {
    fn default() -> Self {
        Self::new()
    }
}

impl LogStorage for InMemoryLogStorage {
    fn append(&self, data: &[u8]) -> WalResult<u64> {
        let mut g = self.data.lock();
        let off = g.len() as u64;
        g.extend_from_slice(data);
        Ok(off)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> WalResult<usize> {
        let g = self.data.lock();
        if offset >= g.len() as u64 {
            return Ok(0);
        }
        let start = offset as usize;
        let n = buf.len().min(g.len() - start);
        buf[..n].copy_from_slice(&g[start..start + n]);
        Ok(n)
    }

    fn len(&self) -> WalResult<u64> {
        Ok(self.data.lock().len() as u64)
    }

    fn sync(&self) -> WalResult<()> {
        Ok(())
    }

    fn truncate(&self, len: u64) -> WalResult<()> {
        let mut g = self.data.lock();
        g.truncate(len as usize);
        Ok(())
    }
}

/// A log stored in a single append-only file.
pub struct FileLogStorage {
    path: PathBuf,
    file: OrderedMutex<File>,
}

impl FileLogStorage {
    /// Open (creating if necessary) the log file at `path`.
    pub fn open(path: impl AsRef<Path>) -> WalResult<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        Ok(Self {
            path,
            file: OrderedMutex::new(WAL_STORAGE, file),
        })
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl LogStorage for FileLogStorage {
    fn append(&self, data: &[u8]) -> WalResult<u64> {
        let mut f = self.file.lock();
        let off = f.metadata()?.len();
        f.write_all(data)?;
        Ok(off)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> WalResult<usize> {
        // Open a read handle separately so reads do not disturb the append
        // cursor guarded by the mutex.
        let mut rf = File::open(&self.path)?;
        let len = rf.metadata()?.len();
        if offset >= len {
            return Ok(0);
        }
        rf.seek(SeekFrom::Start(offset))?;
        let want = buf.len().min((len - offset) as usize);
        rf.read_exact(&mut buf[..want])?;
        Ok(want)
    }

    fn len(&self) -> WalResult<u64> {
        // Previously swallowed the metadata error into `0`, which recovery
        // would have read as "the log is empty" — losing every committed
        // transaction on a transient device error.
        Ok(self.file.lock().metadata()?.len())
    }

    fn sync(&self) -> WalResult<()> {
        self.file.lock().sync_data()?;
        Ok(())
    }

    fn truncate(&self, len: u64) -> WalResult<()> {
        let f = self.file.lock();
        f.set_len(len)?;
        Ok(())
    }
}

/// The instrumented [`LogStorage`] view: `append`, `read_at`, `sync` and
/// `truncate` go through [`DeviceHooks::admit`] (see its module docs for the
/// order). A log device's hooks carry a sync time only, so `sync` is the one
/// call that pauses; `len` is a metadata query and passes straight through.
pub struct InstrumentedLogStorage {
    inner: Arc<dyn LogStorage>,
    hooks: DeviceHooks,
}

impl InstrumentedLogStorage {
    /// `inner` behind `hooks` — or `inner` itself when the hooks are inert.
    pub fn wrap(inner: Arc<dyn LogStorage>, hooks: DeviceHooks) -> Arc<dyn LogStorage> {
        if hooks.is_inert() {
            return inner;
        }
        Arc::new(Self { inner, hooks })
    }

    fn admit(&self, label: &'static str, op: HookOp) -> WalResult<()> {
        let verdict = self.hooks.admit(label, op, None);
        verdict.map_err(|e| WalError::Io(std::io::Error::other(e)))
    }
}

impl LogStorage for InstrumentedLogStorage {
    fn append(&self, data: &[u8]) -> WalResult<u64> {
        self.admit("log.append", HookOp::Write)?;
        self.inner.append(data)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> WalResult<usize> {
        self.admit("log.read_at", HookOp::Read)?;
        self.inner.read_at(offset, buf)
    }

    fn len(&self) -> WalResult<u64> {
        self.inner.len()
    }

    fn sync(&self) -> WalResult<()> {
        self.admit("log.sync", HookOp::Sync)?;
        self.inner.sync()
    }

    fn truncate(&self, len: u64) -> WalResult<()> {
        self.admit("log.truncate", HookOp::Write)?;
        self.inner.truncate(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_log(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("face_wal_{tag}_{}_{n}.log", std::process::id()))
    }

    fn exercise(storage: &dyn LogStorage) {
        assert!(storage.is_empty().unwrap());
        let o1 = storage.append(b"hello ").unwrap();
        let o2 = storage.append(b"world").unwrap();
        assert_eq!(o1, 0);
        assert_eq!(o2, 6);
        assert_eq!(storage.len().unwrap(), 11);
        storage.sync().unwrap();

        let mut buf = [0u8; 5];
        assert_eq!(storage.read_at(6, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"world");

        // Read past the end returns 0 bytes.
        assert_eq!(storage.read_at(100, &mut buf).unwrap(), 0);

        // Partial read at the tail.
        let mut buf = [0u8; 10];
        assert_eq!(storage.read_at(8, &mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"rld");

        storage.truncate(6).unwrap();
        assert_eq!(storage.len().unwrap(), 6);
        let o3 = storage.append(b"again").unwrap();
        assert_eq!(o3, 6);
    }

    #[test]
    fn in_memory_storage_behaviour() {
        let s = InMemoryLogStorage::new();
        exercise(&s);
    }

    #[test]
    fn instrumented_storage_behaviour() {
        let hooks = DeviceHooks {
            check: true,
            ..DeviceHooks::default()
        };
        let s = InstrumentedLogStorage::wrap(Arc::new(InMemoryLogStorage::new()), hooks);
        exercise(s.as_ref());
    }

    #[test]
    fn file_storage_behaviour() {
        let path = temp_log("basic");
        let _ = std::fs::remove_file(&path);
        let s = FileLogStorage::open(&path).unwrap();
        exercise(&s);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_storage_persists_across_reopen() {
        let path = temp_log("persist");
        let _ = std::fs::remove_file(&path);
        {
            let s = FileLogStorage::open(&path).unwrap();
            s.append(b"durable").unwrap();
            s.sync().unwrap();
        }
        {
            let s = FileLogStorage::open(&path).unwrap();
            assert_eq!(s.len().unwrap(), 7);
            let mut buf = [0u8; 7];
            s.read_at(0, &mut buf).unwrap();
            assert_eq!(&buf, b"durable");
            assert_eq!(s.path(), path.as_path());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn error_display() {
        let e = WalError::Corrupt {
            at: 12,
            reason: "bad crc".into(),
        };
        assert!(format!("{e}").contains("12"));
        let io: WalError = std::io::Error::other("disk gone").into();
        assert!(format!("{io}").contains("disk gone"));
    }
}
