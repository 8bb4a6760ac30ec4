//! Durable homes for the log stream.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use face_analysis::classes::WAL_STORAGE;
use face_analysis::OrderedMutex;
use face_pagestore::{DeviceHooks, HookOp, Lsn};

use face_pagestore::crc32;

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

    /// Current length of the stream in bytes. Fallible: recovery decides
    /// where the durable log ends from it, so a storage that has to ask its
    /// device must surface an I/O error, not read it as "empty log".
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

    /// Persist `lsn` as the **restart anchor**: the LSN of a durable
    /// checkpoint record, kept on the log device but outside the append
    /// stream so restart finds the checkpoint without reading the log. The
    /// anchor is durable when this returns. The default is a storage that
    /// keeps no anchor, which costs restart a scan from LSN 0 and nothing
    /// else.
    fn set_restart_anchor(&self, lsn: Lsn) -> WalResult<()> {
        let _ = lsn;
        Ok(())
    }

    /// The persisted restart anchor; `None` when none was ever written or
    /// the stored one fails its integrity check. The caller still has to
    /// validate it against the log (see [`crate::recovery::analyze`]).
    fn restart_anchor(&self) -> WalResult<Option<Lsn>> {
        Ok(None)
    }
}

/// A log kept in memory. Durability is simulated: the contents survive as
/// long as the process does, which is exactly what the crash-simulation tests
/// need (they drop volatile state explicitly but keep the "devices").
pub struct InMemoryLogStorage {
    inner: OrderedMutex<MemLog>,
}

#[derive(Default)]
struct MemLog {
    data: Vec<u8>,
    /// The restart anchor: part of the "device", so it outlives a simulated
    /// crash like the bytes do.
    anchor: Option<Lsn>,
}

impl InMemoryLogStorage {
    /// An empty log.
    pub fn new() -> Self {
        Self {
            inner: OrderedMutex::new(WAL_STORAGE, MemLog::default()),
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
        let mut g = self.inner.lock();
        let off = g.data.len() as u64;
        g.data.extend_from_slice(data);
        Ok(off)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> WalResult<usize> {
        let g = self.inner.lock();
        if offset >= g.data.len() as u64 {
            return Ok(0);
        }
        let start = offset as usize;
        let n = buf.len().min(g.data.len() - start);
        buf[..n].copy_from_slice(&g.data[start..start + n]);
        Ok(n)
    }

    fn len(&self) -> WalResult<u64> {
        Ok(self.inner.lock().data.len() as u64)
    }

    fn sync(&self) -> WalResult<()> {
        Ok(())
    }

    fn truncate(&self, len: u64) -> WalResult<()> {
        self.inner.lock().data.truncate(len as usize);
        Ok(())
    }

    fn set_restart_anchor(&self, lsn: Lsn) -> WalResult<()> {
        self.inner.lock().anchor = Some(lsn);
        Ok(())
    }

    fn restart_anchor(&self) -> WalResult<Option<Lsn>> {
        Ok(self.inner.lock().anchor)
    }
}

/// A log stored in a single append-only file, with the restart anchor in a
/// small sidecar file next to it (`<log>.anchor`: the LSN and its CRC-32,
/// replaced atomically by write-to-temporary, sync, rename, sync directory).
pub struct FileLogStorage {
    path: PathBuf,
    /// Opened in append mode: writes land at the end whatever the cursor
    /// says, and reads are positional, so the handle needs no lock of its
    /// own.
    file: File,
    /// Length of the file. Appends, truncation and anchor replacement
    /// serialise on this lock.
    end: OrderedMutex<u64>,
}

/// Bytes of the anchor sidecar: `u64` LSN then `u32` CRC of those eight.
const ANCHOR_FILE_LEN: usize = 12;

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
        let end = file.metadata()?.len();
        Ok(Self {
            path,
            file,
            end: OrderedMutex::new(WAL_STORAGE, end),
        })
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn anchor_path(&self, suffix: &str) -> PathBuf {
        let mut name = self.path.as_os_str().to_owned();
        name.push(suffix);
        PathBuf::from(name)
    }
}

impl LogStorage for FileLogStorage {
    fn append(&self, data: &[u8]) -> WalResult<u64> {
        let mut end = self.end.lock();
        let off = *end;
        if let Err(e) = (&self.file).write_all(data) {
            // A failed write may have landed in part: take the length from
            // the device again rather than guess it.
            if let Ok(meta) = self.file.metadata() {
                *end = meta.len();
            }
            return Err(e.into());
        }
        *end += data.len() as u64;
        Ok(off)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> WalResult<usize> {
        let mut filled = 0;
        while filled < buf.len() {
            match self
                .file
                .read_at(&mut buf[filled..], offset + filled as u64)
            {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(filled)
    }

    fn len(&self) -> WalResult<u64> {
        Ok(*self.end.lock())
    }

    fn sync(&self) -> WalResult<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn truncate(&self, len: u64) -> WalResult<()> {
        let mut end = self.end.lock();
        self.file.set_len(len)?;
        *end = len;
        Ok(())
    }

    fn set_restart_anchor(&self, lsn: Lsn) -> WalResult<()> {
        let mut bytes = [0u8; ANCHOR_FILE_LEN];
        bytes[..8].copy_from_slice(&lsn.0.to_le_bytes());
        let crc = crc32(&bytes[..8]);
        bytes[8..].copy_from_slice(&crc.to_le_bytes());
        let (tmp, anchor) = (self.anchor_path(".anchor.tmp"), self.anchor_path(".anchor"));
        // One replacement at a time: two checkpoints share the temporary.
        let _serial = self.end.lock();
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, &anchor)?;
        // The rename is durable once the directory entry is.
        if let Some(dir) = anchor.parent().filter(|d| !d.as_os_str().is_empty()) {
            File::open(dir)?.sync_all()?;
        }
        Ok(())
    }

    fn restart_anchor(&self) -> WalResult<Option<Lsn>> {
        let bytes = match std::fs::read(self.anchor_path(".anchor")) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        if bytes.len() != ANCHOR_FILE_LEN {
            return Ok(None);
        }
        let (mut lsn, mut crc) = ([0u8; 8], [0u8; 4]);
        lsn.copy_from_slice(&bytes[..8]);
        crc.copy_from_slice(&bytes[8..]);
        Ok((crc32(&lsn) == u32::from_le_bytes(crc)).then_some(Lsn(u64::from_le_bytes(lsn))))
    }
}

/// The instrumented [`LogStorage`] view: `append`, `read_at`, `sync` and
/// `truncate` go through [`DeviceHooks::admit`] (see its module docs for the
/// order), and so do the restart-anchor calls: writing the anchor is a log
/// write followed by a sync, reading it is a log read. A log device's hooks
/// carry a sync time only, so `sync` and the anchor write are the calls that
/// pause; `len` is a metadata query and passes straight through.
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

    fn set_restart_anchor(&self, lsn: Lsn) -> WalResult<()> {
        self.admit("log.set_restart_anchor", HookOp::Write)?;
        self.admit("log.set_restart_anchor", HookOp::Sync)?;
        self.inner.set_restart_anchor(lsn)
    }

    fn restart_anchor(&self) -> WalResult<Option<Lsn>> {
        self.admit("log.restart_anchor", HookOp::Read)?;
        self.inner.restart_anchor()
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

        // The restart anchor lives beside the stream, not in it.
        assert_eq!(storage.restart_anchor().unwrap(), None);
        storage.set_restart_anchor(Lsn(6)).unwrap();
        storage.set_restart_anchor(Lsn(3)).unwrap();
        assert_eq!(storage.restart_anchor().unwrap(), Some(Lsn(3)));
        assert_eq!(storage.len().unwrap(), 11);
    }

    fn remove_log(path: &Path) {
        std::fs::remove_file(path).unwrap();
        let _ = std::fs::remove_file(path.with_extension("log.anchor"));
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
        remove_log(&path);
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
            // The tracked length continues from the reopened file.
            assert_eq!(s.append(b"!").unwrap(), 7);
            assert_eq!(s.len().unwrap(), 8);
        }
        remove_log(&path);
    }

    #[test]
    fn file_anchor_survives_reopen_and_a_torn_one_reads_as_none() {
        let path = temp_log("anchor");
        let _ = std::fs::remove_file(&path);
        let sidecar = path.with_extension("log.anchor");
        {
            let s = FileLogStorage::open(&path).unwrap();
            s.append(b"0123456789").unwrap();
            s.set_restart_anchor(Lsn(4)).unwrap();
        }
        let s = FileLogStorage::open(&path).unwrap();
        assert_eq!(s.restart_anchor().unwrap(), Some(Lsn(4)));
        assert!(!path.with_extension("log.anchor.tmp").exists());
        // A flipped byte fails the CRC; a short file fails the length check.
        let mut bytes = std::fs::read(&sidecar).unwrap();
        bytes[0] ^= 1;
        std::fs::write(&sidecar, &bytes).unwrap();
        assert_eq!(s.restart_anchor().unwrap(), None);
        std::fs::write(&sidecar, &bytes[..5]).unwrap();
        assert_eq!(s.restart_anchor().unwrap(), None);
        // The next checkpoint replaces it whole.
        s.set_restart_anchor(Lsn(9)).unwrap();
        assert_eq!(s.restart_anchor().unwrap(), Some(Lsn(9)));
        remove_log(&path);
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
