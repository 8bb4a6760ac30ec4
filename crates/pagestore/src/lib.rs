//! # face-pagestore — pages and page stores
//!
//! The lowest layer of the FaCE reproduction's storage engine: fixed-size
//! 4 KiB pages with a self-describing header (page id, pageLSN, checksum) and
//! the [`PageStore`] trait with file-backed and in-memory implementations.
//!
//! The page header carries the same information the paper relies on for
//! recovery (§4.2): every page stores its own id and pageLSN, so the flash
//! cache's metadata directory can be rebuilt by scanning data pages, and redo
//! can decide whether a logged update is already reflected in a page.
//!
//! Layers above:
//! * `face-wal` appends log records and assigns LSNs stored in page headers;
//! * `face-buffer` caches pages in DRAM frames;
//! * `face-cache` stages evicted pages in a flash-resident cache;
//! * `face-engine` stores records and B+tree nodes inside page bodies.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod counter;
pub mod crc;
pub mod device;
pub mod fault;
pub mod file_store;
pub mod hooks;
pub mod idhash;
pub mod mem_store;
pub mod page;
pub mod store;

pub use counter::Counter;
pub use crc::{crc32, crc32_fold};
pub use device::{DeviceError, DeviceErrorKind, DeviceOp, DeviceResult, DeviceScope};
pub use fault::{FaultAction, FaultMode, FaultPlan};
pub use file_store::FilePageStore;
pub use hooks::{backoff_sleep, DeviceHooks, HookOp, InstrumentedPageStore};
pub use idhash::IdHashMap;
pub use mem_store::InMemoryPageStore;
pub use page::{stripe_of, Lsn, Page, PageId, PAGE_BODY_SIZE, PAGE_HEADER_SIZE, PAGE_SIZE};
pub use store::{PageStore, StoreError, StoreResult};
