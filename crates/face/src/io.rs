//! Physical I/O event log.
//!
//! Every cache operation appends the physical I/O it causes to the [`IoLog`]
//! its caller passes. The functional engine keeps none (its stores already
//! moved the bytes, and its counters live in the stores and the tier): it
//! passes a scratch log and drops it. The simulation driver replays each
//! event against the calibrated devices of `face-iosim` to charge virtual
//! time. Keeping the description of
//! *what I/O a policy causes* inside the policy is what makes the comparison
//! between FaCE, LC and TAC meaningful: the policies differ precisely in the
//! amount and the pattern (random vs sequential) of flash and disk I/O.

use face_pagestore::PageId;
use serde::{Deserialize, Serialize};

/// One physical I/O caused by a flash-cache operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlashIoEvent {
    /// A write of `pages` consecutive pages to the flash device.
    FlashWrite {
        /// Number of 4 KiB pages.
        pages: u32,
        /// Whether the write is sequential (append-only queue writes and
        /// metadata segment flushes) or random (in-place overwrites).
        sequential: bool,
    },
    /// A read of `pages` consecutive pages from the flash device.
    FlashRead {
        /// Number of 4 KiB pages.
        pages: u32,
        /// Whether the read is sequential (group dequeues, recovery scans) or
        /// random (flash hits).
        sequential: bool,
    },
    /// A single-page write to the disk array (stage-out of a dirty page or a
    /// write-through).
    DiskWrite {
        /// The page written.
        page: PageId,
    },
    /// A single-page read from the disk array (only recovery uses this from
    /// within the cache layer).
    DiskRead {
        /// The page read.
        page: PageId,
    },
}

impl FlashIoEvent {
    /// The number of 4 KiB pages this event transfers.
    pub fn pages(&self) -> u32 {
        match self {
            FlashIoEvent::FlashWrite { pages, .. } | FlashIoEvent::FlashRead { pages, .. } => {
                *pages
            }
            FlashIoEvent::DiskWrite { .. } | FlashIoEvent::DiskRead { .. } => 1,
        }
    }

    /// Whether this event touches the flash device.
    pub fn is_flash(&self) -> bool {
        matches!(
            self,
            FlashIoEvent::FlashWrite { .. } | FlashIoEvent::FlashRead { .. }
        )
    }

    /// Whether this event is a write.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            FlashIoEvent::FlashWrite { .. } | FlashIoEvent::DiskWrite { .. }
        )
    }
}

/// An append-only list of [`FlashIoEvent`]s produced by one or more cache
/// operations.
#[derive(Debug, Clone, Default)]
pub struct IoLog {
    events: Vec<FlashIoEvent>,
}

impl IoLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event.
    pub fn push(&mut self, event: FlashIoEvent) {
        self.events.push(event);
    }

    /// Record a sequential flash write of `pages` pages.
    pub fn flash_write_seq(&mut self, pages: u32) {
        self.push(FlashIoEvent::FlashWrite {
            pages,
            sequential: true,
        });
    }

    /// Record a random flash write of `pages` pages.
    pub fn flash_write_rand(&mut self, pages: u32) {
        self.push(FlashIoEvent::FlashWrite {
            pages,
            sequential: false,
        });
    }

    /// Record a sequential flash read of `pages` pages.
    pub fn flash_read_seq(&mut self, pages: u32) {
        self.push(FlashIoEvent::FlashRead {
            pages,
            sequential: true,
        });
    }

    /// Record a random flash read of `pages` pages.
    pub fn flash_read_rand(&mut self, pages: u32) {
        self.push(FlashIoEvent::FlashRead {
            pages,
            sequential: false,
        });
    }

    /// Record a disk write of one page.
    pub fn disk_write(&mut self, page: PageId) {
        self.push(FlashIoEvent::DiskWrite { page });
    }

    /// Record a disk read of one page.
    pub fn disk_read(&mut self, page: PageId) {
        self.push(FlashIoEvent::DiskRead { page });
    }

    /// The recorded events in order.
    pub fn events(&self) -> &[FlashIoEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Remove and return all events (the simulation driver drains the log
    /// after each engine operation).
    pub fn drain(&mut self) -> Vec<FlashIoEvent> {
        std::mem::take(&mut self.events)
    }

    /// Append every event of `other` (merging a per-operation local log into
    /// a shared one).
    pub fn merge(&mut self, mut other: IoLog) {
        self.events.append(&mut other.events);
    }

    /// Clear without returning.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Total flash pages written (any pattern).
    pub fn flash_pages_written(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| e.is_flash() && e.is_write())
            .map(|e| e.pages() as u64)
            .sum()
    }

    /// Total flash pages written randomly.
    pub fn flash_pages_written_random(&self) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                FlashIoEvent::FlashWrite {
                    pages,
                    sequential: false,
                } => Some(*pages as u64),
                _ => None,
            })
            .sum()
    }

    /// Total disk page writes.
    pub fn disk_writes(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, FlashIoEvent::DiskWrite { .. }))
            .count() as u64
    }

    /// Total disk page reads.
    pub fn disk_reads(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, FlashIoEvent::DiskRead { .. }))
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_properties() {
        let w = FlashIoEvent::FlashWrite {
            pages: 64,
            sequential: true,
        };
        assert_eq!(w.pages(), 64);
        assert!(w.is_flash());
        assert!(w.is_write());

        let r = FlashIoEvent::FlashRead {
            pages: 1,
            sequential: false,
        };
        assert!(!r.is_write());

        let d = FlashIoEvent::DiskWrite {
            page: PageId::new(0, 1),
        };
        assert_eq!(d.pages(), 1);
        assert!(!d.is_flash());
        assert!(d.is_write());
    }

    #[test]
    fn log_accumulates_and_summarises() {
        let mut log = IoLog::new();
        assert!(log.is_empty());
        log.flash_write_seq(64);
        log.flash_write_rand(1);
        log.flash_read_rand(1);
        log.flash_read_seq(128);
        log.disk_write(PageId::new(0, 9));
        log.disk_read(PageId::new(0, 10));
        assert_eq!(log.len(), 6);
        assert_eq!(log.flash_pages_written(), 65);
        assert_eq!(log.flash_pages_written_random(), 1);
        assert_eq!(log.disk_writes(), 1);
        assert_eq!(log.disk_reads(), 1);
        assert_eq!(log.events().len(), 6);
    }

    #[test]
    fn drain_empties_the_log() {
        let mut log = IoLog::new();
        log.flash_write_seq(1);
        let events = log.drain();
        assert_eq!(events.len(), 1);
        assert!(log.is_empty());
        log.flash_read_rand(1);
        log.clear();
        assert!(log.is_empty());
    }
}
