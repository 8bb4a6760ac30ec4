//! I/O request descriptions submitted to simulated devices.

use serde::{Deserialize, Serialize};

use crate::PAGE_SIZE;

/// Whether a request reads or writes the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoOp {
    /// A read from the device into memory.
    Read,
    /// A write from memory to the device.
    Write,
}

impl IoOp {
    /// `true` if this is a read.
    pub fn is_read(self) -> bool {
        matches!(self, IoOp::Read)
    }

    /// `true` if this is a write.
    pub fn is_write(self) -> bool {
        matches!(self, IoOp::Write)
    }
}

/// The access pattern of a request as declared by the submitter.
///
/// `Auto` lets the device infer the pattern from the byte offset of the
/// previous request (contiguous offsets are treated as sequential). FaCE's
/// append-only flash writes declare `Sequential` explicitly because the flash
/// cache is maintained as a circular queue whose writes are always contiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Force the random-access service time.
    Random,
    /// Force the sequential-access service time.
    Sequential,
    /// Infer from the previous request's offset.
    Auto,
}

/// A single I/O request against one simulated device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoRequest {
    /// Read or write.
    pub op: IoOp,
    /// Byte offset on the device. Used for sequentiality detection and RAID
    /// striping.
    pub offset: u64,
    /// Length in bytes. Usually [`PAGE_SIZE`].
    pub len: u32,
    /// Declared access pattern.
    pub pattern: AccessPattern,
}

impl IoRequest {
    /// A 4 KiB page write at `offset` with automatic pattern detection.
    pub fn page_write(offset: u64) -> Self {
        Self {
            op: IoOp::Write,
            offset,
            len: PAGE_SIZE as u32,
            pattern: AccessPattern::Auto,
        }
    }

    /// A random 4 KiB page read (pattern forced).
    pub fn random_page_read(offset: u64) -> Self {
        Self {
            op: IoOp::Read,
            offset,
            len: PAGE_SIZE as u32,
            pattern: AccessPattern::Random,
        }
    }

    /// A random 4 KiB page write (pattern forced).
    pub fn random_page_write(offset: u64) -> Self {
        Self {
            op: IoOp::Write,
            offset,
            len: PAGE_SIZE as u32,
            pattern: AccessPattern::Random,
        }
    }

    /// A sequential (append-style) write of `len` bytes at `offset`.
    pub fn sequential_write(offset: u64, len: u32) -> Self {
        Self {
            op: IoOp::Write,
            offset,
            len,
            pattern: AccessPattern::Sequential,
        }
    }

    /// A sequential read of `len` bytes at `offset`.
    pub fn sequential_read(offset: u64, len: u32) -> Self {
        Self {
            op: IoOp::Read,
            offset,
            len,
            pattern: AccessPattern::Sequential,
        }
    }

    /// The byte offset one past the end of this request.
    pub fn end_offset(&self) -> u64 {
        self.offset + self.len as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_helpers_use_page_size() {
        let w = IoRequest::page_write(8192);
        assert_eq!(w.len as usize, PAGE_SIZE);
        assert_eq!(w.pattern, AccessPattern::Auto);
        assert_eq!(w.end_offset(), 8192 + PAGE_SIZE as u64);
        assert!(w.op.is_write());
        assert!(!w.op.is_read());

        let r = IoRequest::random_page_read(0);
        assert_eq!(r.len as usize, PAGE_SIZE);
        assert_eq!(r.op, IoOp::Read);
    }

    #[test]
    fn forced_patterns() {
        assert_eq!(
            IoRequest::random_page_read(0).pattern,
            AccessPattern::Random
        );
        assert_eq!(
            IoRequest::random_page_write(0).pattern,
            AccessPattern::Random
        );
        assert_eq!(
            IoRequest::sequential_write(0, 64 * 1024).pattern,
            AccessPattern::Sequential
        );
        assert_eq!(
            IoRequest::sequential_read(0, 64 * 1024).pattern,
            AccessPattern::Sequential
        );
    }
}
