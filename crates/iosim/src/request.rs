//! I/O request descriptions submitted to simulated devices.

use crate::PAGE_SIZE;

/// Whether a request reads or writes the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// A read from the device into memory.
    Read,
    /// A write from memory to the device.
    Write,
}

/// The four operation classes whose costs differ on flash devices (the
/// columns of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Random read.
    RandomRead,
    /// Random write.
    RandomWrite,
    /// Sequential read.
    SequentialRead,
    /// Sequential write.
    SequentialWrite,
}

/// A single I/O request against one simulated device.
///
/// The submitter declares whether the request is sequential: FaCE's flash
/// writes are appends to a circular queue, the log is appended, and data
/// pages are read and written at random.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// Read or write.
    pub op: IoOp,
    /// Byte offset on the device; routes the request to a RAID member.
    pub offset: u64,
    /// Length in bytes. Usually [`PAGE_SIZE`].
    pub len: u32,
    /// Charge the sequential rather than the random service time.
    pub sequential: bool,
}

impl IoRequest {
    /// A random 4 KiB page read.
    pub fn random_page_read(offset: u64) -> Self {
        Self {
            op: IoOp::Read,
            offset,
            len: PAGE_SIZE as u32,
            sequential: false,
        }
    }

    /// A random 4 KiB page write.
    pub fn random_page_write(offset: u64) -> Self {
        Self {
            op: IoOp::Write,
            offset,
            len: PAGE_SIZE as u32,
            sequential: false,
        }
    }

    /// A sequential (append-style) write of `len` bytes at `offset`.
    pub fn sequential_write(offset: u64, len: u32) -> Self {
        Self {
            op: IoOp::Write,
            offset,
            len,
            sequential: true,
        }
    }

    /// A sequential read of `len` bytes at `offset`.
    pub fn sequential_read(offset: u64, len: u32) -> Self {
        Self {
            op: IoOp::Read,
            offset,
            len,
            sequential: true,
        }
    }

    /// The Table 1 class this request is charged as.
    pub fn class(&self) -> OpClass {
        match (self.op, self.sequential) {
            (IoOp::Read, false) => OpClass::RandomRead,
            (IoOp::Write, false) => OpClass::RandomWrite,
            (IoOp::Read, true) => OpClass::SequentialRead,
            (IoOp::Write, true) => OpClass::SequentialWrite,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_helpers_use_page_size() {
        let w = IoRequest::random_page_write(8192);
        assert_eq!(w.len as usize, PAGE_SIZE);
        assert_eq!(w.offset, 8192);
        assert_eq!(w.op, IoOp::Write);

        let r = IoRequest::random_page_read(0);
        assert_eq!(r.len as usize, PAGE_SIZE);
        assert_eq!(r.op, IoOp::Read);
    }

    #[test]
    fn helpers_declare_their_class() {
        assert_eq!(IoRequest::random_page_read(0).class(), OpClass::RandomRead);
        assert_eq!(
            IoRequest::random_page_write(0).class(),
            OpClass::RandomWrite
        );
        assert_eq!(
            IoRequest::sequential_write(0, 64 * 1024).class(),
            OpClass::SequentialWrite
        );
        assert_eq!(
            IoRequest::sequential_read(0, 64 * 1024).class(),
            OpClass::SequentialRead
        );
    }
}
