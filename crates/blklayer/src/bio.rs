//! Block I/O request types — a minimal analog of the Linux block layer's
//! bio: an operation, an LBA range, and a pointer to an *arbitrary* memory
//! buffer (the property that forces the paper's client driver to use a
//! bounce buffer, §V).

use pcie::MemRegion;

/// Operation of a [`Bio`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BioOp {
    /// Read blocks into the buffer.
    Read,
    /// Write the buffer to blocks.
    Write,
    /// Flush the device write cache.
    Flush,
}

/// One block-layer request.
#[derive(Copy, Clone, Debug)]
pub struct Bio {
    /// What to do.
    pub op: BioOp,
    /// Starting logical block (in device block-size units).
    pub lba: u64,
    /// Number of blocks (0 allowed only for Flush).
    pub blocks: u32,
    /// Data buffer; ignored for Flush. The buffer lives wherever the
    /// submitting host put it — the driver has to cope.
    pub buf: MemRegion,
}

impl Bio {
    /// A read request.
    pub fn read(lba: u64, blocks: u32, buf: MemRegion) -> Bio {
        Bio {
            op: BioOp::Read,
            lba,
            blocks,
            buf,
        }
    }

    /// A write request.
    pub fn write(lba: u64, blocks: u32, buf: MemRegion) -> Bio {
        Bio {
            op: BioOp::Write,
            lba,
            blocks,
            buf,
        }
    }

    /// A flush request (no data).
    pub fn flush() -> Bio {
        Bio {
            op: BioOp::Flush,
            lba: 0,
            blocks: 0,
            buf: MemRegion::new(pcie::HostId(0), pcie::PhysAddr(0), 0),
        }
    }

    /// Transfer length in bytes for a given device block size.
    pub fn len(&self, block_size: u32) -> u64 {
        self.blocks as u64 * block_size as u64
    }
}

/// Errors a block device can return.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BioError {
    /// LBA range exceeds the device.
    OutOfRange { lba: u64, blocks: u32 },
    /// Transfer larger than the device/driver supports.
    TooLarge { bytes: u64, max: u64 },
    /// Buffer length does not match the block count.
    BadBuffer,
    /// The device reported an error status.
    DeviceError(String),
    /// Tag accounting desynchronized: a queue-depth permit was granted
    /// but no command identifier was free (driver bug, not device state).
    NoFreeTag,
    /// The device is gone (hot-removed / reset).
    Gone,
    /// The command exceeded its deadline and every recovery rung (doorbell
    /// re-rings, one resubmission) failed to produce a completion.
    Timeout { qid: u16, cid: u16 },
}

impl std::fmt::Display for BioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BioError::OutOfRange { lba, blocks } => {
                write!(f, "I/O beyond end of device (lba={lba}, blocks={blocks})")
            }
            BioError::TooLarge { bytes, max } => {
                write!(f, "transfer of {bytes} bytes exceeds max {max}")
            }
            BioError::BadBuffer => write!(f, "buffer size mismatch"),
            BioError::NoFreeTag => write!(f, "tag accounting exhausted (no free cid)"),
            BioError::DeviceError(s) => write!(f, "device error: {s}"),
            BioError::Gone => write!(f, "device gone"),
            BioError::Timeout { qid, cid } => {
                write!(f, "command timed out (qid={qid}, cid={cid})")
            }
        }
    }
}

impl std::error::Error for BioError {}

/// Completion result of one bio.
pub type BioResult = Result<(), BioError>;

#[cfg(test)]
mod tests {
    use super::*;
    use pcie::{HostId, PhysAddr};

    #[test]
    fn bio_len() {
        let buf = MemRegion::new(HostId(0), PhysAddr(0x1000), 4096);
        let bio = Bio::read(8, 8, buf);
        assert_eq!(bio.len(512), 4096);
        assert_eq!(bio.op, BioOp::Read);
    }

    #[test]
    fn flush_has_no_data() {
        let bio = Bio::flush();
        assert_eq!(bio.blocks, 0);
        assert_eq!(bio.op, BioOp::Flush);
    }

    #[test]
    fn error_display() {
        let e = BioError::OutOfRange { lba: 10, blocks: 2 };
        assert!(e.to_string().contains("lba=10"));
    }
}
