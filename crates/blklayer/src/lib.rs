//! # blklayer — a minimal block-layer analog
//!
//! The paper's client driver "must handle I/O requests from the Linux
//! block layer": requests point at arbitrary buffers, arrive concurrently
//! up to a queue depth, and complete asynchronously. This crate provides
//! exactly that contract — [`Bio`] and [`BlockDevice`] — so every driver
//! in the workspace (stock-Linux analog, SPDK analog, the distributed
//! driver, the NVMe-oF initiator) plugs into the same interface and the
//! workload generator drives them identically.

pub mod bio;
pub mod device;
pub mod ramdisk;

pub use bio::{Bio, BioError, BioOp, BioResult};
pub use device::{validate, BioFuture, BlockDevice};
pub use ramdisk::RamDisk;
