//! # nvmeof — NVMe over Fabrics (RDMA transport) baseline
//!
//! The comparison point of the paper's evaluation: a poll-mode,
//! SPDK-like [`target::NvmfTarget`] that owns the NVMe device, and a
//! kernel-like [`initiator::NvmfInitiator`] block device. Commands travel
//! as capsules; data moves with one-sided RDMA (or in-capsule for small
//! writes, which is why the paper's read/write deltas are nearly equal).
//!
//! Every I/O necessarily crosses **target software**: poll detection,
//! capsule parsing, staging, a local NVMe round trip, and a response
//! send — the latency the PCIe/NTB approach eliminates.

pub mod capsule;
pub mod initiator;
pub mod target;

pub use capsule::{CommandCapsule, DataRef};
pub use initiator::{InitiatorConfig, NvmfInitiator};
pub use target::{NvmfTarget, TargetConfig, TargetStats};
