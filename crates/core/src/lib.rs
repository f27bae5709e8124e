//! # dnvme — the distributed NVMe driver (the paper's contribution)
//!
//! Shares a **single-function** NVMe controller between hosts of a PCIe
//! cluster at the I/O-queue level, without RDMA:
//!
//! * [`manager::Manager`] — one per controller: exclusive bring-up, admin
//!   queue ownership, metadata publication, and a shared-memory mailbox
//!   that creates/deletes queue pairs on clients' behalf.
//! * [`client::ClientDriver`] — per host: bootstraps from the metadata
//!   segment, gets a private I/O queue pair (SQ device-side / CQ local,
//!   Fig. 8), stages data through a partitioned bounce buffer with PRPs
//!   programmed once, polls for completions, and registers a block
//!   device. After setup the client drives the controller with **no
//!   software on any other host in the path**.
//! * [`client::DataPath::DirectMapped`] — the paper's future-work IOMMU
//!   extension, implemented as an ablation: map each request buffer
//!   dynamically instead of bouncing.

// A fabric or DMA failure on one host must reach the caller as a typed
// error, not panic the cluster every tenant shares: no unwrap or expect
// in the driver (tests may; see clippy.toml). A site that cannot fail says
// why with `#[expect(clippy::…, reason = "…")]`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod bounce;
pub mod client;
pub mod error;
pub mod manager;
pub mod proto;

pub use bounce::BouncePool;
pub use client::{ClientConfig, ClientDriver, ClientStats, DataPath, SqPlacement};
pub use error::{DnvmeError, Result};
pub use manager::{Manager, ManagerConfig, ManagerStats};
pub use proto::Metadata;
