//! # pcie — transaction-level PCIe fabric model with NTB support
//!
//! Simulates the substrate the paper's cluster is built on: independent
//! per-host PCIe address domains, device BARs, transparent switch chips,
//! and Non-Transparent Bridges whose lookup tables translate window
//! accesses into remote domains.
//!
//! The two properties the reproduction depends on are modeled faithfully:
//!
//! 1. **Address translation.** Every CPU access and device DMA is resolved
//!    through the same [`fabric::Fabric::resolve`] walk a real TLP takes;
//!    unmapped addresses and unprogrammed LUT slots fail, exactly like
//!    hardware completing with Unsupported Request.
//! 2. **Posted/non-posted asymmetry and per-chip latency.** Writes are
//!    fire-and-forget and land one propagation later; reads stall for the
//!    round trip. Each switch chip in the path adds 100–150 ns per
//!    direction (paper §VI).

pub mod addr;
pub mod device;
pub mod error;
pub mod fabric;
pub mod fault;
mod hb;
pub mod memory;
pub mod ntb;
pub mod params;
pub mod payload;
pub mod topology;

pub use addr::{DeviceId, DomainAddr, HostId, MemRegion, NodeId, NtbId, PhysAddr};
pub use device::{MmioDevice, RegisterFile};
pub use error::{FabricError, Result};
pub use fabric::{Fabric, Location, WeakFabric};
pub use fault::{DeliveryFault, FaultAction, FaultPlan, Selector, SeverMode};
pub use memory::{HostMemory, PageTable, WatchHandle, PAGE_SIZE};
pub use params::FabricParams;
pub use payload::{Page, PageRef, Payload};
pub use topology::{NodeKind, Topology};
