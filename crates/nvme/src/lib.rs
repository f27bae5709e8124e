//! # nvme — behavioural NVMe 1.3 model
//!
//! Everything between a host driver and the storage medium:
//!
//! * [`spec`] — on-the-wire structures (SQE/CQE, registers, identify,
//!   PRPs) with encode/decode round-trip tests.
//! * [`queue`] — the host-side completion ring (`CqRing` polls phase tags
//!   in local memory).
//! * [`engine`] — the shared host-side qpair engine every driver stack
//!   builds on: tags + pending table, pluggable completion strategy, and
//!   batched submission with doorbell coalescing. It owns the submission
//!   ring (written through any CPU-visible address, including NTB
//!   windows), which no other module can name.
//! * [`medium`] — the storage medium behind the controller, with the
//!   calibrated Optane-like latency profile (consistent, low jitter).
//! * [`ctrl`] — the controller device model: one register file, one admin
//!   queue pair, up to 31 I/O queue pairs, DMA through the PCIe fabric
//!   with full NTB translation. Its [command set](ctrl#command-set)
//!   lists the admin and NVM commands it implements.
//! * [`driver`] — local drivers: the stock-Linux analog (interrupts) and
//!   the SPDK analog (polling), plus the shared admin bring-up code.

pub mod ctrl;
pub mod driver;
pub mod engine;
pub mod medium;
pub mod oracle;
pub mod queue;
pub mod spec;

pub use ctrl::{CtrlStats, NvmeConfig, NvmeController};
pub use engine::{
    CompletionStrategy, EngineConfig, EngineError, EngineStats, IoEngine, QpairStats,
    QueuePairSpec, TagSet,
};
pub use medium::{BlockStore, MediaProfile};
pub use queue::CqRing;
pub use spec::{CqEntry, IdentifyController, IdentifyNamespace, SqEntry, Status};
