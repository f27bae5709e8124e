//! Host drivers for a locally-attached controller, plus the admin-queue
//! machinery every driver (including the distributed one) shares.

pub mod admin;
pub mod local;

pub use admin::{AdminError, AdminQueue, AdminQueueLayout, AdminResult};
pub use local::{attach_local_driver, LocalDriverConfig, LocalNvmeDriver};
