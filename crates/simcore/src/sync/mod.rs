//! Single-threaded async synchronization primitives for simulation code.

pub mod notify;
pub mod oneshot;
pub mod semaphore;

pub use notify::Notify;
pub use semaphore::{Permit, Semaphore};
