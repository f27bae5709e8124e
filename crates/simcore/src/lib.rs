//! # simcore — deterministic discrete-event simulation core
//!
//! Foundation for the PCIe-cluster NVMe-sharing reproduction: a
//! single-threaded async runtime driven by **virtual time**, plus the
//! synchronization primitives, random distributions, and measurement
//! machinery the device and driver models are built on.
//!
//! Simulated hardware and driver logic are written as ordinary `async`
//! functions; latencies are expressed as [`Handle::sleep`] awaits. The
//! executor runs all runnable tasks at the current instant, then jumps the
//! clock to the earliest pending timer, so wall-clock cost scales with the
//! number of *events*, not with simulated duration.
//!
//! ```
//! use simcore::{SimRuntime, SimDuration};
//!
//! let rt = SimRuntime::new();
//! let h = rt.handle();
//! let t = rt.block_on(async move {
//!     h.sleep(SimDuration::from_micros(10)).await; // "10 µs" of device latency
//!     h.now()
//! });
//! assert_eq!(t.as_nanos(), 10_000);
//! ```

pub mod executor;
pub mod hash;
pub mod resource;
pub mod rng;
pub mod sanitize;
pub mod sched;
pub mod stats;
pub mod sync;
pub mod time;
pub mod timeout;

pub use executor::{yield_now, Handle, JoinHandle, ReactorId, SimRuntime, TaskId};
pub use hash::{IntHasher, IntMap};
pub use resource::SerialResource;
pub use rng::SimRng;
pub use sanitize::{Record, Stage, Violation};
pub use sched::{ChoiceKind, ChoiceOption, Footprint, ReplayScheduler, ScheduleTrace};
pub use stats::{LatencyRecorder, LatencySummary};
pub use time::{SimDuration, SimTime};
pub use timeout::{timeout, Elapsed};
