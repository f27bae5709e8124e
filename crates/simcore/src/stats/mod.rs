//! Measurement collection: exact recorders for benchmark latencies.

pub mod recorder;

pub use recorder::{LatencyRecorder, LatencySummary};
