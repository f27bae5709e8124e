//! # dnvme-bench — the repository's benchmark
//!
//! Six closed-loop workloads over the simulated PCIe cluster, reported on
//! two clocks: *simulated time* (the reproduction's result — exact for a
//! given seed) and *host time* (the cost of running the simulator —
//! normalised by an interleaved calibration loop). `../BENCHMARK.json`
//! names the metrics, workloads, units, directions and regression bounds;
//! `README.md` explains each and how they interact.
//!
//! The harness drives only public APIs of the workspace crates and lives
//! entirely in this directory.

pub mod calib;
pub mod cli;
pub mod harness;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod trace;
pub mod workloads;
