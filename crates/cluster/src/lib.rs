//! # cluster — scenario assembly and calibration
//!
//! Builds the paper's testbeds (Fig. 9a/9b and generalizations) from the
//! workspace's components, with one [`calib::Calibration`] bundling every
//! latency constant. The benchmark harnesses in `crates/bench` construct
//! a [`Scenario`] per data point and drive it with `fioflex` jobs.

pub mod calib;
pub mod scenario;

pub use calib::{Calibration, PaperDelta, FIG10_DELTAS};
pub use scenario::{Scenario, ScenarioKind};
