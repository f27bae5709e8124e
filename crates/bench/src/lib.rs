//! Shared harness utilities for the figure-reproduction benches.
//!
//! Every bench target in this crate regenerates one figure/claim of the
//! paper (see DESIGN.md's experiment index). The simulation is
//! deterministic, so unlike hardware benchmarks a single run per data
//! point is exact; `BENCH_RUNTIME_MS` trades run length (sample count)
//! for wall time.

use std::time::Instant;

use cluster::{Calibration, Scenario, ScenarioKind};
use fioflex::{JobReport, JobSpec, RwMode};
use nvme::QpairStats;
use simcore::SimDuration;

/// Simulated measurement duration per data point. The paper ran 60 s per
/// test; our distributions are stationary so shorter runs give identical
/// percentiles — override with BENCH_RUNTIME_MS for longer runs.
pub fn bench_runtime() -> SimDuration {
    let ms = std::env::var("BENCH_RUNTIME_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(150);
    SimDuration::from_millis(ms)
}

/// The paper's FIO job (4 KiB random, QD 1) at the harness runtime.
pub fn fig10_job(rw: RwMode) -> JobSpec {
    JobSpec::fig10(rw, bench_runtime()).ramp(SimDuration::from_micros(500))
}

/// Run one scenario/job pair in a fresh simulation.
pub fn run_scenario(kind: ScenarioKind, calib: &Calibration, spec: &JobSpec) -> JobReport {
    run_scenario_instrumented(kind, calib, spec).0
}

/// Like [`run_scenario`], but also returns the summed qpair-engine
/// counters of every host-side driver in the scenario — the doorbell-MMIO
/// ledger the coalescing benchmarks assert on.
pub fn run_scenario_instrumented(
    kind: ScenarioKind,
    calib: &Calibration,
    spec: &JobSpec,
) -> (JobReport, QpairStats) {
    let scenario = Scenario::build(kind, calib);
    let rep = scenario.run(spec);
    let doorbells = scenario.doorbell_totals();
    (rep, doorbells)
}

/// Run several (label, kind, spec) points across OS threads — each thread
/// owns an independent deterministic simulation.
pub fn run_parallel(
    calib: &Calibration,
    points: Vec<(String, ScenarioKind, JobSpec)>,
) -> Vec<(String, JobReport)> {
    run_parallel_instrumented(calib, points)
        .into_iter()
        .map(|(label, rep, _)| (label, rep))
        .collect()
}

/// [`run_parallel`] with each point's doorbell ledger attached.
pub fn run_parallel_instrumented(
    calib: &Calibration,
    points: Vec<(String, ScenarioKind, JobSpec)>,
) -> Vec<(String, JobReport, QpairStats)> {
    let mut out: Vec<Option<(String, JobReport, QpairStats)>> = Vec::new();
    out.resize_with(points.len(), || None);
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (i, (label, kind, spec)) in points.into_iter().enumerate() {
            let calib = calib.clone();
            handles.push((
                i,
                s.spawn(move || {
                    let (rep, doorbells) = run_scenario_instrumented(kind, &calib, &spec);
                    (label, rep, doorbells)
                }),
            ));
        }
        for (i, h) in handles {
            out[i] = Some(h.join().expect("bench thread panicked"));
        }
    });
    out.into_iter().map(|o| o.unwrap()).collect()
}

/// Print a section header in the style the harness uses throughout.
pub fn header(title: &str, source: &str) {
    println!();
    println!("================================================================================");
    println!("{title}");
    println!("  reproduces: {source}");
    println!("================================================================================");
}

/// Persist a JSON result blob under `crates/bench/results/`.
pub fn save_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let _ = std::fs::create_dir_all(dir);
    let path = format!("{dir}/{name}.json");
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if std::fs::write(&path, json).is_ok() {
                println!("  [saved {path}]");
            }
        }
        Err(e) => eprintln!("  [failed to serialize {name}: {e}]"),
    }
}

/// Wall-clock timing wrapper for progress output.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let v = f();
    eprintln!("  [{label}: {:.1}s wall]", t0.elapsed().as_secs_f64());
    v
}

/// Microseconds, pretty.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}
