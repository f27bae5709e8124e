//! What bringing a testbed up costs the host: microseconds and executor
//! steps per `Scenario::build` of `OursMultihost` with 1, 2, 8 and 31
//! clients, un-armed and armed (`simcore::sanitize::arm`, as every
//! `dnvme-explore` schedule is built).
//!
//! ```sh
//! cargo run --release -p cluster --example setup_cost
//! ```
//!
//! A build is the manager's controller bring-up plus one connect per
//! client: metadata read, queue memory, mailbox `CreateQp`, bounce buffer
//! and PRP lists. The step count is exact and repeats run to run; the
//! microseconds are the median of `BUILDS` builds, each scenario dropped
//! before the next is built. A record, not a gate: host time moves with
//! the machine, so compare two trees only by alternating their binaries.

use cluster::{Calibration, Scenario, ScenarioKind};

const BUILDS: usize = 15;

/// (median host µs, steps) of one `Scenario::build` of `kind`.
fn build_cost(kind: &ScenarioKind, armed: bool) -> (f64, u64) {
    let calib = Calibration::paper();
    let mut micros = Vec::with_capacity(BUILDS);
    let mut steps = 0;
    for _ in 0..BUILDS {
        let _armed = armed.then(simcore::sanitize::arm);
        // lint:allow(D01) — host wall-clock measurement of the build itself
        let t0 = std::time::Instant::now();
        let sc = Scenario::build(kind.clone(), &calib);
        micros.push(t0.elapsed().as_nanos() as f64 / 1e3);
        steps = sc.rt.steps();
    }
    micros.sort_by(f64::total_cmp);
    (micros[BUILDS / 2], steps)
}

fn main() {
    for clients in [1, 2, 8, 31] {
        let kind = ScenarioKind::OursMultihost { clients };
        for armed in [false, true] {
            let (us, steps) = build_cost(&kind, armed);
            println!(
                "setup_cost: {:>13} {:>8}: {steps:>5} steps, {us:>8.1} µs per build ({:.1} µs per client)",
                kind.label(),
                if armed { "armed" } else { "un-armed" },
                us / clients as f64,
            );
        }
    }
}
