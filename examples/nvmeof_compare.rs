//! Side-by-side: the same FIO job against NVMe-oF/RDMA and against the
//! PCIe/NTB distributed driver — the paper's whole argument in one table.
//!
//! Run with:
//! ```sh
//! cargo run --release --example nvmeof_compare
//! ```

use cluster::{Calibration, Scenario, ScenarioKind};
use fioflex::{JobSpec, RwMode};
use simcore::SimDuration;

fn main() {
    let calib = Calibration::paper();
    let job =
        |rw| JobSpec::fig10(rw, SimDuration::from_millis(100)).ramp(SimDuration::from_micros(500));

    println!("4 KiB random I/O, queue depth 1 — remote access over two fabrics\n");
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "scenario", "dir", "min us", "p50 us", "p99 us", "kIOPS"
    );
    let mut p50 = std::collections::BTreeMap::new();
    for kind in [
        ScenarioKind::NvmfRemote,
        ScenarioKind::OursRemote { switches: 1 },
    ] {
        for rw in [RwMode::RandRead, RwMode::RandWrite] {
            let sc = Scenario::build(kind.clone(), &calib);
            let rep = sc.run(&job(rw));
            let s = rep.read.as_ref().or(rep.write.as_ref()).unwrap();
            println!(
                "{:<18} {:>10} {:>10.2} {:>10.2} {:>10.2} {:>10.1}",
                sc.label,
                rw.label(),
                s.lat.min as f64 / 1e3,
                s.lat.p50 as f64 / 1e3,
                s.lat.p99 as f64 / 1e3,
                s.iops / 1e3,
            );
            p50.insert((kind.label(), rw.label()), s.lat.p50);
        }
    }
    let speedup_read = p50[&("nvmeof/remote".to_string(), "randread".to_string())] as f64
        / p50[&("ours/remote".to_string(), "randread".to_string())] as f64;
    let speedup_write = p50[&("nvmeof/remote".to_string(), "randwrite".to_string())] as f64
        / p50[&("ours/remote".to_string(), "randwrite".to_string())] as f64;
    println!(
        "\nPCIe/NTB vs NVMe-oF median latency: {speedup_read:.2}x faster reads, {speedup_write:.2}x faster writes"
    );
    println!("nvmeof_compare: OK");
}
