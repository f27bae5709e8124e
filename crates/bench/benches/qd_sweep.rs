//! **E6 — queue-depth sweep** (§VI premise): "remote storage solutions
//! like NVMe-oF using RDMA can provide very high throughput, which is
//! comparable to that of local PCIe" — the latency gap, not bandwidth, is
//! the paper's battleground. This sweep shows all four scenarios reaching
//! comparable IOPS at depth while the latency gap persists at QD 1.

use bench::{bench_runtime, header, save_json, us};
use cluster::{Calibration, ScenarioKind};
use fioflex::{JobReport, JobSpec, RwMode};
use nvme::QpairStats;
use simcore::SimDuration;

fn run_point(kind: ScenarioKind, calib: &Calibration, qd: usize) -> (JobReport, QpairStats) {
    let spec = JobSpec::new("qd", RwMode::RandRead)
        .iodepth(qd)
        .runtime(bench_runtime())
        .ramp(SimDuration::from_micros(500));
    bench::run_scenario_instrumented(kind, calib, &spec)
}

fn main() {
    header(
        "Queue-depth sweep: 4 KiB random read IOPS and latency",
        "Markussen et al., SC'24, §VI premise (bandwidth parity, latency gap)",
    );
    let calib = Calibration::paper();
    let kinds = [
        ScenarioKind::LinuxLocal,
        ScenarioKind::NvmfRemote,
        ScenarioKind::OursLocal,
        ScenarioKind::OursRemote { switches: 1 },
    ];
    let qds = [1usize, 2, 4, 8, 16, 32];
    println!(
        "\n  {:<16} {:>4} {:>12} {:>10} {:>10} {:>12}",
        "scenario", "qd", "kIOPS", "p50 us", "p99 us", "SQE/sq-db"
    );
    let mut results = Vec::new();
    let points: Vec<_> = kinds
        .iter()
        .flat_map(|k| qds.iter().map(move |&qd| (k.clone(), qd)))
        .collect();
    // Parallel fan-out across threads: each point is its own simulation.
    let reports: Vec<((ScenarioKind, usize), (JobReport, QpairStats))> = std::thread::scope(|s| {
        let handles: Vec<_> = points
            .into_iter()
            .map(|(kind, qd)| {
                let calib = calib.clone();
                s.spawn(move || {
                    let rep = run_point(kind.clone(), &calib, qd);
                    ((kind, qd), rep)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for ((kind, qd), (rep, db)) in &reports {
        let r = rep.read.as_ref().unwrap();
        let coalesce = db.sqes_submitted as f64 / db.sq_doorbells.max(1) as f64;
        println!(
            "  {:<16} {:>4} {:>12.1} {:>10.2} {:>10.2} {:>12.2}",
            kind.label(),
            qd,
            r.iops / 1_000.0,
            us(r.lat.p50),
            us(r.lat.p99),
            coalesce
        );
        assert_eq!(rep.errors, 0);
        assert_eq!(db.doorbell_errors, 0, "{} qd{}", kind.label(), qd);
        results.push((kind.label(), *qd, r.iops, r.lat.p50, r.lat.p99));
    }

    // Doorbell coalescing: at QD 1 the engine must ring per command (the
    // latency path is untouched); at depth one MMIO covers several SQEs.
    for ((kind, qd), (_, db)) in &reports {
        let label = kind.label();
        if *qd == 1 {
            assert_eq!(
                db.sq_doorbells, db.sqes_submitted,
                "{label} qd1: coalescing must be inert at queue depth 1"
            );
        }
        if *qd >= 8 && label.starts_with("ours") {
            assert!(
                db.sq_doorbells * 2 <= db.sqes_submitted,
                "{label} qd{qd}: expected >=2x doorbell-MMIO reduction, got {} doorbells for {} SQEs",
                db.sq_doorbells,
                db.sqes_submitted
            );
        }
    }

    let iops_at = |label: &str, qd: usize| {
        results
            .iter()
            .find(|(l, q, ..)| l == label && *q == qd)
            .unwrap()
            .2
    };
    let p50_at = |label: &str, qd: usize| {
        results
            .iter()
            .find(|(l, q, ..)| l == label && *q == qd)
            .unwrap()
            .3
    };
    // Bandwidth parity at depth: NVMe-oF within 25% of local at QD 32.
    let parity = iops_at("nvmeof/remote", 32) / iops_at("linux/local", 32);
    println!("\n  NVMe-oF/local IOPS ratio at QD32: {parity:.2} (paper: 'comparable')");
    assert!(
        parity > 0.75,
        "NVMe-oF must reach comparable throughput at depth, got {parity:.2}"
    );
    // Latency gap at QD1 despite throughput parity.
    let gap = p50_at("nvmeof/remote", 1) as f64 / p50_at("ours/remote", 1) as f64;
    println!("  NVMe-oF/ours p50 ratio at QD1:     {gap:.2}");
    assert!(
        gap > 1.2,
        "the QD1 latency gap is the paper's point, got {gap:.2}"
    );
    // IOPS scale with QD until the device saturates.
    assert!(iops_at("ours/remote", 16) > iops_at("ours/remote", 1) * 4.0);

    save_json("qd_sweep", &results);
    println!("\nqd_sweep: OK");
}
