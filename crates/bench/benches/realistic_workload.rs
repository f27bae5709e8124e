//! **E10 — realistic workloads** (the paper's future work: "performing
//! experiments using our driver for more general use, such as measuring
//! performance when using a file system and realistic workloads").
//!
//! Three filesystem-flavoured mixes over every scenario:
//! * `oltp`   — 70/30 random read/write, 8 KiB, zipfian hotspots, QD 8
//! * `scan`   — sequential 128 KiB reads, QD 4 (backup/analytics)
//! * `logger` — sequential 4 KiB writes, QD 1 (journaling)

use bench::{bench_runtime, header, save_json, us};
use cluster::{Calibration, ScenarioKind};
use fioflex::{JobReport, JobSpec, RwMode};
use simcore::SimDuration;

fn mixes() -> Vec<(&'static str, JobSpec)> {
    let rt = bench_runtime();
    let ramp = SimDuration::from_micros(500);
    vec![
        (
            "oltp",
            JobSpec::new("oltp", RwMode::RandRw { read_pct: 70 })
                .bs(8 << 10)
                .iodepth(8)
                .zipf(1.1)
                .runtime(rt)
                .ramp(ramp),
        ),
        (
            "scan",
            JobSpec::new("scan", RwMode::SeqRead)
                .bs(128 << 10)
                .iodepth(4)
                .runtime(rt)
                .ramp(ramp),
        ),
        (
            "logger",
            JobSpec::new("logger", RwMode::SeqWrite)
                .bs(4 << 10)
                .iodepth(1)
                .runtime(rt)
                .ramp(ramp),
        ),
    ]
}

fn main() {
    header(
        "Realistic workloads: OLTP / scan / logger mixes on every stack",
        "Markussen et al., SC'24, §VIII future work (realistic workloads)",
    );
    let calib = Calibration::paper();
    let kinds = [
        ScenarioKind::LinuxLocal,
        ScenarioKind::NvmfRemote,
        ScenarioKind::OursLocal,
        ScenarioKind::OursRemote { switches: 1 },
    ];
    let points: Vec<_> = kinds
        .iter()
        .flat_map(|k| {
            mixes()
                .into_iter()
                .map(move |(name, spec)| (k.clone(), name, spec))
        })
        .collect();
    let reports: Vec<((String, &'static str), JobReport)> = std::thread::scope(|s| {
        let handles: Vec<_> = points
            .into_iter()
            .map(|(kind, name, spec)| {
                let calib = calib.clone();
                s.spawn(move || {
                    let rep = bench::run_scenario(kind.clone(), &calib, &spec);
                    ((kind.label(), name), rep)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    println!(
        "\n  {:<16} {:<8} {:>10} {:>10} {:>12} {:>12}",
        "scenario", "mix", "r p50 us", "w p50 us", "MiB/s", "errors"
    );
    let mut rows = Vec::new();
    for ((label, mix), rep) in &reports {
        let r50 = rep.read.as_ref().map(|r| us(r.lat.p50)).unwrap_or(0.0);
        let w50 = rep.write.as_ref().map(|w| us(w.lat.p50)).unwrap_or(0.0);
        let bw = rep.read.as_ref().map(|r| r.bw_mib_s).unwrap_or(0.0)
            + rep.write.as_ref().map(|w| w.bw_mib_s).unwrap_or(0.0);
        println!(
            "  {label:<16} {mix:<8} {r50:>10.2} {w50:>10.2} {bw:>12.1} {:>12}",
            rep.errors
        );
        assert_eq!(rep.errors, 0, "{label}/{mix}");
        rows.push((label.clone(), mix.to_string(), r50, w50, bw));
    }

    // Shape: on every mix, our remote driver must sit between local and
    // NVMe-oF for latency-bound mixes and match everyone on bandwidth-
    // bound mixes.
    let get = |l: &str, m: &str| rows.iter().find(|(a, b, ..)| a == l && b == m).unwrap();
    let oltp_ours = get("ours/remote", "oltp").2;
    let oltp_nvmf = get("nvmeof/remote", "oltp").2;
    assert!(
        oltp_ours < oltp_nvmf,
        "OLTP read latency: ours {oltp_ours:.2} must beat NVMe-oF {oltp_nvmf:.2}"
    );
    let scan_local = get("linux/local", "scan").4;
    let scan_ours = get("ours/remote", "scan").4;
    assert!(
        scan_ours > scan_local * 0.8,
        "scan bandwidth must be media-bound on the remote path too"
    );
    save_json("realistic_workload", &rows);
    println!("\nrealistic_workload: OK");
}
