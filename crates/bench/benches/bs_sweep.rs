//! **E7 — block-size sweep** (§VI premise): sequential-read bandwidth
//! for all four scenarios across I/O sizes. All paths converge on the
//! device's link/media bandwidth at large blocks — the network is not
//! the bottleneck in either design; latency (E1) is.

use bench::{bench_runtime, header, save_json};
use cluster::{Calibration, ScenarioKind};
use fioflex::{JobReport, JobSpec, RwMode};
use simcore::SimDuration;

fn main() {
    header(
        "Block-size sweep: sequential read bandwidth (QD8)",
        "Markussen et al., SC'24, §VI premise (throughput parity at depth)",
    );
    let calib = Calibration::paper();
    let kinds = [
        ScenarioKind::LinuxLocal,
        ScenarioKind::NvmfRemote,
        ScenarioKind::OursLocal,
        ScenarioKind::OursRemote { switches: 1 },
    ];
    // The distributed driver's partition size caps its max transfer at
    // 128 KiB; sweep within that envelope for a fair comparison.
    let sizes: [u32; 6] = [512, 4 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10];
    let points: Vec<_> = kinds
        .iter()
        .flat_map(|k| sizes.iter().map(move |&bs| (k.clone(), bs)))
        .collect();
    let reports: Vec<((ScenarioKind, u32), JobReport)> = std::thread::scope(|s| {
        let handles: Vec<_> = points
            .into_iter()
            .map(|(kind, bs)| {
                let calib = calib.clone();
                s.spawn(move || {
                    let spec = JobSpec::new("bs", RwMode::SeqRead)
                        .bs(bs)
                        .iodepth(8)
                        .runtime(bench_runtime())
                        .ramp(SimDuration::from_micros(500));
                    let rep = bench::run_scenario(kind.clone(), &calib, &spec);
                    ((kind, bs), rep)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    println!(
        "\n  {:<16} {:>10} {:>12} {:>12}",
        "scenario", "bs", "MiB/s", "kIOPS"
    );
    let mut results = Vec::new();
    for ((kind, bs), rep) in &reports {
        let r = rep.read.as_ref().unwrap();
        println!(
            "  {:<16} {:>10} {:>12.1} {:>12.1}",
            kind.label(),
            bs,
            r.bw_mib_s,
            r.iops / 1_000.0
        );
        assert_eq!(rep.errors, 0);
        results.push((kind.label(), *bs, r.bw_mib_s));
    }

    let bw = |label: &str, bs: u32| {
        results
            .iter()
            .find(|(l, b, _)| l == label && *b == bs)
            .unwrap()
            .2
    };
    // Bandwidth grows with block size for every scenario.
    for kind in &kinds {
        let l = kind.label();
        assert!(
            bw(&l, 128 << 10) > bw(&l, 4 << 10) * 1.3 && bw(&l, 128 << 10) > bw(&l, 512) * 5.0,
            "{l}: large blocks must raise bandwidth"
        );
    }
    // At 128 KiB all paths are within 2x of local (media/link bound).
    let local = bw("linux/local", 128 << 10);
    for kind in &kinds {
        let l = kind.label();
        let ratio = bw(&l, 128 << 10) / local;
        println!("  {l}: 128 KiB bandwidth ratio vs local = {ratio:.2}");
        assert!(
            ratio > 0.5,
            "{l}: bandwidth should be media-bound, got ratio {ratio:.2}"
        );
    }

    save_json("bs_sweep", &results);
    println!("\nbs_sweep: OK");
}
