//! The reproduction's headline results as tests: the Fig. 10 ordering,
//! the §VI delta magnitudes, and the bandwidth-parity premise must hold
//! on every build. (Absolute values are simulator-calibrated; these
//! tests pin the *shape* the paper reports.)

use cluster::{Calibration, Scenario, ScenarioKind};
use fioflex::{JobSpec, RwMode};
use simcore::{LatencySummary, Record, SimDuration, Stage};

fn job(rw: RwMode) -> JobSpec {
    JobSpec::fig10(rw, SimDuration::from_millis(20)).ramp(SimDuration::from_micros(500))
}

fn latency(kind: ScenarioKind, rw: RwMode) -> LatencySummary {
    latency_of(kind, &job(rw))
}

fn latency_of(kind: ScenarioKind, spec: &JobSpec) -> LatencySummary {
    let calib = Calibration::paper();
    let sc = Scenario::build(kind, &calib);
    let rep = sc.run(spec);
    assert_eq!(rep.errors, 0);
    rep.read.or(rep.write).map(|s| s.lat).unwrap()
}

#[test]
fn fig10_read_deltas_match_paper_bands() {
    let linux = latency(ScenarioKind::LinuxLocal, RwMode::RandRead);
    let nvmf = latency(ScenarioKind::NvmfRemote, RwMode::RandRead);
    let ours_l = latency(ScenarioKind::OursLocal, RwMode::RandRead);
    let ours_r = latency(ScenarioKind::OursRemote { switches: 1 }, RwMode::RandRead);

    // Paper: minimum read delta is 7.7 µs for NVMe-oF, ~1 µs for ours.
    let nvmf_delta = nvmf.min.saturating_sub(linux.min);
    let ours_delta = ours_r.min.saturating_sub(ours_l.min);
    assert!(
        (6_000..10_000).contains(&nvmf_delta),
        "NVMe-oF read delta {nvmf_delta} ns outside the paper's band (7.7 µs ± tolerance)"
    );
    assert!(
        (500..1_600).contains(&ours_delta),
        "PCIe read delta {ours_delta} ns outside the paper's band (~1 µs)"
    );
    // Naive driver baseline is above stock Linux (paper, §VI).
    assert!(
        ours_l.p50 > linux.p50,
        "naive driver must have a higher local baseline"
    );
}

#[test]
fn fig10_write_deltas_match_paper_bands() {
    let linux = latency(ScenarioKind::LinuxLocal, RwMode::RandWrite);
    let nvmf = latency(ScenarioKind::NvmfRemote, RwMode::RandWrite);
    let ours_l = latency(ScenarioKind::OursLocal, RwMode::RandWrite);
    let ours_r = latency(ScenarioKind::OursRemote { switches: 1 }, RwMode::RandWrite);

    // Paper: minimum write delta is 7.5 µs for NVMe-oF, ~2 µs for ours.
    let nvmf_delta = nvmf.min.saturating_sub(linux.min);
    let ours_delta = ours_r.min.saturating_sub(ours_l.min);
    assert!(
        (6_000..10_000).contains(&nvmf_delta),
        "NVMe-oF write delta {nvmf_delta} ns outside the paper's band (7.5 µs ± tolerance)"
    );
    assert!(
        (1_200..3_000).contains(&ours_delta),
        "PCIe write delta {ours_delta} ns outside the paper's band (~2 µs)"
    );
}

#[test]
fn optane_distribution_is_tight() {
    // The paper picked the P4800X for its consistency: p99/p50 must be
    // close to 1 on every scenario, or the boxplots lose their meaning.
    for kind in [
        ScenarioKind::LinuxLocal,
        ScenarioKind::OursRemote { switches: 1 },
    ] {
        let s = latency(kind, RwMode::RandRead);
        let spread = s.p99 as f64 / s.p50 as f64;
        assert!(
            spread < 1.1,
            "p99/p50 = {spread:.3} too wide for Optane-class media"
        );
    }
}

#[test]
fn remote_penalty_scales_with_chip_latency_corners() {
    // §VI: 100–150 ns per chip per direction; the remote penalty must
    // move with the corner choice.
    let read_min = |chip_ns: u64| {
        let calib = Calibration::paper().with_chip_latency(chip_ns);
        let local = Scenario::build(ScenarioKind::OursLocal, &calib).run(&job(RwMode::RandRead));
        let remote = Scenario::build(ScenarioKind::OursRemote { switches: 1 }, &calib)
            .run(&job(RwMode::RandRead));
        remote.read.unwrap().lat.min - local.read.unwrap().lat.min
    };
    let low = read_min(100);
    let high = read_min(150);
    assert!(
        high > low,
        "penalty must grow with chip latency ({low} -> {high})"
    );
    // 3 chips crossed twice on the read critical path: the corner spread
    // should be roughly 6 × 50 ns = 300 ns.
    let spread = high - low;
    assert!(
        (150..600).contains(&spread),
        "corner spread {spread} ns implausible"
    );
}

#[test]
fn a_second_command_in_flight_does_not_delay_completions() {
    // §V puts the CQ in client-local memory so that a polling client sees
    // a completion the moment the controller's posted write lands. With
    // the device far from saturated, a second command in flight may add a
    // little queueing but never a hold on an already-detected CQE.
    let p50 = |qd: usize| {
        let spec = job(RwMode::RandRead).iodepth(qd);
        latency_of(ScenarioKind::OursRemote { switches: 1 }, &spec).p50
    };
    let (qd1, qd2) = (p50(1), p50(2));
    assert!(
        qd2 <= qd1 + 2_000,
        "QD 2 p50 {qd2} ns is more than 2 µs above QD 1 p50 {qd1} ns"
    );
}

/// `(executor polls, I/Os)` of `spec` over its 20 simulated ms. Armed, to
/// count the controller's media reads and writes on the record stream;
/// arming moves no poll.
fn polls_and_ios(kind: ScenarioKind, spec: &JobSpec) -> (u64, u64) {
    let _armed = simcore::sanitize::arm();
    let sc = Scenario::build(kind, &Calibration::paper());
    let ios = |sc: &Scenario| {
        let records = sc.rt.handle().sanitize_records();
        let media = |r: &&Record| matches!(r.stage, Stage::MediaRead | Stage::MediaWrite);
        records.iter().filter(media).count() as u64
    };
    let (steps_before, ios_before) = (sc.rt.steps(), ios(&sc));
    let rep = sc.run(spec);
    assert_eq!(rep.errors, 0);
    (sc.rt.steps() - steps_before, ios(&sc) - ios_before)
}

#[test]
fn polls_per_io_stay_within_budget() {
    // The simulator's own cost as an exact, hardware-independent count:
    // every task poll is an event the host pays for, and a `spawn` per
    // posted write, MSI or command is two more of them per operation. The
    // ceilings are what the stack needs today; the allowance covers the
    // polls that start and stop the job, a few against ~1000 I/Os.
    const JOB_POLLS: u64 = 16;
    let ours = || ScenarioKind::OursRemote { switches: 1 };
    let window = SimDuration::from_millis(20);
    let seq128k = JobSpec::new("seq128k", RwMode::SeqRead)
        .bs(128 << 10)
        .iodepth(16)
        .runtime(window);
    for (kind, spec, ceiling, least) in [
        (ours(), JobSpec::fig10(RwMode::RandRead, window), 22, 500),
        (ours(), JobSpec::fig10(RwMode::RandWrite, window), 21, 500),
        // A pump step and a DMA write for each of the 32 PRP pages on top.
        (ours(), seq128k, 85, 300),
        (
            ScenarioKind::NvmfRemote,
            JobSpec::fig10(RwMode::RandRead, window),
            47,
            500,
        ),
    ] {
        let label = format!("{} {}", kind.label(), spec.rw.label());
        let (polls, ios) = polls_and_ios(kind, &spec);
        assert!(ios > least, "{label}: only {ios} I/Os in the window");
        assert!(
            polls <= ceiling * ios + JOB_POLLS,
            "{label}: {polls} polls for {ios} I/Os, ceiling {ceiling} per I/O"
        );
    }
}
