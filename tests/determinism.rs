//! Determinism regression harness: every scenario, run twice with the
//! same seed, must produce a bit-identical event stream. The executor
//! folds an FNV-1a hash over every `(task id, virtual time)` poll, so any
//! divergence — a hasher-ordered map iteration, a wallclock leak, an
//! entropy-seeded RNG — shows up as a hash mismatch even when the final
//! state happens to agree. The fingerprint also folds in the armed
//! checker's violation set: two runs that poll identically but *diagnose*
//! differently (a violation recorded in one run only, or with different
//! context) are just as non-deterministic as diverging schedules. And the
//! checker must be passive: arming it may not move the event stream.

use blklayer::Bio;
use cluster::{Calibration, Scenario, ScenarioKind};
use fioflex::{run_job, verify_region, JobSpec, RwMode};
use simcore::{LatencySummary, SimDuration};

/// FNV-1a over the sanitize violation set, order-sensitive: the sanitizer
/// must report the same violations in the same order on every replay.
fn violations_fingerprint(violations: &[simcore::sanitize::Violation]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for v in violations {
        eat(v.code.as_bytes());
        eat(&v.at_nanos.to_le_bytes());
        eat(v.detail.as_bytes());
    }
    h
}

/// Build the scenario from scratch, push a verified workload through it,
/// and return the run's fingerprint: the executor's event-stream hash
/// plus a hash of everything the sanitizer flagged.
fn run_once(kind: ScenarioKind, seed: u64) -> (u64, u64) {
    let calib = Calibration::paper();
    let _armed = simcore::sanitize::arm();
    let sc = Scenario::build(kind, &calib);
    let (host, dev) = sc.clients[0].clone();
    let fabric = sc.fabric.clone();
    let report = sc
        .rt
        .block_on(async move { verify_region(&fabric, host, dev, 0, 1024, 8, seed).await });
    assert!(report.clean(), "{}: {report:?}", sc.label);
    (
        sc.rt.trace_hash(),
        violations_fingerprint(&sc.rt.sanitize_violations()),
    )
}

fn assert_deterministic(kind: ScenarioKind) {
    let first = run_once(kind.clone(), 0x5EED);
    let second = run_once(kind.clone(), 0x5EED);
    assert_eq!(
        first.0, second.0,
        "{kind:?}: same seed produced different event streams"
    );
    assert_eq!(
        first.1, second.1,
        "{kind:?}: same seed produced different sanitize violation sets"
    );
}

#[test]
fn linux_local_is_deterministic() {
    assert_deterministic(ScenarioKind::LinuxLocal);
}

#[test]
fn nvmeof_is_deterministic() {
    assert_deterministic(ScenarioKind::NvmfRemote);
}

#[test]
fn ours_local_is_deterministic() {
    assert_deterministic(ScenarioKind::OursLocal);
}

#[test]
fn ours_remote_is_deterministic() {
    assert_deterministic(ScenarioKind::OursRemote { switches: 1 });
}

#[test]
fn multihost_is_deterministic() {
    assert_deterministic(ScenarioKind::OursMultihost { clients: 3 });
}

/// The sharded build: four clients pinned round-robin over `reactors`
/// logical reactors, each verifying a disjoint region concurrently.
fn run_once_sharded(reactors: usize, seed: u64) -> (u64, u64) {
    let calib = Calibration::paper();
    let _armed = simcore::sanitize::arm();
    let sc = Scenario::build_sharded(ScenarioKind::OursMultihost { clients: 4 }, &calib, reactors);
    assert_eq!(sc.rt.reactor_count(), reactors);
    let fabric = sc.fabric.clone();
    let clients = sc.clients.clone();
    let handle = sc.rt.handle();
    sc.rt.block_on(async move {
        let mut joins = Vec::new();
        for (i, (host, dev)) in clients.into_iter().enumerate() {
            let fabric = fabric.clone();
            joins.push(
                handle.spawn_on(simcore::ReactorId::new(i % reactors), async move {
                    verify_region(&fabric, host, dev, i as u64 * 2048, 1024, 8, seed).await
                }),
            );
        }
        for j in joins {
            let report = j.await;
            assert!(report.clean(), "{report:?}");
        }
    });
    (
        sc.rt.trace_hash(),
        violations_fingerprint(&sc.rt.sanitize_violations()),
    )
}

#[test]
fn sharded_multihost_is_deterministic() {
    // Multi-reactor execution must not cost determinism: the reactors
    // are *logical* shards of the one virtual-time executor, so the
    // cross-reactor interleaving replays bit-identically run to run.
    for reactors in [2usize, 4] {
        let first = run_once_sharded(reactors, 0x5EED);
        let second = run_once_sharded(reactors, 0x5EED);
        assert_eq!(
            first, second,
            "{reactors} reactors: same seed produced diverging runs"
        );
    }
}

#[test]
fn fault_schedule_replays_bit_identically() {
    // The tentpole's replay guarantee: the same fault token (a dropped
    // CQE, which drives the full recovery ladder — timeout, abort RPC,
    // queue recreate, resubmit) produces a bit-identical event stream on
    // every run. Fault injection must be as deterministic as the fault-
    // free simulation it perturbs.
    let run = || {
        let calib = Calibration::fault_recovery();
        let plan = pcie::FaultPlan::parse("f1:drop@0/cqe").unwrap();
        let _armed = simcore::sanitize::arm();
        let sc =
            Scenario::build_with_faults(ScenarioKind::OursRemote { switches: 1 }, &calib, plan);
        let (host, dev) = sc.clients[0].clone();
        let fabric = sc.fabric.clone();
        sc.rt.block_on(async move {
            let buf = fabric.alloc(host, 4096).unwrap();
            dev.submit(Bio::read(0, 8, buf)).await.unwrap();
        });
        let fs = sc.fabric.fault_stats();
        assert_eq!(fs.dropped, 1, "the fault must fire on every run");
        (
            sc.rt.trace_hash(),
            violations_fingerprint(&sc.rt.sanitize_violations()),
            fs,
        )
    };
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "same fault token produced diverging runs (event stream, \
         sanitizer set, or injection counters)"
    );
}

/// What one seeded mixed job on a fresh scenario leaves behind, with or
/// without the checker armed.
#[derive(Debug, PartialEq)]
struct JobOutcome {
    trace_hash: u64,
    steps: u64,
    read: Option<LatencySummary>,
    write: Option<LatencySummary>,
    violations: usize,
    /// Records in the fabric's access table (the race detector's state).
    hb_log: usize,
    /// Commands the lifecycle FSM still tracks; `None` = no FSM state.
    fsm_in_flight: Option<usize>,
}

fn job_once(kind: ScenarioKind, armed: bool) -> JobOutcome {
    let calib = Calibration::paper();
    let guard = armed.then(simcore::sanitize::arm);
    let sc = Scenario::build(kind, &calib);
    drop(guard);
    let (host, dev) = sc.clients[0].clone();
    let fabric = sc.fabric.clone();
    let spec = JobSpec::new("mix", RwMode::RandRw { read_pct: 70 })
        .region(0, 50_000)
        .runtime(SimDuration::from_millis(2))
        .seed(0x5EED);
    let report = sc
        .rt
        .block_on(async move { run_job(&fabric, host, dev, &spec).await });
    assert_eq!(report.errors, 0, "{}", sc.label);
    JobOutcome {
        trace_hash: sc.rt.trace_hash(),
        steps: sc.rt.steps(),
        read: report.read.map(|s| s.lat),
        write: report.write.map(|s| s.lat),
        violations: sc.rt.sanitize_violations().len(),
        hb_log: sc.fabric.sanitize_log_len(),
        fsm_in_flight: nvme::oracle::in_flight(&sc.fabric),
    }
}

#[test]
fn checker_is_passive() {
    // The armed and the un-armed run are the same binary: arming may add
    // bookkeeping but not one poll, one nanosecond or one violation, and
    // un-armed the checker — race detector, protocol checks and lifecycle
    // FSM alike — records nothing and allocates no state at all.
    for kind in [
        ScenarioKind::LinuxLocal,
        ScenarioKind::NvmfRemote,
        ScenarioKind::OursLocal,
        ScenarioKind::OursRemote { switches: 1 },
        ScenarioKind::OursMultihost { clients: 3 },
    ] {
        let armed = job_once(kind.clone(), true);
        assert!(
            armed.hb_log > 0,
            "{kind:?}: the armed run recorded no accesses"
        );
        assert_eq!(
            armed.fsm_in_flight,
            Some(0),
            "{kind:?}: the FSM must have followed every command to its end"
        );
        assert_eq!(
            armed.violations, 0,
            "{kind:?}: a legitimate job was flagged"
        );
        assert_eq!(
            job_once(kind.clone(), false),
            JobOutcome {
                hb_log: 0,
                fsm_in_flight: None,
                ..armed
            },
            "{kind:?}: arming the checker changed the run"
        );
    }
}

#[test]
fn hash_is_sensitive_to_the_workload() {
    // Guard against the hash degenerating into a constant: a different
    // workload shape must change the event stream. (Different *seeds* with
    // the same shape legitimately hash equal — timing here is
    // data-independent by design.)
    let (a, _) = run_once(ScenarioKind::OursRemote { switches: 1 }, 0x0001);
    let calib = Calibration::paper();
    let sc = Scenario::build(ScenarioKind::OursRemote { switches: 1 }, &calib);
    let (host, dev) = sc.clients[0].clone();
    let fabric = sc.fabric.clone();
    let report = sc
        .rt
        .block_on(async move { verify_region(&fabric, host, dev, 0, 512, 8, 0x0001).await });
    assert!(report.clean());
    assert_ne!(
        a,
        sc.rt.trace_hash(),
        "halving the region must change the event stream"
    );
}
