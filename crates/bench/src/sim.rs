//! The behavioural contract as a committed file: `BENCH_sim.json`.
//!
//! One row per point of a fixed scenario × job grid, once un-armed and
//! once armed: the run's `trace_hash`, executor steps, final simulated
//! instant, I/O errors, checker violations, the I/Os completed on every
//! client, and client 0's read and write latency summaries, every field
//! exact. A change that claims "no simulated number moved" shows it as an
//! empty diff of this file; a change that cuts executor steps shows which
//! hashes and step counts moved and that no latency did.

use cluster::{Calibration, Scenario, ScenarioKind};
use fioflex::{JobSpec, RwMode};
use simcore::{LatencySummary, SimDuration};

use crate::Row;

/// Simulated window per point: short, because the record is about
/// equality, not percentiles.
const WINDOW: SimDuration = SimDuration::from_millis(20);

/// The paper's four stacks plus four hosts sharing the controller.
const KINDS: [ScenarioKind; 5] = [
    ScenarioKind::LinuxLocal,
    ScenarioKind::NvmfRemote,
    ScenarioKind::OursLocal,
    ScenarioKind::OursRemote { switches: 1 },
    SHARED,
];

const SHARED: ScenarioKind = ScenarioKind::OursMultihost { clients: 4 };

/// Reactor counts of the sharded builds of [`SHARED`]. They charge driver
/// overheads as reactor CPU (as E12 does): without that, where a task
/// runs moves no simulated instant and every count gives the plain rows.
const REACTORS: [usize; 2] = [1, 2];

/// The jobs, each reaching a path the others do not: the Fig. 10 read, a
/// queued write (NVMe-oF carries it in the capsule), PRP lists, and a deep
/// mixed queue whose 64 KiB writes NVMe-oF fetches with RDMA READ.
fn jobs() -> [JobSpec; 4] {
    [
        JobSpec::new("sim", RwMode::RandRead),
        JobSpec::new("sim", RwMode::RandWrite).iodepth(4),
        JobSpec::new("sim", RwMode::SeqRead)
            .bs(128 << 10)
            .iodepth(8),
        JobSpec::new("sim", RwMode::RandRw { read_pct: 70 })
            .bs(64 << 10)
            .iodepth(32),
    ]
    .map(|job| job.runtime(WINDOW))
}

/// Every point of the grid, in file order.
fn grid() -> Vec<(ScenarioKind, Option<usize>, JobSpec)> {
    let builds = KINDS
        .into_iter()
        .map(|kind| (kind, None))
        .chain(REACTORS.map(|r| (SHARED, Some(r))));
    builds
        .flat_map(|(kind, reactors)| jobs().map(|job| (kind.clone(), reactors, job)))
        .collect()
}

pub(crate) fn unarmed() -> Vec<Row> {
    grid()
        .iter()
        .map(|(k, r, j)| point(k, *r, j, false))
        .collect()
}

pub(crate) fn armed() -> Vec<Row> {
    grid()
        .iter()
        .map(|(k, r, j)| point(k, *r, j, true))
        .collect()
}

/// One grid point in a fresh simulation: `job` on every client of `kind`,
/// built on `reactors` logical reactors, with CPU accounting, when given.
pub(crate) fn point(
    kind: &ScenarioKind,
    reactors: Option<usize>,
    job: &JobSpec,
    armed: bool,
) -> Row {
    let _armed = armed.then(simcore::sanitize::arm);
    let mut calib = Calibration::paper();
    let sc = match reactors {
        Some(n) => {
            calib.client.cpu_accounting = true;
            Scenario::build_sharded(kind.clone(), &calib, n)
        }
        None => Scenario::build(kind.clone(), &calib),
    };
    let reports = sc.run_all(job);
    let build = match reactors {
        Some(n) => format!("{}/r{n}", kind.label()),
        None => kind.label(),
    };
    let name = format!(
        "{build}/{}/{}k/qd{}",
        job.rw.label(),
        job.block_size >> 10,
        job.iodepth
    );
    let sides = reports.iter().flat_map(|r| r.read.iter().chain(&r.write));
    let row = Row::new(name)
        .hex("trace_hash", sc.rt.trace_hash())
        .int("steps", sc.rt.steps())
        .int("now_ns", sc.rt.now().as_nanos())
        .int("errors", reports.iter().map(|r| r.errors).sum())
        .int("violations", sc.rt.sanitize_take_violations().len() as u64)
        .int("ios", sides.map(|s| s.ios).sum());
    let first = &reports[0];
    let row = summary(row, READ, first.read.as_ref().map(|s| &s.lat));
    summary(row, WRITE, first.write.as_ref().map(|s| &s.lat))
}

const READ: [&str; 12] = [
    "r_n", "r_min", "r_p1", "r_p25", "r_p50", "r_p75", "r_p90", "r_p99", "r_p999", "r_max",
    "r_mean", "r_stddev",
];
const WRITE: [&str; 12] = [
    "w_n", "w_min", "w_p1", "w_p25", "w_p50", "w_p75", "w_p90", "w_p99", "w_p999", "w_max",
    "w_mean", "w_stddev",
];

/// Append all twelve fields of `lat` under `keys`; nothing for a side the
/// job does not issue.
fn summary(row: Row, keys: [&'static str; 12], lat: Option<&LatencySummary>) -> Row {
    let Some(l) = lat else { return row };
    let values = [
        l.count as u64,
        l.min,
        l.p1,
        l.p25,
        l.p50,
        l.p75,
        l.p90,
        l.p99,
        l.p999,
        l.max,
        l.mean,
        l.stddev,
    ];
    keys.into_iter()
        .zip(values)
        .fold(row, |row, (k, v)| row.int(k, v))
}

/// The cheapest points, for the tier-1 canary: the Fig. 10 read on the
/// paper's remote client, un-armed and armed.
#[cfg(test)]
pub(crate) fn cheapest() -> Vec<Row> {
    let job = &jobs()[0];
    let kind = ScenarioKind::OursRemote { switches: 1 };
    vec![
        point(&kind, None, job, false),
        point(&kind, None, job, true),
    ]
}
