//! The six workloads. All load is closed-loop, fio-style: each lane
//! submits its next I/O only when the previous one completed, as in the
//! paper's evaluation (§VI) — so a slower system receives less load.
//!
//! Every workload names the resource that bounds it; a regime check in
//! [`crate::harness`] fails the run if that stops being true.

use cluster::{Calibration, ScenarioKind};
use fioflex::{JobSpec, RwMode};
use simcore::SimDuration;

/// The default `--seed`: `JobSpec`'s own default, so the default run is
/// `Calibration::paper()` driven by the repository's usual I/O stream.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// `--quick` divides every simulated duration by this.
pub const QUICK_DIVISOR: u64 = 20;

/// Ramp excluded from statistics (queues fill, pollers settle).
pub const RAMP: SimDuration = SimDuration::from_micros(500);

/// The resource a workload is bound by. `harness::regime_failures` fails
/// the run when a workload has silently left its regime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regime {
    /// One I/O in flight: every stage is on the critical path and exactly
    /// one SQ doorbell is rung per command.
    Latency,
    /// The medium's channels: throughput must not move between 31 and 16
    /// clients, and cannot exceed the medium's own ceiling.
    MediaChannels,
    /// The reactor: throughput is at most 60 % of the same run with CPU
    /// accounting off.
    ReactorCpu,
    /// The link: at least 2 500 MiB/s.
    Bandwidth,
}

/// One workload: a testbed, a job, and why it is here.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// The resource that bounds this workload, checked...
    pub regime: Regime,
    /// ...and in words.
    pub bound_by: &'static str,
    /// Testbed.
    pub kind: ScenarioKind,
    /// I/O pattern.
    pub rw: RwMode,
    /// I/O size in bytes.
    pub block_size: u32,
    /// Closed-loop lanes per client.
    pub iodepth: usize,
    /// Zipf exponent (None = uniform over the region).
    pub zipf: Option<f64>,
    /// Simulated measurement window per repetition, milliseconds.
    pub sim_ms: u64,
    /// Restrict the job to the first N MiB and prefill them in set-up.
    pub prefilled_region_mib: Option<u64>,
    /// Charge driver overheads as reactor CPU time.
    pub cpu_accounting: bool,
}

impl Workload {
    /// Number of clients driving load.
    pub fn clients(&self) -> usize {
        match self.kind {
            ScenarioKind::OursMultihost { clients } => clients,
            _ => 1,
        }
    }

    /// The calibration: `Calibration::paper()` plus this workload's one
    /// override. A non-default `seed` also perturbs the medium's latency
    /// stream, so that runs at different seeds simulate different (equally
    /// likely) devices; at the default seed nothing is perturbed.
    pub fn calibration(&self, seed: u64) -> Calibration {
        let mut c = Calibration::paper();
        c.seed ^= seed ^ DEFAULT_SEED;
        c.client.cpu_accounting = self.cpu_accounting;
        c
    }

    /// Simulated measurement window.
    pub fn runtime(&self, quick: bool) -> SimDuration {
        let ms = SimDuration::from_millis(self.sim_ms);
        if quick {
            ms / QUICK_DIVISOR
        } else {
            ms
        }
    }

    /// The job, for a device with `dev_block_size`-byte blocks.
    pub fn job(&self, seed: u64, quick: bool, dev_block_size: u32) -> JobSpec {
        let mut spec = JobSpec::new(self.name, self.rw)
            .bs(self.block_size)
            .iodepth(self.iodepth)
            .runtime(self.runtime(quick))
            .ramp(RAMP)
            .seed(seed);
        spec.zipf = self.zipf;
        if let Some(mib) = self.prefilled_region_mib {
            spec = spec.region(0, (mib << 20) / dev_block_size as u64);
        }
        spec
    }
}

/// All six, in report order.
pub fn all() -> Vec<Workload> {
    let base = Workload {
        name: "",
        why: "",
        regime: Regime::Latency,
        bound_by: "",
        kind: ScenarioKind::OursRemote { switches: 1 },
        rw: RwMode::RandRead,
        block_size: 4096,
        iodepth: 1,
        zipf: None,
        sim_ms: 0,
        prefilled_region_mib: None,
        cpu_accounting: false,
    };
    vec![
        Workload {
            name: "fig10_read",
            why: "paper's headline point: 4 KiB randread QD1 over the NTB; nothing queues, every software stage and fabric hop is on the critical path",
            bound_by: "latency (device and reactor mostly idle)",
            sim_ms: 2_000,
            ..base.clone()
        },
        Workload {
            name: "fig10_write",
            why: "same layers the other way: bounce stage-in, controller fetches data with non-posted reads across the NTB (~2x remote penalty), store write path",
            bound_by: "latency (device and reactor mostly idle)",
            rw: RwMode::RandWrite,
            sim_ms: 2_000,
            prefilled_region_mib: Some(64),
            ..base.clone()
        },
        Workload {
            name: "mh31_shared",
            why: "31 hosts share the controller at QD4 each: bound by the 7 media channels, so latency work must not move kIOPS; largest event population; fairness and 31 connects",
            regime: Regime::MediaChannels,
            bound_by: "media channels (7 x ~97 kIOPS)",
            kind: ScenarioKind::OursMultihost { clients: 31 },
            iodepth: 4,
            sim_ms: 120,
            ..base.clone()
        },
        Workload {
            name: "oltp_qd32_cpu",
            why: "randrw 70/30 zipf 1.1 at QD32 with CPU accounting: bound by reactor CPU, the only workload where per-I/O driver CPU, batching and doorbell coalescing show in kIOPS",
            regime: Regime::ReactorCpu,
            bound_by: "reactor CPU (3 us of driver work per I/O)",
            rw: RwMode::RandRw { read_pct: 70 },
            iodepth: 32,
            zipf: Some(1.1),
            sim_ms: 250,
            cpu_accounting: true,
            ..base.clone()
        },
        Workload {
            name: "seq128k_read",
            why: "128 KiB sequential read QD16: bound by link/stream bandwidth; PRP lists, TLP segmentation and a 128 KiB bounce copy per I/O dominate, small-I/O fast paths must not tax it",
            regime: Regime::Bandwidth,
            bound_by: "link / media stream bandwidth",
            rw: RwMode::SeqRead,
            block_size: 128 << 10,
            // Twice the depth that first saturates the link: at QD8 the
            // workload sits on the knee and its p50 swings by 5 % with the
            // seed; at QD16 it is 0.2 %.
            iodepth: 16,
            sim_ms: 400,
            ..base.clone()
        },
        Workload {
            name: "nvmf_qd1_read",
            why: "paper's comparison baseline, NVMe-oF over RDMA at QD1: bypasses dnvme/smartio/NTB, so changes there must leave it flat while shared nvme engine changes show",
            bound_by: "latency (RDMA round trips + target software)",
            kind: ScenarioKind::NvmfRemote,
            sim_ms: 1_200,
            ..base
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
