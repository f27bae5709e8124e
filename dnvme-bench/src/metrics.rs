//! The metric registry: every name this benchmark can print, with its
//! unit and direction. `BENCHMARK.json` lists the same names; the smoke
//! test keeps the two in step.

use std::fmt::Write as _;

/// Which way is good.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One registered metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

/// What a user of the system sees; printed by every untraced run.
///
/// `sim_*` are on the simulated clock (the reproduction's result) and
/// repeat bit-for-bit for a given seed; their bounds cover the spread
/// *between seeds*. `host_*` and `setup_s` are on the wall clock (the
/// cost of running the simulator), normalised by the calibration loop.
/// Units say which clock: `sim_ns`/`sim_us` are simulated, plain `ns`,
/// `ms` and `s` are measured.
pub const END_TO_END: &[MetricDef] = &[
    e2e("sim_lat_p50_ns", "sim_ns", Better::Lower, 0.005),
    e2e("sim_lat_p99_ns", "sim_ns", Better::Lower, 0.02),
    e2e("sim_kiops", "kIOPS", Better::Higher, 0.005),
    e2e(
        "sim_client_iops_min_over_max",
        "ratio",
        Better::Higher,
        0.02,
    ),
    e2e("host_ns_per_io", "ns", Better::Lower, 0.20),
    e2e("host_peak_rss_mib", "MiB", Better::Lower, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Single-layer metrics; printed by every traced run. Layers are the
/// crates. `_sim_` = simulated time, `_host_` = normalised host time.
pub const PER_LAYER: &[MetricDef] = &[
    // simcore: the executor every layer runs on.
    lo("simcore.steps_per_io", "count"),
    lo("simcore.host_ns_per_step", "ns"),
    lo("simcore.timer_wake_host_ns", "ns"),
    lo("simcore.spawn_join_host_ns", "ns"),
    // pcie: one fabric operation each, on the paper's 3-chip path.
    lo("pcie.posted_write_64b_remote_sim_ns", "sim_ns"),
    lo("pcie.posted_write_4b_remote_sim_ns", "sim_ns"),
    lo("pcie.nonposted_read_4b_remote_sim_ns", "sim_ns"),
    lo("pcie.dma_read_64b_local_sim_ns", "sim_ns"),
    lo("pcie.dma_write_4k_to_client_sim_ns", "sim_ns"),
    lo("pcie.dma_write_16b_to_client_sim_ns", "sim_ns"),
    lo("pcie.dma_read_4k_from_client_sim_ns", "sim_ns"),
    lo("pcie.hop_slope_sim_ns_per_chip", "sim_ns"),
    lo("pcie.cpu_write_host_ns", "ns"),
    lo("pcie.dma_write_4k_host_ns", "ns"),
    lo("pcie.resolve_host_ns", "ns"),
    // smartio: mapping service, used during set-up only.
    lo("smartio.alloc_hinted_host_ns", "ns"),
    lo("smartio.map_for_device_host_ns", "ns"),
    // nvme: medium, controller and queue-pair engine.
    lo("nvme.medium_read_4k_sim_p50_ns", "sim_ns"),
    lo("nvme.medium_write_4k_sim_p50_ns", "sim_ns"),
    hi("nvme.medium_channel_bound_kiops", "kIOPS"),
    lo("nvme.store_write_warm_host_ns", "ns"),
    lo("nvme.store_write_first_touch_host_ns", "ns"),
    lo("nvme.sq_doorbells_per_io", "ratio"),
    lo("nvme.cq_doorbells_per_io", "ratio"),
    hi("nvme.max_batch", "count"),
    lo("nvme.ctrl_fetched_per_io", "ratio"),
    lo("nvme.ctrl_errors_returned", "count"),
    lo("nvme.engine_timeouts", "count"),
    lo("nvme.push_errors", "count"),
    lo("nvme.local_driver_read_sim_p50_ns", "sim_ns"),
    // blklayer / fioflex: the load generator's own floor.
    lo("blklayer.bio_submit_host_ns", "ns"),
    lo("fioflex.ramdisk_host_ns_per_io", "ns"),
    lo("fioflex.ramdisk_steps_per_io", "count"),
    // dnvme: the paper's driver.
    lo("dnvme.driver_overhead_read_sim_ns", "sim_ns"),
    lo("dnvme.bounce_bytes_per_io", "B"),
    hi("dnvme.zero_copy_share", "ratio"),
    hi("dnvme.zero_copy_gain_read_sim_ns", "sim_ns"),
    lo("dnvme.reactor_cpu_per_io_sim_ns", "sim_ns"),
    lo("dnvme.manager_start_sim_us", "sim_us"),
    lo("dnvme.connect_sim_us", "sim_us"),
    lo("dnvme.connect_host_ms", "ms"),
    lo("dnvme.recoveries", "count"),
    lo("dnvme.doorbell_errors", "count"),
    // rdma / nvmeof: the comparison baseline's transport.
    lo("rdma.send_64b_sim_ns", "sim_ns"),
    lo("rdma.write_4k_sim_ns", "sim_ns"),
    lo("rdma.read_4k_sim_ns", "sim_ns"),
    lo("rdma.post_send_host_ns", "ns"),
    lo("nvmeof.capsules_per_io", "ratio"),
    lo("nvmeof.rdma_writes_per_io", "ratio"),
    lo("nvmeof.rdma_reads_per_io", "ratio"),
    lo("nvmeof.target_errors", "count"),
    // cluster: fidelity against the paper's Fig. 10 / Fig. 8 / §VI.
    lo("nvmeof.remote_penalty_read_sim_ns", "sim_ns"),
    lo("nvmeof.remote_penalty_write_sim_ns", "sim_ns"),
    lo("cluster.ours_remote_penalty_read_sim_ns", "sim_ns"),
    lo("cluster.ours_remote_penalty_write_sim_ns", "sim_ns"),
    hi("cluster.fig8_sq_placement_gain_sim_ns", "sim_ns"),
    lo("cluster.multihost_knee_clients", "count"),
    lo("cluster.scenario_build_host_ms", "ms"),
    // sharedfs / explore: consumers that compound the numbers above.
    lo("sharedfs.create_write_24x64k_sim_us", "sim_us"),
    hi("explore.schedules_per_s", "1/s"),
    hi("explore.pruned_share", "ratio"),
    // bench: the harness itself.
    lo("bench.calib_loop_s", "s"),
    lo("bench.host_ns_per_io_raw", "ns"),
    lo("bench.rep_iqr_pct", "%"),
    hi("bench.samples", "count"),
    lo("bench.trace_overhead_pct", "%"),
    lo("bench.io_error_ratio", "ratio"),
];

/// Values emitted by one run, checked against a registry slice.
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// An empty set over `defs`.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Metrics {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Record `name`. Panics on an unregistered name, a second value for
    /// the same name, or a non-finite value: all three are harness bugs.
    pub fn put(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not registered"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.values[i].is_none(), "metric {name} emitted twice");
        self.values[i] = Some(value);
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.defs.iter().position(|d| d.name == name)?;
        self.values[i]
    }

    /// `(definition, value)` in registry order. Panics if a registered
    /// metric was never emitted.
    pub fn complete(&self) -> Vec<(&'static MetricDef, f64)> {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|(d, v)| {
                (
                    d,
                    v.unwrap_or_else(|| panic!("metric {} not emitted", d.name)),
                )
            })
            .collect()
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (d, v)) in self.complete().into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{}` on f64 prints the shortest string that round-trips:
            // every digit measured, and always valid JSON for finite values.
            write!(
                out,
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
            .unwrap();
        }
        out.push('}');
        out
    }
}

/// Median of a non-empty slice (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Inter-quartile range as a percentage of the median (0 for < 4 values).
pub fn iqr_pct(values: &[f64]) -> f64 {
    if values.len() < 4 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| {
        let pos = p * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (q(0.75) - q(0.25)) / median(&v) * 100.0
}
