//! One run of one workload: repetitions, metrics, checks, report.

use std::rc::Rc;
use std::time::Instant;

use crate::calib::{Calibrator, CALIB_REF_NS};
use crate::cli::Args;
use crate::harness::{regime_failures, run_rep, Rep, RepOptions, Slice};
use crate::metrics::{iqr_pct, median, Metrics, END_TO_END, PER_LAYER};
use crate::probes::{self, ProbeCtx, FIDELITY};
use crate::trace::Tracer;
use crate::workloads::Workload;

/// Fewest measured repetitions, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Most measured repetitions, however long `--seconds` is.
const MAX_REPS: usize = 16;

/// What a run produced.
pub struct RunResult {
    /// I/Os attempted, verification included.
    pub attempted: u64,
    /// Failed I/Os plus verification mismatches.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Violated expectations; empty when the run is correct.
    pub failures: Vec<String>,
}

impl RunResult {
    /// Outputs verified, regimes held, nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The result line: one JSON object, last on standard output.
    pub fn json_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Repetitions must be the same simulation — same I/Os, same schedule —
/// and the workload must still be in its regime.
fn check_failures(w: &Workload, args: &Args, reps: &[&Rep]) -> Vec<String> {
    let first = reps[0];
    let mut failures: Vec<String> = reps
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, r)| {
            r.sim != first.sim
                || r.steps != first.steps
                || r.trace_hash != first.trace_hash
                || r.counts != first.counts
        })
        .map(|(i, r)| {
            format!(
                "{}: repetition {} differs from repetition 1 (trace hash {:#x} vs {:#x}, {:?} vs {:?})",
                w.name,
                i + 1,
                r.trace_hash,
                first.trace_hash,
                r.sim,
                first.sim
            )
        })
        .collect();
    failures.extend(regime_failures(
        w,
        &first.sim,
        &first.counts,
        args.seed,
        args.quick,
    ));
    failures
}

/// `v` with six significant digits.
fn six_digits(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let decimals = (5 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{v:.decimals$}")
}

fn print_metrics(m: &Metrics, with_bounds: bool) {
    for (d, v) in m.complete() {
        let bound = if with_bounds {
            format!(", bound {} %", d.bound * 100.0)
        } else {
            String::new()
        };
        println!(
            "  {:<42} {:>14} {:<6} [{} is better{bound}]",
            d.name,
            six_digits(v),
            d.unit,
            d.better.as_str()
        );
    }
}

/// Run `w` as `args` say and print the report (result line excluded).
pub fn run_workload(w: &Workload, args: &Args) -> RunResult {
    println!(
        "dnvme-bench {}  seed={:#x}  {}  bound by: {}",
        w.name,
        args.seed,
        if args.trace {
            "traced run: per-layer metrics"
        } else {
            "untraced run: end-to-end metrics"
        },
        w.bound_by
    );
    let result = if args.trace {
        traced(w, args)
    } else {
        untraced(w, args)
    };
    for f in &result.failures {
        println!("  FAILED: {f}");
    }
    result
}

/// The repetitions of one run.
struct Reps {
    /// The first (verified) repetition, then the measured ones.
    all: Vec<Rep>,
    /// `VmHWM` after the first repetition: exactly one scenario has been
    /// built and driven. (Scenarios are never freed — see `README.md`,
    /// "Findings" — so a later reading would count them all.)
    rss_after_first_mib: f64,
}

impl Reps {
    /// The first repetition pages in the binary and sizes the allocator's
    /// arenas; then, unless `--quick`, at least `min_reps` measured ones
    /// follow until `budget_s` is used up.
    fn run(
        w: &Workload,
        args: &Args,
        cal: &mut Calibrator,
        budget_s: f64,
        min_reps: usize,
    ) -> Reps {
        let measured = RepOptions::measured(w, args.seed, args.quick);
        let mut all = vec![run_rep(w, &measured.first(), cal)];
        let rss_after_first_mib = peak_rss_mib();
        let started = Instant::now();
        let mut more = !args.quick;
        while more {
            all.push(run_rep(w, &measured, cal));
            let done = all.len() - 1;
            let elapsed = started.elapsed().as_secs_f64();
            let next_ends = elapsed + elapsed / done as f64;
            more = done < MAX_REPS && (done < min_reps || next_ends <= budget_s);
        }
        Reps {
            all,
            rss_after_first_mib,
        }
    }

    /// The repetitions host time is taken from (`--quick` has only the
    /// first).
    fn measured(&self) -> &[Rep] {
        if self.all.len() > 1 {
            &self.all[1..]
        } else {
            &self.all
        }
    }

    /// Normalised host ns per I/O of every measured slice.
    fn host_ns_per_io(&self) -> Vec<f64> {
        self.measured()
            .iter()
            .flat_map(|r| r.slices.iter().map(Slice::host_ns_per_io))
            .collect()
    }
}

fn untraced(w: &Workload, args: &Args) -> RunResult {
    let mut cal = Calibrator::new(args.quick);
    let reps = Reps::run(w, args, &mut cal, args.seconds, MIN_REPS);
    let first = &reps.all[0];
    let failures = check_failures(w, args, &reps.all.iter().collect::<Vec<_>>());

    let mut m = Metrics::new(END_TO_END);
    m.put("sim_lat_p50_ns", first.sim.p50_ns as f64);
    m.put("sim_lat_p99_ns", first.sim.p99_ns as f64);
    m.put("sim_kiops", first.sim.kiops);
    m.put(
        "sim_client_iops_min_over_max",
        first.sim.client_min_over_max,
    );
    let per_io = reps.host_ns_per_io();
    m.put("host_ns_per_io", median(&per_io));
    m.put("host_peak_rss_mib", reps.rss_after_first_mib);
    let setups: Vec<f64> = reps
        .measured()
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    m.put("setup_s", median(&setups));

    println!(
        "  1 + {} repetitions of {} simulated ms, {} latency samples each ({} beyond p99), {} I/Os each; \
         host spread between the {} slices {:.1} % (IQR/median)",
        reps.all.len() - 1,
        w.runtime(args.quick).as_nanos() as f64 / 1e6,
        first.sim.samples,
        first.sim.samples / 100,
        first.counts.ios,
        per_io.len(),
        iqr_pct(&per_io)
    );
    print_metrics(&m, true);
    RunResult {
        attempted: reps.all.iter().map(|r| r.attempted).sum(),
        failed: reps.all.iter().map(|r| r.failed).sum(),
        metrics: m,
        failures,
    }
}

fn traced(w: &Workload, args: &Args) -> RunResult {
    let mut cal = Calibrator::new(args.quick);
    let tracer = Rc::new(Tracer::new());
    // Untraced repetitions give this workload's own per-layer numbers;
    // one traced repetition then records a span per I/O, and the
    // difference in host time per I/O is what tracing costs.
    let reps = Reps::run(w, args, &mut cal, args.seconds / 2.0, 2);
    let spanned = tracer.scope("repetition (traced)", &|| 0, || {
        let opt = RepOptions::measured(w, args.seed, args.quick).traced(&tracer);
        run_rep(w, &opt, &mut cal)
    });
    let first = &reps.all[0];
    let plain = reps.measured();
    let all: Vec<&Rep> = reps.all.iter().chain([&spanned]).collect();
    let mut failures = check_failures(w, args, &all);

    let mut m = Metrics::new(PER_LAYER);
    let c = &first.counts;
    let ios = c.ios as f64;
    m.put("simcore.steps_per_io", first.steps as f64 / ios);
    let per_step: Vec<f64> = plain
        .iter()
        .map(|r| r.host_ns_per_io() * ios / r.steps as f64)
        .collect();
    m.put("simcore.host_ns_per_step", median(&per_step));
    m.put("nvme.sq_doorbells_per_io", c.sq_doorbells as f64 / ios);
    m.put("nvme.cq_doorbells_per_io", c.cq_doorbells as f64 / ios);
    m.put("nvme.max_batch", c.max_batch as f64);
    m.put("nvme.ctrl_fetched_per_io", c.ctrl_fetched as f64 / ios);
    m.put("nvme.ctrl_errors_returned", c.ctrl_errors as f64);
    m.put("nvme.engine_timeouts", c.engine_timeouts as f64);
    m.put("nvme.push_errors", c.push_errors as f64);
    m.put("dnvme.bounce_bytes_per_io", c.bounce_bytes as f64 / ios);
    m.put("dnvme.zero_copy_share", c.zero_copy_ios as f64 / ios);
    m.put("dnvme.recoveries", c.recoveries as f64);
    m.put("dnvme.doorbell_errors", c.doorbell_errors as f64);
    let per_io = reps.host_ns_per_io();
    let loops: Vec<f64> = all
        .iter()
        .flat_map(|r| r.slices.iter().map(|s| s.loop_wall_ns / 1e9))
        .collect();
    let raw: Vec<f64> = plain.iter().map(Rep::host_ns_per_io_raw).collect();
    m.put("bench.calib_loop_s", median(&loops));
    m.put("bench.host_ns_per_io_raw", median(&raw));
    m.put("bench.rep_iqr_pct", iqr_pct(&per_io));
    m.put("bench.samples", first.sim.samples as f64);
    m.put(
        "bench.trace_overhead_pct",
        (spanned.host_ns_per_io() / median(&per_io) - 1.0) * 100.0,
    );
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    m.put("bench.io_error_ratio", failed as f64 / attempted as f64);

    probes::run_all(&mut ProbeCtx {
        calibrator: &mut cal,
        tracer: &tracer,
        out: &mut m,
        quick: args.quick,
    });
    failures.extend(probes::fidelity_failures(&m));

    println!(
        "  {} untraced repetitions + 1 traced; calibration loop {:.1} ms here, {:.1} ms on the reference machine",
        plain.len(),
        median(&loops) * 1e3,
        CALIB_REF_NS / 1e6
    );
    print_metrics(&m, false);
    println!("  fidelity against the paper:");
    for &(name, paper, ..) in FIDELITY {
        let v = m.get(name).expect("fidelity probe ran");
        println!(
            "    {name:<42} {v:>8.0} ns   paper {paper:>6.0} ns   error {:+.1} %",
            (v / paper - 1.0) * 100.0
        );
    }
    match tracer.write(&args.out, w.name) {
        Ok(path) => println!("  {} spans written to {}", tracer.len(), path.display()),
        Err(e) => failures.push(format!(
            "writing bench_trace.json under {}: {e}",
            args.out.display()
        )),
    }
    RunResult {
        attempted,
        failed,
        metrics: m,
        failures,
    }
}
