//! Runs one workload: repetitions, the tap that measures every I/O,
//! verification, and the regime checks.
//!
//! One repetition = a fresh [`Scenario`] (set-up, timed) plus a fixed
//! *simulated* duration of load (the timed section). The simulation is
//! deterministic, so every repetition performs the same I/Os and must
//! report the same `sim_*` values and the same trace hash; only host time
//! varies, and it is reported as a median over slices of the timed
//! sections.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use blklayer::{Bio, BioFuture, BioOp, BlockDevice};
use cluster::{Scenario, ScenarioKind};
use fioflex::{run_job, verify_region, JobReport};
use simcore::{Handle, LatencyRecorder, ReactorId, SimTime};

use crate::calib::{normalise, Calibrator};
use crate::metrics::median;
use crate::trace::{scoped, Tracer};
use crate::workloads::{Regime, Workload, RAMP};

/// Scenario builds timed per measured repetition; the last one is used.
/// Set-up is short, so one sample is noisy.
const SETUP_SAMPLES: usize = 5;
/// The timed section is driven in this many slices of simulated time,
/// each preceded by its own calibration loop: the machine's speed shifts
/// by tens of percent within a second, and the ratio tracks it.
const SLICES: u64 = 8;
/// Bytes each client stamps and reads back after the timed section.
const VERIFY_BYTES: u64 = 256 << 10;

/// What every I/O of a repetition is measured into.
struct TapShared {
    handle: Handle,
    /// `(measure_start, end)`: only I/Os inside count, as in `fioflex`.
    window: Cell<(SimTime, SimTime)>,
    latencies: RefCell<LatencyRecorder>,
    per_client: RefCell<Vec<u64>>,
    submitted: Cell<u64>,
    errors: Cell<u64>,
    /// Traced repetitions only.
    trace: Option<TapTrace>,
}

struct TapTrace {
    tracer: Rc<Tracer>,
    parent: Cell<u32>,
    /// In-flight slots per client, so concurrent I/Os get their own lane.
    slots: RefCell<Vec<Vec<bool>>>,
}

/// A `BlockDevice` that forwards to the device under test and records
/// each request's completion latency (and, when tracing, a span).
struct Tap {
    inner: Rc<dyn BlockDevice>,
    client: usize,
    shared: Rc<TapShared>,
}

impl BlockDevice for Tap {
    fn block_size(&self) -> u32 {
        self.inner.block_size()
    }
    fn capacity_blocks(&self) -> u64 {
        self.inner.capacity_blocks()
    }
    fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }
    fn submit(&self, bio: Bio) -> BioFuture<'_> {
        Box::pin(async move {
            let sh = &self.shared;
            let traced = sh.trace.as_ref().map(|t| {
                let mut slots = t.slots.borrow_mut();
                let lanes = &mut slots[self.client];
                let slot = lanes.iter().position(|busy| !busy).unwrap_or_else(|| {
                    lanes.push(false);
                    lanes.len() - 1
                });
                lanes[slot] = true;
                (t, slot, t.tracer.next_request(), t.tracer.host_ns())
            });
            let t0 = sh.handle.now();
            let result = self.inner.submit(bio).await;
            let t1 = sh.handle.now();
            sh.submitted.set(sh.submitted.get() + 1);
            if result.is_err() {
                sh.errors.set(sh.errors.get() + 1);
            } else {
                let (start, end) = sh.window.get();
                if t0 >= start && t1 <= end {
                    sh.latencies.borrow_mut().record(t1 - t0);
                    sh.per_client.borrow_mut()[self.client] += 1;
                }
            }
            if let Some((t, slot, req, host0)) = traced {
                t.slots.borrow_mut()[self.client][slot] = false;
                let name = match bio.op {
                    BioOp::Read => "submit read",
                    BioOp::Write => "submit write",
                    BioOp::Flush => "submit flush",
                };
                t.tracer.io_span(
                    t.parent.get(),
                    name,
                    req,
                    self.client as u32,
                    slot as u32,
                    (host0, t.tracer.host_ns()),
                    (t0.as_nanos(), t1.as_nanos()),
                );
            }
            result
        })
    }
}

/// Simulated-clock results of one repetition. Identical across
/// repetitions of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct SimResult {
    /// Median completion latency over all measured I/Os, ns.
    pub p50_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// Measured I/Os (the sample count behind the percentiles).
    pub samples: u64,
    /// Completed I/Os per simulated second / 1000, all clients.
    pub kiops: f64,
    /// Slowest client's IOPS / fastest client's.
    pub client_min_over_max: f64,
    /// Payload bandwidth, MiB per simulated second.
    pub mib_s: f64,
}

/// Public `*Stats` counters read after the timed section.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerCounts {
    /// I/Os that went through the tap (ramp included).
    pub ios: u64,
    /// SQ tail doorbell MMIO writes.
    pub sq_doorbells: u64,
    /// CQ head doorbell MMIO writes.
    pub cq_doorbells: u64,
    /// SQEs pushed by the host-side engine(s).
    pub sqes_submitted: u64,
    /// Largest number of SQEs covered by one doorbell.
    pub max_batch: u64,
    /// Engine-level command timeouts.
    pub engine_timeouts: u64,
    /// SQ push failures.
    pub push_errors: u64,
    /// Doorbell writes the fabric refused.
    pub doorbell_errors: u64,
    /// SQEs the controller fetched (admin included).
    pub ctrl_fetched: u64,
    /// Completions the controller posted with an error status.
    pub ctrl_errors: u64,
    /// Bytes copied through bounce partitions (dnvme clients).
    pub bounce_bytes: u64,
    /// I/Os that skipped the bounce copy (dnvme clients).
    pub zero_copy_ios: u64,
    /// Recovery-ladder activations (dnvme clients).
    pub recoveries: u64,
}

/// One slice of a timed section.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    /// Wall time of the slice, ns.
    pub wall_ns: f64,
    /// Wall time of the calibration loop run just before it, ns.
    pub loop_wall_ns: f64,
    /// I/Os completed during the slice.
    pub ios: u64,
}

impl Slice {
    /// Normalised host nanoseconds per I/O.
    pub fn host_ns_per_io(&self) -> f64 {
        normalise(self.wall_ns, self.loop_wall_ns) / self.ios as f64
    }
}

/// One repetition.
pub struct Rep {
    /// Normalised set-up time of each timed `Scenario::build`, seconds.
    pub setup_s: Vec<f64>,
    /// The timed section, slice by slice.
    pub slices: Vec<Slice>,
    /// Simulated results.
    pub sim: SimResult,
    /// Executor task polls during the timed section.
    pub steps: u64,
    /// Executor trace hash at the end of the timed section.
    pub trace_hash: u64,
    /// Counters.
    pub counts: LayerCounts,
    /// Failed I/Os + verify mismatches.
    pub failed: u64,
    /// I/Os attempted, verification included.
    pub attempted: u64,
}

impl Rep {
    /// Normalised host nanoseconds per I/O: median over the slices.
    pub fn host_ns_per_io(&self) -> f64 {
        median(
            &self
                .slices
                .iter()
                .map(Slice::host_ns_per_io)
                .collect::<Vec<_>>(),
        )
    }
    /// Raw (un-normalised) host nanoseconds per I/O of the timed section.
    pub fn host_ns_per_io_raw(&self) -> f64 {
        self.slices.iter().map(|s| s.wall_ns).sum::<f64>() / self.counts.ios as f64
    }
}

/// How a repetition is run.
#[derive(Clone, Copy)]
pub struct RepOptions<'a> {
    /// `--seed`.
    pub seed: u64,
    /// `--quick`.
    pub quick: bool,
    /// Record spans.
    pub tracer: Option<&'a Rc<Tracer>>,
    /// Stamp and read back a region per client after the timed section.
    pub verify: bool,
    /// Build (and time) the scenario this many times; at least 1.
    pub setup_samples: usize,
}

impl<'a> RepOptions<'a> {
    /// A measured repetition of `w`: untraced, unverified, set-up timed
    /// several times — once if `--quick`, or if there is a prefill, which
    /// is neither short nor cheap to keep (see `README.md`, "Findings").
    pub fn measured(w: &Workload, seed: u64, quick: bool) -> Self {
        RepOptions {
            seed,
            quick,
            tracer: None,
            verify: false,
            setup_samples: if quick || w.prefilled_region_mib.is_some() {
                1
            } else {
                SETUP_SAMPLES
            },
        }
    }

    /// The first repetition of a run: verified; nothing of its host time
    /// is kept, so one set-up is enough.
    pub fn first(&self) -> Self {
        RepOptions {
            verify: true,
            setup_samples: 1,
            ..*self
        }
    }

    /// The same repetition, with a span per set-up call and per I/O.
    pub fn traced(self, tracer: &'a Rc<Tracer>) -> Self {
        RepOptions {
            tracer: Some(tracer),
            ..self
        }
    }
}

/// Build the scenario, prefill, and put a tap in front of every client.
fn set_up(w: &Workload, opt: &RepOptions<'_>) -> (Scenario, Rc<TapShared>) {
    let tracer = opt.tracer.map(|t| t.as_ref());
    let calib = w.calibration(opt.seed);
    let mut sc = scoped(tracer, "Scenario::build", &|| 0, || {
        Scenario::build(w.kind.clone(), &calib)
    });
    if let Some(mib) = w.prefilled_region_mib {
        let now = || sc.rt.now().as_nanos();
        scoped(tracer, "prefill", &now, || {
            // Straight into the medium: the point is that the timed
            // section overwrites resident blocks instead of growing the
            // sparse store, not to exercise the write path twice.
            let store = sc.ctrl.store();
            let chunk = vec![0xA5u8; 1 << 20];
            let blocks_per_chunk = chunk.len() as u64 / store.block_size() as u64;
            for i in 0..mib {
                store.write_raw(i * blocks_per_chunk, &chunk);
            }
        });
    }
    let shared = Rc::new(TapShared {
        handle: sc.rt.handle(),
        window: Cell::new((SimTime::ZERO, SimTime::ZERO)),
        latencies: RefCell::new(LatencyRecorder::new()),
        per_client: RefCell::new(vec![0; sc.clients.len()]),
        submitted: Cell::new(0),
        errors: Cell::new(0),
        trace: opt.tracer.map(|t| TapTrace {
            tracer: t.clone(),
            parent: Cell::new(0),
            slots: RefCell::new(vec![Vec::new(); sc.clients.len()]),
        }),
    });
    for (client, (_, dev)) in sc.clients.iter_mut().enumerate() {
        *dev = Rc::new(Tap {
            inner: dev.clone(),
            client,
            shared: shared.clone(),
        });
    }
    (sc, shared)
}

fn layer_counts(sc: &Scenario, ios: u64) -> LayerCounts {
    let db = sc.doorbell_totals();
    let ctrl = sc.ctrl.stats();
    let mut c = LayerCounts {
        ios,
        sq_doorbells: db.sq_doorbells,
        cq_doorbells: db.cq_doorbells,
        sqes_submitted: db.sqes_submitted,
        max_batch: db.max_batch,
        engine_timeouts: db.timeouts,
        push_errors: db.push_errors,
        doorbell_errors: db.doorbell_errors,
        ctrl_fetched: ctrl.commands_fetched,
        ctrl_errors: ctrl.errors_returned,
        ..LayerCounts::default()
    };
    for d in sc.client_drivers() {
        let s = d.stats();
        c.bounce_bytes += s.bounce_bytes_copied;
        c.zero_copy_ios += s.zero_copy_ios;
        c.recoveries += s.recoveries;
    }
    c
}

/// Run one repetition of `w`.
pub fn run_rep(w: &Workload, opt: &RepOptions<'_>, calibrator: &mut Calibrator) -> Rep {
    let tracer = opt.tracer.map(|t| t.as_ref());
    let loop_ns = calibrator.run();
    let mut setup_s = Vec::with_capacity(opt.setup_samples);
    let mut built = None;
    for _ in 0..opt.setup_samples {
        drop(built.take());
        let t = Instant::now();
        let b = scoped(tracer, "setup", &|| 0, || set_up(w, opt));
        setup_s.push(normalise(t.elapsed().as_nanos() as f64, loop_ns) / 1e9);
        built = Some(b);
    }
    let (sc, tap) = built.expect("setup_samples >= 1");

    // Timed section: one closed-loop job per client, as `Scenario::run`
    // and `run_all` start them, driven slice by slice.
    let spec = w.job(opt.seed, opt.quick, sc.clients[0].1.block_size());
    let start = sc.rt.now() + RAMP;
    let end = start + spec.runtime;
    tap.window.set((start, end));
    let db_before = sc.doorbell_totals();
    let fetched_before = sc.ctrl.stats().commands_fetched;
    let steps_before = sc.rt.steps();
    let h = sc.rt.handle();
    let slice_len = (RAMP + spec.runtime) / SLICES + spec.runtime / (16 * SLICES);
    let now = || sc.rt.now().as_nanos();
    let mut slices = Vec::with_capacity(SLICES as usize);
    let reports: Vec<JobReport> = scoped(tracer, "timed section", &now, || {
        if let (Some(tt), Some(tr)) = (&tap.trace, tracer) {
            tt.parent.set(tr.current());
        }
        let multi = sc.clients.len() > 1;
        let joins: Vec<_> = sc
            .clients
            .iter()
            .enumerate()
            .map(|(i, (host, dev))| {
                let (fabric, host, dev) = (sc.fabric.clone(), *host, dev.clone());
                let mut s = spec.clone();
                if multi {
                    s.seed = s.seed.wrapping_add(i as u64 * 0x9E37);
                    s.name = format!("{}-client{i}", s.name);
                }
                h.spawn_on(ReactorId::new(i % h.reactor_count()), async move {
                    run_job(&fabric, host, dev, &s).await
                })
            })
            .collect();
        while !joins.iter().all(|j| j.is_finished()) {
            let loop_wall_ns = calibrator.run();
            let ios_before = tap.submitted.get();
            let t = Instant::now();
            let h2 = h.clone();
            sc.rt.block_on(async move { h2.sleep(slice_len).await });
            slices.push(Slice {
                wall_ns: t.elapsed().as_nanos() as f64,
                loop_wall_ns,
                ios: tap.submitted.get() - ios_before,
            });
        }
        joins
            .iter()
            .map(|j| j.try_take().expect("job finished"))
            .collect()
    });
    let steps = sc.rt.steps() - steps_before;
    let trace_hash = sc.rt.trace_hash();

    // Simulated results, from the tap (all clients, both directions).
    let lat = tap
        .latencies
        .borrow()
        .summary()
        .unwrap_or_else(|| panic!("{}: no I/O completed inside the window", w.name));
    let secs = spec.runtime.as_secs_f64();
    let per_client = tap.per_client.borrow().clone();
    let (min, max) = (
        *per_client.iter().min().expect("at least one client"),
        *per_client.iter().max().expect("at least one client"),
    );
    let sim = SimResult {
        p50_ns: lat.p50,
        p99_ns: lat.p99,
        samples: lat.count as u64,
        kiops: lat.count as f64 / secs / 1e3,
        client_min_over_max: min as f64 / max as f64,
        mib_s: lat.count as f64 * w.block_size as f64 / secs / (1 << 20) as f64,
    };
    // The load generator keeps its own books; they must agree with the tap.
    let reported: u64 = reports
        .iter()
        .map(|r| r.read.map_or(0, |s| s.ios) + r.write.map_or(0, |s| s.ios))
        .sum();
    assert_eq!(
        reported, sim.samples,
        "{}: fioflex and the tap disagree",
        w.name
    );
    let job_errors: u64 = reports.iter().map(|r| r.errors).sum();
    assert_eq!(
        job_errors,
        tap.errors.get(),
        "{}: error counts disagree",
        w.name
    );

    let ios = tap.submitted.get();
    let mut counts = layer_counts(&sc, ios);
    // Set-up traffic (admin commands, queue creation) is not per-I/O work.
    counts.sq_doorbells -= db_before.sq_doorbells;
    counts.cq_doorbells -= db_before.cq_doorbells;
    counts.sqes_submitted -= db_before.sqes_submitted;
    counts.ctrl_fetched -= fetched_before;

    // Verification, outside the timed section: each client stamps and
    // reads back its own region at the end of the namespace.
    let mut failed = tap.errors.get();
    let mut attempted = ios;
    if opt.verify {
        let now = || sc.rt.now().as_nanos();
        let outcome = scoped(tracer, "verify", &now, || {
            let fabric = sc.fabric.clone();
            let clients = sc.clients.clone();
            let seed = opt.seed;
            sc.rt.block_on(async move {
                let mut out = Vec::new();
                for (i, (host, dev)) in clients.into_iter().enumerate() {
                    let bs = dev.block_size() as u64;
                    let blocks = VERIFY_BYTES / bs;
                    let first = dev.capacity_blocks() - (i as u64 + 1) * blocks;
                    let io_blocks = (4096 / bs) as u32;
                    out.push(
                        verify_region(
                            &fabric,
                            host,
                            dev,
                            first,
                            blocks,
                            io_blocks,
                            seed ^ i as u64,
                        )
                        .await,
                    );
                }
                out
            })
        });
        for v in outcome {
            let expect = VERIFY_BYTES / 4096;
            attempted += 2 * expect;
            debug_assert_eq!(
                v.ios_written + v.ios_verified + v.mismatches + v.errors,
                2 * expect
            );
            failed += v.mismatches + v.errors;
        }
    }

    Rep {
        setup_s,
        slices,
        sim,
        steps,
        trace_hash,
        counts,
        failed,
        attempted,
    }
}

/// Simulated results of `w` in one throw-away repetition (regime checks).
fn sim_only(w: &Workload, seed: u64, quick: bool) -> SimResult {
    let opt = RepOptions {
        setup_samples: 1,
        ..RepOptions::measured(w, seed, quick)
    };
    run_rep(w, &opt, &mut Calibrator::new(quick)).sim
}

/// 64 concurrent `BlockStore::read`s: the medium's channel-bound 4 KiB
/// rate — the ceiling of `sim_kiops` on any workload.
pub fn medium_channel_bound_kiops() -> f64 {
    use simcore::{SimDuration, SimRuntime};
    let calib = cluster::Calibration::paper();
    let rt = SimRuntime::new();
    let h = rt.handle();
    let store = Rc::new(nvme::BlockStore::new(
        h.clone(),
        calib.media,
        calib.block_size,
        calib.capacity_blocks,
        calib.seed,
    ));
    let window = SimDuration::from_millis(5);
    let done = Rc::new(Cell::new(0u64));
    rt.block_on({
        let done = done.clone();
        async move {
            let end = h.now() + window;
            let joins: Vec<_> = (0..64u64)
                .map(|lane| {
                    let (store, h, done) = (store.clone(), h.clone(), done.clone());
                    h.clone().spawn(async move {
                        let mut buf = vec![0u8; 4096];
                        loop {
                            store.read(lane * 8, &mut buf).await;
                            if h.now() > end {
                                break;
                            }
                            done.set(done.get() + 1);
                        }
                    })
                })
                .collect();
            for j in joins {
                j.await;
            }
        }
    });
    done.get() as f64 / window.as_secs_f64() / 1e3
}

/// Check that `w` is still bound by the resource it names; returns one
/// line per violated expectation.
pub fn regime_failures(
    w: &Workload,
    base: &SimResult,
    counts: &LayerCounts,
    seed: u64,
    quick: bool,
) -> Vec<String> {
    let mut fails = Vec::new();
    match w.regime {
        Regime::Latency => {
            if counts.sq_doorbells != counts.sqes_submitted {
                fails.push(format!(
                    "{}: QD1 must ring one SQ doorbell per command, saw {} for {}",
                    w.name, counts.sq_doorbells, counts.sqes_submitted
                ));
            }
        }
        Regime::MediaChannels => {
            let fewer = Workload {
                kind: ScenarioKind::OursMultihost { clients: 16 },
                ..w.clone()
            };
            let k16 = sim_only(&fewer, seed, quick).kiops;
            if (base.kiops - k16).abs() / base.kiops >= 0.02 {
                fails.push(format!(
                    "{}: no longer device-bound: {:.1} kIOPS with 31 clients vs {k16:.1} with 16",
                    w.name, base.kiops
                ));
            }
            let ceiling = medium_channel_bound_kiops();
            if base.kiops > ceiling {
                fails.push(format!(
                    "{}: {:.1} kIOPS exceeds the medium's channel bound {ceiling:.1}",
                    w.name, base.kiops
                ));
            }
        }
        Regime::ReactorCpu => {
            let free_cpu = Workload {
                cpu_accounting: false,
                ..w.clone()
            };
            let k = sim_only(&free_cpu, seed, quick).kiops;
            if base.kiops > 0.6 * k {
                fails.push(format!(
                    "{}: no longer CPU-bound: {:.1} kIOPS vs {k:.1} with CPU accounting off",
                    w.name, base.kiops
                ));
            }
        }
        Regime::Bandwidth => {
            if base.mib_s < 2_500.0 {
                fails.push(format!(
                    "{}: {:.0} MiB/s is below the 2500 MiB/s bandwidth regime",
                    w.name, base.mib_s
                ));
            }
        }
    }
    fails
}
