//! Per-layer probes: each times calls into one layer's public functions,
//! reads its public `*Stats`, or differences two configurations. They run
//! in the traced run only, as child spans of a `probe` root.
//!
//! `_sim_` values are simulated nanoseconds and repeat exactly; `_host_`
//! values are wall nanoseconds normalised by the calibration loop
//! (median of three).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use blklayer::{Bio, BlockDevice, RamDisk};
use cluster::{Calibration, Scenario, ScenarioKind};
use dnvme::{ClientConfig, ClientDriver, Manager, SqPlacement};
use fioflex::{run_job, JobSpec, RwMode};
use nvme::driver::attach_local_driver;
use nvme::{BlockStore, MediaProfile, NvmeController};
use nvmeof::{NvmfInitiator, NvmfTarget};
use pcie::{DeviceId, Fabric, HostId, MmioDevice};
use rdma::{Access, IbNet, SendWr};
use sharedfs::SharedFs;
use simcore::{Handle, LatencyRecorder, SimDuration, SimRuntime};
use smartio::{AccessHints, SmartDeviceId, SmartIo};

use crate::calib::{normalise, Calibrator};
use crate::harness::medium_channel_bound_kiops;
use crate::metrics::{median, Metrics};
use crate::trace::Tracer;

/// Paper values the fidelity probes are printed beside, and the bands the
/// run fails outside of.
pub const FIDELITY: &[(&str, f64, f64, f64)] = &[
    // (metric, paper ns, lowest accepted, highest accepted)
    (
        "nvmeof.remote_penalty_read_sim_ns",
        7_700.0,
        7_700.0 * 0.95,
        7_700.0 * 1.05,
    ),
    (
        "nvmeof.remote_penalty_write_sim_ns",
        7_500.0,
        7_500.0 * 0.95,
        7_500.0 * 1.05,
    ),
    (
        "cluster.ours_remote_penalty_read_sim_ns",
        1_000.0,
        800.0,
        1_200.0,
    ),
    (
        "cluster.ours_remote_penalty_write_sim_ns",
        2_000.0,
        1_600.0,
        2_400.0,
    ),
];

/// What the probes need.
pub struct ProbeCtx<'a> {
    /// Host-time normaliser.
    pub calibrator: &'a mut Calibrator,
    /// Span recorder.
    pub tracer: &'a Tracer,
    /// Where values go.
    pub out: &'a mut Metrics,
    /// `--quick`: 1/20 of the iterations, one sample per host probe.
    pub quick: bool,
}

impl ProbeCtx<'_> {
    fn scale(&self, n: u64) -> u64 {
        if self.quick {
            (n / crate::workloads::QUICK_DIVISOR).max(8)
        } else {
            n
        }
    }

    /// Normalised host nanoseconds per iteration of `f`, which performs
    /// `iters` iterations per call.
    fn host_ns(&mut self, iters: u64, mut f: impl FnMut()) -> f64 {
        let samples: Vec<f64> = (0..if self.quick { 1 } else { 3 })
            .map(|_| {
                let loop_ns = self.calibrator.run();
                let t = Instant::now();
                f();
                normalise(t.elapsed().as_nanos() as f64, loop_ns) / iters as f64
            })
            .collect();
        median(&samples)
    }

    fn group(&mut self, name: &'static str, f: impl FnOnce(&mut Self)) {
        let tracer = self.tracer;
        tracer.scope(name, &|| 0, || f(self));
    }
}

/// Run every probe.
pub fn run_all(ctx: &mut ProbeCtx<'_>) {
    let tracer = ctx.tracer;
    tracer.scope("probe", &|| 0, || {
        ctx.group("probe simcore", simcore_probes);
        ctx.group("probe pcie", pcie_probes);
        ctx.group("probe smartio", smartio_probes);
        ctx.group("probe nvme", nvme_probes);
        ctx.group("probe blklayer+fioflex", blk_probes);
        ctx.group("probe dnvme", dnvme_probes);
        ctx.group("probe rdma+nvmeof", rdma_probes);
        ctx.group("probe cluster", cluster_probes);
        ctx.group("probe sharedfs+explore", consumer_probes);
    });
}

/// One line per fidelity probe outside its band.
pub fn fidelity_failures(out: &Metrics) -> Vec<String> {
    FIDELITY
        .iter()
        .filter_map(|&(name, paper, lo, hi)| {
            let v = out.get(name)?;
            (v < lo || v > hi).then(|| {
                format!("{name} = {v:.0} ns is outside [{lo:.0}, {hi:.0}] (paper: {paper:.0} ns)")
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// simcore
// ---------------------------------------------------------------------

fn simcore_probes(ctx: &mut ProbeCtx<'_>) {
    // 1 k tasks in sleep loops with distinct periods: every wake goes
    // through the timer queue and the run queue.
    let rounds = ctx.scale(200);
    let ns = ctx.host_ns(1_000 * rounds, || {
        let rt = SimRuntime::new();
        let h = rt.handle();
        for task in 0..1_000u64 {
            let h2 = h.clone();
            h.spawn(async move {
                for _ in 0..rounds {
                    h2.sleep(SimDuration::from_nanos(1_000 + task)).await;
                }
            });
        }
        rt.run();
    });
    ctx.out.put("simcore.timer_wake_host_ns", ns);

    let n = ctx.scale(100_000);
    let ns = ctx.host_ns(n, || {
        let rt = SimRuntime::new();
        let h = rt.handle();
        rt.block_on(async move {
            for i in 0..n {
                std::hint::black_box(h.spawn(async move { i }).await);
            }
        });
    });
    ctx.out.put("simcore.spawn_join_host_ns", ns);
}

// ---------------------------------------------------------------------
// pcie
// ---------------------------------------------------------------------

/// A device that only remembers when its last register write arrived.
struct ArrivalProbe {
    handle: Handle,
    last_write_ns: Cell<u64>,
}

impl MmioDevice for ArrivalProbe {
    fn mmio_write(&self, _bar: u8, _offset: u64, _value: u64, _size: usize) {
        self.last_write_ns.set(self.handle.now().as_nanos());
    }
    fn mmio_read(&self, _bar: u8, _offset: u64, _size: usize) -> u64 {
        0
    }
}

/// The paper's remote topology with a passive device in place of the
/// controller: client host — NTB — `switches` chips — NTB — device host.
struct PcieBed {
    rt: SimRuntime,
    fabric: Fabric,
    smartio: SmartIo,
    client: HostId,
    dev_host: HostId,
    dev: DeviceId,
    sdev: SmartDeviceId,
    probe: Rc<ArrivalProbe>,
}

fn pcie_bed(switches: u32) -> PcieBed {
    let calib = Calibration::paper();
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), calib.fabric.clone());
    let client = fabric.add_host(1 << 30);
    let client_ntb = fabric.add_ntb(client, calib.ntb_slot_size, calib.ntb_slots);
    let dev_host = fabric.add_host(1 << 30);
    let dev_ntb = fabric.add_ntb(dev_host, calib.ntb_slot_size, calib.ntb_slots);
    let chain: Vec<_> = (0..switches)
        .map(|i| fabric.add_switch(&format!("sw{i}")))
        .collect();
    for w in chain.windows(2) {
        fabric.link(w[0], w[1]);
    }
    fabric.link(fabric.ntb_node(client_ntb), chain[0]);
    fabric.link(
        fabric.ntb_node(dev_ntb),
        *chain.last().expect("switches >= 1"),
    );
    let probe = Rc::new(ArrivalProbe {
        handle: rt.handle(),
        last_write_ns: Cell::new(0),
    });
    let dev = fabric.add_device(dev_host, fabric.rc_node(dev_host), &[0x4000], probe.clone());
    let smartio = SmartIo::new(&fabric);
    let sdev = smartio.register_device(dev).expect("register probe device");
    PcieBed {
        rt,
        fabric,
        smartio,
        client,
        dev_host,
        dev,
        sdev,
        probe,
    }
}

fn pcie_probes(ctx: &mut ProbeCtx<'_>) {
    let b = pcie_bed(1);
    let (fabric, smartio) = (b.fabric.clone(), b.smartio.clone());
    let (client, dev_host, dev, sdev) = (b.client, b.dev_host, b.dev, b.sdev);

    // Device-side memory as the client CPU sees it (SQ placement, Fig. 8).
    let dev_seg = smartio.create_segment(dev_host, 8192).expect("segment");
    let dev_mem = smartio.segment_region(dev_seg).expect("region");
    let dev_mem_from_client = smartio.map_for_cpu(client, dev_seg).expect("map").region;
    // The device's registers as the client CPU sees them (doorbells).
    let bar_seg = smartio.bar_segment(sdev, 0).expect("bar segment");
    let bar_from_client = smartio
        .map_for_cpu(client, bar_seg)
        .expect("map bar")
        .region;
    // Client memory as the device sees it (CQ, bounce partitions).
    let cli_seg = smartio.create_segment(client, 8192).expect("segment");
    let cli_mem = smartio.segment_region(cli_seg).expect("region");
    let cli_mem_from_dev = smartio
        .map_for_device(sdev, cli_seg)
        .expect("window")
        .bus_base;

    let probe = b.probe.clone();
    let sim = b.rt.block_on({
        let fabric = fabric.clone();
        async move {
            let h = fabric.handle();
            let mut v = Vec::new();
            // Posted writes: time until the data has landed.
            let w = fabric.watch(dev_host, dev_mem.addr, 64);
            let t0 = h.now();
            fabric
                .cpu_write(client, dev_mem_from_client.addr, &[1u8; 64])
                .await
                .expect("cpu_write");
            w.notify.notified().await;
            v.push((
                "pcie.posted_write_64b_remote_sim_ns",
                (h.now() - t0).as_nanos(),
            ));
            fabric.unwatch(dev_host, &w);

            let t0 = h.now();
            fabric
                .cpu_write_u32(client, bar_from_client.addr, 1)
                .await
                .expect("doorbell");
            h.sleep(SimDuration::from_micros(10)).await;
            v.push((
                "pcie.posted_write_4b_remote_sim_ns",
                probe.last_write_ns.get() - t0.as_nanos(),
            ));

            let t0 = h.now();
            fabric
                .cpu_read_u32(client, dev_mem_from_client.addr)
                .await
                .expect("cpu_read");
            v.push((
                "pcie.nonposted_read_4b_remote_sim_ns",
                (h.now() - t0).as_nanos(),
            ));

            let t0 = h.now();
            fabric
                .dma_read(dev, dev_mem.addr, &mut [0u8; 64])
                .await
                .expect("dma_read");
            v.push(("pcie.dma_read_64b_local_sim_ns", (h.now() - t0).as_nanos()));

            for (name, len) in [
                ("pcie.dma_write_4k_to_client_sim_ns", 4096usize),
                ("pcie.dma_write_16b_to_client_sim_ns", 16),
            ] {
                let w = fabric.watch(client, cli_mem.addr, len as u64);
                let t0 = h.now();
                fabric
                    .dma_write(dev, cli_mem_from_dev, &vec![2u8; len])
                    .await
                    .expect("dma_write");
                w.notify.notified().await;
                v.push((name, (h.now() - t0).as_nanos()));
                fabric.unwatch(client, &w);
            }

            let t0 = h.now();
            fabric
                .dma_read(dev, cli_mem_from_dev, &mut [0u8; 4096])
                .await
                .expect("dma_read");
            v.push((
                "pcie.dma_read_4k_from_client_sim_ns",
                (h.now() - t0).as_nanos(),
            ));
            v
        }
    });
    for (name, ns) in sim {
        ctx.out.put(name, ns as f64);
    }

    // End-to-end cost of a chip: QD1 read p50 across 4 switches vs 1.
    let p50 = |switches| {
        let sc = Scenario::build(ScenarioKind::OursRemote { switches }, &Calibration::paper());
        let spec = JobSpec::new("hops", RwMode::RandRead)
            .runtime(SimDuration::from_secs(1))
            .io_limit(500);
        sc.run(&spec).read.expect("read side").lat.p50
    };
    ctx.out.put(
        "pcie.hop_slope_sim_ns_per_chip",
        (p50(4) - p50(1)) as f64 / 3.0,
    );

    // Host cost of the three fabric calls the datapath makes most.
    let n = ctx.scale(20_000);
    let ns = ctx.host_ns(n, || {
        let fabric = fabric.clone();
        b.rt.block_on(async move {
            for _ in 0..n {
                fabric
                    .cpu_write(client, dev_mem_from_client.addr, &[1u8; 64])
                    .await
                    .expect("cpu_write");
            }
        });
    });
    ctx.out.put("pcie.cpu_write_host_ns", ns);
    let ns = ctx.host_ns(n, || {
        let fabric = fabric.clone();
        b.rt.block_on(async move {
            let data = vec![2u8; 4096];
            for _ in 0..n {
                fabric
                    .dma_write(dev, cli_mem_from_dev, &data)
                    .await
                    .expect("dma_write");
            }
        });
    });
    ctx.out.put("pcie.dma_write_4k_host_ns", ns);
    let n = ctx.scale(400_000);
    let ns = ctx.host_ns(n, || {
        for _ in 0..n {
            std::hint::black_box(fabric.resolve(client, dev_mem_from_client.addr, 64))
                .expect("resolve");
        }
    });
    ctx.out.put("pcie.resolve_host_ns", ns);
}

// ---------------------------------------------------------------------
// smartio
// ---------------------------------------------------------------------

fn smartio_probes(ctx: &mut ProbeCtx<'_>) {
    let b = pcie_bed(1);
    let n = ctx.scale(5_000);
    let ns = ctx.host_ns(n, || {
        for _ in 0..n {
            let a = b
                .smartio
                .alloc_hinted(b.client, b.sdev, 4096, AccessHints::buffer())
                .expect("alloc_hinted");
            b.smartio.free_hinted(a.segment).expect("free_hinted");
        }
    });
    ctx.out.put("smartio.alloc_hinted_host_ns", ns);
    let seg = b
        .smartio
        .create_segment(b.client, 128 << 10)
        .expect("segment");
    let ns = ctx.host_ns(n, || {
        for _ in 0..n {
            let w = b
                .smartio
                .map_for_device(b.sdev, seg)
                .expect("map_for_device");
            b.smartio.unmap_device(w);
        }
    });
    ctx.out.put("smartio.map_for_device_host_ns", ns);
}

// ---------------------------------------------------------------------
// nvme
// ---------------------------------------------------------------------

fn nvme_probes(ctx: &mut ProbeCtx<'_>) {
    let calib = Calibration::paper();
    let rt = SimRuntime::new();
    let store = Rc::new(BlockStore::new(
        rt.handle(),
        MediaProfile::optane(),
        calib.block_size,
        calib.capacity_blocks,
        calib.seed,
    ));
    // One request at a time: the medium's own latency, the floor of
    // every end-to-end latency.
    let n = ctx.scale(4_000);
    let (reads, writes) = rt.block_on({
        let (store, h) = (store.clone(), rt.handle());
        async move {
            let mut buf = vec![0u8; 4096];
            let (mut r, mut w) = (LatencyRecorder::new(), LatencyRecorder::new());
            for i in 0..n {
                let t0 = h.now();
                store.read(i * 8, &mut buf).await;
                r.record(h.now() - t0);
                let t0 = h.now();
                store.write(i * 8, &buf).await;
                w.record(h.now() - t0);
            }
            (r, w)
        }
    });
    let p50 = |r: &LatencyRecorder| r.summary().expect("samples").p50 as f64;
    ctx.out.put("nvme.medium_read_4k_sim_p50_ns", p50(&reads));
    ctx.out.put("nvme.medium_write_4k_sim_p50_ns", p50(&writes));
    ctx.out.put(
        "nvme.medium_channel_bound_kiops",
        medium_channel_bound_kiops(),
    );

    // The sparse store's write path: overwriting resident blocks vs
    // growing the map (what `fig10_write`'s prefill keeps out of the
    // timed section).
    let n = ctx.scale(8_000);
    let data = vec![0x5Au8; 4096];
    let base = Cell::new(1u64 << 20);
    let first_touch = ctx.host_ns(n, || {
        for i in 0..n {
            store.write_raw(base.get() + i * 8, &data);
        }
        base.set(base.get() + n * 8);
    });
    let warm = ctx.host_ns(n, || {
        for i in 0..n {
            store.write_raw((1 << 20) + i * 8, &data);
        }
    });
    ctx.out.put("nvme.store_write_warm_host_ns", warm);
    ctx.out
        .put("nvme.store_write_first_touch_host_ns", first_touch);
}

// ---------------------------------------------------------------------
// blklayer / fioflex
// ---------------------------------------------------------------------

fn blk_probes(ctx: &mut ProbeCtx<'_>) {
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), Calibration::paper().fabric);
    let host = fabric.add_host(256 << 20);
    let instant = RamDisk::new(&fabric, host, 1 << 16, 512, 32, SimDuration::ZERO);
    let buf = fabric.alloc(host, 4096).expect("buffer");
    let n = ctx.scale(50_000);
    let ns = ctx.host_ns(n, || {
        let instant = instant.clone();
        rt.block_on(async move {
            for i in 0..n {
                instant
                    .submit(Bio::read((i * 8) % (1 << 16), 8, buf))
                    .await
                    .expect("ramdisk read");
            }
        });
    });
    ctx.out.put("blklayer.bio_submit_host_ns", ns);

    // The load generator over a 10 us RAM disk: what the harness and the
    // executor cost per I/O with no NVMe stack underneath.
    let ios = ctx.scale(20_000);
    let disk = RamDisk::new(
        &fabric,
        host,
        1 << 16,
        512,
        32,
        SimDuration::from_micros(10),
    );
    let spec = JobSpec::new("floor", RwMode::RandRead)
        .runtime(SimDuration::from_secs(10))
        .ramp(SimDuration::ZERO)
        .io_limit(ios);
    let steps = Cell::new(0u64);
    let ns = ctx.host_ns(ios, || {
        let before = rt.steps();
        let (fabric, disk, spec) = (fabric.clone(), disk.clone(), spec.clone());
        let rep = rt.block_on(async move { run_job(&fabric, host, disk, &spec).await });
        assert_eq!(rep.read.expect("read side").ios, ios);
        steps.set(rt.steps() - before);
    });
    ctx.out.put("fioflex.ramdisk_host_ns_per_io", ns);
    ctx.out.put(
        "fioflex.ramdisk_steps_per_io",
        steps.get() as f64 / ios as f64,
    );
}

// ---------------------------------------------------------------------
// dnvme
// ---------------------------------------------------------------------

/// A fixed number of QD1 4 KiB I/Os on client 0; returns `(p50, min)` in ns.
fn qd1_latency(kind: ScenarioKind, calib: &Calibration, rw: RwMode, ios: u64) -> (u64, u64) {
    let sc = Scenario::build(kind, calib);
    let spec = JobSpec::new("probe", rw)
        .runtime(SimDuration::from_secs(10))
        .ramp(SimDuration::ZERO)
        .io_limit(ios);
    let rep = sc.run(&spec);
    assert_eq!(rep.errors, 0);
    let side = rep.read.or(rep.write).expect("one side");
    (side.lat.p50, side.lat.min)
}

fn dnvme_probes(ctx: &mut ProbeCtx<'_>) {
    let calib = Calibration::paper();
    let tracer = ctx.tracer;
    let ios = ctx.scale(2_000);

    // Set-up, call by call, on the 31-client testbed (the one workload
    // where set-up is not trivial): the same public calls
    // `Scenario::build` makes, each in its own span.
    let rt = SimRuntime::new();
    let now = || rt.now().as_nanos();
    let (fabric, client_hosts, dev_host) = tracer.scope("Fabric topology build", &now, || {
        let fabric = Fabric::new(rt.handle(), calib.fabric.clone());
        let sw = fabric.add_switch("sw0");
        let mut hosts: Vec<HostId> = (0..32)
            .map(|_| {
                let h = fabric.add_host(1 << 30);
                let ntb = fabric.add_ntb(h, calib.ntb_slot_size, calib.ntb_slots);
                fabric.link(fabric.ntb_node(ntb), sw);
                h
            })
            .collect();
        let dev_host = hosts.pop().expect("32 hosts");
        (fabric, hosts, dev_host)
    });
    let ctrl = tracer.scope("NvmeController::attach", &now, || {
        let store = Rc::new(BlockStore::new(
            rt.handle(),
            calib.media.clone(),
            calib.block_size,
            calib.capacity_blocks,
            calib.seed,
        ));
        NvmeController::attach(
            &fabric,
            dev_host,
            fabric.rc_node(dev_host),
            store,
            calib.nvme.clone(),
        )
    });
    let smartio = SmartIo::new(&fabric);
    let dev = tracer.scope("SmartIo::register_device", &now, || {
        smartio
            .register_device(ctrl.device_id())
            .expect("register controller")
    });
    let t0 = rt.now();
    let _mgr = tracer.scope("Manager::start", &now, || {
        let (smartio, cfg) = (smartio.clone(), calib.manager.clone());
        rt.block_on(async move {
            Manager::start(&smartio, dev, dev_host, cfg)
                .await
                .expect("manager")
        })
    });
    ctx.out.put(
        "dnvme.manager_start_sim_us",
        (rt.now() - t0).as_micros_f64(),
    );
    let mut connect_sim_us = Vec::new();
    let mut connect_host_ms = Vec::new();
    let mut drivers = Vec::new();
    for &host in &client_hosts {
        let loop_ns = ctx.calibrator.run();
        let (t0, w0) = (rt.now(), Instant::now());
        let d = tracer.scope("ClientDriver::connect", &now, || {
            let (smartio, cfg) = (smartio.clone(), calib.client.clone());
            rt.block_on(async move {
                ClientDriver::connect(&smartio, dev, host, cfg)
                    .await
                    .expect("connect")
            })
        });
        connect_host_ms.push(normalise(w0.elapsed().as_nanos() as f64, loop_ns) / 1e6);
        connect_sim_us.push((rt.now() - t0).as_micros_f64());
        drivers.push(d);
        if ctx.quick && drivers.len() == 4 {
            break;
        }
    }
    ctx.out.put("dnvme.connect_sim_us", median(&connect_sim_us));
    ctx.out
        .put("dnvme.connect_host_ms", median(&connect_host_ms));

    // Bounce vs zero-copy staging of the same QD1 reads: a plain buffer
    // is staged through the bounce partition, a hinted one is not.
    let drv = drivers[0].clone();
    let host = client_hosts[0];
    let plain = fabric.alloc(host, 4096).expect("buffer");
    let hinted = smartio
        .alloc_hinted(host, dev, 4096, AccessHints::buffer())
        .expect("hinted buffer")
        .region;
    let p50s: Vec<f64> = [plain, hinted]
        .into_iter()
        .map(|buf| {
            let (drv, h) = (drv.clone(), rt.handle());
            let lat = rt.block_on(async move {
                let mut lat = LatencyRecorder::new();
                for i in 0..ios {
                    let t0 = h.now();
                    drv.submit(Bio::read(i * 8, 8, buf)).await.expect("read");
                    lat.record(h.now() - t0);
                }
                lat
            });
            lat.summary().expect("samples").p50 as f64
        })
        .collect();
    assert_eq!(
        drv.stats().zero_copy_ios,
        ios,
        "hinted reads must skip the bounce copy"
    );
    ctx.out
        .put("dnvme.zero_copy_gain_read_sim_ns", p50s[0] - p50s[1]);

    // Driver CPU per I/O where the reactor is the bottleneck.
    let mut cpu_bound = Calibration::paper();
    cpu_bound.client.cpu_accounting = true;
    let sc = Scenario::build(ScenarioKind::OursRemote { switches: 1 }, &cpu_bound);
    let window = SimDuration::from_millis(if ctx.quick { 2 } else { 20 });
    let spec = JobSpec::new("cpu", RwMode::RandRead)
        .iodepth(32)
        .runtime(window)
        .ramp(SimDuration::from_micros(500));
    let iops = sc.run(&spec).read.expect("read side").iops;
    ctx.out.put("dnvme.reactor_cpu_per_io_sim_ns", 1e9 / iops);

    // The naive driver against stock Linux on the same (local) device.
    let (ours_local, _) = qd1_latency(ScenarioKind::OursLocal, &calib, RwMode::RandRead, ios);
    let (linux_local, _) = qd1_latency(ScenarioKind::LinuxLocal, &calib, RwMode::RandRead, ios);
    ctx.out
        .put("nvme.local_driver_read_sim_p50_ns", linux_local as f64);
    ctx.out.put(
        "dnvme.driver_overhead_read_sim_ns",
        ours_local as f64 - linux_local as f64,
    );
}

// ---------------------------------------------------------------------
// rdma / nvmeof
// ---------------------------------------------------------------------

fn rdma_probes(ctx: &mut ProbeCtx<'_>) {
    let calib = Calibration::paper();
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), calib.fabric.clone());
    let (h0, h1) = (fabric.add_host(64 << 20), fabric.add_host(64 << 20));
    let net = IbNet::new(&fabric, calib.ib.clone());
    let (nic0, nic1) = (net.add_nic(h0), net.add_nic(h1));
    let (qp0, qp1) = (net.create_qp(nic0), net.create_qp(nic1));
    qp0.connect(&qp1);
    let local = fabric.alloc(h0, 4096).expect("buffer");
    let remote = fabric.alloc(h1, 4096).expect("buffer");
    let lmr = net.register_mr(nic0, local, Access::local_only());
    let rmr = net.register_mr(nic1, remote, Access::remote_all());
    let wr = move |kind: u8, len: u64| match kind {
        0 => SendWr::Send {
            wr_id: 1,
            lkey: lmr.lkey,
            laddr: local.addr.as_u64(),
            len,
            imm: 0,
        },
        1 => SendWr::Write {
            wr_id: 1,
            lkey: lmr.lkey,
            laddr: local.addr.as_u64(),
            len,
            raddr: remote.addr.as_u64(),
            rkey: rmr.rkey,
        },
        _ => SendWr::Read {
            wr_id: 1,
            lkey: lmr.lkey,
            laddr: local.addr.as_u64(),
            len,
            raddr: remote.addr.as_u64(),
            rkey: rmr.rkey,
        },
    };
    let sim = rt.block_on({
        let (qp0, qp1, h) = (qp0.clone(), qp1.clone(), rt.handle());
        async move {
            // A send is done when the receiver sees it; one-sided
            // operations when the initiator's completion arrives.
            qp1.post_recv(7, rmr.lkey, remote.addr.as_u64(), 4096);
            let t0 = h.now();
            qp0.post_send(wr(0, 64)).await;
            qp1.recv_cq().next().await;
            let send = (h.now() - t0).as_nanos();
            qp0.send_cq().next().await;
            let t0 = h.now();
            qp0.post_send(wr(1, 4096)).await;
            qp0.send_cq().next().await;
            let write = (h.now() - t0).as_nanos();
            let t0 = h.now();
            qp0.post_send(wr(2, 4096)).await;
            qp0.send_cq().next().await;
            (send, write, (h.now() - t0).as_nanos())
        }
    });
    ctx.out.put("rdma.send_64b_sim_ns", sim.0 as f64);
    ctx.out.put("rdma.write_4k_sim_ns", sim.1 as f64);
    ctx.out.put("rdma.read_4k_sim_ns", sim.2 as f64);
    let n = ctx.scale(20_000);
    let ns = ctx.host_ns(n, || {
        let qp0 = qp0.clone();
        rt.block_on(async move {
            for _ in 0..n {
                qp0.post_send(wr(1, 4096)).await;
                qp0.send_cq().next().await;
            }
        });
    });
    ctx.out.put("rdma.post_send_host_ns", ns);

    // NVMe-oF, assembled from its public pieces so the target's counters
    // are in reach (`Scenario` keeps them private).
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), calib.fabric.clone());
    let (ini_host, tgt_host) = (fabric.add_host(1 << 30), fabric.add_host(1 << 30));
    let net = IbNet::new(&fabric, calib.ib.clone());
    let (nic_i, nic_t) = (net.add_nic(ini_host), net.add_nic(tgt_host));
    let store = Rc::new(BlockStore::new(
        rt.handle(),
        calib.media.clone(),
        calib.block_size,
        calib.capacity_blocks,
        calib.seed,
    ));
    let ctrl = NvmeController::attach(
        &fabric,
        tgt_host,
        fabric.rc_node(tgt_host),
        store,
        calib.nvme.clone(),
    );
    let ios = ctx.scale(2_000);
    let (target, rep) = rt.block_on({
        let (fabric, net, calib) = (fabric.clone(), net.clone(), calib.clone());
        async move {
            let drv = attach_local_driver(&fabric, tgt_host, &ctrl, calib.spdk_driver.clone())
                .await
                .expect("spdk driver");
            let target = NvmfTarget::new(&fabric, &net, nic_t, tgt_host, drv, calib.target.clone());
            let init = NvmfInitiator::connect(
                &fabric,
                &net,
                nic_i,
                ini_host,
                &target,
                calib.initiator.clone(),
            );
            let spec = JobSpec::new("nvmf", RwMode::RandRw { read_pct: 50 })
                .runtime(SimDuration::from_secs(10))
                .ramp(SimDuration::ZERO)
                .io_limit(ios);
            let rep = run_job(&fabric, ini_host, init, &spec).await;
            (target, rep)
        }
    });
    assert_eq!(rep.errors, 0);
    let s = target.stats();
    ctx.out
        .put("nvmeof.capsules_per_io", s.capsules as f64 / ios as f64);
    ctx.out.put(
        "nvmeof.rdma_writes_per_io",
        s.rdma_writes as f64 / ios as f64,
    );
    ctx.out
        .put("nvmeof.rdma_reads_per_io", s.rdma_reads as f64 / ios as f64);
    ctx.out.put("nvmeof.target_errors", s.errors as f64);
}

// ---------------------------------------------------------------------
// cluster: fidelity against the paper
// ---------------------------------------------------------------------

fn cluster_probes(ctx: &mut ProbeCtx<'_>) {
    let calib = Calibration::paper();
    let ios = ctx.scale(2_000);
    // §VI's deltas are between *minimum* latencies. With a fixed I/O
    // count every testbed draws the same media latencies, so the deltas
    // are exact.
    let min = |kind, rw| qd1_latency(kind, &calib, rw, ios).1 as f64;
    let remote = ScenarioKind::OursRemote { switches: 1 };
    for (rw, nvmf, ours) in [
        (
            RwMode::RandRead,
            "nvmeof.remote_penalty_read_sim_ns",
            "cluster.ours_remote_penalty_read_sim_ns",
        ),
        (
            RwMode::RandWrite,
            "nvmeof.remote_penalty_write_sim_ns",
            "cluster.ours_remote_penalty_write_sim_ns",
        ),
    ] {
        ctx.out.put(
            nvmf,
            min(ScenarioKind::NvmfRemote, rw) - min(ScenarioKind::LinuxLocal, rw),
        );
        ctx.out.put(
            ours,
            min(remote.clone(), rw) - min(ScenarioKind::OursLocal, rw),
        );
    }

    // Fig. 8: what placing the SQ device-side saves.
    let client_side = Calibration::paper().with_client(ClientConfig {
        sq_placement: SqPlacement::ClientSide,
        ..ClientConfig::default()
    });
    let gain = qd1_latency(remote.clone(), &client_side, RwMode::RandRead, ios).0 as f64
        - qd1_latency(remote, &calib, RwMode::RandRead, ios).0 as f64;
    ctx.out.put("cluster.fig8_sq_placement_gain_sim_ns", gain);

    // §VI: where adding hosts stops adding throughput.
    let window = SimDuration::from_millis(if ctx.quick { 1 } else { 5 });
    let kiops: Vec<(usize, f64)> = [1usize, 2, 4, 8, 16, 31]
        .into_iter()
        .map(|clients| {
            let sc = Scenario::build(ScenarioKind::OursMultihost { clients }, &calib);
            let spec = JobSpec::new("knee", RwMode::RandRead)
                .iodepth(4)
                .runtime(window)
                .ramp(SimDuration::from_micros(500));
            let total: f64 = sc
                .run_all(&spec)
                .iter()
                .map(|r| r.read.expect("read side").iops)
                .sum();
            (clients, total / 1e3)
        })
        .collect();
    let plateau = kiops.last().expect("six points").1;
    let knee = kiops
        .iter()
        .find(|(_, k)| *k >= 0.98 * plateau)
        .expect("31 clients reach the plateau")
        .0;
    ctx.out.put("cluster.multihost_knee_clients", knee as f64);

    let ns = ctx.host_ns(1, || {
        std::hint::black_box(Scenario::build(
            ScenarioKind::OursMultihost { clients: 31 },
            &calib,
        ));
    });
    ctx.out.put("cluster.scenario_build_host_ms", ns / 1e6);
}

// ---------------------------------------------------------------------
// sharedfs / explore
// ---------------------------------------------------------------------

fn consumer_probes(ctx: &mut ProbeCtx<'_>) {
    // Dependent small I/Os compound the per-I/O latency: create and write
    // 24 x 64 KiB files on the remote testbed.
    let sc = Scenario::build(
        ScenarioKind::OursRemote { switches: 1 },
        &Calibration::paper(),
    );
    let (fabric, h) = (sc.fabric.clone(), sc.rt.handle());
    let (host, disk) = sc.clients[0].clone();
    let us = sc.rt.block_on(async move {
        SharedFs::format(&fabric, host, disk.clone(), 4, 128)
            .await
            .expect("format");
        let fs = SharedFs::mount(&fabric, host, disk).await.expect("mount");
        let body: Vec<u8> = (0..64u32 << 10).map(|i| (i % 251) as u8).collect();
        let t0 = h.now();
        for i in 0..24 {
            let name = format!("data/file{i:03}");
            fs.create(&name).await.expect("create");
            fs.write(&name, 0, &body).await.expect("write");
        }
        fs.sync().await.expect("sync");
        (h.now() - t0).as_micros_f64()
    });
    ctx.out.put("sharedfs.create_write_24x64k_sim_us", us);

    // Schedule exploration is the heaviest consumer of simulator speed.
    let prog = explore::ScenarioProgram::small(ScenarioKind::OursMultihost { clients: 2 });
    let cfg = explore::ExploreConfig {
        max_schedules: ctx.quick.then_some(8),
        max_preemptions: 1,
        prune: true,
        stop_on_violation: true,
    };
    let stats = RefCell::new(explore::ExploreStats::default());
    let ns_per_search = ctx.host_ns(1, || {
        let res = explore::explore(&|p: &[u32]| prog.run(p), &cfg);
        assert!(res.failure.is_none(), "exploration found {:?}", res.failure);
        *stats.borrow_mut() = res.stats;
    });
    let stats = stats.into_inner();
    ctx.out.put(
        "explore.schedules_per_s",
        stats.schedules_run as f64 / (ns_per_search / 1e9),
    );
    ctx.out.put(
        "explore.pruned_share",
        stats.branches_pruned as f64 / (stats.branches_pruned + stats.schedules_run) as f64,
    );
}
