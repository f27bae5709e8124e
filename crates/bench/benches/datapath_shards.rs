//! **Sharded zero-copy datapath** — the multi-reactor counterpart of the
//! paper's single-core proof-of-concept driver. Sweeps 1/2/4/8 logical
//! reactors × {bounce, zero-copy} and reports:
//!
//! * QD1 p50 read latency (single client, 4 KiB aligned) — zero-copy
//!   must be *strictly* lower: the PRPs address the hinted user buffer
//!   directly, so the §V staging memcpy vanishes from the path;
//! * 31-host aggregate kIOPS with CPU accounting on, where per-reactor
//!   saturation (submission/completion overheads serialize per core)
//!   makes the reactor count matter.
//!
//! Unlike the fioflex-driven benches, this one drives [`ClientDriver`]s
//! directly so the buffers can come from [`SmartIo::alloc_hinted`] — the
//! allocation primitive the zero-copy staging decision keys on.
//! Results land in the root-level `BENCH_datapath.json` (CI-diffed,
//! wall-clock fields excluded).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use bench::header;
use blklayer::{Bio, BlockDevice};
use dnvme::{ClientConfig, ClientDriver, Manager, ManagerConfig};
use nvme::{BlockStore, MediaProfile, NvmeConfig, NvmeController};
use pcie::{Fabric, FabricParams, HostId, MemRegion};
use simcore::{LatencyRecorder, ReactorId, SimDuration, SimRuntime};
use smartio::{AccessHints, SmartDeviceId, SmartIo};

const BLOCK: u32 = 512;
const BS: u64 = 4096;
const AGG_HOSTS: usize = 31;

/// One sweep point of the committed `BENCH_datapath.json` report.
#[derive(serde::Serialize)]
struct Point {
    reactors: usize,
    mode: &'static str,
    qd1_p50_ns: u64,
    agg_kiops: f64,
}

#[derive(serde::Serialize)]
struct Report {
    block_size: u64,
    qd: u32,
    agg_hosts: usize,
    points: Vec<Point>,
    /// Excluded from the CI diff (like `BENCH_lint.json`).
    wall_ms: u64,
}

#[derive(Copy, Clone, PartialEq, Eq)]
enum Mode {
    Bounce,
    ZeroCopy,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Bounce => "bounce",
            Mode::ZeroCopy => "zero-copy",
        }
    }
}

/// Both modes run the same driver configuration (one submit path); they
/// differ only in how the request buffer is allocated.
fn client_cfg() -> ClientConfig {
    ClientConfig {
        // Charge driver overheads as reactor CPU so per-core
        // saturation — the thing the shard sweep measures — exists.
        cpu_accounting: true,
        ..ClientConfig::default()
    }
}

struct Bed {
    rt: SimRuntime,
    fabric: Fabric,
    smartio: SmartIo,
    clients: Vec<HostId>,
    dev: SmartDeviceId,
    dev_host: HostId,
    /// Keeps the controller model (and its service tasks) alive.
    _ctrl: Rc<NvmeController>,
}

/// `clients` + 1 hosts on one cluster switch, the NVMe in the last one,
/// `reactors` logical reactors.
fn bed(clients: usize, reactors: usize) -> Bed {
    let rt = SimRuntime::with_reactors(reactors);
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let sw = fabric.add_switch("MXS924");
    let mut hosts = Vec::new();
    for _ in 0..clients + 1 {
        let h = fabric.add_host(256 << 20);
        let ntb = fabric.add_ntb(h, 2 << 20, 256);
        fabric.link(fabric.ntb_node(ntb), sw);
        hosts.push(h);
    }
    let dev_host = hosts.pop().unwrap();
    let store = Rc::new(BlockStore::new(
        rt.handle(),
        MediaProfile::optane(),
        BLOCK,
        1 << 20,
        42,
    ));
    let ctrl = NvmeController::attach(
        &fabric,
        dev_host,
        fabric.rc_node(dev_host),
        store,
        NvmeConfig::default(),
    );
    let smartio = SmartIo::new(&fabric);
    let dev = smartio.register_device(ctrl.device_id()).unwrap();
    Bed {
        rt,
        fabric,
        smartio,
        clients: hosts,
        dev,
        dev_host,
        _ctrl: ctrl,
    }
}

/// Closed-loop QD1 4 KiB reads from every client for `runtime`; returns
/// the pooled latency samples.
fn run(clients: usize, reactors: usize, mode: Mode, runtime: SimDuration) -> LatencyRecorder {
    let b = bed(clients, reactors);
    let handle = b.rt.handle();
    let (smartio, fabric, dev, dev_host) = (b.smartio, b.fabric, b.dev, b.dev_host);
    let client_hosts = b.clients;
    b.rt.block_on(async move {
        let _mgr = Manager::start(&smartio, dev, dev_host, ManagerConfig::default())
            .await
            .unwrap();
        // Connect each client pinned to its shard (sequential await keeps
        // mailbox bring-up deterministic across reactor counts).
        let mut drivers: Vec<Rc<ClientDriver>> = Vec::new();
        for (i, &host) in client_hosts.iter().enumerate() {
            let smartio = smartio.clone();
            let cfg = client_cfg();
            let join = handle.spawn_on(ReactorId::new(i % reactors), async move {
                ClientDriver::connect(&smartio, dev, host, cfg)
                    .await
                    .unwrap()
            });
            drivers.push(join.await);
        }
        let pooled = Rc::new(RefCell::new(LatencyRecorder::new()));
        let t_end = handle.now() + runtime;
        let mut joins = Vec::new();
        for (i, drv) in drivers.iter().enumerate() {
            let drv = drv.clone();
            let handle2 = handle.clone();
            let pooled = pooled.clone();
            let buf: MemRegion = match mode {
                // The hinted buffer is what makes the staging decision
                // pick zero-copy; a plain allocation never translates.
                Mode::ZeroCopy => {
                    smartio
                        .alloc_hinted(drv.host(), dev, BS, AccessHints::buffer())
                        .unwrap()
                        .region
                }
                Mode::Bounce => fabric.alloc(drv.host(), BS).unwrap(),
            };
            joins.push(handle.spawn_on(ReactorId::new(i % reactors), async move {
                let blocks = BS / BLOCK as u64;
                let span = drv.capacity_blocks() - blocks;
                let mut lba = (i as u64 * 9973) % span;
                let mut rec = LatencyRecorder::new();
                while handle2.now() < t_end {
                    let t0 = handle2.now();
                    drv.submit(Bio::read(lba, blocks as u32, buf))
                        .await
                        .unwrap();
                    rec.record(handle2.now().since(t0));
                    lba = (lba + 7919 * blocks) % span;
                }
                if mode == Mode::ZeroCopy {
                    let s = drv.stats();
                    assert_eq!(
                        s.zero_copy_ios, s.reads,
                        "every aligned hinted read must take the zero-copy path"
                    );
                }
                pooled.borrow_mut().merge(&rec);
            }));
        }
        for j in joins {
            j.await;
        }
        Rc::try_unwrap(pooled).unwrap().into_inner()
    })
}

fn main() {
    let wall = Instant::now();
    header(
        "Sharded zero-copy datapath: reactors x {bounce, zero-copy}",
        "Markussen et al., SC'24, §V bounce design + multi-reactor extension",
    );
    let qd1_runtime = SimDuration::from_millis(40);
    let agg_runtime = SimDuration::from_millis(10);
    println!(
        "\n  {:>8} {:>10} {:>14} {:>16}",
        "reactors", "mode", "QD1 p50 (ns)", "31-host kIOPS"
    );
    let mut points = Vec::new();
    for &reactors in &[1usize, 2, 4, 8] {
        let mut p50s = Vec::new();
        for mode in [Mode::Bounce, Mode::ZeroCopy] {
            let qd1 = run(1, reactors, mode, qd1_runtime);
            let p50 = qd1.summary().expect("no QD1 samples").p50;
            let agg = run(AGG_HOSTS, reactors, mode, agg_runtime);
            let kiops = agg.len() as f64 / (agg_runtime.as_nanos() as f64 / 1e9) / 1e3;
            println!(
                "  {:>8} {:>10} {:>14} {:>16.1}",
                reactors,
                mode.label(),
                p50,
                kiops
            );
            points.push(Point {
                reactors,
                mode: mode.label(),
                qd1_p50_ns: p50,
                agg_kiops: (kiops * 10.0).round() / 10.0,
            });
            p50s.push(p50);
        }
        assert!(
            p50s[1] < p50s[0],
            "zero-copy QD1 p50 must be strictly lower than bounce at {reactors} reactors \
             ({} vs {})",
            p50s[1],
            p50s[0]
        );
    }
    // 31 closed-loop clients charge ~3 us of driver CPU per ~17 us I/O:
    // one reactor saturates, a second roughly doubles the aggregate.
    let agg = |r: usize, m: &str| {
        points
            .iter()
            .find(|p| p.reactors == r && p.mode == m)
            .unwrap()
            .agg_kiops
    };
    assert!(
        agg(2, "zero-copy") > 1.5 * agg(1, "zero-copy"),
        "2 reactors must lift the CPU-bound aggregate substantially \
         ({} vs {})",
        agg(2, "zero-copy"),
        agg(1, "zero-copy")
    );
    let report = Report {
        block_size: BS,
        qd: 1,
        agg_hosts: AGG_HOSTS,
        points,
        wall_ms: wall.elapsed().as_millis() as u64,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_datapath.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).unwrap() + "\n").unwrap();
    println!("\n  [saved {path}]");
    println!("\ndatapath_shards: OK");
}
