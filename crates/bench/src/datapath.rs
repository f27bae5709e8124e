//! E12 — the sharded zero-copy datapath, the multi-reactor counterpart
//! of the paper's single-core proof-of-concept driver. Sweeps 1/2/4/8
//! logical reactors × {bounce, zero-copy} and reports:
//!
//! * QD1 p50 read latency (single client, 4 KiB aligned) — zero-copy
//!   must be *strictly* lower: the PRPs address the hinted user buffer
//!   directly, so the §V staging memcpy vanishes from the path;
//! * 31-host aggregate kIOPS with CPU accounting on, where per-reactor
//!   saturation (submission/completion overheads serialize per core)
//!   makes the reactor count matter.
//!
//! Unlike the fio-driven experiments this one drives the scenario's
//! [`dnvme::ClientDriver`]s directly, so the buffers can come from
//! [`smartio::SmartIo::alloc_hinted`] — the allocation the zero-copy
//! staging decision keys on. Both modes run the same driver
//! configuration; they differ only in how the buffer is allocated.

use std::cell::RefCell;
use std::rc::Rc;

use blklayer::{Bio, BlockDevice};
use cluster::{Calibration, Scenario, ScenarioKind};
use dnvme::ClientConfig;
use pcie::FabricParams;
use simcore::{LatencyRecorder, ReactorId, SimDuration};
use smartio::AccessHints;

use crate::Row;

const BLOCK: u64 = 512;
const BS: u64 = 4096;
const AGG_HOSTS: usize = 31;

/// Closed-loop QD1 4 KiB reads from every client for `runtime`; returns
/// the pooled latency samples.
fn run(clients: usize, reactors: usize, zero_copy: bool, runtime: SimDuration) -> LatencyRecorder {
    let calib = Calibration {
        // Mid-range 125 ns switch chips and a 512 MiB namespace: the
        // testbed this sweep's committed numbers were first taken on.
        fabric: FabricParams::default(),
        capacity_blocks: 1 << 20,
        seed: 42,
        client: ClientConfig {
            // Charge driver overheads as reactor CPU so per-core
            // saturation — the thing the shard sweep measures — exists.
            cpu_accounting: true,
            ..ClientConfig::default()
        },
        ..Calibration::paper()
    };
    let sc = Scenario::build_sharded(ScenarioKind::OursMultihost { clients }, &calib, reactors);
    let smartio = sc.smartio().expect("a distributed-driver scenario");
    let dev = smartio.devices()[0];
    let fabric = sc.fabric.clone();
    let handle = sc.rt.handle();
    let drivers = sc.client_drivers();
    sc.rt.block_on(async move {
        let pooled = Rc::new(RefCell::new(LatencyRecorder::new()));
        let t_end = handle.now() + runtime;
        let mut joins = Vec::new();
        for (i, drv) in drivers.into_iter().enumerate() {
            let handle2 = handle.clone();
            let pooled = pooled.clone();
            // The hinted buffer is what makes the staging decision pick
            // zero-copy; a plain allocation never translates.
            let buf = if zero_copy {
                let hinted = smartio.alloc_hinted(drv.host(), dev, BS, AccessHints::buffer());
                hinted.expect("hinted buffer").region
            } else {
                fabric.alloc(drv.host(), BS).expect("buffer")
            };
            joins.push(handle.spawn_on(ReactorId::new(i % reactors), async move {
                let blocks = BS / BLOCK;
                let span = drv.capacity_blocks() - blocks;
                let mut lba = (i as u64 * 9973) % span;
                let mut rec = LatencyRecorder::new();
                while handle2.now() < t_end {
                    let t0 = handle2.now();
                    let read = drv.submit(Bio::read(lba, blocks as u32, buf)).await;
                    read.expect("read");
                    rec.record(handle2.now().since(t0));
                    lba = (lba + 7919 * blocks) % span;
                }
                if zero_copy {
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
        pooled.take()
    })
}

pub(crate) fn e12_datapath_shards() -> Vec<Row> {
    let qd1_runtime = SimDuration::from_millis(40);
    let agg_runtime = SimDuration::from_millis(10);
    let mut rows = Vec::new();
    let mut zero_copy_kiops = Vec::new();
    for reactors in [1usize, 2, 4, 8] {
        let mut p50s = Vec::new();
        for (mode, zero_copy) in [("bounce", false), ("zero-copy", true)] {
            let qd1 = run(1, reactors, zero_copy, qd1_runtime);
            let p50 = qd1.summary().expect("QD1 samples").p50;
            let agg = run(AGG_HOSTS, reactors, zero_copy, agg_runtime);
            let kiops = agg.len() as f64 / agg_runtime.as_secs_f64() / 1e3;
            rows.push(
                Row::new(format!("{reactors} reactors/{mode}"))
                    .int("qd1_p50_ns", p50)
                    .rate("agg_kiops", kiops),
            );
            p50s.push(p50);
            if zero_copy {
                zero_copy_kiops.push(kiops);
            }
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
    assert!(
        zero_copy_kiops[1] > 1.5 * zero_copy_kiops[0],
        "2 reactors must lift the CPU-bound aggregate substantially ({} vs {})",
        zero_copy_kiops[1],
        zero_copy_kiops[0]
    );
    rows
}
