//! Engine behaviour end-to-end through a local driver: doorbell-MMIO
//! accounting. At QD=1 the engine rings exactly once per command, and
//! submitters that arrive at the same instant share one doorbell.

use std::collections::BTreeMap;
use std::rc::Rc;

use blklayer::BioOp;
use nvme::driver::{attach_local_driver, LocalDriverConfig};
use nvme::{BlockStore, MediaProfile, NvmeConfig, NvmeController};
use pcie::{Fabric, FabricParams, HostId};
use simcore::{SimRuntime, Stage};

struct Bed {
    rt: SimRuntime,
    fabric: Fabric,
    host: HostId,
    ctrl: Rc<NvmeController>,
}

fn bed() -> Bed {
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let host = fabric.add_host(256 << 20);
    let store = Rc::new(BlockStore::new(
        rt.handle(),
        MediaProfile::optane(),
        512,
        1 << 20,
        7,
    ));
    let ctrl = NvmeController::attach(
        &fabric,
        host,
        fabric.rc_node(host),
        store,
        NvmeConfig::default(),
    );
    Bed {
        rt,
        fabric,
        host,
        ctrl,
    }
}

/// `[SQEs written, CQEs consumed, CQ slots skipped]` per queue id, off the
/// armed stream of `handle`'s runtime.
fn per_ring(handle: &simcore::Handle) -> BTreeMap<u16, [usize; 3]> {
    let mut rings = BTreeMap::new();
    for r in handle.sanitize_records() {
        let (qid, i) = match (r.cmd, r.stage) {
            (Some((qid, _)), Stage::SqeWritten { .. }) => (qid, 0),
            (Some((qid, _)), Stage::CqeConsumed { .. }) => (qid, 1),
            (_, Stage::CqeSkipped { qid, .. }) => (qid, 2),
            _ => continue,
        };
        rings.entry(qid).or_insert([0; 3])[i] += 1;
    }
    rings
}

#[test]
fn qd1_rings_once_per_command() {
    let b = bed();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    b.rt.block_on(async move {
        let drv = attach_local_driver(&fabric, host, &ctrl, LocalDriverConfig::spdk())
            .await
            .unwrap();
        let buf = fabric.alloc(host, 4096).unwrap();
        for i in 0..50u64 {
            let status = drv.io_raw(BioOp::Read, i * 8, 8, buf.addr).await.unwrap();
            assert!(status.is_success());
        }
        let t = drv.engine_totals();
        assert_eq!(t.sqes_submitted, 50);
        assert_eq!(
            t.sq_doorbells, 50,
            "a lone submitter must ring exactly once per command"
        );
        assert_eq!(t.max_batch, 1);
        assert_eq!(t.cqes_reaped, 50);
        assert!(t.cq_doorbells > 0 && t.cq_doorbells <= t.cqes_reaped);
        assert_eq!(t.doorbell_errors, 0);
        assert_eq!(t.push_errors, 0);
    });
}

#[test]
fn concurrent_submission_coalesces_doorbells() {
    let b = bed();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    let handle = b.rt.handle();
    b.rt.block_on(async move {
        let drv = attach_local_driver(&fabric, host, &ctrl, LocalDriverConfig::spdk())
            .await
            .unwrap();
        let mut tasks = Vec::new();
        for w in 0..16u64 {
            let drv = drv.clone();
            let fabric = fabric.clone();
            tasks.push(handle.spawn(async move {
                let buf = fabric.alloc(host, 4096).unwrap();
                for i in 0..10u64 {
                    let lba = (w * 10 + i) * 8;
                    drv.io_raw(BioOp::Write, lba, 8, buf.addr).await.unwrap();
                }
            }));
        }
        for t in tasks {
            t.await;
        }
        let t = drv.engine_totals();
        assert_eq!(t.sqes_submitted, 160);
        assert_eq!(t.cqes_reaped, 160);
        assert_eq!(t.doorbell_errors, 0);
        // The 16 same-instant first submissions ride one flusher; after
        // that resubmissions arrive one completion at a time.
        assert!(
            t.max_batch >= 2,
            "a same-instant burst must share a doorbell, largest batch {}",
            t.max_batch
        );
    });
}

#[test]
fn the_armed_stream_counts_the_io_ring_by_qid() {
    let _armed = simcore::sanitize::arm();
    let b = bed();
    let handle = b.rt.handle();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    b.rt.block_on(async move {
        let drv = attach_local_driver(&fabric, host, &ctrl, LocalDriverConfig::spdk())
            .await
            .unwrap();
        let buf = fabric.alloc(host, 4096).unwrap();
        drv.io_raw(BioOp::Read, 0, 8, buf.addr).await.unwrap();
        assert_eq!(drv.engine_totals().sqes_submitted, 1);
        // The local driver runs one I/O queue pair, qid 1, beside the
        // admin queue (qid 0).
        let mut rings = per_ring(&handle);
        rings.remove(&0);
        assert_eq!(rings, BTreeMap::from([(1, [1, 1, 0])]));
    });
}
