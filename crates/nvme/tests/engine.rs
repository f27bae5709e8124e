//! Engine behaviour end-to-end through a local driver: doorbell-MMIO
//! accounting. At QD=1 the engine rings exactly once per command, and
//! submitters that arrive at the same instant share one doorbell.

use std::rc::Rc;

use blklayer::BioOp;
use nvme::driver::{attach_local_driver, LocalDriverConfig};
use nvme::{BlockStore, MediaProfile, NvmeConfig, NvmeController};
use pcie::{Fabric, FabricParams, HostId};
use simcore::SimRuntime;

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
fn engine_stats_report_per_qpair() {
    let b = bed();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    b.rt.block_on(async move {
        let drv = attach_local_driver(&fabric, host, &ctrl, LocalDriverConfig::spdk())
            .await
            .unwrap();
        let buf = fabric.alloc(host, 4096).unwrap();
        drv.io_raw(BioOp::Read, 0, 8, buf.addr).await.unwrap();
        let stats = drv.engine_stats();
        assert_eq!(stats.qpairs.len(), 1, "local driver runs one I/O qpair");
        assert_eq!(stats.qpairs[0].0, 1, "I/O qpair is qid 1");
        assert_eq!(stats.totals().sqes_submitted, 1);
    });
}
