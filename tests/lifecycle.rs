//! Device lifecycle across the whole stack: borrowing discipline,
//! queue-pair churn, controller reset behavior, and manager placement.

use blklayer::{Bio, BlockDevice};
use cluster::{Calibration, Scenario, ScenarioKind};
use dnvme::{ClientConfig, ClientDriver, Manager, ManagerConfig};
use nvme::{BlockStore, MediaProfile, NvmeConfig, NvmeController};
use pcie::{Fabric, FabricParams};
use simcore::{Handle, SimRuntime, Stage};
use smartio::{BorrowMode, SmartIo};
use std::rc::Rc;

/// Records of `stage` on `handle`'s armed stream.
fn recorded(handle: &Handle, stage: Stage) -> usize {
    let records = handle.sanitize_records();
    records.iter().filter(|r| r.stage == stage).count()
}

fn star_cluster(
    hosts: usize,
) -> (
    SimRuntime,
    Fabric,
    SmartIo,
    Vec<pcie::HostId>,
    Rc<NvmeController>,
) {
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let sw = fabric.add_switch("sw");
    let mut hs = Vec::new();
    for _ in 0..hosts {
        let h = fabric.add_host(256 << 20);
        let ntb = fabric.add_ntb(h, 2 << 20, 128);
        fabric.link(fabric.ntb_node(ntb), sw);
        hs.push(h);
    }
    let dev_host = *hs.last().unwrap();
    let store = Rc::new(BlockStore::new(
        rt.handle(),
        MediaProfile::optane(),
        512,
        1 << 20,
        3,
    ));
    let ctrl = NvmeController::attach(
        &fabric,
        dev_host,
        fabric.rc_node(dev_host),
        store,
        NvmeConfig::default(),
    );
    let smartio = SmartIo::new(&fabric);
    smartio.register_device(ctrl.device_id()).unwrap();
    (rt, fabric, smartio, hs, ctrl)
}

#[test]
fn manager_can_run_on_a_third_host() {
    // Device in host 2, manager on host 0, client on host 1: three
    // different machines, queues and data crossing two NTB paths.
    let _armed = simcore::sanitize::arm();
    let (rt, fabric, smartio, hosts, _ctrl) = star_cluster(3);
    let dev = smartio.devices()[0];
    let ok = rt.block_on({
        let smartio = smartio.clone();
        let fabric = fabric.clone();
        async move {
            let _mgr = Manager::start(&smartio, dev, hosts[0], ManagerConfig::default())
                .await
                .unwrap();
            let drv = ClientDriver::connect(&smartio, dev, hosts[1], ClientConfig::default())
                .await
                .unwrap();
            let buf = fabric.alloc(hosts[1], 4096).unwrap();
            fabric
                .mem_write(hosts[1], buf.addr, &[0x77u8; 4096])
                .unwrap();
            drv.submit(Bio::write(0, 8, buf)).await.unwrap();
            drv.submit(Bio::read(0, 8, buf)).await.unwrap();
            let mut out = vec![0u8; 4096];
            fabric.mem_read(hosts[1], buf.addr, &mut out).unwrap();
            out.iter().all(|&b| b == 0x77)
        }
    });
    assert!(ok);
    assert!(recorded(&rt.handle(), Stage::MediaRead) >= 1);
}

#[test]
fn second_manager_is_locked_out_during_bringup_race() {
    // While one manager holds the device (shared after bring-up), another
    // exclusive acquisition must fail — no two admin queue owners.
    let (rt, _fabric, smartio, hosts, _ctrl) = star_cluster(2);
    let dev = smartio.devices()[0];
    rt.block_on({
        let smartio = smartio.clone();
        async move {
            let _mgr = Manager::start(&smartio, dev, hosts[1], ManagerConfig::default())
                .await
                .unwrap();
            // A second manager would start with an exclusive acquire.
            let res = smartio.acquire(dev, hosts[0], BorrowMode::Exclusive);
            assert!(matches!(res, Err(smartio::SmartIoError::Busy(_))));
        }
    });
}

#[test]
fn qpair_churn_reuses_resources() {
    // Connect/disconnect repeatedly: queue ids, LUT slots and segments
    // must all recycle (far more cycles than any single pool holds). Each
    // connection on the host is handed the memory of the last one's
    // rings, so two cycles out of three run byte-verified I/O: one after
    // an I/O cycle meets the CQEs it left in that memory (a new CQ ring
    // must be wiped), one after an idle cycle shares slot 0 with its
    // poller (a disconnect must stop polling).
    let _armed = simcore::sanitize::arm();
    let (rt, fabric, smartio, hosts, ctrl) = star_cluster(2);
    let dev = smartio.devices()[0];
    rt.block_on({
        let smartio = smartio.clone();
        async move {
            let mgr = Manager::start(&smartio, dev, hosts[1], ManagerConfig::default())
                .await
                .unwrap();
            let (wbuf, rbuf) = (
                fabric.alloc(hosts[0], 4096).unwrap(),
                fabric.alloc(hosts[0], 4096).unwrap(),
            );
            for cycle in 0..40u64 {
                let drv = ClientDriver::connect(&smartio, dev, hosts[0], ClientConfig::default())
                    .await
                    .unwrap_or_else(|e| panic!("cycle {cycle}: {e}"));
                for pair in (0..4).filter(|_| cycle % 3 != 0) {
                    let tag = (cycle * 4 + pair) as u8;
                    let data: Vec<u8> = (0..4096u32).map(|b| (b as u8) ^ tag).collect();
                    fabric.mem_write(hosts[0], wbuf.addr, &data).unwrap();
                    drv.submit(Bio::write(pair * 8, 8, wbuf)).await.unwrap();
                    drv.submit(Bio::read(pair * 8, 8, rbuf)).await.unwrap();
                    let mut out = vec![0u8; 4096];
                    fabric.mem_read(hosts[0], rbuf.addr, &mut out).unwrap();
                    assert!(out == data, "cycle {cycle} pair {pair}: bytes differ");
                }
                drv.disconnect().await.unwrap();
            }
            assert_eq!(mgr.qpairs_in_use(), 0);
            assert_eq!(mgr.stats().qpairs_created, 40);
            assert_eq!(mgr.stats().qpairs_deleted, 40);
        }
    });
    assert_eq!(ctrl.live_io_queues(), 0);
    assert_eq!(rt.sanitize_violations(), []);
}

#[test]
fn controller_reset_tears_down_queues() {
    // CC.EN=0 must kill every queue; CSTS.RDY drops.
    use nvme::spec::registers::{csts, offset};
    let _armed = simcore::sanitize::arm();
    let (rt, fabric, smartio, hosts, ctrl) = star_cluster(2);
    let dev = smartio.devices()[0];
    rt.block_on({
        let smartio = smartio.clone();
        let fabric = fabric.clone();
        async move {
            let _mgr = Manager::start(&smartio, dev, hosts[1], ManagerConfig::default())
                .await
                .unwrap();
            let _drv = ClientDriver::connect(&smartio, dev, hosts[0], ClientConfig::default())
                .await
                .unwrap();
            assert_eq!(ctrl.live_io_queues(), 1);
            // Reset from the device host (directly on the BAR).
            let bar = fabric.bar_region(ctrl.device_id(), 0).unwrap();
            fabric
                .cpu_write_u32(hosts[1], bar.addr.offset(offset::CC), 0)
                .await
                .unwrap();
            fabric
                .handle()
                .sleep(simcore::SimDuration::from_micros(100))
                .await;
            let v = fabric
                .cpu_read_u32(hosts[1], bar.addr.offset(offset::CSTS))
                .await
                .unwrap();
            assert_eq!(v & csts::RDY, 0, "controller must drop ready");
            assert_eq!(ctrl.live_io_queues(), 0, "queues must be torn down");
            assert!(recorded(&fabric.handle(), Stage::ControllerReset) >= 1);
        }
    });
}

#[test]
fn scenario_exposes_driver_handles() {
    let calib = Calibration::paper();
    let sc = Scenario::build(ScenarioKind::OursMultihost { clients: 2 }, &calib);
    assert!(sc.smartio().is_some());
    assert!(sc.manager().is_some());
    assert_eq!(sc.client_drivers().len(), 2);
    assert_eq!(sc.manager().unwrap().qpairs_in_use(), 2);
    // Baselines have no SmartIO machinery.
    let linux = Scenario::build(ScenarioKind::LinuxLocal, &calib);
    assert!(linux.smartio().is_none());
    assert!(linux.client_drivers().is_empty());
}

#[test]
fn dropped_scenario_frees_controller_and_fabric() {
    // The fabric owns the controller (its MMIO handler), so the controller
    // may only reach the fabric weakly: a strong handle back would keep
    // both — the block store and every host's DRAM with them — alive after
    // the scenario is gone, once per explored schedule or benchmark
    // repetition.
    for kind in [
        ScenarioKind::LinuxLocal,
        ScenarioKind::NvmfRemote,
        ScenarioKind::OursLocal,
        ScenarioKind::OursRemote { switches: 1 },
        ScenarioKind::OursMultihost { clients: 2 },
    ] {
        let sc = Scenario::build(kind, &Calibration::paper());
        let label = sc.label.clone();
        let (host, dev) = sc.clients[0].clone();
        let fabric = sc.fabric.clone();
        sc.rt.block_on(async move {
            let buf = fabric.alloc(host, 4096).unwrap();
            dev.submit(Bio::read(0, 8, buf)).await.unwrap();
        });
        let ctrl = Rc::downgrade(&sc.ctrl);
        let fabric = sc.fabric.downgrade();
        drop(sc);
        assert!(ctrl.upgrade().is_none(), "{label}: controller leaked");
        assert!(fabric.upgrade().is_none(), "{label}: fabric leaked");
    }
}
