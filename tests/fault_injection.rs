//! Failure injection: drive the stack into the error paths real hardware
//! hits — bad DMA addresses, insane doorbell values, garbage in the
//! shared-memory mailbox — and check the failure is contained the way the
//! real components contain it (CFS, error statuses, ignored requests),
//! never a hang or corruption.

use std::rc::Rc;

use blklayer::{Bio, BioError, BlockDevice};
use dnvme::{ClientConfig, ClientDriver, Manager, ManagerConfig};
use nvme::driver::{attach_local_driver, LocalDriverConfig};
use nvme::spec::registers::{csts, offset, Cap};
use nvme::{BlockStore, MediaProfile, NvmeConfig, NvmeController};
use pcie::{Fabric, FabricParams, HostId};
use simcore::{SimDuration, SimRuntime};
use smartio::SmartIo;

fn local_bed() -> (SimRuntime, Fabric, HostId, Rc<NvmeController>) {
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let host = fabric.add_host(256 << 20);
    let store = Rc::new(BlockStore::new(
        rt.handle(),
        MediaProfile::optane(),
        512,
        1 << 20,
        1,
    ));
    let ctrl = NvmeController::attach(
        &fabric,
        host,
        fabric.rc_node(host),
        store,
        NvmeConfig::default(),
    );
    (rt, fabric, host, ctrl)
}

#[test]
fn insane_doorbell_value_sets_cfs() {
    let (rt, fabric, host, ctrl) = local_bed();
    let bar = fabric.bar_region(ctrl.device_id(), 0).unwrap();
    rt.block_on({
        let fabric = fabric.clone();
        async move {
            let drv = attach_local_driver(&fabric, host, &ctrl, LocalDriverConfig::spdk())
                .await
                .unwrap();
            let _ = drv;
            let cap = Cap::decode(fabric.cpu_read_u64(host, bar.addr).await.unwrap());
            // Write a tail far beyond the queue size into SQ1's doorbell.
            fabric
                .cpu_write_u32(host, bar.addr.offset(cap.sq_doorbell(1)), 0xFFFF)
                .await
                .unwrap();
            fabric.handle().sleep(SimDuration::from_micros(5)).await;
            let v = fabric
                .cpu_read_u32(host, bar.addr.offset(offset::CSTS))
                .await
                .unwrap();
            assert!(v & csts::CFS != 0, "controller must report fatal status");
        }
    });
}

#[test]
fn bad_prp_address_fails_the_command_not_the_controller() {
    // PRP pointing at unmapped bus space: the command completes with an
    // error status; other I/O continues to work.
    let (rt, fabric, host, ctrl) = local_bed();
    rt.block_on({
        let fabric = fabric.clone();
        let ctrl = ctrl.clone();
        async move {
            let drv = attach_local_driver(&fabric, host, &ctrl, LocalDriverConfig::spdk())
                .await
                .unwrap();
            // 0x10 is mapped to nothing in any domain.
            let status = drv
                .io_raw(blklayer::BioOp::Read, 0, 8, pcie::PhysAddr(0x10))
                .await
                .unwrap();
            assert!(!status.is_success(), "unmapped PRP must fail the command");
            // The controller survives: a good I/O still completes.
            let buf = fabric.alloc(host, 4096).unwrap();
            drv.submit(Bio::read(0, 8, buf)).await.unwrap();
        }
    });
    assert_eq!(ctrl.stats().errors_returned, 1);
}

#[test]
fn unaligned_prp_list_entry_rejected_by_controller() {
    use nvme::spec::command::SqEntry;
    // Hand-craft a command whose PRP2 list contains an unaligned entry.
    let (rt, fabric, host, ctrl) = local_bed();
    rt.block_on({
        let fabric = fabric.clone();
        async move {
            let drv = attach_local_driver(&fabric, host, &ctrl, LocalDriverConfig::spdk())
                .await
                .unwrap();
            let data = fabric.alloc(host, 64 << 10).unwrap();
            let list = fabric.alloc(host, 4096).unwrap();
            // List entries deliberately offset by 4 bytes.
            let entries: Vec<u8> = (1..16u64)
                .flat_map(|i| (data.addr.as_u64() + i * 4096 + 4).to_le_bytes())
                .collect();
            fabric.mem_write(host, list.addr, &entries).unwrap();
            let _sqe = SqEntry::read(0, 1, 0, 127, data.addr, list.addr);
            // Issue through the raw path by borrowing the driver's own
            // machinery: io_raw builds its own PRPs, so instead drive the
            // ring directly is overkill — the controller-side check is
            // covered by unit tests; here we assert the driver-side
            // builder never produces such lists (defense in depth).
            let set = nvme::spec::prp::build_prps(data.addr, 64 << 10, list.addr).unwrap();
            assert!(set.list.iter().all(|e| e.align_offset(4096) == 0));
            let _ = drv;
        }
    });
}

#[test]
fn garbage_in_mailbox_is_ignored() {
    // A confused (or malicious) host scribbles junk into its mailbox slot:
    // the manager must ignore it and keep serving real clients.
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let sw = fabric.add_switch("sw");
    let mut hosts = Vec::new();
    for _ in 0..3 {
        let h = fabric.add_host(128 << 20);
        let ntb = fabric.add_ntb(h, 2 << 20, 128);
        fabric.link(fabric.ntb_node(ntb), sw);
        hosts.push(h);
    }
    let dev_host = hosts[2];
    let store = Rc::new(BlockStore::new(
        rt.handle(),
        MediaProfile::optane(),
        512,
        1 << 20,
        2,
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
    rt.block_on({
        let smartio = smartio.clone();
        let fabric = fabric.clone();
        async move {
            let mgr = Manager::start(&smartio, dev, dev_host, ManagerConfig::default())
                .await
                .unwrap();
            // Host 1 scribbles garbage (valid seq words, bogus opcode;
            // then a torn write).
            let mbox = smartio
                .map_for_cpu(hosts[1], smartio::SegmentId(mgr.metadata.mailbox_segment))
                .unwrap();
            let slot = mbox.region.addr.offset(hosts[1].0 as u64 * 64);
            let mut junk = [0u8; 64];
            junk[0..4].copy_from_slice(&7u32.to_le_bytes());
            junk[4..8].copy_from_slice(&7u32.to_le_bytes());
            junk[8..12].copy_from_slice(&0xDEADu32.to_le_bytes()); // bogus opcode
            fabric.cpu_write(hosts[1], slot, &junk).await.unwrap();
            let mut torn = [0xFFu8; 64]; // seq words disagree
            torn[0] = 1;
            fabric.cpu_write(hosts[1], slot, &torn).await.unwrap();
            fabric.handle().sleep(SimDuration::from_micros(50)).await;
            // A legitimate client on host 0 still connects and works.
            let drv = ClientDriver::connect(&smartio, dev, hosts[0], ClientConfig::default())
                .await
                .unwrap();
            let buf = fabric.alloc(hosts[0], 4096).unwrap();
            drv.submit(Bio::write(0, 8, buf)).await.unwrap();
            assert_eq!(mgr.stats().qpairs_created, 1);
            assert_eq!(
                mgr.stats().requests_rejected,
                0,
                "garbage must not consume qids"
            );
        }
    });
}

#[test]
fn oversized_bio_rejected_cleanly_everywhere() {
    // A 2 MiB request exceeds both the client partition and the NVMe-oF
    // max I/O: every stack refuses without side effects.
    use cluster::{Calibration, Scenario, ScenarioKind};
    for kind in [
        ScenarioKind::OursRemote { switches: 1 },
        ScenarioKind::NvmfRemote,
    ] {
        let calib = Calibration::paper();
        let _armed = simcore::sanitize::arm();
        let sc = Scenario::build(kind, &calib);
        let (host, dev) = sc.clients[0].clone();
        let fabric = sc.fabric.clone();
        let label = sc.label.clone();
        let err = sc.rt.block_on(async move {
            let buf = fabric.alloc(host, 2 << 20).unwrap();
            dev.submit(Bio::read(0, 4096, buf)).await.unwrap_err()
        });
        assert!(matches!(err, BioError::TooLarge { .. }), "{label}: {err}");
        assert_eq!(
            sc.ctrl.stats().errors_returned,
            0,
            "{label}: must not reach the device"
        );
        assert_eq!(sc.rt.sanitize_violations(), [], "{label}");
    }
}

#[test]
fn dropped_cqe_recovers_through_the_abort_ladder() {
    // Drop the first CQE the device posts after bring-up. The client's
    // per-command deadline expires, doorbell re-rings go unanswered (the
    // controller already completed the command), the Abort RPC reports
    // "already completed", and the ladder recreates the queue pair and
    // resubmits — the I/O ultimately *succeeds*, with every escalation
    // visible in the counters and no hang anywhere.
    use cluster::{Calibration, Scenario, ScenarioKind};
    use pcie::FaultPlan;
    let calib = Calibration::fault_recovery();
    let _armed = simcore::sanitize::arm();
    let sc = Scenario::build_with_faults(
        ScenarioKind::OursRemote { switches: 1 },
        &calib,
        FaultPlan::drop_nth_cqe(0),
    );
    let (host, dev) = sc.clients[0].clone();
    let fabric = sc.fabric.clone();
    sc.rt.block_on(async move {
        let buf = fabric.alloc(host, 4096).unwrap();
        dev.submit(Bio::read(0, 8, buf)).await.unwrap();
    });
    assert_eq!(sc.fabric.fault_stats().dropped, 1, "the plan must fire");
    let cs = sc.client_drivers()[0].stats();
    assert!(cs.recoveries >= 1, "deadline must trip: {cs:?}");
    assert!(cs.aborts_requested >= 1, "abort rung must run: {cs:?}");
    assert!(cs.qpairs_recreated >= 1, "recreate rung must run: {cs:?}");
    assert_eq!(cs.resets_requested, 0, "ladder must stop before reset");
    let ms = sc.manager().unwrap().stats();
    assert!(
        ms.aborts_issued >= 1,
        "manager must issue the abort: {ms:?}"
    );
    // The lost CQE and the whole recovery ladder are protocol-clean: the
    // dropped write is forgotten, not left pending or "observed".
    assert_eq!(sc.rt.sanitize_violations(), []);
}

/// Two rings striped by cid under one engine, `lanes` submitters of three
/// reads each at `queue_depth = lanes`, the first CQE dropped. Returns the
/// scenario and every read's result, lane-major.
fn drop_first_cqe_on_two_rings(lanes: u64) -> (cluster::Scenario, Vec<Result<(), BioError>>) {
    use cluster::{Calibration, Scenario, ScenarioKind};
    use pcie::FaultPlan;
    let mut calib = Calibration::fault_recovery();
    calib.client.num_qpairs = 2;
    calib.client.queue_depth = lanes as usize;
    let sc = Scenario::build_with_faults(
        ScenarioKind::OursRemote { switches: 1 },
        &calib,
        FaultPlan::drop_nth_cqe(0),
    );
    let (host, dev) = sc.clients[0].clone();
    let fabric = sc.fabric.clone();
    let handle = sc.rt.handle();
    let results = sc.rt.block_on(async move {
        let lanes: Vec<_> = (0..lanes)
            .map(|lane| {
                let dev = dev.clone();
                let buf = fabric.alloc(host, 4096).unwrap();
                handle.spawn(async move {
                    let mut results = Vec::new();
                    for i in 0..3 {
                        results.push(dev.submit(Bio::read((lane * 3 + i) * 8, 8, buf)).await);
                    }
                    results
                })
            })
            .collect();
        let mut results = Vec::new();
        for lane in lanes {
            results.extend(lane.await);
        }
        results
    });
    assert_eq!(sc.fabric.fault_stats().dropped, 1, "the plan must fire");
    (sc, results)
}

#[test]
fn dropped_cqe_on_one_ring_leaves_the_sibling_ring_untouched() {
    // Two submitters keep both rings busy when the first CQE is dropped:
    // the ring that lost it climbs the ladder once — abort, `reset_qpair`,
    // recreate — while the sibling ring, sharing the engine's tag set and
    // flusher state, keeps reaping its own completions. Every read
    // succeeds and the checker (race detector, protocol checks, lifecycle
    // FSM) has nothing to say.
    let _armed = simcore::sanitize::arm();
    let (sc, results) = drop_first_cqe_on_two_rings(2);
    assert_eq!(results, vec![Ok(()); 6]);
    let drv = sc.client_drivers()[0].clone();
    let cs = drv.stats();
    assert_eq!(
        (cs.recoveries, cs.aborts_requested, cs.qpairs_recreated),
        (1, 1, 1),
        "{cs:?}"
    );
    assert_eq!(cs.resets_requested, 0, "ladder must stop before reset");
    let rings = drv.qpair_stats().qpairs;
    assert_eq!(rings.len(), 2);
    let (hit, sibling): (Vec<_>, Vec<_>) = rings.iter().partition(|(_, s)| s.timeouts > 0);
    assert_eq!((hit.len(), sibling.len()), (1, 1), "{rings:?}");
    let (_, s) = sibling[0];
    assert_eq!((s.sqes_submitted, s.cqes_reaped), (3, 3), "{rings:?}");
    assert_eq!(sc.rt.sanitize_violations(), []);
}

#[test]
fn one_climber_per_ring_when_two_commands_lose_the_same_cqe_slot() {
    // Four submitters, two commands in flight per ring. The dropped CQE
    // stalls its ring's consumer, so *both* of that ring's commands run
    // out their deadline and enter the ladder. One climbs (abort, delete,
    // recreate); the other waits for that verdict, finds the ring rebuilt
    // and goes straight to its one resubmission. Left to climb side by
    // side their delete/recreate RPCs collide and one lost TLP ends in a
    // controller reset, which revokes every host's queue pairs.
    let _armed = simcore::sanitize::arm();
    let (sc, results) = drop_first_cqe_on_two_rings(4);
    assert_eq!(results, vec![Ok(()); 12]);
    let cs = sc.client_drivers()[0].stats();
    assert_eq!(
        (cs.recoveries, cs.aborts_requested, cs.qpairs_recreated),
        (2, 1, 1),
        "{cs:?}"
    );
    assert_eq!(cs.resets_requested, 0, "ladder must stop before reset");
    assert_eq!(sc.rt.sanitize_violations(), []);
}

#[test]
fn severed_ntb_surfaces_typed_errors_and_detaches() {
    // A full cable pull between the client adapter and the switch: every
    // outstanding and future access through the window fails. The client
    // must observe typed BioErrors — never hang — and disconnect must
    // terminate (best-effort, reporting the failure).
    use cluster::{Calibration, Scenario, ScenarioKind};
    use pcie::SeverMode;
    let calib = Calibration::fault_recovery();
    let cmd_timeout = calib.client.cmd_timeout.unwrap();
    let _armed = simcore::sanitize::arm();
    let sc = Scenario::build(ScenarioKind::OursRemote { switches: 1 }, &calib);
    let (host, dev) = sc.clients[0].clone();
    let ntb = sc.client_ntbs[0];
    let drv = sc.client_drivers()[0].clone();
    let fabric = sc.fabric.clone();
    let handle = sc.rt.handle();
    let (burst, io_err, prompt, detach) = sc.rt.block_on(async move {
        // Sanity: the path works before the pull.
        let buf = fabric.alloc(host, 4096).unwrap();
        dev.submit(Bio::write(0, 8, buf)).await.unwrap();
        // A QD 8 burst is in flight when the cable goes. All eight leave
        // the submission overhead together and one becomes the flusher;
        // 400 ns later it is mid-batch — some SQEs written, the rest not,
        // no doorbell yet — so the pull hits both of its error arms.
        let burst: Vec<_> = (0..8u64)
            .map(|lane| {
                let dev = dev.clone();
                let buf = fabric.alloc(host, 4096).unwrap();
                handle.spawn(async move { dev.submit(Bio::write(lane * 8, 8, buf)).await })
            })
            .collect();
        let mid_flush = drv.config().submission_overhead + SimDuration::from_nanos(400);
        handle.sleep(mid_flush).await;
        fabric.sever_ntb_now(ntb, SeverMode::Both);
        let mut results = Vec::new();
        for j in burst {
            results.push(j.await);
        }
        // The burst released the flusher role on its way out: a further
        // submit reaches the (dead) ring itself and fails at once, rather
        // than parking in the backlog behind a stuck `flushing` flag until
        // its deadline.
        let t0 = handle.now();
        let io_err = dev.submit(Bio::write(0, 8, buf)).await.unwrap_err();
        let prompt = handle.now().since(t0) < cmd_timeout;
        // A refused store occupies no ring slot: a client that keeps
        // submitting into the dead link gets a typed error every time,
        // well past the ring's capacity — never the full-ring assert.
        for _ in 0..2 * drv.config().queue_entries {
            dev.submit(Bio::write(0, 8, buf)).await.unwrap_err();
        }
        let detach = drv.disconnect().await;
        (results, io_err, prompt, detach)
    });
    for r in burst.into_iter().chain([Err(io_err)]) {
        match r {
            Err(BioError::DeviceError(_) | BioError::Timeout { .. } | BioError::Gone) => {}
            other => panic!("expected a typed fabric/timeout error, got {other:?}"),
        }
    }
    assert!(prompt, "post-burst submit parked behind the flusher flag");
    let engine = sc.client_drivers()[0].qpair_stats().totals();
    assert!(
        engine.push_errors > 0 && engine.doorbell_errors > 0,
        "the pull must land mid-flush (failed pushes and a failed ring): {engine:?}"
    );
    assert!(
        detach.is_err(),
        "disconnect over a severed link must report the failure"
    );
    assert!(
        sc.fabric.fault_stats().refused > 0,
        "severed link must refuse accesses"
    );
    // Refused accesses never enter the fabric, so even a mid-flush cable
    // pull leaves no race and no write pending forever.
    assert_eq!(sc.rt.sanitize_violations(), []);
}

#[test]
fn crashed_client_is_reaped_and_its_qpairs_reused() {
    // Lease protocol end-to-end: a client connects (heartbeating), does
    // I/O, and crashes without disconnecting. The manager's reaper notices
    // the silent lease, admin-deletes the client's queues, frees its qids
    // and mailbox state, and purges its SmartIO footprint — so a second
    // client can connect and be granted the very same queue pair.
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let sw = fabric.add_switch("sw");
    let mut hosts = Vec::new();
    for _ in 0..3 {
        let h = fabric.add_host(256 << 20);
        let ntb = fabric.add_ntb(h, 2 << 20, 128);
        fabric.link(fabric.ntb_node(ntb), sw);
        hosts.push(h);
    }
    let dev_host = hosts[2];
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
    let dev = smartio.register_device(ctrl.device_id()).unwrap();
    let lease = SimDuration::from_micros(300);
    let client_cfg = ClientConfig {
        cmd_timeout: Some(SimDuration::from_micros(200)),
        mailbox_timeout: Some(SimDuration::from_micros(500)),
        ..ClientConfig::default()
    };
    rt.block_on({
        let smartio = smartio.clone();
        let fabric = fabric.clone();
        async move {
            let mgr = Manager::start(
                &smartio,
                dev,
                dev_host,
                ManagerConfig {
                    lease: Some(lease),
                    ..ManagerConfig::default()
                },
            )
            .await
            .unwrap();
            let a = ClientDriver::connect(&smartio, dev, hosts[0], client_cfg.clone())
                .await
                .unwrap();
            let qids_a = a.qids();
            let buf = fabric.alloc(hosts[0], 4096).unwrap();
            a.submit(Bio::write(0, 8, buf)).await.unwrap();
            // Outlive a few heartbeat intervals to prove the lease holds
            // while the client is alive...
            fabric.handle().sleep(lease * 4).await;
            assert_eq!(mgr.stats().clients_evicted, 0, "live client evicted");
            assert!(a.stats().heartbeats_sent > 0, "client must heartbeat");
            // ...then pull the power.
            fabric.crash_host_now(hosts[0]);
            fabric.handle().sleep(lease * 4).await;
            let ms = mgr.stats();
            assert_eq!(ms.clients_evicted, 1, "crashed client not reaped: {ms:?}");
            assert_eq!(
                ms.qpairs_reclaimed,
                qids_a.len() as u64,
                "all of the crashed client's qpairs must be reclaimed"
            );
            assert_eq!(mgr.qpairs_in_use(), 0);
            // A fresh client on another host gets the reclaimed qid back.
            let b = ClientDriver::connect(&smartio, dev, hosts[1], client_cfg)
                .await
                .unwrap();
            assert_eq!(b.qids(), qids_a, "reclaimed qids must be reusable");
            let buf = fabric.alloc(hosts[1], 4096).unwrap();
            b.submit(Bio::write(8, 8, buf)).await.unwrap();
            b.disconnect().await.unwrap();
        }
    });
}

#[test]
fn torn_slot_never_decodes() {
    // Property: flipping the first seq word of any valid message makes it
    // undecodable (the torn-write guard).
    use dnvme::proto::{Request, SlotMessage};
    for seq in [1u32, 2, 77, u32::MAX - 1] {
        let msg = SlotMessage {
            seq,
            retry: 0,
            request: Request::CreateQp {
                entries: 64,
                sq_bus: pcie::PhysAddr(0x123),
                cq_bus: pcie::PhysAddr(0x456),
                response_segment: 9,
                iv: None,
                want_qid: 0,
            },
        };
        let mut raw = msg.encode();
        raw[0] ^= 0x01;
        assert_eq!(SlotMessage::decode(&raw), None);
    }
}

#[test]
fn duplicated_page_payload_is_oracle_and_hb_clean() {
    // `f1:dup@0/d2h`: the first device-to-host posted write after the plan
    // is installed — the 4 KiB data page of the read below, which travels
    // as one shared page — is delivered twice. The second application
    // adopts the same page again: same bytes, one checker token, nothing
    // for the lifecycle FSM or the race detector to object to.
    use cluster::{Calibration, Scenario, ScenarioKind};
    use pcie::FaultPlan;
    let _armed = simcore::sanitize::arm();
    let sc = Scenario::build(
        ScenarioKind::OursRemote { switches: 1 },
        &Calibration::paper(),
    );
    let (host, dev) = sc.clients[0].clone();
    let fabric = sc.fabric.clone();
    sc.rt.block_on(async move {
        let buf = fabric.alloc(host, 4096).unwrap();
        fabric.mem_write(host, buf.addr, &[0x6B; 4096]).unwrap();
        dev.submit(Bio::write(64, 8, buf)).await.unwrap();
        fabric.mem_write(host, buf.addr, &[0; 4096]).unwrap();
        fabric.set_fault_plan(FaultPlan::parse("f1:dup@0/d2h").unwrap());
        dev.submit(Bio::read(64, 8, buf)).await.unwrap();
        assert_eq!(fabric.fault_stats().duplicated, 1, "the plan must fire");
        let page = fabric.mem_snapshot(host, buf.addr, 4096).unwrap();
        assert_eq!(page.to_vec(), [0x6B; 4096]);
        // A further I/O on the same queue is unaffected.
        dev.submit(Bio::read(0, 8, buf)).await.unwrap();
    });
    assert_eq!(sc.rt.sanitize_violations(), []);
}
