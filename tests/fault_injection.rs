//! Failure injection: drive the stack into the error paths real hardware
//! hits — bad DMA addresses, insane doorbell values, garbage in the
//! shared-memory mailbox — and check the failure is contained the way the
//! real components contain it (CFS, error statuses, ignored requests),
//! never a hang or corruption.

use std::collections::BTreeMap;
use std::rc::Rc;

use blklayer::{Bio, BioError, BlockDevice};
use dnvme::{ClientConfig, ClientDriver, Manager, ManagerConfig};
use nvme::driver::{attach_local_driver, LocalDriverConfig};
use nvme::spec::registers::{csts, offset, Cap};
use nvme::{BlockStore, MediaProfile, NvmeConfig, NvmeController};
use pcie::{Fabric, FabricParams, HostId};
use simcore::{SimDuration, SimRuntime, Stage};
use smartio::SmartIo;

/// Records of `stage` on the armed stream of `fabric`'s runtime: faults
/// fired, controller resets.
fn injected(fabric: &Fabric, stage: Stage) -> usize {
    let records = fabric.handle().sanitize_records();
    records.iter().filter(|r| r.stage == stage).count()
}

/// CQ slots the client rings stepped over as lost, on the armed stream of
/// `fabric`'s runtime.
fn skipped(fabric: &Fabric) -> usize {
    let records = fabric.handle().sanitize_records();
    let skip = |r: &&simcore::Record| matches!(r.stage, Stage::CqeSkipped { .. });
    records.iter().filter(skip).count()
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
    // A 2 MiB request exceeds the client partition (128 KiB), the NVMe-oF
    // max I/O (128 KiB) and the local driver's max transfer (1 MiB): every
    // stack refuses without side effects.
    use cluster::{Calibration, Scenario, ScenarioKind};
    for kind in [
        ScenarioKind::LinuxLocal,
        ScenarioKind::OursLocal,
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
fn a_lost_sq_doorbell_is_recovered_by_the_re_ring_alone() {
    // Drop the first host-to-device write after bring-up: the read's SQ
    // tail doorbell. The controller never learns of the command, so the
    // first deadline expires and rung 1 re-rings the doorbell; the
    // controller fetches, and the read completes without climbing further.
    use cluster::{Calibration, Scenario, ScenarioKind};
    use pcie::FaultPlan;
    let calib = Calibration::fault_recovery();
    let _armed = simcore::sanitize::arm();
    let sc = Scenario::build(ScenarioKind::OursRemote { switches: 1 }, &calib);
    sc.fabric
        .set_fault_plan(FaultPlan::parse("f1:drop@0/h2d").unwrap());
    let (host, dev) = sc.clients[0].clone();
    let fabric = sc.fabric.clone();
    let handle = sc.rt.handle();
    let (read, took) = sc.rt.block_on(async move {
        let buf = fabric.alloc(host, 4096).unwrap();
        let start = handle.now();
        let read = dev.submit(Bio::read(0, 8, buf)).await;
        (read, handle.now().since(start))
    });
    assert_eq!(read, Ok(()));
    assert_eq!(
        injected(&sc.fabric, Stage::FaultDropped),
        1,
        "the plan must fire"
    );
    let cs = sc.client_drivers()[0].stats();
    assert_eq!(cs.recoveries, 0, "{cs:?}");
    assert_eq!(sc.rt.sanitize_violations(), []);
    // One 200 µs deadline, then the re-rung read.
    assert_eq!(took.as_nanos(), 217_062, "the recovered read's latency");
}

#[test]
fn a_lost_cqe_heals_on_the_clients_own_ring() {
    // Drop the first CQE the device posts after bring-up. The client's
    // per-command deadline expires, doorbell re-rings go unanswered (the
    // controller already completed the command), and rung 2 resubmits
    // under a fresh cid. That CQE lands one slot past the lost one, which
    // proves the loss: the ring steps over the gap and the read
    // *succeeds*. Nothing reaches the manager or the admin queue.
    use cluster::{Calibration, Scenario, ScenarioKind};
    use pcie::FaultPlan;
    let calib = Calibration::fault_recovery();
    let _armed = simcore::sanitize::arm();
    let sc = Scenario::build(ScenarioKind::OursRemote { switches: 1 }, &calib);
    let bring_up_resets = injected(&sc.fabric, Stage::ControllerReset);
    let installed = sc.rt.handle().sanitize_records().len();
    sc.fabric.set_fault_plan(FaultPlan::drop_nth_cqe(0));
    let (host, dev) = sc.clients[0].clone();
    let fabric = sc.fabric.clone();
    let handle = sc.rt.handle();
    let took = sc.rt.block_on(async move {
        let buf = fabric.alloc(host, 4096).unwrap();
        let start = handle.now();
        dev.submit(Bio::read(0, 8, buf)).await.unwrap();
        handle.now().since(start)
    });
    assert_eq!(
        injected(&sc.fabric, Stage::FaultDropped),
        1,
        "the plan must fire"
    );
    // The heal costs an exact simulated time: rung 1's deadlines and
    // re-rings, then the resubmission. Any wait added on the ladder moves
    // it; update it with the change that does.
    assert_eq!(took.as_nanos(), 1_417_173, "the recovered read's latency");
    let cs = sc.client_drivers()[0].stats();
    assert_eq!(cs.recoveries, 1, "{cs:?}");
    assert_eq!(skipped(&sc.fabric), 1, "one lost slot stepped over");
    let records = &sc.rt.handle().sanitize_records()[installed..];
    let manager_side = |r: &&simcore::Record| {
        r.cmd.is_some_and(|(qid, _)| qid == 0)
            || matches!(
                r.stage,
                Stage::SqDoorbell { qid: 0, .. }
                    | Stage::CqHeadDoorbell { qid: 0, .. }
                    | Stage::QueueDeleted { .. }
            )
    };
    let touched: Vec<_> = records.iter().filter(manager_side).collect();
    assert_eq!(touched, Vec::<&simcore::Record>::new(), "no admin command");
    assert_eq!(
        injected(&sc.fabric, Stage::ControllerReset),
        bring_up_resets,
        "no controller reset after bring-up"
    );
    // The lost CQE and the heal are protocol-clean: the dropped write is
    // forgotten, not left pending or "observed", and its cid is retired
    // by the skip.
    assert_eq!(sc.rt.sanitize_violations(), []);
}

#[test]
fn a_late_cqe_is_never_skipped() {
    // Hold the read's CQE for 2 ms, past rung 1's 1.4 ms budget. The read
    // times out and goes out again under a fresh cid. The held CQE keeps
    // every later posted write to the client behind it, so the ring never
    // sees a current-phase entry past a stale head: the late CQE lands in
    // its own slot and is consumed as stale, and the resubmission's CQE
    // completes the read. Nothing is stepped over.
    use cluster::{Calibration, Scenario, ScenarioKind};
    use pcie::FaultPlan;
    let _armed = simcore::sanitize::arm();
    let sc = Scenario::build(
        ScenarioKind::OursRemote { switches: 1 },
        &Calibration::fault_recovery(),
    );
    sc.fabric
        .set_fault_plan(FaultPlan::parse("f1:delay@0/cqe/2000000").unwrap());
    let (host, dev) = sc.clients[0].clone();
    let fabric = sc.fabric.clone();
    let read = sc.rt.block_on(async move {
        let buf = fabric.alloc(host, 4096).unwrap();
        dev.submit(Bio::read(0, 8, buf)).await
    });
    assert_eq!(read, Ok(()));
    assert_eq!(
        injected(&sc.fabric, Stage::FaultDelayed),
        1,
        "the plan must fire"
    );
    assert_eq!(sc.client_drivers()[0].stats().recoveries, 1);
    assert_eq!(skipped(&sc.fabric), 0, "a late CQE was stepped over");
    assert_eq!(sc.rt.sanitize_violations(), []);
}

/// Two rings striped by cid under one engine, `lanes` submitters of three
/// reads each at `queue_depth = lanes`, the first CQE dropped. Returns the
/// scenario and every read's result, lane-major, after checking that the
/// plan fired and that no controller reset followed bring-up.
fn drop_first_cqe_on_two_rings(lanes: u64) -> (cluster::Scenario, Vec<Result<(), BioError>>) {
    use cluster::{Calibration, Scenario, ScenarioKind};
    use pcie::FaultPlan;
    let mut calib = Calibration::fault_recovery();
    calib.client.num_qpairs = 2;
    calib.client.queue_depth = lanes as usize;
    let sc = Scenario::build(ScenarioKind::OursRemote { switches: 1 }, &calib);
    let bring_up_resets = injected(&sc.fabric, Stage::ControllerReset);
    sc.fabric.set_fault_plan(FaultPlan::drop_nth_cqe(0));
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
    assert_eq!(
        injected(&sc.fabric, Stage::FaultDropped),
        1,
        "the plan must fire"
    );
    assert_eq!(
        injected(&sc.fabric, Stage::ControllerReset),
        bring_up_resets,
        "no controller reset after bring-up"
    );
    (sc, results)
}

#[test]
fn dropped_cqe_on_one_ring_leaves_the_sibling_ring_untouched() {
    // Two submitters keep both rings busy when the first CQE is dropped:
    // the ring that lost it resubmits once and steps over the lost slot,
    // while the sibling ring, sharing the engine's tag set and flusher
    // state, keeps reaping its own completions. Every read succeeds and
    // the checker (race detector, protocol checks, lifecycle FSM) has
    // nothing to say.
    let _armed = simcore::sanitize::arm();
    let (sc, results) = drop_first_cqe_on_two_rings(2);
    assert_eq!(results, vec![Ok(()); 6]);
    let drv = sc.client_drivers()[0].clone();
    let cs = drv.stats();
    assert_eq!(cs.recoveries, 1, "{cs:?}");
    assert_eq!(skipped(&sc.fabric), 1);
    // Per ring: [SQEs written, CQEs consumed, CQ slots skipped]. The hit
    // ring wrote the lost read twice and stepped over its slot; the
    // sibling wrote and reaped its three.
    let rings = per_ring(&sc.rt.handle());
    let mut counts: Vec<_> = drv.qids().iter().map(|qid| rings[qid]).collect();
    counts.sort();
    assert_eq!(counts, [[3, 3, 0], [4, 3, 1]], "{rings:?}");
    assert_eq!(sc.rt.sanitize_violations(), []);
}

#[test]
fn one_climber_per_ring_when_two_commands_lose_the_same_cqe_slot() {
    // Four submitters, two commands in flight per ring. The dropped CQE
    // stalls its ring's consumer, so the command whose CQE landed behind
    // the gap waits too. At its first deadline its ring looks past the
    // stale head, steps over the lost slot and delivers it: only the
    // command that lost its CQE is resubmitted.
    let _armed = simcore::sanitize::arm();
    let (sc, results) = drop_first_cqe_on_two_rings(4);
    assert_eq!(results, vec![Ok(()); 12]);
    let cs = sc.client_drivers()[0].stats();
    assert_eq!(cs.recoveries, 1, "{cs:?}");
    assert_eq!(skipped(&sc.fabric), 1);
    assert_eq!(sc.rt.sanitize_violations(), []);
}

/// Byte-verified 4 KiB write/read pairs on `dev` over `host`'s buffers,
/// in client `client`'s own LBA range: 30 of them, or, with `until` set,
/// as many as it takes for 30 to run after `until` turned true. Returns
/// the pairs that failed.
async fn verified_pairs(
    fabric: Fabric,
    host: HostId,
    dev: Rc<dyn BlockDevice>,
    client: u64,
    until: Option<Rc<std::cell::Cell<bool>>>,
) -> usize {
    let (wbuf, rbuf) = (
        fabric.alloc(host, 4096).unwrap(),
        fabric.alloc(host, 4096).unwrap(),
    );
    let (mut failed, mut after, mut i) = (0, 0, 0u64);
    while after < 30 {
        let tag = (client * 64 + i) as u8;
        let data: Vec<u8> = (0..4096u32)
            .map(|b| (b as u8).wrapping_mul(7) ^ tag)
            .collect();
        fabric.mem_write(host, wbuf.addr, &data).unwrap();
        let lba = client * 1024 + (i % 8) * 8;
        let ok = dev.submit(Bio::write(lba, 8, wbuf)).await.is_ok()
            && dev.submit(Bio::read(lba, 8, rbuf)).await.is_ok()
            && {
                let mut out = vec![0u8; 4096];
                fabric.mem_read(host, rbuf.addr, &mut out).unwrap();
                out == data
            };
        failed += usize::from(!ok);
        i += 1;
        if until.as_ref().is_none_or(|verdict| verdict.get()) {
            after += 1;
        }
    }
    failed
}

/// `clients` hosts share the controller under the recovery calibration.
/// E (the last client) disconnects; then the CQE deliveries `drops` are
/// lost. B–D (every other client) start 10 µs after A (client 0) reads
/// once and run byte-verified write/read pairs until 30 pairs after A's
/// verdict. If A's read succeeds, as in a probe that loses only its CQE
/// (ordinal 0), the run stops there; else E reconnects on the same host
/// and runs 30 pairs, and A reads once more.
struct FailedRecovery {
    sc: cluster::Scenario,
    /// Records appended since the plan's install.
    records: Vec<simcore::Record>,
    verdict: Result<(), BioError>,
    next_read: Result<(), BioError>,
    /// A's recoveries before and after its next read.
    climbs: (u64, u64),
    failed_pairs: usize,
    bring_up_resets: usize,
}

fn failed_recovery(clients: usize, drops: &[u64]) -> FailedRecovery {
    use cluster::{Calibration, Scenario, ScenarioKind};
    use pcie::{DeliveryFault, FaultAction, FaultPlan, Selector};
    use std::cell::Cell;
    let calib = Calibration::fault_recovery();
    let sc = Scenario::build(ScenarioKind::OursMultihost { clients }, &calib);
    let bring_up_resets = injected(&sc.fabric, Stage::ControllerReset);
    let e = clients - 1;
    let e_host = sc.clients[e].0;
    let departing = sc.client_drivers()[e].clone();
    sc.rt
        .block_on(async move { departing.disconnect().await })
        .unwrap();
    let installed = sc.rt.handle().sanitize_records().len();
    sc.fabric.set_fault_plan(FaultPlan {
        deliveries: drops
            .iter()
            .map(|&nth| DeliveryFault {
                selector: Selector::Cqe,
                nth,
                action: FaultAction::Drop,
            })
            .collect(),
    });
    let a = sc.client_drivers()[0].clone();
    let (a_host, a_dev) = sc.clients[0].clone();
    let siblings: Vec<_> = sc.clients[1..e].to_vec();
    let smartio = sc.smartio().unwrap();
    let device = sc.manager().unwrap().device();
    let fabric = sc.fabric.clone();
    let handle = sc.rt.handle();
    let (verdict, next_read, climbs, failed_pairs) = sc.rt.block_on(async move {
        let verdict_in = Rc::new(Cell::new(false));
        let buf = fabric.alloc(a_host, 4096).unwrap();
        let first = {
            let (dev, verdict_in) = (a_dev.clone(), verdict_in.clone());
            handle.spawn(async move {
                let verdict = dev.submit(Bio::read(0, 8, buf)).await;
                verdict_in.set(true);
                verdict
            })
        };
        let pairs: Vec<_> = siblings
            .into_iter()
            .enumerate()
            .map(|(i, (host, dev))| {
                let (fabric, h, until) = (fabric.clone(), handle.clone(), verdict_in.clone());
                handle.spawn(async move {
                    h.sleep(SimDuration::from_micros(10)).await;
                    verified_pairs(fabric, host, dev, i as u64 + 1, Some(until)).await
                })
            })
            .collect();
        let verdict = first.await;
        if verdict.is_ok() {
            return (verdict, Ok(()), (0, 0), 0);
        }
        let back = ClientDriver::connect(&smartio, device, e_host, calib.client.clone())
            .await
            .unwrap();
        let mut failed_pairs = verified_pairs(fabric, e_host, back, e as u64, None).await;
        let before = a.stats().recoveries;
        let next_read = a_dev.submit(Bio::read(0, 8, buf)).await;
        let climbs = (before, a.stats().recoveries);
        for p in pairs {
            failed_pairs += p.await;
        }
        (verdict, next_read, climbs, failed_pairs)
    });
    let records = sc.rt.handle().sanitize_records()[installed..].to_vec();
    FailedRecovery {
        sc,
        records,
        verdict,
        next_read,
        climbs,
        failed_pairs,
        bring_up_resets,
    }
}

/// The CQE ordinal, counted from the plan's install, of A's rung-2
/// resubmission on `clients` hosts: a probe that loses only A's read
/// (ordinal 0) finds the second CQE posted on A's ring (the resubmission
/// goes out under a fresh cid).
fn a_resubmission_ordinal(clients: usize) -> u64 {
    let probe = failed_recovery(clients, &[0]);
    let posted: Vec<_> = probe
        .records
        .iter()
        .filter(|r| matches!(r.stage, Stage::CqePosted { .. }))
        .map(|r| r.cmd)
        .collect();
    let a_qids = probe.sc.client_drivers()[0].qids();
    let on_a = |cmd: &Option<(u16, u16)>| cmd.is_some_and(|(qid, _)| a_qids.contains(&qid));
    assert!(on_a(&posted[0]), "CQE 0 is not A's read: {:?}", posted[0]);
    let nth = posted.iter().enumerate().filter(|&(_, c)| on_a(c)).nth(1);
    nth.expect("A's resubmission posted no CQE").0 as u64
}

/// A's read and its rung-2 resubmission lose their CQEs. A must fail
/// typed and then read at once, without a new climb; everyone else's
/// bytes must verify; the armed log must stay empty and no controller
/// reset may follow bring-up.
fn one_tenants_failed_recovery_stays_on_its_ring(clients: usize) {
    let _armed = simcore::sanitize::arm();
    let nth = a_resubmission_ordinal(clients);
    let run = failed_recovery(clients, &[0, nth]);
    let ordinal = format!("CQE ordinal {nth} as A's resubmission");
    assert!(
        matches!(run.verdict, Err(BioError::Timeout { .. })),
        "{ordinal} missed it: A read {:?}",
        run.verdict
    );
    assert_eq!(
        injected(&run.sc.fabric, Stage::FaultDropped),
        2,
        "both drops must fire ({ordinal})"
    );
    assert_eq!(run.next_read, Ok(()));
    assert_eq!(run.climbs.0, run.climbs.1, "the next read must not climb");
    assert_eq!(run.failed_pairs, 0);
    assert_eq!(run.sc.rt.sanitize_violations(), []);
    assert_eq!(
        injected(&run.sc.fabric, Stage::ControllerReset),
        run.bring_up_resets,
        "no controller reset after bring-up"
    );
}

#[test]
fn a_tenants_failed_recovery_never_resets_the_shared_controller() {
    // The paper's manager is the one party that does device-wide work; a
    // client whose ladder runs out ends at its own queue pair.
    one_tenants_failed_recovery_stays_on_its_ring(5);
}

#[test]
fn a_tenants_failed_recovery_leaves_thirty_other_hosts_alone() {
    // The same at the paper's 31 hosts, 29 of them busy throughout.
    one_tenants_failed_recovery_stays_on_its_ring(31);
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
    let engine = sc.client_drivers()[0].engine_stats();
    assert!(
        engine.push_errors > 0 && engine.doorbell_errors > 0,
        "the pull must land mid-flush (failed pushes and a failed ring): {engine:?}"
    );
    assert!(
        detach.is_err(),
        "disconnect over a severed link must report the failure"
    );
    assert!(
        injected(&sc.fabric, Stage::FaultRefused) > 0,
        "severed link must refuse accesses"
    );
    // Refused accesses never enter the fabric, so even a mid-flush cable
    // pull leaves no race and no write pending forever.
    assert_eq!(sc.rt.sanitize_violations(), []);
}

/// `n` hosts on one switch (256 LUT slots per adapter, enough for 31
/// clients), the controller in the last, and the lease and client
/// deadlines the lease tests run with.
fn lease_bed(
    n: usize,
) -> (
    SimRuntime,
    Fabric,
    Vec<HostId>,
    SmartIo,
    smartio::SmartDeviceId,
    ManagerConfig,
    ClientConfig,
) {
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let sw = fabric.add_switch("sw");
    let mut hosts = Vec::new();
    for _ in 0..n {
        let h = fabric.add_host(256 << 20);
        let ntb = fabric.add_ntb(h, 2 << 20, 256);
        fabric.link(fabric.ntb_node(ntb), sw);
        hosts.push(h);
    }
    let dev_host = hosts[n - 1];
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
    let mgr_cfg = ManagerConfig {
        lease: Some(SimDuration::from_micros(300)),
        ..ManagerConfig::default()
    };
    let client_cfg = ClientConfig {
        cmd_timeout: Some(SimDuration::from_micros(200)),
        mailbox_timeout: Some(SimDuration::from_micros(500)),
        ..ClientConfig::default()
    };
    (rt, fabric, hosts, smartio, dev, mgr_cfg, client_cfg)
}

/// The lease bed with `clients` clients on `hosts[..clients]` and the
/// manager on its own host next to them (no lease, so no heartbeats).
/// After every client has connected, `plan` is installed and each client
/// reads `reads` times from its own range; 5 µs in, the manager's host
/// crashes if `crash` says so. Returns each client's reads as (result,
/// latency in nanoseconds).
fn reads_beside_the_managers_host(
    clients: usize,
    crash: bool,
    plan: &str,
    reads: u64,
) -> Vec<Vec<(Result<(), BioError>, u64)>> {
    use pcie::FaultPlan;
    let (rt, fabric, hosts, smartio, dev, mgr_cfg, client_cfg) = lease_bed(clients + 2);
    let mgr_cfg = ManagerConfig {
        lease: None,
        ..mgr_cfg
    };
    let plan = FaultPlan::parse(plan).unwrap();
    let handle = rt.handle();
    rt.block_on(async move {
        let manager_host = hosts[clients];
        let _mgr = Manager::start(&smartio, dev, manager_host, mgr_cfg)
            .await
            .unwrap();
        let mut lanes = Vec::new();
        for (c, &host) in hosts[..clients].iter().enumerate() {
            let client = ClientDriver::connect(&smartio, dev, host, client_cfg.clone())
                .await
                .unwrap();
            let buf = fabric.alloc(host, 4096).unwrap();
            lanes.push((c as u64, client, buf));
        }
        fabric.set_fault_plan(plan);
        let lanes: Vec<_> = lanes
            .into_iter()
            .map(|(c, client, buf)| {
                let now = fabric.handle();
                handle.spawn(async move {
                    let mut out = Vec::new();
                    for i in 0..reads {
                        let start = now.now();
                        let read = client.submit(Bio::read((c * reads + i) * 8, 8, buf)).await;
                        out.push((read, now.now().since(start).as_nanos()));
                    }
                    out
                })
            })
            .collect();
        fabric.handle().sleep(SimDuration::from_micros(5)).await;
        if crash {
            fabric.crash_host_now(manager_host);
        }
        let mut out = Vec::new();
        for lane in lanes {
            out.push(lane.await);
        }
        out
    })
}

#[test]
fn a_lost_cqe_heals_with_the_managers_host_crashed() {
    // The paper's claim: once a client holds its queue pair, no software
    // on the manager's host is in its I/O path. A lost CQE is healed on
    // the client's own ring, so with 1, 4 or 31 clients sharing the
    // controller every client's reads match the run without the crash,
    // result for result and nanosecond for nanosecond; and so does one
    // client's run of plain reads.
    for clients in [1, 4, 31] {
        let crashed = reads_beside_the_managers_host(clients, true, "f1:drop@0/cqe", 20);
        assert_eq!(crashed.len(), clients);
        let ok = crashed.iter().flatten().all(|(read, _)| read.is_ok());
        assert!(ok, "{clients} clients: {crashed:?}");
        // The lost CQE's read waited out its deadline and healed.
        let healed = crashed.iter().flatten().filter(|(_, ns)| *ns > 200_000);
        assert_eq!(healed.count(), 1, "{clients} clients: {crashed:?}");
        assert_eq!(
            crashed,
            reads_beside_the_managers_host(clients, false, "f1:drop@0/cqe", 20),
            "{clients} clients"
        );
    }
    let plain = reads_beside_the_managers_host(1, true, "f1:", 100);
    assert!(plain[0].iter().all(|(read, _)| read.is_ok()), "{plain:?}");
    assert_eq!(plain, reads_beside_the_managers_host(1, false, "f1:", 100));
}

#[test]
fn crashed_client_is_reaped_and_its_qpairs_reused() {
    // Lease protocol end-to-end: a client connects (heartbeating), does
    // I/O, and crashes without disconnecting. The manager's reaper notices
    // the silent lease, admin-deletes the client's queues, frees its qids
    // and mailbox state, and purges its SmartIO footprint — so a second
    // client can connect and be granted the very same queue pair.
    let (rt, fabric, hosts, smartio, dev, mgr_cfg, client_cfg) = lease_bed(3);
    let lease = mgr_cfg.lease.unwrap();
    rt.block_on({
        let smartio = smartio.clone();
        let fabric = fabric.clone();
        async move {
            let mgr = Manager::start(&smartio, dev, hosts[2], mgr_cfg)
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
fn a_connect_racing_the_lease_reaper_is_served() {
    // Client A crashes; client B connects `offset` later, for offsets
    // swept across the first reap after the crash. Wherever B's CreateQp
    // lands — before, during or after the reaper admin-deletes A's queue —
    // the manager serializes the two on its one admin queue: B connects,
    // and nothing panics.
    for step in 0..600u64 {
        let offset = SimDuration::from_nanos(step * 1_500);
        let world = std::panic::catch_unwind(|| {
            let (rt, fabric, hosts, smartio, dev, mgr_cfg, client_cfg) = lease_bed(3);
            rt.block_on(async move {
                let _mgr = Manager::start(&smartio, dev, hosts[2], mgr_cfg)
                    .await
                    .unwrap();
                ClientDriver::connect(&smartio, dev, hosts[0], client_cfg.clone())
                    .await
                    .unwrap();
                fabric.crash_host_now(hosts[0]);
                fabric.handle().sleep(offset).await;
                ClientDriver::connect(&smartio, dev, hosts[1], client_cfg)
                    .await
                    .map(|_| ())
            })
        });
        match world {
            Ok(Ok(())) => {}
            Ok(Err(e)) => panic!("B connecting {offset} after A's crash: {e}"),
            Err(_) => panic!("B connecting {offset} after A's crash panicked"),
        }
    }
}

/// Client `stalling` of `kind` under the recovery calibration connects a
/// second time from its host; that CreateQp's first admin CQE (ordinal 0)
/// is lost, so the serve loop stalls for the admin deadline while every
/// client keeps heartbeating. 60 ms on, each client reads once. Returns
/// the clients evicted and the reads.
fn reads_around_a_stalled_admin_call(
    kind: cluster::ScenarioKind,
    stalling: usize,
) -> (u64, Vec<Result<(), BioError>>) {
    use cluster::{Calibration, Scenario};
    use dnvme::DnvmeError;
    use pcie::FaultPlan;
    let calib = Calibration::fault_recovery();
    let sc = Scenario::build(kind, &calib);
    sc.fabric
        .set_fault_plan(FaultPlan::parse("f1:drop@0/cqe").unwrap());
    let clients = sc.clients.clone();
    let smartio = sc.smartio().unwrap();
    let device = sc.manager().unwrap().device();
    let fabric = sc.fabric.clone();
    let (first, later) = sc.rt.block_on(async move {
        let host = clients[stalling].0;
        let first = ClientDriver::connect(&smartio, device, host, calib.client)
            .await
            .map(|_| ());
        fabric.handle().sleep(SimDuration::from_millis(60)).await;
        let mut later = Vec::new();
        for (host, dev) in &clients {
            let buf = fabric.alloc(*host, 4096).unwrap();
            later.push(dev.submit(Bio::read(0, 8, buf)).await);
        }
        (first, later)
    });
    assert!(matches!(first, Err(DnvmeError::RpcTimeout)), "{first:?}");
    (sc.manager().unwrap().stats().clients_evicted, later)
}

#[test]
fn a_stalled_admin_call_does_not_get_live_tenants_evicted() {
    // The tenant whose host made the stalled call heartbeats through the
    // stall; the reap pass after it must count those heartbeats, not evict
    // the tenant for a silence that was the manager's own. Evicted, its
    // later read would fail on a purged window.
    let (evicted, later) =
        reads_around_a_stalled_admin_call(cluster::ScenarioKind::OursRemote { switches: 1 }, 0);
    assert_eq!((evicted, &later[0]), (0, &Ok(())));
}

#[test]
fn a_tenant_heartbeating_through_anothers_stalled_call_keeps_its_lease() {
    // The same stall, with a bystander in the mailbox slot the stalled
    // scan had already passed: its heartbeats during the stall are read
    // only by the next scan, after the reap. It must keep its lease and
    // read as if nothing happened.
    let (evicted, later) =
        reads_around_a_stalled_admin_call(cluster::ScenarioKind::OursMultihost { clients: 2 }, 1);
    // An eviction's count lands after its stalled admin delete; the read
    // on the deleted queue fails first.
    assert_eq!((evicted, &later[0]), (0, &Ok(())));
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
            response_segment: 9,
            request: Request::CreateQp {
                entries: 64,
                sq_bus: pcie::PhysAddr(0x123),
                cq_bus: pcie::PhysAddr(0x456),
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
        assert_eq!(
            injected(&fabric, Stage::FaultDuplicated),
            1,
            "the plan must fire"
        );
        let page = fabric.mem_snapshot(host, buf.addr, 4096).unwrap();
        assert_eq!(page.to_vec(), [0x6B; 4096]);
        // A further I/O on the same queue is unaffected.
        dev.submit(Bio::read(0, 8, buf)).await.unwrap();
    });
    assert_eq!(sc.rt.sanitize_violations(), []);
}

/// The serve loop's admin calls, each raced against the manager's
/// 50 ms admin deadline.
#[derive(Clone, Copy, Debug, PartialEq)]
enum ServeCall {
    /// A disconnect's DeleteQp.
    DeleteQp,
    /// A connect's CreateQp.
    CreateQp,
    /// `rollback_create`: the DeleteQp undoing a grant nobody received.
    RollbackCreate,
    /// The lease reaper's DeleteQp of a crashed client's queue pair.
    ReaperDeleteQp,
}

#[test]
fn a_lost_admin_cqe_stalls_each_serve_loop_call_once_and_never_hangs_it() {
    // One table row per admin call the serve loop makes. Each drops the
    // CQE of one of that call's admin commands (CQE ordinals count from
    // the plan's install); the call must give up after the admin deadline,
    // and the admin queue must heal: a connect from another host 60 ms on
    // is granted. Without the deadline at that call's site the serve loop
    // waits forever and the connect ends in `RpcTimeout`; without the
    // heal its CreateQp waits out the deadline and is refused.
    let cells = [
        // A disconnects: its Delete I/O SQ.
        (ServeCall::DeleteQp, &[0][..]),
        // A's Create I/O CQ.
        (ServeCall::CreateQp, &[0]),
        // A gives up at once: Create I/O CQ and SQ complete, the grant
        // cannot be delivered, and the rollback's Delete I/O SQ is lost.
        (ServeCall::RollbackCreate, &[2]),
        // The Delete I/O SQ of the crashed A's queue pair.
        (ServeCall::ReaperDeleteQp, &[0]),
    ];
    let failed: Vec<ServeCall> = cells
        .into_iter()
        .filter(|&(call, drops)| {
            std::panic::catch_unwind(|| serve_call_survives_a_lost_cqe(call, drops)).is_err()
        })
        .map(|(call, _)| call)
        .collect();
    assert_eq!(
        failed,
        [],
        "rows that failed (their panics are printed above)"
    );
}

/// One row of the test above: `drops` are the CQE ordinals to lose, the
/// last of them `call`'s admin CQE.
fn serve_call_survives_a_lost_cqe(call: ServeCall, drops: &[u64]) {
    use dnvme::DnvmeError;
    use pcie::{DeliveryFault, FaultAction, FaultPlan, Selector};
    let _armed = simcore::sanitize::arm();
    let (rt, fabric, hosts, smartio, dev, mgr_cfg, client_cfg) = lease_bed(3);
    let plan = FaultPlan {
        deliveries: drops
            .iter()
            .map(|&nth| DeliveryFault {
                selector: Selector::Cqe,
                nth,
                action: FaultAction::Drop,
            })
            .collect(),
    };
    // B's three tries outlast two stalled calls.
    let patient = ClientConfig {
        mailbox_timeout: Some(SimDuration::from_millis(100)),
        ..client_cfg.clone()
    };
    let (a, b) = (hosts[0], hosts[1]);
    let f = fabric.clone();
    let (mgr, later) = rt.block_on(async move {
        let mgr = Manager::start(&smartio, dev, hosts[2], mgr_cfg)
            .await
            .unwrap();
        match call {
            ServeCall::DeleteQp => {
                let drv = ClientDriver::connect(&smartio, dev, a, client_cfg)
                    .await
                    .unwrap();
                f.set_fault_plan(plan);
                let gone = drv.disconnect().await;
                assert!(matches!(gone, Err(DnvmeError::RpcTimeout)), "{gone:?}");
            }
            ServeCall::CreateQp | ServeCall::RollbackCreate => {
                f.set_fault_plan(plan);
                let hasty = ClientConfig {
                    mailbox_timeout: Some(SimDuration::from_nanos(1)),
                    ..client_cfg.clone()
                };
                let cfg = match call {
                    ServeCall::RollbackCreate => hasty,
                    _ => client_cfg,
                };
                let refused = ClientDriver::connect(&smartio, dev, a, cfg).await;
                assert!(matches!(refused, Err(DnvmeError::RpcTimeout)));
            }
            ServeCall::ReaperDeleteQp => {
                ClientDriver::connect(&smartio, dev, a, client_cfg)
                    .await
                    .unwrap();
                f.set_fault_plan(plan);
                f.crash_host_now(a);
            }
        }
        f.handle().sleep(SimDuration::from_millis(60)).await;
        let later = ClientDriver::connect(&smartio, dev, b, patient).await;
        (mgr, later.map(|_| ()))
    });
    assert!(
        later.is_ok(),
        "{call:?}: the connect after the stall: {later:?}"
    );
    // The plan fired where the row says: the last drop was an admin
    // (queue 0) CQE, and the call it belonged to left its mark.
    assert_eq!(
        injected(&fabric, Stage::FaultDropped),
        drops.len(),
        "{call:?}"
    );
    let records = fabric.handle().sanitize_records();
    let last_drop = records
        .iter()
        .rposition(|r| r.stage == Stage::FaultDropped)
        .unwrap();
    let posted = records[..last_drop]
        .iter()
        .rev()
        .find(|r| matches!(r.stage, Stage::CqePosted { .. }));
    assert_eq!(posted.and_then(|r| r.cmd).map(|c| c.0), Some(0), "{call:?}");
    // B's grant is the one queue pair created.
    let ms = mgr.stats();
    let marked = match call {
        ServeCall::DeleteQp => ms.qpairs_deleted == 0,
        ServeCall::CreateQp => ms.qpairs_created == 1 && ms.requests_rejected >= 1,
        ServeCall::RollbackCreate => ms.qpairs_created == 1 && ms.requests_rejected >= 1,
        ServeCall::ReaperDeleteQp => ms.qpairs_reclaimed == 1 && ms.clients_evicted >= 1,
    };
    assert!(marked, "{call:?}: {ms:?}");
    // One known defect may report, and nothing else. K1: the stalled
    // loop reads a client's retransmitted request unordered against
    // the client's own later write to its slot (`pcie.hb-race`).
    let known = |v: &&simcore::Violation| v.code == "pcie.hb-race";
    let violations = rt.sanitize_violations();
    let other: Vec<_> = violations.iter().filter(|v| !known(v)).collect();
    assert_eq!(other, Vec::<&simcore::Violation>::new(), "{call:?}");
}
