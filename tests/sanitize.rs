//! Simulation-time protocol checker (compiled into every build, armed at
//! run time with `simcore::sanitize::arm`): seed each violation class the
//! checker exists to catch and assert the corresponding report fires, then
//! run legitimate stacks and assert the checker stays silent.

use std::rc::Rc;

use nvme::driver::{AdminQueue, AdminQueueLayout};
use nvme::oracle;
use nvme::spec::command::SQE_SIZE;
use nvme::spec::completion::CQE_SIZE;
use nvme::{BlockStore, CqEntry, MediaProfile, NvmeConfig, NvmeController, SqEntry, Status};
use pcie::{DomainAddr, Fabric, FabricParams, FaultPlan, HostId, MemRegion, NtbId, PhysAddr};
use simcore::{SimDuration, SimRuntime, Stage, Violation};

/// A runtime with the checker armed (the guard only has to outlive the
/// runtime's construction) and the lifecycle oracle attached.
fn armed_runtime() -> SimRuntime {
    let _armed = simcore::sanitize::arm();
    let rt = SimRuntime::new();
    oracle::attach(&rt.handle());
    rt
}

fn codes(violations: &[Violation]) -> Vec<&'static str> {
    violations.iter().map(|v| v.code).collect()
}

/// Two hosts joined through NTBs and one switch chip — the minimal fabric
/// where posted writes have a propagation window a racing read can hit.
fn two_host_bed() -> (SimRuntime, Fabric, [HostId; 2], [NtbId; 2]) {
    let rt = armed_runtime();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let sw = fabric.add_switch("sw");
    let mut hosts = Vec::new();
    let mut ntbs = Vec::new();
    for _ in 0..2 {
        let h = fabric.add_host(64 << 20);
        let ntb = fabric.add_ntb(h, 2 << 20, 16);
        fabric.link(fabric.ntb_node(ntb), sw);
        hosts.push(h);
        ntbs.push(ntb);
    }
    (rt, fabric, [hosts[0], hosts[1]], [ntbs[0], ntbs[1]])
}

#[test]
fn read_racing_posted_write_is_flagged() {
    let (rt, fabric, [a, b], [ntb_a, _]) = two_host_bed();
    let target = fabric.alloc(b, 4096).unwrap();
    let slot = fabric.find_free_lut_slot(ntb_a).unwrap();
    let win = fabric
        .program_lut(ntb_a, slot, DomainAddr::new(b, target.addr))
        .unwrap();
    rt.block_on({
        let fabric = fabric.clone();
        async move {
            // A's posted write crosses two NTBs and a switch; it lands one
            // propagation after issue.
            fabric.cpu_write(a, win, &[0xAB; 64]).await.unwrap();
            // B samples the same range locally before the data can have
            // arrived — the classic stale read the CQ placement avoids.
            let mut buf = [0u8; 64];
            fabric.cpu_read(b, target.addr, &mut buf).await.unwrap();
            let v = fabric.handle().sanitize_take_violations();
            assert_eq!(
                codes(&v),
                ["pcie.read-races-posted-write", "pcie.hb-race"],
                "{v:?}"
            );
            // Once the write has applied, the same read is clean.
            fabric.handle().sleep(SimDuration::from_micros(10)).await;
            fabric.cpu_read(b, target.addr, &mut buf).await.unwrap();
            assert_eq!(buf, [0xAB; 64]);
            assert!(fabric.handle().sanitize_take_violations().is_empty());

            // Two posted writes in flight to one address, the older one
            // longer: the newer supersedes the older in the
            // happens-before graph (one race report, against the newer),
            // but both are still on the wire and the read is stale against
            // each of them.
            fabric
                .cpu_write(a, win.offset(0x100), &[1; 64])
                .await
                .unwrap();
            fabric
                .cpu_write(a, win.offset(0x100), &[2; 8])
                .await
                .unwrap();
            let at = target.addr.offset(0x100);
            // The tail of the range is covered by the older write alone.
            fabric
                .cpu_read(b, at.offset(8), &mut buf[..56])
                .await
                .unwrap();
            let v = fabric.handle().sanitize_take_violations();
            assert_eq!(codes(&v), ["pcie.read-races-posted-write"], "{v:?}");
            fabric.cpu_read(b, at, &mut buf).await.unwrap();
            let v = fabric.handle().sanitize_take_violations();
            assert_eq!(
                codes(&v),
                [
                    "pcie.read-races-posted-write",
                    "pcie.read-races-posted-write",
                    "pcie.hb-race"
                ],
                "{v:?}"
            );
            fabric.handle().sleep(SimDuration::from_micros(10)).await;
            fabric.cpu_read(b, at, &mut buf).await.unwrap();
            assert!(fabric.handle().sanitize_take_violations().is_empty());

            // Freeing the target severs its happens-before history (no
            // race report) but does not stop in-flight writes landing.
            fabric
                .cpu_write(a, win.offset(0x200), &[3; 64])
                .await
                .unwrap();
            fabric
                .cpu_write(a, win.offset(0x200), &[4; 8])
                .await
                .unwrap();
            fabric.release(target);
            let at = target.addr.offset(0x200);
            fabric.cpu_read(b, at, &mut buf).await.unwrap();
            let v = fabric.handle().sanitize_take_violations();
            assert_eq!(
                codes(&v),
                [
                    "pcie.read-races-posted-write",
                    "pcie.read-races-posted-write"
                ],
                "{v:?}"
            );
        }
    });
}

#[test]
fn doorbell_before_sqe_is_flagged() {
    // Controller and its admin rings live on host B. Host A writes the SQE
    // through the NTB window (slow path), while B rings the doorbell
    // locally (fast path) — the tail becomes visible before the SQE data.
    let (rt, fabric, [a, b], [ntb_a, _]) = two_host_bed();
    let store = Rc::new(BlockStore::new(
        rt.handle(),
        MediaProfile::optane(),
        512,
        1 << 20,
        1,
    ));
    let ctrl = NvmeController::attach(&fabric, b, fabric.rc_node(b), store, NvmeConfig::default());
    let bar = fabric.bar_region(ctrl.device_id(), 0).unwrap();
    let asq = fabric.alloc(b, 8 * SQE_SIZE as u64).unwrap();
    let acq = fabric.alloc(b, 8 * CQE_SIZE as u64).unwrap();
    let slot = fabric.find_free_lut_slot(ntb_a).unwrap();
    let win = fabric
        .program_lut(ntb_a, slot, DomainAddr::new(b, asq.addr))
        .unwrap();
    rt.block_on({
        let fabric = fabric.clone();
        async move {
            let mut admin = AdminQueue::init(
                &fabric,
                bar,
                AdminQueueLayout {
                    asq_cpu: asq,
                    asq_bus: asq.addr,
                    acq_cpu: acq,
                    acq_bus: acq.addr,
                    entries: 8,
                },
            )
            .await
            .unwrap();
            // One legitimate command first, so the ring is one the
            // lifecycle FSM mirrors; it is clean.
            admin.set_num_queues(3).await.unwrap();
            assert_eq!(fabric.handle().sanitize_take_violations(), []);
            let sqe = SqEntry::set_num_queues(7, 3, 3);
            fabric
                .cpu_write(a, win.offset(SQE_SIZE as u64), &sqe.encode())
                .await
                .unwrap();
            fabric
                .cpu_write_u32(b, bar.addr.offset(admin.cap.sq_doorbell(0)), 2)
                .await
                .unwrap();
            fabric.handle().sleep(SimDuration::from_micros(20)).await;
            let v = fabric.handle().sanitize_take_violations();
            // The whole verdict of the one log. Protocol check: the
            // doorbell exposed a slot whose store was still in flight.
            // Race detector: the fetch it triggered raced that store.
            // Lifecycle FSM: a command no ring ever reported storing was
            // fetched, completed, and consumed by the admin engine.
            assert_eq!(
                codes(&v),
                [
                    "nvme.doorbell-before-sqe",
                    "pcie.hb-race",
                    "nvme.lifecycle.fetch-before-doorbell",
                    "nvme.lifecycle.double-completion",
                    "nvme.lifecycle.stale-phase-consume"
                ],
                "{v:?}"
            );
        }
    });
}

#[test]
fn cq_overwrite_is_flagged() {
    // Plant an unconsumed current-phase entry in the ACQ slot the
    // controller will post to next: the post must be reported. Bring-up
    // uses raw register writes — `AdminQueue` now runs an engine
    // completion service that would legitimately consume the planted
    // entry (and release its slot) before the controller posts.
    use nvme::spec::registers::{csts, offset, Aqa, Cap, Cc};
    let rt = armed_runtime();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let host = fabric.add_host(64 << 20);
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
    let bar = fabric.bar_region(ctrl.device_id(), 0).unwrap();
    let asq = fabric.alloc(host, 8 * SQE_SIZE as u64).unwrap();
    let acq = fabric.alloc(host, 8 * CQE_SIZE as u64).unwrap();
    rt.block_on({
        let fabric = fabric.clone();
        async move {
            let reg = |off: u64| bar.addr.offset(off);
            let wait_rdy = |want: bool| {
                let fabric = fabric.clone();
                async move {
                    loop {
                        let v = fabric.cpu_read_u32(host, reg(offset::CSTS)).await.unwrap();
                        if (v & csts::RDY != 0) == want {
                            return;
                        }
                        fabric.handle().sleep(SimDuration::from_micros(10)).await;
                    }
                }
            };
            let cap = Cap::decode(fabric.cpu_read_u64(host, reg(offset::CAP)).await.unwrap());
            fabric
                .cpu_write_u32(host, reg(offset::CC), 0)
                .await
                .unwrap();
            wait_rdy(false).await;
            let aqa = Aqa { asqs: 7, acqs: 7 };
            fabric
                .cpu_write_u32(host, reg(offset::AQA), aqa.encode())
                .await
                .unwrap();
            fabric
                .cpu_write(host, reg(offset::ASQ), &asq.addr.as_u64().to_le_bytes())
                .await
                .unwrap();
            fabric
                .cpu_write(host, reg(offset::ACQ), &acq.addr.as_u64().to_le_bytes())
                .await
                .unwrap();
            let cc = Cc {
                enable: true,
                iosqes: 6,
                iocqes: 4,
            };
            fabric
                .cpu_write_u32(host, reg(offset::CC), cc.encode())
                .await
                .unwrap();
            wait_rdy(true).await;
            // Fake unconsumed CQE with the phase the controller will post.
            let fake = CqEntry::new(0, 0, 0, 0xDEAD, true, Status::SUCCESS);
            fabric.mem_write(host, acq.addr, &fake.encode()).unwrap();
            // Submit one valid admin command via raw ring writes
            // (functional SQE write: no posted-write window, so only the
            // overwrite check can fire).
            let sqe = SqEntry::set_num_queues(3, 3, 3);
            fabric.mem_write(host, asq.addr, &sqe.encode()).unwrap();
            fabric
                .cpu_write_u32(host, bar.addr.offset(cap.sq_doorbell(0)), 1)
                .await
                .unwrap();
            fabric.handle().sleep(SimDuration::from_micros(20)).await;
            let v = fabric.handle().sanitize_take_violations();
            assert_eq!(codes(&v), ["nvme.cq-overwrite"], "{v:?}");
        }
    });
}

/// Seeded bug: consume `slot` of a CQ ring *without* the phase guard, the
/// way an interrupt-driven driver that trusts the MSI unconditionally
/// would, and tell the checkers what was actually consumed — the phase
/// observed in memory, not the one the ring expects.
fn pop_unchecked(fabric: &Fabric, ring: MemRegion, qid: u16, slot: u16, entries: u16) -> CqEntry {
    let addr = ring.addr.offset(slot as u64 * CQE_SIZE as u64);
    let mut raw = [0u8; CQE_SIZE];
    fabric.mem_read(ring.host, addr, &mut raw).unwrap();
    fabric.sanitize_consume(ring.host, addr, CQE_SIZE as u64);
    let cqe = CqEntry::decode(&raw);
    let phase = CqEntry::peek_phase(&raw);
    let consumed = Stage::CqeConsumed {
        slot,
        phase,
        entries,
    };
    fabric
        .handle()
        .sanitize_record(Some((qid, cqe.cid)), consumed);
    cqe
}

#[test]
fn stale_phase_consumption_is_flagged() {
    const QID: u16 = 1;
    const ENTRIES: u16 = 4;
    let rt = armed_runtime();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let host = fabric.add_host(16 << 20);
    let ring = fabric
        .alloc(host, ENTRIES as u64 * CQE_SIZE as u64)
        .unwrap();
    // A genuinely delivered entry pops silently, even unguarded.
    let (h, cmd) = (rt.handle(), Some((QID, 42)));
    let (slot, entries) = (0, ENTRIES);
    h.sanitize_record(cmd, Stage::SqeWritten { slot, entries });
    h.sanitize_record(
        None,
        Stage::SqDoorbell {
            qid: QID,
            tail: 1,
            entries,
        },
    );
    h.sanitize_record(cmd, Stage::Fetched { slot });
    let phase = true;
    h.sanitize_record(
        cmd,
        Stage::CqePosted {
            slot,
            phase,
            entries,
        },
    );
    let cqe = CqEntry::new(0, 0, QID, 42, true, Status::SUCCESS);
    fabric.mem_write(host, ring.addr, &cqe.encode()).unwrap();
    assert_eq!(pop_unchecked(&fabric, ring, QID, 0, ENTRIES).cid, 42);
    assert_eq!(rt.sanitize_take_violations(), []);
    // Consuming the next, still empty slot (phase tag 0, ring expects 1) —
    // what a driver trusting a spurious interrupt would do.
    let _ = pop_unchecked(&fabric, ring, QID, 1, ENTRIES);
    // The whole verdict: the slot's phase is not the ring's, and cid 0
    // (the empty slot's bytes) was never submitted. The race detector has
    // nothing to add — no timed write ever targeted the ring.
    let v = rt.sanitize_take_violations();
    assert_eq!(
        codes(&v),
        [
            "nvme.lifecycle.stale-phase-consume",
            "nvme.lifecycle.stale-phase-consume"
        ],
        "{v:?}"
    );
}

#[test]
fn bounce_partition_overlap_is_flagged() {
    let rt = armed_runtime();
    let handle = rt.handle();
    // Tags 0 and 1 share a page — two in-flight commands would DMA into
    // each other's staging space.
    dnvme::bounce::sanitize_check_partitions(
        &handle,
        &[
            (PhysAddr(0x1000), 0x2000),
            (PhysAddr(0x2000), 0x2000),
            (PhysAddr(0x8000), 0x1000),
        ],
    );
    let v = rt.sanitize_take_violations();
    assert_eq!(
        v.len(),
        1,
        "exactly the overlapping pair must be reported: {v:?}"
    );
    assert_eq!(v[0].code, "dnvme.bounce-overlap");
}

#[test]
fn bounce_overlap_sweep_matches_quadratic_reference() {
    // The sort-by-start sweep must report exactly the pairs (and in the
    // same order) as the obvious all-pairs scan it replaced.
    fn reference(parts: &[(PhysAddr, u64)]) -> Vec<String> {
        let mut out = Vec::new();
        for i in 0..parts.len() {
            for j in i + 1..parts.len() {
                let (a_start, a_len) = parts[i];
                let (b_start, b_len) = parts[j];
                if a_start < b_start.offset(b_len) && b_start < a_start.offset(a_len) {
                    out.push(format!(
                        "bounce ranges {i} and {j} overlap: {a_start}+{a_len:#x} vs {b_start}+{b_len:#x}"
                    ));
                }
            }
        }
        out
    }
    let mut layouts: Vec<Vec<(PhysAddr, u64)>> = vec![
        vec![],
        vec![(PhysAddr(0x1000), 0x1000)],
        // Adjacent (no overlap), nested, duplicate start, zero-length.
        vec![(PhysAddr(0x1000), 0x1000), (PhysAddr(0x2000), 0x1000)],
        vec![(PhysAddr(0x1000), 0x4000), (PhysAddr(0x2000), 0x1000)],
        vec![(PhysAddr(0x3000), 0x1000), (PhysAddr(0x3000), 0x1000)],
        vec![(PhysAddr(0x3000), 0), (PhysAddr(0x3000), 0x1000)],
        // Everyone overlapping everyone (k = n(n-1)/2).
        (0..8).map(|i| (PhysAddr(0x1000 + i), 0x1000)).collect(),
    ];
    // Deterministic pseudo-random layouts, unsorted input order.
    let mut state: u64 = 0x9e3779b97f4a7c15;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for n in [3usize, 9, 17] {
        layouts.push(
            (0..n)
                .map(|_| (PhysAddr((rng() % 0x40) * 0x800), (rng() % 5) * 0x1000))
                .collect(),
        );
    }
    let rt = armed_runtime();
    let handle = rt.handle();
    for parts in &layouts {
        dnvme::bounce::sanitize_check_partitions(&handle, parts);
        let got: Vec<String> = rt
            .sanitize_take_violations()
            .into_iter()
            .map(|v| {
                assert_eq!(v.code, "dnvme.bounce-overlap");
                v.detail
            })
            .collect();
        assert_eq!(got, reference(parts), "layout {parts:?}");
    }
}

#[test]
fn sqe_store_after_doorbell_races_fetch() {
    // Happens-before seed: the doorbell rings *before* the SQE store, so
    // the device's command fetch has no edge ordering it after the store —
    // racy no matter how the latencies land (even once the store has
    // applied, which silences the pending-write check).
    let (rt, fabric, [a, b], [ntb_a, _]) = two_host_bed();
    let store = Rc::new(BlockStore::new(
        rt.handle(),
        MediaProfile::optane(),
        512,
        1 << 20,
        1,
    ));
    let ctrl = NvmeController::attach(&fabric, b, fabric.rc_node(b), store, NvmeConfig::default());
    let dev = ctrl.device_id();
    let bar = fabric.bar_region(dev, 0).unwrap();
    let sq = fabric.alloc(b, 8 * SQE_SIZE as u64).unwrap();
    let slot = fabric.find_free_lut_slot(ntb_a).unwrap();
    let win = fabric
        .program_lut(ntb_a, slot, DomainAddr::new(b, sq.addr))
        .unwrap();
    rt.block_on({
        let fabric = fabric.clone();
        async move {
            let doorbell = bar.addr.offset(0x1000);
            fabric.cpu_write_u32(b, doorbell, 1).await.unwrap();
            fabric.handle().sleep(SimDuration::from_micros(10)).await;
            // Deliberate seeded violation: the store lands after the bell
            // already exposed the slot.
            let sqe = SqEntry::set_num_queues(7, 3, 3);
            // lint:allow(D08)
            fabric.cpu_write(a, win, &sqe.encode()).await.unwrap();
            // Let the store apply: only the happens-before detector can
            // see this race now.
            fabric.handle().sleep(SimDuration::from_micros(10)).await;
            let mut raw = [0u8; SQE_SIZE];
            fabric.dma_read(dev, sq.addr, &mut raw).await.unwrap();
            let v = fabric.handle().sanitize_take_violations();
            assert_eq!(codes(&v), ["pcie.hb-race"], "{v:?}");
        }
    });
}

#[test]
fn cq_poll_racing_posted_cqe_is_flagged() {
    // Happens-before seed: the driver consumes a CQ slot while the
    // controller's posted CQE write to that slot is still in flight — no
    // phase observation of an *applied* write, hence no edge.
    let (rt, fabric, [a, b], [_, ntb_b]) = two_host_bed();
    let store = Rc::new(BlockStore::new(
        rt.handle(),
        MediaProfile::optane(),
        512,
        1 << 20,
        1,
    ));
    let ctrl = NvmeController::attach(&fabric, b, fabric.rc_node(b), store, NvmeConfig::default());
    let dev = ctrl.device_id();
    let ring = fabric.alloc(a, 4 * CQE_SIZE as u64).unwrap();
    let slot = fabric.find_free_lut_slot(ntb_b).unwrap();
    let win = fabric
        .program_lut(ntb_b, slot, DomainAddr::new(a, ring.addr))
        .unwrap();
    rt.block_on({
        let fabric = fabric.clone();
        async move {
            let cqe = CqEntry::new(0, 0, 0, 7, true, Status::SUCCESS);
            fabric.dma_write(dev, win, &cqe.encode()).await.unwrap();
            // Consume before the posted write can have applied.
            fabric.sanitize_consume(a, ring.addr, CQE_SIZE as u64);
            let v = fabric.handle().sanitize_take_violations();
            assert_eq!(codes(&v), ["pcie.hb-race"], "{v:?}");
        }
    });
}

#[test]
fn dropped_write_gives_no_happens_before_edge() {
    // A posts W1 -> X (delivered), then W2 -> Y (lost in flight). B reads
    // Y: nothing landed there, so B has observed nothing of A, and its
    // store to X is unordered against W1. Treating the lost write as
    // applied would let B's read join W2's clock and hide the race.
    let (rt, fabric, [a, b], [ntb_a, _]) = two_host_bed();
    fabric.set_fault_plan(FaultPlan::parse("f1:drop@1/any").unwrap());
    let target = fabric.alloc(b, 4096).unwrap();
    let slot = fabric.find_free_lut_slot(ntb_a).unwrap();
    let win = fabric
        .program_lut(ntb_a, slot, DomainAddr::new(b, target.addr))
        .unwrap();
    rt.block_on({
        let fabric = fabric.clone();
        async move {
            fabric.cpu_write(a, win, &[0xAA; 64]).await.unwrap();
            fabric
                .cpu_write(a, win.offset(0x100), &[0xBB; 64])
                .await
                .unwrap();
            fabric.handle().sleep(SimDuration::from_micros(10)).await;
            let records = fabric.handle().sanitize_records();
            let dropped = records.iter().filter(|r| r.stage == Stage::FaultDropped);
            assert_eq!(dropped.count(), 1);
            let mut buf = [0u8; 64];
            fabric
                .cpu_read(b, target.addr.offset(0x100), &mut buf)
                .await
                .unwrap();
            assert_eq!(buf, [0u8; 64], "the dropped write must not have landed");
            fabric.cpu_write(b, target.addr, &[0xCC; 64]).await.unwrap();
            let v = fabric.handle().sanitize_take_violations();
            assert_eq!(codes(&v), ["pcie.hb-race"], "{v:?}");
        }
    });
}

#[test]
fn legitimate_stacks_stay_silent() {
    // The full verified data path — including the real BouncePool layout —
    // must produce zero checker reports, across every scenario kind and
    // with the happens-before race detector live.
    use cluster::{Calibration, Scenario, ScenarioKind};
    use fioflex::verify_region;
    let _armed = simcore::sanitize::arm();
    for kind in [
        ScenarioKind::LinuxLocal,
        ScenarioKind::NvmfRemote,
        ScenarioKind::OursLocal,
        ScenarioKind::OursRemote { switches: 1 },
        ScenarioKind::OursMultihost { clients: 2 },
    ] {
        let calib = Calibration::paper();
        let sc = Scenario::build(kind, &calib);
        assert!(sc.fabric.sanitize_armed(), "{}", sc.label);
        for (host, dev) in sc.clients.clone() {
            let fabric = sc.fabric.clone();
            let report = sc
                .rt
                .block_on(async move { verify_region(&fabric, host, dev, 0, 1024, 8, 0xAB).await });
            assert!(report.clean(), "{}: {report:?}", sc.label);
        }
        let v = sc.rt.sanitize_take_violations();
        assert!(
            v.is_empty(),
            "{}: sanitizer flagged a legitimate run: {v:?}",
            sc.label
        );
    }
}
