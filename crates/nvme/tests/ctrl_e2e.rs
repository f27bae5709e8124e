//! Controller + local driver end-to-end: bring-up, identify, data
//! integrity, error paths, and the interrupt-vs-polling latency gap.

use std::rc::Rc;

use blklayer::{Bio, BioError, BioOp, BlockDevice};
use nvme::driver::admin::AdminError;
use nvme::driver::admin::{AdminQueue, AdminQueueLayout};
use nvme::driver::{attach_local_driver, LocalDriverConfig};
use nvme::spec::command::SQE_SIZE;
use nvme::spec::completion::CQE_SIZE;
use nvme::{BlockStore, MediaProfile, NvmeConfig, NvmeController};
use nvme::{CqEntry, SqEntry, Status};
use pcie::{Fabric, FabricParams, HostId, PhysAddr};
use simcore::{SimDuration, SimRuntime, Stage};

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

/// Take the controller over with a fresh 32-entry admin queue pair in
/// `host`'s memory (bring-up resets the controller).
async fn raw_admin(fabric: &Fabric, host: HostId, ctrl: &NvmeController) -> AdminQueue {
    let asq = fabric.alloc(host, 32 * SQE_SIZE as u64).unwrap();
    let acq = fabric.alloc(host, 32 * CQE_SIZE as u64).unwrap();
    AdminQueue::init(
        fabric,
        fabric.bar_region(ctrl.device_id(), 0).unwrap(),
        AdminQueueLayout {
            asq_cpu: asq,
            asq_bus: asq.addr,
            acq_cpu: acq,
            acq_bus: acq.addr,
            entries: 32,
        },
    )
    .await
    .unwrap()
}

#[test]
fn bring_up_and_identify() {
    let b = bed();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    let drv = b.rt.block_on(async move {
        attach_local_driver(&fabric, host, &ctrl, LocalDriverConfig::linux())
            .await
            .unwrap()
    });
    assert_eq!(drv.ctrl_info.model, "Simulated Optane P4800X");
    assert_eq!(drv.ctrl_info.nn, 1);
    assert_eq!(drv.ns_info.block_size(), 512);
    assert_eq!(drv.capacity_blocks(), 1 << 20);
    assert_eq!(b.ctrl.live_io_queues(), 1);
}

#[test]
fn write_read_integrity() {
    let _armed = simcore::sanitize::arm();
    let b = bed();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    let ok = b.rt.block_on(async move {
        let drv = attach_local_driver(&fabric, host, &ctrl, LocalDriverConfig::linux())
            .await
            .unwrap();
        let buf = fabric.alloc(host, 8192).unwrap();
        let pattern: Vec<u8> = (0..8192u32).map(|i| (i * 7 % 251) as u8).collect();
        fabric.mem_write(host, buf.addr, &pattern).unwrap();
        drv.submit(Bio::write(64, 16, buf)).await.unwrap();
        // Clobber the buffer, read back.
        fabric.mem_write(host, buf.addr, &vec![0u8; 8192]).unwrap();
        drv.submit(Bio::read(64, 16, buf)).await.unwrap();
        let mut out = vec![0u8; 8192];
        fabric.mem_read(host, buf.addr, &mut out).unwrap();
        out == pattern
    });
    assert!(ok, "read-back data mismatch");
    let records = b.rt.handle().sanitize_records();
    let count = |stage| records.iter().filter(|r| r.stage == stage).count();
    assert_eq!(count(Stage::MediaWrite), 1);
    assert_eq!(count(Stage::MediaRead), 1);
    assert_eq!(b.ctrl.stats().errors_returned, 0);
}

#[test]
fn large_transfer_uses_prp_list() {
    let b = bed();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    let ok = b.rt.block_on(async move {
        let drv = attach_local_driver(&fabric, host, &ctrl, LocalDriverConfig::linux())
            .await
            .unwrap();
        // 64 KiB = 16 pages => PRP list path.
        let buf = fabric.alloc(host, 64 << 10).unwrap();
        let pattern: Vec<u8> = (0..(64 << 10) as u32).map(|i| (i % 253) as u8).collect();
        fabric.mem_write(host, buf.addr, &pattern).unwrap();
        drv.submit(Bio::write(0, 128, buf)).await.unwrap();
        fabric
            .mem_write(host, buf.addr, &vec![0u8; 64 << 10])
            .unwrap();
        drv.submit(Bio::read(0, 128, buf)).await.unwrap();
        let mut out = vec![0u8; 64 << 10];
        fabric.mem_read(host, buf.addr, &mut out).unwrap();
        out == pattern
    });
    assert!(ok);
}

#[test]
fn out_of_range_returns_device_status() {
    let b = bed();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    let err = b.rt.block_on(async move {
        let drv = attach_local_driver(&fabric, host, &ctrl, LocalDriverConfig::linux())
            .await
            .unwrap();
        let buf = fabric.alloc(host, 4096).unwrap();
        // Bypass blklayer validation via io_raw to reach the controller's
        // own LBA check.
        drv.io_raw(BioOp::Read, (1 << 20) - 1, 8, buf.addr)
            .await
            .unwrap()
    });
    assert_eq!(err, nvme::Status::LBA_OUT_OF_RANGE);
    assert_eq!(b.ctrl.stats().errors_returned, 1);
}

#[test]
fn blklayer_validation_rejects_before_device() {
    let b = bed();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    let err = b.rt.block_on(async move {
        let drv = attach_local_driver(&fabric, host, &ctrl, LocalDriverConfig::linux())
            .await
            .unwrap();
        let buf = fabric.alloc(host, 4096).unwrap();
        drv.submit(Bio::read(1 << 20, 8, buf)).await.unwrap_err()
    });
    assert!(matches!(err, BioError::OutOfRange { .. }));
    assert_eq!(
        b.ctrl.stats().errors_returned,
        0,
        "must not reach the device"
    );
}

#[test]
fn flush_completes() {
    let b = bed();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    b.rt.block_on(async move {
        let drv = attach_local_driver(&fabric, host, &ctrl, LocalDriverConfig::linux())
            .await
            .unwrap();
        drv.submit(Bio::flush()).await.unwrap();
    });
}

#[test]
fn polling_beats_interrupts_on_latency() {
    // The same 4 KiB read, once with the linux (IRQ) profile and once with
    // the SPDK (polling) profile: polling must be faster end-to-end.
    fn one_read(cfg: LocalDriverConfig) -> u64 {
        let b = bed();
        let fabric = b.fabric.clone();
        let host = b.host;
        let ctrl = b.ctrl.clone();
        let h = b.rt.handle();
        b.rt.block_on(async move {
            let drv = attach_local_driver(&fabric, host, &ctrl, cfg)
                .await
                .unwrap();
            let buf = fabric.alloc(host, 4096).unwrap();
            let t0 = h.now();
            drv.submit(Bio::read(0, 8, buf)).await.unwrap();
            (h.now() - t0).as_nanos()
        })
    }
    let linux = one_read(LocalDriverConfig::linux());
    let spdk = one_read(LocalDriverConfig::spdk());
    assert!(
        spdk + 1_000 < linux,
        "polling ({spdk} ns) should beat interrupts ({linux} ns) by >1 µs"
    );
    // Both include ~8.6 µs of media latency.
    assert!(spdk > 8_000, "implausibly fast read: {spdk}");
    assert!(linux < 20_000, "implausibly slow read: {linux}");
}

#[test]
fn concurrent_requests_pipeline_through_channels() {
    let b = bed();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    let h = b.rt.handle();
    let (wall, count) = b.rt.block_on(async move {
        let drv = attach_local_driver(&fabric, host, &ctrl, LocalDriverConfig::spdk())
            .await
            .unwrap();
        let t0 = h.now();
        let mut joins = Vec::new();
        for i in 0..32u64 {
            let drv = drv.clone();
            let buf = fabric.alloc(host, 4096).unwrap();
            joins.push(h.spawn(async move { drv.submit(Bio::read(i * 8, 8, buf)).await }));
        }
        let mut done = 0;
        for j in joins {
            j.await.unwrap();
            done += 1;
        }
        ((h.now() - t0).as_nanos(), done)
    });
    assert_eq!(count, 32);
    // 32 reads at ~9 µs each, 7 channels => ~5 waves ≈ 45 µs, far below
    // the 288 µs a serial execution would need.
    assert!(wall < 120_000, "no pipelining: {wall} ns");
}

#[test]
fn queue_depth_reports_the_effective_clamped_depth() {
    // A 64-entry ring holds 63 commands, whatever depth was asked for;
    // `queue_depth()` is what the block layer sizes its admission by.
    let b = bed();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    let mut cfg = LocalDriverConfig::spdk();
    cfg.queue_entries = 64;
    cfg.queue_depth = 128;
    let drv = b.rt.block_on(async move {
        attach_local_driver(&fabric, host, &ctrl, cfg)
            .await
            .unwrap()
    });
    assert_eq!(drv.queue_depth(), 63);
}

#[test]
fn queue_wraparound_survives_many_ios() {
    // More I/Os than queue entries forces SQ/CQ wraps and phase flips.
    let b = bed();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    let mut cfg = LocalDriverConfig::spdk();
    cfg.queue_entries = 8;
    cfg.queue_depth = 4;
    let ok = b.rt.block_on(async move {
        let drv = attach_local_driver(&fabric, host, &ctrl, cfg)
            .await
            .unwrap();
        let buf = fabric.alloc(host, 512).unwrap();
        for i in 0..50u64 {
            let data = [(i % 251) as u8; 512];
            fabric.mem_write(host, buf.addr, &data).unwrap();
            drv.submit(Bio::write(i, 1, buf)).await.unwrap();
        }
        // Verify a few random blocks.
        for i in [0u64, 17, 33, 49] {
            drv.submit(Bio::read(i, 1, buf)).await.unwrap();
            let mut out = [0u8; 512];
            fabric.mem_read(host, buf.addr, &mut out).unwrap();
            if out != [(i % 251) as u8; 512] {
                return false;
            }
        }
        true
    });
    assert!(ok);
    assert!(b.ctrl.stats().commands_fetched >= 54);
}

#[test]
fn wrapping_prp_is_a_data_transfer_error_and_the_queue_survives() {
    // A corrupt PRP1 at the very top of the address space: `addr + len`
    // wraps, and an unchecked range test once took the wrapped end for
    // DRAM. The controller must fail that one command and carry on.
    let b = bed();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    b.rt.block_on(async move {
        let drv = attach_local_driver(&fabric, host, &ctrl, LocalDriverConfig::spdk())
            .await
            .unwrap();
        let bad = pcie::PhysAddr(0xFFFF_FFFF_FFFF_F000);
        let status = drv.io_raw(BioOp::Read, 16, 8, bad).await.unwrap();
        assert_eq!(status, nvme::Status::DATA_TRANSFER_ERROR);
        assert_eq!(ctrl.stats().errors_returned, 1);
        // Same queue, next command: unaffected.
        let buf = fabric.alloc(host, 4096).unwrap();
        fabric.mem_write(host, buf.addr, &[0x5A; 4096]).unwrap();
        drv.submit(Bio::write(16, 8, buf)).await.unwrap();
        fabric.mem_write(host, buf.addr, &[0; 4096]).unwrap();
        drv.submit(Bio::read(16, 8, buf)).await.unwrap();
        let mut out = [0u8; 4096];
        fabric.mem_read(host, buf.addr, &mut out).unwrap();
        assert_eq!(out, [0x5A; 4096]);
    });
    assert_eq!(b.ctrl.stats().errors_returned, 1);
}

#[test]
fn transfers_that_cannot_move_whole_pages_round_trip_byte_exact() {
    // Every shape that falls off the by-reference path: one block, a page
    // at an LBA that is not a multiple of 8, a buffer that starts inside a
    // page (PRP1 carries an offset), and a page plus a block.
    let b = bed();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    b.rt.block_on(async move {
        let drv = attach_local_driver(&fabric, host, &ctrl, LocalDriverConfig::spdk())
            .await
            .unwrap();
        let arena = fabric.alloc(host, 32 << 10).unwrap();
        for (n, (lba, blocks, buf_off)) in [
            (40u64, 1u32, 0u64),
            (43, 8, 0),
            (48, 8, 1536),
            (64, 9, 0),
            (75, 24, 512),
        ]
        .into_iter()
        .enumerate()
        {
            let len = blocks as usize * 512;
            let buf = arena.slice(buf_off, len as u64);
            let pattern: Vec<u8> = (0..len).map(|i| (i * 3 + n * 17) as u8).collect();
            fabric.mem_write(host, buf.addr, &pattern).unwrap();
            drv.submit(Bio::write(lba, blocks, buf)).await.unwrap();
            let mut stored = vec![0u8; len];
            ctrl.store().read_raw(lba, &mut stored);
            assert_eq!(stored, pattern, "case {n}: medium");
            fabric.mem_write(host, buf.addr, &vec![0xEE; len]).unwrap();
            drv.submit(Bio::read(lba, blocks, buf)).await.unwrap();
            let mut out = vec![0u8; len];
            fabric.mem_read(host, buf.addr, &mut out).unwrap();
            assert_eq!(out, pattern, "case {n}: read back");
        }
        // Neighbouring blocks of the unaligned page write are untouched.
        let mut edge = [0xFFu8; 512];
        ctrl.store().read_raw(42, &mut edge);
        assert_eq!(edge, [0u8; 512]);
    });
}

#[test]
fn io_queue_sizes_are_bounded_by_cap_mqes() {
    // CAP.MQES is 0-based: 1,023 advertises 1,024 entries per queue. Create
    // I/O CQ and Create I/O SQ refuse one entry (a queue holds at least
    // two) and 1,025 with INVALID_QUEUE_SIZE, and take 1,024.
    let b = bed();
    assert_eq!(b.ctrl.cap().mqes, 1023);
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    b.rt.block_on(async move {
        let mut admin = raw_admin(&fabric, host, &ctrl).await;
        assert_eq!(admin.cap.mqes, 1023, "CAP as the host reads it");
        let cq = fabric.alloc(host, 1025 * CQE_SIZE as u64).unwrap();
        let sq = fabric.alloc(host, 1025 * SQE_SIZE as u64).unwrap();
        // The CQ first: an SQ needs a live CQ to bind to.
        for name in ["CQ", "SQ"] {
            let build = |size0| match name {
                "CQ" => SqEntry::create_io_cq(0, 1, size0, cq.addr, None),
                _ => SqEntry::create_io_sq(0, 1, size0, sq.addr, 1),
            };
            for entries in [1u16, 1025] {
                let refused = admin.submit(build(entries - 1)).await;
                let Err(AdminError::Command(status)) = refused else {
                    panic!("{name} of {entries} entries must be refused");
                };
                assert_eq!(status, Status::INVALID_QUEUE_SIZE, "{name} of {entries}");
            }
            admin.submit(build(1023)).await.unwrap();
        }
        assert_eq!(ctrl.live_io_queues(), 1);
    });
}

#[test]
fn a_refused_bring_up_gives_back_its_host_memory() {
    // 2,048 I/O queue entries exceed CAP.MQES: Create I/O CQ is refused
    // after the admin rings and both I/O rings were allocated, and the
    // driver must give all of them back.
    let b = bed();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    let free = b.fabric.free_dram_bytes(host);
    let cfg = LocalDriverConfig {
        queue_entries: 2048,
        ..LocalDriverConfig::spdk()
    };
    let refused =
        b.rt.block_on(async move { attach_local_driver(&fabric, host, &ctrl, cfg).await.err() });
    let Some(AdminError::Command(status)) = refused else {
        panic!("a 2,048-entry queue must be refused: {refused:?}");
    };
    assert_eq!(status, Status::INVALID_QUEUE_SIZE);
    assert_eq!(b.fabric.free_dram_bytes(host), free);
}

#[test]
fn unknown_opcodes_complete_with_invalid_opcode_and_the_queue_carries_on() {
    // The controller answers every opcode outside its command set (the
    // `nvme::ctrl` module header) with INVALID_OPCODE, on the admin queue
    // and on an I/O queue rung by hand, and the next valid command on the
    // same queue succeeds. Every wait is bounded, so a command that never
    // completes fails the test instead of hanging it.
    const DEADLINE: SimDuration = SimDuration::from_millis(1);
    let b = bed();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    b.rt.block_on(async move {
        let h = fabric.handle();
        let mut admin = raw_admin(&fabric, host, &ctrl).await;
        for opcode in [0x02, 0x08, 0x0A, 0x0C, 0x7F] {
            let sqe = SqEntry {
                opcode,
                ..SqEntry::default()
            };
            let done = simcore::timeout(&h, DEADLINE, admin.submit(sqe)).await;
            let Ok(Err(AdminError::Command(status))) = done else {
                panic!("admin opcode {opcode:#04x}: {done:?}");
            };
            assert_eq!(status, Status::INVALID_OPCODE, "admin opcode {opcode:#04x}");
            let next = simcore::timeout(&h, DEADLINE, admin.set_num_queues(1)).await;
            assert!(matches!(next, Ok(Ok(_))), "after {opcode:#04x}: {next:?}");
        }

        // I/O queue pair 1 with 8 entries, driven by raw ring writes.
        let sq = fabric.alloc(host, 8 * SQE_SIZE as u64).unwrap();
        let cq = fabric.alloc(host, 8 * CQE_SIZE as u64).unwrap();
        let buf = fabric.alloc(host, 4096).unwrap();
        admin
            .create_io_qpair(1, 8, sq.addr, cq.addr, None)
            .await
            .unwrap();
        let bar = fabric.bar_region(ctrl.device_id(), 0).unwrap();
        let mut slot = 0u64;
        let mut issue = |sqe: SqEntry| {
            let (fabric, h, at) = (fabric.clone(), h.clone(), slot);
            slot += 1;
            let sq_doorbell = bar.addr.offset(admin.cap.sq_doorbell(1));
            let cq_doorbell = bar.addr.offset(admin.cap.cq_doorbell(1));
            async move {
                let sqe_at = sq.addr.offset(at * SQE_SIZE as u64);
                fabric.cpu_write(host, sqe_at, &sqe.encode()).await.unwrap();
                let tail = (at + 1) as u32;
                fabric.cpu_write_u32(host, sq_doorbell, tail).await.unwrap();
                let cqe_at = cq.addr.offset(at * CQE_SIZE as u64);
                let reap = async {
                    loop {
                        let mut raw = [0u8; CQE_SIZE];
                        fabric.mem_read(host, cqe_at, &mut raw).unwrap();
                        if CqEntry::peek_phase(&raw) {
                            return CqEntry::decode(&raw);
                        }
                        h.sleep(SimDuration::from_nanos(100)).await;
                    }
                };
                let cqe = simcore::timeout(&h, DEADLINE, reap).await;
                fabric.cpu_write_u32(host, cq_doorbell, tail).await.unwrap();
                cqe
            }
        };
        for (cid, opcode) in [0x08u8, 0x09, 0x7F].into_iter().enumerate() {
            let cid = 2 * cid as u16;
            let sqe = SqEntry {
                opcode,
                cid,
                nsid: 1,
                prp1: buf.addr,
                ..SqEntry::default()
            };
            let cqe = issue(sqe).await;
            let Ok(cqe) = cqe else {
                panic!("NVM opcode {opcode:#04x} never completed");
            };
            assert_eq!(cqe.cid, cid);
            assert_eq!(
                cqe.status(),
                Status::INVALID_OPCODE,
                "NVM opcode {opcode:#04x}"
            );
            let read = SqEntry::read(cid + 1, 1, 0, 7, buf.addr, PhysAddr(0));
            let cqe = issue(read).await;
            assert!(
                cqe.is_ok_and(|c| c.cid == cid + 1 && c.status().is_success()),
                "read after {opcode:#04x}: {cqe:?}"
            );
        }
    });
    assert_eq!(b.ctrl.stats().errors_returned, 8);
}
