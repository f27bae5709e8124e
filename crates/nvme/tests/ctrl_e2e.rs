//! Controller + local driver end-to-end: bring-up, identify, data
//! integrity, error paths, and the interrupt-vs-polling latency gap.

use std::rc::Rc;

use blklayer::{Bio, BioError, BioOp, BlockDevice};
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
fn dataset_management_deallocates_ranges() {
    let b = bed();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    let ok = b.rt.block_on(async move {
        let drv = attach_local_driver(&fabric, host, &ctrl, LocalDriverConfig::spdk())
            .await
            .unwrap();
        // Write two regions, TRIM one of them, verify.
        let buf = fabric.alloc(host, 4096).unwrap();
        fabric.mem_write(host, buf.addr, &[0xAB; 4096]).unwrap();
        drv.submit(Bio::write(0, 8, buf)).await.unwrap();
        drv.submit(Bio::write(100, 8, buf)).await.unwrap();
        let status = drv
            .deallocate(&[nvme::spec::log::DsmRange::new(0, 8)])
            .await
            .unwrap();
        assert!(status.is_success(), "{status}");
        // Trimmed range reads zero; untouched range keeps data.
        drv.submit(Bio::read(0, 8, buf)).await.unwrap();
        let mut z = vec![0xFFu8; 4096];
        fabric.mem_read(host, buf.addr, &mut z).unwrap();
        drv.submit(Bio::read(100, 8, buf)).await.unwrap();
        let mut d = vec![0u8; 4096];
        fabric.mem_read(host, buf.addr, &mut d).unwrap();
        z.iter().all(|&x| x == 0) && d.iter().all(|&x| x == 0xAB)
    });
    assert!(ok);
}

#[test]
fn dsm_out_of_range_is_rejected() {
    let b = bed();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    let status = b.rt.block_on(async move {
        let drv = attach_local_driver(&fabric, host, &ctrl, LocalDriverConfig::spdk())
            .await
            .unwrap();
        drv.deallocate(&[nvme::spec::log::DsmRange::new(u64::MAX - 8, 16)])
            .await
            .unwrap()
    });
    assert_eq!(status, nvme::Status::LBA_OUT_OF_RANGE);
}

#[test]
fn error_log_records_failures_newest_first() {
    let b = bed();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    let entries = b.rt.block_on(async move {
        let drv = attach_local_driver(&fabric, host, &ctrl, LocalDriverConfig::spdk())
            .await
            .unwrap();
        // Two distinct failures: out-of-range read, then invalid opcode is
        // hard to emit via the driver, so a second out-of-range at another
        // LBA.
        let buf = fabric.alloc(host, 4096).unwrap();
        let s1 = drv
            .io_raw(BioOp::Read, (1 << 20) + 5, 8, buf.addr)
            .await
            .unwrap();
        assert!(!s1.is_success());
        let s2 = drv
            .io_raw(BioOp::Read, (1 << 20) + 77, 8, buf.addr)
            .await
            .unwrap();
        assert!(!s2.is_success());
        ctrl.error_log()
    });
    assert_eq!(entries.len(), 2);
    // Newest first, with the LBA context captured.
    assert_eq!(entries[0].lba, (1 << 20) + 77);
    assert_eq!(entries[1].lba, (1 << 20) + 5);
    assert_eq!(entries[0].status, nvme::Status::LBA_OUT_OF_RANGE);
    assert!(entries[0].error_count > entries[1].error_count);
}

#[test]
fn error_log_readable_via_get_log_page() {
    // The wire path: a driver reads the Error Information log with a real
    // Get Log Page command.
    use nvme::driver::admin::{AdminQueue, AdminQueueLayout};
    use nvme::spec::command::SQE_SIZE;
    use nvme::spec::completion::CQE_SIZE;
    let b = bed();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    b.rt.block_on(async move {
        // Trigger an error through a normal driver...
        {
            let drv = attach_local_driver(&fabric, host, &ctrl, LocalDriverConfig::spdk())
                .await
                .unwrap();
            let buf = fabric.alloc(host, 4096).unwrap();
            let _ = drv
                .io_raw(BioOp::Read, (1 << 20) + 9, 8, buf.addr)
                .await
                .unwrap();
        }
        // ...then re-own the controller with a fresh admin queue. (The
        // re-init resets the controller, which clears the log — so trigger
        // another error after re-init via raw queue mechanics instead.)
        let asq = fabric.alloc(host, 32 * SQE_SIZE as u64).unwrap();
        let acq = fabric.alloc(host, 32 * CQE_SIZE as u64).unwrap();
        let mut admin = AdminQueue::init(
            &fabric,
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
        .unwrap();
        assert!(ctrl.error_log().is_empty(), "reset must clear the log");
        // Issue a bad admin command (invalid identify CNS) to log an error.
        let err = admin
            .submit(nvme::SqEntry::identify(0, 0x55, 0, asq.addr))
            .await;
        assert!(err.is_err());
        let logbuf = fabric.alloc(host, 4096).unwrap();
        let entries = admin.read_error_log(logbuf, logbuf.addr, 8).await.unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].status, nvme::Status::INVALID_FIELD);
        assert_eq!(entries[0].sqid, 0, "admin queue error");
    });
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
        let log = ctrl.error_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].status, nvme::Status::DATA_TRANSFER_ERROR);
        assert_eq!(log[0].lba, 16);
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
fn deallocate_frees_whole_pages_and_spares_their_neighbours() {
    let b = bed();
    let fabric = b.fabric.clone();
    let host = b.host;
    let ctrl = b.ctrl.clone();
    b.rt.block_on(async move {
        let drv = attach_local_driver(&fabric, host, &ctrl, LocalDriverConfig::spdk())
            .await
            .unwrap();
        let buf = fabric.alloc(host, 16 << 10).unwrap();
        fabric.mem_write(host, buf.addr, &[0xC3; 16 << 10]).unwrap();
        drv.submit(Bio::write(0, 32, buf)).await.unwrap();
        let store = ctrl.store();
        assert_eq!(store.resident_pages(), 4);
        // Part of page 0 (blocks 5..8), all of pages 1 and 2, one block of
        // page 3 — in two ranges of one command.
        let ranges = [
            nvme::spec::log::DsmRange::new(5, 3),
            nvme::spec::log::DsmRange::new(8, 17),
        ];
        assert!(drv.deallocate(&ranges).await.unwrap().is_success());
        assert_eq!(store.resident_pages(), 2, "whole pages are freed");
        fabric.mem_write(host, buf.addr, &[0xFF; 16 << 10]).unwrap();
        drv.submit(Bio::read(0, 32, buf)).await.unwrap();
        let mut out = vec![0u8; 16 << 10];
        fabric.mem_read(host, buf.addr, &mut out).unwrap();
        assert!(out[..5 * 512].iter().all(|&x| x == 0xC3));
        assert!(out[5 * 512..25 * 512].iter().all(|&x| x == 0));
        assert!(out[25 * 512..].iter().all(|&x| x == 0xC3));
    });
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
