//! Property tests for the qpair engine over deliberately tiny rings, so
//! every case crosses the SQ/CQ ring boundary many times and the CQ phase
//! bit inverts repeatedly. Ops run through the full local-driver stack:
//! the model is per-worker last-written-pattern, verified on every read.

use std::rc::Rc;

use blklayer::BioOp;
use nvme::driver::{attach_local_driver, LocalDriverConfig};
use nvme::spec::completion::CQE_SIZE;
use nvme::{
    BlockStore, CompletionStrategy, CqEntry, CqRing, MediaProfile, NvmeConfig, NvmeController,
    Status,
};
use pcie::{DomainAddr, Fabric, FabricParams};
use proptest::prelude::*;
use simcore::{SimDuration, SimRuntime};

/// Four-entry rings: three tags fill the SQ to capacity and the rings wrap
/// every four commands.
fn tiny_config(polling: bool) -> LocalDriverConfig {
    let base = if polling {
        LocalDriverConfig::spdk()
    } else {
        LocalDriverConfig::linux()
    };
    LocalDriverConfig {
        queue_entries: 4,
        queue_depth: 3,
        ..base
    }
}

proptest! {
    #[test]
    fn tiny_rings_survive_wraparound(
        polling in 0u8..2,
        media_seed in 0u64..1024,
        burst in 1usize..4,
        ops in prop::collection::vec((0u8..2, 0u64..8), 8..48),
    ) {
        let rt = SimRuntime::new();
        let fabric = Fabric::new(rt.handle(), FabricParams::default());
        let host = fabric.add_host(64 << 20);
        let store = Rc::new(BlockStore::new(
            rt.handle(),
            MediaProfile::optane(),
            512,
            1 << 20,
            media_seed,
        ));
        let ctrl = NvmeController::attach(
            &fabric,
            host,
            fabric.rc_node(host),
            store,
            NvmeConfig::default(),
        );
        let handle = rt.handle();
        let f2 = fabric.clone();
        let total_ops = ops.len() as u64 * burst as u64;
        let ok = rt.block_on(async move {
            let drv = attach_local_driver(&f2, host, &ctrl, tiny_config(polling == 1))
                .await
                .unwrap();
            let mut tasks = Vec::new();
            for w in 0..burst as u64 {
                let drv = drv.clone();
                let fabric = f2.clone();
                let ops = ops.clone();
                // Each worker owns a disjoint 8-block LBA span, so its
                // sequential model is exact even with bursts in flight.
                tasks.push(handle.spawn(async move {
                    let base = w * 8;
                    let buf = fabric.alloc(host, 512).unwrap();
                    let mut model: [Option<u8>; 8] = [None; 8];
                    for (i, &(kind, blk)) in ops.iter().enumerate() {
                        let lba = base + blk;
                        if kind == 0 {
                            let pat = (w as u8) ^ (blk as u8) ^ (i as u8);
                            fabric.mem_write(host, buf.addr, &[pat; 512]).unwrap();
                            let st = drv
                                .io_raw(BioOp::Write, lba, 1, buf.addr)
                                .await
                                .unwrap();
                            if !st.is_success() {
                                return false;
                            }
                            model[blk as usize] = Some(pat);
                        } else {
                            let st = drv
                                .io_raw(BioOp::Read, lba, 1, buf.addr)
                                .await
                                .unwrap();
                            if !st.is_success() {
                                return false;
                            }
                            if let Some(pat) = model[blk as usize] {
                                let mut got = [0u8; 512];
                                fabric.mem_read(host, buf.addr, &mut got).unwrap();
                                if got != [pat; 512] {
                                    return false;
                                }
                            }
                        }
                    }
                    true
                }));
            }
            let mut all = true;
            for t in tasks {
                all &= t.await;
            }
            let t = drv.engine_totals();
            // Every submitted command must come back, whatever the ring
            // position or phase.
            all &= t.sqes_submitted == total_ops;
            all &= t.cqes_reaped == total_ops;
            all &= t.doorbell_errors == 0 && t.push_errors == 0;
            // A lone worker is queue depth 1: coalescing must be inert
            // even while the rings wrap.
            if burst == 1 {
                all &= t.sq_doorbells == t.sqes_submitted;
                all &= t.max_batch <= 1;
            }
            all
        });
        prop_assert!(ok, "an op failed, a read returned stale data, or doorbell accounting drifted");
    }

    /// Ring-level phase walk: emulate a device posting entries slot by
    /// slot with the phase flipping on each wrap; the guarded pop must
    /// yield exactly the posted sequence and never read past it.
    #[test]
    fn cq_phase_walk_across_wraps(
        entries in 2u16..8,
        total in 1usize..40,
    ) {
        let rt = SimRuntime::new();
        let fabric = Fabric::new(rt.handle(), FabricParams::default());
        let host = fabric.add_host(16 << 20);
        let ring = fabric.alloc(host, entries as u64 * CQE_SIZE as u64).unwrap();
        let db = DomainAddr::new(host, ring.addr);
        let cq = CqRing::new(&fabric, 1, ring, db, entries);
        for i in 0..total {
            let slot = i % entries as usize;
            let phase = (i / entries as usize).is_multiple_of(2);
            prop_assert!(cq.try_pop().is_none(), "popped a slot nothing was posted to");
            let cqe = CqEntry::new(0, 0, 1, i as u16, phase, Status::SUCCESS);
            let addr = ring.addr.offset(slot as u64 * CQE_SIZE as u64);
            fabric.mem_write(host, addr, &cqe.encode()).unwrap();
            let got = cq.try_pop();
            prop_assert!(got.is_some(), "posted entry {i} not visible");
            prop_assert_eq!(got.unwrap().cid, i as u16);
        }
        prop_assert!(cq.try_pop().is_none());
        drop(rt);
    }
}

/// Interrupt completions must also survive tiny rings (the MSI path keeps
/// its own pacing): plain sequential smoke over many wraps.
#[test]
fn interrupt_mode_tiny_ring_sequential() {
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let host = fabric.add_host(64 << 20);
    let store = Rc::new(BlockStore::new(
        rt.handle(),
        MediaProfile::optane(),
        512,
        1 << 20,
        3,
    ));
    let ctrl = NvmeController::attach(
        &fabric,
        host,
        fabric.rc_node(host),
        store,
        NvmeConfig::default(),
    );
    let f2 = fabric.clone();
    rt.block_on(async move {
        let mut cfg = tiny_config(false);
        cfg.mode = CompletionStrategy::Interrupt {
            latency: SimDuration::from_nanos(1_400),
        };
        let drv = attach_local_driver(&f2, host, &ctrl, cfg).await.unwrap();
        let buf = f2.alloc(host, 512).unwrap();
        for i in 0..21u64 {
            let st = drv.io_raw(BioOp::Write, i % 5, 1, buf.addr).await.unwrap();
            assert!(st.is_success());
        }
        let t = drv.engine_totals();
        assert_eq!(t.sqes_submitted, 21);
        assert_eq!(t.cqes_reaped, 21);
        assert_eq!(t.sq_doorbells, 21);
    });
}
