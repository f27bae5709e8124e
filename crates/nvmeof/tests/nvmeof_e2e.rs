//! NVMe-oF end-to-end: initiator host <-IB-> target host with a local
//! NVMe device, the paper's Fig. 9a remote scenario.

use std::rc::Rc;

use blklayer::{Bio, BioError, BlockDevice};
use nvme::driver::{attach_local_driver, LocalDriverConfig};
use nvme::{BlockStore, MediaProfile, NvmeConfig, NvmeController};
use nvmeof::{InitiatorConfig, NvmfInitiator, NvmfTarget, TargetConfig};
use pcie::{Fabric, FabricParams, HostId};
use rdma::{Access, IbNet, IbParams, NicId, Qp, SendWr};
use simcore::{SimDuration, SimRuntime};

struct Parts {
    fabric: Fabric,
    initiator_host: HostId,
    target_host: HostId,
    net: IbNet,
    nic_i: NicId,
    nic_t: NicId,
    ctrl: Rc<NvmeController>,
}

fn bed() -> (SimRuntime, Rc<Parts>) {
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let initiator_host = fabric.add_host(256 << 20);
    let target_host = fabric.add_host(256 << 20);
    let net = IbNet::new(&fabric, IbParams::default());
    let nic_i = net.add_nic(initiator_host);
    let nic_t = net.add_nic(target_host);
    let store = Rc::new(BlockStore::new(
        rt.handle(),
        MediaProfile::optane(),
        512,
        1 << 20,
        5,
    ));
    let ctrl = NvmeController::attach(
        &fabric,
        target_host,
        fabric.rc_node(target_host),
        store,
        NvmeConfig::default(),
    );
    (
        rt,
        Rc::new(Parts {
            fabric,
            initiator_host,
            target_host,
            net,
            nic_i,
            nic_t,
            ctrl,
        }),
    )
}

async fn connect(p: &Parts) -> (Rc<NvmfTarget>, Rc<NvmfInitiator>) {
    connect_with_depth(p, 64).await
}

async fn connect_with_depth(p: &Parts, queue_depth: usize) -> (Rc<NvmfTarget>, Rc<NvmfInitiator>) {
    let cfg = TargetConfig {
        queue_depth,
        ..TargetConfig::default()
    };
    connect_with(p, cfg).await
}

async fn connect_with(p: &Parts, cfg: TargetConfig) -> (Rc<NvmfTarget>, Rc<NvmfInitiator>) {
    let queue_depth = cfg.queue_depth;
    let driver = attach_local_driver(&p.fabric, p.target_host, &p.ctrl, LocalDriverConfig::spdk())
        .await
        .unwrap();
    let target = NvmfTarget::new(&p.fabric, &p.net, p.nic_t, p.target_host, driver, cfg);
    let init = NvmfInitiator::connect(
        &p.fabric,
        &p.net,
        p.nic_i,
        p.initiator_host,
        &target,
        InitiatorConfig {
            queue_depth,
            ..InitiatorConfig::default()
        },
    );
    (target, init)
}

#[test]
fn remote_write_read_integrity() {
    let (rt, p) = bed();
    let ok = rt.block_on({
        let p = p.clone();
        async move {
            let (_t, init) = connect(&p).await;
            let host = p.initiator_host;
            let buf = p.fabric.alloc(host, 8192).unwrap();
            let pattern: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
            p.fabric.mem_write(host, buf.addr, &pattern).unwrap();
            // 8 KiB write: exceeds 4 KiB ICD => RDMA READ path.
            init.submit(Bio::write(40, 16, buf)).await.unwrap();
            p.fabric
                .mem_write(host, buf.addr, &vec![0u8; 8192])
                .unwrap();
            init.submit(Bio::read(40, 16, buf)).await.unwrap();
            let mut out = vec![0u8; 8192];
            p.fabric.mem_read(host, buf.addr, &mut out).unwrap();
            out == pattern
        }
    });
    assert!(ok, "NVMe-oF data corruption");
}

#[test]
fn small_write_uses_in_capsule_data() {
    let (rt, p) = bed();
    let (icd, rdma_reads, ok) = rt.block_on({
        let p = p.clone();
        async move {
            let (target, init) = connect(&p).await;
            let host = p.initiator_host;
            let buf = p.fabric.alloc(host, 4096).unwrap();
            p.fabric.mem_write(host, buf.addr, &[0x3Cu8; 4096]).unwrap();
            init.submit(Bio::write(0, 8, buf)).await.unwrap();
            p.fabric
                .mem_write(host, buf.addr, &vec![0u8; 4096])
                .unwrap();
            init.submit(Bio::read(0, 8, buf)).await.unwrap();
            let mut out = vec![0u8; 4096];
            p.fabric.mem_read(host, buf.addr, &mut out).unwrap();
            let ts = target.stats();
            (ts.icd_writes, ts.rdma_reads, out.iter().all(|&x| x == 0x3C))
        }
    });
    assert!(ok);
    assert_eq!(icd, 1, "4 KiB write must go in-capsule");
    assert_eq!(rdma_reads, 0, "no RDMA READ for ICD writes");
}

#[test]
fn large_write_uses_rdma_read() {
    let (rt, p) = bed();
    let rdma_reads = rt.block_on({
        let p = p.clone();
        async move {
            let (target, init) = connect(&p).await;
            let buf = p.fabric.alloc(p.initiator_host, 64 << 10).unwrap();
            init.submit(Bio::write(0, 128, buf)).await.unwrap();
            target.stats().rdma_reads
        }
    });
    assert_eq!(rdma_reads, 1);
}

#[test]
fn out_of_range_propagates_as_error() {
    let (rt, p) = bed();
    let err = rt.block_on({
        let p = p.clone();
        async move {
            let (_t, init) = connect(&p).await;
            let buf = p.fabric.alloc(p.initiator_host, 4096).unwrap();
            init.submit(Bio::read(1 << 20, 8, buf)).await.unwrap_err()
        }
    });
    assert!(matches!(err, BioError::OutOfRange { .. }));
}

#[test]
fn concurrent_ios_complete() {
    let (rt, p) = bed();
    let h = rt.handle();
    let done = rt.block_on({
        let p = p.clone();
        async move {
            let (_t, init) = connect(&p).await;
            let mut joins = Vec::new();
            for i in 0..16u64 {
                let init = init.clone();
                let buf = p.fabric.alloc(p.initiator_host, 4096).unwrap();
                joins.push(h.spawn(async move { init.submit(Bio::read(i * 8, 8, buf)).await }));
            }
            let mut n = 0;
            for j in joins {
                j.await.unwrap();
                n += 1;
            }
            n
        }
    });
    assert_eq!(done, 16);
}

#[test]
fn nvmeof_latency_penalty_is_several_microseconds() {
    // The headline comparison: one 4 KiB read via NVMe-oF vs via the
    // local stock driver — the delta should be in the multi-µs range
    // (paper: 7.7 µs for minimum latency).
    let (rt, p) = bed();
    let h = rt.handle();
    let (remote_ns, local_ns) = rt.block_on({
        let p = p.clone();
        let h = h.clone();
        async move {
            let (_t, init) = connect(&p).await;
            let buf = p.fabric.alloc(p.initiator_host, 4096).unwrap();
            init.submit(Bio::read(0, 8, buf)).await.unwrap(); // warm
            let t0 = h.now();
            init.submit(Bio::read(8, 8, buf)).await.unwrap();
            let remote = (h.now() - t0).as_nanos();

            // Local baseline on the target host with the stock driver —
            // a second controller avoids interfering with the target's.
            let store2 = Rc::new(BlockStore::new(
                h.clone(),
                MediaProfile::optane(),
                512,
                1 << 20,
                6,
            ));
            let ctrl2 = NvmeController::attach(
                &p.fabric,
                p.target_host,
                p.fabric.rc_node(p.target_host),
                store2,
                NvmeConfig::default(),
            );
            let drv =
                attach_local_driver(&p.fabric, p.target_host, &ctrl2, LocalDriverConfig::linux())
                    .await
                    .unwrap();
            let lbuf = p.fabric.alloc(p.target_host, 4096).unwrap();
            drv.submit(Bio::read(0, 8, lbuf)).await.unwrap(); // warm
            let t1 = h.now();
            drv.submit(Bio::read(8, 8, lbuf)).await.unwrap();
            let local = (h.now() - t1).as_nanos();
            (remote, local)
        }
    });
    assert!(
        remote_ns > local_ns,
        "remote {remote_ns} must exceed local {local_ns}"
    );
    let delta = remote_ns - local_ns;
    assert!(
        (4_000..12_000).contains(&delta),
        "NVMe-oF penalty should be several µs, got {delta} ns (local {local_ns}, remote {remote_ns})"
    );
}

#[test]
fn staging_buffers_start_on_a_page_whatever_the_largest_transfer() {
    // Tag t stages its data t strides into the staging region. A stride
    // of exactly 157,286 B (128 KiB + 20 %) would start tag t part-way
    // into a page, and the controller's DMA into a buffer that is not
    // page-aligned takes more bursts. Receives rotate through the tags,
    // so sixteen reads in a row use sixteen buffers: each must take
    // exactly as long as with the default, page-multiple `max_io_size`.
    let latencies = |max_io_size: u64| {
        let (rt, p) = bed();
        let h = rt.handle();
        rt.block_on(async move {
            let cfg = TargetConfig {
                max_io_size,
                ..TargetConfig::default()
            };
            let (_t, init) = connect_with(&p, cfg).await;
            let buf = p.fabric.alloc(p.initiator_host, 4096).unwrap();
            let mut out = Vec::new();
            for i in 0..16 {
                let t0 = h.now();
                init.submit(Bio::read(i * 8, 8, buf)).await.unwrap();
                out.push((h.now() - t0).as_nanos());
            }
            out
        })
    };
    assert_eq!(latencies(157_286), latencies(128 << 10));
}

/// `count` signaled sends of `len` bytes of `host`'s memory on `qp`, then
/// long enough for the other end to have dealt with all of them.
async fn send_raw(p: &Parts, qp: &Qp, nic: NicId, host: HostId, len: u64, count: usize) {
    let region = p.fabric.alloc(host, len).unwrap();
    let mr = p.net.register_mr(nic, region, Access::local_only());
    for i in 0..count {
        qp.post_send(SendWr::Send {
            wr_id: 1_000 + i as u64,
            lkey: mr.lkey,
            laddr: region.addr.as_u64(),
            len,
            imm: 0,
        })
        .await;
    }
    p.fabric.handle().sleep(SimDuration::from_micros(200)).await;
}

#[test]
fn a_receive_that_failed_gets_its_buffer_back() {
    // The NIC consumes a receive even when the message does not fit it. A
    // peer that sends `queue_depth + 1` oversized messages must not leave
    // the connection without receive buffers, in either direction.
    const QD: usize = 4;
    let (rt, p) = bed();
    let errors = rt.block_on({
        let p = p.clone();
        async move {
            let (target, init) = connect_with_depth(&p, QD).await;
            let qp_i = init.qp().clone();
            let qp_t = qp_i.peer().unwrap();
            // Capsules larger than the target's 8 KiB command buffers...
            send_raw(&p, &qp_i, p.nic_i, p.initiator_host, 16 << 10, QD + 1).await;
            // ...and responses larger than the initiator's 64 B ones.
            send_raw(&p, &qp_t, p.nic_t, p.target_host, 128, QD + 1).await;
            let buf = p.fabric.alloc(p.initiator_host, 4096).unwrap();
            for lba in 0..2 * QD as u64 {
                let read = init.submit(Bio::read(lba * 8, 8, buf));
                simcore::timeout(&p.fabric.handle(), SimDuration::from_millis(1), read)
                    .await
                    .expect("a read after the bad messages never completed")
                    .unwrap();
            }
            target.stats().errors
        }
    });
    assert_eq!(errors, QD as u64 + 1, "one per oversized capsule");
}

#[test]
fn a_capsule_that_cannot_be_delivered_fails_its_command() {
    let (rt, p) = bed();
    let err = rt.block_on({
        let p = p.clone();
        async move {
            let (_t, init) = connect(&p).await;
            // Point the initiator at a QP nobody posted a receive on.
            let deaf = p.net.create_qp(p.nic_t);
            init.qp().connect(&deaf);
            let buf = p.fabric.alloc(p.initiator_host, 4096).unwrap();
            init.submit(Bio::read(0, 8, buf)).await.unwrap_err()
        }
    });
    assert!(matches!(err, BioError::Gone), "got {err:?}");
}

#[test]
fn send_queues_stay_empty_over_ten_thousand_reads() {
    let (rt, p) = bed();
    let (left_i, left_t) = rt.block_on({
        let p = p.clone();
        async move {
            let (_t, init) = connect(&p).await;
            let buf = p.fabric.alloc(p.initiator_host, 4096).unwrap();
            for i in 0..10_000u64 {
                init.submit(Bio::read(i % 1_000 * 8, 8, buf)).await.unwrap();
            }
            let qp_t = init.qp().peer().unwrap();
            (init.qp().send_cq().len(), qp_t.send_cq().len())
        }
    });
    assert_eq!((left_i, left_t), (0, 0), "unread send completions");
}
