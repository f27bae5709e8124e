//! Verbs end-to-end tests: two hosts with RNICs.

use pcie::{Fabric, FabricParams, HostId, MemRegion};
use rdma::{Access, IbNet, IbParams, Qp, SendWr, WcOpcode, WcStatus};
use simcore::SimRuntime;

struct Bed {
    rt: SimRuntime,
    fabric: Fabric,
    net: IbNet,
    h0: HostId,
    h1: HostId,
    qp0: Qp,
    qp1: Qp,
    nic0: rdma::NicId,
    nic1: rdma::NicId,
}

fn bed() -> Bed {
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let h0 = fabric.add_host(64 << 20);
    let h1 = fabric.add_host(64 << 20);
    let net = IbNet::new(&fabric, IbParams::default());
    let nic0 = net.add_nic(h0);
    let nic1 = net.add_nic(h1);
    let qp0 = net.create_qp(nic0);
    let qp1 = net.create_qp(nic1);
    qp0.connect(&qp1);
    Bed {
        rt,
        fabric,
        net,
        h0,
        h1,
        qp0,
        qp1,
        nic0,
        nic1,
    }
}

fn alloc_mr(
    b: &Bed,
    host: HostId,
    nic: rdma::NicId,
    len: u64,
    access: Access,
) -> (MemRegion, rdma::MemoryRegion) {
    let region = b.fabric.alloc(host, len).unwrap();
    let mr = b.net.register_mr(nic, region, access);
    (region, mr)
}

#[test]
fn send_recv_transfers_data() {
    let b = bed();
    let (src, src_mr) = alloc_mr(&b, b.h0, b.nic0, 4096, Access::local_only());
    let (dst, dst_mr) = alloc_mr(&b, b.h1, b.nic1, 4096, Access::local_only());
    b.fabric.mem_write(b.h0, src.addr, &[0x42u8; 4096]).unwrap();
    b.qp1.post_recv(7, dst_mr.lkey, dst.addr.as_u64(), 4096);
    let (send_wc, recv_wc) = b.rt.block_on({
        let qp0 = b.qp0.clone();
        let qp1 = b.qp1.clone();
        async move {
            qp0.post_send(SendWr::Send {
                wr_id: 1,
                lkey: src_mr.lkey,
                laddr: src.addr.as_u64(),
                len: 4096,
                imm: 99,
            })
            .await;
            let recv = qp1.recv_cq().next().await;
            let send = qp0.send_cq().next().await;
            (send, recv)
        }
    });
    assert_eq!(send_wc.status, WcStatus::Success);
    assert_eq!(recv_wc.status, WcStatus::Success);
    assert_eq!(recv_wc.wr_id, 7);
    assert_eq!(recv_wc.byte_len, 4096);
    assert_eq!(recv_wc.imm, 99);
    let mut out = vec![0u8; 4096];
    b.fabric.mem_read(b.h1, dst.addr, &mut out).unwrap();
    assert!(out.iter().all(|&x| x == 0x42));
}

#[test]
fn send_without_posted_recv_is_rnr() {
    let b = bed();
    let (src, src_mr) = alloc_mr(&b, b.h0, b.nic0, 64, Access::local_only());
    let wc = b.rt.block_on({
        let qp0 = b.qp0.clone();
        async move {
            qp0.post_send(SendWr::Send {
                wr_id: 1,
                lkey: src_mr.lkey,
                laddr: src.addr.as_u64(),
                len: 64,
                imm: 0,
            })
            .await;
            qp0.send_cq().next().await
        }
    });
    assert_eq!(wc.status, WcStatus::RnrError);
}

#[test]
fn rdma_write_lands_remotely() {
    let b = bed();
    let (src, src_mr) = alloc_mr(&b, b.h0, b.nic0, 4096, Access::local_only());
    let (dst, dst_mr) = alloc_mr(&b, b.h1, b.nic1, 4096, Access::remote_all());
    b.fabric
        .mem_write(b.h0, src.addr, b"one-sided payload")
        .unwrap();
    let wc = b.rt.block_on({
        let qp0 = b.qp0.clone();
        async move {
            qp0.post_send(SendWr::Write {
                wr_id: 2,
                lkey: src_mr.lkey,
                laddr: src.addr.as_u64(),
                len: 17,
                raddr: dst.addr.as_u64(),
                rkey: dst_mr.rkey,
            })
            .await;
            qp0.send_cq().next().await
        }
    });
    assert_eq!(wc.status, WcStatus::Success);
    assert_eq!(wc.opcode, WcOpcode::RdmaWrite);
    let mut out = [0u8; 17];
    b.fabric.mem_read(b.h1, dst.addr, &mut out).unwrap();
    assert_eq!(&out, b"one-sided payload");
}

#[test]
fn rdma_read_fetches_remote_data() {
    let b = bed();
    let (dst, dst_mr) = alloc_mr(&b, b.h0, b.nic0, 4096, Access::local_only());
    let (src, src_mr) = alloc_mr(&b, b.h1, b.nic1, 4096, Access::remote_read_only());
    b.fabric.mem_write(b.h1, src.addr, &[7u8; 4096]).unwrap();
    let wc = b.rt.block_on({
        let qp0 = b.qp0.clone();
        async move {
            qp0.post_send(SendWr::Read {
                wr_id: 3,
                lkey: dst_mr.lkey,
                laddr: dst.addr.as_u64(),
                len: 4096,
                raddr: src.addr.as_u64(),
                rkey: src_mr.rkey,
            })
            .await;
            qp0.send_cq().next().await
        }
    });
    assert_eq!(wc.status, WcStatus::Success);
    let mut out = vec![0u8; 4096];
    b.fabric.mem_read(b.h0, dst.addr, &mut out).unwrap();
    assert!(out.iter().all(|&x| x == 7));
}

#[test]
fn rkey_permissions_protect_memory() {
    let b = bed();
    let (src, src_mr) = alloc_mr(&b, b.h0, b.nic0, 64, Access::local_only());
    // Remote region is read-only: writes must fail with ProtectionError.
    let (dst, dst_mr) = alloc_mr(&b, b.h1, b.nic1, 64, Access::remote_read_only());
    let wc = b.rt.block_on({
        let qp0 = b.qp0.clone();
        async move {
            qp0.post_send(SendWr::Write {
                wr_id: 4,
                lkey: src_mr.lkey,
                laddr: src.addr.as_u64(),
                len: 64,
                raddr: dst.addr.as_u64(),
                rkey: dst_mr.rkey,
            })
            .await;
            qp0.send_cq().next().await
        }
    });
    assert_eq!(wc.status, WcStatus::ProtectionError);
    // Memory untouched (reads back zero).
    let mut check = [0u8; 8];
    b.fabric.mem_read(b.h1, dst.addr, &mut check).unwrap();
    assert_eq!(check, [0u8; 8]);
}

#[test]
fn small_message_latency_close_to_a_microsecond() {
    let b = bed();
    let (src, src_mr) = alloc_mr(&b, b.h0, b.nic0, 64, Access::local_only());
    let (dst, dst_mr) = alloc_mr(&b, b.h1, b.nic1, 64, Access::local_only());
    b.qp1.post_recv(1, dst_mr.lkey, dst.addr.as_u64(), 64);
    let h = b.rt.handle();
    let lat = b.rt.block_on({
        let qp0 = b.qp0.clone();
        let qp1 = b.qp1.clone();
        async move {
            let t0 = h.now();
            qp0.post_send(SendWr::Send {
                wr_id: 1,
                lkey: src_mr.lkey,
                laddr: src.addr.as_u64(),
                len: 64,
                imm: 0,
            })
            .await;
            qp1.recv_cq().next().await;
            (h.now() - t0).as_nanos()
        }
    });
    assert!(
        (900..2_500).contains(&lat),
        "64 B send one-way latency {lat} ns"
    );
}

#[test]
fn wqe_ordering_preserved() {
    // Two sends from the same QP must arrive in order.
    let b = bed();
    let (src, src_mr) = alloc_mr(&b, b.h0, b.nic0, 8192, Access::local_only());
    let (dst, dst_mr) = alloc_mr(&b, b.h1, b.nic1, 8192, Access::local_only());
    b.fabric.mem_write(b.h0, src.addr, &[1u8; 4096]).unwrap();
    b.fabric
        .mem_write(b.h0, src.addr.offset(4096), &[2u8; 64])
        .unwrap();
    b.qp1.post_recv(10, dst_mr.lkey, dst.addr.as_u64(), 4096);
    b.qp1
        .post_recv(11, dst_mr.lkey, dst.addr.as_u64() + 4096, 64);
    let order = b.rt.block_on({
        let qp0 = b.qp0.clone();
        let qp1 = b.qp1.clone();
        async move {
            qp0.post_send(SendWr::Send {
                wr_id: 1,
                lkey: src_mr.lkey,
                laddr: src.addr.as_u64(),
                len: 4096,
                imm: 0,
            })
            .await;
            qp0.post_send(SendWr::Send {
                wr_id: 2,
                lkey: src_mr.lkey,
                laddr: src.addr.as_u64() + 4096,
                len: 64,
                imm: 0,
            })
            .await;
            let a = qp1.recv_cq().next().await;
            let b2 = qp1.recv_cq().next().await;
            (a.wr_id, b2.wr_id)
        }
    });
    assert_eq!(order, (10, 11), "receives must match post order");
}

#[test]
fn disconnected_qp_errors() {
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let h0 = fabric.add_host(16 << 20);
    let net = IbNet::new(&fabric, IbParams::default());
    let nic0 = net.add_nic(h0);
    let qp = net.create_qp(nic0);
    let region = fabric.alloc(h0, 64).unwrap();
    let mr = net.register_mr(nic0, region, Access::local_only());
    let wc = rt.block_on(async move {
        qp.post_send(SendWr::Send {
            wr_id: 1,
            lkey: mr.lkey,
            laddr: region.addr.as_u64(),
            len: 64,
            imm: 0,
        })
        .await;
        qp.send_cq().next().await
    });
    assert_eq!(wc.status, WcStatus::NotConnected);
}

/// Post `n` signaled 64 B sends back to back; return each one's
/// `(delivery instant, completion instant, completed wr_id)`.
fn send_burst(n: u64) -> Vec<(u64, u64, u64)> {
    let b = bed();
    let (src, src_mr) = alloc_mr(&b, b.h0, b.nic0, 64 * n, Access::local_only());
    let (dst, dst_mr) = alloc_mr(&b, b.h1, b.nic1, 64 * n, Access::local_only());
    for i in 0..n {
        b.qp1
            .post_recv(100 + i, dst_mr.lkey, dst.addr.as_u64() + 64 * i, 64);
    }
    let h = b.rt.handle();
    let delivered = b.rt.handle().spawn({
        let (h, recv_cq) = (h.clone(), b.qp1.recv_cq());
        async move {
            let mut at = Vec::new();
            for _ in 0..n {
                recv_cq.next().await;
                at.push(h.now().as_nanos());
            }
            at
        }
    });
    b.rt.block_on({
        let qp0 = b.qp0.clone();
        async move {
            for i in 0..n {
                qp0.post_send(SendWr::Send {
                    wr_id: i,
                    lkey: src_mr.lkey,
                    laddr: src.addr.as_u64() + 64 * i,
                    len: 64,
                    imm: 0,
                })
                .await;
            }
            let delivered = delivered.await;
            let mut out = Vec::new();
            for at in delivered {
                let wc = qp0.send_cq().next().await;
                assert_eq!(wc.status, WcStatus::Success);
                out.push((at, h.now().as_nanos(), wc.wr_id));
            }
            out
        }
    })
}

#[test]
fn signaled_sends_complete_one_ack_round_trip_after_delivery_in_order() {
    let ack_rtt = IbParams::default().ack_rtt().as_nanos();
    let burst = send_burst(3);
    for (i, &(delivered, completed, wr_id)) in burst.iter().enumerate() {
        assert_eq!(wr_id, i as u64, "completions in WQE order");
        assert_eq!(completed, delivered + ack_rtt, "send {i}");
    }
    assert!(
        burst[2].0 < burst[0].1,
        "three acks were in flight at once ({burst:?})"
    );
}

#[test]
fn a_signaled_write_completes_when_a_send_of_its_size_would() {
    // Same fetch, TX slot, propagation and remote DMA; the write has no
    // receive to observe delivery by, so compare completion instants.
    let send_done = {
        let b = bed();
        let (src, src_mr) = alloc_mr(&b, b.h0, b.nic0, 4096, Access::local_only());
        let (dst, dst_mr) = alloc_mr(&b, b.h1, b.nic1, 4096, Access::local_only());
        b.qp1.post_recv(1, dst_mr.lkey, dst.addr.as_u64(), 4096);
        let (h, qp0) = (b.rt.handle(), b.qp0.clone());
        b.rt.block_on(async move {
            qp0.post_send(SendWr::Send {
                wr_id: 1,
                lkey: src_mr.lkey,
                laddr: src.addr.as_u64(),
                len: 4096,
                imm: 0,
            })
            .await;
            qp0.send_cq().next().await;
            h.now().as_nanos()
        })
    };
    let b = bed();
    let (src, src_mr) = alloc_mr(&b, b.h0, b.nic0, 4096, Access::local_only());
    let (dst, dst_mr) = alloc_mr(&b, b.h1, b.nic1, 4096, Access::remote_all());
    let (h, qp0) = (b.rt.handle(), b.qp0.clone());
    let write_done = b.rt.block_on(async move {
        qp0.post_send(SendWr::Write {
            wr_id: 1,
            lkey: src_mr.lkey,
            laddr: src.addr.as_u64(),
            len: 4096,
            raddr: dst.addr.as_u64(),
            rkey: dst_mr.rkey,
        })
        .await;
        let wc = qp0.send_cq().next().await;
        assert_eq!(
            (wc.opcode, wc.status),
            (WcOpcode::RdmaWrite, WcStatus::Success)
        );
        h.now().as_nanos()
    });
    assert_eq!(write_done, send_done);
}

#[test]
fn an_unsignaled_wr_completes_only_when_it_fails() {
    let b = bed();
    let (src, src_mr) = alloc_mr(&b, b.h0, b.nic0, 4096, Access::local_only());
    let (dst, dst_mr) = alloc_mr(&b, b.h1, b.nic1, 4096, Access::remote_all());
    b.fabric.mem_write(b.h0, src.addr, &[0x5au8; 64]).unwrap();
    b.qp1.post_recv(7, dst_mr.lkey, dst.addr.as_u64(), 64);
    let send = SendWr::Send {
        wr_id: 1,
        lkey: src_mr.lkey,
        laddr: src.addr.as_u64(),
        len: 64,
        imm: 0,
    };
    let write = move |rkey| SendWr::Write {
        wr_id: 2,
        lkey: src_mr.lkey,
        laddr: src.addr.as_u64(),
        len: 64,
        raddr: dst.addr.as_u64() + 64,
        rkey,
    };
    let (h, qp0, qp1) = (b.rt.handle(), b.qp0.clone(), b.qp1.clone());
    let (good_rkey, bad_rkey) = (dst_mr.rkey, dst_mr.rkey ^ 0x55);
    b.rt.block_on(async move {
        // Success is silent: the data arrives, no completion ever does.
        qp0.post_send_unsignaled(send).await;
        qp0.post_send_unsignaled(write(good_rkey)).await;
        assert_eq!(qp1.recv_cq().next().await.status, WcStatus::Success);
        h.sleep(simcore::SimDuration::from_micros(50)).await;
        assert!(qp0.send_cq().is_empty());
        // Failures complete as they always did.
        qp0.post_send_unsignaled(send).await; // no receive posted any more
        let wc = qp0.send_cq().next().await;
        assert_eq!((wc.wr_id, wc.status), (1, WcStatus::RnrError));
        qp0.post_send_unsignaled(write(bad_rkey)).await;
        let wc = qp0.send_cq().next().await;
        assert_eq!((wc.wr_id, wc.status), (2, WcStatus::ProtectionError));
    });
    let mut landed = [0u8; 128];
    b.fabric.mem_read(b.h1, dst.addr, &mut landed).unwrap();
    assert_eq!(landed, [0x5au8; 128], "both unsignaled transfers landed");
}

#[test]
fn acks_in_flight_do_not_outlive_their_qp() {
    // The ack of a delivered send is the QP's own state, not a task that
    // owns the QP: drop every handle and the completion is never raised.
    let b = bed();
    let (src, src_mr) = alloc_mr(&b, b.h0, b.nic0, 64, Access::local_only());
    let (dst, dst_mr) = alloc_mr(&b, b.h1, b.nic1, 64, Access::local_only());
    b.qp1.post_recv(1, dst_mr.lkey, dst.addr.as_u64(), 64);
    let Bed { rt, qp0, qp1, .. } = b;
    let send_cq = qp0.send_cq();
    rt.block_on({
        let recv_cq = qp1.recv_cq();
        async move {
            qp0.post_send(SendWr::Send {
                wr_id: 1,
                lkey: src_mr.lkey,
                laddr: src.addr.as_u64(),
                len: 64,
                imm: 0,
            })
            .await;
            recv_cq.next().await; // delivered; the ack is on its way back
        }
    });
    drop(qp1);
    rt.run();
    assert!(send_cq.is_empty(), "the QP died with its ack pending");
}
