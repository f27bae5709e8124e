//! RNICs, queue pairs, verbs, and completion queues over a reliable
//! connected transport.
//!
//! The wire model is parametric ([`crate::params::IbParams`]); the host
//! side is *not* parametric — NICs are PCIe devices on the [`pcie`]
//! fabric and move every byte with real DMA calls, so buffer bugs fail
//! loudly and PCIe costs at both ends are accounted.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use pcie::{DeviceId, Fabric, HostId, MemRegion, Payload, PhysAddr, RegisterFile};
use simcore::sync::Notify;
use simcore::{Handle, SimDuration};

use crate::mr::{Access, MemoryRegion, MrTable};
use crate::params::IbParams;

/// A NIC on the IB network.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct NicId(pub u32);

/// Work completion status.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WcStatus {
    /// Completed successfully.
    Success,
    /// Receiver had no posted receive buffer.
    RnrError,
    /// Key/bounds/permission failure.
    ProtectionError,
    /// Receive buffer too small.
    LengthError,
    /// QP not connected.
    NotConnected,
}

/// Which verb a completion belongs to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WcOpcode {
    /// A two-sided send completed.
    Send,
    /// A one-sided write completed.
    RdmaWrite,
    /// A one-sided read completed (data landed).
    RdmaRead,
    /// A posted receive consumed an incoming send.
    Recv,
}

/// A work completion.
#[derive(Copy, Clone, Debug)]
pub struct Wc {
    /// The work request's caller-chosen id.
    pub wr_id: u64,
    /// What completed.
    pub opcode: WcOpcode,
    /// Bytes transferred.
    pub byte_len: u64,
    /// Outcome.
    pub status: WcStatus,
    /// Immediate data carried by a Send (always delivered; 0 if unused).
    pub imm: u32,
}

/// Completion queue: poll or await.
#[derive(Clone)]
pub struct Cq {
    queue: Rc<RefCell<VecDeque<Wc>>>,
    notify: Notify,
}

impl Default for Cq {
    fn default() -> Self {
        Self::new()
    }
}

impl Cq {
    /// An empty completion queue.
    pub fn new() -> Self {
        Cq {
            queue: Rc::new(RefCell::new(VecDeque::new())),
            notify: Notify::new(),
        }
    }

    fn push(&self, wc: Wc) {
        self.queue.borrow_mut().push_back(wc);
        self.notify.notify_one();
    }

    /// Non-blocking poll for one completion.
    pub fn poll(&self) -> Option<Wc> {
        self.queue.borrow_mut().pop_front()
    }

    /// Wait for the next completion.
    pub async fn next(&self) -> Wc {
        loop {
            if let Some(wc) = self.poll() {
                return wc;
            }
            self.notify.notified().await;
        }
    }

    /// Pending completions.
    pub fn len(&self) -> usize {
        self.queue.borrow().len()
    }

    /// Whether no completion is pending.
    pub fn is_empty(&self) -> bool {
        self.queue.borrow().is_empty()
    }
}

/// A send work request.
#[derive(Copy, Clone, Debug)]
pub enum SendWr {
    /// Two-sided send into the peer's posted receive buffer.
    Send {
        wr_id: u64,
        lkey: u32,
        laddr: u64,
        len: u64,
        imm: u32,
    },
    /// One-sided write to remote memory.
    Write {
        wr_id: u64,
        lkey: u32,
        laddr: u64,
        len: u64,
        raddr: u64,
        rkey: u32,
    },
    /// One-sided read from remote memory.
    Read {
        wr_id: u64,
        lkey: u32,
        laddr: u64,
        len: u64,
        raddr: u64,
        rkey: u32,
    },
}

impl SendWr {
    fn wr_id(&self) -> u64 {
        match *self {
            SendWr::Send { wr_id, .. }
            | SendWr::Write { wr_id, .. }
            | SendWr::Read { wr_id, .. } => wr_id,
        }
    }
}

struct RecvWqe {
    wr_id: u64,
    lkey: u32,
    addr: u64,
    len: u64,
}

struct NicState {
    host: HostId,
    dev: DeviceId,
    mrs: MrTable,
    /// Transmit wire occupancy: messages serialize on the link for their
    /// transfer time, while propagation pipelines.
    tx: simcore::SerialResource,
}

struct NetInner {
    fabric: Fabric,
    handle: Handle,
    params: IbParams,
    nics: RefCell<Vec<NicState>>,
}

/// The InfiniBand network.
#[derive(Clone)]
pub struct IbNet {
    inner: Rc<NetInner>,
}

impl IbNet {
    /// A network over `fabric` with the given wire model.
    pub fn new(fabric: &Fabric, params: IbParams) -> Self {
        IbNet {
            inner: Rc::new(NetInner {
                fabric: fabric.clone(),
                handle: fabric.handle(),
                params,
                nics: RefCell::new(Vec::new()),
            }),
        }
    }

    /// The wire parameters.
    pub fn params(&self) -> &IbParams {
        &self.inner.params
    }

    /// Install a NIC in `host` (attached at its root complex).
    pub fn add_nic(&self, host: HostId) -> NicId {
        let dev = self.inner.fabric.add_device(
            host,
            self.inner.fabric.rc_node(host),
            &[0x1000],
            Rc::new(RegisterFile::new(0x1000)),
        );
        // RNICs sit on wider links than the x4-calibrated base (ConnectX-5
        // is Gen3 x16; be conservative with x8-class).
        self.inner.fabric.set_device_link_scale(dev, 2.5);
        let mut nics = self.inner.nics.borrow_mut();
        let id = NicId(nics.len() as u32);
        nics.push(NicState {
            host,
            dev,
            mrs: MrTable::default(),
            tx: simcore::SerialResource::new(self.inner.handle.clone()),
        });
        id
    }

    fn nic_tx(&self, nic: NicId) -> simcore::SerialResource {
        self.inner.nics.borrow()[nic.0 as usize].tx.clone()
    }

    /// The host a NIC is installed in.
    pub fn nic_host(&self, nic: NicId) -> HostId {
        self.inner.nics.borrow()[nic.0 as usize].host
    }

    /// Register host memory with a NIC.
    pub fn register_mr(&self, nic: NicId, region: MemRegion, access: Access) -> MemoryRegion {
        let mut nics = self.inner.nics.borrow_mut();
        let n = &mut nics[nic.0 as usize];
        assert_eq!(n.host, region.host, "MR must be in the NIC's host");
        n.mrs.register(region, access)
    }

    /// Deregister a memory region by lkey.
    pub fn deregister_mr(&self, nic: NicId, lkey: u32) -> bool {
        self.inner.nics.borrow_mut()[nic.0 as usize]
            .mrs
            .deregister(lkey)
    }

    /// Create a queue pair on a NIC.
    pub fn create_qp(&self, nic: NicId) -> Qp {
        let shared = Rc::new(QpShared {
            net: self.clone(),
            nic,
            peer: RefCell::new(None),
            recv_queue: RefCell::new(VecDeque::new()),
            send_cq: Cq::new(),
            recv_cq: Cq::new(),
        });
        Qp { shared }
    }

    fn nic_dev(&self, nic: NicId) -> DeviceId {
        self.inner.nics.borrow()[nic.0 as usize].dev
    }
}

/// A NIC's DMA fetch of `len` message bytes. A refused read (severed
/// link, crashed host) still sends the message — as zeros, which is what
/// the buffer it used to fill held.
async fn fetch(fabric: &Fabric, dev: DeviceId, addr: PhysAddr, len: u64) -> Payload {
    let read = fabric.dma_read_payload(dev, addr, len).await;
    read.unwrap_or_else(|_| Payload::zeroed(len as usize))
}

struct QpShared {
    net: IbNet,
    nic: NicId,
    /// Weak: two connected QPs point at each other. Each is kept alive by
    /// its own [`Qp`] handles and in-flight deliveries.
    peer: RefCell<Option<Weak<QpShared>>>,
    recv_queue: RefCell<VecDeque<RecvWqe>>,
    send_cq: Cq,
    recv_cq: Cq,
}

/// A reliable-connected queue pair.
#[derive(Clone)]
pub struct Qp {
    shared: Rc<QpShared>,
}

impl Qp {
    /// Connect two QPs (both directions).
    pub fn connect(&self, other: &Qp) {
        *self.shared.peer.borrow_mut() = Some(Rc::downgrade(&other.shared));
        *other.shared.peer.borrow_mut() = Some(Rc::downgrade(&self.shared));
    }

    /// Completions for posted sends/writes/reads.
    pub fn send_cq(&self) -> Cq {
        self.shared.send_cq.clone()
    }

    /// Completions for consumed receives.
    pub fn recv_cq(&self) -> Cq {
        self.shared.recv_cq.clone()
    }

    /// The NIC this QP lives on.
    pub fn nic(&self) -> NicId {
        self.shared.nic
    }

    /// Post a receive buffer (pre-posted, off the critical path: free).
    pub fn post_recv(&self, wr_id: u64, lkey: u32, addr: u64, len: u64) {
        self.shared.recv_queue.borrow_mut().push_back(RecvWqe {
            wr_id,
            lkey,
            addr,
            len,
        });
    }

    /// Post a send-side work request; costs the doorbell time, then the
    /// NIC processes WQEs in order.
    pub async fn post_send(&self, wr: SendWr) {
        self.shared
            .net
            .inner
            .handle
            .sleep(self.shared.net.inner.params.post_cost())
            .await;
        self.shared.process(wr);
    }
}

impl QpShared {
    /// Happens-before fabric barrier: deliver the NIC's clock to its host
    /// CPU — a completion made the NIC's DMA work visible to software.
    fn hb_barrier_to_host(&self) {
        let dev = self.net.nic_dev(self.nic);
        let host = self.net.nic_host(self.nic);
        self.net.inner.fabric.sanitize_barrier_to_host(host, dev);
    }

    /// Happens-before fabric barrier: deliver the host CPU's clock to the
    /// NIC — processing a WQE acquires everything posted before it.
    fn hb_barrier_to_device(&self) {
        let dev = self.net.nic_dev(self.nic);
        let host = self.net.nic_host(self.nic);
        self.net.inner.fabric.sanitize_barrier_to_device(dev, host);
    }

    fn complete_send(&self, wr: &SendWr, opcode: WcOpcode, len: u64, status: WcStatus) {
        self.hb_barrier_to_host();
        self.send_cq.push(Wc {
            wr_id: wr.wr_id(),
            opcode,
            byte_len: len,
            status,
            imm: 0,
        });
    }

    /// Process one WQE: validate it here, then fetch the payload over
    /// local PCIe, take the message's wire-transfer slot on the NIC's TX
    /// link, propagate and apply the remote-side effects in a spawned
    /// delivery task, so back-to-back WQEs pipeline like on a real RNIC.
    /// Deliveries stay ordered because TX slots end at strictly increasing
    /// times and every delivery adds the same propagation constant.
    fn process(self: &Rc<Self>, wr: SendWr) {
        let net = &self.net;
        let p = net.inner.params.clone();
        let fabric = net.inner.fabric.clone();
        let handle = net.inner.handle.clone();
        let Some(peer) = self.peer.borrow().as_ref().and_then(Weak::upgrade) else {
            self.complete_send(&wr, WcOpcode::Send, 0, WcStatus::NotConnected);
            return;
        };
        self.hb_barrier_to_device();
        let local_dev = net.nic_dev(self.nic);
        let peer_dev = net.nic_dev(peer.nic);
        let local_tx = net.nic_tx(self.nic);
        let peer_tx = net.nic_tx(peer.nic);
        let propagate = SimDuration::from_nanos(p.wire_ns + p.nic_rx_ns);
        match wr {
            SendWr::Send {
                lkey,
                laddr,
                len,
                imm,
                ..
            } => {
                // Validate + fetch payload from local memory (PCIe DMA).
                let src = {
                    let nics = net.inner.nics.borrow();
                    nics[self.nic.0 as usize].mrs.check_local(lkey, laddr, len)
                };
                let src = match src {
                    Ok(r) => r,
                    Err(_) => {
                        self.complete_send(&wr, WcOpcode::Send, 0, WcStatus::ProtectionError);
                        return;
                    }
                };
                let me = self.clone();
                handle.clone().spawn(async move {
                    let data = if len > 0 {
                        fetch(&fabric, local_dev, src.addr, len).await
                    } else {
                        Payload::zeroed(0)
                    };
                    local_tx
                        .occupy(SimDuration::from_nanos(p.nic_tx_ns + p.transfer_ns(len)))
                        .await;
                    handle.sleep(propagate).await;
                    // Match a posted receive at the peer.
                    let rwqe = peer.recv_queue.borrow_mut().pop_front();
                    let Some(rwqe) = rwqe else {
                        me.complete_send(&wr, WcOpcode::Send, 0, WcStatus::RnrError);
                        return;
                    };
                    if rwqe.len < len {
                        peer.recv_cq.push(Wc {
                            wr_id: rwqe.wr_id,
                            opcode: WcOpcode::Recv,
                            byte_len: 0,
                            status: WcStatus::LengthError,
                            imm,
                        });
                        me.complete_send(&wr, WcOpcode::Send, 0, WcStatus::LengthError);
                        return;
                    }
                    let dst = {
                        let nics = me.net.inner.nics.borrow();
                        nics[peer.nic.0 as usize]
                            .mrs
                            .check_local(rwqe.lkey, rwqe.addr, len)
                    };
                    match dst {
                        Ok(dst) => {
                            if len > 0 {
                                let _ = fabric.dma_write_payload(peer_dev, dst.addr, data).await;
                            }
                            peer.hb_barrier_to_host();
                            peer.recv_cq.push(Wc {
                                wr_id: rwqe.wr_id,
                                opcode: WcOpcode::Recv,
                                byte_len: len,
                                status: WcStatus::Success,
                                imm,
                            });
                            me.spawn_ack(wr, WcOpcode::Send, len);
                        }
                        Err(_) => {
                            peer.recv_cq.push(Wc {
                                wr_id: rwqe.wr_id,
                                opcode: WcOpcode::Recv,
                                byte_len: 0,
                                status: WcStatus::ProtectionError,
                                imm,
                            });
                            me.complete_send(&wr, WcOpcode::Send, 0, WcStatus::ProtectionError);
                        }
                    }
                });
            }
            SendWr::Write {
                lkey,
                laddr,
                len,
                raddr,
                rkey,
                ..
            } => {
                let src = {
                    let nics = net.inner.nics.borrow();
                    nics[self.nic.0 as usize].mrs.check_local(lkey, laddr, len)
                };
                let dst = {
                    let nics = net.inner.nics.borrow();
                    nics[peer.nic.0 as usize]
                        .mrs
                        .check_remote(rkey, raddr, len, true)
                };
                let (src, dst) = match (src, dst) {
                    (Ok(s), Ok(d)) => (s, d),
                    _ => {
                        self.complete_send(&wr, WcOpcode::RdmaWrite, 0, WcStatus::ProtectionError);
                        return;
                    }
                };
                let me = self.clone();
                handle.clone().spawn(async move {
                    let data = fetch(&fabric, local_dev, src.addr, len).await;
                    local_tx
                        .occupy(SimDuration::from_nanos(p.nic_tx_ns + p.transfer_ns(len)))
                        .await;
                    handle.sleep(propagate).await;
                    let _ = fabric.dma_write_payload(peer_dev, dst.addr, data).await;
                    me.spawn_ack(wr, WcOpcode::RdmaWrite, len);
                });
            }
            SendWr::Read {
                lkey,
                laddr,
                len,
                raddr,
                rkey,
                ..
            } => {
                let dst = {
                    let nics = net.inner.nics.borrow();
                    nics[self.nic.0 as usize].mrs.check_local(lkey, laddr, len)
                };
                let src = {
                    let nics = net.inner.nics.borrow();
                    nics[peer.nic.0 as usize]
                        .mrs
                        .check_remote(rkey, raddr, len, false)
                };
                let (dst, src) = match (dst, src) {
                    (Ok(d), Ok(s)) => (d, s),
                    _ => {
                        self.complete_send(&wr, WcOpcode::RdmaRead, 0, WcStatus::ProtectionError);
                        return;
                    }
                };
                // Request over (small); response data occupies the peer's
                // TX wire; local NIC writes it to memory on arrival.
                let me = self.clone();
                handle.clone().spawn(async move {
                    local_tx
                        .occupy(SimDuration::from_nanos(p.nic_tx_ns + p.transfer_ns(16)))
                        .await;
                    handle.sleep(propagate).await;
                    let data = fetch(&fabric, peer_dev, src.addr, len).await;
                    peer_tx
                        .occupy(SimDuration::from_nanos(p.nic_tx_ns + p.transfer_ns(len)))
                        .await;
                    handle.sleep(propagate).await;
                    // Reads complete when the data has landed: the write is
                    // posted, so wait out its apply delay before raising the
                    // work completion.
                    if let Ok(landing) = fabric.dma_write_payload(local_dev, dst.addr, data).await {
                        handle.sleep(landing).await;
                    }
                    me.complete_send(&wr, WcOpcode::RdmaRead, len, WcStatus::Success);
                });
            }
        }
    }

    /// Reliable-connection ACK: the send completion surfaces after the
    /// ack round trip, without blocking the next WQE.
    fn spawn_ack(self: &Rc<Self>, wr: SendWr, opcode: WcOpcode, len: u64) {
        let me = self.clone();
        let rtt = self.net.inner.params.ack_rtt();
        let handle = self.net.inner.handle.clone();
        self.net.inner.handle.spawn(async move {
            handle.sleep(rtt).await;
            me.complete_send(&wr, opcode, len, WcStatus::Success);
        });
    }
}
