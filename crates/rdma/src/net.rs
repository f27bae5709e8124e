//! RNICs, queue pairs, verbs, and completion queues over a reliable
//! connected transport.
//!
//! The wire model is parametric ([`crate::params::IbParams`]); the host
//! side is *not* parametric — NICs are PCIe devices on the [`pcie`]
//! fabric and move every byte with real DMA calls, so buffer bugs fail
//! loudly and PCIe costs at both ends are accounted.
//!
//! What a work request costs the simulator: one delivery task per WQE,
//! which waits once per stage — payload fetch, TX slot plus propagation
//! (the slot is reserved, not slept on: nothing is observable between its
//! end and the message's arrival), remote DMA. A *signaled* WR
//! ([`Qp::post_send`]) then raises its send completion one ack round trip
//! after delivery, from a per-QP FIFO drained by one callback task; an
//! *unsignaled* one ([`Qp::post_send_unsignaled`]) completes only if it
//! fails. A [`Cq`] can be told what its consumer spends per completion
//! ([`Cq::set_consumer_cost`]) and then hands each completion over at the
//! instant that consumer would have finished with it, instead of waking it
//! to sleep the cost.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use pcie::{DeviceId, Fabric, HostId, MemRegion, Payload, PhysAddr, RegisterFile};
use simcore::sync::Notify;
use simcore::{Handle, SerialResource, SimDuration, SimTime, TaskId};

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
    inner: Rc<CqInner>,
}

struct CqInner {
    handle: Handle,
    /// Each completion with the instant its consumer may have it.
    queue: RefCell<VecDeque<(SimTime, Wc)>>,
    notify: Notify,
    /// The consumer as a serial server spending `cost` per completion.
    consumer: SerialResource,
    cost: Cell<SimDuration>,
}

impl Cq {
    fn new(handle: &Handle) -> Self {
        Cq {
            inner: Rc::new(CqInner {
                handle: handle.clone(),
                queue: RefCell::new(VecDeque::new()),
                notify: Notify::new(),
                consumer: SerialResource::new(handle.clone()),
                cost: Cell::new(SimDuration::ZERO),
            }),
        }
    }

    /// Tell the queue what its one consumer spends on each completion
    /// before acting on it (interrupt latency, poll detection plus
    /// parsing), once, at connection set-up. From then on a completion
    /// comes out of [`Cq::next`] / [`Cq::poll`] when a consumer that took
    /// completions in order and slept `per_completion` after each would
    /// have finished that sleep — `max(pushed, previous handed over) +
    /// per_completion` — so the consumer acts on it at once and wakes once
    /// per completion, not twice. Unset, a completion is there for the
    /// taking the moment it is pushed.
    pub fn set_consumer_cost(&self, per_completion: SimDuration) {
        self.inner.cost.set(per_completion);
    }

    fn push(&self, wc: Wc) {
        let cq = &*self.inner;
        let visible_at = cq.consumer.reserve(cq.cost.get());
        cq.queue.borrow_mut().push_back((visible_at, wc));
        if visible_at > cq.handle.now() {
            cq.handle.notify_at(visible_at, cq.notify.clone());
        } else {
            cq.notify.notify_one();
        }
    }

    /// Non-blocking poll for one completion.
    pub fn poll(&self) -> Option<Wc> {
        let mut queue = self.inner.queue.borrow_mut();
        let &(visible_at, _) = queue.front()?;
        if visible_at > self.inner.handle.now() {
            return None;
        }
        queue.pop_front().map(|(_, wc)| wc)
    }

    /// Wait for the next completion.
    pub async fn next(&self) -> Wc {
        loop {
            if let Some(wc) = self.poll() {
                return wc;
            }
            self.inner.notify.notified().await;
        }
    }

    /// Pending completions, handed over or not yet.
    pub fn len(&self) -> usize {
        self.inner.queue.borrow().len()
    }

    /// Whether no completion is pending.
    pub fn is_empty(&self) -> bool {
        self.inner.queue.borrow().is_empty()
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

    /// This request's send-side work completion.
    fn completion(&self, opcode: WcOpcode, len: u64, status: WcStatus) -> Wc {
        Wc {
            wr_id: self.wr_id(),
            opcode,
            byte_len: len,
            status,
            imm: 0,
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
            send_cq: Cq::new(&self.inner.handle),
            recv_cq: Cq::new(&self.inner.handle),
            acks: RefCell::new(VecDeque::new()),
            ack_task: Cell::new(None),
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
    /// Reliable-connection acks on their way back: the send completion
    /// each raises and when. Every ack takes the same `ack_rtt`, so arrival
    /// order is due order.
    acks: RefCell<VecDeque<(SimTime, Wc)>>,
    /// The callback task that raises them, spawned by the first ack. It
    /// holds this QP weakly: pending acks do not keep a dropped QP alive.
    ack_task: Cell<Option<TaskId>>,
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

    /// The QP this one is connected to, if it is still alive.
    pub fn peer(&self) -> Option<Qp> {
        let peer = self.shared.peer.borrow().as_ref()?.upgrade()?;
        Some(Qp { shared: peer })
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

    /// Post a signaled send-side work request; costs the doorbell time,
    /// then the NIC processes WQEs in order. Its completion, good or bad,
    /// arrives on [`Qp::send_cq`].
    pub async fn post_send(&self, wr: SendWr) {
        self.post(wr, true).await;
    }

    /// [`Qp::post_send`] without a completion on success, as a verbs WR
    /// posted without `IBV_SEND_SIGNALED`: a failure still completes on
    /// [`Qp::send_cq`] with its status; success is silent, so a consumer
    /// of that CQ sees nothing but errors.
    pub async fn post_send_unsignaled(&self, wr: SendWr) {
        self.post(wr, false).await;
    }

    async fn post(&self, wr: SendWr, signaled: bool) {
        let net = &self.shared.net.inner;
        net.handle.sleep(net.params.post_cost()).await;
        self.shared.process(wr, signaled);
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
        self.raise(wr.completion(opcode, len, status));
    }

    fn raise(&self, wc: Wc) {
        self.hb_barrier_to_host();
        self.send_cq.push(wc);
    }

    /// Process one WQE: validate it here, then fetch the payload over
    /// local PCIe, take the message's wire-transfer slot on the NIC's TX
    /// link, propagate and apply the remote-side effects in a spawned
    /// delivery task, so back-to-back WQEs pipeline like on a real RNIC.
    /// Deliveries stay ordered because TX slots end at strictly increasing
    /// times and every delivery adds the same propagation constant. Slot
    /// and propagation are one wait: the slot is reserved and the task
    /// sleeps until the message arrives.
    fn process(self: &Rc<Self>, wr: SendWr, signaled: bool) {
        let net = &self.net;
        let p = &net.inner.params;
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
        let propagate = SimDuration::from_nanos(p.wire_ns + p.nic_rx_ns);
        let tx_slot = |len: u64| SimDuration::from_nanos(p.nic_tx_ns + p.transfer_ns(len));
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
                let slot = tx_slot(len);
                handle.clone().spawn_detached(async move {
                    let data = if len > 0 {
                        fetch(&fabric, local_dev, src.addr, len).await
                    } else {
                        Payload::zeroed(0)
                    };
                    handle.sleep_until(local_tx.reserve(slot) + propagate).await;
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
                            if signaled {
                                me.ack(&wr, WcOpcode::Send, len);
                            }
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
                let slot = tx_slot(len);
                handle.clone().spawn_detached(async move {
                    let data = fetch(&fabric, local_dev, src.addr, len).await;
                    handle.sleep_until(local_tx.reserve(slot) + propagate).await;
                    let _ = fabric.dma_write_payload(peer_dev, dst.addr, data).await;
                    if signaled {
                        me.ack(&wr, WcOpcode::RdmaWrite, len);
                    }
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
                let peer_tx = net.nic_tx(peer.nic);
                let (request_slot, response_slot) = (tx_slot(16), tx_slot(len));
                handle.clone().spawn_detached(async move {
                    handle
                        .sleep_until(local_tx.reserve(request_slot) + propagate)
                        .await;
                    let data = fetch(&fabric, peer_dev, src.addr, len).await;
                    handle
                        .sleep_until(peer_tx.reserve(response_slot) + propagate)
                        .await;
                    // Reads complete when the data has landed: the write is
                    // posted, so wait out its apply delay before raising the
                    // work completion.
                    if let Ok(landing) = fabric.dma_write_payload(local_dev, dst.addr, data).await {
                        handle.sleep(landing).await;
                    }
                    if signaled {
                        me.complete_send(&wr, WcOpcode::RdmaRead, len, WcStatus::Success);
                    }
                });
            }
        }
    }

    /// Reliable-connection ACK for a delivered signaled WR: its send
    /// completion surfaces one ack round trip from now, without blocking
    /// the next WQE.
    fn ack(self: &Rc<Self>, wr: &SendWr, opcode: WcOpcode, len: u64) {
        let handle = &self.net.inner.handle;
        let due = handle.now() + self.net.inner.params.ack_rtt();
        self.acks
            .borrow_mut()
            .push_back((due, wr.completion(opcode, len, WcStatus::Success)));
        let task = self.ack_task.get().unwrap_or_else(|| {
            let qp = Rc::downgrade(self);
            let task = handle.spawn_callback(move || {
                if let Some(qp) = qp.upgrade() {
                    qp.raise_due_acks();
                }
            });
            self.ack_task.set(Some(task));
            task
        });
        handle.run_at(due, task);
    }

    fn raise_due_acks(&self) {
        let now = self.net.inner.handle.now();
        loop {
            let mut acks = self.acks.borrow_mut();
            match acks.front() {
                Some(&(due, wc)) if due <= now => {
                    acks.pop_front();
                    drop(acks);
                    self.raise(wc);
                }
                _ => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimRuntime;

    fn recv_wc(wr_id: u64) -> Wc {
        Wc {
            wr_id,
            opcode: WcOpcode::Recv,
            byte_len: 0,
            status: WcStatus::Success,
            imm: 0,
        }
    }

    /// Push one completion per gap, `gap` ns after the previous one, onto
    /// `cq`; consume with `consume` and return `(wr_id, instant handled)`.
    fn handled_at<F, Fut>(gaps: &[u64], cost: Option<SimDuration>, consume: F) -> Vec<(u64, u64)>
    where
        F: FnOnce(Handle, Cq, Rc<RefCell<Vec<(u64, u64)>>>) -> Fut,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let cq = Cq::new(&h);
        if let Some(cost) = cost {
            cq.set_consumer_cost(cost);
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        h.spawn_detached(consume(h.clone(), cq.clone(), log.clone()));
        let gaps = gaps.to_vec();
        rt.block_on(async move {
            for (wr_id, gap) in gaps.into_iter().enumerate() {
                h.sleep(SimDuration::from_nanos(gap)).await;
                cq.push(recv_wc(wr_id as u64));
            }
            // Long enough for the slowest consumer to drain the backlog.
            h.sleep(SimDuration::from_micros(1_000)).await;
        });
        let log = log.borrow().clone();
        log
    }

    proptest::proptest! {
        #[test]
        fn consumer_cost_hands_over_when_a_sleeping_consumer_would_act(
            gaps in proptest::prelude::prop::collection::vec(0u64..3_000, 1..24),
            cost in 0u64..2_500,
        ) {
            let d = SimDuration::from_nanos(cost);
            // The consumer both NVMe-oF ends used to be: take, then sleep.
            let reference = handled_at(&gaps, None, move |h, cq, log| async move {
                loop {
                    let wc = cq.next().await;
                    h.sleep(d).await;
                    log.borrow_mut().push((wc.wr_id, h.now().as_nanos()));
                }
            });
            let served = handled_at(&gaps, Some(d), |h, cq, log| async move {
                loop {
                    let wc = cq.next().await;
                    log.borrow_mut().push((wc.wr_id, h.now().as_nanos()));
                }
            });
            proptest::prop_assert_eq!(reference.len(), gaps.len());
            proptest::prop_assert_eq!(served, reference);
        }
    }

    #[test]
    fn a_completion_is_not_polled_out_before_its_consumer_could_have_it() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let cq = Cq::new(&h);
        cq.set_consumer_cost(SimDuration::from_nanos(500));
        rt.block_on(async move {
            cq.push(recv_wc(9));
            assert_eq!(cq.len(), 1);
            assert!(cq.poll().is_none(), "visible only 500 ns from now");
            h.sleep(SimDuration::from_nanos(499)).await;
            assert!(cq.poll().is_none());
            h.sleep(SimDuration::from_nanos(1)).await;
            assert_eq!(cq.poll().map(|wc| wc.wr_id), Some(9));
            assert!(cq.is_empty());
        });
    }
}
