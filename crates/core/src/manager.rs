//! The manager kernel-module analog (§V).
//!
//! Exactly one manager exists per shared controller. It:
//! 1. acquires the device **exclusively**, resets and initializes it
//!    (admin queues, identify, queue-count negotiation),
//! 2. publishes a metadata segment telling clients who manages the device
//!    and where the mailbox lives,
//! 3. downgrades to a shared reference and serves mailbox requests —
//!    creating/deleting I/O queue pairs **on behalf of clients**, since
//!    only the admin queue may do that and there is only one admin queue
//!    pair on a single-function controller.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use nvme::driver::admin::{AdminError, AdminQueue, AdminQueueLayout, AdminResult};
use nvme::spec::command::SQE_SIZE;
use nvme::spec::completion::CQE_SIZE;
use nvme::IdentifyNamespace;
use pcie::{HostId, MemRegion};
use simcore::{SimDuration, SimTime};
use smartio::{AccessHints, BorrowMode, CpuMapping, SegmentId, SmartDeviceId, SmartIo};

use crate::proto::{self, flag, Metadata, Request, Response, SlotMessage};

/// Manager configuration.
#[derive(Clone, Debug)]
pub struct ManagerConfig {
    /// Admin queue depth.
    pub admin_entries: u16,
    /// I/O queue pairs to negotiate (the device may grant fewer).
    pub want_qpairs: u16,
    /// Mailbox slots (one per possible client host).
    pub mailbox_slots: u32,
    /// CPU cost to process one mailbox request (manager software).
    pub serve_overhead: SimDuration,
    /// Client lease duration. `None` disables the lease protocol (the
    /// seed behavior); `Some(d)` makes clients heartbeat and lets the
    /// manager reclaim the queue pairs of any client silent for `d`.
    pub lease: Option<SimDuration>,
    /// Deadline for each admin command issued on a client's behalf. The
    /// serve loop must never block forever on a wedged controller, so
    /// every admin await is raced against this.
    pub admin_timeout: SimDuration,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            admin_entries: 32,
            want_qpairs: 31,
            mailbox_slots: 64,
            serve_overhead: SimDuration::from_nanos(400),
            lease: None,
            admin_timeout: SimDuration::from_millis(50),
        }
    }
}

/// Statistics for tests/reports.
#[derive(Default, Clone, Debug)]
pub struct ManagerStats {
    /// Queue pairs granted to clients.
    pub qpairs_created: u64,
    /// Queue pairs returned by clients.
    pub qpairs_deleted: u64,
    /// Mailbox requests refused.
    pub requests_rejected: u64,
    /// Queue pairs reclaimed from crashed/silent clients (lease expiry).
    pub qpairs_reclaimed: u64,
    /// Clients evicted by the lease reaper.
    pub clients_evicted: u64,
    /// Abort commands issued on behalf of clients.
    pub aborts_issued: u64,
}

struct QidPool {
    /// qid -> owning slot (mailbox slot index), None = free.
    owners: Vec<Option<usize>>,
}

impl QidPool {
    fn new(max_qpairs: u16) -> Self {
        QidPool {
            owners: vec![None; max_qpairs as usize + 1],
        } // index 0 unused (admin)
    }

    fn alloc(&mut self, slot: usize) -> Option<u16> {
        (1..self.owners.len())
            .find(|&q| self.owners[q].is_none())
            .map(|q| {
                self.owners[q] = Some(slot);
                q as u16
            })
    }

    /// Allocate a *specific* qid (recovery re-creates a queue pair under
    /// its old id). Fails if the qid is taken by anyone else; allocating
    /// a qid the slot already owns is a no-op success (idempotent retry).
    fn alloc_specific(&mut self, qid: u16, slot: usize) -> bool {
        match self.owners.get_mut(qid as usize) {
            Some(o) if o.is_none() => {
                *o = Some(slot);
                true
            }
            Some(o) => *o == Some(slot),
            None => false,
        }
    }

    fn free(&mut self, qid: u16, slot: usize) -> bool {
        match self.owners.get_mut(qid as usize) {
            Some(o) if *o == Some(slot) => {
                *o = None;
                true
            }
            _ => false,
        }
    }

    fn owner(&self, qid: u16) -> Option<usize> {
        self.owners.get(qid as usize).copied().flatten()
    }

    /// All qids a slot currently owns (lease reclamation).
    fn owned_by(&self, slot: usize) -> Vec<u16> {
        (1..self.owners.len())
            .filter(|&q| self.owners[q] == Some(slot))
            .map(|q| q as u16)
            .collect()
    }

    /// Revoke every grant (controller reset voids all queue pairs).
    fn clear(&mut self) -> usize {
        let n = self.in_use();
        self.owners.iter_mut().for_each(|o| *o = None);
        n
    }

    fn in_use(&self) -> usize {
        self.owners.iter().filter(|o| o.is_some()).count()
    }
}

/// The running manager.
pub struct Manager {
    smartio: SmartIo,
    host: HostId,
    device: SmartDeviceId,
    cfg: ManagerConfig,
    /// The metadata this manager published.
    pub metadata: Metadata,
    meta_segment: SegmentId,
    mailbox_segment: SegmentId,
    admin: RefCell<AdminQueue>,
    qids: RefCell<QidPool>,
    /// Cached CPU mappings of client response segments.
    resp_maps: RefCell<BTreeMap<u32, CpuMapping>>,
    /// Which response segment each slot last used (reclamation unmaps it).
    slot_resp_seg: RefCell<BTreeMap<usize, u32>>,
    /// Last time each slot was heard from (any decoded message counts).
    /// Ordered by slot: the reaper reclaims expired clients in slot order,
    /// so a run that loses several at once replays identically.
    leases: RefCell<BTreeMap<usize, SimTime>>,
    /// Register window + ring layout, kept for controller re-init.
    bar_region: MemRegion,
    admin_layout: AdminQueueLayout,
    stats: RefCell<ManagerStats>,
    granted_qpairs: u16,
}

impl Manager {
    /// Metadata segment name for a device.
    pub fn meta_name(device: SmartDeviceId) -> String {
        format!("dnvme-meta-{}", device.0)
    }

    /// Bring up the controller and start serving. `host` is where the
    /// manager module runs — any host in the cluster, including one the
    /// device is *not* installed in.
    pub async fn start(
        smartio: &SmartIo,
        device: SmartDeviceId,
        host: HostId,
        cfg: ManagerConfig,
    ) -> crate::error::Result<Rc<Manager>> {
        // Exclusive lock for the privileged bring-up phase. Bring-up is
        // a long ladder of fallible steps; an early failure must not
        // leave the device wedged in Exclusive for every other host, so
        // the borrow is dropped on any error. On success the manager
        // keeps a Shared borrow (bring_up downgrades internally).
        smartio.acquire(device, host, BorrowMode::Exclusive)?;
        match Self::bring_up(smartio, device, host, cfg).await {
            Ok(mgr) => Ok(mgr),
            Err(e) => {
                // Best-effort: if bring-up failed after its downgrade,
                // this drops the Shared borrow instead.
                let _ = smartio.release(device, host);
                Err(e)
            }
        }
    }

    /// The fallible body of [`Manager::start`], run while the caller
    /// holds the device borrow (and releases it if this returns `Err`).
    async fn bring_up(
        smartio: &SmartIo,
        device: SmartDeviceId,
        host: HostId,
        cfg: ManagerConfig,
    ) -> crate::error::Result<Rc<Manager>> {
        let fabric = smartio.fabric().clone();

        // Map the controller's registers (BAR window if remote).
        let bar_seg = smartio.bar_segment(device, 0)?;
        let bar_map = smartio.map_for_cpu(host, bar_seg)?;

        // Admin queues, placed by access hints: ASQ device-side (the
        // controller fetches from it), ACQ manager-local (we poll it).
        let asq_seg = smartio.create_segment_hinted(
            host,
            device,
            cfg.admin_entries as u64 * SQE_SIZE as u64,
            AccessHints::sq(),
        )?;
        let acq_seg = smartio.create_segment_hinted(
            host,
            device,
            cfg.admin_entries as u64 * CQE_SIZE as u64,
            AccessHints::cq(),
        )?;
        let asq_cpu = smartio.map_for_cpu(host, asq_seg)?;
        let acq_region = smartio.segment_region(acq_seg)?;
        assert_eq!(
            acq_region.host, host,
            "ACQ must be manager-local for polling"
        );
        let asq_bus = smartio.map_for_device(device, asq_seg)?.bus_base;
        let acq_bus = smartio.map_for_device(device, acq_seg)?.bus_base;

        let admin_layout = AdminQueueLayout {
            asq_cpu: asq_cpu.region,
            asq_bus,
            acq_cpu: acq_region,
            acq_bus,
            entries: cfg.admin_entries,
        };
        let mut admin = AdminQueue::init(&fabric, bar_map.region, admin_layout).await?;

        // Identify + queue negotiation. The scratch segment must be
        // torn down on the failure paths too, not just after success.
        let idbuf_seg = smartio.create_segment(host, 4096)?;
        let (ns_info, granted) = match Self::identify_and_negotiate(
            smartio,
            device,
            &mut admin,
            idbuf_seg,
            cfg.want_qpairs,
        )
        .await
        {
            Ok(v) => v,
            Err(e) => {
                let _ = smartio.destroy_segment(idbuf_seg);
                return Err(e);
            }
        };
        smartio.destroy_segment(idbuf_seg)?;

        // Mailbox + metadata segments, manager-local.
        let mailbox_segment =
            smartio.create_segment(host, cfg.mailbox_slots as u64 * proto::MAILBOX_SLOT as u64)?;
        let meta_segment = smartio.create_segment(host, proto::META_LEN as u64)?;
        let metadata = Metadata {
            magic: proto::META_MAGIC,
            manager_host: host.0,
            max_qpairs: granted,
            block_size: ns_info.block_size() as u32,
            capacity_blocks: ns_info.nsze,
            mailbox_segment: mailbox_segment.0,
            bar_segment: bar_seg.0,
            mailbox_slots: cfg.mailbox_slots,
            lease_nanos: cfg.lease.map(SimDuration::as_nanos).unwrap_or(0),
        };
        let meta_region = smartio.segment_region(meta_segment)?;
        fabric.mem_write(meta_region.host, meta_region.addr, &metadata.encode())?;
        smartio.publish(&Self::meta_name(device), meta_segment)?;

        // Downgrade: release exclusive, take a shared reference.
        smartio.release(device, host)?;
        smartio.acquire(device, host, BorrowMode::Shared)?;

        let mgr = Rc::new(Manager {
            smartio: smartio.clone(),
            host,
            device,
            metadata,
            meta_segment,
            mailbox_segment,
            admin: RefCell::new(admin),
            qids: RefCell::new(QidPool::new(granted)),
            resp_maps: RefCell::new(BTreeMap::new()),
            slot_resp_seg: RefCell::new(BTreeMap::new()),
            leases: RefCell::new(BTreeMap::new()),
            bar_region: bar_map.region,
            admin_layout,
            stats: RefCell::new(ManagerStats::default()),
            granted_qpairs: granted,
            cfg,
        });
        let m2 = mgr.clone();
        fabric.handle().spawn(async move { m2.serve().await });
        if mgr.cfg.lease.is_some() {
            let m3 = mgr.clone();
            fabric.handle().spawn(async move { m3.reap_loop().await });
        }
        Ok(mgr)
    }

    /// Identify the controller and namespace 1 through the scratch
    /// segment, then negotiate the I/O queue count. The caller owns
    /// `idbuf_seg` and destroys it on every path, success or failure.
    async fn identify_and_negotiate(
        smartio: &SmartIo,
        device: SmartDeviceId,
        admin: &mut AdminQueue,
        idbuf_seg: SegmentId,
        want_qpairs: u16,
    ) -> crate::error::Result<(IdentifyNamespace, u16)> {
        let idbuf = smartio.segment_region(idbuf_seg)?;
        let idbuf_bus = smartio.map_for_device(device, idbuf_seg)?.bus_base;
        let _ctrl_info = admin.identify_controller(idbuf, idbuf_bus).await?;
        let ns_info = admin.identify_namespace(1, idbuf, idbuf_bus).await?;
        let granted = admin.set_num_queues(want_qpairs).await?;
        Ok((ns_info, granted))
    }

    /// Snapshot of the run counters.
    pub fn stats(&self) -> ManagerStats {
        self.stats.borrow().clone()
    }

    /// Currently granted queue pairs.
    pub fn qpairs_in_use(&self) -> usize {
        self.qids.borrow().in_use()
    }

    /// Queue pairs the controller granted at bring-up.
    pub fn granted_qpairs(&self) -> u16 {
        self.granted_qpairs
    }

    /// The managed device.
    pub fn device(&self) -> SmartDeviceId {
        self.device
    }

    /// The host the manager runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The published metadata segment.
    pub fn meta_segment(&self) -> SegmentId {
        self.meta_segment
    }

    /// Mailbox server: watch the mailbox memory, handle new requests.
    async fn serve(self: Rc<Self>) {
        let fabric = self.smartio.fabric().clone();
        let Ok(region) = self.smartio.segment_region(self.mailbox_segment) else {
            return; // mailbox destroyed before the server started
        };
        let watch = fabric.watch(region.host, region.addr, region.len);
        let slots = self.cfg.mailbox_slots as usize;
        let mut last_seq = vec![0u32; slots];
        let mut last_seg = vec![0u32; slots];
        let mut last_retry = vec![0u32; slots];
        let mut cached: Vec<Option<Response>> = vec![None; slots];
        loop {
            watch.notify.notified().await;
            #[allow(clippy::needless_range_loop)] // slot also computes the offset
            for slot in 0..slots {
                let mut raw = [0u8; proto::MAILBOX_SLOT];
                if fabric
                    .mem_read(
                        region.host,
                        region.addr.offset((slot * proto::MAILBOX_SLOT) as u64),
                        &mut raw,
                    )
                    .is_err()
                {
                    continue; // slot unreadable (segment torn down mid-poll)
                }
                let Some(msg) = SlotMessage::decode(&raw) else {
                    continue;
                };
                if msg.seq == 0 {
                    continue;
                }
                // A new connection numbers its requests from 1 again but
                // answers into a new response segment (ids are never
                // reused), so a repeated seq is a duplicate only when the
                // segment repeats too — else a host refused on its first
                // request could never be heard again.
                let seg = msg.request.response_segment();
                if msg.seq == last_seq[slot] && seg == last_seg[slot] {
                    // Duplicate seq: either nothing new, or the client
                    // retried because our response got lost. A bumped
                    // retry counter asks for the cached answer again —
                    // the request is NOT re-executed (idempotent retry).
                    if msg.retry != last_retry[slot] {
                        last_retry[slot] = msg.retry;
                        if let Some(resp) = cached[slot] {
                            self.touch_lease(slot);
                            self.respond(msg, resp).await;
                        }
                    }
                    continue;
                }
                last_seq[slot] = msg.seq;
                last_seg[slot] = seg;
                last_retry[slot] = msg.retry;
                // Accepting a fresh seq acquires the client's posted
                // request write (happens-before edge, mirroring the
                // client's acquire on the response).
                fabric.sanitize_consume(
                    region.host,
                    region.addr.offset((slot * proto::MAILBOX_SLOT) as u64),
                    proto::MAILBOX_SLOT as u64,
                );
                self.touch_lease(slot);
                self.slot_resp_seg
                    .borrow_mut()
                    .insert(slot, msg.request.response_segment());
                // Manager software cost per request.
                fabric.handle().sleep(self.cfg.serve_overhead).await;
                let resp = self.handle(slot, msg.request).await;
                cached[slot] = Some(resp);
                let ok = resp.status == proto::status::OK;
                let delivered = self.respond(msg, resp).await;
                if !delivered && ok {
                    // The client granted a queue pair never got told about
                    // it (response segment unmappable — client vanished
                    // mid-handshake). Roll the grant back so the qid and
                    // the slot don't leak until lease expiry.
                    if let Request::CreateQp { .. } = msg.request {
                        self.rollback_create(slot, resp.qid).await;
                        cached[slot] = None;
                    }
                }
                // A departed client's response-segment mapping is dead
                // weight on the manager's adapter, and so is a refused
                // one's (it owes no DeleteQp that would drop it): release it.
                let gone = match msg.request {
                    Request::DeleteQp { .. } => ok,
                    Request::CreateQp { .. } => !ok,
                    _ => false,
                };
                if gone {
                    let seg = msg.request.response_segment();
                    if let Some(m) = self.resp_maps.borrow_mut().remove(&seg) {
                        self.smartio.unmap_cpu(m);
                    }
                }
            }
        }
    }

    fn touch_lease(&self, slot: usize) {
        let now = self.smartio.fabric().handle().now();
        self.leases.borrow_mut().insert(slot, now);
    }

    /// Undo a CreateQp whose grant response could not be delivered: delete
    /// the controller-side queues and return the qid to the pool.
    #[allow(clippy::await_holding_refcell_ref)] // serial serve loop
    async fn rollback_create(&self, slot: usize, qid: u16) {
        if qid == 0 || !self.qids.borrow_mut().free(qid, slot) {
            return;
        }
        let handle = self.smartio.fabric().handle();
        let _ = {
            let mut admin = self.admin.borrow_mut();
            simcore::timeout(&handle, self.cfg.admin_timeout, admin.delete_io_qpair(qid)).await
        };
        let mut st = self.stats.borrow_mut();
        st.qpairs_created -= 1;
        st.requests_rejected += 1;
    }

    fn reject(&self, status: u32, qid: u16) -> Response {
        self.stats.borrow_mut().requests_rejected += 1;
        Response {
            seq: 0,
            status,
            qid,
            flags: 0,
        }
    }

    /// The admin queue is used exclusively by the (single, serial) serve
    /// loop; holding its RefCell borrow across the admin awaits is sound.
    /// Every admin await is raced against `admin_timeout` so a wedged or
    /// unreachable controller degrades to ADMIN_FAILED, never a hang.
    #[allow(clippy::await_holding_refcell_ref)]
    async fn handle(&self, slot: usize, req: Request) -> Response {
        let handle = self.smartio.fabric().handle();
        let deadline = self.cfg.admin_timeout;
        match req {
            Request::CreateQp {
                entries,
                sq_bus,
                cq_bus,
                iv,
                want_qid,
                ..
            } => {
                if entries < 2 {
                    return self.reject(proto::status::BAD_REQUEST, 0);
                }
                let qid = if want_qid != 0 {
                    if self.qids.borrow_mut().alloc_specific(want_qid, slot) {
                        want_qid
                    } else {
                        return self.reject(proto::status::NO_FREE_QPAIR, 0);
                    }
                } else {
                    match self.qids.borrow_mut().alloc(slot) {
                        Some(q) => q,
                        None => return self.reject(proto::status::NO_FREE_QPAIR, 0),
                    }
                };
                // Privileged admin operation on behalf of the client. The
                // paper's clients poll (iv = None); the interrupt-
                // forwarding extension passes a vector (== qid).
                let r = {
                    let mut admin = self.admin.borrow_mut();
                    simcore::timeout(
                        &handle,
                        deadline,
                        admin.create_io_qpair(qid, entries, sq_bus, cq_bus, iv.map(|_| qid)),
                    )
                    .await
                };
                match r {
                    Ok(Ok(())) => {
                        self.stats.borrow_mut().qpairs_created += 1;
                        Response {
                            seq: 0,
                            status: proto::status::OK,
                            qid,
                            flags: 0,
                        }
                    }
                    _ => {
                        self.qids.borrow_mut().free(qid, slot);
                        self.reject(proto::status::ADMIN_FAILED, 0)
                    }
                }
            }
            Request::DeleteQp { qid, .. } => {
                if !self.qids.borrow_mut().free(qid, slot) {
                    return self.reject(proto::status::NOT_OWNER, qid);
                }
                let r = {
                    let mut admin = self.admin.borrow_mut();
                    simcore::timeout(&handle, deadline, admin.delete_io_qpair(qid)).await
                };
                match r {
                    Ok(Ok(())) => {
                        self.stats.borrow_mut().qpairs_deleted += 1;
                        Response {
                            seq: 0,
                            status: proto::status::OK,
                            qid,
                            flags: 0,
                        }
                    }
                    _ => Response {
                        seq: 0,
                        status: proto::status::ADMIN_FAILED,
                        qid,
                        flags: 0,
                    },
                }
            }
            Request::Abort { qid, cid, .. } => {
                // Only the owner of the queue may abort commands on it.
                if self.qids.borrow().owner(qid) != Some(slot) {
                    return self.reject(proto::status::NOT_OWNER, qid);
                }
                let r = {
                    let mut admin = self.admin.borrow_mut();
                    simcore::timeout(&handle, deadline, admin.abort(qid, cid)).await
                };
                match r {
                    Ok(Ok(aborted)) => {
                        self.stats.borrow_mut().aborts_issued += 1;
                        Response {
                            seq: 0,
                            status: proto::status::OK,
                            qid,
                            flags: if aborted { flag::ABORTED } else { 0 },
                        }
                    }
                    _ => Response {
                        seq: 0,
                        status: proto::status::ADMIN_FAILED,
                        qid,
                        flags: 0,
                    },
                }
            }
            Request::Heartbeat { .. } => Response {
                // The lease was refreshed when the message was accepted.
                seq: 0,
                status: proto::status::OK,
                qid: 0,
                flags: 0,
            },
            Request::Reset { .. } => match self.reset_controller().await {
                Ok(()) => Response {
                    seq: 0,
                    status: proto::status::OK,
                    qid: 0,
                    flags: 0,
                },
                Err(_) => Response {
                    seq: 0,
                    status: proto::status::ADMIN_FAILED,
                    qid: 0,
                    flags: 0,
                },
            },
        }
    }

    /// Recovery ladder rung 4: full controller re-initialization. Every
    /// granted queue pair is revoked — clients other than the requester
    /// learn this through NOT_OWNER / timed-out I/O, the typed-error path.
    async fn reset_controller(&self) -> AdminResult<()> {
        let fabric = self.smartio.fabric().clone();
        let handle = fabric.handle();
        self.qids.borrow_mut().clear();
        // Borrow the admin queue only *after* the re-init await resolves:
        // holding the RefCell guard across the await would turn any
        // concurrent admin use during the reset into a reentrant-borrow
        // panic instead of the NOT_OWNER / timeout path (clippy's
        // `await_holding_refcell_ref`).
        let r = simcore::timeout(
            &handle,
            self.cfg.admin_timeout,
            AdminQueue::init(&fabric, self.bar_region, self.admin_layout),
        )
        .await;
        match r {
            Ok(Ok(fresh)) => {
                *self.admin.borrow_mut() = fresh;
                Ok(())
            }
            Ok(Err(e)) => Err(e),
            Err(simcore::Elapsed) => Err(AdminError::ControllerFatal),
        }
    }

    /// Lease reaper: periodically reclaim the queue pairs, mappings, and
    /// segments of clients that stopped heartbeating (§V crash recovery).
    #[allow(clippy::await_holding_refcell_ref)]
    async fn reap_loop(self: Rc<Self>) {
        let Some(lease) = self.cfg.lease else { return };
        let fabric = self.smartio.fabric().clone();
        let handle = fabric.handle();
        loop {
            handle.sleep(lease / 2).await;
            let now = handle.now();
            let expired: Vec<usize> = self
                .leases
                .borrow()
                .iter()
                .filter(|&(_, &seen)| now.since(seen) > lease)
                .map(|(&slot, _)| slot)
                .collect();
            for slot in expired {
                self.leases.borrow_mut().remove(&slot);
                let owned = self.qids.borrow().owned_by(slot);
                for qid in owned {
                    let _ = {
                        let mut admin = self.admin.borrow_mut();
                        simcore::timeout(
                            &handle,
                            self.cfg.admin_timeout,
                            admin.delete_io_qpair(qid),
                        )
                        .await
                    };
                    self.qids.borrow_mut().free(qid, slot);
                    self.stats.borrow_mut().qpairs_reclaimed += 1;
                }
                // Drop the response-segment mapping and let SmartIO sweep
                // everything else the client owned (device-side rings,
                // bounce partitions, LUT windows, borrow references).
                if let Some(seg) = self.slot_resp_seg.borrow_mut().remove(&slot) {
                    if let Some(m) = self.resp_maps.borrow_mut().remove(&seg) {
                        self.smartio.unmap_cpu(m);
                    }
                }
                self.smartio.purge_owner(HostId(slot as u16));
                self.stats.borrow_mut().clients_evicted += 1;
            }
        }
    }

    /// Write the response into the client's response segment (through an
    /// NTB mapping if the client is remote — a posted write). Returns
    /// whether the response could be delivered at all.
    async fn respond(&self, msg: SlotMessage, mut resp: Response) -> bool {
        resp.seq = msg.seq;
        let seg = msg.request.response_segment();
        let mapping = {
            let mut maps = self.resp_maps.borrow_mut();
            match maps.get(&seg) {
                Some(m) => *m,
                None => {
                    let Ok(m) = self.smartio.map_for_cpu(self.host, SegmentId(seg)) else {
                        return false; // client vanished; nothing to answer
                    };
                    maps.insert(seg, m);
                    m
                }
            }
        };
        let fabric = self.smartio.fabric();
        fabric
            .cpu_write(mapping.region.host, mapping.region.addr, &resp.encode())
            .await
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qid_pool_alloc_free() {
        let mut p = QidPool::new(3);
        assert_eq!(p.alloc(0), Some(1));
        assert_eq!(p.alloc(1), Some(2));
        assert_eq!(p.alloc(2), Some(3));
        assert_eq!(p.alloc(3), None, "pool exhausted");
        assert!(!p.free(2, 0), "wrong owner rejected");
        assert!(p.free(2, 1));
        assert_eq!(p.alloc(5), Some(2), "freed qid reused");
        assert_eq!(p.in_use(), 3);
    }

    #[test]
    fn qid_zero_never_allocated() {
        let mut p = QidPool::new(2);
        assert_eq!(p.alloc(0), Some(1));
        assert_eq!(p.alloc(0), Some(2));
        assert_eq!(p.alloc(0), None);
    }

    /// Regression for the CreateQp leak path: a qid allocated for a
    /// request that subsequently fails (admin error, or a client that
    /// never sees the grant) must go back to the pool — repeated failed
    /// creates must not exhaust it.
    #[test]
    fn failed_create_path_never_leaks_qids() {
        let mut p = QidPool::new(2);
        for _ in 0..100 {
            let Some(qid) = p.alloc(7) else {
                panic!("pool must not be exhausted by failures");
            };
            // Failure path: the same rollback `handle`/`rollback_create` run.
            assert!(p.free(qid, 7), "rollback frees what alloc granted");
        }
        assert_eq!(p.in_use(), 0);
        // Pool still fully usable afterwards.
        assert_eq!(p.alloc(1), Some(1));
        assert_eq!(p.alloc(2), Some(2));
    }

    #[test]
    fn alloc_specific_for_recovery() {
        let mut p = QidPool::new(3);
        assert_eq!(p.alloc(0), Some(1));
        assert_eq!(p.alloc(1), Some(2));
        // Recreate under the old id after the owner deleted it.
        assert!(p.free(2, 1));
        assert!(p.alloc_specific(2, 1), "freed qid re-grantable by id");
        assert!(p.alloc_specific(2, 1), "idempotent for the same owner");
        assert!(!p.alloc_specific(2, 0), "taken qid refused to others");
        assert!(!p.alloc_specific(9, 0), "out-of-range qid refused");
        assert_eq!(p.owner(2), Some(1));
    }

    #[test]
    fn owned_by_and_clear_reclaim_everything() {
        let mut p = QidPool::new(4);
        assert_eq!(p.alloc(3), Some(1));
        assert_eq!(p.alloc(5), Some(2));
        assert_eq!(p.alloc(3), Some(3));
        assert_eq!(p.owned_by(3), vec![1, 3]);
        assert_eq!(p.owned_by(5), vec![2]);
        assert_eq!(p.clear(), 3, "controller reset revokes all grants");
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.owned_by(3), Vec::<u16>::new());
    }
}
