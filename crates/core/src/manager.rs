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
//!
//! Step 3 is one task, the serve loop, and it owns the admin queue and
//! every per-client table outright: the one admin queue has one user. With
//! a lease configured, reclaiming silent clients is a branch of the same
//! loop — it waits for the mailbox or the next reap deadline, whichever
//! comes first, and a reap pass finishes before the next request is read.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use nvme::driver::admin::{AdminError, AdminQueue, AdminQueueLayout};
use nvme::spec::command::SQE_SIZE;
use nvme::spec::completion::CQE_SIZE;
use pcie::{HostId, MemRegion, PhysAddr};
use simcore::{SimDuration, SimTime};
use smartio::{AccessHints, BorrowMode, CpuMapping, SegmentId, SmartDeviceId, SmartIo};

use crate::client::{give_back, Held};
use crate::proto::{self, Metadata, Request, Response, SlotMessage};

/// Admin queue depth.
const ADMIN_ENTRIES: u16 = 32;

/// Deadline for each admin command issued on a client's behalf, and for
/// bring-up's three. Neither the serve loop nor `Manager::start` may block
/// forever on a wedged controller, so every admin await is raced against
/// this.
const ADMIN_TIMEOUT: SimDuration = SimDuration::from_millis(50);

/// Manager configuration.
#[derive(Clone, Debug)]
pub struct ManagerConfig {
    /// I/O queue pairs to negotiate (the device may grant fewer).
    pub want_qpairs: u16,
    /// CPU cost to process one mailbox request (manager software).
    pub serve_overhead: SimDuration,
    /// Client lease duration. `None` disables the lease protocol (the
    /// seed behavior); `Some(d)` makes clients heartbeat and lets the
    /// manager reclaim the queue pairs of any client silent for `d`.
    pub lease: Option<SimDuration>,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            want_qpairs: 31,
            serve_overhead: SimDuration::from_nanos(400),
            lease: None,
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

    fn free(&mut self, qid: u16, slot: usize) -> bool {
        match self.owners.get_mut(qid as usize) {
            Some(o) if *o == Some(slot) => {
                *o = None;
                true
            }
            _ => false,
        }
    }

    /// All qids a slot currently owns (lease reclamation).
    fn owned_by(&self, slot: usize) -> Vec<u16> {
        (1..self.owners.len())
            .filter(|&q| self.owners[q] == Some(slot))
            .map(|q| q as u16)
            .collect()
    }

    fn in_use(&self) -> usize {
        self.owners.iter().filter(|o| o.is_some()).count()
    }
}

/// The running manager: what its accessors read. The admin queue and the
/// per-client tables belong to the serve loop (`Server`).
pub struct Manager {
    /// The metadata this manager published.
    pub metadata: Metadata,
    host: HostId,
    device: SmartDeviceId,
    /// Granted queue ids; the serve loop is their only writer.
    qids: RefCell<QidPool>,
    stats: RefCell<ManagerStats>,
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
        // leave the device wedged in Exclusive for every other host, nor
        // keep the segments and windows taken so far. On success the
        // manager keeps a Shared borrow (bring_up downgrades internally).
        smartio.acquire(device, host, BorrowMode::Exclusive)?;
        let mut held = Held::default();
        let mgr = Self::bring_up(smartio, device, host, cfg, &mut held).await;
        if mgr.is_err() {
            let held = RefCell::new(held);
            let _ = give_back(smartio, device, host, None, &held).await;
        }
        mgr
    }

    /// The fallible body of [`Manager::start`], run while the caller
    /// holds the device borrow. Everything it takes goes into `held`
    /// first, so the caller can give all of it back if this returns
    /// `Err`.
    async fn bring_up(
        smartio: &SmartIo,
        device: SmartDeviceId,
        host: HostId,
        cfg: ManagerConfig,
        held: &mut Held,
    ) -> crate::error::Result<Rc<Manager>> {
        let fabric = smartio.fabric().clone();

        // Map the controller's registers (BAR window if remote).
        let bar_seg = smartio.bar_segment(device, 0)?;
        let bar_map = smartio.map_for_cpu(host, bar_seg)?;
        held.mappings.push(bar_map);

        // Admin queues, placed by access hints: ASQ device-side (the
        // controller fetches from it), ACQ manager-local (we poll it).
        let asq_seg = smartio.create_segment_hinted(
            host,
            device,
            u64::from(ADMIN_ENTRIES) * SQE_SIZE as u64,
            AccessHints::sq(),
        )?;
        held.segments.push(asq_seg);
        let acq_seg = smartio.create_segment_hinted(
            host,
            device,
            u64::from(ADMIN_ENTRIES) * CQE_SIZE as u64,
            AccessHints::cq(),
        )?;
        held.segments.push(acq_seg);
        let asq_cpu = smartio.map_for_cpu(host, asq_seg)?;
        held.mappings.push(asq_cpu);
        let acq_region = smartio.segment_region(acq_seg)?;
        assert_eq!(
            acq_region.host, host,
            "ACQ must be manager-local for polling"
        );
        let asq_win = smartio.map_for_device(device, asq_seg)?;
        held.windows.push(asq_win);
        let acq_win = smartio.map_for_device(device, acq_seg)?;
        held.windows.push(acq_win);

        let admin_layout = AdminQueueLayout {
            asq_cpu: asq_cpu.region,
            asq_bus: asq_win.bus_base,
            acq_cpu: acq_region,
            acq_bus: acq_win.bus_base,
            entries: ADMIN_ENTRIES,
        };
        let mut admin = AdminQueue::init(&fabric, bar_map.region, admin_layout).await?;
        let published = Self::publish(smartio, device, host, bar_seg, &cfg, &mut admin, held).await;
        let (metadata, mailbox) = match published {
            Ok(v) => v,
            Err(e) => {
                // Stop polling the ACQ before `start` gives its memory back.
                admin.stop();
                return Err(e);
            }
        };

        let mgr = Rc::new(Manager {
            metadata,
            host,
            device,
            qids: RefCell::new(QidPool::new(metadata.max_qpairs)),
            stats: RefCell::default(),
        });
        let server = Server {
            mgr: mgr.clone(),
            smartio: smartio.clone(),
            admin,
            mailbox,
            slots: vec![Slot::default(); proto::MAILBOX_SLOTS as usize],
            resp_maps: BTreeMap::new(),
            cfg,
        };
        fabric.handle().spawn_detached(server.serve());
        Ok(mgr)
    }

    /// Identify the controller and namespace 1 through a scratch segment
    /// and negotiate the I/O queue count, then publish the mailbox and the
    /// metadata segment and downgrade to a shared borrow. Returns the
    /// metadata and the mailbox. The three admin commands
    /// race [`ADMIN_TIMEOUT`] together, as each of the serve loop's does:
    /// a lost completion fails the start instead of hanging it.
    async fn publish(
        smartio: &SmartIo,
        device: SmartDeviceId,
        host: HostId,
        bar_seg: SegmentId,
        cfg: &ManagerConfig,
        admin: &mut AdminQueue,
        held: &mut Held,
    ) -> crate::error::Result<(Metadata, MemRegion)> {
        let fabric = smartio.fabric();
        let idbuf_seg = smartio.create_segment(host, 4096)?;
        held.segments.push(idbuf_seg);
        let idbuf = smartio.segment_region(idbuf_seg)?;
        let idbuf_win = smartio.map_for_device(device, idbuf_seg)?;
        held.windows.push(idbuf_win);
        let bus = idbuf_win.bus_base;
        let negotiate = async {
            admin.identify_controller(idbuf, bus).await?;
            let ns_info = admin.identify_namespace(1, idbuf, bus).await?;
            let granted = admin.set_num_queues(cfg.want_qpairs).await?;
            Ok((ns_info, granted))
        };
        let (ns_info, granted) = simcore::timeout(&fabric.handle(), ADMIN_TIMEOUT, negotiate)
            .await
            .unwrap_or(Err(AdminError::ControllerFatal))?;
        smartio.destroy_segment(idbuf_seg)?;

        // Mailbox + metadata segments, manager-local.
        let mailbox_segment = smartio.create_segment(
            host,
            u64::from(proto::MAILBOX_SLOTS) * proto::MAILBOX_SLOT as u64,
        )?;
        held.segments.push(mailbox_segment);
        let mailbox = smartio.segment_region(mailbox_segment)?;
        let meta_segment = smartio.create_segment(host, proto::META_LEN as u64)?;
        held.segments.push(meta_segment);
        let metadata = Metadata {
            magic: proto::META_MAGIC,
            manager_host: host.0,
            max_qpairs: granted,
            block_size: ns_info.block_size() as u32,
            capacity_blocks: ns_info.nsze,
            mailbox_segment: mailbox_segment.0,
            bar_segment: bar_seg.0,
            mailbox_slots: proto::MAILBOX_SLOTS,
            lease_nanos: cfg.lease.map(SimDuration::as_nanos).unwrap_or(0),
        };
        let meta_region = smartio.segment_region(meta_segment)?;
        fabric.mem_write(meta_region.host, meta_region.addr, &metadata.encode())?;
        smartio.publish(&Manager::meta_name(device), meta_segment)?;

        // Downgrade: release exclusive, take a shared reference.
        smartio.release(device, host)?;
        smartio.acquire(device, host, BorrowMode::Shared)?;
        Ok((metadata, mailbox))
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
        self.metadata.max_qpairs
    }

    /// The managed device.
    pub fn device(&self) -> SmartDeviceId {
        self.device
    }

    /// The host the manager runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    fn reject(&self, status: u32, qid: u16) -> Response {
        self.stats.borrow_mut().requests_rejected += 1;
        Response::error(status, qid)
    }
}

/// What the serve loop remembers about one mailbox slot.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// Seq, response segment and retry counter of the last request
    /// accepted; a request repeating the first two is a duplicate.
    seq: u32,
    seg: u32,
    retry: u32,
    /// The answer to that request, re-sent when the client retries.
    cached: Option<Response>,
    /// When the slot was last heard from (any decoded message counts);
    /// `None` until then and once reaped.
    seen: Option<SimTime>,
}

/// The serve loop's state: the one owner of the admin queue, the slot
/// table and the response-segment mappings.
struct Server {
    mgr: Rc<Manager>,
    smartio: SmartIo,
    cfg: ManagerConfig,
    admin: AdminQueue,
    /// The mailbox segment, one [`proto::MAILBOX_SLOT`] per host.
    mailbox: MemRegion,
    slots: Vec<Slot>,
    /// Cached CPU mappings of client response segments.
    resp_maps: BTreeMap<u32, CpuMapping>,
}

impl Server {
    /// Watch the mailbox and answer what changes in it. With a lease, the
    /// same loop reaps every `lease / 2`: it waits for the mailbox or the
    /// reap deadline, whichever comes first.
    async fn serve(mut self) {
        let fabric = self.smartio.fabric().clone();
        let handle = fabric.handle();
        let watch = fabric.watch(self.mailbox.host, self.mailbox.addr, self.mailbox.len);
        let mut reap_at = self.cfg.lease.map(|lease| handle.now() + lease / 2);
        loop {
            match reap_at {
                None => watch.notify.notified().await,
                Some(at) if handle.now() >= at => {
                    self.reap().await;
                    reap_at = self.cfg.lease.map(|lease| handle.now() + lease / 2);
                    continue;
                }
                Some(at) => {
                    let wait = at.since(handle.now());
                    if simcore::timeout(&handle, wait, watch.notify.notified())
                        .await
                        .is_err()
                    {
                        continue;
                    }
                }
            }
            self.scan().await;
        }
    }

    /// Read every slot once: execute what is new, re-send what a client
    /// asks for again.
    async fn scan(&mut self) {
        let fabric = self.smartio.fabric().clone();
        for slot in 0..self.slots.len() {
            let Some((addr, msg)) = self.read_slot(slot) else {
                continue;
            };
            let now = fabric.handle().now();
            let last = &mut self.slots[slot];
            // A new connection numbers its requests from 1 again but
            // answers into a new response segment (ids are never reused),
            // so a repeated seq is a duplicate only when the segment
            // repeats too — else a host refused on its first request
            // could never be heard again.
            if msg.seq == last.seq && msg.response_segment == last.seg {
                // Duplicate seq: either nothing new, or the client retried
                // because our response got lost. A bumped retry counter
                // asks for the cached answer again — the request is NOT
                // re-executed (idempotent retry).
                if msg.retry != last.retry {
                    last.retry = msg.retry;
                    if let Some(resp) = last.cached {
                        last.seen = Some(now);
                        self.respond(msg, resp).await;
                    }
                }
                continue;
            }
            *last = Slot {
                seq: msg.seq,
                seg: msg.response_segment,
                retry: msg.retry,
                cached: None,
                seen: Some(now),
            };
            // Accepting a fresh seq acquires the client's posted request
            // write (happens-before edge, mirroring the client's acquire
            // on the response).
            fabric.sanitize_consume(self.mailbox.host, addr, proto::MAILBOX_SLOT as u64);
            // Manager software cost per request.
            fabric.handle().sleep(self.cfg.serve_overhead).await;
            let resp = self.handle(slot, msg.request).await;
            self.slots[slot].cached = Some(resp);
            let ok = resp.status == proto::status::OK;
            let delivered = self.respond(msg, resp).await;
            if !delivered && ok {
                // The client granted a queue pair never got told about
                // it (response segment unmappable — client vanished
                // mid-handshake). Roll the grant back so the qid and
                // the slot don't leak until lease expiry.
                if let Request::CreateQp { .. } = msg.request {
                    self.rollback_create(slot, resp.qid).await;
                    self.slots[slot].cached = None;
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
                if let Some(m) = self.resp_maps.remove(&msg.response_segment) {
                    self.smartio.unmap_cpu(m);
                }
            }
        }
    }

    /// The request in `slot` of the mailbox and its address, if one
    /// decodes (an unreadable slot is a segment torn down mid-poll).
    fn read_slot(&self, slot: usize) -> Option<(PhysAddr, SlotMessage)> {
        let addr = self
            .mailbox
            .addr
            .offset((slot * proto::MAILBOX_SLOT) as u64);
        let mut raw = [0u8; proto::MAILBOX_SLOT];
        let fabric = self.smartio.fabric();
        fabric.mem_read(self.mailbox.host, addr, &mut raw).ok()?;
        SlotMessage::decode(&raw)
            .filter(|msg| msg.seq != 0)
            .map(|msg| (addr, msg))
    }

    /// Undo a CreateQp whose grant response could not be delivered: delete
    /// the controller-side queues and return the qid to the pool.
    async fn rollback_create(&mut self, slot: usize, qid: u16) {
        if qid == 0 || !self.mgr.qids.borrow_mut().free(qid, slot) {
            return;
        }
        let handle = self.smartio.fabric().handle();
        let deleted = self.admin.delete_io_qpair(qid);
        let _ = simcore::timeout(&handle, ADMIN_TIMEOUT, deleted).await;
        let mut st = self.mgr.stats.borrow_mut();
        st.qpairs_created -= 1;
        st.requests_rejected += 1;
    }

    /// Execute one request for `slot`. Every admin await is raced against
    /// [`ADMIN_TIMEOUT`], so a wedged or unreachable controller degrades to
    /// ADMIN_FAILED, never a hang.
    async fn handle(&mut self, slot: usize, req: Request) -> Response {
        let handle = self.smartio.fabric().handle();
        let mgr = &self.mgr;
        match req {
            Request::CreateQp {
                entries,
                sq_bus,
                cq_bus,
            } => {
                if entries < 2 {
                    return mgr.reject(proto::status::BAD_REQUEST, 0);
                }
                let Some(qid) = mgr.qids.borrow_mut().alloc(slot) else {
                    return mgr.reject(proto::status::NO_FREE_QPAIR, 0);
                };
                // Privileged admin operation on behalf of the client, whose
                // CQ is polled: no interrupt vector.
                let created = self
                    .admin
                    .create_io_qpair(qid, entries, sq_bus, cq_bus, None);
                match simcore::timeout(&handle, ADMIN_TIMEOUT, created).await {
                    Ok(Ok(())) => {
                        mgr.stats.borrow_mut().qpairs_created += 1;
                        Response::ok(qid)
                    }
                    _ => {
                        mgr.qids.borrow_mut().free(qid, slot);
                        mgr.reject(proto::status::ADMIN_FAILED, 0)
                    }
                }
            }
            Request::DeleteQp { qid } => {
                if !mgr.qids.borrow_mut().free(qid, slot) {
                    return mgr.reject(proto::status::NOT_OWNER, qid);
                }
                let deleted = self.admin.delete_io_qpair(qid);
                match simcore::timeout(&handle, ADMIN_TIMEOUT, deleted).await {
                    Ok(Ok(())) => {
                        mgr.stats.borrow_mut().qpairs_deleted += 1;
                        Response::ok(qid)
                    }
                    _ => Response::error(proto::status::ADMIN_FAILED, qid),
                }
            }
            // The lease was refreshed when the message was accepted.
            Request::Heartbeat => Response::ok(0),
        }
    }

    /// Lease reaper (§V crash recovery): reclaim, in slot order, every
    /// client silent for longer than its lease — admin-delete and free its
    /// qids, drop its response mapping, and let SmartIO sweep everything
    /// else it owned (device-side rings, bounce partitions, LUT windows,
    /// borrow references).
    async fn reap(&mut self) {
        let Some(lease) = self.cfg.lease else { return };
        let handle = self.smartio.fabric().handle();
        let now = handle.now();
        for slot in 0..self.slots.len() {
            let last = &self.slots[slot];
            if last.seen.is_none_or(|seen| now.since(seen) <= lease) {
                continue;
            }
            // A message other than the last one accepted is a sign of life
            // that a stalled admin call kept the loop from reading; the
            // next scan answers it.
            let heard = (last.seq, last.seg, last.retry);
            let unread = self
                .read_slot(slot)
                .is_some_and(|(_, msg)| (msg.seq, msg.response_segment, msg.retry) != heard);
            let last = &mut self.slots[slot];
            if unread {
                last.seen = Some(now);
                continue;
            }
            last.seen = None;
            let seg = last.seg;
            let owned = self.mgr.qids.borrow().owned_by(slot);
            for qid in owned {
                let deleted = self.admin.delete_io_qpair(qid);
                let _ = simcore::timeout(&handle, ADMIN_TIMEOUT, deleted).await;
                self.mgr.qids.borrow_mut().free(qid, slot);
                self.mgr.stats.borrow_mut().qpairs_reclaimed += 1;
            }
            if let Some(m) = self.resp_maps.remove(&seg) {
                self.smartio.unmap_cpu(m);
            }
            self.smartio.purge_owner(HostId(slot as u16));
            self.mgr.stats.borrow_mut().clients_evicted += 1;
        }
    }

    /// Write the response into the client's response segment (through an
    /// NTB mapping if the client is remote — a posted write). Returns
    /// whether the response could be delivered at all.
    async fn respond(&mut self, msg: SlotMessage, mut resp: Response) -> bool {
        resp.seq = msg.seq;
        let seg = msg.response_segment;
        let mapping = match self.resp_maps.get(&seg) {
            Some(m) => *m,
            None => {
                let Ok(m) = self.smartio.map_for_cpu(self.mgr.host, SegmentId(seg)) else {
                    return false; // client vanished; nothing to answer
                };
                self.resp_maps.insert(seg, m);
                m
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
    fn owned_by_lists_each_slots_grants() {
        let mut p = QidPool::new(4);
        assert_eq!(p.alloc(3), Some(1));
        assert_eq!(p.alloc(5), Some(2));
        assert_eq!(p.alloc(3), Some(3));
        assert_eq!(p.owned_by(3), vec![1, 3]);
        assert_eq!(p.owned_by(5), vec![2]);
        assert!(p.free(1, 3));
        assert_eq!(p.owned_by(3), vec![3]);
        assert_eq!(p.owned_by(4), Vec::<u16>::new());
    }
}
