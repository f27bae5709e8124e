//! The NVMe controller device model.
//!
//! A single-function controller, exactly as the paper's P4800X presents
//! itself: one register file, one admin queue pair, up to `io_queue_pairs`
//! I/O queue pairs. All queue memory and data buffers are reached through
//! [`pcie::Fabric`] DMA with full NTB translation — the controller neither
//! knows nor cares whether a queue lives in local host memory or behind
//! two switch chips in another host's DRAM. That property is the entire
//! basis of the paper's design (Fig. 4).
//!
//! # Command set
//!
//! The controller implements the commands some driver in the workspace
//! sends, and answers every other opcode with `INVALID_OPCODE`:
//!
//! * **Admin** (the manager's bring-up and queue service, §V): Identify
//!   (CNS Controller and Namespace), Set Features (Number of Queues
//!   only), and Create/Delete I/O CQ and SQ.
//! * **NVM** (namespace 1, the clients' datapath): Read, Write and Flush.
//!   Data moves through PRP1/PRP2 or a PRP list.

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

use pcie::{DeviceId, Fabric, HostId, MmioDevice, NodeId, Payload, PhysAddr, WeakFabric};
use simcore::sync::{Notify, Semaphore};
use simcore::{Handle, SimDuration, Stage};

use crate::medium::BlockStore;
use crate::spec::command::{SqEntry, SQE_SIZE};
use crate::spec::completion::{CqEntry, CQE_SIZE};
use crate::spec::identify::{IdentifyController, IdentifyNamespace};
use crate::spec::opcode::{cns, feature, AdminOpcode, NvmOpcode};
use crate::spec::prp;
use crate::spec::registers::{csts, decode_doorbell, offset, Aqa, Cap, Cc};
use crate::spec::status::Status;

/// Queue entries supported per queue (CAP.MQES + 1).
const MAX_QUEUE_ENTRIES: u16 = 1024;

/// Size of BAR0: the register file and the doorbells.
const BAR0_SIZE: u64 = 0x4000;

/// Static configuration of a controller instance.
#[derive(Clone, Debug)]
pub struct NvmeConfig {
    /// I/O queue pairs supported (the P4800X supports 31 + admin).
    pub io_queue_pairs: u16,
    /// Firmware processing overhead per command.
    pub cmd_overhead: SimDuration,
    /// CC.EN=1 to CSTS.RDY=1 delay.
    pub enable_delay: SimDuration,
    /// Maximum concurrently executing commands (internal tags).
    pub max_exec: usize,
}

impl Default for NvmeConfig {
    fn default() -> Self {
        NvmeConfig {
            io_queue_pairs: 31,
            cmd_overhead: SimDuration::from_nanos(250),
            enable_delay: SimDuration::from_micros(50),
            max_exec: 64,
        }
    }
}

#[derive(Default)]
struct Regs {
    cc: u32,
    csts: u32,
    aqa: u32,
    asq: u64,
    acq: u64,
}

struct SqState {
    qid: u16,
    base: PhysAddr,
    entries: u16,
    cqid: u16,
    head: u16,
    /// Doorbell shadow written by the host.
    tail: u16,
    doorbell: Notify,
    alive: bool,
}

struct CqState {
    base: PhysAddr,
    entries: u16,
    tail: u16,
    phase: bool,
    /// Host's CQ head doorbell shadow (for full detection).
    head_shadow: u16,
    /// Interrupt vector if interrupts enabled at creation.
    iv: Option<u16>,
    space: Notify,
    /// Number of SQs mapped to this CQ (delete protection).
    sq_refs: u16,
    alive: bool,
}

/// The counters an un-armed run can read. Every other count (admin
/// commands, media reads and writes, CQEs posted, resets) is read off the
/// armed record stream (`simcore::sanitize`).
#[derive(Default, Clone, Debug)]
pub struct CtrlStats {
    /// SQEs fetched from submission queues.
    pub commands_fetched: u64,
    /// Completions with a non-success status.
    pub errors_returned: u64,
}

/// The controller. Register it on the fabric with [`NvmeController::attach`].
pub struct NvmeController {
    /// Weak: the fabric owns this controller as a device's MMIO handler.
    fabric: WeakFabric,
    handle: Handle,
    store: Rc<BlockStore>,
    config: NvmeConfig,
    cap: Cap,
    dev: Cell<Option<DeviceId>>,
    weak_self: RefCell<Weak<NvmeController>>,
    regs: RefCell<Regs>,
    /// Live queues, indexed by qid (0 is the admin queue): `reset` wakes
    /// their parked workers in qid order, reproducibly.
    sqs: RefCell<QueueTable<SqState>>,
    cqs: RefCell<QueueTable<CqState>>,
    exec_sem: Semaphore,
    stats: RefCell<CtrlStats>,
}

/// One slot per qid the controller supports, `None` where no queue lives.
type QueueTable<T> = Vec<Option<Rc<RefCell<T>>>>;

/// The queue at `qid`, if one lives there.
fn queue<T>(table: &QueueTable<T>, qid: u16) -> Option<&Rc<RefCell<T>>> {
    table.get(usize::from(qid))?.as_ref()
}

impl NvmeController {
    /// Create the controller, attach it to `host`'s domain at topology node
    /// `at`, and return it.
    pub fn attach(
        fabric: &Fabric,
        host: HostId,
        at: NodeId,
        store: Rc<BlockStore>,
        config: NvmeConfig,
    ) -> Rc<NvmeController> {
        let cap = Cap {
            mqes: MAX_QUEUE_ENTRIES - 1,
            dstrd: 0,
            to: 20,
            cqr: true,
        };
        let queues = usize::from(config.io_queue_pairs) + 1;
        let ctrl = Rc::new(NvmeController {
            fabric: fabric.downgrade(),
            handle: fabric.handle(),
            store,
            exec_sem: Semaphore::new(config.max_exec),
            cap,
            config,
            dev: Cell::new(None),
            weak_self: RefCell::new(Weak::new()),
            regs: RefCell::new(Regs::default()),
            sqs: RefCell::new(vec![None; queues]),
            cqs: RefCell::new(vec![None; queues]),
            stats: RefCell::new(CtrlStats::default()),
        });
        *ctrl.weak_self.borrow_mut() = Rc::downgrade(&ctrl);
        let dev = fabric.add_device(host, at, &[BAR0_SIZE], ctrl.clone());
        ctrl.dev.set(Some(dev));
        ctrl
    }

    /// The controller's fabric device id.
    pub fn device_id(&self) -> DeviceId {
        self.dev.get().expect("controller not attached")
    }

    /// The capabilities register value.
    pub fn cap(&self) -> Cap {
        self.cap
    }

    /// Snapshot of the run counters.
    pub fn stats(&self) -> CtrlStats {
        self.stats.borrow().clone()
    }

    /// The backing storage medium.
    pub fn store(&self) -> &Rc<BlockStore> {
        &self.store
    }

    /// Number of live I/O submission queues (diagnostic).
    pub fn live_io_queues(&self) -> usize {
        self.sqs.borrow()[1..].iter().flatten().count()
    }

    fn fabric(&self) -> Fabric {
        self.fabric
            .upgrade()
            .expect("fabric dropped while its controller is in use")
    }

    fn me(&self) -> Rc<NvmeController> {
        self.weak_self.borrow().upgrade().expect("controller gone")
    }

    fn identify_controller_data(&self) -> IdentifyController {
        IdentifyController {
            vid: 0x8086,
            serial: "SIMOPTANE0001".into(),
            model: "Simulated Optane P4800X".into(),
            firmware: "SIM1".into(),
            mdts: 8, // 2^8 pages = 1 MiB
            nn: 1,
            sqes: 0x66,
            cqes: 0x44,
        }
    }

    fn identify_namespace_data(&self) -> IdentifyNamespace {
        IdentifyNamespace {
            nsze: self.store.capacity_blocks(),
            ncap: self.store.capacity_blocks(),
            lbads: self.store.block_size().trailing_zeros() as u8,
        }
    }

    // -----------------------------------------------------------------
    // Register handling
    // -----------------------------------------------------------------

    fn handle_cc_write(&self, value: u32) {
        let old = Cc::decode(self.regs.borrow().cc);
        let new = Cc::decode(value);
        self.regs.borrow_mut().cc = value;
        if new.enable && !old.enable {
            let me = self.me();
            self.handle.spawn(async move { me.enable_sequence().await });
        } else if !new.enable && old.enable {
            self.reset();
        }
    }

    async fn enable_sequence(self: Rc<Self>) {
        self.handle.sleep(self.config.enable_delay).await;
        let (aqa, asq, acq) = {
            let r = self.regs.borrow();
            (Aqa::decode(r.aqa), PhysAddr(r.asq), PhysAddr(r.acq))
        };
        // Install the admin queue pair (qid 0).
        let cq = Rc::new(RefCell::new(CqState {
            base: acq,
            entries: aqa.acqs + 1,
            tail: 0,
            phase: true,
            head_shadow: 0,
            iv: Some(0),
            space: Notify::new(),
            sq_refs: 1,
            alive: true,
        }));
        let sq = Rc::new(RefCell::new(SqState {
            qid: 0,
            base: asq,
            entries: aqa.asqs + 1,
            cqid: 0,
            head: 0,
            tail: 0,
            doorbell: Notify::new(),
            alive: true,
        }));
        self.cqs.borrow_mut()[0] = Some(cq);
        self.sqs.borrow_mut()[0] = Some(sq.clone());
        self.regs.borrow_mut().csts |= csts::RDY;
        let me = self.me();
        self.handle.spawn(async move { me.sq_worker(sq).await });
    }

    fn reset(&self) {
        for sq in self.sqs.borrow_mut().iter_mut().filter_map(Option::take) {
            let mut s = sq.borrow_mut();
            s.alive = false;
            s.doorbell.notify_one();
        }
        for cq in self.cqs.borrow_mut().iter_mut().filter_map(Option::take) {
            let mut c = cq.borrow_mut();
            c.alive = false;
            c.space.notify_all();
        }
        let mut r = self.regs.borrow_mut();
        r.csts &= !csts::RDY;
        drop(r);
        self.handle.sanitize_record(None, Stage::ControllerReset);
    }

    fn fatal(&self) {
        self.regs.borrow_mut().csts |= csts::CFS;
    }

    fn handle_doorbell(&self, qid: u16, is_cq: bool, value: u32) {
        if is_cq {
            let cqs = self.cqs.borrow();
            if let Some(cq) = queue(&cqs, qid) {
                let mut c = cq.borrow_mut();
                if value as u16 >= c.entries {
                    drop(c);
                    drop(cqs);
                    self.fatal();
                    return;
                }
                c.head_shadow = value as u16;
                c.space.notify_all();
            }
        } else {
            let sqs = self.sqs.borrow();
            if let Some(sq) = queue(&sqs, qid) {
                let mut s = sq.borrow_mut();
                if value as u16 >= s.entries {
                    drop(s);
                    drop(sqs);
                    self.fatal();
                    return;
                }
                if self.handle.sanitize_armed() {
                    self.sanitize_sq_doorbell(qid, s.base, s.entries, s.tail, value as u16);
                }
                s.tail = value as u16;
                s.doorbell.notify_one();
            }
        }
    }

    // -----------------------------------------------------------------
    // Command pipeline
    // -----------------------------------------------------------------

    async fn sq_worker(self: Rc<Self>, sq: Rc<RefCell<SqState>>) {
        let fabric = self.fabric();
        let dev = self.device_id();
        loop {
            let doorbell = sq.borrow().doorbell.clone();
            doorbell.notified().await;
            loop {
                let (qid, base, entries, head, tail, cqid, alive) = {
                    let s = sq.borrow();
                    (s.qid, s.base, s.entries, s.head, s.tail, s.cqid, s.alive)
                };
                if !alive {
                    return;
                }
                if head == tail {
                    break;
                }
                // Fetch one SQE via DMA — this is the read the paper's
                // Fig. 8 placement optimization shortens.
                let mut raw = [0u8; SQE_SIZE];
                if fabric
                    .dma_read(dev, base.offset(head as u64 * SQE_SIZE as u64), &mut raw)
                    .await
                    .is_err()
                {
                    if qid == 0 {
                        // Admin ring unreachable: the controller is dead.
                        self.fatal();
                        return;
                    }
                    // An I/O ring behind a severed link or a crashed host
                    // must not take the controller down for every other
                    // client: kill just this queue. The manager reclaims it
                    // later.
                    sq.borrow_mut().alive = false;
                    return;
                }
                let new_head = (head + 1) % entries;
                sq.borrow_mut().head = new_head;
                self.stats.borrow_mut().commands_fetched += 1;
                let sqe = SqEntry::decode(&raw);
                let fetched = Stage::Fetched { slot: head };
                self.handle.sanitize_record(Some((qid, sqe.cid)), fetched);
                self.handle.sleep(self.config.cmd_overhead).await;
                let permit = self.exec_sem.acquire().await;
                if qid == 0 {
                    // Admin commands execute serially.
                    self.clone().exec_admin(sqe, new_head).await;
                    drop(permit);
                } else {
                    // I/O commands execute concurrently (device pipelining).
                    let me = self.clone();
                    self.handle.spawn_detached(async move {
                        me.exec_io(qid, cqid, sqe, new_head).await;
                        drop(permit);
                    });
                }
            }
        }
    }

    async fn post_cqe(
        &self,
        cqid: u16,
        result: u32,
        sq_head: u16,
        sq_id: u16,
        cid: u16,
        status: Status,
    ) {
        let fabric = self.fabric();
        let dev = self.device_id();
        loop {
            let (slot, phase, base, iv, full, space, alive, entries) = {
                let cqs = self.cqs.borrow();
                let Some(cq) = queue(&cqs, cqid) else { return };
                let mut c = cq.borrow_mut();
                let next = (c.tail + 1) % c.entries;
                if next == c.head_shadow {
                    (
                        0,
                        false,
                        PhysAddr(0),
                        None,
                        true,
                        c.space.clone(),
                        c.alive,
                        c.entries,
                    )
                } else {
                    let slot = c.tail;
                    let phase = c.phase;
                    c.tail = next;
                    if c.tail == 0 {
                        c.phase = !c.phase;
                    }
                    (
                        slot,
                        phase,
                        c.base,
                        c.iv,
                        false,
                        c.space.clone(),
                        c.alive,
                        c.entries,
                    )
                }
            };
            if !alive {
                return;
            }
            if full {
                // Queue full: wait for the host to move its head doorbell.
                space.notified().await;
                continue;
            }
            let posted = Stage::CqePosted {
                slot,
                phase,
                entries,
            };
            self.handle.sanitize_record(Some((sq_id, cid)), posted);
            if fabric.sanitize_armed() {
                self.sanitize_cq_post(cqid, slot, phase, base);
            }
            let cqe = CqEntry::new(result, sq_head, sq_id, cid, phase, status);
            if !status.is_success() {
                self.stats.borrow_mut().errors_returned += 1;
            }
            let _ = fabric
                .dma_write(
                    dev,
                    base.offset(slot as u64 * CQE_SIZE as u64),
                    &cqe.encode(),
                )
                .await;
            if let Some(v) = iv {
                fabric.raise_msi(dev, v);
            }
            return;
        }
    }

    // -----------------------------------------------------------------
    // Admin command execution
    // -----------------------------------------------------------------

    async fn exec_admin(self: Rc<Self>, sqe: SqEntry, sq_head: u16) {
        self.handle
            .sanitize_record(Some((0, sqe.cid)), Stage::AdminExecuted);
        let (result, status) = match AdminOpcode::from_u8(sqe.opcode) {
            Some(AdminOpcode::Identify) => self.admin_identify(&sqe).await,
            Some(AdminOpcode::CreateIoCq) => self.admin_create_cq(&sqe),
            Some(AdminOpcode::CreateIoSq) => self.admin_create_sq(&sqe),
            Some(AdminOpcode::DeleteIoSq) => self.admin_delete_sq(&sqe),
            Some(AdminOpcode::DeleteIoCq) => self.admin_delete_cq(&sqe),
            Some(AdminOpcode::SetFeatures) => self.admin_features(&sqe),
            None => (0, Status::INVALID_OPCODE),
        };
        self.post_cqe(0, result, sq_head, 0, sqe.cid, status).await;
    }

    async fn admin_identify(&self, sqe: &SqEntry) -> (u32, Status) {
        let fabric = self.fabric();
        let data = match sqe.cdw10 {
            cns::CONTROLLER => self.identify_controller_data().encode(),
            cns::NAMESPACE => {
                if sqe.nsid != 1 {
                    return (0, Status::INVALID_NAMESPACE);
                }
                self.identify_namespace_data().encode()
            }
            _ => return (0, Status::INVALID_FIELD),
        };
        let dev = self.device_id();
        if fabric.dma_write(dev, sqe.prp1, &data).await.is_err() {
            return (0, Status::DATA_TRANSFER_ERROR);
        }
        (0, Status::SUCCESS)
    }

    fn admin_create_cq(&self, sqe: &SqEntry) -> (u32, Status) {
        let qid = (sqe.cdw10 & 0xFFFF) as u16;
        let entries = ((sqe.cdw10 >> 16) as u16).wrapping_add(1);
        if qid == 0 || qid > self.config.io_queue_pairs || queue(&self.cqs.borrow(), qid).is_some()
        {
            return (0, Status::INVALID_QUEUE_ID);
        }
        if !(2..=MAX_QUEUE_ENTRIES).contains(&entries) {
            return (0, Status::INVALID_QUEUE_SIZE);
        }
        if sqe.cdw11 & 1 == 0 {
            return (0, Status::INVALID_FIELD); // CQR: must be contiguous
        }
        let ien = sqe.cdw11 & 0x2 != 0;
        let iv = ien.then_some((sqe.cdw11 >> 16) as u16);
        self.cqs.borrow_mut()[usize::from(qid)] = Some(Rc::new(RefCell::new(CqState {
            base: sqe.prp1,
            entries,
            tail: 0,
            phase: true,
            head_shadow: 0,
            iv,
            space: Notify::new(),
            sq_refs: 0,
            alive: true,
        })));
        (0, Status::SUCCESS)
    }

    fn admin_create_sq(&self, sqe: &SqEntry) -> (u32, Status) {
        let qid = (sqe.cdw10 & 0xFFFF) as u16;
        let entries = ((sqe.cdw10 >> 16) as u16).wrapping_add(1);
        let cqid = (sqe.cdw11 >> 16) as u16;
        if qid == 0 || qid > self.config.io_queue_pairs || queue(&self.sqs.borrow(), qid).is_some()
        {
            return (0, Status::INVALID_QUEUE_ID);
        }
        if !(2..=MAX_QUEUE_ENTRIES).contains(&entries) {
            return (0, Status::INVALID_QUEUE_SIZE);
        }
        let cqs = self.cqs.borrow();
        let Some(cq) = queue(&cqs, cqid) else {
            return (0, Status::INVALID_QUEUE_ID);
        };
        cq.borrow_mut().sq_refs += 1;
        drop(cqs);
        let sq = Rc::new(RefCell::new(SqState {
            qid,
            base: sqe.prp1,
            entries,
            cqid,
            head: 0,
            tail: 0,
            doorbell: Notify::new(),
            alive: true,
        }));
        self.sqs.borrow_mut()[usize::from(qid)] = Some(sq.clone());
        let me = self.me();
        self.handle.spawn(async move { me.sq_worker(sq).await });
        (0, Status::SUCCESS)
    }

    fn admin_delete_sq(&self, sqe: &SqEntry) -> (u32, Status) {
        let qid = (sqe.cdw10 & 0xFFFF) as u16;
        if qid == 0 {
            return (0, Status::INVALID_QUEUE_ID);
        }
        let taken = self
            .sqs
            .borrow_mut()
            .get_mut(usize::from(qid))
            .and_then(Option::take);
        let Some(sq) = taken else {
            return (0, Status::INVALID_QUEUE_ID);
        };
        let mut s = sq.borrow_mut();
        s.alive = false;
        s.doorbell.notify_one();
        if let Some(cq) = queue(&self.cqs.borrow(), s.cqid) {
            cq.borrow_mut().sq_refs -= 1;
        }
        self.handle
            .sanitize_record(None, Stage::QueueDeleted { qid });
        (0, Status::SUCCESS)
    }

    fn admin_delete_cq(&self, sqe: &SqEntry) -> (u32, Status) {
        let qid = (sqe.cdw10 & 0xFFFF) as u16;
        if qid == 0 {
            return (0, Status::INVALID_QUEUE_ID);
        }
        {
            let cqs = self.cqs.borrow();
            let Some(cq) = queue(&cqs, qid) else {
                return (0, Status::INVALID_QUEUE_ID);
            };
            if cq.borrow().sq_refs > 0 {
                // Spec: Invalid Queue Deletion (SCT=1, SC=0x0C).
                return (0, Status { sct: 1, sc: 0x0C });
            }
        }
        let cq = self.cqs.borrow_mut()[usize::from(qid)].take().unwrap();
        let mut c = cq.borrow_mut();
        c.alive = false;
        c.space.notify_all();
        self.handle
            .sanitize_record(None, Stage::QueueDeleted { qid });
        (0, Status::SUCCESS)
    }

    fn admin_features(&self, sqe: &SqEntry) -> (u32, Status) {
        match sqe.cdw10 & 0xFF {
            feature::NUM_QUEUES => {
                let n = (self.config.io_queue_pairs - 1) as u32;
                (n | (n << 16), Status::SUCCESS)
            }
            _ => (0, Status::INVALID_FIELD),
        }
    }

    // -----------------------------------------------------------------
    // I/O command execution
    // -----------------------------------------------------------------

    async fn exec_io(self: Rc<Self>, qid: u16, cqid: u16, sqe: SqEntry, sq_head: u16) {
        let status = match NvmOpcode::from_u8(sqe.opcode) {
            Some(NvmOpcode::Read) => self.io_read(qid, &sqe).await,
            Some(NvmOpcode::Write) => self.io_write(qid, &sqe).await,
            Some(NvmOpcode::Flush) => {
                if sqe.nsid == 1 {
                    self.store.flush().await;
                    Status::SUCCESS
                } else {
                    Status::INVALID_NAMESPACE
                }
            }
            None => Status::INVALID_OPCODE,
        };
        self.post_cqe(cqid, 0, sq_head, qid, sqe.cid, status).await;
    }

    /// The DMA chunks of a command's transfer. Past two pages PRP2 points
    /// at a PRP list, fetched from host memory into `list`: the one case
    /// that allocates.
    async fn dma_chunks<'a>(
        &self,
        sqe: &'a SqEntry,
        len: u64,
        list: &'a mut Vec<PhysAddr>,
    ) -> Result<prp::Chunks<'a>, Status> {
        let off = sqe.prp1.align_offset(prp::PAGE);
        let pages = prp::pages_spanned(off, len);
        let rest: &[PhysAddr] = if pages <= 1 {
            &[]
        } else if pages == 2 {
            std::slice::from_ref(&sqe.prp2)
        } else {
            let n = (pages - 1) as usize;
            let mut raw = vec![0u8; n * 8];
            self.fabric()
                .dma_read(self.device_id(), sqe.prp2, &mut raw)
                .await
                .map_err(|_| Status::DATA_TRANSFER_ERROR)?;
            list.extend(
                raw.chunks(8)
                    .map(|c| PhysAddr(u64::from_le_bytes(c.try_into().unwrap()))),
            );
            list
        };
        prp::chunks(sqe.prp1, rest, len).map_err(|_| Status::INVALID_PRP_OFFSET)
    }

    async fn io_read(&self, qid: u16, sqe: &SqEntry) -> Status {
        let fabric = self.fabric();
        if sqe.nsid != 1 {
            return Status::INVALID_NAMESPACE;
        }
        let blocks = sqe.num_blocks();
        if !self.store.in_range(sqe.slba(), blocks) {
            return Status::LBA_OUT_OF_RANGE;
        }
        let len = blocks * self.store.block_size() as u64;
        let mut list = Vec::new();
        let chunks = match self.dma_chunks(sqe, len, &mut list).await {
            Ok(c) => c,
            Err(s) => return s,
        };
        self.handle
            .sanitize_record(Some((qid, sqe.cid)), Stage::MediaRead);
        // One snapshot of the whole range at the post-media instant;
        // copy-on-write keeps it intact while a racing write replaces
        // store pages during the pipelined deliveries below.
        let data = self.store.read_payload(sqe.slba(), blocks).await;
        // Deliver data to host memory: posted writes, pipelined.
        let dev = self.device_id();
        let mut cursor = 0usize;
        for (addr, clen) in chunks {
            let piece = data.slice(cursor, clen as usize);
            if fabric.dma_write_payload(dev, addr, piece).await.is_err() {
                return Status::DATA_TRANSFER_ERROR;
            }
            cursor += clen as usize;
        }
        Status::SUCCESS
    }

    async fn io_write(&self, qid: u16, sqe: &SqEntry) -> Status {
        let fabric = self.fabric();
        if sqe.nsid != 1 {
            return Status::INVALID_NAMESPACE;
        }
        let blocks = sqe.num_blocks();
        if !self.store.in_range(sqe.slba(), blocks) {
            return Status::LBA_OUT_OF_RANGE;
        }
        let len = blocks * self.store.block_size() as u64;
        let mut list = Vec::new();
        let chunks = match self.dma_chunks(sqe, len, &mut list).await {
            Ok(c) => c,
            Err(s) => return s,
        };
        self.handle
            .sanitize_record(Some((qid, sqe.cid)), Stage::MediaWrite);
        // Fetch data from host memory: non-posted reads (round trips!),
        // each chunk snapshotted as its own read completes. Only a
        // transfer of two or more chunks gathers them in a list.
        let dev = self.device_id();
        let (mut parts, mut last) = (Vec::new(), None);
        for (addr, clen) in chunks {
            match fabric.dma_read_payload(dev, addr, clen).await {
                Ok(part) => parts.extend(last.replace(part)),
                Err(_) => return Status::DATA_TRANSFER_ERROR,
            }
        }
        let last = last.expect("a transfer has a first chunk");
        let data = if parts.is_empty() {
            last
        } else {
            parts.push(last);
            Payload::concat(parts)
        };
        self.store.write_payload(sqe.slba(), data).await;
        Status::SUCCESS
    }
}

/// Protocol checks, run only on a runtime armed with
/// `simcore::sanitize::arm`.
impl NvmeController {
    /// Doorbell-before-SQE check: a host must not expose a SQ tail whose
    /// SQE posted writes are still in flight, or the controller's DMA
    /// fetch can read a stale slot. The paper's placement (SQ device-side,
    /// doorbell and SQE on the same path) makes this impossible by
    /// construction; this check catches drivers that break the ordering.
    fn sanitize_sq_doorbell(
        &self,
        qid: u16,
        base: PhysAddr,
        entries: u16,
        old_tail: u16,
        new_tail: u16,
    ) {
        let fabric = self.fabric();
        let host = fabric.device_host(self.device_id());
        let mut slot = old_tail;
        while slot != new_tail {
            let addr = base.offset(slot as u64 * SQE_SIZE as u64);
            if fabric.sanitize_pending_posted_overlap(host, addr, SQE_SIZE as u64) {
                self.handle.sanitize_report(
                    "nvme.doorbell-before-sqe",
                    format!("SQ {qid} doorbell exposed slot {slot} while its SQE posted write is still in flight"),
                );
            }
            slot = (slot + 1) % entries;
        }
    }

    /// CQ overwrite check: the slot the controller is about to fill must
    /// not still hold an unconsumed entry. In correct operation the slot
    /// holds the *previous* lap's entry, whose phase tag is the inverse of
    /// the one being posted; a matching phase means the controller lapped
    /// the host's head doorbell.
    fn sanitize_cq_post(&self, cqid: u16, slot: u16, phase: bool, base: PhysAddr) {
        let fabric = self.fabric();
        let host = fabric.device_host(self.device_id());
        let addr = base.offset(slot as u64 * CQE_SIZE as u64);
        if fabric.sanitize_pending_posted_overlap(host, addr, CQE_SIZE as u64) {
            // The previous CQE written to this slot has not even applied
            // yet — the host cannot possibly have consumed it.
            self.handle.sanitize_report(
                "nvme.cq-overwrite",
                format!("CQ {cqid} slot {slot}: overwriting a CQE still in flight"),
            );
            return;
        }
        let Ok(pcie::Location::Dram(da)) = fabric.resolve(host, addr, CQE_SIZE as u64) else {
            return;
        };
        let mut raw = [0u8; CQE_SIZE];
        if fabric.mem_read(da.host, da.addr, &mut raw).is_err() {
            return;
        }
        if CqEntry::peek_phase(&raw) == phase {
            self.handle.sanitize_report(
                "nvme.cq-overwrite",
                format!("CQ {cqid} slot {slot}: posting phase={} over an unconsumed entry with the same phase", phase as u8),
            );
        }
    }
}

impl MmioDevice for NvmeController {
    fn mmio_write(&self, _bar: u8, off: u64, value: u64, _size: usize) {
        match off {
            offset::CC => self.handle_cc_write(value as u32),
            offset::AQA => self.regs.borrow_mut().aqa = value as u32,
            offset::ASQ => self.regs.borrow_mut().asq = value,
            offset::ACQ => self.regs.borrow_mut().acq = value,
            _ => {
                if let Some((qid, is_cq)) = decode_doorbell(off, self.cap.dstrd) {
                    self.handle_doorbell(qid, is_cq, value as u32);
                }
            }
        }
    }

    fn mmio_read(&self, _bar: u8, off: u64, _size: usize) -> u64 {
        let r = self.regs.borrow();
        match off {
            offset::CAP => self.cap.encode(),
            offset::VS => 0x0001_0300, // 1.3
            offset::CC => r.cc as u64,
            offset::CSTS => r.csts as u64,
            offset::AQA => r.aqa as u64,
            offset::ASQ => r.asq,
            offset::ACQ => r.acq,
            _ => 0,
        }
    }
}
