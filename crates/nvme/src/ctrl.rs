//! The NVMe controller device model.
//!
//! A single-function controller, exactly as the paper's P4800X presents
//! itself: one register file, one admin queue pair, up to `io_queue_pairs`
//! I/O queue pairs. All queue memory and data buffers are reached through
//! [`pcie::Fabric`] DMA with full NTB translation — the controller neither
//! knows nor cares whether a queue lives in local host memory or behind
//! two switch chips in another host's DRAM. That property is the entire
//! basis of the paper's design (Fig. 4).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::{Rc, Weak};

use pcie::{DeviceId, Fabric, HostId, MmioDevice, NodeId, Payload, PhysAddr, WeakFabric};
use simcore::sync::{Notify, Semaphore};
use simcore::{Handle, SimDuration};

use crate::medium::BlockStore;
use crate::spec::command::{SqEntry, SQE_SIZE};
use crate::spec::completion::{CqEntry, CQE_SIZE};
use crate::spec::identify::{IdentifyController, IdentifyNamespace};
use crate::spec::log::{
    DsmRange, ErrorLogEntry, DSM_MAX_RANGES, DSM_RANGE_LEN, ERROR_LOG_ENTRY_LEN,
};
use crate::spec::opcode::{cns, feature, log_page, AdminOpcode, NvmOpcode};
use crate::spec::prp;
use crate::spec::registers::{csts, decode_doorbell, offset, Aqa, Cap, Cc};
use crate::spec::status::Status;

/// Static configuration of a controller instance.
#[derive(Clone, Debug)]
pub struct NvmeConfig {
    /// Queue entries supported per queue (MQES + 1).
    pub max_queue_entries: u16,
    /// I/O queue pairs supported (the P4800X supports 31 + admin).
    pub io_queue_pairs: u16,
    /// Firmware processing overhead per command.
    pub cmd_overhead: SimDuration,
    /// CC.EN=1 to CSTS.RDY=1 delay.
    pub enable_delay: SimDuration,
    /// Maximum concurrently executing commands (internal tags).
    pub max_exec: usize,
    /// BAR0 size.
    pub bar0_size: u64,
}

impl Default for NvmeConfig {
    fn default() -> Self {
        NvmeConfig {
            max_queue_entries: 1024,
            io_queue_pairs: 31,
            cmd_overhead: SimDuration::from_nanos(250),
            enable_delay: SimDuration::from_micros(50),
            max_exec: 64,
            bar0_size: 0x4000,
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

/// Counters exposed for tests and reports.
#[derive(Default, Clone, Debug)]
pub struct CtrlStats {
    /// SQEs fetched from submission queues.
    pub commands_fetched: u64,
    /// CQEs posted to completion queues.
    pub completions_posted: u64,
    /// Admin commands executed.
    pub admin_commands: u64,
    /// NVM Read commands executed.
    pub io_reads: u64,
    /// NVM Write commands executed.
    pub io_writes: u64,
    /// Completions with a non-success status.
    pub errors_returned: u64,
    /// Controller resets (CC.EN 1 -> 0).
    pub resets: u64,
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
    // Ordered by qid: `reset` walks these to wake parked workers, and the
    // wake order must be reproducible run-to-run (determinism).
    sqs: RefCell<BTreeMap<u16, Rc<RefCell<SqState>>>>,
    cqs: RefCell<BTreeMap<u16, Rc<RefCell<CqState>>>>,
    exec_sem: Semaphore,
    stats: RefCell<CtrlStats>,
    /// Newest-first Error Information log (capped at 64 entries).
    error_log: RefCell<Vec<ErrorLogEntry>>,
    /// LBA context for the next error completion (set by the I/O path).
    last_error_lba: Cell<Option<u64>>,
    /// Executing I/O commands, `(sqid, cid)` → aborted flag. An Abort for
    /// a tracked command sets the flag; the executor completes it with
    /// ABORT_REQUESTED. Ordered for reproducible reset teardown.
    inflight: RefCell<InflightMap>,
}

/// `(sqid, cid)` → aborted flag for every executing I/O command.
type InflightMap = BTreeMap<(u16, u16), Rc<Cell<bool>>>;

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
            mqes: config.max_queue_entries - 1,
            dstrd: 0,
            to: 20,
            cqr: true,
        };
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
            sqs: RefCell::new(BTreeMap::new()),
            cqs: RefCell::new(BTreeMap::new()),
            stats: RefCell::new(CtrlStats::default()),
            error_log: RefCell::new(Vec::new()),
            last_error_lba: Cell::new(None),
            inflight: RefCell::new(BTreeMap::new()),
        });
        *ctrl.weak_self.borrow_mut() = Rc::downgrade(&ctrl);
        let bar0 = ctrl.config.bar0_size;
        let dev = fabric.add_device(host, at, &[bar0], ctrl.clone());
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
        self.sqs.borrow().keys().filter(|qid| **qid != 0).count()
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
        self.cqs.borrow_mut().insert(0, cq);
        self.sqs.borrow_mut().insert(0, sq.clone());
        self.regs.borrow_mut().csts |= csts::RDY;
        let me = self.me();
        self.handle.spawn(async move { me.sq_worker(sq).await });
    }

    fn reset(&self) {
        for (_, sq) in std::mem::take(&mut *self.sqs.borrow_mut()) {
            let mut s = sq.borrow_mut();
            s.alive = false;
            s.doorbell.notify_one();
        }
        for (_, cq) in std::mem::take(&mut *self.cqs.borrow_mut()) {
            let mut c = cq.borrow_mut();
            c.alive = false;
            c.space.notify_all();
        }
        let mut r = self.regs.borrow_mut();
        r.csts &= !csts::RDY;
        drop(r);
        self.inflight.borrow_mut().clear();
        self.error_log.borrow_mut().clear();
        self.stats.borrow_mut().resets += 1;
        crate::oracle::emit(&self.fabric(), crate::oracle::Event::ControllerReset);
    }

    fn record_error(&self, sqid: u16, cid: u16, status: Status, lba: Option<u64>) {
        let mut log = self.error_log.borrow_mut();
        let count = self.stats.borrow().errors_returned;
        log.insert(
            0,
            ErrorLogEntry {
                error_count: count,
                sqid,
                cid,
                status,
                lba: lba.unwrap_or(0),
                nsid: 1,
            },
        );
        log.truncate(64);
    }

    /// Snapshot of the Error Information log, newest first (diagnostic).
    pub fn error_log(&self) -> Vec<ErrorLogEntry> {
        self.error_log.borrow().clone()
    }

    fn fatal(&self) {
        self.regs.borrow_mut().csts |= csts::CFS;
    }

    fn handle_doorbell(&self, qid: u16, is_cq: bool, value: u32) {
        if is_cq {
            let cqs = self.cqs.borrow();
            if let Some(cq) = cqs.get(&qid) {
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
            if let Some(sq) = sqs.get(&qid) {
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
                    // client: kill just this queue. The owner recreates it
                    // (or the manager reclaims it) later.
                    sq.borrow_mut().alive = false;
                    return;
                }
                let new_head = (head + 1) % entries;
                sq.borrow_mut().head = new_head;
                self.stats.borrow_mut().commands_fetched += 1;
                let sqe = SqEntry::decode(&raw);
                crate::oracle::emit(
                    &fabric,
                    crate::oracle::Event::CmdFetched {
                        qid,
                        cid: sqe.cid,
                        slot: head,
                    },
                );
                self.handle.sleep(self.config.cmd_overhead).await;
                let permit = self.exec_sem.acquire().await;
                if qid == 0 {
                    // Admin commands execute serially.
                    self.clone().exec_admin(sqe, new_head).await;
                    drop(permit);
                } else {
                    // I/O commands execute concurrently (device pipelining).
                    let aborted = Rc::new(Cell::new(false));
                    self.inflight
                        .borrow_mut()
                        .insert((qid, sqe.cid), aborted.clone());
                    let me = self.clone();
                    self.handle.spawn_detached(async move {
                        me.exec_io(qid, cqid, sqe, new_head, aborted).await;
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
                let Some(cq) = cqs.get(&cqid) else { return };
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
            crate::oracle::emit(
                &fabric,
                crate::oracle::Event::CqePosted {
                    qid: sq_id,
                    cid,
                    slot,
                    phase,
                    entries,
                },
            );
            if fabric.sanitize_armed() {
                self.sanitize_cq_post(cqid, slot, phase, base);
            }
            let cqe = CqEntry::new(result, sq_head, sq_id, cid, phase, status);
            if !status.is_success() {
                self.stats.borrow_mut().errors_returned += 1;
                self.record_error(sq_id, cid, status, self.last_error_lba.take());
            }
            let _ = fabric
                .dma_write(
                    dev,
                    base.offset(slot as u64 * CQE_SIZE as u64),
                    &cqe.encode(),
                )
                .await;
            self.stats.borrow_mut().completions_posted += 1;
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
        self.stats.borrow_mut().admin_commands += 1;
        let (result, status) = match AdminOpcode::from_u8(sqe.opcode) {
            Some(AdminOpcode::Identify) => self.admin_identify(&sqe).await,
            Some(AdminOpcode::CreateIoCq) => self.admin_create_cq(&sqe),
            Some(AdminOpcode::CreateIoSq) => self.admin_create_sq(&sqe),
            Some(AdminOpcode::DeleteIoSq) => self.admin_delete_sq(&sqe),
            Some(AdminOpcode::DeleteIoCq) => self.admin_delete_cq(&sqe),
            Some(AdminOpcode::SetFeatures) | Some(AdminOpcode::GetFeatures) => {
                self.admin_features(&sqe)
            }
            Some(AdminOpcode::GetLogPage) => self.admin_get_log_page(&sqe).await,
            Some(AdminOpcode::Abort) => self.admin_abort(&sqe),
            Some(AdminOpcode::AsyncEventRequest) => return, // parked forever
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

    /// Get Log Page: serves the Error Information log (newest first) and
    /// an all-zero health page; truncates to the requested dword count.
    async fn admin_get_log_page(&self, sqe: &SqEntry) -> (u32, Status) {
        let fabric = self.fabric();
        let lid = sqe.cdw10 & 0xFF;
        let numd = ((sqe.cdw10 >> 16) & 0xFFF) as usize + 1;
        let want_bytes = numd * 4;
        let data = match lid {
            log_page::ERROR_INFO => {
                let mut out = Vec::new();
                for e in self.error_log.borrow().iter() {
                    out.extend_from_slice(&e.encode());
                }
                out.resize(out.len().max(want_bytes).max(ERROR_LOG_ENTRY_LEN), 0);
                out
            }
            log_page::HEALTH => vec![0u8; 512],
            _ => return (0, Status::INVALID_FIELD),
        };
        let n = want_bytes.min(data.len());
        let dev = self.device_id();
        if fabric.dma_write(dev, sqe.prp1, &data[..n]).await.is_err() {
            return (0, Status::DATA_TRANSFER_ERROR);
        }
        (0, Status::SUCCESS)
    }

    fn admin_create_cq(&self, sqe: &SqEntry) -> (u32, Status) {
        let qid = (sqe.cdw10 & 0xFFFF) as u16;
        let entries = ((sqe.cdw10 >> 16) as u16).wrapping_add(1);
        if qid == 0 || qid > self.config.io_queue_pairs || self.cqs.borrow().contains_key(&qid) {
            return (0, Status::INVALID_QUEUE_ID);
        }
        if entries < 2 || entries > self.config.max_queue_entries {
            return (0, Status::INVALID_QUEUE_SIZE);
        }
        if sqe.cdw11 & 1 == 0 {
            return (0, Status::INVALID_FIELD); // CQR: must be contiguous
        }
        let ien = sqe.cdw11 & 0x2 != 0;
        let iv = ien.then_some((sqe.cdw11 >> 16) as u16);
        self.cqs.borrow_mut().insert(
            qid,
            Rc::new(RefCell::new(CqState {
                base: sqe.prp1,
                entries,
                tail: 0,
                phase: true,
                head_shadow: 0,
                iv,
                space: Notify::new(),
                sq_refs: 0,
                alive: true,
            })),
        );
        (0, Status::SUCCESS)
    }

    fn admin_create_sq(&self, sqe: &SqEntry) -> (u32, Status) {
        let qid = (sqe.cdw10 & 0xFFFF) as u16;
        let entries = ((sqe.cdw10 >> 16) as u16).wrapping_add(1);
        let cqid = (sqe.cdw11 >> 16) as u16;
        if qid == 0 || qid > self.config.io_queue_pairs || self.sqs.borrow().contains_key(&qid) {
            return (0, Status::INVALID_QUEUE_ID);
        }
        if entries < 2 || entries > self.config.max_queue_entries {
            return (0, Status::INVALID_QUEUE_SIZE);
        }
        let cqs = self.cqs.borrow();
        let Some(cq) = cqs.get(&cqid) else {
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
        self.sqs.borrow_mut().insert(qid, sq.clone());
        let me = self.me();
        self.handle.spawn(async move { me.sq_worker(sq).await });
        (0, Status::SUCCESS)
    }

    fn admin_delete_sq(&self, sqe: &SqEntry) -> (u32, Status) {
        let qid = (sqe.cdw10 & 0xFFFF) as u16;
        if qid == 0 {
            return (0, Status::INVALID_QUEUE_ID);
        }
        let Some(sq) = self.sqs.borrow_mut().remove(&qid) else {
            return (0, Status::INVALID_QUEUE_ID);
        };
        let mut s = sq.borrow_mut();
        s.alive = false;
        s.doorbell.notify_one();
        if let Some(cq) = self.cqs.borrow().get(&s.cqid) {
            cq.borrow_mut().sq_refs -= 1;
        }
        // Commands of the deleted queue are disposed of with it: a
        // recreate under the same qid must not collide with stale flags.
        self.inflight
            .borrow_mut()
            .retain(|(sqid, _), _| *sqid != qid);
        crate::oracle::emit(&self.fabric(), crate::oracle::Event::QueueDeleted { qid });
        (0, Status::SUCCESS)
    }

    fn admin_delete_cq(&self, sqe: &SqEntry) -> (u32, Status) {
        let qid = (sqe.cdw10 & 0xFFFF) as u16;
        if qid == 0 {
            return (0, Status::INVALID_QUEUE_ID);
        }
        {
            let cqs = self.cqs.borrow();
            let Some(cq) = cqs.get(&qid) else {
                return (0, Status::INVALID_QUEUE_ID);
            };
            if cq.borrow().sq_refs > 0 {
                // Spec: Invalid Queue Deletion (SCT=1, SC=0x0C).
                return (0, Status { sct: 1, sc: 0x0C });
            }
        }
        let cq = self.cqs.borrow_mut().remove(&qid).unwrap();
        let mut c = cq.borrow_mut();
        c.alive = false;
        c.space.notify_all();
        crate::oracle::emit(&self.fabric(), crate::oracle::Event::QueueDeleted { qid });
        (0, Status::SUCCESS)
    }

    /// Abort (NVMe 1.3 §5.1): CDW10 carries the SQ id (15:0) and the cid
    /// to kill (31:16). DW0 bit 0 **clear** means the command was found
    /// executing and will complete with ABORT_REQUESTED; **set** means it
    /// was not found — already completed (perhaps its CQE got lost in the
    /// fabric) or never fetched, and the host must escalate.
    fn admin_abort(&self, sqe: &SqEntry) -> (u32, Status) {
        let sqid = (sqe.cdw10 & 0xFFFF) as u16;
        let cid = (sqe.cdw10 >> 16) as u16;
        match self.inflight.borrow().get(&(sqid, cid)) {
            Some(flag) => {
                flag.set(true);
                crate::oracle::emit(
                    &self.fabric(),
                    crate::oracle::Event::CmdAborted { qid: sqid, cid },
                );
                (0, Status::SUCCESS)
            }
            None => (1, Status::SUCCESS),
        }
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

    async fn exec_io(
        self: Rc<Self>,
        qid: u16,
        cqid: u16,
        sqe: SqEntry,
        sq_head: u16,
        aborted: Rc<Cell<bool>>,
    ) {
        let mut status = match NvmOpcode::from_u8(sqe.opcode) {
            Some(NvmOpcode::DatasetManagement) => self.io_dsm(&sqe).await,
            Some(NvmOpcode::Read) => self.io_read(&sqe).await,
            Some(NvmOpcode::Write) => self.io_write(&sqe).await,
            Some(NvmOpcode::Flush) => {
                if sqe.nsid == 1 {
                    self.store.flush().await;
                    Status::SUCCESS
                } else {
                    Status::INVALID_NAMESPACE
                }
            }
            Some(NvmOpcode::WriteZeroes) => {
                if sqe.nsid != 1 {
                    Status::INVALID_NAMESPACE
                } else if !self.store.in_range(sqe.slba(), sqe.num_blocks()) {
                    Status::LBA_OUT_OF_RANGE
                } else {
                    self.store.write_zeroes(sqe.slba(), sqe.num_blocks()).await;
                    Status::SUCCESS
                }
            }
            None => Status::INVALID_OPCODE,
        };
        // An Abort that raced this command wins over whatever the data
        // path produced (media effects may still have happened — abort is
        // best-effort, as on real hardware).
        if aborted.get() {
            status = Status::ABORT_REQUESTED;
        }
        self.inflight.borrow_mut().remove(&(qid, sqe.cid));
        if !status.is_success() {
            self.last_error_lba.set(Some(sqe.slba()));
        }
        self.post_cqe(cqid, 0, sq_head, qid, sqe.cid, status).await;
    }

    /// Dataset Management: deallocate (TRIM) the listed ranges.
    async fn io_dsm(&self, sqe: &SqEntry) -> Status {
        let fabric = self.fabric();
        if sqe.nsid != 1 {
            return Status::INVALID_NAMESPACE;
        }
        let nr = (sqe.cdw10 & 0xFF) as usize + 1;
        if nr > DSM_MAX_RANGES {
            return Status::INVALID_FIELD;
        }
        let deallocate = sqe.cdw11 & 0x4 != 0;
        let mut raw = vec![0u8; nr * DSM_RANGE_LEN];
        if fabric
            .dma_read(self.device_id(), sqe.prp1, &mut raw)
            .await
            .is_err()
        {
            return Status::DATA_TRANSFER_ERROR;
        }
        for chunk in raw.chunks(DSM_RANGE_LEN) {
            let range = DsmRange::decode(chunk.try_into().unwrap());
            if !self.store.in_range(range.slba, range.blocks as u64) {
                return Status::LBA_OUT_OF_RANGE;
            }
            if deallocate && range.blocks > 0 {
                self.store
                    .write_zeroes(range.slba, range.blocks as u64)
                    .await;
            }
        }
        Status::SUCCESS
    }

    /// Gather the DMA chunk list for a command, fetching the PRP list from
    /// host memory when the transfer spans more than two pages.
    async fn dma_chunks(&self, sqe: &SqEntry, len: u64) -> Result<Vec<(PhysAddr, u64)>, Status> {
        let fabric = self.fabric();
        let off = sqe.prp1.align_offset(prp::PAGE);
        let pages = prp::pages_spanned(off, len);
        let rest: Vec<PhysAddr> = if pages <= 1 {
            Vec::new()
        } else if pages == 2 {
            vec![sqe.prp2]
        } else {
            let n = (pages - 1) as usize;
            let mut raw = vec![0u8; n * 8];
            fabric
                .dma_read(self.device_id(), sqe.prp2, &mut raw)
                .await
                .map_err(|_| Status::DATA_TRANSFER_ERROR)?;
            raw.chunks(8)
                .map(|c| PhysAddr(u64::from_le_bytes(c.try_into().unwrap())))
                .collect()
        };
        prp::chunks(sqe.prp1, &rest, len).map_err(|_| Status::INVALID_PRP_OFFSET)
    }

    async fn io_read(&self, sqe: &SqEntry) -> Status {
        let fabric = self.fabric();
        if sqe.nsid != 1 {
            return Status::INVALID_NAMESPACE;
        }
        let blocks = sqe.num_blocks();
        if !self.store.in_range(sqe.slba(), blocks) {
            return Status::LBA_OUT_OF_RANGE;
        }
        let len = blocks * self.store.block_size() as u64;
        let chunks = match self.dma_chunks(sqe, len).await {
            Ok(c) => c,
            Err(s) => return s,
        };
        self.stats.borrow_mut().io_reads += 1;
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

    async fn io_write(&self, sqe: &SqEntry) -> Status {
        let fabric = self.fabric();
        if sqe.nsid != 1 {
            return Status::INVALID_NAMESPACE;
        }
        let blocks = sqe.num_blocks();
        if !self.store.in_range(sqe.slba(), blocks) {
            return Status::LBA_OUT_OF_RANGE;
        }
        let len = blocks * self.store.block_size() as u64;
        let chunks = match self.dma_chunks(sqe, len).await {
            Ok(c) => c,
            Err(s) => return s,
        };
        self.stats.borrow_mut().io_writes += 1;
        // Fetch data from host memory: non-posted reads (round trips!),
        // each chunk snapshotted as its own read completes.
        let dev = self.device_id();
        let mut parts = Vec::with_capacity(chunks.len());
        for (addr, clen) in chunks {
            match fabric.dma_read_payload(dev, addr, clen).await {
                Ok(part) => parts.push(part),
                Err(_) => return Status::DATA_TRANSFER_ERROR,
            }
        }
        self.store
            .write_payload(sqe.slba(), Payload::concat(parts))
            .await;
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
