//! The client kernel-module analog (§V).
//!
//! A client bootstraps from the manager's metadata segment, requests an
//! I/O queue pair through the shared-memory mailbox, and from then on
//! operates the controller **directly and independently** — no software
//! on the manager or device host touches the I/O path. It registers a
//! block device backed by:
//!
//! * an SQ placed by access hints (device-side memory by default, written
//!   through the NTB with posted stores — Fig. 8),
//! * a CQ in client-local memory, polled (no interrupts over NTBs),
//! * a partitioned bounce buffer with PRPs programmed once, or the
//!   IOMMU-style dynamic mapping extension (the paper's future work).
//!
//! Every control-plane exchange — bring-up's CreateQp, heartbeats,
//! teardown's DeleteQp — goes through one `Mailbox`, which allows one
//! request in flight. Recovery never does: a lost completion heals on the
//! client's own ring. A refused connect,
//! [`ClientDriver::disconnect`] and a failed [`Manager::start`] give back
//! the same `Held` record through one routine, `give_back`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use blklayer::{validate, Bio, BioError, BioFuture, BioOp, BioResult, BlockDevice};
use nvme::engine::{
    CompletionStrategy, EngineConfig, EngineError, EngineStats, IoEngine, QueuePairSpec, Tag,
};
use nvme::spec::command::{SqEntry, SQE_SIZE};
use nvme::spec::completion::{CqEntry, CQE_SIZE};
use nvme::spec::prp;
use nvme::spec::registers::Cap;
use pcie::{DomainAddr, Fabric, HostId, MemRegion, PhysAddr};
use simcore::sync::Semaphore;
use simcore::{Handle, SimDuration};
use smartio::{AccessHints, BorrowMode, SegmentId, SmartDeviceId, SmartIo};

use crate::bounce::{BouncePool, Staging};
use crate::error::{DnvmeError, Result};
use crate::manager::Manager;
use crate::proto::{self, Metadata, Request, Response, SlotMessage};

/// Where the client's SQ lives (E4 ablation; the paper's design is
/// `DeviceSide`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SqPlacement {
    /// Fig. 8: SQ in device-side memory, written through the NTB.
    DeviceSide,
    /// Naive: SQ in client memory; the controller fetches across the NTB.
    ClientSide,
}

/// How request data reaches the device (E8 ablation).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DataPath {
    /// §V: staged through the pre-mapped partitioned bounce buffer
    /// (extra memcpy, zero mapping cost).
    Bounce,
    /// Future-work IOMMU mode: map the request buffer dynamically per I/O
    /// (no copy, pay map/unmap latency on every request).
    DirectMapped,
}

/// CPU cost of one check of the client's CQ. The paper's SISCI extension
/// "does not currently support device-generated interrupts", so the
/// client always polls its CQ in client-local memory.
const POLL_CHECK_COST: SimDuration = SimDuration::from_nanos(120);

/// IOMMU map cost per I/O ([`DataPath::DirectMapped`] only).
const IOMMU_MAP_COST: SimDuration = SimDuration::from_nanos(450);

/// IOMMU unmap + IOTLB shootdown cost per I/O ([`DataPath::DirectMapped`]
/// only).
const IOMMU_UNMAP_COST: SimDuration = SimDuration::from_nanos(700);

/// Client driver configuration. Defaults model the paper's "naive"
/// proof-of-concept driver. How completions arrive is not a setting: the
/// client polls its CQ, 120 ns of CPU per check.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Entries per I/O queue.
    pub queue_entries: u16,
    /// Outstanding request limit (tags/bounce partitions); rings too
    /// small to hold it clamp it ([`BlockDevice::queue_depth`] reports
    /// the effective value).
    pub queue_depth: usize,
    /// I/O queue pairs to request (§V: "one or more"); one engine stripes
    /// submissions across them by command id.
    pub num_qpairs: u16,
    /// Bytes per bounce partition = max transfer size.
    pub partition_size: u64,
    /// Where SQs live (Fig. 8 ablation).
    pub sq_placement: SqPlacement,
    /// Bounce buffer or per-I/O mapping.
    pub data_path: DataPath,
    /// CPU cost of the submit path (block layer glue + naive driver).
    pub submission_overhead: SimDuration,
    /// CPU cost after completion detection.
    pub completion_overhead: SimDuration,
    /// Per-command deadline. `None` (the seed default) waits forever;
    /// `Some(d)` arms the recovery ladder: [`nvme::engine::MAX_RETRIES`]
    /// doorbell re-rings with exponential backoff, then one resubmission
    /// under a fresh cid, whose CQE lets the ring step over a lost one,
    /// then [`BioError::Timeout`] instead of a hang. The ladder stays on
    /// the client's own ring: it sends the manager nothing.
    pub cmd_timeout: Option<SimDuration>,
    /// Deadline for one mailbox round trip (connect, heartbeat,
    /// disconnect). `None` waits forever; after [`MAILBOX_RETRIES`]
    /// same-seq retransmissions the RPC gives up with
    /// [`DnvmeError::RpcTimeout`].
    pub mailbox_timeout: Option<SimDuration>,
    /// `true`: charge submission/completion overheads as reactor CPU
    /// time ([`Handle::cpu_work`]), so sharded benchmarks see per-core
    /// saturation. `false` (default): plain sleeps, infinite CPU.
    pub cpu_accounting: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            queue_entries: 256,
            queue_depth: 32,
            num_qpairs: 1,
            partition_size: 128 << 10,
            sq_placement: SqPlacement::DeviceSide,
            data_path: DataPath::Bounce,
            submission_overhead: SimDuration::from_nanos(2_400),
            completion_overhead: SimDuration::from_nanos(600),
            cmd_timeout: None,
            mailbox_timeout: None,
            cpu_accounting: false,
        }
    }
}

/// Everything a client holds at the device, recorded as it is taken:
/// granted qids, NTB window slots, device-side DMA windows, segments and
/// the bounce pool. Leaking these would exhaust the adapters' LUTs after
/// enough connect/disconnect cycles. A manager's bring-up records its
/// windows and segments here too, until it serves.
#[derive(Default)]
pub(crate) struct Held {
    qids: Vec<u16>,
    pub(crate) mappings: Vec<smartio::CpuMapping>,
    pub(crate) windows: Vec<smartio::DmaWindow>,
    pub(crate) segments: Vec<SegmentId>,
    bounce: Option<BouncePool>,
}

/// The one teardown, for a refused connect, for
/// [`ClientDriver::disconnect`] and for a failed [`Manager::start`]: hand every granted qid back through the
/// mailbox (once it is wired), then release every mapping, window and
/// segment, the bounce pool and the device reference. Best-effort: the
/// local resources are released even when the manager is unreachable,
/// and the first error is reported after.
pub(crate) async fn give_back(
    smartio: &SmartIo,
    device: SmartDeviceId,
    host: HostId,
    mailbox: Option<&Mailbox>,
    held: &RefCell<Held>,
) -> Result<()> {
    let mut first_err = None;
    let qids = std::mem::take(&mut held.borrow_mut().qids);
    if let Some(mailbox) = mailbox {
        for qid in qids {
            if let Err(e) = mailbox.call(Request::DeleteQp { qid }).await {
                first_err.get_or_insert(e);
            }
        }
    }
    let held = held.take();
    for w in held.windows {
        smartio.unmap_device(w);
    }
    for m in held.mappings {
        smartio.unmap_cpu(m);
    }
    for seg in held.segments {
        let _ = smartio.destroy_segment(seg);
    }
    if let Some(b) = held.bounce {
        b.destroy(smartio);
    }
    if let Err(e) = smartio.release(device, host) {
        first_err.get_or_insert(e.into());
    }
    first_err.map_or(Ok(()), Err)
}

/// Same-seq retransmissions before a deadline-armed mailbox RPC gives up
/// with [`DnvmeError::RpcTimeout`].
pub const MAILBOX_RETRIES: u32 = 2;

/// This host's end of the manager's mailbox: its slot, its response area,
/// the sequence counter, and the rule that one slot carries one request
/// at a time.
pub(crate) struct Mailbox {
    fabric: Fabric,
    host: HostId,
    /// This host's slot in the manager's mailbox segment.
    slot: PhysAddr,
    /// Where the manager writes its answers, and that segment's id.
    response: MemRegion,
    response_segment: SegmentId,
    /// Last sequence number used.
    seq: Cell<u32>,
    /// Held for the length of one round trip.
    turn: Semaphore,
    /// Deadline for one round trip (`ClientConfig::mailbox_timeout`).
    deadline: Option<SimDuration>,
}

impl Mailbox {
    /// One round trip, after any in flight.
    async fn call(&self, request: Request) -> Result<Response> {
        let _turn = self.turn.acquire().await;
        self.round_trip(request).await
    }

    /// One round trip, or `None` if another holds the slot.
    async fn try_call(&self, request: Request) -> Option<Result<Response>> {
        let _turn = self.turn.try_acquire()?;
        Some(self.round_trip(request).await)
    }

    /// Write the request, stamped with the next seq, into this host's
    /// slot; wait for the matching response in the local response area.
    ///
    /// With a deadline, the wait is raced against the clock; each expiry
    /// retransmits the *same* seq with a bumped retry counter (the
    /// manager re-sends its cached response without re-executing —
    /// idempotent retry), and after [`MAILBOX_RETRIES`] retransmissions
    /// the RPC fails with [`DnvmeError::RpcTimeout`] instead of hanging
    /// on a dead manager.
    async fn round_trip(&self, request: Request) -> Result<Response> {
        let seq = self.seq.get() + 1;
        self.seq.set(seq);
        let (fabric, area) = (&self.fabric, self.response);
        let watch = fabric.watch(area.host, area.addr, area.len);
        let send = |retry: u32| {
            SlotMessage {
                seq,
                retry,
                response_segment: self.response_segment.0,
                request,
            }
            .encode()
        };
        let wait_matching = || async {
            loop {
                watch.notify.notified().await;
                let mut raw = [0u8; proto::RESPONSE_LEN];
                fabric.mem_read(area.host, area.addr, &mut raw)?;
                let r = Response::decode(&raw);
                if r.seq == seq {
                    // Observing the matching seq acquires the manager's
                    // posted write (happens-before edge, like a CQE phase
                    // observation).
                    fabric.sanitize_consume(area.host, area.addr, proto::RESPONSE_LEN as u64);
                    return Ok::<Response, DnvmeError>(r);
                }
            }
        };
        let sent = fabric.cpu_write(self.host, self.slot, &send(0)).await;
        let resp = match (sent, self.deadline) {
            (Err(e), _) => Err(e.into()),
            (Ok(()), None) => wait_matching().await,
            (Ok(()), Some(d)) => {
                let mut attempt = 0u32;
                loop {
                    match simcore::timeout(&fabric.handle(), d, wait_matching()).await {
                        Ok(r) => break r,
                        Err(simcore::Elapsed) => {
                            if attempt >= MAILBOX_RETRIES {
                                break Err(DnvmeError::RpcTimeout);
                            }
                            attempt += 1;
                            if fabric
                                .cpu_write(self.host, self.slot, &send(attempt))
                                .await
                                .is_err()
                            {
                                break Err(DnvmeError::RpcTimeout);
                            }
                        }
                    }
                }
            }
        };
        fabric.unwatch(area.host, &watch);
        let resp = resp?;
        if resp.status != proto::status::OK {
            return Err(DnvmeError::Mailbox(resp.status));
        }
        Ok(resp)
    }
}

/// Per-client driver stats.
#[derive(Default, Clone, Debug)]
pub struct ClientStats {
    /// Read commands issued.
    pub reads: u64,
    /// Bytes staged through the bounce buffer.
    pub bounce_bytes_copied: u64,
    /// I/Os that DMA'd directly to/from a hinted user buffer — no
    /// staging copy ([`crate::bounce::Staging::ZeroCopy`]).
    pub zero_copy_ios: u64,
    /// Per-I/O windows programmed (DirectMapped).
    pub dynamic_maps: u64,
    /// Commands resubmitted after rung 1's deadlines expired.
    pub recoveries: u64,
    /// Lease heartbeats sent.
    pub heartbeats_sent: u64,
}

/// A connected client with one or more I/O queue pairs.
pub struct ClientDriver {
    smartio: SmartIo,
    fabric: Fabric,
    handle: Handle,
    host: HostId,
    device: SmartDeviceId,
    cfg: ClientConfig,
    /// The manager's published metadata.
    pub metadata: Metadata,
    /// First granted queue id (see [`ClientDriver::qids`] for all).
    pub qid: u16,
    /// One engine striping all qpairs by tag index; the index doubles as
    /// the staging slot: the bounce partition and its PRP list, or the
    /// DirectMapped list page.
    engine: Rc<IoEngine>,
    /// DirectMapped mode only: one PRP-list page per tag, as (client
    /// address, device bus address) of the first.
    direct_lists: Option<(PhysAddr, PhysAddr)>,
    /// What `disconnect` gives back; the bounce pool goes with the rest.
    held: RefCell<Held>,
    mailbox: Rc<Mailbox>,
    /// Set on disconnect; stops the heartbeat task.
    hb_stop: Cell<bool>,
    stats: RefCell<ClientStats>,
}

impl ClientDriver {
    /// Bootstrap from the manager's metadata segment (by name), request
    /// the queue pairs, and set up the data path.
    pub async fn connect(
        smartio: &SmartIo,
        device: SmartDeviceId,
        host: HostId,
        cfg: ClientConfig,
    ) -> Result<Rc<ClientDriver>> {
        smartio.acquire(device, host, BorrowMode::Shared)?;
        let mut held = Held::default();
        let mut mailbox = None;
        let driver = Self::bring_up(smartio, device, host, cfg, &mut held, &mut mailbox).await;
        if driver.is_err() {
            let held = RefCell::new(held);
            let _ = give_back(smartio, device, host, mailbox.as_deref(), &held).await;
        }
        driver
    }

    /// [`ClientDriver::connect`] after the device reference is taken;
    /// everything else it takes goes into `held` first, and the mailbox
    /// into `wired`, so a refusal part-way gives all of it back.
    async fn bring_up(
        smartio: &SmartIo,
        device: SmartDeviceId,
        host: HostId,
        cfg: ClientConfig,
        held: &mut Held,
        wired: &mut Option<Rc<Mailbox>>,
    ) -> Result<Rc<ClientDriver>> {
        let fabric = smartio.fabric().clone();

        // --- Bootstrap: read the metadata segment. ---
        let meta_seg = smartio
            .lookup(&Manager::meta_name(device))
            .map_err(|_| DnvmeError::BadMetadata)?;
        let meta_map = smartio.map_for_cpu(host, meta_seg)?;
        held.mappings.push(meta_map);
        let mut raw = [0u8; proto::META_LEN];
        fabric
            .cpu_read(host, meta_map.region.addr, &mut raw)
            .await?;
        let metadata = Metadata::decode(&raw);
        if !metadata.valid() {
            return Err(DnvmeError::BadMetadata);
        }
        if (host.0 as u32) >= metadata.mailbox_slots {
            return Err(DnvmeError::BadConfig(
                "host id exceeds mailbox slots".into(),
            ));
        }

        // --- Map registers (BAR window) and the mailbox. ---
        let bar_map = smartio.map_for_cpu(host, SegmentId(metadata.bar_segment))?;
        held.mappings.push(bar_map);
        let mailbox_map = smartio.map_for_cpu(host, SegmentId(metadata.mailbox_segment))?;
        held.mappings.push(mailbox_map);
        let cap = Cap::decode(fabric.cpu_read_u64(host, bar_map.region.addr).await?);

        if cfg.num_qpairs == 0 {
            return Err(DnvmeError::BadConfig("num_qpairs must be >= 1".into()));
        }

        // --- Per-qpair queue memory (hint-placed, Fig. 8) + mailbox
        //     CreateQp, repeated for every requested queue pair. ---
        let entries = cfg.queue_entries;
        let response_segment = smartio.create_segment(host, proto::RESPONSE_LEN as u64)?;
        held.segments.push(response_segment);
        let mailbox = Rc::new(Mailbox {
            fabric: fabric.clone(),
            host,
            slot: mailbox_map
                .region
                .addr
                .offset(host.0 as u64 * proto::MAILBOX_SLOT as u64),
            response: smartio.segment_region(response_segment)?,
            response_segment,
            seq: Cell::new(0),
            turn: Semaphore::new(1),
            deadline: cfg.mailbox_timeout,
        });
        *wired = Some(mailbox.clone());
        let bar = bar_map.region;
        let mut specs = Vec::new();
        for _ in 0..cfg.num_qpairs {
            let sq_seg = match cfg.sq_placement {
                SqPlacement::DeviceSide => smartio.create_segment_hinted(
                    host,
                    device,
                    entries as u64 * SQE_SIZE as u64,
                    AccessHints::sq(),
                )?,
                SqPlacement::ClientSide => {
                    // Deliberate Fig. 8 ablation: client-local SQ, so the
                    // controller pays the fetch RTT.
                    smartio.create_segment(host, entries as u64 * SQE_SIZE as u64)?
                }
            };
            held.segments.push(sq_seg);
            let cq_seg = smartio.create_segment_hinted(
                host,
                device,
                entries as u64 * CQE_SIZE as u64,
                AccessHints::cq(),
            )?;
            held.segments.push(cq_seg);
            let cq_region = smartio.segment_region(cq_seg)?;
            assert_eq!(cq_region.host, host, "CQ must be client-local for polling");
            let sq_cpu = smartio.map_for_cpu(host, sq_seg)?;
            held.mappings.push(sq_cpu);
            let sq_win = smartio.map_for_device(device, sq_seg)?;
            held.windows.push(sq_win);
            let cq_win = smartio.map_for_device(device, cq_seg)?;
            held.windows.push(cq_win);
            let resp = mailbox
                .call(Request::CreateQp {
                    entries,
                    sq_bus: sq_win.bus_base,
                    cq_bus: cq_win.bus_base,
                })
                .await?;
            let qid = resp.qid;
            held.qids.push(qid);
            specs.push(QueuePairSpec {
                qid,
                sq_ring: sq_cpu.region,
                sq_doorbell: DomainAddr::new(host, bar.addr.offset(cap.sq_doorbell(qid))),
                cq_ring: cq_region,
                cq_doorbell: DomainAddr::new(host, bar.addr.offset(cap.cq_doorbell(qid))),
                entries,
                irq: None,
            });
        }

        // --- The engine: rings, tags, completion services. ---
        // Every tag must fit in any ring it can stripe onto (a ring holds
        // entries - 1), so more rings do not raise the bound.
        let qd = cfg.queue_depth.min(entries as usize - 1);
        let engine = IoEngine::start(
            &fabric,
            specs,
            CompletionStrategy::Polling {
                check_cost: POLL_CHECK_COST,
            },
            EngineConfig {
                queue_depth: qd,
                cmd_timeout: cfg.cmd_timeout,
            },
        );

        // --- Data path. ---
        let direct_lists = match cfg.data_path {
            DataPath::Bounce => {
                let pool = BouncePool::new(smartio, device, host, qd, cfg.partition_size)?;
                held.bounce = Some(pool);
                None
            }
            DataPath::DirectMapped => {
                // Per-tag PRP list pages for transfers > 2 pages.
                let seg = smartio.create_segment(host, qd as u64 * prp::PAGE)?;
                held.segments.push(seg);
                let region = smartio.segment_region(seg)?;
                let win = smartio.map_for_device(device, seg)?;
                held.windows.push(win);
                Some((region.addr, win.bus_base))
            }
        };

        let driver = Rc::new(ClientDriver {
            smartio: smartio.clone(),
            fabric: fabric.clone(),
            handle: fabric.handle(),
            host,
            device,
            metadata,
            qid: engine.qids()[0],
            engine,
            direct_lists,
            held: RefCell::new(std::mem::take(held)),
            mailbox,
            hb_stop: Cell::new(false),
            stats: RefCell::new(ClientStats::default()),
            cfg,
        });
        // Lease protocol: keep the manager convinced we're alive, or our
        // queue pairs get reclaimed.
        if driver.metadata.lease_nanos > 0 {
            let d = driver.clone();
            let interval = SimDuration::from_nanos((driver.metadata.lease_nanos / 3).max(1));
            driver.handle.spawn(async move {
                loop {
                    d.handle.sleep(interval).await;
                    if d.hb_stop.get() {
                        return;
                    }
                    // Skip when another RPC holds the slot — its accept
                    // refreshes the lease just as well.
                    if let Some(Ok(_)) = d.mailbox.try_call(Request::Heartbeat).await {
                        d.stats.borrow_mut().heartbeats_sent += 1;
                    }
                }
            });
        }
        Ok(driver)
    }

    /// All granted queue ids, in stripe order.
    pub fn qids(&self) -> Vec<u16> {
        self.engine.qids()
    }

    /// Snapshot of the run counters (the engine's doorbell/batch counters
    /// are [`ClientDriver::engine_stats`]).
    pub fn stats(&self) -> ClientStats {
        self.stats.borrow().clone()
    }

    /// The engine's counters, summed over its queue pairs.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// The client's cost/layout profile.
    pub fn config(&self) -> &ClientConfig {
        &self.cfg
    }

    /// The host this client runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Issue with the recovery ladder armed: after rung 1 (the engine's
    /// doorbell re-rings), issue the tag once more under the fresh cid its
    /// lost instance left it. A second timeout is the verdict, a typed
    /// [`BioError::Timeout`]; nothing on the way calls the manager.
    async fn issue_recovered(
        &self,
        tag: &Tag,
        sqe: SqEntry,
    ) -> std::result::Result<CqEntry, BioError> {
        match self.engine.issue(tag, sqe).await {
            Err(EngineError::Timeout { .. }) => {
                self.stats.borrow_mut().recoveries += 1;
                Ok(self.engine.issue(tag, sqe).await?)
            }
            issued => Ok(issued?),
        }
    }

    /// Stop polling the CQ rings, whose memory a later connect may get,
    /// return the queue pairs to the manager (mailbox DeleteQp) and give
    /// back everything else the client holds, device reference included
    /// (`give_back`, the routine a refused connect runs too).
    pub async fn disconnect(&self) -> Result<()> {
        self.hb_stop.set(true);
        self.engine.stop();
        let mailbox = Some(&*self.mailbox);
        give_back(&self.smartio, self.device, self.host, mailbox, &self.held).await
    }

    /// Charge driver CPU: reactor-accounted ([`Handle::cpu_work`]) or a
    /// plain sleep, per `cfg.cpu_accounting`.
    async fn cpu(&self, d: SimDuration) {
        if self.cfg.cpu_accounting {
            self.handle.cpu_work(d).await;
        } else {
            self.handle.sleep(d).await;
        }
    }

    async fn submit_inner(&self, bio: Bio) -> BioResult {
        let bs = self.metadata.block_size;
        let len = bio.len(bs);
        let tag = self.engine.acquire_tag().await?;
        self.cpu(self.cfg.submission_overhead).await;
        let result = self.submit_with_tag(&bio, &tag, len).await;
        self.cpu(self.cfg.completion_overhead).await;
        result
    }

    /// The read or write command for `bio` over these PRPs: where both
    /// data paths build their command, and the one place a read is
    /// counted.
    fn rw_command(&self, bio: &Bio, cid: u16, prp1: PhysAddr, prp2: PhysAddr) -> SqEntry {
        let nlb0 = bio.blocks.saturating_sub(1) as u16;
        if bio.op == BioOp::Read {
            self.stats.borrow_mut().reads += 1;
            SqEntry::read(cid, 1, bio.lba, nlb0, prp1, prp2)
        } else {
            SqEntry::write(cid, 1, bio.lba, nlb0, prp1, prp2)
        }
    }

    async fn submit_with_tag(&self, bio: &Bio, tag: &Tag, len: u64) -> BioResult {
        let cid = tag.cid();
        // The tag's index is the staging slot: bounce partition and PRP
        // list, or DirectMapped list page.
        let slot = tag.index();
        let status = match (bio.op, self.cfg.data_path) {
            (BioOp::Flush, _) => self
                .issue_recovered(tag, SqEntry::flush(cid, 1))
                .await?
                .status(),
            (op, DataPath::Bounce) => {
                let (staging, partition) = {
                    let held = self.held.borrow();
                    let b = held.bounce.as_ref().ok_or(BioError::Gone)?;
                    (
                        b.staging(&self.smartio, slot, bio.buf, len),
                        b.partition(slot),
                    )
                };
                let (prp1, prp2, part) = match staging {
                    Staging::ZeroCopy { prp1, prp2 } => {
                        // The PRPs address the user buffer itself — the
                        // staging copies below vanish from the path.
                        self.stats.borrow_mut().zero_copy_ios += 1;
                        (prp1, prp2, None)
                    }
                    Staging::Bounce { prp1, prp2 } => (prp1, prp2, Some(partition)),
                };
                if op == BioOp::Write {
                    if let Some(part) = part {
                        // Stage: local memcpy user buffer -> partition (the
                        // extra copy on the write submission path, §V).
                        let data = self
                            .fabric
                            .mem_snapshot(bio.buf.host, bio.buf.addr, len)
                            .map_err(|e| BioError::DeviceError(e.to_string()))?;
                        self.fabric
                            .cpu_write_payload(self.host, part.addr, data)
                            .await
                            .map_err(|e| BioError::DeviceError(e.to_string()))?;
                        self.stats.borrow_mut().bounce_bytes_copied += len;
                    }
                }
                let sqe = self.rw_command(bio, cid, prp1, prp2);
                let status = self.issue_recovered(tag, sqe).await?.status();
                if op == BioOp::Read && status.is_success() {
                    if let Some(part) = part {
                        // Unstage: partition -> user buffer (the extra copy
                        // on the read completion path).
                        let data = self
                            .fabric
                            .mem_snapshot(self.host, part.addr, len)
                            .map_err(|e| BioError::DeviceError(e.to_string()))?;
                        self.fabric
                            .cpu_write_payload(bio.buf.host, bio.buf.addr, data)
                            .await
                            .map_err(|e| BioError::DeviceError(e.to_string()))?;
                        self.stats.borrow_mut().bounce_bytes_copied += len;
                    }
                }
                status
            }
            (_, DataPath::DirectMapped) => {
                // IOMMU-style: map the request buffer for this I/O only.
                self.handle.sleep(IOMMU_MAP_COST).await;
                let win = self
                    .smartio
                    .map_region_for_device(self.device, bio.buf.slice(0, len))
                    .map_err(|e| BioError::DeviceError(e.to_string()))?;
                self.stats.borrow_mut().dynamic_maps += 1;
                let issued = self.issue_direct(bio, tag, win.bus_base, len).await;
                // Unmap + IOTLB shootdown, whether or not the command made
                // it: the window's LUT slots are the adapter's, not ours.
                self.smartio.unmap_device(win);
                self.handle.sleep(IOMMU_UNMAP_COST).await;
                issued?.status()
            }
        };
        if status.is_success() {
            Ok(())
        } else {
            Err(BioError::DeviceError(status.to_string()))
        }
    }

    /// The DirectMapped command over a window mapped at `bus`: PRPs (a
    /// list page in the tag's slot when they need one), then the command
    /// through the recovery ladder. The caller owns the window.
    async fn issue_direct(
        &self,
        bio: &Bio,
        tag: &Tag,
        bus: PhysAddr,
        len: u64,
    ) -> std::result::Result<CqEntry, BioError> {
        let list_off = tag.index() as u64 * prp::PAGE;
        let (lists, lists_bus) = self.direct_lists.ok_or(BioError::Gone)?;
        let set = prp::build_prps(bus, len, lists_bus.offset(list_off))
            .map_err(|e| BioError::DeviceError(e.to_string()))?;
        if !set.list.is_empty() {
            let raw: Vec<u8> = set.list.iter().flat_map(|e| e.to_le_bytes()).collect();
            self.fabric
                .mem_write(self.host, lists.offset(list_off), &raw)
                .map_err(|e| BioError::DeviceError(e.to_string()))?;
        }
        let sqe = self.rw_command(bio, tag.cid(), set.prp1, set.prp2);
        self.issue_recovered(tag, sqe).await
    }
}

impl BlockDevice for ClientDriver {
    fn block_size(&self) -> u32 {
        self.metadata.block_size
    }

    fn capacity_blocks(&self) -> u64 {
        self.metadata.capacity_blocks
    }

    fn queue_depth(&self) -> usize {
        self.engine.queue_depth()
    }

    fn submit(&self, bio: Bio) -> BioFuture<'_> {
        Box::pin(async move {
            validate(self, &bio)?;
            let len = bio.len(self.metadata.block_size);
            if bio.op != BioOp::Flush {
                if len > self.cfg.partition_size {
                    return Err(BioError::TooLarge {
                        bytes: len,
                        max: self.cfg.partition_size,
                    });
                }
                if bio.buf.host != self.host {
                    return Err(BioError::DeviceError(
                        "client driver serves its own host's buffers".into(),
                    ));
                }
            }
            self.submit_inner(bio).await
        })
    }
}
