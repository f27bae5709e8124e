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

/// Client driver configuration. Defaults model the paper's "naive"
/// proof-of-concept driver.
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
    /// How the client learns about completions. The paper's SISCI
    /// extension "does not currently support device-generated
    /// interrupts", so its driver polls the CQ in client-local memory
    /// (the default). `Interrupt` models the forwarding extension (MSI
    /// routed through the NTB to the client host) as an ablation.
    pub completion: CompletionStrategy,
    /// CPU cost of the submit path (block layer glue + naive driver).
    pub submission_overhead: SimDuration,
    /// CPU cost after completion detection.
    pub completion_overhead: SimDuration,
    /// IOMMU map / unmap costs (DirectMapped only).
    pub iommu_map_cost: SimDuration,
    /// IOMMU unmap + IOTLB shootdown cost (DirectMapped).
    pub iommu_unmap_cost: SimDuration,
    /// Per-command deadline. `None` (the seed default) waits forever;
    /// `Some(d)` arms the recovery ladder: [`nvme::engine::MAX_RETRIES`]
    /// doorbell re-rings with exponential backoff, then Abort via the
    /// manager, then delete-and-recreate of the queue pair, then
    /// controller reset — surfacing [`BioError::Timeout`] instead of
    /// hanging.
    pub cmd_timeout: Option<SimDuration>,
    /// Deadline for one mailbox round trip. `None` waits forever; after
    /// [`MAILBOX_RETRIES`] same-seq retransmissions the RPC gives up with
    /// [`DnvmeError::RpcTimeout`].
    pub mailbox_timeout: Option<SimDuration>,
    /// `true`: charge submission/completion overheads as reactor CPU
    /// time ([`Handle::cpu_work`]) so per-core saturation is modelled in
    /// sharded benchmarks. `false` (default): plain sleeps (infinite CPU,
    /// the legacy timing model).
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
            completion: CompletionStrategy::Polling {
                check_cost: SimDuration::from_nanos(120),
            },
            submission_overhead: SimDuration::from_nanos(2_400),
            completion_overhead: SimDuration::from_nanos(600),
            iommu_map_cost: SimDuration::from_nanos(450),
            iommu_unmap_cost: SimDuration::from_nanos(700),
            cmd_timeout: None,
            mailbox_timeout: None,
            cpu_accounting: false,
        }
    }
}

/// Everything a client must give back on disconnect: NTB window slots,
/// device-side DMA windows, and its segments. Leaking these would
/// exhaust the adapters' LUTs after enough connect/disconnect cycles.
#[derive(Default)]
struct Cleanup {
    mappings: Vec<smartio::CpuMapping>,
    windows: Vec<smartio::DmaWindow>,
    segments: Vec<SegmentId>,
}

impl Cleanup {
    /// Release every mapping, window, and segment (LUT slots are a
    /// finite resource on the adapters).
    fn release(self, smartio: &SmartIo) {
        for w in self.windows {
            smartio.unmap_device(w);
        }
        for m in self.mappings {
            smartio.unmap_cpu(m);
        }
        for seg in self.segments {
            let _ = smartio.destroy_segment(seg);
        }
    }
}

/// What a connect in progress holds, recorded as it is taken so that a
/// refusal or failure part-way gives all of it back.
#[derive(Default)]
struct BringUp {
    cleanup: Cleanup,
    /// Queue ids the manager has granted so far.
    qids: Vec<u16>,
    /// Last mailbox sequence number used.
    seq: u32,
    /// `(slot address, response region, response segment)` once the
    /// mailbox is wired: how granted qids are handed back.
    mailbox: Option<(PhysAddr, MemRegion, SegmentId)>,
    bounce: Option<BouncePool>,
}

impl BringUp {
    /// The connect was refused or failed: hand back what `disconnect`
    /// would — granted qids, mappings, windows, segments, the bounce
    /// pool and the device reference. Best-effort, like `disconnect`.
    async fn give_back(
        mut self,
        smartio: &SmartIo,
        device: SmartDeviceId,
        host: HostId,
        mailbox_timeout: Option<SimDuration>,
    ) {
        if let Some((slot_addr, resp_region, response_segment)) = self.mailbox {
            for qid in self.qids {
                self.seq += 1;
                let request = Request::DeleteQp {
                    qid,
                    response_segment: response_segment.0,
                };
                let fabric = smartio.fabric();
                let _ = mailbox_rpc(
                    fabric,
                    host,
                    slot_addr,
                    resp_region,
                    self.seq,
                    request,
                    mailbox_timeout,
                )
                .await;
            }
        }
        self.cleanup.release(smartio);
        if let Some(b) = self.bounce {
            b.destroy(smartio);
        }
        let _ = smartio.release(device, host);
    }
}

/// Same-seq retransmissions before a deadline-armed mailbox RPC gives up
/// with [`DnvmeError::RpcTimeout`].
pub const MAILBOX_RETRIES: u32 = 2;

/// Everything needed to re-create a queue pair under its original id,
/// and the state that lets only one command at a time try.
struct QpWiring {
    qid: u16,
    entries: u16,
    sq_bus: PhysAddr,
    cq_bus: PhysAddr,
    iv: Option<u16>,
    /// Held by the one command climbing ladder rungs 2–4 for this ring.
    /// A lost CQE stalls the ring's consumer, so every command in flight
    /// on it times out; climbing side by side their delete/recreate RPCs
    /// collide and a fault one recreate absorbs ends in a controller reset.
    climber: Semaphore,
    /// Times this ring has been re-created. A command that waited for
    /// `climber` and finds it advanced died with the old ring: all that
    /// is left for it to do is resubmit.
    recreated: Cell<u64>,
}

/// Per-client driver stats.
#[derive(Default, Clone, Debug)]
pub struct ClientStats {
    /// Read commands issued.
    pub reads: u64,
    /// Write commands issued.
    pub writes: u64,
    /// Bytes staged through the bounce buffer.
    pub bounce_bytes_copied: u64,
    /// I/Os that DMA'd directly to/from a hinted user buffer — no
    /// staging copy ([`crate::bounce::Staging::ZeroCopy`]).
    pub zero_copy_ios: u64,
    /// Per-I/O windows programmed (DirectMapped).
    pub dynamic_maps: u64,
    /// Commands that entered the recovery ladder (deadline expired).
    pub recoveries: u64,
    /// Abort RPCs sent (ladder rung 2).
    pub aborts_requested: u64,
    /// Queue pairs deleted and re-created in place (ladder rung 3).
    pub qpairs_recreated: u64,
    /// Controller resets requested (ladder rung 4).
    pub resets_requested: u64,
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
    qids: Vec<u16>,
    /// One engine striping all qpairs by cid; the cid doubles as the
    /// staging slot: the bounce partition and its PRP list, or the
    /// DirectMapped list page.
    engine: Rc<IoEngine>,
    bounce: RefCell<Option<BouncePool>>,
    /// DirectMapped mode only: one PRP-list page per tag, as (client
    /// address, device bus address) of the first.
    direct_lists: Option<(PhysAddr, PhysAddr)>,
    /// Mappings/segments to release on disconnect.
    cleanup: RefCell<Option<Cleanup>>,
    response_segment: SegmentId,
    mailbox_map: smartio::CpuMapping,
    next_seq: RefCell<u32>,
    /// Serializes mailbox RPCs: one slot, one outstanding request.
    rpc_lock: Semaphore,
    /// Per-qid ring wiring, kept so recovery can re-create a queue pair
    /// under the same id with the same rings.
    qp_wiring: Vec<QpWiring>,
    /// Set on disconnect; stops the heartbeat task.
    hb_stop: Cell<bool>,
    stats: RefCell<ClientStats>,
}

/// One mailbox round trip: write the stamped request into this host's
/// slot, wait for the matching response in the local response segment.
///
/// With a `deadline`, the wait is raced against the clock; each expiry
/// retransmits the *same* seq with a bumped retry counter (the manager
/// re-sends its cached response without re-executing — idempotent
/// retry), and after [`MAILBOX_RETRIES`] retransmissions the RPC fails with
/// [`DnvmeError::RpcTimeout`] instead of hanging on a dead manager.
async fn mailbox_rpc(
    fabric: &Fabric,
    host: HostId,
    mailbox_slot_addr: pcie::PhysAddr,
    resp_region: MemRegion,
    seq: u32,
    request: Request,
    deadline: Option<SimDuration>,
) -> Result<Response> {
    let watch = fabric.watch(resp_region.host, resp_region.addr, resp_region.len);
    let send = |retry: u32| {
        SlotMessage {
            seq,
            retry,
            request,
        }
        .encode()
    };
    let wait_matching = || async {
        loop {
            watch.notify.notified().await;
            let mut raw = [0u8; proto::RESPONSE_LEN];
            fabric.mem_read(resp_region.host, resp_region.addr, &mut raw)?;
            let r = Response::decode(&raw);
            if r.seq == seq {
                // Observing the matching seq acquires the manager's posted
                // write (happens-before edge, like a CQE phase observation).
                fabric.sanitize_consume(
                    resp_region.host,
                    resp_region.addr,
                    proto::RESPONSE_LEN as u64,
                );
                return Ok::<Response, DnvmeError>(r);
            }
        }
    };
    let sent = fabric.cpu_write(host, mailbox_slot_addr, &send(0)).await;
    let resp = match (sent, deadline) {
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
                            .cpu_write(host, mailbox_slot_addr, &send(attempt))
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
    fabric.unwatch(resp_region.host, &watch);
    let resp = resp?;
    if resp.status != proto::status::OK {
        return Err(DnvmeError::Mailbox(resp.status));
    }
    Ok(resp)
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
        let mailbox_timeout = cfg.mailbox_timeout;
        let mut up = BringUp::default();
        let driver = Self::bring_up(smartio, device, host, cfg, &mut up).await;
        if driver.is_err() {
            up.give_back(smartio, device, host, mailbox_timeout).await;
        }
        driver
    }

    /// [`ClientDriver::connect`] after the device reference is taken;
    /// everything else it takes goes into `up` first.
    async fn bring_up(
        smartio: &SmartIo,
        device: SmartDeviceId,
        host: HostId,
        cfg: ClientConfig,
        up: &mut BringUp,
    ) -> Result<Rc<ClientDriver>> {
        let fabric = smartio.fabric().clone();

        // --- Bootstrap: read the metadata segment. ---
        let meta_seg = smartio
            .lookup(&Manager::meta_name(device))
            .map_err(|_| DnvmeError::BadMetadata)?;
        let meta_map = smartio.map_for_cpu(host, meta_seg)?;
        up.cleanup.mappings.push(meta_map);
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
        up.cleanup.mappings.push(bar_map);
        let mailbox_map = smartio.map_for_cpu(host, SegmentId(metadata.mailbox_segment))?;
        up.cleanup.mappings.push(mailbox_map);
        let cap = Cap::decode(fabric.cpu_read_u64(host, bar_map.region.addr).await?);

        if cfg.num_qpairs == 0 {
            return Err(DnvmeError::BadConfig("num_qpairs must be >= 1".into()));
        }

        // --- Per-qpair queue memory (hint-placed, Fig. 8) + mailbox
        //     CreateQp, repeated for every requested queue pair. ---
        let entries = cfg.queue_entries;
        let response_segment = smartio.create_segment(host, proto::RESPONSE_LEN as u64)?;
        up.cleanup.segments.push(response_segment);
        let resp_region = smartio.segment_region(response_segment)?;
        let slot_addr = mailbox_map
            .region
            .addr
            .offset(host.0 as u64 * proto::MAILBOX_SLOT as u64);
        up.mailbox = Some((slot_addr, resp_region, response_segment));
        let bar = bar_map.region;
        let mut specs = Vec::new();
        let mut wiring = Vec::new();
        let fabric_dev = smartio.device_fabric_id(device)?;
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
                    // controller pays the fetch RTT. lint:allow(D10)
                    smartio.create_segment(host, entries as u64 * SQE_SIZE as u64)?
                }
            };
            up.cleanup.segments.push(sq_seg);
            let cq_seg = smartio.create_segment_hinted(
                host,
                device,
                entries as u64 * CQE_SIZE as u64,
                AccessHints::cq(),
            )?;
            up.cleanup.segments.push(cq_seg);
            let cq_region = smartio.segment_region(cq_seg)?;
            assert_eq!(cq_region.host, host, "CQ must be client-local for polling");
            let sq_cpu = smartio.map_for_cpu(host, sq_seg)?;
            up.cleanup.mappings.push(sq_cpu);
            let sq_win = smartio.map_for_device(device, sq_seg)?;
            up.cleanup.windows.push(sq_win);
            let cq_win = smartio.map_for_device(device, cq_seg)?;
            up.cleanup.windows.push(cq_win);
            up.seq += 1;
            // Interrupt mode reserves a vector per queue pair; vectors are
            // granted as qid at the controller, so request "next" (the
            // manager echoes the actual qid and we route that vector).
            let want_iv = matches!(cfg.completion, CompletionStrategy::Interrupt { .. });
            let resp = mailbox_rpc(
                &fabric,
                host,
                slot_addr,
                resp_region,
                up.seq,
                Request::CreateQp {
                    entries,
                    sq_bus: sq_win.bus_base,
                    cq_bus: cq_win.bus_base,
                    response_segment: response_segment.0,
                    iv: want_iv.then_some(0), // placeholder; manager uses qid
                    want_qid: 0,
                },
                cfg.mailbox_timeout,
            )
            .await?;
            let qid = resp.qid;
            up.qids.push(qid);
            wiring.push(QpWiring {
                qid,
                entries,
                sq_bus: sq_win.bus_base,
                cq_bus: cq_win.bus_base,
                iv: want_iv.then_some(0),
                climber: Semaphore::new(1),
                recreated: Cell::new(0),
            });
            // Interrupt extension: route vector `qid` to this host.
            let irq = want_iv.then(|| fabric.config_msi(fabric_dev, qid, host));
            specs.push(QueuePairSpec {
                qid,
                sq_ring: sq_cpu.region,
                sq_doorbell: DomainAddr::new(host, bar.addr.offset(cap.sq_doorbell(qid))),
                cq_ring: cq_region,
                cq_doorbell: DomainAddr::new(host, bar.addr.offset(cap.cq_doorbell(qid))),
                entries,
                irq,
            });
        }
        let qid = up.qids[0];

        // --- The engine: rings, tags, completion services. ---
        // Every tag must fit in any ring it can stripe onto (a ring holds
        // entries - 1), so more rings do not raise the bound.
        let qd = cfg.queue_depth.min(entries as usize - 1);
        let engine = IoEngine::start(
            &fabric,
            specs,
            cfg.completion,
            EngineConfig {
                queue_depth: qd,
                cmd_timeout: cfg.cmd_timeout,
            },
        );

        // --- Data path. ---
        let direct_lists = match cfg.data_path {
            DataPath::Bounce => {
                let pool = BouncePool::new(smartio, device, host, qd, cfg.partition_size)?;
                up.bounce = Some(pool);
                None
            }
            DataPath::DirectMapped => {
                // Per-tag PRP list pages for transfers > 2 pages.
                let seg = smartio.create_segment(host, qd as u64 * prp::PAGE)?;
                up.cleanup.segments.push(seg);
                let region = smartio.segment_region(seg)?;
                let win = smartio.map_for_device(device, seg)?;
                up.cleanup.windows.push(win);
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
            qid,
            qids: std::mem::take(&mut up.qids),
            engine,
            bounce: RefCell::new(up.bounce.take()),
            direct_lists,
            cleanup: RefCell::new(Some(std::mem::take(&mut up.cleanup))),
            response_segment,
            mailbox_map,
            next_seq: RefCell::new(up.seq + 1),
            rpc_lock: Semaphore::new(1),
            qp_wiring: wiring,
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
                    let Some(_permit) = d.rpc_lock.try_acquire() else {
                        continue;
                    };
                    let seq = d.take_seq();
                    let r = d
                        .raw_rpc(
                            seq,
                            Request::Heartbeat {
                                response_segment: d.response_segment.0,
                            },
                        )
                        .await;
                    if r.is_ok() {
                        d.stats.borrow_mut().heartbeats_sent += 1;
                    }
                }
            });
        }
        Ok(driver)
    }

    /// All granted queue ids, in stripe order.
    pub fn qids(&self) -> Vec<u16> {
        self.qids.clone()
    }

    /// Snapshot of the run counters (the engine's doorbell/batch counters
    /// are [`ClientDriver::qpair_stats`]).
    pub fn stats(&self) -> ClientStats {
        self.stats.borrow().clone()
    }

    /// Per-queue-pair engine counters, in stripe order.
    pub fn qpair_stats(&self) -> EngineStats {
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

    fn take_seq(&self) -> u32 {
        let mut s = self.next_seq.borrow_mut();
        let v = *s;
        *s += 1;
        v
    }

    /// One mailbox round trip with this client's slot/response wiring.
    /// Callers must hold (or have just taken) `rpc_lock`.
    async fn raw_rpc(&self, seq: u32, request: Request) -> Result<Response> {
        let resp_region = self.smartio.segment_region(self.response_segment)?;
        let slot_addr = self
            .mailbox_map
            .region
            .addr
            .offset(self.host.0 as u64 * proto::MAILBOX_SLOT as u64);
        mailbox_rpc(
            &self.fabric,
            self.host,
            slot_addr,
            resp_region,
            seq,
            request,
            self.cfg.mailbox_timeout,
        )
        .await
    }

    /// Serialized mailbox RPC (one slot — one outstanding request).
    async fn rpc(&self, request: Request) -> Result<Response> {
        let _permit = self.rpc_lock.acquire().await;
        let seq = self.take_seq();
        self.raw_rpc(seq, request).await
    }

    /// Issue with the recovery ladder armed: an engine deadline expiry
    /// (rung 1, doorbell retries exhausted) escalates to Abort via the
    /// manager (rung 2), then delete-and-recreate of the queue pair with
    /// one resubmission (rung 3), then controller reset (rung 4) — always
    /// ending in a completion or a typed [`BioError`], never a hang. Rungs
    /// 2–4 run one command at a time per ring; the others on that ring
    /// wait for its verdict.
    async fn issue_recovered(
        &self,
        tag: &Tag,
        sqe: SqEntry,
    ) -> std::result::Result<CqEntry, BioError> {
        match self.engine.issue(tag, sqe).await {
            Ok(cqe) => Ok(cqe),
            Err(EngineError::Timeout { qid, cid }) => self.recover(tag, sqe, qid, cid).await,
            Err(e) => Err(e.into()),
        }
    }

    async fn recover(
        &self,
        tag: &Tag,
        sqe: SqEntry,
        qid: u16,
        cid: u16,
    ) -> std::result::Result<CqEntry, BioError> {
        self.stats.borrow_mut().recoveries += 1;
        let timeout = BioError::Timeout { qid, cid };
        let Some(ring) = self.qp_wiring.iter().find(|w| w.qid == qid) else {
            return Err(timeout);
        };
        // One climber per ring; read the epoch before waiting for the turn.
        let seen = ring.recreated.get();
        let _climbing = ring.climber.acquire().await;
        if ring.recreated.get() == seen {
            // Rung 2: ask the manager's admin queue to abort the command.
            self.stats.borrow_mut().aborts_requested += 1;
            let aborted = match self
                .rpc(Request::Abort {
                    qid,
                    cid,
                    response_segment: self.response_segment.0,
                })
                .await
            {
                Ok(r) => r.flags & proto::flag::ABORTED != 0,
                Err(_) => false,
            };
            if aborted {
                // The controller killed it; the command is dead and the
                // slot will retire when the abort CQE lands. Surface the
                // deadline.
                return Err(timeout);
            }
            // Rung 3: the command was never seen or its completion was
            // lost — tear the queue pair down and re-create it under the
            // same id.
            if self.recreate_qpair(ring).await.is_ok() {
                self.stats.borrow_mut().qpairs_recreated += 1;
                ring.recreated.set(seen + 1);
            }
        }
        // On the rebuilt ring — by this climb or the one waited for —
        // resubmit exactly once.
        if ring.recreated.get() != seen {
            if let Ok(cqe) = self.engine.issue(tag, sqe).await {
                return Ok(cqe);
            }
        }
        // Rung 4: controller reset. Our grants (and everyone else's) are
        // void afterwards; surface the typed error either way.
        self.stats.borrow_mut().resets_requested += 1;
        let _ = self
            .rpc(Request::Reset {
                response_segment: self.response_segment.0,
            })
            .await;
        Err(timeout)
    }

    /// Delete + re-create queue pair `w.qid` in place: same rings, same
    /// doorbells, same qid — only the controller-side state is rebuilt,
    /// so the engine wiring stays valid.
    async fn recreate_qpair(&self, w: &QpWiring) -> Result<()> {
        let qid = w.qid;
        self.rpc(Request::DeleteQp {
            qid,
            response_segment: self.response_segment.0,
        })
        .await?;
        // Local rings/backlog wiped; in-flight waiters striped to this
        // qpair fail with `Gone` (recovery collateral, still typed).
        self.engine.reset_qpair(qid);
        let resp = self
            .rpc(Request::CreateQp {
                entries: w.entries,
                sq_bus: w.sq_bus,
                cq_bus: w.cq_bus,
                response_segment: self.response_segment.0,
                iv: w.iv,
                want_qid: qid,
            })
            .await?;
        if resp.qid != qid {
            return Err(DnvmeError::Mailbox(proto::status::NO_FREE_QPAIR));
        }
        Ok(())
    }

    /// Return the queue pair to the manager (mailbox DeleteQp) and drop
    /// the shared device reference. Cleanup is best-effort: local
    /// resources are always released even when the manager is
    /// unreachable, and the first RPC error is reported after.
    pub async fn disconnect(&self) -> Result<()> {
        self.hb_stop.set(true);
        let mut first_err = None;
        for qid in &self.qids {
            let r = self
                .rpc(Request::DeleteQp {
                    qid: *qid,
                    response_segment: self.response_segment.0,
                })
                .await;
            if let Err(e) = r {
                first_err.get_or_insert(e);
            }
        }
        if let Some(c) = self.cleanup.borrow_mut().take() {
            c.release(&self.smartio);
        }
        if let Some(b) = self.bounce.borrow_mut().take() {
            b.destroy(&self.smartio);
        }
        if let Err(e) = self.smartio.release(self.device, self.host) {
            first_err.get_or_insert(e.into());
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
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

    async fn submit_with_tag(&self, bio: &Bio, tag: &Tag, len: u64) -> BioResult {
        let cid = tag.cid();
        // The cid is the staging slot: bounce partition and PRP list, or
        // DirectMapped list page.
        let slot = cid as usize;
        let nlb0 = bio.blocks.saturating_sub(1) as u16;
        let status = match (bio.op, self.cfg.data_path) {
            (BioOp::Flush, _) => self
                .issue_recovered(tag, SqEntry::flush(cid, 1))
                .await?
                .status(),
            (op, DataPath::Bounce) => {
                let staging = {
                    let b = self.bounce.borrow();
                    let b = b.as_ref().ok_or(BioError::Gone)?;
                    b.staging(&self.smartio, slot, bio.buf, len)
                };
                let (prp1, prp2, part) = match staging {
                    Staging::ZeroCopy { prp1, prp2 } => {
                        // The PRPs address the user buffer itself — the
                        // staging copies below vanish from the path.
                        self.stats.borrow_mut().zero_copy_ios += 1;
                        (prp1, prp2, None)
                    }
                    Staging::Bounce { prp1, prp2 } => {
                        let b = self.bounce.borrow();
                        let b = b.as_ref().ok_or(BioError::Gone)?;
                        (prp1, prp2, Some(b.partition(slot)))
                    }
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
                let sqe = match op {
                    BioOp::Read => {
                        self.stats.borrow_mut().reads += 1;
                        SqEntry::read(cid, 1, bio.lba, nlb0, prp1, prp2)
                    }
                    _ => {
                        self.stats.borrow_mut().writes += 1;
                        SqEntry::write(cid, 1, bio.lba, nlb0, prp1, prp2)
                    }
                };
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
            (op, DataPath::DirectMapped) => {
                // IOMMU-style: map the request buffer for this I/O only.
                self.handle.sleep(self.cfg.iommu_map_cost).await;
                let win = self
                    .smartio
                    .map_region_for_device(self.device, bio.buf.slice(0, len))
                    .map_err(|e| BioError::DeviceError(e.to_string()))?;
                self.stats.borrow_mut().dynamic_maps += 1;
                let (lists, lists_bus) = self.direct_lists.ok_or(BioError::Gone)?;
                let list_bus = lists_bus.offset(slot as u64 * prp::PAGE);
                let set = prp::build_prps(win.bus_base, len, list_bus)
                    .map_err(|e| BioError::DeviceError(e.to_string()))?;
                if !set.list.is_empty() {
                    let raw: Vec<u8> = set.list.iter().flat_map(|e| e.to_le_bytes()).collect();
                    self.fabric
                        .mem_write(self.host, lists.offset(slot as u64 * prp::PAGE), &raw)
                        .map_err(|e| BioError::DeviceError(e.to_string()))?;
                }
                let sqe = match op {
                    BioOp::Read => {
                        self.stats.borrow_mut().reads += 1;
                        SqEntry::read(cid, 1, bio.lba, nlb0, set.prp1, set.prp2)
                    }
                    _ => {
                        self.stats.borrow_mut().writes += 1;
                        SqEntry::write(cid, 1, bio.lba, nlb0, set.prp1, set.prp2)
                    }
                };
                let status = self.issue_recovered(tag, sqe).await?.status();
                // Unmap + IOTLB shootdown.
                self.smartio.unmap_device(win);
                self.handle.sleep(self.cfg.iommu_unmap_cost).await;
                status
            }
        };
        if status.is_success() {
            Ok(())
        } else {
            Err(BioError::DeviceError(status.to_string()))
        }
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
