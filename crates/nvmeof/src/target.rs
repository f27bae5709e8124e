//! The NVMe-oF target — an SPDK-like poll-mode userspace target.
//!
//! This is the software the paper's argument hinges on: even with
//! one-sided RDMA and a poll-mode driver, **target software sits on the
//! critical path of every I/O**. Each command capsule is received,
//! parsed, staged, submitted to the local NVMe driver, and answered — all
//! costing CPU time and NIC round trips that the PCIe/NTB design avoids.

use std::cell::RefCell;
use std::rc::Rc;

use blklayer::BioOp;
use nvme::driver::LocalNvmeDriver;
use nvme::spec::command::SqEntry;
use nvme::spec::completion::CqEntry;
use nvme::spec::opcode::NvmOpcode;
use nvme::spec::status::Status;
use pcie::{Fabric, HostId, MemRegion, PhysAddr};
use rdma::{Access, Cq, IbNet, NicId, Qp, SendWr, Wc, WcStatus};
use simcore::{Handle, SimDuration};

use crate::capsule::{encode_response, CommandCapsule, DataRef, CAPSULE_HEADER};

/// Target configuration (SPDK-like defaults).
#[derive(Clone, Debug)]
pub struct TargetConfig {
    /// Outstanding commands per connection (= staging buffers).
    pub queue_depth: usize,
    /// Largest I/O.
    pub max_io_size: u64,
    /// In-capsule data threshold (SPDK default 4096).
    pub in_capsule_data_size: u64,
    /// Poll-mode detection cost per event.
    pub poll_check: SimDuration,
    /// Software cost to parse/route one capsule.
    pub proc_overhead: SimDuration,
    /// Software cost to build/send one response.
    pub resp_overhead: SimDuration,
}

impl Default for TargetConfig {
    fn default() -> Self {
        TargetConfig {
            queue_depth: 64,
            max_io_size: 128 << 10,
            in_capsule_data_size: 4096,
            poll_check: SimDuration::from_nanos(90),
            proc_overhead: SimDuration::from_nanos(550),
            resp_overhead: SimDuration::from_nanos(350),
        }
    }
}

/// Target-side statistics.
#[derive(Default, Clone, Debug)]
pub struct TargetStats {
    /// Command capsules received.
    pub capsules: u64,
    /// Writes served from in-capsule data.
    pub icd_writes: u64,
    /// RDMA READs issued to fetch write data.
    pub rdma_reads: u64,
    /// RDMA WRITEs issued to deliver read data.
    pub rdma_writes: u64,
    /// Errored or malformed commands.
    pub errors: u64,
}

/// The running target: owns the local NVMe via a poll-mode driver and
/// accepts per-initiator connections.
pub struct NvmfTarget {
    fabric: Fabric,
    handle: Handle,
    net: IbNet,
    nic: NicId,
    host: HostId,
    driver: Rc<LocalNvmeDriver>,
    cfg: TargetConfig,
    stats: Rc<RefCell<TargetStats>>,
}

impl NvmfTarget {
    /// `driver` must be a poll-mode local driver for the NVMe device in
    /// `host` (use [`nvme::driver::LocalDriverConfig::spdk`]).
    pub fn new(
        fabric: &Fabric,
        net: &IbNet,
        nic: NicId,
        host: HostId,
        driver: Rc<LocalNvmeDriver>,
        cfg: TargetConfig,
    ) -> Rc<NvmfTarget> {
        assert_eq!(net.nic_host(nic), host);
        Rc::new(NvmfTarget {
            fabric: fabric.clone(),
            handle: fabric.handle(),
            net: net.clone(),
            nic,
            host,
            driver,
            cfg,
            stats: Rc::new(RefCell::new(TargetStats::default())),
        })
    }

    /// Snapshot of the run counters.
    pub fn stats(&self) -> TargetStats {
        self.stats.borrow().clone()
    }

    /// The backing poll-mode NVMe driver (e.g. for its qpair-engine
    /// doorbell counters).
    pub fn driver(&self) -> &Rc<LocalNvmeDriver> {
        &self.driver
    }

    /// The namespace's logical block size.
    pub fn block_size(&self) -> u32 {
        self.driver.ns_info.block_size() as u32
    }

    /// The namespace's capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.driver.ns_info.nsze
    }

    /// Largest transfer the target accepts.
    pub fn max_io_size(&self) -> u64 {
        self.cfg.max_io_size
    }

    /// In-capsule data threshold advertised to initiators.
    pub fn in_capsule_data_size(&self) -> u64 {
        self.cfg.in_capsule_data_size
    }

    /// Create the target side of a new connection ("bind a queue pair for
    /// this initiator", Fig. 3): allocates staging buffers and command
    /// buffers, pre-posts receives, and spawns the connection poller.
    /// Returns the QP for the initiator to connect to.
    pub fn new_connection(self: &Rc<Self>) -> Qp {
        let qp = self.net.create_qp(self.nic);
        let qd = self.cfg.queue_depth;
        let capsule_len =
            (CAPSULE_HEADER as u64 + self.cfg.in_capsule_data_size).next_power_of_two();
        // Command-capsule receive buffers + data staging buffers.
        let cmd_region = self
            .fabric
            .alloc(self.host, qd as u64 * capsule_len)
            .expect("target OOM");
        let cmd_mr = self
            .net
            .register_mr(self.nic, cmd_region, Access::local_only());
        let staging_region = self
            .fabric
            .alloc(self.host, qd as u64 * self.cfg.max_io_size)
            .expect("target OOM");
        let staging_mr = self
            .net
            .register_mr(self.nic, staging_region, Access::local_only());
        for tag in 0..qd {
            qp.post_recv(
                tag as u64,
                cmd_mr.lkey,
                cmd_region.addr.as_u64() + tag as u64 * capsule_len,
                capsule_len,
            );
        }
        // Small per-tag response buffers, separate from data staging.
        let resp_region = self
            .fabric
            .alloc(self.host, qd as u64 * 64)
            .expect("target OOM");
        let resp_mr = self
            .net
            .register_mr(self.nic, resp_region, Access::local_only());
        let conn = Rc::new(Connection {
            target: self.clone(),
            qp: qp.clone(),
            cmd_region,
            cmd_lkey: cmd_mr.lkey,
            capsule_len,
            staging_region,
            staging_lkey: staging_mr.lkey,
            resp_region,
            resp_lkey: resp_mr.lkey,
            pending_sends: RefCell::new(std::collections::BTreeMap::new()),
        });
        // Poll-mode detection + capsule parsing, per capsule.
        let recv_cq = qp.recv_cq();
        recv_cq.set_consumer_cost(self.cfg.poll_check + self.cfg.proc_overhead);
        let c2 = conn.clone();
        self.handle.spawn(async move { c2.run(recv_cq).await });
        // Send-completion dispatcher: routes completions to waiters by
        // wr_id. Data writes and responses are unsignaled, so what arrives
        // is an RDMA READ's completion or a failure; unclaimed ones drop.
        let send_cq = qp.send_cq();
        let c3 = conn.clone();
        self.handle.spawn(async move {
            loop {
                let wc = send_cq.next().await;
                if let Some(tx) = c3.pending_sends.borrow_mut().remove(&wc.wr_id) {
                    tx.send(wc);
                }
            }
        });
        qp
    }
}

struct Connection {
    target: Rc<NvmfTarget>,
    qp: Qp,
    cmd_region: MemRegion,
    cmd_lkey: u32,
    capsule_len: u64,
    staging_region: MemRegion,
    staging_lkey: u32,
    resp_region: MemRegion,
    resp_lkey: u32,
    /// Send completions awaited by command handlers, keyed by wr_id.
    /// Ordered map so connection teardown drains waiters deterministically.
    pending_sends: RefCell<std::collections::BTreeMap<u64, simcore::sync::oneshot::Sender<Wc>>>,
}

impl Connection {
    async fn run(self: Rc<Self>, recv_cq: Cq) {
        loop {
            let wc = recv_cq.next().await;
            let t = &self.target;
            if wc.status != WcStatus::Success {
                t.stats.borrow_mut().errors += 1;
                // The NIC consumed the receive all the same: give the
                // slot back, or every bad capsule costs the connection one.
                self.repost(wc.wr_id);
                continue;
            }
            t.stats.borrow_mut().capsules += 1;
            // Handle commands concurrently: the poller keeps receiving.
            let me = self.clone();
            t.handle
                .spawn_detached(async move { me.handle_capsule(wc).await });
        }
    }

    /// Post `tag`'s command buffer as a receive.
    fn repost(&self, tag: u64) {
        self.qp.post_recv(
            tag,
            self.cmd_lkey,
            self.tag_addr(tag).as_u64(),
            self.capsule_len,
        );
    }

    fn tag_addr(&self, tag: u64) -> PhysAddr {
        self.cmd_region.addr.offset(tag * self.capsule_len)
    }

    fn staging(&self, tag: u64) -> PhysAddr {
        self.staging_region
            .addr
            .offset(tag * self.target.cfg.max_io_size)
    }

    async fn handle_capsule(self: Rc<Self>, wc: Wc) {
        let t = &self.target;
        let tag = wc.wr_id;
        let mut raw = vec![0u8; wc.byte_len as usize];
        t.fabric
            .mem_read(t.host, self.tag_addr(tag), &mut raw)
            .expect("capsule read");
        let Some(capsule) = CommandCapsule::decode(&raw) else {
            t.stats.borrow_mut().errors += 1;
            self.finish(tag, None).await;
            return;
        };
        let sqe = capsule.sqe;
        let cqe = match NvmOpcode::from_u8(sqe.opcode) {
            Some(NvmOpcode::Read) => self.do_read(tag, &sqe, &capsule.data).await,
            Some(NvmOpcode::Write) => self.do_write(tag, &sqe, &capsule.data).await,
            Some(NvmOpcode::Flush) => {
                let status = t
                    .driver
                    .io_raw(BioOp::Flush, 0, 0, PhysAddr(0))
                    .await
                    .unwrap_or(Status::DATA_TRANSFER_ERROR);
                self.make_cqe(&sqe, status)
            }
            _ => self.make_cqe(&sqe, Status::INVALID_OPCODE),
        };
        self.finish(tag, Some(cqe)).await;
    }

    fn make_cqe(&self, sqe: &SqEntry, status: Status) -> CqEntry {
        if !status.is_success() {
            self.target.stats.borrow_mut().errors += 1;
        }
        CqEntry::new(0, 0, 1, sqe.cid, true, status)
    }

    async fn do_read(&self, tag: u64, sqe: &SqEntry, data: &DataRef) -> CqEntry {
        let t = &self.target;
        let len = sqe.num_blocks() * t.block_size() as u64;
        let DataRef::Remote {
            raddr,
            rkey,
            len: dlen,
        } = *data
        else {
            return self.make_cqe(sqe, Status::INVALID_FIELD);
        };
        if len > t.cfg.max_io_size || dlen < len {
            return self.make_cqe(sqe, Status::INVALID_FIELD);
        }
        // Local NVMe read into the staging buffer (poll-mode driver).
        let status = match t
            .driver
            .io_raw(
                BioOp::Read,
                sqe.slba(),
                sqe.num_blocks() as u32,
                self.staging(tag),
            )
            .await
        {
            Ok(s) => s,
            Err(_) => Status::DATA_TRANSFER_ERROR,
        };
        if !status.is_success() {
            return self.make_cqe(sqe, status);
        }
        // One-sided write of the data into initiator memory ("bound" CQ
        // semantics: data lands before the response capsule).
        t.stats.borrow_mut().rdma_writes += 1;
        self.qp
            .post_send_unsignaled(SendWr::Write {
                wr_id: u64::MAX, // no waiter: a failure is dropped
                lkey: self.staging_lkey,
                laddr: self.staging(tag).as_u64(),
                len,
                raddr,
                rkey,
            })
            .await;
        self.make_cqe(sqe, Status::SUCCESS)
    }

    async fn do_write(&self, tag: u64, sqe: &SqEntry, data: &DataRef) -> CqEntry {
        let t = &self.target;
        let len = sqe.num_blocks() * t.block_size() as u64;
        if len > t.cfg.max_io_size {
            return self.make_cqe(sqe, Status::INVALID_FIELD);
        }
        let staged_bus = match data {
            DataRef::InCapsule(d) => {
                if d.len() as u64 != len {
                    return self.make_cqe(sqe, Status::INVALID_FIELD);
                }
                t.stats.borrow_mut().icd_writes += 1;
                // SPDK points the NVMe at the in-capsule data in the recv
                // buffer directly — no copy. The data sits just past the
                // capsule header in our recv buffer.
                self.tag_addr(tag).offset(CAPSULE_HEADER as u64)
            }
            DataRef::Remote {
                raddr,
                rkey,
                len: dlen,
            } => {
                if *dlen < len {
                    return self.make_cqe(sqe, Status::INVALID_FIELD);
                }
                // Fetch initiator data into staging with RDMA READ — the
                // extra round trip large writes pay.
                t.stats.borrow_mut().rdma_reads += 1;
                let wr_id = tag | (1 << 63);
                let (tx, rx) = simcore::sync::oneshot::channel();
                self.pending_sends.borrow_mut().insert(wr_id, tx);
                self.qp
                    .post_send(SendWr::Read {
                        wr_id,
                        lkey: self.staging_lkey,
                        laddr: self.staging(tag).as_u64(),
                        len,
                        raddr: *raddr,
                        rkey: *rkey,
                    })
                    .await;
                // Wait for the read to land (its completion).
                match rx.await {
                    Ok(wc) if wc.status == WcStatus::Success => {}
                    _ => return self.make_cqe(sqe, Status::DATA_TRANSFER_ERROR),
                }
                self.staging(tag)
            }
            DataRef::None => return self.make_cqe(sqe, Status::INVALID_FIELD),
        };
        let status = match t
            .driver
            .io_raw(
                BioOp::Write,
                sqe.slba(),
                sqe.num_blocks() as u32,
                staged_bus,
            )
            .await
        {
            Ok(s) => s,
            Err(_) => Status::DATA_TRANSFER_ERROR,
        };
        self.make_cqe(sqe, status)
    }

    /// Send the response capsule (if any) and recycle the receive buffer.
    async fn finish(&self, tag: u64, cqe: Option<CqEntry>) {
        let t = &self.target;
        // Repost the command buffer before answering so the initiator can
        // immediately reuse the slot.
        self.repost(tag);
        let Some(cqe) = cqe else { return };
        t.handle.sleep(t.cfg.resp_overhead).await;
        let resp = encode_response(&cqe);
        let resp_addr = self.resp_region.addr.as_u64() + tag * 64;
        t.fabric
            .mem_write(t.host, pcie::PhysAddr(resp_addr), &resp)
            .expect("response stage");
        self.qp
            .post_send_unsignaled(SendWr::Send {
                wr_id: tag | (1 << 62),
                lkey: self.resp_lkey,
                laddr: resp_addr,
                len: resp.len() as u64,
                imm: 0,
            })
            .await;
    }
}
