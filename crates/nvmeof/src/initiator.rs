//! The NVMe-oF initiator — a kernel-driver-like block device frontend
//! (the paper uses the stock Linux initiator with RDMA transport).
//!
//! Reads and large writes advertise an rkey so the target moves data with
//! one-sided RDMA; small writes ride **in-capsule**. Completions arrive
//! as response capsules and are handled with interrupt latency, like the
//! kernel's RDMA completion path.

use std::cell::RefCell;
use std::rc::Rc;

use blklayer::{validate, Bio, BioError, BioFuture, BioOp, BioResult, BlockDevice};
use nvme::engine::{EngineError, Tag, TagSet};
use nvme::spec::command::SqEntry;
use pcie::{Fabric, HostId, MemRegion, PhysAddr};
use rdma::{Access, IbNet, NicId, Qp, SendWr, WcStatus};
use simcore::{Handle, SimDuration};

use crate::capsule::{decode_response, CommandCapsule, DataRef};
use crate::target::NvmfTarget;

/// Initiator configuration (stock-kernel-like defaults).
#[derive(Clone, Debug)]
pub struct InitiatorConfig {
    /// Outstanding request limit.
    pub queue_depth: usize,
    /// Submit-path software: block layer + capsule build + MR handling.
    pub submission_overhead: SimDuration,
    /// Completion-path software after the interrupt.
    pub completion_overhead: SimDuration,
    /// CQ interrupt latency (kernel initiator does not poll).
    pub irq_latency: SimDuration,
    /// Fast memory registration (FRWR) cost per non-ICD request.
    pub mr_register: SimDuration,
    /// Local invalidate after completion.
    pub mr_invalidate: SimDuration,
}

impl Default for InitiatorConfig {
    fn default() -> Self {
        InitiatorConfig {
            queue_depth: 64,
            submission_overhead: SimDuration::from_nanos(1_300),
            completion_overhead: SimDuration::from_nanos(750),
            irq_latency: SimDuration::from_nanos(1_650),
            mr_register: SimDuration::from_nanos(600),
            mr_invalidate: SimDuration::from_nanos(400),
        }
    }
}

/// Initiator-side counters.
#[derive(Default, Clone, Debug)]
pub struct InitiatorStats {
    /// Read commands issued.
    pub reads: u64,
    /// Write commands issued.
    pub writes: u64,
    /// Writes sent with in-capsule data.
    pub icd_writes: u64,
}

/// A connected initiator exposing the remote namespace as a block device.
pub struct NvmfInitiator {
    fabric: Fabric,
    handle: Handle,
    net: IbNet,
    nic: NicId,
    host: HostId,
    qp: Qp,
    cfg: InitiatorConfig,
    block_size: u32,
    capacity: u64,
    max_io: u64,
    icd_size: u64,
    /// Per-tag capsule staging buffers (registered once).
    cmd_region: MemRegion,
    cmd_lkey: u32,
    capsule_stride: u64,
    /// Tag allocator + response-capsule matching (the engine's tag table,
    /// used standalone — NVMe-oF has no host-side rings to coalesce).
    tags: TagSet,
    stats: RefCell<InitiatorStats>,
}

impl NvmfInitiator {
    /// Connect to a target: wires a fresh QP pair and starts the
    /// completion service.
    pub fn connect(
        fabric: &Fabric,
        net: &IbNet,
        nic: NicId,
        host: HostId,
        target: &Rc<NvmfTarget>,
        cfg: InitiatorConfig,
    ) -> Rc<NvmfInitiator> {
        assert_eq!(net.nic_host(nic), host);
        let target_qp = target.new_connection();
        let qp = net.create_qp(nic);
        qp.connect(&target_qp);

        let qd = cfg.queue_depth;
        let icd_size = target.in_capsule_data_size();
        let capsule_stride = (crate::capsule::CAPSULE_HEADER as u64 + icd_size).next_power_of_two();
        let cmd_region = fabric
            .alloc(host, qd as u64 * capsule_stride)
            .expect("initiator OOM");
        let cmd_mr = net.register_mr(nic, cmd_region, Access::local_only());
        // Response receive buffers (64 B each).
        let resp_region = fabric.alloc(host, qd as u64 * 64).expect("initiator OOM");
        let resp_mr = net.register_mr(nic, resp_region, Access::local_only());
        for tag in 0..qd {
            qp.post_recv(
                tag as u64,
                resp_mr.lkey,
                resp_region.addr.as_u64() + tag as u64 * 64,
                64,
            );
        }

        let init = Rc::new(NvmfInitiator {
            fabric: fabric.clone(),
            handle: fabric.handle(),
            net: net.clone(),
            nic,
            host,
            qp: qp.clone(),
            block_size: target.block_size(),
            capacity: target.capacity_blocks(),
            max_io: target.max_io_size(),
            icd_size,
            cmd_region,
            cmd_lkey: cmd_mr.lkey,
            capsule_stride,
            tags: TagSet::new(qd),
            stats: RefCell::new(InitiatorStats::default()),
            cfg,
        });
        // Completion service: response capsules arrive on the recv CQ and
        // reach the driver an interrupt + softirq later (kernel path).
        let me = init.clone();
        let recv_cq = qp.recv_cq();
        recv_cq.set_consumer_cost(init.cfg.irq_latency);
        fabric.handle().spawn_detached(async move {
            loop {
                let wc = recv_cq.next().await;
                let addr = resp_region.addr.as_u64() + wc.wr_id * 64;
                let cqe = if wc.status == WcStatus::Success {
                    let mut raw = [0u8; 16];
                    me.fabric
                        .mem_read(me.host, PhysAddr(addr), &mut raw)
                        .expect("resp read");
                    decode_response(&raw)
                } else {
                    None
                };
                // Recycle the response buffer: the NIC consumed the receive
                // whether or not the message fitted it.
                me.qp.post_recv(wc.wr_id, resp_mr.lkey, addr, 64);
                if let Some(cqe) = cqe {
                    me.tags.complete(cqe.cid, Ok(cqe));
                }
            }
        });
        // Capsule sends are unsignaled, so the send CQ carries nothing but
        // capsules that were never delivered: fail their commands.
        let me = init.clone();
        let send_cq = qp.send_cq();
        fabric.handle().spawn_detached(async move {
            loop {
                let wc = send_cq.next().await;
                me.tags.complete(wc.wr_id as u16, Err(EngineError::Gone));
            }
        });
        init
    }

    /// This end of the connection's queue pair (e.g. to look at what its
    /// completion queues hold).
    pub fn qp(&self) -> &Qp {
        &self.qp
    }

    /// Snapshot of the run counters.
    pub fn stats(&self) -> InitiatorStats {
        self.stats.borrow().clone()
    }

    async fn do_io(&self, bio: Bio) -> BioResult {
        let len = bio.len(self.block_size);
        let tag = self.tags.acquire().await?;
        self.handle.sleep(self.cfg.submission_overhead).await;
        let result = self.do_io_tag(&bio, &tag, len).await;
        self.handle.sleep(self.cfg.completion_overhead).await;
        result
    }

    async fn do_io_tag(&self, bio: &Bio, tag: &Tag, len: u64) -> BioResult {
        let cid = tag.cid();
        let nlb0 = bio.blocks.saturating_sub(1) as u16;
        // Build the capsule.
        let (capsule, mr_to_drop) = match bio.op {
            BioOp::Flush => (
                CommandCapsule {
                    sqe: SqEntry::flush(cid, 1),
                    data: DataRef::None,
                },
                None,
            ),
            BioOp::Write if len <= self.icd_size => {
                // In-capsule data: read the user buffer and inline it.
                self.stats.borrow_mut().icd_writes += 1;
                self.stats.borrow_mut().writes += 1;
                let mut data = vec![0u8; len as usize];
                self.fabric
                    .mem_read(bio.buf.host, bio.buf.addr, &mut data)
                    .map_err(|e| BioError::DeviceError(e.to_string()))?;
                (
                    CommandCapsule {
                        sqe: SqEntry::write(cid, 1, bio.lba, nlb0, PhysAddr(0), PhysAddr(0)),
                        data: DataRef::InCapsule(data),
                    },
                    None,
                )
            }
            op => {
                // Register the request buffer for one-sided access by the
                // target (per-IO MR, like the kernel's fast registration).
                let access = if op == BioOp::Read {
                    Access::remote_all()
                } else {
                    Access::remote_read_only()
                };
                // FRWR: posting the registration WR costs real time.
                self.handle.sleep(self.cfg.mr_register).await;
                let mr = self
                    .net
                    .register_mr(self.nic, bio.buf.slice(0, len), access);
                let sqe = match op {
                    BioOp::Read => {
                        self.stats.borrow_mut().reads += 1;
                        SqEntry::read(cid, 1, bio.lba, nlb0, PhysAddr(0), PhysAddr(0))
                    }
                    _ => {
                        self.stats.borrow_mut().writes += 1;
                        SqEntry::write(cid, 1, bio.lba, nlb0, PhysAddr(0), PhysAddr(0))
                    }
                };
                (
                    CommandCapsule {
                        sqe,
                        data: DataRef::Remote {
                            raddr: bio.buf.addr.as_u64(),
                            rkey: mr.rkey,
                            len,
                        },
                    },
                    Some(mr.lkey),
                )
            }
        };
        // Stage the capsule in this cid's command buffer and send it.
        let raw = capsule.encode();
        let addr = self.cmd_region.addr.as_u64() + cid as u64 * self.capsule_stride;
        self.fabric
            .mem_write(self.host, PhysAddr(addr), &raw)
            .map_err(|e| BioError::DeviceError(e.to_string()))?;
        let rx = self.tags.register(tag);
        self.qp
            .post_send_unsignaled(SendWr::Send {
                wr_id: cid as u64,
                lkey: self.cmd_lkey,
                laddr: addr,
                len: raw.len() as u64,
                imm: 0,
            })
            .await;
        let cqe = rx.await.map_err(|_| BioError::Gone)??;
        if let Some(lkey) = mr_to_drop {
            self.handle.sleep(self.cfg.mr_invalidate).await;
            self.net.deregister_mr(self.nic, lkey);
        }
        let status = cqe.status();
        if status.is_success() {
            Ok(())
        } else {
            Err(BioError::DeviceError(status.to_string()))
        }
    }
}

impl BlockDevice for NvmfInitiator {
    fn block_size(&self) -> u32 {
        self.block_size
    }

    fn capacity_blocks(&self) -> u64 {
        self.capacity
    }

    fn queue_depth(&self) -> usize {
        self.cfg.queue_depth
    }

    fn submit(&self, bio: Bio) -> BioFuture<'_> {
        Box::pin(async move {
            validate(self, &bio)?;
            let len = bio.len(self.block_size);
            if bio.op != BioOp::Flush {
                if len > self.max_io {
                    return Err(BioError::TooLarge {
                        bytes: len,
                        max: self.max_io,
                    });
                }
                if bio.buf.host != self.host {
                    return Err(BioError::DeviceError(
                        "buffer must be initiator-local".into(),
                    ));
                }
            }
            self.do_io(bio).await
        })
    }
}
