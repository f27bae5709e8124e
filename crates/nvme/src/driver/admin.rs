//! Admin-queue handling shared by every driver that initializes a
//! controller: the stock-Linux/SPDK analogs (local) and the distributed
//! driver's manager module (which reaches the registers through a BAR
//! window and places the admin rings behind DMA windows).
//!
//! The queue pair itself runs on [`crate::engine::IoEngine`] — admin is
//! the engine at its smallest configuration (one qpair, depth 1), so the
//! ring/completion machinery is not duplicated here.

use std::rc::Rc;

use pcie::{DomainAddr, Fabric, MemRegion, PhysAddr};
use simcore::SimDuration;

use crate::engine::{CompletionStrategy, EngineConfig, EngineError, IoEngine, QueuePairSpec};
use crate::spec::command::{SqEntry, SQE_SIZE};
use crate::spec::completion::{CqEntry, CQE_SIZE};
use crate::spec::identify::{IdentifyController, IdentifyNamespace};
use crate::spec::registers::{csts, offset, Aqa, Cap, Cc};
use crate::spec::status::Status;

/// Errors during controller bring-up / admin commands.
#[derive(Debug)]
pub enum AdminError {
    /// A fabric access failed.
    Fabric(pcie::FabricError),
    /// Controller returned a non-success status.
    Command(Status),
    /// CSTS.CFS went up, or RDY never toggled.
    ControllerFatal,
}

impl From<pcie::FabricError> for AdminError {
    fn from(e: pcie::FabricError) -> Self {
        AdminError::Fabric(e)
    }
}

impl From<EngineError> for AdminError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Fabric(f) => AdminError::Fabric(f),
            EngineError::TagsExhausted | EngineError::Gone | EngineError::Timeout { .. } => {
                AdminError::ControllerFatal
            }
        }
    }
}

impl std::fmt::Display for AdminError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdminError::Fabric(e) => write!(f, "fabric: {e}"),
            AdminError::Command(s) => write!(f, "admin command failed: {s}"),
            AdminError::ControllerFatal => write!(f, "controller fatal / timeout"),
        }
    }
}

impl std::error::Error for AdminError {}

/// Convenience alias for admin operations.
pub type AdminResult<T> = Result<T, AdminError>;

/// Where the admin rings live and how the device reaches them.
#[derive(Clone, Copy, Debug)]
pub struct AdminQueueLayout {
    /// CPU-visible region the driver writes SQEs into.
    pub asq_cpu: MemRegion,
    /// Bus address of the ASQ as the *device* sees it.
    pub asq_bus: PhysAddr,
    /// CPU-local region the driver polls for CQEs (must be host-local).
    pub acq_cpu: MemRegion,
    /// Bus address of the ACQ as the device sees it.
    pub acq_bus: PhysAddr,
    /// Entries in each admin queue.
    pub entries: u16,
}

/// A live admin queue pair.
pub struct AdminQueue {
    fabric: Fabric,
    /// Capabilities read at bring-up.
    pub cap: Cap,
    engine: Rc<IoEngine>,
}

impl AdminQueue {
    /// Reset the controller, program the admin queues, enable, and wait
    /// for ready. This is the §V "manager" bring-up sequence.
    pub async fn init(
        fabric: &Fabric,
        bar: MemRegion,
        layout: AdminQueueLayout,
    ) -> AdminResult<Self> {
        assert!(
            layout.asq_cpu.len >= layout.entries as u64 * SQE_SIZE as u64
                && layout.acq_cpu.len >= layout.entries as u64 * CQE_SIZE as u64,
            "admin ring regions too small"
        );
        let host = bar.host;
        let reg = |off: u64| bar.addr.offset(off);
        let cap = Cap::decode(fabric.cpu_read_u64(host, reg(offset::CAP)).await?);
        // Disable and wait for RDY=0.
        fabric.cpu_write_u32(host, reg(offset::CC), 0).await?;
        wait_csts(fabric, host, reg(offset::CSTS), false, cap.to).await?;
        // Admin queue attributes + bases (bus addresses!).
        let aqa = Aqa {
            asqs: layout.entries - 1,
            acqs: layout.entries - 1,
        };
        fabric
            .cpu_write_u32(host, reg(offset::AQA), aqa.encode())
            .await?;
        fabric
            .cpu_write(host, reg(offset::ASQ), &layout.asq_bus.to_le_bytes())
            .await?;
        fabric
            .cpu_write(host, reg(offset::ACQ), &layout.acq_bus.to_le_bytes())
            .await?;
        // Enable.
        let cc = Cc {
            enable: true,
            iosqes: 6,
            iocqes: 4,
        };
        fabric
            .cpu_write_u32(host, reg(offset::CC), cc.encode())
            .await?;
        wait_csts(fabric, host, reg(offset::CSTS), true, cap.to).await?;
        // Admin traffic is serialized bring-up, not the fast path: one
        // queue pair, one outstanding command.
        let engine = IoEngine::start(
            fabric,
            vec![QueuePairSpec {
                qid: 0,
                sq_ring: layout.asq_cpu,
                sq_doorbell: DomainAddr::new(host, reg(cap.sq_doorbell(0))),
                cq_ring: layout.acq_cpu,
                cq_doorbell: DomainAddr::new(host, reg(cap.cq_doorbell(0))),
                entries: layout.entries,
                irq: None,
            }],
            CompletionStrategy::Polling {
                check_cost: SimDuration::from_nanos(100),
            },
            EngineConfig {
                queue_depth: 1,
                ..EngineConfig::default()
            },
        );
        Ok(AdminQueue {
            fabric: fabric.clone(),
            cap,
            engine,
        })
    }

    /// End the admin completion service, before the admin rings' memory
    /// is given back (a failed bring-up).
    pub fn stop(&self) {
        self.engine.stop();
    }

    /// Submit one admin command and wait for its completion (admin traffic
    /// is serialized; this is bring-up, not the fast path).
    pub async fn submit(&mut self, mut sqe: SqEntry) -> AdminResult<CqEntry> {
        let tag = self.engine.acquire_tag().await?;
        sqe.cid = tag.cid();
        let cqe = self.engine.issue(&tag, sqe).await?;
        if cqe.status().is_success() {
            Ok(cqe)
        } else {
            Err(AdminError::Command(cqe.status()))
        }
    }

    /// Identify controller, landing the data in `buf` (device-visible at
    /// `buf_bus`).
    pub async fn identify_controller(
        &mut self,
        buf: MemRegion,
        buf_bus: PhysAddr,
    ) -> AdminResult<IdentifyController> {
        self.submit(SqEntry::identify_controller(0, buf_bus))
            .await?;
        let mut raw = vec![0u8; IdentifyController::LEN];
        self.fabric.mem_read(buf.host, buf.addr, &mut raw)?;
        Ok(IdentifyController::decode(&raw))
    }

    /// Identify namespace `nsid` into `buf`.
    pub async fn identify_namespace(
        &mut self,
        nsid: u32,
        buf: MemRegion,
        buf_bus: PhysAddr,
    ) -> AdminResult<IdentifyNamespace> {
        self.submit(SqEntry::identify_namespace(0, nsid, buf_bus))
            .await?;
        let mut raw = vec![0u8; IdentifyNamespace::LEN];
        self.fabric.mem_read(buf.host, buf.addr, &mut raw)?;
        Ok(IdentifyNamespace::decode(&raw))
    }

    /// Negotiate I/O queue count; returns the number of queue pairs granted.
    pub async fn set_num_queues(&mut self, want: u16) -> AdminResult<u16> {
        let cqe = self
            .submit(SqEntry::set_num_queues(0, want - 1, want - 1))
            .await?;
        let granted_sq = (cqe.result & 0xFFFF) as u16 + 1;
        let granted_cq = (cqe.result >> 16) as u16 + 1;
        Ok(granted_sq.min(granted_cq))
    }

    /// Create an I/O queue pair: CQ first (per spec), then SQ bound to it.
    /// A queue the controller still holds under `qid`, left by a create or
    /// delete whose completion never arrived, is deleted first.
    pub async fn create_io_qpair(
        &mut self,
        qid: u16,
        entries: u16,
        sq_bus: PhysAddr,
        cq_bus: PhysAddr,
        iv: Option<u16>,
    ) -> AdminResult<()> {
        let create_cq = SqEntry::create_io_cq(0, qid, entries - 1, cq_bus, iv);
        if let Err(e) = self.submit(create_cq).await {
            let AdminError::Command(Status::INVALID_QUEUE_ID) = e else {
                return Err(e);
            };
            self.delete_io_qpair(qid).await?;
            self.submit(create_cq).await?;
        }
        match self
            .submit(SqEntry::create_io_sq(0, qid, entries - 1, sq_bus, qid))
            .await
        {
            Ok(_) => Ok(()),
            Err(e) => {
                // Roll back the CQ so the qid is reusable.
                let _ = self.submit(SqEntry::delete_io_cq(0, qid)).await;
                Err(e)
            }
        }
    }

    /// Delete an I/O queue pair: SQ first, then CQ (per spec ordering). A
    /// queue the controller does not hold counts as deleted.
    pub async fn delete_io_qpair(&mut self, qid: u16) -> AdminResult<()> {
        for sqe in [SqEntry::delete_io_sq(0, qid), SqEntry::delete_io_cq(0, qid)] {
            match self.submit(sqe).await {
                Ok(_) | Err(AdminError::Command(Status::INVALID_QUEUE_ID)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Poll CSTS until RDY reaches `want` or the CAP timeout expires.
async fn wait_csts(
    fabric: &Fabric,
    host: pcie::HostId,
    csts_addr: PhysAddr,
    want: bool,
    to_500ms: u8,
) -> AdminResult<()> {
    let deadline = fabric.handle().now() + SimDuration::from_millis(500) * (to_500ms.max(1) as u64);
    loop {
        let v = fabric.cpu_read_u32(host, csts_addr).await?;
        if v & csts::CFS != 0 {
            return Err(AdminError::ControllerFatal);
        }
        if (v & csts::RDY != 0) == want {
            return Ok(());
        }
        if fabric.handle().now() >= deadline {
            return Err(AdminError::ControllerFatal);
        }
        fabric.handle().sleep(SimDuration::from_micros(10)).await;
    }
}
