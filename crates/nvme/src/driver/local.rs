//! Local NVMe drivers: the **stock-Linux analog** (interrupt-driven
//! completions, direct DMA to the request buffer) and the **SPDK analog**
//! (poll-mode, minimal per-command software cost). These are the two
//! baselines in the paper's Fig. 9a scenario.
//!
//! Both run on [`crate::engine::IoEngine`]: the ring handling, tag table,
//! completion service, and submit-path flusher all live there; this file
//! keeps only the bring-up sequence and the command-building glue (PRPs,
//! DSM range staging).

use std::rc::Rc;

use pcie::{DomainAddr, Fabric, HostId, MemRegion, PhysAddr};
use simcore::{Handle, SimDuration};

use blklayer::{validate, Bio, BioError, BioFuture, BioOp, BlockDevice};

use crate::driver::admin::{AdminError, AdminQueue, AdminQueueLayout, AdminResult};
use crate::engine::{
    CompletionStrategy, EngineConfig, EngineStats, IoEngine, QpairStats, QueuePairSpec,
};
use crate::spec::command::{SqEntry, SQE_SIZE};
use crate::spec::completion::CQE_SIZE;
use crate::spec::identify::{IdentifyController, IdentifyNamespace};
use crate::spec::log::{DsmRange, DSM_MAX_RANGES, DSM_RANGE_LEN};
use crate::spec::prp;
use crate::spec::status::Status;

/// Software-cost profile of a local driver.
#[derive(Clone, Debug)]
pub struct LocalDriverConfig {
    /// I/O queue size in entries.
    pub queue_entries: u16,
    /// Outstanding request limit (tags).
    pub queue_depth: usize,
    /// CPU cost on the submit path (block layer + driver).
    pub submission_overhead: SimDuration,
    /// CPU cost on the completion path after detection.
    pub completion_overhead: SimDuration,
    /// How completions are detected.
    pub mode: CompletionStrategy,
    /// Largest single transfer (bytes).
    pub max_transfer: u64,
}

impl LocalDriverConfig {
    /// The stock Linux kernel NVMe driver, as configured in §VI.
    pub fn linux() -> Self {
        LocalDriverConfig {
            queue_entries: 256,
            queue_depth: 128,
            submission_overhead: SimDuration::from_nanos(700),
            completion_overhead: SimDuration::from_nanos(500),
            mode: CompletionStrategy::Interrupt {
                latency: SimDuration::from_nanos(1_400),
            },
            max_transfer: 1 << 20,
        }
    }

    /// SPDK-like poll-mode driver (the paper's NVMe-oF target side).
    pub fn spdk() -> Self {
        LocalDriverConfig {
            queue_entries: 256,
            queue_depth: 128,
            submission_overhead: SimDuration::from_nanos(220),
            completion_overhead: SimDuration::from_nanos(150),
            mode: CompletionStrategy::Polling {
                check_cost: SimDuration::from_nanos(90),
            },
            max_transfer: 1 << 20,
        }
    }
}

/// A local driver instance bound to one controller in the same PCIe
/// domain: buffers DMA directly (bus address == physical address).
pub struct LocalNvmeDriver {
    fabric: Fabric,
    handle: Handle,
    host: HostId,
    cfg: LocalDriverConfig,
    /// Identify Controller data read at bring-up.
    pub ctrl_info: IdentifyController,
    /// Identify Namespace data read at bring-up.
    pub ns_info: IdentifyNamespace,
    engine: Rc<IoEngine>,
    /// Per-tag PRP list page (bus == phys for local memory).
    prp_pages: Vec<MemRegion>,
}

impl LocalNvmeDriver {
    /// Bring up the controller at `bar` (which must be local to `host`)
    /// and create one I/O queue pair.
    pub async fn init(
        fabric: &Fabric,
        host: HostId,
        bar: MemRegion,
        cfg: LocalDriverConfig,
    ) -> AdminResult<Rc<LocalNvmeDriver>> {
        assert_eq!(
            bar.host, host,
            "LocalNvmeDriver requires a device in the local domain"
        );
        let entries = cfg.queue_entries;
        let asq = fabric.alloc(host, 32 * SQE_SIZE as u64)?;
        let acq = fabric.alloc(host, 32 * CQE_SIZE as u64)?;
        let mut admin = AdminQueue::init(
            fabric,
            bar,
            AdminQueueLayout {
                asq_cpu: asq,
                asq_bus: asq.addr,
                acq_cpu: acq,
                acq_bus: acq.addr,
                entries: 32,
            },
        )
        .await?;
        let idbuf = fabric.alloc(host, 4096)?;
        let ctrl_info = admin.identify_controller(idbuf, idbuf.addr).await?;
        let ns_info = admin.identify_namespace(1, idbuf, idbuf.addr).await?;
        fabric.release(idbuf);
        admin.set_num_queues(1).await?;

        // I/O queue pair 1, both rings in local memory.
        let sq_mem = fabric.alloc(host, entries as u64 * SQE_SIZE as u64)?;
        let cq_mem = fabric.alloc(host, entries as u64 * CQE_SIZE as u64)?;
        let iv = match cfg.mode {
            CompletionStrategy::Interrupt { .. } => Some(1u16),
            CompletionStrategy::Polling { .. } => None,
        };
        admin
            .create_io_qpair(1, entries, sq_mem.addr, cq_mem.addr, iv)
            .await?;
        let cap = admin.cap;
        // Vector 1 routed to this host, for the engine's service task.
        let irq = iv.map(|vector| {
            let dev_id = match fabric.resolve(host, bar.addr, 8) {
                Ok(pcie::Location::Bar { dev, .. }) => dev,
                _ => panic!("controller BAR did not resolve to a device"),
            };
            fabric.config_msi(dev_id, vector, host)
        });
        let qd = cfg.queue_depth.min(entries as usize - 1);
        let engine = IoEngine::start(
            fabric,
            vec![QueuePairSpec {
                qid: 1,
                sq_ring: sq_mem,
                sq_doorbell: DomainAddr::new(host, bar.addr.offset(cap.sq_doorbell(1))),
                cq_ring: cq_mem,
                cq_doorbell: DomainAddr::new(host, bar.addr.offset(cap.cq_doorbell(1))),
                entries,
                irq,
            }],
            cfg.mode,
            EngineConfig {
                queue_depth: qd,
                ..EngineConfig::default()
            },
        );
        let mut prp_pages = Vec::with_capacity(qd);
        for _ in 0..qd {
            prp_pages.push(fabric.alloc(host, prp::PAGE)?);
        }
        Ok(Rc::new(LocalNvmeDriver {
            fabric: fabric.clone(),
            handle: fabric.handle(),
            host,
            ctrl_info,
            ns_info,
            engine,
            prp_pages,
            cfg,
        }))
    }

    /// Issue one I/O command against `bus_addr` (already device-visible).
    /// Used directly by the NVMe-oF target (staging buffers) and by the
    /// block-device path below.
    pub async fn io_raw(
        &self,
        op: BioOp,
        lba: u64,
        blocks: u32,
        bus_addr: PhysAddr,
    ) -> Result<Status, BioError> {
        let tag = self.engine.acquire_tag().await?;
        self.handle.sleep(self.cfg.submission_overhead).await;
        let cid = tag.cid();
        let len = blocks as u64 * self.ns_info.block_size();
        let sqe = match op {
            BioOp::Flush => SqEntry::flush(cid, 1),
            BioOp::Read | BioOp::Write => {
                let list_page = &self.prp_pages[cid as usize];
                let set = prp::build_prps(bus_addr, len, list_page.addr)
                    .map_err(|e| BioError::DeviceError(e.to_string()))?;
                if !set.list.is_empty() {
                    let raw: Vec<u8> = set.list.iter().flat_map(|e| e.to_le_bytes()).collect();
                    self.fabric
                        .mem_write(self.host, list_page.addr, &raw)
                        .map_err(|e| BioError::DeviceError(e.to_string()))?;
                }
                let nlb0 = (blocks - 1) as u16;
                match op {
                    BioOp::Read => SqEntry::read(cid, 1, lba, nlb0, set.prp1, set.prp2),
                    _ => SqEntry::write(cid, 1, lba, nlb0, set.prp1, set.prp2),
                }
            }
        };
        let cqe = self.engine.issue(&tag, sqe).await?;
        self.handle.sleep(self.cfg.completion_overhead).await;
        Ok(cqe.status())
    }

    /// The driver's cost profile.
    pub fn config(&self) -> &LocalDriverConfig {
        &self.cfg
    }

    /// Per-qpair engine counters (doorbells, batches, reaps).
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Summed engine counters.
    pub fn engine_totals(&self) -> QpairStats {
        self.engine.totals()
    }

    /// Deallocate (TRIM) the given LBA ranges via Dataset Management.
    pub async fn deallocate(&self, ranges: &[DsmRange]) -> Result<Status, BioError> {
        assert!(!ranges.is_empty() && ranges.len() <= DSM_MAX_RANGES);
        let tag = self.engine.acquire_tag().await?;
        self.handle.sleep(self.cfg.submission_overhead).await;
        let cid = tag.cid();
        // Stage the range list in this tag's PRP page (it is exactly one
        // page: 256 ranges x 16 B).
        let list_page = &self.prp_pages[cid as usize];
        let raw: Vec<u8> = ranges.iter().flat_map(|r| r.encode()).collect();
        debug_assert!(raw.len() <= prp::PAGE as usize && DSM_RANGE_LEN * ranges.len() == raw.len());
        self.fabric
            .mem_write(self.host, list_page.addr, &raw)
            .map_err(|e| BioError::DeviceError(e.to_string()))?;
        let sqe =
            SqEntry::dataset_management(cid, 1, (ranges.len() - 1) as u8, true, list_page.addr);
        let cqe = self.engine.issue(&tag, sqe).await?;
        self.handle.sleep(self.cfg.completion_overhead).await;
        Ok(cqe.status())
    }
}

impl BlockDevice for LocalNvmeDriver {
    fn block_size(&self) -> u32 {
        self.ns_info.block_size() as u32
    }

    fn capacity_blocks(&self) -> u64 {
        self.ns_info.nsze
    }

    /// The effective depth — `init` clamps the configured one to what the
    /// ring holds (`entries - 1`).
    fn queue_depth(&self) -> usize {
        self.engine.queue_depth()
    }

    fn submit(&self, bio: Bio) -> BioFuture<'_> {
        Box::pin(async move {
            validate(self, &bio)?;
            let len = bio.len(self.block_size());
            if len > self.cfg.max_transfer {
                return Err(BioError::TooLarge {
                    bytes: len,
                    max: self.cfg.max_transfer,
                });
            }
            if bio.op != BioOp::Flush && bio.buf.host != self.host {
                return Err(BioError::DeviceError(
                    "local driver cannot DMA a remote buffer".into(),
                ));
            }
            // Direct DMA to the request buffer: bus address == physical
            // address in the device's own domain.
            let status = self
                .io_raw(bio.op, bio.lba, bio.blocks, bio.buf.addr)
                .await?;
            if status.is_success() {
                Ok(())
            } else {
                Err(BioError::DeviceError(status.to_string()))
            }
        })
    }
}

/// Convenience: allocate, bring up, and return a driver for a controller
/// that lives in `host`'s domain, resolving its BAR automatically.
pub async fn attach_local_driver(
    fabric: &Fabric,
    host: HostId,
    ctrl: &Rc<crate::ctrl::NvmeController>,
    cfg: LocalDriverConfig,
) -> AdminResult<Rc<LocalNvmeDriver>> {
    let bar = fabric
        .bar_region(ctrl.device_id(), 0)
        .map_err(AdminError::Fabric)?;
    LocalNvmeDriver::init(fabric, host, bar, cfg).await
}
