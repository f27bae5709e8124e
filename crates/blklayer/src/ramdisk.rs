//! A trivial DRAM-backed block device: the reference implementation of
//! [`BlockDevice`], used to validate the block layer and the workload
//! generator independently of the NVMe stack.

use std::rc::Rc;

use pcie::{Fabric, HostId, MemRegion};
use simcore::sync::Semaphore;
use simcore::SimDuration;

use crate::bio::{Bio, BioError, BioOp};
use crate::device::{validate, BioFuture, BlockDevice};

/// RAM-backed block device living in `host`'s DRAM.
pub struct RamDisk {
    fabric: Fabric,
    host: HostId,
    backing: MemRegion,
    block_size: u32,
    tags: Semaphore,
    qd: usize,
    /// Fixed service latency per request (zero = instant).
    service: SimDuration,
}

impl RamDisk {
    /// A RAM disk with a fixed per-request service time.
    pub fn new(
        fabric: &Fabric,
        host: HostId,
        capacity_blocks: u64,
        block_size: u32,
        qd: usize,
        service: SimDuration,
    ) -> Rc<RamDisk> {
        // Device backing store, not a client I/O buffer — hinting does
        // not apply (there is no SmartIO device here).
        let backing = fabric
            // lint:allow(D17)
            .alloc(host, capacity_blocks * block_size as u64)
            .expect("ramdisk backing allocation");
        Rc::new(RamDisk {
            fabric: fabric.clone(),
            host,
            backing,
            block_size,
            tags: Semaphore::new(qd),
            qd,
            service,
        })
    }
}

impl BlockDevice for RamDisk {
    fn block_size(&self) -> u32 {
        self.block_size
    }

    fn capacity_blocks(&self) -> u64 {
        self.backing.len / self.block_size as u64
    }

    fn queue_depth(&self) -> usize {
        self.qd
    }

    fn submit(&self, bio: Bio) -> BioFuture<'_> {
        Box::pin(async move {
            validate(self, &bio)?;
            let _tag = self.tags.acquire().await;
            if !self.service.is_zero() {
                self.fabric.handle().sleep(self.service).await;
            }
            let len = bio.len(self.block_size);
            let dev_off = bio.lba * self.block_size as u64;
            match bio.op {
                BioOp::Flush => Ok(()),
                BioOp::Read => {
                    let data = self
                        .fabric
                        .mem_snapshot(self.host, self.backing.addr.offset(dev_off), len)
                        .map_err(|e| BioError::DeviceError(e.to_string()))?;
                    self.fabric
                        .mem_adopt(bio.buf.host, bio.buf.addr, data)
                        .map_err(|e| BioError::DeviceError(e.to_string()))?;
                    Ok(())
                }
                BioOp::Write => {
                    let data = self
                        .fabric
                        .mem_snapshot(bio.buf.host, bio.buf.addr, len)
                        .map_err(|e| BioError::DeviceError(e.to_string()))?;
                    self.fabric
                        .mem_adopt(self.host, self.backing.addr.offset(dev_off), data)
                        .map_err(|e| BioError::DeviceError(e.to_string()))?;
                    Ok(())
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie::FabricParams;
    use simcore::SimRuntime;

    fn setup() -> (SimRuntime, Fabric, HostId, Rc<RamDisk>) {
        let rt = SimRuntime::new();
        let fabric = Fabric::new(rt.handle(), FabricParams::default());
        let host = fabric.add_host(16 << 20);
        let disk = RamDisk::new(&fabric, host, 1024, 512, 4, SimDuration::from_micros(1));
        (rt, fabric, host, disk)
    }

    #[test]
    fn write_read_roundtrip() {
        let (rt, fabric, host, disk) = setup();
        // lint:allow(D17) — in-module test, no SmartIO device to hint
        let buf = fabric.alloc(host, 4096).unwrap();
        fabric.mem_write(host, buf.addr, &[7u8; 4096]).unwrap();
        let ok = rt.block_on({
            let fabric = fabric.clone();
            async move {
                disk.submit(Bio::write(8, 8, buf)).await.unwrap();
                fabric.mem_write(host, buf.addr, &[0u8; 4096]).unwrap();
                disk.submit(Bio::read(8, 8, buf)).await.unwrap();
                let mut out = vec![0u8; 4096];
                fabric.mem_read(host, buf.addr, &mut out).unwrap();
                out.iter().all(|&b| b == 7)
            }
        });
        assert!(ok);
    }

    #[test]
    fn out_of_range_rejected() {
        let (rt, fabric, host, disk) = setup();
        let buf = fabric.alloc(host, 4096).unwrap();
        let err =
            rt.block_on(async move { disk.submit(Bio::read(1020, 8, buf)).await.unwrap_err() });
        assert!(matches!(err, BioError::OutOfRange { .. }));
    }

    #[test]
    fn short_buffer_rejected() {
        let (rt, fabric, host, disk) = setup();
        let buf = fabric.alloc(host, 512).unwrap();
        let err = rt.block_on(async move { disk.submit(Bio::read(0, 8, buf)).await.unwrap_err() });
        assert!(matches!(err, BioError::BadBuffer));
    }

    #[test]
    fn queue_depth_enforced() {
        let (rt, fabric, host, disk) = setup();
        let h = rt.handle();
        // 8 requests, qd 4, 1 µs service => two waves => ~2 µs total.
        let mut joins = Vec::new();
        for i in 0..8 {
            let disk = disk.clone();
            let buf = fabric.alloc(host, 512).unwrap();
            let h2 = h.clone();
            joins.push(h.spawn(async move {
                disk.submit(Bio::read(i, 1, buf)).await.unwrap();
                h2.now().as_nanos()
            }));
        }
        rt.run();
        let finish: Vec<u64> = joins.iter().map(|j| j.try_take().unwrap()).collect();
        let max = *finish.iter().max().unwrap();
        assert!(max >= 2_000, "expected two service waves, got {finish:?}");
    }

    #[test]
    fn flush_succeeds() {
        let (rt, _fabric, _host, disk) = setup();
        rt.block_on(async move { disk.submit(Bio::flush()).await.unwrap() });
    }
}
