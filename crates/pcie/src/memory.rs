//! Host DRAM model: sparse page-granular backing store, a segment
//! allocator, and write-watches.
//!
//! Watches are the simulation analog of cache-line polling: a task that
//! would spin on a completion-queue cache line instead parks on the watch's
//! [`Notify`] and is woken at the exact virtual instant the DMA write
//! lands. (Detection cost on a real CPU is added by the *driver* model,
//! not here.)

use std::collections::HashMap;

use simcore::sync::Notify;

use crate::addr::PhysAddr;
use crate::error::{FabricError, Result};

/// Memory page granularity of the allocator and backing store.
pub const PAGE_SIZE: u64 = 4096;

/// DRAM of one host: sparse pages plus a first-fit segment allocator.
pub struct HostMemory {
    base: PhysAddr,
    size: u64,
    pages: HashMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
    /// Free list of (start, len), sorted by start, coalesced.
    free: Vec<(u64, u64)>,
    watches: Vec<Watch>,
    next_watch: u64,
    host_label: crate::addr::HostId,
}

struct Watch {
    id: u64,
    start: u64,
    end: u64,
    notify: Notify,
}

/// Handle to a registered write-watch.
#[derive(Clone)]
pub struct WatchHandle {
    pub(crate) id: u64,
    /// Fires on every write overlapping the watched range.
    pub notify: Notify,
}

impl HostMemory {
    /// DRAM starts at 4 GiB in each domain (below it live BARs and NTB
    /// windows, mirroring a conventional physical memory map).
    pub const DRAM_BASE: PhysAddr = PhysAddr(0x1_0000_0000);

    /// DRAM of `size` bytes (page-aligned) for `host`.
    pub fn new(host: crate::addr::HostId, size: u64) -> Self {
        assert!(
            size.is_multiple_of(PAGE_SIZE),
            "memory size must be page aligned"
        );
        HostMemory {
            base: Self::DRAM_BASE,
            size,
            pages: HashMap::new(),
            free: vec![(Self::DRAM_BASE.as_u64(), size)],
            watches: Vec::new(),
            next_watch: 0,
            host_label: host,
        }
    }

    /// First DRAM address.
    pub fn base(&self) -> PhysAddr {
        self.base
    }

    /// DRAM size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Whether `[addr, addr+len)` is inside DRAM.
    pub fn contains(&self, addr: PhysAddr, len: u64) -> bool {
        addr >= self.base && addr.0 + len <= self.base.0 + self.size
    }

    /// Allocate a page-aligned segment of at least `size` bytes (rounded up
    /// to whole pages), first-fit.
    pub fn alloc(&mut self, size: u64) -> Result<PhysAddr> {
        let size = size.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let pos = self.free.iter().position(|&(_, flen)| flen >= size).ok_or(
            FabricError::OutOfMemory {
                host: self.host_label,
                requested: size,
            },
        )?;
        let (start, flen) = self.free[pos];
        if flen == size {
            self.free.remove(pos);
        } else {
            self.free[pos] = (start + size, flen - size);
        }
        Ok(PhysAddr(start))
    }

    /// Return a segment to the allocator (must match a previous alloc).
    pub fn free(&mut self, addr: PhysAddr, size: u64) {
        let size = size.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let start = addr.as_u64();
        debug_assert!(self.contains(addr, size), "freeing outside DRAM");
        let idx = self.free.partition_point(|&(s, _)| s < start);
        self.free.insert(idx, (start, size));
        // Coalesce neighbours.
        if idx + 1 < self.free.len() {
            let (s, l) = self.free[idx];
            let (ns, nl) = self.free[idx + 1];
            assert!(s + l <= ns, "double free overlapping following block");
            if s + l == ns {
                self.free[idx] = (s, l + nl);
                self.free.remove(idx + 1);
            }
        }
        if idx > 0 {
            let (ps, pl) = self.free[idx - 1];
            let (s, l) = self.free[idx];
            assert!(ps + pl <= s, "double free overlapping preceding block");
            if ps + pl == s {
                self.free[idx - 1] = (ps, pl + l);
                self.free.remove(idx);
            }
        }
    }

    /// Bytes currently available to the allocator.
    pub fn free_bytes(&self) -> u64 {
        self.free.iter().map(|&(_, l)| l).sum()
    }

    fn check(&self, addr: PhysAddr, len: u64) -> Result<()> {
        if self.contains(addr, len) {
            Ok(())
        } else {
            Err(FabricError::UnmappedAddress {
                host: self.host_label,
                addr,
            })
        }
    }

    /// Functional write (timing handled by the fabric). Fires watches.
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) -> Result<()> {
        self.check(addr, data.len() as u64)?;
        let mut off = addr.as_u64();
        let mut rest = data;
        while !rest.is_empty() {
            let page_idx = off / PAGE_SIZE;
            let in_page = (off % PAGE_SIZE) as usize;
            let n = rest.len().min(PAGE_SIZE as usize - in_page);
            let page = self
                .pages
                .entry(page_idx)
                .or_insert_with(|| Box::new([0; PAGE_SIZE as usize]));
            page[in_page..in_page + n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            off += n as u64;
        }
        self.fire_watches(addr.as_u64(), addr.as_u64() + data.len() as u64);
        Ok(())
    }

    /// Functional read.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<()> {
        self.check(addr, buf.len() as u64)?;
        let mut off = addr.as_u64();
        let mut rest = &mut buf[..];
        while !rest.is_empty() {
            let page_idx = off / PAGE_SIZE;
            let in_page = (off % PAGE_SIZE) as usize;
            let n = rest.len().min(PAGE_SIZE as usize - in_page);
            match self.pages.get(&page_idx) {
                Some(page) => rest[..n].copy_from_slice(&page[in_page..in_page + n]),
                None => rest[..n].fill(0),
            }
            rest = &mut rest[n..];
            off += n as u64;
        }
        Ok(())
    }

    /// Register a watch over `[addr, addr+len)`; its notify fires on every
    /// write overlapping the range.
    pub fn watch(&mut self, addr: PhysAddr, len: u64) -> WatchHandle {
        let id = self.next_watch;
        self.next_watch += 1;
        let notify = Notify::new();
        self.watches.push(Watch {
            id,
            start: addr.as_u64(),
            end: addr.as_u64() + len,
            notify: notify.clone(),
        });
        WatchHandle { id, notify }
    }

    /// Remove a previously registered watch.
    pub fn unwatch(&mut self, handle: &WatchHandle) {
        self.watches.retain(|w| w.id != handle.id);
    }

    fn fire_watches(&self, start: u64, end: u64) {
        for w in &self.watches {
            if w.start < end && start < w.end {
                w.notify.notify_one();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::HostId;

    fn mem() -> HostMemory {
        HostMemory::new(HostId(0), 1 << 20)
    }

    #[test]
    fn rw_roundtrip_within_page() {
        let mut m = mem();
        let a = m.alloc(64).unwrap();
        m.write(a, b"hello").unwrap();
        let mut buf = [0u8; 5];
        m.read(a, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn rw_roundtrip_across_pages() {
        let mut m = mem();
        let a = m.alloc(3 * PAGE_SIZE).unwrap();
        let data: Vec<u8> = (0..2 * PAGE_SIZE + 100).map(|i| (i % 251) as u8).collect();
        let start = a.offset(PAGE_SIZE / 2);
        m.write(start, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        m.read(start, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn untouched_memory_reads_zero() {
        let mut m = mem();
        let a = m.alloc(PAGE_SIZE).unwrap();
        let mut buf = [0xAAu8; 16];
        m.read(a, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn alloc_rounds_to_pages_and_respects_capacity() {
        let mut m = mem();
        let total = m.free_bytes();
        let a = m.alloc(1).unwrap();
        assert_eq!(m.free_bytes(), total - PAGE_SIZE);
        m.free(a, 1);
        assert_eq!(m.free_bytes(), total);
    }

    #[test]
    fn alloc_exhaustion_errors() {
        let mut m = HostMemory::new(HostId(1), 2 * PAGE_SIZE);
        m.alloc(PAGE_SIZE).unwrap();
        m.alloc(PAGE_SIZE).unwrap();
        match m.alloc(PAGE_SIZE) {
            Err(FabricError::OutOfMemory { host, .. }) => assert_eq!(host, HostId(1)),
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn free_coalesces_blocks() {
        let mut m = HostMemory::new(HostId(0), 4 * PAGE_SIZE);
        let a = m.alloc(PAGE_SIZE).unwrap();
        let b = m.alloc(PAGE_SIZE).unwrap();
        let c = m.alloc(PAGE_SIZE).unwrap();
        m.free(a, PAGE_SIZE);
        m.free(c, PAGE_SIZE);
        m.free(b, PAGE_SIZE);
        // Everything back and coalesced: a single allocation of the full
        // size must now succeed.
        assert!(m.alloc(4 * PAGE_SIZE).is_ok());
    }

    #[test]
    fn out_of_range_access_rejected() {
        let mut m = mem();
        let high = HostMemory::DRAM_BASE.offset(1 << 20);
        assert!(matches!(
            m.write(high, &[0]),
            Err(FabricError::UnmappedAddress { .. })
        ));
        let mut b = [0u8];
        assert!(matches!(
            m.read(PhysAddr(0), &mut b),
            Err(FabricError::UnmappedAddress { .. })
        ));
    }

    #[test]
    fn watch_fires_on_overlap_only() {
        let mut m = mem();
        let a = m.alloc(PAGE_SIZE).unwrap();
        let w = m.watch(a.offset(100), 16);
        // Non-overlapping write: no permit stored.
        m.write(a, &[1u8; 50]).unwrap();
        assert_eq!(w.notify.waiter_count(), 0);
        // Overlapping write stores a permit we can consume synchronously.
        m.write(a.offset(110), &[2u8; 4]).unwrap();
        let rt = simcore::SimRuntime::new();
        let n = w.notify.clone();
        rt.block_on(async move { n.notified().await });
        // Unwatch: further writes don't fire.
        m.unwatch(&w);
        m.write(a.offset(110), &[3u8; 4]).unwrap();
        let n2 = w.notify.clone();
        let rt2 = simcore::SimRuntime::new();
        let jh = rt2.handle().spawn(async move { n2.notified().await });
        rt2.run();
        assert!(!jh.is_finished(), "watch must not fire after unwatch");
    }
}
