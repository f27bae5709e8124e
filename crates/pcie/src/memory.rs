//! Host DRAM model: sparse page-granular backing store, a segment
//! allocator, and write-watches.
//!
//! The backing store is a [`PageTable`]: shared, copy-on-write pages, so a
//! page-aligned transfer moves references instead of bytes (see
//! [`crate::payload`]). The storage medium model keeps its blocks in the
//! same structure.
//!
//! Watches are the simulation analog of cache-line polling: a task that
//! would spin on a completion-queue cache line instead parks on the watch's
//! [`Notify`] and is woken at the exact virtual instant the DMA write
//! lands. (Detection cost on a real CPU is added by the *driver* model,
//! not here.)

use std::rc::Rc;

use simcore::sync::Notify;
use simcore::IntMap;

use crate::addr::PhysAddr;
use crate::error::{FabricError, Result};
use crate::payload::{make_mut, new_page, recycle, zero_page, Page, Payload, PAGE};

/// Memory page granularity of the allocator and backing store.
pub const PAGE_SIZE: u64 = 4096;

/// Sparse byte store of shared copy-on-write pages, addressed by byte
/// offset. An absent page reads as zeros, so space nobody wrote costs
/// nothing. A page may be shared with payloads in flight and with other
/// tables: every in-place store first makes the page unshared (copying it
/// if it is not), so a holder of a reference keeps reading what was there
/// when it took it.
#[derive(Default)]
pub struct PageTable {
    pages: IntMap<u64, Rc<Page>>,
}

/// `[off, off + len)` cut at page boundaries: `(page index, offset in
/// page, bytes)` per piece.
fn page_pieces(off: u64, len: u64) -> impl Iterator<Item = (u64, usize, usize)> {
    let mut off = off;
    let mut left = len;
    std::iter::from_fn(move || {
        if left == 0 {
            return None;
        }
        let in_page = off % PAGE_SIZE;
        let n = left.min(PAGE_SIZE - in_page);
        let piece = (off / PAGE_SIZE, in_page as usize, n as usize);
        off += n;
        left -= n;
        Some(piece)
    })
}

impl PageTable {
    /// Copy `buf.len()` bytes starting at `off` into `buf`.
    pub fn read(&self, off: u64, buf: &mut [u8]) {
        let mut rest = buf;
        for (idx, in_page, n) in page_pieces(off, rest.len() as u64) {
            let (head, tail) = rest.split_at_mut(n);
            match self.pages.get(&idx) {
                Some(page) => head.copy_from_slice(&page[in_page..in_page + n]),
                None => head.fill(0),
            }
            rest = tail;
        }
    }

    /// Store `data` at `off`. A whole-page piece overwrites an unshared
    /// resident page in place and otherwise *is* the new page — it never
    /// clones bytes it is about to replace.
    pub fn write(&mut self, off: u64, data: &[u8]) {
        let mut rest = data;
        for (idx, in_page, n) in page_pieces(off, rest.len() as u64) {
            let (head, tail) = rest.split_at(n);
            if n == PAGE {
                match self.pages.get_mut(&idx).and_then(Rc::get_mut) {
                    Some(page) => page.copy_from_slice(head),
                    None => {
                        self.pages.insert(idx, new_page(head));
                    }
                }
            } else {
                let page = self.pages.entry(idx).or_insert_with(zero_page);
                make_mut(page)[in_page..in_page + n].copy_from_slice(head);
            }
            rest = tail;
        }
    }

    /// The `len` bytes at `off` as a payload: by reference (no byte is
    /// copied) when the range is whole aligned pages, by copy otherwise.
    pub fn snapshot(&self, off: u64, len: usize) -> Payload {
        if len > 0 && off.is_multiple_of(PAGE_SIZE) && len.is_multiple_of(PAGE) {
            let first = off / PAGE_SIZE;
            let pages = first..first + (len / PAGE) as u64;
            Payload::from_pages(pages.map(|idx| self.pages.get(&idx).cloned()))
        } else {
            Payload::filled_with(len, |buf| self.read(off, buf))
        }
    }

    /// Store a payload at `off`. Whole pages landing on a page boundary
    /// are *adopted* — the table takes a reference and drops whatever page
    /// it held — and anything else is copied in.
    pub fn write_payload(&mut self, off: u64, data: &Payload) {
        match data.pages() {
            Some(pages) if off.is_multiple_of(PAGE_SIZE) => {
                for (idx, page) in (off / PAGE_SIZE..).zip(pages) {
                    let old = match page {
                        Some(page) => self.pages.insert(idx, page.clone()),
                        None => self.pages.remove(&idx),
                    };
                    old.into_iter().for_each(recycle);
                }
            }
            _ => {
                let mut at = off;
                for seg in data.segments() {
                    self.write(at, seg);
                    at += seg.len() as u64;
                }
            }
        }
    }

    /// Make `[off, off + len)` read as zeros: whole pages are freed, the
    /// ends of the range are cleared inside their (resident) pages.
    pub fn zero(&mut self, off: u64, len: u64) {
        for (idx, in_page, n) in page_pieces(off, len) {
            if n == PAGE {
                self.pages.remove(&idx).into_iter().for_each(recycle);
            } else if let Some(page) = self.pages.get_mut(&idx) {
                make_mut(page)[in_page..in_page + n].fill(0);
            }
        }
    }

    /// Pages currently held (diagnostic: a freed or never-written page is
    /// not counted).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

impl Drop for PageTable {
    fn drop(&mut self) {
        self.pages.drain().for_each(|(_, page)| recycle(page));
    }
}

/// DRAM of one host: sparse pages plus a first-fit segment allocator.
pub struct HostMemory {
    base: PhysAddr,
    size: u64,
    pages: PageTable,
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
            pages: PageTable::default(),
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
        // `checked_add`: an address near `u64::MAX` (a corrupt PRP) must
        // not wrap around into range.
        addr >= self.base
            && addr
                .0
                .checked_add(len)
                .is_some_and(|end| end <= self.base.0 + self.size)
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
        self.pages.write(addr.as_u64(), data);
        self.fire_watches(addr.as_u64(), addr.as_u64() + data.len() as u64);
        Ok(())
    }

    /// [`HostMemory::write`] of an owned payload: whole pages landing on a
    /// page boundary are adopted by reference. Fires watches once.
    pub fn write_payload(&mut self, addr: PhysAddr, data: &Payload) -> Result<()> {
        self.check(addr, data.len() as u64)?;
        self.pages.write_payload(addr.as_u64(), data);
        self.fire_watches(addr.as_u64(), addr.as_u64() + data.len() as u64);
        Ok(())
    }

    /// Functional read.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<()> {
        self.check(addr, buf.len() as u64)?;
        self.pages.read(addr.as_u64(), buf);
        Ok(())
    }

    /// [`HostMemory::read`] into an owned payload: whole aligned pages are
    /// taken by reference, and later writes to them do not show through.
    pub fn snapshot(&self, addr: PhysAddr, len: u64) -> Result<Payload> {
        self.check(addr, len)?;
        Ok(self.pages.snapshot(addr.as_u64(), len as usize))
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
    fn a_range_wrapping_past_u64_max_is_outside_dram() {
        let mut m = mem();
        let top = PhysAddr(u64::MAX - 100);
        assert!(!m.contains(top, 4096));
        assert!(!m.contains(HostMemory::DRAM_BASE, u64::MAX));
        assert!(m.write(top, &[1; 4096]).is_err());
        assert!(m.write_payload(top, &Payload::zeroed(4096)).is_err());
        assert!(m.read(top, &mut [0; 4096]).is_err());
        assert!(m.snapshot(top, 4096).is_err());
    }

    fn page_ptr(t: &PageTable, off: u64) -> *const Page {
        Rc::as_ptr(t.snapshot(off, PAGE).pages().unwrap()[0].as_ref().unwrap())
    }

    #[test]
    fn whole_page_write_overwrites_in_place_unless_the_page_is_shared() {
        let mut t = PageTable::default();
        t.write(0, &[1; PAGE]);
        let first = page_ptr(&t, 0);
        t.write(0, &[2; PAGE]);
        assert_eq!(page_ptr(&t, 0), first, "unshared: overwritten in place");
        let held = t.snapshot(0, PAGE);
        t.write(0, &[3; PAGE]);
        assert_ne!(
            page_ptr(&t, 0),
            first,
            "shared: a new page, no clone-then-overwrite"
        );
        assert_eq!(held.to_vec(), [2; PAGE]);
        // A partial write to a shared page copies it first.
        let held = t.snapshot(0, PAGE);
        t.write(10, &[4; 20]);
        assert_eq!(held.to_vec(), [3; PAGE]);
        let mut got = [0u8; 40];
        t.read(0, &mut got);
        assert_eq!(got[..10], [3; 10]);
        assert_eq!(got[10..30], [4; 20]);
        assert_eq!(got[30..], [3; 10]);
    }

    #[test]
    fn adoption_shares_and_absent_pages_stay_absent() {
        let (mut a, mut b) = (PageTable::default(), PageTable::default());
        a.write(PAGE_SIZE, &[7; PAGE]);
        b.write(0, &[9; 3 * PAGE]);
        // Pages 0 and 2 of the snapshot are absent in `a`.
        b.write_payload(0, &a.snapshot(0, 3 * PAGE));
        assert_eq!(
            b.resident_pages(),
            1,
            "adopting an absent page frees the slot"
        );
        assert_eq!(page_ptr(&b, PAGE_SIZE), page_ptr(&a, PAGE_SIZE));
        // Off a page boundary the same payload is copied in.
        b.write_payload(512, &a.snapshot(0, 3 * PAGE));
        let mut got = vec![0u8; 4 * PAGE];
        b.read(0, &mut got);
        assert!(got[..PAGE + 512].iter().all(|&x| x == 0));
        assert!(got[PAGE + 512..2 * PAGE + 512].iter().all(|&x| x == 7));
        assert!(got[2 * PAGE + 512..].iter().all(|&x| x == 0));
    }

    #[test]
    fn zero_frees_whole_pages_and_clears_the_ragged_ends() {
        let mut t = PageTable::default();
        t.write(0, &[5; 4 * PAGE]);
        t.zero(PAGE_SIZE - 512, 2 * PAGE_SIZE + 1024);
        assert_eq!(t.resident_pages(), 2, "pages 1 and 2 are gone");
        let mut got = vec![0u8; 4 * PAGE];
        t.read(0, &mut got);
        assert!(got[..PAGE - 512].iter().all(|&x| x == 5));
        assert!(got[PAGE - 512..3 * PAGE + 512].iter().all(|&x| x == 0));
        assert!(got[3 * PAGE + 512..].iter().all(|&x| x == 5));
        // Zeroing what was never written allocates nothing.
        t.zero(10 * PAGE_SIZE + 8, 100);
        assert_eq!(t.resident_pages(), 2);
    }

    #[test]
    fn a_dropped_table_hands_its_unshared_pages_to_the_next() {
        let mut old = PageTable::default();
        old.write(0, &[1; 3 * PAGE]);
        let ptrs = [0, 1, 2].map(|i| page_ptr(&old, i * PAGE_SIZE));
        let held = old.snapshot(0, PAGE);
        drop(old);
        // The shared page was not recycled: its holder is now its only
        // owner and still reads the same bytes.
        let page = held.pages().unwrap()[0].as_ref().unwrap();
        assert_eq!(Rc::strong_count(page), 1);
        assert_eq!(held.to_vec(), [1; PAGE]);
        let mut new = PageTable::default();
        new.write(0, &[2; 2 * PAGE]);
        for i in 0..2 {
            assert!(ptrs[1..].contains(&page_ptr(&new, i * PAGE_SIZE)));
        }
        let mut got = [0u8; 2 * PAGE];
        new.read(0, &mut got);
        assert_eq!(got, [2; 2 * PAGE]);
    }

    #[test]
    fn the_spare_list_does_not_grow_over_identical_build_and_drop_rounds() {
        // Whole-page, partial and copy-on-write allocations all draw from
        // the list a dropped table feeds, so a round takes out what the
        // previous one put in.
        let round = || {
            let mut t = PageTable::default();
            t.write(0, &[1; 2 * PAGE]);
            t.write(5 * PAGE_SIZE + 100, &[2; 50]);
            let held = t.snapshot(0, PAGE);
            t.write(8, &[3; 8]);
            t.zero(PAGE_SIZE, 16);
            drop(held);
        };
        round();
        let after_one = crate::payload::spare_pages();
        assert_eq!(after_one, 3, "pages 0, 1 and 5");
        for _ in 0..3 {
            round();
            assert_eq!(crate::payload::spare_pages(), after_one);
        }
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
