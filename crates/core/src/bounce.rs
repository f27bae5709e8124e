//! The partitioned bounce buffer (§V).
//!
//! NTB mappings cannot be reprogrammed per request without stalling the
//! I/O path, so the client registers one large DMA-buffer segment up
//! front, partitions it per request tag, and stages data through it. "The
//! benefit of this approach is that NVMe DMA descriptors can be
//! programmed once" — the PRP lists below are written exactly once, at
//! connect time, into one table: each tag's list sits at a power-of-two
//! stride, so no list crosses a page and a page holds `PAGE / stride` of
//! them (sixteen for the 31 entries of a 128 KiB partition).

use pcie::{MemRegion, PhysAddr};
use smartio::{AccessHints, DmaWindow, SegmentId, SmartDeviceId, SmartIo};

use crate::error::{DnvmeError, Result};

const PAGE: u64 = nvme::spec::prp::PAGE;

/// Bounce-layout overlap check: every request tag must own a disjoint
/// byte range of the DMA window, or two in-flight commands DMA into each
/// other's staging space. Reports `dnvme.bounce-overlap` for each
/// overlapping pair of `(bus_base, len)` ranges (recorded only on a
/// runtime armed with `simcore::sanitize::arm`). [`BouncePool::new`] runs
/// it on the real layout; tests can feed a deliberately broken one.
///
/// Sort-by-start sweep: O(n log n + k) for k overlapping pairs, instead
/// of the quadratic all-pairs scan — the layout grows with `tags ×
/// qpairs` under sharding, and this runs on every connect. Reports are
/// emitted in the same `(i, j)` order as the old pairwise scan.
pub fn sanitize_check_partitions(handle: &simcore::Handle, parts: &[(PhysAddr, u64)]) {
    let mut order: Vec<usize> = (0..parts.len()).collect();
    order.sort_unstable_by_key(|&i| (parts[i].0, i));
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (pos, &i) in order.iter().enumerate() {
        let (a_start, a_len) = parts[i];
        let a_end = a_start.offset(a_len);
        for &j in &order[pos + 1..] {
            let (b_start, b_len) = parts[j];
            // Sorted by start: once a candidate begins at or past our
            // end, every later one does too.
            if b_start >= a_end {
                break;
            }
            // `b_start < a_end` holds; the other half of the overlap
            // predicate guards zero-length ranges sharing a start.
            if a_start < b_start.offset(b_len) {
                pairs.push(if i < j { (i, j) } else { (j, i) });
            }
        }
    }
    pairs.sort_unstable();
    for (i, j) in pairs {
        let (a_start, a_len) = parts[i];
        let (b_start, b_len) = parts[j];
        handle.sanitize_report(
            "dnvme.bounce-overlap",
            format!(
                "bounce ranges {i} and {j} overlap: {a_start}+{a_len:#x} vs {b_start}+{b_len:#x}"
            ),
        );
    }
}

/// How one request's data travels between the user buffer and the
/// device — the [`BouncePool::staging`] decision.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Staging {
    /// Stage through the tag's partition (the §V copy path): PRPs point
    /// at the partition, and the driver memcpys user ⇄ partition around
    /// the command.
    Bounce {
        /// First PRP (partition base).
        prp1: PhysAddr,
        /// Second PRP (page 2, list pointer, or 0).
        prp2: PhysAddr,
    },
    /// DMA straight to/from the user buffer: PRPs point at the hinted
    /// user segment ([`smartio::SmartIo::alloc_hinted`]) and the staging
    /// memcpy disappears from the submit/complete path.
    ZeroCopy {
        /// First PRP (user buffer, device bus address).
        prp1: PhysAddr,
        /// Second PRP (second page or 0).
        prp2: PhysAddr,
    },
}

/// One bounce partition per request tag, with precomputed PRPs.
pub struct BouncePool {
    /// Client-local CPU view of the whole buffer.
    region: MemRegion,
    /// Device view (through the device-side NTB when remote).
    window: DmaWindow,
    segment: SegmentId,
    /// The PRP-list table's segment and device window; `None` when a
    /// partition spans at most two pages, which PRP1 and PRP2 address
    /// without a list.
    lists: Option<(SegmentId, DmaWindow)>,
    /// Bytes from one tag's list to the next: the list's size rounded up
    /// to a power of two.
    list_stride: u64,
    device: SmartDeviceId,
    partition: u64,
    tags: usize,
}

impl BouncePool {
    /// Allocate and map the buffer and the PRP-list table, and write every
    /// PRP list once.
    pub fn new(
        smartio: &SmartIo,
        device: SmartDeviceId,
        client: pcie::HostId,
        tags: usize,
        partition: u64,
    ) -> Result<BouncePool> {
        if !partition.is_multiple_of(PAGE) || partition == 0 {
            return Err(DnvmeError::BadConfig(format!(
                "bounce partition {partition:#x} must be a positive multiple of the {PAGE:#x} page"
            )));
        }
        let pages_per_partition = partition / PAGE;
        if pages_per_partition > 512 {
            return Err(DnvmeError::BadConfig(
                "partition exceeds one PRP list page (2 MiB)".into(),
            ));
        }
        // Hinted allocation: both sides read and write => client-local
        // (the device crosses the fabric with pipelined DMA; the CPU's
        // staging memcpy stays local).
        let segment = smartio.create_segment_hinted(
            client,
            device,
            tags as u64 * partition,
            AccessHints::buffer(),
        )?;
        let region = smartio.segment_region(segment)?;
        debug_assert_eq!(region.host, client, "bounce buffer must be client-local");
        let window = smartio.map_for_device(device, segment)?;

        // The PRP-list table, kept with the DMA buffer (client-local) and
        // written whole, once: entry i of tag t points at page i+1 of
        // partition t (bus addresses!). Two pages need no list.
        let fabric = smartio.fabric();
        let entries = pages_per_partition - 1;
        let list_stride = (entries * 8).next_power_of_two();
        let lists = if pages_per_partition <= 2 {
            None
        } else {
            let table_len = (tags as u64 * list_stride).next_multiple_of(PAGE);
            let list_segment = smartio.create_segment(client, table_len)?;
            let list_region = smartio.segment_region(list_segment)?;
            let list_window = smartio.map_for_device(device, list_segment)?;
            let mut table = vec![0u8; table_len as usize];
            let lists = table.chunks_exact_mut(list_stride as usize).take(tags);
            for (tag, list) in lists.enumerate() {
                let part_bus = window.bus_base.offset(tag as u64 * partition);
                for (i, entry) in (1..=entries).zip(list.chunks_exact_mut(8)) {
                    entry.copy_from_slice(&part_bus.offset(i * PAGE).to_le_bytes());
                }
            }
            fabric.mem_write(list_region.host, list_region.addr, &table)?;
            Some((list_segment, list_window))
        };
        if fabric.sanitize_armed() {
            let partitions =
                (0..tags as u64).map(|t| (window.bus_base.offset(t * partition), partition));
            let lists = lists.iter().flat_map(|(_, w)| {
                (0..tags as u64).map(move |t| (w.bus_base.offset(t * list_stride), list_stride))
            });
            let layout: Vec<(PhysAddr, u64)> = partitions.chain(lists).collect();
            sanitize_check_partitions(&fabric.handle(), &layout);
        }
        Ok(BouncePool {
            region,
            window,
            segment,
            lists,
            list_stride,
            device,
            partition,
            tags,
        })
    }

    /// Client-local region of tag `t`'s partition.
    pub fn partition(&self, tag: usize) -> MemRegion {
        assert!(tag < self.tags);
        self.region
            .slice(tag as u64 * self.partition, self.partition)
    }

    /// PRP1/PRP2 for a transfer of `len` bytes staged in tag `t`'s
    /// partition. Partitions are page aligned, so PRP1 never carries an
    /// offset; PRP2 is unused (≤1 page), the second page (≤2 pages), or
    /// the tag's precomputed list pointer, one stride per tag into the
    /// table.
    pub fn prps(&self, tag: usize, len: u64) -> (PhysAddr, PhysAddr) {
        assert!(tag < self.tags && len > 0 && len <= self.partition);
        let prp1 = self.window.bus_base.offset(tag as u64 * self.partition);
        let pages = len.div_ceil(PAGE);
        let prp2 = match (pages, &self.lists) {
            (1, _) => PhysAddr(0),
            (2, _) => prp1.offset(PAGE),
            (_, Some((_, lists))) => lists.bus_base.offset(tag as u64 * self.list_stride),
            (_, None) => unreachable!("a partition of three pages or more has a PRP list"),
        };
        (prp1, prp2)
    }

    /// Decide how a transfer of `len` bytes of `buf` on tag `tag` reaches
    /// the device. Zero-copy when the whole transfer can DMA directly:
    ///
    /// * the buffer range is covered by a hinted allocation pre-mapped
    ///   for this device ([`smartio::SmartIo::dma_translate`] hits),
    /// * the buffer start is page-aligned (PRP1 must not carry an offset
    ///   into a page the device would misinterpret for block data),
    /// * the transfer fits in PRP1+PRP2 (≤ 2 pages — larger transfers
    ///   would need a per-I/O PRP list, forfeiting the programmed-once
    ///   property), and
    /// * the transfer is within the partition-size limit.
    ///
    /// Everything else falls back to the bounce copy path, byte-for-byte
    /// identical in outcome.
    pub fn staging(&self, smartio: &SmartIo, tag: usize, buf: MemRegion, len: u64) -> Staging {
        if len > 0
            && len <= self.partition
            && len.div_ceil(PAGE) <= 2
            && buf.addr.align_offset(PAGE) == 0
            && buf.len >= len
        {
            if let Some(bus) = smartio.dma_translate(self.device, buf.slice(0, len)) {
                let prp2 = if len > PAGE {
                    bus.offset(PAGE)
                } else {
                    PhysAddr(0)
                };
                return Staging::ZeroCopy { prp1: bus, prp2 };
            }
        }
        let (prp1, prp2) = self.prps(tag, len);
        Staging::Bounce { prp1, prp2 }
    }

    /// Release mappings and segments.
    pub fn destroy(self, smartio: &SmartIo) {
        smartio.unmap_device(self.window);
        let _ = smartio.destroy_segment(self.segment);
        if let Some((list_segment, list_window)) = self.lists {
            smartio.unmap_device(list_window);
            let _ = smartio.destroy_segment(list_segment);
        }
    }
}
