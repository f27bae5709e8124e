//! The SmartIO host-abstraction service (§IV).
//!
//! One logical service instance spans the cluster (in reality a daemon on
//! every host exchanging metadata; here one shared object — the metadata
//! exchange is not on any measured path). It provides:
//!
//! * cluster-wide **device identifiers** and discovery,
//! * device **BARs exported as segments** (mappable from any host),
//! * device **acquire/release** with exclusive and shared references,
//! * **segments** allocated by access-pattern hints,
//! * **CPU mappings** (segment → local NTB window) and **DMA windows**
//!   (segment → device-side NTB mapping) with automatic address
//!   resolution, so driver code never handles another host's physical
//!   address space directly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use pcie::{DeviceId, DomainAddr, Fabric, HostId, MemRegion, NtbId, PhysAddr};

use crate::error::{Result, SmartIoError};
use crate::hints::AccessHints;

/// Cluster-wide segment identifier.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SegmentId(pub u32);

/// Cluster-wide device identifier (stable regardless of which host the
/// device sits in).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SmartDeviceId(pub u32);

/// How a device reference is held.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BorrowMode {
    /// Sole holder; required for reset/bring-up.
    Exclusive,
    /// One of many concurrent holders.
    Shared,
}

#[derive(Clone, Debug)]
enum SegmentKind {
    /// Ordinary DRAM segment (we own the allocation).
    Dram,
    /// A device BAR exported as a segment.
    Bar,
}

struct SegmentInfo {
    region: MemRegion,
    kind: SegmentKind,
    exported: bool,
    /// The host that created the segment (not necessarily where it
    /// lives: hint-placed segments may land device-side). Crash recovery
    /// reclaims everything a dead owner left behind.
    owner: HostId,
}

#[derive(Default)]
struct BorrowState {
    exclusive: Option<HostId>,
    shared: Vec<HostId>,
}

struct DeviceInfo {
    dev: DeviceId,
    host: HostId,
    bar_segments: Vec<SegmentId>,
    borrow: BorrowState,
}

/// A CPU mapping of a (possibly remote) segment: the address range the
/// local CPU reads/writes.
#[derive(Copy, Clone, Debug)]
pub struct CpuMapping {
    /// The mapped segment.
    pub segment: SegmentId,
    /// Where the mapping host accesses the segment.
    pub region: MemRegion,
    /// LUT slots to free on unmap (None when the segment was local).
    slots: Option<(NtbId, usize, usize)>,
}

/// A DMA window: the bus address range a *device* uses to reach a segment
/// (or, for the IOMMU-style extension, a raw memory region).
#[derive(Copy, Clone, Debug)]
pub struct DmaWindow {
    /// `None` for raw-region mappings ([`SmartIo::map_region_for_device`]).
    pub segment: Option<SegmentId>,
    /// The device the window belongs to.
    pub device: SmartDeviceId,
    /// Bus address in the device's domain.
    pub bus_base: PhysAddr,
    /// Window length in bytes.
    pub len: u64,
    slots: Option<(NtbId, usize, usize)>,
}

/// Registry entry for a hinted user allocation: the CPU view and the
/// device's pre-programmed DMA window over the same bytes.
struct HintedInfo {
    device: SmartDeviceId,
    cpu: CpuMapping,
    win: DmaWindow,
}

/// A user buffer allocated by [`SmartIo::alloc_hinted`]: hint-placed,
/// CPU-mapped, and pre-programmed into one device's DMA window so the
/// datapath can DMA straight to/from it (zero-copy) without per-I/O
/// window programming.
#[derive(Copy, Clone, Debug)]
pub struct HintedAlloc {
    /// The backing segment (pass to [`SmartIo::free_hinted`]).
    pub segment: SegmentId,
    /// Where the allocating host's CPU reads/writes the buffer.
    pub region: MemRegion,
    /// The device's bus address of `region.addr`.
    pub bus_base: PhysAddr,
}

struct State {
    // BTreeMaps, not HashMaps: `destroy_segment` and `devices()` iterate,
    // and iteration order must not depend on hasher state (determinism).
    segments: BTreeMap<SegmentId, SegmentInfo>,
    devices: BTreeMap<SmartDeviceId, DeviceInfo>,
    names: BTreeMap<String, SegmentId>,
    /// Hinted user allocations ([`SmartIo::alloc_hinted`]), by segment.
    hinted: BTreeMap<SegmentId, HintedInfo>,
    /// Live LUT window ranges, tagged with the host they serve:
    /// (owner, adapter, first slot, slot count). Normal unmaps remove
    /// their entry; [`SmartIo::purge_owner`] sweeps what a crashed host
    /// left programmed.
    windows: Vec<(HostId, NtbId, usize, usize)>,
    next_segment: u32,
    next_device: u32,
}

/// What [`SmartIo::purge_owner`] reclaimed for a crashed host.
#[derive(Default, Clone, Copy, Debug)]
pub struct PurgeReport {
    /// DRAM segments destroyed.
    pub segments: usize,
    /// NTB LUT window ranges cleared.
    pub windows: usize,
    /// Device borrow references dropped.
    pub borrows: usize,
}

/// The service handle (cheaply cloneable).
#[derive(Clone)]
pub struct SmartIo {
    fabric: Fabric,
    state: Rc<RefCell<State>>,
}

impl SmartIo {
    /// A fresh service over `fabric`.
    pub fn new(fabric: &Fabric) -> Self {
        SmartIo {
            fabric: fabric.clone(),
            state: Rc::new(RefCell::new(State {
                segments: BTreeMap::new(),
                devices: BTreeMap::new(),
                names: BTreeMap::new(),
                hinted: BTreeMap::new(),
                windows: Vec::new(),
                next_segment: 1,
                next_device: 1,
            })),
        }
    }

    /// The fabric this service manages.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    // ------------------------------------------------------------------
    // Device registry
    // ------------------------------------------------------------------

    /// Register a PCIe device with the service; its BARs are automatically
    /// exported as segments.
    pub fn register_device(&self, dev: DeviceId) -> Result<SmartDeviceId> {
        let host = self.fabric.device_host(dev);
        let mut st = self.state.borrow_mut();
        let id = SmartDeviceId(st.next_device);
        st.next_device += 1;
        let mut bar_segments = Vec::new();
        for bar in 0u8..6 {
            match self.fabric.bar_region(dev, bar) {
                Ok(region) => {
                    let sid = SegmentId(st.next_segment);
                    st.next_segment += 1;
                    st.segments.insert(
                        sid,
                        SegmentInfo {
                            region,
                            kind: SegmentKind::Bar,
                            exported: true,
                            owner: host,
                        },
                    );
                    bar_segments.push(sid);
                }
                Err(_) => break,
            }
        }
        st.devices.insert(
            id,
            DeviceInfo {
                dev,
                host,
                bar_segments,
                borrow: BorrowState::default(),
            },
        );
        Ok(id)
    }

    /// All devices registered with the service (discovery), in id order.
    pub fn devices(&self) -> Vec<SmartDeviceId> {
        self.state.borrow().devices.keys().copied().collect()
    }

    /// The host a device physically resides in.
    pub fn device_host(&self, id: SmartDeviceId) -> Result<HostId> {
        let st = self.state.borrow();
        let d = st.devices.get(&id).ok_or(SmartIoError::NoSuchDevice(id))?;
        Ok(d.host)
    }

    /// Segment exporting BAR `bar` of the device.
    pub fn bar_segment(&self, id: SmartDeviceId, bar: u8) -> Result<SegmentId> {
        let st = self.state.borrow();
        let d = st.devices.get(&id).ok_or(SmartIoError::NoSuchDevice(id))?;
        d.bar_segments
            .get(bar as usize)
            .copied()
            .ok_or(SmartIoError::Fabric(pcie::FabricError::BadBar {
                dev: d.dev,
                bar,
            }))
    }

    // ------------------------------------------------------------------
    // Device borrowing
    // ------------------------------------------------------------------

    /// Acquire a device reference. Exclusive acquisition fails while any
    /// reference exists; shared acquisition fails only during an exclusive
    /// borrow. (The §IV pattern: lock exclusively to reset/initialize,
    /// then release and let clients take shared references.)
    pub fn acquire(&self, id: SmartDeviceId, host: HostId, mode: BorrowMode) -> Result<()> {
        let mut st = self.state.borrow_mut();
        let d = st
            .devices
            .get_mut(&id)
            .ok_or(SmartIoError::NoSuchDevice(id))?;
        match mode {
            BorrowMode::Exclusive => {
                if d.borrow.exclusive.is_some() || !d.borrow.shared.is_empty() {
                    return Err(SmartIoError::Busy(id));
                }
                d.borrow.exclusive = Some(host);
            }
            BorrowMode::Shared => {
                if d.borrow.exclusive.is_some() {
                    return Err(SmartIoError::Busy(id));
                }
                d.borrow.shared.push(host);
            }
        }
        Ok(())
    }

    /// Drop `host`'s reference (exclusive or shared).
    pub fn release(&self, id: SmartDeviceId, host: HostId) -> Result<()> {
        let mut st = self.state.borrow_mut();
        let d = st
            .devices
            .get_mut(&id)
            .ok_or(SmartIoError::NoSuchDevice(id))?;
        if d.borrow.exclusive == Some(host) {
            d.borrow.exclusive = None;
            return Ok(());
        }
        if let Some(pos) = d.borrow.shared.iter().position(|h| *h == host) {
            d.borrow.shared.remove(pos);
            return Ok(());
        }
        Err(SmartIoError::NotOwner(id, host))
    }

    /// Current holders: (exclusive, shared count).
    pub fn borrow_state(&self, id: SmartDeviceId) -> Result<(Option<HostId>, usize)> {
        let st = self.state.borrow();
        let d = st.devices.get(&id).ok_or(SmartIoError::NoSuchDevice(id))?;
        Ok((d.borrow.exclusive, d.borrow.shared.len()))
    }

    // ------------------------------------------------------------------
    // Segments
    // ------------------------------------------------------------------

    /// Allocate a segment in `host`'s local memory (plain SISCI).
    pub fn create_segment(&self, host: HostId, size: u64) -> Result<SegmentId> {
        self.create_segment_owned(host, host, size)
    }

    fn create_segment_owned(&self, owner: HostId, host: HostId, size: u64) -> Result<SegmentId> {
        let region = self.fabric.alloc(host, size)?;
        let mut st = self.state.borrow_mut();
        let id = SegmentId(st.next_segment);
        st.next_segment += 1;
        st.segments.insert(
            id,
            SegmentInfo {
                region,
                kind: SegmentKind::Dram,
                exported: true,
                owner,
            },
        );
        Ok(id)
    }

    /// Allocate a segment letting the service pick the host from access
    /// hints (§IV extension): the reader side wins. The segment stays
    /// *owned* by `cpu_host` even when placed device-side, so a crashed
    /// client's device-side rings are reclaimable.
    pub fn create_segment_hinted(
        &self,
        cpu_host: HostId,
        device: SmartDeviceId,
        size: u64,
        hints: AccessHints,
    ) -> Result<SegmentId> {
        let dev_host = self.device_host(device)?;
        let host = if hints.prefers_device_side() {
            dev_host
        } else {
            cpu_host
        };
        self.create_segment_owned(cpu_host, host, size)
    }

    /// Allocate a *user buffer* placed by access hints and pre-mapped for
    /// DMA by `device` — the zero-copy datapath's allocation primitive.
    ///
    /// Plain [`SmartIo::create_segment`] buffers are CPU-reachable only;
    /// every I/O must stage through a bounce partition. An `alloc_hinted`
    /// buffer additionally gets a DMA window programmed **once**, at
    /// allocation time, and the (device, CPU range → bus base) pair is
    /// registered with the service, so the datapath can translate any
    /// in-range CPU address with [`SmartIo::dma_translate`] and point PRPs
    /// straight at the user memory — no per-I/O window programming, no
    /// staging copy. Free with [`SmartIo::free_hinted`].
    pub fn alloc_hinted(
        &self,
        host: HostId,
        device: SmartDeviceId,
        size: u64,
        hints: AccessHints,
    ) -> Result<HintedAlloc> {
        let segment = self.create_segment_hinted(host, device, size, hints)?;
        let cpu = self.map_for_cpu(host, segment)?;
        let win = self.map_for_device(device, segment)?;
        let alloc = HintedAlloc {
            segment,
            region: cpu.region,
            bus_base: win.bus_base,
        };
        self.state
            .borrow_mut()
            .hinted
            .insert(segment, HintedInfo { device, cpu, win });
        Ok(alloc)
    }

    /// Release a hinted allocation: tear down its DMA window and CPU
    /// mapping, deregister it, and destroy the segment.
    pub fn free_hinted(&self, segment: SegmentId) -> Result<()> {
        let info = self
            .state
            .borrow_mut()
            .hinted
            .remove(&segment)
            .ok_or(SmartIoError::NoSuchSegment(segment))?;
        self.unmap_device(info.win);
        self.unmap_cpu(info.cpu);
        self.destroy_segment(segment)
    }

    /// The bus address `device` uses for `region`, when `region` falls
    /// entirely inside a hinted allocation pre-mapped for that device —
    /// `None` means the buffer is not DMA-reachable and the datapath must
    /// stage through the bounce buffer instead.
    pub fn dma_translate(&self, device: SmartDeviceId, region: MemRegion) -> Option<PhysAddr> {
        let st = self.state.borrow();
        for info in st.hinted.values() {
            if info.device != device || info.cpu.region.host != region.host {
                continue;
            }
            let base = info.cpu.region.addr;
            let end = base.offset(info.cpu.region.len);
            if region.addr >= base && region.addr.offset(region.len) <= end {
                let off = region.addr.0 - base.0;
                return Some(info.win.bus_base.offset(off));
            }
        }
        None
    }

    /// Give a segment a well-known name (bootstrap metadata, e.g. the
    /// manager's mailbox).
    pub fn publish(&self, name: &str, id: SegmentId) -> Result<()> {
        let mut st = self.state.borrow_mut();
        if !st.segments.contains_key(&id) {
            return Err(SmartIoError::NoSuchSegment(id));
        }
        st.names.insert(name.to_string(), id);
        Ok(())
    }

    /// Resolve a published segment name.
    pub fn lookup(&self, name: &str) -> Result<SegmentId> {
        self.state
            .borrow()
            .names
            .get(name)
            .copied()
            .ok_or_else(|| SmartIoError::NameNotFound(name.to_string()))
    }

    /// The backing region of a segment (its home location).
    pub fn segment_region(&self, id: SegmentId) -> Result<MemRegion> {
        let st = self.state.borrow();
        st.segments
            .get(&id)
            .map(|s| s.region)
            .ok_or(SmartIoError::NoSuchSegment(id))
    }

    /// Which host a segment physically lives in.
    pub fn segment_host(&self, id: SegmentId) -> Result<HostId> {
        Ok(self.segment_region(id)?.host)
    }

    /// Free a DRAM segment (BAR segments live as long as the device).
    pub fn destroy_segment(&self, id: SegmentId) -> Result<()> {
        let mut st = self.state.borrow_mut();
        let info = st
            .segments
            .remove(&id)
            .ok_or(SmartIoError::NoSuchSegment(id))?;
        st.names.retain(|_, v| *v != id);
        if matches!(info.kind, SegmentKind::Dram) {
            drop(st);
            self.fabric.release(info.region);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Mappings
    // ------------------------------------------------------------------

    /// Map a segment for CPU access from `host`. Local segments map
    /// directly; remote ones get NTB window slots programmed.
    pub fn map_for_cpu(&self, host: HostId, id: SegmentId) -> Result<CpuMapping> {
        let (region, exported) = {
            let st = self.state.borrow();
            let s = st
                .segments
                .get(&id)
                .ok_or(SmartIoError::NoSuchSegment(id))?;
            (s.region, s.exported)
        };
        if !exported {
            return Err(SmartIoError::NotExported(id));
        }
        if region.host == host {
            return Ok(CpuMapping {
                segment: id,
                region,
                slots: None,
            });
        }
        let (ntb, first_slot, n, window_addr) = self.program_window(host, host, region)?;
        Ok(CpuMapping {
            segment: id,
            region: MemRegion::new(host, window_addr, region.len),
            slots: Some((ntb, first_slot, n)),
        })
    }

    /// Tear down a CPU mapping, freeing its LUT slots.
    pub fn unmap_cpu(&self, mapping: CpuMapping) {
        self.clear_window(mapping.slots);
    }

    fn clear_window(&self, slots: Option<(NtbId, usize, usize)>) {
        if let Some((ntb, first, n)) = slots {
            self.state
                .borrow_mut()
                .windows
                .retain(|&(_, w_ntb, w_first, w_n)| (w_ntb, w_first, w_n) != (ntb, first, n));
            for s in first..first + n {
                let _ = self.fabric.clear_lut(ntb, s);
            }
        }
    }

    /// Map a segment for DMA by `device` ("DMA window", §IV). The device
    /// receives a bus address valid in its own domain; the service
    /// resolves everything else.
    pub fn map_for_device(&self, device: SmartDeviceId, id: SegmentId) -> Result<DmaWindow> {
        let region = self.segment_region(id)?;
        let mut win = self.map_region_for_device(device, region)?;
        win.segment = Some(id);
        Ok(win)
    }

    /// Map a *raw* memory region for DMA by `device` — the paper's
    /// future-work IOMMU path: dynamically mapping an arbitrary request
    /// buffer instead of staging through a registered bounce segment.
    pub fn map_region_for_device(
        &self,
        device: SmartDeviceId,
        region: MemRegion,
    ) -> Result<DmaWindow> {
        let dev_host = self.device_host(device)?;
        if region.host == dev_host {
            // Local to the device: bus address == physical address.
            return Ok(DmaWindow {
                segment: None,
                device,
                bus_base: region.addr,
                len: region.len,
                slots: None,
            });
        }
        // The window serves the host the memory lives in: that host's
        // crash is what makes the mapping garbage.
        let (ntb, first_slot, n, window_addr) =
            self.program_window(region.host, dev_host, region)?;
        Ok(DmaWindow {
            segment: None,
            device,
            bus_base: window_addr,
            len: region.len,
            slots: Some((ntb, first_slot, n)),
        })
    }

    /// Tear down a DMA window, freeing its LUT slots.
    pub fn unmap_device(&self, window: DmaWindow) {
        self.clear_window(window.slots);
    }

    /// Reclaim everything a crashed (or lease-expired) host left behind:
    /// its device borrow references, every LUT window range programmed on
    /// its behalf, and every DRAM segment it created — including
    /// hint-placed segments living device-side. The §V manager calls this
    /// when a client's lease expires, so the adapters' finite LUT space
    /// and the device-side memory become reusable.
    pub fn purge_owner(&self, owner: HostId) -> PurgeReport {
        let mut report = PurgeReport::default();
        let (dead_windows, dead_segments) = {
            let mut st = self.state.borrow_mut();
            for d in st.devices.values_mut() {
                if d.borrow.exclusive == Some(owner) {
                    d.borrow.exclusive = None;
                    report.borrows += 1;
                }
                let before = d.borrow.shared.len();
                d.borrow.shared.retain(|h| *h != owner);
                report.borrows += before - d.borrow.shared.len();
            }
            let dead_windows: Vec<(NtbId, usize, usize)> = st
                .windows
                .iter()
                .filter(|(o, _, _, _)| *o == owner)
                .map(|&(_, ntb, first, n)| (ntb, first, n))
                .collect();
            st.windows.retain(|(o, _, _, _)| *o != owner);
            let dead_segments: Vec<SegmentId> = st
                .segments
                .iter()
                .filter(|(_, s)| s.owner == owner && matches!(s.kind, SegmentKind::Dram))
                .map(|(id, _)| *id)
                .collect();
            (dead_windows, dead_segments)
        };
        for (ntb, first, n) in dead_windows {
            report.windows += 1;
            for s in first..first + n {
                let _ = self.fabric.clear_lut(ntb, s);
            }
        }
        for id in dead_segments {
            if self.destroy_segment(id).is_ok() {
                report.segments += 1;
            }
        }
        report
    }

    /// Program consecutive LUT slots on one of `host`'s adapters to cover
    /// `region`; returns (ntb, first_slot, count, window_address).
    ///
    /// The slot granularity means `region.addr` must share the slot-size
    /// alignment offset; our segments are page-aligned and slots are ≥ 2
    /// MiB, so we map from the containing slot-aligned base and offset the
    /// returned window address.
    fn program_window(
        &self,
        owner: HostId,
        host: HostId,
        region: MemRegion,
    ) -> Result<(NtbId, usize, usize, PhysAddr)> {
        let ntb = self
            .fabric
            .first_ntb_of(host)
            .ok_or(SmartIoError::NoPath { host })?;
        let slot_size = self.fabric.ntb_slot_size(ntb);
        let base = region.addr.align_down(slot_size);
        let offset = region.addr.align_offset(slot_size);
        let n = ((offset + region.len).div_ceil(slot_size)) as usize;
        let first = self
            .fabric
            .find_free_lut_range(ntb, n)
            .map_err(|_| SmartIoError::SlotsUnavailable { needed: n })?;
        let mut window_base = PhysAddr(0);
        for i in 0..n {
            let addr = self.fabric.program_lut(
                ntb,
                first + i,
                DomainAddr::new(region.host, base.offset(i as u64 * slot_size)),
            )?;
            if i == 0 {
                window_base = addr;
            }
        }
        self.state.borrow_mut().windows.push((owner, ntb, first, n));
        Ok((ntb, first, n, window_base.offset(offset)))
    }
}
