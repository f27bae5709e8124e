//! The fabric: multiple PCIe address domains stitched together by NTBs.
//!
//! All timed operations come in two flavors matching PCIe semantics:
//!
//! * **Posted** (memory writes): the issuer pays only the issue cost; the
//!   write *applies* at the destination one propagation delay later.
//!   Posted writes issued back-to-back on the same path apply in order.
//! * **Non-posted** (memory reads, MMIO reads): the issuer waits the full
//!   round trip — which grows with every switch chip in the path. This
//!   asymmetry is why the paper places SQs device-side and CQs CPU-side
//!   (Fig. 8).
//!
//! Posted writes in flight wait in one queue until the *delivery pump*
//! applies them: a callback task of the executor (a plain function —
//! applying a write never suspends) that a timer per write makes runnable
//! at the write's due instant. A posted write costs the simulator two
//! steps, its issuer's wake and the pump's run; co-due writes share the
//! second.
//!
//! Untimed `mem_read`/`mem_write` accessors exist for test setup and for
//! modeling work done outside the measured path.
//!
//! A posted write owns its bytes as a [`Payload`] from issue to apply. The
//! `&[u8]` accessors wrap the payload ones; an agent that reads bytes only
//! to write them elsewhere uses the payload accessors (`mem_snapshot`,
//! `dma_read_payload`, `cpu_write_payload`, `dma_write_payload`,
//! `mem_adopt`) directly and moves whole pages by reference.

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use simcore::sched::{ChoiceKind, ChoiceOption, Footprint};
use simcore::sync::Notify;
use simcore::{Handle, SerialResource, SimDuration, SimTime, Stage, TaskId};

use crate::addr::{DeviceId, DomainAddr, HostId, MemRegion, NodeId, NtbId, PhysAddr};
use crate::device::MmioDevice;
use crate::error::{FabricError, Result};
use crate::fault::{FaultAction, FaultInjector, FaultPlan, SeverMode};
use crate::hb::{Agent, HbLog};
use crate::memory::{HostMemory, WatchHandle};
use crate::ntb::Ntb;
use crate::params::FabricParams;
use crate::payload::Payload;
use crate::topology::{NodeKind, Topology};

const MAX_TRANSLATION_DEPTH: usize = 4;
/// MMIO (BAR/NTB-window) space begins here in every domain; DRAM is above.
const MMIO_BASE: u64 = 0x2000_0000;

/// The NTB windows one translation walk crossed. A walk takes at most
/// [`MAX_TRANSLATION_DEPTH`] steps, so they fit inline.
struct Crossed {
    ids: [NtbId; MAX_TRANSLATION_DEPTH],
    len: usize,
}

impl Crossed {
    fn new() -> Self {
        Crossed {
            ids: [NtbId(0); MAX_TRANSLATION_DEPTH],
            len: 0,
        }
    }

    fn push(&mut self, ntb: NtbId) {
        self.ids[self.len] = ntb;
        self.len += 1;
    }
}

impl std::ops::Deref for Crossed {
    type Target = [NtbId];

    fn deref(&self) -> &[NtbId] {
        &self.ids[..self.len]
    }
}

/// Where an address resolves after NTB translation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Location {
    /// Host DRAM at the given domain address.
    Dram(DomainAddr),
    /// A device register region: `offset` bytes into `bar` of `dev`.
    Bar { dev: DeviceId, bar: u8, offset: u64 },
}

struct HostRec {
    rc_node: NodeId,
    memory: HostMemory,
    mmio_cursor: u64,
    /// The NTB adapters whose windows live in this domain, in id order.
    ntbs: Vec<NtbId>,
}

struct BarRec {
    base: PhysAddr,
    size: u64,
}

struct DeviceRec {
    host: HostId,
    node: NodeId,
    bars: Vec<BarRec>,
    handler: Rc<dyn MmioDevice>,
    /// Outbound (device writes memory) link occupancy.
    tx: SerialResource,
    /// Inbound (device reads memory) link occupancy.
    rx: SerialResource,
    /// Link width multiplier relative to the fabric's base link (1.0 =
    /// base; a Gen3 x8 device on a x4-calibrated fabric uses 2.0).
    link_scale: f64,
    msi: Vec<(u16, HostId, Notify)>,
}

struct State {
    topology: Topology,
    hosts: Vec<HostRec>,
    devices: Vec<DeviceRec>,
    ntbs: Vec<Ntb>,
}

/// Identifies one ordered posted-write path (source agent → destination).
/// PCIe guarantees posted writes on the same path apply in issue order;
/// writes on *different* paths carry no ordering guarantee, which is
/// exactly the nondeterminism the schedule explorer enumerates.
type PathKey = (u32, u32);

/// A posted write that has been issued but not yet applied.
struct PendingDelivery {
    /// Virtual instant the write reaches its destination.
    due: SimTime,
    path: PathKey,
    loc: Location,
    data: Payload,
    /// The write's [`crate::hb::HbLog`] token (`None` on an unarmed
    /// runtime).
    hb: Option<u64>,
}

/// All in-flight posted writes plus the pump that applies them.
#[derive(Default)]
struct DeliveryState {
    /// In issue order: pushed at the back, and `Vec::remove` keeps the
    /// rest in place, so the first entry on a path is that path's oldest.
    queue: Vec<PendingDelivery>,
    /// The delivery pump's callback task, spawned by the first posted write.
    pump: Option<TaskId>,
}

/// The shared-fabric simulator. Cheap to clone (all clones view the same
/// fabric).
#[derive(Clone)]
pub struct Fabric {
    inner: Rc<FabricInner>,
}

/// A handle to a [`Fabric`] that does not keep it alive. A device model
/// registered with [`Fabric::add_device`] is owned by the fabric, so it
/// must reach back through one of these: holding a [`Fabric`] would tie
/// the two into a cycle that outlives every other owner.
#[derive(Clone)]
pub struct WeakFabric {
    inner: Weak<FabricInner>,
}

impl WeakFabric {
    /// The fabric, unless its last strong handle is gone.
    pub fn upgrade(&self) -> Option<Fabric> {
        self.inner.upgrade().map(|inner| Fabric { inner })
    }
}

struct FabricInner {
    handle: Handle,
    params: FabricParams,
    state: RefCell<State>,
    /// Posted writes in flight, applied by the delivery pump in an order
    /// that is FIFO per path but a schedule choice point across paths.
    deliveries: RefCell<DeliveryState>,
    /// Deterministic fault-injection state (empty plan = no faults).
    faults: RefCell<FaultInjector>,
    /// Whether the runtime was built under `simcore::sanitize::arm`: the
    /// one test every checker hook below sits behind.
    armed: bool,
    /// Access table and actor registry of the race detector — in-flight
    /// posted writes included. Stays empty unless `armed`.
    hb: RefCell<HbLog>,
}

impl Fabric {
    /// An empty fabric on the given runtime.
    pub fn new(handle: Handle, params: FabricParams) -> Self {
        Fabric {
            inner: Rc::new(FabricInner {
                armed: handle.sanitize_armed(),
                handle,
                params,
                state: RefCell::new(State {
                    topology: Topology::new(),
                    hosts: Vec::new(),
                    devices: Vec::new(),
                    ntbs: Vec::new(),
                }),
                deliveries: RefCell::new(DeliveryState::default()),
                faults: RefCell::new(FaultInjector::default()),
                hb: RefCell::new(HbLog::default()),
            }),
        }
    }

    /// A handle that does not keep this fabric alive (see [`WeakFabric`]).
    pub fn downgrade(&self) -> WeakFabric {
        WeakFabric {
            inner: Rc::downgrade(&self.inner),
        }
    }

    /// The simulation runtime handle.
    pub fn handle(&self) -> Handle {
        self.inner.handle.clone()
    }

    /// The timing parameters this fabric was built with.
    pub fn params(&self) -> &FabricParams {
        &self.inner.params
    }

    // ---------------------------------------------------------------
    // Construction
    // ---------------------------------------------------------------

    /// Add a host (root complex + DRAM of `mem_size` bytes).
    pub fn add_host(&self, mem_size: u64) -> HostId {
        let mut st = self.inner.state.borrow_mut();
        let id = HostId(st.hosts.len() as u16);
        let rc_node = st.topology.add_node(NodeKind::RootComplex(id));
        st.hosts.push(HostRec {
            rc_node,
            memory: HostMemory::new(id, mem_size),
            mmio_cursor: MMIO_BASE,
            ntbs: Vec::new(),
        });
        if self.inner.armed {
            self.inner.hb.borrow_mut().register_host();
        }
        id
    }

    /// Add a transparent switch chip.
    pub fn add_switch(&self, label: &str) -> NodeId {
        self.inner
            .state
            .borrow_mut()
            .topology
            .add_node(NodeKind::Switch {
                label: label.into(),
            })
    }

    /// Connect two topology nodes with a link/cable.
    pub fn link(&self, a: NodeId, b: NodeId) {
        self.inner.state.borrow_mut().topology.link(a, b);
    }

    /// A host's root-complex topology node.
    pub fn rc_node(&self, host: HostId) -> NodeId {
        self.inner.state.borrow().hosts[host.0 as usize].rc_node
    }

    /// Attach a device with the given BAR sizes to `host`'s domain, linked
    /// at topology node `attach` (use `rc_node(host)` for a direct slot).
    pub fn add_device(
        &self,
        host: HostId,
        attach: NodeId,
        bar_sizes: &[u64],
        handler: Rc<dyn MmioDevice>,
    ) -> DeviceId {
        let mut st = self.inner.state.borrow_mut();
        let id = DeviceId(st.devices.len() as u32);
        let node = st.topology.add_node(NodeKind::Endpoint(id));
        st.topology.link(node, attach);
        let mut bars = Vec::new();
        for &size in bar_sizes {
            let size = size.max(0x1000).next_power_of_two();
            let hrec = &mut st.hosts[host.0 as usize];
            let base = hrec.mmio_cursor.div_ceil(size) * size; // natural alignment
            hrec.mmio_cursor = base + size;
            assert!(
                PhysAddr(hrec.mmio_cursor) <= HostMemory::DRAM_BASE,
                "MMIO space exhausted"
            );
            bars.push(BarRec {
                base: PhysAddr(base),
                size,
            });
        }
        st.devices.push(DeviceRec {
            host,
            node,
            bars,
            handler,
            tx: SerialResource::new(self.inner.handle.clone()),
            rx: SerialResource::new(self.inner.handle.clone()),
            link_scale: 1.0,
            msi: Vec::new(),
        });
        if self.inner.armed {
            self.inner.hb.borrow_mut().register_device();
        }
        id
    }

    /// Add an NTB adapter to `host` (linked to its root complex); returns
    /// the adapter id. Cable its node (`ntb_node`) to a cluster switch or
    /// directly to a peer adapter.
    pub fn add_ntb(&self, host: HostId, slot_size: u64, slots: usize) -> NtbId {
        let mut st = self.inner.state.borrow_mut();
        let id = NtbId(st.ntbs.len() as u32);
        let node = st.topology.add_node(NodeKind::NtbAdapter(id));
        let rc = st.hosts[host.0 as usize].rc_node;
        st.topology.link(node, rc);
        let window = slot_size * slots as u64;
        let hrec = &mut st.hosts[host.0 as usize];
        let base = hrec.mmio_cursor.div_ceil(slot_size) * slot_size;
        hrec.mmio_cursor = base + window;
        assert!(
            PhysAddr(hrec.mmio_cursor) <= HostMemory::DRAM_BASE,
            "MMIO space exhausted"
        );
        hrec.ntbs.push(id);
        st.ntbs
            .push(Ntb::new(id, host, node, PhysAddr(base), slot_size, slots));
        id
    }

    /// The adapter's topology node (cable it to a switch or peer).
    pub fn ntb_node(&self, ntb: NtbId) -> NodeId {
        self.inner.state.borrow().ntbs[ntb.0 as usize].node
    }

    /// The adapter's LUT slot size in bytes.
    pub fn ntb_slot_size(&self, ntb: NtbId) -> u64 {
        self.inner.state.borrow().ntbs[ntb.0 as usize].slot_size
    }

    /// Program a LUT slot; returns the local-domain window address of the
    /// slot.
    pub fn program_lut(&self, ntb: NtbId, slot: usize, dest: DomainAddr) -> Result<PhysAddr> {
        let mut st = self.inner.state.borrow_mut();
        let n = st
            .ntbs
            .get_mut(ntb.0 as usize)
            .ok_or(FabricError::NoSuchNtb(ntb))?;
        n.program(slot, dest)?;
        n.slot_addr(slot)
    }

    /// Unprogram a LUT slot.
    pub fn clear_lut(&self, ntb: NtbId, slot: usize) -> Result<()> {
        let mut st = self.inner.state.borrow_mut();
        let n = st
            .ntbs
            .get_mut(ntb.0 as usize)
            .ok_or(FabricError::NoSuchNtb(ntb))?;
        n.clear(slot)
    }

    /// Find one free LUT slot on `ntb`.
    pub fn find_free_lut_slot(&self, ntb: NtbId) -> Result<usize> {
        let st = self.inner.state.borrow();
        let n = st
            .ntbs
            .get(ntb.0 as usize)
            .ok_or(FabricError::NoSuchNtb(ntb))?;
        n.find_free_slot()
    }

    /// Find `n` consecutive free LUT slots on `ntb`.
    pub fn find_free_lut_range(&self, ntb: NtbId, n: usize) -> Result<usize> {
        let st = self.inner.state.borrow();
        let rec = st
            .ntbs
            .get(ntb.0 as usize)
            .ok_or(FabricError::NoSuchNtb(ntb))?;
        rec.find_free_range(n)
    }

    /// Unprogrammed LUT slots across `host`'s adapters — what a leak check
    /// compares before and after a connect/disconnect.
    pub fn free_lut_slots(&self, host: HostId) -> usize {
        let st = self.inner.state.borrow();
        let own = st.hosts.get(host.0 as usize).into_iter();
        own.flat_map(|h| &h.ntbs)
            .map(|id| &st.ntbs[id.0 as usize])
            .map(|n| (0..n.slots()).filter(|&s| n.entry(s).is_none()).count())
            .sum()
    }

    /// Bytes left in `host`'s DRAM allocator — what a leak check compares
    /// before and after a connect, I/O and disconnect cycle.
    pub fn free_dram_bytes(&self, host: HostId) -> u64 {
        let st = self.inner.state.borrow();
        let own = st.hosts.get(host.0 as usize);
        own.map_or(0, |h| h.memory.free_bytes())
    }

    /// The first NTB adapter attached to a host's domain, if it has any.
    pub fn first_ntb_of(&self, host: HostId) -> Option<NtbId> {
        let st = self.inner.state.borrow();
        st.hosts.get(host.0 as usize)?.ntbs.first().copied()
    }

    /// The domain a device lives in.
    pub fn device_host(&self, dev: DeviceId) -> HostId {
        self.inner.state.borrow().devices[dev.0 as usize].host
    }

    /// Scale a device's link bandwidth relative to the fabric base link
    /// (e.g. 2.0 for a x8 device on a x4-calibrated fabric).
    pub fn set_device_link_scale(&self, dev: DeviceId, scale: f64) {
        assert!(scale > 0.0);
        self.inner.state.borrow_mut().devices[dev.0 as usize].link_scale = scale;
    }

    /// Base address of `bar` of `dev` in its owning domain.
    pub fn bar_region(&self, dev: DeviceId, bar: u8) -> Result<MemRegion> {
        let st = self.inner.state.borrow();
        let d = st
            .devices
            .get(dev.0 as usize)
            .ok_or(FabricError::NoSuchDevice(dev))?;
        let b = d
            .bars
            .get(bar as usize)
            .ok_or(FabricError::BadBar { dev, bar })?;
        Ok(MemRegion::new(d.host, b.base, b.size))
    }

    // ---------------------------------------------------------------
    // Fault injection
    // ---------------------------------------------------------------

    /// Install a fault plan; replaces any previous plan. The empty plan
    /// disables delivery faults; severed links and crashed hosts stay
    /// down. Each fault injected is a `Fault*` record of the armed stream
    /// (`simcore::Stage`).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.inner.faults.borrow_mut().install(plan);
    }

    /// Immediately crash a host actor: every timed fabric operation it
    /// issues afterwards fails with [`FabricError::HostCrashed`].
    pub fn crash_host_now(&self, host: HostId) {
        self.inner.faults.borrow_mut().crash_now(host);
    }

    /// Immediately sever an NTB link in the given mode.
    pub fn sever_ntb_now(&self, ntb: NtbId, mode: SeverMode) {
        self.inner.faults.borrow_mut().sever_now(ntb, mode);
    }

    /// Refuse the op if the issuing host has crashed.
    fn fault_check_issuer(&self, host: HostId) -> Result<()> {
        let fi = self.inner.faults.borrow();
        if !fi.active() {
            return Ok(());
        }
        if fi.is_crashed(host) {
            self.inner.handle.sanitize_record(None, Stage::FaultRefused);
            return Err(FabricError::HostCrashed(host));
        }
        Ok(())
    }

    /// Gate a resolved access against severed links. `crossed` holds the
    /// NTB windows the translation walked (the issuer-side cut);
    /// additionally, a `Both`-severed adapter cuts foreign traffic *into*
    /// its local domain. Returns `Ok(true)` when a posted write should be
    /// silently lost at the severed target port, `Err` when the op is
    /// refused outright, `Ok(false)` when unaffected.
    fn fault_gate(
        &self,
        issuer_domain: HostId,
        crossed: &[NtbId],
        loc: &Location,
        posted: bool,
    ) -> Result<bool> {
        let fi = self.inner.faults.borrow();
        if !fi.active() {
            return Ok(false);
        }
        for &ntb in crossed {
            if fi.severed_mode(ntb).is_some() {
                self.inner.handle.sanitize_record(None, Stage::FaultRefused);
                return Err(FabricError::LinkDown { ntb });
            }
        }
        let st = self.inner.state.borrow();
        let target = match loc {
            Location::Dram(da) => da.host,
            Location::Bar { dev, .. } => st.devices[dev.0 as usize].host,
        };
        if target != issuer_domain {
            for &(ntb, mode) in fi.severed() {
                if mode == SeverMode::Both && st.ntbs[ntb.0 as usize].local_domain == target {
                    if posted {
                        self.inner.handle.sanitize_record(None, Stage::FaultDropped);
                        return Ok(true);
                    }
                    self.inner.handle.sanitize_record(None, Stage::FaultRefused);
                    return Err(FabricError::LinkDown { ntb });
                }
            }
        }
        Ok(false)
    }

    // ---------------------------------------------------------------
    // Memory management (untimed)
    // ---------------------------------------------------------------

    /// Allocate a page-aligned segment in `host`'s DRAM.
    pub fn alloc(&self, host: HostId, size: u64) -> Result<MemRegion> {
        let mut st = self.inner.state.borrow_mut();
        let rec = st
            .hosts
            .get_mut(host.0 as usize)
            .ok_or(FabricError::NoSuchHost(host))?;
        let addr = rec.memory.alloc(size)?;
        Ok(MemRegion::new(host, addr, size))
    }

    /// Return an allocated segment.
    pub fn release(&self, region: MemRegion) {
        let mut st = self.inner.state.borrow_mut();
        st.hosts[region.host.0 as usize]
            .memory
            .free(region.addr, region.len);
        // Freeing severs the happens-before history: accesses to the dead
        // object cannot race accesses to whatever the allocator hands the
        // range to next (the single-owner allocator orders the reuse).
        if self.inner.armed {
            self.inner
                .hb
                .borrow_mut()
                .purge_dram(region.host, region.addr.as_u64(), region.len);
        }
    }

    /// Untimed functional write into a host's DRAM (setup / checking).
    pub fn mem_write(&self, host: HostId, addr: PhysAddr, data: &[u8]) -> Result<()> {
        let mut st = self.inner.state.borrow_mut();
        st.hosts
            .get_mut(host.0 as usize)
            .ok_or(FabricError::NoSuchHost(host))?
            .memory
            .write(addr, data)
    }

    /// [`Fabric::mem_write`] of an owned payload: whole pages landing on a
    /// page boundary are adopted by reference, not copied.
    pub fn mem_adopt(&self, host: HostId, addr: PhysAddr, data: Payload) -> Result<()> {
        let mut st = self.inner.state.borrow_mut();
        st.hosts
            .get_mut(host.0 as usize)
            .ok_or(FabricError::NoSuchHost(host))?
            .memory
            .write_payload(addr, &data)
    }

    /// Untimed functional read from a host's DRAM.
    pub fn mem_read(&self, host: HostId, addr: PhysAddr, buf: &mut [u8]) -> Result<()> {
        let st = self.inner.state.borrow();
        st.hosts
            .get(host.0 as usize)
            .ok_or(FabricError::NoSuchHost(host))?
            .memory
            .read(addr, buf)
    }

    /// [`Fabric::mem_read`] into an owned payload: whole aligned pages are
    /// taken by reference (copy-on-write keeps the snapshot intact whatever
    /// is written there afterwards), anything else is copied.
    pub fn mem_snapshot(&self, host: HostId, addr: PhysAddr, len: u64) -> Result<Payload> {
        let st = self.inner.state.borrow();
        st.hosts
            .get(host.0 as usize)
            .ok_or(FabricError::NoSuchHost(host))?
            .memory
            .snapshot(addr, len)
    }

    /// Register a write-watch on host DRAM (see [`crate::memory`]).
    pub fn watch(&self, host: HostId, addr: PhysAddr, len: u64) -> WatchHandle {
        let mut st = self.inner.state.borrow_mut();
        st.hosts[host.0 as usize].memory.watch(addr, len)
    }

    /// Remove a previously registered write-watch.
    pub fn unwatch(&self, host: HostId, handle: &WatchHandle) {
        let mut st = self.inner.state.borrow_mut();
        st.hosts[host.0 as usize].memory.unwatch(handle);
    }

    // ---------------------------------------------------------------
    // Address resolution
    // ---------------------------------------------------------------

    /// Resolve `(host, addr)` through NTB windows to its final location.
    /// An access of `len` bytes must stay within one mapping.
    pub fn resolve(&self, host: HostId, addr: PhysAddr, len: u64) -> Result<Location> {
        let st = self.inner.state.borrow();
        Self::resolve_traced(&st, host, addr, len, &mut Crossed::new())
    }

    /// Like [`resolve`](Self::resolve), additionally recording the
    /// NTB windows the walk crossed (the fault injector's sever check
    /// keys off these).
    fn resolve_traced(
        st: &State,
        host: HostId,
        addr: PhysAddr,
        len: u64,
        crossed: &mut Crossed,
    ) -> Result<Location> {
        let mut cur = DomainAddr::new(host, addr);
        for _ in 0..MAX_TRANSLATION_DEPTH {
            let hrec = st
                .hosts
                .get(cur.host.0 as usize)
                .ok_or(FabricError::NoSuchHost(cur.host))?;
            if hrec.memory.contains(cur.addr, len) {
                return Ok(Location::Dram(cur));
            }
            // Device BARs in this domain.
            for (di, d) in st.devices.iter().enumerate() {
                if d.host != cur.host {
                    continue;
                }
                for (bi, b) in d.bars.iter().enumerate() {
                    // `checked_add`: an address near `u64::MAX` must not
                    // wrap into the window.
                    let end = cur.addr.0.checked_add(len);
                    if cur.addr >= b.base && end.is_some_and(|end| end <= b.base.0 + b.size) {
                        return Ok(Location::Bar {
                            dev: DeviceId(di as u32),
                            bar: bi as u8,
                            offset: cur.addr.offset_from(b.base),
                        });
                    }
                }
            }
            // NTB windows in this domain.
            let mut translated = None;
            for n in hrec.ntbs.iter().map(|id| &st.ntbs[id.0 as usize]) {
                if n.contains(cur.addr) {
                    translated = Some(n.translate(cur.addr, len)?);
                    crossed.push(n.id);
                    break;
                }
            }
            match translated {
                Some(next) => cur = next,
                None => {
                    return Err(FabricError::UnmappedAddress {
                        host: cur.host,
                        addr: cur.addr,
                    })
                }
            }
        }
        Err(FabricError::TranslationLoop { host, addr })
    }

    /// Resolve and report the final location, the number of switch chips
    /// between `origin` and that location, and the NTB windows the walk
    /// crossed (for the fault injector's sever gate).
    fn resolve_with_path(
        &self,
        origin: NodeId,
        host: HostId,
        addr: PhysAddr,
        len: u64,
    ) -> Result<(Location, u32, Crossed)> {
        let mut st = self.inner.state.borrow_mut();
        let mut crossed = Crossed::new();
        let loc = Self::resolve_traced(&st, host, addr, len, &mut crossed)?;
        let dest_node = match &loc {
            Location::Dram(da) => st.hosts[da.host.0 as usize].rc_node,
            Location::Bar { dev, .. } => st.devices[dev.0 as usize].node,
        };
        let chips = st.topology.chips_between(origin, dest_node)?;
        Ok((loc, chips, crossed))
    }

    // ---------------------------------------------------------------
    // Timed CPU operations
    // ---------------------------------------------------------------

    /// Posted write from a CPU core on `host`. Returns once the store is
    /// issued (write-combining); the data lands after propagation. Small
    /// writes (≤ 8 B) to a BAR become an MMIO register write.
    pub async fn cpu_write(&self, host: HostId, addr: PhysAddr, data: &[u8]) -> Result<()> {
        self.cpu_write_payload(host, addr, data.into()).await
    }

    /// [`Fabric::cpu_write`] of an owned payload (the one posted CPU write
    /// path; the slice form wraps it).
    pub async fn cpu_write_payload(
        &self,
        host: HostId,
        addr: PhysAddr,
        data: Payload,
    ) -> Result<()> {
        self.fault_check_issuer(host)?;
        let origin = self.rc_node(host);
        let len = data.len() as u64;
        let (loc, chips, crossed) = self.resolve_with_path(origin, host, addr, len)?;
        if self.fault_gate(host, &crossed, &loc, true)? {
            // Lost at a severed target port: the posted write vanishes,
            // and the issuer (fire-and-forget) never learns.
            return Ok(());
        }
        let p = &self.inner.params;
        let issue = if chips == 0 && matches!(loc, Location::Dram(_)) {
            p.cpu_memcpy(len)
        } else if len <= 8 {
            SimDuration::from_nanos(p.mmio_store_ns)
        } else {
            p.cpu_ntb_store(len)
        };
        let delivery = p.one_way(chips);
        self.inner.handle.sleep(issue).await;
        let hb = self.hb_record_write(Agent::Host(host), &loc, data.len(), "CPU posted write");
        self.enqueue_delivery(
            delivery,
            (u32::from(host.0), dest_path_key(&loc)),
            loc,
            data,
            hb,
        );
        Ok(())
    }

    /// Convenience: posted 4-byte write (doorbells).
    pub async fn cpu_write_u32(&self, host: HostId, addr: PhysAddr, value: u32) -> Result<()> {
        self.cpu_write(host, addr, &value.to_le_bytes()).await
    }

    /// Non-posted read from a CPU core on `host`: waits the full round
    /// trip (plus transfer time for bulk lengths).
    pub async fn cpu_read(&self, host: HostId, addr: PhysAddr, buf: &mut [u8]) -> Result<()> {
        self.fault_check_issuer(host)?;
        let origin = self.rc_node(host);
        let (loc, chips, crossed) = self.resolve_with_path(origin, host, addr, buf.len() as u64)?;
        self.fault_gate(host, &crossed, &loc, false)?;
        let p = &self.inner.params;
        let lat = if chips == 0 && matches!(loc, Location::Dram(_)) {
            // Local DRAM read: cacheline fill + copy.
            SimDuration::from_nanos(p.dram_read_ns) + p.cpu_memcpy(buf.len() as u64)
        } else {
            SimDuration::from_nanos(p.mmio_load_ns)
                + p.read_rtt(chips)
                + p.nonposted_transfer(buf.len() as u64)
        };
        self.inner.handle.sleep(lat).await;
        if self.inner.armed {
            self.hb_record_read(Agent::Host(host), &loc, buf.len(), "CPU read");
        }
        self.apply_read(&loc, buf);
        Ok(())
    }

    /// Convenience: non-posted 4-byte read.
    pub async fn cpu_read_u32(&self, host: HostId, addr: PhysAddr) -> Result<u32> {
        let mut b = [0u8; 4];
        self.cpu_read(host, addr, &mut b).await?;
        Ok(u32::from_le_bytes(b))
    }

    /// Convenience: non-posted 8-byte read.
    pub async fn cpu_read_u64(&self, host: HostId, addr: PhysAddr) -> Result<u64> {
        let mut b = [0u8; 8];
        self.cpu_read(host, addr, &mut b).await?;
        Ok(u64::from_le_bytes(b))
    }

    // ---------------------------------------------------------------
    // Timed device DMA
    // ---------------------------------------------------------------

    /// Device-initiated non-posted read (command fetch, data fetch for disk
    /// writes). Waits round trip + serialized transfer on the device's
    /// inbound engine.
    pub async fn dma_read(&self, dev: DeviceId, addr: PhysAddr, buf: &mut [u8]) -> Result<()> {
        let loc = self.dma_read_wait(dev, addr, buf.len()).await?;
        self.apply_read(&loc, buf);
        Ok(())
    }

    /// [`Fabric::dma_read`] into an owned payload: same waits, and the
    /// bytes are snapshotted at the same post-round-trip instant — whole
    /// aligned DRAM pages by reference.
    pub async fn dma_read_payload(
        &self,
        dev: DeviceId,
        addr: PhysAddr,
        len: u64,
    ) -> Result<Payload> {
        let loc = self.dma_read_wait(dev, addr, len as usize).await?;
        Ok(self.snapshot(&loc, len as usize))
    }

    /// Everything a device read does before it touches the bytes: resolve,
    /// fault gate, link occupancy, round trip, race-detector record.
    async fn dma_read_wait(&self, dev: DeviceId, addr: PhysAddr, len: usize) -> Result<Location> {
        let (origin, rx, host, scale) = {
            let st = self.inner.state.borrow();
            let d = st
                .devices
                .get(dev.0 as usize)
                .ok_or(FabricError::NoSuchDevice(dev))?;
            (d.node, d.rx.clone(), d.host, d.link_scale)
        };
        let (loc, chips, crossed) = self.resolve_with_path(origin, host, addr, len as u64)?;
        self.fault_gate(host, &crossed, &loc, false)?;
        let p = &self.inner.params;
        // Nothing is observable between the slot's end and the round
        // trip's: one wait for the sum.
        let slot_end = rx.reserve(scale_transfer(p.nonposted_transfer(len as u64), scale));
        self.inner
            .handle
            .sleep_until(slot_end + p.read_rtt(chips))
            .await;
        if self.inner.armed {
            self.hb_record_read(Agent::Device(dev), &loc, len, "DMA read");
        }
        Ok(loc)
    }

    /// Device-initiated posted write (CQE post, data delivery for disk
    /// reads). The device is released once the transfer has been pushed
    /// onto the link; the data applies after propagation.
    ///
    /// Like every accessor here it takes a [`PhysAddr`], not an integer:
    /// which address space a bus address belongs to is the paper's whole
    /// correctness argument, and the type is what carries it.
    ///
    /// ```
    /// use pcie::{DeviceId, Fabric, PhysAddr};
    /// async fn post(fabric: &Fabric, dev: DeviceId, addr: PhysAddr) -> pcie::Result<()> {
    ///     fabric.dma_write(dev, addr, &[0u8; 16]).await
    /// }
    /// ```
    ///
    /// A raw `u64` — however it was obtained — is a type error (E0308):
    ///
    /// ```compile_fail,E0308
    /// use pcie::{DeviceId, Fabric, PhysAddr};
    /// async fn post(fabric: &Fabric, dev: DeviceId, addr: PhysAddr) -> pcie::Result<()> {
    ///     fabric.dma_write(dev, addr.as_u64(), &[0u8; 16]).await
    /// }
    /// ```
    pub async fn dma_write(&self, dev: DeviceId, addr: PhysAddr, data: &[u8]) -> Result<()> {
        self.dma_write_payload(dev, addr, data.into())
            .await
            .map(|_| ())
    }

    /// [`Fabric::dma_write`] of an owned payload (the one posted device
    /// write path; the slice form wraps it). Returns the delay from the
    /// issue instant until the write *applies* at its destination. Agents
    /// whose completion contract promises landed data (an RDMA read's work
    /// completion, for one) sleep that long before signalling; the fast
    /// path never needs it. The delay is nominal: a write refused by a
    /// severed link reports zero, and one dropped in flight by fault
    /// injection still reports its propagation delay even though it will
    /// never land — sleeping on it cannot hang, and the caller's own
    /// deadline machinery is what turns lost data into a timeout.
    pub async fn dma_write_payload(
        &self,
        dev: DeviceId,
        addr: PhysAddr,
        data: Payload,
    ) -> Result<SimDuration> {
        let (origin, tx, host, scale) = {
            let st = self.inner.state.borrow();
            let d = st
                .devices
                .get(dev.0 as usize)
                .ok_or(FabricError::NoSuchDevice(dev))?;
            (d.node, d.tx.clone(), d.host, d.link_scale)
        };
        let len = data.len() as u64;
        let (loc, chips, crossed) = self.resolve_with_path(origin, host, addr, len)?;
        if self.fault_gate(host, &crossed, &loc, true)? {
            return Ok(SimDuration::from_nanos(0));
        }
        let p = &self.inner.params;
        tx.occupy(scale_transfer(p.posted_transfer(len), scale))
            .await;
        let delivery = p.one_way(chips);
        let hb = self.hb_record_write(Agent::Device(dev), &loc, data.len(), "DMA posted write");
        self.enqueue_delivery(
            delivery,
            (DEVICE_PATH_BIT | dev.0, dest_path_key(&loc)),
            loc,
            data,
            hb,
        );
        Ok(delivery)
    }

    // ---------------------------------------------------------------
    // Posted-write delivery pump
    // ---------------------------------------------------------------

    /// Queue a posted write for application `delay` after now and make sure
    /// the pump will run at that instant. The pump (one callback task, not
    /// a task per write) applies deliveries so that the order of co-due
    /// writes on *different* paths is an explicit [`ChoiceKind::Delivery`]
    /// schedule choice point; writes on one path always apply in issue
    /// order.
    fn enqueue_delivery(
        &self,
        delay: SimDuration,
        path: PathKey,
        loc: Location,
        data: Payload,
        hb: Option<u64>,
    ) {
        let mut delay = delay;
        let mut copies = 1usize;
        {
            let mut fi = self.inner.faults.borrow_mut();
            if fi.active() {
                let src_host = if path.0 & DEVICE_PATH_BIT == 0 {
                    Some(HostId(path.0 as u16))
                } else {
                    None
                };
                let to_dram_host = match &loc {
                    Location::Dram(da) => Some(da.host),
                    Location::Bar { .. } => None,
                };
                match fi.delivery_action(src_host, to_dram_host, data.len() as u64) {
                    Some(FaultAction::Drop) => {
                        self.inner.handle.sanitize_record(None, Stage::FaultDropped);
                        drop(fi);
                        // The write vanishes in flight: forget it, so it
                        // is neither reported as pending forever nor
                        // "observed" (a false happens-before edge) by a
                        // later read of data that never landed.
                        if let Some(token) = hb {
                            self.inner.hb.borrow_mut().untrack(token);
                        }
                        return;
                    }
                    Some(FaultAction::Delay(extra)) => {
                        self.inner.handle.sanitize_record(None, Stage::FaultDelayed);
                        delay += extra;
                    }
                    Some(FaultAction::Duplicate) => {
                        self.inner
                            .handle
                            .sanitize_record(None, Stage::FaultDuplicated);
                        copies = 2;
                    }
                    None => {}
                }
            }
        }
        let due = self.inner.handle.now() + delay;
        let pump = {
            // A duplicated TLP is queued right behind the original on the
            // same path, so it applies in order after it; the checker
            // token is shared (`HbLog::write_applied` is idempotent).
            let dup = (copies == 2).then(|| (loc.clone(), data.clone()));
            let mut dq = self.inner.deliveries.borrow_mut();
            dq.queue.push(PendingDelivery {
                due,
                path,
                loc,
                data,
                hb,
            });
            if let Some((loc, data)) = dup {
                dq.queue.push(PendingDelivery {
                    due,
                    path,
                    loc,
                    data,
                    hb,
                });
            }
            *dq.pump.get_or_insert_with(|| {
                let this = self.clone();
                self.inner
                    .handle
                    .spawn_callback(move || this.delivery_pump())
            })
        };
        // A timer per write makes the pump runnable at the due instant;
        // any number of them firing together cost one run.
        self.inner.handle.run_at(due, pump);
    }

    /// The pump's whole body, run as a callback task of the executor: apply
    /// every due posted write, consulting the installed scheduler (if any)
    /// whenever more than one path has a delivery ready.
    fn delivery_pump(&self) {
        while let Some(d) = self.take_due_delivery() {
            if let Some(token) = d.hb {
                self.inner.hb.borrow_mut().write_applied(token);
            }
            self.apply_write(&d.loc, &d.data);
        }
    }

    /// Remove and return the next due delivery, or `None` if nothing is
    /// due. Candidates are the earliest-issued due delivery of each path
    /// (per-path FIFO); with two or more candidate paths the pick is a
    /// schedule choice point, with each option's write footprint exposed so
    /// the explorer can prune commuting orders.
    fn take_due_delivery(&self) -> Option<PendingDelivery> {
        let now = self.inner.handle.now();
        let mut dq = self.inner.deliveries.borrow_mut();
        let queue = &mut dq.queue;
        // A path's head is its first entry in the queue, and it goes first
        // whether or not it is due itself; heads come out in issue order.
        let mut heads = queue.iter().enumerate().filter_map(|(i, d)| {
            (d.due <= now && !queue[..i].iter().any(|e| e.path == d.path)).then_some(i)
        });
        let first = heads.next()?;
        let pick = match heads.next() {
            None => first,
            Some(second) => {
                let heads: Vec<usize> = [first, second].into_iter().chain(heads).collect();
                let options: Vec<ChoiceOption> = heads
                    .iter()
                    .map(|&i| ChoiceOption::writing(delivery_footprint(&queue[i])))
                    .collect();
                heads[self
                    .inner
                    .handle
                    .sched_choose(ChoiceKind::Delivery, &options)]
            }
        };
        Some(queue.remove(pick))
    }

    // ---------------------------------------------------------------
    // Interrupts
    // ---------------------------------------------------------------

    /// Route MSI `vector` of `dev` to `target` host; returns the notify a
    /// driver waits on.
    pub fn config_msi(&self, dev: DeviceId, vector: u16, target: HostId) -> Notify {
        let notify = Notify::new();
        let mut st = self.inner.state.borrow_mut();
        let d = &mut st.devices[dev.0 as usize];
        d.msi.retain(|(v, _, _)| *v != vector);
        d.msi.push((vector, target, notify.clone()));
        notify
    }

    /// Raise MSI `vector` (non-blocking; delivery after propagation to the
    /// target host). Unconfigured vectors are silently dropped, like a
    /// masked interrupt.
    pub fn raise_msi(&self, dev: DeviceId, vector: u16) {
        let (notify, delay) = {
            let mut st = self.inner.state.borrow_mut();
            let (node, entry) = {
                let d = &st.devices[dev.0 as usize];
                let entry = d
                    .msi
                    .iter()
                    .find(|(v, _, _)| *v == vector)
                    .map(|(_, h, n)| (*h, n.clone()));
                (d.node, entry)
            };
            let Some((target, notify)) = entry else {
                return;
            };
            let rc = st.hosts[target.0 as usize].rc_node;
            let chips = st.topology.chips_between(node, rc).unwrap_or(0);
            (notify, self.inner.params.one_way(chips))
        };
        let handle = &self.inner.handle;
        handle.notify_at(handle.now() + delay, notify);
    }

    // ---------------------------------------------------------------
    // Apply helpers (functional effects at delivery time)
    // ---------------------------------------------------------------

    fn apply_write(&self, loc: &Location, data: &Payload) {
        match loc {
            Location::Dram(da) => {
                let mut st = self.inner.state.borrow_mut();
                st.hosts[da.host.0 as usize]
                    .memory
                    .write_payload(da.addr, data)
                    .expect("resolved DRAM write failed");
            }
            Location::Bar { dev, bar, offset } => {
                let handler = {
                    let st = self.inner.state.borrow();
                    st.devices[dev.0 as usize].handler.clone()
                };
                // Split into at-most-8-byte register writes.
                let mut off = *offset;
                for chunk in data.segments().flat_map(|seg| seg.chunks(8)) {
                    let mut v = [0u8; 8];
                    v[..chunk.len()].copy_from_slice(chunk);
                    handler.mmio_write(*bar, off, u64::from_le_bytes(v), chunk.len());
                    off += chunk.len() as u64;
                }
            }
        }
    }

    /// What [`Self::apply_read`] would fill a `len`-byte buffer with, as a
    /// payload (DRAM pages by reference where the range allows).
    fn snapshot(&self, loc: &Location, len: usize) -> Payload {
        match loc {
            Location::Dram(da) => {
                let st = self.inner.state.borrow();
                st.hosts[da.host.0 as usize]
                    .memory
                    .snapshot(da.addr, len as u64)
                    .expect("resolved DRAM read failed")
            }
            Location::Bar { .. } => Payload::filled_with(len, |buf| self.apply_read(loc, buf)),
        }
    }

    fn apply_read(&self, loc: &Location, buf: &mut [u8]) {
        match loc {
            Location::Dram(da) => {
                let st = self.inner.state.borrow();
                st.hosts[da.host.0 as usize]
                    .memory
                    .read(da.addr, buf)
                    .expect("resolved DRAM read failed");
            }
            Location::Bar { dev, bar, offset } => {
                let handler = {
                    let st = self.inner.state.borrow();
                    st.devices[dev.0 as usize].handler.clone()
                };
                let mut off = *offset;
                for chunk in buf.chunks_mut(8) {
                    let v = handler.mmio_read(*bar, off, chunk.len());
                    chunk.copy_from_slice(&v.to_le_bytes()[..chunk.len()]);
                    off += chunk.len() as u64;
                }
            }
        }
    }
}

/// Checker hooks: each is a no-op (recording and allocating nothing) unless
/// the runtime was built under `simcore::sanitize::arm`.
impl Fabric {
    /// Whether the checker is armed on this fabric's runtime.
    pub fn sanitize_armed(&self) -> bool {
        self.inner.armed
    }

    /// Number of records in the checker's access table (diagnostic: stays
    /// 0 on an unarmed runtime, bounded by ring geometry on an armed one).
    pub fn sanitize_log_len(&self) -> usize {
        self.inner.hb.borrow().len()
    }

    /// Record a posted write at issue (armed only); the token rides in its
    /// [`PendingDelivery`].
    fn hb_record_write(
        &self,
        agent: Agent,
        loc: &Location,
        len: usize,
        kind: &'static str,
    ) -> Option<u64> {
        if !self.inner.armed {
            return None;
        }
        let mut log = self.inner.hb.borrow_mut();
        Some(log.record(&self.inner.handle, agent, loc, len as u64, kind, true))
    }

    /// A non-posted read at its apply instant (armed only). Every in-flight
    /// posted write overlapping the range is reported — the read observes
    /// pre-write data (through-NTB race) — then the read is race-checked
    /// and recorded.
    fn hb_record_read(&self, agent: Agent, loc: &Location, len: usize, what: &'static str) {
        let len = len as u64;
        let mut log = self.inner.hb.borrow_mut();
        for pw in log.in_flight(loc, len) {
            self.inner.handle.sanitize_report(
                "pcie.read-races-posted-write",
                format!("{what} of {len} B at {loc:?} overlaps {pw}"),
            );
        }
        log.record(&self.inner.handle, agent, loc, len, what, false);
    }

    /// Whether any in-flight posted write overlaps `len` bytes at
    /// `(host, addr)` (after NTB resolution). Protocol checkers use this to
    /// verify ordering assumptions — e.g. that every SQE slot a doorbell
    /// exposes has already been written.
    pub fn sanitize_pending_posted_overlap(&self, host: HostId, addr: PhysAddr, len: u64) -> bool {
        let Ok(loc) = self.resolve(host, addr, len) else {
            return false;
        };
        self.inner.hb.borrow().in_flight(&loc, len).next().is_some()
    }

    /// Record a completion-queue consume by `host` at `(addr, len)`: the
    /// CQE-phase-observation edge. The consumer joins the clocks of the
    /// applied writes that produced the entry and is race-checked against
    /// any still-in-flight overlapping write — consuming an entry whose
    /// posted write has not landed is exactly a stale-phase race.
    pub fn sanitize_consume(&self, host: HostId, addr: PhysAddr, len: u64) {
        if !self.inner.armed {
            return;
        }
        let Ok(loc) = self.resolve(host, addr, len) else {
            return;
        };
        self.inner.hb.borrow_mut().record(
            &self.inner.handle,
            Agent::Host(host),
            &loc,
            len,
            "CQE consume",
            false,
        );
    }

    /// Fabric barrier: `host` observes everything `dev` has done — the
    /// completion-delivery edge for engines (RDMA NICs) whose completion
    /// queues live outside fabric memory.
    pub fn sanitize_barrier_to_host(&self, host: HostId, dev: DeviceId) {
        self.hb_barrier(Agent::Device(dev), Agent::Host(host));
    }

    /// Fabric barrier: `dev` observes everything `host` has done — the
    /// work-submission edge for engines whose work queues live outside
    /// fabric memory.
    pub fn sanitize_barrier_to_device(&self, dev: DeviceId, host: HostId) {
        self.hb_barrier(Agent::Host(host), Agent::Device(dev));
    }

    fn hb_barrier(&self, from: Agent, to: Agent) {
        if self.inner.armed {
            self.inner.hb.borrow_mut().barrier(from, to);
        }
    }
}

/// High bit marking the device half of a [`PathKey`] / footprint domain, so
/// host and device identifiers never collide.
const DEVICE_PATH_BIT: u32 = 0x8000_0000;

/// Destination half of a delivery's [`PathKey`].
fn dest_path_key(loc: &Location) -> u32 {
    match loc {
        Location::Dram(da) => u32::from(da.host.0),
        Location::Bar { dev, .. } => DEVICE_PATH_BIT | dev.0,
    }
}

/// The memory range a pending delivery will mutate, in scheduler terms.
/// Host DRAM domains and device BAR domains are disjoint; BAR offsets are
/// keyed per BAR index so BAR0/BAR1 never alias.
fn delivery_footprint(d: &PendingDelivery) -> Footprint {
    match &d.loc {
        Location::Dram(da) => Footprint {
            domain: u32::from(da.host.0),
            addr: da.addr.as_u64(),
            len: d.data.len() as u64,
        },
        Location::Bar { dev, bar, offset } => Footprint {
            domain: DEVICE_PATH_BIT | dev.0,
            addr: (u64::from(*bar) << 56) | offset,
            len: d.data.len() as u64,
        },
    }
}

/// Divide a transfer duration by the device's link-width scale.
fn scale_transfer(d: simcore::SimDuration, scale: f64) -> simcore::SimDuration {
    if (scale - 1.0).abs() < f64::EPSILON {
        d
    } else {
        simcore::SimDuration::from_nanos((d.as_nanos() as f64 / scale).ceil() as u64)
    }
}
