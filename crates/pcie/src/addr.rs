//! Identifiers and address types.
//!
//! Every host in the cluster has its own independent **PCIe address
//! domain** (the defining problem NTBs solve). A [`PhysAddr`] is therefore
//! only meaningful together with the [`HostId`] of the domain it belongs
//! to; the pairing is captured by [`DomainAddr`].

use std::fmt;

/// A host (and its PCIe address domain).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u16);

impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// A device endpoint on the fabric.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u32);

impl fmt::Debug for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// A node in the physical topology graph (root complex, switch chip,
/// NTB adapter, or endpoint slot).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// An NTB adapter.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NtbId(pub u32);

impl fmt::Debug for NtbId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ntb{}", self.0)
    }
}

/// A physical address within one host's PCIe address domain.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// The address `delta` bytes further.
    pub const fn offset(self, delta: u64) -> PhysAddr {
        PhysAddr(self.0 + delta)
    }

    /// Byte distance above `base`; panics if below it.
    pub fn offset_from(self, base: PhysAddr) -> u64 {
        self.0.checked_sub(base.0).expect("address below base")
    }

    /// The raw address value.
    ///
    /// This is the *only* sanctioned escape hatch out of the typed
    /// address world: the fabric, DMA and doorbell sinks take
    /// [`PhysAddr`] or a domain type, so the `u64` this returns has to be
    /// wrapped again before it can reach one.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Little-endian wire encoding — what lands in an NVMe register or
    /// an SQE DPTR field.
    pub const fn to_le_bytes(self) -> [u8; 8] {
        self.0.to_le_bytes()
    }

    /// The address rounded down to a multiple of `align`.
    pub const fn align_down(self, align: u64) -> PhysAddr {
        PhysAddr(self.0 - self.0 % align)
    }

    /// Byte offset above the enclosing `align`-sized boundary.
    pub const fn align_offset(self, align: u64) -> u64 {
        self.0 % align
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A (domain, address) pair: the only unambiguous way to name memory in a
/// multi-domain cluster.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct DomainAddr {
    /// The address domain.
    pub host: HostId,
    /// The address within that domain.
    pub addr: PhysAddr,
}

impl DomainAddr {
    /// Pair an address with its domain.
    pub fn new(host: HostId, addr: PhysAddr) -> Self {
        DomainAddr { host, addr }
    }

    /// The domain address `delta` bytes further.
    pub fn offset(self, delta: u64) -> DomainAddr {
        DomainAddr {
            host: self.host,
            addr: self.addr.offset(delta),
        }
    }
}

/// A contiguous region of memory in one host's domain, with a length —
/// what a driver hands to a device as a DMA target.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct MemRegion {
    /// The address domain.
    pub host: HostId,
    /// The address within that domain.
    pub addr: PhysAddr,
    /// Region length in bytes.
    pub len: u64,
}

impl MemRegion {
    /// A region of `len` bytes at `addr` in `host`.
    pub fn new(host: HostId, addr: PhysAddr, len: u64) -> Self {
        MemRegion { host, addr, len }
    }

    /// The region's starting domain address.
    pub fn start(&self) -> DomainAddr {
        DomainAddr::new(self.host, self.addr)
    }

    /// One past the last byte.
    pub fn end(&self) -> PhysAddr {
        self.addr.offset(self.len)
    }

    /// Whether `[addr, addr+len)` lies inside the region.
    pub fn contains(&self, addr: PhysAddr, len: u64) -> bool {
        addr >= self.addr && addr.0 + len <= self.addr.0 + self.len
    }

    /// Sub-region at `offset` of length `len`. Panics when out of bounds.
    pub fn slice(&self, offset: u64, len: u64) -> MemRegion {
        assert!(offset + len <= self.len, "slice out of region bounds");
        MemRegion {
            host: self.host,
            addr: self.addr.offset(offset),
            len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_addr_offsets() {
        let a = PhysAddr(0x1000);
        assert_eq!(a.offset(0x10).as_u64(), 0x1010);
        assert_eq!(a.offset(0x10).offset_from(a), 0x10);
    }

    #[test]
    fn phys_addr_alignment_helpers() {
        let a = PhysAddr(0x1234);
        assert_eq!(a.align_down(0x1000), PhysAddr(0x1000));
        assert_eq!(a.align_offset(0x1000), 0x234);
        assert_eq!(PhysAddr(0x2000).align_down(0x1000), PhysAddr(0x2000));
        assert_eq!(PhysAddr(0x2000).align_offset(0x1000), 0);
        assert_eq!(a.to_le_bytes(), 0x1234u64.to_le_bytes());
    }

    #[test]
    #[should_panic(expected = "below base")]
    fn offset_from_underflow() {
        PhysAddr(0x10).offset_from(PhysAddr(0x20));
    }

    #[test]
    fn region_contains_and_slice() {
        let r = MemRegion::new(HostId(0), PhysAddr(0x1000), 0x100);
        assert!(r.contains(PhysAddr(0x1000), 0x100));
        assert!(r.contains(PhysAddr(0x10ff), 1));
        assert!(!r.contains(PhysAddr(0x10ff), 2));
        assert!(!r.contains(PhysAddr(0xfff), 1));
        let s = r.slice(0x80, 0x40);
        assert_eq!(s.addr, PhysAddr(0x1080));
        assert_eq!(s.len, 0x40);
        assert_eq!(s.end(), PhysAddr(0x10c0));
    }

    #[test]
    #[should_panic(expected = "out of region bounds")]
    fn slice_out_of_bounds() {
        MemRegion::new(HostId(0), PhysAddr(0), 16).slice(8, 16);
    }

    #[test]
    fn display_formats() {
        assert_eq!(HostId(3).to_string(), "host3");
        assert_eq!(PhysAddr(0xdead).to_string(), "0xdead");
        assert_eq!(format!("{:?}", DeviceId(1)), "dev1");
    }
}
