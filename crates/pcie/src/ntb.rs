//! Non-Transparent Bridge model.
//!
//! An NTB adapter exposes a BAR-like **window** in its local domain's
//! address space, divided into fixed-size **LUT slots**. Each slot can be
//! programmed with a far-side (domain, base) pair; accesses landing in the
//! slot are forwarded with the address translated (§III, Fig. 5 of the
//! paper).

use crate::addr::{DomainAddr, HostId, NodeId, NtbId, PhysAddr};
use crate::error::{FabricError, Result};

/// A programmed LUT entry: where a slot points.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LutEntry {
    /// Far-side destination the slot forwards to.
    pub dest: DomainAddr,
}

/// One NTB adapter: its local window plus the lookup table.
pub struct Ntb {
    /// Adapter identifier.
    pub id: NtbId,
    /// Domain whose address space contains the window.
    pub local_domain: HostId,
    /// Topology node of the adapter card (a switch chip).
    pub node: NodeId,
    /// Base of the window in the local domain.
    pub window_base: PhysAddr,
    /// Bytes per LUT slot (power of two).
    pub slot_size: u64,
    lut: Vec<Option<LutEntry>>,
}

impl Ntb {
    /// An adapter with `slots` unprogrammed LUT entries.
    pub fn new(
        id: NtbId,
        local_domain: HostId,
        node: NodeId,
        window_base: PhysAddr,
        slot_size: u64,
        slots: usize,
    ) -> Self {
        assert!(
            slot_size.is_power_of_two(),
            "slot size must be a power of two"
        );
        Ntb {
            id,
            local_domain,
            node,
            window_base,
            slot_size,
            lut: vec![None; slots],
        }
    }

    /// Number of LUT slots.
    pub fn slots(&self) -> usize {
        self.lut.len()
    }

    /// Total window size (slots x slot size).
    pub fn window_size(&self) -> u64 {
        self.slot_size * self.lut.len() as u64
    }

    /// Local-domain address of the start of `slot`.
    pub fn slot_addr(&self, slot: usize) -> Result<PhysAddr> {
        if slot >= self.lut.len() {
            return Err(FabricError::BadSlot { ntb: self.id, slot });
        }
        Ok(self.window_base.offset(slot as u64 * self.slot_size))
    }

    /// Program `slot` to forward to `dest`. The destination base must be
    /// aligned so that offsets within the slot map contiguously.
    pub fn program(&mut self, slot: usize, dest: DomainAddr) -> Result<()> {
        if slot >= self.lut.len() {
            return Err(FabricError::BadSlot { ntb: self.id, slot });
        }
        self.lut[slot] = Some(LutEntry { dest });
        Ok(())
    }

    /// Unprogram a slot.
    pub fn clear(&mut self, slot: usize) -> Result<()> {
        if slot >= self.lut.len() {
            return Err(FabricError::BadSlot { ntb: self.id, slot });
        }
        self.lut[slot] = None;
        Ok(())
    }

    /// Find a free slot (for allocation by SmartIO).
    pub fn find_free_slot(&self) -> Result<usize> {
        self.lut
            .iter()
            .position(|e| e.is_none())
            .ok_or(FabricError::LutExhausted { ntb: self.id })
    }

    /// Find `n` consecutive free slots (for mapping segments larger than
    /// one slot); returns the first slot index.
    pub fn find_free_range(&self, n: usize) -> Result<usize> {
        if n == 0 || n > self.lut.len() {
            return Err(FabricError::LutExhausted { ntb: self.id });
        }
        let mut run = 0;
        for (i, e) in self.lut.iter().enumerate() {
            if e.is_none() {
                run += 1;
                if run == n {
                    return Ok(i + 1 - n);
                }
            } else {
                run = 0;
            }
        }
        Err(FabricError::LutExhausted { ntb: self.id })
    }

    /// A slot's current programming, if any.
    pub fn entry(&self, slot: usize) -> Option<LutEntry> {
        self.lut.get(slot).copied().flatten()
    }

    /// Is `addr` (local domain) inside this adapter's window?
    pub fn contains(&self, addr: PhysAddr) -> bool {
        addr >= self.window_base && addr < self.window_base.offset(self.window_size())
    }

    /// Translate a local-domain address inside the window to the far side.
    /// The access of `len` bytes must not cross the slot boundary (real
    /// hardware would forward to two unrelated destinations).
    pub fn translate(&self, addr: PhysAddr, len: u64) -> Result<DomainAddr> {
        debug_assert!(self.contains(addr));
        let off = addr.offset_from(self.window_base);
        let slot = (off / self.slot_size) as usize;
        let in_slot = off % self.slot_size;
        // `in_slot < slot_size`, so the subtraction cannot wrap; `in_slot +
        // len` could.
        if len > self.slot_size - in_slot {
            return Err(FabricError::CrossesBoundary {
                host: self.local_domain,
                addr,
                len,
            });
        }
        match self.lut.get(slot).copied().flatten() {
            Some(e) => Ok(e.dest.offset(in_slot)),
            None => Err(FabricError::UnprogrammedSlot { ntb: self.id, slot }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ntb() -> Ntb {
        Ntb::new(
            NtbId(0),
            HostId(0),
            NodeId(0),
            PhysAddr(0x4000_0000),
            1 << 21,
            8,
        )
    }

    #[test]
    fn window_geometry() {
        let n = ntb();
        assert_eq!(n.slots(), 8);
        assert_eq!(n.window_size(), 8 << 21);
        assert_eq!(n.slot_addr(1).unwrap(), PhysAddr(0x4000_0000 + (1 << 21)));
        assert!(n.slot_addr(8).is_err());
        assert!(n.contains(PhysAddr(0x4000_0000)));
        assert!(!n.contains(PhysAddr(0x4000_0000 + (8 << 21))));
    }

    #[test]
    fn translate_through_programmed_slot() {
        let mut n = ntb();
        let dest = DomainAddr::new(HostId(1), PhysAddr(0x1_0000_0000));
        n.program(2, dest).unwrap();
        let local = n.slot_addr(2).unwrap().offset(0x123);
        let far = n.translate(local, 8).unwrap();
        assert_eq!(far.host, HostId(1));
        assert_eq!(far.addr, PhysAddr(0x1_0000_0123));
    }

    #[test]
    fn a_length_that_overflows_the_slot_arithmetic_crosses_the_boundary() {
        let mut n = ntb();
        n.program(0, DomainAddr::new(HostId(1), PhysAddr(0x1_0000_0000)))
            .unwrap();
        let local = n.slot_addr(0).unwrap().offset(8);
        assert!(matches!(
            n.translate(local, u64::MAX),
            Err(FabricError::CrossesBoundary { .. })
        ));
        assert!(n.translate(local, (1 << 21) - 8).is_ok());
        assert!(n.translate(local, (1 << 21) - 7).is_err());
    }

    #[test]
    fn unprogrammed_slot_rejected() {
        let n = ntb();
        let err = n.translate(n.slot_addr(0).unwrap(), 4).unwrap_err();
        assert!(matches!(err, FabricError::UnprogrammedSlot { slot: 0, .. }));
    }

    #[test]
    fn cross_slot_access_rejected() {
        let mut n = ntb();
        n.program(0, DomainAddr::new(HostId(1), PhysAddr(0x1_0000_0000)))
            .unwrap();
        n.program(1, DomainAddr::new(HostId(1), PhysAddr(0x2_0000_0000)))
            .unwrap();
        let near_end = n.slot_addr(0).unwrap().offset((1 << 21) - 4);
        assert!(n.translate(near_end, 4).is_ok());
        assert!(matches!(
            n.translate(near_end, 8),
            Err(FabricError::CrossesBoundary { .. })
        ));
    }

    #[test]
    fn clear_and_reuse_slot() {
        let mut n = ntb();
        n.program(0, DomainAddr::new(HostId(1), PhysAddr(0x1_0000_0000)))
            .unwrap();
        assert_eq!(n.find_free_slot().unwrap(), 1);
        n.clear(0).unwrap();
        assert_eq!(n.find_free_slot().unwrap(), 0);
    }

    #[test]
    fn lut_exhaustion() {
        let mut n = Ntb::new(
            NtbId(1),
            HostId(0),
            NodeId(0),
            PhysAddr(0x4000_0000),
            1 << 21,
            2,
        );
        n.program(0, DomainAddr::new(HostId(1), PhysAddr(0x1_0000_0000)))
            .unwrap();
        n.program(1, DomainAddr::new(HostId(1), PhysAddr(0x1_0020_0000)))
            .unwrap();
        assert!(matches!(
            n.find_free_slot(),
            Err(FabricError::LutExhausted { .. })
        ));
    }
}
