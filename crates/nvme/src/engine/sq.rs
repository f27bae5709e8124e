//! The driver-side submission ring, private to [`super`]: every push and
//! tail-doorbell ring in the workspace goes through the engine's one
//! submit path, so tag accounting, batching and the doorbell protocol
//! stay in one place. The type is `pub(super)` — naming it from anywhere
//! else is a compile error (the engine docs carry the witness).
//!
//! An [`SqRing`] writes entries through whatever address the driver's host
//! uses to reach the queue memory — local DRAM, or an **NTB window** into
//! device-side memory (the paper's Fig. 8 placement). It uses interior
//! mutability (`Cell`) so a submit path and a completion path can share
//! it without holding borrows across awaits; the engine serializes slot
//! allocation, exactly like the per-queue spinlock in a real driver.

use std::cell::Cell;

use pcie::{DomainAddr, Fabric, MemRegion};

use crate::oracle;
use crate::spec::command::{SqEntry, SQE_SIZE};

/// Driver-side submission queue.
pub(super) struct SqRing {
    fabric: Fabric,
    /// Controller-side queue id, the key the lifecycle oracle
    /// ([`crate::oracle`]) tracks this ring under.
    qid: u16,
    /// Address the *driver's* CPU uses to write entries (may be remote via
    /// an NTB window).
    ring: MemRegion,
    /// SQ tail doorbell address in the driver host's domain.
    doorbell: DomainAddr,
    entries: u16,
    tail: Cell<u16>,
    /// Controller's consumed head, learned from CQE.sq_head. Advisory:
    /// completions can arrive out of submission order, so a later CQE may
    /// carry an *earlier* fetch-head snapshot.
    head: Cell<u16>,
    /// Entries pushed but not yet retired by a completion — the exact
    /// occupancy, unaffected by out-of-order head snapshots.
    outstanding: Cell<u16>,
}

impl SqRing {
    /// SQ `qid`: a ring over `ring` with its doorbell at `doorbell`.
    pub(super) fn new(
        fabric: &Fabric,
        qid: u16,
        ring: MemRegion,
        doorbell: DomainAddr,
        entries: u16,
    ) -> Self {
        assert!(
            ring.len >= entries as u64 * SQE_SIZE as u64,
            "SQ ring region too small"
        );
        SqRing {
            fabric: fabric.clone(),
            qid,
            ring,
            doorbell,
            entries,
            tail: Cell::new(0),
            head: Cell::new(0),
            outstanding: Cell::new(0),
        }
    }

    /// Whether no slot is free (a ring holds `entries - 1` commands).
    fn is_full(&self) -> bool {
        self.outstanding.get() >= self.entries - 1
    }

    /// Forget all host-side ring state (tail, head snapshot, occupancy) —
    /// the Delete-and-Recreate recovery path rebuilds the controller-side
    /// queue from scratch, so the driver's view restarts at slot 0.
    pub(super) fn reset(&self) {
        self.tail.set(0);
        self.head.set(0);
        self.outstanding.set(0);
    }

    /// Retire one command on its completion: records the controller's SQ
    /// head snapshot and releases the slot.
    pub(super) fn retire(&self, sq_head: u16) {
        self.head.set(sq_head);
        let n = self.outstanding.get();
        debug_assert!(n > 0, "retired a command from an empty SQ");
        self.outstanding.set(n.saturating_sub(1));
    }

    /// Write one entry at the tail (posted; CPU-side cost applies).
    /// Does not ring the doorbell — batch then [`SqRing::ring`].
    pub(super) async fn push(&self, sqe: &SqEntry) -> pcie::Result<()> {
        assert!(!self.is_full(), "pushed into full SQ");
        let tail = self.tail.get();
        let slot_addr = self.ring.addr.offset(tail as u64 * SQE_SIZE as u64);
        self.fabric
            .cpu_write(self.ring.host, slot_addr, &sqe.encode())
            .await?;
        // The slot is taken, and reported, once the fabric has accepted
        // the store: a refused one (severed link) wrote nothing the
        // controller could fetch and must not eat ring capacity.
        self.tail.set((tail + 1) % self.entries);
        self.outstanding.set(self.outstanding.get() + 1);
        oracle::emit(
            &self.fabric,
            oracle::Event::SqeWritten {
                qid: self.qid,
                cid: sqe.cid,
                slot: tail,
                entries: self.entries,
            },
        );
        Ok(())
    }

    /// Ring the tail doorbell (posted 4-byte MMIO write).
    pub(super) async fn ring(&self) -> pcie::Result<()> {
        let tail = self.tail.get();
        self.fabric
            .cpu_write_u32(self.doorbell.host, self.doorbell.addr, tail as u32)
            .await?;
        oracle::emit(
            &self.fabric,
            oracle::Event::SqDoorbell {
                qid: self.qid,
                tail,
                entries: self.entries,
            },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie::{FabricParams, HostId};
    use simcore::SimRuntime;

    fn setup() -> (SimRuntime, Fabric, HostId) {
        let rt = SimRuntime::new();
        let fabric = Fabric::new(rt.handle(), FabricParams::default());
        let host = fabric.add_host(16 << 20);
        (rt, fabric, host)
    }

    #[test]
    fn sq_wraps_and_tracks_space() {
        let (rt, fabric, host) = setup();
        let ring = fabric.alloc(host, 4 * SQE_SIZE as u64).unwrap();
        let db = DomainAddr::new(host, ring.addr); // fake doorbell target in DRAM
        let sq = SqRing::new(&fabric, 1, ring, db, 4);
        assert_eq!(sq.outstanding.get(), 0);
        rt.block_on(async move {
            for i in 0..3u16 {
                sq.push(&SqEntry::flush(i, 1)).await.unwrap();
            }
            assert!(sq.is_full());
            assert_eq!(sq.outstanding.get(), 3);
            // Two commands completed.
            sq.retire(1);
            sq.retire(2);
            assert!(!sq.is_full());
            assert_eq!(sq.outstanding.get(), 1);
            sq.push(&SqEntry::flush(3, 1)).await.unwrap();
            assert_eq!(sq.tail.get(), 0); // wrapped
        });
    }

    #[test]
    #[should_panic(expected = "full SQ")]
    fn sq_overflow_panics() {
        let (rt, fabric, host) = setup();
        let ring = fabric.alloc(host, 4 * SQE_SIZE as u64).unwrap();
        let db = DomainAddr::new(host, ring.addr);
        let sq = SqRing::new(&fabric, 1, ring, db, 4);
        rt.block_on(async move {
            for i in 0..4u16 {
                sq.push(&SqEntry::flush(i, 1)).await.unwrap();
            }
        });
    }
}
