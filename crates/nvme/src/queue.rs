//! Host-side (driver) view of an NVMe completion queue.
//!
//! A [`CqRing`] polls local memory for entries whose phase tag matches its
//! expectation. Its submission-side twin is private to [`crate::engine`]
//! (`engine/sq.rs`): submission goes through the engine's one submit
//! path, and the compiler — not a lint — keeps it that way.

use std::cell::Cell;

use pcie::{DomainAddr, Fabric, MemRegion, WatchHandle};
use simcore::SimDuration;

use crate::oracle;
use crate::spec::completion::{CqEntry, CQE_SIZE};

/// Driver-side completion queue. The ring must live in memory local to the
/// polling host (the paper allocates CQs CPU-side for this reason).
pub struct CqRing {
    fabric: Fabric,
    /// Controller-side queue id, the key the lifecycle oracle
    /// ([`crate::oracle`]) tracks this ring under.
    qid: u16,
    ring: MemRegion,
    doorbell: DomainAddr,
    entries: u16,
    head: Cell<u16>,
    phase: Cell<bool>,
    watch: WatchHandle,
}

impl CqRing {
    /// CQ `qid`: a ring over `ring` with its doorbell at `doorbell`.
    pub fn new(
        fabric: &Fabric,
        qid: u16,
        ring: MemRegion,
        doorbell: DomainAddr,
        entries: u16,
    ) -> Self {
        assert!(
            ring.len >= entries as u64 * CQE_SIZE as u64,
            "CQ ring region too small"
        );
        let watch = fabric.watch(ring.host, ring.addr, entries as u64 * CQE_SIZE as u64);
        CqRing {
            fabric: fabric.clone(),
            qid,
            ring,
            doorbell,
            entries,
            head: Cell::new(0),
            phase: Cell::new(true),
            watch,
        }
    }

    /// Ring capacity in entries.
    pub fn entries(&self) -> u16 {
        self.entries
    }

    /// Consumer head index.
    pub fn head(&self) -> u16 {
        self.head.get()
    }

    /// Forget consumer state and wipe the ring memory (untimed): the
    /// Delete-and-Recreate recovery path restarts the phase walk exactly
    /// like a freshly created queue, so stale CQEs from the deleted queue
    /// can never satisfy the new one's phase expectation.
    pub fn reset(&self) {
        self.head.set(0);
        self.phase.set(true);
        let zeros = vec![0u8; self.entries as usize * CQE_SIZE];
        self.fabric
            .mem_write(self.ring.host, self.ring.addr, &zeros)
            .expect("CQ ring wipe");
    }

    /// Check the slot at the head for a new entry (phase match). Functional
    /// read; the caller models the CPU cost of the check.
    pub fn try_pop(&self) -> Option<CqEntry> {
        let head = self.head.get();
        let phase = self.phase.get();
        let slot = self.ring.addr.offset(head as u64 * CQE_SIZE as u64);
        let mut raw = [0u8; CQE_SIZE];
        self.fabric
            .mem_read(self.ring.host, slot, &mut raw)
            .expect("CQ ring read");
        if CqEntry::peek_phase(&raw) != phase {
            return None;
        }
        self.fabric
            .sanitize_consume(self.ring.host, slot, CQE_SIZE as u64);
        let cqe = CqEntry::decode(&raw);
        oracle::emit(
            &self.fabric,
            oracle::Event::CqeConsumed {
                qid: self.qid,
                cid: cqe.cid,
                slot: head,
                phase,
                entries: self.entries,
            },
        );
        self.advance(head);
        Some(cqe)
    }

    fn advance(&self, head: u16) {
        let next = (head + 1) % self.entries;
        self.head.set(next);
        if next == 0 {
            self.phase.set(!self.phase.get());
        }
    }

    /// Wait for the next entry: parks on the memory watch (the simulation
    /// stand-in for spinning on the cache line), then charges `check_cost`
    /// per successful detection.
    pub async fn next(&self, check_cost: SimDuration) -> CqEntry {
        loop {
            if let Some(cqe) = self.try_pop() {
                if !check_cost.is_zero() {
                    self.fabric.handle().sleep(check_cost).await;
                }
                return cqe;
            }
            let notified = self.watch.notify.clone();
            notified.notified().await;
        }
    }

    /// Ring the CQ head doorbell, releasing consumed slots to the device.
    pub async fn ring_doorbell(&self) -> pcie::Result<()> {
        oracle::emit(
            &self.fabric,
            oracle::Event::CqHeadDoorbell {
                qid: self.qid,
                head: self.head.get(),
            },
        );
        self.fabric
            .cpu_write_u32(
                self.doorbell.host,
                self.doorbell.addr,
                self.head.get() as u32,
            )
            .await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::status::Status;
    use pcie::{FabricParams, HostId};
    use simcore::SimRuntime;

    fn setup() -> (SimRuntime, Fabric, HostId) {
        let rt = SimRuntime::new();
        let fabric = Fabric::new(rt.handle(), FabricParams::default());
        let host = fabric.add_host(16 << 20);
        (rt, fabric, host)
    }

    #[test]
    fn cq_phase_detection_and_wrap() {
        let (rt, fabric, host) = setup();
        let ring = fabric.alloc(host, 2 * CQE_SIZE as u64).unwrap();
        let db = DomainAddr::new(host, ring.addr);
        let cq = CqRing::new(&fabric, 1, ring, db, 2);
        assert!(cq.try_pop().is_none(), "empty queue must not pop");
        // Simulate the controller posting entries with correct phases.
        let write_cqe = |slot: u16, cid: u16, phase: bool| {
            let cqe = CqEntry::new(0, 0, 1, cid, phase, Status::SUCCESS);
            fabric
                .mem_write(
                    host,
                    ring.addr.offset(slot as u64 * CQE_SIZE as u64),
                    &cqe.encode(),
                )
                .unwrap();
        };
        write_cqe(0, 10, true);
        write_cqe(1, 11, true);
        assert_eq!(cq.try_pop().unwrap().cid, 10);
        assert_eq!(cq.try_pop().unwrap().cid, 11);
        // Wrapped: stale entries (phase=true) must now be ignored.
        assert!(cq.try_pop().is_none());
        // Second pass uses inverted phase.
        write_cqe(0, 12, false);
        assert_eq!(cq.try_pop().unwrap().cid, 12);
        let _ = rt;
    }

    #[test]
    fn cq_next_waits_for_posting() {
        let (rt, fabric, host) = setup();
        let h = rt.handle();
        let ring = fabric.alloc(host, 4 * CQE_SIZE as u64).unwrap();
        let db = DomainAddr::new(host, ring.addr);
        let cq = CqRing::new(&fabric, 1, ring, db, 4);
        let f2 = fabric.clone();
        let h2 = h.clone();
        // Poster task: writes a CQE at t=5µs.
        h.spawn(async move {
            h2.sleep(SimDuration::from_micros(5)).await;
            let cqe = CqEntry::new(0, 3, 1, 42, true, Status::SUCCESS);
            f2.mem_write(host, ring.addr, &cqe.encode()).unwrap();
        });
        let (cid, t) = rt.block_on(async move {
            let cqe = cq.next(SimDuration::from_nanos(100)).await;
            (cqe.cid, fabric.handle().now())
        });
        assert_eq!(cid, 42);
        assert_eq!(t.as_nanos(), 5_000 + 100); // wake at write + check cost
    }
}
