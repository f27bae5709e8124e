//! Host-side (driver) view of an NVMe completion queue.
//!
//! A [`CqRing`] polls local memory for entries whose phase tag matches its
//! expectation, and steps over a CQE lost on the fabric (DESIGN.md §6.2).
//! Its submission-side twin is private to [`crate::engine`] (`engine/sq.rs`): submission goes through the engine's one submit
//! path, and the compiler — not a lint — keeps it that way.

use std::cell::Cell;

use pcie::{DomainAddr, Fabric, MemRegion, PhysAddr, WatchHandle};
use simcore::{SimDuration, Stage};

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
    /// Commands that ended without their CQE, less the slots skipped and
    /// the late CQEs seen since; while positive, a stale head is looked
    /// past.
    lost: Cell<i32>,
    /// Look past a stale head once (set at a deadline expiry).
    look: Cell<bool>,
    /// Slots skipped, not yet taken by [`CqRing::settle`].
    skipped: Cell<u16>,
    /// Set by [`CqRing::close`]: the ring's memory is being given back.
    closed: Cell<bool>,
}

impl CqRing {
    /// CQ `qid`: a ring over `ring` with its doorbell at `doorbell`,
    /// wiped, since the memory may have held another queue's CQEs.
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
        let cq = CqRing {
            fabric: fabric.clone(),
            qid,
            ring,
            doorbell,
            entries,
            head: Cell::new(0),
            phase: Cell::new(true),
            watch,
            lost: Cell::new(0),
            look: Cell::new(false),
            skipped: Cell::new(0),
            closed: Cell::new(false),
        };
        let zeros = vec![0u8; entries as usize * CQE_SIZE];
        fabric
            .mem_write(ring.host, ring.addr, &zeros)
            .expect("CQ ring wipe");
        cq
    }

    /// The raw CQE in `slot`.
    fn read(&self, slot: u16) -> [u8; CQE_SIZE] {
        let mut raw = [0u8; CQE_SIZE];
        self.fabric
            .mem_read(self.ring.host, self.slot_addr(slot), &mut raw)
            .expect("CQ ring read");
        raw
    }

    fn slot_addr(&self, slot: u16) -> PhysAddr {
        self.ring.addr.offset(slot as u64 * CQE_SIZE as u64)
    }

    /// Check the slot at the head for a new entry (phase match), stepping
    /// over lost slots first if the ring has cause to look. Functional
    /// reads; the caller models the CPU cost of the check.
    pub fn try_pop(&self) -> Option<CqEntry> {
        let mut raw = self.read(self.head.get());
        if CqEntry::peek_phase(&raw) != self.phase.get() {
            if !(self.lost.get() > 0 || self.look.replace(false)) || !self.skip_lost() {
                return None;
            }
            raw = self.read(self.head.get());
        }
        let (head, phase) = (self.head.get(), self.phase.get());
        let slot = self.slot_addr(head);
        self.fabric
            .sanitize_consume(self.ring.host, slot, CQE_SIZE as u64);
        let cqe = CqEntry::decode(&raw);
        let entries = self.entries;
        let stage = Stage::CqeConsumed {
            slot: head,
            phase,
            entries,
        };
        self.fabric
            .handle()
            .sanitize_record(Some((self.qid, cqe.cid)), stage);
        self.advance(head);
        Some(cqe)
    }

    /// The stale head's CQE was lost if a current-phase entry sits beyond
    /// it: step over every slot up to that entry. Returns whether it did.
    fn skip_lost(&self) -> bool {
        let (head, phase) = (self.head.get(), self.phase.get());
        let posted = (1..self.entries).find(|&k| {
            let slot = (head + k) % self.entries;
            let expect = phase ^ (slot < head);
            CqEntry::peek_phase(&self.read(slot)) == expect
        });
        let Some(gap) = posted else {
            return false;
        };
        for _ in 0..gap {
            let (qid, slot) = (self.qid, self.head.get());
            // The slot still holds the previous lap's phase, which is the
            // next lap's: tag it as this lap's, so it reads as consumed.
            let mut consumed = [0u8; CQE_SIZE];
            consumed[14] = u8::from(self.phase.get());
            self.fabric
                .mem_write(self.ring.host, self.slot_addr(slot), &consumed)
                .expect("CQ ring write");
            self.fabric
                .handle()
                .sanitize_record(None, Stage::CqeSkipped { qid, slot });
            self.advance(slot);
        }
        self.lost.set(self.lost.get() - i32::from(gap));
        self.skipped.set(self.skipped.get() + gap);
        true
    }

    /// A command on this ring passed a deadline, or `ended` without its
    /// CQE: wake the consumer to look past a stale head, once, or until a
    /// skip or a late CQE accounts for the command.
    pub(crate) fn note_lost(&self, ended: bool) {
        self.lost.set(self.lost.get() + i32::from(ended));
        self.look.set(self.look.get() || !ended);
        self.watch.notify.notify_one();
    }

    /// SQ slots the entry just popped frees: one per slot skipped on the
    /// way, and its own if it answered a `live` command or, late, a lost
    /// one (not a raw-injected SQE, which fault tests write directly).
    pub(crate) fn settle(&self, live: bool) -> u16 {
        let late = !live && self.lost.get() > 0;
        self.lost.set(self.lost.get() - i32::from(late));
        self.skipped.replace(0) + u16::from(live || late)
    }

    fn advance(&self, head: u16) {
        let next = (head + 1) % self.entries;
        self.head.set(next);
        if next == 0 {
            self.phase.set(!self.phase.get());
        }
    }

    /// Stop watching the ring before its memory is given back; a waiter
    /// in [`CqRing::next`] wakes and gets `None`.
    pub(crate) fn close(&self) {
        self.closed.set(true);
        self.fabric.unwatch(self.ring.host, &self.watch);
        self.watch.notify.notify_one();
    }

    /// Whether [`CqRing::close`] has run.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.get()
    }

    /// Wait for the next entry: parks on the memory watch (the simulation
    /// stand-in for spinning on the cache line), then charges `check_cost`
    /// per successful detection. `None` once the ring is closed.
    pub async fn next(&self, check_cost: SimDuration) -> Option<CqEntry> {
        loop {
            if self.closed.get() {
                return None;
            }
            if let Some(cqe) = self.try_pop() {
                if !check_cost.is_zero() {
                    self.fabric.handle().sleep(check_cost).await;
                }
                return Some(cqe);
            }
            let notified = self.watch.notify.clone();
            notified.notified().await;
        }
    }

    /// Ring the CQ head doorbell, releasing consumed slots to the device.
    pub async fn ring_doorbell(&self) -> pcie::Result<()> {
        let (qid, head) = (self.qid, self.head.get());
        self.fabric
            .handle()
            .sanitize_record(None, Stage::CqHeadDoorbell { qid, head });
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
            let cqe = cq.next(SimDuration::from_nanos(100)).await.unwrap();
            (cqe.cid, fabric.handle().now())
        });
        assert_eq!(cid, 42);
        assert_eq!(t.as_nanos(), 5_000 + 100); // wake at write + check cost
    }
}
