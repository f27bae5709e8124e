//! # `nvme::engine` — the shared host-side queue-pair engine
//!
//! The one host-side machinery every driver stack builds on: SQE push
//! and doorbell, CQ phase-walk drain, a tag table, a completion loop.
//!
//! * [`IoEngine`] owns one or more queue pairs (built from
//!   [`QueuePairSpec`]s), a [`TagSet`], and one completion-service task
//!   per queue pair driven by a [`CompletionStrategy`].
//! * There is **one submit path**: callers enqueue SQEs; the first caller
//!   becomes the *flusher*, writes the backlog into the ring and issues
//!   **one** SQ tail-doorbell MMIO per batch. The flusher is what
//!   serialises concurrent pushes onto a ring, and it puts a same-instant
//!   burst under one doorbell (for the paper's remote clients, one posted
//!   write through the NTB). At queue depth 1 there is never a second
//!   submitter to batch with, so the sequence is push-then-ring per
//!   command.
//! * A completion is delivered the moment it is detected (the paper puts
//!   the CQ in client-local memory for exactly that): the service hands
//!   over the CQE it saw, drains whatever else has already landed, and
//!   rings the CQ head doorbell once per sweep. The engine counts those
//!   doorbells, and counts ring failures instead of discarding them.
//! * One [`EngineStats`] per engine, summed over its queue pairs, feeds
//!   the drivers' counters and the cluster-level benchmark reports. Which
//!   ring carried a command is on the armed record stream, keyed by qid.
//!
//! The run-time checker sees every engine: it reaches the fabric through
//! its private submission ring (`engine/sq.rs`) and [`CqRing`], which
//! carry the queue id they were built with, so doorbell-before-SQE
//! ordering, CQ phase discipline and the command lifecycle
//! ([`crate::oracle`]) are checked one layer down, on any armed runtime.
//!
//! The submission ring is nameable only from this module, so "all
//! submission goes through the engine" is a compile-time fact. The
//! engine's public types import fine:
//!
//! ```
//! use nvme::engine::{IoEngine, QueuePairSpec};
//! ```
//!
//! the ring does not (E0603, private):
//!
//! ```compile_fail,E0603
//! use nvme::engine::{IoEngine, SqRing};
//! ```

mod sq;

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use blklayer::BioError;
use pcie::{DomainAddr, Fabric, MemRegion};
use simcore::sync::{Notify, Permit, Semaphore};
use simcore::{Handle, SimDuration};

use self::sq::SqRing;
use crate::queue::CqRing;
use crate::spec::command::SqEntry;
use crate::spec::completion::CqEntry;

/// Errors on the engine's submit path.
#[derive(Debug)]
pub enum EngineError {
    /// Tag accounting desynchronized: the depth semaphore granted a
    /// permit but the free-cid list was empty. A driver bug, surfaced as
    /// a typed error instead of a panic.
    TagsExhausted,
    /// A fabric access (SQE write or doorbell MMIO) failed — e.g. the
    /// window was torn down under the driver.
    Fabric(pcie::FabricError),
    /// The completion channel closed without a CQE: the engine is being
    /// torn down or the tag slot was clobbered.
    Gone,
    /// The command blew through its deadline and every doorbell re-ring
    /// retry (rung 1 of the recovery ladder). Its cid is retired; the
    /// caller may issue the tag once more under a fresh one.
    Timeout {
        /// Queue pair the command was striped onto.
        qid: u16,
        /// Command identifier that never completed.
        cid: u16,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::TagsExhausted => write!(f, "tag accounting exhausted (no free cid)"),
            EngineError::Fabric(e) => write!(f, "fabric: {e}"),
            EngineError::Gone => write!(f, "completion channel closed"),
            EngineError::Timeout { qid, cid } => {
                write!(f, "command deadline expired (qid={qid}, cid={cid})")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<pcie::FabricError> for EngineError {
    fn from(e: pcie::FabricError) -> Self {
        EngineError::Fabric(e)
    }
}

impl From<EngineError> for BioError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::TagsExhausted => BioError::NoFreeTag,
            EngineError::Fabric(f) => BioError::DeviceError(f.to_string()),
            EngineError::Gone => BioError::Gone,
            EngineError::Timeout { qid, cid } => BioError::Timeout { qid, cid },
        }
    }
}

/// What a completion waiter receives: the CQE, or the submit-path error
/// that prevented the command from ever reaching the controller.
pub type EngineResult = Result<CqEntry, EngineError>;

// ---------------------------------------------------------------------
// Tag allocation + pending-completion table
// ---------------------------------------------------------------------

/// An index's completion slot, reused by every instance issued under it.
enum Waiter {
    /// No instance waits.
    Idle,
    /// An instance waits; its receiver's waker once that has parked.
    Armed(Option<Waker>),
    /// The instance's result (`Err(Gone)` once abandoned), until its
    /// receiver takes it.
    Done(EngineResult),
}

struct TagTable {
    slots: Vec<Waiter>,
    /// Per index, the cid of its live instance.
    cids: Vec<u16>,
    free: Vec<u16>,
}

impl TagTable {
    /// End index `index`'s live instance without its completion, if one
    /// waits: its cid goes stale, and the next instance's is `depth`
    /// further on. Returns whether one waited.
    fn abandon(&mut self, index: usize) -> bool {
        let slot = &mut self.slots[index];
        let Waiter::Armed(waker) = slot else {
            return false;
        };
        let waker = waker.take();
        *slot = Waiter::Done(Err(EngineError::Gone));
        if let Some(waker) = waker {
            waker.wake();
        }
        let depth = self.cids.len() as u32;
        let span = (1u32 << 16) / depth * depth;
        let cid = &mut self.cids[index];
        *cid = ((u32::from(*cid) + depth) % span) as u16;
        true
    }
}

/// A reserved tag. Its index names the staging slot and the ring stripe;
/// its cid is `index + depth × generation`, where the generation advances
/// each time an instance ends without its completion, so a retry never
/// goes out under a cid a late CQE may still answer. Dropping the tag
/// returns the index to the free list (and abandons any still-pending
/// instance), so error paths cannot leak tags.
pub struct Tag {
    index: u16,
    table: Rc<RefCell<TagTable>>,
    _permit: Permit,
}

impl Tag {
    /// The command identifier of this tag's live instance.
    pub fn cid(&self) -> u16 {
        self.table.borrow().cids[self.index as usize]
    }

    /// The tag's index in `0..depth`: its staging slot.
    pub fn index(&self) -> usize {
        self.index as usize
    }
}

impl Drop for Tag {
    fn drop(&mut self) {
        let mut t = self.table.borrow_mut();
        t.abandon(self.index as usize);
        t.free.push(self.index);
    }
}

/// Tag allocator plus pending-completion table: the backpressure and
/// request-matching half of every driver stack. Usable standalone (the
/// NVMe-oF initiator matches response capsules with it) or as part of an
/// [`IoEngine`].
pub struct TagSet {
    sem: Semaphore,
    depth: usize,
    table: Rc<RefCell<TagTable>>,
}

impl TagSet {
    /// A set of `depth` tags, indices `0..depth`, each starting at cid =
    /// index.
    pub fn new(depth: usize) -> TagSet {
        assert!(depth > 0 && depth <= u16::MAX as usize);
        TagSet {
            sem: Semaphore::new(depth),
            depth,
            table: Rc::new(RefCell::new(TagTable {
                slots: (0..depth).map(|_| Waiter::Idle).collect(),
                cids: (0..depth as u16).collect(),
                free: (0..depth as u16).rev().collect(),
            })),
        }
    }

    /// Outstanding-command limit.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Reserve a tag, waiting until one is free.
    pub async fn acquire(&self) -> Result<Tag, EngineError> {
        let permit = self.sem.acquire().await;
        let index = self
            .table
            .borrow_mut()
            .free
            .pop()
            .ok_or(EngineError::TagsExhausted)?;
        Ok(Tag {
            index,
            table: self.table.clone(),
            _permit: permit,
        })
    }

    /// Arm `tag`'s completion slot for its live instance and return the
    /// receiver. The slot is the index's own, so this allocates nothing.
    pub fn register(&self, tag: &Tag) -> Completion<'_> {
        self.table.borrow_mut().slots[tag.index()] = Waiter::Armed(None);
        Completion {
            table: &self.table,
            index: tag.index(),
        }
    }

    /// Deliver `result` to the waiter registered on `cid`. Returns false
    /// when no live instance has that cid or none waits (stale or
    /// duplicate completion).
    pub fn complete(&self, cid: u16, result: EngineResult) -> bool {
        let waker = {
            let mut t = self.table.borrow_mut();
            let index = cid as usize % self.depth;
            if t.cids[index] != cid {
                return false;
            }
            let slot = &mut t.slots[index];
            let Waiter::Armed(waker) = slot else {
                return false;
            };
            let waker = waker.take();
            *slot = Waiter::Done(result);
            waker
        };
        if let Some(waker) = waker {
            waker.wake();
        }
        true
    }
}

/// The receiver [`TagSet::register`] returns: resolves to the result
/// delivered to that instance, or `Err(Gone)` once it is abandoned.
pub struct Completion<'a> {
    table: &'a RefCell<TagTable>,
    index: usize,
}

impl Future for Completion<'_> {
    type Output = EngineResult;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<EngineResult> {
        let mut t = self.table.borrow_mut();
        match &mut t.slots[self.index] {
            Waiter::Armed(waker) => {
                *waker = Some(cx.waker().clone());
                Poll::Pending
            }
            slot => match std::mem::replace(slot, Waiter::Idle) {
                Waiter::Done(result) => Poll::Ready(result),
                Waiter::Idle | Waiter::Armed(_) => Poll::Ready(Err(EngineError::Gone)),
            },
        }
    }
}

// ---------------------------------------------------------------------
// Engine configuration
// ---------------------------------------------------------------------

/// How a completion service detects CQEs: polling or interrupts.
#[derive(Clone, Copy, Debug)]
pub enum CompletionStrategy {
    /// Busy-poll the CQ; `check_cost` is charged per successful detection
    /// (SPDK, the paper's client driver).
    Polling {
        /// CPU cost of one successful phase check.
        check_cost: SimDuration,
    },
    /// Wait for the routed MSI, then pay interrupt-delivery latency
    /// (stock kernel driver, the paper's forwarded-IRQ ablation).
    Interrupt {
        /// IRQ + bottom-half latency before the drain starts.
        latency: SimDuration,
    },
}

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Outstanding-command limit (tags across all queue pairs).
    pub queue_depth: usize,
    /// Per-command completion deadline — rung 1 of the recovery ladder.
    /// `None` (the default) keeps the old unbounded wait. When set,
    /// [`IoEngine::issue`] re-rings the SQ tail doorbell on each expiry
    /// (recovering a dropped doorbell delivery) and doubles the deadline,
    /// up to [`MAX_RETRIES`] times, then fails the command with
    /// [`EngineError::Timeout`] instead of hanging.
    pub cmd_timeout: Option<SimDuration>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            queue_depth: 32,
            cmd_timeout: None,
        }
    }
}

/// Doorbell re-ring retries before a deadline expiry becomes an
/// [`EngineError::Timeout`] (only reached when `cmd_timeout` is set).
pub const MAX_RETRIES: u32 = 2;

/// Most SQEs the flusher writes under one SQ tail-doorbell MMIO: bounds
/// how long the first SQE of a burst waits for its doorbell.
const COALESCE_LIMIT: usize = 32;

/// Everything the engine needs to operate one queue pair. The engine
/// constructs the rings itself — callers cannot name the submission ring
/// (it is private to this module).
pub struct QueuePairSpec {
    /// Controller-side queue id (doorbell index).
    pub qid: u16,
    /// CPU-visible SQ ring memory (may be a remote NTB mapping).
    pub sq_ring: MemRegion,
    /// SQ tail doorbell in the driver host's domain.
    pub sq_doorbell: DomainAddr,
    /// Host-local CQ ring memory.
    pub cq_ring: MemRegion,
    /// CQ head doorbell in the driver host's domain.
    pub cq_doorbell: DomainAddr,
    /// Entries per ring.
    pub entries: u16,
    /// MSI route for [`CompletionStrategy::Interrupt`].
    pub irq: Option<Notify>,
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

/// An engine's counters over all its queue pairs, exposed through driver
/// stats and the cluster-level benchmark reports.
#[derive(Default, Clone, Debug)]
pub struct EngineStats {
    /// SQEs written into the ring.
    pub sqes_submitted: u64,
    /// SQ tail-doorbell MMIOs: ≤ `sqes_submitted`, and equal to it at
    /// queue depth 1.
    pub sq_doorbells: u64,
    /// Largest number of SQEs covered by a single doorbell.
    pub max_batch: u64,
    /// CQ head-doorbell MMIOs (one per drain sweep).
    pub cq_doorbells: u64,
    /// Doorbell MMIO failures — counted, never silently discarded.
    pub doorbell_errors: u64,
    /// SQE ring-write failures (waiter receives the typed error).
    pub push_errors: u64,
    /// Commands abandoned after the retry budget: their waiters received
    /// [`EngineError::Timeout`].
    pub timeouts: u64,
}

impl EngineStats {
    /// Fold another counter set into this one (`max_batch` takes the max,
    /// everything else sums).
    pub fn absorb(&mut self, other: &EngineStats) {
        self.sqes_submitted += other.sqes_submitted;
        self.sq_doorbells += other.sq_doorbells;
        self.max_batch = self.max_batch.max(other.max_batch);
        self.cq_doorbells += other.cq_doorbells;
        self.doorbell_errors += other.doorbell_errors;
        self.push_errors += other.push_errors;
        self.timeouts += other.timeouts;
    }
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

struct EngineQpair {
    qid: u16,
    sq: SqRing,
    /// The CQ ring the completion service polls.
    cq: CqRing,
    /// MSI route for [`CompletionStrategy::Interrupt`].
    irq: Option<Notify>,
    /// SQEs accepted but not yet written to the ring. The active flusher
    /// drains this; its doorbell covers everything it wrote.
    backlog: RefCell<VecDeque<SqEntry>>,
    /// Whether a flusher task is currently draining the backlog.
    flushing: Cell<bool>,
}

/// The shared host-side I/O engine: tags, queue pairs, the coalescing
/// submit path, and per-qpair completion services.
pub struct IoEngine {
    handle: Handle,
    strategy: CompletionStrategy,
    cfg: EngineConfig,
    qpairs: Vec<EngineQpair>,
    tags: TagSet,
    stats: RefCell<EngineStats>,
}

impl IoEngine {
    /// Build the rings, spawn one completion-service task per queue pair,
    /// and return the running engine.
    pub fn start(
        fabric: &Fabric,
        specs: Vec<QueuePairSpec>,
        strategy: CompletionStrategy,
        cfg: EngineConfig,
    ) -> Rc<IoEngine> {
        assert!(!specs.is_empty(), "engine needs at least one queue pair");
        let mut qpairs = Vec::with_capacity(specs.len());
        for spec in specs {
            if matches!(strategy, CompletionStrategy::Interrupt { .. }) {
                assert!(
                    spec.irq.is_some(),
                    "interrupt strategy requires an IRQ route per queue pair"
                );
            }
            // Tags are the only admission control: every tag must fit in
            // any ring it can stripe onto (a ring holds entries - 1).
            assert!(
                cfg.queue_depth < spec.entries as usize,
                "queue_depth {} cannot exceed ring capacity {}",
                cfg.queue_depth,
                spec.entries - 1
            );
            let sq = SqRing::new(
                fabric,
                spec.qid,
                spec.sq_ring,
                spec.sq_doorbell,
                spec.entries,
            );
            qpairs.push(EngineQpair {
                qid: spec.qid,
                sq,
                cq: CqRing::new(
                    fabric,
                    spec.qid,
                    spec.cq_ring,
                    spec.cq_doorbell,
                    spec.entries,
                ),
                irq: spec.irq,
                backlog: RefCell::new(VecDeque::new()),
                flushing: Cell::new(false),
            });
        }
        let engine = Rc::new(IoEngine {
            handle: fabric.handle(),
            strategy,
            cfg,
            qpairs,
            tags: TagSet::new(cfg.queue_depth),
            stats: RefCell::default(),
        });
        for index in 0..engine.qpairs.len() {
            let e = engine.clone();
            engine
                .handle
                .spawn(async move { e.completion_service(index).await });
        }
        engine
    }

    /// Controller-side queue ids, in stripe order.
    pub fn qids(&self) -> Vec<u16> {
        self.qpairs.iter().map(|q| q.qid).collect()
    }

    /// Outstanding-command limit.
    pub fn queue_depth(&self) -> usize {
        self.tags.depth()
    }

    /// Reserve a tag, waiting until one is free.
    pub async fn acquire_tag(&self) -> Result<Tag, EngineError> {
        self.tags.acquire().await
    }

    /// The queue pair a tag stripes onto.
    fn qp_for(&self, tag: &Tag) -> &EngineQpair {
        &self.qpairs[tag.index() % self.qpairs.len()]
    }

    /// Counter snapshot across all queue pairs.
    pub fn stats(&self) -> EngineStats {
        self.stats.borrow().clone()
    }

    /// Submit one command under `tag`'s live cid (stamped into `sqe`) and
    /// wait for its completion. The tag stays reserved afterwards so the
    /// caller can keep using its staging slot until it drops the tag, or
    /// issue it again after a [`EngineError::Timeout`].
    pub async fn issue(&self, tag: &Tag, mut sqe: SqEntry) -> EngineResult {
        sqe.cid = tag.cid();
        let mut rx = self.tags.register(tag);
        let qp = self.qp_for(tag);
        // However this instance ends without its CQE (out of budget
        // below, or dropped by the caller), its ring is told.
        let _lost = Lost { tag, cq: &qp.cq };
        self.submit(qp, sqe).await;
        let Some(base) = self.cfg.cmd_timeout else {
            return rx.await;
        };
        // Recovery ladder, rung 1: bound the completion wait. Each expiry
        // re-rings the SQ tail doorbell — which recovers a dropped
        // doorbell delivery outright — and doubles the deadline so a
        // merely-slow device isn't hammered. A command that stays silent
        // through the whole budget surfaces as `Timeout` instead of
        // hanging forever.
        let mut wait = base;
        for attempt in 0..=MAX_RETRIES {
            match simcore::timeout(&self.handle, wait, &mut rx).await {
                Ok(result) => return result,
                Err(simcore::Elapsed) => {
                    // A CQE beyond a lost one may already be waiting.
                    qp.cq.note_lost(false);
                    if attempt == MAX_RETRIES {
                        break;
                    }
                    if qp.sq.ring().await.is_err() {
                        self.stats.borrow_mut().doorbell_errors += 1;
                    }
                    wait = wait * 2;
                }
            }
        }
        self.stats.borrow_mut().timeouts += 1;
        Err(EngineError::Timeout {
            qid: qp.qid,
            cid: sqe.cid,
        })
    }

    /// End every completion service and drop its CQ watch before the
    /// rings' memory is given back and its next owner writes there.
    pub fn stop(&self) {
        for qp in &self.qpairs {
            qp.cq.close();
            if let Some(irq) = &qp.irq {
                irq.notify_one();
            }
        }
    }

    /// The one submit path: enqueue `sqe`, and unless a flusher is already
    /// draining `qp`'s backlog become it — write SQEs into the ring in
    /// batches of up to [`COALESCE_LIMIT`] with **one** tail doorbell per
    /// batch. Later submitters ride along under the active flusher's
    /// doorbell. At queue depth 1 the backlog never holds a second entry,
    /// so the sequence is push-then-ring per command. Every SQE that
    /// cannot be announced to the device resolves its waiter with a typed
    /// error — a silently dropped command would hang it.
    async fn submit(&self, qp: &EngineQpair, sqe: SqEntry) {
        qp.backlog.borrow_mut().push_back(sqe);
        if qp.flushing.get() {
            return; // the active flusher's doorbell covers this SQE
        }
        qp.flushing.set(true);
        loop {
            let Some(first) = qp.backlog.borrow_mut().pop_front() else {
                break;
            };
            if let Err(e) = qp.sq.push(&first).await {
                self.stats.borrow_mut().push_errors += 1;
                self.tags.complete(first.cid, Err(EngineError::Fabric(e)));
                continue; // nothing written yet, so no doorbell is owed
            }
            // From the first successful push on, every path reaches the
            // one ring below. The batch's cids, on the stack.
            let mut batch = [first.cid; COALESCE_LIMIT];
            let mut batched = 1;
            while batched < COALESCE_LIMIT {
                let Some(sqe) = qp.backlog.borrow_mut().pop_front() else {
                    break;
                };
                match qp.sq.push(&sqe).await {
                    Ok(()) => {
                        batch[batched] = sqe.cid;
                        batched += 1;
                    }
                    Err(e) => {
                        self.stats.borrow_mut().push_errors += 1;
                        self.tags.complete(sqe.cid, Err(EngineError::Fabric(e)));
                    }
                }
            }
            match qp.sq.ring().await {
                Ok(()) => {
                    let n = batched as u64;
                    let mut s = self.stats.borrow_mut();
                    s.sqes_submitted += n;
                    s.sq_doorbells += 1;
                    s.max_batch = s.max_batch.max(n);
                }
                Err(e) => {
                    // The tail never reached the device: the batch's SQEs
                    // sit in the ring unannounced. Fail their waiters
                    // instead of letting them hang.
                    self.stats.borrow_mut().doorbell_errors += 1;
                    for &cid in &batch[..batched] {
                        self.tags.complete(cid, Err(EngineError::Fabric(e.clone())));
                    }
                }
            }
        }
        qp.flushing.set(false);
    }

    /// The per-queue-pair completion service: detect (poll or IRQ),
    /// deliver the detected CQE and every other one already in the ring,
    /// ring the CQ head doorbell once per sweep. Ends once
    /// [`IoEngine::stop`] closes the ring.
    async fn completion_service(self: Rc<Self>, index: usize) {
        let cq = &self.qpairs[index].cq;
        loop {
            let held = match (self.strategy, &self.qpairs[index].irq) {
                (CompletionStrategy::Interrupt { latency }, Some(irq)) => {
                    irq.notified().await;
                    self.handle.sleep(latency).await;
                    None
                }
                (CompletionStrategy::Polling { check_cost }, _) => cq.next(check_cost).await,
                _ => unreachable!("interrupt strategy without an IRQ route"),
            };
            if cq.is_closed() {
                return;
            }
            let mut reaped = 0u64;
            if let Some(cqe) = held {
                self.deliver(index, cqe);
                reaped += 1;
            }
            while let Some(cqe) = cq.try_pop() {
                self.deliver(index, cqe);
                reaped += 1;
            }
            if reaped == 0 {
                // Spurious wake (e.g. an IRQ whose CQE a previous sweep
                // already drained): the head is unchanged, nothing to ring.
                continue;
            }
            let rung = cq.ring_doorbell().await;
            let mut s = self.stats.borrow_mut();
            match rung {
                Ok(()) => s.cq_doorbells += 1,
                Err(_) => s.doorbell_errors += 1,
            }
        }
    }

    fn deliver(&self, index: usize, cqe: CqEntry) {
        let qp = &self.qpairs[index];
        let live = self.tags.complete(cqe.cid, Ok(cqe));
        qp.sq.retire(qp.cq.settle(live));
    }
}

/// Held by [`IoEngine::issue`] for one instance: dropped with the
/// instance still waiting, it abandons the instance and tells its ring.
struct Lost<'a> {
    tag: &'a Tag,
    cq: &'a CqRing,
}

impl Drop for Lost<'_> {
    fn drop(&mut self) {
        if self.tag.table.borrow_mut().abandon(self.tag.index()) {
            self.cq.note_lost(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagset_hands_out_unique_cids_and_recycles() {
        let rt = simcore::SimRuntime::new();
        rt.block_on(async {
            let tags = TagSet::new(2);
            let a = tags.acquire().await.unwrap();
            let b = tags.acquire().await.unwrap();
            assert_ne!(a.cid(), b.cid());
            let freed = a.cid();
            drop(a);
            let c = tags.acquire().await.unwrap();
            assert_eq!(c.cid(), freed, "dropped tag must be reusable");
            drop(b);
            drop(c);
        });
    }

    #[test]
    fn tagset_complete_without_waiter_is_reported() {
        let rt = simcore::SimRuntime::new();
        rt.block_on(async {
            let tags = TagSet::new(1);
            let tag = tags.acquire().await.unwrap();
            assert!(!tags.complete(tag.cid(), Err(EngineError::Gone)));
            let rx = tags.register(&tag);
            assert!(tags.complete(tag.cid(), Err(EngineError::Gone)));
            assert!(matches!(rx.await, Err(EngineError::Gone)));
        });
    }

    #[test]
    fn dropping_tag_discards_pending_slot() {
        let rt = simcore::SimRuntime::new();
        rt.block_on(async {
            let tags = TagSet::new(1);
            let tag = tags.acquire().await.unwrap();
            let cid = tag.cid();
            let _rx = tags.register(&tag);
            drop(tag);
            // The slot died with the tag: a late completion is stale.
            assert!(!tags.complete(cid, Err(EngineError::Gone)));
        });
    }
}
