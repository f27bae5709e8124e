//! # `nvme::engine` — the shared host-side queue-pair engine
//!
//! Every driver stack in this workspace used to re-implement the same
//! host-side machinery: SQE push + per-command doorbell ring, CQ
//! phase-walk drain, a tag/pending-slot table, and a poll-vs-IRQ
//! completion loop. This module is the single implementation all of them
//! build on now:
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
//! * Per-qpair [`QpairStats`] feed the drivers' `qpair_stats()` and the
//!   cluster-level benchmark reports.
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
use std::rc::Rc;

use blklayer::BioError;
use pcie::{DomainAddr, Fabric, MemRegion};
use simcore::sync::{oneshot, Notify, Permit, Semaphore};
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
    /// retry (rung 1 of the recovery ladder). The caller escalates:
    /// Abort via the admin path, then queue recreate, then reset.
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

struct TagTable {
    slots: Vec<Option<oneshot::Sender<EngineResult>>>,
    free: Vec<u16>,
}

/// A reserved command identifier. Dropping the tag returns the cid to the
/// free list (and discards any still-pending completion slot), so error
/// paths cannot leak tags.
pub struct Tag {
    cid: u16,
    table: Rc<RefCell<TagTable>>,
    _permit: Permit,
}

impl Tag {
    /// The command identifier this tag reserves.
    pub fn cid(&self) -> u16 {
        self.cid
    }
}

impl Drop for Tag {
    fn drop(&mut self) {
        let mut t = self.table.borrow_mut();
        t.slots[self.cid as usize] = None;
        t.free.push(self.cid);
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
    /// A set of `depth` tags, cids `0..depth`.
    pub fn new(depth: usize) -> TagSet {
        assert!(depth > 0 && depth <= u16::MAX as usize);
        TagSet {
            sem: Semaphore::new(depth),
            depth,
            table: Rc::new(RefCell::new(TagTable {
                slots: (0..depth).map(|_| None).collect(),
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
        let cid = self
            .table
            .borrow_mut()
            .free
            .pop()
            .ok_or(EngineError::TagsExhausted)?;
        Ok(Tag {
            cid,
            table: self.table.clone(),
            _permit: permit,
        })
    }

    /// Install a completion slot for `tag` and return its receiver.
    pub fn register(&self, tag: &Tag) -> oneshot::Receiver<EngineResult> {
        let (tx, rx) = oneshot::channel();
        self.table.borrow_mut().slots[tag.cid as usize] = Some(tx);
        rx
    }

    /// Deliver `result` to the waiter registered on `cid`. Returns false
    /// when no waiter is registered (stale or duplicate completion).
    pub fn complete(&self, cid: u16, result: EngineResult) -> bool {
        let tx = self
            .table
            .borrow_mut()
            .slots
            .get_mut(cid as usize)
            .and_then(Option::take);
        match tx {
            Some(tx) => {
                tx.send(result);
                true
            }
            None => false,
        }
    }

    /// Cids with a registered completion slot, for recovery sweeps.
    fn registered_cids(&self) -> Vec<u16> {
        self.table
            .borrow()
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(cid, _)| cid as u16)
            .collect()
    }
}

// ---------------------------------------------------------------------
// Engine configuration
// ---------------------------------------------------------------------

/// How a completion service detects CQEs — the poll-vs-IRQ choice that
/// used to be duplicated across every driver's completion loop.
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

/// Per-queue-pair counters, exposed through driver stats and the
/// cluster-level benchmark reports.
#[derive(Default, Clone, Debug)]
pub struct QpairStats {
    /// SQEs written into the ring.
    pub sqes_submitted: u64,
    /// SQ tail-doorbell MMIOs: ≤ `sqes_submitted`, and equal to it at
    /// queue depth 1.
    pub sq_doorbells: u64,
    /// Largest number of SQEs covered by a single doorbell.
    pub max_batch: u64,
    /// CQEs reaped by the completion service.
    pub cqes_reaped: u64,
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

impl QpairStats {
    /// Fold another counter set into this one (`max_batch` takes the max,
    /// everything else sums).
    pub fn absorb(&mut self, other: &QpairStats) {
        self.sqes_submitted += other.sqes_submitted;
        self.sq_doorbells += other.sq_doorbells;
        self.max_batch = self.max_batch.max(other.max_batch);
        self.cqes_reaped += other.cqes_reaped;
        self.cq_doorbells += other.cq_doorbells;
        self.doorbell_errors += other.doorbell_errors;
        self.push_errors += other.push_errors;
        self.timeouts += other.timeouts;
    }
}

/// Snapshot of every queue pair's counters.
#[derive(Default, Clone, Debug)]
pub struct EngineStats {
    /// `(qid, counters)` per queue pair, in stripe order.
    pub qpairs: Vec<(u16, QpairStats)>,
}

impl EngineStats {
    /// Sum across queue pairs.
    pub fn totals(&self) -> QpairStats {
        let mut t = QpairStats::default();
        for (_, s) in &self.qpairs {
            t.absorb(s);
        }
        t
    }
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

struct EngineQpair {
    qid: u16,
    sq: SqRing,
    /// The CQ ring, shared with the completion-service task so
    /// [`IoEngine::reset_qpair`] can restart the phase walk in place.
    cq: Rc<CqRing>,
    /// SQEs accepted but not yet written to the ring. The active flusher
    /// drains this; its doorbell covers everything it wrote.
    backlog: RefCell<VecDeque<SqEntry>>,
    /// Whether a flusher task is currently draining the backlog.
    flushing: Cell<bool>,
    stats: RefCell<QpairStats>,
}

/// The shared host-side I/O engine: tags, queue pairs, the coalescing
/// submit path, and per-qpair completion services.
pub struct IoEngine {
    handle: Handle,
    strategy: CompletionStrategy,
    cfg: EngineConfig,
    qpairs: Vec<EngineQpair>,
    tags: TagSet,
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
        let mut services = Vec::with_capacity(specs.len());
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
            let cq = Rc::new(CqRing::new(
                fabric,
                spec.qid,
                spec.cq_ring,
                spec.cq_doorbell,
                spec.entries,
            ));
            qpairs.push(EngineQpair {
                qid: spec.qid,
                sq,
                cq: cq.clone(),
                backlog: RefCell::new(VecDeque::new()),
                flushing: Cell::new(false),
                stats: RefCell::new(QpairStats::default()),
            });
            services.push((cq, spec.irq));
        }
        let engine = Rc::new(IoEngine {
            handle: fabric.handle(),
            strategy,
            cfg,
            qpairs,
            tags: TagSet::new(cfg.queue_depth),
        });
        for (index, (cq, irq)) in services.into_iter().enumerate() {
            let e = engine.clone();
            engine
                .handle
                .spawn(async move { e.completion_service(index, cq, irq).await });
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

    /// The engine's tag set (for callers that pre-stage per-cid
    /// resources such as PRP pages or bounce partitions).
    pub fn tags(&self) -> &TagSet {
        &self.tags
    }

    /// Reserve a tag, waiting until one is free.
    pub async fn acquire_tag(&self) -> Result<Tag, EngineError> {
        self.tags.acquire().await
    }

    /// The queue pair a cid stripes onto.
    fn qp_for(&self, cid: u16) -> &EngineQpair {
        &self.qpairs[cid as usize % self.qpairs.len()]
    }

    /// Counter snapshot across all queue pairs.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            qpairs: self
                .qpairs
                .iter()
                .map(|q| (q.qid, q.stats.borrow().clone()))
                .collect(),
        }
    }

    /// Summed counter snapshot.
    pub fn totals(&self) -> QpairStats {
        self.stats().totals()
    }

    /// Submit one command and wait for its completion. `tag` must be the
    /// reservation backing `sqe.cid`; the tag stays reserved afterwards so
    /// the caller can keep using per-cid staging resources until it drops
    /// the tag.
    pub async fn issue(&self, tag: &Tag, sqe: SqEntry) -> EngineResult {
        debug_assert_eq!(tag.cid(), sqe.cid, "SQE cid must match the reserved tag");
        let mut rx = self.tags.register(tag);
        let qp = self.qp_for(sqe.cid);
        self.submit(qp, sqe).await;
        let Some(base) = self.cfg.cmd_timeout else {
            return match rx.await {
                Ok(result) => result,
                Err(_) => Err(EngineError::Gone),
            };
        };
        // Recovery ladder, rung 1: bound the completion wait. Each expiry
        // re-rings the SQ tail doorbell — which recovers a dropped
        // doorbell delivery outright — and doubles the deadline so a
        // merely-slow device isn't hammered. A command that stays silent
        // through the whole budget surfaces as `Timeout` for the caller's
        // abort/recreate/reset escalation instead of hanging forever.
        let mut wait = base;
        for attempt in 0..=MAX_RETRIES {
            match simcore::timeout(&self.handle, wait, &mut rx).await {
                Ok(Ok(result)) => return result,
                Ok(Err(_)) => return Err(EngineError::Gone),
                Err(simcore::Elapsed) => {
                    if attempt == MAX_RETRIES {
                        break;
                    }
                    if qp.sq.ring().await.is_err() {
                        qp.stats.borrow_mut().doorbell_errors += 1;
                    }
                    wait = wait * 2;
                }
            }
        }
        qp.stats.borrow_mut().timeouts += 1;
        Err(EngineError::Timeout {
            qid: qp.qid,
            cid: sqe.cid,
        })
    }

    /// Per-queue-pair recovery (ladder rung 3 support): fail every waiter
    /// striped onto `qid` with [`EngineError::Gone`], discard its backlog,
    /// and restart both rings at slot 0 / phase 1 — the state a freshly
    /// recreated controller-side queue pair expects. The completion
    /// service keeps running on the same (shared) CQ ring. Returns false
    /// when the engine owns no such qid.
    pub fn reset_qpair(&self, qid: u16) -> bool {
        let stripe = self.qpairs.len();
        let Some((index, qp)) = self.qpairs.iter().enumerate().find(|(_, q)| q.qid == qid) else {
            return false;
        };
        let backlogged: Vec<SqEntry> = qp.backlog.borrow_mut().drain(..).collect();
        for sqe in backlogged {
            self.tags.complete(sqe.cid, Err(EngineError::Gone));
        }
        for cid in self.tags.registered_cids() {
            if cid as usize % stripe == index {
                self.tags.complete(cid, Err(EngineError::Gone));
            }
        }
        qp.sq.reset();
        qp.cq.reset();
        true
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
                qp.stats.borrow_mut().push_errors += 1;
                self.tags.complete(first.cid, Err(EngineError::Fabric(e)));
                continue; // nothing written yet, so no doorbell is owed
            }
            // From the first successful push on, every path reaches the
            // one ring below.
            let mut batch = vec![first.cid];
            while batch.len() < COALESCE_LIMIT {
                let Some(sqe) = qp.backlog.borrow_mut().pop_front() else {
                    break;
                };
                match qp.sq.push(&sqe).await {
                    Ok(()) => batch.push(sqe.cid),
                    Err(e) => {
                        qp.stats.borrow_mut().push_errors += 1;
                        self.tags.complete(sqe.cid, Err(EngineError::Fabric(e)));
                    }
                }
            }
            match qp.sq.ring().await {
                Ok(()) => {
                    let n = batch.len() as u64;
                    let mut s = qp.stats.borrow_mut();
                    s.sqes_submitted += n;
                    s.sq_doorbells += 1;
                    s.max_batch = s.max_batch.max(n);
                }
                Err(e) => {
                    // The tail never reached the device: the batch's SQEs
                    // sit in the ring unannounced. Fail their waiters
                    // instead of letting them hang.
                    qp.stats.borrow_mut().doorbell_errors += 1;
                    for cid in batch {
                        self.tags.complete(cid, Err(EngineError::Fabric(e.clone())));
                    }
                }
            }
        }
        qp.flushing.set(false);
    }

    /// The per-queue-pair completion service: detect (poll or IRQ),
    /// deliver the detected CQE and every other one already in the ring,
    /// ring the CQ head doorbell once per sweep.
    async fn completion_service(self: Rc<Self>, index: usize, cq: Rc<CqRing>, irq: Option<Notify>) {
        loop {
            let held = match (self.strategy, &irq) {
                (CompletionStrategy::Interrupt { latency }, Some(irq)) => {
                    irq.notified().await;
                    self.handle.sleep(latency).await;
                    None
                }
                (CompletionStrategy::Polling { check_cost }, _) => Some(cq.next(check_cost).await),
                _ => unreachable!("interrupt strategy without an IRQ route"),
            };
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
            let mut s = self.qpairs[index].stats.borrow_mut();
            match rung {
                Ok(()) => s.cq_doorbells += 1,
                Err(_) => s.doorbell_errors += 1,
            }
        }
    }

    fn deliver(&self, index: usize, cqe: CqEntry) {
        let qp = &self.qpairs[index];
        qp.stats.borrow_mut().cqes_reaped += 1;
        // Only release an SQ slot for commands this engine submitted: a
        // CQE for a raw-injected SQE (fault-injection tests write the
        // ring and doorbell directly) must not touch ring occupancy.
        if self.tags.complete(cqe.cid, Ok(cqe)) {
            qp.sq.retire(cqe.sq_head);
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
            assert!(matches!(rx.await, Ok(Err(EngineError::Gone))));
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
