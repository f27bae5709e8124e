//! NVMe command-lifecycle conformance oracle.
//!
//! A per-command finite-state machine derived from the spec's queue
//! contract, fed by events from both sides of the wire: the host rings
//! ([`crate::queue`], via [`crate::engine::IoEngine`]) report SQE stores,
//! doorbell writes and CQE consumption; the controller
//! ([`crate::ctrl::NvmeController`]) reports command fetches and CQE
//! posts. Every command must walk
//!
//! ```text
//! SQE written → doorbell exposes slot → fetched → CQE posted with the
//! ring's current phase → consumed at the expected phase → CQ head advanced
//! ```
//!
//! and any shortcut is a protocol violation: double completions, CQE
//! consumption at a stale phase, SQ slot reuse before the controller
//! fetched the previous occupant, and doorbells that regress or expose
//! unwritten slots.
//!
//! The oracle is passive and allocation-free when not installed: emitters
//! call [`emit`] unconditionally, and the thread-local check is the only
//! cost on the canonical path. The schedule explorer (`dnvme-explore`)
//! installs one oracle per explored schedule; tests install one around a
//! seeded-buggy driver to prove the bug class is caught.
//!
//! Queue identifiers: this codebase (like the paper's prototype) pairs SQ
//! *n* with CQ *n*, so one `qid` keys both directions of a qpair.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use simcore::Handle;

/// One protocol violation detected by the oracle: the workspace's one
/// violation record, with a stable `nvme.lifecycle.*` code.
pub use simcore::Violation as LifecycleViolation;

/// Everything the oracle can observe. `entries` rides along on ring events
/// so the oracle needs no out-of-band queue registration.
#[derive(Copy, Clone, Debug)]
pub enum Event {
    /// Host stored an SQE into `slot` of SQ `qid`.
    SqeWritten {
        qid: u16,
        cid: u16,
        slot: u16,
        entries: u16,
    },
    /// Host wrote `tail` to SQ `qid`'s tail doorbell.
    SqDoorbell { qid: u16, tail: u16, entries: u16 },
    /// Controller fetched the command in `slot` of SQ `qid`.
    CmdFetched { qid: u16, cid: u16, slot: u16 },
    /// Controller posted a CQE for `cid` into `slot` of CQ `qid` with the
    /// given phase tag.
    CqePosted {
        qid: u16,
        cid: u16,
        slot: u16,
        phase: bool,
        entries: u16,
    },
    /// Host consumed the CQE in `slot` of CQ `qid`, observing `phase`.
    CqeConsumed {
        qid: u16,
        cid: u16,
        slot: u16,
        phase: bool,
        entries: u16,
    },
    /// Host wrote `head` to CQ `qid`'s head doorbell.
    CqHeadDoorbell { qid: u16, head: u16 },
    /// Controller accepted an Abort for `cid` on SQ `qid`: the command
    /// will complete with ABORT_REQUESTED instead of its own status.
    CmdAborted { qid: u16, cid: u16 },
    /// Controller executed Delete I/O SQ/CQ for `qid`: the queue pair's
    /// lifecycle state is void. A later Create with the same qid starts a
    /// fresh ring at slot 0 / phase 1 (the recovery ladder's
    /// Delete-and-Recreate rung does exactly this).
    QueueDeleted { qid: u16 },
    /// CC.EN 1 → 0: every queue and every in-flight command is gone.
    ControllerReset,
}

/// Where a command stands in its lifecycle.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum CmdState {
    /// SQE stored; the doorbell has not yet exposed the slot.
    Written,
    /// Doorbell covered the slot; the controller may fetch.
    Exposed,
    /// Controller read the SQE out of the ring.
    Fetched,
    /// CQE posted with the recorded phase; awaiting consumption.
    Completed { phase: bool },
}

struct CmdRec {
    state: CmdState,
    slot: u16,
    /// Abort accepted for this command; its CQE carries ABORT_REQUESTED
    /// and the host may legitimately tear the queue down instead of
    /// consuming it.
    aborted: bool,
}

/// Host-visible submission-queue mirror.
struct SqTrack {
    entries: u16,
    last_tail: Option<u16>,
    /// SQEs written but not yet covered by a doorbell, in write order.
    unexposed: VecDeque<u16>,
    /// Slot → cid of the occupant; busy from store until fetch.
    slot_owner: HashMap<u16, u16>,
}

/// Consumer-side completion-queue mirror (expected next slot + phase).
struct CqConsumer {
    head: u16,
    phase: bool,
}

/// Device-side completion-queue mirror (expected next post slot + phase).
struct CqPoster {
    tail: u16,
    phase: bool,
}

#[derive(Default)]
struct OracleState {
    sqs: HashMap<u16, SqTrack>,
    cq_consumer: HashMap<u16, CqConsumer>,
    cq_poster: HashMap<u16, CqPoster>,
    /// (qid, cid) → lifecycle record.
    cmds: HashMap<(u16, u16), CmdRec>,
    violations: Vec<LifecycleViolation>,
}

/// The conformance oracle. Create one per checked run, [`install`] it, run
/// the workload, then read [`LifecycleOracle::violations`].
pub struct LifecycleOracle {
    handle: Handle,
    state: RefCell<OracleState>,
}

impl LifecycleOracle {
    /// A fresh oracle tracking time through `handle`.
    pub fn new(handle: Handle) -> Rc<Self> {
        Rc::new(LifecycleOracle {
            handle,
            state: RefCell::new(OracleState::default()),
        })
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> Vec<LifecycleViolation> {
        self.state.borrow().violations.clone()
    }

    /// Drain the recorded violations.
    pub fn take_violations(&self) -> Vec<LifecycleViolation> {
        std::mem::take(&mut self.state.borrow_mut().violations)
    }

    /// Number of commands currently tracked mid-lifecycle (diagnostic).
    pub fn in_flight(&self) -> usize {
        self.state.borrow().cmds.len()
    }

    fn report(&self, st: &mut OracleState, code: &'static str, detail: String) {
        st.violations.push(LifecycleViolation {
            code,
            at_nanos: self.handle.now().as_nanos(),
            detail,
        });
    }

    fn on_event(&self, ev: Event) {
        let mut st = self.state.borrow_mut();
        match ev {
            Event::SqeWritten {
                qid,
                cid,
                slot,
                entries,
            } => {
                let sq = st.sqs.entry(qid).or_insert_with(|| SqTrack {
                    entries,
                    last_tail: None,
                    unexposed: VecDeque::new(),
                    slot_owner: HashMap::new(),
                });
                if let Some(&owner) = sq.slot_owner.get(&slot) {
                    let detail = format!(
                        "SQ {qid} slot {slot}: SQE for cid {cid} overwrites cid {owner} \
                         before the controller fetched it"
                    );
                    self.report(&mut st, "nvme.lifecycle.slot-reuse", detail);
                }
                let sq = st.sqs.get_mut(&qid).expect("sq just inserted");
                sq.slot_owner.insert(slot, cid);
                sq.unexposed.push_back(cid);
                if let Some(prev) = st.cmds.insert(
                    (qid, cid),
                    CmdRec {
                        state: CmdState::Written,
                        slot,
                        aborted: false,
                    },
                ) {
                    let detail = format!(
                        "SQ {qid} cid {cid} resubmitted while still {:?}",
                        prev.state
                    );
                    self.report(&mut st, "nvme.lifecycle.cid-reuse", detail);
                }
            }
            Event::SqDoorbell { qid, tail, entries } => {
                let Some(sq) = st.sqs.get_mut(&qid) else {
                    return;
                };
                let entries = if sq.entries != 0 { sq.entries } else { entries };
                let advance = match sq.last_tail {
                    Some(prev) => (tail.wrapping_sub(prev)) % entries,
                    // First observed doorbell exposes everything written
                    // so far (the mirror attached mid-stream).
                    None => sq.unexposed.len() as u16,
                };
                sq.last_tail = Some(tail);
                if advance as usize > sq.unexposed.len() {
                    let detail = format!(
                        "SQ {qid} doorbell={tail} exposes {advance} slots but only {} \
                         SQEs were written since the last ring (regressed or \
                         exposed unwritten slots)",
                        sq.unexposed.len()
                    );
                    self.report(&mut st, "nvme.lifecycle.doorbell-regression", detail);
                    return;
                }
                let mut exposed = Vec::new();
                {
                    let sq = st.sqs.get_mut(&qid).expect("sq tracked");
                    for _ in 0..advance {
                        if let Some(cid) = sq.unexposed.pop_front() {
                            exposed.push(cid);
                        }
                    }
                }
                for cid in exposed {
                    if let Some(cmd) = st.cmds.get_mut(&(qid, cid)) {
                        if cmd.state == CmdState::Written {
                            cmd.state = CmdState::Exposed;
                        }
                    }
                }
            }
            Event::CmdFetched { qid, cid, slot } => {
                if !st.sqs.contains_key(&qid) {
                    return; // untracked queue (e.g. admin bring-up)
                }
                match st.cmds.get_mut(&(qid, cid)) {
                    Some(cmd) => {
                        if cmd.slot != slot {
                            let wrote = cmd.slot;
                            let detail = format!(
                                "SQ {qid} cid {cid}: fetched from slot {slot} but the SQE \
                                 was stored in slot {wrote}"
                            );
                            self.report(&mut st, "nvme.lifecycle.fetch-before-doorbell", detail);
                            return;
                        }
                        match cmd.state {
                            CmdState::Exposed => cmd.state = CmdState::Fetched,
                            CmdState::Written => {
                                let detail = format!(
                                    "SQ {qid} cid {cid}: fetched from slot {slot} before \
                                     any doorbell exposed it"
                                );
                                self.report(
                                    &mut st,
                                    "nvme.lifecycle.fetch-before-doorbell",
                                    detail,
                                );
                            }
                            _ => {}
                        }
                        if let Some(sq) = st.sqs.get_mut(&qid) {
                            if sq.slot_owner.get(&slot) == Some(&cid) {
                                sq.slot_owner.remove(&slot);
                            }
                        }
                    }
                    None => {
                        let detail = format!(
                            "SQ {qid}: controller fetched slot {slot} (cid {cid}) but no \
                             SQE store was observed there"
                        );
                        self.report(&mut st, "nvme.lifecycle.fetch-before-doorbell", detail);
                    }
                }
            }
            Event::CqePosted {
                qid,
                cid,
                slot,
                phase,
                entries,
            } => {
                if !st.sqs.contains_key(&qid) {
                    return;
                }
                // Device-side ring mirror: posts must walk slots in order,
                // flipping the phase tag on wrap.
                match st.cq_poster.get_mut(&qid) {
                    Some(p) => {
                        if slot != p.tail || phase != p.phase {
                            let detail = format!(
                                "CQ {qid}: CQE for cid {cid} posted at slot {slot} \
                                 phase {} but the ring's next post is slot {} phase {}",
                                u8::from(phase),
                                p.tail,
                                u8::from(p.phase)
                            );
                            self.report(&mut st, "nvme.lifecycle.cq-phase", detail);
                        } else {
                            p.tail = (p.tail + 1) % entries;
                            if p.tail == 0 {
                                p.phase = !p.phase;
                            }
                        }
                    }
                    None => {
                        // Adopt the first observed post as the ring state.
                        let mut tail = (slot + 1) % entries;
                        let mut ph = phase;
                        if tail == 0 {
                            ph = !ph;
                            tail = 0;
                        }
                        st.cq_poster.insert(qid, CqPoster { tail, phase: ph });
                    }
                }
                match st.cmds.get_mut(&(qid, cid)) {
                    Some(cmd) => match cmd.state {
                        CmdState::Fetched => cmd.state = CmdState::Completed { phase },
                        CmdState::Completed { .. } => {
                            let detail =
                                format!("CQ {qid}: second CQE posted for cid {cid} (slot {slot})");
                            self.report(&mut st, "nvme.lifecycle.double-completion", detail);
                        }
                        CmdState::Written | CmdState::Exposed => {
                            let detail = format!(
                                "CQ {qid}: CQE posted for cid {cid} which was never \
                                 fetched (state {:?})",
                                cmd.state
                            );
                            self.report(&mut st, "nvme.lifecycle.completion-before-fetch", detail);
                        }
                    },
                    None => {
                        let detail = format!(
                            "CQ {qid}: CQE posted for unknown cid {cid} (already retired \
                             or never submitted)"
                        );
                        self.report(&mut st, "nvme.lifecycle.double-completion", detail);
                    }
                }
            }
            Event::CqeConsumed {
                qid,
                cid,
                slot,
                phase,
                entries,
            } => {
                if !st.sqs.contains_key(&qid) {
                    return;
                }
                // Consumer mirror: consumption walks slots in order with the
                // expected phase. Adopt on first observation (mid-stream
                // attach), check thereafter.
                if let Some(c) = st.cq_consumer.get_mut(&qid) {
                    if slot != c.head || phase != c.phase {
                        let detail = format!(
                            "CQ {qid}: consumed slot {slot} phase {} but the ring \
                             expects slot {} phase {}",
                            u8::from(phase),
                            c.head,
                            u8::from(c.phase)
                        );
                        self.report(&mut st, "nvme.lifecycle.stale-phase-consume", detail);
                    }
                }
                let mut head = (slot + 1) % entries;
                let mut ph = phase;
                if head == 0 {
                    ph = !ph;
                    head = 0;
                }
                st.cq_consumer.insert(qid, CqConsumer { head, phase: ph });
                match st.cmds.remove(&(qid, cid)) {
                    Some(cmd) => match cmd.state {
                        CmdState::Completed { phase: posted } => {
                            if posted != phase {
                                let detail = format!(
                                    "CQ {qid} cid {cid}: consumed with phase {} but the \
                                     CQE was posted with phase {}",
                                    u8::from(phase),
                                    u8::from(posted)
                                );
                                self.report(&mut st, "nvme.lifecycle.stale-phase-consume", detail);
                            }
                        }
                        other => {
                            let detail = format!(
                                "CQ {qid} cid {cid}: consumed a CQE the controller never \
                                 posted (command state {other:?} — stale ring contents)"
                            );
                            self.report(&mut st, "nvme.lifecycle.stale-phase-consume", detail);
                        }
                    },
                    None => {
                        let detail = format!(
                            "CQ {qid}: consumed CQE for cid {cid} with no submitted \
                             command (double consume or stale entry)"
                        );
                        self.report(&mut st, "nvme.lifecycle.stale-phase-consume", detail);
                    }
                }
            }
            Event::CqHeadDoorbell { qid, head } => {
                let Some(c) = st.cq_consumer.get(&qid) else {
                    return;
                };
                if head != c.head {
                    let expected = c.head;
                    let detail = format!(
                        "CQ {qid}: head doorbell wrote {head} but the consumer has \
                         advanced to {expected}"
                    );
                    self.report(&mut st, "nvme.lifecycle.cq-doorbell-mismatch", detail);
                }
            }
            Event::CmdAborted { qid, cid } => {
                // Abort for an untracked command is legal: it raced the
                // completion (or the queue is not mirrored).
                match st.cmds.get(&(qid, cid)).map(|c| c.state) {
                    // A controller can only abort a command it has
                    // fetched; claiming to abort one still sitting in the
                    // ring means it peeked past the doorbell.
                    Some(state @ (CmdState::Written | CmdState::Exposed)) => {
                        let detail = format!(
                            "SQ {qid} cid {cid}: abort accepted for a command the \
                             controller never fetched (state {state:?})"
                        );
                        self.report(&mut st, "nvme.lifecycle.abort-unfetched", detail);
                    }
                    Some(_) => {
                        st.cmds.get_mut(&(qid, cid)).expect("cmd tracked").aborted = true;
                    }
                    None => {}
                }
            }
            Event::QueueDeleted { qid } => {
                // The qpair's whole lifecycle state is void: commands the
                // host abandoned (timed out, aborted, CQE lost in the
                // fabric) are disposed of with the queue, and a recreate
                // under the same qid starts a pristine mirror.
                st.sqs.remove(&qid);
                st.cq_consumer.remove(&qid);
                st.cq_poster.remove(&qid);
                st.cmds.retain(|(q, _), _| *q != qid);
            }
            Event::ControllerReset => {
                st.sqs.clear();
                st.cq_consumer.clear();
                st.cq_poster.clear();
                st.cmds.clear();
            }
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<LifecycleOracle>>> = const { RefCell::new(None) };
}

/// Uninstalls the oracle (restoring any previously installed one) on drop.
pub struct OracleGuard {
    previous: Option<Rc<LifecycleOracle>>,
}

impl Drop for OracleGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.previous.take());
    }
}

/// Install `oracle` as the event sink for this thread until the returned
/// guard drops.
#[must_use = "dropping the guard uninstalls the oracle"]
pub fn install(oracle: Rc<LifecycleOracle>) -> OracleGuard {
    CURRENT.with(|c| OracleGuard {
        previous: c.borrow_mut().replace(oracle),
    })
}

/// Whether an oracle is currently installed.
pub fn installed() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Feed one event to the installed oracle (no-op when none is installed).
pub fn emit(ev: Event) {
    let oracle = CURRENT.with(|c| c.borrow().clone());
    if let Some(o) = oracle {
        o.on_event(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimRuntime;

    fn walk_clean(qid: u16) {
        emit(Event::SqeWritten {
            qid,
            cid: 1,
            slot: 0,
            entries: 4,
        });
        emit(Event::SqDoorbell {
            qid,
            tail: 1,
            entries: 4,
        });
        emit(Event::CmdFetched {
            qid,
            cid: 1,
            slot: 0,
        });
        emit(Event::CqePosted {
            qid,
            cid: 1,
            slot: 0,
            phase: true,
            entries: 4,
        });
        emit(Event::CqeConsumed {
            qid,
            cid: 1,
            slot: 0,
            phase: true,
            entries: 4,
        });
        emit(Event::CqHeadDoorbell { qid, head: 1 });
    }

    #[test]
    fn clean_lifecycle_records_nothing() {
        let rt = SimRuntime::new();
        let oracle = LifecycleOracle::new(rt.handle());
        let _g = install(oracle.clone());
        walk_clean(3);
        assert!(oracle.violations().is_empty());
        assert_eq!(oracle.in_flight(), 0);
    }

    #[test]
    fn emit_without_install_is_noop() {
        assert!(!installed());
        walk_clean(3); // must not panic
    }

    #[test]
    fn double_completion_is_flagged() {
        let rt = SimRuntime::new();
        let oracle = LifecycleOracle::new(rt.handle());
        let _g = install(oracle.clone());
        emit(Event::SqeWritten {
            qid: 1,
            cid: 9,
            slot: 0,
            entries: 8,
        });
        emit(Event::SqDoorbell {
            qid: 1,
            tail: 1,
            entries: 8,
        });
        emit(Event::CmdFetched {
            qid: 1,
            cid: 9,
            slot: 0,
        });
        for slot in 0..2 {
            emit(Event::CqePosted {
                qid: 1,
                cid: 9,
                slot,
                phase: true,
                entries: 8,
            });
        }
        let v = oracle.violations();
        assert!(
            v.iter()
                .any(|v| v.code == "nvme.lifecycle.double-completion"),
            "{v:?}"
        );
    }

    #[test]
    fn slot_reuse_before_fetch_is_flagged() {
        let rt = SimRuntime::new();
        let oracle = LifecycleOracle::new(rt.handle());
        let _g = install(oracle.clone());
        emit(Event::SqeWritten {
            qid: 1,
            cid: 1,
            slot: 0,
            entries: 8,
        });
        emit(Event::SqeWritten {
            qid: 1,
            cid: 2,
            slot: 0,
            entries: 8,
        });
        let v = oracle.violations();
        assert!(
            v.iter().any(|v| v.code == "nvme.lifecycle.slot-reuse"),
            "{v:?}"
        );
    }

    #[test]
    fn stale_phase_consume_is_flagged() {
        let rt = SimRuntime::new();
        let oracle = LifecycleOracle::new(rt.handle());
        let _g = install(oracle.clone());
        emit(Event::SqeWritten {
            qid: 1,
            cid: 5,
            slot: 0,
            entries: 8,
        });
        emit(Event::SqDoorbell {
            qid: 1,
            tail: 1,
            entries: 8,
        });
        // Consume before the controller posted anything: stale ring bytes.
        emit(Event::CqeConsumed {
            qid: 1,
            cid: 5,
            slot: 0,
            phase: false,
            entries: 8,
        });
        let v = oracle.violations();
        assert!(
            v.iter()
                .any(|v| v.code == "nvme.lifecycle.stale-phase-consume"),
            "{v:?}"
        );
    }

    #[test]
    fn doorbell_regression_is_flagged() {
        let rt = SimRuntime::new();
        let oracle = LifecycleOracle::new(rt.handle());
        let _g = install(oracle.clone());
        emit(Event::SqeWritten {
            qid: 1,
            cid: 1,
            slot: 0,
            entries: 8,
        });
        emit(Event::SqDoorbell {
            qid: 1,
            tail: 1,
            entries: 8,
        });
        // Ring claims three more slots with nothing written.
        emit(Event::SqDoorbell {
            qid: 1,
            tail: 4,
            entries: 8,
        });
        let v = oracle.violations();
        assert!(
            v.iter()
                .any(|v| v.code == "nvme.lifecycle.doorbell-regression"),
            "{v:?}"
        );
    }

    #[test]
    fn wrapping_lifecycle_stays_clean() {
        let rt = SimRuntime::new();
        let oracle = LifecycleOracle::new(rt.handle());
        let _g = install(oracle.clone());
        // 2 full laps of a 4-entry qpair: phases flip, slots reuse legally.
        let entries = 4u16;
        let mut phase = true;
        for lap in 0..2u16 {
            for slot in 0..entries {
                let cid = lap * entries + slot;
                emit(Event::SqeWritten {
                    qid: 2,
                    cid,
                    slot,
                    entries,
                });
                emit(Event::SqDoorbell {
                    qid: 2,
                    tail: (slot + 1) % entries,
                    entries,
                });
                emit(Event::CmdFetched { qid: 2, cid, slot });
                emit(Event::CqePosted {
                    qid: 2,
                    cid,
                    slot,
                    phase,
                    entries,
                });
                emit(Event::CqeConsumed {
                    qid: 2,
                    cid,
                    slot,
                    phase,
                    entries,
                });
                emit(Event::CqHeadDoorbell {
                    qid: 2,
                    head: (slot + 1) % entries,
                });
                if slot == entries - 1 {
                    phase = !phase;
                }
            }
        }
        assert!(oracle.violations().is_empty(), "{:?}", oracle.violations());
        assert_eq!(oracle.in_flight(), 0);
    }
}
