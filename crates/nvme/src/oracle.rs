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
//! The oracle is one consumer of the run-time checker: emitters call
//! [`emit`] unconditionally, which is one bool test on a runtime not built
//! under `simcore::sanitize::arm`. Armed, the FSM's state lives in the
//! runtime's checker slot and every violation goes to the runtime's one
//! log (`nvme.lifecycle.*` codes) beside the race detector's and the
//! protocol checks'.
//!
//! Queue identifiers: this codebase (like the paper's prototype) pairs SQ
//! *n* with CQ *n*, so one `qid` keys both directions of a qpair.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use pcie::Fabric;

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
}

/// Where the FSM lives: the armed runtime's checker slot.
type Slot = Rc<RefCell<OracleState>>;

/// Feed one event to the lifecycle FSM of `fabric`'s runtime (no-op unless
/// that runtime is armed).
pub fn emit(fabric: &Fabric, ev: Event) {
    if !fabric.sanitize_armed() {
        return;
    }
    let handle = fabric.handle();
    let state: Slot = handle.sanitize_slot().expect("an armed runtime has a slot");
    let report = |code: &'static str, detail: String| handle.sanitize_report(code, detail);
    state.borrow_mut().on_event(ev, report);
}

/// Number of commands currently tracked mid-lifecycle (diagnostic); `None`
/// on a runtime that is not armed, where no FSM state exists.
pub fn in_flight(fabric: &Fabric) -> Option<usize> {
    let state: Option<Slot> = fabric.handle().sanitize_slot();
    state.map(|s| s.borrow().cmds.len())
}

/// The slot after `slot` on an `entries`-deep ring, with the phase tag
/// flipped when the walk wraps.
fn ring_next(slot: u16, phase: bool, entries: u16) -> (u16, bool) {
    let next = (slot + 1) % entries;
    (next, phase ^ (next == 0))
}

impl OracleState {
    fn on_event(&mut self, ev: Event, report: impl Fn(&'static str, String)) {
        match ev {
            Event::SqeWritten {
                qid,
                cid,
                slot,
                entries,
            } => {
                let sq = self.sqs.entry(qid).or_insert_with(|| SqTrack {
                    entries,
                    last_tail: None,
                    unexposed: VecDeque::new(),
                    slot_owner: HashMap::new(),
                });
                if let Some(owner) = sq.slot_owner.insert(slot, cid) {
                    report(
                        "nvme.lifecycle.slot-reuse",
                        format!(
                            "SQ {qid} slot {slot}: SQE for cid {cid} overwrites cid {owner} \
                             before the controller fetched it"
                        ),
                    );
                }
                sq.unexposed.push_back(cid);
                let rec = CmdRec {
                    state: CmdState::Written,
                    slot,
                    aborted: false,
                };
                if let Some(prev) = self.cmds.insert((qid, cid), rec) {
                    report(
                        "nvme.lifecycle.cid-reuse",
                        format!(
                            "SQ {qid} cid {cid} resubmitted while still {:?}",
                            prev.state
                        ),
                    );
                }
            }
            Event::SqDoorbell { qid, tail, entries } => {
                let Some(sq) = self.sqs.get_mut(&qid) else {
                    return;
                };
                let entries = if sq.entries != 0 { sq.entries } else { entries };
                let advance = match sq.last_tail {
                    // Distance walked round the ring; `wrapping_sub` on the
                    // raw u16s is only right when `entries` divides 65 536.
                    Some(prev) => {
                        (i32::from(tail) - i32::from(prev)).rem_euclid(i32::from(entries)) as usize
                    }
                    // First observed doorbell exposes everything written
                    // so far (the mirror attached mid-stream).
                    None => sq.unexposed.len(),
                };
                sq.last_tail = Some(tail);
                if advance > sq.unexposed.len() {
                    report(
                        "nvme.lifecycle.doorbell-regression",
                        format!(
                            "SQ {qid} doorbell={tail} exposes {advance} slots but only {} \
                             SQEs were written since the last ring (regressed or \
                             exposed unwritten slots)",
                            sq.unexposed.len()
                        ),
                    );
                    return;
                }
                for cid in sq.unexposed.drain(..advance) {
                    if let Some(cmd) = self.cmds.get_mut(&(qid, cid)) {
                        if cmd.state == CmdState::Written {
                            cmd.state = CmdState::Exposed;
                        }
                    }
                }
            }
            Event::CmdFetched { qid, cid, slot } => {
                let Some(sq) = self.sqs.get_mut(&qid) else {
                    return; // untracked queue (e.g. raw-register bring-up)
                };
                let Some(cmd) = self.cmds.get_mut(&(qid, cid)) else {
                    report(
                        "nvme.lifecycle.fetch-before-doorbell",
                        format!(
                            "SQ {qid}: controller fetched slot {slot} (cid {cid}) but no \
                             SQE store was observed there"
                        ),
                    );
                    return;
                };
                if cmd.slot != slot {
                    report(
                        "nvme.lifecycle.fetch-before-doorbell",
                        format!(
                            "SQ {qid} cid {cid}: fetched from slot {slot} but the SQE \
                             was stored in slot {}",
                            cmd.slot
                        ),
                    );
                    return;
                }
                match cmd.state {
                    CmdState::Exposed => cmd.state = CmdState::Fetched,
                    CmdState::Written => report(
                        "nvme.lifecycle.fetch-before-doorbell",
                        format!(
                            "SQ {qid} cid {cid}: fetched from slot {slot} before \
                             any doorbell exposed it"
                        ),
                    ),
                    _ => {}
                }
                if sq.slot_owner.get(&slot) == Some(&cid) {
                    sq.slot_owner.remove(&slot);
                }
            }
            Event::CqePosted {
                qid,
                cid,
                slot,
                phase,
                entries,
            } => {
                if !self.sqs.contains_key(&qid) {
                    return;
                }
                // Device-side ring mirror: posts must walk slots in order,
                // flipping the phase tag on wrap.
                match self.cq_poster.get_mut(&qid) {
                    Some(p) if slot != p.tail || phase != p.phase => report(
                        "nvme.lifecycle.cq-phase",
                        format!(
                            "CQ {qid}: CQE for cid {cid} posted at slot {slot} \
                             phase {} but the ring's next post is slot {} phase {}",
                            u8::from(phase),
                            p.tail,
                            u8::from(p.phase)
                        ),
                    ),
                    // In step — or the first observed post, adopted as the
                    // ring state.
                    _ => {
                        let (tail, phase) = ring_next(slot, phase, entries);
                        self.cq_poster.insert(qid, CqPoster { tail, phase });
                    }
                }
                match self.cmds.get_mut(&(qid, cid)) {
                    Some(cmd) => match cmd.state {
                        CmdState::Fetched => cmd.state = CmdState::Completed { phase },
                        CmdState::Completed { .. } => report(
                            "nvme.lifecycle.double-completion",
                            format!("CQ {qid}: second CQE posted for cid {cid} (slot {slot})"),
                        ),
                        CmdState::Written | CmdState::Exposed => report(
                            "nvme.lifecycle.completion-before-fetch",
                            format!(
                                "CQ {qid}: CQE posted for cid {cid} which was never \
                                 fetched (state {:?})",
                                cmd.state
                            ),
                        ),
                    },
                    None => report(
                        "nvme.lifecycle.double-completion",
                        format!(
                            "CQ {qid}: CQE posted for unknown cid {cid} (already retired \
                             or never submitted)"
                        ),
                    ),
                }
            }
            Event::CqeConsumed {
                qid,
                cid,
                slot,
                phase,
                entries,
            } => {
                if !self.sqs.contains_key(&qid) {
                    return;
                }
                // Consumer mirror: consumption walks slots in order with the
                // expected phase. Adopt on first observation (mid-stream
                // attach), check thereafter.
                if let Some(c) = self.cq_consumer.get(&qid) {
                    if slot != c.head || phase != c.phase {
                        report(
                            "nvme.lifecycle.stale-phase-consume",
                            format!(
                                "CQ {qid}: consumed slot {slot} phase {} but the ring \
                                 expects slot {} phase {}",
                                u8::from(phase),
                                c.head,
                                u8::from(c.phase)
                            ),
                        );
                    }
                }
                let (head, next_phase) = ring_next(slot, phase, entries);
                let next = CqConsumer {
                    head,
                    phase: next_phase,
                };
                self.cq_consumer.insert(qid, next);
                match self.cmds.remove(&(qid, cid)).map(|cmd| cmd.state) {
                    Some(CmdState::Completed { phase: posted }) => {
                        if posted != phase {
                            report(
                                "nvme.lifecycle.stale-phase-consume",
                                format!(
                                    "CQ {qid} cid {cid}: consumed with phase {} but the \
                                     CQE was posted with phase {}",
                                    u8::from(phase),
                                    u8::from(posted)
                                ),
                            );
                        }
                    }
                    Some(other) => report(
                        "nvme.lifecycle.stale-phase-consume",
                        format!(
                            "CQ {qid} cid {cid}: consumed a CQE the controller never \
                             posted (command state {other:?} — stale ring contents)"
                        ),
                    ),
                    None => report(
                        "nvme.lifecycle.stale-phase-consume",
                        format!(
                            "CQ {qid}: consumed CQE for cid {cid} with no submitted \
                             command (double consume or stale entry)"
                        ),
                    ),
                }
            }
            Event::CqHeadDoorbell { qid, head } => {
                let Some(c) = self.cq_consumer.get(&qid) else {
                    return;
                };
                if head != c.head {
                    report(
                        "nvme.lifecycle.cq-doorbell-mismatch",
                        format!(
                            "CQ {qid}: head doorbell wrote {head} but the consumer has \
                             advanced to {}",
                            c.head
                        ),
                    );
                }
            }
            Event::CmdAborted { qid, cid } => {
                // Abort for an untracked command is legal: it raced the
                // completion (or the queue is not mirrored).
                match self.cmds.get_mut(&(qid, cid)) {
                    // A controller can only abort a command it has
                    // fetched; claiming to abort one still sitting in the
                    // ring means it peeked past the doorbell.
                    Some(CmdRec {
                        state: state @ (CmdState::Written | CmdState::Exposed),
                        ..
                    }) => report(
                        "nvme.lifecycle.abort-unfetched",
                        format!(
                            "SQ {qid} cid {cid}: abort accepted for a command the \
                             controller never fetched (state {state:?})"
                        ),
                    ),
                    Some(cmd) => cmd.aborted = true,
                    None => {}
                }
            }
            Event::QueueDeleted { qid } => {
                // The qpair's whole lifecycle state is void: commands the
                // host abandoned (timed out, aborted, CQE lost in the
                // fabric) are disposed of with the queue, and a recreate
                // under the same qid starts a pristine mirror.
                self.sqs.remove(&qid);
                self.cq_consumer.remove(&qid);
                self.cq_poster.remove(&qid);
                self.cmds.retain(|(q, _), _| *q != qid);
            }
            Event::ControllerReset => *self = OracleState::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie::FabricParams;
    use simcore::SimRuntime;

    /// A runtime (armed or not) and a fabric on it to emit through.
    fn bed(armed: bool) -> (SimRuntime, Fabric) {
        let _armed = armed.then(simcore::sanitize::arm);
        let rt = SimRuntime::new();
        let fabric = Fabric::new(rt.handle(), FabricParams::default());
        (rt, fabric)
    }

    fn walk_clean(fabric: &Fabric, qid: u16) {
        emit(
            fabric,
            Event::SqeWritten {
                qid,
                cid: 1,
                slot: 0,
                entries: 4,
            },
        );
        emit(
            fabric,
            Event::SqDoorbell {
                qid,
                tail: 1,
                entries: 4,
            },
        );
        emit(
            fabric,
            Event::CmdFetched {
                qid,
                cid: 1,
                slot: 0,
            },
        );
        emit(
            fabric,
            Event::CqePosted {
                qid,
                cid: 1,
                slot: 0,
                phase: true,
                entries: 4,
            },
        );
        emit(
            fabric,
            Event::CqeConsumed {
                qid,
                cid: 1,
                slot: 0,
                phase: true,
                entries: 4,
            },
        );
        emit(fabric, Event::CqHeadDoorbell { qid, head: 1 });
    }

    #[test]
    fn clean_lifecycle_records_nothing() {
        let (rt, fabric) = bed(true);
        walk_clean(&fabric, 3);
        assert_eq!(rt.sanitize_violations(), []);
        assert_eq!(in_flight(&fabric), Some(0));
    }

    #[test]
    fn emit_unarmed_is_noop() {
        let (rt, fabric) = bed(false);
        walk_clean(&fabric, 3);
        assert_eq!(rt.sanitize_violations(), []);
        assert_eq!(in_flight(&fabric), None, "no FSM state was allocated");
    }

    #[test]
    fn double_completion_is_flagged() {
        let (rt, fabric) = bed(true);
        emit(
            &fabric,
            Event::SqeWritten {
                qid: 1,
                cid: 9,
                slot: 0,
                entries: 8,
            },
        );
        emit(
            &fabric,
            Event::SqDoorbell {
                qid: 1,
                tail: 1,
                entries: 8,
            },
        );
        emit(
            &fabric,
            Event::CmdFetched {
                qid: 1,
                cid: 9,
                slot: 0,
            },
        );
        for slot in 0..2 {
            emit(
                &fabric,
                Event::CqePosted {
                    qid: 1,
                    cid: 9,
                    slot,
                    phase: true,
                    entries: 8,
                },
            );
        }
        let v = rt.sanitize_violations();
        assert!(
            v.iter()
                .any(|v| v.code == "nvme.lifecycle.double-completion"),
            "{v:?}"
        );
    }

    #[test]
    fn slot_reuse_before_fetch_is_flagged() {
        let (rt, fabric) = bed(true);
        emit(
            &fabric,
            Event::SqeWritten {
                qid: 1,
                cid: 1,
                slot: 0,
                entries: 8,
            },
        );
        emit(
            &fabric,
            Event::SqeWritten {
                qid: 1,
                cid: 2,
                slot: 0,
                entries: 8,
            },
        );
        let v = rt.sanitize_violations();
        assert!(
            v.iter().any(|v| v.code == "nvme.lifecycle.slot-reuse"),
            "{v:?}"
        );
    }

    #[test]
    fn stale_phase_consume_is_flagged() {
        let (rt, fabric) = bed(true);
        emit(
            &fabric,
            Event::SqeWritten {
                qid: 1,
                cid: 5,
                slot: 0,
                entries: 8,
            },
        );
        emit(
            &fabric,
            Event::SqDoorbell {
                qid: 1,
                tail: 1,
                entries: 8,
            },
        );
        // Consume before the controller posted anything: stale ring bytes.
        emit(
            &fabric,
            Event::CqeConsumed {
                qid: 1,
                cid: 5,
                slot: 0,
                phase: false,
                entries: 8,
            },
        );
        let v = rt.sanitize_violations();
        assert!(
            v.iter()
                .any(|v| v.code == "nvme.lifecycle.stale-phase-consume"),
            "{v:?}"
        );
    }

    #[test]
    fn doorbell_regression_is_flagged() {
        let (rt, fabric) = bed(true);
        emit(
            &fabric,
            Event::SqeWritten {
                qid: 1,
                cid: 1,
                slot: 0,
                entries: 8,
            },
        );
        emit(
            &fabric,
            Event::SqDoorbell {
                qid: 1,
                tail: 1,
                entries: 8,
            },
        );
        // Ring claims three more slots with nothing written.
        emit(
            &fabric,
            Event::SqDoorbell {
                qid: 1,
                tail: 4,
                entries: 8,
            },
        );
        let v = rt.sanitize_violations();
        assert!(
            v.iter()
                .any(|v| v.code == "nvme.lifecycle.doorbell-regression"),
            "{v:?}"
        );
    }

    /// Two full laps of an `entries`-deep qpair, one command at a time:
    /// phases flip, slots are reused legally.
    fn two_laps_stay_clean(entries: u16) {
        let (rt, fabric) = bed(true);
        let mut phase = true;
        for lap in 0..2u16 {
            for slot in 0..entries {
                let cid = lap * entries + slot;
                emit(
                    &fabric,
                    Event::SqeWritten {
                        qid: 2,
                        cid,
                        slot,
                        entries,
                    },
                );
                emit(
                    &fabric,
                    Event::SqDoorbell {
                        qid: 2,
                        tail: (slot + 1) % entries,
                        entries,
                    },
                );
                emit(&fabric, Event::CmdFetched { qid: 2, cid, slot });
                emit(
                    &fabric,
                    Event::CqePosted {
                        qid: 2,
                        cid,
                        slot,
                        phase,
                        entries,
                    },
                );
                emit(
                    &fabric,
                    Event::CqeConsumed {
                        qid: 2,
                        cid,
                        slot,
                        phase,
                        entries,
                    },
                );
                emit(
                    &fabric,
                    Event::CqHeadDoorbell {
                        qid: 2,
                        head: (slot + 1) % entries,
                    },
                );
                if slot == entries - 1 {
                    phase = !phase;
                }
            }
        }
        assert_eq!(rt.sanitize_violations(), []);
        assert_eq!(in_flight(&fabric), Some(0));
    }

    #[test]
    fn wrapping_lifecycle_stays_clean() {
        two_laps_stay_clean(4);
    }

    #[test]
    fn wrapping_lifecycle_stays_clean_when_entries_do_not_divide_65536() {
        // NVMe allows any ring size >= 2: on 6 entries the first wrap
        // (tail 5 -> 0) is an advance of 1, not of (0 - 5) mod 2^16 mod 6.
        two_laps_stay_clean(6);
    }
}
