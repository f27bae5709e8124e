//! NVMe command-lifecycle conformance oracle.
//!
//! A per-command finite-state machine derived from the spec's queue
//! contract, fed by records from both sides of the wire: the host rings
//! ([`crate::queue`], via [`crate::engine::IoEngine`]) record SQE stores,
//! doorbell writes and CQE consumption; the controller
//! ([`crate::ctrl::NvmeController`]) records command fetches, aborts, CQE
//! posts, queue deletes and resets. Every command must walk
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
//! The oracle is a consumer of the armed record stream
//! (`simcore::sanitize`): emitters call `Handle::sanitize_record`
//! unconditionally, one bool test on a runtime not built under
//! `simcore::sanitize::arm`. [`attach`] hooks the FSM to an armed runtime
//! (the driver's SQ ring does it); from then on it follows each record at
//! the instant it is appended and reports into the runtime's one log
//! (`nvme.lifecycle.*` codes) beside the race detector and the protocol
//! checks.
//!
//! Queue identifiers: this codebase (like the paper's prototype) pairs SQ
//! *n* with CQ *n*, so one `qid` keys both directions of a qpair.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};

use simcore::{Handle, Record, Stage};

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

/// The FSM as a consumer of the record stream.
#[derive(Default)]
struct Oracle(RefCell<OracleState>);

impl simcore::sanitize::Consumer for Oracle {
    fn consume(&self, handle: &Handle, record: &Record) {
        let report = |code: &'static str, detail: String| handle.sanitize_report(code, detail);
        self.0.borrow_mut().on_record(record, report);
    }
}

/// Follow the lifecycle of every command recorded on `handle`'s runtime
/// from now on (no-op unless it is armed; attaching twice is attaching
/// once).
pub fn attach(handle: &Handle) {
    handle.sanitize_attach::<Oracle>();
}

/// The slot after `slot` on an `entries`-deep ring, with the phase tag
/// flipped when the walk wraps.
fn ring_next(slot: u16, phase: bool, entries: u16) -> (u16, bool) {
    let next = (slot + 1) % entries;
    (next, phase ^ (next == 0))
}

impl OracleState {
    fn on_record(&mut self, rec: &Record, report: impl Fn(&'static str, String)) {
        match (rec.cmd, rec.stage) {
            (Some((qid, cid)), Stage::SqeWritten { slot, entries }) => {
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
            (_, Stage::SqDoorbell { qid, tail, entries }) => {
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
            (Some((qid, cid)), Stage::Fetched { slot }) => {
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
            (
                Some((qid, cid)),
                Stage::CqePosted {
                    slot,
                    phase,
                    entries,
                },
            ) => {
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
            (
                Some((qid, cid)),
                Stage::CqeConsumed {
                    slot,
                    phase,
                    entries,
                },
            ) => {
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
            (_, Stage::CqHeadDoorbell { qid, head }) => {
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
            (Some((qid, cid)), Stage::Aborted) => {
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
            (_, Stage::QueueDeleted { qid }) => {
                // The qpair's whole lifecycle state is void: commands the
                // host abandoned (timed out, aborted, CQE lost in the
                // fabric) are disposed of with the queue, and a recreate
                // under the same qid starts a pristine mirror.
                self.sqs.remove(&qid);
                self.cq_consumer.remove(&qid);
                self.cq_poster.remove(&qid);
                self.cmds.retain(|(q, _), _| *q != qid);
            }
            (_, Stage::ControllerReset) => *self = OracleState::default(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimRuntime;

    /// A runtime (armed or not) with the oracle attached.
    fn bed(armed: bool) -> SimRuntime {
        let _armed = armed.then(simcore::sanitize::arm);
        let rt = SimRuntime::new();
        attach(&rt.handle());
        rt
    }

    fn walk_clean(h: &Handle, qid: u16) {
        let cmd = Some((qid, 1));
        h.sanitize_record(
            cmd,
            Stage::SqeWritten {
                slot: 0,
                entries: 4,
            },
        );
        h.sanitize_record(
            None,
            Stage::SqDoorbell {
                qid,
                tail: 1,
                entries: 4,
            },
        );
        h.sanitize_record(cmd, Stage::Fetched { slot: 0 });
        let (slot, phase, entries) = (0, true, 4);
        h.sanitize_record(
            cmd,
            Stage::CqePosted {
                slot,
                phase,
                entries,
            },
        );
        h.sanitize_record(
            cmd,
            Stage::CqeConsumed {
                slot,
                phase,
                entries,
            },
        );
        h.sanitize_record(None, Stage::CqHeadDoorbell { qid, head: 1 });
    }

    #[test]
    fn clean_lifecycle_records_nothing() {
        let rt = bed(true);
        walk_clean(&rt.handle(), 3);
        assert_eq!(rt.sanitize_violations(), []);
        assert_eq!(rt.handle().sanitize_records().len(), 6);
    }

    #[test]
    fn emit_unarmed_is_noop() {
        let rt = bed(false);
        walk_clean(&rt.handle(), 3);
        assert_eq!(rt.sanitize_violations(), []);
        assert_eq!(rt.handle().sanitize_records(), [], "nothing was recorded");
    }

    /// The codes `stages` of command `(1, cid)`, doorbells of SQ 1 between
    /// them, leave in the log.
    fn codes_of(cid: u16, stages: &[Stage]) -> Vec<&'static str> {
        let rt = bed(true);
        let h = rt.handle();
        for &stage in stages {
            let cmd = match stage {
                Stage::SqDoorbell { .. } => None,
                _ => Some((1, cid)),
            };
            h.sanitize_record(cmd, stage);
        }
        rt.sanitize_violations().iter().map(|v| v.code).collect()
    }

    const WRITTEN: Stage = Stage::SqeWritten {
        slot: 0,
        entries: 8,
    };
    const RUNG: Stage = Stage::SqDoorbell {
        qid: 1,
        tail: 1,
        entries: 8,
    };

    #[test]
    fn double_completion_is_flagged() {
        let posted = |slot| Stage::CqePosted {
            slot,
            phase: true,
            entries: 8,
        };
        let stages = [
            WRITTEN,
            RUNG,
            Stage::Fetched { slot: 0 },
            posted(0),
            posted(1),
        ];
        let v = codes_of(9, &stages);
        assert!(v.contains(&"nvme.lifecycle.double-completion"), "{v:?}");
    }

    #[test]
    fn slot_reuse_before_fetch_is_flagged() {
        let rt = bed(true);
        let h = rt.handle();
        h.sanitize_record(Some((1, 1)), WRITTEN);
        h.sanitize_record(Some((1, 2)), WRITTEN);
        let v = rt.sanitize_violations();
        assert!(
            v.iter().any(|v| v.code == "nvme.lifecycle.slot-reuse"),
            "{v:?}"
        );
    }

    #[test]
    fn stale_phase_consume_is_flagged() {
        // Consume before the controller posted anything: stale ring bytes.
        let consumed = Stage::CqeConsumed {
            slot: 0,
            phase: false,
            entries: 8,
        };
        let v = codes_of(5, &[WRITTEN, RUNG, consumed]);
        assert!(v.contains(&"nvme.lifecycle.stale-phase-consume"), "{v:?}");
    }

    #[test]
    fn doorbell_regression_is_flagged() {
        // Ring claims three more slots with nothing written.
        let lapped = Stage::SqDoorbell {
            qid: 1,
            tail: 4,
            entries: 8,
        };
        let v = codes_of(1, &[WRITTEN, RUNG, lapped]);
        assert!(v.contains(&"nvme.lifecycle.doorbell-regression"), "{v:?}");
    }

    /// Two full laps of an `entries`-deep qpair, one command at a time:
    /// phases flip, slots are reused legally.
    fn two_laps_stay_clean(entries: u16) {
        let rt = bed(true);
        let h = rt.handle();
        let mut phase = true;
        for lap in 0..2u16 {
            for slot in 0..entries {
                let cmd = Some((2, lap * entries + slot));
                let next = (slot + 1) % entries;
                h.sanitize_record(cmd, Stage::SqeWritten { slot, entries });
                h.sanitize_record(
                    None,
                    Stage::SqDoorbell {
                        qid: 2,
                        tail: next,
                        entries,
                    },
                );
                h.sanitize_record(cmd, Stage::Fetched { slot });
                h.sanitize_record(
                    cmd,
                    Stage::CqePosted {
                        slot,
                        phase,
                        entries,
                    },
                );
                h.sanitize_record(
                    cmd,
                    Stage::CqeConsumed {
                        slot,
                        phase,
                        entries,
                    },
                );
                h.sanitize_record(None, Stage::CqHeadDoorbell { qid: 2, head: next });
                phase ^= next == 0;
            }
        }
        assert_eq!(rt.sanitize_violations(), []);
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
