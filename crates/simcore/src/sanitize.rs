//! Simulation-time protocol checker, armed at run time.
//!
//! The checker is a passive observer: model code reports protocol
//! violations it detects (a non-posted read racing an in-flight posted
//! write, a doorbell exposing unwritten SQEs, a completion-queue
//! overwrite, overlapping bounce-buffer partitions, an unordered pair of
//! conflicting accesses, a command that shortcuts its NVMe lifecycle) and
//! the runtime records them in one log without disturbing virtual time.
//! Every hook is compiled into every build and sits behind one
//! [`Handle::sanitize_armed`] test; a runtime is armed for its whole life
//! iff an [`arm`] guard was alive on the thread when it was built, so the
//! binary that is measured is the binary that can be checked:
//!
//! ```
//! let armed = simcore::sanitize::arm();
//! let rt = simcore::SimRuntime::new(); // build the fabric / Scenario here
//! drop(armed);
//! assert!(rt.handle().sanitize_armed());
//! assert!(rt.sanitize_violations().is_empty());
//! ```
//!
//! Unarmed, nothing is recorded or allocated. Tests assert on the recorded
//! violations.
//!
//! This module is the switch, the [`Violation`] log and the record
//! stream: every stage a command, a queue or a fabric delivery passes
//! through is appended as one [`Record`] by [`Handle::sanitize_record`],
//! which stamps it with the virtual time and the running task and hands
//! it, at that instant, to the runtime's one [`Consumer`]
//! ([`Handle::sanitize_attach`]), the NVMe lifecycle FSM
//! (`nvme::oracle`). Faults injected, media reads and writes and resets
//! are counted off the stream ([`Handle::sanitize_records`]).
//!
//! [`Handle::sanitize_armed`]: crate::Handle::sanitize_armed
//! [`Handle::sanitize_record`]: crate::Handle::sanitize_record
//! [`Handle::sanitize_attach`]: crate::Handle::sanitize_attach
//! [`Handle::sanitize_records`]: crate::Handle::sanitize_records

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::{Handle, TaskId};

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Disarms the thread (restoring the previous state) on drop. Runtimes
/// built while it lived stay armed.
pub struct ArmGuard {
    previous: bool,
}

impl Drop for ArmGuard {
    fn drop(&mut self) {
        ARMED.with(|a| a.set(self.previous));
    }
}

/// Arm the checker for every [`SimRuntime`](crate::SimRuntime) built on
/// this thread until the returned guard drops.
#[must_use = "dropping the guard disarms the thread"]
pub fn arm() -> ArmGuard {
    ARMED.with(|a| ArmGuard {
        previous: a.replace(true),
    })
}

/// One recorded protocol violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Stable machine-readable code, e.g. `pcie.read-races-posted-write`.
    pub code: &'static str,
    /// Virtual time of detection, in nanoseconds.
    pub at_nanos: u64,
    /// Human-readable context (addresses, queue ids, ranges).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] t={}ns: {}", self.code, self.at_nanos, self.detail)
    }
}

/// A stage of the NVMe queue protocol or of fault injection. The
/// command-level stages belong to the record's `cmd`; the others name
/// their queue themselves or none.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Host stored the SQE into `slot` of its `entries`-deep SQ.
    SqeWritten { slot: u16, entries: u16 },
    /// Host wrote `tail` to SQ `qid`'s tail doorbell.
    SqDoorbell { qid: u16, tail: u16, entries: u16 },
    /// Controller fetched the command from `slot` of its SQ.
    Fetched { slot: u16 },
    /// Controller began executing an admin command.
    AdminExecuted,
    /// Controller began reading an NVM Read's blocks from the medium.
    MediaRead,
    /// Controller began fetching an NVM Write's data for the medium.
    MediaWrite,
    /// Controller posted the CQE into `slot` of its CQ with tag `phase`.
    CqePosted {
        slot: u16,
        phase: bool,
        entries: u16,
    },
    /// Host consumed the CQE in `slot` of its CQ, observing `phase`.
    CqeConsumed {
        slot: u16,
        phase: bool,
        entries: u16,
    },
    /// Host stepped its CQ `qid` head past `slot`, whose CQE was lost: a
    /// later slot already holds a current-phase entry.
    CqeSkipped { qid: u16, slot: u16 },
    /// Host wrote `head` to CQ `qid`'s head doorbell.
    CqHeadDoorbell { qid: u16, head: u16 },
    /// Controller executed Delete I/O SQ/CQ for `qid`.
    QueueDeleted { qid: u16 },
    /// CC.EN 1 -> 0: every queue and every in-flight command is gone.
    ControllerReset,
    /// A fault plan (or a severed inbound link) discarded a delivery.
    FaultDropped,
    /// A fault plan gave a delivery extra delay.
    FaultDelayed,
    /// A fault plan duplicated a delivery.
    FaultDuplicated,
    /// A timed operation was refused with `LinkDown` or `HostCrashed`.
    FaultRefused,
}

/// One entry of the armed record stream.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Virtual time of the stage, in nanoseconds.
    pub at_nanos: u64,
    /// The task (future or callback) that recorded it; `None` outside
    /// any task.
    pub task: Option<TaskId>,
    /// `(qid, cid)` of the command the stage belongs to. A qid names one
    /// queue pair of the one controller at any instant, so no host is
    /// needed.
    pub cmd: Option<(u16, u16)>,
    pub stage: Stage,
}

/// A checker fed each record of an armed runtime at the instant it is
/// appended.
pub trait Consumer {
    fn consume(&self, handle: &Handle, record: &Record);
}

/// Per-runtime checker state, owned by the executor core.
pub(crate) struct SanitizerState {
    /// Whether an [`arm`] guard was alive when the runtime was built.
    pub(crate) armed: bool,
    violations: RefCell<Vec<Violation>>,
    records: RefCell<Vec<Record>>,
    consumer: RefCell<Option<Rc<dyn Consumer>>>,
}

impl SanitizerState {
    pub(crate) fn new() -> Self {
        SanitizerState {
            armed: ARMED.with(Cell::get),
            violations: RefCell::default(),
            records: RefCell::default(),
            consumer: RefCell::default(),
        }
    }

    pub(crate) fn report(&self, code: &'static str, at_nanos: u64, detail: String) {
        if !self.armed {
            return;
        }
        self.violations.borrow_mut().push(Violation {
            code,
            at_nanos,
            detail,
        });
    }

    pub(crate) fn violations(&self) -> Vec<Violation> {
        self.violations.borrow().clone()
    }

    pub(crate) fn take(&self) -> Vec<Violation> {
        std::mem::take(&mut *self.violations.borrow_mut())
    }

    pub(crate) fn attach<C: Consumer + Default + 'static>(&self) {
        if self.armed {
            let mut consumer = self.consumer.borrow_mut();
            consumer.get_or_insert_with(|| Rc::new(C::default()));
        }
    }

    /// Append `record` (armed runtimes only) and feed it to the consumer.
    pub(crate) fn append(&self, handle: &Handle, record: Record) {
        self.records.borrow_mut().push(record);
        if let Some(consumer) = self.consumer.borrow().as_ref() {
            consumer.consume(handle, &record);
        }
    }

    pub(crate) fn records(&self) -> Vec<Record> {
        self.records.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRuntime;

    thread_local! {
        static FED: Cell<usize> = const { Cell::new(0) };
    }

    /// Counts the records it is fed into `FED`.
    #[derive(Default)]
    struct Tally;

    impl Consumer for Tally {
        fn consume(&self, _: &Handle, _: &Record) {
            FED.with(|n| n.set(n.get() + 1));
        }
    }

    #[test]
    fn stream_is_armed_only_and_feeds_its_consumer_once() {
        let unarmed = SimRuntime::new();
        let h = unarmed.handle();
        h.sanitize_attach::<Tally>();
        h.sanitize_record(None, Stage::ControllerReset);
        assert!(h.sanitize_records().is_empty());
        assert_eq!(FED.with(Cell::get), 0);
        let st = SanitizerState::new();
        st.attach::<Tally>();
        assert!(st.consumer.borrow().is_none(), "nothing allocated");

        let _armed = arm();
        let rt = SimRuntime::new();
        let h = rt.handle();
        h.sanitize_attach::<Tally>();
        h.sanitize_attach::<Tally>();
        h.sanitize_record(Some((1, 7)), Stage::Fetched { slot: 3 });
        h.sanitize_record(None, Stage::FaultDropped);
        assert_eq!(FED.with(Cell::get), 2, "attaching twice is attaching once");
        let first = Record {
            at_nanos: 0,
            task: None,
            cmd: Some((1, 7)),
            stage: Stage::Fetched { slot: 3 },
        };
        assert_eq!(h.sanitize_records()[..1], [first]);
        assert_eq!(h.sanitize_records().len(), 2);
    }
}
