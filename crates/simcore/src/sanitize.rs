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
//! This module is the switch, the [`Violation`] record, the log, and one
//! typed state slot ([`Handle::sanitize_slot`]) for a checker that keeps
//! state between hooks; the checkers themselves live beside what they
//! check (`pcie::hb`, `nvme::oracle`).
//!
//! [`Handle::sanitize_armed`]: crate::Handle::sanitize_armed
//! [`Handle::sanitize_slot`]: crate::Handle::sanitize_slot

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

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

/// Per-runtime checker state, owned by the executor core.
pub(crate) struct SanitizerState {
    /// Whether an [`arm`] guard was alive when the runtime was built.
    pub(crate) armed: bool,
    violations: RefCell<Vec<Violation>>,
    /// State a checker above `simcore` keeps between hooks (the NVMe
    /// lifecycle FSM); allocated by its first armed hook.
    slot: RefCell<Option<Rc<dyn Any>>>,
}

impl SanitizerState {
    pub(crate) fn new() -> Self {
        SanitizerState {
            armed: ARMED.with(Cell::get),
            violations: RefCell::default(),
            slot: RefCell::default(),
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

    pub(crate) fn slot<T: Default + 'static>(&self) -> Option<Rc<T>> {
        if !self.armed {
            return None;
        }
        let state = self
            .slot
            .borrow_mut()
            .get_or_insert_with(|| Rc::new(T::default()))
            .clone();
        Some(state.downcast().expect("the checker slot holds one type"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_is_armed_only_and_keeps_its_state() {
        let unarmed = SanitizerState::new();
        assert!(unarmed.slot::<Cell<u32>>().is_none());
        assert!(unarmed.slot.borrow().is_none(), "nothing allocated");
        let _armed = arm();
        let st = SanitizerState::new();
        assert!(st.slot.borrow().is_none(), "allocated by the first hook");
        st.slot::<Cell<u32>>().expect("armed").set(7);
        assert_eq!(st.slot::<Cell<u32>>().expect("armed").get(), 7);
    }
}
