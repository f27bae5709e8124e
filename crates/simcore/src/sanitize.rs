//! Simulation-time protocol checker, armed at run time.
//!
//! The checker is a passive observer: model code reports protocol
//! violations it detects (a non-posted read racing an in-flight posted
//! write, a doorbell exposing unwritten SQEs, a completion-queue
//! overwrite, overlapping bounce-buffer partitions, an unordered pair of
//! conflicting accesses) and the runtime records them without disturbing
//! virtual time. Every hook is compiled into every build and sits behind
//! one [`Handle::sanitize_armed`] test; a runtime is armed for its whole
//! life iff an [`arm`] guard was alive on the thread when it was built,
//! so the binary that is measured is the binary that can be checked:
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
//! [`Handle::sanitize_armed`]: crate::Handle::sanitize_armed

use std::cell::{Cell, RefCell};

/// A happens-before actor: one independently-scheduled agent whose
/// memory accesses the race detector orders (a host CPU, a device DMA
/// engine). Registered by the fabric layer at topology-build time.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ActorId(pub u32);

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

/// One recorded protocol violation (from this checker or, re-exported as
/// `nvme::oracle::LifecycleViolation`, from the lifecycle oracle).
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
    /// Vector clocks for the happens-before race detector, one slot per
    /// registered actor; `clocks[a][b]` = the latest event of actor `b`
    /// that actor `a` has (transitively) observed.
    clocks: RefCell<Vec<Vec<u64>>>,
    actor_names: RefCell<Vec<String>>,
}

impl SanitizerState {
    pub(crate) fn new() -> Self {
        SanitizerState {
            armed: ARMED.with(Cell::get),
            violations: RefCell::default(),
            clocks: RefCell::default(),
            actor_names: RefCell::default(),
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

    // ----------------------------------------------------- vector clocks

    pub(crate) fn register_actor(&self, name: &str) -> ActorId {
        let mut clocks = self.clocks.borrow_mut();
        let id = ActorId(clocks.len() as u32);
        clocks.push(Vec::new());
        self.actor_names.borrow_mut().push(name.to_string());
        id
    }

    pub(crate) fn actor_name(&self, actor: ActorId) -> String {
        self.actor_names.borrow()[actor.0 as usize].clone()
    }

    /// Advance `actor`'s own component and return the updated clock — the
    /// timestamp to attach to the event the caller is recording.
    pub(crate) fn tick(&self, actor: ActorId) -> Vec<u64> {
        let mut clocks = self.clocks.borrow_mut();
        let n = clocks.len().max(actor.0 as usize + 1);
        let clock = &mut clocks[actor.0 as usize];
        clock.resize(n.max(clock.len()), 0);
        clock[actor.0 as usize] += 1;
        clock.clone()
    }

    /// Merge an observed clock into `actor`'s (elementwise max): the
    /// acquire half of a synchronization edge.
    pub(crate) fn join(&self, actor: ActorId, observed: &[u64]) {
        let mut clocks = self.clocks.borrow_mut();
        let clock = &mut clocks[actor.0 as usize];
        if clock.len() < observed.len() {
            clock.resize(observed.len(), 0);
        }
        for (own, seen) in clock.iter_mut().zip(observed) {
            *own = (*own).max(*seen);
        }
    }

    /// Snapshot of `actor`'s clock without advancing it.
    pub(crate) fn clock_of(&self, actor: ActorId) -> Vec<u64> {
        self.clocks.borrow()[actor.0 as usize].clone()
    }
}

/// Whether an event stamped `earlier` (by `earlier_actor`) happens-before
/// an event whose observer clock is `later`: the observer must have seen
/// at least the stamping actor's own component.
pub fn happens_before(earlier_actor: ActorId, earlier: &[u64], later: &[u64]) -> bool {
    let i = earlier_actor.0 as usize;
    let own = earlier.get(i).copied().unwrap_or(0);
    later.get(i).copied().unwrap_or(0) >= own
}
