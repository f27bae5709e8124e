//! Pluggable schedule control for the deterministic executor.
//!
//! By default the simulator runs one canonical schedule: runnable tasks are
//! polled in FIFO wake order and fabric deliveries apply in issue order.
//! Installing a [`ReplayScheduler`] turns both of those decisions into
//! explicit *choice points*: whenever more than one continuation is legal,
//! the executor (or the fabric) asks the scheduler which one to take. A model
//! checker drives this hook to enumerate alternative schedules; replaying a
//! recorded choice sequence reproduces a schedule exactly.
//!
//! Choice points are only consulted when there are at least two options, so
//! the canonical schedule corresponds to answering `0` everywhere and an
//! uninstrumented run records no choices at all.

use std::cell::RefCell;
use std::rc::Rc;

/// What kind of nondeterminism a choice point resolves.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ChoiceKind {
    /// Which runnable task the executor polls next.
    Task,
    /// Which ready fabric delivery (posted write) applies next.
    Delivery,
    /// Which reactor's run loop advances next, when runnable tasks span
    /// several reactors (multi-reactor runtimes only). Options are ordered
    /// by first occurrence in the wake queue, so answer `0` reproduces the
    /// canonical FIFO schedule.
    ReactorPick,
}

/// The memory range a delivery option will mutate, used by partial-order
/// pruning: two deliveries with non-overlapping footprints commute, so only
/// one of their orders needs exploring. `domain` disambiguates address
/// spaces (host DRAM vs. device BARs) so equal offsets in different spaces
/// never alias.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Footprint {
    pub domain: u32,
    pub addr: u64,
    pub len: u64,
}

impl Footprint {
    /// Whether two footprints touch overlapping bytes of the same domain.
    pub fn overlaps(&self, other: &Footprint) -> bool {
        self.domain == other.domain
            && self.addr < other.addr.saturating_add(other.len)
            && other.addr < self.addr.saturating_add(self.len)
    }
}

/// One selectable continuation at a choice point.
#[derive(Clone, Debug)]
pub struct ChoiceOption {
    /// Memory range the option mutates, when meaningful (deliveries).
    /// Task options carry `None`: their independence is not claimed.
    pub footprint: Option<Footprint>,
}

impl ChoiceOption {
    /// An option with no independence information.
    pub fn opaque() -> Self {
        ChoiceOption { footprint: None }
    }

    /// An option that mutates exactly `footprint`.
    pub fn writing(footprint: Footprint) -> Self {
        ChoiceOption {
            footprint: Some(footprint),
        }
    }
}

/// One resolved choice point, as recorded by [`ReplayScheduler`].
#[derive(Clone, Debug)]
pub struct ChoiceRecord {
    pub kind: ChoiceKind,
    pub chosen: u32,
    /// Footprints of every option, aligned with option indices.
    pub footprints: Vec<Option<Footprint>>,
}

impl ChoiceRecord {
    /// Number of options that were available at this point.
    pub fn options(&self) -> usize {
        self.footprints.len()
    }
}

/// The full choice sequence of one run.
#[derive(Default, Clone, Debug)]
pub struct ScheduleTrace {
    pub records: Vec<ChoiceRecord>,
    /// Set when a prescribed prefix entry exceeded the options actually
    /// available — the run no longer corresponds to the requested schedule.
    pub diverged: bool,
}

/// Scheduler that follows a prescribed choice prefix, answers the canonical
/// `0` past its end, and records every choice point it resolves. This is
/// the replay half of stateless model checking: a prefix plus determinism
/// pins down one complete schedule.
pub struct ReplayScheduler {
    prefix: Vec<u32>,
    trace: Rc<RefCell<ScheduleTrace>>,
}

impl ReplayScheduler {
    /// Follow `prefix`, then take choice `0` everywhere.
    pub fn new(prefix: Vec<u32>) -> Self {
        ReplayScheduler {
            prefix,
            trace: Rc::new(RefCell::new(ScheduleTrace::default())),
        }
    }

    /// Shared handle to the trace this scheduler records into; read it
    /// after the run completes.
    pub fn trace(&self) -> Rc<RefCell<ScheduleTrace>> {
        self.trace.clone()
    }

    /// Resolve one choice point. `options` always holds at least two
    /// entries; the returned index is `< options.len()`.
    pub(crate) fn choose(&mut self, kind: ChoiceKind, options: &[ChoiceOption]) -> usize {
        let mut trace = self.trace.borrow_mut();
        let idx = trace.records.len();
        let want = self.prefix.get(idx).copied().unwrap_or(0) as usize;
        let chosen = if want < options.len() {
            want
        } else {
            trace.diverged = true;
            0
        };
        trace.records.push(ChoiceRecord {
            kind,
            chosen: chosen as u32,
            footprints: options.iter().map(|o| o.footprint).collect(),
        });
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SimRuntime;
    use crate::time::SimDuration;

    fn two_racers(rt: &SimRuntime) -> Rc<RefCell<Vec<&'static str>>> {
        let h = rt.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in ["first", "second"] {
            let h2 = h.clone();
            let log = log.clone();
            h.spawn(async move {
                h2.sleep(SimDuration::from_nanos(100)).await;
                log.borrow_mut().push(name);
            });
        }
        log
    }

    #[test]
    fn default_schedule_is_fifo() {
        let rt = SimRuntime::new();
        let log = two_racers(&rt);
        rt.run();
        assert_eq!(*log.borrow(), vec!["first", "second"]);
    }

    #[test]
    fn replay_prefix_reorders_task_picks() {
        let rt = SimRuntime::new();
        let sched = ReplayScheduler::new(vec![1]);
        let trace = sched.trace();
        rt.set_scheduler(sched);
        let log = two_racers(&rt);
        rt.run();
        assert_eq!(*log.borrow(), vec!["second", "first"]);
        let trace = trace.borrow();
        assert!(!trace.diverged);
        assert!(trace
            .records
            .iter()
            .any(|r| r.kind == ChoiceKind::Task && r.options() >= 2));
    }

    #[test]
    fn empty_prefix_matches_default_schedule() {
        let base = {
            let rt = SimRuntime::new();
            let log = two_racers(&rt);
            rt.run();
            let out = (log.borrow().clone(), rt.trace_hash());
            out
        };
        let replayed = {
            let rt = SimRuntime::new();
            rt.set_scheduler(ReplayScheduler::new(Vec::new()));
            let log = two_racers(&rt);
            rt.run();
            let out = (log.borrow().clone(), rt.trace_hash());
            out
        };
        assert_eq!(base.0, replayed.0);
        assert_eq!(
            base.1, replayed.1,
            "replay with empty prefix must not perturb the event stream"
        );
    }

    #[test]
    fn out_of_range_prefix_flags_divergence() {
        let rt = SimRuntime::new();
        let sched = ReplayScheduler::new(vec![17]);
        let trace = sched.trace();
        rt.set_scheduler(sched);
        let log = two_racers(&rt);
        rt.run();
        assert_eq!(*log.borrow(), vec!["first", "second"]);
        assert!(trace.borrow().diverged);
    }

    #[test]
    fn footprint_overlap_rules() {
        let a = Footprint {
            domain: 1,
            addr: 0x1000,
            len: 64,
        };
        let b = Footprint {
            domain: 1,
            addr: 0x1020,
            len: 64,
        };
        let c = Footprint {
            domain: 1,
            addr: 0x1040,
            len: 64,
        };
        let d = Footprint {
            domain: 2,
            addr: 0x1000,
            len: 64,
        };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(!a.overlaps(&d), "different domains never alias");
    }
}
