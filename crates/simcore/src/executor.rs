//! A deterministic, single-threaded async executor driven by virtual time.
//!
//! Simulated components (device models, driver logic, workload generators)
//! are written as ordinary `async` functions. Awaiting [`Handle::sleep`]
//! advances nothing by itself; instead the executor runs every runnable task
//! to quiescence and then jumps the virtual clock to the earliest pending
//! timer. A whole "60 second" benchmark therefore takes only as many event
//! steps as there are latency transitions.
//!
//! Determinism: tasks are woken in FIFO order, timers fire in
//! `(deadline, registration sequence)` order, and there is exactly one
//! executor thread. Two runs with the same seed perform the identical event
//! sequence.
//!
//! A task has one of two bodies. An `async` task ([`Handle::spawn`], or
//! [`Handle::spawn_detached`] when nobody joins it) is a future polled with
//! the [`Waker`] built for it at admission; the poll moves both out of the
//! task's entry and back, and the entry leaves the table when the future
//! completes, so a wake that arrives afterwards finds nothing and is
//! skipped unpolled. A callback task
//! ([`Handle::spawn_callback`]) is a plain `Fn()` that never completes: it
//! runs once when admitted and once each time it is made runnable, with no
//! future, no [`Context`] and no waker. Both kinds live in one table keyed
//! by [`TaskId`], wait in the same ready queue, count as a step and enter
//! `trace_hash` the same way, and are the same [`ChoiceKind::Task`]
//! candidates to an installed scheduler.
//!
//! Timers come in three kinds sharing the one `(deadline, registration)`
//! order. A [`Handle::sleep`] timer wakes the task that awaited it. A
//! [`Handle::run_at`] timer makes a callback task runnable; the task's
//! `queued` flag folds any number of them firing before it runs into one
//! run. A [`Handle::notify_at`] timer signals a [`Notify`] and involves no
//! task at all: no spawn, no step, no entry in `trace_hash` — it is for a
//! delay whose only effect is that signal: an MSI reaching its host, an
//! RDMA completion becoming visible to its consumer.
//!
//! The ready queue is a plain `VecDeque<TaskId>` per runtime, registered in
//! a `thread_local!` table under the runtime's id for as long as the
//! runtime lives. A [`Waker`] must be `Send + Sync`, so it carries only two
//! integers, `(runtime id, task id)`, and a wake looks the queue up on the
//! calling thread: no lock, no atomic. That is sound because a runtime is
//! not `Send` and its ids are never reused — a wake from another thread, or
//! one that outlives its runtime, finds no such queue and does nothing. A
//! sleep timer bypasses the waker altogether and names its task by id.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use crate::hash::IntMap;
use crate::sched::{ChoiceKind, ChoiceOption, ReplayScheduler};
use crate::sync::Notify;
use crate::time::{SimDuration, SimTime};

/// Identifier for a spawned task.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct TaskId(u64);

/// Identifier for one logical reactor — a per-core run loop inside the
/// deterministic executor (the SPDK/Mayastor shard model). Tasks are pinned
/// to exactly one reactor; spawns inherit the spawner's reactor unless
/// [`Handle::spawn_on`] pins them elsewhere. The default runtime has a
/// single reactor, which reproduces the historical executor exactly.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ReactorId(u32);

impl ReactorId {
    /// Reactor `index` (must be below the runtime's reactor count).
    pub fn new(index: usize) -> ReactorId {
        ReactorId(index as u32)
    }

    /// This reactor's index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

type LocalBoxFuture = Pin<Box<dyn Future<Output = ()>>>;

/// A runtime's queue of tasks made runnable, in wake order.
type ReadyQueue = Rc<RefCell<VecDeque<TaskId>>>;

thread_local! {
    /// The ready queue of every runtime alive on this thread, by runtime
    /// id: all a [`Waker`] can reach (see the module header).
    static READY: RefCell<IntMap<u64, ReadyQueue>> = RefCell::default();
}

/// Runtime ids handed out so far, process-wide, so that no two runtimes
/// ever share one whichever threads they live on. Bumped once per runtime.
static NEXT_RUNTIME: AtomicU64 = AtomicU64::new(0);

struct TaskWaker {
    runtime: u64,
    task: TaskId,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        // `try_with`: a waker parked in some other thread-local may fire
        // while this thread's locals are being torn down.
        let _ = READY.try_with(|ready| {
            if let Some(queue) = ready.borrow().get(&self.runtime) {
                queue.borrow_mut().push_back(self.task);
            }
        });
    }
}

/// One live task: what it runs (see the module header) and the reactor it
/// is pinned to. Two things keep the second kind of body from costing the
/// first anything (`simcore.spawn_join_host_ns` is the probe). The reactor
/// sits inside each variant, next to the tag, so an entry is no larger
/// than future, waker and reactor. And a callback is named by its index in
/// [`Core::callbacks`] instead of being owned here, so only `Parked` has
/// anything to drop when a poll overwrites or removes an entry.
enum TaskEntry {
    /// An `async` task between polls.
    Parked(LocalBoxFuture, Waker, ReactorId),
    /// That task while it is being polled: future and waker are out, so the
    /// body may itself spawn/wake without re-entering the `tasks` borrow.
    Polling(ReactorId),
    /// A callback task; `queued` from the moment it is made runnable until
    /// it runs, so that it sits in the ready queue at most once.
    Callback {
        index: u32,
        queued: bool,
        reactor: ReactorId,
    },
}

/// A task between spawn and admission (the waker is built at admission).
enum Spawned {
    Future(LocalBoxFuture),
    /// Index in [`Core::callbacks`].
    Callback(u32),
}

impl TaskEntry {
    fn reactor(&self) -> ReactorId {
        match self {
            TaskEntry::Parked(_, _, reactor)
            | TaskEntry::Polling(reactor)
            | TaskEntry::Callback { reactor, .. } => *reactor,
        }
    }
}

/// Task ids are consecutive integers the executor itself hands out.
type TaskTable = IntMap<TaskId, TaskEntry>;

/// What a timer does at its deadline.
enum TimerAction {
    /// Wake the task that awaited a [`Sleep`].
    Wake(TaskId),
    /// Make a callback task runnable ([`Handle::run_at`]).
    Run(TaskId),
    /// Signal a [`Notify`] ([`Handle::notify_at`]); no task runs.
    Notify(Notify),
}

struct TimerEntry {
    /// `(deadline, registration sequence)` as one integer, the deadline's
    /// nanoseconds in the high half: heap order is a single comparison.
    key: u128,
    action: TimerAction,
}

impl TimerEntry {
    fn deadline(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

struct Core {
    now: Cell<SimTime>,
    /// Every live task. Keyed access only.
    tasks: RefCell<TaskTable>,
    /// Tasks spawned while another task is being polled; folded in between polls.
    spawn_queue: RefCell<Vec<(TaskId, ReactorId, Spawned)>>,
    /// The body of every callback task. They never complete, so this only
    /// grows.
    callbacks: RefCell<Vec<Rc<dyn Fn()>>>,
    timers: RefCell<BinaryHeap<Reverse<TimerEntry>>>,
    /// This runtime's key in [`READY`].
    id: u64,
    /// The queue registered there: wakers push through the registry, the
    /// run loop, spawns and sleep timers through this handle.
    ready: ReadyQueue,
    next_task: Cell<u64>,
    next_timer_seq: Cell<u64>,
    steps: Cell<u64>,
    /// FNV-1a over the poll sequence `(task id, virtual time)` — the
    /// event-stream hash. Two runs of the same scenario with the same seed
    /// must end with identical hashes; any divergence in scheduling order
    /// shows up here immediately.
    trace: Cell<u64>,
    /// Installed schedule controller (see [`crate::sched`]). `None` means
    /// the canonical FIFO schedule; the hot path stays branch-cheap.
    scheduler: RefCell<Option<ReplayScheduler>>,
    /// Number of logical reactors. One (the default) disables every
    /// reactor-aware code path, including the `ReactorPick` choice point.
    reactors: usize,
    /// The task currently being polled, which a [`Sleep`] polled now
    /// belongs to; `None` outside any poll.
    current_task: Cell<Option<TaskId>>,
    /// Reactor of the task currently being polled; spawns inherit it.
    /// Outside any poll (bring-up, `block_on` root) it is reactor 0.
    current_reactor: Cell<ReactorId>,
    /// Per-reactor CPU occupancy horizon for [`Handle::cpu_work`]: work
    /// charged to one reactor serializes back to back, so fewer reactors
    /// mean more queueing delay at the same offered load.
    reactor_busy: RefCell<Vec<SimTime>>,
    sanitize: crate::sanitize::SanitizerState,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME` to the power of the index, for [`trace_fold`]'s zero bytes.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut i = 1;
    while i < pow.len() {
        pow[i] = pow[i - 1].wrapping_mul(FNV_PRIME);
        i += 1;
    }
    pow
};

/// FNV-1a of `word`'s eight little-endian bytes folded into `h`. A zero
/// byte only multiplies, so the zero high bytes of a small word (a task id,
/// an instant) fold as one multiply by a power of the prime.
fn trace_fold(mut h: u64, mut word: u64) -> u64 {
    let mut left = 8;
    while word != 0 {
        h = (h ^ (word & 0xff)).wrapping_mul(FNV_PRIME);
        word >>= 8;
        left -= 1;
    }
    h.wrapping_mul(FNV_PRIME_POW[left])
}

impl Core {
    fn new(reactors: usize) -> Rc<Core> {
        assert!(reactors >= 1, "a runtime needs at least one reactor");
        let id = NEXT_RUNTIME.fetch_add(1, Ordering::Relaxed);
        let ready = ReadyQueue::default();
        READY.with(|all| all.borrow_mut().insert(id, ready.clone()));
        Rc::new(Core {
            now: Cell::new(SimTime::ZERO),
            tasks: RefCell::new(TaskTable::default()),
            spawn_queue: RefCell::new(Vec::new()),
            callbacks: RefCell::new(Vec::new()),
            timers: RefCell::new(BinaryHeap::new()),
            id,
            ready,
            next_task: Cell::new(0),
            next_timer_seq: Cell::new(0),
            steps: Cell::new(0),
            trace: Cell::new(FNV_OFFSET),
            scheduler: RefCell::new(None),
            reactors,
            current_task: Cell::new(None),
            current_reactor: Cell::new(ReactorId(0)),
            reactor_busy: RefCell::new(vec![SimTime::ZERO; reactors]),
            sanitize: crate::sanitize::SanitizerState::new(),
        })
    }

    fn reactor_of(&self, id: TaskId) -> ReactorId {
        self.tasks
            .borrow()
            .get(&id)
            .map_or(ReactorId(0), TaskEntry::reactor)
    }

    fn alloc_task_id(&self) -> TaskId {
        let id = self.next_task.get();
        self.next_task.set(id + 1);
        TaskId(id)
    }

    fn register_timer(&self, deadline: SimTime, action: TimerAction) {
        let seq = self.next_timer_seq.get();
        self.next_timer_seq.set(seq + 1);
        let key = u128::from(deadline.as_nanos()) << 64 | u128::from(seq);
        self.timers
            .borrow_mut()
            .push(Reverse(TimerEntry { key, action }));
    }

    /// Box `fut` and queue it for admission on `reactor`: the one way an
    /// `async` task enters the runtime.
    fn queue_future(&self, reactor: ReactorId, fut: impl Future<Output = ()> + 'static) -> TaskId {
        let id = self.alloc_task_id();
        self.spawn_queue
            .borrow_mut()
            .push((id, reactor, Spawned::Future(Box::pin(fut))));
        id
    }

    /// Admit freshly spawned tasks and mark them runnable.
    fn admit_spawned(&self) {
        let mut spawned = self.spawn_queue.borrow_mut();
        if spawned.is_empty() {
            return;
        }
        let mut tasks = self.tasks.borrow_mut();
        let mut ready = self.ready.borrow_mut();
        for (id, reactor, body) in spawned.drain(..) {
            let entry = match body {
                Spawned::Future(future) => {
                    let waker = Waker::from(Arc::new(TaskWaker {
                        runtime: self.id,
                        task: id,
                    }));
                    TaskEntry::Parked(future, waker, reactor)
                }
                Spawned::Callback(index) => TaskEntry::Callback {
                    index,
                    queued: true,
                    reactor,
                },
            };
            tasks.insert(id, entry);
            ready.push_back(id);
        }
    }

    /// Pick the next runnable task. Without a scheduler this is a plain
    /// FIFO pop; with one installed, every instant where two or more live
    /// tasks are runnable becomes a [`ChoiceKind::Task`] choice point. On a
    /// multi-reactor runtime, runnable tasks spanning several reactors
    /// first resolve a [`ChoiceKind::ReactorPick`]: which reactor's run
    /// loop advances next. Reactor options are ordered by first occurrence
    /// in the wake queue so the all-zeros answer reproduces the canonical
    /// FIFO schedule exactly.
    fn next_runnable(&self) -> Option<TaskId> {
        let mut queue = self.ready.borrow_mut();
        if self.scheduler.borrow().is_none() {
            return queue.pop_front();
        }
        // Candidates: live tasks in wake order, first occurrence only
        // (duplicate and stale wakes are not schedulable alternatives).
        let mut candidates: Vec<TaskId> = Vec::new();
        {
            let tasks = self.tasks.borrow();
            for &id in queue.iter() {
                if tasks.contains_key(&id) && !candidates.contains(&id) {
                    candidates.push(id);
                }
            }
        }
        if candidates.is_empty() {
            queue.clear();
            return None;
        }
        if self.reactors > 1 {
            // Reactors represented among the candidates, in wake order of
            // their first runnable task.
            let mut reactor_order: Vec<ReactorId> = Vec::new();
            for &id in &candidates {
                let r = self.reactor_of(id);
                if !reactor_order.contains(&r) {
                    reactor_order.push(r);
                }
            }
            if reactor_order.len() > 1 {
                let options = vec![ChoiceOption::opaque(); reactor_order.len()];
                let mut sched = self.scheduler.borrow_mut();
                let pick = sched
                    .as_mut()
                    .expect("scheduler vanished mid-pick")
                    .choose(ChoiceKind::ReactorPick, &options)
                    .min(reactor_order.len() - 1);
                let reactor = reactor_order[pick];
                drop(sched);
                candidates.retain(|&id| self.reactor_of(id) == reactor);
            }
        }
        let pick = if candidates.len() == 1 {
            0
        } else {
            let options = vec![ChoiceOption::opaque(); candidates.len()];
            let mut sched = self.scheduler.borrow_mut();
            let chosen = sched
                .as_mut()
                .expect("scheduler vanished mid-pick")
                .choose(ChoiceKind::Task, &options);
            chosen.min(candidates.len() - 1)
        };
        let chosen = candidates[pick];
        if let Some(pos) = queue.iter().position(|&x| x == chosen) {
            queue.remove(pos);
        }
        Some(chosen)
    }

    /// Run every runnable task until the ready queue drains.
    fn run_ready(&self) {
        /// A task body taken out of the table for one step.
        enum Step {
            Poll(LocalBoxFuture, Waker),
            Call(Rc<dyn Fn()>),
        }
        loop {
            self.admit_spawned();
            let Some(id) = self.next_runnable() else {
                break;
            };
            let taken = self.tasks.borrow_mut().get_mut(&id).and_then(|entry| {
                let reactor = entry.reactor();
                let step = match entry {
                    TaskEntry::Callback { index, queued, .. } => {
                        *queued = false;
                        Step::Call(self.callbacks.borrow()[*index as usize].clone())
                    }
                    _ => match std::mem::replace(entry, TaskEntry::Polling(reactor)) {
                        TaskEntry::Parked(fut, waker, _) => Step::Poll(fut, waker),
                        _ => return None,
                    },
                };
                Some((step, reactor))
            });
            let Some((step, reactor)) = taken else {
                continue; // already completed; stale wake
            };
            self.steps.set(self.steps.get() + 1);
            let hash = trace_fold(self.trace.get(), id.0);
            self.trace.set(trace_fold(hash, self.now.get().as_nanos()));
            // The task's reactor becomes current so spawns inherit it and
            // `cpu_work` charges the right core.
            let prev_reactor = self.current_reactor.replace(reactor);
            match step {
                Step::Call(run) => run(),
                Step::Poll(mut fut, waker) => {
                    let prev_task = self.current_task.replace(Some(id));
                    let polled = fut.as_mut().poll(&mut Context::from_waker(&waker));
                    self.current_task.set(prev_task);
                    let mut tasks = self.tasks.borrow_mut();
                    match polled {
                        Poll::Ready(()) => {
                            tasks.remove(&id);
                        }
                        Poll::Pending => {
                            *tasks
                                .get_mut(&id)
                                .expect("a polled task stays in the table") =
                                TaskEntry::Parked(fut, waker, reactor);
                        }
                    }
                }
            }
            self.current_reactor.set(prev_reactor);
        }
    }

    fn fire(&self, timer: TimerEntry) {
        match timer.action {
            TimerAction::Wake(task) => self.ready.borrow_mut().push_back(task),
            TimerAction::Run(task) => {
                // Anything but a callback task not yet queued: nothing to do.
                if let Some(TaskEntry::Callback { queued, .. }) =
                    self.tasks.borrow_mut().get_mut(&task)
                {
                    if !std::mem::replace(queued, true) {
                        self.ready.borrow_mut().push_back(task);
                    }
                }
            }
            TimerAction::Notify(notify) => notify.notify_one(),
        }
    }

    /// Advance virtual time to the next timer and fire it (plus any timers
    /// sharing the same deadline). Returns false when no timers remain.
    fn advance(&self) -> bool {
        let first = match self.timers.borrow_mut().pop() {
            Some(Reverse(entry)) => entry,
            None => return false,
        };
        let deadline = first.deadline();
        debug_assert!(deadline >= self.now.get(), "timer in the past");
        self.now.set(deadline);
        self.fire(first);
        // Fire all timers that share this deadline so their tasks interleave
        // in registration order within a single ready-queue drain.
        loop {
            let mut timers = self.timers.borrow_mut();
            match timers.peek() {
                Some(Reverse(e)) if e.deadline() == deadline => {
                    let Reverse(e) = timers.pop().unwrap();
                    drop(timers);
                    self.fire(e);
                }
                _ => break,
            }
        }
        true
    }
}

impl Drop for Core {
    fn drop(&mut self) {
        // Wakers may outlive the runtime; from here on they find no queue.
        let _ = READY.try_with(|all| all.borrow_mut().remove(&self.id));
    }
}

/// The simulation runtime. Owns the task set, the timer wheel, and the
/// virtual clock. Created once per scenario; not `Send`.
pub struct SimRuntime {
    core: Rc<Core>,
}

impl Default for SimRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl SimRuntime {
    /// A fresh runtime at virtual time zero, with a single reactor.
    pub fn new() -> Self {
        SimRuntime { core: Core::new(1) }
    }

    /// A fresh runtime with `reactors` logical per-core run loops. With one
    /// reactor this is exactly [`SimRuntime::new`]; with more, tasks pin to
    /// reactors ([`Handle::spawn_on`]), [`Handle::cpu_work`] serializes per
    /// reactor, and an installed scheduler sees
    /// [`ChoiceKind::ReactorPick`] choice points whenever runnable tasks
    /// span several reactors.
    pub fn with_reactors(reactors: usize) -> Self {
        SimRuntime {
            core: Core::new(reactors),
        }
    }

    /// Number of logical reactors.
    pub fn reactor_count(&self) -> usize {
        self.core.reactors
    }

    /// A cloneable handle for spawning tasks and reading the clock from
    /// inside simulation code. Handles hold a weak reference so tasks that
    /// capture one do not keep the runtime alive.
    pub fn handle(&self) -> Handle {
        Handle {
            core: Rc::downgrade(&self.core),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now.get()
    }

    /// Total task polls performed so far (diagnostic).
    pub fn steps(&self) -> u64 {
        self.core.steps.get()
    }

    /// The event-stream hash: FNV-1a over every `(task id, virtual time)`
    /// poll performed so far. Equal seeds must yield equal hashes; the
    /// determinism regression harness runs scenarios twice and compares.
    pub fn trace_hash(&self) -> u64 {
        self.core.trace.get()
    }

    /// Violations recorded by the simulation-time sanitizer so far.
    pub fn sanitize_violations(&self) -> Vec<crate::sanitize::Violation> {
        self.core.sanitize.violations()
    }

    /// Drain the recorded sanitizer violations.
    pub fn sanitize_take_violations(&self) -> Vec<crate::sanitize::Violation> {
        self.core.sanitize.take()
    }

    /// Install a schedule controller; replaces any previous one. Pass the
    /// result of a recorded exploration prefix to replay a schedule.
    pub fn set_scheduler(&self, scheduler: ReplayScheduler) {
        *self.core.scheduler.borrow_mut() = Some(scheduler);
    }

    /// Remove the installed schedule controller, restoring the canonical
    /// FIFO schedule.
    pub fn clear_scheduler(&self) {
        *self.core.scheduler.borrow_mut() = None;
    }

    /// Run until no runnable task and no pending timer remains.
    pub fn run(&self) {
        loop {
            self.core.run_ready();
            if !self.core.advance() {
                break;
            }
        }
    }

    /// Spawn `fut` as the root task, run the simulation until it finishes,
    /// and return its output. Runnable tasks sharing the root's final
    /// instant still drain; timers past it do not fire, so unbounded
    /// periodic tasks (lease reapers, heartbeats) cannot keep the
    /// simulation alive after the root is done.
    ///
    /// Panics if the simulation went idle before the root future finished
    /// (i.e. the root deadlocked on an event nobody will produce).
    pub fn block_on<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> T {
        let join = self.handle().spawn(fut);
        loop {
            self.core.run_ready();
            if join.is_finished() || !self.core.advance() {
                break;
            }
        }
        join.try_take()
            .expect("simulation went idle before the main future completed (deadlock)")
    }
}

/// Cloneable reference to a [`SimRuntime`] used by simulation code.
#[derive(Clone)]
pub struct Handle {
    core: Weak<Core>,
}

impl Handle {
    fn core(&self) -> Rc<Core> {
        self.core
            .upgrade()
            .expect("SimRuntime dropped while handle in use")
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core().now.get()
    }

    /// A future that completes `d` later on the virtual clock.
    pub fn sleep(&self, d: SimDuration) -> Sleep {
        let core = self.core();
        Sleep {
            handle: self.clone(),
            deadline: core.now.get() + d,
        }
    }

    /// A future that completes at absolute virtual time `t` (immediately if
    /// `t` has passed).
    pub fn sleep_until(&self, t: SimTime) -> Sleep {
        Sleep {
            handle: self.clone(),
            deadline: t,
        }
    }

    /// Spawn a task. The task starts running at the current virtual time
    /// during the next scheduler iteration, on the spawner's reactor.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        let reactor = self.core().current_reactor.get();
        self.spawn_on(reactor, fut)
    }

    /// Spawn a task pinned to `reactor`. Panics if the reactor does not
    /// exist on this runtime.
    pub fn spawn_on<T: 'static>(
        &self,
        reactor: ReactorId,
        fut: impl Future<Output = T> + 'static,
    ) -> JoinHandle<T> {
        let core = self.core();
        assert!(
            reactor.index() < core.reactors,
            "spawn_on({:?}) on a runtime with {} reactor(s)",
            reactor,
            core.reactors
        );
        let state = Rc::new(RefCell::new(JoinState {
            value: None,
            waker: None,
        }));
        let state2 = state.clone();
        let id = core.queue_future(reactor, async move {
            let value = fut.await;
            let mut st = state2.borrow_mut();
            st.value = Some(value);
            if let Some(w) = st.waker.take() {
                w.wake();
            }
        });
        JoinHandle { state, id }
    }

    /// [`Handle::spawn`] for a task nobody joins: the same admission, id,
    /// steps and `trace_hash`, without the join cell and the wrapper that
    /// stores the result in it. A per-command task whose [`JoinHandle`]
    /// would be dropped on the spot is the caller.
    pub fn spawn_detached(&self, fut: impl Future<Output = ()> + 'static) -> TaskId {
        let core = self.core();
        core.queue_future(core.current_reactor.get(), fut)
    }

    /// Spawn a callback task on the spawner's reactor: `run` is called once
    /// when the task is admitted (where a spawned future would get its
    /// first poll) and once each time a [`Handle::run_at`] timer makes it
    /// runnable. Each call is one step, enters `trace_hash` as a poll of
    /// the returned id does, and is a [`ChoiceKind::Task`] candidate like
    /// any runnable future; the task never completes.
    ///
    /// Use it for work that is synchronous from start to finish every time
    /// it runs: such a task has nothing to suspend, so a future, a
    /// [`Context`] and a waker per run would buy it nothing.
    pub fn spawn_callback(&self, run: impl Fn() + 'static) -> TaskId {
        let core = self.core();
        let id = core.alloc_task_id();
        let mut callbacks = core.callbacks.borrow_mut();
        let body = Spawned::Callback(callbacks.len() as u32);
        callbacks.push(Rc::new(run));
        let reactor = core.current_reactor.get();
        core.spawn_queue.borrow_mut().push((id, reactor, body));
        id
    }

    /// Make callback task `task` runnable at absolute virtual time
    /// `deadline`. The timer takes its place among the others in
    /// `(deadline, registration)` order; however many of a task's timers
    /// fire before it next runs, it runs once. Nothing happens if `task`
    /// is not a callback task of this runtime, or the runtime is gone.
    pub fn run_at(&self, deadline: SimTime, task: TaskId) {
        if let Some(core) = self.core.upgrade() {
            core.register_timer(deadline, TimerAction::Run(task));
        }
    }

    /// The reactor of the task currently being polled (reactor 0 outside
    /// any poll — bring-up code, the `block_on` root).
    pub fn current_reactor(&self) -> ReactorId {
        self.core().current_reactor.get()
    }

    /// Number of logical reactors on this runtime.
    pub fn reactor_count(&self) -> usize {
        self.core().reactors
    }

    /// Charge `d` of CPU work to the calling task's reactor and wait for
    /// it to retire. Work on one reactor serializes back to back (the
    /// per-core run loop executes one thing at a time), so the completion
    /// instant is `max(now, reactor busy horizon) + d` — concurrent tasks
    /// sharing a reactor queue behind each other, while tasks on distinct
    /// reactors proceed in parallel.
    pub fn cpu_work(&self, d: SimDuration) -> Sleep {
        let core = self.core();
        let r = core.current_reactor.get().index();
        let mut busy = core.reactor_busy.borrow_mut();
        let start = busy[r].max(core.now.get());
        let end = start + d;
        busy[r] = end;
        drop(busy);
        Sleep {
            handle: self.clone(),
            deadline: end,
        }
    }

    /// Signal `notify` (as [`Notify::notify_one`]) at absolute virtual time
    /// `deadline`, without a task: nothing is spawned, nothing is polled
    /// and `trace_hash` does not move when it is registered or when it
    /// fires. It takes its place among the [`Handle::sleep`] timers in
    /// `(deadline, registration)` order, and like them it never fires past
    /// the end of a [`SimRuntime::block_on`] whose root finished earlier.
    ///
    /// Use it for a delay whose *only* effect is that signal: an MSI
    /// reaching its host (`pcie`), a work completion becoming visible to
    /// the consumer of its CQ (`rdma`). Code that must run at the
    /// deadline is a callback task's [`Handle::run_at`] when it is
    /// synchronous, and a spawned task that sleeps otherwise: a timer
    /// cannot be cancelled and carries no logic.
    pub fn notify_at(&self, deadline: SimTime, notify: Notify) {
        self.core()
            .register_timer(deadline, TimerAction::Notify(notify));
    }

    /// The runtime's event-stream hash (see [`SimRuntime::trace_hash`]).
    pub fn trace_hash(&self) -> u64 {
        self.core().trace.get()
    }

    /// Resolve a choice point outside the executor (the fabric's delivery
    /// order). Returns the canonical choice `0` when no scheduler is
    /// installed; otherwise defers to it, clamping out-of-range answers.
    pub fn sched_choose(&self, kind: ChoiceKind, options: &[ChoiceOption]) -> usize {
        if options.len() < 2 {
            return 0;
        }
        let core = self.core();
        let mut sched = core.scheduler.borrow_mut();
        match sched.as_mut() {
            Some(s) => s.choose(kind, options).min(options.len() - 1),
            None => 0,
        }
    }

    /// Whether this runtime was built under a [`crate::sanitize::arm`]
    /// guard: the one test every checker hook sits behind.
    pub fn sanitize_armed(&self) -> bool {
        self.core().sanitize.armed
    }

    /// Record a sanitizer violation at the current virtual time (dropped
    /// when the runtime is not armed).
    pub fn sanitize_report(&self, code: &'static str, detail: String) {
        let core = self.core();
        core.sanitize
            .report(code, core.now.get().as_nanos(), detail);
    }

    /// Violations recorded so far (see [`SimRuntime::sanitize_violations`]).
    pub fn sanitize_violations(&self) -> Vec<crate::sanitize::Violation> {
        self.core().sanitize.violations()
    }

    /// Drain the recorded sanitizer violations.
    pub fn sanitize_take_violations(&self) -> Vec<crate::sanitize::Violation> {
        self.core().sanitize.take()
    }

    /// The armed runtime's one checker-state slot as a `T`, created on
    /// first use: where a checker above `simcore` keeps what it tracks
    /// between hooks. `None` (and nothing allocated) when not armed.
    pub fn sanitize_slot<T: Default + 'static>(&self) -> Option<Rc<T>> {
        self.core().sanitize.slot()
    }
}

/// Future returned by [`Handle::sleep`].
pub struct Sleep {
    handle: Handle,
    deadline: SimTime,
}

impl Sleep {
    /// The absolute instant this sleep completes.
    pub fn deadline(&self) -> SimTime {
        self.deadline
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let core = self.handle.core();
        if core.now.get() >= self.deadline {
            Poll::Ready(())
        } else {
            let task = core.current_task.get();
            debug_assert!(
                task.is_some(),
                "Sleep polled outside any task of its runtime: nothing would advance its clock"
            );
            if let Some(task) = task {
                core.register_timer(self.deadline, TimerAction::Wake(task));
            }
            Poll::Pending
        }
    }
}

struct JoinState<T> {
    value: Option<T>,
    waker: Option<Waker>,
}

/// Handle to a spawned task's eventual output. Awaiting it yields the value;
/// [`JoinHandle::try_take`] grabs it non-blockingly after the run.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
    id: TaskId,
}

impl<T> JoinHandle<T> {
    /// Take the task's output if it has completed.
    pub fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().value.take()
    }

    /// Whether the task has produced its output (and it hasn't been taken).
    pub fn is_finished(&self) -> bool {
        self.state.borrow().value.is_some()
    }

    /// The spawned task's id.
    pub fn id(&self) -> TaskId {
        self.id
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        match st.value.take() {
            Some(v) => Poll::Ready(v),
            None => {
                st.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

/// Yield to the scheduler once, letting every other runnable task proceed
/// at the same virtual instant.
pub fn yield_now() -> YieldNow {
    YieldNow { polled: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    polled: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.polled {
            Poll::Ready(())
        } else {
            self.polled = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_on_returns_value() {
        let rt = SimRuntime::new();
        let out = rt.block_on(async { 40 + 2 });
        assert_eq!(out, 42);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let t = rt.block_on(async move {
            h.sleep(SimDuration::from_micros(5)).await;
            h.sleep(SimDuration::from_nanos(250)).await;
            h.now()
        });
        assert_eq!(t.as_nanos(), 5_250);
        assert_eq!(rt.now().as_nanos(), 5_250);
    }

    #[test]
    fn spawned_tasks_interleave_by_deadline() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        let (l1, l2) = (log.clone(), log.clone());
        let h1 = h.clone();
        let h2 = h.clone();
        rt.block_on(async move {
            let a = h1.spawn({
                let h = h1.clone();
                async move {
                    h.sleep(SimDuration::from_nanos(300)).await;
                    l1.borrow_mut().push(("a", h.now().as_nanos()));
                }
            });
            let b = h2.spawn({
                let h = h2.clone();
                async move {
                    h.sleep(SimDuration::from_nanos(100)).await;
                    l2.borrow_mut().push(("b", h.now().as_nanos()));
                }
            });
            a.await;
            b.await;
        });
        assert_eq!(*log.borrow(), vec![("b", 100), ("a", 300)]);
    }

    #[test]
    fn same_deadline_fires_in_registration_order() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in ["x", "y", "z"] {
            let h2 = h.clone();
            let log = log.clone();
            h.spawn(async move {
                h2.sleep(SimDuration::from_nanos(500)).await;
                log.borrow_mut().push(name);
            });
        }
        rt.run();
        assert_eq!(*log.borrow(), vec!["x", "y", "z"]);
    }

    #[test]
    fn notify_at_takes_its_place_among_sleep_timers() {
        // Registration order a, (notify_at 100), c, (notify_at 50): the
        // waiter runs first at t=50, then at t=100 between a and c.
        let rt = SimRuntime::new();
        let h = rt.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        let n = Notify::new();
        {
            let (h2, n, log) = (h.clone(), n.clone(), log.clone());
            h.spawn(async move {
                loop {
                    n.notified().await;
                    log.borrow_mut().push(("waiter", h2.now().as_nanos()));
                }
            });
        }
        let sleeper = |name: &'static str| {
            let (h2, log) = (h.clone(), log.clone());
            h.spawn(async move {
                h2.sleep(SimDuration::from_nanos(100)).await;
                log.borrow_mut().push((name, 100));
            });
        };
        let registrar = |at: u64| {
            let (h2, n) = (h.clone(), n.clone());
            h.spawn(async move { h2.notify_at(SimTime::from_nanos(at), n) });
        };
        sleeper("a");
        registrar(100);
        sleeper("c");
        registrar(50);
        rt.run();
        assert_eq!(
            *log.borrow(),
            vec![("waiter", 50), ("a", 100), ("waiter", 100), ("c", 100)]
        );
    }

    #[test]
    fn notify_at_polls_nothing_and_stores_one_permit() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let n = Notify::new();
        h.notify_at(SimTime::from_nanos(10), n.clone());
        h.notify_at(SimTime::from_nanos(20), n.clone());
        let hash = rt.trace_hash();
        rt.run();
        assert_eq!(rt.now().as_nanos(), 20);
        assert_eq!((rt.steps(), rt.trace_hash()), (0, hash));
        // Nobody waited: the two signals coalesced into a single permit.
        let second = rt.block_on(async move {
            n.notified().await;
            crate::timeout(&h, SimDuration::from_nanos(5), n.notified()).await
        });
        assert_eq!(second, Err(crate::Elapsed));
    }

    #[test]
    fn notify_at_does_not_fire_past_the_end_of_block_on() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let n = Notify::new();
        h.notify_at(SimTime::from_nanos(1_000), n.clone());
        rt.block_on(async move { h.sleep(SimDuration::from_nanos(10)).await });
        // Firing it would have taken the clock to its deadline.
        assert_eq!(rt.now().as_nanos(), 10);
        rt.run();
        assert_eq!(rt.now().as_nanos(), 1_000);
        rt.block_on(async move { n.notified().await }); // the permit it left
    }

    /// A callback task that logs the instant of each run.
    fn logging_callback(h: &Handle, log: &Rc<RefCell<Vec<u64>>>) -> TaskId {
        let (h2, log) = (h.clone(), log.clone());
        h.spawn_callback(move || log.borrow_mut().push(h2.now().as_nanos()))
    }

    #[test]
    fn callback_task_runs_on_admission_and_once_per_instant() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        let task = logging_callback(&h, &log);
        rt.run();
        assert_eq!((log.borrow().clone(), rt.steps()), (vec![0], 1));
        // Three timers sharing a deadline are one run; a fourth, later, one more.
        for at in [40, 40, 40, 70] {
            h.run_at(SimTime::from_nanos(at), task);
        }
        let hash = rt.trace_hash();
        rt.run();
        assert_eq!((log.borrow().clone(), rt.steps()), (vec![0, 40, 70], 3));
        // Each run entered the hash as a poll of `task` at that instant does.
        let expected = [40, 70]
            .iter()
            .fold(hash, |h, &at| trace_fold(trace_fold(h, task.0), at));
        assert_eq!(rt.trace_hash(), expected);
    }

    #[test]
    fn callback_task_runs_on_its_spawners_reactor_between_other_timers() {
        // Registration order at t=100: sleeper a, the callback's timer,
        // sleeper c — and that is the order they run in.
        let rt = SimRuntime::with_reactors(2);
        let h = rt.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        let (h2, log2) = (h.clone(), log.clone());
        h.spawn_on(ReactorId::new(1), async move {
            let (h3, log3) = (h2.clone(), log2.clone());
            let task = h2.spawn_callback(move || {
                let reactor = h3.current_reactor().index();
                log3.borrow_mut().push(("callback", reactor));
            });
            let sleeper = |name: &'static str| {
                let (h3, log3) = (h2.clone(), log2.clone());
                h2.spawn_on(ReactorId::new(0), async move {
                    h3.sleep(SimDuration::from_nanos(100)).await;
                    log3.borrow_mut().push((name, h3.current_reactor().index()));
                });
            };
            sleeper("a");
            let h3 = h2.clone();
            h2.spawn(async move { h3.run_at(SimTime::from_nanos(100), task) });
            sleeper("c");
        });
        rt.run();
        assert_eq!(
            *log.borrow(),
            vec![("callback", 1), ("a", 0), ("callback", 1), ("c", 0)]
        );
    }

    #[test]
    fn run_at_without_a_callback_task_to_run_does_nothing() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let polls = Rc::new(Cell::new(0));
        let polls2 = polls.clone();
        let parked = h.spawn(std::future::poll_fn(move |_| {
            polls2.set(polls2.get() + 1);
            Poll::<()>::Pending
        }));
        let finished = h.spawn(async {});
        rt.run();
        let before = (rt.steps(), rt.trace_hash(), polls.get());
        assert_eq!(before.2, 1);
        // A parked future, a finished one, an id nothing was ever given.
        for task in [parked.id(), finished.id(), TaskId(1_000)] {
            h.run_at(SimTime::from_nanos(10), task);
        }
        rt.run();
        assert_eq!(rt.now().as_nanos(), 10);
        assert_eq!((rt.steps(), rt.trace_hash(), polls.get()), before);
        // Through the handle of a runtime that is gone: not even a panic.
        let log = Rc::new(RefCell::new(Vec::new()));
        let task = logging_callback(&h, &log);
        drop(rt);
        h.run_at(SimTime::from_nanos(20), task);
        assert!(log.borrow().is_empty());
    }

    #[test]
    fn callback_task_is_a_task_choice_like_a_runnable_future() {
        use crate::sched::ReplayScheduler;
        // A callback task and a future made runnable at the same instant,
        // under the scheduler replaying `prefix` (or under none).
        fn run(prefix: Option<Vec<u32>>) -> (Vec<&'static str>, Vec<(ChoiceKind, usize)>) {
            let rt = SimRuntime::new();
            let trace = prefix.map(|prefix| {
                let sched = ReplayScheduler::new(prefix);
                let trace = sched.trace();
                rt.set_scheduler(sched);
                trace
            });
            let h = rt.handle();
            let log = Rc::new(RefCell::new(Vec::new()));
            let (h2, log2) = (h.clone(), log.clone());
            let task = h.spawn_callback(move || {
                if h2.now().as_nanos() == 10 {
                    log2.borrow_mut().push("callback");
                }
            });
            h.run_at(SimTime::from_nanos(10), task);
            let (h2, log2) = (h.clone(), log.clone());
            h.spawn(async move {
                h2.sleep(SimDuration::from_nanos(10)).await;
                log2.borrow_mut().push("future");
            });
            rt.run();
            let order = log.borrow().clone();
            let choices = trace.map_or(Vec::new(), |trace| {
                let records = &trace.borrow().records;
                records.iter().map(|c| (c.kind, c.options())).collect()
            });
            (order, choices)
        }
        let (fifo, _) = run(None);
        assert_eq!(fifo, vec!["callback", "future"]);
        // One choice between the two at admission, one at t=10; the
        // all-zeros answer is the FIFO schedule.
        let (canonical, choices) = run(Some(vec![]));
        assert_eq!(canonical, fifo);
        assert_eq!(choices, vec![(ChoiceKind::Task, 2); 2]);
        let (flipped, _) = run(Some(vec![0, 1]));
        assert_eq!(flipped, vec!["future", "callback"]);
    }

    /// FNV-1a over the eight little-endian bytes of `word`, one at a time:
    /// what `trace_fold` has computed since the hash was introduced.
    fn trace_fold_bytewise(mut h: u64, word: u64) -> u64 {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        h
    }

    #[test]
    fn trace_fold_matches_bytewise_fnv1a_at_the_edges() {
        for word in [0, 1, 0xff, 0x100, 1 << 56, (1 << 56) - 1, u64::MAX] {
            for h in [FNV_OFFSET, 0, u64::MAX] {
                assert_eq!(
                    trace_fold(h, word),
                    trace_fold_bytewise(h, word),
                    "{word:#x}"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn trace_fold_matches_bytewise_fnv1a(
            h in proptest::prelude::any::<u64>(),
            word in proptest::prelude::any::<u64>(),
            shift in 0u32..64,
        ) {
            // Shifted down as well: most words folded are small.
            for word in [word, word >> shift] {
                proptest::prop_assert_eq!(trace_fold(h, word), trace_fold_bytewise(h, word));
            }
        }
    }

    #[test]
    fn a_second_task_body_costs_the_task_table_nothing() {
        // Future, waker and reactor: what an entry held before callbacks.
        assert!(std::mem::size_of::<TaskEntry>() <= 5 * std::mem::size_of::<usize>());
    }

    #[test]
    fn wake_after_completion_is_skipped_unpolled() {
        let rt = SimRuntime::new();
        let kept = Rc::new(RefCell::new(None));
        let kept2 = kept.clone();
        rt.handle().spawn(std::future::poll_fn(move |cx| {
            *kept2.borrow_mut() = Some(cx.waker().clone());
            Poll::Ready(())
        }));
        rt.run();
        let before = (rt.steps(), rt.trace_hash());
        let waker: Waker = kept.borrow_mut().take().expect("task ran");
        waker.wake();
        rt.run();
        assert_eq!((rt.steps(), rt.trace_hash()), before);
    }

    /// What is left in this thread's registry (each test has its own thread).
    fn registered() -> usize {
        READY.with(|all| all.borrow().len())
    }

    /// A task that parks its waker in `slot` and counts its polls.
    fn park_waker(rt: &SimRuntime, slot: &Rc<RefCell<Option<Waker>>>, polls: &Rc<Cell<u32>>) {
        let (slot, polls) = (slot.clone(), polls.clone());
        rt.handle().spawn(std::future::poll_fn(move |cx| {
            polls.set(polls.get() + 1);
            *slot.borrow_mut() = Some(cx.waker().clone());
            Poll::<()>::Pending
        }));
    }

    #[test]
    fn registry_is_empty_after_100_000_runtimes() {
        for i in 0..100_000u64 {
            let rt = SimRuntime::new();
            let h = rt.handle();
            let out = rt.block_on(async move {
                h.sleep(SimDuration::from_nanos(1)).await;
                i
            });
            assert_eq!((out, registered()), (i, 1));
        }
        assert_eq!(registered(), 0);
    }

    #[test]
    fn runtimes_sharing_a_thread_poll_only_on_their_own_wakes() {
        // Task ids coincide across runtimes (both count from zero), so a
        // wake delivered to the wrong queue would poll a real task there.
        fn slice(rt: &SimRuntime, delay: u64) {
            let h = rt.handle();
            rt.block_on(async move {
                let n = Notify::new();
                let (h2, n2) = (h.clone(), n.clone());
                h.spawn(async move {
                    h2.sleep(SimDuration::from_nanos(delay)).await;
                    n2.notify_one();
                });
                n.notified().await;
                yield_now().await;
            });
        }
        let alone = |delays: [u64; 3]| {
            let rt = SimRuntime::new();
            delays.iter().for_each(|&d| slice(&rt, d));
            (rt.steps(), rt.trace_hash(), rt.now())
        };
        let (a, b) = (SimRuntime::new(), SimRuntime::new());
        for (da, db) in [(5, 7), (11, 3), (2, 2)] {
            slice(&a, da);
            slice(&b, db);
        }
        assert_eq!((a.steps(), a.trace_hash(), a.now()), alone([5, 11, 2]));
        assert_eq!((b.steps(), b.trace_hash(), b.now()), alone([7, 3, 2]));
    }

    #[test]
    fn wake_between_block_on_calls_is_delivered_by_the_next() {
        let rt = SimRuntime::new();
        let n = Notify::new();
        let woken = Rc::new(Cell::new(false));
        let (n2, woken2) = (n.clone(), woken.clone());
        rt.handle().spawn(async move {
            n2.notified().await;
            woken2.set(true);
        });
        rt.block_on(async {}); // the waiter parks
        n.notify_one(); // no task is being polled, no `block_on` is running
        assert!(!woken.get());
        rt.block_on(async {});
        assert!(woken.get());
    }

    #[test]
    fn stale_waker_of_a_dropped_runtime_wakes_nothing() {
        let slot = Rc::new(RefCell::new(None));
        let polls = Rc::new(Cell::new(0));
        let old = SimRuntime::new();
        park_waker(&old, &slot, &polls);
        old.run();
        drop(old);
        let stale: Waker = slot.borrow_mut().take().expect("task ran");
        // Same thread, same task id (0), a new runtime.
        let new = SimRuntime::new();
        park_waker(&new, &slot, &polls);
        new.run();
        assert_eq!((polls.get(), new.steps(), registered()), (2, 1, 1));
        stale.wake_by_ref();
        stale.wake();
        new.run();
        assert_eq!((polls.get(), new.steps()), (2, 1));
        // The live task's own waker still works.
        slot.borrow_mut().take().expect("task ran").wake();
        new.run();
        assert_eq!((polls.get(), new.steps()), (3, 2));
    }

    #[test]
    fn sleep_under_timeout_and_poll_fn_wakes_the_enclosing_task() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let at = rt.block_on(async move {
            let nap = h.sleep(SimDuration::from_nanos(200));
            let cut = crate::timeout(&h, SimDuration::from_nanos(50), nap).await;
            assert_eq!((cut, h.now().as_nanos()), (Err(crate::Elapsed), 50));
            let mut nap = Box::pin(h.sleep(SimDuration::from_nanos(30)));
            std::future::poll_fn(|cx| nap.as_mut().poll(cx)).await;
            h.now().as_nanos()
        });
        // The abandoned 200 ns timer names a finished task: skipped unpolled.
        let steps = rt.steps();
        rt.run();
        assert_eq!((at, rt.now().as_nanos(), rt.steps()), (80, 200, steps));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside any task")]
    fn sleep_polled_outside_any_task_is_a_bug() {
        let rt = SimRuntime::new();
        let mut nap = Box::pin(rt.handle().sleep(SimDuration::from_nanos(1)));
        let _ = nap.as_mut().poll(&mut Context::from_waker(Waker::noop()));
    }

    #[test]
    fn yield_now_lets_peer_run() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l1 = log.clone();
        let l2 = log.clone();
        let peer = h.spawn(async move {
            l1.borrow_mut().push("peer");
        });
        rt.block_on(async move {
            yield_now().await;
            l2.borrow_mut().push("main");
            peer.await;
        });
        assert_eq!(*log.borrow(), vec!["peer", "main"]);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn block_on_detects_deadlock() {
        let rt = SimRuntime::new();
        rt.block_on(std::future::pending::<()>());
    }

    #[test]
    fn join_handle_try_take() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let jh = h.spawn(async { "done" });
        assert!(!jh.is_finished());
        rt.run();
        assert!(jh.is_finished());
        assert_eq!(jh.try_take(), Some("done"));
        assert_eq!(jh.try_take(), None);
    }

    #[test]
    fn spawn_inherits_reactor_and_spawn_on_pins() {
        let rt = SimRuntime::with_reactors(4);
        let h = rt.handle();
        assert_eq!(rt.reactor_count(), 4);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s1 = seen.clone();
        let h1 = h.clone();
        let pinned = h.spawn_on(ReactorId::new(2), async move {
            s1.borrow_mut().push(("pinned", h1.current_reactor()));
            // A nested spawn inherits the spawner's reactor.
            let s2 = s1.clone();
            let h2 = h1.clone();
            h1.spawn(async move {
                s2.borrow_mut().push(("child", h2.current_reactor()));
            })
            .await;
        });
        rt.block_on(async move {
            pinned.await;
        });
        assert_eq!(
            *seen.borrow(),
            vec![("pinned", ReactorId::new(2)), ("child", ReactorId::new(2)),]
        );
    }

    #[test]
    fn cpu_work_serializes_per_reactor_but_not_across() {
        // Two tasks each needing 100 ns of CPU: sharing a reactor they
        // finish at 100/200 ns; on distinct reactors both finish at 100 ns.
        fn finish_times(reactors: usize, pin: [usize; 2]) -> Vec<u64> {
            let rt = SimRuntime::with_reactors(reactors);
            let h = rt.handle();
            let log = Rc::new(RefCell::new(Vec::new()));
            for &r in &pin {
                let h2 = h.clone();
                let log = log.clone();
                h.spawn_on(ReactorId::new(r), async move {
                    h2.cpu_work(SimDuration::from_nanos(100)).await;
                    log.borrow_mut().push(h2.now().as_nanos());
                });
            }
            rt.run();
            let v = log.borrow().clone();
            v
        }
        assert_eq!(finish_times(1, [0, 0]), vec![100, 200]);
        assert_eq!(finish_times(2, [0, 1]), vec![100, 100]);
    }

    #[test]
    fn spawn_detached_is_spawn_without_the_join_cell() {
        // The same bodies — one that finishes on its first poll, one that
        // sleeps, one that yields and spawns a child — admitted either way:
        // same ids in the same order, same steps, same event stream.
        fn run(detached: bool) -> (Vec<TaskId>, Vec<u64>, u64, u64) {
            let rt = SimRuntime::new();
            let h = rt.handle();
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut ids = Vec::new();
            for nanos in [0u64, 70, 30] {
                let (h2, log) = (h.clone(), log.clone());
                let body = async move {
                    if nanos > 0 {
                        h2.sleep(SimDuration::from_nanos(nanos)).await;
                        yield_now().await;
                        let log2 = log.clone();
                        let child = async move { log2.borrow_mut().push(1_000 + nanos) };
                        if detached {
                            h2.spawn_detached(child);
                        } else {
                            h2.spawn(child);
                        }
                    }
                    log.borrow_mut().push(nanos);
                };
                ids.push(if detached {
                    h.spawn_detached(body)
                } else {
                    h.spawn(body).id()
                });
            }
            rt.run();
            let log = log.borrow().clone();
            (ids, log, rt.steps(), rt.trace_hash())
        }
        let joined = run(false);
        assert_eq!(joined.1, vec![0, 30, 1_030, 70, 1_070]);
        assert_eq!(
            joined.2,
            3 + 2 * 3,
            "three first polls, two wakes and a child each"
        );
        assert_eq!(run(true), joined);
    }

    #[test]
    fn single_reactor_runtime_matches_legacy_trace() {
        // `with_reactors(1)` must be byte-identical to `new()`: same event
        // stream, same hash.
        fn run(rt: SimRuntime) -> u64 {
            let h = rt.handle();
            for _ in 0..8 {
                let h2 = h.clone();
                h.spawn(async move {
                    h2.sleep(SimDuration::from_nanos(50)).await;
                    yield_now().await;
                });
            }
            rt.run();
            rt.trace_hash()
        }
        assert_eq!(run(SimRuntime::new()), run(SimRuntime::with_reactors(1)));
    }

    #[test]
    fn reactor_pick_is_a_choice_point() {
        use crate::sched::ReplayScheduler;
        // Two tasks on different reactors, runnable at the same instant:
        // with a scheduler installed the interleaving is a ReactorPick.
        fn run(prefix: Vec<u32>) -> (Vec<&'static str>, Vec<ChoiceKind>) {
            let rt = SimRuntime::with_reactors(2);
            let sched = ReplayScheduler::new(prefix);
            let trace = sched.trace();
            rt.set_scheduler(sched);
            let h = rt.handle();
            let log = Rc::new(RefCell::new(Vec::new()));
            for (r, name) in [(0usize, "r0"), (1, "r1")] {
                let h2 = h.clone();
                let log = log.clone();
                h.spawn_on(ReactorId::new(r), async move {
                    h2.sleep(SimDuration::from_nanos(10)).await;
                    log.borrow_mut().push(name);
                });
            }
            rt.run();
            let order = log.borrow().clone();
            let kinds = trace.borrow().records.iter().map(|c| c.kind).collect();
            (order, kinds)
        }
        let (canonical, kinds) = run(vec![]);
        assert_eq!(canonical, vec!["r0", "r1"]);
        assert!(
            kinds.contains(&ChoiceKind::ReactorPick),
            "expected a ReactorPick choice point, got {kinds:?}"
        );
        let (flipped, _) = run(vec![1]);
        assert_eq!(flipped, vec!["r1", "r0"]);
    }

    #[test]
    fn many_timers_deterministic_order() {
        // Run the same randomized timer workload twice and check identical
        // completion sequence.
        fn run_once(seed: u64) -> Vec<(u64, u64)> {
            let rt = SimRuntime::new();
            let h = rt.handle();
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut state = seed;
            for i in 0..200u64 {
                // xorshift for reproducible pseudo-random deadlines
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let delay = state % 1_000;
                let h2 = h.clone();
                let log = log.clone();
                h.spawn(async move {
                    h2.sleep(SimDuration::from_nanos(delay)).await;
                    log.borrow_mut().push((i, h2.now().as_nanos()));
                });
            }
            rt.run();
            let v = log.borrow().clone();
            v
        }
        assert_eq!(run_once(0xDEADBEEF), run_once(0xDEADBEEF));
    }
}
