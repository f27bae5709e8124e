//! What a sleep costs the host on each of its two paths, with few and with
//! many timers pending. A lone task's sleep has nothing due before it, so
//! it completes in place: nanoseconds per such sleep while 0 and while 200
//! other timers are parked an hour out. Two tasks sleeping in lockstep
//! tie at every deadline, which forces the timer path: nanoseconds per
//! sleep-and-wake step, with the same 0 and 200 parked timers. Then per
//! step of 200 tasks whose timers are spread over the next 200 µs and
//! re-arm as they fire; three repetitions each. Then what a task nobody
//! joins costs from spawn to finish, spawned with `spawn` (handle dropped
//! on the spot) and with `spawn_detached`.
//!
//! ```sh
//! cargo run --release -p simcore --example step_cost
//! ```
//!
//! An in-place sleep is the guards' checks and a clock store inside the
//! task's poll. A timer-path step is the executor's whole loop and nothing
//! else — register a timer, advance the clock, pop the timer, queue the
//! task, poll it — so its figure is the floor under every
//! `host_ns_per_step` that `dnvme-bench` reports. Timers parked far out
//! wait in the executor's heap untouched, so the parked cases cost what the
//! empty ones do. The spread case is as deep as `mh31_shared` gets (31
//! hosts at QD 4: 89 timers pending at a registration on average, 341 at
//! the peak), but it is the executor's worst case: almost no timer is due
//! within the near tier's window, so every one passes through the heap,
//! where most of `mh31_shared`'s, due within a microsecond, never do. The
//! spawn pair is what a per-command task (`exec_io`, an RDMA delivery) pays
//! before its body does anything: box, admit, one poll, and for `spawn` the
//! join cell on top. A record, not a gate: the numbers are host time and
//! move with the machine.

use std::cell::Cell;

use simcore::{SimDuration, SimRuntime};

const STEPS: u64 = 2_000_000;
/// Tasks, and so timers pending, in the spread case.
const SPREAD: u64 = 200;
/// Each re-arm of the spread case sleeps 1 ns to this long.
const SPREAD_NS: u64 = 200_000;
const SPAWNS: u64 = 1_000_000;
const REPETITIONS: usize = 3;

/// Host nanoseconds per 1 ns sleep of `sleepers` tasks sleeping `STEPS`
/// times between them, with `background` timers in the heap from start to
/// finish, and the steps those sleeps took. One sleeper completes each
/// sleep in place (no step); two tie at every deadline, and a tie takes
/// the timer path (one step per sleep).
fn ns_per_sleep(sleepers: u64, background: u64) -> (f64, u64) {
    let rt = SimRuntime::new();
    let h = rt.handle();
    for i in 0..background {
        // Due long after the measured tasks are done: `block_on` leaves
        // timers past its root's last instant unfired.
        let (h2, nap) = (h.clone(), SimDuration::from_secs(3_600 + i));
        h.spawn(async move { h2.sleep(nap).await });
    }
    rt.block_on(async {}); // the background tasks park on their timers
    let before = rt.steps();
    #[expect(
        clippy::disallowed_methods,
        reason = "host wall-clock measurement of the executor itself"
    )]
    let t0 = std::time::Instant::now();
    let sleep_loop = move |h: simcore::Handle| async move {
        for _ in 0..STEPS / sleepers {
            h.sleep(SimDuration::from_nanos(1)).await;
        }
    };
    let peers: Vec<_> = (1..sleepers)
        .map(|_| h.spawn(sleep_loop(h.clone())))
        .collect();
    rt.block_on(async move {
        sleep_loop(h).await;
        for peer in peers {
            peer.await;
        }
    });
    let elapsed = t0.elapsed();
    let sleeps = STEPS / sleepers * sleepers;
    (
        elapsed.as_nanos() as f64 / sleeps as f64,
        rt.steps() - before,
    )
}

/// Host nanoseconds per step of `SPREAD` tasks that each sleep a
/// pseudo-random 1 ns to `SPREAD_NS` and re-arm, for about `STEPS` steps.
fn ns_per_step_spread() -> f64 {
    let rt = SimRuntime::new();
    let h = rt.handle();
    for task in 0..SPREAD {
        let h2 = h.clone();
        h.spawn(async move {
            let mut x = task + 1; // xorshift64, one stream per task
            loop {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                h2.sleep(SimDuration::from_nanos(1 + x % SPREAD_NS)).await;
            }
        });
    }
    // Each task re-arms every `SPREAD_NS / 2` on average.
    let span = SimDuration::from_nanos(STEPS / SPREAD * SPREAD_NS / 2);
    #[expect(
        clippy::disallowed_methods,
        reason = "host wall-clock measurement of the executor itself"
    )]
    let t0 = std::time::Instant::now();
    rt.block_on(async move { h.sleep(span).await });
    t0.elapsed().as_nanos() as f64 / rt.steps() as f64
}

/// Host nanoseconds per task that is spawned by a running task, polled
/// once and finished, `SPAWNS` times in batches of 64.
fn ns_per_spawn(detached: bool) -> f64 {
    let rt = SimRuntime::new();
    let h = rt.handle();
    #[expect(
        clippy::disallowed_methods,
        reason = "host wall-clock measurement of the executor itself"
    )]
    let t0 = std::time::Instant::now();
    rt.block_on(async move {
        for batch in 0..SPAWNS / 64 {
            for i in 0..64 {
                let body = async move {
                    std::hint::black_box(batch + i);
                };
                if detached {
                    h.spawn_detached(body);
                } else {
                    h.spawn(body);
                }
            }
            simcore::yield_now().await;
        }
    });
    t0.elapsed().as_nanos() as f64 / (SPAWNS / 64 * 64) as f64
}

fn repeated(measure: impl Fn() -> f64) -> String {
    let runs: Vec<String> = (0..REPETITIONS)
        .map(|_| format!("{:.1}", measure()))
        .collect();
    runs.join(" ")
}

fn main() {
    for (sleepers, path, unit) in [(1, "in place", "sleep"), (2, "timer path", "step")] {
        for background in [0, 200] {
            let steps = Cell::new(0);
            let ns = repeated(|| {
                let (ns, taken) = ns_per_sleep(sleepers, background);
                steps.set(taken);
                ns
            });
            println!(
                "step_cost: {background:>3} timers pending, parked, {path:>10}: {ns} ns per {unit}, {} steps per {STEPS} sleeps",
                steps.get()
            );
        }
    }
    println!(
        "step_cost: {SPREAD:>3} timers pending, spread: {} ns per step",
        repeated(ns_per_step_spread)
    );
    for (name, detached) in [("spawn, handle dropped", false), ("spawn_detached", true)] {
        println!(
            "step_cost: {name:>21}: {} ns per spawn-and-finish",
            repeated(|| ns_per_spawn(detached))
        );
    }
}
