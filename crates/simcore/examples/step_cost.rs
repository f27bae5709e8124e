//! What one executor step costs the host, with a shallow and a deep timer
//! heap: nanoseconds per sleep-and-wake of a single task while 0 and while
//! 200 other timers are pending, three repetitions each. Then what a task
//! nobody joins costs from spawn to finish, spawned with `spawn` (handle
//! dropped on the spot) and with `spawn_detached`.
//!
//! ```sh
//! cargo run --release -p simcore --example step_cost
//! ```
//!
//! A step here is the executor's whole loop and nothing else — register a
//! timer, advance the clock, pop the timer, queue the task, poll it — so
//! the figure is the floor under every `host_ns_per_step` that
//! `dnvme-bench` reports. Its probes keep at most a few timers pending per
//! task; the 200-deep case is the one they do not cover (31 hosts at QD 4
//! have that many sleeps and posted writes in flight). The spawn pair is
//! what a per-command task (`exec_io`, an RDMA delivery) pays before its
//! body does anything: box, admit, one poll, and for `spawn` the join cell
//! on top. A record, not a gate: the numbers are host time and move with
//! the machine.

use simcore::{SimDuration, SimRuntime};

const STEPS: u64 = 2_000_000;
const SPAWNS: u64 = 1_000_000;
const REPETITIONS: usize = 3;

/// Host nanoseconds per step of one task sleeping 1 ns `STEPS` times, with
/// `background` timers in the heap from start to finish.
fn ns_per_step(background: u64) -> f64 {
    let rt = SimRuntime::new();
    let h = rt.handle();
    for i in 0..background {
        // Due long after the measured task is done: `block_on` leaves
        // timers past its root's last instant unfired.
        let (h2, nap) = (h.clone(), SimDuration::from_secs(3_600 + i));
        h.spawn(async move { h2.sleep(nap).await });
    }
    rt.block_on(async {}); // the background tasks park on their timers
    let before = rt.steps();
    // lint:allow(D01) — host wall-clock measurement of the executor itself
    let t0 = std::time::Instant::now();
    rt.block_on(async move {
        for _ in 0..STEPS {
            h.sleep(SimDuration::from_nanos(1)).await;
        }
    });
    let elapsed = t0.elapsed();
    elapsed.as_nanos() as f64 / (rt.steps() - before) as f64
}

/// Host nanoseconds per task that is spawned by a running task, polled
/// once and finished, `SPAWNS` times in batches of 64.
fn ns_per_spawn(detached: bool) -> f64 {
    let rt = SimRuntime::new();
    let h = rt.handle();
    // lint:allow(D01) — host wall-clock measurement of the executor itself
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
    for background in [0, 200] {
        println!(
            "step_cost: {background:>3} timers pending: {} ns per step",
            repeated(|| ns_per_step(background))
        );
    }
    for (name, detached) in [("spawn, handle dropped", false), ("spawn_detached", true)] {
        println!(
            "step_cost: {name:>21}: {} ns per spawn-and-finish",
            repeated(|| ns_per_spawn(detached))
        );
    }
}
