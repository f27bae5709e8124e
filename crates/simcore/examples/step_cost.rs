//! What one executor step costs the host, with a shallow and a deep timer
//! heap: nanoseconds per sleep-and-wake of a single task while 0 and while
//! 200 other timers are pending, three repetitions each.
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
//! have that many sleeps and posted writes in flight). A record, not a
//! gate: the numbers are host time and move with the machine.

use simcore::{SimDuration, SimRuntime};

const STEPS: u64 = 2_000_000;
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

fn main() {
    for background in [0, 200] {
        let runs: Vec<String> = (0..REPETITIONS)
            .map(|_| format!("{:.1}", ns_per_step(background)))
            .collect();
        println!(
            "step_cost: {background:>3} timers pending: {} ns per step",
            runs.join(" ")
        );
    }
}
