//! The calibration loop: a fixed amount of integer work whose wall time
//! tracks how fast this machine is running *right now*.
//!
//! Raw host nanoseconds per simulated I/O differed by up to 24 % between
//! identical processes on the sizing machine; the same figure divided by
//! this loop's wall time, taken immediately before the timed section,
//! agreed to a few percent. Every host-time metric is therefore reported
//! as `section_wall / loop_wall * CALIB_REF_NS`: nanoseconds as the
//! reference machine would have measured them.

use std::hint::black_box;
use std::time::Instant;

/// Wall time of one [`Calibrator::run`] on the machine the first numbers
/// were recorded on. A constant: changing it rescales every host metric.
pub const CALIB_REF_NS: f64 = 25_000_000.0;

/// 64 Ki `u64` entries = 512 KiB: larger than L1, inside L2/L3, like the
/// simulator's own working set of tasks, timers and queue entries.
const TABLE_WORDS: usize = 1 << 16;
/// Dependent steps per run; sized for ~25 ms on the reference machine.
const STEPS: u32 = 4_000_000;

/// The loop and its table (allocated once, reused by every run).
pub struct Calibrator {
    table: Vec<u64>,
    /// 1 normally; `--quick` runs 1/N of the steps and reports N times
    /// the wall time, trading accuracy nobody needs there for speed.
    divisor: u32,
}

impl Calibrator {
    /// Fill the table from a fixed splitmix64 stream.
    pub fn new(quick: bool) -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect();
        let divisor = if quick {
            crate::workloads::QUICK_DIVISOR as u32
        } else {
            1
        };
        Calibrator { table, divisor }
    }

    /// One calibration run: a hash walk in which every step loads, mixes
    /// and stores one table word chosen by the previous step. Returns its
    /// wall time in nanoseconds (scaled to the full loop under `--quick`).
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x5EED_u64;
        for _ in 0..STEPS / self.divisor {
            let i = (x >> 48) as usize;
            x = (x ^ self.table[i])
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(23);
            self.table[i] = x;
        }
        black_box(x);
        t.elapsed().as_nanos() as f64 * self.divisor as f64
    }
}

/// `wall_ns` of a section as the reference machine would have timed it,
/// given the loop's wall time taken just before the section.
pub fn normalise(wall_ns: f64, loop_wall_ns: f64) -> f64 {
    wall_ns / loop_wall_ns * CALIB_REF_NS
}
