//! Exact latency recording and percentile summaries (the boxplot data for
//! the paper's Figure 10 is derived from these).

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// Raw samples a recorder holds, at least, before folding them into its
/// runs.
const BUFFER: usize = 4096;

/// The seven reported percentiles, as nearest-rank per-mille points in
/// ascending order: p1, p25, p50, p75, p90, p99, p99.9.
const PER_MILLE: [usize; 7] = [10, 250, 500, 750, 900, 990, 999];

/// Records every sample exactly (nanoseconds) as ascending
/// `(value, count)` runs plus a raw buffer, sorted and folded into the
/// runs in place once it holds `BUFFER` samples or as many samples as
/// there are runs, whichever is more. A fold walks every run, so the
/// second bound keeps its cost per sample constant however many distinct
/// values there are; storage stays at most `distinct + max(BUFFER,
/// distinct)` entries however many samples are recorded.
#[derive(Default, Clone, Debug)]
pub struct LatencyRecorder {
    /// One entry per distinct value folded in so far, ascending.
    runs: Vec<(u64, u64)>,
    /// Samples not yet folded in, in record order.
    pending: Vec<u64>,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        self.record_nanos(latency.as_nanos());
    }

    /// Record one sample given directly in nanoseconds.
    pub fn record_nanos(&mut self, ns: u64) {
        self.pending.push(ns);
        if self.pending.len() >= BUFFER.max(self.runs.len()) {
            self.flush();
        }
    }

    /// Add another recorder's samples.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        fold(&mut self.runs, other.runs.iter().copied());
        for &ns in &other.pending {
            self.record_nanos(ns);
        }
    }

    /// Compute the full summary. `None` if no samples were recorded.
    ///
    /// Every field equals what sorting all samples would give; `mean`
    /// and `stddev` add the same `f64` terms in the same ascending order.
    pub fn summary(&self) -> Option<LatencySummary> {
        let mut all = self.clone();
        all.flush();
        let runs = &all.runs;
        let (min, max) = (runs.first()?.0, runs.last()?.0);
        let count: usize = runs.iter().map(|&(_, n)| n as usize).sum();
        let sum: u128 = runs.iter().map(|&(v, n)| v as u128 * n as u128).sum();
        let mean = (sum / count as u128) as u64;
        let mean_f = sum as f64 / count as f64;
        let var = runs
            .iter()
            .flat_map(|&(v, n)| std::iter::repeat_n((v as f64 - mean_f).powi(2), n as usize))
            .sum::<f64>()
            / count as f64;
        // Nearest rank, in integers: the smallest rank covering the point.
        let ranks = PER_MILLE.map(|pm| (pm * count).div_ceil(1000).max(1));
        let mut pct = [0u64; 7];
        let (mut next, mut seen) = (0, 0usize);
        for &(v, n) in runs {
            seen += n as usize;
            while next < ranks.len() && ranks[next] <= seen {
                pct[next] = v;
                next += 1;
            }
        }
        let [p1, p25, p50, p75, p90, p99, p999] = pct;
        Some(LatencySummary {
            count,
            min,
            p1,
            p25,
            p50,
            p75,
            p90,
            p99,
            p999,
            max,
            mean,
            stddev: var.sqrt() as u64,
        })
    }

    /// Sort the buffer and fold its `(value, count)` runs into the runs.
    fn flush(&mut self) {
        self.pending.sort_unstable();
        let groups = self.pending.chunk_by(|a, b| a == b);
        fold(&mut self.runs, groups.map(|g| (g[0], g.len() as u64)));
        self.pending.clear();
    }
}

/// Fold ascending `(value, count)` runs into `runs` in place. A forward
/// walk adds the counts of values already present where they stand; the
/// new values are then merged in from the top down, after `runs` has
/// grown once by their number.
fn fold(runs: &mut Vec<(u64, u64)>, new: impl DoubleEndedIterator<Item = (u64, u64)> + Clone) {
    let (mut fresh, mut at) = (0, 0);
    for (v, n) in new.clone() {
        while at < runs.len() && runs[at].0 < v {
            at += 1;
        }
        match runs.get_mut(at) {
            Some(r) if r.0 == v => r.1 += n,
            _ => fresh += 1,
        }
    }
    if fresh == 0 {
        return;
    }
    let mut i = runs.len();
    runs.resize(i + fresh, (0, 0));
    let mut k = runs.len();
    for (v, n) in new.rev() {
        while i > 0 && runs[i - 1].0 > v {
            i -= 1;
            k -= 1;
            runs[k] = runs[i];
        }
        if i > 0 && runs[i - 1].0 == v {
            continue; // counted above
        }
        k -= 1;
        runs[k] = (v, n);
        if k == i {
            break; // everything below is already in place
        }
    }
}

/// Percentile summary of a latency distribution, all values in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Minimum.
    pub min: u64,
    /// 1st percentile.
    pub p1: u64,
    /// 25th percentile (box bottom).
    pub p25: u64,
    /// Median.
    pub p50: u64,
    /// 75th percentile (box top).
    pub p75: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile (the whisker Fig. 10 uses).
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Maximum.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: u64,
    /// Population standard deviation.
    pub stddev: u64,
}

impl LatencySummary {
    /// Microsecond view of a field, for report tables.
    pub fn us(v: u64) -> f64 {
        v as f64 / 1_000.0
    }

    /// One formatted row: label, then min/p25/p50/p75/p99/max in µs —
    /// exactly the whisker data Figure 10's boxplots show (whiskers are
    /// min→p99 in the paper).
    pub fn boxplot_row(&self, label: &str) -> String {
        format!(
            "{label:<28} n={:<8} min={:>8.2}us p25={:>8.2}us p50={:>8.2}us p75={:>8.2}us p99={:>8.2}us max={:>8.2}us",
            self.count,
            Self::us(self.min),
            Self::us(self.p25),
            Self::us(self.p50),
            Self::us(self.p75),
            Self::us(self.p99),
            Self::us(self.max),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// The sort-everything summary the runs must reproduce field for field.
    fn reference(samples: &[u64]) -> Option<LatencySummary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let count = sorted.len();
        let sum: u128 = sorted.iter().map(|&v| v as u128).sum();
        let mean_f = sum as f64 / count as f64;
        let var = sorted
            .iter()
            .map(|&v| (v as f64 - mean_f).powi(2))
            .sum::<f64>()
            / count as f64;
        let pct = |pm: usize| sorted[(pm * count).div_ceil(1000).max(1) - 1];
        Some(LatencySummary {
            count,
            min: sorted[0],
            p1: pct(10),
            p25: pct(250),
            p50: pct(500),
            p75: pct(750),
            p90: pct(900),
            p99: pct(990),
            p999: pct(999),
            max: sorted[count - 1],
            mean: (sum / count as u128) as u64,
            stddev: var.sqrt() as u64,
        })
    }

    /// A stream mixing heavy duplicates, zero and values past 2^53.
    fn stream(rng: &mut SimRng, len: usize) -> Vec<u64> {
        let hot: Vec<u64> = (0..1 + rng.below(6)).map(|_| rng.below(50_000)).collect();
        (0..len)
            .map(|_| match rng.below(10) {
                0 => 0,
                1 => (1 << 53) + rng.below(1 << 12),
                2 => u64::MAX / 3 + rng.below(1_000),
                3 | 4 => rng.next_u64() >> rng.below(64),
                _ => hot[rng.below(hot.len() as u64) as usize],
            })
            .collect()
    }

    #[test]
    fn runs_reproduce_the_sort_everything_summary() {
        let mut rng = SimRng::seed_from_u64(0x5EED);
        for case in 0..60 {
            let len = [0, 1, BUFFER - 1, BUFFER, BUFFER + 1][case % 5] + rng.below(9_000) as usize;
            let mut samples = stream(&mut rng, len);
            // Ordered streams make every flush bring only new minima (or
            // maxima) next to values already folded in.
            match case % 3 {
                1 => samples.sort_unstable_by(|a, b| b.cmp(a)),
                2 => samples.sort_unstable(),
                _ => {}
            }
            // Split across recorders, then merge them in a random order.
            let mut parts: Vec<LatencyRecorder> = (0..1 + rng.below(5))
                .map(|_| LatencyRecorder::new())
                .collect();
            for &v in &samples {
                let i = rng.below(parts.len() as u64) as usize;
                parts[i].record_nanos(v);
            }
            let mut all = parts.swap_remove(rng.below(parts.len() as u64) as usize);
            while !parts.is_empty() {
                let part = parts.swap_remove(rng.below(parts.len() as u64) as usize);
                all.merge(&part);
            }
            assert_eq!(
                all.summary(),
                reference(&samples),
                "case {case}, {len} samples"
            );
        }
    }

    #[test]
    fn storage_is_bounded_by_distinct_values() {
        let mut rng = SimRng::seed_from_u64(7);
        for distinct in [4_096, 50_000] {
            let mut r = LatencyRecorder::new();
            for _ in 0..2_000_000 {
                r.record_nanos(10_000 + rng.below(distinct as u64));
            }
            let stored = r.runs.len() + r.pending.len();
            assert!(
                stored <= distinct + BUFFER.max(distinct),
                "{stored} entries"
            );
            assert_eq!(r.summary().unwrap().count, 2_000_000);
        }
    }

    #[test]
    fn p999_is_the_nearest_rank() {
        let mut r = LatencyRecorder::new();
        for v in 1..=1000u64 {
            r.record_nanos(v);
        }
        assert_eq!(r.summary().unwrap().p999, 999);
    }

    #[test]
    fn empty_recorder_has_no_summary() {
        assert!(LatencyRecorder::new().summary().is_none());
    }

    #[test]
    fn single_sample_summary() {
        let mut r = LatencyRecorder::new();
        r.record(SimDuration::from_micros(10));
        let s = r.summary().unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 10_000);
        assert_eq!(s.p50, 10_000);
        assert_eq!(s.p99, 10_000);
        assert_eq!(s.max, 10_000);
        assert_eq!(s.stddev, 0);
    }

    #[test]
    fn percentiles_on_known_data() {
        let mut r = LatencyRecorder::new();
        for v in 1..=100u64 {
            r.record_nanos(v);
        }
        let s = r.summary().unwrap();
        assert_eq!(s.min, 1);
        assert_eq!(s.p1, 1);
        assert_eq!(s.p25, 25);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p75, 75);
        assert_eq!(s.p99, 99);
        assert_eq!(s.max, 100);
        assert_eq!(s.mean, 50); // 5050/100 = 50.5 -> integer div
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyRecorder::new();
        let mut b = LatencyRecorder::new();
        a.record_nanos(1);
        b.record_nanos(3);
        a.merge(&b);
        let s = a.summary().unwrap();
        assert_eq!((s.count, s.min, s.max), (2, 1, 3));
    }

    #[test]
    fn boxplot_row_formats() {
        let mut r = LatencyRecorder::new();
        r.record(SimDuration::from_micros(12));
        let row = r.summary().unwrap().boxplot_row("linux/local/randread");
        assert!(row.contains("linux/local/randread"));
        assert!(row.contains("12.00us"));
    }

    #[test]
    fn unordered_input_sorted_internally() {
        let mut r = LatencyRecorder::new();
        for v in [9u64, 1, 5, 3, 7] {
            r.record_nanos(v);
        }
        let s = r.summary().unwrap();
        assert_eq!(s.min, 1);
        assert_eq!(s.p50, 5);
        assert_eq!(s.max, 9);
    }
}
