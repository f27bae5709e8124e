//! Exact latency recording and percentile summaries (the boxplot data for
//! the paper's Figure 10 is derived from these).

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// Records every sample exactly (nanoseconds). Fine for the volumes a
/// simulated FIO run produces.
#[derive(Default, Clone, Debug)]
pub struct LatencyRecorder {
    samples: Vec<u64>,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty recorder preallocated for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        LatencyRecorder {
            samples: Vec::with_capacity(n),
        }
    }

    /// Record one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        self.samples.push(latency.as_nanos());
    }

    /// Record one sample given directly in nanoseconds.
    pub fn record_nanos(&mut self, ns: u64) {
        self.samples.push(ns);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Append another recorder's samples.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// The raw samples, in record order (nanoseconds).
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Compute the full summary. `None` if no samples were recorded.
    pub fn summary(&self) -> Option<LatencySummary> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let count = sorted.len();
        let sum: u128 = sorted.iter().map(|&v| v as u128).sum();
        let mean = (sum / count as u128) as u64;
        let mean_f = sum as f64 / count as f64;
        let var = sorted
            .iter()
            .map(|&v| (v as f64 - mean_f).powi(2))
            .sum::<f64>()
            / count as f64;
        let pct = |q: f64| -> u64 {
            // Nearest-rank percentile on the sorted array.
            let rank = ((q / 100.0) * count as f64).ceil().max(1.0) as usize;
            sorted[rank.min(count) - 1]
        };
        Some(LatencySummary {
            count,
            min: sorted[0],
            p1: pct(1.0),
            p25: pct(25.0),
            p50: pct(50.0),
            p75: pct(75.0),
            p90: pct(90.0),
            p99: pct(99.0),
            p999: pct(99.9),
            max: *sorted.last().unwrap(),
            mean,
            stddev: var.sqrt() as u64,
        })
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
        assert_eq!(a.len(), 2);
        assert_eq!(a.summary().unwrap().max, 3);
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
