//! Job reports: latency summaries, IOPS/bandwidth, fio-like rendering.

use simcore::{LatencySummary, SimDuration};

/// The result of one job run.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Job name.
    pub name: String,
    /// Pattern label.
    pub rw: String,
    /// I/O size in bytes.
    pub block_size: u32,
    /// Outstanding I/Os per job.
    pub iodepth: usize,
    /// Parallel jobs.
    pub numjobs: usize,
    /// Measured (post-ramp) duration.
    pub measured_ns: u64,
    /// Read-side results, if the job read.
    pub read: Option<SideReport>,
    /// Write-side results, if the job wrote.
    pub write: Option<SideReport>,
    /// Failed I/Os.
    pub errors: u64,
}

/// Per-direction results.
#[derive(Clone, Copy, Debug)]
pub struct SideReport {
    /// Completed I/Os.
    pub ios: u64,
    /// Completion-latency distribution.
    pub lat: LatencySummary,
    /// I/Os per second over the measured span.
    pub iops: f64,
    /// Bandwidth in MiB/s.
    pub bw_mib_s: f64,
}

impl SideReport {
    /// Derive rates from a latency summary and the measured span.
    pub fn from_summary(lat: LatencySummary, measured: SimDuration, block_size: u32) -> SideReport {
        let secs = measured.as_secs_f64().max(1e-12);
        let ios = lat.count as u64;
        SideReport {
            ios,
            lat,
            iops: ios as f64 / secs,
            bw_mib_s: ios as f64 * block_size as f64 / secs / (1024.0 * 1024.0),
        }
    }
}

impl JobReport {
    /// fio-style multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}: rw={} bs={} iodepth={} numjobs={} errors={}\n",
            self.name, self.rw, self.block_size, self.iodepth, self.numjobs, self.errors
        );
        if let Some(r) = &self.read {
            out += &format!(
                "  read : iops={:.0} bw={:.1} MiB/s\n         {}\n",
                r.iops,
                r.bw_mib_s,
                r.lat.boxplot_row("lat")
            );
        }
        if let Some(w) = &self.write {
            out += &format!(
                "  write: iops={:.0} bw={:.1} MiB/s\n         {}\n",
                w.iops,
                w.bw_mib_s,
                w.lat.boxplot_row("lat")
            );
        }
        out
    }

    /// The direction's summary, if present.
    pub fn side(&self, read: bool) -> Option<&SideReport> {
        if read {
            self.read.as_ref()
        } else {
            self.write.as_ref()
        }
    }
}

impl std::fmt::Display for JobReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::LatencyRecorder;

    fn summary(n: usize) -> LatencySummary {
        let mut r = LatencyRecorder::new();
        for i in 1..=n {
            r.record_nanos(i as u64 * 1_000);
        }
        r.summary().unwrap()
    }

    #[test]
    fn iops_and_bandwidth_math() {
        let s = summary(1000);
        let side = SideReport::from_summary(s, SimDuration::from_secs(1), 4096);
        assert_eq!(side.ios, 1000);
        assert!((side.iops - 1000.0).abs() < 1e-6);
        let expect_bw = 1000.0 * 4096.0 / (1024.0 * 1024.0);
        assert!((side.bw_mib_s - expect_bw).abs() < 1e-6);
    }

    #[test]
    fn render_contains_both_sides() {
        let s = summary(10);
        let rep = JobReport {
            name: "t".into(),
            rw: "randrw50".into(),
            block_size: 4096,
            iodepth: 1,
            numjobs: 1,
            measured_ns: 1_000_000,
            read: Some(SideReport::from_summary(
                s,
                SimDuration::from_millis(1),
                4096,
            )),
            write: Some(SideReport::from_summary(
                s,
                SimDuration::from_millis(1),
                4096,
            )),
            errors: 0,
        };
        let text = rep.render();
        assert!(text.contains("read :"));
        assert!(text.contains("write:"));
        assert!(text.contains("iops="));
    }
}
