//! Job specifications — the subset of FIO's job grammar the paper's
//! evaluation uses (§VI: random read/write, 4 KiB, QD 1, 60 s), plus the
//! knobs the extended experiments need (queue depth, block size, mixed
//! workloads, sequential reads, zipfian hotspots).

use simcore::SimDuration;

/// I/O pattern.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum RwMode {
    /// Uniform random reads.
    RandRead,
    /// Uniform random writes.
    RandWrite,
    /// Mixed random with the given read percentage.
    RandRw { read_pct: u8 },
    /// Sequential reads (lanes stripe the region).
    SeqRead,
}

impl RwMode {
    /// fio-style label (e.g. `randread`).
    pub fn label(&self) -> String {
        match self {
            RwMode::RandRead => "randread".into(),
            RwMode::RandWrite => "randwrite".into(),
            RwMode::RandRw { read_pct } => format!("randrw{read_pct}"),
            RwMode::SeqRead => "read".into(),
        }
    }
}

/// One benchmark job.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Job name, echoed in the report.
    pub name: String,
    /// I/O pattern.
    pub rw: RwMode,
    /// I/O size in bytes (must be a multiple of the device block size).
    pub block_size: u32,
    /// Outstanding I/Os per job.
    pub iodepth: usize,
    /// Parallel jobs (threads).
    pub numjobs: usize,
    /// Measured duration (simulated time).
    pub runtime: SimDuration,
    /// Warm-up before measurement starts.
    pub ramp: SimDuration,
    /// Optional cap on total I/Os (whichever of runtime/limit hits first).
    pub io_limit: Option<u64>,
    /// Restrict to `(first_block, num_blocks)` of the device.
    pub region: Option<(u64, u64)>,
    /// Root seed; lanes fork deterministic sub-streams.
    pub seed: u64,
    /// Zipf exponent for hotspot access (None = uniform).
    pub zipf: Option<f64>,
}

impl JobSpec {
    /// The paper's Fig. 10 job: 4 KiB random, QD 1.
    pub fn fig10(rw: RwMode, runtime: SimDuration) -> JobSpec {
        JobSpec::new("fig10", rw).runtime(runtime)
    }

    /// A 4 KiB QD1 single-job spec (builder methods adjust).
    pub fn new(name: &str, rw: RwMode) -> JobSpec {
        JobSpec {
            name: name.into(),
            rw,
            block_size: 4096,
            iodepth: 1,
            numjobs: 1,
            runtime: SimDuration::from_millis(100),
            ramp: SimDuration::from_millis(1),
            io_limit: None,
            region: None,
            seed: 0x5EED,
            zipf: None,
        }
    }

    /// Set the I/O size.
    pub fn bs(mut self, bytes: u32) -> Self {
        self.block_size = bytes;
        self
    }

    /// Set outstanding I/Os per job.
    pub fn iodepth(mut self, qd: usize) -> Self {
        self.iodepth = qd;
        self
    }

    /// Set the number of parallel jobs.
    pub fn numjobs(mut self, n: usize) -> Self {
        self.numjobs = n;
        self
    }

    /// Set the measured duration.
    pub fn runtime(mut self, d: SimDuration) -> Self {
        self.runtime = d;
        self
    }

    /// Set the warm-up excluded from statistics.
    pub fn ramp(mut self, d: SimDuration) -> Self {
        self.ramp = d;
        self
    }

    /// Cap the total I/O count.
    pub fn io_limit(mut self, n: u64) -> Self {
        self.io_limit = Some(n);
        self
    }

    /// Restrict to a block range.
    pub fn region(mut self, first_block: u64, num_blocks: u64) -> Self {
        self.region = Some((first_block, num_blocks));
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let j = JobSpec::new("t", RwMode::RandRead)
            .bs(512)
            .iodepth(8)
            .numjobs(2)
            .seed(7);
        assert_eq!(j.block_size, 512);
        assert_eq!(j.iodepth, 8);
        assert_eq!(j.numjobs, 2);
        assert_eq!(j.seed, 7);
    }

    #[test]
    fn mode_predicates() {
        assert_eq!(RwMode::SeqRead.label(), "read");
        assert_eq!(RwMode::RandRw { read_pct: 70 }.label(), "randrw70");
    }

    #[test]
    fn fig10_defaults_match_paper() {
        let j = JobSpec::fig10(RwMode::RandRead, SimDuration::from_secs(60));
        assert_eq!(j.block_size, 4096);
        assert_eq!(j.iodepth, 1);
        assert_eq!(j.numjobs, 1);
        assert_eq!(j.runtime, SimDuration::from_secs(60));
    }
}
