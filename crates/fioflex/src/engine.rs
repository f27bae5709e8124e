//! The job engine: spawns `numjobs × iodepth` lanes against a block
//! device, collects per-I/O completion latency, and builds the report.
//!
//! Determinism: every lane forks its own RNG stream from the job seed, so
//! adding lanes or changing device timing never perturbs another lane's
//! offset sequence.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use blklayer::{Bio, BioError, BlockDevice};
use pcie::{Fabric, HostId};
use simcore::{LatencyRecorder, SimDuration, SimRng, SimTime};

use crate::report::{JobReport, SideReport};
use crate::spec::{JobSpec, RwMode};

struct Collect {
    read: LatencyRecorder,
    write: LatencyRecorder,
    errors: u64,
    last_completion: SimTime,
}

/// Run one job to completion (simulated time) and report.
pub async fn run_job(
    fabric: &Fabric,
    host: HostId,
    dev: Rc<dyn BlockDevice>,
    spec: &JobSpec,
) -> JobReport {
    let handle = fabric.handle();
    let bs = spec.block_size;
    let dev_bs = dev.block_size();
    assert!(
        bs.is_multiple_of(dev_bs),
        "I/O size must be a multiple of the device block size"
    );
    let blocks_per_io = (bs / dev_bs) as u64;
    let capacity = dev.capacity_blocks();
    let (first, span) = spec.region.unwrap_or((0, capacity));
    assert!(first + span <= capacity, "job region exceeds device");
    assert!(span >= blocks_per_io, "region smaller than one I/O");
    let slots = span / blocks_per_io;

    let start = handle.now();
    let measure_start = start + spec.ramp;
    let end = measure_start + spec.runtime;
    let collect = Rc::new(RefCell::new(Collect {
        read: LatencyRecorder::new(),
        write: LatencyRecorder::new(),
        errors: 0,
        last_completion: measure_start,
    }));
    let remaining = Rc::new(Cell::new(spec.io_limit.unwrap_or(u64::MAX)));

    let mut root_rng = SimRng::seed_from_u64(spec.seed);
    let lanes = spec.numjobs * spec.iodepth;
    let mut joins = Vec::with_capacity(lanes);
    for lane in 0..lanes {
        let mut rng = root_rng.fork();
        let dev = dev.clone();
        let fabric = fabric.clone();
        let handle = handle.clone();
        let collect = collect.clone();
        let remaining = remaining.clone();
        let spec2 = spec.clone();
        joins.push(handle.clone().spawn(async move {
            let buf = fabric.alloc(host, bs as u64).expect("lane buffer");
            // Sequential lanes stripe the region; random lanes roam it.
            let mut seq_cursor = (lane as u64) % slots;
            loop {
                if handle.now() >= end {
                    break;
                }
                let left = remaining.get();
                if left == 0 {
                    break;
                }
                remaining.set(left - 1);
                let slot = match spec2.rw {
                    RwMode::SeqRead => {
                        let s = seq_cursor;
                        seq_cursor = (seq_cursor + lanes as u64) % slots;
                        s
                    }
                    _ => match spec2.zipf {
                        Some(theta) => rng.zipf(slots, theta),
                        None => rng.below(slots),
                    },
                };
                let lba = first + slot * blocks_per_io;
                let is_read = match spec2.rw {
                    RwMode::RandRead | RwMode::SeqRead => true,
                    RwMode::RandWrite => false,
                    RwMode::RandRw { read_pct } => rng.below(100) < read_pct as u64,
                };
                let bio = if is_read {
                    Bio::read(lba, blocks_per_io as u32, buf)
                } else {
                    Bio::write(lba, blocks_per_io as u32, buf)
                };
                let t0 = handle.now();
                let result = dev.submit(bio).await;
                let t1 = handle.now();
                // A refusal of the request's shape comes back at once and
                // would come back for every later request of this lane:
                // retrying it would spin without simulated time passing.
                let refused = matches!(
                    result,
                    Err(BioError::TooLarge { .. }
                        | BioError::OutOfRange { .. }
                        | BioError::BadBuffer)
                );
                let mut c = collect.borrow_mut();
                if t0 >= measure_start && t1 <= end {
                    match result {
                        Ok(()) => {
                            let lat = t1 - t0;
                            if is_read {
                                c.read.record(lat);
                            } else {
                                c.write.record(lat);
                            }
                            c.last_completion = c.last_completion.max(t1);
                        }
                        Err(_) => c.errors += 1,
                    }
                } else if result.is_err() {
                    c.errors += 1;
                }
                if refused {
                    break;
                }
            }
            fabric.release(buf);
        }));
    }
    for j in joins {
        j.await;
    }

    let c = collect.borrow();
    // Actual measured span (io_limit can end the run early).
    let measured = c.last_completion - measure_start;
    let measured = if measured.is_zero() {
        SimDuration::from_nanos(1)
    } else {
        measured
    };
    JobReport {
        name: spec.name.clone(),
        rw: spec.rw.label(),
        block_size: bs,
        iodepth: spec.iodepth,
        numjobs: spec.numjobs,
        measured_ns: measured.as_nanos(),
        read: c
            .read
            .summary()
            .map(|s| SideReport::from_summary(s, measured, bs)),
        write: c
            .write
            .summary()
            .map(|s| SideReport::from_summary(s, measured, bs)),
        errors: c.errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blklayer::RamDisk;
    use pcie::FabricParams;
    use simcore::SimRuntime;

    fn setup() -> (SimRuntime, Fabric, HostId, Rc<RamDisk>) {
        let rt = SimRuntime::new();
        let fabric = Fabric::new(rt.handle(), FabricParams::default());
        let host = fabric.add_host(64 << 20);
        let disk = RamDisk::new(&fabric, host, 8192, 512, 32, SimDuration::from_micros(10));
        (rt, fabric, host, disk)
    }

    #[test]
    fn qd1_latency_matches_service_time() {
        let (rt, fabric, host, disk) = setup();
        let spec = JobSpec::new("t", RwMode::RandRead)
            .runtime(SimDuration::from_millis(5))
            .ramp(SimDuration::from_micros(100));
        let rep = rt.block_on(async move { run_job(&fabric, host, disk, &spec).await });
        let r = rep.read.unwrap();
        assert!(r.ios > 100, "expected hundreds of IOs, got {}", r.ios);
        // RamDisk service is a fixed 10 µs.
        assert!(
            r.lat.p50 >= 10_000 && r.lat.p50 < 12_000,
            "p50 {}",
            r.lat.p50
        );
        // QD1 on a 10 µs device ≈ 100k IOPS.
        assert!((80_000.0..110_000.0).contains(&r.iops), "iops {}", r.iops);
        assert!(rep.write.is_none());
        assert_eq!(rep.errors, 0);
    }

    #[test]
    fn qd_scaling_increases_iops() {
        let (rt, fabric, host, disk) = setup();
        let run = |qd: usize| {
            let fabric = fabric.clone();
            let disk = disk.clone();
            let spec = JobSpec::new("t", RwMode::RandRead)
                .iodepth(qd)
                .runtime(SimDuration::from_millis(5));
            let h = rt.handle();
            let jh = h.spawn(async move { run_job(&fabric, host, disk, &spec).await });
            rt.run();
            jh.try_take().unwrap()
        };
        let q1 = run(1).read.unwrap().iops;
        let q8 = run(8).read.unwrap().iops;
        // RamDisk has 32 tags and fixed service, so QD8 ≈ 8x QD1.
        assert!(q8 > q1 * 5.0, "q1={q1} q8={q8}");
    }

    #[test]
    fn mixed_workload_reports_both_sides() {
        let (rt, fabric, host, disk) = setup();
        let spec = JobSpec::new("t", RwMode::RandRw { read_pct: 70 })
            .runtime(SimDuration::from_millis(5))
            .seed(3);
        let rep = rt.block_on(async move { run_job(&fabric, host, disk, &spec).await });
        let (r, w) = (rep.read.unwrap(), rep.write.unwrap());
        let total = (r.ios + w.ios) as f64;
        let pct = r.ios as f64 / total * 100.0;
        assert!((60.0..80.0).contains(&pct), "read pct {pct}");
    }

    #[test]
    fn io_limit_stops_early() {
        let (rt, fabric, host, disk) = setup();
        let spec = JobSpec::new("t", RwMode::RandWrite)
            .runtime(SimDuration::from_secs(10))
            .ramp(SimDuration::ZERO)
            .io_limit(50);
        let rep = rt.block_on(async move { run_job(&fabric, host, disk, &spec).await });
        let w = rep.write.unwrap();
        assert!(w.ios <= 50);
        assert!(
            rt.now().as_secs_f64() < 1.0,
            "run must stop well before 10 s"
        );
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let run_once = || {
            let (rt, fabric, host, disk) = setup();
            let spec = JobSpec::new("t", RwMode::RandRw { read_pct: 50 })
                .runtime(SimDuration::from_millis(3))
                .seed(77);
            rt.block_on(async move { run_job(&fabric, host, disk, &spec).await })
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.read.unwrap().ios, b.read.unwrap().ios);
        assert_eq!(a.read.unwrap().lat, b.read.unwrap().lat);
        assert_eq!(a.write.unwrap().lat, b.write.unwrap().lat);
    }

    #[test]
    fn region_restriction_respected() {
        let (rt, fabric, host, _) = setup();
        // A tiny device region: all I/Os must stay within it (RamDisk
        // would error on out-of-range, so zero errors proves containment).
        let disk = RamDisk::new(&fabric, host, 64, 512, 4, SimDuration::from_micros(1));
        let spec = JobSpec::new("t", RwMode::RandRead)
            .bs(512)
            .region(32, 32)
            .runtime(SimDuration::from_millis(1));
        let rep = rt.block_on(async move { run_job(&fabric, host, disk, &spec).await });
        assert_eq!(rep.errors, 0);
        assert!(rep.read.unwrap().ios > 0);
    }

    /// Refuses every request on the spot, as a driver refuses a transfer
    /// larger than its maximum.
    struct RefuseAll;

    impl BlockDevice for RefuseAll {
        fn block_size(&self) -> u32 {
            512
        }
        fn capacity_blocks(&self) -> u64 {
            8192
        }
        fn queue_depth(&self) -> usize {
            4
        }
        fn submit(&self, bio: Bio) -> blklayer::BioFuture<'_> {
            let bytes = bio.len(512);
            Box::pin(async move { Err(BioError::TooLarge { bytes, max: 0 }) })
        }
    }

    #[test]
    fn a_lane_ends_at_a_refusal_of_its_request_shape() {
        let (rt, fabric, host, _) = setup();
        let spec = JobSpec::new("t", RwMode::RandRead)
            .iodepth(4)
            .runtime(SimDuration::from_millis(1));
        let rep =
            rt.block_on(async move { run_job(&fabric, host, Rc::new(RefuseAll), &spec).await });
        assert_eq!(rep.errors, 4, "one refusal per lane");
        assert!(rep.read.is_none());
    }

    #[test]
    fn zipf_creates_hotspots_without_errors() {
        let (rt, fabric, host, disk) = setup();
        let mut spec = JobSpec::new("t", RwMode::RandRead).runtime(SimDuration::from_millis(2));
        spec.zipf = Some(1.1);
        let rep = rt.block_on(async move { run_job(&fabric, host, disk, &spec).await });
        assert_eq!(rep.errors, 0);
        assert!(rep.read.unwrap().ios > 0);
    }
}
