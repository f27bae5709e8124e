//! The data-verification suite. Every scenario the paper evaluates is
//! built from scratch and must pass full data verification through its
//! complete stack (workload generator → block layer → driver → fabric →
//! controller → medium and back).
//!
//! Model checking: random multi-client workloads executed through the
//! complete simulation are compared block-for-block against a simple
//! in-memory reference model. Any lost write, torn transfer, misrouted
//! DMA, or stale read diverges from the model and fails. Clients write to
//! disjoint LBA ranges (the shared-disk usage model); within its range
//! each client issues a random interleaving of reads and writes of random
//! sizes at random offsets.

use std::collections::BTreeMap;
use std::rc::Rc;

use blklayer::{Bio, BlockDevice};
use cluster::{Calibration, Scenario, ScenarioKind};
use fioflex::verify_region;
use pcie::{Fabric, HostId};
use simcore::SimRng;

const RANGE_BLOCKS: u64 = 4096;
const OPS_PER_CLIENT: usize = 120;

/// Reference model: lba -> last written 512-byte block.
type Model = BTreeMap<u64, Vec<u8>>;

fn block_pattern(rng: &mut SimRng, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    for chunk in v.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&word[..n]);
    }
    v
}

async fn run_client(
    fabric: Fabric,
    host: HostId,
    dev: Rc<dyn BlockDevice>,
    base: u64,
    seed: u64,
) -> (Model, u64) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut model: Model = BTreeMap::new();
    let mut mismatches = 0u64;
    let buf = fabric.alloc(host, 64 * 512).unwrap();
    for _ in 0..OPS_PER_CLIENT {
        let blocks = 1 << rng.below(6); // 1..32 blocks (512B..16KiB)
        let slot = rng.below(RANGE_BLOCKS - blocks);
        let lba = base + slot;
        if rng.chance(0.5) {
            // Write a fresh random pattern; record it in the model.
            let data = block_pattern(&mut rng, (blocks * 512) as usize);
            fabric.mem_write(host, buf.addr, &data).unwrap();
            dev.submit(Bio::write(lba, blocks as u32, buf))
                .await
                .unwrap();
            for b in 0..blocks {
                model.insert(
                    lba + b,
                    data[(b * 512) as usize..((b + 1) * 512) as usize].to_vec(),
                );
            }
        } else {
            // Read and compare against the model (zeroes when unwritten).
            fabric
                .mem_write(host, buf.addr, &vec![0xEE; (blocks * 512) as usize])
                .unwrap();
            dev.submit(Bio::read(lba, blocks as u32, buf))
                .await
                .unwrap();
            let mut got = vec![0u8; (blocks * 512) as usize];
            fabric.mem_read(host, buf.addr, &mut got).unwrap();
            for b in 0..blocks {
                let want = model
                    .get(&(lba + b))
                    .cloned()
                    .unwrap_or_else(|| vec![0u8; 512]);
                if got[(b * 512) as usize..((b + 1) * 512) as usize] != want[..] {
                    mismatches += 1;
                }
            }
        }
    }
    (model, mismatches)
}

fn model_check(kind: ScenarioKind, clients: usize, seed: u64) {
    let calib = Calibration::paper();
    let sc = Scenario::build(kind, &calib);
    assert!(sc.clients.len() >= clients);
    let fabric = sc.fabric.clone();
    let handles: Vec<_> = sc.clients.iter().take(clients).cloned().collect();
    let hd = sc.rt.handle();
    let label = sc.label.clone();
    let results = sc.rt.block_on(async move {
        let mut joins = Vec::new();
        for (i, (host, dev)) in handles.into_iter().enumerate() {
            let fabric = fabric.clone();
            let base = i as u64 * 100_000;
            joins.push(
                hd.spawn(async move { run_client(fabric, host, dev, base, seed + i as u64).await }),
            );
        }
        let mut out = Vec::new();
        for j in joins {
            out.push(j.await);
        }
        out
    });
    for (i, (model, mismatches)) in results.iter().enumerate() {
        assert_eq!(
            *mismatches, 0,
            "{label}: client {i} diverged from the model"
        );
        assert!(!model.is_empty(), "{label}: client {i} wrote nothing");
    }
}

#[test]
fn model_check_ours_remote() {
    model_check(ScenarioKind::OursRemote { switches: 1 }, 1, 0xAA);
}

#[test]
fn model_check_ours_three_clients() {
    model_check(ScenarioKind::OursMultihost { clients: 3 }, 3, 0xBB);
}

#[test]
fn model_check_nvmeof() {
    model_check(ScenarioKind::NvmfRemote, 1, 0xCC);
}

#[test]
fn model_check_linux_local() {
    model_check(ScenarioKind::LinuxLocal, 1, 0xDD);
}

#[test]
fn model_check_direct_mapped_path() {
    let calib = Calibration::paper().with_client(dnvme::ClientConfig {
        data_path: dnvme::DataPath::DirectMapped,
        ..dnvme::ClientConfig::default()
    });
    let sc = Scenario::build(ScenarioKind::OursRemote { switches: 1 }, &calib);
    let fabric = sc.fabric.clone();
    let (host, dev) = sc.clients[0].clone();
    let (_, mismatches) = sc
        .rt
        .block_on(async move { run_client(fabric, host, dev, 0, 0xEE).await });
    assert_eq!(mismatches, 0);
}

#[test]
fn model_check_multi_qpair_client() {
    let calib = Calibration::paper().with_client(dnvme::ClientConfig {
        num_qpairs: 4,
        ..dnvme::ClientConfig::default()
    });
    let sc = Scenario::build(ScenarioKind::OursRemote { switches: 1 }, &calib);
    let fabric = sc.fabric.clone();
    let (host, dev) = sc.clients[0].clone();
    let (_, mismatches) = sc
        .rt
        .block_on(async move { run_client(fabric, host, dev, 0, 0xFF).await });
    assert_eq!(mismatches, 0);
}

// ------------------------------------------- pattern verification per stack

fn verify_scenario(kind: ScenarioKind) {
    let calib = Calibration::paper();
    let sc = Scenario::build(kind, &calib);
    let (host, dev) = sc.clients[0].clone();
    let fabric = sc.fabric.clone();
    let label = sc.label.clone();
    let report = sc
        .rt
        .block_on(async move { verify_region(&fabric, host, dev, 0, 2048, 8, 0xF00D).await });
    assert!(report.clean(), "{label}: {report:?}");
    assert_eq!(report.ios_written, 256, "{label}");
    assert_eq!(report.ios_verified, 256, "{label}");
}

#[test]
fn linux_local_stack_verifies() {
    verify_scenario(ScenarioKind::LinuxLocal);
}

#[test]
fn nvmeof_stack_verifies() {
    verify_scenario(ScenarioKind::NvmfRemote);
}

#[test]
fn ours_local_stack_verifies() {
    verify_scenario(ScenarioKind::OursLocal);
}

#[test]
fn ours_remote_stack_verifies() {
    verify_scenario(ScenarioKind::OursRemote { switches: 1 });
}

#[test]
fn ours_remote_switchless_verifies() {
    verify_scenario(ScenarioKind::OursRemote { switches: 0 });
}

#[test]
fn ours_remote_long_path_verifies() {
    verify_scenario(ScenarioKind::OursRemote { switches: 4 });
}

#[test]
fn concurrent_mixed_workload_leaves_consistent_state() {
    // Two clients run mixed read/write over disjoint regions while a third
    // verifies its own region — nothing corrupts anything.
    use fioflex::{run_job, JobSpec, RwMode};
    use simcore::SimDuration;
    let calib = Calibration::paper();
    let sc = Scenario::build(ScenarioKind::OursMultihost { clients: 3 }, &calib);
    let fabric = sc.fabric.clone();
    let clients = sc.clients.clone();
    let handle = sc.rt.handle();
    let (errors, verify) = sc.rt.block_on(async move {
        let mut jobs = Vec::new();
        for (i, (host, dev)) in clients.iter().take(2).cloned().enumerate() {
            let fabric = fabric.clone();
            let spec = JobSpec::new("mix", RwMode::RandRw { read_pct: 50 })
                .region(i as u64 * 100_000, 50_000)
                .runtime(SimDuration::from_millis(3))
                .seed(i as u64);
            jobs.push(handle.spawn(async move { run_job(&fabric, host, dev, &spec).await }));
        }
        let (vhost, vdev) = clients[2].clone();
        let verify = verify_region(&fabric, vhost, vdev, 400_000, 1024, 8, 0xCAFE).await;
        let mut errors = 0;
        for j in jobs {
            errors += j.await.errors;
        }
        (errors, verify)
    });
    assert_eq!(errors, 0);
    assert!(verify.clean(), "{verify:?}");
}
