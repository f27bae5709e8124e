//! Shared disk: four hosts operate the *same* single-function NVMe
//! controller simultaneously (the paper's headline capability), each
//! writing its own allocation group, then cross-verifying each other's
//! data — the access pattern of shared-disk filesystems like GFS2/OCFS2
//! that motivated the kernel block-device design (§V).
//!
//! Run with:
//! ```sh
//! cargo run --release --example shared_disk
//! ```

use std::rc::Rc;

use blklayer::{Bio, BlockDevice};
use cluster::{Calibration, Scenario, ScenarioKind};
use fioflex::stamp;

const CLIENTS: usize = 4;
/// Blocks per allocation group (each host owns one).
const GROUP_BLOCKS: u64 = 1024;
const IO_BLOCKS: u32 = 8; // 4 KiB I/Os

fn main() {
    let calib = Calibration::paper();
    let sc = Scenario::build(ScenarioKind::OursMultihost { clients: CLIENTS }, &calib);
    println!(
        "built {}: {} clients share one controller",
        sc.label,
        sc.clients.len()
    );
    assert_eq!(sc.ctrl.live_io_queues(), CLIENTS);

    let fabric = sc.fabric.clone();
    let clients = sc.clients.clone();
    let handle = sc.rt.handle();
    sc.rt.block_on(async move {
        // Phase 1: every host stamps its own allocation group, all in
        // parallel, each through its own I/O queue pair.
        let mut writers = Vec::new();
        for (i, (host, disk)) in clients.iter().enumerate() {
            let fabric = fabric.clone();
            let disk: Rc<dyn BlockDevice> = disk.clone();
            let host = *host;
            writers.push(handle.spawn(async move {
                let base = i as u64 * GROUP_BLOCKS;
                let buf = fabric.alloc(host, IO_BLOCKS as u64 * 512).unwrap();
                for lba in (base..base + GROUP_BLOCKS).step_by(IO_BLOCKS as usize) {
                    let data = stamp(lba, 0xD15C, IO_BLOCKS as usize * 512);
                    fabric.mem_write(host, buf.addr, &data).unwrap();
                    disk.submit(Bio::write(lba, IO_BLOCKS, buf)).await.unwrap();
                }
                i
            }));
        }
        for w in writers {
            let i = w.await;
            println!("host {i} finished writing its allocation group");
        }

        // Phase 2: every host verifies the *next* host's group — data
        // written by one client must be visible to all others, because
        // there is exactly one storage medium behind the queues.
        let mut verifiers = Vec::new();
        for (i, (host, disk)) in clients.iter().enumerate() {
            let fabric = fabric.clone();
            let disk: Rc<dyn BlockDevice> = disk.clone();
            let host = *host;
            verifiers.push(handle.spawn(async move {
                let peer = (i + 1) % CLIENTS;
                let base = peer as u64 * GROUP_BLOCKS;
                let buf = fabric.alloc(host, IO_BLOCKS as u64 * 512).unwrap();
                let mut mismatches = 0u64;
                for lba in (base..base + GROUP_BLOCKS).step_by(IO_BLOCKS as usize) {
                    disk.submit(Bio::read(lba, IO_BLOCKS, buf)).await.unwrap();
                    let mut got = vec![0u8; IO_BLOCKS as usize * 512];
                    fabric.mem_read(host, buf.addr, &mut got).unwrap();
                    if got != stamp(lba, 0xD15C, got.len()) {
                        mismatches += 1;
                    }
                }
                (i, peer, mismatches)
            }));
        }
        for v in verifiers {
            let (i, peer, mismatches) = v.await;
            println!("host {i} verified host {peer}'s group: {mismatches} mismatches");
            assert_eq!(mismatches, 0, "cross-host visibility broken");
        }
    });

    let stats = sc.ctrl.stats();
    println!(
        "controller stats: {} commands fetched, {} errors",
        stats.commands_fetched, stats.errors_returned
    );
    println!("shared_disk: OK — one device, {CLIENTS} hosts, full cross-visibility");
}
