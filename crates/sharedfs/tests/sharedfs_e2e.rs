//! sharedfs end-to-end over the full cluster stack: multiple hosts mount
//! the same filesystem on the same shared NVMe device through their own
//! distributed-driver queue pairs.

use blklayer::RamDisk;
use cluster::{Calibration, Scenario, ScenarioKind};
use pcie::{Fabric, FabricParams};
use sharedfs::{FsError, SharedFs};
use simcore::{SimDuration, SimRuntime};

#[test]
fn format_mount_roundtrip_on_ramdisk() {
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let host = fabric.add_host(64 << 20);
    let disk = RamDisk::new(&fabric, host, 16384, 512, 8, SimDuration::ZERO);
    rt.block_on({
        let fabric = fabric.clone();
        async move {
            SharedFs::format(&fabric, host, disk.clone(), 2, 64)
                .await
                .unwrap();
            let fs = SharedFs::mount(&fabric, host, disk.clone()).await.unwrap();
            assert_eq!(fs.superblock().ag_count, 2);
            assert_eq!(fs.allocation_group(), 0);
            // Files round-trip, including a multi-block unaligned write.
            fs.create("hello.txt").await.unwrap();
            fs.write("hello.txt", 0, b"hello, shared world")
                .await
                .unwrap();
            let payload: Vec<u8> = (0..9000u32).map(|i| (i % 251) as u8).collect();
            fs.create("big.bin").await.unwrap();
            fs.write("big.bin", 100, &payload).await.unwrap();
            let mut out = vec![0u8; 19];
            assert_eq!(fs.read("hello.txt", 0, &mut out).await.unwrap(), 19);
            assert_eq!(&out, b"hello, shared world");
            let mut big = vec![0u8; 9000];
            assert_eq!(fs.read("big.bin", 100, &mut big).await.unwrap(), 9000);
            assert_eq!(big, payload);
            // Stat and list agree.
            assert_eq!(fs.stat("big.bin").await.unwrap().size, 9100);
            let names: Vec<String> = fs
                .list()
                .await
                .unwrap()
                .into_iter()
                .map(|e| e.name)
                .collect();
            assert_eq!(names, vec!["big.bin", "hello.txt"]);
        }
    });
}

#[test]
fn persistence_across_remount() {
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let host = fabric.add_host(64 << 20);
    let disk = RamDisk::new(&fabric, host, 16384, 512, 8, SimDuration::ZERO);
    rt.block_on({
        let fabric = fabric.clone();
        async move {
            SharedFs::format(&fabric, host, disk.clone(), 2, 64)
                .await
                .unwrap();
            {
                let fs = SharedFs::mount(&fabric, host, disk.clone()).await.unwrap();
                fs.create("persist").await.unwrap();
                fs.write("persist", 0, b"durable bytes").await.unwrap();
                fs.sync().await.unwrap();
            } // unmount
            let fs = SharedFs::mount(&fabric, host, disk.clone()).await.unwrap();
            assert_eq!(fs.allocation_group(), 0, "remount reuses the claim");
            let mut out = vec![0u8; 13];
            fs.read("persist", 0, &mut out).await.unwrap();
            assert_eq!(&out, b"durable bytes");
        }
    });
}

#[test]
fn errors_are_reported() {
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let host = fabric.add_host(64 << 20);
    let disk = RamDisk::new(&fabric, host, 16384, 512, 8, SimDuration::ZERO);
    rt.block_on({
        let fabric = fabric.clone();
        async move {
            // Unformatted device refuses to mount.
            assert_eq!(
                SharedFs::mount(&fabric, host, disk.clone()).await.err(),
                Some(FsError::NotFormatted)
            );
            SharedFs::format(&fabric, host, disk.clone(), 1, 16)
                .await
                .unwrap();
            let fs = SharedFs::mount(&fabric, host, disk.clone()).await.unwrap();
            fs.create("a").await.unwrap();
            assert_eq!(
                fs.create("a").await.err(),
                Some(FsError::Exists("a".into()))
            );
            assert_eq!(
                fs.read("missing", 0, &mut [0u8; 4]).await.err(),
                Some(FsError::NotFound("missing".into()))
            );
            let long = "x".repeat(80);
            assert!(matches!(
                fs.create(&long).await,
                Err(FsError::NameTooLong(_))
            ));
        }
    });
}

#[test]
fn delete_frees_space_for_reuse() {
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let host = fabric.add_host(64 << 20);
    let disk = RamDisk::new(&fabric, host, 16384, 512, 8, SimDuration::ZERO);
    rt.block_on({
        let fabric = fabric.clone();
        async move {
            SharedFs::format(&fabric, host, disk.clone(), 1, 16)
                .await
                .unwrap();
            let fs = SharedFs::mount(&fabric, host, disk.clone()).await.unwrap();
            let free0 = fs.free_blocks();
            fs.create("tmp").await.unwrap();
            fs.write("tmp", 0, &vec![7u8; 64 << 10]).await.unwrap();
            assert!(fs.free_blocks() < free0);
            fs.remove("tmp").await.unwrap();
            assert_eq!(fs.free_blocks(), free0, "blocks must return to the bitmap");
            assert!(matches!(fs.stat("tmp").await, Err(FsError::NotFound(_))));
            // Space is genuinely reusable.
            fs.create("tmp2").await.unwrap();
            fs.write("tmp2", 0, &vec![8u8; 64 << 10]).await.unwrap();
        }
    });
}

#[test]
fn two_hosts_share_one_filesystem_over_the_cluster() {
    // The paper's full vision: one NVMe namespace, one filesystem, two
    // hosts mounting it through their own distributed-driver queue pairs.
    let calib = Calibration::paper();
    let sc = Scenario::build(ScenarioKind::OursMultihost { clients: 2 }, &calib);
    let fabric = sc.fabric.clone();
    let (host_a, disk_a) = sc.clients[0].clone();
    let (host_b, disk_b) = sc.clients[1].clone();
    sc.rt.block_on(async move {
        SharedFs::format(&fabric, host_a, disk_a.clone(), 4, 64)
            .await
            .unwrap();
        let fs_a = SharedFs::mount(&fabric, host_a, disk_a).await.unwrap();
        let fs_b = SharedFs::mount(&fabric, host_b, disk_b).await.unwrap();
        assert_ne!(fs_a.allocation_group(), fs_b.allocation_group());

        // Each host writes its own file concurrently-ish.
        fs_a.create("from-a").await.unwrap();
        fs_a.write("from-a", 0, b"written by host A").await.unwrap();
        fs_b.create("from-b").await.unwrap();
        fs_b.write("from-b", 0, &vec![0xB0; 20 << 10])
            .await
            .unwrap();

        // Cross-host visibility: B reads A's file and vice versa.
        let mut out = vec![0u8; 17];
        fs_b.read("from-a", 0, &mut out).await.unwrap();
        assert_eq!(&out, b"written by host A");
        let mut big = vec![0u8; 20 << 10];
        assert_eq!(fs_a.read("from-b", 0, &mut big).await.unwrap(), 20 << 10);
        assert!(big.iter().all(|&b| b == 0xB0));

        // Both files visible in both directory listings, with owners.
        let listing = fs_a.list().await.unwrap();
        assert_eq!(listing.len(), 2);
        assert_eq!(listing[0].name, "from-a");
        assert_eq!(listing[0].owner, host_a.0);
        assert_eq!(listing[1].owner, host_b.0);

        // Ownership is enforced: B cannot write A's file.
        assert!(matches!(
            fs_b.write("from-a", 0, b"clobber").await,
            Err(FsError::NotOwner { .. })
        ));
    });
}

#[test]
fn extent_merging_survives_many_appends() {
    // Appending in small chunks must coalesce extents instead of
    // exhausting the 12 slots.
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let host = fabric.add_host(64 << 20);
    let disk = RamDisk::new(&fabric, host, 65536, 512, 8, SimDuration::ZERO);
    rt.block_on({
        let fabric = fabric.clone();
        async move {
            SharedFs::format(&fabric, host, disk.clone(), 1, 16)
                .await
                .unwrap();
            let fs = SharedFs::mount(&fabric, host, disk.clone()).await.unwrap();
            fs.create("log").await.unwrap();
            let chunk = vec![0x11u8; 4096];
            for i in 0..100u64 {
                fs.write("log", i * 4096, &chunk).await.unwrap();
            }
            assert_eq!(fs.stat("log").await.unwrap().size, 100 * 4096);
            let mut out = vec![0u8; 4096];
            fs.read("log", 99 * 4096, &mut out).await.unwrap();
            assert!(out.iter().all(|&b| b == 0x11));
        }
    });
}

#[test]
fn random_file_operations_match_model() {
    // Model check: a random sequence of create/write/read/delete against
    // an in-memory reference. Catches extent-mapping, RMW-edge, and
    // allocator bugs that directed tests miss.
    use simcore::SimRng;
    use std::collections::btree_map::Entry;
    use std::collections::BTreeMap;

    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let host = fabric.add_host(128 << 20);
    let disk = RamDisk::new(&fabric, host, 65536, 512, 8, SimDuration::ZERO);
    rt.block_on({
        let fabric = fabric.clone();
        async move {
            SharedFs::format(&fabric, host, disk.clone(), 2, 32)
                .await
                .unwrap();
            let fs = SharedFs::mount(&fabric, host, disk).await.unwrap();
            // Ordered, so the final sweep reads the files back in the same
            // order on every run.
            let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
            let mut rng = SimRng::seed_from_u64(0xF5F5);
            for step in 0..200 {
                let name = format!("f{}", rng.below(8));
                match rng.below(10) {
                    // create
                    0..=2 => {
                        let r = fs.create(&name).await;
                        match model.entry(name) {
                            Entry::Occupied(_) => {
                                assert!(matches!(r, Err(FsError::Exists(_))), "step {step}");
                            }
                            Entry::Vacant(e) => {
                                if r.is_ok() {
                                    e.insert(Vec::new());
                                }
                            }
                        }
                        // NoFreeInode acceptable when the AG partition fills
                    }
                    // write at random offset
                    3..=5 => {
                        let len = rng.below(10_000) as usize + 1;
                        let off = rng.below(20_000);
                        let data: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
                        let r = fs.write(&name, off, &data).await;
                        match model.get_mut(&name) {
                            Some(m) if r.is_ok() => {
                                if m.len() < off as usize + len {
                                    m.resize(off as usize + len, 0);
                                }
                                m[off as usize..off as usize + len].copy_from_slice(&data);
                            }
                            Some(_) => { /* NoSpace is fine */ }
                            None => assert!(
                                matches!(r, Err(FsError::NotFound(_))),
                                "step {step}: {r:?}"
                            ),
                        }
                    }
                    // read a random window and compare
                    6..=8 => {
                        let off = rng.below(25_000);
                        let mut buf = vec![0u8; rng.below(8_000) as usize + 1];
                        let r = fs.read(&name, off, &mut buf).await;
                        match model.get(&name) {
                            Some(m) => {
                                let n = r.unwrap_or_else(|e| panic!("step {step}: {e}"));
                                let expect_n = m.len().saturating_sub(off as usize).min(buf.len());
                                assert_eq!(n, expect_n, "step {step} length");
                                if n > 0 {
                                    assert_eq!(
                                        &buf[..n],
                                        &m[off as usize..off as usize + n],
                                        "step {step} data"
                                    );
                                }
                            }
                            None => assert!(matches!(r, Err(FsError::NotFound(_)))),
                        }
                    }
                    // delete
                    _ => {
                        let r = fs.remove(&name).await;
                        if model.remove(&name).is_some() {
                            r.unwrap_or_else(|e| panic!("step {step}: {e}"));
                        } else {
                            assert!(matches!(r, Err(FsError::NotFound(_))));
                        }
                    }
                }
            }
            // Final sweep: every model file reads back exactly.
            for (name, m) in &model {
                let mut buf = vec![0u8; m.len()];
                let n = fs.read(name, 0, &mut buf).await.unwrap();
                assert_eq!(n, m.len());
                assert_eq!(&buf, m, "final sweep: {name}");
            }
        }
    });
}
