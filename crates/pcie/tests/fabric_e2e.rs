//! End-to-end fabric tests: two-host Fig. 9b-style topology with timed
//! CPU accesses and device DMA across the NTBs.

use std::rc::Rc;

use pcie::{
    DomainAddr, Fabric, FabricError, FabricParams, FaultPlan, HostId, Location, MmioDevice,
    Payload, PhysAddr, RegisterFile, SeverMode,
};
use simcore::{ChoiceKind, ReplayScheduler, SimDuration, SimRuntime, Stage};

/// Build: hostA(RC) - ntbA - switch - ntbB - hostB(RC) - device.
struct TestBed {
    rt: SimRuntime,
    fabric: Fabric,
    host_a: HostId,
    host_b: HostId,
    dev: pcie::DeviceId,
    ntb_a: pcie::NtbId,
    ntb_b: pcie::NtbId,
}

/// Faults of kind `stage` on the armed stream of `f`'s runtime.
fn injected(f: &Fabric, stage: Stage) -> usize {
    let records = f.handle().sanitize_records();
    records.iter().filter(|r| r.stage == stage).count()
}

fn build() -> TestBed {
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let host_a = fabric.add_host(64 << 20);
    let host_b = fabric.add_host(64 << 20);
    let ntb_a = fabric.add_ntb(host_a, 1 << 21, 16);
    let ntb_b = fabric.add_ntb(host_b, 1 << 21, 16);
    let sw = fabric.add_switch("cluster");
    fabric.link(fabric.ntb_node(ntb_a), sw);
    fabric.link(fabric.ntb_node(ntb_b), sw);
    let dev = fabric.add_device(
        host_b,
        fabric.rc_node(host_b),
        &[0x4000],
        Rc::new(RegisterFile::new(0x4000)),
    );
    TestBed {
        rt,
        fabric,
        host_a,
        host_b,
        dev,
        ntb_a,
        ntb_b,
    }
}

#[test]
fn remote_dram_write_lands_after_propagation() {
    let tb = build();
    let f = tb.fabric.clone();
    let seg = f.alloc(tb.host_b, 4096).unwrap();
    // Map host B's segment through host A's NTB.
    let win = f
        .program_lut(tb.ntb_a, 0, DomainAddr::new(tb.host_b, seg.addr))
        .unwrap();
    let host_a = tb.host_a;
    let host_b = tb.host_b;
    tb.rt.block_on({
        let f = f.clone();
        async move {
            f.cpu_write(host_a, win, b"over the bridge").await.unwrap();
        }
    });
    tb.rt.run();
    let mut buf = [0u8; 15];
    f.mem_read(host_b, seg.addr, &mut buf).unwrap();
    assert_eq!(&buf, b"over the bridge");
}

#[test]
fn posted_write_is_cheaper_than_nonposted_read_remotely() {
    let tb = build();
    let f = tb.fabric.clone();
    let seg = f.alloc(tb.host_b, 4096).unwrap();
    let win = f
        .program_lut(tb.ntb_a, 0, DomainAddr::new(tb.host_b, seg.addr))
        .unwrap();
    let host_a = tb.host_a;
    let h = tb.rt.handle();
    let (wr_cost, rd_cost) = tb.rt.block_on({
        let f = f.clone();
        async move {
            let t0 = h.now();
            f.cpu_write_u32(host_a, win, 7).await.unwrap();
            let wr = h.now() - t0;
            let t1 = h.now();
            let _ = f.cpu_read_u32(host_a, win).await.unwrap();
            let rd = h.now() - t1;
            (wr, rd)
        }
    });
    // Posted write returns after issue cost only; the read pays 2 one-ways
    // across 3 chips.
    assert!(
        wr_cost.as_nanos() < 100,
        "posted write should cost ~issue only, got {wr_cost}"
    );
    assert!(
        rd_cost.as_nanos() > 800,
        "non-posted remote read must pay the round trip, got {rd_cost}"
    );
}

#[test]
fn device_dma_reads_remote_memory_through_its_ntb() {
    let tb = build();
    let f = tb.fabric.clone();
    // Segment in host A's memory, mapped for the device (which lives in
    // host B's domain) through host B's adapter: a "DMA window".
    let seg = f.alloc(tb.host_a, 4096).unwrap();
    f.mem_write(tb.host_a, seg.addr, b"dma window payload")
        .unwrap();
    let bus_addr = f
        .program_lut(tb.ntb_b, 3, DomainAddr::new(tb.host_a, seg.addr))
        .unwrap();
    let dev = tb.dev;
    let h = tb.rt.handle();
    let (data, lat) = tb.rt.block_on({
        let f = f.clone();
        async move {
            let mut buf = [0u8; 18];
            let t0 = h.now();
            f.dma_read(dev, bus_addr, &mut buf).await.unwrap();
            (buf, h.now() - t0)
        }
    });
    assert_eq!(&data, b"dma window payload");
    // Path: device -> RC_B -> ntbB -> switch -> ntbA -> RC_A = 3 chips.
    let p = FabricParams::default();
    assert!(lat >= p.read_rtt(3), "remote DMA read too fast: {lat}");
}

#[test]
fn mmio_through_bar_window_reaches_device_registers() {
    let tb = build();
    let f = tb.fabric.clone();
    let bar = f.bar_region(tb.dev, 0).unwrap();
    // Host A maps the device's BAR through its NTB (a "BAR window").
    let win = f
        .program_lut(tb.ntb_a, 1, DomainAddr::new(tb.host_b, bar.addr))
        .unwrap();
    let host_a = tb.host_a;
    let val = tb.rt.block_on({
        let f = f.clone();
        async move {
            f.cpu_write_u32(host_a, win.offset(0x100), 0xCAFE_F00D)
                .await
                .unwrap();
            // Read it back through the same window (non-posted, ordered
            // behind the posted write on the same path).
            f.cpu_read_u32(host_a, win.offset(0x100)).await.unwrap()
        }
    });
    assert_eq!(val, 0xCAFE_F00D);
}

#[test]
fn unprogrammed_slot_faults() {
    let tb = build();
    let f = tb.fabric.clone();
    let win_base = {
        // slot 5 was never programmed
        let slot_size = f.ntb_slot_size(tb.ntb_a);
        let s0 = f
            .program_lut(
                tb.ntb_a,
                0,
                DomainAddr::new(tb.host_b, PhysAddr(0x1_0000_0000)),
            )
            .unwrap();
        s0.offset(5 * slot_size)
    };
    let host_a = tb.host_a;
    let err = tb.rt.block_on({
        let f = f.clone();
        async move { f.cpu_write_u32(host_a, win_base, 1).await.unwrap_err() }
    });
    assert!(
        matches!(err, FabricError::UnprogrammedSlot { slot: 5, .. }),
        "{err}"
    );
}

#[test]
fn translation_loop_detected() {
    let tb = build();
    let f = tb.fabric.clone();
    // A's slot 0 -> B's window slot 0, B's slot 0 -> A's window slot 0.
    let a_slot0 = f.ntb_slot_size(tb.ntb_a); // compute b window first
    let _ = a_slot0;
    let b_win = f
        .program_lut(tb.ntb_b, 0, DomainAddr::new(tb.host_a, PhysAddr(0)))
        .unwrap(); // placeholder, re-programmed below
    let a_win = f
        .program_lut(tb.ntb_a, 0, DomainAddr::new(tb.host_b, b_win))
        .unwrap();
    f.program_lut(tb.ntb_b, 0, DomainAddr::new(tb.host_a, a_win))
        .unwrap();
    let err = f.resolve(tb.host_a, a_win, 4).unwrap_err();
    assert!(matches!(err, FabricError::TranslationLoop { .. }), "{err}");
}

#[test]
fn watch_fires_at_delivery_time_not_issue_time() {
    let tb = build();
    let f = tb.fabric.clone();
    let seg = f.alloc(tb.host_b, 4096).unwrap();
    let win = f
        .program_lut(tb.ntb_a, 0, DomainAddr::new(tb.host_b, seg.addr))
        .unwrap();
    let watch = f.watch(tb.host_b, seg.addr, 64);
    let h = tb.rt.handle();
    let host_a = tb.host_a;
    let (t_issue, t_fire) = tb.rt.block_on({
        let f = f.clone();
        async move {
            f.cpu_write_u32(host_a, win, 1).await.unwrap();
            let t_issue = h.now();
            watch.notify.notified().await;
            (t_issue, h.now())
        }
    });
    let p = FabricParams::default();
    assert!(t_fire - t_issue >= p.one_way(3) - SimDuration::from_nanos(p.mmio_store_ns));
}

#[test]
fn msi_delivery_after_propagation() {
    let tb = build();
    let f = tb.fabric.clone();
    let notify = f.config_msi(tb.dev, 0, tb.host_b);
    let h = tb.rt.handle();
    let t = tb.rt.block_on({
        let f = f.clone();
        let dev = tb.dev;
        async move {
            f.raise_msi(dev, 0);
            notify.notified().await;
            h.now()
        }
    });
    // Local device: just RC overhead.
    assert_eq!(t.as_nanos(), FabricParams::default().rc_overhead_ns);
}

#[test]
fn dma_write_ordering_preserved_for_same_path() {
    // A device posting data then a "flag" write must have the flag land
    // after the data (NVMe relies on this: CQE after data) — also when the
    // data write is held up in flight, so that the flag comes due first.
    let delay_data = FaultPlan::parse("f1:delay@0/any/5000").unwrap();
    for plan in [FaultPlan::default(), delay_data] {
        let _armed = simcore::sanitize::arm();
        let tb = build();
        let f = tb.fabric.clone();
        let delayed = !plan.deliveries.is_empty();
        f.set_fault_plan(plan);
        let seg = f.alloc(tb.host_a, 8192).unwrap();
        let data_bus = f
            .program_lut(tb.ntb_b, 0, DomainAddr::new(tb.host_a, seg.addr))
            .unwrap();
        let flag_bus = data_bus.offset(4096);
        let watch = f.watch(tb.host_a, seg.addr.offset(4096), 4);
        let dev = tb.dev;
        let f2 = f.clone();
        let host_a = tb.host_a;
        let ok = tb.rt.block_on(async move {
            f2.dma_write(dev, data_bus, &[0xABu8; 4096]).await.unwrap();
            f2.dma_write(dev, flag_bus, &1u32.to_le_bytes())
                .await
                .unwrap();
            watch.notify.notified().await;
            // When the flag is visible, the full data block must be too.
            let mut buf = vec![0u8; 4096];
            f2.mem_read(host_a, seg.addr, &mut buf).unwrap();
            buf.iter().all(|&b| b == 0xAB)
        });
        assert!(ok, "flag landed before data (delayed: {delayed})");
        assert_eq!(injected(&f, Stage::FaultDelayed), usize::from(delayed));
    }
}

#[test]
fn a_posted_write_costs_one_delivery_step() {
    // `writes` doorbell-sized stores from host A into host B's DRAM, one
    // after the other: executor steps until everything has landed.
    fn steps(writes: u32) -> u64 {
        let tb = build();
        let f = tb.fabric.clone();
        let seg = f.alloc(tb.host_b, 4096).unwrap();
        let win = f
            .program_lut(tb.ntb_a, 0, DomainAddr::new(tb.host_b, seg.addr))
            .unwrap();
        let (f2, host_a) = (f.clone(), tb.host_a);
        tb.rt.block_on(async move {
            for value in 1..=writes {
                f2.cpu_write_u32(host_a, win, value).await.unwrap();
            }
        });
        tb.rt.run();
        let mut landed = [0u8; 4];
        f.mem_read(tb.host_b, seg.addr, &mut landed).unwrap();
        assert_eq!(u32::from_le_bytes(landed), writes);
        tb.rt.steps()
    }
    // The issuer's first poll and the pump's admission, then per write the
    // pump applying it. An issue cost completes in place when nothing is
    // due before it ends; only the second write's waits behind the pump's
    // admission, which the first write queued, and costs one issuer wake.
    assert_eq!((steps(1), steps(2), steps(7)), (3, 5, 10));
}

#[test]
fn co_due_writes_on_different_paths_share_one_delivery_step() {
    // Host A stores into host B's DRAM while host B stores into host A's:
    // same issue cost, same distance, so both come due at one instant.
    let tb = build();
    let sched = ReplayScheduler::new(vec![]);
    let trace = sched.trace();
    tb.rt.set_scheduler(sched);
    let f = tb.fabric.clone();
    let ends = [
        (tb.host_a, tb.ntb_a, tb.host_b),
        (tb.host_b, tb.ntb_b, tb.host_a),
    ];
    let segs = ends.map(|(from, ntb, to)| {
        let seg = f.alloc(to, 4096).unwrap();
        let win = f
            .program_lut(ntb, 0, DomainAddr::new(to, seg.addr))
            .unwrap();
        let f = f.clone();
        tb.rt.handle().spawn(async move {
            f.cpu_write_u32(from, win, 0xD00D).await.unwrap();
        });
        (to, seg)
    });
    tb.rt.run();
    for (to, seg) in segs {
        let mut landed = [0u8; 4];
        f.mem_read(to, seg.addr, &mut landed).unwrap();
        assert_eq!(u32::from_le_bytes(landed), 0xD00D);
    }
    // Two first polls, two issuer wakes, the pump's admission, and a single
    // pump step that applies both writes — their order a choice it asked.
    assert_eq!(tb.rt.steps(), 6);
    let records = &trace.borrow().records;
    let deliveries: Vec<usize> = records
        .iter()
        .filter(|r| r.kind == ChoiceKind::Delivery)
        .map(|r| r.options())
        .collect();
    assert_eq!(deliveries, vec![2]);
}

#[test]
fn a_device_dma_read_is_one_wait_until_slot_end_plus_round_trip() {
    // `readers` 4 KiB reads of host A's memory by the device, all issued
    // at t=0: the instant each returns, and the executor steps they cost.
    fn read_at(readers: usize) -> (Vec<u64>, u64) {
        let tb = build();
        let f = tb.fabric.clone();
        let seg = f.alloc(tb.host_a, 4096).unwrap();
        let bus_addr = f
            .program_lut(tb.ntb_b, 3, DomainAddr::new(tb.host_a, seg.addr))
            .unwrap();
        let done: Vec<_> = (0..readers)
            .map(|_| {
                let (f, h, dev) = (f.clone(), tb.rt.handle(), tb.dev);
                tb.rt.handle().spawn(async move {
                    f.dma_read_payload(dev, bus_addr, 4096).await.unwrap();
                    h.now().as_nanos()
                })
            })
            .collect();
        tb.rt.run();
        let at = done.iter().map(|j| j.try_take().unwrap()).collect();
        (at, tb.rt.steps())
    }
    let p = FabricParams::default();
    let slot = p.nonposted_transfer(4096).as_nanos();
    let rtt = p.read_rtt(3).as_nanos();
    // A lone read is its task's first poll: its wait completes in place.
    // Two reads are a first poll and one wake each; the second read's slot
    // on the device's inbound engine starts where the first one's ends.
    assert_eq!(read_at(1), (vec![slot + rtt], 1));
    assert_eq!(read_at(2), (vec![slot + rtt, 2 * slot + rtt], 4));
}

/// MmioDevice that counts doorbell writes — checks BAR dispatch plumbing.
struct CountingDev {
    hits: std::cell::Cell<u32>,
}

impl MmioDevice for CountingDev {
    fn mmio_write(&self, _bar: u8, _off: u64, _val: u64, _size: usize) {
        self.hits.set(self.hits.get() + 1);
    }
    fn mmio_read(&self, _bar: u8, _off: u64, _size: usize) -> u64 {
        self.hits.get() as u64
    }
}

#[test]
fn local_mmio_write_hits_handler() {
    let rt = SimRuntime::new();
    let f = Fabric::new(rt.handle(), FabricParams::default());
    let host = f.add_host(16 << 20);
    let dev_impl = Rc::new(CountingDev {
        hits: std::cell::Cell::new(0),
    });
    let dev = f.add_device(host, f.rc_node(host), &[0x1000], dev_impl.clone());
    let bar = f.bar_region(dev, 0).unwrap();
    let hits = rt.block_on({
        let f = f.clone();
        async move {
            f.cpu_write_u32(host, bar.addr.offset(8), 55).await.unwrap();
            f.cpu_read_u32(host, bar.addr).await.unwrap()
        }
    });
    assert_eq!(hits, 1);
    assert_eq!(dev_impl.hits.get(), 1);
}

#[test]
fn resolve_classifies_locations() {
    let tb = build();
    let f = tb.fabric.clone();
    let seg = f.alloc(tb.host_a, 4096).unwrap();
    assert!(matches!(
        f.resolve(tb.host_a, seg.addr, 64).unwrap(),
        Location::Dram(da) if da.host == tb.host_a
    ));
    let bar = f.bar_region(tb.dev, 0).unwrap();
    assert!(matches!(
        f.resolve(tb.host_b, bar.addr.offset(0x10), 4).unwrap(),
        Location::Bar {
            bar: 0,
            offset: 0x10,
            ..
        }
    ));
    assert!(matches!(
        f.resolve(tb.host_a, PhysAddr(0x10), 4),
        Err(FabricError::UnmappedAddress { .. })
    ));
}

#[test]
fn a_range_wrapping_past_the_top_of_the_address_space_is_unmapped() {
    // `addr + len` overflows: in a release build it used to wrap to a low
    // address and pass the range test, so a corrupt PRP was taken for DRAM
    // (and in a debug build it panicked). Nothing may resolve, and nothing
    // may be planted at the wrapped page indices.
    let tb = build();
    let f = tb.fabric.clone();
    for top in [PhysAddr(u64::MAX - 100), PhysAddr(0xFFFF_FFFF_FFFF_F000)] {
        assert!(matches!(
            f.resolve(tb.host_a, top, 4096),
            Err(FabricError::UnmappedAddress { .. })
        ));
        assert!(matches!(
            f.mem_write(tb.host_a, top, &[0xEE; 4096]),
            Err(FabricError::UnmappedAddress { .. })
        ));
        assert!(matches!(
            f.mem_adopt(tb.host_a, top, Payload::from(&[0xEE; 4096][..])),
            Err(FabricError::UnmappedAddress { .. })
        ));
        assert!(matches!(
            f.mem_read(tb.host_a, top, &mut [0u8; 4096]),
            Err(FabricError::UnmappedAddress { .. })
        ));
        assert!(matches!(
            f.mem_snapshot(tb.host_a, top, 4096),
            Err(FabricError::UnmappedAddress { .. })
        ));
    }
    // A length that overflows from inside a real mapping is refused too.
    let seg = f.alloc(tb.host_a, 4096).unwrap();
    assert!(f.resolve(tb.host_a, seg.addr, u64::MAX).is_err());
    let bar = f.bar_region(tb.dev, 0).unwrap();
    assert!(f.resolve(tb.host_b, bar.addr.offset(8), u64::MAX).is_err());
    let win = f
        .program_lut(tb.ntb_a, 0, DomainAddr::new(tb.host_b, seg.addr))
        .unwrap();
    assert!(matches!(
        f.resolve(tb.host_a, win.offset(8), u64::MAX),
        Err(FabricError::CrossesBoundary { .. })
    ));
    // The first page of DRAM — where `u64::MAX - 100 + 4096` wraps to in
    // page-index terms — is untouched.
    let low = f.alloc(tb.host_a, 4096).unwrap();
    let mut probe = [0xFFu8; 4096];
    f.mem_read(tb.host_a, low.addr, &mut probe).unwrap();
    assert_eq!(probe, [0u8; 4096]);
}

#[test]
fn page_payloads_are_adopted_by_reference_with_the_slice_path_timing() {
    // The same 8 KiB device write through the NTB, once copied out of a
    // slice (what `dma_write` does) and once as a snapshot of the source:
    // same landing delay, same bytes, and on the snapshot side the
    // destination's pages *are* the source's.
    let tb = build();
    let f = tb.fabric.clone();
    let dst = f.alloc(tb.host_a, 16 << 10).unwrap();
    let src = f.alloc(tb.host_b, 8 << 10).unwrap();
    let slot = f.find_free_lut_range(tb.ntb_b, 1).unwrap();
    let win = f
        .program_lut(tb.ntb_b, slot, DomainAddr::new(tb.host_a, dst.addr))
        .unwrap();
    let data: Vec<u8> = (0..8192u32).map(|i| (i % 239) as u8).collect();
    f.mem_write(tb.host_b, src.addr, &data).unwrap();
    let (dev, host_a, host_b) = (tb.dev, tb.host_a, tb.host_b);
    let h = tb.rt.handle();
    tb.rt.block_on({
        let f = f.clone();
        async move {
            let t0 = h.now();
            let copied = Payload::from(&data[..]);
            let by_slice = f.dma_write_payload(dev, win, copied).await.unwrap();
            let slice_issue = h.now() - t0;
            let snap = f.mem_snapshot(host_b, src.addr, 8192).unwrap();
            let t1 = h.now();
            let by_payload = f
                .dma_write_payload(dev, win.offset(8192), snap.clone())
                .await
                .unwrap();
            assert_eq!(
                h.now() - t1,
                slice_issue,
                "issue cost must not depend on the form"
            );
            assert_eq!(
                by_payload, by_slice,
                "landing delay must not depend on the form"
            );
            h.sleep(by_payload).await;
            let landed = f.mem_snapshot(host_a, dst.addr.offset(8192), 8192).unwrap();
            assert_eq!(landed.to_vec(), data);
            for (a, b) in landed.pages().unwrap().iter().zip(snap.pages().unwrap()) {
                assert!(Rc::ptr_eq(a.as_ref().unwrap(), b.as_ref().unwrap()));
            }
            let mut slice_side = vec![0u8; 8192];
            f.mem_read(host_a, dst.addr, &mut slice_side).unwrap();
            assert_eq!(slice_side, data);
            // Overwrite the source afterwards: the destination (and the
            // snapshot) keep the bytes they were given.
            f.mem_write(host_b, src.addr.offset(100), &[0xFF; 5000])
                .unwrap();
            assert_eq!(snap.to_vec(), data);
            assert_eq!(
                f.mem_snapshot(host_a, dst.addr.offset(8192), 8192)
                    .unwrap()
                    .to_vec(),
                data
            );
        }
    });
}

#[test]
fn dma_read_payload_snapshots_at_the_instant_dma_read_fills_its_buffer() {
    let tb = build();
    let f = tb.fabric.clone();
    let seg = f.alloc(tb.host_a, 8192).unwrap();
    let slot = f.find_free_lut_range(tb.ntb_b, 1).unwrap();
    let win = f
        .program_lut(tb.ntb_b, slot, DomainAddr::new(tb.host_a, seg.addr))
        .unwrap();
    f.mem_write(tb.host_a, seg.addr, &[1u8; 8192]).unwrap();
    let (dev, host_a) = (tb.dev, tb.host_a);
    let h = tb.rt.handle();
    tb.rt.block_on({
        let f = f.clone();
        async move {
            // Something rewrites the source 1 µs into the ~3 µs round trip:
            // both forms must see the rewritten bytes, and take equally long.
            for len in [64u64, 4096, 4096 + 512] {
                f.mem_write(host_a, seg.addr, &[1u8; 8192]).unwrap();
                let rewrite = h.spawn({
                    let (f, h) = (f.clone(), h.clone());
                    async move {
                        h.sleep(SimDuration::from_micros(1)).await;
                        f.mem_write(host_a, seg.addr, &[2u8; 8192]).unwrap();
                    }
                });
                let t0 = h.now();
                let got = f.dma_read_payload(dev, win, len).await.unwrap();
                let took = h.now() - t0;
                rewrite.await;
                assert_eq!(got.to_vec(), vec![2u8; len as usize]);
                // ...and a later write does not show through the snapshot.
                f.mem_write(host_a, seg.addr, &[3u8; 8192]).unwrap();
                assert_eq!(got.to_vec(), vec![2u8; len as usize]);
                let mut buf = vec![0u8; len as usize];
                let t1 = h.now();
                f.dma_read(dev, win, &mut buf).await.unwrap();
                assert_eq!(h.now() - t1, took, "len {len}");
                assert_eq!(buf, vec![3u8; len as usize]);
            }
        }
    });
}

#[test]
fn duplicated_page_payload_applies_twice() {
    // `dup` re-queues the same payload (a clone shares its pages) right
    // behind the original. A BAR destination makes both applications
    // countable: 4096 B = 512 register writes, twice.
    let _armed = simcore::sanitize::arm();
    let rt = SimRuntime::new();
    let f = Fabric::new(rt.handle(), FabricParams::default());
    let host = f.add_host(16 << 20);
    let counter = Rc::new(CountingDev {
        hits: std::cell::Cell::new(0),
    });
    let dev = f.add_device(host, f.rc_node(host), &[0x2000], counter.clone());
    let bar = f.bar_region(dev, 0).unwrap();
    let src = f.alloc(host, 4096).unwrap();
    f.mem_write(host, src.addr, &[7u8; 4096]).unwrap();
    f.set_fault_plan(FaultPlan::parse("f1:dup@0/any").unwrap());
    rt.block_on({
        let f = f.clone();
        async move {
            let page = f.mem_snapshot(host, src.addr, 4096).unwrap();
            assert!(page.pages().is_some());
            f.cpu_write_payload(host, bar.addr, page).await.unwrap();
            f.handle().sleep(SimDuration::from_micros(5)).await;
        }
    });
    assert_eq!(injected(&f, Stage::FaultDuplicated), 1);
    assert_eq!(counter.hits.get(), 2 * 512);
}

#[test]
fn installing_a_plan_keeps_crashed_hosts_and_severed_links_down() {
    // A plan holds delivery faults only: installing one must neither
    // revive a crashed host nor mend a cut cable.
    let tb = build();
    let f = tb.fabric.clone();
    let seg = f.alloc(tb.host_b, 4096).unwrap();
    let win = f
        .program_lut(tb.ntb_a, 0, DomainAddr::new(tb.host_b, seg.addr))
        .unwrap();
    let (host_a, host_b, ntb_a) = (tb.host_a, tb.host_b, tb.ntb_a);
    f.crash_host_now(host_b);
    f.sever_ntb_now(ntb_a, SeverMode::Both);
    f.set_fault_plan(FaultPlan::parse("f1:drop@0/cqe").unwrap());
    let (crashed, severed) = tb.rt.block_on({
        let f = f.clone();
        async move {
            let crashed = f.cpu_write(host_b, seg.addr, b"x").await;
            (crashed, f.cpu_write(host_a, win, b"x").await)
        }
    });
    assert_eq!(crashed, Err(FabricError::HostCrashed(host_b)));
    assert_eq!(severed, Err(FabricError::LinkDown { ntb: ntb_a }));
}
