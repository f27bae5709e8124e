//! **M1 — Criterion micro-benchmarks** of the hot-path primitives: SQE
//! encode/decode, CQE phase peek, PRP construction/walking, NTB LUT
//! translation, topology path lookup, and latency recording. These are
//! the per-I/O software costs of the simulator itself.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use nvme::spec::command::SqEntry;
use nvme::spec::completion::CqEntry;
use nvme::spec::prp;
use nvme::spec::status::Status;
use pcie::ntb::Ntb;
use pcie::topology::{NodeKind, Topology};
use pcie::{DeviceId, DomainAddr, HostId, NodeId, NtbId, PhysAddr};
use simcore::LatencyRecorder;

fn bench_sqe(c: &mut Criterion) {
    let sqe = SqEntry::read(
        42,
        1,
        0x1234_5678,
        7,
        PhysAddr(0xDEAD_0000),
        PhysAddr(0xBEEF_0000),
    );
    c.bench_function("sqe_encode", |b| b.iter(|| black_box(sqe).encode()));
    let raw = sqe.encode();
    c.bench_function("sqe_decode", |b| {
        b.iter(|| SqEntry::decode(black_box(&raw)))
    });
}

fn bench_cqe(c: &mut Criterion) {
    let cqe = CqEntry::new(0, 3, 1, 99, true, Status::SUCCESS);
    let raw = cqe.encode();
    c.bench_function("cqe_decode", |b| {
        b.iter(|| CqEntry::decode(black_box(&raw)))
    });
    c.bench_function("cqe_peek_phase", |b| {
        b.iter(|| CqEntry::peek_phase(black_box(&raw)))
    });
}

fn bench_prp(c: &mut Criterion) {
    c.bench_function("prp_build_4k", |b| {
        b.iter(|| {
            prp::build_prps(
                black_box(PhysAddr(0x1000_0000)),
                4096,
                PhysAddr(0x2000_0000),
            )
            .unwrap()
        })
    });
    c.bench_function("prp_build_128k", |b| {
        b.iter(|| {
            prp::build_prps(
                black_box(PhysAddr(0x1000_0000)),
                128 << 10,
                PhysAddr(0x2000_0000),
            )
            .unwrap()
        })
    });
    let set = prp::build_prps(PhysAddr(0x1000_0000), 128 << 10, PhysAddr(0x2000_0000)).unwrap();
    c.bench_function("prp_chunks_128k", |b| {
        b.iter(|| prp::chunks(black_box(set.prp1), &set.list, 128 << 10).unwrap())
    });
}

fn bench_ntb(c: &mut Criterion) {
    let mut ntb = Ntb::new(
        NtbId(0),
        HostId(0),
        NodeId(0),
        PhysAddr(0x4000_0000),
        2 << 20,
        256,
    );
    for slot in 0..256 {
        ntb.program(
            slot,
            DomainAddr::new(HostId(1), PhysAddr(0x1_0000_0000 + slot as u64 * (2 << 20))),
        )
        .unwrap();
    }
    c.bench_function("ntb_translate", |b| {
        b.iter(|| {
            ntb.translate(black_box(PhysAddr(0x4000_0000 + 0x123456)), 64)
                .unwrap()
        })
    });
}

fn bench_topology(c: &mut Criterion) {
    let mut t = Topology::new();
    let rc_a = t.add_node(NodeKind::RootComplex(HostId(0)));
    let mut prev = rc_a;
    for i in 0..5 {
        let s = t.add_node(NodeKind::Switch {
            label: format!("s{i}"),
        });
        t.link(prev, s);
        prev = s;
    }
    let dev = t.add_node(NodeKind::Endpoint(DeviceId(0)));
    t.link(prev, dev);
    // Warm the cache, then measure the cached path (the hot case: every
    // DMA resolves a path).
    t.chips_between(rc_a, dev).unwrap();
    c.bench_function("topology_chips_cached", |b| {
        b.iter(|| t.chips_between(black_box(rc_a), black_box(dev)).unwrap())
    });
}

fn bench_stats(c: &mut Criterion) {
    c.bench_function("latency_record", |b| {
        let mut r = LatencyRecorder::with_capacity(1 << 20);
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(9973);
            r.record_nanos(black_box(v % 1_000_000));
        })
    });
    let mut r = LatencyRecorder::with_capacity(100_000);
    for i in 0..100_000u64 {
        r.record_nanos(i * 13 % 1_000_000);
    }
    c.bench_function("summary_100k", |b| b.iter(|| r.summary().unwrap()));
}

criterion_group!(
    benches,
    bench_sqe,
    bench_cqe,
    bench_prp,
    bench_ntb,
    bench_topology,
    bench_stats
);
criterion_main!(benches);
