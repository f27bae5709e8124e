//! Property tests on fabric invariants: the allocator never hands out
//! overlapping memory, NTB translation is a consistent bijection over its
//! window, path lookup is symmetric and stable, and the copy-on-write page
//! tables behave byte for byte like plain arrays.

use proptest::prelude::*;

use pcie::ntb::Ntb;
use pcie::topology::{NodeKind, Topology};
use pcie::{DeviceId, DomainAddr, HostId, HostMemory, NodeId, NtbId, PageTable, Payload, PhysAddr};

/// Bytes per modelled space in `cow_pages_match_a_plain_byte_model`.
const SPACE: usize = 12 * 4096;

/// One of the three byte spaces the copy-on-write model test drives: two
/// hosts' DRAM and a bare table standing for the storage medium (the only
/// one that frees pages).
enum Space {
    Dram(HostMemory, PhysAddr),
    Medium(PageTable),
}

impl Space {
    fn write(&mut self, off: usize, data: &[u8]) {
        match self {
            Space::Dram(mem, base) => mem.write(base.offset(off as u64), data).unwrap(),
            Space::Medium(table) => table.write(off as u64, data),
        }
    }

    fn read(&self, off: usize, buf: &mut [u8]) {
        match self {
            Space::Dram(mem, base) => mem.read(base.offset(off as u64), buf).unwrap(),
            Space::Medium(table) => table.read(off as u64, buf),
        }
    }

    fn snapshot(&self, off: usize, len: usize) -> Payload {
        match self {
            Space::Dram(mem, base) => mem.snapshot(base.offset(off as u64), len as u64).unwrap(),
            Space::Medium(table) => table.snapshot(off as u64, len),
        }
    }

    fn write_payload(&mut self, off: usize, data: &Payload) {
        match self {
            Space::Dram(mem, base) => mem.write_payload(base.offset(off as u64), data).unwrap(),
            Space::Medium(table) => table.write_payload(off as u64, data),
        }
    }

    /// Deallocate: the medium zeroes the range (whole pages leave the
    /// table); DRAM returns the range to the allocator and takes it back,
    /// which must not disturb a byte.
    fn free(&mut self, off: usize, len: usize, model: &mut [u8]) {
        match self {
            Space::Dram(mem, base) => {
                mem.free(*base, SPACE as u64);
                assert_eq!(mem.alloc(SPACE as u64).unwrap(), *base);
            }
            Space::Medium(table) => {
                table.zero(off as u64, len as u64);
                model[off..off + len].fill(0);
            }
        }
    }
}

proptest! {
    /// Random alloc/free interleavings: live allocations never overlap,
    /// and freeing everything restores the full capacity.
    #[test]
    fn allocator_never_overlaps(ops in prop::collection::vec((0u8..2, 1u64..64), 1..60)) {
        let mut mem = HostMemory::new(HostId(0), 1 << 20); // 256 pages
        let capacity = mem.free_bytes();
        let mut live: Vec<(u64, u64)> = Vec::new(); // (addr, size_pages)
        for (op, pages) in ops {
            if op == 0 {
                // Allocate `pages` pages if possible.
                if let Ok(addr) = mem.alloc(pages * 4096) {
                    let a = addr.as_u64();
                    let len = pages * 4096;
                    for &(b, blen) in &live {
                        prop_assert!(
                            a + len <= b || b + blen <= a,
                            "overlap: [{a:#x},{len:#x}) vs [{b:#x},{blen:#x})"
                        );
                    }
                    live.push((a, len));
                }
            } else if let Some((addr, len)) = live.pop() {
                mem.free(PhysAddr(addr), len);
            }
        }
        // Free the rest; capacity must be fully restored.
        for (addr, len) in live {
            mem.free(PhysAddr(addr), len);
        }
        prop_assert_eq!(mem.free_bytes(), capacity);
    }

    /// Data written at any in-bounds offset reads back exactly, and
    /// neighbouring bytes stay untouched.
    #[test]
    fn memory_write_is_exact_and_contained(
        off in 0u64..8000,
        data in prop::collection::vec(any::<u8>(), 1..300),
    ) {
        let mut mem = HostMemory::new(HostId(0), 1 << 20);
        let seg = mem.alloc(16 << 10).unwrap();
        prop_assume!(off + data.len() as u64 + 1 < (16 << 10));
        // Sentinels on both sides.
        mem.write(seg, &[0xAA]).unwrap();
        let start = seg.offset(1 + off);
        mem.write(start, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        mem.read(start, &mut back).unwrap();
        prop_assert_eq!(&back, &data);
        let mut sentinel = [0u8; 1];
        mem.read(seg, &mut sentinel).unwrap();
        prop_assert_eq!(sentinel[0], 0xAA);
    }

    /// Random interleavings of slice writes (aligned, straddling,
    /// sub-page), by-reference snapshots, page adoptions and frees over
    /// three spaces that share pages with one another, checked byte for
    /// byte against plain `Vec<u8>` models — including every snapshot
    /// still held: whatever is written to its source afterwards, it keeps
    /// the bytes it was taken with.
    #[test]
    fn cow_pages_match_a_plain_byte_model(
        ops in prop::collection::vec((0u8..6, 0usize..3, 0usize..SPACE, 0usize..SPACE, any::<u8>()), 1..60),
    ) {
        let dram = |host: u16| {
            let mut mem = HostMemory::new(HostId(host), 1 << 20);
            let base = mem.alloc(SPACE as u64).unwrap();
            Space::Dram(mem, base)
        };
        let mut spaces = [dram(0), dram(1), Space::Medium(PageTable::default())];
        let mut models = vec![vec![0u8; SPACE]; 3];
        let mut held: Vec<(Payload, Vec<u8>)> = Vec::new();
        for (step, (op, which, a, b, fill)) in ops.into_iter().enumerate() {
            // A range of one of three shapes: whole aligned pages, anything
            // (straddles page boundaries), or inside one page.
            let (off, len) = match fill % 3 {
                0 => {
                    let page = a / 4096;
                    (page * 4096, (1 + b % 4).min(12 - page) * 4096)
                }
                1 => (a, b % (SPACE - a + 1)),
                _ => (a, b % (4096 - a % 4096)),
            };
            match op {
                0 | 1 => {
                    let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                    spaces[which].write(off, &data);
                    models[which][off..off + len].copy_from_slice(&data);
                }
                2 => held.push((
                    spaces[which].snapshot(off, len),
                    models[which][off..off + len].to_vec(),
                )),
                // Adopt a held snapshot somewhere else (or over itself):
                // at `a` if it fits, aligned or not as `a` happens to be.
                3 if !held.is_empty() => {
                    let (payload, bytes) = &held[b % held.len()];
                    let at = a.min(SPACE - payload.len());
                    spaces[which].write_payload(at, payload);
                    models[which][at..at + bytes.len()].copy_from_slice(bytes);
                }
                // Move a range straight from one space to the next, as a
                // DMA does: snapshot here, adopt there at the same offset.
                4 => {
                    let payload = spaces[which].snapshot(off, len);
                    let (src, dst) = (which, (which + 1) % 3);
                    spaces[dst].write_payload(off, &payload);
                    let bytes = models[src][off..off + len].to_vec();
                    models[dst][off..off + len].copy_from_slice(&bytes);
                }
                5 => spaces[which].free(off, len, &mut models[which]),
                _ => {}
            }
            for (i, (space, model)) in spaces.iter().zip(&models).enumerate() {
                let mut got = vec![0xEEu8; SPACE];
                space.read(0, &mut got);
                prop_assert!(got == *model, "space {i} diverged after step {step} (op {op})");
                // Reading by reference agrees with reading by copy.
                prop_assert!(space.snapshot(0, SPACE).to_vec() == *model, "space {i} snapshot");
            }
            for (n, (payload, bytes)) in held.iter().enumerate() {
                prop_assert!(payload.to_vec() == *bytes, "held snapshot {n} changed at step {step}");
            }
        }
    }

    /// NTB translation preserves in-slot offsets for every programmed slot.
    #[test]
    fn ntb_translation_preserves_offsets(
        slot in 0usize..16,
        offset in 0u64..(1 << 21) - 8,
        dest_base in (1u64 << 32..1u64 << 40).prop_map(|v| v & !0xFFF),
    ) {
        let mut ntb = Ntb::new(NtbId(0), HostId(0), NodeId(0), PhysAddr(0x4000_0000), 1 << 21, 16);
        ntb.program(slot, DomainAddr::new(HostId(1), PhysAddr(dest_base))).unwrap();
        let local = ntb.slot_addr(slot).unwrap().offset(offset);
        let far = ntb.translate(local, 8).unwrap();
        prop_assert_eq!(far.host, HostId(1));
        prop_assert_eq!(far.addr.as_u64(), dest_base + offset);
    }

    /// Path chip-count is symmetric on random connected topologies.
    #[test]
    fn topology_paths_symmetric(edges in prop::collection::vec((0u32..12, 0u32..12), 5..30)) {
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..12)
            .map(|i| {
                if i % 3 == 0 {
                    t.add_node(NodeKind::RootComplex(HostId(i as u16)))
                } else if i % 3 == 1 {
                    t.add_node(NodeKind::Switch { label: format!("s{i}") })
                } else {
                    t.add_node(NodeKind::Endpoint(DeviceId(i)))
                }
            })
            .collect();
        // Spanning chain guarantees connectivity, then random extra edges.
        for w in nodes.windows(2) {
            t.link(w[0], w[1]);
        }
        for (a, b) in edges {
            if a != b {
                t.link(nodes[a as usize], nodes[b as usize]);
            }
        }
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                let ab = t.chips_between(nodes[i], nodes[j]).unwrap();
                let ba = t.chips_between(nodes[j], nodes[i]).unwrap();
                prop_assert_eq!(ab, ba);
            }
        }
    }
}
