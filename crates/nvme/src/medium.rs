//! Storage medium model: the thing behind the controller.
//!
//! The paper uses an Intel Optane P4800X precisely because its latency is
//! *consistent* — boxplot whiskers stay tight, so network overheads stand
//! out. [`MediaProfile::optane`] models that: ~9 µs media latency with a
//! small log-normal tail. [`MediaProfile::nand`] is provided for contrast
//! experiments (higher, asymmetric, jittery latency).

use std::cell::RefCell;

use pcie::{PageTable, Payload};
use simcore::sync::{Permit, Semaphore};
use simcore::{Handle, SimDuration, SimRng};

/// Latency/parallelism profile of a storage medium.
#[derive(Clone, Debug)]
pub struct MediaProfile {
    /// Human-readable medium name.
    pub name: &'static str,
    /// Median media latency for a small read.
    pub read_median: SimDuration,
    /// Log-normal shape for reads.
    pub read_sigma: f64,
    /// Median media latency for a small write.
    pub write_median: SimDuration,
    /// Log-normal shape for writes.
    pub write_sigma: f64,
    /// Absolute floor (the pipeline minimum).
    pub floor: SimDuration,
    /// Internal parallel channels (concurrent media operations).
    pub channels: usize,
    /// Internal streaming bandwidth (GB/s): extra cost per byte.
    pub stream_gbps: f64,
}

impl MediaProfile {
    /// Intel Optane P4800X-like: consistent ~9 µs, 7 channels.
    pub fn optane() -> Self {
        MediaProfile {
            name: "optane-p4800x",
            read_median: SimDuration::from_nanos(8_600),
            read_sigma: 0.018,
            write_median: SimDuration::from_nanos(8_300),
            write_sigma: 0.020,
            floor: SimDuration::from_nanos(8_000),
            channels: 7,
            stream_gbps: 2.4,
        }
    }

    /// TLC NAND-like: fast-ish reads, slow writes, fat tails.
    pub fn nand() -> Self {
        MediaProfile {
            name: "nand-tlc",
            read_median: SimDuration::from_nanos(75_000),
            read_sigma: 0.25,
            write_median: SimDuration::from_nanos(350_000),
            write_sigma: 0.40,
            floor: SimDuration::from_nanos(25_000),
            channels: 16,
            stream_gbps: 3.0,
        }
    }
}

/// In-memory sparse block store with a latency model. This is the
/// "storage medium" an [`crate::ctrl::NvmeController`] executes against.
///
/// Blocks live in a [`PageTable`] (4 KiB pages, eight blocks each at 512 B;
/// an unwritten or deallocated page is absent and reads as zeros), so a
/// page-aligned command moves page references: [`BlockStore::read_payload`]
/// snapshots, [`BlockStore::write_payload`] adopts.
pub struct BlockStore {
    handle: Handle,
    profile: MediaProfile,
    block_size: u32,
    capacity_blocks: u64,
    channels: Semaphore,
    data: RefCell<PageTable>,
    rng: RefCell<SimRng>,
}

impl BlockStore {
    /// A sparse store with the given geometry and latency seed.
    pub fn new(
        handle: Handle,
        profile: MediaProfile,
        block_size: u32,
        capacity_blocks: u64,
        seed: u64,
    ) -> Self {
        assert!(block_size.is_power_of_two());
        BlockStore {
            handle,
            channels: Semaphore::new(profile.channels),
            profile,
            block_size,
            capacity_blocks,
            data: RefCell::new(PageTable::default()),
            rng: RefCell::new(SimRng::seed_from_u64(seed)),
        }
    }

    /// Logical block size in bytes.
    pub fn block_size(&self) -> u32 {
        self.block_size
    }

    /// Namespace capacity in logical blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    /// The latency profile in use.
    pub fn profile(&self) -> &MediaProfile {
        &self.profile
    }

    fn stream_cost(&self, len: u64) -> SimDuration {
        SimDuration::from_nanos((len as f64 / self.profile.stream_gbps).ceil() as u64)
    }

    fn read_latency(&self, len: u64) -> SimDuration {
        let mut rng = self.rng.borrow_mut();
        rng.latency(
            self.profile.read_median,
            self.profile.read_sigma,
            self.profile.floor,
        ) + self.stream_cost(len)
    }

    fn write_latency(&self, len: u64) -> SimDuration {
        let mut rng = self.rng.borrow_mut();
        rng.latency(
            self.profile.write_median,
            self.profile.write_sigma,
            self.profile.floor,
        ) + self.stream_cost(len)
    }

    /// Check an LBA range against the namespace bounds.
    pub fn in_range(&self, slba: u64, blocks: u64) -> bool {
        slba.checked_add(blocks)
            .is_some_and(|end| end <= self.capacity_blocks)
    }

    /// One media access of `len` bytes: take a channel and wait out the
    /// sampled latency. The caller performs the functional effect, then
    /// drops the channel.
    async fn access(&self, write: bool, len: u64) -> Permit {
        let channel = self.channels.acquire().await;
        let lat = if write {
            self.write_latency(len)
        } else {
            self.read_latency(len)
        };
        self.handle.sleep(lat).await;
        channel
    }

    fn byte_offset(&self, lba: u64) -> u64 {
        lba * u64::from(self.block_size)
    }

    /// Media read: occupies a channel, samples latency, fills `buf`
    /// (`buf.len()` must be a multiple of the block size).
    pub async fn read(&self, slba: u64, buf: &mut [u8]) {
        debug_assert_eq!(buf.len() % self.block_size as usize, 0);
        let _channel = self.access(false, buf.len() as u64).await;
        self.read_raw(slba, buf);
    }

    /// [`BlockStore::read`] of `blocks` blocks into an owned payload,
    /// snapshotted at the same post-latency instant: whole aligned pages
    /// by reference, and a later write does not show through.
    pub async fn read_payload(&self, slba: u64, blocks: u64) -> Payload {
        let _channel = self.access(false, self.byte_offset(blocks)).await;
        self.snapshot(slba, blocks)
    }

    /// Media write.
    pub async fn write(&self, slba: u64, data: &[u8]) {
        debug_assert_eq!(data.len() % self.block_size as usize, 0);
        let _channel = self.access(true, data.len() as u64).await;
        self.write_raw(slba, data);
    }

    /// [`BlockStore::write`] of an owned payload: whole pages landing on a
    /// page boundary are adopted by reference.
    pub async fn write_payload(&self, slba: u64, data: Payload) {
        debug_assert_eq!(data.len() % self.block_size as usize, 0);
        let _channel = self.access(true, data.len() as u64).await;
        let off = self.byte_offset(slba);
        self.data.borrow_mut().write_payload(off, &data);
    }

    /// Write zeroes without a data transfer; whole pages are freed.
    pub async fn write_zeroes(&self, slba: u64, blocks: u64) {
        let _channel = self.access(true, 0).await;
        let (off, len) = (self.byte_offset(slba), self.byte_offset(blocks));
        self.data.borrow_mut().zero(off, len);
    }

    /// Flush: drains device-side buffering; cheap for both profiles.
    pub async fn flush(&self) {
        self.handle.sleep(SimDuration::from_nanos(500)).await;
    }

    /// Untimed functional read (verification in tests).
    pub fn read_raw(&self, slba: u64, buf: &mut [u8]) {
        self.data.borrow().read(self.byte_offset(slba), buf);
    }

    /// Untimed [`BlockStore::read_payload`].
    pub fn snapshot(&self, slba: u64, blocks: u64) -> Payload {
        let (off, len) = (self.byte_offset(slba), self.byte_offset(blocks));
        self.data.borrow().snapshot(off, len as usize)
    }

    /// Untimed functional write (test setup). A trailing partial block is
    /// padded with zeros.
    pub fn write_raw(&self, slba: u64, data: &[u8]) {
        let off = self.byte_offset(slba);
        let pad = data.len().next_multiple_of(self.block_size as usize) - data.len();
        let mut table = self.data.borrow_mut();
        table.write(off, data);
        table.zero(off + data.len() as u64, pad as u64);
    }

    /// Pages the store currently holds (diagnostic: deallocated and
    /// never-written pages are not resident).
    pub fn resident_pages(&self) -> usize {
        self.data.borrow().resident_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimRuntime;
    use std::rc::Rc;

    fn store(rt: &SimRuntime) -> Rc<BlockStore> {
        Rc::new(BlockStore::new(
            rt.handle(),
            MediaProfile::optane(),
            512,
            1 << 20,
            1,
        ))
    }

    #[test]
    fn write_then_read_roundtrip() {
        let rt = SimRuntime::new();
        let s = store(&rt);
        let s2 = s.clone();
        let out = rt.block_on(async move {
            let data: Vec<u8> = (0..4096).map(|i| (i % 255) as u8).collect();
            s2.write(100, &data).await;
            let mut buf = vec![0u8; 4096];
            s2.read(100, &mut buf).await;
            (data, buf)
        });
        assert_eq!(out.0, out.1);
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let rt = SimRuntime::new();
        let s = store(&rt);
        let s2 = s.clone();
        let buf = rt.block_on(async move {
            let mut buf = vec![0xFFu8; 1024];
            s2.read(5000, &mut buf).await;
            buf
        });
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn latency_is_near_profile_median() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let s = store(&rt);
        let s2 = s.clone();
        let lat = rt.block_on(async move {
            let t0 = h.now();
            let mut buf = vec![0u8; 4096];
            s2.read(0, &mut buf).await;
            h.now() - t0
        });
        let p = MediaProfile::optane();
        assert!(lat >= p.floor, "{lat}");
        assert!(lat.as_nanos() < 12_000, "optane read too slow: {lat}");
    }

    #[test]
    fn channels_limit_parallelism() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let s = store(&rt);
        // Issue 14 concurrent reads on a 7-channel device: the last must
        // finish roughly 2x one media latency.
        let mut joins = Vec::new();
        for i in 0..14u64 {
            let s = s.clone();
            let h2 = h.clone();
            joins.push(h.spawn(async move {
                let mut buf = vec![0u8; 512];
                s.read(i, &mut buf).await;
                h2.now()
            }));
        }
        rt.run();
        let finish: Vec<_> = joins
            .iter()
            .map(|j| j.try_take().unwrap().as_nanos())
            .collect();
        let max = *finish.iter().max().unwrap();
        let min = *finish.iter().min().unwrap();
        assert!(
            max > min + 7_000,
            "second wave must queue behind channels: {finish:?}"
        );
        assert!(
            max < 25_000,
            "two waves should be ~2 media latencies: {max}"
        );
    }

    #[test]
    fn range_check() {
        let rt = SimRuntime::new();
        let s = store(&rt);
        assert!(s.in_range(0, 1));
        assert!(s.in_range((1 << 20) - 1, 1));
        assert!(!s.in_range(1 << 20, 1));
        assert!(!s.in_range(u64::MAX, 2));
    }

    #[test]
    fn write_zeroes_clears() {
        let rt = SimRuntime::new();
        let s = store(&rt);
        let s2 = s.clone();
        let buf = rt.block_on(async move {
            s2.write(10, &[0xAA; 1024]).await;
            s2.write_zeroes(10, 2).await;
            let mut buf = vec![0xFFu8; 1024];
            s2.read(10, &mut buf).await;
            buf
        });
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn aligned_payloads_move_by_reference_and_others_by_copy() {
        let rt = SimRuntime::new();
        let s = store(&rt);
        let s2 = s.clone();
        rt.block_on(async move {
            let data: Vec<u8> = (0..8192u32).map(|i| (i % 241) as u8).collect();
            let pages = Payload::from(&data[..]);
            // LBA 16 = byte 8192: page aligned at 512 B blocks — adopted.
            s2.write_payload(16, pages.clone()).await;
            let back = s2.read_payload(16, 16).await;
            for (a, b) in back.pages().unwrap().iter().zip(pages.pages().unwrap()) {
                assert!(std::rc::Rc::ptr_eq(
                    a.as_ref().unwrap(),
                    b.as_ref().unwrap()
                ));
            }
            // A later overwrite does not show through the snapshot.
            s2.write(16, &[0xEE; 8192]).await;
            assert_eq!(back.to_vec(), data);
            // LBA 3 is not a multiple of 8: same bytes, copied.
            s2.write_payload(3, pages).await;
            let unaligned = s2.read_payload(3, 16).await;
            assert!(unaligned.pages().is_none());
            assert_eq!(unaligned.to_vec(), data);
            let mut raw = vec![0u8; 8192];
            s2.read_raw(3, &mut raw);
            assert_eq!(raw, data);
            // One block, and a page plus a block.
            assert_eq!(s2.read_payload(4, 1).await.to_vec(), data[512..1024]);
            assert_eq!(s2.snapshot(20, 9).to_vec(), [0xEE; 4608]);
        });
    }

    #[test]
    fn write_zeroes_frees_whole_pages_and_spares_the_neighbours() {
        let rt = SimRuntime::new();
        let s = store(&rt);
        let s2 = s.clone();
        rt.block_on(async move {
            s2.write(0, &[0xAA; 4 * 4096]).await;
            assert_eq!(s2.resident_pages(), 4);
            // Blocks 6..=17: the tail of page 0, all of page 1, two blocks
            // of page 2.
            s2.write_zeroes(6, 12).await;
            assert_eq!(s2.resident_pages(), 3, "page 1 is freed");
            let mut buf = vec![0u8; 4 * 4096];
            s2.read(0, &mut buf).await;
            assert!(buf[..6 * 512].iter().all(|&b| b == 0xAA));
            assert!(buf[6 * 512..18 * 512].iter().all(|&b| b == 0));
            assert!(buf[18 * 512..].iter().all(|&b| b == 0xAA));
        });
    }

    #[test]
    fn write_raw_pads_a_trailing_partial_block() {
        let rt = SimRuntime::new();
        let s = store(&rt);
        s.write_raw(0, &[0xAA; 1024]);
        s.write_raw(0, &[0xBB; 700]);
        let mut buf = [0u8; 1536];
        s.read_raw(0, &mut buf);
        assert_eq!(buf[..700], [0xBB; 700]);
        assert_eq!(
            buf[700..1024],
            [0; 324],
            "rest of the second block is zeroed"
        );
        assert_eq!(buf[1024..], [0; 512]);
    }

    #[test]
    fn nand_writes_slower_than_reads() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let s = Rc::new(BlockStore::new(
            rt.handle(),
            MediaProfile::nand(),
            512,
            1 << 20,
            2,
        ));
        let s2 = s.clone();
        let (rd, wr) = rt.block_on(async move {
            let mut buf = vec![0u8; 4096];
            let t0 = h.now();
            s2.read(0, &mut buf).await;
            let rd = h.now() - t0;
            let t1 = h.now();
            s2.write(0, &buf).await;
            let wr = h.now() - t1;
            (rd, wr)
        });
        assert!(wr > rd, "NAND write ({wr}) must exceed read ({rd})");
    }
}
