//! Storage medium model: the thing behind the controller.
//!
//! The paper uses an Intel Optane P4800X precisely because its latency is
//! *consistent* — boxplot whiskers stay tight, so network overheads stand
//! out. [`MediaProfile::optane`] models that: ~9 µs media latency with a
//! small log-normal tail. [`MediaProfile::nand`] is provided for contrast
//! experiments (higher, asymmetric, jittery latency).

use std::cell::RefCell;
use std::collections::HashMap;

use simcore::sync::Semaphore;
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
pub struct BlockStore {
    handle: Handle,
    profile: MediaProfile,
    block_size: u32,
    capacity_blocks: u64,
    channels: Semaphore,
    data: RefCell<HashMap<u64, Box<[u8]>>>,
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
            data: RefCell::new(HashMap::new()),
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

    /// Media read: occupies a channel, samples latency, fills `buf`
    /// (`buf.len()` must be a multiple of the block size).
    pub async fn read(&self, slba: u64, buf: &mut [u8]) {
        debug_assert_eq!(buf.len() % self.block_size as usize, 0);
        let _ch = self.channels.acquire().await;
        let lat = self.read_latency(buf.len() as u64);
        self.handle.sleep(lat).await;
        self.read_raw(slba, buf);
    }

    /// Media write.
    pub async fn write(&self, slba: u64, data: &[u8]) {
        debug_assert_eq!(data.len() % self.block_size as usize, 0);
        let _ch = self.channels.acquire().await;
        let lat = self.write_latency(data.len() as u64);
        self.handle.sleep(lat).await;
        self.write_raw(slba, data);
    }

    /// Write zeroes without a data transfer.
    pub async fn write_zeroes(&self, slba: u64, blocks: u64) {
        let _ch = self.channels.acquire().await;
        let lat = self.write_latency(0);
        self.handle.sleep(lat).await;
        let mut map = self.data.borrow_mut();
        for lba in slba..slba + blocks {
            map.remove(&lba);
        }
    }

    /// Flush: drains device-side buffering; cheap for both profiles.
    pub async fn flush(&self) {
        self.handle.sleep(SimDuration::from_nanos(500)).await;
    }

    /// Untimed functional read (verification in tests).
    pub fn read_raw(&self, slba: u64, buf: &mut [u8]) {
        let bs = self.block_size as usize;
        let map = self.data.borrow();
        for (i, chunk) in buf.chunks_mut(bs).enumerate() {
            match map.get(&(slba + i as u64)) {
                Some(block) => chunk.copy_from_slice(&block[..chunk.len()]),
                None => chunk.fill(0),
            }
        }
    }

    /// Untimed functional write (test setup).
    pub fn write_raw(&self, slba: u64, data: &[u8]) {
        let bs = self.block_size as usize;
        let mut map = self.data.borrow_mut();
        for (i, chunk) in data.chunks(bs).enumerate() {
            let mut block = vec![0u8; bs].into_boxed_slice();
            block[..chunk.len()].copy_from_slice(chunk);
            map.insert(slba + i as u64, block);
        }
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
