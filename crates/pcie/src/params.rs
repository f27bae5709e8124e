//! Calibrated timing parameters of the fabric model.
//!
//! Sources:
//! * Switch-chip forwarding delay: 100–150 ns per chip per direction
//!   (paper §VI, citing its refs 5 and 10). Default uses the midpoint.
//! * Link payload bandwidth: a Gen3 x4 endpoint link (the P4800X) moves
//!   ~3.2 GB/s of payload after 128b/130b + TLP header overheads.
//! * Max payload size 256 B: the common MPS in commodity systems; a 4 KiB
//!   transfer is 16 TLPs.
//! * CPU MMIO/NTB store issue cost and DRAM access time are conventional
//!   microarchitectural values; see EXPERIMENTS.md for the calibration
//!   table.

use simcore::SimDuration;

/// Timing/bandwidth parameters for a [`crate::fabric::Fabric`].
#[derive(Clone, Debug)]
pub struct FabricParams {
    /// Per-switch-chip forwarding latency, one direction.
    pub chip_latency_ns: u64,
    /// Fixed cost of entering/leaving a root complex (ingress + egress,
    /// one direction), covering RC arbitration and host bridge.
    pub rc_overhead_ns: u64,
    /// DRAM access service time for a read completion.
    pub dram_read_ns: u64,
    /// Cost for a CPU core to issue one small MMIO/uncached store
    /// (write-combining buffer drain).
    pub mmio_store_ns: u64,
    /// Cost for a CPU core to issue one small uncached load *excluding*
    /// fabric round-trip (pipeline stall overhead).
    pub mmio_load_ns: u64,
    /// CPU streaming-store bandwidth through an NTB window (write-combined),
    /// bytes/ns = GB/s.
    pub cpu_ntb_store_gbps: f64,
    /// CPU copy bandwidth for local memcpy (bounce buffer staging).
    pub cpu_memcpy_gbps: f64,
    /// Effective payload bandwidth of a device's PCIe link (GB/s).
    pub link_gbps: f64,
    /// Max TLP payload (bytes); transfers are segmented at this size.
    pub max_payload: u64,
    /// Per-TLP processing overhead at the endpoint DMA engine.
    pub tlp_overhead_ns: u64,
    /// Efficiency factor for non-posted (read) streams relative to posted
    /// streams: reads need completions, halving header efficiency and
    /// adding tracking stalls. 1.0 = no penalty.
    pub read_stream_derate: f64,
}

impl Default for FabricParams {
    fn default() -> Self {
        FabricParams {
            chip_latency_ns: 125,
            rc_overhead_ns: 150,
            dram_read_ns: 90,
            mmio_store_ns: 60,
            mmio_load_ns: 80,
            cpu_ntb_store_gbps: 4.0,
            cpu_memcpy_gbps: 12.0,
            link_gbps: 3.2,
            max_payload: 256,
            tlp_overhead_ns: 8,
            read_stream_derate: 0.8,
        }
    }
}

impl FabricParams {
    /// One-direction propagation latency across `chips` switch chips.
    pub fn one_way(&self, chips: u32) -> SimDuration {
        SimDuration::from_nanos(self.rc_overhead_ns + chips as u64 * self.chip_latency_ns)
    }

    /// Round-trip latency for a non-posted transaction across `chips`
    /// chips, including the DRAM access at the completer.
    pub fn read_rtt(&self, chips: u32) -> SimDuration {
        self.one_way(chips) + self.one_way(chips) + SimDuration::from_nanos(self.dram_read_ns)
    }

    /// Serialization time for a posted bulk transfer of `len` bytes on the
    /// device link (TLP segmentation + payload bandwidth).
    pub fn posted_transfer(&self, len: u64) -> SimDuration {
        if len == 0 {
            return SimDuration::ZERO;
        }
        let tlps = len.div_ceil(self.max_payload);
        let wire_ns = (len as f64 / self.link_gbps).ceil() as u64;
        SimDuration::from_nanos(wire_ns + tlps * self.tlp_overhead_ns)
    }

    /// Serialization time for a non-posted (read) bulk transfer: same
    /// segmentation, derated bandwidth (completion headers + flow control).
    pub fn nonposted_transfer(&self, len: u64) -> SimDuration {
        if len == 0 {
            return SimDuration::ZERO;
        }
        let tlps = len.div_ceil(self.max_payload);
        let wire_ns = (len as f64 / (self.link_gbps * self.read_stream_derate)).ceil() as u64;
        SimDuration::from_nanos(wire_ns + tlps * self.tlp_overhead_ns)
    }

    /// CPU time to push `len` bytes through an NTB window with streaming
    /// stores.
    pub fn cpu_ntb_store(&self, len: u64) -> SimDuration {
        SimDuration::from_nanos((len as f64 / self.cpu_ntb_store_gbps).ceil() as u64)
    }

    /// CPU time for a local memcpy of `len` bytes.
    pub fn cpu_memcpy(&self, len: u64) -> SimDuration {
        SimDuration::from_nanos((len as f64 / self.cpu_memcpy_gbps).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_way_scales_with_chips() {
        let p = FabricParams::default();
        let d0 = p.one_way(0);
        let d3 = p.one_way(3);
        assert_eq!((d3 - d0).as_nanos(), 3 * p.chip_latency_ns);
    }

    #[test]
    fn read_rtt_is_two_one_ways_plus_dram() {
        let p = FabricParams::default();
        assert_eq!(
            p.read_rtt(2).as_nanos(),
            2 * p.one_way(2).as_nanos() + p.dram_read_ns
        );
    }

    #[test]
    fn transfer_segments_into_tlps() {
        let p = FabricParams::default();
        // 4 KiB = 16 TLPs at 256 B MPS.
        let t = p.posted_transfer(4096);
        let wire = (4096.0 / p.link_gbps).ceil() as u64;
        assert_eq!(t.as_nanos(), wire + 16 * p.tlp_overhead_ns);
        assert_eq!(p.posted_transfer(0), SimDuration::ZERO);
    }

    #[test]
    fn reads_slower_than_writes() {
        let p = FabricParams::default();
        assert!(p.nonposted_transfer(4096) > p.posted_transfer(4096));
    }

    #[test]
    fn cpu_costs_monotone() {
        let p = FabricParams::default();
        assert!(p.cpu_ntb_store(8192) > p.cpu_ntb_store(4096));
        assert!(
            p.cpu_memcpy(4096) < p.cpu_ntb_store(4096),
            "NTB stores are slower than memcpy"
        );
    }
}
