//! InfiniBand latency/bandwidth parameters.
//!
//! Calibrated to a ConnectX-5 / EDR-class fabric (the paper's §VI setup):
//! one-way small-message latency just under a microsecond, ~100 Gb/s
//! payload bandwidth. The PCIe costs of the NIC DMAing buffers in and out
//! of host memory come from the [`pcie`] fabric, not from these numbers.

use simcore::SimDuration;

/// Timing/bandwidth parameters of the IB wire and NICs.
#[derive(Clone, Debug)]
pub struct IbParams {
    /// Wire + switch propagation, one direction.
    pub wire_ns: u64,
    /// NIC processing on transmit (WQE fetch, segmentation).
    pub nic_tx_ns: u64,
    /// NIC processing on receive (steering, completion generation).
    pub nic_rx_ns: u64,
    /// CPU cost of posting a work request (doorbell).
    pub post_ns: u64,
    /// Payload bandwidth (GB/s).
    pub bw_gbps: f64,
}

impl Default for IbParams {
    fn default() -> Self {
        IbParams {
            wire_ns: 260,
            nic_tx_ns: 300,
            nic_rx_ns: 330,
            post_ns: 80,
            bw_gbps: 11.0,
        }
    }
}

impl IbParams {
    /// One-way latency of a message, excluding host-PCIe DMA.
    pub fn one_way(&self, len: u64) -> SimDuration {
        SimDuration::from_nanos(
            self.nic_tx_ns + self.wire_ns + self.nic_rx_ns + self.transfer_ns(len),
        )
    }

    /// Wire serialization time for `len` payload bytes.
    pub fn transfer_ns(&self, len: u64) -> u64 {
        (len as f64 / self.bw_gbps).ceil() as u64
    }

    /// CPU cost of posting one work request.
    pub fn post_cost(&self) -> SimDuration {
        SimDuration::from_nanos(self.post_ns)
    }

    /// ACK round trip for reliable-connection send completions.
    pub fn ack_rtt(&self) -> SimDuration {
        SimDuration::from_nanos(2 * self.wire_ns + self.nic_rx_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_message_under_a_microsecond() {
        let p = IbParams::default();
        assert!(p.one_way(64).as_nanos() < 1_000);
        assert!(p.one_way(64).as_nanos() > 700);
    }

    #[test]
    fn bandwidth_dominates_large_messages() {
        let p = IbParams::default();
        let small = p.one_way(64);
        let big = p.one_way(1 << 20);
        assert!(
            big.as_nanos() > small.as_nanos() + 90_000,
            "1 MiB at ~11 GB/s is ~95 µs"
        );
    }
}
