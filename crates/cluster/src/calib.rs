//! Calibrated parameter sets for the paper's testbed (§VI).
//!
//! Sources for each constant are listed in EXPERIMENTS.md. The goal is
//! not to match the paper's absolute numbers on unknown hardware, but to
//! place every component in its documented range:
//!
//! * Optane P4800X media: ~9 µs, very low jitter, 31 usable queue pairs.
//! * PCIe switch chips: 100–150 ns per chip per direction.
//! * ConnectX-5/EDR RDMA: just under 1 µs one-way small-message latency.
//! * Stock Linux NVMe driver: interrupt-driven, ~0.7 µs submit path.
//! * SPDK: poll-mode, sub-300 ns software per command.
//! * The paper's own driver: "naive" — bigger submit cost, polling, and
//!   a bounce-buffer copy per data-bearing request.

use std::ops::RangeInclusive;

use dnvme::{ClientConfig, ManagerConfig};
use fioflex::RwMode;
use nvme::driver::LocalDriverConfig;
use nvme::{MediaProfile, NvmeConfig};
use nvmeof::{InitiatorConfig, TargetConfig};
use pcie::FabricParams;
use rdma::IbParams;
use simcore::SimDuration;

use crate::ScenarioKind;

/// Everything a scenario needs, bundled.
#[derive(Clone)]
pub struct Calibration {
    /// PCIe fabric timing.
    pub fabric: FabricParams,
    /// InfiniBand wire timing.
    pub ib: IbParams,
    /// Storage medium profile.
    pub media: MediaProfile,
    /// Controller configuration.
    pub nvme: NvmeConfig,
    /// Stock-Linux driver cost profile.
    pub linux_driver: LocalDriverConfig,
    /// SPDK (target-side) driver cost profile.
    pub spdk_driver: LocalDriverConfig,
    /// NVMe-oF target configuration.
    pub target: TargetConfig,
    /// NVMe-oF initiator configuration.
    pub initiator: InitiatorConfig,
    /// Distributed-driver client configuration.
    pub client: ClientConfig,
    /// Distributed-driver manager configuration.
    pub manager: ManagerConfig,
    /// Namespace geometry.
    pub block_size: u32,
    /// Namespace capacity in logical blocks.
    pub capacity_blocks: u64,
    /// Media/latency RNG seed.
    pub seed: u64,
    /// NTB LUT geometry (Dolphin-style): slot size and slots per adapter.
    pub ntb_slot_size: u64,
    /// LUT slots per adapter.
    pub ntb_slots: usize,
}

impl Calibration {
    /// The paper's testbed.
    pub fn paper() -> Calibration {
        // Dolphin's MXH932/MXS924 use PEX-class switch chips at the upper
        // end of the paper's 100–150 ns per-chip range.
        let fabric = FabricParams {
            chip_latency_ns: 150,
            ..FabricParams::default()
        };
        Calibration {
            fabric,
            ib: IbParams::default(),
            media: MediaProfile::optane(),
            nvme: NvmeConfig::default(),
            linux_driver: LocalDriverConfig::linux(),
            spdk_driver: LocalDriverConfig::spdk(),
            target: TargetConfig::default(),
            initiator: InitiatorConfig::default(),
            client: ClientConfig::default(),
            manager: ManagerConfig::default(),
            block_size: 512,
            capacity_blocks: 1 << 21, // 1 GiB namespace at 512 B blocks
            seed: 0x00D0_1F14,
            ntb_slot_size: 2 << 20,
            ntb_slots: 256,
        }
    }

    /// The paper's testbed with the full recovery ladder armed: per-command
    /// deadlines on every client, mailbox RPC timeouts with idempotent
    /// retransmission, and the manager's lease/heartbeat protocol. The
    /// deadlines sit far above the fault-free latencies (a 4 KiB Optane I/O
    /// completes in ~15 µs, a mailbox round trip in a few µs), so they only
    /// fire when a fault is actually injected.
    pub fn fault_recovery() -> Calibration {
        let mut c = Calibration::paper();
        c.client.cmd_timeout = Some(SimDuration::from_micros(200));
        c.client.mailbox_timeout = Some(SimDuration::from_micros(500));
        c.manager.lease = Some(SimDuration::from_micros(600));
        c
    }

    /// Switch-chip latency corner cases (the paper quotes 100–150 ns).
    pub fn with_chip_latency(mut self, ns: u64) -> Calibration {
        self.fabric.chip_latency_ns = ns;
        self
    }

    /// Override the client configuration (ablations).
    pub fn with_client(mut self, client: ClientConfig) -> Calibration {
        self.client = client;
        self
    }
}

/// One of the §VI minimum-latency deltas Fig. 10 shows: what the `remote`
/// stack adds over its `local` baseline for `rw`, the paper's value, and
/// the deltas a reproduction may show.
pub struct PaperDelta {
    pub remote: ScenarioKind,
    pub local: ScenarioKind,
    pub rw: RwMode,
    pub paper_ns: u64,
    pub band: RangeInclusive<u64>,
}

/// The four Fig. 10 deltas and the one definition of their bands: ±5 %
/// of NVMe-oF's 7.7 / 7.5 µs, and 0.8–1.2 / 1.6–2.4 µs for the driver's
/// "~1 µs" / "~2 µs". E2 and `tests/reproduction_shape.rs` assert them.
pub const FIG10_DELTAS: [PaperDelta; 4] = [
    PaperDelta {
        remote: ScenarioKind::NvmfRemote,
        local: ScenarioKind::LinuxLocal,
        rw: RwMode::RandRead,
        paper_ns: 7_700,
        band: 7_315..=8_085,
    },
    PaperDelta {
        remote: ScenarioKind::NvmfRemote,
        local: ScenarioKind::LinuxLocal,
        rw: RwMode::RandWrite,
        paper_ns: 7_500,
        band: 7_125..=7_875,
    },
    PaperDelta {
        remote: ScenarioKind::OursRemote { switches: 1 },
        local: ScenarioKind::OursLocal,
        rw: RwMode::RandRead,
        paper_ns: 1_000,
        band: 800..=1_200,
    },
    PaperDelta {
        remote: ScenarioKind::OursRemote { switches: 1 },
        local: ScenarioKind::OursLocal,
        rw: RwMode::RandWrite,
        paper_ns: 2_000,
        band: 1_600..=2_400,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_calibration_is_consistent() {
        let c = Calibration::paper();
        assert_eq!(
            c.nvme.io_queue_pairs, 31,
            "P4800X exposes 31 usable queue pairs"
        );
        assert!(c.fabric.chip_latency_ns >= 100 && c.fabric.chip_latency_ns <= 150);
        assert!(c.ib.one_way(64).as_nanos() < 1_000);
        assert_eq!(c.block_size, 512);
    }

    #[test]
    fn corner_builders() {
        let c = Calibration::paper().with_chip_latency(100);
        assert_eq!(c.fabric.chip_latency_ns, 100);
    }
}
