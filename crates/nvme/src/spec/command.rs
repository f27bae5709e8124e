//! Submission Queue Entry (64 bytes) — NVMe 1.3 §4.2.

use super::opcode::{cns, feature, AdminOpcode, NvmOpcode};
use pcie::PhysAddr;

/// Byte size of a submission queue entry.
pub const SQE_SIZE: usize = 64;

/// A decoded submission queue entry. Field names follow the spec.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct SqEntry {
    /// Command opcode (admin or NVM set, per the queue).
    pub opcode: u8,
    /// Fused-operation bits (unused here).
    pub fuse: u8,
    /// Command identifier, echoed in the completion.
    pub cid: u16,
    /// Namespace id.
    pub nsid: u32,
    /// Metadata pointer (unused).
    pub mptr: u64,
    /// First PRP entry (a device-domain bus address, may carry an
    /// offset).
    pub prp1: PhysAddr,
    /// Second PRP entry or PRP-list pointer.
    pub prp2: PhysAddr,
    /// Command dword 10.
    pub cdw10: u32,
    /// Command dword 11.
    pub cdw11: u32,
    /// Command dword 12.
    pub cdw12: u32,
    /// Command dword 13.
    pub cdw13: u32,
    /// Command dword 14.
    pub cdw14: u32,
    /// Command dword 15.
    pub cdw15: u32,
}

impl SqEntry {
    /// Serialize to the 64-byte on-wire layout.
    pub fn encode(&self) -> [u8; SQE_SIZE] {
        let mut b = [0u8; SQE_SIZE];
        let dw0 =
            (self.opcode as u32) | ((self.fuse as u32 & 0x3) << 8) | ((self.cid as u32) << 16);
        b[0..4].copy_from_slice(&dw0.to_le_bytes());
        b[4..8].copy_from_slice(&self.nsid.to_le_bytes());
        // DW2-3 reserved.
        b[16..24].copy_from_slice(&self.mptr.to_le_bytes());
        b[24..32].copy_from_slice(&self.prp1.to_le_bytes());
        b[32..40].copy_from_slice(&self.prp2.to_le_bytes());
        b[40..44].copy_from_slice(&self.cdw10.to_le_bytes());
        b[44..48].copy_from_slice(&self.cdw11.to_le_bytes());
        b[48..52].copy_from_slice(&self.cdw12.to_le_bytes());
        b[52..56].copy_from_slice(&self.cdw13.to_le_bytes());
        b[56..60].copy_from_slice(&self.cdw14.to_le_bytes());
        b[60..64].copy_from_slice(&self.cdw15.to_le_bytes());
        b
    }

    /// Parse a 64-byte submission queue entry.
    pub fn decode(b: &[u8; SQE_SIZE]) -> SqEntry {
        let dw = |i: usize| u32::from_le_bytes(b[i..i + 4].try_into().unwrap());
        let qw = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
        let dw0 = dw(0);
        SqEntry {
            opcode: (dw0 & 0xFF) as u8,
            fuse: ((dw0 >> 8) & 0x3) as u8,
            cid: (dw0 >> 16) as u16,
            nsid: dw(4),
            mptr: qw(16),
            prp1: PhysAddr(qw(24)),
            prp2: PhysAddr(qw(32)),
            cdw10: dw(40),
            cdw11: dw(44),
            cdw12: dw(48),
            cdw13: dw(52),
            cdw14: dw(56),
            cdw15: dw(60),
        }
    }

    // ---------------- builders: NVM command set ----------------

    /// NVM Read: `nlb0` is the 0-based block count (spec encoding).
    pub fn read(
        cid: u16,
        nsid: u32,
        slba: u64,
        nlb0: u16,
        prp1: PhysAddr,
        prp2: PhysAddr,
    ) -> SqEntry {
        SqEntry {
            opcode: NvmOpcode::Read as u8,
            cid,
            nsid,
            prp1,
            prp2,
            cdw10: slba as u32,
            cdw11: (slba >> 32) as u32,
            cdw12: nlb0 as u32,
            ..Default::default()
        }
    }

    /// NVM Write.
    pub fn write(
        cid: u16,
        nsid: u32,
        slba: u64,
        nlb0: u16,
        prp1: PhysAddr,
        prp2: PhysAddr,
    ) -> SqEntry {
        SqEntry {
            opcode: NvmOpcode::Write as u8,
            ..Self::read(cid, nsid, slba, nlb0, prp1, prp2)
        }
    }

    /// NVM Flush.
    pub fn flush(cid: u16, nsid: u32) -> SqEntry {
        SqEntry {
            opcode: NvmOpcode::Flush as u8,
            cid,
            nsid,
            ..Default::default()
        }
    }

    /// Dataset Management (deallocate): `nr0` is the 0-based range count;
    /// PRP1 points at the range list.
    pub fn dataset_management(
        cid: u16,
        nsid: u32,
        nr0: u8,
        deallocate: bool,
        prp1: PhysAddr,
    ) -> SqEntry {
        SqEntry {
            opcode: NvmOpcode::DatasetManagement as u8,
            cid,
            nsid,
            prp1,
            cdw10: nr0 as u32,
            cdw11: if deallocate { 0x4 } else { 0 },
            ..Default::default()
        }
    }

    /// Get Log Page: `numd0` is the 0-based dword count to transfer.
    pub fn get_log_page(cid: u16, lid: u32, numd0: u16, prp1: PhysAddr) -> SqEntry {
        SqEntry {
            opcode: AdminOpcode::GetLogPage as u8,
            cid,
            nsid: 0xFFFF_FFFF,
            prp1,
            cdw10: (lid & 0xFF) | ((numd0 as u32) << 16),
            ..Default::default()
        }
    }

    /// NVM Write Zeroes (`nlb0` 0-based).
    pub fn write_zeroes(cid: u16, nsid: u32, slba: u64, nlb0: u16) -> SqEntry {
        SqEntry {
            opcode: NvmOpcode::WriteZeroes as u8,
            cid,
            nsid,
            cdw10: slba as u32,
            cdw11: (slba >> 32) as u32,
            cdw12: nlb0 as u32,
            ..Default::default()
        }
    }

    /// Starting LBA of an I/O command.
    pub fn slba(&self) -> u64 {
        self.cdw10 as u64 | ((self.cdw11 as u64) << 32)
    }

    /// 1-based block count of an I/O command.
    pub fn num_blocks(&self) -> u64 {
        (self.cdw12 & 0xFFFF) as u64 + 1
    }

    // ---------------- builders: admin command set ----------------

    /// Admin Identify with an explicit CNS.
    pub fn identify(cid: u16, cns_value: u32, nsid: u32, prp1: PhysAddr) -> SqEntry {
        SqEntry {
            opcode: AdminOpcode::Identify as u8,
            cid,
            nsid,
            prp1,
            cdw10: cns_value,
            ..Default::default()
        }
    }

    /// Admin Identify Controller.
    pub fn identify_controller(cid: u16, prp1: PhysAddr) -> SqEntry {
        Self::identify(cid, cns::CONTROLLER, 0, prp1)
    }

    /// Admin Identify Namespace.
    pub fn identify_namespace(cid: u16, nsid: u32, prp1: PhysAddr) -> SqEntry {
        Self::identify(cid, cns::NAMESPACE, nsid, prp1)
    }

    /// Create I/O Completion Queue: `size0` is 0-based; `iv` the MSI vector
    /// when interrupts are enabled.
    pub fn create_io_cq(
        cid: u16,
        qid: u16,
        size0: u16,
        prp1: PhysAddr,
        iv: Option<u16>,
    ) -> SqEntry {
        let mut cdw11 = 0x1; // PC: physically contiguous
        if let Some(v) = iv {
            cdw11 |= 0x2 | ((v as u32) << 16); // IEN + vector
        }
        SqEntry {
            opcode: AdminOpcode::CreateIoCq as u8,
            cid,
            prp1,
            cdw10: qid as u32 | ((size0 as u32) << 16),
            cdw11,
            ..Default::default()
        }
    }

    /// Create I/O Submission Queue bound to `cqid`.
    pub fn create_io_sq(cid: u16, qid: u16, size0: u16, prp1: PhysAddr, cqid: u16) -> SqEntry {
        SqEntry {
            opcode: AdminOpcode::CreateIoSq as u8,
            cid,
            prp1,
            cdw10: qid as u32 | ((size0 as u32) << 16),
            cdw11: 0x1 | ((cqid as u32) << 16), // PC + CQID
            ..Default::default()
        }
    }

    /// Admin Delete I/O Submission Queue.
    pub fn delete_io_sq(cid: u16, qid: u16) -> SqEntry {
        SqEntry {
            opcode: AdminOpcode::DeleteIoSq as u8,
            cid,
            cdw10: qid as u32,
            ..Default::default()
        }
    }

    /// Admin Delete I/O Completion Queue.
    pub fn delete_io_cq(cid: u16, qid: u16) -> SqEntry {
        SqEntry {
            opcode: AdminOpcode::DeleteIoCq as u8,
            cid,
            cdw10: qid as u32,
            ..Default::default()
        }
    }

    /// Admin Abort: ask the controller to abort the command `target_cid`
    /// submitted on SQ `sqid` (NVMe 1.3 §5.1). Best-effort per spec: the
    /// completion's DW0 bit 0 is **set** when the command was *not*
    /// aborted.
    pub fn abort(cid: u16, sqid: u16, target_cid: u16) -> SqEntry {
        SqEntry {
            opcode: AdminOpcode::Abort as u8,
            cid,
            cdw10: sqid as u32 | ((target_cid as u32) << 16),
            ..Default::default()
        }
    }

    /// Set Features / Number of Queues: request `nsq`/`ncq` I/O queues
    /// (0-based per spec).
    pub fn set_num_queues(cid: u16, nsq0: u16, ncq0: u16) -> SqEntry {
        SqEntry {
            opcode: AdminOpcode::SetFeatures as u8,
            cid,
            cdw10: feature::NUM_QUEUES,
            cdw11: nsq0 as u32 | ((ncq0 as u32) << 16),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn read_command_fields() {
        let sqe = SqEntry::read(
            42,
            1,
            0x1_2345_6789,
            7,
            PhysAddr(0xDEAD000),
            PhysAddr(0xBEEF000),
        );
        assert_eq!(sqe.slba(), 0x1_2345_6789);
        assert_eq!(sqe.num_blocks(), 8);
        assert_eq!(sqe.cid, 42);
        let enc = sqe.encode();
        assert_eq!(SqEntry::decode(&enc), sqe);
    }

    #[test]
    fn create_queue_encodings() {
        let cq = SqEntry::create_io_cq(1, 3, 255, PhysAddr(0x1000), Some(5));
        assert_eq!(cq.cdw10 & 0xFFFF, 3);
        assert_eq!(cq.cdw10 >> 16, 255);
        assert_eq!(cq.cdw11 & 0x3, 0x3); // PC + IEN
        assert_eq!(cq.cdw11 >> 16, 5);
        let sq = SqEntry::create_io_sq(2, 3, 255, PhysAddr(0x2000), 3);
        assert_eq!(sq.cdw11 >> 16, 3);
        assert_eq!(sq.cdw11 & 1, 1);
    }

    #[test]
    fn dw0_packing() {
        let sqe = SqEntry {
            opcode: 0xAB,
            fuse: 2,
            cid: 0xCDEF,
            ..Default::default()
        };
        let enc = sqe.encode();
        let dw0 = u32::from_le_bytes(enc[0..4].try_into().unwrap());
        assert_eq!(dw0 & 0xFF, 0xAB);
        assert_eq!((dw0 >> 8) & 0x3, 2);
        assert_eq!(dw0 >> 16, 0xCDEF);
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip(
            opcode in any::<u8>(),
            fuse in 0u8..4,
            cid in any::<u16>(),
            nsid in any::<u32>(),
            mptr in any::<u64>(),
            prp1 in any::<u64>(),
            prp2 in any::<u64>(),
            cdws in any::<[u32; 6]>(),
        ) {
            let sqe = SqEntry {
                opcode, fuse, cid, nsid, mptr,
                prp1: PhysAddr(prp1), prp2: PhysAddr(prp2),
                cdw10: cdws[0], cdw11: cdws[1], cdw12: cdws[2],
                cdw13: cdws[3], cdw14: cdws[4], cdw15: cdws[5],
            };
            prop_assert_eq!(SqEntry::decode(&sqe.encode()), sqe);
        }

        #[test]
        fn slba_roundtrip(slba in any::<u64>(), nlb in 0u16..=0xFFFF) {
            let sqe = SqEntry::read(0, 1, slba, nlb, PhysAddr(0), PhysAddr(0));
            prop_assert_eq!(sqe.slba(), slba);
            prop_assert_eq!(sqe.num_blocks(), nlb as u64 + 1);
        }
    }
}
