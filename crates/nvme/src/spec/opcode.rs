//! Admin and NVM (I/O) command set opcodes — NVMe 1.3, §5 and §6.

/// Admin command set opcodes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum AdminOpcode {
    /// Delete I/O Submission Queue.
    DeleteIoSq = 0x00,
    /// Create I/O Submission Queue.
    CreateIoSq = 0x01,
    /// Delete I/O Completion Queue.
    DeleteIoCq = 0x04,
    /// Create I/O Completion Queue.
    CreateIoCq = 0x05,
    /// Identify.
    Identify = 0x06,
    /// Set Features.
    SetFeatures = 0x09,
}

impl AdminOpcode {
    /// Decode an opcode byte, if known.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0x00 => AdminOpcode::DeleteIoSq,
            0x01 => AdminOpcode::CreateIoSq,
            0x04 => AdminOpcode::DeleteIoCq,
            0x05 => AdminOpcode::CreateIoCq,
            0x06 => AdminOpcode::Identify,
            0x09 => AdminOpcode::SetFeatures,
            _ => return None,
        })
    }
}

/// NVM command set opcodes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum NvmOpcode {
    /// Flush.
    Flush = 0x00,
    /// Write.
    Write = 0x01,
    /// Read.
    Read = 0x02,
}

impl NvmOpcode {
    /// Decode an opcode byte, if known.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0x00 => NvmOpcode::Flush,
            0x01 => NvmOpcode::Write,
            0x02 => NvmOpcode::Read,
            _ => return None,
        })
    }
}

/// Feature identifiers (Set Features).
pub mod feature {
    /// Number of Queues (NCQR/NSQR in CDW11, allocated counts in DW0).
    pub const NUM_QUEUES: u32 = 0x07;
}

/// Identify CNS values.
pub mod cns {
    /// Identify Namespace.
    pub const NAMESPACE: u32 = 0x00;
    /// Identify Controller.
    pub const CONTROLLER: u32 = 0x01;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admin_roundtrip() {
        for op in [
            AdminOpcode::DeleteIoSq,
            AdminOpcode::CreateIoSq,
            AdminOpcode::DeleteIoCq,
            AdminOpcode::CreateIoCq,
            AdminOpcode::Identify,
            AdminOpcode::SetFeatures,
        ] {
            assert_eq!(AdminOpcode::from_u8(op as u8), Some(op));
        }
        assert_eq!(AdminOpcode::from_u8(0xFF), None);
    }

    #[test]
    fn nvm_roundtrip() {
        for op in [NvmOpcode::Flush, NvmOpcode::Write, NvmOpcode::Read] {
            assert_eq!(NvmOpcode::from_u8(op as u8), Some(op));
        }
        assert_eq!(NvmOpcode::from_u8(0x99), None);
    }
}
