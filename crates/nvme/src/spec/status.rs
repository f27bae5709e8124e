//! Completion status field — NVMe 1.3 §4.6.1.

/// Status Code Type + Status Code, as packed into CQE DW3 bits 31:17.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Status {
    /// Status Code Type (0 = generic, 1 = command specific, 2 = media).
    pub sct: u8,
    /// Status Code.
    pub sc: u8,
}

impl Status {
    /// Successful completion.
    pub const SUCCESS: Status = Status { sct: 0, sc: 0x00 };
    /// Invalid command opcode.
    pub const INVALID_OPCODE: Status = Status { sct: 0, sc: 0x01 };
    /// Invalid field in command.
    pub const INVALID_FIELD: Status = Status { sct: 0, sc: 0x02 };
    /// Data transfer error.
    pub const DATA_TRANSFER_ERROR: Status = Status { sct: 0, sc: 0x04 };
    /// Invalid namespace or format.
    pub const INVALID_NAMESPACE: Status = Status { sct: 0, sc: 0x0B };
    /// LBA out of range.
    pub const LBA_OUT_OF_RANGE: Status = Status { sct: 0, sc: 0x80 };
    // Command-specific (SCT=1):
    /// Invalid queue identifier.
    pub const INVALID_QUEUE_ID: Status = Status { sct: 1, sc: 0x01 };
    /// Invalid queue size.
    pub const INVALID_QUEUE_SIZE: Status = Status { sct: 1, sc: 0x02 };
    /// Invalid PRP offset.
    pub const INVALID_PRP_OFFSET: Status = Status { sct: 1, sc: 0x13 };

    /// Whether the command succeeded.
    pub fn is_success(self) -> bool {
        self == Status::SUCCESS
    }

    /// Pack into the 15-bit status field (SC in bits 7:0, SCT in 10:8).
    pub fn to_field(self) -> u16 {
        (self.sc as u16) | ((self.sct as u16 & 0x7) << 8)
    }

    /// Unpack from the 15-bit status field.
    pub fn from_field(f: u16) -> Status {
        Status {
            sc: (f & 0xFF) as u8,
            sct: ((f >> 8) & 0x7) as u8,
        }
    }
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_success() {
            write!(f, "SUCCESS")
        } else {
            write!(f, "sct={:#x} sc={:#x}", self.sct, self.sc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_roundtrip() {
        for s in [
            Status::SUCCESS,
            Status::INVALID_OPCODE,
            Status::LBA_OUT_OF_RANGE,
            Status::INVALID_QUEUE_ID,
            Status::INVALID_PRP_OFFSET,
        ] {
            assert_eq!(Status::from_field(s.to_field()), s);
        }
    }

    #[test]
    fn success_check() {
        assert!(Status::SUCCESS.is_success());
        assert!(!Status::INVALID_FIELD.is_success());
    }
}
