//! Shared-memory wire formats for the distributed driver's control plane:
//! the metadata segment the manager publishes, and the mailbox protocol
//! clients use to request queue pairs.
//!
//! Everything here travels through SISCI segments as raw bytes — both
//! sides may be different machines, so the layouts are explicit
//! little-endian, versioned by a magic word.

use pcie::PhysAddr;

/// Magic identifying a dnvme metadata segment.
pub const META_MAGIC: u32 = 0x444E_564D; // "DNVM"

/// Size of the metadata blob.
pub const META_LEN: usize = 64;

/// One mailbox slot per client host.
pub const MAILBOX_SLOT: usize = 64;

/// Mailbox slots the manager publishes: one per possible client host.
pub(crate) const MAILBOX_SLOTS: u32 = 64;

/// Size of a client's response area.
pub const RESPONSE_LEN: usize = 16;

/// The `N` bytes of `b` from `at` on, for the fixed-width fields of the
/// layouts below. Like the slice it copies, it panics if they run past
/// the end of `b`.
fn field<const N: usize>(b: &[u8], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&b[at..at + N]);
    out
}

/// Metadata the manager publishes about a managed controller (§V: "a
/// shared memory segment associated with the controller with metadata
/// about the manager, such as which host it runs on").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metadata {
    /// Must equal [`META_MAGIC`].
    pub magic: u32,
    /// Host running the manager module.
    pub manager_host: u16,
    /// I/O queue pairs the controller grants (31 on the P4800X).
    pub max_qpairs: u16,
    /// Namespace logical block size in bytes.
    pub block_size: u32,
    /// Namespace capacity in logical blocks.
    pub capacity_blocks: u64,
    /// Segment id of the mailbox.
    pub mailbox_segment: u32,
    /// Segment id exporting the controller's BAR0.
    pub bar_segment: u32,
    /// Number of mailbox slots (one per host).
    pub mailbox_slots: u32,
    /// Client lease duration in nanoseconds; 0 disables the lease
    /// protocol. When non-zero, a client that stops heartbeating for this
    /// long is presumed crashed and its queue pairs are reclaimed.
    pub lease_nanos: u64,
}

impl Metadata {
    /// Serialize to the shared-memory layout.
    pub fn encode(&self) -> [u8; META_LEN] {
        let mut b = [0u8; META_LEN];
        b[0..4].copy_from_slice(&self.magic.to_le_bytes());
        b[4..6].copy_from_slice(&self.manager_host.to_le_bytes());
        b[6..8].copy_from_slice(&self.max_qpairs.to_le_bytes());
        b[8..12].copy_from_slice(&self.block_size.to_le_bytes());
        b[16..24].copy_from_slice(&self.capacity_blocks.to_le_bytes());
        b[24..28].copy_from_slice(&self.mailbox_segment.to_le_bytes());
        b[28..32].copy_from_slice(&self.bar_segment.to_le_bytes());
        b[32..36].copy_from_slice(&self.mailbox_slots.to_le_bytes());
        b[36..44].copy_from_slice(&self.lease_nanos.to_le_bytes());
        b
    }

    /// Parse from the shared-memory layout.
    pub fn decode(b: &[u8; META_LEN]) -> Metadata {
        Metadata {
            magic: u32::from_le_bytes(field(b, 0)),
            manager_host: u16::from_le_bytes(field(b, 4)),
            max_qpairs: u16::from_le_bytes(field(b, 6)),
            block_size: u32::from_le_bytes(field(b, 8)),
            capacity_blocks: u64::from_le_bytes(field(b, 16)),
            mailbox_segment: u32::from_le_bytes(field(b, 24)),
            bar_segment: u32::from_le_bytes(field(b, 28)),
            mailbox_slots: u32::from_le_bytes(field(b, 32)),
            lease_nanos: u64::from_le_bytes(field(b, 36)),
        }
    }

    /// Whether the magic matches.
    pub fn valid(&self) -> bool {
        self.magic == META_MAGIC
    }
}

/// Requests a client writes into its mailbox slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// Create an I/O queue pair with rings at the given *bus* addresses
    /// (already resolved by SmartIO for the device). Clients poll, so the
    /// CQ is created with interrupts off.
    CreateQp {
        entries: u16,
        sq_bus: PhysAddr,
        cq_bus: PhysAddr,
    },
    /// Delete a previously granted queue pair.
    DeleteQp { qid: u16 },
    /// Lease keep-alive; carries no other payload.
    Heartbeat,
}

const OP_CREATE: u32 = 1;
const OP_DELETE: u32 = 2;
const OP_HEARTBEAT: u32 = 4;
// Opcodes 3 and 5 are reserved. 3 asked the manager to Abort a command,
// which in this model always found it completed already; 5 asked it to
// reset the controller, a device-wide action no tenant may ask for.

/// A stamped request as written into a mailbox slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotMessage {
    /// Monotonically increasing per slot; a new value marks a new request.
    pub seq: u32,
    /// Retransmission counter: a client that times out waiting for the
    /// response rewrites the *same* request with `retry` bumped, and the
    /// manager answers with its cached response (idempotent retry).
    pub retry: u32,
    /// The client's response segment: where the manager writes the answer.
    pub response_segment: u32,
    /// The request payload.
    pub request: Request,
}

impl SlotMessage {
    /// Serialize to one mailbox slot.
    pub fn encode(&self) -> [u8; MAILBOX_SLOT] {
        let mut b = [0u8; MAILBOX_SLOT];
        b[4..8].copy_from_slice(&self.seq.to_le_bytes());
        let op = match self.request {
            Request::CreateQp {
                entries,
                sq_bus,
                cq_bus,
            } => {
                b[12..14].copy_from_slice(&entries.to_le_bytes());
                // Reserved; the "no interrupt vector" value the layout
                // has always carried there.
                b[14..16].copy_from_slice(&0xFFFFu16.to_le_bytes());
                b[16..24].copy_from_slice(&sq_bus.to_le_bytes());
                b[24..32].copy_from_slice(&cq_bus.to_le_bytes());
                OP_CREATE
            }
            Request::DeleteQp { qid } => {
                b[12..14].copy_from_slice(&qid.to_le_bytes());
                OP_DELETE
            }
            Request::Heartbeat => OP_HEARTBEAT,
        };
        b[8..12].copy_from_slice(&op.to_le_bytes());
        b[32..36].copy_from_slice(&self.response_segment.to_le_bytes());
        // The retry counter sits outside the torn-write guard: a torn
        // retry value can at worst trigger (or miss) one duplicate
        // response re-send, which is idempotent by construction.
        b[60..64].copy_from_slice(&self.retry.to_le_bytes());
        // Sequence word first in memory order would race the payload on a
        // real fabric; we write it last within the slot and the client
        // issues it in one posted burst, which PCIe keeps ordered.
        b[0..4].copy_from_slice(&self.seq.to_le_bytes());
        b
    }

    /// Parse a slot; `None` for torn or unknown contents.
    pub fn decode(b: &[u8; MAILBOX_SLOT]) -> Option<SlotMessage> {
        let seq = u32::from_le_bytes(field(b, 0));
        let seq2 = u32::from_le_bytes(field(b, 4));
        if seq != seq2 {
            return None; // torn write in flight
        }
        let op = u32::from_le_bytes(field(b, 8));
        let request = match op {
            OP_CREATE => Request::CreateQp {
                entries: u16::from_le_bytes(field(b, 12)),
                sq_bus: PhysAddr(u64::from_le_bytes(field(b, 16))),
                cq_bus: PhysAddr(u64::from_le_bytes(field(b, 24))),
            },
            OP_DELETE => Request::DeleteQp {
                qid: u16::from_le_bytes(field(b, 12)),
            },
            OP_HEARTBEAT => Request::Heartbeat,
            _ => return None,
        };
        Some(SlotMessage {
            seq,
            retry: u32::from_le_bytes(field(b, 60)),
            response_segment: u32::from_le_bytes(field(b, 32)),
            request,
        })
    }
}

/// Manager's answer, written into the client's response segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Response {
    /// Per-slot sequence number; a new value marks a new message.
    pub seq: u32,
    /// 0 = OK; otherwise an error code.
    pub status: u32,
    /// Granted queue id (CreateQp).
    pub qid: u16,
}

/// Response status codes.
pub mod status {
    /// Request succeeded.
    pub const OK: u32 = 0;
    /// All I/O queue pairs are granted.
    pub const NO_FREE_QPAIR: u32 = 1;
    /// The admin command behind the request failed.
    pub const ADMIN_FAILED: u32 = 2;
    /// Malformed or invalid request.
    pub const BAD_REQUEST: u32 = 3;
    /// The slot does not own the named queue pair.
    pub const NOT_OWNER: u32 = 4;
}

impl Response {
    /// A success naming `qid`; the manager stamps `seq` when it answers.
    pub fn ok(qid: u16) -> Response {
        Response::error(status::OK, qid)
    }

    /// An answer with status `status` naming `qid`, unstamped.
    pub fn error(status: u32, qid: u16) -> Response {
        Response {
            seq: 0,
            status,
            qid,
        }
    }

    /// Serialize to the response area layout. Bytes 10..16 are reserved
    /// zeros.
    pub fn encode(&self) -> [u8; RESPONSE_LEN] {
        let mut b = [0u8; RESPONSE_LEN];
        b[4..8].copy_from_slice(&self.status.to_le_bytes());
        b[8..10].copy_from_slice(&self.qid.to_le_bytes());
        b[0..4].copy_from_slice(&self.seq.to_le_bytes());
        b
    }

    /// Parse from the response area layout.
    pub fn decode(b: &[u8; RESPONSE_LEN]) -> Response {
        Response {
            seq: u32::from_le_bytes(field(b, 0)),
            status: u32::from_le_bytes(field(b, 4)),
            qid: u16::from_le_bytes(field(b, 8)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_roundtrip() {
        let m = Metadata {
            magic: META_MAGIC,
            manager_host: 2,
            max_qpairs: 31,
            block_size: 512,
            capacity_blocks: 1 << 20,
            mailbox_segment: 7,
            bar_segment: 3,
            mailbox_slots: 64,
            lease_nanos: 5_000_000,
        };
        let dec = Metadata::decode(&m.encode());
        assert_eq!(dec, m);
        assert!(dec.valid());
    }

    #[test]
    fn invalid_magic_detected() {
        let m = Metadata::decode(&[0u8; META_LEN]);
        assert!(!m.valid());
    }

    #[test]
    fn create_request_roundtrip() {
        let msg = SlotMessage {
            seq: 9,
            retry: 0,
            response_segment: 12,
            request: Request::CreateQp {
                entries: 256,
                sq_bus: PhysAddr(0xDEAD_0000),
                cq_bus: PhysAddr(0xBEEF_0000),
            },
        };
        assert_eq!(SlotMessage::decode(&msg.encode()), Some(msg));
    }

    /// The slot bytes of one CreateQp, as the encoder that carried the
    /// response segment inside every request variant wrote them: the
    /// segment moved onto the message, the wire layout did not move.
    /// Bytes 14..16 are reserved and hold 0xFFFF, the value a polling
    /// client always wrote there; bytes 36..38 are reserved zeros.
    #[test]
    fn create_slot_bytes_are_pinned() {
        let msg = SlotMessage {
            seq: 9,
            retry: 2,
            response_segment: 12,
            request: Request::CreateQp {
                entries: 256,
                sq_bus: PhysAddr(0xDEAD_0000),
                cq_bus: PhysAddr(0xBEEF_0000),
            },
        };
        let mut want = [0u8; MAILBOX_SLOT];
        want[..38].copy_from_slice(&[
            9, 0, 0, 0, 9, 0, 0, 0, // seq, written twice (torn-write guard)
            1, 0, 0, 0, // OP_CREATE
            0, 1, 0xFF, 0xFF, // entries = 256, reserved
            0, 0, 0xAD, 0xDE, 0, 0, 0, 0, // sq_bus
            0, 0, 0xEF, 0xBE, 0, 0, 0, 0, // cq_bus
            12, 0, 0, 0, // response segment
            0, 0, // reserved
        ]);
        want[60..].copy_from_slice(&[2, 0, 0, 0]); // retry
        assert_eq!(msg.encode(), want);
    }

    #[test]
    fn delete_request_roundtrip() {
        let msg = SlotMessage {
            seq: 10,
            retry: 0,
            response_segment: 12,
            request: Request::DeleteQp { qid: 5 },
        };
        assert_eq!(SlotMessage::decode(&msg.encode()), Some(msg));
    }

    #[test]
    fn recovery_request_roundtrips() {
        let msg = SlotMessage {
            seq: 21,
            retry: 1,
            response_segment: 9,
            request: Request::Heartbeat,
        };
        assert_eq!(SlotMessage::decode(&msg.encode()), Some(msg));
    }

    #[test]
    fn torn_write_rejected() {
        let msg = SlotMessage {
            seq: 3,
            retry: 0,
            response_segment: 2,
            request: Request::DeleteQp { qid: 1 },
        };
        let mut raw = msg.encode();
        raw[0] = 0xFF; // seq words disagree
        assert_eq!(SlotMessage::decode(&raw), None);
    }

    #[test]
    fn unknown_opcode_rejected() {
        // 3 and 5 are the retired Abort and controller-reset opcodes.
        for op in [3u8, 5, 0x77] {
            let mut raw = [0u8; MAILBOX_SLOT];
            raw[8] = op;
            assert_eq!(SlotMessage::decode(&raw), None);
        }
    }

    #[test]
    fn response_roundtrip() {
        let r = Response {
            seq: 4,
            status: status::OK,
            qid: 17,
        };
        assert_eq!(Response::decode(&r.encode()), r);
    }
}
