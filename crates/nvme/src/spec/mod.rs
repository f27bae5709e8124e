//! On-the-wire NVMe 1.3 structures: commands, completions, registers,
//! identify data, and PRP handling.

pub mod command;
pub mod completion;
pub mod identify;
pub mod opcode;
pub mod prp;
pub mod registers;
pub mod status;

pub use command::{SqEntry, SQE_SIZE};
pub use completion::{CqEntry, CQE_SIZE};
pub use identify::{IdentifyController, IdentifyNamespace};
pub use opcode::{AdminOpcode, NvmOpcode};
pub use status::Status;
