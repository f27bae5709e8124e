//! Access-pattern hints for segment allocation (§IV, last bullet).
//!
//! Instead of naming a host, the allocator is told who will *read* and who
//! will *write*. Reads over an NTB are non-posted (expensive round trips);
//! writes are posted (cheap). So the policy is: **place the segment next
//! to its reader** — the paper's Fig. 8 falls out of this automatically
//! (SQ is read by the device → device-side; CQ is read by the CPU →
//! CPU-side).

/// Who accesses a segment, and how.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessHints {
    /// The device reads (DMA fetch) from the segment.
    pub device_read: bool,
    /// The device writes (DMA deliver) into the segment.
    pub device_write: bool,
    /// The CPU reads/polls the segment.
    pub cpu_read: bool,
    /// The CPU writes into the segment.
    pub cpu_write: bool,
}

impl AccessHints {
    /// A submission queue: the CPU writes commands, the device reads them.
    pub fn sq() -> Self {
        AccessHints {
            device_read: true,
            cpu_write: true,
            ..Default::default()
        }
    }

    /// A completion queue: the device writes entries, the CPU polls them.
    pub fn cq() -> Self {
        AccessHints {
            device_write: true,
            cpu_read: true,
            ..Default::default()
        }
    }

    /// A data bounce buffer: everyone does everything.
    pub fn buffer() -> Self {
        AccessHints {
            device_read: true,
            device_write: true,
            cpu_read: true,
            cpu_write: true,
        }
    }

    /// Placement decision: `true` = allocate in the device's host.
    ///
    /// The reader wins; on a tie (both read, or neither reads) the segment
    /// stays CPU-side, because CPU polling latency is the pain the paper
    /// optimizes for and posted device reads pipeline better than CPU
    /// loads stall.
    pub fn prefers_device_side(&self) -> bool {
        self.device_read && !self.cpu_read
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sq_goes_device_side() {
        assert!(AccessHints::sq().prefers_device_side());
    }

    #[test]
    fn cq_stays_cpu_side() {
        assert!(!AccessHints::cq().prefers_device_side());
    }

    #[test]
    fn bounce_buffer_stays_cpu_side() {
        // Both sides read; CPU polling/copy locality wins (the paper's
        // client allocates the bounce buffer locally and lets the device
        // DMA across the fabric).
        assert!(!AccessHints::buffer().prefers_device_side());
    }

    #[test]
    fn default_is_cpu_side() {
        assert!(!AccessHints::default().prefers_device_side());
    }
}
