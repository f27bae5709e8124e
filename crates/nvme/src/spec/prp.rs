//! Physical Region Page (PRP) construction and walking — NVMe 1.3 §4.3.
//!
//! PRP1 may carry a byte offset into its page; every other entry must be
//! page aligned. Up to two pages are described inline (PRP1 + PRP2);
//! larger transfers put a pointer to a **PRP list** in PRP2.
//!
//! All entries are [`PhysAddr`]s in the *device's* bus-address domain:
//! callers on a remote host must translate through an NTB window before
//! building PRPs (the type makes forgetting that a visible `as_u64()`
//! escape instead of a silent integer copy).

use pcie::PhysAddr;

/// The memory page size PRPs are defined over.
pub const PAGE: u64 = 4096;

/// Why PRP construction or walking failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrpError {
    /// A non-first PRP entry has a page offset.
    UnalignedEntry(PhysAddr),
    /// Zero-length data transfer where one was required.
    EmptyTransfer,
    /// Transfer exceeds what a single-level PRP list can describe.
    TooLarge { pages: u64 },
}

impl std::fmt::Display for PrpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrpError::UnalignedEntry(a) => write!(f, "PRP entry {a} not page aligned"),
            PrpError::EmptyTransfer => write!(f, "zero-length PRP transfer"),
            PrpError::TooLarge { pages } => write!(f, "transfer of {pages} pages exceeds PRP list"),
        }
    }
}

impl std::error::Error for PrpError {}

/// Maximum pages describable: one PRP list page of 512 entries plus PRP1.
pub const MAX_PAGES: u64 = 513;

/// The PRP fields for one command, plus the list to place at `list_base`
/// when the transfer needs one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrpSet {
    /// First PRP entry (may carry a byte offset).
    pub prp1: PhysAddr,
    /// Second page or PRP-list pointer (`PhysAddr(0)` when unused).
    pub prp2: PhysAddr,
    /// Entries to be written at the list segment (`prp2`) before issuing.
    pub list: Vec<PhysAddr>,
}

/// Number of pages a transfer spans given the first-page byte offset.
pub fn pages_spanned(first_offset: u64, len: u64) -> u64 {
    (first_offset + len).div_ceil(PAGE)
}

/// Build PRPs for a physically contiguous buffer at `bus_addr`.
/// `list_base` is the (page-aligned) bus address of the caller's PRP-list
/// page, used only when more than two pages are spanned.
pub fn build_prps(bus_addr: PhysAddr, len: u64, list_base: PhysAddr) -> Result<PrpSet, PrpError> {
    if len == 0 {
        return Err(PrpError::EmptyTransfer);
    }
    let off = bus_addr.align_offset(PAGE);
    let pages = pages_spanned(off, len);
    if pages > MAX_PAGES {
        return Err(PrpError::TooLarge { pages });
    }
    let first_page = bus_addr.align_down(PAGE);
    if pages == 1 {
        return Ok(PrpSet {
            prp1: bus_addr,
            prp2: PhysAddr(0),
            list: Vec::new(),
        });
    }
    if pages == 2 {
        return Ok(PrpSet {
            prp1: bus_addr,
            prp2: first_page.offset(PAGE),
            list: Vec::new(),
        });
    }
    if list_base.align_offset(PAGE) != 0 {
        return Err(PrpError::UnalignedEntry(list_base));
    }
    let list: Vec<PhysAddr> = (1..pages).map(|i| first_page.offset(i * PAGE)).collect();
    Ok(PrpSet {
        prp1: bus_addr,
        prp2: list_base,
        list,
    })
}

/// Expand PRP entries into contiguous `(bus_addr, len)` DMA chunks, as the
/// controller does when executing a command. `rest` holds PRP2 (two-page
/// case) or the fetched PRP-list entries (list case). Every entry used is
/// checked before the first chunk is yielded.
pub fn chunks(prp1: PhysAddr, rest: &[PhysAddr], len: u64) -> Result<Chunks<'_>, PrpError> {
    if len == 0 {
        return Err(PrpError::EmptyTransfer);
    }
    let off = prp1.align_offset(PAGE);
    let first = (PAGE - off).min(len);
    let remaining = len - first;
    let used = &rest[..(remaining.div_ceil(PAGE) as usize).min(rest.len())];
    if let Some(&entry) = used.iter().find(|e| e.align_offset(PAGE) != 0) {
        return Err(PrpError::UnalignedEntry(entry));
    }
    if remaining > used.len() as u64 * PAGE {
        return Err(PrpError::TooLarge {
            pages: pages_spanned(off, len),
        });
    }
    Ok(Chunks {
        first: Some((prp1, first)),
        rest: used,
        remaining,
    })
}

/// The DMA chunks of one transfer, in order: PRP1's, then one per entry
/// used. Walking them allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunks<'a> {
    first: Option<(PhysAddr, u64)>,
    rest: &'a [PhysAddr],
    remaining: u64,
}

impl Iterator for Chunks<'_> {
    type Item = (PhysAddr, u64);

    fn next(&mut self) -> Option<(PhysAddr, u64)> {
        if let Some(first) = self.first.take() {
            return Some(first);
        }
        let (&entry, rest) = self.rest.split_first()?;
        let n = self.remaining.min(PAGE);
        (self.rest, self.remaining) = (rest, self.remaining - n);
        Some((entry, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_page_inline() {
        let s = build_prps(PhysAddr(0x1000_0200), 0x100, PhysAddr(0)).unwrap();
        assert_eq!(s.prp1, PhysAddr(0x1000_0200));
        assert_eq!(s.prp2, PhysAddr(0));
        assert!(s.list.is_empty());
        let c: Vec<_> = chunks(s.prp1, &[], 0x100).unwrap().collect();
        assert_eq!(c, vec![(PhysAddr(0x1000_0200), 0x100)]);
    }

    #[test]
    fn two_pages_inline() {
        // 4 KiB starting mid-page spans two pages.
        let s = build_prps(PhysAddr(0x1000_0800), 4096, PhysAddr(0)).unwrap();
        assert_eq!(s.prp2, PhysAddr(0x1000_1000));
        assert!(s.list.is_empty());
        let c: Vec<_> = chunks(s.prp1, &[s.prp2], 4096).unwrap().collect();
        assert_eq!(
            c,
            vec![
                (PhysAddr(0x1000_0800), 0x800),
                (PhysAddr(0x1000_1000), 0x800)
            ]
        );
    }

    #[test]
    fn aligned_4k_is_single_page() {
        let s = build_prps(PhysAddr(0x1000_0000), 4096, PhysAddr(0)).unwrap();
        assert_eq!(s.prp2, PhysAddr(0));
    }

    #[test]
    fn large_transfer_uses_list() {
        let s = build_prps(PhysAddr(0x2000_0000), 64 * 1024, PhysAddr(0x3000_0000)).unwrap();
        assert_eq!(s.prp1, PhysAddr(0x2000_0000));
        assert_eq!(s.prp2, PhysAddr(0x3000_0000));
        assert_eq!(s.list.len(), 15); // 16 pages, first in PRP1
        let c: Vec<_> = chunks(s.prp1, &s.list, 64 * 1024).unwrap().collect();
        assert_eq!(c.len(), 16);
        assert!(c.iter().all(|&(_, l)| l == 4096));
    }

    #[test]
    fn unaligned_list_entry_rejected() {
        assert!(matches!(
            chunks(PhysAddr(0x1000), &[PhysAddr(0x2004)], 8192),
            Err(PrpError::UnalignedEntry(PhysAddr(0x2004)))
        ));
    }

    #[test]
    fn zero_len_rejected() {
        assert_eq!(
            build_prps(PhysAddr(0x1000), 0, PhysAddr(0)),
            Err(PrpError::EmptyTransfer)
        );
        assert_eq!(
            chunks(PhysAddr(0x1000), &[], 0),
            Err(PrpError::EmptyTransfer)
        );
    }

    #[test]
    fn too_large_rejected() {
        let too_big = (MAX_PAGES + 1) * PAGE;
        assert!(matches!(
            build_prps(PhysAddr(0), too_big, PhysAddr(0x1000)),
            Err(PrpError::TooLarge { .. })
        ));
    }

    #[test]
    fn insufficient_entries_detected() {
        // 3 pages of data but only PRP1+PRP2 provided.
        assert!(matches!(
            chunks(PhysAddr(0x1000), &[PhysAddr(0x2000)], 3 * 4096),
            Err(PrpError::TooLarge { .. })
        ));
    }

    proptest! {
        /// build + chunks covers exactly [bus_addr, bus_addr+len) with
        /// contiguous, in-order chunks.
        #[test]
        fn build_then_walk_covers_buffer(
            page in 0x1000u64..0x10_0000,
            off in 0u64..PAGE,
            len in 1u64..(MAX_PAGES - 1) * PAGE,
        ) {
            let bus = PhysAddr(page * PAGE + off);
            prop_assume!(pages_spanned(off, len) <= MAX_PAGES);
            let s = build_prps(bus, len, PhysAddr(0xFFFF_0000)).unwrap();
            let rest: Vec<PhysAddr> = if s.list.is_empty() {
                if s.prp2 != PhysAddr(0) { vec![s.prp2] } else { vec![] }
            } else {
                s.list.clone()
            };
            let c = chunks(s.prp1, &rest, len).unwrap();
            // Coverage: chunks tile the buffer contiguously.
            let mut cursor = bus;
            let mut total = 0;
            for (a, l) in c {
                prop_assert_eq!(a, cursor);
                cursor = cursor.offset(l);
                total += l;
            }
            prop_assert_eq!(total, len);
        }
    }
}
