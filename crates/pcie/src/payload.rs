//! The bytes of one transfer, owned.
//!
//! Every simulated data movement — a doorbell, a CQE, a 4 KiB PRP chunk, a
//! 128 KiB bounce copy — is read somewhere only to be written somewhere
//! else, possibly a propagation delay later. A [`Payload`] is what travels
//! in between: it is taken by value at issue, queued, and handed to the
//! destination at the due instant, so the host never copies a byte it does
//! not have to.
//!
//! * up to [`INLINE_MAX`] bytes live inline — no heap allocation for a
//!   doorbell, an SQE or a CQE;
//! * whole pages travel as shared [`PageRef`]s. A page-aligned destination
//!   *adopts* them (see [`crate::memory::PageTable`]); sharing is
//!   copy-on-write, so a reference taken at one instant keeps reading what
//!   was there at that instant whatever is written afterwards;
//! * everything else is plain bytes.

use std::cell::RefCell;
use std::rc::Rc;

use crate::memory::PAGE_SIZE;

pub(crate) const PAGE: usize = PAGE_SIZE as usize;

/// One page of simulated DRAM or storage medium.
pub type Page = [u8; PAGE];

/// A shared page. `None` is the all-zero page: what a sparse table holds
/// for a page nobody wrote.
pub type PageRef = Option<Rc<Page>>;

/// Largest payload stored inline (an SQE is 64 B, a CQE 16 B).
pub const INLINE_MAX: usize = 64;

static ZERO_PAGE: Page = [0; PAGE];

/// The bytes of one transfer. Cheap to move; cloning shares pages.
#[derive(Clone, Debug)]
pub struct Payload(Repr);

#[derive(Clone, Debug)]
enum Repr {
    Inline {
        len: u8,
        bytes: [u8; INLINE_MAX],
    },
    /// Whole pages: `count` of them from `first` on in a shared list, so a
    /// page-aligned [`Payload::slice`] (one per PRP chunk) allocates nothing.
    Pages {
        list: Rc<[PageRef]>,
        first: usize,
        count: usize,
    },
    Bytes(Box<[u8]>),
}

impl Payload {
    /// A payload of whole pages, shared with whoever else holds them.
    pub fn from_pages(pages: impl IntoIterator<Item = PageRef>) -> Payload {
        let list: Rc<[PageRef]> = pages.into_iter().collect();
        let count = list.len();
        Payload(Repr::Pages {
            list,
            first: 0,
            count,
        })
    }

    /// `len` bytes produced by `fill`, which is handed a zeroed buffer.
    /// This is the copying constructor: what a source that cannot share
    /// pages (an unaligned range, a BAR) builds its payload with.
    pub fn filled_with(len: usize, fill: impl FnOnce(&mut [u8])) -> Payload {
        if len <= INLINE_MAX {
            let mut bytes = [0u8; INLINE_MAX];
            fill(&mut bytes[..len]);
            Payload(Repr::Inline {
                len: len as u8,
                bytes,
            })
        } else {
            let mut bytes = vec![0u8; len].into_boxed_slice();
            fill(&mut bytes);
            Payload(Repr::Bytes(bytes))
        }
    }

    /// `len` zero bytes; whole pages of them cost nothing.
    pub fn zeroed(len: usize) -> Payload {
        if len > 0 && len.is_multiple_of(PAGE) {
            Payload::from_pages(std::iter::repeat_n(None, len / PAGE))
        } else {
            Payload::filled_with(len, |_| {})
        }
    }

    /// Join consecutive pieces into one payload: by reference when every
    /// piece is whole pages, by copy otherwise.
    pub fn concat(mut parts: Vec<Payload>) -> Payload {
        if parts.len() == 1 {
            return parts.pop().expect("one part");
        }
        if parts.iter().all(|p| p.pages().is_some()) {
            let pages = parts.iter().flat_map(|p| p.pages().expect("checked"));
            return Payload::from_pages(pages.cloned());
        }
        let len = parts.iter().map(Payload::len).sum();
        Payload::filled_with(len, |buf| {
            let mut at = 0;
            for part in &parts {
                part.read_at(0, &mut buf[at..at + part.len()]);
                at += part.len();
            }
        })
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Pages { count, .. } => count * PAGE,
            Repr::Bytes(bytes) => bytes.len(),
        }
    }

    /// Whether the payload holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shared pages, when the payload is whole pages.
    pub fn pages(&self) -> Option<&[PageRef]> {
        match &self.0 {
            Repr::Pages { list, first, count } => Some(&list[*first..first + count]),
            Repr::Inline { .. } | Repr::Bytes(_) => None,
        }
    }

    /// The bytes as consecutive slices (one per page, or one in all).
    pub fn segments(&self) -> impl Iterator<Item = &[u8]> {
        let (flat, pages): (&[u8], &[PageRef]) = match &self.0 {
            Repr::Inline { len, bytes } => (&bytes[..usize::from(*len)], &[]),
            Repr::Bytes(bytes) => (bytes, &[]),
            Repr::Pages { .. } => (&[], self.pages().expect("page payload")),
        };
        let pages = pages.iter().map(|p| match p {
            Some(page) => &page[..],
            None => &ZERO_PAGE[..],
        });
        std::iter::once(flat).filter(|s| !s.is_empty()).chain(pages)
    }

    /// Copy the `buf.len()` bytes starting `off` bytes in.
    pub fn read_at(&self, off: usize, buf: &mut [u8]) {
        assert!(off + buf.len() <= self.len(), "read outside payload");
        let mut skip = off;
        let mut rest = buf;
        for seg in self.segments() {
            if rest.is_empty() {
                break;
            }
            if skip >= seg.len() {
                skip -= seg.len();
                continue;
            }
            let n = (seg.len() - skip).min(rest.len());
            let (head, tail) = rest.split_at_mut(n);
            head.copy_from_slice(&seg[skip..skip + n]);
            rest = tail;
            skip = 0;
        }
    }

    /// The bytes as a fresh `Vec` (tests, diagnostics).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len()];
        self.read_at(0, &mut out);
        out
    }

    /// The `len` bytes starting at `off` as a payload of their own: shared
    /// when both fall on this payload's page boundaries, copied otherwise.
    pub fn slice(&self, off: usize, len: usize) -> Payload {
        assert!(off + len <= self.len(), "slice outside payload");
        if let Repr::Pages { list, first, .. } = &self.0 {
            if len > 0 && off.is_multiple_of(PAGE) && len.is_multiple_of(PAGE) {
                return Payload(Repr::Pages {
                    list: list.clone(),
                    first: first + off / PAGE,
                    count: len / PAGE,
                });
            }
        }
        Payload::filled_with(len, |buf| self.read_at(off, buf))
    }
}

/// Copies the slice: inline when short, as freshly built pages when it is
/// a whole number of them (a page-aligned destination then adopts the
/// pages instead of copying a second time), as plain bytes otherwise.
impl From<&[u8]> for Payload {
    fn from(data: &[u8]) -> Payload {
        if !data.is_empty() && data.len().is_multiple_of(PAGE) {
            Payload::from_pages(data.chunks_exact(PAGE).map(|c| Some(new_page(c))))
        } else {
            Payload::filled_with(data.len(), |buf| buf.copy_from_slice(data))
        }
    }
}

thread_local! {
    /// Unshared pages a [`crate::memory::PageTable`] let go of (dropped
    /// with it, replaced by an adopted page, or freed), reused by
    /// [`new_page`]. A run that builds one simulated machine after another
    /// (every benchmark repetition prefills a fresh medium) would otherwise
    /// hand tens of MiB back to the operating system at each tear-down and
    /// page-fault them in again at the next build — the allocator trims a
    /// heap that is all free — which costs more than filling the pages.
    /// Every page a table allocates comes through [`new_page`], so the list
    /// is drawn down before the heap grows: live pages plus spare ones never
    /// exceed the most pages that were ever live at once.
    static SPARE_PAGES: RefCell<Vec<Rc<Page>>> = const { RefCell::new(Vec::new()) };
}

/// A fresh, unshared page holding exactly `bytes` (which must be
/// page-sized).
pub(crate) fn new_page(bytes: &[u8]) -> Rc<Page> {
    let spare = SPARE_PAGES
        .try_with(|s| s.borrow_mut().pop())
        .ok()
        .flatten();
    match spare {
        Some(mut page) => {
            let unshared = Rc::get_mut(&mut page).expect("spare pages are unshared");
            unshared.copy_from_slice(bytes);
            page
        }
        None => Rc::new(bytes.try_into().expect("page-sized chunk")),
    }
}

/// [`Rc::make_mut`], with the private copy of a shared page drawn from the
/// spare list like every other page.
pub(crate) fn make_mut(page: &mut Rc<Page>) -> &mut Page {
    if Rc::get_mut(page).is_none() {
        let copy = new_page(&page[..]);
        *page = copy;
    }
    Rc::get_mut(page).expect("just made unshared")
}

/// A fresh, unshared all-zero page.
pub(crate) fn zero_page() -> Rc<Page> {
    new_page(&ZERO_PAGE)
}

/// Pages on this thread's spare list.
#[cfg(test)]
pub(crate) fn spare_pages() -> usize {
    SPARE_PAGES.with(|s| s.borrow().len())
}

/// Keep `page` for [`new_page`] if nothing else refers to it.
pub(crate) fn recycle(mut page: Rc<Page>) {
    if Rc::get_mut(&mut page).is_some() {
        // `try_with`: a table dropped during thread tear-down just frees.
        let _ = SPARE_PAGES.try_with(|s| s.borrow_mut().push(page));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + i / PAGE) as u8).collect()
    }

    #[test]
    fn representation_follows_length() {
        assert!(matches!(
            Payload::from(&[1u8; 64][..]).0,
            Repr::Inline { len: 64, .. }
        ));
        assert!(matches!(Payload::from(&[1u8; 65][..]).0, Repr::Bytes(_)));
        assert!(matches!(
            Payload::from(&[1u8; 2 * PAGE][..]).0,
            Repr::Pages { count: 2, .. }
        ));
        assert!(matches!(
            Payload::from(&[1u8; PAGE + 512][..]).0,
            Repr::Bytes(_)
        ));
        assert_eq!(Payload::zeroed(PAGE).pages().unwrap(), [None]);
        assert!(Payload::from(&[][..]).is_empty());
    }

    #[test]
    fn bytes_survive_every_representation() {
        for len in [0, 1, 16, 64, 65, 512, PAGE, PAGE + 512, 3 * PAGE] {
            let data = pattern(len);
            let p = Payload::from(&data[..]);
            assert_eq!(p.len(), len);
            assert_eq!(p.to_vec(), data, "len {len}");
            assert_eq!(p.segments().map(<[u8]>::len).sum::<usize>(), len);
        }
        assert_eq!(Payload::zeroed(2 * PAGE).to_vec(), vec![0u8; 2 * PAGE]);
        assert_eq!(Payload::zeroed(100).to_vec(), vec![0u8; 100]);
    }

    #[test]
    fn aligned_slices_share_pages_and_others_copy() {
        let data = pattern(4 * PAGE);
        let p = Payload::from(&data[..]);
        let one = p.slice(2 * PAGE, PAGE);
        let shared =
            |a: &PageRef, b: &PageRef| Rc::ptr_eq(a.as_ref().unwrap(), b.as_ref().unwrap());
        assert!(shared(&one.pages().unwrap()[0], &p.pages().unwrap()[2]));
        let two = p.slice(PAGE, 2 * PAGE);
        assert!(shared(&two.pages().unwrap()[1], &p.pages().unwrap()[2]));
        for (off, len) in [(0, 0), (1, 10), (100, PAGE), (PAGE - 1, 2), (512, 3 * PAGE)] {
            let s = p.slice(off, len);
            assert!(s.pages().is_none());
            assert_eq!(s.to_vec(), &data[off..off + len], "{off}+{len}");
        }
    }

    #[test]
    fn concat_shares_whole_pages_and_copies_the_rest() {
        let data = pattern(3 * PAGE);
        let p = Payload::from(&data[..]);
        let joined = Payload::concat(vec![p.slice(0, PAGE), p.slice(PAGE, 2 * PAGE)]);
        assert_eq!(joined.pages().unwrap().len(), 3);
        assert_eq!(joined.to_vec(), data);
        let ragged = Payload::concat(vec![
            p.slice(0, 512),
            p.slice(512, PAGE),
            p.slice(512 + PAGE, 8),
        ]);
        assert!(ragged.pages().is_none());
        assert_eq!(ragged.to_vec(), &data[..PAGE + 520]);
    }
}
