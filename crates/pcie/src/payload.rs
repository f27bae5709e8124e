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
//! * whole pages travel as shared [`PageRef`]s, one page by itself and
//!   more in a shared list. A page-aligned destination *adopts* them (see
//!   [`crate::memory::PageTable`]); sharing is copy-on-write, so a
//!   reference taken at one instant keeps reading what was there at that
//!   instant whatever is written afterwards;
//! * a whole page of one repeated byte is never copied: zeros are the
//!   absent page, and any other byte is the one page of it this thread
//!   shares with every table and payload that holds it;
//! * everything else is plain bytes.

use std::cell::OnceCell;
use std::rc::Rc;

use crate::memory::PAGE_SIZE;

pub(crate) const PAGE: usize = PAGE_SIZE as usize;

/// One page of simulated DRAM or storage medium.
pub type Page = [u8; PAGE];

/// A shared page. `None` is the all-zero page: what a sparse table holds
/// for a page nobody wrote. A page of any other repeated byte is the one
/// [`Rc`] this thread keeps for that byte.
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
    /// One whole page, held by itself: a 4 KiB transfer allocates nothing.
    Page(PageRef),
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
        let mut pages = pages.into_iter();
        match (pages.next(), pages.next()) {
            (Some(page), None) => Payload(Repr::Page(page)),
            (first, second) => {
                let list: Rc<[PageRef]> = first.into_iter().chain(second).chain(pages).collect();
                let count = list.len();
                Payload(Repr::Pages {
                    list,
                    first: 0,
                    count,
                })
            }
        }
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
            Repr::Page(_) => PAGE,
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
            Repr::Page(page) => Some(std::slice::from_ref(page)),
            Repr::Pages { list, first, count } => Some(&list[*first..first + count]),
            Repr::Inline { .. } | Repr::Bytes(_) => None,
        }
    }

    /// The bytes as consecutive slices (one per page, or one in all).
    pub fn segments(&self) -> impl Iterator<Item = &[u8]> {
        let (flat, pages): (&[u8], &[PageRef]) = match &self.0 {
            Repr::Inline { len, bytes } => (&bytes[..usize::from(*len)], &[]),
            Repr::Bytes(bytes) => (bytes, &[]),
            Repr::Page(_) | Repr::Pages { .. } => (&[], self.pages().expect("page payload")),
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
        if len > 0 && off.is_multiple_of(PAGE) && len.is_multiple_of(PAGE) {
            match &self.0 {
                Repr::Page(_) => return self.clone(),
                Repr::Pages { list, first, .. } => {
                    return Payload(Repr::Pages {
                        list: list.clone(),
                        first: first + off / PAGE,
                        count: len / PAGE,
                    })
                }
                Repr::Inline { .. } | Repr::Bytes(_) => {}
            }
        }
        Payload::filled_with(len, |buf| self.read_at(off, buf))
    }
}

/// Copies the slice: inline when short, as pages when it is a whole
/// number of them (a page-aligned destination then adopts the pages
/// instead of copying a second time; a page of one repeated byte is not
/// copied, see [`PageRef`]), as plain bytes otherwise.
impl From<&[u8]> for Payload {
    fn from(data: &[u8]) -> Payload {
        if !data.is_empty() && data.len().is_multiple_of(PAGE) {
            Payload::from_pages(data.chunks_exact(PAGE).map(|c| {
                uniform(c).unwrap_or_else(|| Some(Rc::new(c.try_into().expect("page-sized"))))
            }))
        } else {
            Payload::filled_with(data.len(), |buf| buf.copy_from_slice(data))
        }
    }
}

thread_local! {
    /// The shared page of each nonzero byte value, made the first time a
    /// whole page of that byte is stored: at most 255 pages per thread.
    static UNIFORM: [OnceCell<Rc<Page>>; 256] = const { [const { OnceCell::new() }; 256] };
}

/// The page every whole-page store of `bytes` shares, when they are one
/// repeated byte: the absent page for zeros, this thread's page of that
/// byte otherwise. `None` when the bytes differ. The check is one
/// overlapping compare, which stops at the first differing byte.
pub(crate) fn uniform(bytes: &[u8]) -> Option<PageRef> {
    if bytes[1..] != bytes[..PAGE - 1] {
        return None;
    }
    let byte = bytes[0];
    Some((byte != 0).then(|| {
        UNIFORM.with(|pages| {
            let page = pages[usize::from(byte)].get_or_init(|| Rc::new([byte; PAGE]));
            page.clone()
        })
    }))
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
            Payload::from(&[1u8; PAGE][..]).0,
            Repr::Page(Some(_))
        ));
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
        // Pages of one repeated byte: zeros are absent, any other byte is
        // one shared page.
        assert_eq!(
            Payload::from(&[0u8; 2 * PAGE][..]).pages().unwrap(),
            [None, None]
        );
        let ones = Payload::from(&[1u8; 2 * PAGE][..]);
        let twos = Payload::from(&[2u8; PAGE][..]);
        let [a, b] = ones.pages().unwrap() else {
            panic!("two pages")
        };
        let one = |p: &PageRef| Rc::as_ptr(p.as_ref().expect("a resident page"));
        assert_eq!(one(a), one(b));
        assert_eq!(
            one(a),
            one(&Payload::from(&[1u8; PAGE][..]).pages().unwrap()[0])
        );
        assert_ne!(one(a), one(&twos.pages().unwrap()[0]));
        assert_eq!(ones.to_vec(), [1u8; 2 * PAGE]);
        assert_eq!(twos.to_vec(), [2u8; PAGE]);
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
