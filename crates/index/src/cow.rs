//! The paged, copy-on-write vector every per-object table of an
//! engine lives in.
//!
//! A [`Pages<T>`] is a `Vec<T>` cut into fixed-length pages, each
//! behind its own [`Arc`]. Cloning one copies the spine — a reference
//! count per page, no element — and the two clones then share every
//! page until one of them writes: [`Pages::get_mut`] and
//! [`Pages::push`] copy the page they are about to change the first
//! time they find it shared ([`Arc::make_mut`]) and write in place
//! from then on. That is what
//! makes an epoch of the serving layer cost what its batch touched: a
//! clone taken for a commit diverges from its parent by one page per
//! written element, and whoever still holds the parent — a query in
//! flight, a checkpointer, a slow subscriber — pins only the pages
//! that were replaced, not a second table.
//!
//! Reading costs one pointer more than a slice: the spine entry, then
//! the page. The spine is an eight-byte pointer per [`PAGE_LEN`]
//! elements and stays cached. (Caching the current page
//! across a sorted index list was tried and lost to this plain lookup
//! in the loops that matter: the spine read is an L1 hit, the cache a
//! compare and a branch more per element.)

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// Elements per page — the R-tree's default fanout, so a page of
/// rectangles is the size of a node: small enough that a write copies
/// a couple of kilobytes, large enough that the spine is 1/64th of a
/// pointer per element.
pub const PAGE_LEN: usize = 64;

type Page<T> = Arc<[T; PAGE_LEN]>;

/// Iterator over a [`Pages`]' elements, in index order.
pub type Iter<'a, T> = std::iter::Take<
    std::iter::FlatMap<
        std::slice::Iter<'a, Page<T>>,
        &'a [T; PAGE_LEN],
        fn(&'a Page<T>) -> &'a [T; PAGE_LEN],
    >,
>;

/// A vector in reference-counted pages of [`PAGE_LEN`] elements; see
/// the [module docs](self).
///
/// Every page is allocated whole, so all pages of one table are one
/// size class for the allocator. The slots of the last page past
/// `len` hold clones of earlier elements — never read, overwritten by
/// the next `push`.
#[derive(Clone)]
pub struct Pages<T> {
    pages: Vec<Page<T>>,
    len: usize,
}

impl<T> Default for Pages<T> {
    fn default() -> Self {
        Pages::new()
    }
}

impl<T> Pages<T> {
    /// An empty table.
    pub fn new() -> Self {
        Pages {
            pages: Vec::new(),
            len: 0,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the table holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at `index`, if in range.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        if index < self.len {
            Some(&self.pages[index / PAGE_LEN][index % PAGE_LEN])
        } else {
            None
        }
    }

    /// The elements in index order.
    pub fn iter(&self) -> Iter<'_, T> {
        fn items<T>(page: &Page<T>) -> &[T; PAGE_LEN] {
            page
        }
        self.pages
            .iter()
            .flat_map(items as fn(&Page<T>) -> &[T; PAGE_LEN])
            .take(self.len)
    }

    /// `(shared, total)`: how many of this table's pages are the very
    /// allocations `other` holds at the same position.
    #[doc(hidden)]
    pub fn shared_pages_with(&self, other: &Self) -> (usize, usize) {
        let shared = self
            .pages
            .iter()
            .zip(&other.pages)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        (shared, self.pages.len())
    }
}

impl<T: Clone> Pages<T> {
    /// Mutable access to the element at `index`, if in range. Copies
    /// the element's page first when a clone of this table still
    /// shares it.
    #[inline]
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        if index < self.len {
            Some(&mut Arc::make_mut(&mut self.pages[index / PAGE_LEN])[index % PAGE_LEN])
        } else {
            None
        }
    }

    /// Appends an element. Opens a new page every [`PAGE_LEN`]
    /// elements; otherwise writes into the last page, copying it first
    /// when shared.
    pub fn push(&mut self, value: T) {
        match self.pages.get_mut(self.len / PAGE_LEN) {
            Some(page) => Arc::make_mut(page)[self.len % PAGE_LEN] = value,
            None => self
                .pages
                .push(Arc::new(std::array::from_fn(|_| value.clone()))),
        }
        self.len += 1;
    }
}

impl<T> Index<usize> for Pages<T> {
    type Output = T;

    /// # Panics
    ///
    /// Panics when `index` is out of range.
    #[inline]
    fn index(&self, index: usize) -> &T {
        self.get(index).expect("index out of range")
    }
}

impl<T: Clone> FromIterator<T> for Pages<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut pages = Pages::new();
        for value in iter {
            pages.push(value);
        }
        pages
    }
}

impl<'a, T> IntoIterator for &'a Pages<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

impl<T: fmt::Debug> fmt::Debug for Pages<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contents(pages: &Pages<usize>) -> Vec<usize> {
        pages.iter().copied().collect()
    }

    #[test]
    fn push_matches_a_vec_across_page_boundaries() {
        let mut pages = Pages::new();
        let mut vec = Vec::new();
        assert!(pages.is_empty());
        // Grow over two boundaries, writing back into every page.
        for k in 0..2 * PAGE_LEN + 3 {
            pages.push(k);
            vec.push(k);
            assert_eq!(pages.len(), vec.len());
        }
        for at in [0, PAGE_LEN - 1, PAGE_LEN, vec.len() - 1] {
            *pages.get_mut(at).expect("in range") += 1000;
            vec[at] += 1000;
        }
        assert_eq!(contents(&pages), vec);
        for (k, &want) in vec.iter().enumerate() {
            assert_eq!(pages[k], want);
            assert_eq!(pages.get(k), Some(&want));
        }
        assert_eq!(pages.get(vec.len()), None);
        assert_eq!(pages.get_mut(vec.len()), None);
    }

    #[test]
    fn a_writer_never_changes_what_a_clone_reads() {
        let parent: Pages<usize> = (0..3 * PAGE_LEN + 10).collect();
        let before = contents(&parent);
        let mut child = parent.clone();
        assert_eq!(child.shared_pages_with(&parent), (4, 4));

        *child.get_mut(5).expect("in range") = 777;
        assert_eq!(child.shared_pages_with(&parent), (3, 4));
        // A second write to the same page copies nothing more.
        *child.get_mut(6).expect("in range") = 778;
        assert_eq!(child.shared_pages_with(&parent), (3, 4));
        // A push lands on the (shared) last page, and filling that page
        // opens a new one of the child's own.
        child.push(999);
        assert_eq!(child.shared_pages_with(&parent), (2, 4));
        for k in 0..PAGE_LEN {
            child.push(5000 + k);
        }
        assert_eq!(child.shared_pages_with(&parent), (2, 5));

        assert_eq!(contents(&parent), before, "the parent saw a write");
        assert_eq!(child[6], 778);
        assert_eq!(child[before.len()], 999);
        assert_eq!(child.len(), before.len() + 1 + PAGE_LEN);
    }
}
