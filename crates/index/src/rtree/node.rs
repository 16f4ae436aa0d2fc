//! R-tree node representation, generic over what an entry carries as
//! its bound.

use std::fmt::Debug;

use iloc_geometry::Rect;

/// What a tree entry carries as its bound: a plain [`Rect`] for the
/// R-tree, one rectangle per U-catalog level for the PTI.
///
/// The tree reads only the [`key`](Bound::key) for its structural
/// decisions (ChooseSubtree, the split, STR packing, removal's
/// search), so two trees fed the same keys in the same order have the
/// same shape whatever else their bounds hold.
pub trait Bound: Clone + PartialEq + Debug {
    /// The rectangle structural decisions are made on. A parent's key
    /// must cover its children's, which [`merge`](Bound::merge)
    /// guarantees.
    fn key(&self) -> Rect;

    /// Grows `self` to also cover `other`.
    fn merge(&mut self, other: &Self);
}

impl Bound for Rect {
    #[inline]
    fn key(&self) -> Rect {
        *self
    }

    #[inline]
    fn merge(&mut self, other: &Self) {
        *self = self.hull(*other);
    }
}

/// One arena node: either item entries (leaf) or child references with
/// cached child bounds (internal).
#[derive(Debug, Clone)]
pub enum Node<T, B = Rect> {
    /// Leaf node: `(item bound, item)` pairs.
    Leaf(Vec<(B, T)>),
    /// Internal node: `(child bound, child arena index)` pairs.
    Internal(Vec<(B, usize)>),
}

impl<T, B: Bound> Node<T, B> {
    /// Exact bound over all entries.
    ///
    /// # Panics
    ///
    /// Panics on a node without entries (only an empty tree's root).
    pub fn bound(&self) -> B {
        match self {
            Node::Leaf(entries) => hull(entries),
            Node::Internal(children) => hull(children),
        }
    }

    /// Number of direct entries.
    pub fn entry_count(&self) -> usize {
        match self {
            Node::Leaf(entries) => entries.len(),
            Node::Internal(children) => children.len(),
        }
    }
}

/// Merged bound over a non-empty slice of entries.
pub(super) fn hull<B: Bound, E>(entries: &[(B, E)]) -> B {
    let (first, rest) = entries.split_first().expect("hull of a node with entries");
    let mut bound = first.0.clone();
    for (b, _) in rest {
        bound.merge(b);
    }
    bound
}
