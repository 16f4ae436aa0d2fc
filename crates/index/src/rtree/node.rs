//! R-tree node representation: leaf entries are always a key rectangle
//! plus the payload; what a *parent* entry caches for the subtree below
//! it is generic.
//!
//! A node's entries are one reference-counted block, `Arc<[entry]>`,
//! held straight in the arena slot: a probe goes `nodes[idx]` → that
//! one heap block, exactly as it did through a `Vec`, and cloning a
//! tree clones no entry — only a count per node. A writer replaces or
//! copies the block of a node it changes and leaves every other node
//! shared with the tree it was cloned from: an entry is updated in
//! place through [`Arc::make_mut`] (a copy the first time, while the
//! block is still shared), and a change of length ([`pushed`],
//! [`swap_removed`], a split) builds the new block outright.

use std::fmt::Debug;
use std::sync::Arc;

use iloc_geometry::Rect;

/// What a parent entry caches for the subtree below it: a plain
/// [`Rect`] for the R-tree, one merged rectangle per U-catalog level
/// for the PTI.
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

/// How a tree derives a parent's [`Bound`] from the leaf entries below
/// it. A leaf entry is only `(key, item)`; anything more a parent
/// caches about it is looked up here, so leaf entries stay 40 bytes
/// whatever the parents hold.
///
/// The plain R-tree's source is `()` — a parent caches the hull of the
/// keys. The PTI's is its level table, addressed by the row handle
/// that rides in the item.
pub trait LeafBounds<T>: Clone + Debug {
    /// What parent entries cache.
    type Parent: Bound;

    /// The parent bound covering exactly one leaf entry.
    fn lift(&self, key: Rect, item: &T) -> Self::Parent;

    /// Grows `parent` to also cover one leaf entry (no allocation).
    fn absorb(&self, parent: &mut Self::Parent, key: Rect, item: &T);
}

impl<T> LeafBounds<T> for () {
    type Parent = Rect;

    #[inline]
    fn lift(&self, key: Rect, _: &T) -> Rect {
        key
    }

    #[inline]
    fn absorb(&self, parent: &mut Rect, key: Rect, _: &T) {
        *parent = parent.hull(key);
    }
}

/// One arena node: either item entries (leaf) or child references with
/// cached child bounds (internal).
#[derive(Debug)]
pub enum Node<T, B = Rect> {
    /// Leaf node: `(item key, item)` pairs.
    Leaf(Arc<[(Rect, T)]>),
    /// Internal node: `(child bound, child arena index)` pairs.
    Internal(Arc<[(B, usize)]>),
}

/// One count on the entry block; no entry is cloned.
impl<T, B> Clone for Node<T, B> {
    fn clone(&self) -> Self {
        match self {
            Node::Leaf(entries) => Node::Leaf(Arc::clone(entries)),
            Node::Internal(children) => Node::Internal(Arc::clone(children)),
        }
    }
}

impl<T, B> Node<T, B> {
    /// A leaf without entries: an empty tree's root, and what a
    /// released arena slot holds. Allocates nothing.
    pub(super) fn empty() -> Self {
        Node::Leaf(Arc::default())
    }

    /// `true` when both nodes are the same entry block.
    pub(super) fn shares_entries_with(&self, other: &Self) -> bool {
        match (self, other) {
            (Node::Leaf(a), Node::Leaf(b)) => Arc::ptr_eq(a, b),
            (Node::Internal(a), Node::Internal(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl<T, B: Bound> Node<T, B> {
    /// Exact bound over all entries, leaf entries resolved through
    /// `source`.
    ///
    /// # Panics
    ///
    /// Panics on a node without entries (only an empty tree's root).
    pub fn bound(&self, source: &impl LeafBounds<T, Parent = B>) -> B {
        match self {
            Node::Leaf(entries) => leaf_hull(source, entries),
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

/// `entries` with `entry` appended, as a new block.
pub(super) fn pushed<E: Clone>(entries: &[E], entry: E) -> Arc<[E]> {
    entries
        .iter()
        .cloned()
        .chain(std::iter::once(entry))
        .collect()
}

/// `entries` without the one at `pos`, the last entry moved into its
/// place (`Vec::swap_remove`'s order), as a new block.
pub(super) fn swap_removed<E: Clone>(entries: &[E], pos: usize) -> Arc<[E]> {
    let last = entries.len() - 1;
    entries[..last]
        .iter()
        .enumerate()
        .map(|(i, e)| if i == pos { &entries[last] } else { e })
        .cloned()
        .collect()
}

/// Merged bound over a non-empty slice of parent entries.
pub(super) fn hull<B: Bound, E>(entries: &[(B, E)]) -> B {
    let (first, rest) = entries.split_first().expect("hull of a node with entries");
    let mut bound = first.0.clone();
    for (b, _) in rest {
        bound.merge(b);
    }
    bound
}

/// Parent bound over a non-empty slice of leaf entries.
pub(super) fn leaf_hull<T, S: LeafBounds<T>>(source: &S, entries: &[(Rect, T)]) -> S::Parent {
    let ((key, item), rest) = entries.split_first().expect("hull of a node with entries");
    let mut bound = source.lift(*key, item);
    for (key, item) in rest {
        source.absorb(&mut bound, *key, item);
    }
    bound
}
