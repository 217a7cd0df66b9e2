//! Order-statistic block sequences for incremental encryption.
//!
//! Section V-C of the paper introduces the **IndexedSkipList**: a skip list
//! in which every forward pointer carries a `skip_count`, so the structure
//! supports *find by index* (Algorithm 1), *insert*, and *delete* in
//! expected `O(log n)` time over the number of blocks. The paper also notes
//! that "the idea of indexing could also be applied to any of the
//! well-known balanced tree data structures"; the [`IndexedAvlTree`] is
//! that deterministic alternative, used in ablation benchmarks.
//!
//! Both structures store **variable-length blocks**: each element has a
//! weight (its character count), and lookups are supported both by block
//! ordinal and by *character position* — the weighted generalization needed
//! once blocks hold up to `b` characters instead of exactly one.
//!
//! # Example
//!
//! ```
//! use pe_indexlist::{BlockSeq, IndexedSkipList, Weighted};
//!
//! #[derive(Debug, Clone, PartialEq)]
//! struct Chunk(String);
//! impl Weighted for Chunk {
//!     fn weight(&self) -> usize { self.0.len() }
//! }
//!
//! let mut list = IndexedSkipList::new();
//! list.insert(0, Chunk("abc".into()));
//! list.insert(1, Chunk("defg".into()));
//! // Character 4 ('e') lives in block 1 at offset 1.
//! let loc = list.locate(4).unwrap();
//! assert_eq!((loc.block, loc.offset), (1, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod avl;
mod skiplist;

pub use avl::{AvlIter, IndexedAvlTree};
pub use skiplist::{IndexedSkipList, SkipListIter};

/// A value with an intrinsic weight (for document blocks: the number of
/// characters the block holds).
pub trait Weighted {
    /// The weight of this element. Must be at least 1 for elements stored
    /// in a [`BlockSeq`].
    fn weight(&self) -> usize;
}

/// Position of a character within a block sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Ordinal of the block containing the character (0-based).
    pub block: usize,
    /// Offset of the character within that block (0-based, `< weight`).
    pub offset: usize,
}

/// A sequence of weighted blocks addressable both by block ordinal and by
/// cumulative character position.
///
/// Implemented by [`IndexedSkipList`] (the paper's structure) and
/// [`IndexedAvlTree`] (the deterministic alternative suggested in §V-C).
/// All operations are `O(log n)` in the number of blocks (expected for the
/// skip list, worst-case for the AVL tree).
pub trait BlockSeq<T: Weighted> {
    /// Number of blocks stored.
    fn len_blocks(&self) -> usize;

    /// Sum of the weights of all blocks (total character count).
    fn total_weight(&self) -> usize;

    /// Returns the block at `ordinal`, or `None` if out of range.
    fn get(&self, ordinal: usize) -> Option<&T>;

    /// Inserts `value` so that it becomes block number `ordinal`.
    ///
    /// # Panics
    ///
    /// Panics if `ordinal > len_blocks()` or if `value.weight() == 0`.
    fn insert(&mut self, ordinal: usize, value: T);

    /// Appends `items` in order after the last block (bulk load — the
    /// full-document encryption path creates every block at once).
    ///
    /// The provided implementation inserts one by one; implementations
    /// override it with an append that skips the per-insert position
    /// search ([`IndexedSkipList`] appends in amortized O(1) per item
    /// below the current tower height).
    ///
    /// # Panics
    ///
    /// Panics if any item has `weight() == 0`.
    fn extend_back<I>(&mut self, items: I)
    where
        I: IntoIterator<Item = T>,
        Self: Sized,
    {
        for value in items {
            let end = self.len_blocks();
            self.insert(end, value);
        }
    }

    /// Removes and returns the block at `ordinal`.
    ///
    /// # Panics
    ///
    /// Panics if `ordinal >= len_blocks()`.
    fn remove(&mut self, ordinal: usize) -> T;

    /// Replaces the block at `ordinal` (the new value may have a different
    /// weight) and returns the old block.
    ///
    /// # Panics
    ///
    /// Panics if `ordinal >= len_blocks()` or if `value.weight() == 0`.
    fn replace(&mut self, ordinal: usize, value: T) -> T;

    /// Finds the block containing the character at `char_index`.
    ///
    /// Returns `None` when `char_index >= total_weight()`.
    fn locate(&self, char_index: usize) -> Option<Location>;

    /// Cumulative weight of all blocks before `ordinal` (i.e. the character
    /// index of the first character of block `ordinal`).
    ///
    /// # Panics
    ///
    /// Panics if `ordinal > len_blocks()` (`ordinal == len_blocks()` is
    /// allowed and returns the total weight).
    fn weight_before(&self, ordinal: usize) -> usize;

    /// The in-order iterator [`iter_from`](Self::iter_from) returns (a
    /// concrete type, so walking a sequence does not box).
    type Iter<'a>: Iterator<Item = &'a T>
    where
        Self: 'a,
        T: 'a;

    /// Iterates over the blocks in order, starting at block `ordinal`.
    fn iter_from(&self, ordinal: usize) -> Self::Iter<'_>;

    /// Iterates over all blocks in order.
    fn iter(&self) -> Self::Iter<'_> {
        self.iter_from(0)
    }

    /// True when the sequence holds no blocks.
    fn is_empty(&self) -> bool {
        self.len_blocks() == 0
    }
}

#[cfg(test)]
pub(crate) mod model {
    //! A trivially-correct reference model used by the property tests of
    //! both implementations.

    use super::{BlockSeq, Location, Weighted};

    /// Vec-backed reference implementation with O(n) operations.
    #[derive(Debug, Default)]
    pub struct VecModel<T> {
        items: Vec<T>,
    }

    impl<T: Weighted> VecModel<T> {
        pub fn new() -> Self {
            VecModel { items: Vec::new() }
        }
    }

    impl<T: Weighted> BlockSeq<T> for VecModel<T> {
        fn len_blocks(&self) -> usize {
            self.items.len()
        }

        fn total_weight(&self) -> usize {
            self.items.iter().map(|b| b.weight()).sum()
        }

        fn get(&self, ordinal: usize) -> Option<&T> {
            self.items.get(ordinal)
        }

        fn insert(&mut self, ordinal: usize, value: T) {
            assert!(value.weight() > 0);
            self.items.insert(ordinal, value);
        }

        fn remove(&mut self, ordinal: usize) -> T {
            self.items.remove(ordinal)
        }

        fn replace(&mut self, ordinal: usize, value: T) -> T {
            assert!(value.weight() > 0);
            std::mem::replace(&mut self.items[ordinal], value)
        }

        fn locate(&self, char_index: usize) -> Option<Location> {
            let mut remaining = char_index;
            for (block, item) in self.items.iter().enumerate() {
                if remaining < item.weight() {
                    return Some(Location { block, offset: remaining });
                }
                remaining -= item.weight();
            }
            None
        }

        fn weight_before(&self, ordinal: usize) -> usize {
            assert!(ordinal <= self.items.len());
            self.items[..ordinal].iter().map(|b| b.weight()).sum()
        }

        type Iter<'a>
            = std::slice::Iter<'a, T>
        where
            T: 'a;

        fn iter_from(&self, ordinal: usize) -> std::slice::Iter<'_, T> {
            self.items[ordinal..].iter()
        }
    }
}
