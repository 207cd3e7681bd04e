//! Dense fixed-capacity bitsets.
//!
//! Transitive-closure rows and visited sets are hot paths when checking
//! limit-set membership over thousands of generated runs, so we keep a
//! plain `Vec<u64>` representation with word-level bulk operations.

use std::fmt;

/// A dense bitset over the universe `0..capacity`.
///
/// All operations panic if an index is out of range; bulk operations panic
/// if the capacities of the two operands differ. This is deliberate —
/// closure rows in this workspace always share a universe, and silent
/// truncation would mask bugs.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

const WORD_BITS: usize = 64;

impl BitSet {
    /// Creates an empty bitset with room for `capacity` elements.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            capacity,
        }
    }

    /// The number of elements this set can hold (the universe size).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `i`, returning whether it was newly inserted.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.capacity, "bit {i} out of range {}", self.capacity);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Removes `i`, returning whether it was present.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.capacity, "bit {i} out of range {}", self.capacity);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Tests membership of `i`.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    pub fn contains(&self, i: usize) -> bool {
        self.as_row().contains(i)
    }

    /// The set as a borrowed row: the read-only queries live there.
    fn as_row(&self) -> BitRow<'_> {
        BitRow {
            words: &self.words,
            capacity: self.capacity,
        }
    }

    /// The backing words, least-significant bit first: element `i` is
    /// bit `i % 64` of word `i / 64`. Exposed so batch evaluators can
    /// run word-parallel set algebra directly on the storage.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of elements currently in the set.
    pub fn len(&self) -> usize {
        self.as_row().len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.as_row().is_empty()
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// In-place union: `self |= other`. Returns `true` if `self` changed.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | *b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Whether every element of `self` is in `other`.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.as_row().is_subset(other)
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        self.as_row().iter()
    }
}

/// One row of a flat bit matrix, borrowed: a read-only set over the
/// universe `0..capacity` whose words live in the matrix (see
/// [`TransitiveClosure`](crate::TransitiveClosure), which hands these
/// out instead of owning one [`BitSet`] per node). `Copy`; the accessors
/// return data borrowed from the matrix, not from the row value.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct BitRow<'a> {
    words: &'a [u64],
    capacity: usize,
}

impl<'a> BitRow<'a> {
    /// A row over `0..capacity` backed by `words` (`⌈capacity/64⌉` of
    /// them, no bit set at or beyond `capacity`).
    pub(crate) fn new(words: &'a [u64], capacity: usize) -> Self {
        debug_assert_eq!(words.len(), capacity.div_ceil(WORD_BITS));
        BitRow { words, capacity }
    }

    /// The backing words, laid out as [`BitSet::words`].
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Tests membership of `i`.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.capacity, "bit {i} out of range {}", self.capacity);
        self.words[i / WORD_BITS] & (1 << (i % WORD_BITS)) != 0
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'a> {
        Iter {
            words: self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Number of elements in the row.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the row is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether every element of the row is in `other`.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// An owned copy of the row.
    pub fn to_bitset(&self) -> BitSet {
        BitSet {
            words: self.words.to_vec(),
            capacity: self.capacity,
        }
    }
}

impl fmt::Debug for BitRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the elements of a [`BitSet`] or [`BitRow`] in
/// increasing order.
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * WORD_BITS + bit)
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a bitset whose capacity is one past the largest element.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        let mut set = BitSet::new(cap);
        for i in items {
            set.insert(i);
        }
        set
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for i in iter {
            self.insert(i);
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(s.insert(64));
        assert!(!s.insert(64), "second insert reports not-fresh");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iter_in_order() {
        let mut s = BitSet::new(200);
        for i in [5usize, 0, 199, 63, 64, 65] {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 5, 63, 64, 65, 199]);
    }

    #[test]
    fn union_reports_change() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(3);
        b.insert(3);
        assert!(!a.union_with(&b), "no change when already a superset");
        b.insert(99);
        assert!(a.union_with(&b));
        assert!(a.contains(99));
    }

    #[test]
    fn subset_and_disjoint() {
        let mut a = BitSet::new(64);
        let mut b = BitSet::new(64);
        a.insert(1);
        b.insert(1);
        b.insert(2);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
    }

    #[test]
    fn empty_and_clear() {
        let mut s = BitSet::new(10);
        assert!(s.is_empty());
        s.insert(9);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn zero_capacity() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut s = BitSet::new(8);
        s.insert(8);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn capacity_mismatch_panics() {
        let mut a = BitSet::new(8);
        let b = BitSet::new(9);
        a.union_with(&b);
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let s: BitSet = [4usize, 7].into_iter().collect();
        assert_eq!(s.capacity(), 8);
        assert!(s.contains(4) && s.contains(7));
    }
}
