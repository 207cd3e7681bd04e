//! Fidge/Mattern vector clocks.
//!
//! The tagged causal-ordering protocols (Raynal–Schiper–Toueg,
//! Schiper–Eggli–Sandoz) piggyback vector or matrix timestamps. The
//! property tests in `msgorder-runs` check that vector-clock comparison
//! agrees with the explicit happened-before relation extracted from
//! simulated runs.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::ops::Index;

/// A vector clock over a fixed set of `n` processes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VectorClock {
    entries: Vec<u64>,
}

impl VectorClock {
    /// The zero clock for `n` processes.
    pub fn new(n: usize) -> Self {
        VectorClock {
            entries: vec![0; n],
        }
    }

    /// Builds a clock from explicit entries.
    pub fn from_entries(entries: Vec<u64>) -> Self {
        VectorClock { entries }
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the clock tracks zero processes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Increments the component of process `p` (a local event at `p`).
    ///
    /// # Panics
    /// Panics if `p` is out of range.
    pub fn tick(&mut self, p: usize) {
        self.entries[p] += 1;
    }

    /// Component-wise maximum with `other` (the receive-merge step).
    /// Works in place — the entry buffer is reused, never reallocated.
    ///
    /// # Panics
    /// Panics if the clocks have different lengths.
    pub fn merge(&mut self, other: &VectorClock) {
        crate::words::merge_in_place(&mut self.entries, &other.entries);
    }

    /// The causal join (least upper bound), like [`merge`](Self::merge)
    /// but tolerant of mismatched widths: when `other` is wider, `self`
    /// grows to cover it; when the widths already match, the merge is
    /// purely in place and never touches the allocator.
    pub fn join(&mut self, other: &VectorClock) {
        if other.entries.len() > self.entries.len() {
            self.entries.resize(other.entries.len(), 0);
        }
        let n = other.entries.len();
        crate::words::merge_in_place(&mut self.entries[..n], &other.entries);
    }

    /// `self` happened-before `other`: every component `<=` and at least
    /// one `<`.
    ///
    /// # Panics
    /// Panics if the clocks have different lengths.
    pub fn happened_before(&self, other: &VectorClock) -> bool {
        assert_eq!(self.len(), other.len(), "vector clock length mismatch");
        crate::words::happened_before(&self.entries, &other.entries)
    }

    /// `self <= other` component-wise (the reflexive causal order).
    ///
    /// # Panics
    /// Panics if the clocks have different lengths.
    pub fn leq(&self, other: &VectorClock) -> bool {
        assert_eq!(self.len(), other.len(), "vector clock length mismatch");
        crate::words::leq(&self.entries, &other.entries)
    }

    /// Whether the two clocks are concurrent (neither happened before the
    /// other and they are unequal).
    pub fn concurrent(&self, other: &VectorClock) -> bool {
        self != other && !self.happened_before(other) && !other.happened_before(self)
    }

    /// The partial-order comparison, `None` when concurrent.
    pub fn partial_cmp_causal(&self, other: &VectorClock) -> Option<Ordering> {
        if self == other {
            Some(Ordering::Equal)
        } else if self.happened_before(other) {
            Some(Ordering::Less)
        } else if other.happened_before(self) {
            Some(Ordering::Greater)
        } else {
            None
        }
    }

    /// Raw entries.
    pub fn entries(&self) -> &[u64] {
        &self.entries
    }
}

impl Index<usize> for VectorClock {
    type Output = u64;

    fn index(&self, p: usize) -> &u64 {
        &self.entries[p]
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_and_index() {
        let mut c = VectorClock::new(3);
        c.tick(1);
        c.tick(1);
        c.tick(2);
        assert_eq!(c[0], 0);
        assert_eq!(c[1], 2);
        assert_eq!(c[2], 1);
    }

    #[test]
    fn happened_before_strict() {
        let a = VectorClock::from_entries(vec![1, 0, 0]);
        let b = VectorClock::from_entries(vec![1, 1, 0]);
        assert!(a.happened_before(&b));
        assert!(!b.happened_before(&a));
        assert!(!a.happened_before(&a), "irreflexive");
    }

    #[test]
    fn concurrency() {
        let a = VectorClock::from_entries(vec![1, 0]);
        let b = VectorClock::from_entries(vec![0, 1]);
        assert!(a.concurrent(&b));
        assert_eq!(a.partial_cmp_causal(&b), None);
    }

    #[test]
    fn merge_is_componentwise_max() {
        let mut a = VectorClock::from_entries(vec![3, 0, 5]);
        let b = VectorClock::from_entries(vec![1, 4, 2]);
        a.merge(&b);
        assert_eq!(a.entries(), &[3, 4, 5]);
    }

    #[test]
    fn merge_and_join_work_in_place_on_matching_widths() {
        let mut a = VectorClock::from_entries(vec![3, 0, 5]);
        let b = VectorClock::from_entries(vec![1, 4, 2]);
        let buf = a.entries().as_ptr();
        a.merge(&b);
        assert_eq!(a.entries(), &[3, 4, 5]);
        assert_eq!(a.entries().as_ptr(), buf, "merge must reuse the buffer");
        a.join(&b);
        assert_eq!(a.entries(), &[3, 4, 5]);
        assert_eq!(a.entries().as_ptr(), buf, "join must reuse the buffer");
    }

    #[test]
    fn join_widens_to_the_larger_clock() {
        let mut a = VectorClock::from_entries(vec![7]);
        let b = VectorClock::from_entries(vec![1, 4, 2]);
        a.join(&b);
        assert_eq!(a.entries(), &[7, 4, 2]);
        let mut c = VectorClock::from_entries(vec![1, 1, 1]);
        c.join(&VectorClock::from_entries(vec![5]));
        assert_eq!(c.entries(), &[5, 1, 1]);
    }

    #[test]
    fn leq_is_reflexive_and_orders() {
        let a = VectorClock::from_entries(vec![1, 1]);
        let b = VectorClock::from_entries(vec![2, 1]);
        assert!(a.leq(&a));
        assert!(a.leq(&b));
        assert!(!b.leq(&a));
    }

    #[test]
    fn partial_cmp_orders() {
        let a = VectorClock::from_entries(vec![1, 1]);
        let b = VectorClock::from_entries(vec![2, 1]);
        assert_eq!(a.partial_cmp_causal(&b), Some(Ordering::Less));
        assert_eq!(b.partial_cmp_causal(&a), Some(Ordering::Greater));
        assert_eq!(a.partial_cmp_causal(&a), Some(Ordering::Equal));
    }

    #[test]
    fn message_passing_scenario() {
        // p0 ticks, sends to p1; p1 merges + ticks. p1's clock must be
        // causally after p0's send clock.
        let mut p0 = VectorClock::new(2);
        p0.tick(0); // send event at p0
        let tag = p0.clone();
        let mut p1 = VectorClock::new(2);
        p1.merge(&tag);
        p1.tick(1); // deliver event at p1
        assert!(tag.happened_before(&p1));
    }

    #[test]
    fn display_and_bytes() {
        let c = VectorClock::from_entries(vec![1, 2]);
        assert_eq!(c.to_string(), "[1,2]");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let a = VectorClock::new(2);
        let b = VectorClock::new(3);
        let _ = a.happened_before(&b);
    }
}
