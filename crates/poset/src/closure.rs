//! Transitive closure and transitive reduction.
//!
//! The closure is two flat bit matrices — `rows` (descendants) and its
//! transpose `cols` (ancestors) — of `n` rows by `⌈n/64⌉` words each,
//! row `u` at `[u * stride..][..stride]`, bit `v % 64` of word `v / 64`
//! for node `v`. Building one costs a constant number of allocations
//! whatever `n` is, and a row is handed out as a borrowed [`BitRow`].

use crate::bitset::BitRow;
use crate::graph::{Components, Csr, DiGraph, NodeId};

/// The reachability matrix of a directed graph.
///
/// `reaches(u, v)` answers "is there a non-empty directed path from `u` to
/// `v`?" — i.e. this is the closure of the *strict* relation: a node does
/// not reach itself unless it lies on a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitiveClosure {
    n: usize,
    /// Words per matrix row: `⌈n/64⌉`.
    stride: usize,
    /// `n × stride` words: row `u` is the descendant set of `u`.
    rows: Vec<u64>,
    /// The transposed matrix: row `v` is the ancestor set of `v`. Kept
    /// alongside `rows` so [`TransitiveClosure::ancestors`] is a lookup
    /// instead of an `O(n)` column scan.
    cols: Vec<u64>,
}

fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1 << (i % 64)) != 0
}

fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

fn union_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

impl TransitiveClosure {
    /// Computes the closure of the graph on nodes `0..n` with the given
    /// edges (parallel edges and self-loops allowed).
    ///
    /// One pass over Tarjan's component order per matrix. `rows` walks
    /// it forwards (successors first): a component's row is the union,
    /// over the out-edges of its members, of the edge's target and the
    /// target's (already complete) row, plus the members themselves when
    /// the component is cyclic; every member gets a copy. `cols` walks it
    /// backwards (predecessors first) over the same out-edges: a
    /// component's column is whatever its predecessors pushed into its
    /// members, plus the members when cyclic, and it pushes that and the
    /// edge's source along each edge leaving the component. Cyclic
    /// inputs are therefore handled correctly (every node of a
    /// non-trivial SCC, and every node with a self-loop, reaches
    /// itself). Each edge costs one row union per matrix and each node
    /// three row passes: `O((n + m) * n / 64)` word operations, no
    /// per-bit work.
    ///
    /// # Panics
    /// Panics if an edge endpoint is `>= n`.
    pub fn of_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let g = Csr::new(n, edges);
        let comps = Components::of(&g);
        let stride = n.div_ceil(64);
        let row = |u: NodeId| u * stride..(u + 1) * stride;
        let mut rows = vec![0u64; n * stride];
        let mut cols = vec![0u64; n * stride];
        let mut acc = vec![0u64; stride];
        for ci in 0..comps.len() {
            let members = comps.members(ci);
            let mut cyclic = members.len() > 1;
            acc.fill(0);
            for &u in members {
                for &v in g.successors(u) {
                    if comps.of_node(v) == ci {
                        cyclic = true; // covers self-loops
                    } else {
                        set_bit(&mut acc, v);
                        union_into(&mut acc, &rows[row(v)]);
                    }
                }
            }
            if cyclic {
                for &u in members {
                    set_bit(&mut acc, u);
                }
            }
            for &u in members {
                rows[row(u)].copy_from_slice(&acc);
            }
        }
        for ci in (0..comps.len()).rev() {
            let members = comps.members(ci);
            acc.fill(0);
            for &u in members {
                union_into(&mut acc, &cols[row(u)]);
            }
            // `rows` is complete: its diagonal says whether `ci` is cyclic.
            if bit(&rows[row(members[0])], members[0]) {
                for &u in members {
                    set_bit(&mut acc, u);
                }
            }
            for &u in members {
                cols[row(u)].copy_from_slice(&acc);
            }
            for &u in members {
                for &v in g.successors(u) {
                    if comps.of_node(v) != ci {
                        let col = &mut cols[row(v)];
                        union_into(col, &acc);
                        set_bit(col, u);
                    }
                }
            }
        }
        TransitiveClosure {
            n,
            stride,
            rows,
            cols,
        }
    }

    /// Computes the closure of `g`.
    pub fn of_graph(g: &DiGraph) -> Self {
        Self::of_edges(g.node_count(), g.edges())
    }

    /// Builds a closure directly from `n` nodes and an edge list.
    ///
    /// # Panics
    /// Panics if an edge endpoint is `>= n`.
    pub fn from_pairs<I>(n: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let edges: Vec<(NodeId, NodeId)> = pairs.into_iter().collect();
        Self::of_edges(n, &edges)
    }

    /// Number of nodes in the universe.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn row<'a>(&self, matrix: &'a [u64], u: NodeId) -> BitRow<'a> {
        assert!(u < self.n, "node {u} out of range {}", self.n);
        BitRow::new(&matrix[u * self.stride..(u + 1) * self.stride], self.n)
    }

    /// Whether there is a non-empty path `u -> ... -> v`.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        self.descendants(u).contains(v)
    }

    /// Whether the underlying relation is a strict partial order, i.e.
    /// irreflexive after closure (no node lies on a cycle).
    pub fn is_strict_order(&self) -> bool {
        (0..self.n).all(|v| !self.reaches(v, v))
    }

    /// The full descendant set of `u` (everything reachable from it).
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn descendants(&self, u: NodeId) -> BitRow<'_> {
        self.row(&self.rows, u)
    }

    /// The ancestor set of `v` (everything that reaches it). `O(1)` —
    /// served from the transposed matrix built at construction.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn ancestors(&self, v: NodeId) -> BitRow<'_> {
        self.row(&self.cols, v)
    }

    /// All ordered pairs `(u, v)` with `u` reaching `v`.
    pub fn pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for u in 0..self.n {
            for v in self.descendants(u).iter() {
                out.push((u, v));
            }
        }
        out
    }

    /// The transitive reduction (Hasse diagram) of an **acyclic** closure:
    /// the unique minimal edge set with the same closure.
    ///
    /// `u -> v` is a cover iff `u` reaches `v` and no `w` has
    /// `u -> w -> v`.
    ///
    /// # Panics
    /// Panics if the relation is cyclic (a Hasse diagram is only defined
    /// for partial orders).
    pub fn reduction(&self) -> Vec<(NodeId, NodeId)> {
        assert!(
            self.is_strict_order(),
            "transitive reduction requires an acyclic relation"
        );
        // Word-parallel cover extraction: v is mediated from u exactly
        // when some w in row(u) reaches v, so
        //   covers_u = row(u) & !(⋃_{w ∈ row(u)} row(w)).
        // Acyclicity makes the usual `w != v` guard unnecessary: v never
        // lies in its own row, so unioning row(v) cannot mark v itself.
        let mut covers = Vec::new();
        let mut mediated = vec![0u64; self.stride];
        for u in 0..self.n {
            let row = self.descendants(u);
            mediated.fill(0);
            for w in row.iter() {
                union_into(&mut mediated, self.descendants(w).words());
            }
            for (wi, (&r, &m)) in row.words().iter().zip(&mediated).enumerate() {
                let mut word = r & !m;
                while word != 0 {
                    covers.push((u, wi * 64 + word.trailing_zeros() as usize));
                    word &= word - 1;
                }
            }
        }
        covers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_closure() {
        let c = TransitiveClosure::from_pairs(4, [(0, 1), (1, 2), (2, 3)]);
        assert!(c.reaches(0, 3));
        assert!(c.reaches(1, 3));
        assert!(!c.reaches(3, 0));
        assert!(!c.reaches(0, 0));
        assert!(c.is_strict_order());
    }

    #[test]
    fn cycle_closure_is_reflexive_on_cycle() {
        let c = TransitiveClosure::from_pairs(3, [(0, 1), (1, 0)]);
        assert!(c.reaches(0, 0));
        assert!(c.reaches(1, 1));
        assert!(!c.reaches(2, 2));
        assert!(!c.is_strict_order());
    }

    #[test]
    fn self_loop_detected() {
        let c = TransitiveClosure::from_pairs(2, [(0, 0)]);
        assert!(c.reaches(0, 0));
        assert!(!c.is_strict_order());
    }

    #[test]
    fn cycle_reaching_out() {
        // 0 <-> 1 -> 2
        let c = TransitiveClosure::from_pairs(3, [(0, 1), (1, 0), (1, 2)]);
        assert!(c.reaches(0, 2));
        assert!(c.reaches(1, 2));
        assert!(!c.reaches(2, 0));
    }

    #[test]
    fn ancestors_and_descendants() {
        let c = TransitiveClosure::from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let d0: Vec<_> = c.descendants(0).iter().collect();
        assert_eq!(d0, vec![1, 2, 3]);
        let a3: Vec<_> = c.ancestors(3).iter().collect();
        assert_eq!(a3, vec![0, 1, 2]);
    }

    #[test]
    fn reduction_of_diamond_with_shortcut() {
        // diamond plus the redundant edge 0 -> 3
        let c = TransitiveClosure::from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]);
        let mut red = c.reduction();
        red.sort_unstable();
        assert_eq!(red, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn reduction_closure_roundtrip() {
        let pairs = [(0, 1), (1, 2), (0, 2), (2, 4), (1, 4), (3, 4)];
        let c = TransitiveClosure::from_pairs(5, pairs);
        let red = c.reduction();
        let c2 = TransitiveClosure::from_pairs(5, red.iter().copied());
        assert_eq!(c.pairs(), c2.pairs());
    }

    #[test]
    #[should_panic(expected = "acyclic")]
    fn reduction_panics_on_cycle() {
        let c = TransitiveClosure::from_pairs(2, [(0, 1), (1, 0)]);
        let _ = c.reduction();
    }

    #[test]
    fn empty_universe() {
        let c = TransitiveClosure::from_pairs(0, []);
        assert!(c.is_empty());
        assert!(c.is_strict_order());
        assert!(c.pairs().is_empty());
    }

    #[test]
    fn pairs_enumerates_all() {
        let c = TransitiveClosure::from_pairs(3, [(0, 1), (1, 2)]);
        let mut p = c.pairs();
        p.sort_unstable();
        assert_eq!(p, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn large_chain_scales() {
        let n = 500;
        let c = TransitiveClosure::from_pairs(n, (0..n - 1).map(|i| (i, i + 1)));
        assert!(c.reaches(0, n - 1));
        assert!(c.is_strict_order());
        assert_eq!(c.descendants(0).len(), n - 1);
    }
}
