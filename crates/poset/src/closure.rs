//! Transitive closure and transitive reduction of a DAG.
//!
//! The closure is two flat bit matrices — `rows` (descendants) and its
//! transpose `cols` (ancestors) — of `n` rows by `⌈n/64⌉` words each,
//! row `u` at `[u * stride..][..stride]`, bit `v % 64` of word `v / 64`
//! for node `v`. Every closure the workspace builds is of a strict
//! partial order (§3.3's `▷`, §3.1's `→`, a [`crate::Poset`]), so a
//! cyclic edge set has no closure: construction takes one Kahn order
//! and gives up before allocating either matrix. Building one costs a
//! constant number of allocations whatever `n` is, and a row is handed
//! out as a borrowed [`BitRow`].

use crate::bitset::BitRow;
use crate::graph::{Csr, DiGraph, NodeId};

/// The reachability matrix of a directed acyclic graph.
///
/// `reaches(u, v)` answers "is there a non-empty directed path from `u` to
/// `v`?" — the closure of a *strict* order: no node reaches itself.
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

fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

fn union_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Row `dst` of a flat `stride`-word matrix, writable, beside row `src`
/// (`dst != src`), readable.
fn row_pair(matrix: &mut [u64], stride: usize, dst: NodeId, src: NodeId) -> (&mut [u64], &[u64]) {
    if dst < src {
        let (lo, hi) = matrix.split_at_mut(src * stride);
        (&mut lo[dst * stride..][..stride], &hi[..stride])
    } else {
        let (lo, hi) = matrix.split_at_mut(dst * stride);
        (&mut hi[..stride], &lo[src * stride..][..stride])
    }
}

/// Fills `matrix` with the descendant sets of `g`, visiting `nodes` in
/// an order where every edge's target comes first: `row[u]` is the
/// union over `u → v` of `row[v] ∪ {v}`, each `row[v]` already final.
///
/// `row[u]` is zero until its first out-edge, so that edge copies
/// instead of OR-ing: the first touch of a freshly mapped page is then a
/// store, which faults it in once, where a load maps the zero page and
/// the store after it faults again.
fn close(matrix: &mut [u64], stride: usize, g: &Csr, nodes: impl Iterator<Item = NodeId>) {
    for u in nodes {
        for (i, &v) in g.successors(u).iter().enumerate() {
            let (row, done) = row_pair(matrix, stride, u, v);
            if i == 0 {
                row.copy_from_slice(done);
            } else {
                union_into(row, done);
            }
            set_bit(row, v);
        }
    }
}

impl TransitiveClosure {
    /// Computes the closure of the graph on nodes `0..n` with the given
    /// edges (parallel edges allowed), or `None` if the edges contain a
    /// cycle — self-loops included.
    ///
    /// One Kahn order over a CSR adjacency decides acyclicity before
    /// either matrix exists. Every edge `u → v` points forward in that
    /// order, so walking it backwards completes `row[v]` before
    /// `row[u] |= row[v]; set v`, and walking it forwards over the
    /// reversed edges completes `col[u]` before `col[v] |= col[u]; set
    /// u` — the columns are the rows of the reversed graph. Both passes
    /// write in place: one row union per edge and matrix, `O(m · n / 64)`
    /// word operations, no per-node scratch row.
    ///
    /// # Panics
    /// Panics if an edge endpoint is `>= n`.
    pub fn of_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Option<Self> {
        let g = Csr::new(n, edges.iter().copied());
        let order = g.kahn_order()?;
        let stride = n.div_ceil(64);
        let mut rows = vec![0u64; n * stride];
        let mut cols = vec![0u64; n * stride];
        close(&mut rows, stride, &g, order.iter().rev().copied());
        let reversed = Csr::new(n, edges.iter().map(|&(u, v)| (v, u)));
        close(&mut cols, stride, &reversed, order.iter().copied());
        Some(TransitiveClosure {
            n,
            stride,
            rows,
            cols,
        })
    }

    /// Computes the closure of `g`, or `None` if `g` has a cycle.
    pub fn of_graph(g: &DiGraph) -> Option<Self> {
        Self::of_edges(g.node_count(), g.edges())
    }

    /// Builds a closure directly from `n` nodes and an edge list, or
    /// `None` if the pairs contain a cycle.
    ///
    /// # Panics
    /// Panics if an edge endpoint is `>= n`.
    pub fn from_pairs<I>(n: usize, pairs: I) -> Option<Self>
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

    /// The transitive reduction (Hasse diagram): the unique minimal edge
    /// set with the same closure, in
    /// [`for_each_cover`](Self::for_each_cover) order.
    pub fn reduction(&self) -> Vec<(NodeId, NodeId)> {
        let mut covers = Vec::new();
        self.for_each_cover(|u, v| covers.push((u, v)));
        covers
    }

    /// Calls `f(u, v)` for every covering pair of the order — `u`
    /// reaches `v` and no `w` has `u -> w -> v` — by `u` and then `v`
    /// ascending, without allocating.
    ///
    /// Word-parallel: `v` is mediated from `u` exactly when some `w` in
    /// row(u) reaches it, so word `i` of `u`'s covers is
    /// `row(u)[i] & !⋃_{w ∈ row(u)} row(w)[i]`, built one word at a
    /// time. Acyclicity makes the usual `w != v` guard unnecessary: `v`
    /// never lies in its own row, so unioning row(v) cannot mark `v`.
    pub fn for_each_cover(&self, mut f: impl FnMut(NodeId, NodeId)) {
        for u in 0..self.n {
            let row = self.descendants(u);
            for (wi, &word) in row.words().iter().enumerate() {
                let mediated = row
                    .iter()
                    .fold(0, |acc, w| acc | self.rows[w * self.stride + wi]);
                let mut word = word & !mediated;
                while word != 0 {
                    f(u, wi * 64 + word.trailing_zeros() as usize);
                    word &= word - 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closure(n: usize, pairs: &[(NodeId, NodeId)]) -> TransitiveClosure {
        TransitiveClosure::from_pairs(n, pairs.iter().copied()).expect("acyclic")
    }

    #[test]
    fn chain_closure() {
        let c = closure(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(c.reaches(0, 3));
        assert!(c.reaches(1, 3));
        assert!(!c.reaches(3, 0));
        assert!(!c.reaches(0, 0));
    }

    #[test]
    fn cyclic_edges_have_no_closure() {
        for (n, pairs) in [
            (3, &[(0, 1), (1, 0)][..]),
            (2, &[(0, 0)]),
            // 0 <-> 1 -> 2
            (3, &[(0, 1), (1, 0), (1, 2)]),
            // acyclic prefix, then a self-loop on the last node
            (4, &[(0, 1), (1, 2), (2, 3), (3, 3)]),
        ] {
            assert_eq!(
                TransitiveClosure::from_pairs(n, pairs.iter().copied()),
                None
            );
            assert_eq!(TransitiveClosure::of_edges(n, pairs), None);
        }
    }

    #[test]
    fn ancestors_and_descendants() {
        let c = closure(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let d0: Vec<_> = c.descendants(0).iter().collect();
        assert_eq!(d0, vec![1, 2, 3]);
        let a3: Vec<_> = c.ancestors(3).iter().collect();
        assert_eq!(a3, vec![0, 1, 2]);
    }

    #[test]
    fn reduction_of_diamond_with_shortcut() {
        // diamond plus the redundant edge 0 -> 3
        let c = closure(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]);
        let mut red = c.reduction();
        red.sort_unstable();
        assert_eq!(red, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn reduction_closure_roundtrip() {
        let c = closure(5, &[(0, 1), (1, 2), (0, 2), (2, 4), (1, 4), (3, 4)]);
        let red = c.reduction();
        assert_eq!(c.pairs(), closure(5, &red).pairs());
    }

    #[test]
    fn empty_universe() {
        let c = closure(0, &[]);
        assert!(c.is_empty());
        assert!(c.pairs().is_empty());
    }

    #[test]
    fn pairs_enumerates_all() {
        let c = closure(3, &[(0, 1), (1, 2)]);
        let mut p = c.pairs();
        p.sort_unstable();
        assert_eq!(p, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn large_chain_scales() {
        let n = 500;
        let chain: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let c = closure(n, &chain);
        assert!(c.reaches(0, n - 1));
        assert!((0..n).all(|v| !c.reaches(v, v)));
        assert_eq!(c.descendants(0).len(), n - 1);
    }
}
