//! Transitive closure and transitive reduction.

use crate::bitset::BitSet;
use crate::graph::{DiGraph, NodeId};

/// The reachability matrix of a directed graph.
///
/// `reaches(u, v)` answers "is there a non-empty directed path from `u` to
/// `v`?" — i.e. this is the closure of the *strict* relation: a node does
/// not reach itself unless it lies on a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitiveClosure {
    n: usize,
    rows: Vec<BitSet>,
    /// Transposed rows: `cols[v]` is the ancestor set of `v`. Kept
    /// alongside `rows` so [`TransitiveClosure::ancestors`] is a lookup
    /// instead of an `O(n)` column scan.
    cols: Vec<BitSet>,
}

impl TransitiveClosure {
    /// Computes the closure of `g`.
    ///
    /// One pass over Tarjan's component order per matrix: a component's
    /// row is the union, over the out-edges of its members, of the edge's
    /// target and the target's (already complete) row, plus the members
    /// themselves when the component is cyclic; every member gets a copy.
    /// `cols` is the mirrored predecessor-first pass. Cyclic inputs are
    /// therefore handled correctly (every node of a non-trivial SCC, and
    /// every node with a self-loop, reaches itself). Each edge costs one
    /// row union and each node one row copy: `O((n + m) * n / 64)` word
    /// operations, no per-bit work.
    pub fn of_graph(g: &DiGraph) -> Self {
        let n = g.node_count();
        let comps = g.sccs();
        let mut comp_of = vec![0usize; n];
        for (ci, comp) in comps.iter().enumerate() {
            for &v in comp {
                comp_of[v] = ci;
            }
        }
        // Tarjan emits components successors-first, so rows walk `comps`
        // forwards and columns walk it backwards.
        let rows = reach_sets(n, comps.iter(), &comp_of, |v| g.successors(v));
        let cols = reach_sets(n, comps.iter().rev(), &comp_of, |v| g.predecessors(v));
        TransitiveClosure { n, rows, cols }
    }

    /// Builds a closure directly from `n` nodes and an edge list.
    pub fn from_pairs<I>(n: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut g = DiGraph::new(n);
        for (u, v) in pairs {
            g.add_edge(u, v).expect("edge endpoints must be < n");
        }
        Self::of_graph(&g)
    }

    /// Number of nodes in the universe.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether there is a non-empty path `u -> ... -> v`.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        self.rows[u].contains(v)
    }

    /// Whether the underlying relation is a strict partial order, i.e.
    /// irreflexive after closure (no node lies on a cycle).
    pub fn is_strict_order(&self) -> bool {
        (0..self.n).all(|v| !self.rows[v].contains(v))
    }

    /// The full descendant set of `u` (everything reachable from it).
    pub fn descendants(&self, u: NodeId) -> &BitSet {
        &self.rows[u]
    }

    /// The ancestor set of `v` (everything that reaches it). `O(1)` —
    /// served from the transposed matrix built at construction.
    pub fn ancestors(&self, v: NodeId) -> &BitSet {
        &self.cols[v]
    }

    /// All ordered pairs `(u, v)` with `u` reaching `v`.
    pub fn pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for u in 0..self.n {
            for v in self.rows[u].iter() {
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
        // when some w in rows[u] reaches v, so
        //   covers_u = rows[u] & !(⋃_{w ∈ rows[u]} rows[w]).
        // Acyclicity makes the usual `w != v` guard unnecessary: v never
        // lies in its own row, so unioning rows[v] cannot mark v itself.
        let mut covers = Vec::new();
        let mut mediated = BitSet::new(self.n);
        for u in 0..self.n {
            mediated.clear();
            for w in self.rows[u].iter() {
                mediated.union_with(&self.rows[w]);
            }
            let mut row_covers = self.rows[u].clone();
            row_covers.difference_with(&mediated);
            for v in row_covers.iter() {
                covers.push((u, v));
            }
        }
        covers
    }
}

/// For every node, the set reached by a non-empty walk along `next`.
///
/// `comps` must list the strongly connected components so that every
/// `next`-neighbour outside a component belongs to an earlier one.
fn reach_sets<'a, I>(
    n: usize,
    comps: impl Iterator<Item = &'a Vec<NodeId>>,
    comp_of: &[usize],
    next: impl Fn(NodeId) -> I,
) -> Vec<BitSet>
where
    I: Iterator<Item = NodeId>,
{
    let mut sets = vec![BitSet::new(n); n];
    let mut acc = BitSet::new(n);
    for comp in comps {
        let ci = comp_of[comp[0]];
        let mut cyclic = comp.len() > 1;
        acc.clear();
        for &u in comp {
            for v in next(u) {
                if comp_of[v] == ci {
                    cyclic = true; // covers self-loops
                } else {
                    acc.insert(v);
                    acc.union_with(&sets[v]);
                }
            }
        }
        if cyclic {
            acc.extend(comp.iter().copied());
        }
        for &u in comp {
            sets[u].union_with(&acc); // still empty, so this is a copy
        }
    }
    sets
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
