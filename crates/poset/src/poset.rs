//! Validated strict partial orders.

use crate::closure::TransitiveClosure;
use crate::error::PosetError;
use crate::graph::{DiGraph, NodeId};

/// A finite strict partial order over elements `0..len`.
///
/// Construction validates acyclicity; the closure is precomputed, so
/// comparability queries are `O(1)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poset {
    closure: TransitiveClosure,
}

impl Poset {
    /// Builds a poset over `0..n` as the transitive closure of `pairs`.
    ///
    /// # Errors
    /// Returns [`PosetError::Cyclic`] if the pairs induce a cycle and
    /// [`PosetError::NodeOutOfRange`] for out-of-range endpoints.
    pub fn from_pairs<I>(n: usize, pairs: I) -> Result<Self, PosetError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut g = DiGraph::new(n);
        for (u, v) in pairs {
            g.add_edge(u, v)?;
        }
        Self::from_graph(&g)
    }

    /// Builds a poset as the transitive closure of a graph.
    ///
    /// # Errors
    /// Returns [`PosetError::Cyclic`] if the graph has a directed cycle.
    pub fn from_graph(g: &DiGraph) -> Result<Self, PosetError> {
        match TransitiveClosure::of_graph(g) {
            Some(closure) => Ok(Poset { closure }),
            None => Err(PosetError::Cyclic {
                cycle: g.find_cycle().expect("a graph with no closure has a cycle"),
            }),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.closure.len()
    }

    /// Whether the poset has no elements.
    pub fn is_empty(&self) -> bool {
        self.closure.is_empty()
    }

    /// Strictly-less-than: `a < b` in the order.
    pub fn lt(&self, a: NodeId, b: NodeId) -> bool {
        self.closure.reaches(a, b)
    }

    /// Less-than-or-equal: `a < b` or `a == b`.
    pub fn le(&self, a: NodeId, b: NodeId) -> bool {
        a == b || self.lt(a, b)
    }

    /// Whether `a` and `b` are comparable (`a < b`, `b < a`, or equal).
    pub fn comparable(&self, a: NodeId, b: NodeId) -> bool {
        a == b || self.lt(a, b) || self.lt(b, a)
    }

    /// Whether `a` and `b` are concurrent (distinct and incomparable).
    pub fn concurrent(&self, a: NodeId, b: NodeId) -> bool {
        !self.comparable(a, b)
    }

    /// The underlying closure.
    pub fn closure(&self) -> &TransitiveClosure {
        &self.closure
    }

    /// All pairs `(a, b)` with `a < b`.
    pub fn relation_pairs(&self) -> Vec<(NodeId, NodeId)> {
        self.closure.pairs()
    }

    /// The covering pairs (Hasse diagram edges).
    pub fn covers(&self) -> Vec<(NodeId, NodeId)> {
        self.closure.reduction()
    }

    /// Elements with no strict predecessor.
    pub fn minimal_elements(&self) -> Vec<NodeId> {
        (0..self.len())
            .filter(|&v| (0..self.len()).all(|u| !self.lt(u, v)))
            .collect()
    }

    /// One topological linear extension (deterministic, index tie-break).
    pub fn a_linear_extension(&self) -> Vec<NodeId> {
        let mut g = DiGraph::new(self.len());
        for (u, v) in self.covers() {
            g.add_edge(u, v).expect("cover endpoints in range");
        }
        g.topo_sort().expect("poset is acyclic by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Poset {
        Poset::from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn lt_le_comparable() {
        let p = diamond();
        assert!(p.lt(0, 3));
        assert!(!p.lt(3, 0));
        assert!(p.le(1, 1));
        assert!(!p.lt(1, 1));
        assert!(p.comparable(0, 3));
        assert!(p.concurrent(1, 2));
    }

    #[test]
    fn cyclic_rejected_with_witness() {
        let err = Poset::from_pairs(3, [(0, 1), (1, 2), (2, 0)]).unwrap_err();
        match err {
            PosetError::Cyclic { cycle } => assert_eq!(cycle.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn minimal_maximal() {
        let p = diamond();
        assert_eq!(p.minimal_elements(), vec![0]);
    }

    #[test]
    fn linear_extension_respects_order() {
        let p = diamond();
        let ext = p.a_linear_extension();
        let pos: Vec<usize> = {
            let mut pos = vec![0; 4];
            for (i, &v) in ext.iter().enumerate() {
                pos[v] = i;
            }
            pos
        };
        for (u, v) in p.relation_pairs() {
            assert!(pos[u] < pos[v]);
        }
    }

    #[test]
    fn empty_poset() {
        let p = Poset::from_pairs(0, []).unwrap();
        assert!(p.is_empty());
        assert!(p.minimal_elements().is_empty());
    }

    #[test]
    fn antichain_poset_all_concurrent() {
        let p = Poset::from_pairs(5, []).unwrap();
        for a in 0..5 {
            for b in 0..5 {
                if a != b {
                    assert!(p.concurrent(a, b));
                }
            }
        }
        assert_eq!(p.minimal_elements().len(), 5);
    }
}
