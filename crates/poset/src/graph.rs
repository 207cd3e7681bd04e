//! A small directed multigraph with the classic structural algorithms.
//!
//! Nodes are dense indices `0..n`; parallel edges and self-loops are
//! allowed (predicate graphs in the paper are multigraphs — Definition
//! 4.2 explicitly says "multi-graph").

use crate::error::PosetError;

/// Index of a node in a [`DiGraph`].
pub type NodeId = usize;
/// Index of an edge in a [`DiGraph`] (position in insertion order).
pub type EdgeId = usize;

/// A directed multigraph over nodes `0..n`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiGraph {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
    /// Outgoing edge ids per node.
    out: Vec<Vec<EdgeId>>,
}

impl DiGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            n,
            edges: Vec::new(),
            out: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges (parallel edges counted separately).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a directed edge `u -> v` and returns its id.
    ///
    /// # Errors
    /// Returns [`PosetError::NodeOutOfRange`] if `u` or `v` is not a node.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeId, PosetError> {
        for &x in &[u, v] {
            if x >= self.n {
                return Err(PosetError::NodeOutOfRange {
                    node: x,
                    len: self.n,
                });
            }
        }
        let id = self.edges.len();
        self.edges.push((u, v));
        self.out[u].push(id);
        Ok(id)
    }

    /// The endpoints `(source, target)` of edge `e`.
    ///
    /// # Panics
    /// Panics if `e` is not a valid edge id.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e]
    }

    /// All edges as `(source, target)` pairs, in insertion order.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Ids of edges leaving `u`.
    pub fn out_edges(&self, u: NodeId) -> &[EdgeId] {
        &self.out[u]
    }

    /// Successor nodes of `u` (may contain duplicates for parallel edges).
    pub fn successors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out[u].iter().map(move |&e| self.edges[e].1)
    }

    /// A topological order of the nodes, or a witness cycle if none exists.
    ///
    /// Kahn's algorithm; ties are broken by node index so the result is
    /// deterministic.
    ///
    /// # Errors
    /// Returns [`PosetError::Cyclic`] with a witness cycle when the graph
    /// has a directed cycle.
    pub fn topo_sort(&self) -> Result<Vec<NodeId>, PosetError> {
        let mut indeg: Vec<usize> = vec![0; self.n];
        for &(_, v) in &self.edges {
            indeg[v] += 1;
        }
        // Min-heap behaviour via sorted insertion into a BinaryHeap of Reverse.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut ready: BinaryHeap<Reverse<NodeId>> = (0..self.n)
            .filter(|&v| indeg[v] == 0)
            .map(Reverse)
            .collect();
        let mut order = Vec::with_capacity(self.n);
        while let Some(Reverse(u)) = ready.pop() {
            order.push(u);
            for v in self.successors(u) {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    ready.push(Reverse(v));
                }
            }
        }
        if order.len() == self.n {
            Ok(order)
        } else {
            Err(PosetError::Cyclic {
                cycle: self
                    .find_cycle()
                    .expect("cycle must exist when topo sort fails"),
            })
        }
    }

    /// Whether the graph contains a directed cycle (self-loops count).
    pub fn has_cycle(&self) -> bool {
        self.find_cycle().is_some()
    }

    /// Finds one elementary directed cycle, as a node sequence
    /// `[v0, v1, ..., vk]` with an implicit edge `vk -> v0`.
    ///
    /// Returns `None` for acyclic graphs. Iterative DFS with colors.
    pub fn find_cycle(&self) -> Option<Vec<NodeId>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; self.n];
        let mut parent: Vec<Option<NodeId>> = vec![None; self.n];
        for root in 0..self.n {
            if color[root] != Color::White {
                continue;
            }
            // stack of (node, next out-edge position)
            let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
            color[root] = Color::Gray;
            while let Some(&mut (u, ref mut next)) = stack.last_mut() {
                if *next < self.out[u].len() {
                    let e = self.out[u][*next];
                    *next += 1;
                    let v = self.edges[e].1;
                    match color[v] {
                        Color::Gray => {
                            // Found a cycle: walk back from u to v via parents.
                            let mut cyc = vec![u];
                            let mut cur = u;
                            while cur != v {
                                cur = parent[cur].expect("gray node must have parent on stack");
                                cyc.push(cur);
                            }
                            cyc.reverse();
                            return Some(cyc);
                        }
                        Color::White => {
                            color[v] = Color::Gray;
                            parent[v] = Some(u);
                            stack.push((v, 0));
                        }
                        Color::Black => {}
                    }
                } else {
                    color[u] = Color::Black;
                    stack.pop();
                }
            }
        }
        None
    }

    /// The graph with every edge reversed.
    pub fn reversed(&self) -> DiGraph {
        let mut g = DiGraph::new(self.n);
        for &(u, v) in &self.edges {
            g.add_edge(v, u).expect("same node universe");
        }
        g
    }
}

/// Compressed sparse rows over an edge slice: the targets of `u`'s
/// out-edges, in insertion order, are
/// `targets[starts[u]..starts[u + 1]]` — two flat arrays however many
/// nodes there are, where [`DiGraph`] keeps one list per node.
pub(crate) struct Csr {
    starts: Vec<usize>,
    targets: Vec<NodeId>,
}

impl Csr {
    /// # Panics
    /// Panics if an endpoint is `>= n`.
    pub(crate) fn new<I>(n: usize, edges: I) -> Csr
    where
        I: Iterator<Item = (NodeId, NodeId)> + Clone,
    {
        let mut starts = vec![0usize; n + 1];
        let mut m = 0;
        for (u, v) in edges.clone() {
            assert!(u < n && v < n, "edge endpoints must be < n");
            starts[u + 1] += 1;
            m += 1;
        }
        for u in 0..n {
            starts[u + 1] += starts[u];
        }
        // Stable counting sort by source: `starts[u]` doubles as `u`'s
        // write cursor and ends up one slot to the right, i.e. holding
        // `starts[u + 1]`; shifting back restores it.
        let mut targets = vec![0; m];
        for (u, v) in edges {
            targets[starts[u]] = v;
            starts[u] += 1;
        }
        starts.copy_within(0..n, 1);
        starts[0] = 0;
        Csr { starts, targets }
    }

    pub(crate) fn successors(&self, u: NodeId) -> &[NodeId] {
        &self.targets[self.starts[u]..self.starts[u + 1]]
    }

    /// A topological order of the nodes (Kahn's algorithm, FIFO), or
    /// `None` if the graph has a cycle — self-loops included. The order
    /// vector doubles as the queue: `order[head..]` are the nodes whose
    /// in-degree has dropped to zero but whose out-edges are not yet
    /// retired.
    pub(crate) fn kahn_order(&self) -> Option<Vec<NodeId>> {
        let n = self.starts.len() - 1;
        let mut indeg = vec![0usize; n];
        for &v in &self.targets {
            indeg[v] += 1;
        }
        let mut order = Vec::with_capacity(n);
        order.extend((0..n).filter(|&v| indeg[v] == 0));
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            for &v in self.successors(u) {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    order.push(v);
                }
            }
        }
        (order.len() == n).then_some(order)
    }
}

/// Whether the graph on nodes `0..n` with the given edges has no
/// directed cycle (a self-loop is one). Parallel edges are allowed.
///
/// One CSR plus one Kahn pass: at most four allocations however many
/// nodes or edges there are, where building a [`DiGraph`] for
/// [`DiGraph::has_cycle`] makes two per node.
///
/// # Panics
/// Panics if an edge endpoint is `>= n`.
pub fn is_acyclic(n: usize, edges: &[(NodeId, NodeId)]) -> bool {
    Csr::new(n, edges.iter().copied()).kahn_order().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1).unwrap();
        g.add_edge(0, 2).unwrap();
        g.add_edge(1, 3).unwrap();
        g.add_edge(2, 3).unwrap();
        g
    }

    #[test]
    fn topo_sort_diamond() {
        let order = diamond().topo_sort().unwrap();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn topo_sort_detects_cycle() {
        let mut g = diamond();
        g.add_edge(3, 0).unwrap();
        match g.topo_sort() {
            Err(PosetError::Cyclic { cycle }) => {
                assert!(!cycle.is_empty());
                // verify the witness really is a cycle
                for w in cycle.windows(2) {
                    assert!(g.successors(w[0]).any(|s| s == w[1]));
                }
                let (&first, &last) = (cycle.first().unwrap(), cycle.last().unwrap());
                assert!(g.successors(last).any(|s| s == first));
            }
            other => panic!("expected cycle error, got {other:?}"),
        }
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = DiGraph::new(2);
        g.add_edge(1, 1).unwrap();
        assert!(g.has_cycle());
        assert_eq!(g.find_cycle().unwrap(), vec![1]);
    }

    #[test]
    fn acyclic_has_no_cycle() {
        assert!(!diamond().has_cycle());
        assert!(diamond().find_cycle().is_none());
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g = DiGraph::new(2);
        let e1 = g.add_edge(0, 1).unwrap();
        let e2 = g.add_edge(0, 1).unwrap();
        assert_ne!(e1, e2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.successors(0).count(), 2);
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let mut g = DiGraph::new(2);
        assert!(matches!(
            g.add_edge(0, 2),
            Err(PosetError::NodeOutOfRange { node: 2, len: 2 })
        ));
    }

    #[test]
    fn reversed_flips_edges() {
        let g = diamond().reversed();
        assert!(g.successors(3).any(|v| v == 1));
        assert!(g.successors(1).any(|v| v == 0));
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new(0);
        assert_eq!(g.topo_sort().unwrap(), Vec::<usize>::new());
        assert!(!g.has_cycle());
    }
}
