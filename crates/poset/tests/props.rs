//! Property tests for the partial-order substrate.

use msgorder_poset::{linear, BitSet, DiGraph, Poset, TransitiveClosure, VectorClock};
use proptest::prelude::*;

fn forward_edges() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..10).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..20).prop_map(move |es| {
            es.into_iter()
                .filter(|(u, v)| u < v) // forward ⇒ acyclic
                .collect::<Vec<_>>()
        });
        (Just(n), edges)
    })
}

/// Arbitrary digraphs: back edges close multi-node SCCs, `u == v`
/// gives self-loops, and a sparse draw leaves isolated nodes.
fn any_edges() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (1usize..12).prop_flat_map(|n| (Just(n), proptest::collection::vec((0..n, 0..n), 0..24)))
}

/// Nodes reached from `from` by a non-empty path — a plain DFS over the
/// edge list, sharing nothing with `TransitiveClosure`.
fn dfs_reach(n: usize, edges: &[(usize, usize)], from: usize) -> Vec<usize> {
    let mut seen = vec![false; n];
    let mut stack = vec![from];
    while let Some(u) = stack.pop() {
        for &(a, b) in edges {
            if a == u && !seen[b] {
                seen[b] = true;
                stack.push(b);
            }
        }
    }
    (0..n).filter(|&v| seen[v]).collect()
}

#[test]
fn closure_matches_dfs_on_nested_sccs() {
    // {0,1,2} -> {3,4}, a self-loop on 5 fed by 4, and 6 isolated.
    let edges = [
        (0, 1),
        (1, 2),
        (2, 0),
        (2, 3),
        (3, 4),
        (4, 3),
        (4, 5),
        (5, 5),
    ];
    let c = TransitiveClosure::from_pairs(7, edges);
    for v in 0..7 {
        let row: Vec<usize> = c.descendants(v).iter().collect();
        assert_eq!(row, dfs_reach(7, &edges, v), "row {v}");
    }
    assert_eq!(
        c.ancestors(5).iter().collect::<Vec<_>>(),
        vec![0, 1, 2, 3, 4, 5]
    );
    assert!(c.ancestors(6).is_empty() && c.descendants(6).is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn closure_matches_dfs_on_any_digraph((n, edges) in any_edges()) {
        let c = TransitiveClosure::from_pairs(n, edges.iter().copied());
        let mut on_cycle = false;
        for v in 0..n {
            let reach = dfs_reach(n, &edges, v);
            on_cycle |= reach.contains(&v);
            prop_assert_eq!(c.descendants(v).iter().collect::<Vec<_>>(), reach, "row {}", v);
        }
        prop_assert_eq!(c.is_strict_order(), !on_cycle);
    }

    #[test]
    fn closure_is_idempotent((n, edges) in forward_edges()) {
        let c1 = TransitiveClosure::from_pairs(n, edges);
        let c2 = TransitiveClosure::from_pairs(n, c1.pairs());
        prop_assert_eq!(c1.pairs(), c2.pairs());
    }

    #[test]
    fn reduction_is_minimal((n, edges) in forward_edges()) {
        let c = TransitiveClosure::from_pairs(n, edges);
        let red = c.reduction();
        // removing any cover changes the closure
        for skip in 0..red.len() {
            let mut fewer = red.clone();
            fewer.remove(skip);
            let c2 = TransitiveClosure::from_pairs(n, fewer);
            prop_assert_ne!(c.pairs(), c2.pairs(), "cover {:?} was redundant", red[skip]);
        }
    }

    #[test]
    fn closure_transitive((n, edges) in forward_edges()) {
        let c = TransitiveClosure::from_pairs(n, edges);
        for a in 0..n {
            for b in 0..n {
                for d in 0..n {
                    if c.reaches(a, b) && c.reaches(b, d) {
                        prop_assert!(c.reaches(a, d));
                    }
                }
            }
        }
    }

    #[test]
    fn poset_comparability_consistent((n, edges) in forward_edges()) {
        let p = Poset::from_pairs(n, edges).unwrap();
        for a in 0..n {
            prop_assert!(!p.lt(a, a), "irreflexive");
            for b in 0..n {
                prop_assert!(!(p.lt(a, b) && p.lt(b, a)), "antisymmetric");
                prop_assert_eq!(p.concurrent(a, b), a != b && !p.comparable(a, b));
            }
        }
    }

    #[test]
    fn height_width_bound((n, edges) in forward_edges()) {
        use msgorder_poset::ideals;
        let p = Poset::from_pairs(n, edges).unwrap();
        prop_assert!(ideals::height(&p) * ideals::width(&p) >= n, "Mirsky/Dilworth bound");
        let ac = ideals::max_antichain(&p);
        prop_assert!(p.is_antichain(&ac));
        prop_assert_eq!(ac.len(), ideals::width(&p));
    }

    #[test]
    fn linear_extension_count_positive((n, edges) in forward_edges()) {
        let p = Poset::from_pairs(n, edges).unwrap();
        if n <= 7 {
            prop_assert!(linear::count_extensions(&p) >= 1);
        } else {
            // at least the deterministic one exists
            prop_assert_eq!(p.a_linear_extension().len(), n);
        }
    }

    #[test]
    fn bitset_union_is_commutative(xs in proptest::collection::vec(0usize..64, 0..20),
                                   ys in proptest::collection::vec(0usize..64, 0..20)) {
        let mk = |items: &[usize]| {
            let mut s = BitSet::new(64);
            for &i in items { s.insert(i); }
            s
        };
        let (a, b) = (mk(&xs), mk(&ys));
        let mut ab = a.clone(); ab.union_with(&b);
        let mut ba = b.clone(); ba.union_with(&a);
        prop_assert_eq!(ab.iter().collect::<Vec<_>>(), ba.iter().collect::<Vec<_>>());
    }

    #[test]
    fn vclock_merge_dominates(xs in proptest::collection::vec(0u64..50, 4),
                              ys in proptest::collection::vec(0u64..50, 4)) {
        let a = VectorClock::from_entries(xs);
        let b = VectorClock::from_entries(ys);
        let mut m = a.clone();
        m.merge(&b);
        prop_assert!(!m.happened_before(&a));
        prop_assert!(!m.happened_before(&b));
        prop_assert!(a == m || a.happened_before(&m) || !b.happened_before(&a));
    }

    #[test]
    fn topo_sort_respects_edges((n, edges) in forward_edges()) {
        let mut g = DiGraph::new(n);
        for (u, v) in &edges {
            g.add_edge(*u, *v).unwrap();
        }
        let order = g.topo_sort().unwrap();
        let mut pos = vec![0usize; n];
        for (i, &v) in order.iter().enumerate() {
            pos[v] = i;
        }
        for (u, v) in edges {
            prop_assert!(pos[u] < pos[v]);
        }
    }

    #[test]
    fn reduction_matches_naive_definition((n, edges) in forward_edges()) {
        // The word-parallel kernel must agree with the textbook cover
        // definition: u ⋖ v iff u < v and no w has u < w < v.
        let c = TransitiveClosure::from_pairs(n, edges);
        let mut naive = Vec::new();
        for (u, v) in c.pairs() {
            let mediated = (0..n).any(|w| w != u && w != v && c.reaches(u, w) && c.reaches(w, v));
            if !mediated {
                naive.push((u, v));
            }
        }
        prop_assert_eq!(c.reduction(), naive);
    }

    #[test]
    fn ancestors_cache_matches_column_scan((n, edges) in any_edges()) {
        // The transposed-rows cache must agree with scanning the row
        // matrix column-wise, cycles and self-loops included.
        let c = TransitiveClosure::from_pairs(n, edges);
        for v in 0..n {
            let cached: Vec<usize> = c.ancestors(v).iter().collect();
            let scanned: Vec<usize> = (0..n).filter(|&u| c.reaches(u, v)).collect();
            prop_assert_eq!(cached, scanned, "ancestors of {}", v);
        }
    }
}
