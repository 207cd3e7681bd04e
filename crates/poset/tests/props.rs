//! Property tests for the partial-order substrate.

use msgorder_poset::{is_acyclic, linear, BitSet, DiGraph, Poset, TransitiveClosure, VectorClock};
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

/// Multigraphs on both sides of every word boundary of the closure's
/// `n × ⌈n/64⌉` matrices: anything from no edge to about two per node,
/// the first edge sometimes doubled. A third of the draws keep every
/// edge as drawn (cycles and self-loops, so nearly always cyclic at 63
/// nodes and up), a third orient every edge upwards and a third
/// downwards (DAGs whose topological order runs with, or against, the
/// node numbering).
fn word_boundary_multigraphs() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    const SIZES: [usize; 7] = [0, 1, 2, 63, 64, 65, 130];
    (0..SIZES.len(), 0..3u8).prop_flat_map(|(i, orient)| {
        let n = SIZES[i];
        let node = 0..n.max(1);
        let edges = proptest::collection::vec((node.clone(), node), 0..2 * n + 1).prop_map(
            move |mut es| {
                if n == 0 {
                    es.clear();
                }
                if orient > 0 {
                    es.retain(|&(u, v)| u != v);
                    for e in &mut es {
                        let (lo, hi) = (e.0.min(e.1), e.0.max(e.1));
                        *e = if orient == 1 { (lo, hi) } else { (hi, lo) };
                    }
                }
                if let Some(&(u, v)) = es.first() {
                    if (u + v) % 2 == 0 {
                        es.push((u, v));
                    }
                    if orient == 0 && (u + v) % 3 == 0 {
                        es.push((v, v));
                    }
                }
                es
            },
        );
        (Just(n), edges)
    })
}

/// `reach[u][v]` iff a non-empty path leads from `u` to `v`: one DFS
/// per node over adjacency lists built here, sharing nothing with the
/// crate's CSR, Kahn pass or matrices.
fn reach_oracle(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<bool>> {
    let mut adj = vec![Vec::new(); n];
    for &(u, v) in edges {
        adj[u].push(v);
    }
    (0..n)
        .map(|from| {
            let mut seen = vec![false; n];
            let mut stack = vec![from];
            while let Some(u) = stack.pop() {
                for &v in &adj[u] {
                    if !seen[v] {
                        seen[v] = true;
                        stack.push(v);
                    }
                }
            }
            seen
        })
        .collect()
}

#[test]
fn nested_cycles_have_no_closure() {
    // {0,1,2} -> {3,4}, a self-loop on 5 fed by 4, and 6 isolated.
    let mut edges = vec![
        (0, 1),
        (1, 2),
        (2, 0),
        (2, 3),
        (3, 4),
        (4, 3),
        (4, 5),
        (5, 5),
    ];
    assert_eq!(TransitiveClosure::of_edges(7, &edges), None);
    // Dropping the back edges leaves a DAG with the same forward paths.
    edges.retain(|&(u, v)| u < v);
    let c = TransitiveClosure::of_edges(7, &edges).expect("forward edges are acyclic");
    for v in 0..7 {
        let row: Vec<usize> = c.descendants(v).iter().collect();
        assert_eq!(row, dfs_reach(7, &edges, v), "row {v}");
    }
    assert_eq!(
        c.ancestors(5).iter().collect::<Vec<_>>(),
        vec![0, 1, 2, 3, 4]
    );
    assert!(c.ancestors(6).is_empty() && c.descendants(6).is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn closure_matches_dfs_on_any_digraph((n, edges) in any_edges()) {
        let c = TransitiveClosure::of_edges(n, &edges);
        let reach: Vec<Vec<usize>> = (0..n).map(|v| dfs_reach(n, &edges, v)).collect();
        let on_cycle = (0..n).any(|v| reach[v].contains(&v));
        prop_assert_eq!(c.is_none(), on_cycle);
        prop_assert_eq!(is_acyclic(n, &edges), !on_cycle);
        if let Some(c) = &c {
            for (v, want) in reach.iter().enumerate() {
                let row: Vec<usize> = c.descendants(v).iter().collect();
                prop_assert_eq!(&row, want, "row {}", v);
            }
        }
        prop_assert_eq!(&TransitiveClosure::from_pairs(n, edges.iter().copied()), &c);
    }

    #[test]
    fn flat_closure_matches_the_oracle_across_word_boundaries(
        (n, edges) in word_boundary_multigraphs()
    ) {
        let closure = TransitiveClosure::of_edges(n, &edges);
        let reach = reach_oracle(n, &edges);
        let reach = |u: usize, v: usize| reach[u][v];
        prop_assert_eq!(closure.is_none(), (0..n).any(|v| reach(v, v)));
        let mut g = DiGraph::new(n);
        for &(u, v) in &edges {
            g.add_edge(u, v).unwrap();
        }
        prop_assert_eq!(is_acyclic(n, &edges), !g.has_cycle());

        // Three constructors, one matrix (or none).
        prop_assert_eq!(&TransitiveClosure::from_pairs(n, edges.iter().copied()), &closure);
        prop_assert_eq!(&TransitiveClosure::of_graph(&g), &closure);

        let Some(c) = closure else { return Ok(()); };
        for u in 0..n {
            let (down, up) = (c.descendants(u), c.ancestors(u));
            for v in 0..n {
                prop_assert_eq!(c.reaches(u, v), reach(u, v), "{} -> {}", u, v);
                prop_assert_eq!(down.contains(v), reach(u, v), "row {} bit {}", u, v);
                prop_assert_eq!(up.contains(v), reach(v, u), "column {} bit {}", u, v);
            }
            // One row, four readings.
            let members: Vec<usize> = (0..n).filter(|&v| down.contains(v)).collect();
            prop_assert_eq!(down.iter().collect::<Vec<_>>(), members.clone());
            prop_assert_eq!(down.len(), members.len());
            prop_assert_eq!(down.is_empty(), members.is_empty());
            prop_assert_eq!(down.words().len(), n.div_ceil(64));
            let owned = down.to_bitset();
            prop_assert_eq!(owned.capacity(), n);
            prop_assert_eq!(owned.iter().collect::<Vec<_>>(), members);
            prop_assert!(down.is_subset(&owned));
        }
    }

    #[test]
    fn closure_is_idempotent((n, edges) in forward_edges()) {
        let c1 = TransitiveClosure::from_pairs(n, edges).unwrap();
        let c2 = TransitiveClosure::from_pairs(n, c1.pairs()).unwrap();
        prop_assert_eq!(c1.pairs(), c2.pairs());
    }

    #[test]
    fn reduction_is_minimal((n, edges) in forward_edges()) {
        let c = TransitiveClosure::from_pairs(n, edges).unwrap();
        let red = c.reduction();
        // removing any cover changes the closure
        for skip in 0..red.len() {
            let mut fewer = red.clone();
            fewer.remove(skip);
            let c2 = TransitiveClosure::from_pairs(n, fewer).unwrap();
            prop_assert_ne!(c.pairs(), c2.pairs(), "cover {:?} was redundant", red[skip]);
        }
    }

    #[test]
    fn closure_transitive((n, edges) in forward_edges()) {
        let c = TransitiveClosure::from_pairs(n, edges).unwrap();
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
        let c = TransitiveClosure::from_pairs(n, edges).unwrap();
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
    fn ancestors_cache_matches_column_scan((n, edges) in forward_edges()) {
        // The transposed-rows cache must agree with scanning the row
        // matrix column-wise.
        let c = TransitiveClosure::from_pairs(n, edges).unwrap();
        for v in 0..n {
            let cached: Vec<usize> = c.ancestors(v).iter().collect();
            let scanned: Vec<usize> = (0..n).filter(|&u| c.reaches(u, v)).collect();
            prop_assert_eq!(cached, scanned, "ancestors of {}", v);
        }
    }
}
