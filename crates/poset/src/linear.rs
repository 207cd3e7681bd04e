//! Linear extensions of partial orders.
//!
//! The SYNC limit set is defined through the existence of a numbering
//! `T : M -> N` linearizing the message precedence relation (§3.4), and
//! several proofs in the paper construct runs by picking particular
//! linearizations (Figure 7). This module provides existence, exhaustive
//! enumeration (for small posets, used by the exhaustive-run experiments)
//! and counting.

use crate::poset::Poset;

/// Enumerates **all** linear extensions of `p`, invoking `visit` for each.
///
/// Returns the number of extensions visited. If `visit` returns `false`
/// the enumeration stops early (the count still includes that extension).
///
/// This is the classic backtracking over minimal elements; exponential in
/// general, so only call it on small posets (the experiments use n ≤ 8).
pub fn for_each_extension<F>(p: &Poset, mut visit: F) -> usize
where
    F: FnMut(&[usize]) -> bool,
{
    let n = p.len();
    // indeg in the cover graph
    let covers = if n == 0 { Vec::new() } else { p.covers() };
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for (u, v) in covers {
        succ[u].push(v);
        indeg[v] += 1;
    }
    let mut prefix: Vec<usize> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut count = 0usize;
    let mut stop = false;
    // The recursion's shared mutable state, passed explicitly rather
    // than bundled — each argument is touched on every frame.
    #[allow(clippy::too_many_arguments)]
    fn rec(
        n: usize,
        succ: &[Vec<usize>],
        indeg: &mut [usize],
        placed: &mut [bool],
        prefix: &mut Vec<usize>,
        count: &mut usize,
        stop: &mut bool,
        visit: &mut dyn FnMut(&[usize]) -> bool,
    ) {
        if *stop {
            return;
        }
        if prefix.len() == n {
            *count += 1;
            if !visit(prefix) {
                *stop = true;
            }
            return;
        }
        for v in 0..n {
            if !placed[v] && indeg[v] == 0 {
                placed[v] = true;
                prefix.push(v);
                for &w in &succ[v] {
                    indeg[w] -= 1;
                }
                rec(n, succ, indeg, placed, prefix, count, stop, visit);
                for &w in &succ[v] {
                    indeg[w] += 1;
                }
                prefix.pop();
                placed[v] = false;
                if *stop {
                    return;
                }
            }
        }
    }
    rec(
        n,
        &succ,
        &mut indeg,
        &mut placed,
        &mut prefix,
        &mut count,
        &mut stop,
        &mut visit,
    );
    count
}

/// Counts the linear extensions of `p` (exponential; small posets only).
pub fn count_extensions(p: &Poset) -> usize {
    for_each_extension(p, |_| true)
}

/// Collects all linear extensions (small posets only).
pub fn all_extensions(p: &Poset) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for_each_extension(p, |ext| {
        out.push(ext.to_vec());
        true
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Poset {
        Poset::from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn diamond_has_two_extensions() {
        assert_eq!(count_extensions(&diamond()), 2);
        let exts = all_extensions(&diamond());
        assert!(exts.contains(&vec![0, 1, 2, 3]));
        assert!(exts.contains(&vec![0, 2, 1, 3]));
    }

    #[test]
    fn antichain_has_factorial_extensions() {
        let p = Poset::from_pairs(4, []).unwrap();
        assert_eq!(count_extensions(&p), 24);
    }

    #[test]
    fn chain_has_one_extension() {
        let p = Poset::from_pairs(5, (0..4).map(|i| (i, i + 1))).unwrap();
        assert_eq!(count_extensions(&p), 1);
        assert_eq!(all_extensions(&p)[0], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn every_extension_respects_order() {
        let p = Poset::from_pairs(5, [(0, 2), (1, 2), (2, 4), (3, 4)]).unwrap();
        for ext in all_extensions(&p) {
            let mut pos = [0usize; 5];
            for (i, &v) in ext.iter().enumerate() {
                pos[v] = i;
            }
            for (u, v) in p.relation_pairs() {
                assert!(pos[u] < pos[v], "extension {ext:?} violates {u} < {v}");
            }
        }
    }

    #[test]
    fn early_stop() {
        let p = Poset::from_pairs(4, []).unwrap();
        let mut seen = 0;
        for_each_extension(&p, |_| {
            seen += 1;
            seen < 3
        });
        assert_eq!(seen, 3);
    }

    #[test]
    fn empty_poset_extension() {
        let p = Poset::from_pairs(0, []).unwrap();
        assert_eq!(count_extensions(&p), 1, "the empty sequence");
    }
}
