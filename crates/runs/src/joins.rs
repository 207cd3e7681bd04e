//! Running joins of delivered send clocks ([`RunningJoins`]).

use msgorder_poset::words;

/// Running joins of delivered send clocks, one row per destination:
/// `rows × n` words, row `r` a join over send clocks of `n` components.
///
/// The crossing pair `x.s ▷ y.s ∧ y.r ▷ x.r` — causal ordering's
/// forbidden pattern, and FIFO's on one channel — is decided on vector
/// clocks alone by walking each destination's deliveries in order. Row
/// `d` holds the join of `V(z.s)` over the messages `z` delivered at
/// `d` so far; a message `x` from `s` delivered next at `d` is
/// overtaken iff `V(x.s)[s] ≤ row[d][s]`, i.e. some earlier delivery
/// at `d` was sent after `x` (THEORY §3.4 shows one at `d` exists
/// whenever any crossing pair has `x` as its overtaken message).
/// [`limit_sets::in_x_co`](crate::limit_sets::in_x_co) walks one
/// destination at a time through one reused row; the predicate layer's
/// online monitor keeps a row per destination.
#[derive(Debug, Clone, Default)]
pub struct RunningJoins {
    /// Components per clock.
    n: usize,
    /// The rows, packed: row `r` at `r·n`.
    words: Vec<u64>,
}

impl RunningJoins {
    /// `rows` empty joins over clocks of `n` components.
    pub fn new(rows: usize, n: usize) -> Self {
        RunningJoins {
            n,
            words: vec![0; rows * n],
        }
    }

    /// The number of rows.
    pub fn rows(&self) -> usize {
        self.words.len().checked_div(self.n).unwrap_or(0)
    }

    /// Empties every row.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    fn row(&self, row: usize) -> &[u64] {
        &self.words[row * self.n..(row + 1) * self.n]
    }

    /// Whether a send on process `src` stamped `sent` is covered by
    /// `row`: some send joined into it has seen this one,
    /// `sent[src] ≤ row[src]`.
    ///
    /// # Panics
    /// Panics if `row` or `src` is out of range.
    pub fn covers(&self, row: usize, src: usize, sent: &[u64]) -> bool {
        sent[src] <= self.row(row)[src]
    }

    /// Joins the whole of `sent` into `row` — what a later delivery at
    /// the row's destination is overtaken by under causal ordering.
    ///
    /// # Panics
    /// Panics if `row` is out of range or `sent` is not `n` words.
    pub fn merge(&mut self, row: usize, sent: &[u64]) {
        let n = self.n;
        words::merge_in_place(&mut self.words[row * n..(row + 1) * n], sent);
    }

    /// Raises only `row[src]` to `sent[src]` — the sender's own
    /// component, all a FIFO channel from `src` compares.
    ///
    /// # Panics
    /// Panics if `row` or `src` is out of range.
    pub fn raise(&mut self, row: usize, src: usize, sent: &[u64]) {
        let cell = &mut self.words[row * self.n + src];
        *cell = (*cell).max(sent[src]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_covers_every_component_and_raise_only_the_senders() {
        let mut joins = RunningJoins::new(2, 3);
        assert_eq!(joins.rows(), 2);
        assert!(!joins.covers(0, 1, &[0, 1, 0]));
        joins.merge(0, &[2, 1, 0]);
        assert!(joins.covers(0, 0, &[2, 9, 9]) && joins.covers(0, 1, &[0, 1, 0]));
        assert!(!joins.covers(0, 0, &[3, 0, 0]));
        joins.raise(1, 2, &[5, 5, 4]);
        assert!(joins.covers(1, 2, &[0, 0, 4]) && !joins.covers(1, 0, &[1, 0, 0]));
        assert!(!joins.covers(0, 2, &[0, 0, 1]), "rows are independent");
        joins.clear();
        assert!(!joins.covers(0, 0, &[1, 0, 0]));
        assert_eq!(RunningJoins::default().rows(), 0);
    }
}
