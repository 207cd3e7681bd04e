//! The appendix construction behind Lemma 2 (Figure 7).
//!
//! Lemma 2.1 says every live *general* protocol admits every run in
//! `X_gn`. The proof builds, from the numbering `N`, a series of
//! prefixes `H⁰ ⊂ H¹ ⊂ ...` each extending the last by exactly one
//! event, such that at every step the pending set `R(H) ∪ C(H)` is a
//! singleton or empty — so a live protocol has no choice but to enable
//! exactly the event the run executes next.
//!
//! [`gn_prefix_series`] performs that construction and *checks* the
//! singleton property at every step, turning the proof into an
//! executable certificate.

use crate::ids::{EventKind, MessageId, ProcessId, SystemEvent};
use crate::limit_sets;
use crate::system::SystemRun;

/// The Figure 7 certificate: the event order realizing the prefix
/// series, with the pending-set size after each prefix.
#[derive(Debug, Clone)]
pub struct PrefixSeries {
    /// Events in the order the prefixes add them (`4m` entries for `m`
    /// messages).
    pub event_order: Vec<SystemEvent>,
    /// `pending_sizes[i]` = `|R(Hⁱ) ∪ C(Hⁱ)|` after the first `i`
    /// events (length `4m + 1`, starting with the empty prefix).
    pub pending_sizes: Vec<usize>,
}

impl PrefixSeries {
    /// The proof's key property: the pending set never exceeds one.
    pub fn pending_always_singleton(&self) -> bool {
        self.pending_sizes.iter().all(|&s| s <= 1)
    }
}

/// The size of `R(H) ∪ C(H) = S(H) ∪ R(H) ∪ D(H)` — the events a live
/// protocol must (partially) enable.
pub fn pending_union_size(run: &SystemRun) -> usize {
    (0..run.process_count())
        .map(|p| {
            let sets = run.pending_sets(ProcessId(p));
            sets.unsent.len() + sets.in_transit.len() + sets.undelivered.len()
        })
        .sum()
}

/// Builds the Figure 7 prefix series for a complete run in `X_gn`:
/// messages ordered by the numbering `N`, each contributing its four
/// events back to back. Returns `None` when the run is not in `X_gn`
/// (no such numbering exists).
///
/// The returned series is validated step by step: every prefix is a
/// valid run and the pending set stays ≤ 1.
pub fn gn_prefix_series(run: &SystemRun) -> Option<PrefixSeries> {
    if !run.is_complete() {
        return None;
    }
    let base = limit_sets::gn_numbering(run)?;
    if !limit_sets::in_x_td(run) {
        return None;
    }
    let mut order: Vec<MessageId> = run.messages().iter().map(|m| m.id).collect();
    // keep only messages that actually occur
    order.retain(|m| run.contains(SystemEvent::new(*m, EventKind::Send)));
    order.sort_by_key(|m| base[m.0]);
    let mut event_order = Vec::with_capacity(order.len() * 4);
    for m in &order {
        for kind in EventKind::ALL {
            event_order.push(SystemEvent::new(*m, kind));
        }
    }
    // replay the series and record pending sizes
    let mut b = SystemRun::with_messages(run.process_count(), run.messages());
    let mut pending_sizes = Vec::with_capacity(event_order.len() + 1);
    pending_sizes.push(pending_union_size(&b));
    for ev in &event_order {
        b.append(*ev).ok()?;
        pending_sizes.push(pending_union_size(&b));
    }
    Some(PrefixSeries {
        event_order,
        pending_sizes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gn_run() -> SystemRun {
        let mut b = SystemRun::new(3);
        let m0 = b.message(0, 1);
        let m1 = b.message(1, 2);
        let m2 = b.message(2, 0);
        b.transmit(m0).unwrap();
        b.transmit(m1).unwrap();
        b.transmit(m2).unwrap();
        b
    }

    #[test]
    fn series_exists_for_gn_runs_with_singleton_pending() {
        let run = gn_run();
        let series = gn_prefix_series(&run).expect("block run is in X_gn");
        assert_eq!(series.event_order.len(), 12);
        assert_eq!(series.pending_sizes.len(), 13);
        assert!(
            series.pending_always_singleton(),
            "Figure 7's key claim: {:?}",
            series.pending_sizes
        );
        // boundaries between blocks are quiescent (pending = 0)
        assert_eq!(series.pending_sizes[0], 0);
        assert_eq!(series.pending_sizes[4], 0);
        assert_eq!(series.pending_sizes[12], 0);
    }

    #[test]
    fn no_series_for_crossing_run() {
        // the crossing pair (x: P0->P1, y: P1->P0 sent concurrently) is
        // not in X_gn, so the construction must refuse.
        let mut run = SystemRun::new(2);
        let x = run.message(0, 1);
        let y = run.message(1, 0);
        run.invoke(x).unwrap().send(x).unwrap();
        run.invoke(y).unwrap().send(y).unwrap();
        run.receive(x).unwrap().deliver(x).unwrap();
        run.receive(y).unwrap().deliver(y).unwrap();
        assert!(gn_prefix_series(&run).is_none());
    }

    #[test]
    fn no_series_for_incomplete_runs() {
        let mut run = SystemRun::new(2);
        let x = run.message(0, 1);
        run.invoke(x).unwrap().send(x).unwrap();
        assert!(gn_prefix_series(&run).is_none());
    }

    #[test]
    fn pending_union_size_counts_all_kinds() {
        let mut run = SystemRun::new(2);
        let x = run.message(0, 1);
        let y = run.message(0, 1);
        run.invoke(x).unwrap(); // S = {x.s}
        run.invoke(y).unwrap().send(y).unwrap(); // R = {y.r*}
        assert_eq!(pending_union_size(&run), 2);
    }

    #[test]
    fn event_order_follows_gn_numbering() {
        let run = gn_run();
        let series = gn_prefix_series(&run).unwrap();
        // events come in message blocks of four
        for chunk in series.event_order.chunks(4) {
            assert!(chunk.iter().all(|e| e.msg == chunk[0].msg));
            let kinds: Vec<EventKind> = chunk.iter().map(|e| e.kind).collect();
            assert_eq!(kinds, EventKind::ALL.to_vec());
        }
    }
}
