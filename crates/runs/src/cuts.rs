//! Consistent cuts of system runs.
//!
//! A *cut* assigns each process a prefix length of its sequence; it is
//! *consistent* when the selected event set is downward closed under the
//! causality relation `→` — equivalently, an order ideal of the event
//! poset. The §2 related work (global snapshots, checkpointing, deadlock
//! detection) is all about computing such cuts; the
//! `examples/snapshot.rs` demo uses this module to verify a
//! Chandy–Lamport-style snapshot against the captured run.

use crate::ids::{EventKind, MessageId, ProcessId, SystemEvent};
use crate::system::SystemRun;

/// A cut: `cut[i]` = number of events of `H_i` included.
pub type Cut = Vec<usize>;

/// Whether the cut is within bounds and downward closed under `→`.
pub fn is_consistent(run: &SystemRun, cut: &Cut) -> bool {
    let n = run.process_count();
    assert_eq!(cut.len(), n, "one prefix length per process");
    for (p, &k) in cut.iter().enumerate() {
        if k > run.sequence(ProcessId(p)).len() {
            return false;
        }
    }
    let included = |e: SystemEvent| -> bool {
        for (p, &k) in cut.iter().enumerate() {
            let seq = run.sequence(ProcessId(p));
            if let Some(pos) = seq.iter().position(|ev| *ev == e) {
                return pos < k;
            }
        }
        false
    };
    // Downward closure: for every included event, everything before it
    // is included. Process order is automatic (prefixes); only the
    // message edges x.s -> x.r* can break consistency.
    for meta in run.messages() {
        let rstar = SystemEvent::new(meta.id, EventKind::Receive);
        let s = SystemEvent::new(meta.id, EventKind::Send);
        if run.contains(rstar) && included(rstar) && !included(s) {
            return false;
        }
    }
    true
}

/// The channel state of a consistent cut: messages sent inside the cut
/// but not yet received inside it (in transit "across" the cut).
///
/// # Panics
/// Panics if the cut is not consistent.
pub fn channel_state(run: &SystemRun, cut: &Cut) -> Vec<MessageId> {
    assert!(
        is_consistent(run, cut),
        "channel state needs a consistent cut"
    );
    let included = |e: SystemEvent| -> bool {
        for (p, &k) in cut.iter().enumerate() {
            let seq = run.sequence(ProcessId(p));
            if let Some(pos) = seq.iter().position(|ev| *ev == e) {
                return pos < k;
            }
        }
        false
    };
    run.messages()
        .iter()
        .filter(|m| {
            let s = SystemEvent::new(m.id, EventKind::Send);
            let rstar = SystemEvent::new(m.id, EventKind::Receive);
            run.contains(s) && included(s) && !(run.contains(rstar) && included(rstar))
        })
        .map(|m| m.id)
        .collect()
}

/// Counts the consistent cuts of a run by direct enumeration of prefix
/// vectors — exponential, for small runs and tests. (This equals the
/// number of order ideals of the event poset.)
pub fn count_consistent(run: &SystemRun) -> usize {
    let n = run.process_count();
    let lens: Vec<usize> = (0..n).map(|p| run.sequence(ProcessId(p)).len()).collect();
    let mut cut = vec![0usize; n];
    let mut count = 0usize;
    loop {
        if is_consistent(run, &cut) {
            count += 1;
        }
        // odometer increment
        let mut i = 0;
        loop {
            if i == n {
                return count;
            }
            if cut[i] < lens[i] {
                cut[i] += 1;
                break;
            }
            cut[i] = 0;
            i += 1;
        }
    }
}

/// The earliest consistent cut including a given event set: the closure
/// of the per-process minima needed to cover `targets`.
pub fn earliest_consistent_including(run: &SystemRun, targets: &[SystemEvent]) -> Cut {
    let n = run.process_count();
    let mut cut = vec![0usize; n];
    for t in targets {
        for (p, slot) in cut.iter_mut().enumerate() {
            let seq = run.sequence(ProcessId(p));
            if let Some(pos) = seq.iter().position(|ev| ev == t) {
                *slot = (*slot).max(pos + 1);
            }
        }
    }
    // close under message edges: while some included r* lacks its s,
    // extend the sender's prefix
    loop {
        let mut changed = false;
        for meta in run.messages() {
            let rstar = SystemEvent::new(meta.id, EventKind::Receive);
            let s = SystemEvent::new(meta.id, EventKind::Send);
            let incl = |e: SystemEvent, cut: &Cut| -> bool {
                for (p, &k) in cut.iter().enumerate() {
                    let seq = run.sequence(ProcessId(p));
                    if let Some(pos) = seq.iter().position(|ev| *ev == e) {
                        return pos < k;
                    }
                }
                false
            };
            if run.contains(rstar) && incl(rstar, &cut) && !incl(s, &cut) {
                let p = meta.src.0;
                let seq = run.sequence(ProcessId(p));
                let pos = seq
                    .iter()
                    .position(|ev| *ev == s)
                    .expect("sent message has a send event");
                cut[p] = cut[p].max(pos + 1);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    debug_assert!(is_consistent(run, &cut));
    cut
}

#[cfg(test)]
mod tests {
    use super::*;

    /// P0 sends m0 to P1; P1 replies m1 to P0.
    fn ping_pong() -> SystemRun {
        let mut b = SystemRun::new(2);
        let m0 = b.message(0, 1);
        let m1 = b.message(1, 0);
        b.transmit(m0).unwrap();
        b.transmit(m1).unwrap();
        b
    }

    #[test]
    fn empty_and_full_cuts_consistent() {
        let run = ping_pong();
        assert!(is_consistent(&run, &vec![0, 0]));
        let full: Cut = (0..2).map(|p| run.sequence(ProcessId(p)).len()).collect();
        assert!(is_consistent(&run, &full));
    }

    #[test]
    fn receive_without_send_is_inconsistent() {
        let run = ping_pong();
        // include P1's receive of m0 (first event of P1) but nothing of P0
        assert!(!is_consistent(&run, &vec![0, 1]));
        // include P0's send side: consistent
        assert!(is_consistent(&run, &vec![2, 1]));
    }

    #[test]
    fn channel_state_captures_in_transit() {
        let run = ping_pong();
        // cut after m0 sent but before received: P0 did s*, s (2 events)
        let cut = vec![2, 0];
        assert!(is_consistent(&run, &cut));
        assert_eq!(channel_state(&run, &cut), vec![MessageId(0)]);
        // after delivery, channel empty
        let cut2 = vec![2, 2];
        assert!(is_consistent(&run, &cut2));
        assert!(channel_state(&run, &cut2).is_empty());
    }

    #[test]
    #[should_panic(expected = "consistent")]
    fn channel_state_rejects_inconsistent_cut() {
        let run = ping_pong();
        let _ = channel_state(&run, &vec![0, 1]);
    }

    #[test]
    fn count_matches_ideal_structure() {
        // one message: P0 has s*, s ; P1 has r*, r. Consistent cuts:
        // (0,0) (1,0) (2,0) (2,1) (2,2) and (0..2 with r* needs s):
        // (0,1)x (0,2)x (1,1)x (1,2)x -> 5 consistent cuts.
        let mut run = SystemRun::new(2);
        let m = run.message(0, 1);
        run.transmit(m).unwrap();
        assert_eq!(count_consistent(&run), 5);
    }

    #[test]
    fn earliest_cut_closure() {
        let run = ping_pong();
        // ask for P0's delivery of m1 (last event of P0): forces all of
        // P1's prefix up to m1.s, which forces m0's send...
        let target = SystemEvent::new(MessageId(1), EventKind::Deliver);
        let cut = earliest_consistent_including(&run, &[target]);
        assert!(is_consistent(&run, &cut));
        assert_eq!(cut, vec![4, 4]);
    }

    #[test]
    fn earliest_cut_minimal_case() {
        let run = ping_pong();
        // just m0's send: only P0's first two events
        let target = SystemEvent::new(MessageId(0), EventKind::Send);
        let cut = earliest_consistent_including(&run, &[target]);
        assert_eq!(cut, vec![2, 0]);
    }

    #[test]
    fn cut_count_equals_ideal_count_of_event_poset() {
        // cross-check with the poset substrate on a concurrent run
        use msgorder_poset::{ideals, DiGraph, Poset};
        let mut run = SystemRun::new(2);
        let m0 = run.message(0, 1);
        let m1 = run.message(1, 0);
        run.invoke(m0).unwrap().send(m0).unwrap();
        run.invoke(m1).unwrap().send(m1).unwrap();
        run.receive(m0).unwrap().deliver(m0).unwrap();
        run.receive(m1).unwrap().deliver(m1).unwrap();
        // build the event poset: nodes in (process, position) order
        let mut idx = Vec::new();
        for p in 0..2 {
            for (i, ev) in run.sequence(ProcessId(p)).iter().enumerate() {
                idx.push((p, i, *ev));
            }
        }
        let node_of = |e: SystemEvent| idx.iter().position(|(_, _, ev)| *ev == e).unwrap();
        let mut g = DiGraph::new(idx.len());
        for p in 0..2 {
            let seq = run.sequence(ProcessId(p));
            for w in seq.windows(2) {
                g.add_edge(node_of(w[0]), node_of(w[1])).unwrap();
            }
        }
        for meta in run.messages() {
            let s = SystemEvent::new(meta.id, EventKind::Send);
            let r = SystemEvent::new(meta.id, EventKind::Receive);
            if run.contains(s) && run.contains(r) {
                g.add_edge(node_of(s), node_of(r)).unwrap();
            }
        }
        let poset = Poset::from_graph(&g).unwrap();
        assert_eq!(count_consistent(&run), ideals::ideal_count(&poset));
    }
}
