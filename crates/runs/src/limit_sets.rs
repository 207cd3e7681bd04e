//! The limit sets of §3.4 (user view) and §3.2.1 (system view).
//!
//! User view: `X_sync ⊆ X_co ⊆ X_async`. Theorem 1 shows these are the
//! exact thresholds for general / tagged / tagless implementability.
//!
//! System view: `X_tl ⊆ X_td ⊆ X_gn` (the paper's `X_U`, `X_td`, `X_gn`)
//! are the runs every live tagless / tagged / general protocol must admit
//! (Lemma 2).

use crate::ids::{EventKind, MessageId, ProcessId, UserEvent};
use crate::joins::RunningJoins;
use crate::system::SystemRun;
use crate::users_view::UserRun;
use msgorder_poset::DiGraph;

/// Membership in `X_async`: every complete run with a partial order
/// qualifies, so this is vacuously true for a validated [`UserRun`].
/// Exposed for symmetry with the other limit sets.
pub fn in_x_async(_run: &UserRun) -> bool {
    true
}

/// Membership in `X_co` (causal ordering):
/// `∀x, y ∈ M : ¬((x.s ▷ y.s) ∧ (y.r ▷ x.r))`.
///
/// On a projection of a run ([`SystemRun::users_view`]) this reads the
/// clocks, one walk per destination: a violation with `y` delivered
/// anywhere implies one with some `z` delivered at `dst(x)` before `x`.
/// The path `y.r ⇝ x.r` ends on `dst(x)`'s chain; take its last
/// send-to-delivery edge `z.s ▷ z.r` (`z = y` if it has none). Then
/// `z.r` precedes `x.r` on that chain, `z ≠ x` (else `x.s ▷ y.s ▷ y.r ⊴
/// x.s`), and `x.s ▷ y.s ⊴ z.s`. So walking each process's deliveries
/// with the running join `J` of the sends delivered so far
/// ([`RunningJoins`]), `x` violates iff `V(x.s)[src(x)] ≤ J[src(x)]` —
/// `O(events · n)`, no closure. Any other run answers from its
/// closure, as [`co_violation`] does.
pub fn in_x_co(run: &UserRun) -> bool {
    let Some(clocks) = run.clocks() else {
        return co_violation(run).is_none();
    };
    let n = clocks.processes();
    let mut join = RunningJoins::new(1, n);
    for q in 0..n {
        join.clear();
        for &v in clocks.chain(q) {
            if v % 2 == 0 {
                continue;
            }
            let sent = clocks.clock(v - 1);
            if join.covers(0, run.message(MessageId(v / 2)).src.0, sent) {
                return false;
            }
            join.merge(0, sent);
        }
    }
    true
}

/// The first causal-ordering violation `(x, y)` with
/// `x.s ▷ y.s ∧ y.r ▷ x.r`, if any — first in lexicographic order.
///
/// Read off the closure, which a projection builds for it. Sends are
/// the even event nodes and deliveries the odd ones, so for a
/// fixed `x` the offending `y` are the even bits of
/// `row(x.s) & (col(x.r) >> 1)`, one word (32 messages) at a time.
pub fn co_violation(run: &UserRun) -> Option<(MessageId, MessageId)> {
    const EVEN: u64 = 0x5555_5555_5555_5555;
    let closure = run.closure();
    for x in (0..run.len()).map(MessageId) {
        let sent_after = closure.descendants(UserEvent::send(x).node()).words();
        let delivered_before = closure.ancestors(UserEvent::deliver(x).node()).words();
        for (wi, (&s, &r)) in sent_after.iter().zip(delivered_before).enumerate() {
            // `y = x` never shows up: `x.s` is not its own descendant.
            let hits = s & EVEN & (r >> 1);
            if hits != 0 {
                let y = (wi * 64 + hits.trailing_zeros() as usize) / 2;
                return Some((x, MessageId(y)));
            }
        }
    }
    None
}

/// Membership in `X_sync` (logically synchronous ordering): the message
/// precedence digraph is acyclic, equivalently a numbering
/// `T : M → N` with `x.h ▷ y.f ⇒ T(x) < T(y)` exists.
///
/// Decided by one Kahn pass ([`msgorder_poset::is_acyclic`]) over the
/// contracted skeleton's flat edge list — the generating pairs between
/// distinct messages, one edge each — which is cyclic exactly when the
/// message graph is (see [`UserRun::message_graph`]). Neither the
/// closure nor a per-node adjacency list is read.
pub fn in_x_sync(run: &UserRun) -> bool {
    msgorder_poset::is_acyclic(run.len(), run.skeleton())
}

/// The numbering `T` witnessing logical synchrony (one slot per message,
/// in `0..m`), or `None` if the run is not logically synchronous.
///
/// Ties are broken by message id, so the result is deterministic.
pub fn sync_numbering(run: &UserRun) -> Option<Vec<usize>> {
    let order = run.skeleton_graph().topo_sort().ok()?;
    let mut t = vec![0usize; run.len()];
    for (slot, msg) in order.into_iter().enumerate() {
        t[msg] = slot;
    }
    Some(t)
}

/// A crown witness for non-synchrony: messages `x_1, ..., x_k` with
/// `x_1.s ▷ x_2.r, x_2.s ▷ x_3.r, ..., x_k.s ▷ x_1.r` — the forbidden
/// pattern in the paper's definition of `X_sync`. Returns `None` for
/// synchronous runs.
pub fn sync_violation(run: &UserRun) -> Option<Vec<MessageId>> {
    run.skeleton_graph()
        .find_cycle()
        .map(|cycle| cycle.into_iter().map(MessageId).collect())
}

// ---------------------------------------------------------------------
// System-view sets (§3.2.1).
// ---------------------------------------------------------------------

/// Membership in the paper's `X_U` (here `X_tl`): star events immediately
/// precede their executions in each process sequence, and every requested
/// message has been delivered. Every live *tagless* protocol admits all
/// of `X_tl` (Lemma 2.3).
pub fn in_x_tl(run: &SystemRun) -> bool {
    // (2) all requested messages delivered.
    for meta in run.messages() {
        let invoked = run.contains(crate::ids::SystemEvent::new(meta.id, EventKind::Invoke));
        let delivered = run.contains(crate::ids::SystemEvent::new(meta.id, EventKind::Deliver));
        if invoked && !delivered {
            return false;
        }
    }
    // (1) immediate precedence within sequences.
    for p in 0..run.process_count() {
        let seq = run.sequence(ProcessId(p));
        for (i, ev) in seq.iter().enumerate() {
            let required_prev = match ev.kind {
                EventKind::Send => Some(EventKind::Invoke),
                EventKind::Deliver => Some(EventKind::Receive),
                _ => None,
            };
            if let Some(prev_kind) = required_prev {
                let ok = i > 0 && seq[i - 1].msg == ev.msg && seq[i - 1].kind == prev_kind;
                if !ok {
                    return false;
                }
            }
        }
    }
    true
}

/// Membership in the paper's `X_td`: `X_tl` plus causal ordering of
/// receives — `x.s → y.s ⇒ ¬(y.r* → x.r*)`. Every live *tagged* protocol
/// admits all of `X_td` (Lemma 2.2).
pub fn in_x_td(run: &SystemRun) -> bool {
    if !in_x_tl(run) {
        return false;
    }
    let m = run.messages().len();
    for x in 0..m {
        for y in 0..m {
            if x == y {
                continue;
            }
            let xs = crate::ids::SystemEvent::new(MessageId(x), EventKind::Send);
            let ys = crate::ids::SystemEvent::new(MessageId(y), EventKind::Send);
            let xr = crate::ids::SystemEvent::new(MessageId(x), EventKind::Receive);
            let yr = crate::ids::SystemEvent::new(MessageId(y), EventKind::Receive);
            if run.happens_before(xs, ys) && run.happens_before(yr, xr) {
                return false;
            }
        }
    }
    true
}

/// Membership in the paper's `X_gn`: `X_td` plus the existence of the
/// numbering `N` drawing every message arrow vertically
/// (`N(x.r) = N(x.r*) + 1 = N(x.s) + 2 = N(x.s*) + 3`). Every live
/// *general* protocol admits all of `X_gn` (Lemma 2.1).
pub fn in_x_gn(run: &SystemRun) -> bool {
    if !in_x_td(run) {
        return false;
    }
    gn_numbering(run).is_some()
}

/// The block numbering `N` witnessing `X_gn` membership: returns, per
/// message, the base number of its four-event block (so
/// `N(x.s*) = base, ..., N(x.r) = base + 3`), or `None` if no such
/// numbering exists.
pub fn gn_numbering(run: &SystemRun) -> Option<Vec<usize>> {
    let m = run.messages().len();
    // Message-level precedence over system events: x → y iff any event of
    // x happens before any event of y.
    let mut g = DiGraph::new(m);
    for x in 0..m {
        for y in 0..m {
            if x == y {
                continue;
            }
            let related = EventKind::ALL.into_iter().any(|h| {
                EventKind::ALL.into_iter().any(|f| {
                    run.happens_before(
                        crate::ids::SystemEvent::new(MessageId(x), h),
                        crate::ids::SystemEvent::new(MessageId(y), f),
                    )
                })
            });
            if related {
                g.add_edge(x, y).ok()?;
            }
        }
    }
    let order = g.topo_sort().ok()?;
    let mut base = vec![0usize; m];
    for (slot, msg) in order.into_iter().enumerate() {
        base[msg] = slot * 4;
    }
    Some(base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageMeta;

    fn meta(n: usize) -> Vec<MessageMeta> {
        (0..n)
            .map(|i| MessageMeta::new(MessageId(i), ProcessId(0), ProcessId(1)))
            .collect()
    }

    /// Overtaking pair: x sent before y (same channel) but delivered after.
    fn co_violating_run() -> UserRun {
        UserRun::new(
            meta(2),
            [
                (UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1))),
                (
                    UserEvent::deliver(MessageId(1)),
                    UserEvent::deliver(MessageId(0)),
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn co_detects_overtaking() {
        let run = co_violating_run();
        assert!(!in_x_co(&run));
        assert_eq!(co_violation(&run), Some((MessageId(0), MessageId(1))));
        assert!(in_x_async(&run));
    }

    #[test]
    fn empty_and_single_runs_are_sync() {
        let e = UserRun::new(vec![], []).unwrap();
        assert!(in_x_sync(&e) && in_x_co(&e));
        let s = UserRun::new(meta(1), []).unwrap();
        assert!(in_x_sync(&s) && in_x_co(&s));
    }

    #[test]
    fn crown_is_co_but_not_sync() {
        // s0 ▷ r1 and s1 ▷ r0 — causally ordered, not synchronous.
        let run = UserRun::new(
            meta(2),
            [
                (
                    UserEvent::send(MessageId(0)),
                    UserEvent::deliver(MessageId(1)),
                ),
                (
                    UserEvent::send(MessageId(1)),
                    UserEvent::deliver(MessageId(0)),
                ),
            ],
        )
        .unwrap();
        assert!(in_x_co(&run));
        assert!(!in_x_sync(&run));
        let crown = sync_violation(&run).unwrap();
        assert_eq!(crown.len(), 2);
        assert!(sync_numbering(&run).is_none());
    }

    #[test]
    fn containment_chain_on_examples() {
        // Any sync run is co; any co run is async.
        let chain = UserRun::new(
            meta(2),
            [(
                UserEvent::deliver(MessageId(0)),
                UserEvent::send(MessageId(1)),
            )],
        )
        .unwrap();
        assert!(in_x_sync(&chain));
        assert!(in_x_co(&chain));
        assert!(in_x_async(&chain));
    }

    #[test]
    fn sync_numbering_respects_precedence() {
        let run = UserRun::new(
            meta(3),
            [
                (
                    UserEvent::deliver(MessageId(0)),
                    UserEvent::send(MessageId(1)),
                ),
                (
                    UserEvent::deliver(MessageId(1)),
                    UserEvent::send(MessageId(2)),
                ),
            ],
        )
        .unwrap();
        let t = sync_numbering(&run).unwrap();
        assert!(t[0] < t[1] && t[1] < t[2]);
    }

    #[test]
    fn x_tl_requires_immediate_stars() {
        // Stars separated from executions: P0 does s*, then P0 sends
        // nothing else in between — craft via feed order.
        let mut run = SystemRun::new(2);
        let x = run.message(0, 1);
        let y = run.message(0, 1);
        run.invoke(x).unwrap();
        run.invoke(y).unwrap(); // y.s* between x.s* and x.s
        run.send(x).unwrap();
        run.send(y).unwrap();
        run.receive(x).unwrap().deliver(x).unwrap();
        run.receive(y).unwrap().deliver(y).unwrap();
        assert!(!in_x_tl(&run), "x.s* does not immediately precede x.s");
    }

    #[test]
    fn x_tl_x_td_x_gn_on_clean_run() {
        let mut run = SystemRun::new(2);
        let x = run.message(0, 1);
        let y = run.message(1, 0);
        run.transmit(x).unwrap();
        run.transmit(y).unwrap();
        assert!(in_x_tl(&run));
        assert!(in_x_td(&run));
        assert!(in_x_gn(&run));
        let n = gn_numbering(&run).unwrap();
        assert_eq!(n.len(), 2);
        assert_ne!(n[0], n[1]);
    }

    #[test]
    fn x_td_rejects_receive_order_violation() {
        // x.s → y.s but y.r* → x.r*: receives out of causal order.
        let mut run = SystemRun::new(2);
        let x = run.message(0, 1);
        let y = run.message(0, 1);
        run.invoke(x).unwrap().send(x).unwrap();
        run.invoke(y).unwrap().send(y).unwrap();
        run.receive(y).unwrap().deliver(y).unwrap();
        run.receive(x).unwrap().deliver(x).unwrap();
        assert!(in_x_tl(&run), "stars are immediate and all delivered");
        assert!(!in_x_td(&run));
        assert!(!in_x_gn(&run));
    }

    #[test]
    fn x_tl_requires_delivery_of_requested() {
        let mut run = SystemRun::new(2);
        let x = run.message(0, 1);
        run.invoke(x).unwrap().send(x).unwrap();
        assert!(!in_x_tl(&run));
    }

    #[test]
    fn gn_numbering_fails_on_interleaved_blocks() {
        // Two messages crossing between two processes: x: P0->P1,
        // y: P1->P0, both sent before either is received. Blocks overlap
        // in any numbering: x.s → y.r (via? no)... Construct explicit
        // crossing: P0: x.s*, x.s, y.r*, y.r ; P1: y.s*, y.s, x.r*, x.r.
        let mut run = SystemRun::new(2);
        let x = run.message(0, 1);
        let y = run.message(1, 0);
        run.invoke(x).unwrap().send(x).unwrap();
        run.invoke(y).unwrap().send(y).unwrap();
        run.receive(x).unwrap().deliver(x).unwrap();
        run.receive(y).unwrap().deliver(y).unwrap();
        // x.s → x.r* at P1 which precedes... P1 seq: y.s*, y.s, x.r*, x.r.
        // y.s → y.r* at P0 after x.s: so x → y? x.s* before y.r* at P0:
        // P0 seq: x.s*, x.s, y.r*, y.r — so x.s → y.r (edge x→y) and
        // y.s → x.r (edge y→x): cycle.
        assert!(in_x_td(&run));
        assert!(!in_x_gn(&run));
        assert!(gn_numbering(&run).is_none());
    }
}
