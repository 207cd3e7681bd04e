//! Realizing abstract user runs as concrete executions.
//!
//! The paper's specification universe `X` contains *arbitrary* partial
//! orders over send/delivery events — including the canonical witness
//! runs of Theorems 2/4, whose cross-process orderings (e.g.
//! `m0.s ▷ m1.s` with `m0`, `m1` on unrelated processes) cannot arise
//! from process order and message edges alone. This module makes such
//! runs concrete: it synthesizes an execution whose user's view
//! *refines* the abstract order, enforcing each cross-process covering
//! pair with an auxiliary carrier message (colored `"aux"`).
//!
//! Two caveats, both inherent:
//!
//! - the realized view totally orders same-process events (executions
//!   always do), so it refines rather than equals the abstract order;
//! - the carriers are real messages, so predicates quantifying over all
//!   of `M` also see them. Since forbidden predicates are existential
//!   and refinement only *adds* order, a violation present abstractly is
//!   still present concretely — which is exactly what the witness
//!   demonstrations need.

use crate::error::RunError;
use crate::ids::{MessageId, UserEvent, UserEventKind};
use crate::system::SystemRun;
use crate::users_view::UserRun;
use msgorder_poset::{DiGraph, Poset};

/// The outcome of realizing an abstract run.
#[derive(Debug)]
pub struct Realization {
    /// The concrete execution; messages `0..original_count` are the
    /// abstract run's, the rest are `"aux"` carriers.
    pub run: SystemRun,
    /// Number of original messages.
    pub original_count: usize,
    /// Number of auxiliary carrier messages inserted.
    pub aux_count: usize,
}

impl Realization {
    /// The realized user's view restricted to the original messages
    /// (carriers dropped, ids preserved).
    pub fn original_view(&self) -> UserRun {
        let full = self.run.users_view();
        let metas: Vec<_> = full.messages()[..self.original_count].to_vec();
        let mut pairs = Vec::new();
        for (a, b) in full.relation_pairs() {
            if a.msg.0 < self.original_count && b.msg.0 < self.original_count {
                pairs.push((a, b));
            }
        }
        UserRun::new(metas, pairs).expect("restriction of a valid order")
    }
}

fn event_process(user: &UserRun, e: UserEvent) -> usize {
    let meta = user.message(e.msg);
    match e.kind {
        UserEventKind::Send => meta.src.0,
        UserEventKind::Deliver => meta.dst.0,
    }
}

/// Realizes `user` as a concrete execution (see module docs).
///
/// # Errors
/// Propagates [`RunError`] from run assembly (cannot occur for valid
/// inputs; defensive).
pub fn realize(user: &UserRun) -> Result<Realization, RunError> {
    let m = user.len();
    let processes = user
        .messages()
        .iter()
        .map(|meta| meta.src.0.max(meta.dst.0) + 1)
        .max()
        .unwrap_or(0);
    // Event poset and a deterministic linear extension.
    let mut g = DiGraph::new(2 * m);
    for (a, b) in user.relation_pairs() {
        g.add_edge(a.node(), b.node()).expect("nodes in range");
    }
    let poset = Poset::from_graph(&g).expect("user order is acyclic");
    let order: Vec<UserEvent> = poset
        .a_linear_extension()
        .into_iter()
        .map(UserEvent::from_node)
        .collect();
    // Which covering pairs need carriers: cross-process and not the
    // message's own s -> r edge.
    let covers = poset.covers();
    let needs_carrier = |u: UserEvent, v: UserEvent| -> bool {
        if u.msg == v.msg && u.kind == UserEventKind::Send && v.kind == UserEventKind::Deliver {
            return false;
        }
        event_process(user, u) != event_process(user, v)
    };

    let mut b = SystemRun::with_messages(processes.max(1), user.messages());
    // carriers[target-node] = list of carrier ids to receive just before
    // the target event executes.
    let mut incoming: Vec<Vec<MessageId>> = vec![Vec::new(); 2 * m];
    let mut aux_count = 0usize;
    // Pre-declare carriers in cover order so ids are stable.
    let mut outgoing: Vec<Vec<(MessageId, usize)>> = vec![Vec::new(); 2 * m];
    for &(un, vn) in &covers {
        let (u, v) = (UserEvent::from_node(un), UserEvent::from_node(vn));
        if needs_carrier(u, v) {
            let id = b.message_colored(event_process(user, u), event_process(user, v), "aux");
            outgoing[un].push((id, vn));
            incoming[vn].push(id);
            aux_count += 1;
        }
    }
    for e in &order {
        for &carrier in &incoming[e.node()] {
            b.receive(carrier)?.deliver(carrier)?;
        }
        match e.kind {
            UserEventKind::Send => {
                b.invoke(e.msg)?.send(e.msg)?;
            }
            UserEventKind::Deliver => {
                b.receive(e.msg)?.deliver(e.msg)?;
            }
        }
        for &(carrier, _) in &outgoing[e.node()] {
            b.invoke(carrier)?.send(carrier)?;
        }
    }
    Ok(Realization {
        run: b,
        original_count: m,
        aux_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcessId;
    use crate::limit_sets;

    fn causal_witness() -> UserRun {
        // the canonical X_async \ X_co run: m0: P0->P1, m1: P2->P3 with
        // m0.s ▷ m1.s and m1.r ▷ m0.r — pure cross-process ordering.
        use crate::message::MessageMeta;
        UserRun::new(
            vec![
                MessageMeta::new(MessageId(0), ProcessId(0), ProcessId(1)),
                MessageMeta::new(MessageId(1), ProcessId(2), ProcessId(3)),
            ],
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
    fn realization_is_a_valid_complete_execution() {
        let r = realize(&causal_witness()).unwrap();
        assert!(r.run.is_quiescent());
        assert!(r.run.is_complete());
        assert_eq!(r.original_count, 2);
        assert!(r.aux_count >= 2, "both cross-process covers need carriers");
    }

    #[test]
    fn original_relations_preserved() {
        let user = causal_witness();
        let r = realize(&user).unwrap();
        let view = r.original_view();
        for (a, b) in user.relation_pairs() {
            assert!(view.before(a, b), "{a} ▷ {b} lost in realization");
        }
    }

    #[test]
    fn realized_witness_still_violates_causal_ordering() {
        let r = realize(&causal_witness()).unwrap();
        // the realized full run (with carriers) still contains the
        // violating pair, so it is still outside X_co.
        assert!(!limit_sets::in_x_co(&r.run.users_view()));
        assert!(!limit_sets::in_x_co(&r.original_view()));
    }

    #[test]
    fn no_carriers_needed_for_execution_derived_runs() {
        // ping-pong: user view's covers are all process-order or message
        // edges.
        let mut b = SystemRun::new(2);
        let m0 = b.message(0, 1);
        let m1 = b.message(1, 0);
        b.transmit(m0).unwrap();
        b.transmit(m1).unwrap();
        let user = b.users_view();
        let r = realize(&user).unwrap();
        assert_eq!(r.aux_count, 0);
        assert_eq!(
            r.original_view().relation_pairs(),
            user.relation_pairs(),
            "exact round trip when no carriers are needed"
        );
    }

    #[test]
    fn carriers_are_colored_aux() {
        let r = realize(&causal_witness()).unwrap();
        let aux: Vec<_> = r.run.messages().iter().skip(r.original_count).collect();
        assert_eq!(aux.len(), r.aux_count);
        assert!(aux.iter().all(|m| m.has_color("aux")));
    }

    #[test]
    fn empty_run_realizes_trivially() {
        let user = UserRun::new(vec![], []).unwrap();
        let r = realize(&user).unwrap();
        assert_eq!(r.run.event_count(), 0);
        assert_eq!(r.aux_count, 0);
    }

    #[test]
    fn crown_witness_realizes_outside_x_sync() {
        // The X_co \ X_sync witness: crossing pair.
        use crate::message::MessageMeta;
        let user = UserRun::new(
            vec![
                MessageMeta::new(MessageId(0), ProcessId(0), ProcessId(1)),
                MessageMeta::new(MessageId(1), ProcessId(2), ProcessId(3)),
            ],
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
        let r = realize(&user).unwrap();
        let view = r.original_view();
        assert!(!limit_sets::in_x_sync(&view), "crown survives realization");
        assert!(limit_sets::in_x_co(&view), "still causally ordered");
    }
}
