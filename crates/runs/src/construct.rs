//! The Figure 5 construction: from a user's-view run `(H, ▷)` to a
//! system run `H` with `UsersView(H)` refining the input.
//!
//! Theorem 1's proof constructs, for each `(H, ▷)`, a system run by
//! inserting `x.s*` immediately before `x.s` and `x.r*` immediately
//! before `x.r`. Our system runs keep per-process *sequences*, so we
//! realize the construction along a chosen linear extension of `▷`;
//! consequently `UsersView(H)` totally orders same-process events and is
//! therefore a refinement (superset relation) of the input order — and
//! equals it exactly when the input already ordered same-process events
//! totally, which holds for every user run extracted from a real
//! execution.

use crate::error::RunError;
use crate::ids::{MessageId, UserEvent, UserEventKind};
use crate::system::SystemRun;
use crate::users_view::UserRun;
use msgorder_poset::{DiGraph, Poset};

/// Builds a system run realizing `user` along a deterministic linear
/// extension of `▷` (Figure 5): every `x.s` is immediately preceded by
/// `x.s*` and every `x.r` by `x.r*` in the global order.
///
/// # Errors
/// Propagates [`RunError`] from run assembly (cannot occur for valid
/// inputs; kept in the signature for defensive use).
pub fn system_from_user(user: &UserRun) -> Result<SystemRun, RunError> {
    let order = linearize(user);
    build_along(user, &order)
}

/// Builds a system run realizing a *logically synchronous* `user` run so
/// that the result lies in `X_gn` — the numbering `N` of the paper
/// derived from the SYNC numbering `T` (Theorem 1, case 1).
///
/// Messages are emitted as contiguous four-event blocks in `T` order, so
/// all message arrows are vertical.
///
/// Returns `None` if the run is not logically synchronous.
pub fn gn_system_from_sync_user(user: &UserRun) -> Option<SystemRun> {
    let t = crate::limit_sets::sync_numbering(user)?;
    let mut msgs: Vec<MessageId> = (0..user.len()).map(MessageId).collect();
    msgs.sort_by_key(|m| t[m.0]);
    let mut b = SystemRun::with_messages(process_count(user), user.messages());
    for m in msgs {
        b.transmit(m).ok()?;
    }
    Some(b)
}

/// The number of processes mentioned by a user run (max id + 1).
pub fn process_count(user: &UserRun) -> usize {
    user.messages()
        .iter()
        .map(|m| m.src.0.max(m.dst.0) + 1)
        .max()
        .unwrap_or(0)
}

fn linearize(user: &UserRun) -> Vec<UserEvent> {
    // Build the event poset over 2m nodes and take the deterministic
    // topological order.
    let m = user.len();
    let mut g = DiGraph::new(2 * m);
    for (a, b) in user.relation_pairs() {
        g.add_edge(a.node(), b.node()).expect("nodes in range");
    }
    let p = Poset::from_graph(&g).expect("user run order is acyclic");
    p.a_linear_extension()
        .into_iter()
        .map(UserEvent::from_node)
        .collect()
}

fn build_along(user: &UserRun, order: &[UserEvent]) -> Result<SystemRun, RunError> {
    let mut b = SystemRun::with_messages(process_count(user), user.messages());
    for ev in order {
        match ev.kind {
            UserEventKind::Send => {
                b.invoke(ev.msg)?.send(ev.msg)?;
            }
            UserEventKind::Deliver => {
                b.receive(ev.msg)?.deliver(ev.msg)?;
            }
        }
    }
    Ok(b)
}

/// Whether `UsersView(system_from_user(user))` has exactly the same
/// order relation as `user` (true whenever `user` already totally orders
/// same-process events — e.g. any user run extracted from a system run).
pub fn roundtrips_exactly(user: &UserRun) -> bool {
    match system_from_user(user) {
        Ok(sys) => {
            let back = sys.users_view();
            back.len() == user.len() && back.relation_pairs() == user.relation_pairs()
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcessId;
    use crate::limit_sets;
    use crate::message::MessageMeta;

    fn meta2() -> Vec<MessageMeta> {
        vec![
            MessageMeta::new(MessageId(0), ProcessId(0), ProcessId(1)),
            MessageMeta::new(MessageId(1), ProcessId(0), ProcessId(1)),
        ]
    }

    #[test]
    fn construction_inserts_immediate_stars() {
        let user = UserRun::new(
            meta2(),
            [(UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1)))],
        )
        .unwrap();
        let sys = system_from_user(&user).unwrap();
        assert!(limit_sets::in_x_tl(&sys), "stars immediately precede");
        assert!(sys.is_complete());
    }

    #[test]
    fn users_view_refines_input() {
        let user = UserRun::new(
            meta2(),
            [(UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1)))],
        )
        .unwrap();
        let sys = system_from_user(&user).unwrap();
        let back = sys.users_view();
        // every input pair survives
        for (a, b) in user.relation_pairs() {
            assert!(back.before(a, b), "{a} ▷ {b} lost in round trip");
        }
    }

    #[test]
    fn roundtrip_exact_for_execution_derived_runs() {
        // A run extracted from a real execution totally orders
        // same-process events, so the round trip is exact.
        let mut b = SystemRun::new(2);
        let x = b.message(0, 1);
        let y = b.message(1, 0);
        b.transmit(x).unwrap();
        b.transmit(y).unwrap();
        let user = b.users_view();
        assert!(roundtrips_exactly(&user));
    }

    #[test]
    fn gn_construction_for_sync_run() {
        // delivery of m0 before send of m1: sequential, hence sync.
        let user = UserRun::new(
            meta2(),
            [(
                UserEvent::deliver(MessageId(0)),
                UserEvent::send(MessageId(1)),
            )],
        )
        .unwrap();
        assert!(limit_sets::in_x_sync(&user));
        let sys = gn_system_from_sync_user(&user).unwrap();
        assert!(limit_sets::in_x_gn(&sys), "blocks yield vertical arrows");
        // The realized run stays logically synchronous and its message
        // numbering respects the input's T (m0 before m1). Cross-process
        // edges such as m0.r ▷ m1.s are *not* preserved — they can only
        // arise from process order or message edges, which is exactly why
        // the paper's witness runs live in the abstract universe X.
        let back = sys.users_view();
        assert!(limit_sets::in_x_sync(&back));
        let t = limit_sets::sync_numbering(&back).unwrap();
        assert!(t[0] < t[1]);
    }

    #[test]
    fn gn_construction_refuses_non_sync() {
        let user = UserRun::new(
            meta2(),
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
        assert!(!limit_sets::in_x_sync(&user));
        assert!(gn_system_from_sync_user(&user).is_none());
    }

    #[test]
    fn process_count_of_empty() {
        let user = UserRun::new(vec![], []).unwrap();
        assert_eq!(process_count(&user), 0);
        let sys = system_from_user(&user).unwrap();
        assert_eq!(sys.event_count(), 0);
    }
}
