//! The user's view: complete runs `(H, ▷)` (§3.3).

use crate::error::RunError;
use crate::ids::{MessageId, UserEvent};
use crate::message::MessageMeta;
use msgorder_poset::{DiGraph, TransitiveClosure};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A complete run in the user's view: a set of messages, each with a send
/// and a delivery event, under a strict partial order `▷`.
///
/// This is an element of the paper's specification universe
/// `X = { (H, ▷) : x.s ∈ H ⇔ x.r ∈ H, ▷ a partial order }`. Note `X`
/// admits *any* partial order — elements need not be realizable by an
/// actual execution; the limit sets and forbidden-predicate semantics are
/// defined over this broader universe, and the witness constructions of
/// Theorems 2 and 4 exploit that.
///
/// Beyond the paper's two written conditions we require `x.s ▷ x.r` for
/// every message ([`UserRun::new`] adds those edges itself), which every
/// construction in the paper also assumes.
#[derive(Debug, Clone)]
pub struct UserRun {
    messages: Vec<MessageMeta>,
    closure: TransitiveClosure,
    /// The generating pairs between distinct messages, contracted to
    /// message ids, in the order given (repeats kept): the edges of
    /// [`skeleton_graph`](Self::skeleton_graph).
    skeleton: Vec<(usize, usize)>,
}

impl UserRun {
    /// Builds a user run from message metadata and explicit order pairs.
    ///
    /// The edges `x.s ▷ x.r` are added automatically; `order` may mention
    /// any additional pairs. The relation is closed transitively.
    ///
    /// # Errors
    /// [`RunError::CyclicOrder`] if the relation is cyclic;
    /// [`RunError::UnknownMessage`] if `messages[i].id` is not `i` (the
    /// first misplaced id) or a pair references a message id
    /// `>= messages.len()`.
    pub fn new<I>(messages: Vec<MessageMeta>, order: I) -> Result<Self, RunError>
    where
        I: IntoIterator<Item = (UserEvent, UserEvent)>,
    {
        let m = messages.len();
        for (i, meta) in messages.iter().enumerate() {
            if meta.id.0 != i {
                return Err(RunError::UnknownMessage(meta.id));
            }
        }
        let order = order.into_iter();
        let hint = order.size_hint().0;
        let mut edges = Vec::with_capacity(m + hint);
        let mut skeleton = Vec::with_capacity(hint);
        for mi in 0..m {
            edges.push((
                UserEvent::send(MessageId(mi)).node(),
                UserEvent::deliver(MessageId(mi)).node(),
            ));
        }
        for (a, b) in order {
            for e in [a, b] {
                if e.msg.0 >= m {
                    return Err(RunError::UnknownMessage(e.msg));
                }
            }
            edges.push((a.node(), b.node()));
            if a.msg != b.msg {
                skeleton.push((a.msg.0, b.msg.0));
            }
        }
        let closure = TransitiveClosure::of_edges(2 * m, &edges).ok_or(RunError::CyclicOrder)?;
        Ok(UserRun {
            messages,
            closure,
            skeleton,
        })
    }

    /// A 64-bit FNV-1a digest of the *partial order* — each message's
    /// endpoints, then the covering pairs of `▷` as `(event-node,
    /// event-node)` in [`TransitiveClosure::for_each_cover`] order: identical
    /// for identical user views, whatever schedule produced them, and
    /// computed without allocating. The explorer sums these over its
    /// violating configurations (wrapping addition, so the total is
    /// independent of the order workers reach them in) — the `digest`
    /// line of `msgorder explore` and the benchmark's output check —
    /// reading each one off the run's clocks
    /// ([`StreamingRun::users_view_digest`](crate::StreamingRun::users_view_digest)).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for m in &self.messages {
            h.eat(m.src.0);
            h.eat(m.dst.0);
        }
        self.closure.for_each_cover(|u, v| {
            h.eat(u);
            h.eat(v);
        });
        h.finish()
    }

    /// The messages of the run.
    pub fn messages(&self) -> &[MessageMeta] {
        &self.messages
    }

    /// Metadata of one message.
    ///
    /// # Panics
    /// Panics if `m` is not a message of this run.
    pub fn message(&self, m: MessageId) -> &MessageMeta {
        &self.messages[m.0]
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether the run has no messages.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// The strict order `a ▷ b`.
    pub fn before(&self, a: UserEvent, b: UserEvent) -> bool {
        self.closure.reaches(a.node(), b.node())
    }

    /// The transitive closure of `▷` over event nodes (indexed by
    /// [`UserEvent::node`]). Batch evaluators use its row/column bitsets
    /// for word-parallel candidate narrowing instead of per-pair
    /// [`before`](Self::before) queries.
    pub fn closure(&self) -> &TransitiveClosure {
        &self.closure
    }

    /// Whether two events are concurrent (distinct and incomparable).
    pub fn concurrent(&self, a: UserEvent, b: UserEvent) -> bool {
        a != b && !self.before(a, b) && !self.before(b, a)
    }

    /// All ordered event pairs `(a, b)` with `a ▷ b`.
    pub fn relation_pairs(&self) -> Vec<(UserEvent, UserEvent)> {
        self.closure
            .pairs()
            .into_iter()
            .map(|(u, v)| (UserEvent::from_node(u), UserEvent::from_node(v)))
            .collect()
    }

    /// The message-precedence digraph `M` of the SYNC test: an edge
    /// `x → y` (for `x ≠ y`) whenever some event of `x` precedes some
    /// event of `y` under `▷`.
    ///
    /// The run is logically synchronous iff this graph is acyclic (§3.4:
    /// acyclicity is exactly the existence of the numbering `T`).
    ///
    /// Since `x.s ⊴` every event of `x` and every event of `y ⊴ y.r`,
    /// `x → y` holds iff `x.s ▷ y.r`: the successors of `x` are the odd
    /// (delivery) bits of the closure row of `x.s`, read word by word.
    /// The graph can have `Θ(m²)` edges, so [`crate::limit_sets`]
    /// decides `X_sync` on the contracted skeleton instead (cyclic exactly
    /// when this graph is) and its tests keep this one as the oracle.
    pub fn message_graph(&self) -> DiGraph {
        const ODD: u64 = 0xAAAA_AAAA_AAAA_AAAA;
        let m = self.messages.len();
        let mut g = DiGraph::new(m);
        for x in 0..m {
            let row = self
                .closure
                .descendants(UserEvent::send(MessageId(x)).node());
            for (wi, &word) in row.words().iter().enumerate() {
                let mut delivered = word & ODD;
                while delivered != 0 {
                    let y = (wi * 64 + delivered.trailing_zeros() as usize) / 2;
                    delivered &= delivered - 1;
                    if y != x {
                        g.add_edge(x, y).expect("message nodes in range");
                    }
                }
            }
        }
        g
    }

    /// The contracted skeleton of the run: the generating pairs given to
    /// [`UserRun::new`] (plus `x.s ▷ x.r`) with each message's two events
    /// merged and self-loops dropped — at most one edge per generating
    /// pair, where [`message_graph`](Self::message_graph) `M` can have
    /// `m²`.
    ///
    /// Every skeleton edge comes from some `x.h ▷ y.f`, so it is an edge
    /// of `M`; every edge `x → y` of `M` is a chain of generating pairs
    /// from `x.s` to `y.r`, which contracts to a non-empty skeleton walk
    /// from `x` to `y`. Hence the skeleton is cyclic iff `M` is, a
    /// skeleton cycle is a crown `x_1.s ▷ x_2.r, …, x_k.s ▷ x_1.r`, and a
    /// topological order of the skeleton is a valid numbering `T`.
    ///
    /// Edges are added sorted and deduplicated, which fixes the witness
    /// [`crate::limit_sets::sync_numbering`] and
    /// [`crate::limit_sets::sync_violation`] read off the graph whatever
    /// order the pairs were given in.
    pub(crate) fn skeleton_graph(&self) -> DiGraph {
        let mut edges = self.skeleton.clone();
        edges.sort_unstable();
        edges.dedup();
        let mut g = DiGraph::new(self.messages.len());
        for (x, y) in edges {
            g.add_edge(x, y).expect("message nodes in range");
        }
        g
    }

    /// The skeleton's edges as given: [`crate::limit_sets::in_x_sync`]
    /// needs only their acyclicity, which order and repeats do not move.
    pub(crate) fn skeleton(&self) -> &[(usize, usize)] {
        &self.skeleton
    }

    /// A compact multi-line rendering, one message per line plus the
    /// covering relation of `▷`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.messages {
            out.push_str(&format!("{m}\n"));
        }
        out.push_str("order (covers):\n");
        for (u, v) in self.closure.reduction() {
            out.push_str(&format!(
                "  {} ▷ {}\n",
                UserEvent::from_node(u),
                UserEvent::from_node(v)
            ));
        }
        out
    }
}

/// 64-bit FNV-1a over a sequence of words, the hash behind
/// [`UserRun::digest`] and [`crate::StreamingRun::users_view_digest`].
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn eat(&mut self, v: usize) {
        self.0 ^= v as u64;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for UserRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Serializable snapshot of a [`UserRun`] (messages + covering pairs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UserRunSnapshot {
    /// Message metadata.
    pub messages: Vec<MessageMeta>,
    /// Covering pairs of `▷` as `(event-node, event-node)` indices.
    pub covers: Vec<(usize, usize)>,
}

impl From<&UserRun> for UserRunSnapshot {
    fn from(run: &UserRun) -> Self {
        UserRunSnapshot {
            messages: run.messages.clone(),
            covers: run.closure.reduction(),
        }
    }
}

impl TryFrom<UserRunSnapshot> for UserRun {
    type Error = RunError;

    fn try_from(snap: UserRunSnapshot) -> Result<UserRun, RunError> {
        let pairs: Vec<(UserEvent, UserEvent)> = snap
            .covers
            .into_iter()
            .map(|(u, v)| (UserEvent::from_node(u), UserEvent::from_node(v)))
            .collect();
        UserRun::new(snap.messages, pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{EventKind, ProcessId};
    use crate::StreamingRun;

    fn meta(n: usize) -> Vec<MessageMeta> {
        (0..n)
            .map(|i| MessageMeta::new(MessageId(i), ProcessId(0), ProcessId(1)))
            .collect()
    }

    #[test]
    fn send_deliver_edge_automatic() {
        let run = UserRun::new(meta(1), []).unwrap();
        assert!(run.before(
            UserEvent::send(MessageId(0)),
            UserEvent::deliver(MessageId(0))
        ));
        assert!(!run.before(
            UserEvent::deliver(MessageId(0)),
            UserEvent::send(MessageId(0))
        ));
    }

    #[test]
    fn cyclic_order_rejected() {
        // r0 ▷ s0 closes a cycle with the automatic s0 ▷ r0.
        let err = UserRun::new(
            meta(1),
            [(
                UserEvent::deliver(MessageId(0)),
                UserEvent::send(MessageId(0)),
            )],
        )
        .unwrap_err();
        assert_eq!(err, RunError::CyclicOrder);
    }

    #[test]
    fn unknown_message_rejected() {
        let err = UserRun::new(
            meta(1),
            [(UserEvent::send(MessageId(5)), UserEvent::send(MessageId(0)))],
        )
        .unwrap_err();
        assert_eq!(err, RunError::UnknownMessage(MessageId(5)));
    }

    #[test]
    fn non_dense_message_ids_rejected() {
        let mut messages = meta(2);
        messages[1].id = MessageId(2);
        let snap = UserRunSnapshot {
            messages,
            covers: vec![],
        };
        let err = UserRun::try_from(snap).unwrap_err();
        assert_eq!(err, RunError::UnknownMessage(MessageId(2)));
    }

    #[test]
    fn transitivity_through_messages() {
        // s0 ▷ s1 and r1 ▷ r0? No — build s0 ▷ s1, s1 ▷ r1 auto; check s0 ▷ r1.
        let run = UserRun::new(
            meta(2),
            [(UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1)))],
        )
        .unwrap();
        assert!(run.before(
            UserEvent::send(MessageId(0)),
            UserEvent::deliver(MessageId(1))
        ));
    }

    #[test]
    fn concurrency() {
        let run = UserRun::new(meta(2), []).unwrap();
        assert!(run.concurrent(UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1))));
        assert!(!run.concurrent(UserEvent::send(MessageId(0)), UserEvent::send(MessageId(0))));
    }

    #[test]
    fn message_graph_chain() {
        // s0 ▷ s1 makes an edge m0 -> m1 (and r0 related? r0 vs m1: no).
        let run = UserRun::new(
            meta(2),
            [(UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1)))],
        )
        .unwrap();
        let g = run.message_graph();
        assert!(g.successors(0).any(|v| v == 1));
        assert!(!g.has_cycle());
    }

    #[test]
    fn message_graph_cycle_for_crossing_pair() {
        // s0 ▷ r1 and s1 ▷ r0: the classic crown, not logically synchronous.
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
        assert!(run.message_graph().has_cycle());
    }

    #[test]
    fn snapshot_roundtrip() {
        let run = UserRun::new(
            meta(3),
            [
                (UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1))),
                (
                    UserEvent::deliver(MessageId(1)),
                    UserEvent::deliver(MessageId(2)),
                ),
            ],
        )
        .unwrap();
        let snap = UserRunSnapshot::from(&run);
        let back = UserRun::try_from(snap).unwrap();
        assert_eq!(run.relation_pairs(), back.relation_pairs());
    }

    #[test]
    fn render_mentions_messages_and_covers() {
        let run = UserRun::new(meta(1), []).unwrap();
        let s = run.render();
        assert!(s.contains("m0"));
        assert!(s.contains("▷"));
    }

    use crate::ids::SystemEvent;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The digest as first defined: FNV-1a over a snapshot's endpoints
    /// and its covering pairs.
    fn snapshot_digest(run: &UserRun) -> u64 {
        let snap = UserRunSnapshot::from(run);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let words = snap.messages.iter().flat_map(|m| [m.src.0, m.dst.0]);
        for v in words.chain(snap.covers.iter().flat_map(|&(a, b)| [a, b])) {
            h ^= v as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    fn clock_digest_is_view_digest(run: &StreamingRun) -> Result<(), String> {
        let reference = run.users_view();
        prop_assert_eq!(reference.digest(), snapshot_digest(&reference));
        prop_assert_eq!(run.users_view_digest(), reference.digest());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// Every prefix of a random schedule — incomplete messages,
        /// colored ones and a self-addressed one included — reads the
        /// digest of the view [`SystemRun::users_view`] builds off its
        /// clocks.
        ///
        /// [`SystemRun::users_view`]: crate::SystemRun::users_view
        #[test]
        fn the_clock_digest_is_the_users_view_digest(
            procs in 1usize..5,
            msgs in 0usize..9,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut run = StreamingRun::new(procs);
            for i in 0..msgs {
                let src = rng.gen_range(0..procs);
                // Message 0 is self-addressed.
                let dst = if i == 0 { src } else { rng.gen_range(0..procs) };
                match rng.gen_range(0..3) {
                    0 => run.message_colored(src, dst, ["red", "blue"][i % 2]),
                    _ => run.message(src, dst),
                };
            }
            let mut stage = vec![0usize; msgs];
            clock_digest_is_view_digest(&run)?;
            loop {
                let open: Vec<usize> = (0..msgs).filter(|&i| stage[i] < 4).collect();
                if open.is_empty() {
                    break;
                }
                let i = open[rng.gen_range(0..open.len())];
                run.append(SystemEvent::new(MessageId(i), EventKind::ALL[stage[i]]))
                    .expect("a valid next event");
                stage[i] += 1;
                clock_digest_is_view_digest(&run)?;
            }
        }
    }

    #[test]
    fn empty_run() {
        let run = UserRun::new(vec![], []).unwrap();
        assert!(run.is_empty());
        assert!(run.relation_pairs().is_empty());
        assert!(!run.message_graph().has_cycle());
    }
}
