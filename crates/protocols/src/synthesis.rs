//! A *synthesized* tagged protocol for any tagged-class forbidden
//! predicate — the direction the paper's companion work (reference 19 of the paper, noted in
//! §1) pursues: "specification using forbidden predicates also permits
//! automatic generation of efficient protocols".
//!
//! # How it works
//!
//! Every process maintains its exact causal past as a little event
//! graph (*knowledge*): the user events it has executed or learned of,
//! with their order. Tags carry the sender's knowledge; a receiver
//! merges tags on delivery.
//!
//! For an **order-1** predicate the cycle composes into a chain
//! `x*.s ▷ ... ▷ x*.r` through its unique β vertex, so every satisfying
//! instantiation has a *dominating delivery event* whose causal past
//! (plus itself) contains the whole pattern. Delaying exactly those
//! deliveries whose execution would complete an instantiation is
//! therefore sound **and complete** for tagged specifications — and it
//! is deadlock-free, because delivering any causally-minimal pending
//! message keeps the run causally ordered, and `X_co ⊆ X_B` for every
//! order-1 predicate (Theorem 3.2).
//!
//! For order-≥2 predicates no single causal past ever sees the whole
//! pattern — precisely why tagging cannot suffice and the paper demands
//! control messages. [`SynthesizedTagged::new`] therefore refuses such
//! predicates.
//!
//! Tags here carry full history (exact, simple, honest about growth); a
//! production variant would prune events that can no longer participate
//! in any instantiation.

use msgorder_classifier::classify::classify;
use msgorder_predicate::catalog::PaperClass;
use msgorder_predicate::{eval, ForbiddenPredicate};
use msgorder_runs::{MessageId, MessageMeta, ProcessId, UserEvent, UserEventKind, UserRun};
use msgorder_simnet::{Ctx, Protocol, RejectReason};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

/// A user event in wire form: (message id, 0 = send / 1 = deliver).
type WireEvent = (usize, u8);

fn wire(e: UserEvent) -> WireEvent {
    (e.msg.0, e.kind.index() as u8)
}

/// A process's knowledge: its causal past as an event graph.
#[derive(Debug, Clone, Default, Hash, Serialize, Deserialize)]
struct Knowledge {
    /// Metadata of every known message: id → (src, dst, color).
    metas: BTreeMap<usize, (usize, usize, Option<String>)>,
    /// Known events.
    events: BTreeSet<WireEvent>,
    /// Known order pairs (direct edges; closure is recomputed on check).
    pairs: BTreeSet<(WireEvent, WireEvent)>,
}

impl Knowledge {
    /// Structural validity of a tag decoded from the wire: every event
    /// and order pair must reference a message with known metadata, and
    /// every metadata entry must name real processes. `would_violate`
    /// builds its hypothetical run by indexing these maps, so admitting
    /// a dangling reference would panic instead of rejecting the frame.
    fn well_formed(&self, n: usize) -> bool {
        self.metas
            .values()
            .all(|(src, dst, _)| *src < n && *dst < n)
            && self.events.iter().all(|(m, _)| self.metas.contains_key(m))
            && self
                .pairs
                .iter()
                .all(|((a, _), (b, _))| self.metas.contains_key(a) && self.metas.contains_key(b))
    }

    fn merge(&mut self, other: &Knowledge) {
        for (k, v) in &other.metas {
            self.metas.entry(*k).or_insert_with(|| v.clone());
        }
        self.events.extend(other.events.iter().copied());
        self.pairs.extend(other.pairs.iter().copied());
    }

    /// The maximal events of the knowledge DAG (no outgoing edge).
    fn maximal_events(&self) -> Vec<WireEvent> {
        self.events
            .iter()
            .filter(|e| !self.pairs.iter().any(|(a, _)| a == *e))
            .copied()
            .collect()
    }

    /// Records that this process executes `e` now: every known event
    /// precedes it (knowledge *is* the causal past). Only edges from the
    /// currently *maximal* events are stored — every other known event
    /// reaches a maximal one, so the transitive closure is unchanged and
    /// tags stay near-linear instead of quadratic in history size.
    fn execute(&mut self, meta: (usize, usize, Option<String>), msg: usize, e: UserEvent) {
        let we = wire(e);
        for known in self.maximal_events() {
            self.pairs.insert((known, we));
        }
        self.metas.entry(msg).or_insert(meta);
        self.events.insert(we);
    }

    /// Builds the hypothetical user run "my knowledge ∪ tag ∪ {deliver
    /// `msg` now}" and asks whether the predicate fires in it.
    ///
    /// Crucially, the hypothetical also contains the *inevitable
    /// futures*: every known message destined to this process that is
    /// not yet delivered **will** be delivered here later, i.e. after
    /// `msg`'s delivery in our sequence. Without those forced
    /// `m.r ▷ y.r` edges the check would happily deliver `m` even when
    /// that makes a later violation unavoidable (deliver-now-regret-
    /// later is a deadlock, since the regretted delivery then blocks
    /// forever).
    fn would_violate(
        &self,
        preds: &[ForbiddenPredicate],
        tag: &Knowledge,
        me: usize,
        msg: usize,
        msg_meta: (usize, usize, Option<String>),
    ) -> bool {
        let mut all = self.clone();
        all.merge(tag);
        all.metas.entry(msg).or_insert(msg_meta);
        // Renumber known messages densely.
        let ids: Vec<usize> = all.metas.keys().copied().collect();
        let remap: BTreeMap<usize, usize> = ids
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new))
            .collect();
        let metas: Vec<MessageMeta> = ids
            .iter()
            .enumerate()
            .map(|(new, &old)| {
                let (src, dst, color) = all.metas[&old].clone();
                MessageMeta {
                    id: MessageId(new),
                    src: ProcessId(src),
                    dst: ProcessId(dst),
                    color,
                }
            })
            .collect();
        let map_ev = |(m, k): WireEvent| UserEvent {
            msg: MessageId(remap[&m]),
            kind: if k == 0 {
                UserEventKind::Send
            } else {
                UserEventKind::Deliver
            },
        };
        let mut pairs: Vec<(UserEvent, UserEvent)> = all
            .pairs
            .iter()
            .map(|&(a, b)| (map_ev(a), map_ev(b)))
            .collect();
        // The hypothetical delivery: everything known precedes it.
        let new_r = UserEvent::deliver(MessageId(remap[&msg]));
        for &e in &all.events {
            pairs.push((map_ev(e), new_r));
        }
        // Inevitable futures: known messages to me, undelivered, will be
        // delivered after this one in my sequence.
        for (&old, (_, dst, _)) in &all.metas {
            if old != msg && *dst == me && !all.events.contains(&(old, 1)) {
                pairs.push((new_r, UserEvent::deliver(MessageId(remap[&old]))));
            }
        }
        let Ok(run) = UserRun::new(metas, pairs) else {
            // A cycle here cannot happen for knowledge built from real
            // executions; treat defensively as a violation (delay).
            return true;
        };
        preds.iter().any(|pred| eval::holds(pred, &run))
    }
}

/// The first member of `preds` that tagging cannot enforce (order ≥ 2,
/// or not implementable), with the class the classifier puts it in —
/// `None` when every member is tagless or tagged class. These are
/// exactly the sets [`SynthesizedTagged::for_all`] refuses.
pub(crate) fn untaggable(
    preds: &[ForbiddenPredicate],
) -> Option<(&ForbiddenPredicate, PaperClass)> {
    preds.iter().find_map(|pred| {
        let verdict = classify(pred).classification;
        (!verdict.is_tagged_sufficient()).then(|| (pred, verdict.protocol_class()))
    })
}

/// The synthesized tagged protocol for a *set* of order-≤1 forbidden
/// predicates (the specification is the intersection of their `X_B`s; a
/// delivery is delayed if it would complete an instantiation of **any**
/// member).
#[derive(Debug, Clone)]
pub struct SynthesizedTagged {
    preds: Vec<ForbiddenPredicate>,
    knowledge: Knowledge,
    /// Buffered arrivals: (message, tag).
    pending: Vec<(MessageId, Knowledge)>,
}

/// The explorer's key for the state: `knowledge` and `pending`, which
/// are ordered maps and arrival order. `preds` is left out — every
/// instance of one exploration enforces the same set, so it would add
/// the same bytes to every key.
impl Hash for SynthesizedTagged {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.knowledge.hash(state);
        self.pending.hash(state);
    }
}

impl SynthesizedTagged {
    /// Builds an instance for a single predicate.
    ///
    /// # Panics
    /// Panics if the classifier says tagging is insufficient for `pred`
    /// (order ≥ 2 or not implementable) — synthesizing a tagged protocol
    /// for such a specification would be unsound, which is the paper's
    /// central impossibility result.
    pub fn new(pred: ForbiddenPredicate) -> Self {
        Self::for_all(vec![pred])
    }

    /// Builds an instance enforcing every predicate in the set. The
    /// intersection `∩ X_Bi` contains `X_co` whenever every member is
    /// tagged-or-tagless class, so the same deadlock-freedom argument
    /// (deliver causally-minimal is always allowed) carries over.
    ///
    /// # Panics
    /// Panics if any member needs more than tagging
    /// ([`ProtocolKind::untaggable_spec`](crate::ProtocolKind::untaggable_spec)
    /// names it without panicking).
    pub fn for_all(preds: Vec<ForbiddenPredicate>) -> Self {
        if let Some((pred, class)) = untaggable(&preds) {
            panic!("cannot synthesize a tagged protocol for {pred}: {class}");
        }
        SynthesizedTagged {
            preds,
            knowledge: Knowledge::default(),
            pending: Vec::new(),
        }
    }

    fn meta_of(ctx: &Ctx<'_>, msg: MessageId) -> (usize, usize, Option<String>) {
        let m = ctx.meta(msg);
        (m.src.0, m.dst.0, m.color.clone())
    }

    fn drain(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.node().0;
        loop {
            let idx = self.pending.iter().position(|(msg, tag)| {
                !self
                    .knowledge
                    .would_violate(&self.preds, tag, me, msg.0, Self::meta_of(ctx, *msg))
            });
            let Some(idx) = idx else { break };
            let (msg, tag) = self.pending.remove(idx);
            self.knowledge.merge(&tag);
            self.knowledge
                .execute(Self::meta_of(ctx, msg), msg.0, UserEvent::deliver(msg));
            ctx.deliver(msg);
        }
    }
}

impl Protocol for SynthesizedTagged {
    fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
        self.knowledge
            .execute(Self::meta_of(ctx, msg), msg.0, UserEvent::send(msg));
        let tag = serde_json::to_vec(&self.knowledge).expect("knowledge serializes");
        ctx.send_user(msg, tag);
    }

    fn on_user_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: MessageId, tag: Vec<u8>) {
        // Undecodable or structurally dangling knowledge is adversarial
        // — reject it instead of panicking in the delivery check.
        let Ok(tag) = serde_json::from_slice::<Knowledge>(&tag) else {
            ctx.reject_frame(from, RejectReason::Malformed);
            return;
        };
        if !tag.well_formed(ctx.process_count()) {
            ctx.reject_frame(from, RejectReason::Malformed);
            return;
        }
        self.pending.push((msg, tag));
        self.drain(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgorder_predicate::catalog;
    use msgorder_simnet::{LatencyModel, SimConfig, Simulation, StreamResult, Workload};

    fn sim(pred: &ForbiddenPredicate, processes: usize, seed: u64, w: Workload) -> StreamResult {
        let p = pred.clone();
        Simulation::run_uniform(
            SimConfig::new(processes, LatencyModel::Uniform { lo: 1, hi: 800 }, seed),
            w,
            move |_| SynthesizedTagged::new(p.clone()),
        )
        .expect("no protocol bug")
    }

    #[test]
    fn synthesized_causal_protocol_is_safe_and_live() {
        let pred = catalog::causal();
        for seed in 0..15 {
            let w = Workload::uniform_random(3, 12, seed);
            let r = sim(&pred, 3, seed, w);
            assert!(r.completed && r.run.is_quiescent(), "liveness, seed {seed}");
            assert!(
                eval::satisfies_spec(&pred, &r.run.users_view()),
                "safety, seed {seed}"
            );
        }
    }

    #[test]
    fn synthesized_fifo_protocol_is_safe_and_live() {
        let pred = catalog::fifo();
        for seed in 0..15 {
            let w = Workload::uniform_random(3, 12, seed);
            let r = sim(&pred, 3, seed, w);
            assert!(r.completed && r.run.is_quiescent(), "liveness, seed {seed}");
            assert!(
                eval::satisfies_spec(&pred, &r.run.users_view()),
                "safety, seed {seed}"
            );
        }
    }

    #[test]
    fn synthesized_k_weaker_allows_mild_reordering() {
        // k = 1 permits single-step overtaking that strict causal
        // ordering forbids; the synthesized protocol must enforce the
        // spec while (across seeds) exploiting the slack at least once.
        let pred = catalog::k_weaker_causal(1);
        let co = catalog::causal();
        let mut exploited_slack = false;
        for seed in 0..15 {
            let w = Workload::uniform_random(3, 12, seed);
            let r = sim(&pred, 3, seed, w);
            assert!(r.completed && r.run.is_quiescent(), "liveness, seed {seed}");
            let user = r.run.users_view();
            assert!(eval::satisfies_spec(&pred, &user), "safety, seed {seed}");
            if !eval::satisfies_spec(&co, &user) {
                exploited_slack = true;
            }
        }
        assert!(
            exploited_slack,
            "never used the k-weaker slack; protocol is over-strict"
        );
    }

    #[test]
    fn synthesized_flush_protocol() {
        let pred = catalog::global_forward_flush();
        for seed in 0..10 {
            let w = Workload::with_markers(3, 12, 4, "red", seed);
            let r = sim(&pred, 3, seed, w);
            assert!(r.completed && r.run.is_quiescent(), "liveness, seed {seed}");
            assert!(
                eval::satisfies_spec(&pred, &r.run.users_view()),
                "safety, seed {seed}"
            );
        }
    }

    #[test]
    fn set_protocol_enforces_every_member() {
        // FIFO ∧ global-forward-flush: the intersection specification.
        let preds = vec![catalog::fifo(), catalog::global_forward_flush()];
        for seed in 0..10 {
            let w = Workload::with_markers(3, 12, 4, "red", seed);
            let ps = preds.clone();
            let r = Simulation::run_uniform(
                SimConfig::new(3, LatencyModel::Uniform { lo: 1, hi: 800 }, seed),
                w,
                move |_| SynthesizedTagged::for_all(ps.clone()),
            )
            .expect("no protocol bug");
            assert!(r.completed && r.run.is_quiescent(), "liveness, seed {seed}");
            let user = r.run.users_view();
            for p in &preds {
                assert!(
                    eval::satisfies_spec(p, &user),
                    "member {p} violated, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn set_refuses_if_any_member_needs_control() {
        let result = std::panic::catch_unwind(|| {
            SynthesizedTagged::for_all(vec![catalog::fifo(), catalog::sync_crown(2)])
        });
        assert!(result.is_err());
    }

    #[test]
    fn refuses_control_message_specs() {
        let result = std::panic::catch_unwind(|| SynthesizedTagged::new(catalog::sync_crown(2)));
        assert!(result.is_err(), "order-2 crown must be refused");
    }

    #[test]
    fn refuses_unimplementable_specs() {
        let result = std::panic::catch_unwind(|| {
            SynthesizedTagged::new(catalog::receive_second_before_first())
        });
        assert!(result.is_err());
    }

    #[test]
    fn no_control_messages_used() {
        let pred = catalog::causal();
        let r = sim(&pred, 3, 1, Workload::uniform_random(3, 10, 1));
        assert_eq!(r.stats.control_messages, 0, "tagged protocols tag only");
        assert!(r.stats.tag_bytes > 0);
    }
}
