//! Causal ordering by the Schiper–Eggli–Sandoz algorithm.
//!
//! Instead of an `n × n` matrix, each process carries a vector clock
//! `V_P` (counting send events) and a constraint set `S_P` mapping each
//! destination process to the timestamp of the latest message sent to it
//! in the causal past. A message `m` to `Pj` is deliverable once `Pj`'s
//! clock dominates the constraint recorded for `Pj` in `m`'s tag — i.e.
//! every message to `Pj` in `m`'s causal past has been delivered.
//!
//! Tags are `O(n + |constraints| · n)` instead of `O(n²)`, the
//! algorithm's selling point over Raynal–Schiper–Toueg.

use msgorder_poset::VectorClock;
use msgorder_runs::{MessageId, ProcessId};
use msgorder_simnet::{Ctx, Protocol, RejectReason, SortedSlab};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Hash, Serialize, Deserialize)]
struct Tag {
    /// The message's own timestamp (sender's clock after the send tick).
    stamp: VectorClock,
    /// Constraints: destination process → timestamp that must already be
    /// dominated by the destination's clock before delivery.
    constraints: SortedSlab<usize, VectorClock>,
}

/// The SES causal-ordering protocol (one instance per process).
#[derive(Debug, Clone, Hash)]
pub struct CausalSes {
    me: usize,
    clock: VectorClock,
    constraints: SortedSlab<usize, VectorClock>,
    pending: Vec<(Tag, MessageId)>,
}

impl CausalSes {
    /// A new instance for process `me` in a system of `n` processes.
    pub fn new(n: usize, me: usize) -> Self {
        CausalSes {
            me,
            clock: VectorClock::new(n),
            constraints: SortedSlab::new(),
            pending: Vec::new(),
        }
    }

    fn dominates(clock: &VectorClock, t: &VectorClock) -> bool {
        t.entries().iter().zip(clock.entries()).all(|(a, b)| a <= b)
    }

    fn deliverable(&self, tag: &Tag) -> bool {
        match tag.constraints.get(&self.me) {
            None => true,
            Some(t) => Self::dominates(&self.clock, t),
        }
    }

    fn merge_constraint(into: &mut SortedSlab<usize, VectorClock>, dst: usize, t: &VectorClock) {
        match into.get_mut(&dst) {
            // In place: protocol-local clocks all share one width.
            Some(existing) => existing.merge(t),
            None => {
                into.insert(dst, t.clone());
            }
        }
    }

    fn drain(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let idx = self
                .pending
                .iter()
                .position(|(tag, _)| self.deliverable(tag));
            let Some(idx) = idx else { break };
            let (tag, msg) = self.pending.remove(idx);
            ctx.deliver(msg);
            // Absorb the message's knowledge.
            self.clock.merge(&tag.stamp);
            for (dst, t) in &tag.constraints {
                if *dst != self.me {
                    Self::merge_constraint(&mut self.constraints, *dst, t);
                }
            }
        }
    }
}

impl Protocol for CausalSes {
    fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
        let dst = ctx.meta(msg).dst.0;
        self.clock.tick(self.me);
        let tag = Tag {
            stamp: self.clock.clone(),
            constraints: self.constraints.clone(),
        };
        let bytes = serde_json::to_vec(&tag).expect("tag serializes");
        ctx.send_user(msg, bytes);
        // Future messages must not overtake m at dst.
        Self::merge_constraint(&mut self.constraints, dst, &self.clock);
    }

    fn on_user_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: MessageId, tag: Vec<u8>) {
        // Undecodable bytes or clocks of the wrong width (clock merges
        // require matching widths) are adversarial — reject them
        // structurally instead of panicking.
        let Ok(tag) = serde_json::from_slice::<Tag>(&tag) else {
            ctx.reject_frame(from, RejectReason::Malformed);
            return;
        };
        let n = self.clock.len();
        if tag.stamp.len() != n || tag.constraints.iter().any(|(_, t)| t.len() != n) {
            ctx.reject_frame(from, RejectReason::Malformed);
            return;
        }
        self.pending.push((tag, msg));
        self.drain(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal_rst::CausalRst;
    use crate::tagcodec;
    use msgorder_runs::limit_sets;
    use msgorder_simnet::{LatencyModel, SimConfig, Simulation, StreamResult, Workload};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn sim(processes: usize, seed: u64, w: Workload) -> StreamResult {
        Simulation::run_uniform(
            SimConfig::new(processes, LatencyModel::Uniform { lo: 1, hi: 900 }, seed),
            w,
            |me| CausalSes::new(processes, me),
        )
        .expect("no protocol bug")
    }

    #[test]
    fn enforces_causal_ordering_across_seeds() {
        for seed in 0..30 {
            let w = Workload::uniform_random(4, 20, seed);
            let r = sim(4, seed, w);
            assert!(r.completed && r.run.is_quiescent(), "liveness, seed {seed}");
            assert!(
                limit_sets::in_x_co(&r.run.users_view()),
                "X_co violated at seed {seed}"
            );
        }
    }

    #[test]
    fn relay_chain_safe() {
        for seed in 0..20 {
            let w = Workload::relay_chain(4, 3);
            let r = sim(4, seed, w);
            assert!(r.run.is_quiescent());
            assert!(limit_sets::in_x_co(&r.run.users_view()), "seed {seed}");
        }
    }

    #[test]
    fn agrees_with_rst_on_safety() {
        for seed in 0..10 {
            let w = Workload::client_server(4, 3, 4, seed);
            let ses = sim(4, seed, w.clone());
            let rst = Simulation::run_uniform(
                SimConfig::new(4, LatencyModel::Uniform { lo: 1, hi: 900 }, seed),
                w,
                |_| CausalRst::new(4),
            )
            .expect("no protocol bug");
            assert!(limit_sets::in_x_co(&ses.run.users_view()));
            assert!(limit_sets::in_x_co(&rst.run.users_view()));
        }
    }

    /// A protocol with its arriving tags copied out.
    struct Tapped<P> {
        inner: P,
        tags: Rc<RefCell<Vec<Vec<u8>>>>,
    }

    impl<P: Protocol> Protocol for Tapped<P> {
        fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
            self.inner.on_send_request(ctx, msg);
        }

        fn on_user_frame(
            &mut self,
            ctx: &mut Ctx<'_>,
            from: ProcessId,
            msg: MessageId,
            tag: Vec<u8>,
        ) {
            self.tags.borrow_mut().push(tag.clone());
            self.inner.on_user_frame(ctx, from, msg, tag);
        }
    }

    /// Every tag `make`'s instances send on a lossless network (each
    /// one arrives exactly once), and the tag bytes the kernel counted.
    fn tags_sent<P: Protocol>(n: usize, make: impl Fn(usize) -> P) -> (Vec<Vec<u8>>, usize) {
        let tags = Rc::new(RefCell::new(Vec::new()));
        let r = Simulation::run_uniform(
            SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 300 }, 5),
            Workload::uniform_random(n, 30, 5),
            |me| Tapped {
                inner: make(me),
                tags: Rc::clone(&tags),
            },
        )
        .expect("no protocol bug");
        assert!(r.completed && r.run.is_quiescent());
        let tags = tags.take();
        assert_eq!(tags.len(), 30);
        assert_eq!(r.stats.tag_bytes, tags.iter().map(Vec::len).sum::<usize>());
        (tags, r.stats.tag_bytes)
    }

    #[test]
    fn ses_tags_smaller_than_rst_for_larger_systems() {
        // The point of SES: constraint sets stay sparse while the RST
        // matrix is always n². Compare the counters each tag carries —
        // n·(1 + |constraints|) against n² — on a sparse workload over
        // many processes. Bytes would compare codecs (SES's JSON against
        // RST's varints), not the algorithms.
        let n = 8;
        let (ses, ses_bytes) = tags_sent(n, |me| CausalSes::new(n, me));
        let (rst, rst_bytes) = tags_sent(n, |_| CausalRst::new(n));
        let ses_counters: usize = ses
            .iter()
            .map(|t| {
                let tag: Tag = serde_json::from_slice(t).expect("SES tag decodes");
                n * (1 + tag.constraints.len())
            })
            .sum();
        let rst_counters: usize = rst
            .iter()
            .map(|t| {
                let mut m = Vec::new();
                tagcodec::decode_into(t, n * n, &mut m).expect("RST tag decodes");
                m.len()
            })
            .sum();
        assert!(
            ses_counters < rst_counters,
            "SES {ses_counters} vs RST {rst_counters} counters ({ses_bytes} vs {rst_bytes} bytes)"
        );
    }

    #[test]
    fn no_control_messages() {
        let r = sim(3, 2, Workload::uniform_random(3, 12, 2));
        assert_eq!(r.stats.control_messages, 0);
    }
}
