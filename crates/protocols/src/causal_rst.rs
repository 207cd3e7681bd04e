//! Causal ordering by the Raynal–Schiper–Toueg matrix algorithm.
//!
//! Each process `Pi` maintains `SENT[k][l]` — its knowledge of how many
//! messages `Pk` has sent to `Pl`. A message to `Pj` is tagged with the
//! sender's matrix (after counting the message itself); `Pj` delivers it
//! once, for every `k`, it has delivered at least `M[k][j]` messages
//! from `Pk` (one fewer for the sender, whose count includes the message
//! in flight). This is the tagged protocol cited in Theorem 1.2: it
//! implements exactly `X_co`.
//!
//! Every matrix lives in a flat row-major slab of `n·n` words — `SENT`
//! in one, the matrices of buffered arrivals back to back in another.
//! The tag is the `n²` counters of `SENT` in [`tagcodec`] form (LEB128
//! varints and a check byte), written from the slab and decoded onto
//! the arena directly (DESIGN.md §14); a tag that fails the check, or
//! holds other than `n²` counters, is `Malformed`. The only allocation
//! per message is the tag buffer the host takes ownership of.

use crate::link::Link;
use crate::tagcodec;
use msgorder_poset::words;
use msgorder_runs::{MessageId, ProcessId};
use msgorder_simnet::{Ctx, Protocol, RejectReason};

/// The RST causal-ordering protocol (one instance per process).
#[derive(Debug, Clone, Hash)]
pub struct CausalRst {
    n: usize,
    /// `SENT`, row-major: `SENT[k][l]` is `sent[k * n + l]`.
    sent: Vec<u64>,
    /// Messages delivered here, per sender.
    delivered_from: Vec<u64>,
    /// Buffered arrivals, in arrival order: (sender, message).
    pending: Vec<(usize, MessageId)>,
    /// The matrices of `pending`, back to back: entry `i`'s occupies
    /// `parked[i * n * n..][..n * n]`. Never holds anything else, so
    /// equal states hash equal.
    parked: Vec<u64>,
    /// Sends user frames, and acks and retransmits them in the
    /// [`reliable`](CausalRst::reliable) variant.
    link: Link,
}

impl CausalRst {
    /// A new instance for a system of `n` processes (assumes a lossless
    /// network).
    pub fn new(n: usize) -> Self {
        CausalRst {
            n,
            sent: vec![0; n * n],
            delivered_from: vec![0; n],
            pending: Vec::new(),
            parked: Vec::new(),
            link: Link::new(),
        }
    }

    /// An instance that retransmits lost frames until acknowledged —
    /// survives `FaultModel` loss and duplication.
    pub fn reliable(n: usize) -> Self {
        CausalRst {
            link: Link::reliable(),
            ..CausalRst::new(n)
        }
    }

    fn deliverable(&self, me: usize, idx: usize) -> bool {
        let from = self.pending[idx].0;
        let stride = self.n * self.n;
        let m = &self.parked[idx * stride..][..stride];
        (0..self.n).all(|k| {
            let need = if k == from {
                m[k * self.n + me].saturating_sub(1)
            } else {
                m[k * self.n + me]
            };
            self.delivered_from[k] >= need
        })
    }

    fn drain(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.node().0;
        let stride = self.n * self.n;
        while let Some(idx) = (0..self.pending.len()).find(|&idx| self.deliverable(me, idx)) {
            let (from, msg) = self.pending.remove(idx);
            ctx.deliver(msg);
            self.delivered_from[from] += 1;
            let at = idx * stride;
            words::merge_in_place(&mut self.sent, &self.parked[at..at + stride]);
            self.parked.copy_within(at + stride.., at);
            self.parked.truncate(self.parked.len() - stride);
        }
    }
}

impl Protocol for CausalRst {
    fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
        let me = ctx.node().0;
        let dst = ctx.meta(msg).dst.0;
        // Through the row slice: an out-of-range `dst` must fail here,
        // not count into another row.
        self.sent[me * self.n..][..self.n][dst] += 1;
        let tag = tagcodec::encode(&self.sent);
        self.link.send_user(ctx, msg, tag);
    }

    fn on_user_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: MessageId, tag: Vec<u8>) {
        self.link.ack_user(ctx, from, msg);
        // Undecodable bytes or a matrix that is not n × n (the delivery
        // check reads `m[k][me]` for every k) are adversarial — reject
        // them structurally instead of panicking. The matrix is decoded
        // onto the end of the arena, where it stays if it has to wait.
        if tagcodec::decode_into(&tag, self.n * self.n, &mut self.parked).is_none() {
            ctx.reject_frame(from, RejectReason::Malformed);
            return;
        }
        self.pending.push((from.0, msg));
        self.drain(ctx);
    }

    fn on_control_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, bytes: Vec<u8>) {
        // RST sends no payloads of its own: everything arriving here is
        // link bookkeeping (user-frame acks).
        self.link.on_control(ctx, from, &bytes, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        self.link.on_timer(ctx, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgorder_predicate::{catalog, eval};
    use msgorder_runs::limit_sets;
    use msgorder_simnet::{
        HostAction, HostEnv, HostEvent, LatencyModel, ProtocolHost, SimConfig, Simulation,
        StreamResult, Workload,
    };

    #[test]
    fn malformed_tag_is_rejected_and_leaves_no_state_behind() {
        // P0 -> P1 twice; P1 gets a tag that dies after three of its
        // four counters (its check byte is right), then the real frames.
        let w = Workload::relay_chain(2, 2);
        let mut env = HostEnv::new(1, 2, &w);
        let mut p = CausalRst::new(2);
        let frame = |msg: usize, tag: &[u8]| HostEvent::UserFrame {
            from: ProcessId(0),
            msg: MessageId(msg),
            tag: tag.to_vec(),
        };
        p.process_event(&mut env, frame(0, &[0, 1, 0, 1]));
        assert_eq!(
            env.take_actions(),
            vec![HostAction::RejectFrame {
                from: ProcessId(0),
                reason: RejectReason::Malformed,
            }]
        );
        assert_eq!(format!("{p:?}"), format!("{:?}", CausalRst::new(2)));
        // The second message overtakes the first: parked, then released.
        p.process_event(&mut env, frame(1, &tagcodec::encode(&[0, 2, 0, 0])));
        assert_eq!(env.take_actions(), vec![]);
        p.process_event(&mut env, frame(0, &tagcodec::encode(&[0, 1, 0, 0])));
        let deliver = |msg| HostAction::Deliver {
            msg: MessageId(msg),
        };
        assert_eq!(env.take_actions(), vec![deliver(0), deliver(1)]);
        assert!(p.pending.is_empty() && p.parked.is_empty());
        assert_eq!(p.sent, [0, 2, 0, 0]);
    }

    #[test]
    fn a_flipped_bit_or_a_foreign_size_is_malformed() {
        // P0's real tag for its first send to P1, then every single-bit
        // flip of it, then the same send's tag from a 3-process system.
        let w = Workload::relay_chain(3, 1);
        let tag_from = |n: usize| {
            let mut env = HostEnv::new(0, n, &w);
            CausalRst::new(n).process_event(&mut env, HostEvent::Request { msg: MessageId(0) });
            match env.take_actions().as_slice() {
                [HostAction::SendUser { tag, .. }] => tag.clone(),
                other => panic!("one user frame, got {other:?}"),
            }
        };
        let clean = tag_from(2);
        let mut tags: Vec<Vec<u8>> = (0..clean.len() * 8)
            .map(|bit| {
                let mut dirty = clean.clone();
                dirty[bit / 8] ^= 1 << (bit % 8);
                dirty
            })
            .collect();
        tags.push(tag_from(3));
        for tag in tags {
            let mut env = HostEnv::new(1, 2, &w);
            let mut p = CausalRst::new(2);
            p.process_event(
                &mut env,
                HostEvent::UserFrame {
                    from: ProcessId(0),
                    msg: MessageId(0),
                    tag,
                },
            );
            assert_eq!(
                env.take_actions(),
                vec![HostAction::RejectFrame {
                    from: ProcessId(0),
                    reason: RejectReason::Malformed
                }]
            );
        }
    }

    fn sim(processes: usize, seed: u64, w: Workload) -> StreamResult {
        Simulation::run_uniform(
            SimConfig::new(processes, LatencyModel::Uniform { lo: 1, hi: 900 }, seed),
            w,
            |_| CausalRst::new(processes),
        )
        .expect("no protocol bug")
    }

    #[test]
    fn enforces_causal_ordering_across_seeds() {
        let spec = catalog::causal();
        for seed in 0..25 {
            let w = Workload::uniform_random(4, 20, seed);
            let r = sim(4, seed, w);
            assert!(r.completed && r.run.is_quiescent(), "liveness, seed {seed}");
            let user = r.run.users_view();
            assert!(limit_sets::in_x_co(&user), "X_co violated at seed {seed}");
            assert!(eval::satisfies_spec(&spec, &user));
        }
    }

    #[test]
    fn handles_cross_channel_relay() {
        // The classic triangle: P0 -> P2 slow, P0 -> P1 fast, P1 -> P2
        // relayed — P2 must hold the relay until P0's direct message.
        for seed in 0..25 {
            let w = Workload::relay_chain(3, 4);
            let r = sim(3, seed, w);
            assert!(r.run.is_quiescent());
            assert!(limit_sets::in_x_co(&r.run.users_view()), "seed {seed}");
        }
    }

    #[test]
    fn inhibits_more_than_fifo_on_bursty_traffic() {
        // Sanity that the matrix condition actually delays deliveries.
        let inhibited = (0..20).any(|seed| {
            let w = Workload::client_server(4, 4, 4, seed);
            sim(4, seed, w).stats.total_inhibition > 0
        });
        assert!(inhibited);
    }

    #[test]
    fn straggler_latency_still_safe_and_live() {
        for seed in 0..10 {
            let w = Workload::uniform_random(4, 25, seed);
            let r = Simulation::run_uniform(
                SimConfig::new(
                    4,
                    LatencyModel::Straggler {
                        lo: 1,
                        hi: 100,
                        slow_every: 4,
                        slow_factor: 40,
                    },
                    seed,
                ),
                w,
                |_| CausalRst::new(4),
            )
            .expect("no protocol bug");
            assert!(r.completed && r.run.is_quiescent(), "seed {seed}");
            assert!(limit_sets::in_x_co(&r.run.users_view()), "seed {seed}");
        }
    }
}
