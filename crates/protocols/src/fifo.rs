//! FIFO channels by per-channel sequence numbers (tagged, 8 bytes).

use crate::link::Link;
use msgorder_runs::{MessageId, ProcessId};
use msgorder_simnet::{Ctx, Protocol, RejectReason, SortedSlab};

/// Per-channel sequence numbering: the receiver delivers each channel's
/// messages in send order, buffering any that arrive early. Implements
/// the FIFO specification of §6 — a tagged protocol, as the classifier
/// predicts (the FIFO predicate's cycle has one β vertex).
///
/// State lives in [`SortedSlab`]s so the protocol is `Hash` (required
/// by the deduplicating explorer) with a canonical, order-independent
/// digest computed over contiguous words.
#[derive(Debug, Default, Clone, Hash)]
pub struct FifoProtocol {
    /// Next sequence number to assign, per destination.
    next_out: SortedSlab<usize, u64>,
    /// Next sequence expected, per source.
    next_in: SortedSlab<usize, u64>,
    /// Early arrivals, per source, keyed by sequence number.
    pending: SortedSlab<usize, SortedSlab<u64, MessageId>>,
    /// Sends user frames, and acks and retransmits them in the
    /// [`reliable`](FifoProtocol::reliable) variant.
    link: Link,
}

impl FifoProtocol {
    /// A new instance (assumes a lossless network).
    pub fn new() -> Self {
        FifoProtocol::default()
    }

    /// An instance that retransmits lost frames until acknowledged —
    /// survives `FaultModel` loss and duplication.
    pub fn reliable() -> Self {
        FifoProtocol {
            link: Link::reliable(),
            ..FifoProtocol::default()
        }
    }

    fn drain(&mut self, ctx: &mut Ctx<'_>, src: usize) {
        let expected = self.next_in.get_or_insert_with(src, || 0);
        let queue = self.pending.get_or_insert_with(src, SortedSlab::new);
        while let Some(msg) = queue.remove(expected) {
            ctx.deliver(msg);
            *expected += 1;
        }
    }
}

impl Protocol for FifoProtocol {
    fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
        let dst = ctx.meta(msg).dst.0;
        let seq = self.next_out.get_or_insert_with(dst, || 0);
        let tag = seq.to_le_bytes().to_vec();
        *seq += 1;
        self.link.send_user(ctx, msg, tag);
    }

    fn on_user_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: MessageId, tag: Vec<u8>) {
        self.link.ack_user(ctx, from, msg);
        // A benign channel always carries exactly the 8 bytes we sent;
        // anything else is adversarial truncation or garbage.
        let Ok(tag) = <[u8; 8]>::try_from(tag) else {
            ctx.reject_frame(from, RejectReason::Malformed);
            return;
        };
        let seq = u64::from_le_bytes(tag);
        self.pending
            .get_or_insert_with(from.0, SortedSlab::new)
            .insert(seq, msg);
        self.drain(ctx, from.0);
    }

    fn on_control_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, bytes: Vec<u8>) {
        // FIFO sends no payloads of its own: everything arriving here
        // is link bookkeeping (user-frame acks).
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
    use msgorder_simnet::{LatencyModel, SimConfig, Simulation, Workload};

    fn sim(seed: u64, msgs: usize) -> msgorder_simnet::StreamResult {
        let w = Workload::uniform_random(3, msgs, seed);
        Simulation::run_uniform(
            SimConfig::new(3, LatencyModel::Uniform { lo: 1, hi: 800 }, seed),
            w,
            |_| FifoProtocol::new(),
        )
        .expect("no protocol bug")
    }

    #[test]
    fn enforces_fifo_spec_across_seeds() {
        let spec = catalog::fifo();
        for seed in 0..25 {
            let r = sim(seed, 20);
            assert!(r.completed && r.run.is_quiescent(), "liveness, seed {seed}");
            let user = r.run.users_view();
            assert!(
                eval::satisfies_spec(&spec, &user),
                "FIFO violated at seed {seed}"
            );
        }
    }

    #[test]
    fn does_not_enforce_full_causal_ordering() {
        // FIFO is weaker than causal: some seed must produce a
        // cross-channel causal violation.
        let co = catalog::causal();
        let violated = (0..60).any(|seed| {
            let r = sim(seed, 14);
            !eval::satisfies_spec(&co, &r.run.users_view())
        });
        assert!(violated, "FIFO accidentally causal on all seeds?");
    }

    #[test]
    fn tag_is_eight_bytes_per_message() {
        let r = sim(1, 20);
        assert_eq!(r.stats.tag_bytes, 20 * 8);
        assert_eq!(r.stats.control_messages, 0);
    }

    #[test]
    fn actually_inhibits_under_reordering() {
        // On at least one seed a message must be buffered (inhibition > 0),
        // matching Figure 2's delayed r2.
        let inhibited = (0..25).any(|seed| sim(seed, 20).stats.total_inhibition > 0);
        assert!(inhibited);
    }
}
