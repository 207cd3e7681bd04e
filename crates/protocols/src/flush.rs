//! Flush channels (F-channels, Ahuja): per-channel ordering primitives.
//!
//! A channel carries four kinds of sends, selected by message color:
//!
//! - *ordinary* (no color) — unordered;
//! - `"ff"` **forward flush** — delivered only after every earlier send
//!   on the channel;
//! - `"bf"` **backward flush** — delivered before every later send on
//!   the channel;
//! - `"2f"` **two-way flush** — both.
//!
//! The tag carries the channel sequence number plus the barrier state
//! (the latest preceding backward-flush sequence numbers), so no control
//! messages are needed — matching the paper's §2 claim that flush
//! orders, like causal ordering, "can be implemented without using any
//! control messages".
//!
//! The experiments drive this with `"red"` markers mapped to `"ff"` or
//! `"bf"` to check the §6 forward-flush and backward-flush predicates.

use msgorder_runs::{MessageId, ProcessId};
use msgorder_simnet::{Ctx, Protocol, RejectReason};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Send kinds, decoded from message colors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
enum Kind {
    Ordinary,
    Forward,
    Backward,
    TwoWay,
}

impl Kind {
    fn of_color(color: Option<&str>) -> Kind {
        match color {
            Some("ff") | Some("red") => Kind::Forward,
            Some("bf") => Kind::Backward,
            Some("2f") => Kind::TwoWay,
            _ => Kind::Ordinary,
        }
    }

    fn waits_for_all_earlier(self) -> bool {
        matches!(self, Kind::Forward | Kind::TwoWay)
    }

    fn blocks_all_later(self) -> bool {
        matches!(self, Kind::Backward | Kind::TwoWay)
    }
}

#[derive(Debug, Clone, Hash, Serialize, Deserialize)]
struct Tag {
    seq: u64,
    kind: Kind,
    /// Sequence numbers of backward/two-way flushes sent before this
    /// message on the channel (they must be delivered first).
    barriers: Vec<u64>,
}

#[derive(Debug, Default, Clone, Hash)]
struct ChannelIn {
    delivered: BTreeSet<u64>,
    pending: Vec<(Tag, MessageId)>,
}

impl ChannelIn {
    fn all_below_delivered(&self, seq: u64) -> bool {
        // Sequence numbers are dense per channel, so all of 0..seq are
        // delivered iff exactly `seq` delivered entries are below it.
        self.delivered.range(..seq).count() as u64 == seq
    }

    fn deliverable(&self, tag: &Tag) -> bool {
        let barriers_ok = tag.barriers.iter().all(|b| self.delivered.contains(b));
        let earlier_ok = !tag.kind.waits_for_all_earlier() || self.all_below_delivered(tag.seq);
        barriers_ok && earlier_ok
    }
}

#[derive(Debug, Default, Clone, Hash)]
struct ChannelOut {
    next_seq: u64,
    barriers: Vec<u64>,
}

/// The flush-channel protocol (one instance per process). Channels are
/// kept in ordered maps so that `Hash` — the explorer's key for the
/// state — does not depend on insertion order.
#[derive(Debug, Default, Clone, Hash)]
pub struct FlushChannels {
    outgoing: BTreeMap<usize, ChannelOut>,
    incoming: BTreeMap<usize, ChannelIn>,
}

impl FlushChannels {
    /// A new instance.
    pub fn new() -> Self {
        FlushChannels::default()
    }

    fn drain(&mut self, ctx: &mut Ctx<'_>, src: usize) {
        let chan = self.incoming.entry(src).or_default();
        loop {
            let idx = chan.pending.iter().position(|(t, _)| chan.deliverable(t));
            let Some(idx) = idx else { break };
            let (tag, msg) = chan.pending.remove(idx);
            ctx.deliver(msg);
            chan.delivered.insert(tag.seq);
        }
    }
}

impl Protocol for FlushChannels {
    fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
        let meta = ctx.meta(msg);
        let dst = meta.dst.0;
        let kind = Kind::of_color(meta.color.as_deref());
        let chan = self.outgoing.entry(dst).or_default();
        let tag = Tag {
            seq: chan.next_seq,
            kind,
            barriers: chan.barriers.clone(),
        };
        if kind.blocks_all_later() {
            chan.barriers.push(chan.next_seq);
        }
        chan.next_seq += 1;
        let bytes = serde_json::to_vec(&tag).expect("tag serializes");
        ctx.send_user(msg, bytes);
    }

    fn on_user_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: MessageId, tag: Vec<u8>) {
        // Undecodable bytes are adversarial — reject them structurally
        // instead of panicking. (Every field of a decoded tag is safe:
        // the delivery check only compares sequence numbers.)
        let Ok(tag) = serde_json::from_slice::<Tag>(&tag) else {
            ctx.reject_frame(from, RejectReason::Malformed);
            return;
        };
        self.incoming
            .entry(from.0)
            .or_default()
            .pending
            .push((tag, msg));
        self.drain(ctx, from.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgorder_predicate::{catalog, eval};
    use msgorder_simnet::{LatencyModel, SimConfig, Simulation, StreamResult, Workload};

    fn sim(seed: u64, w: Workload) -> StreamResult {
        Simulation::run_uniform(
            SimConfig::new(3, LatencyModel::Uniform { lo: 1, hi: 700 }, seed),
            w,
            |_| FlushChannels::new(),
        )
        .expect("no protocol bug")
    }

    #[test]
    fn forward_flush_spec_holds_with_red_markers() {
        let spec = catalog::local_forward_flush();
        for seed in 0..25 {
            let w = Workload::with_markers(3, 18, 4, "red", seed);
            let r = sim(seed, w);
            assert!(r.completed && r.run.is_quiescent(), "liveness, seed {seed}");
            assert!(
                eval::satisfies_spec(&spec, &r.run.users_view()),
                "forward flush violated at seed {seed}"
            );
        }
    }

    #[test]
    fn backward_flush_spec_holds_with_bf_markers() {
        // Backward flush: the marked message is delivered before every
        // later send on its channel — i.e. the marked message is never
        // overtaken. The §6/§2 predicate colors the *earlier* message.
        let spec = msgorder_predicate::ForbiddenPredicate::parse(
            "forbid x, y: x.s < y.s & y.r < x.r \
             where proc(x.s) = proc(y.s), proc(x.r) = proc(y.r), color(x) = bf",
        )
        .unwrap();
        for seed in 0..25 {
            let w = Workload::with_markers(3, 18, 4, "bf", seed);
            let r = sim(seed, w);
            assert!(r.run.is_quiescent(), "seed {seed}");
            assert!(
                eval::satisfies_spec(&spec, &r.run.users_view()),
                "backward flush violated at seed {seed}"
            );
        }
    }

    #[test]
    fn ordinary_messages_still_reorder() {
        // With no markers the channel behaves asynchronously: some seed
        // shows a FIFO violation (flush ≠ FIFO).
        let fifo = catalog::fifo();
        let violated = (0..40).any(|seed| {
            let w = Workload::uniform_random(3, 12, seed);
            let r = sim(seed, w);
            !eval::satisfies_spec(&fifo, &r.run.users_view())
        });
        assert!(violated, "unmarked flush channels behaved FIFO everywhere");
    }

    #[test]
    fn two_way_flush_acts_as_both() {
        let spec_fwd = msgorder_predicate::ForbiddenPredicate::parse(
            "forbid x, y: x.s < y.s & y.r < x.r \
             where proc(x.s) = proc(y.s), proc(x.r) = proc(y.r), color(y) = 2f",
        )
        .unwrap();
        let spec_bwd = msgorder_predicate::ForbiddenPredicate::parse(
            "forbid x, y: x.s < y.s & y.r < x.r \
             where proc(x.s) = proc(y.s), proc(x.r) = proc(y.r), color(x) = 2f",
        )
        .unwrap();
        for seed in 0..20 {
            let w = Workload::with_markers(3, 16, 4, "2f", seed);
            let r = sim(seed, w);
            let user = r.run.users_view();
            assert!(eval::satisfies_spec(&spec_fwd, &user), "fwd, seed {seed}");
            assert!(eval::satisfies_spec(&spec_bwd, &user), "bwd, seed {seed}");
        }
    }
}
