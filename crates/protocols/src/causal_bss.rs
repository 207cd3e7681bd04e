//! Causal *broadcast* by the Birman–Schiper–Stephenson algorithm — the
//! multicast direction the paper's closing remark points at ("the
//! results in this paper can be extended to incorporate multicast
//! messages").
//!
//! When every message is a broadcast, causal ordering needs only an
//! `O(n)` vector clock instead of RST's `O(n²)` matrix: process `i`
//! counts *broadcasts delivered per origin*; a broadcast `m` from `i`
//! with timestamp `V` is deliverable at `j` once `j` has delivered
//! exactly `V[i] − 1` broadcasts from `i` and at least `V[k]` from every
//! other `k` — i.e. everything the origin had seen.
//!
//! Broadcasts arrive here as the fan-out unicasts produced by
//! [`Workload::broadcast_rounds`](msgorder_simnet::Workload::broadcast_rounds):
//! each round's `n − 1` unicasts share one origin, one request instant
//! and one timestamp. The algorithm is only correct for all-broadcast
//! traffic; [`CausalBss`] asserts the workload shape as it runs.

use msgorder_poset::VectorClock;
use msgorder_runs::{MessageId, ProcessId};
use msgorder_simnet::{Ctx, Protocol, RejectReason};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Tag {
    stamp: VectorClock,
}

/// The BSS causal-broadcast protocol (one instance per process).
#[derive(Debug, Clone, Hash)]
pub struct CausalBss {
    me: usize,
    /// `delivered[k]` = broadcasts from origin `k` delivered here
    /// (deliveries of one broadcast's fan-out count once; our unicast
    /// realization delivers exactly one leg per destination, so the
    /// per-leg count *is* the broadcast count).
    delivered: Vec<u64>,
    /// Broadcasts sent by me (my own clock component).
    sent: u64,
    /// The timestamp currently assigned to an in-progress fan-out, so
    /// all legs of one broadcast share it: (request time, stamp).
    fanout: Option<(u64, VectorClock)>,
    pending: Vec<(usize, VectorClock, MessageId)>,
}

impl CausalBss {
    /// A new instance for process `me` of `n`.
    pub fn new(n: usize, me: usize) -> Self {
        CausalBss {
            me,
            delivered: vec![0; n],
            sent: 0,
            fanout: None,
            pending: Vec::new(),
        }
    }

    fn current_stamp(&mut self, now: u64, n: usize) -> VectorClock {
        // All legs of one broadcast are requested at the same instant;
        // a new instant starts a new broadcast.
        if let Some((at, stamp)) = &self.fanout {
            if *at == now {
                return stamp.clone();
            }
        }
        self.sent += 1;
        let mut entries = self.delivered.clone();
        debug_assert_eq!(entries.len(), n);
        // my component counts my own broadcasts (delivered-to-self).
        entries[self.me] = self.sent;
        let stamp = VectorClock::from_entries(entries);
        self.fanout = Some((now, stamp.clone()));
        stamp
    }

    fn deliverable(&self, from: usize, stamp: &VectorClock) -> bool {
        (0..self.delivered.len()).all(|k| {
            // A process's own broadcasts count as delivered-to-self (it
            // never receives a leg of its own fan-out).
            let have = if k == self.me {
                self.sent
            } else {
                self.delivered[k]
            };
            if k == from {
                have == stamp[k] - 1
            } else {
                have >= stamp[k]
            }
        })
    }

    fn drain(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let idx = self
                .pending
                .iter()
                .position(|(from, stamp, _)| self.deliverable(*from, stamp));
            let Some(idx) = idx else { break };
            let (from, _stamp, msg) = self.pending.remove(idx);
            ctx.deliver(msg);
            self.delivered[from] += 1;
        }
    }
}

impl Protocol for CausalBss {
    fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
        let n = ctx.process_count();
        let stamp = self.current_stamp(ctx.now(), n);
        let tag = serde_json::to_vec(&Tag { stamp }).expect("tag serializes");
        ctx.send_user(msg, tag);
    }

    fn on_user_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: MessageId, tag: Vec<u8>) {
        // Undecodable bytes, a stamp of the wrong width (BSS requires
        // all-broadcast workloads, so every stamp spans all processes),
        // or a zero own-component (a real sender always counts the
        // broadcast in flight) would panic the delivery check — reject
        // them structurally instead.
        let Ok(tag) = serde_json::from_slice::<Tag>(&tag) else {
            ctx.reject_frame(from, RejectReason::Malformed);
            return;
        };
        if tag.stamp.len() != ctx.process_count() || tag.stamp[from.0] == 0 {
            ctx.reject_frame(from, RejectReason::Malformed);
            return;
        }
        self.pending.push((from.0, tag.stamp, msg));
        self.drain(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgorder_predicate::{catalog, eval};
    use msgorder_runs::limit_sets;
    use msgorder_simnet::{LatencyModel, SimConfig, Simulation, StreamResult, Workload};

    fn sim(n: usize, rounds: usize, seed: u64) -> StreamResult {
        let w = Workload::broadcast_rounds(n, rounds, seed);
        Simulation::run_uniform(
            SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 900 }, seed),
            w,
            |me| CausalBss::new(n, me),
        )
        .expect("no protocol bug")
    }

    #[test]
    fn broadcasts_delivered_causally() {
        for seed in 0..25 {
            let r = sim(4, 8, seed);
            assert!(r.completed && r.run.is_quiescent(), "liveness, seed {seed}");
            let user = r.run.users_view();
            assert!(
                limit_sets::in_x_co(&user),
                "causal broadcast violated X_co at seed {seed}"
            );
            assert!(eval::satisfies_spec(&catalog::causal(), &user));
        }
    }

    #[test]
    fn all_legs_of_a_round_share_a_stamp() {
        // Deterministic check through behaviour: a 2-round broadcast on
        // 3 processes stays causal even when the second round is issued
        // by a process that saw the first.
        for seed in 0..20 {
            let r = sim(3, 6, seed);
            assert!(limit_sets::in_x_co(&r.run.users_view()), "seed {seed}");
        }
    }

    #[test]
    fn vector_tags_beat_matrix_tags() {
        // The point of BSS over RST for broadcast traffic: O(n) vs O(n²).
        let n = 8;
        let w = Workload::broadcast_rounds(n, 6, 3);
        let cfg = SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 400 }, 3);
        let bss = Simulation::run_uniform(cfg.clone(), w.clone(), |me| CausalBss::new(n, me))
            .expect("no protocol bug");
        let rst =
            Simulation::run_uniform(cfg, w, |_| crate::CausalRst::new(n)).expect("no protocol bug");
        assert!(limit_sets::in_x_co(&bss.run.users_view()));
        assert!(
            bss.stats.tag_bytes < rst.stats.tag_bytes,
            "BSS {} !< RST {}",
            bss.stats.tag_bytes,
            rst.stats.tag_bytes
        );
    }

    #[test]
    fn no_control_messages() {
        let r = sim(3, 5, 1);
        assert_eq!(r.stats.control_messages, 0);
    }

    #[test]
    fn fifo_holds_between_broadcasts_of_one_origin() {
        // Causal broadcast implies per-origin FIFO.
        for seed in 0..15 {
            let r = sim(4, 8, seed);
            assert!(
                eval::satisfies_spec(&catalog::fifo(), &r.run.users_view()),
                "seed {seed}"
            );
        }
    }
}
