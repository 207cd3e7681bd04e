//! Protocol overhead accounting.

use serde::{Deserialize, Serialize};

/// Cost counters collected during a simulation — the raw material of the
/// EXP-P1 protocol-comparison table.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stats {
    /// User messages put on the wire.
    pub user_messages: usize,
    /// Control messages put on the wire.
    pub control_messages: usize,
    /// Total bytes of control payloads.
    pub control_bytes: usize,
    /// Total bytes piggybacked on user messages.
    pub tag_bytes: usize,
    /// Sum over user messages of `deliver_time - receive_time` (how long
    /// the protocol inhibited deliveries).
    pub total_inhibition: u64,
    /// Sum over user messages of `deliver_time - invoke_time`.
    pub total_latency: u64,
    /// Number of user messages delivered.
    pub delivered: usize,
    /// Final simulated time.
    pub end_time: u64,
    /// Frames eaten by the fault model (loss, partitions, arrivals at
    /// crashed processes).
    pub dropped_frames: usize,
    /// Extra frame copies created by network duplication.
    pub duplicated_frames: usize,
    /// Duplicate user-frame arrivals absorbed by the kernel before they
    /// could corrupt the run.
    pub suppressed_duplicates: usize,
    /// Frames re-sent by protocols via `resend_user`/`resend_control`.
    pub retransmitted_frames: usize,
    /// Events dispatched to protocol instances by the kernel loop
    /// (excludes crash-window drops/deferrals).
    pub dispatched_events: usize,
    /// High-water mark of pending kernel events: unissued requests plus
    /// in-flight frames and timers, sampled whenever a dispatch
    /// schedules one. Trace footers store it.
    pub max_queue_depth: usize,
    /// Frames whose payload the adversary bit-flipped in transit.
    pub corrupted_frames: usize,
    /// Forged (mutated-copy) control frames injected by the adversary.
    pub forged_frames: usize,
    /// Stale byte-exact copies replayed by the adversary.
    pub replayed_frames: usize,
    /// Frames hit by an adversarial reordering burst (extra latency).
    pub reordered_frames: usize,
    /// Frames refused by a protocol layer via `Ctx::reject_frame`.
    pub rejected_frames: usize,
}

impl Stats {
    /// Whether the run saw no adversarial wire activity at all — no
    /// injected corruption/forgery/replay/reordering and no rejected
    /// frames.
    pub fn adversarial_quiet(&self) -> bool {
        self.corrupted_frames == 0
            && self.forged_frames == 0
            && self.replayed_frames == 0
            && self.reordered_frames == 0
            && self.rejected_frames == 0
    }

    /// Control messages per user message (the paper's headline cost of
    /// logically synchronous ordering).
    pub fn control_per_user(&self) -> f64 {
        if self.user_messages == 0 {
            0.0
        } else {
            self.control_messages as f64 / self.user_messages as f64
        }
    }

    /// Mean tag bytes per user message.
    pub fn tag_bytes_per_user(&self) -> f64 {
        if self.user_messages == 0 {
            0.0
        } else {
            self.tag_bytes as f64 / self.user_messages as f64
        }
    }

    /// Mean delivery inhibition per delivered message.
    pub fn mean_inhibition(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_inhibition as f64 / self.delivered as f64
        }
    }

    /// Mean end-to-end latency per delivered message.
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.delivered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_guard_division_by_zero() {
        let s = Stats::default();
        assert_eq!(s.control_per_user(), 0.0);
        assert_eq!(s.tag_bytes_per_user(), 0.0);
        assert_eq!(s.mean_inhibition(), 0.0);
        assert_eq!(s.mean_latency(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let s = Stats {
            user_messages: 10,
            control_messages: 40,
            tag_bytes: 160,
            delivered: 10,
            total_inhibition: 50,
            total_latency: 500,
            ..Stats::default()
        };
        assert_eq!(s.control_per_user(), 4.0);
        assert_eq!(s.tag_bytes_per_user(), 16.0);
        assert_eq!(s.mean_inhibition(), 5.0);
        assert_eq!(s.mean_latency(), 50.0);
    }
}
