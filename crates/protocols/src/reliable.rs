//! Ack/retransmission over lossy channels: timeout + exponential
//! backoff on [`Ctx::set_timer`].
//!
//! The paper's protocols assume the channel eventually delivers every
//! frame; a [`FaultModel`](msgorder_simnet::FaultModel) with loss breaks
//! that assumption. [`ReliableLink`] restores it end-to-end: every user
//! frame and every (wrapped) control frame is retransmitted until
//! acknowledged, with exponentially backed-off timeouts, and duplicate
//! reliable control frames are suppressed at the receiver. Duplicate
//! *user* frames need no receiver-side bookkeeping — the kernel absorbs
//! re-sent copies of an already-received message, so retransmission can
//! never trip the run's double-delivery check.
//!
//! Wire format: reliable-link control frames start with the magic byte
//! `0xAB` (no serde_json payload can start with it), followed by a
//! one-byte opcode and a little-endian 8-byte id:
//!
//! - `[0xAB, 0x01, msg_id]` — ack of user frame `msg_id`;
//! - `[0xAB, 0x02, ctl_id]` — ack of reliable control frame `ctl_id`;
//! - `[0xAB, 0x03, ctl_id, payload…]` — a reliable control frame.
//!
//! Acks themselves are *not* retransmitted: a lost ack merely provokes a
//! redundant retransmission, which the receiver re-acks (control) or the
//! kernel suppresses (user), and the sender gives up after
//! [`RetryConfig::max_attempts`] so lost acks never livelock a run.

use msgorder_runs::{MessageId, ProcessId};
use msgorder_simnet::{Ctx, RejectReason, SortedSlab};
use std::collections::{BTreeMap, BTreeSet};

const MAGIC: u8 = 0xAB;
const OP_ACK_USER: u8 = 0x01;
const OP_ACK_CTL: u8 = 0x02;
const OP_DATA: u8 = 0x03;

/// Timer-id namespace bits: the link owns timer ids with bit 63 (user
/// retransmits) or bit 62 (control retransmits) set, leaving the rest of
/// the id space to the protocol.
const RETX_USER_BIT: u64 = 1 << 63;
const RETX_CTL_BIT: u64 = 1 << 62;

/// Replay-suppression window: a reliable control frame whose id lags the
/// highest id seen from its sender by more than this is a stale replay —
/// refused without an ack (acking would legitimize the adversary's
/// copy). Sized far beyond any honest retransmission horizon: ids are
/// issued sequentially, so a benign duplicate can only lag by the number
/// of frames its sender kept in flight, which `max_attempts` bounds at a
/// handful.
const REPLAY_WINDOW: u64 = 1024;

/// Retransmission tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryConfig {
    /// First retransmission fires this many ticks after the send; each
    /// further attempt doubles the delay.
    pub base_timeout: u64,
    /// Total transmission attempts (first send included) before the
    /// link gives up on a frame.
    pub max_attempts: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            base_timeout: 2_000,
            max_attempts: 10,
        }
    }
}

impl RetryConfig {
    /// The timeout before attempt `attempts + 1`: `base_timeout · 2^attempts`,
    /// saturating. Public so hosts outside the simulator (the transport
    /// crate's reconnect supervisor) back off on the same schedule the
    /// link retransmits on.
    pub fn backoff(&self, attempts: u32) -> u64 {
        // Cap the shift *and* saturate the multiply: a large
        // `base_timeout` times 2^16 must not wrap around to a tiny
        // timeout (`<<` on an over-wide base is an overflow in debug and
        // silent wrap in release).
        self.base_timeout.saturating_mul(1u64 << attempts.min(16))
    }
}

/// What a control frame turned out to be, from the link's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlEvent {
    /// Link bookkeeping (an ack, or a duplicate reliable frame): nothing
    /// for the protocol to do.
    Consumed,
    /// The first copy of a reliable control payload: hand it to the
    /// protocol.
    Deliver(Vec<u8>),
    /// Not a reliable-link frame at all (raw control traffic).
    Passthrough(Vec<u8>),
}

/// Per-process ack/retransmission state. Embed one in a protocol and
/// route sends, control frames, and timers through it.
#[derive(Debug, Clone, Default, Hash)]
pub struct ReliableLink {
    config: RetryConfig,
    /// Outstanding user frames: message id → (tag, attempts so far).
    user_out: SortedSlab<usize, (Vec<u8>, u32)>,
    /// Outstanding reliable control frames: ctl id → (to, wire frame,
    /// attempts so far).
    ctl_out: SortedSlab<u64, (usize, Vec<u8>, u32)>,
    next_ctl_id: u64,
    /// Reliable control frames already delivered, per sender (dedup).
    seen_ctl: BTreeSet<(usize, u64)>,
    /// Highest reliable control id seen per sender (anchors the
    /// replay-suppression window and the `seen_ctl` pruning floor).
    ctl_high: BTreeMap<usize, u64>,
}

impl ReliableLink {
    /// A link with default retry tuning.
    pub fn new() -> Self {
        ReliableLink::default()
    }

    /// A link with explicit retry tuning.
    pub fn with_config(config: RetryConfig) -> Self {
        ReliableLink {
            config,
            ..ReliableLink::default()
        }
    }

    fn backoff(&self, attempts: u32) -> u64 {
        self.config.backoff(attempts)
    }

    /// Sends user frame `msg` with `tag`, tracking it for
    /// retransmission until the destination acknowledges.
    ///
    /// Timer ids pack the *global* message id under `RETX_USER_BIT`, so
    /// distinct in-flight messages — to any mix of destinations — can
    /// never collide: message ids are unique across the whole workload,
    /// not per channel. The guard below keeps that sound if message ids
    /// ever grew into the namespace bits.
    pub fn send_user(&mut self, ctx: &mut Ctx<'_>, msg: MessageId, tag: Vec<u8>) {
        debug_assert_eq!(
            msg.0 as u64 & (RETX_USER_BIT | RETX_CTL_BIT),
            0,
            "message id intrudes into the link's timer-id namespace"
        );
        ctx.send_user(msg, tag.clone());
        self.user_out.insert(msg.0, (tag, 1));
        ctx.set_timer(self.backoff(0), RETX_USER_BIT | msg.0 as u64);
    }

    /// Acknowledges user frame `msg` back to its sender. Call from
    /// `on_user_frame`. Acks are fire-and-forget (see module docs).
    pub fn ack_user(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: MessageId) {
        let mut frame = vec![MAGIC, OP_ACK_USER];
        frame.extend_from_slice(&(msg.0 as u64).to_le_bytes());
        ctx.send_control(from, frame);
    }

    /// Sends `payload` as a reliable control frame to `to`, tracking it
    /// for retransmission until acknowledged.
    pub fn send_control(&mut self, ctx: &mut Ctx<'_>, to: ProcessId, payload: Vec<u8>) {
        let id = self.next_ctl_id;
        debug_assert_eq!(
            id & (RETX_USER_BIT | RETX_CTL_BIT),
            0,
            "control id intrudes into the link's timer-id namespace"
        );
        self.next_ctl_id += 1;
        let mut frame = vec![MAGIC, OP_DATA];
        frame.extend_from_slice(&id.to_le_bytes());
        frame.extend_from_slice(&payload);
        ctx.send_control(to, frame.clone());
        self.ctl_out.insert(id, (to.0, frame, 1));
        ctx.set_timer(self.backoff(0), RETX_CTL_BIT | id);
    }

    /// Classifies an incoming control frame. Call first from
    /// `on_control_frame`; only act on [`ControlEvent::Deliver`] /
    /// [`ControlEvent::Passthrough`] payloads.
    pub fn on_control(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: ProcessId,
        bytes: Vec<u8>,
    ) -> ControlEvent {
        if bytes.len() < 10 || bytes[0] != MAGIC {
            return ControlEvent::Passthrough(bytes);
        }
        let id = u64::from_le_bytes(bytes[2..10].try_into().expect("8-byte id"));
        match bytes[1] {
            OP_ACK_USER => {
                self.user_out.remove(&(id as usize));
                ControlEvent::Consumed
            }
            OP_ACK_CTL => {
                self.ctl_out.remove(&id);
                ControlEvent::Consumed
            }
            OP_DATA => {
                let high = self.ctl_high.entry(from.0).or_insert(0);
                if id.saturating_add(REPLAY_WINDOW) < *high {
                    // Far below the replay-suppression window: a stale
                    // copy the adversary held back. Refuse it without an
                    // ack — acking would tell the (honest) sender a frame
                    // it gave up on long ago finally landed.
                    ctx.reject_frame(from, RejectReason::Replayed);
                    return ControlEvent::Consumed;
                }
                if id > *high {
                    *high = id;
                    // Entries that fell out of the window can never be
                    // consulted again (frames that stale are refused
                    // above), so the dedup set stays bounded on long
                    // runs.
                    self.seen_ctl
                        .retain(|(f, i)| *f != from.0 || i.saturating_add(REPLAY_WINDOW) >= id);
                }
                // Ack every admitted copy: the sender keeps
                // retransmitting until one ack survives the channel.
                let mut ack = vec![MAGIC, OP_ACK_CTL];
                ack.extend_from_slice(&id.to_le_bytes());
                ctx.send_control(from, ack);
                if self.seen_ctl.insert((from.0, id)) {
                    ControlEvent::Deliver(bytes[10..].to_vec())
                } else {
                    ControlEvent::Consumed
                }
            }
            _ => ControlEvent::Passthrough(bytes),
        }
    }

    /// Handles a timer tick. Returns `true` if the timer belonged to the
    /// link (the protocol should ignore it), `false` if it is the
    /// protocol's own.
    ///
    /// An ack that arrives *after* the final backoff attempt gave up
    /// cannot resurrect anything: give-up and ack both only remove the
    /// outstanding entry, and a timer whose entry is gone is a no-op
    /// (the `None` arms below) — it is consumed, never rescheduled.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: u64) -> bool {
        let max = self.config.max_attempts;
        if id & RETX_USER_BIT != 0 {
            let msg = (id & !RETX_USER_BIT) as usize;
            // None: not outstanding (acked or given up). Some(None):
            // attempts exhausted. Some(Some(..)): retransmit.
            let action = self.user_out.get_mut(&msg).map(|(tag, attempts)| {
                if *attempts >= max {
                    None
                } else {
                    *attempts += 1;
                    Some((tag.clone(), *attempts))
                }
            });
            match action {
                Some(None) => {
                    self.user_out.remove(&msg);
                }
                Some(Some((tag, attempts))) => {
                    ctx.resend_user(MessageId(msg), tag);
                    ctx.set_timer(self.backoff(attempts - 1), id);
                }
                None => {}
            }
            true
        } else if id & RETX_CTL_BIT != 0 {
            let ctl = id & !RETX_CTL_BIT;
            let action = self.ctl_out.get_mut(&ctl).map(|(to, frame, attempts)| {
                if *attempts >= max {
                    None
                } else {
                    *attempts += 1;
                    Some((*to, frame.clone(), *attempts))
                }
            });
            match action {
                Some(None) => {
                    self.ctl_out.remove(&ctl);
                }
                Some(Some((to, frame, attempts))) => {
                    ctx.resend_control(ProcessId(to), frame);
                    ctx.set_timer(self.backoff(attempts - 1), id);
                }
                None => {}
            }
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcodes_do_not_collide_with_json() {
        // serde_json output starts with one of these bytes; MAGIC must
        // not be among them so Passthrough discrimination is sound.
        for lead in [b'{', b'[', b'"', b'-', b't', b'f', b'n'] {
            assert_ne!(lead, MAGIC);
        }
        for d in b'0'..=b'9' {
            assert_ne!(d, MAGIC);
        }
    }

    #[test]
    fn timer_namespace_bits_are_disjoint() {
        assert_eq!(RETX_USER_BIT & RETX_CTL_BIT, 0);
        assert_ne!(RETX_USER_BIT | RETX_CTL_BIT, 0);
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let link = ReliableLink::new();
        assert_eq!(link.backoff(0), 2_000);
        assert_eq!(link.backoff(1), 4_000);
        assert_eq!(link.backoff(3), 16_000);
        // far past the cap: still finite
        assert!(link.backoff(60) > link.backoff(3));
    }

    #[test]
    fn retransmission_at_the_virtual_time_horizon_saturates() {
        // Regression at the overflow boundary: a send near u64::MAX with
        // total loss drives the link's retransmission timers past the end
        // of virtual time. `set_timer` must saturate to u64::MAX — a
        // wrapping add would schedule the timer in the *past* and trip
        // the kernel's time-monotonicity invariant (debug) or corrupt
        // dispatch order (release). The run must end structurally: queue
        // drained, message blamed as undelivered, no panic.
        use msgorder_simnet::{
            FaultModel, LatencyModel, Protocol, SendSpec, SimConfig, Simulation, Workload,
        };
        struct Rel {
            link: ReliableLink,
        }
        impl Protocol for Rel {
            fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
                self.link.send_user(ctx, msg, Vec::new());
            }
            fn on_user_frame(
                &mut self,
                ctx: &mut Ctx<'_>,
                from: ProcessId,
                msg: MessageId,
                _tag: Vec<u8>,
            ) {
                self.link.ack_user(ctx, from, msg);
                ctx.deliver(msg);
            }
            fn on_control_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, bytes: Vec<u8>) {
                let _ = self.link.on_control(ctx, from, bytes);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: u64) {
                let _ = self.link.on_timer(ctx, id);
            }
        }
        let w = Workload {
            sends: vec![SendSpec {
                at: u64::MAX - 1_000,
                src: 0,
                dst: 1,
                color: None,
            }],
        };
        let cfg = SimConfig::new(2, LatencyModel::Fixed(1), 3).with_faults(
            FaultModel::none()
                .with_drop(1.0)
                .expect("probability in range"),
        );
        let r = Simulation::new(cfg, w, |_| Rel {
            link: ReliableLink::new(),
        })
        .run()
        .expect("saturated timers end the run structurally");
        assert!(r.completed, "queue drained after the link gave up");
        assert_eq!(r.stats.end_time, u64::MAX, "timers pinned at the horizon");
        assert!(r.stats.retransmitted_frames > 0, "the link did retry");
        assert!(!r.run.is_quiescent(), "the message never got through");
        assert!(r.liveness.is_some(), "undelivered message is blamed");
    }

    #[test]
    fn backoff_with_huge_base_timeout_saturates_instead_of_wrapping() {
        // Regression: `base_timeout << 16` wrapped for bases past
        // u64::MAX >> 16, turning the *longest* backoff into a tiny one
        // (or a debug-mode overflow panic).
        let link = ReliableLink::with_config(RetryConfig {
            base_timeout: u64::MAX / 4,
            max_attempts: 10,
        });
        assert_eq!(link.backoff(0), u64::MAX / 4);
        assert_eq!(link.backoff(1), u64::MAX / 4 * 2);
        assert_eq!(link.backoff(16), u64::MAX, "saturates, never wraps");
        assert!(
            link.backoff(5) >= link.backoff(4),
            "backoff stays monotone under saturation"
        );
    }
}
