//! The link: the one owner of every control frame, and of
//! retransmission over lossy channels.
//!
//! `fifo`, `causal-rst` and `sync` each embed one [`Link`] and route
//! their user sends, their control payloads, every incoming control
//! frame and every timer through it; no protocol writes or reads
//! control bytes itself.
//!
//! Every control frame is one [`tagcodec`] tag — LEB128 counters, then
//! the check byte — whose first counter, its kind, fixes how many
//! counters follow:
//!
//! | kind | counters | frame |
//! |---|---|---|
//! | 0 | `[0, epoch, body]` | a payload, sent once |
//! | 1 | `[1, ctl_id, epoch, body]` | a payload, retransmitted until acked |
//! | 2 | `[2, msg]` | ack of user frame `msg` |
//! | 3 | `[3, ctl_id]` | ack of payload frame `ctl_id` |
//!
//! `body` is the owner's one counter (`sync`'s message). The check byte
//! catches every single-bit flip and decoding is strict, so a frame the
//! link cannot decode is refused as `Malformed` before anything reads it.
//!
//! **Epochs.** Every payload frame carries its sender's epoch (the
//! number of restarts it has completed, [`Ctx::epoch`]). The receiver
//! keeps the highest epoch seen per sender and refuses an older payload
//! as `StaleEpoch`: a frame minted before a crash — a `Grant` for a lock
//! window that closed — must not act after the restart. The check runs
//! after the link's dedup, so a retransmitted payload is acked even when
//! it turns out stale.
//!
//! **Retransmission** is on for the links built by [`Link::reliable`]:
//! every user frame and every payload frame is re-sent with
//! exponentially backed-off timeouts until acknowledged, and duplicate
//! payload frames are suppressed at the receiver. Duplicate *user*
//! frames need no receiver-side bookkeeping — the kernel absorbs re-sent
//! copies of an already-received message, so retransmission can never
//! trip the run's double-delivery check. Acks themselves are *not*
//! retransmitted: a lost ack merely provokes a redundant
//! retransmission, which the receiver re-acks (payload) or the kernel
//! suppresses (user), and the sender gives up after
//! [`RetryConfig::max_attempts`] so lost acks never livelock a run.

use crate::tagcodec;
use msgorder_runs::{MessageId, ProcessId};
use msgorder_simnet::{Ctx, RejectReason, SortedSlab};
use std::collections::{BTreeMap, BTreeSet};

/// Timer-id namespace bits: the link owns timer ids with bit 63 (user
/// retransmits) or bit 62 (payload retransmits) set, leaving the rest
/// of the id space to the protocol.
const RETX_USER_BIT: u64 = 1 << 63;
const RETX_CTL_BIT: u64 = 1 << 62;

/// Replay-suppression window: a payload frame whose id lags the highest
/// id seen from its sender by more than this is a stale replay —
/// refused without an ack (acking would legitimize the adversary's
/// copy). Sized far beyond any honest retransmission horizon: ids are
/// issued sequentially, so a benign duplicate can only lag by the number
/// of frames its sender kept in flight, which `max_attempts` bounds at a
/// handful.
const REPLAY_WINDOW: u64 = 1024;

/// One control frame, as the module docs' table lays it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Frame {
    Payload { epoch: u64, body: u64 },
    Reliable { id: u64, epoch: u64, body: u64 },
    AckUser { msg: u64 },
    AckCtl { id: u64 },
}

impl Frame {
    fn encode(self) -> Vec<u8> {
        match self {
            Frame::Payload { epoch, body } => tagcodec::encode(&[0, epoch, body]),
            Frame::Reliable { id, epoch, body } => tagcodec::encode(&[1, id, epoch, body]),
            Frame::AckUser { msg } => tagcodec::encode(&[2, msg]),
            Frame::AckCtl { id } => tagcodec::encode(&[3, id]),
        }
    }

    /// The frame `bytes` encode, if any. A kind is one byte (it is below
    /// 128), so the lead byte picks the counter count; the strict
    /// decoder then refuses anything else.
    fn decode(bytes: &[u8]) -> Option<Frame> {
        match bytes.first()? {
            0 => tagcodec::decode_array::<3>(bytes)
                .map(|[_, epoch, body]| Frame::Payload { epoch, body }),
            1 => tagcodec::decode_array::<4>(bytes).map(|[_, id, epoch, body]| Frame::Reliable {
                id,
                epoch,
                body,
            }),
            2 => tagcodec::decode_array::<2>(bytes).map(|[_, msg]| Frame::AckUser { msg }),
            3 => tagcodec::decode_array::<2>(bytes).map(|[_, id]| Frame::AckCtl { id }),
            _ => None,
        }
    }
}

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

/// The tuning every reliable link retransmits with.
const RETRY: RetryConfig = RetryConfig {
    base_timeout: 2_000,
    max_attempts: 10,
};

impl Default for RetryConfig {
    fn default() -> Self {
        RETRY
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

/// The highest payload id and the highest epoch seen from one sender.
#[derive(Debug, Clone, Copy, Default, Hash)]
struct Highest {
    /// Anchors the replay-suppression window and the `seen_ctl` pruning
    /// floor.
    ctl: u64,
    epoch: u64,
}

/// Per-process link state. Embed one in a protocol and route user
/// sends, control payloads, control frames and timers through it.
/// Empty, it clones without allocating.
#[derive(Debug, Clone, Default, Hash)]
pub struct Link {
    /// Whether frames are retransmitted (with [`RetryConfig::default`])
    /// until acked, or sent once.
    reliable: bool,
    /// Outstanding user frames: message id → (tag, attempts so far).
    user_out: SortedSlab<usize, (Vec<u8>, u32)>,
    /// Outstanding payload frames: ctl id → (to, wire frame, attempts
    /// so far).
    ctl_out: SortedSlab<u64, (usize, Vec<u8>, u32)>,
    next_ctl_id: u64,
    /// Payload frames already delivered, per sender (dedup).
    seen_ctl: BTreeSet<(usize, u64)>,
    highest: BTreeMap<usize, Highest>,
}

impl Link {
    /// A link that sends every frame once (a lossless network).
    pub fn new() -> Self {
        Link::default()
    }

    /// A link that retransmits every frame until acknowledged, with
    /// default retry tuning — survives `FaultModel` loss and
    /// duplication.
    pub fn reliable() -> Self {
        Link {
            reliable: true,
            ..Link::default()
        }
    }

    /// Sends user frame `msg` with `tag`; a reliable link tracks it for
    /// retransmission until the destination acknowledges.
    ///
    /// Timer ids pack the *global* message id under `RETX_USER_BIT`, so
    /// distinct in-flight messages — to any mix of destinations — can
    /// never collide: message ids are unique across the whole workload,
    /// not per channel. The guard below keeps that sound if message ids
    /// ever grew into the namespace bits.
    pub fn send_user(&mut self, ctx: &mut Ctx<'_>, msg: MessageId, tag: Vec<u8>) {
        if !self.reliable {
            ctx.send_user(msg, tag);
            return;
        }
        debug_assert_eq!(
            msg.0 as u64 & (RETX_USER_BIT | RETX_CTL_BIT),
            0,
            "message id intrudes into the link's timer-id namespace"
        );
        ctx.send_user(msg, tag.clone());
        self.user_out.insert(msg.0, (tag, 1));
        ctx.set_timer(RETRY.backoff(0), RETX_USER_BIT | msg.0 as u64);
    }

    /// Acknowledges user frame `msg` back to its sender, if this link
    /// retransmits. Call from `on_user_frame`. Acks are fire-and-forget
    /// (see module docs).
    pub fn ack_user(&self, ctx: &mut Ctx<'_>, from: ProcessId, msg: MessageId) {
        if self.reliable {
            ctx.send_control(from, Frame::AckUser { msg: msg.0 as u64 }.encode());
        }
    }

    /// Sends the payload `body` to `to`, stamped with this process's
    /// epoch; a reliable link tracks it for retransmission until
    /// acknowledged.
    pub fn send(&mut self, ctx: &mut Ctx<'_>, to: ProcessId, body: u64) {
        let epoch = ctx.epoch();
        if !self.reliable {
            ctx.send_control(to, Frame::Payload { epoch, body }.encode());
            return;
        }
        let id = self.next_ctl_id;
        debug_assert_eq!(
            id & (RETX_USER_BIT | RETX_CTL_BIT),
            0,
            "control id intrudes into the link's timer-id namespace"
        );
        self.next_ctl_id += 1;
        let frame = Frame::Reliable { id, epoch, body }.encode();
        ctx.send_control(to, frame.clone());
        self.ctl_out.insert(id, (to.0, frame, 1));
        ctx.set_timer(RETRY.backoff(0), RETX_CTL_BIT | id);
    }

    /// Reads one incoming control frame. Call from `on_control_frame`;
    /// `bodies` is how many payload values the owner takes (`body <
    /// bodies`), 0 for a kind that sends none.
    ///
    /// Returns the body of the first admitted copy of a payload, and
    /// `None` for link bookkeeping (an ack, a duplicate) or a refused
    /// frame. A refused frame is rejected here, exactly once:
    /// `Malformed` if it does not decode or its body is out of range,
    /// `Unexpected` for a payload to an owner that takes none,
    /// `Replayed` past the replay window, `StaleEpoch` for an epoch
    /// older than one already seen from the sender.
    pub fn on_control(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: ProcessId,
        bytes: &[u8],
        bodies: u64,
    ) -> Option<u64> {
        let refuse = |ctx: &mut Ctx<'_>, reason| {
            ctx.reject_frame(from, reason);
            None
        };
        let (epoch, body) = match Frame::decode(bytes) {
            None => return refuse(ctx, RejectReason::Malformed),
            Some(Frame::AckUser { msg }) => {
                self.user_out.remove(&(msg as usize));
                return None;
            }
            Some(Frame::AckCtl { id }) => {
                self.ctl_out.remove(&id);
                return None;
            }
            Some(Frame::Payload { body, .. } | Frame::Reliable { body, .. }) if body >= bodies => {
                let reason = if bodies == 0 {
                    RejectReason::Unexpected
                } else {
                    RejectReason::Malformed
                };
                return refuse(ctx, reason);
            }
            Some(Frame::Payload { epoch, body }) => (epoch, body),
            Some(Frame::Reliable { id, epoch, body }) => {
                let high = &mut self.highest.entry(from.0).or_default().ctl;
                if id.saturating_add(REPLAY_WINDOW) < *high {
                    // Far below the replay-suppression window: a stale
                    // copy the adversary held back. Refuse it without an
                    // ack — acking would tell the (honest) sender a frame
                    // it gave up on long ago finally landed.
                    return refuse(ctx, RejectReason::Replayed);
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
                ctx.send_control(from, Frame::AckCtl { id }.encode());
                if !self.seen_ctl.insert((from.0, id)) {
                    return None;
                }
                (epoch, body)
            }
        };
        let highest = &mut self.highest.entry(from.0).or_default().epoch;
        if epoch < *highest {
            return refuse(ctx, RejectReason::StaleEpoch);
        }
        *highest = epoch;
        Some(body)
    }

    /// Handles a timer tick: retransmits the frame it names, or gives up
    /// on it after [`RetryConfig::max_attempts`]. Every timer of the
    /// three kinds that embed a link is the link's.
    ///
    /// An ack that arrives *after* the final backoff attempt gave up
    /// cannot resurrect anything: give-up and ack both only remove the
    /// outstanding entry, and a timer whose entry is gone is a no-op
    /// (the `None` arms below) — it is consumed, never rescheduled.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let max = RETRY.max_attempts;
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
                    ctx.set_timer(RETRY.backoff(attempts - 1), id);
                }
                None => {}
            }
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
                    ctx.set_timer(RETRY.backoff(attempts - 1), id);
                }
                None => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyncProtocol;
    use msgorder_simnet::{
        FaultModel, HostAction, HostEnv, HostEvent, LatencyModel, Protocol, ProtocolHost, SendSpec,
        SimConfig, Simulation, Workload,
    };

    /// A protocol that is nothing but a link, taking payload bodies
    /// below 4.
    #[derive(Default)]
    struct Owner {
        link: Link,
        got: Vec<u64>,
    }

    impl Protocol for Owner {
        fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
            self.link.send_user(ctx, msg, Vec::new());
        }
        fn on_user_frame(
            &mut self,
            ctx: &mut Ctx<'_>,
            from: ProcessId,
            msg: MessageId,
            _: Vec<u8>,
        ) {
            self.link.ack_user(ctx, from, msg);
            ctx.deliver(msg);
        }
        fn on_control_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, bytes: Vec<u8>) {
            self.got.extend(self.link.on_control(ctx, from, &bytes, 4));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: u64) {
            self.link.on_timer(ctx, id);
        }
    }

    const VALUES: [u64; 5] = [0, 1, 127, 128, u64::MAX];

    fn frames() -> Vec<Frame> {
        let mut out = Vec::new();
        for a in VALUES {
            for b in VALUES {
                out.push(Frame::Payload { epoch: a, body: b });
                out.push(Frame::Reliable {
                    id: a,
                    epoch: b,
                    body: a ^ b,
                });
            }
            out.push(Frame::AckUser { msg: a });
            out.push(Frame::AckCtl { id: a });
        }
        out
    }

    #[test]
    fn frames_round_trip() {
        for frame in frames() {
            let bytes = frame.encode();
            assert_eq!(Frame::decode(&bytes), Some(frame), "{bytes:?}");
        }
        assert_eq!(Frame::Payload { epoch: 0, body: 2 }.encode(), [0, 0, 2, 2]);
        assert_eq!(Frame::AckUser { msg: 300 }.encode(), [2, 0xac, 2, 0xb0]);
    }

    #[test]
    fn a_truncated_or_extended_frame_is_malformed() {
        for frame in frames() {
            let bytes = frame.encode();
            for cut in 0..bytes.len() {
                assert_eq!(Frame::decode(&bytes[..cut]), None, "{frame:?} cut at {cut}");
            }
            // One more counter, with the check byte repaired: the kind
            // fixes the count, so it is refused.
            let mut longer = bytes[..bytes.len() - 1].to_vec();
            longer.push(0);
            longer.push(longer.iter().fold(0u8, |s, &b| s.wrapping_add(b)));
            assert_eq!(Frame::decode(&longer), None, "{frame:?} extended");
        }
        assert_eq!(Frame::decode(&tagcodec::encode(&[4, 0])), None, "no kind 4");
    }

    #[test]
    fn a_payload_carries_its_epoch_at_every_epoch() {
        // P1's request for the lock, minted at each epoch, plain and
        // reliable.
        let w = Workload::relay_chain(2, 1);
        for reliable in [false, true] {
            for epoch in [0, 1, 300] {
                let mut env = HostEnv::new(0, 2, &w);
                env.set_epoch(epoch);
                let mut sync = SyncProtocol::new();
                if reliable {
                    sync = sync.with_retransmission();
                }
                sync.process_event(&mut env, HostEvent::Request { msg: MessageId(0) });
                let sent: Vec<_> = env
                    .take_actions()
                    .into_iter()
                    .filter_map(|a| match a {
                        HostAction::SendControl { bytes, .. } => Frame::decode(&bytes),
                        _ => None,
                    })
                    .collect();
                let want = if reliable {
                    Frame::Reliable {
                        id: 0,
                        epoch,
                        body: 0,
                    }
                } else {
                    Frame::Payload { epoch, body: 0 }
                };
                assert_eq!(sent, [want]);
            }
        }
    }

    #[test]
    fn guard_refuses_stale_epochs_per_sender() {
        let w = Workload::relay_chain(3, 1);
        let mut env = HostEnv::new(0, 3, &w);
        let mut owner = Owner::default();
        let mut feed = |owner: &mut Owner, from: usize, epoch: u64, body: u64| {
            let bytes = Frame::Payload { epoch, body }.encode();
            owner.process_event(
                &mut env,
                HostEvent::ControlFrame {
                    from: ProcessId(from),
                    bytes,
                },
            );
            env.take_actions()
        };
        // Epoch 0 frames flow until a later epoch is seen...
        assert_eq!(feed(&mut owner, 1, 0, 0), []);
        assert_eq!(feed(&mut owner, 1, 2, 1), []);
        // ...then an epoch-0 straggler from the same sender is stale...
        assert_eq!(
            feed(&mut owner, 1, 0, 2),
            [HostAction::RejectFrame {
                from: ProcessId(1),
                reason: RejectReason::StaleEpoch
            }]
        );
        // ...but other senders are tracked independently, and equal and
        // newer epochs pass.
        assert_eq!(feed(&mut owner, 2, 0, 3), []);
        assert_eq!(feed(&mut owner, 1, 2, 3), []);
        assert_eq!(feed(&mut owner, 1, 5, 0), []);
        assert_eq!(owner.got, [0, 1, 3, 3, 0]);
        // A body the owner does not take is malformed.
        assert_eq!(
            feed(&mut owner, 1, 5, 4),
            [HostAction::RejectFrame {
                from: ProcessId(1),
                reason: RejectReason::Malformed
            }]
        );
    }

    #[test]
    fn timer_namespace_bits_are_disjoint() {
        assert_eq!(RETX_USER_BIT & RETX_CTL_BIT, 0);
        assert_ne!(RETX_USER_BIT | RETX_CTL_BIT, 0);
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let retry = RetryConfig::default();
        assert_eq!(retry.backoff(0), 2_000);
        assert_eq!(retry.backoff(1), 4_000);
        assert_eq!(retry.backoff(3), 16_000);
        // far past the cap: still finite
        assert!(retry.backoff(60) > retry.backoff(3));
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
        let r = Simulation::new(cfg, w, |_| Owner {
            link: Link::reliable(),
            got: Vec::new(),
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
        let retry = RetryConfig {
            base_timeout: u64::MAX / 4,
            max_attempts: 10,
        };
        assert_eq!(retry.backoff(0), u64::MAX / 4);
        assert_eq!(retry.backoff(1), u64::MAX / 4 * 2);
        assert_eq!(retry.backoff(16), u64::MAX, "saturates, never wraps");
        assert!(
            retry.backoff(5) >= retry.backoff(4),
            "backoff stays monotone under saturation"
        );
    }
}
