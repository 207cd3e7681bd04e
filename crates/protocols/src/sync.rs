//! Logically synchronous ordering via a lock-server rendezvous.
//!
//! Theorem 1.1 cites control-message protocols ([3, 18]) for `X_sync`;
//! this module implements the simplest correct member of that family: a
//! coordinator (process 0) serializes message transmissions with a
//! global lock. To send, a process requests the lock (control message),
//! transmits on grant, the receiver delivers immediately and
//! acknowledges, and the lock is released. Transmission windows are
//! therefore disjoint in simulated time, so numbering messages by window
//! (and position within it) witnesses the SYNC condition.
//!
//! Two granting policies (the EXP-P3 ablation):
//!
//! - **per-message** ([`SyncProtocol::new`]): one lock window per
//!   message; the receiver releases straight to the coordinator.
//!   Cost: 3 control messages per user message.
//! - **batched** ([`SyncProtocol::new_batched`]): one window covers
//!   every message the grantee has queued, transmitted one at a time
//!   (each waits for the previous acknowledgement), and the sender
//!   releases once at the end. Cost: `k + 3` control messages per
//!   `k`-message burst — amortizing lock traffic under contention.
//!
//! Batched windows stay logically synchronous because transmissions
//! remain strictly sequential: message `i + 1` leaves only after message
//! `i` is delivered and acknowledged, so the `[x.s, x.r]` blocks are
//! disjoint in time exactly as in per-message mode. (Blasting the whole
//! batch concurrently would *not* be sound: two batch messages to the
//! same destination could reorder in transit and be delivered inverted,
//! closing a crown.)

use crate::link::Link;
use msgorder_runs::{MessageId, ProcessId};
use msgorder_simnet::{Ctx, Protocol};
use std::collections::VecDeque;

/// A control message; its discriminant is the link frame's `body`.
#[derive(Debug, Clone, Copy)]
enum Msg {
    /// sender → coordinator: let me transmit.
    Request = 0,
    /// coordinator → sender: go ahead.
    Grant = 1,
    /// receiver → coordinator (per-message mode): delivered, lock free.
    Release = 2,
    /// receiver → sender (batched mode): delivered.
    Ack = 3,
}

/// Every [`Msg`], indexed by its body.
const MSGS: [Msg; 4] = [Msg::Request, Msg::Grant, Msg::Release, Msg::Ack];

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SenderState {
    Idle,
    Waiting,
    /// Holding the lock, mid-window (batched mode only).
    Holding,
}

/// The lock-server logically-synchronous protocol (one instance per
/// process; the instance at process 0 also plays coordinator).
#[derive(Debug, Clone, Hash)]
pub struct SyncProtocol {
    batched: bool,
    // --- coordinator state (only used at process 0) ---
    queue: VecDeque<usize>,
    busy: bool,
    // --- per-sender state ---
    state: SenderState,
    waiting: VecDeque<MessageId>,
    /// Sends and reads every frame. The lock-server handshake is
    /// stateful, so a single lost Grant or Release deadlocks the system:
    /// the [`with_retransmission`](SyncProtocol::with_retransmission)
    /// link retransmits them. Every link refuses control frames minted
    /// before a peer's crash (a replayed pre-crash `Grant` would open a
    /// lock window the coordinator no longer remembers).
    link: Link,
}

impl Default for SyncProtocol {
    fn default() -> Self {
        SyncProtocol::new()
    }
}

impl SyncProtocol {
    /// Per-message granting (3 control messages per user message).
    pub fn new() -> Self {
        SyncProtocol {
            batched: false,
            queue: VecDeque::new(),
            busy: false,
            state: SenderState::Idle,
            waiting: VecDeque::new(),
            link: Link::new(),
        }
    }

    /// Batched granting (`k + 3` control messages per `k`-burst).
    pub fn new_batched() -> Self {
        SyncProtocol {
            batched: true,
            ..SyncProtocol::new()
        }
    }

    /// Adds an ack/retransmission layer so the handshake survives
    /// `FaultModel` loss and duplication.
    pub fn with_retransmission(mut self) -> Self {
        self.link = Link::reliable();
        self
    }

    const COORD: usize = 0;

    fn send_ctl(&mut self, ctx: &mut Ctx<'_>, to: usize, m: Msg) {
        self.link.send(ctx, ProcessId(to), m as u64);
    }

    fn send_user_frame(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
        self.link.send_user(ctx, msg, Vec::new());
    }

    fn coord_pump(&mut self, ctx: &mut Ctx<'_>) {
        debug_assert_eq!(ctx.node().0, Self::COORD);
        if self.busy {
            return;
        }
        if let Some(requester) = self.queue.pop_front() {
            self.busy = true;
            self.send_ctl(ctx, requester, Msg::Grant);
        }
    }

    fn request_if_needed(&mut self, ctx: &mut Ctx<'_>) {
        if self.state == SenderState::Idle && !self.waiting.is_empty() {
            self.state = SenderState::Waiting;
            self.send_ctl(ctx, Self::COORD, Msg::Request);
        }
    }

    fn on_grant(&mut self, ctx: &mut Ctx<'_>) {
        if self.state != SenderState::Waiting {
            // A duplicated (or stale, post-crash) grant: the window it
            // opened is already over. Acting on it would transmit
            // outside a lock window and break logical synchrony.
            return;
        }
        let Some(msg) = self.waiting.pop_front() else {
            // Granted with nothing left to send (queue state lost to a
            // crash): hand the lock straight back so the coordinator
            // isn't wedged on a window that will never release.
            self.state = SenderState::Idle;
            self.send_ctl(ctx, Self::COORD, Msg::Release);
            return;
        };
        if self.batched {
            // Transmit the window's first message; the rest follow
            // ack-by-ack (sequential blocks keep logical synchrony).
            self.state = SenderState::Holding;
            self.send_user_frame(ctx, msg);
        } else {
            self.state = SenderState::Idle;
            self.send_user_frame(ctx, msg);
            // The receiver will release to the coordinator; if more
            // messages queued up meanwhile, request again right away.
            self.request_if_needed(ctx);
        }
    }

    fn on_ack(&mut self, ctx: &mut Ctx<'_>) {
        if self.state != SenderState::Holding {
            return; // duplicated ack for a window already closed
        }
        if let Some(next) = self.waiting.pop_front() {
            // Continue the window with the next queued message.
            self.send_user_frame(ctx, next);
        } else {
            self.state = SenderState::Idle;
            self.send_ctl(ctx, Self::COORD, Msg::Release);
        }
    }
}

impl Protocol for SyncProtocol {
    fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
        self.waiting.push_back(msg);
        self.request_if_needed(ctx);
    }

    fn on_user_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: MessageId, _tag: Vec<u8>) {
        self.link.ack_user(ctx, from, msg);
        ctx.deliver(msg);
        if self.batched {
            self.send_ctl(ctx, from.0, Msg::Ack);
        } else {
            self.send_ctl(ctx, Self::COORD, Msg::Release);
        }
    }

    fn on_control_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, bytes: Vec<u8>) {
        // The link refuses stale-epoch stragglers and undecodable
        // (corrupted/forged) frames, and hands over only a body below
        // `MSGS.len()`.
        let Some(body) = self.link.on_control(ctx, from, &bytes, MSGS.len() as u64) else {
            return;
        };
        match MSGS[body as usize] {
            Msg::Request => {
                // A sender has at most one request in flight (it stays
                // Waiting until granted), so a repeat here is a network
                // duplicate — queuing it twice would produce a second
                // grant nobody answers and wedge the lock.
                if !self.queue.contains(&from.0) {
                    self.queue.push_back(from.0);
                }
                self.coord_pump(ctx);
            }
            Msg::Grant => self.on_grant(ctx),
            Msg::Release => {
                self.busy = false;
                self.coord_pump(ctx);
            }
            Msg::Ack => self.on_ack(ctx),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        self.link.on_timer(ctx, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgorder_runs::limit_sets;
    use msgorder_simnet::{LatencyModel, SimConfig, Simulation, StreamResult, Workload};

    fn sim_with(
        processes: usize,
        seed: u64,
        w: Workload,
        factory: impl Fn(usize) -> SyncProtocol,
    ) -> StreamResult {
        Simulation::run_uniform(
            SimConfig::new(processes, LatencyModel::Uniform { lo: 1, hi: 600 }, seed),
            w,
            factory,
        )
        .expect("no protocol bug")
    }

    fn sim(processes: usize, seed: u64, w: Workload) -> StreamResult {
        sim_with(processes, seed, w, |_| SyncProtocol::new())
    }

    #[test]
    fn runs_are_logically_synchronous() {
        for seed in 0..25 {
            let w = Workload::uniform_random(4, 15, seed);
            let r = sim(4, seed, w);
            assert!(r.completed && r.run.is_quiescent(), "liveness, seed {seed}");
            let user = r.run.users_view();
            assert!(
                limit_sets::in_x_sync(&user),
                "X_sync violated at seed {seed}"
            );
            assert!(limit_sets::in_x_co(&user), "containment sanity");
        }
    }

    #[test]
    fn batched_runs_are_logically_synchronous() {
        for seed in 0..25 {
            let w = Workload::client_server(4, 3, 5, seed);
            let r = sim_with(4, seed, w, |_| SyncProtocol::new_batched());
            assert!(r.completed && r.run.is_quiescent(), "liveness, seed {seed}");
            assert!(
                limit_sets::in_x_sync(&r.run.users_view()),
                "X_sync violated at seed {seed}"
            );
        }
    }

    #[test]
    fn uses_control_messages() {
        let w = Workload::uniform_random(3, 10, 3);
        let r = sim(3, 3, w);
        assert_eq!(
            r.stats.control_messages, 30,
            "3 control messages per user message"
        );
        assert_eq!(r.stats.control_per_user(), 3.0);
    }

    #[test]
    fn batching_reduces_control_messages_under_bursts() {
        // one process firing a burst of k messages: batched needs
        // k + 3 control messages vs 3k for per-message granting.
        let burst = Workload {
            sends: (0..8)
                .map(|i| msgorder_simnet::SendSpec {
                    at: i, // all queued before the first grant returns
                    src: 1,
                    dst: 2,
                    color: None,
                })
                .collect(),
        };
        let singles = sim(3, 5, burst.clone());
        let batched = sim_with(3, 5, burst, |_| SyncProtocol::new_batched());
        assert!(
            batched.stats.control_messages < singles.stats.control_messages,
            "batched {} !< singles {}",
            batched.stats.control_messages,
            singles.stats.control_messages
        );
        assert!(limit_sets::in_x_sync(&batched.run.users_view()));
    }

    #[test]
    fn numbering_exists() {
        let w = Workload::uniform_random(3, 12, 9);
        let r = sim(3, 9, w);
        let user = r.run.users_view();
        let t = limit_sets::sync_numbering(&user).expect("sync runs have a numbering");
        assert_eq!(t.len(), user.len());
    }

    #[test]
    fn coordinator_can_also_send() {
        let w = Workload {
            sends: (0..6)
                .map(|i| msgorder_simnet::SendSpec {
                    at: i * 10,
                    src: 0,
                    dst: 1 + (i as usize % 2),
                    color: None,
                })
                .collect(),
        };
        let r = sim(3, 4, w);
        assert!(r.run.is_quiescent());
        assert!(limit_sets::in_x_sync(&r.run.users_view()));
    }

    #[test]
    fn bursty_contention_serializes_without_deadlock() {
        for seed in 0..10 {
            let w = Workload::client_server(4, 3, 5, seed);
            let r = sim(4, seed, w);
            assert!(r.completed && r.run.is_quiescent(), "seed {seed}");
            assert!(limit_sets::in_x_sync(&r.run.users_view()));
        }
    }
}
