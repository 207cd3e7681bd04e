//! The simulation kernel: event queue, dispatch, and run capture.

use crate::error::{SimError, SimErrorKind, SimOutcome};
use crate::faults::FaultModel;
use crate::host::{HostAction, HostEvent};
use crate::latency::LatencyModel;
use crate::liveness::{self, FrameFate, LivenessVerdict};
use crate::stats::Stats;
use crate::workload::Workload;
use msgorder_runs::{
    EventKind as RunEventKind, MessageId, ProcessId, RunError, StreamingRun, SystemEvent,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Salt applied to the simulation seed for the fault-decision RNG, so
/// fault sampling never perturbs the latency stream: a run with a quiet
/// [`FaultModel`] is bit-identical to the pre-fault kernel, and cranking
/// a fault probability does not reshuffle every latency.
const FAULT_RNG_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of processes.
    pub processes: usize,
    /// Channel latency model (drives reordering).
    pub latency: LatencyModel,
    /// RNG seed; every random choice in the simulation derives from it.
    pub seed: u64,
    /// Network fault model (loss, duplication, partitions, crashes).
    pub faults: FaultModel,
}

impl SimConfig {
    /// A fault-free configuration (the perfect wire of the original
    /// kernel).
    pub fn new(processes: usize, latency: LatencyModel, seed: u64) -> Self {
        SimConfig {
            processes,
            latency,
            seed,
            faults: FaultModel::none(),
        }
    }

    /// Replaces the fault model.
    pub fn with_faults(mut self, faults: FaultModel) -> Self {
        self.faults = faults;
        self
    }
}

/// What a protocol instance can do when a host dispatches to it: read
/// the dispatch's facts and emit [`HostAction`]s.
///
/// The host applies the emitted batch, in emission order, at the
/// dispatch's logical time, and records run events in the same order,
/// so the captured [`SystemRun`](msgorder_runs::SystemRun) is exactly
/// what happened.
///
/// Invalid actions (sending a message one does not own, delivering
/// twice, …) do not panic: applying them *poisons* the run with a
/// [`SimError`] — the first error wins, subsequent actions become
/// no-ops, and [`Simulation::run`] returns the counterexample.
///
/// Every host — the simulator, the explorer, the realtime kernel, a
/// socket client — hands the protocol the same context and applies the
/// same actions (DESIGN.md §13).
pub struct Ctx<'a> {
    pub(crate) node: usize,
    pub(crate) now: u64,
    pub(crate) processes: usize,
    pub(crate) epoch: u64,
    pub(crate) metas: &'a [msgorder_runs::MessageMeta],
    pub(crate) actions: &'a mut Vec<HostAction>,
}

impl Ctx<'_> {
    /// Hands `ev` to the matching [`Protocol`] callback.
    pub(crate) fn feed<P: Protocol + ?Sized>(&mut self, protocol: &mut P, ev: HostEvent) {
        match ev {
            HostEvent::Init => protocol.on_init(self),
            HostEvent::Request { msg } => protocol.on_send_request(self, msg),
            HostEvent::UserFrame { from, msg, tag } => protocol.on_user_frame(self, from, msg, tag),
            HostEvent::ControlFrame { from, bytes } => protocol.on_control_frame(self, from, bytes),
            HostEvent::Timer { id } => protocol.on_timer(self, id),
        }
    }

    /// This protocol instance's process id.
    pub fn node(&self) -> ProcessId {
        ProcessId(self.node)
    }

    /// Current simulated time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of processes in the system.
    pub fn process_count(&self) -> usize {
        self.processes
    }

    /// Metadata (endpoints, color) of a workload message.
    ///
    /// # Panics
    /// Panics if `msg` is not a workload message.
    pub fn meta(&self, msg: MessageId) -> &msgorder_runs::MessageMeta {
        &self.metas[msg.0]
    }

    /// Executes the send `x.s` of a previously requested message,
    /// piggybacking `tag`, and puts it in transit to its destination.
    ///
    /// Sending from a non-owner process, before the request, or twice is
    /// a protocol implementation bug: it poisons the simulation with a
    /// [`SimError`] counterexample instead of executing.
    pub fn send_user(&mut self, msg: MessageId, tag: Vec<u8>) {
        self.actions.push(HostAction::SendUser { msg, tag });
    }

    /// Retransmits a previously sent user frame (same message id, fresh
    /// tag bytes). The logical run still contains a single send `x.s`;
    /// only the wire sees another frame, and the kernel suppresses the
    /// extra copy at the destination if the original already arrived.
    ///
    /// Resending a message that was never sent (or from a non-owner) is
    /// a protocol bug and poisons the simulation.
    pub fn resend_user(&mut self, msg: MessageId, tag: Vec<u8>) {
        self.actions.push(HostAction::ResendUser { msg, tag });
    }

    /// Executes the delivery `x.r` of a previously received message.
    ///
    /// Delivering at a non-destination process, before the frame
    /// arrived, or twice is a protocol implementation bug: it poisons
    /// the simulation with a [`SimError`] counterexample instead of
    /// executing.
    pub fn deliver(&mut self, msg: MessageId) {
        self.actions.push(HostAction::Deliver { msg });
    }

    /// Sends a control message to another process.
    pub fn send_control(&mut self, to: ProcessId, bytes: Vec<u8>) {
        self.actions.push(HostAction::SendControl { to, bytes });
    }

    /// Retransmits a control frame. Counted as a retransmission (and its
    /// wire bytes), not as a fresh control message.
    pub fn resend_control(&mut self, to: ProcessId, bytes: Vec<u8>) {
        self.actions.push(HostAction::ResendControl { to, bytes });
    }

    /// Schedules `on_timer(id)` for this process after `delay` ticks.
    pub fn set_timer(&mut self, delay: u64, id: u64) {
        self.actions.push(HostAction::SetTimer { delay, id });
    }

    /// Records that this process refused an incoming frame claimed to be
    /// from `from` — the structured alternative to panicking on (or
    /// silently swallowing) corrupted, forged, stale, or replayed input.
    /// Feeds the rejection counters, the trace journal, and the liveness
    /// blame analysis.
    pub fn reject_frame(&mut self, from: ProcessId, reason: RejectReason) {
        self.actions.push(HostAction::RejectFrame { from, reason });
    }

    /// This process's crash/restart epoch: the number of restarts it has
    /// completed so far (0 until the first restart). Control frames
    /// tagged with an older epoch are pre-restart stragglers a hardened
    /// protocol should refuse.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl World {
    /// Applies [`HostAction::SendUser`].
    fn do_send_user(&mut self, node: usize, msg: MessageId, tag: Vec<u8>) {
        if self.error.is_some() {
            return;
        }
        let owner = self.builder.src(msg);
        if owner.0 != node {
            self.fail(node, Some(msg), SimErrorKind::SendFromNonOwner { owner });
            return;
        }
        if let Err(e) = self.builder.send(msg) {
            self.fail(node, Some(msg), SimErrorKind::InvalidSend(e));
            return;
        }
        self.journal(msg, RunEventKind::Send);
        self.stats.user_messages += 1;
        self.stats.tag_bytes += tag.len();
        self.messages[msg.0].sent = true;
        let dst = self.builder.dst(msg).0;
        self.transmit(
            node,
            dst,
            false,
            EventKind::UserArrival {
                from: node,
                msg,
                tag,
            },
        );
    }

    /// Applies [`HostAction::ResendUser`].
    fn do_resend_user(&mut self, node: usize, msg: MessageId, tag: Vec<u8>) {
        if self.error.is_some() {
            return;
        }
        if self.builder.src(msg).0 != node || !self.messages[msg.0].sent {
            self.fail(node, Some(msg), SimErrorKind::ResendBeforeSend);
            return;
        }
        self.stats.retransmitted_frames += 1;
        self.stats.tag_bytes += tag.len();
        let dst = self.builder.dst(msg).0;
        self.transmit(
            node,
            dst,
            true,
            EventKind::UserArrival {
                from: node,
                msg,
                tag,
            },
        );
    }

    /// Applies [`HostAction::Deliver`].
    fn do_deliver(&mut self, node: usize, msg: MessageId) {
        if self.error.is_some() {
            return;
        }
        let destination = self.builder.dst(msg);
        if destination.0 != node {
            self.fail(
                node,
                Some(msg),
                SimErrorKind::DeliverAtNonDestination { destination },
            );
            return;
        }
        if let Err(e) = self.builder.deliver(msg) {
            self.fail(node, Some(msg), SimErrorKind::InvalidDelivery(e));
            return;
        }
        self.journal(msg, RunEventKind::Deliver);
        let track = &self.messages[msg.0];
        let received = track.received_at.expect("received before delivery");
        let invoked = track.invoked_at.expect("invoked before delivery");
        self.stats.delivered += 1;
        self.stats.total_inhibition += self.now - received;
        self.stats.total_latency += self.now - invoked;
    }

    /// Applies [`HostAction::SendControl`].
    fn do_send_control(&mut self, node: usize, to: ProcessId, bytes: Vec<u8>) {
        if self.error.is_some() {
            return;
        }
        self.stats.control_messages += 1;
        self.stats.control_bytes += bytes.len();
        self.transmit(
            node,
            to.0,
            false,
            EventKind::ControlArrival { from: node, bytes },
        );
    }

    /// Applies [`HostAction::ResendControl`].
    fn do_resend_control(&mut self, node: usize, to: ProcessId, bytes: Vec<u8>) {
        if self.error.is_some() {
            return;
        }
        self.stats.retransmitted_frames += 1;
        self.stats.control_bytes += bytes.len();
        self.transmit(
            node,
            to.0,
            true,
            EventKind::ControlArrival { from: node, bytes },
        );
    }

    /// Applies [`HostAction::RejectFrame`].
    fn do_reject(&mut self, node: usize, from: ProcessId, reason: RejectReason) {
        if self.error.is_some() {
            return;
        }
        self.stats.rejected_frames += 1;
        self.nodes[node].rejected += 1;
        self.journal_fault(FaultRecord::Rejected {
            node,
            from: from.0,
            time: self.now,
            reason,
        });
    }

    /// Applies [`HostAction::SetTimer`].
    fn do_set_timer(&mut self, node: usize, delay: u64, id: u64) {
        let at = self.now.saturating_add(delay.max(1));
        self.schedule(at, node, EventKind::Timer { id });
    }

    /// Applies (and drains) the actions one protocol dispatch at `node`
    /// emitted, in emission order, at the current time. Invalid actions
    /// poison the world; the first error wins and later actions become
    /// no-ops.
    ///
    /// Actions can arrive off a socket, so one naming a message or
    /// process this world does not have is a [`SimErrorKind::HostFailure`],
    /// never an index.
    pub(crate) fn apply(&mut self, node: usize, actions: &mut Vec<HostAction>) {
        for action in actions.drain(..) {
            let in_range = match &action {
                HostAction::SendUser { msg, .. }
                | HostAction::ResendUser { msg, .. }
                | HostAction::Deliver { msg } => msg.0 < self.messages.len(),
                HostAction::SendControl { to: peer, .. }
                | HostAction::ResendControl { to: peer, .. }
                | HostAction::RejectFrame { from: peer, .. } => peer.0 < self.processes,
                HostAction::SetTimer { .. } => true,
            };
            if !in_range {
                let detail = format!("action names an unknown message or process: {action:?}");
                self.fail(node, None, SimErrorKind::HostFailure { detail });
                continue;
            }
            match action {
                HostAction::SendUser { msg, tag } => self.do_send_user(node, msg, tag),
                HostAction::ResendUser { msg, tag } => self.do_resend_user(node, msg, tag),
                HostAction::Deliver { msg } => self.do_deliver(node, msg),
                HostAction::SendControl { to, bytes } => self.do_send_control(node, to, bytes),
                HostAction::ResendControl { to, bytes } => self.do_resend_control(node, to, bytes),
                HostAction::SetTimer { delay, id } => self.do_set_timer(node, delay, id),
                HostAction::RejectFrame { from, reason } => self.do_reject(node, from, reason),
            }
        }
    }
}

/// A message-ordering protocol: one instance per process.
///
/// The kernel records `x.s*` before calling
/// [`on_send_request`](Protocol::on_send_request) and `x.r*` before
/// calling [`on_user_frame`](Protocol::on_user_frame); the protocol
/// decides when `x.s` and `x.r` execute via [`Ctx::send_user`] and
/// [`Ctx::deliver`] — exactly the inhibitory power the paper grants
/// protocols (§3.2: `I` and `R` cannot be disabled, `S` and `D` can be
/// delayed).
pub trait Protocol {
    /// Called once before any event, in process-id order.
    fn on_init(&mut self, _ctx: &mut Ctx<'_>) {}

    /// The user requested a send (`x.s*` just executed).
    fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId);

    /// A user frame arrived (`x.r*` just executed).
    fn on_user_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: MessageId, tag: Vec<u8>);

    /// A control frame arrived.
    fn on_control_frame(&mut self, _ctx: &mut Ctx<'_>, _from: ProcessId, _bytes: Vec<u8>) {}

    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _id: u64) {}
}

impl<T: Protocol + ?Sized> Protocol for Box<T> {
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        (**self).on_init(ctx);
    }
    fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
        (**self).on_send_request(ctx, msg);
    }
    fn on_user_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: MessageId, tag: Vec<u8>) {
        (**self).on_user_frame(ctx, from, msg, tag);
    }
    fn on_control_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, bytes: Vec<u8>) {
        (**self).on_control_frame(ctx, from, bytes);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        (**self).on_timer(ctx, id);
    }
}

/// Why the fault layer ate a frame at transmit time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// The link was cut by a timed [`Partition`](crate::Partition).
    Partition,
    /// Random loss (the fault model's `drop` probability fired).
    Loss,
}

/// What kind of frame a [`WireRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PayloadKind {
    /// A user frame carrying `msg` with `bytes` of piggybacked tag.
    User {
        /// The workload message on the frame.
        msg: MessageId,
        /// Piggybacked tag bytes.
        bytes: usize,
        /// `true` for a protocol-level retransmission of the frame.
        retransmit: bool,
    },
    /// A control frame of `bytes` payload bytes.
    Control {
        /// Control payload bytes.
        bytes: usize,
        /// `true` for a protocol-level retransmission of the frame.
        retransmit: bool,
    },
}

impl PayloadKind {
    fn of(kind: &EventKind, retransmit: bool) -> PayloadKind {
        match kind {
            EventKind::UserArrival { msg, tag, .. } => PayloadKind::User {
                msg: *msg,
                bytes: tag.len(),
                retransmit,
            },
            EventKind::ControlArrival { bytes, .. } => PayloadKind::Control {
                bytes: bytes.len(),
                retransmit,
            },
            EventKind::Request { .. } | EventKind::Timer { .. } => {
                unreachable!("only frames are transmitted")
            }
        }
    }
}

/// The adversary's forged copy of a control frame: a mutated clone
/// delivered alongside the original.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForgedFrame {
    /// Seed of the mutation (selects which bit of the payload flips).
    pub seed: u64,
    /// Independently sampled latency of the forged copy.
    pub delay: u64,
}

/// Why a protocol layer refused an incoming frame instead of acting on
/// it — the structured alternative to panicking on adversarial input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The payload failed to decode (corrupted or forged bytes).
    Malformed,
    /// The frame carried an epoch tag older than one already seen from
    /// its sender (a pre-restart frame replayed into a later epoch).
    StaleEpoch,
    /// The frame fell outside the replay-suppression window (an already
    /// processed frame re-delivered long after the fact).
    Replayed,
    /// The frame decoded but made no sense in the protocol's current
    /// state (e.g. a Grant nobody asked for).
    Unexpected,
}

impl RejectReason {
    /// Every reason, in declaration order.
    pub const ALL: [RejectReason; 4] = [
        RejectReason::Malformed,
        RejectReason::StaleEpoch,
        RejectReason::Replayed,
        RejectReason::Unexpected,
    ];

    /// Stable label used as the metrics `reason` tag.
    pub const fn label(&self) -> &'static str {
        match self {
            RejectReason::Malformed => "malformed",
            RejectReason::StaleEpoch => "stale-epoch",
            RejectReason::Replayed => "replayed",
            RejectReason::Unexpected => "unexpected",
        }
    }
}

/// One `transmit` call, with everything the kernel's RNGs decided about
/// it: the journal entry that makes the network layer replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireRecord {
    /// Sending process.
    pub from: usize,
    /// Destination process.
    pub to: usize,
    /// Simulated time the frame was put on the wire.
    pub time: u64,
    /// What was on the frame.
    pub payload: PayloadKind,
    /// The network's decision about the frame (the replayable part).
    pub decision: TransmitDecision,
}

/// A crash-schedule effect applied by the kernel event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultRecord {
    /// A frame arrived at a crashed process and was lost.
    ArrivalAtCrashed {
        /// The crashed process.
        node: usize,
        /// Arrival time.
        time: u64,
    },
    /// A request/timer came due while its process was down and was
    /// deferred to the restart tick.
    DeferredToRestart {
        /// The crashed process.
        node: usize,
        /// When the work was originally due.
        time: u64,
        /// The restart tick it was deferred to.
        until: u64,
    },
    /// A request/timer came due at a permanently crashed process and was
    /// lost with it.
    LostToCrash {
        /// The crashed process.
        node: usize,
        /// When the work was originally due.
        time: u64,
    },
    /// A protocol layer refused an incoming frame (corrupted, forged,
    /// stale, or out-of-window) instead of acting on it.
    Rejected {
        /// The rejecting process.
        node: usize,
        /// The claimed sender of the rejected frame.
        from: usize,
        /// Rejection time.
        time: u64,
        /// Why the frame was refused.
        reason: RejectReason,
    },
}

/// Everything the kernel journals for an observer: run events (`s*`,
/// `s`, `r*`, `r`) interleaved, in execution order, with the wire and
/// fault records between them. This is the trace-event schema serialized
/// by the `msgorder-trace` crate (DESIGN.md §10).
///
/// The wire record sits out of line: it is the one wide record, and
/// inline it would size every run event's slot by it. Boxed, an event
/// is 32 bytes; the box encodes exactly as the record, so the schema is
/// unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelEvent {
    /// A run event with its simulated time.
    Run {
        /// The run event.
        ev: SystemEvent,
        /// Simulated time it executed at.
        time: u64,
    },
    /// A frame put on (or eaten off) the wire.
    Wire(Box<WireRecord>),
    /// A crash-schedule effect.
    Fault(FaultRecord),
}

/// One entry of the kernel's own journal ([`World::fresh`]): what a
/// [`KernelEvent`] is, with the wire record held in the recycled side
/// buffer [`World::wires`] instead of a box, so journaling a frame never
/// allocates once both buffers are warm.
#[derive(Debug, Clone, Copy)]
pub(crate) enum JournalEntry {
    /// A run event with its simulated time.
    Run { ev: SystemEvent, time: u64 },
    /// The next unread record of [`World::wires`].
    Wire,
    /// A crash-schedule effect.
    Fault(FaultRecord),
}

/// One recorded network decision: the latency draw plus the fault
/// layer's verdict for a single `transmit` call. A replayed run consumes
/// these in order instead of sampling its RNGs, which is what makes
/// replay bit-exact. The default is a zero-latency frame no fault
/// touched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransmitDecision {
    /// In-transit latency of the (original) frame. Always drawn — even
    /// for dropped frames — so the RNG stream stays aligned with the
    /// fault-free kernel.
    pub delay: u64,
    /// `Some` if the fault layer ate the frame.
    pub dropped: Option<DropReason>,
    /// Latency of the duplicated copy, if duplication fired.
    pub dup_delay: Option<u64>,
    /// Seed of the payload bit-flip, if corruption fired.
    pub corrupt: Option<u64>,
    /// Mutation seed and latency of the forged copy, if forgery fired.
    pub forge: Option<ForgedFrame>,
    /// Latency of the stale replayed copy, if adversarial replay fired.
    pub replay_delay: Option<u64>,
    /// Extra latency added to the original frame by a reordering burst
    /// (`0` when reordering did not fire).
    pub reorder_extra: u64,
}

/// Where the kernel gets its network decisions from.
#[derive(Clone)]
pub(crate) enum DecisionSource {
    /// Sample latencies and fault verdicts from the seeded RNGs (the
    /// normal mode).
    Sample,
    /// Pop pre-recorded decisions in order (replay mode); exhausting the
    /// log poisons the world with [`SimErrorKind::ReplayExhausted`].
    Replay(VecDeque<TransmitDecision>),
}

/// `PartialEq` is written out below, not derived. It is still field-by-
/// field equality, so the derived `Hash` agrees with it.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Debug, Clone, Hash, Eq)]
pub(crate) enum EventKind {
    Request {
        msg: MessageId,
    },
    UserArrival {
        from: usize,
        msg: MessageId,
        tag: Vec<u8>,
    },
    ControlArrival {
        from: usize,
        bytes: Vec<u8>,
    },
    Timer {
        id: u64,
    },
}

/// Field by field, with the payloads compared by [`same_bytes`]: the
/// derived equality hands two empty payloads — `Vec`'s dangling pointer
/// — to `memcmp`, which costs ~140 ns a call there against ~3 ns for two
/// allocated empty ones.
impl PartialEq for EventKind {
    fn eq(&self, other: &EventKind) -> bool {
        use EventKind::{ControlArrival, Request, Timer, UserArrival};
        match (self, other) {
            (Request { msg: a }, Request { msg: b }) => a == b,
            (
                UserArrival { from, msg, tag },
                UserArrival {
                    from: from_b,
                    msg: msg_b,
                    tag: tag_b,
                },
            ) => from == from_b && msg == msg_b && same_bytes(tag, tag_b),
            (
                ControlArrival { from, bytes },
                ControlArrival {
                    from: from_b,
                    bytes: bytes_b,
                },
            ) => from == from_b && same_bytes(bytes, bytes_b),
            (Timer { id: a }, Timer { id: b }) => a == b,
            _ => false,
        }
    }
}

/// Byte-string equality that compares lengths first and never hands
/// `memcmp` an empty slice.
pub(crate) fn same_bytes(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && (a.is_empty() || a == b)
}

/// Flips one payload bit selected by `seed` (length-preserving).
/// Returns `false` — and leaves the payload alone — when there is
/// nothing to flip.
pub(crate) fn flip_bit(bytes: &mut [u8], seed: u64) -> bool {
    if bytes.is_empty() {
        return false;
    }
    let bit = (seed % (bytes.len() as u64 * 8)) as usize;
    bytes[bit / 8] ^= 1 << (bit % 8);
    true
}

impl World {
    /// Admits one scheduled event at `node`: executes the kernel-owned
    /// bookkeeping that precedes the protocol call (`x.s*`/`x.r*` run
    /// events, journal entries, invoke/receive timestamps, duplicate
    /// suppression) and returns the transport-agnostic [`HostEvent`] to
    /// hand the protocol — or `None` when the event is absorbed
    /// (suppressed duplicate) or invalid (the world is now poisoned).
    fn admit(&mut self, node: usize, kind: EventKind) -> Option<HostEvent> {
        match kind {
            EventKind::Request { msg } => {
                if let Err(e) = self.builder.invoke(msg) {
                    self.fail(node, Some(msg), SimErrorKind::InvalidRequest(e));
                    return None;
                }
                self.journal(msg, RunEventKind::Invoke);
                self.messages[msg.0].invoked_at = Some(self.now);
                Some(HostEvent::Request { msg })
            }
            EventKind::UserArrival { from, msg, tag } => {
                if self.messages[msg.0].received_at.is_some() {
                    // A duplicated or retransmitted frame whose original
                    // already arrived: the network-level receive `x.r*`
                    // happened once; the extra copy is absorbed by the
                    // kernel so it cannot corrupt the run.
                    self.stats.suppressed_duplicates += 1;
                    return None;
                }
                if let Err(e) = self.builder.receive(msg) {
                    self.fail(node, Some(msg), SimErrorKind::InvalidReceive(e));
                    return None;
                }
                self.journal(msg, RunEventKind::Receive);
                self.messages[msg.0].received_at = Some(self.now);
                Some(HostEvent::UserFrame {
                    from: ProcessId(from),
                    msg,
                    tag,
                })
            }
            EventKind::ControlArrival { from, bytes } => Some(HostEvent::ControlFrame {
                from: ProcessId(from),
                bytes,
            }),
            EventKind::Timer { id } => Some(HostEvent::Timer { id }),
        }
    }

    /// Admits `kind` at `node` and, unless it was absorbed, lets
    /// `driver` answer it (shared between the event loop and the
    /// exhaustive explorer).
    pub(crate) fn step<D: Driver + ?Sized>(
        &mut self,
        driver: &mut D,
        node: usize,
        kind: EventKind,
    ) {
        if let Some(ev) = self.admit(node, kind) {
            driver.react(self, node, ev);
        }
    }

    /// The crash/restart epoch of `node` now: restarts completed so far.
    fn epoch(&self, node: usize) -> u64 {
        let crashes = self.faults.crashes.iter();
        crashes
            .filter(|c| c.process == node && matches!(c.restart, Some(r) if r <= self.now))
            .count() as u64
    }
}

/// The two things a kernel driver supplies to the event loop
/// ([`World::run`]): pacing, and how an admitted [`HostEvent`] becomes
/// applied actions.
pub(crate) trait Driver {
    /// Blocks until virtual time `time` is due. The simulator never
    /// waits.
    fn pace(&mut self, _time: u64) {}

    /// Answers `ev` at `node`: obtains the protocol's actions and
    /// [`World::apply`]s them.
    fn react(&mut self, world: &mut World, node: usize, ev: HostEvent);
}

/// In-process protocol instances, one per process: the callback runs
/// right here, into the world's reusable action buffer.
impl<P: Protocol> Driver for Vec<P> {
    fn react(&mut self, world: &mut World, node: usize, ev: HostEvent) {
        let mut actions = std::mem::take(&mut world.scratch);
        let mut ctx = Ctx {
            node,
            now: world.now,
            processes: world.processes,
            epoch: world.epoch(node),
            metas: world.builder.messages(),
            actions: &mut actions,
        };
        ctx.feed(&mut self[node], ev);
        world.apply(node, &mut actions);
        world.scratch = actions;
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Scheduled {
    pub(crate) time: u64,
    pub(crate) seq: u64,
    pub(crate) node: usize,
    pub(crate) kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// What the kernel tracks per workload message beyond the run itself.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MessageTrack {
    /// When the send was requested (`x.s*`).
    pub(crate) invoked_at: Option<u64>,
    /// When the first frame copy arrived (`x.r*`).
    pub(crate) received_at: Option<u64>,
    /// Whether the send `x.s` executed (gates resends).
    pub(crate) sent: bool,
    /// Wire accounting (copies out, copies eaten, why) for the liveness
    /// blame analysis.
    pub(crate) fate: FrameFate,
}

/// A process's adversarial history, for the liveness blame analysis.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeTrack {
    /// Forged control frames delivered *to* the process (fed forged
    /// control state, it may wedge in ways no benign cause explains).
    pub(crate) forged: u32,
    /// Frames the process rejected (via [`Ctx::reject_frame`]).
    pub(crate) rejected: u32,
}

pub(crate) struct World {
    pub(crate) processes: usize,
    pub(crate) latency: LatencyModel,
    /// Immutable after construction; shared by reference so the
    /// explorer's per-transition world clone is a pointer bump. (The
    /// declared messages are shared the same way, inside `builder`.)
    pub(crate) faults: std::sync::Arc<FaultModel>,
    pub(crate) builder: StreamingRun,
    /// What dispatches schedule: in-flight frames, timers, and requests
    /// a crash deferred to a restart.
    pub(crate) queue: BinaryHeap<Reverse<Scheduled>>,
    /// The workload's unissued requests, sorted once at build so that
    /// `pop()` yields the earliest under `(time, seq)`. Requests are the
    /// environment's input (the pending sets `I_i`): no dispatch can add,
    /// disable or delay one, so they never enter the heap.
    pub(crate) requests: Vec<Reverse<Scheduled>>,
    pub(crate) rng: StdRng,
    /// Independent stream for fault decisions (see [`FAULT_RNG_SALT`]).
    pub(crate) fault_rng: StdRng,
    pub(crate) seq: u64,
    pub(crate) now: u64,
    pub(crate) stats: Stats,
    /// One record per workload message, by id.
    pub(crate) messages: Vec<MessageTrack>,
    /// One record per process.
    pub(crate) nodes: Vec<NodeTrack>,
    /// The first protocol bug detected, if any; once set, the world is
    /// poisoned and all further protocol actions are no-ops.
    pub(crate) error: Option<SimError>,
    /// When `true`, every appended run event is journaled into `fresh`
    /// for the streaming observer; the plain [`Simulation::run`] path
    /// leaves this off so it pays nothing.
    pub(crate) record: bool,
    /// When `true`, wire and fault records are journaled too (only when
    /// the observer asked for them via [`RunObserver::wants_wire`], so
    /// monitor-only streaming runs pay nothing extra).
    pub(crate) record_wire: bool,
    /// Journal entries appended since the observer last drained, in
    /// execution order.
    pub(crate) fresh: Vec<JournalEntry>,
    /// The records of `fresh`'s [`JournalEntry::Wire`] entries, in
    /// order; drained with it.
    pub(crate) wires: Vec<WireRecord>,
    /// Where network decisions come from (sampled or replayed).
    pub(crate) decisions: DecisionSource,
    /// Reusable action buffer of the in-process driver: filled by one
    /// dispatch, drained by [`World::apply`], so steady-state dispatch
    /// does not allocate.
    scratch: Vec<HostAction>,
}

/// Written out rather than derived for two reasons: `clone_from`
/// overwrites the target's buffers in place, so the explorer copies a
/// world into its DFS frame's spare without touching the allocator once
/// that spare is warm; and both methods name every field, so a field
/// added later is a compile error here instead of a silently stale copy.
impl Clone for World {
    fn clone(&self) -> World {
        let World {
            processes,
            latency,
            faults,
            builder,
            queue,
            requests,
            rng,
            fault_rng,
            seq,
            now,
            stats,
            messages,
            nodes,
            error,
            record,
            record_wire,
            fresh,
            wires,
            decisions,
            scratch,
        } = self;
        World {
            processes: *processes,
            latency: *latency,
            faults: faults.clone(),
            builder: builder.clone(),
            queue: queue.clone(),
            requests: requests.clone(),
            rng: rng.clone(),
            fault_rng: fault_rng.clone(),
            seq: *seq,
            now: *now,
            stats: stats.clone(),
            messages: messages.clone(),
            nodes: nodes.clone(),
            error: error.clone(),
            record: *record,
            record_wire: *record_wire,
            fresh: fresh.clone(),
            wires: wires.clone(),
            decisions: decisions.clone(),
            scratch: scratch.clone(),
        }
    }

    fn clone_from(&mut self, source: &World) {
        let World {
            processes,
            latency,
            faults,
            builder,
            queue,
            requests,
            rng,
            fault_rng,
            seq,
            now,
            stats,
            messages,
            nodes,
            error,
            record,
            record_wire,
            fresh,
            wires,
            decisions,
            scratch,
        } = source;
        self.processes = *processes;
        self.latency = *latency;
        self.faults.clone_from(faults);
        self.builder.clone_from(builder);
        self.queue.clone_from(queue);
        self.requests.clone_from(requests);
        self.rng.clone_from(rng);
        self.fault_rng.clone_from(fault_rng);
        self.seq = *seq;
        self.now = *now;
        self.stats.clone_from(stats);
        self.messages.clone_from(messages);
        self.nodes.clone_from(nodes);
        self.error.clone_from(error);
        self.record = *record;
        self.record_wire = *record_wire;
        self.fresh.clone_from(fresh);
        self.wires.clone_from(wires);
        self.decisions.clone_from(decisions);
        self.scratch.clone_from(scratch);
    }
}

impl World {
    /// Journals a just-appended run event for the streaming observer.
    pub(crate) fn journal(&mut self, msg: MessageId, kind: RunEventKind) {
        if self.record {
            self.fresh.push(JournalEntry::Run {
                ev: SystemEvent::new(msg, kind),
                time: self.now,
            });
        }
    }

    /// Journals a crash-schedule effect for the streaming observer.
    fn journal_fault(&mut self, fault: FaultRecord) {
        if self.record_wire {
            self.fresh.push(JournalEntry::Fault(fault));
        }
    }

    pub(crate) fn schedule(&mut self, time: u64, node: usize, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            time,
            seq,
            node,
            kind,
        }));
        let pending = self.queue.len() + self.requests.len();
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(pending);
    }

    /// Removes the next pending event under `(time, seq)`: the earlier
    /// of the request cursor's head and the heap's top.
    pub(crate) fn pop_next(&mut self) -> Option<Scheduled> {
        let from_requests = match (self.requests.last(), self.queue.peek()) {
            (Some(Reverse(r)), Some(Reverse(q))) => r < q,
            (r, _) => r.is_some(),
        };
        let Reverse(ev) = if from_requests {
            self.requests.pop()
        } else {
            self.queue.pop()
        }?;
        Some(ev)
    }

    /// Builds a fresh world for `config` and `workload`: message ids are
    /// assigned in workload order, and request `i` gets seq `i` and
    /// enters the request cursor at its `at` time (shared between
    /// [`Simulation::new`] and the realtime kernel, so both number
    /// messages and sequence events identically).
    ///
    /// A request naming a process out of range poisons the world
    /// ([`SimErrorKind::InvalidRequest`]): declaration stops there and
    /// every kernel returns the counterexample before dispatching.
    pub(crate) fn build(config: SimConfig, workload: &Workload) -> World {
        let mut builder = StreamingRun::new(config.processes);
        let mut requests = Vec::with_capacity(workload.sends.len());
        let mut seq = 0u64;
        let mut out_of_range = None;
        for spec in &workload.sends {
            if let Some(&p) = [spec.src, spec.dst]
                .iter()
                .find(|&&p| p >= config.processes)
            {
                out_of_range = Some(ProcessId(p));
                break;
            }
            let id = match &spec.color {
                Some(c) => builder.message_colored(spec.src, spec.dst, c),
                None => builder.message(spec.src, spec.dst),
            };
            requests.push(Reverse(Scheduled {
                time: spec.at,
                seq,
                node: spec.src,
                kind: EventKind::Request { msg: id },
            }));
            seq += 1;
        }
        // Ascending under `Reverse` is latest first: the earliest
        // request ends up last, where `pop` takes it.
        requests.sort_unstable();
        let n_msgs = builder.messages().len();
        let mut world = World {
            processes: config.processes,
            latency: config.latency,
            faults: std::sync::Arc::new(config.faults),
            builder,
            // Sized as a heap holding every request would be, so a run
            // grows it only where such a heap would have grown.
            queue: BinaryHeap::with_capacity(n_msgs),
            requests,
            rng: StdRng::seed_from_u64(config.seed),
            fault_rng: StdRng::seed_from_u64(config.seed ^ FAULT_RNG_SALT),
            seq,
            now: 0,
            stats: Stats::default(),
            messages: vec![MessageTrack::default(); n_msgs],
            nodes: vec![NodeTrack::default(); config.processes],
            error: None,
            record: false,
            record_wire: false,
            fresh: Vec::new(),
            wires: Vec::new(),
            decisions: DecisionSource::Sample,
            scratch: Vec::new(),
        };
        if let Some(process) = out_of_range {
            // The id the bad request would have been declared under.
            let msg = MessageId(n_msgs);
            let n = world.processes;
            world.fail(
                0,
                Some(msg),
                SimErrorKind::InvalidRequest(RunError::ProcessOutOfRange { process, n }),
            );
        }
        world
    }

    /// Applies the crash schedule to a due event: returns the event
    /// unchanged when its process is up, or absorbs it (losing arrivals,
    /// deferring the process's own work to its restart, or losing it to
    /// a permanent crash) and returns `None`. Shared between the timed
    /// kernel's event loop and the realtime kernel.
    pub(crate) fn absorb_crashed(&mut self, ev: Scheduled) -> Option<Scheduled> {
        let Some(restart) = self.faults.down_until(ev.node, ev.time) else {
            return Some(ev);
        };
        match ev.kind {
            // Frames arriving at a crashed process are lost.
            EventKind::UserArrival { msg, .. } => {
                self.messages[msg.0].fate.crashed_arrivals += 1;
                self.stats.dropped_frames += 1;
                self.journal_fault(FaultRecord::ArrivalAtCrashed {
                    node: ev.node,
                    time: ev.time,
                });
            }
            EventKind::ControlArrival { .. } => {
                self.stats.dropped_frames += 1;
                self.journal_fault(FaultRecord::ArrivalAtCrashed {
                    node: ev.node,
                    time: ev.time,
                });
            }
            // The process's own pending actions are deferred to its
            // restart — or lost with it on a permanent crash.
            kind @ (EventKind::Request { .. } | EventKind::Timer { .. }) => {
                if let Some(r) = restart {
                    self.schedule(r, ev.node, kind);
                    self.journal_fault(FaultRecord::DeferredToRestart {
                        node: ev.node,
                        time: ev.time,
                        until: r,
                    });
                } else {
                    if let EventKind::Request { msg } = kind {
                        self.messages[msg.0].fate.request_lost = true;
                    }
                    self.journal_fault(FaultRecord::LostToCrash {
                        node: ev.node,
                        time: ev.time,
                    });
                }
            }
        }
        None
    }

    /// Drains the journal of fresh entries into `obs`: run events via
    /// `on_event` (which may halt), wire/fault records via their hooks.
    /// Returns `false` as soon as the observer requests a halt.
    pub(crate) fn notify_observer(&mut self, obs: &mut dyn RunObserver) -> bool {
        if self.fresh.is_empty() {
            return true;
        }
        let run_count = self
            .fresh
            .iter()
            .filter(|e| matches!(e, JournalEntry::Run { .. }))
            .count();
        let mut index = self.builder.event_count() - run_count;
        let mut halted = false;
        let mut wires = self.wires.iter();
        // Draining in place keeps both buffers' storage: the record path
        // stops allocating once they reach steady state.
        for entry in self.fresh.drain(..) {
            match entry {
                JournalEntry::Run { ev, time } => {
                    if !obs.on_event(&self.builder, ev, index, time) {
                        halted = true;
                        break;
                    }
                    index += 1;
                }
                JournalEntry::Wire => {
                    let wire = wires.next().expect("one wire record per wire entry");
                    obs.on_wire(wire);
                }
                JournalEntry::Fault(f) => obs.on_fault(&f),
            }
        }
        self.wires.clear();
        !halted
    }

    /// The event loop of every timed kernel: merges the request cursor
    /// with the heap ([`World::pop_next`]) and dispatches until both
    /// drain, the step limit is hit, the world is poisoned, or the
    /// observer (if any) requests a halt, then packages the outcome
    /// ([`World::finish`]).
    #[allow(clippy::result_large_err)] // see `Simulation::run`
    pub(crate) fn run<D: Driver + ?Sized>(
        mut self,
        step_limit: usize,
        driver: &mut D,
        mut obs: Option<&mut dyn RunObserver>,
    ) -> Result<StreamResult, SimError> {
        if let Some(o) = obs.as_deref() {
            self.record = true;
            self.record_wire = o.wants_wire();
        }
        for node in 0..self.processes {
            if self.error.is_none() {
                driver.react(&mut self, node, HostEvent::Init);
            }
        }
        let mut steps = 0usize;
        let mut completed = true;
        loop {
            // Only run events can halt, so the flush after the last
            // dispatch (trailing crash-window fault records) never does.
            if let Some(o) = obs.as_deref_mut() {
                if !self.notify_observer(o) {
                    return self.finish(step_limit, false, true);
                }
            }
            if self.error.is_some() {
                break;
            }
            let Some(ev) = self.pop_next() else {
                break;
            };
            steps += 1;
            if steps > step_limit {
                completed = false;
                break;
            }
            driver.pace(ev.time);
            debug_assert!(ev.time >= self.now, "time must not run backwards");
            self.now = ev.time;
            if let Some(ev) = self.absorb_crashed(ev) {
                self.stats.dispatched_events += 1;
                self.step(driver, ev.node, ev.kind);
            }
        }
        self.finish(step_limit, completed, false)
    }

    /// The one run epilogue: stamps the end time, turns step-limit
    /// exhaustion into its counterexample, and returns either the
    /// packaged error or the live run with its liveness verdict (`None`
    /// for halted runs: the observer cut the run short on purpose).
    #[allow(clippy::result_large_err)] // see `Simulation::run`
    fn finish(
        mut self,
        step_limit: usize,
        completed: bool,
        halted: bool,
    ) -> Result<StreamResult, SimError> {
        self.stats.end_time = self.now;
        self.poison_step_limit(step_limit, completed, halted);
        if let Some(e) = self.take_error() {
            return Err(e);
        }
        let liveness = if halted {
            None
        } else {
            liveness::analyze(&self, false)
        };
        Ok(StreamResult {
            run: self.builder,
            stats: self.stats,
            completed,
            halted,
            liveness,
        })
    }

    /// If the world is poisoned, extracts the counterexample with the
    /// partial captured run and the stats so far attached.
    pub(crate) fn take_error(&mut self) -> Option<SimError> {
        // Checked in place first: `take` copies the whole
        // `SimError`-sized slot out even when it is empty.
        self.error.as_ref()?;
        let mut e = self.error.take()?;
        let run = std::mem::replace(&mut self.builder, StreamingRun::new(0));
        e.trace = Some(run.into_run());
        e.stats = self.stats.clone();
        Some(e)
    }

    /// Turns step-limit exhaustion into the structured
    /// [`SimErrorKind::StepLimit`] counterexample, carrying the blame
    /// analysis of whatever was still pending when the limit tripped.
    /// Observer halts are deliberate and never poisoned.
    pub(crate) fn poison_step_limit(&mut self, step_limit: usize, completed: bool, halted: bool) {
        if completed || halted || self.error.is_some() {
            return;
        }
        let frontier = liveness::analyze(self, true).unwrap_or(LivenessVerdict {
            stuck: Vec::new(),
            step_limited: true,
            end_time: self.now,
        });
        self.fail(
            0,
            None,
            SimErrorKind::StepLimit {
                steps: step_limit,
                frontier,
            },
        );
    }

    /// Records the first protocol bug (later ones are dropped: the world
    /// is already poisoned and everything after the first invalid action
    /// is suspect).
    pub(crate) fn fail(&mut self, node: usize, msg: Option<MessageId>, kind: SimErrorKind) {
        if self.error.is_none() {
            self.error = Some(SimError {
                kind,
                node: ProcessId(node),
                msg,
                time: self.now,
                trace: None,
                stats: Stats::default(),
            });
        }
    }

    /// Puts one frame on the wire from `from` to `to`, applying the
    /// fault model: the latency sample is always drawn from the main RNG
    /// (so the stream stays aligned with the fault-free kernel), then
    /// partitions and loss may eat the frame, and duplication may
    /// schedule a second copy with an independently sampled latency from
    /// the fault stream.
    ///
    /// Everything random funnels through one [`TransmitDecision`]: in
    /// replay mode the RNGs are bypassed entirely and recorded decisions
    /// are consumed in order, which is what makes replay bit-exact.
    fn transmit(&mut self, from: usize, to: usize, retransmit: bool, kind: EventKind) {
        let decision = match &mut self.decisions {
            DecisionSource::Sample => {
                let delay = match self.latency.sample(&mut self.rng) {
                    Ok(d) => d,
                    Err(o) => {
                        self.fail(from, None, SimErrorKind::LatencyOverflow(o));
                        return;
                    }
                };
                let dropped = if self.faults.link_blocked(from, to, self.now) {
                    Some(DropReason::Partition)
                } else if self.faults.drop > 0.0 && self.fault_rng.gen_bool(self.faults.drop) {
                    Some(DropReason::Loss)
                } else {
                    None
                };
                // A dropped frame never rolls for duplication — matches
                // the pre-replay kernel, keeping fault RNG streams (and
                // thus every seeded regression baseline) unchanged.
                let dup_delay = if dropped.is_none()
                    && self.faults.duplicate > 0.0
                    && self.fault_rng.gen_bool(self.faults.duplicate)
                {
                    match self.latency.sample(&mut self.fault_rng) {
                        Ok(d) => Some(d),
                        Err(o) => {
                            self.fail(from, None, SimErrorKind::LatencyOverflow(o));
                            return;
                        }
                    }
                } else {
                    None
                };
                // Adversarial draws, in a fixed order (corrupt, forge,
                // replay, reorder), all from the fault stream and each
                // gated on its knob being non-zero: a quiet adversarial
                // model consumes nothing and the run stays bit-identical
                // to the pre-adversarial kernel. Dropped frames never
                // roll — the adversary mutates frames, it does not
                // resurrect ones the network already ate.
                let adv = self.faults.adversarial;
                let corrupt = if dropped.is_none()
                    && adv.corrupt > 0.0
                    && self.fault_rng.gen_bool(adv.corrupt)
                {
                    Some(self.fault_rng.next_u64())
                } else {
                    None
                };
                let forge = if dropped.is_none()
                    && matches!(kind, EventKind::ControlArrival { .. })
                    && adv.forge > 0.0
                    && self.fault_rng.gen_bool(adv.forge)
                {
                    let seed = self.fault_rng.next_u64();
                    match self.latency.sample(&mut self.fault_rng) {
                        Ok(d) => Some(ForgedFrame { seed, delay: d }),
                        Err(o) => {
                            self.fail(from, None, SimErrorKind::LatencyOverflow(o));
                            return;
                        }
                    }
                } else {
                    None
                };
                let replay_delay = if dropped.is_none()
                    && adv.replay_stale > 0.0
                    && self.fault_rng.gen_bool(adv.replay_stale)
                {
                    // Stale by construction: far beyond any ordinary
                    // latency, deep into later (possibly post-restart)
                    // epochs.
                    match self.latency.sample(&mut self.fault_rng) {
                        Ok(d) => Some(d.saturating_mul(50).max(1)),
                        Err(o) => {
                            self.fail(from, None, SimErrorKind::LatencyOverflow(o));
                            return;
                        }
                    }
                } else {
                    None
                };
                let reorder_extra = if dropped.is_none()
                    && adv.reorder > 0.0
                    && self.fault_rng.gen_bool(adv.reorder)
                {
                    match self.latency.sample(&mut self.fault_rng) {
                        Ok(d) => d.saturating_mul(3),
                        Err(o) => {
                            self.fail(from, None, SimErrorKind::LatencyOverflow(o));
                            return;
                        }
                    }
                } else {
                    0
                };
                TransmitDecision {
                    delay,
                    dropped,
                    dup_delay,
                    corrupt,
                    forge,
                    replay_delay,
                    reorder_extra,
                }
            }
            DecisionSource::Replay(log) => match log.pop_front() {
                Some(d) => d,
                None => {
                    self.fail(from, None, SimErrorKind::ReplayExhausted);
                    return;
                }
            },
        };
        if self.record_wire {
            self.fresh.push(JournalEntry::Wire);
            self.wires.push(WireRecord {
                from,
                to,
                time: self.now,
                payload: PayloadKind::of(&kind, retransmit),
                decision,
            });
        }
        if let EventKind::UserArrival { msg, .. } = &kind {
            let fate = &mut self.messages[msg.0].fate;
            fate.attempts += 1;
            if let Some(reason) = decision.dropped {
                fate.dropped += 1;
                fate.last_drop = Some(reason);
            } else {
                // Duplicated and replayed copies are more frames on the
                // wire.
                if decision.dup_delay.is_some() {
                    fate.attempts += 1;
                }
                if decision.replay_delay.is_some() {
                    fate.attempts += 1;
                }
            }
        }
        if decision.dropped.is_some() {
            self.stats.dropped_frames += 1;
            return;
        }
        let extended = decision.delay.checked_add(decision.reorder_extra);
        let Some(at) = extended.and_then(|d| self.now.checked_add(d)) else {
            self.fail(
                from,
                None,
                SimErrorKind::TimeOverflow {
                    delay: decision.delay.saturating_add(decision.reorder_extra),
                },
            );
            return;
        };
        if decision.reorder_extra != 0 {
            self.stats.reordered_frames += 1;
        }
        // Copies (duplicate, stale replay, forgery source) clone the
        // *clean* frame: corruption mutates only the original, so a
        // corrupted frame and its pristine twin can race to the
        // destination — the nastiest version of the fault.
        let dup = decision.dup_delay.map(|d| (d, kind.clone()));
        let replay = decision.replay_delay.map(|d| (d, kind.clone()));
        let forged = decision.forge.and_then(|f| match &kind {
            EventKind::ControlArrival { from: src, bytes } => {
                let mut mutated = bytes.clone();
                flip_bit(&mut mutated, f.seed);
                Some((
                    f.delay,
                    EventKind::ControlArrival {
                        from: *src,
                        bytes: mutated,
                    },
                ))
            }
            _ => None,
        });
        let mut kind = kind;
        if let Some(seed) = decision.corrupt {
            let flipped = match &mut kind {
                EventKind::UserArrival { tag, .. } => flip_bit(tag, seed),
                EventKind::ControlArrival { bytes, .. } => flip_bit(bytes, seed),
                _ => false,
            };
            if flipped {
                self.stats.corrupted_frames += 1;
            }
        }
        self.schedule(at, to, kind);
        if let Some((dup_delay, copy)) = dup {
            let Some(dup_at) = self.now.checked_add(dup_delay) else {
                self.fail(from, None, SimErrorKind::TimeOverflow { delay: dup_delay });
                return;
            };
            self.stats.duplicated_frames += 1;
            self.schedule(dup_at, to, copy);
        }
        if let Some((forge_delay, copy)) = forged {
            let Some(forge_at) = self.now.checked_add(forge_delay) else {
                self.fail(
                    from,
                    None,
                    SimErrorKind::TimeOverflow { delay: forge_delay },
                );
                return;
            };
            self.stats.forged_frames += 1;
            self.nodes[to].forged += 1;
            self.schedule(forge_at, to, copy);
        }
        if let Some((replay_delay, copy)) = replay {
            let Some(replay_at) = self.now.checked_add(replay_delay) else {
                self.fail(
                    from,
                    None,
                    SimErrorKind::TimeOverflow {
                        delay: replay_delay,
                    },
                );
                return;
            };
            self.stats.replayed_frames += 1;
            self.schedule(replay_at, to, copy);
        }
    }
}

/// A hook fed every run event (`s*`, `s`, `r*`, `r`) the moment the
/// kernel executes it, together with the live [`StreamingRun`] prefix —
/// the entry point of the streaming verdict pipeline.
///
/// Events arrive in execution order; `index` is the event's position in
/// the global appended order (0-based) and `time` the simulated time it
/// executed at. Returning `false` halts the simulation after the
/// current dispatch — the early-exit used by online violation
/// detection. Under [`explore_monitored`](crate::explore_monitored) the
/// same `false` condemns the explored prefix.
pub trait RunObserver {
    /// Called once per executed run event. Return `false` to halt.
    fn on_event(&mut self, view: &StreamingRun, ev: SystemEvent, index: usize, time: u64) -> bool;

    /// Called for every frame put on (or eaten off) the wire, when this
    /// observer opted in via [`wants_wire`](RunObserver::wants_wire).
    fn on_wire(&mut self, _wire: &WireRecord) {}

    /// Called for every crash-schedule effect, when this observer opted
    /// in via [`wants_wire`](RunObserver::wants_wire).
    fn on_fault(&mut self, _fault: &FaultRecord) {}

    /// Whether the kernel should journal wire/fault records for this
    /// observer. Defaults to `false` so monitor-only streaming runs pay
    /// nothing for the tracing layer.
    fn wants_wire(&self) -> bool {
        false
    }
}

/// The outcome of a simulation: the kernel's own run, handed back by
/// move (feed its [`users_view`](msgorder_runs::SystemRun::users_view)
/// to the spec checkers; the `→` closure is built only if queried).
#[derive(Debug)]
pub struct StreamResult {
    /// The run at the moment the simulation stopped.
    pub run: StreamingRun,
    /// Overhead counters.
    pub stats: Stats,
    /// `true` iff the event queue drained. Step-limit exhaustion
    /// surfaces as [`SimErrorKind::StepLimit`], so an `Ok` result is
    /// incomplete only when an observer halted it.
    pub completed: bool,
    /// `true` iff the observer requested the halt.
    pub halted: bool,
    /// `Some` when the run drained its queue but ended non-quiescent:
    /// the structured blame analysis of the pending frontier. Always
    /// `None` for halted runs (the observer cut the run short on
    /// purpose).
    pub liveness: Option<LivenessVerdict>,
}

/// A discrete-event simulation of `P` instances exchanging a workload.
pub struct Simulation<P> {
    protocols: Vec<P>,
    world: World,
    step_limit: usize,
}

impl<P: Protocol> Simulation<P> {
    /// Builds a simulation with one protocol instance per process from
    /// `factory(process_id)`. A workload request naming a process out of
    /// range is not refused here: the run returns it as a
    /// [`SimErrorKind::InvalidRequest`] counterexample.
    pub fn new(config: SimConfig, workload: Workload, factory: impl Fn(usize) -> P) -> Self {
        let processes = config.processes;
        let world = World::build(config, &workload);
        let protocols = (0..processes).map(factory).collect();
        Simulation {
            protocols,
            world,
            step_limit: 1_000_000,
        }
    }

    /// Overrides the livelock step limit.
    pub fn with_step_limit(mut self, limit: usize) -> Self {
        self.step_limit = limit;
        self
    }

    /// Replaces the network RNGs with a recorded decision log: every
    /// `transmit` pops the next [`TransmitDecision`] instead of sampling
    /// latency and fault verdicts. With the same config, workload, and
    /// protocol as the recording, the run is bit-exact; a run that asks
    /// for more decisions than were recorded diverged from the recording
    /// and poisons the world with [`SimErrorKind::ReplayExhausted`].
    pub fn with_replay(mut self, decisions: impl IntoIterator<Item = TransmitDecision>) -> Self {
        self.world.decisions = DecisionSource::Replay(decisions.into_iter().collect());
        self
    }

    /// Runs to completion (event queue drained) or to the step limit.
    ///
    /// Returns `Err(SimError)` — a counterexample with the offending
    /// message, event, simulated time, and the partial captured run — if
    /// a protocol action was invalid; the process is never aborted.
    //
    // The Err carries the whole counterexample (partial trace + stats)
    // by design, and the Ok variant is just as large — boxing the error
    // would not shrink the Result.
    #[allow(clippy::result_large_err)]
    pub fn run(mut self) -> SimOutcome {
        self.world.run(self.step_limit, &mut self.protocols, None)
    }

    /// Runs the simulation while feeding every run event to `obs` as it
    /// executes.
    ///
    /// The observer may halt the simulation by returning `false`
    /// (reflected in [`StreamResult::halted`]); a protocol bug still
    /// yields the structured [`SimError`] counterexample.
    #[allow(clippy::result_large_err)] // see `run`
    pub fn run_streaming(mut self, obs: &mut dyn RunObserver) -> Result<StreamResult, SimError> {
        self.world
            .run(self.step_limit, &mut self.protocols, Some(obs))
    }

    /// Decomposes the simulation into its world and protocol instances
    /// (used by the exhaustive explorer).
    pub(crate) fn into_parts(self) -> (World, Vec<P>) {
        (self.world, self.protocols)
    }

    /// Convenience: build and run in one call.
    #[allow(clippy::result_large_err)] // see `run`
    pub fn run_uniform(
        config: SimConfig,
        workload: Workload,
        factory: impl Fn(usize) -> P,
    ) -> SimOutcome {
        Simulation::new(config, workload, factory).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SendSpec;

    /// Do-nothing protocol: send and deliver immediately.
    struct Immediate;
    impl Protocol for Immediate {
        fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
            ctx.send_user(msg, Vec::new());
        }
        fn on_user_frame(
            &mut self,
            ctx: &mut Ctx<'_>,
            _from: ProcessId,
            msg: MessageId,
            _tag: Vec<u8>,
        ) {
            ctx.deliver(msg);
        }
    }

    fn config(seed: u64) -> SimConfig {
        SimConfig::new(3, LatencyModel::Uniform { lo: 1, hi: 200 }, seed)
    }

    #[test]
    fn immediate_protocol_completes_quiescent() {
        let w = Workload::uniform_random(3, 25, 7);
        let r = Simulation::run_uniform(config(1), w, |_| Immediate).expect("no protocol bug");
        assert!(r.completed);
        assert!(r.run.is_quiescent());
        assert!(r.run.is_complete());
        assert_eq!(r.stats.user_messages, 25);
        assert_eq!(r.stats.delivered, 25);
        assert_eq!(r.stats.control_messages, 0);
        assert_eq!(r.stats.tag_bytes, 0);
        assert_eq!(r.stats.dropped_frames, 0);
        assert_eq!(r.stats.duplicated_frames, 0);
    }

    #[test]
    fn out_of_range_workload_process_is_a_counterexample_not_a_panic() {
        let mut w = Workload::uniform_random(2, 3, 7);
        w.sends[1].dst = 7;
        let two = SimConfig::new(2, LatencyModel::Fixed(1), 1);
        let e = Simulation::run_uniform(two, w, |_| Immediate).unwrap_err();
        assert_eq!(
            e.kind,
            SimErrorKind::InvalidRequest(RunError::ProcessOutOfRange {
                process: ProcessId(7),
                n: 2,
            })
        );
        assert_eq!(e.msg, Some(MessageId(1)), "the second request");
        let trace = e.trace.expect("the run declared so far rides along");
        assert_eq!((trace.messages().len(), trace.event_count()), (1, 0));
    }

    #[test]
    fn deterministic_given_seed() {
        let w = Workload::uniform_random(3, 15, 3);
        let a = Simulation::run_uniform(config(9), w.clone(), |_| Immediate).expect("ok");
        let b = Simulation::run_uniform(config(9), w, |_| Immediate).expect("ok");
        assert_eq!(
            a.run.users_view().relation_pairs(),
            b.run.users_view().relation_pairs()
        );
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn reordering_channels_reorder() {
        // With wide uniform latency, at least one pair of same-channel
        // messages should arrive out of send order across seeds.
        let mut reordered = false;
        for seed in 0..20 {
            let w = Workload {
                sends: (0..10)
                    .map(|i| SendSpec {
                        at: i * 5,
                        src: 0,
                        dst: 1,
                        color: None,
                    })
                    .collect(),
            };
            let r = Simulation::run_uniform(config(seed), w, |_| Immediate).expect("ok");
            let user = r.run.users_view();
            if !msgorder_runs::limit_sets::in_x_co(&user) {
                reordered = true;
                break;
            }
        }
        assert!(reordered, "channels never reordered — not adversarial");
    }

    /// A protocol that buffers everything and never delivers.
    struct BlackHole;
    impl Protocol for BlackHole {
        fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
            ctx.send_user(msg, Vec::new());
        }
        fn on_user_frame(
            &mut self,
            _ctx: &mut Ctx<'_>,
            _from: ProcessId,
            _msg: MessageId,
            _tag: Vec<u8>,
        ) {
        }
    }

    #[test]
    fn black_hole_is_non_quiescent() {
        let w = Workload::uniform_random(3, 5, 2);
        let r = Simulation::run_uniform(config(4), w, |_| BlackHole).expect("ok");
        assert!(r.completed, "queue drains, messages stay undelivered");
        assert!(!r.run.is_quiescent(), "liveness violation is visible");
        assert!(!r.run.is_complete());
    }

    /// Echo control traffic: each user frame triggers one control ping.
    struct Pinger;
    impl Protocol for Pinger {
        fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
            ctx.send_user(msg, vec![1, 2, 3, 4]);
        }
        fn on_user_frame(
            &mut self,
            ctx: &mut Ctx<'_>,
            from: ProcessId,
            msg: MessageId,
            _tag: Vec<u8>,
        ) {
            ctx.deliver(msg);
            ctx.send_control(from, vec![9; 8]);
        }
    }

    #[test]
    fn stats_count_tags_and_control() {
        let w = Workload::uniform_random(3, 10, 11);
        let r = Simulation::run_uniform(config(5), w, |_| Pinger).expect("ok");
        assert_eq!(r.stats.user_messages, 10);
        assert_eq!(r.stats.tag_bytes, 40);
        assert_eq!(r.stats.control_messages, 10);
        assert_eq!(r.stats.control_bytes, 80);
        assert_eq!(r.stats.control_per_user(), 1.0);
        assert_eq!(r.stats.tag_bytes_per_user(), 4.0);
    }

    /// Delays every delivery by a timer tick.
    struct TimerDelay {
        pending: Vec<MessageId>,
    }
    impl Protocol for TimerDelay {
        fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
            ctx.send_user(msg, Vec::new());
        }
        fn on_user_frame(
            &mut self,
            ctx: &mut Ctx<'_>,
            _from: ProcessId,
            msg: MessageId,
            _tag: Vec<u8>,
        ) {
            self.pending.push(msg);
            ctx.set_timer(50, msg.0 as u64);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: u64) {
            let msg = MessageId(id as usize);
            if let Some(pos) = self.pending.iter().position(|m| *m == msg) {
                self.pending.remove(pos);
                ctx.deliver(msg);
            }
        }
    }

    #[test]
    fn timers_fire_and_inhibition_is_measured() {
        let w = Workload::uniform_random(3, 8, 13);
        let r = Simulation::run_uniform(config(6), w, |_| TimerDelay {
            pending: Vec::new(),
        })
        .expect("ok");
        assert!(r.run.is_quiescent());
        assert!(r.stats.mean_inhibition() >= 50.0);
    }

    #[test]
    fn step_limit_detects_livelock() {
        /// Ping-pong forever.
        struct Livelock;
        impl Protocol for Livelock {
            fn on_init(&mut self, ctx: &mut Ctx<'_>) {
                if ctx.node().0 == 0 {
                    ctx.send_control(ProcessId(1), vec![0]);
                }
            }
            fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
                ctx.send_user(msg, Vec::new());
            }
            fn on_user_frame(
                &mut self,
                ctx: &mut Ctx<'_>,
                _from: ProcessId,
                msg: MessageId,
                _tag: Vec<u8>,
            ) {
                ctx.deliver(msg);
            }
            fn on_control_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, bytes: Vec<u8>) {
                ctx.send_control(from, bytes);
            }
        }
        let w = Workload::uniform_random(2, 1, 0);
        let e = Simulation::new(config(7), w, |_| Livelock)
            .with_step_limit(500)
            .run()
            .expect_err("step-limit exhaustion is a structured error");
        match &e.kind {
            SimErrorKind::StepLimit { steps, frontier } => {
                assert_eq!(*steps, 500);
                assert!(frontier.step_limited);
                // The one user message delivers immediately; only the
                // control ping-pong livelocks, so the frontier is empty.
                assert_eq!(frontier.stuck_count(), 0);
            }
            other => panic!("wrong error kind: {other:?}"),
        }
        assert_eq!(e.kind.discriminant_name(), "step-limit");
        assert!(e.trace.is_some(), "partial run still captured");
    }

    #[test]
    fn undelivered_messages_get_liveness_blame() {
        let w = Workload::uniform_random(3, 5, 2);
        let r = Simulation::run_uniform(config(4), w, |_| BlackHole).expect("ok");
        let v = r.liveness.expect("non-quiescent run carries a verdict");
        assert!(!v.step_limited, "queue drained normally");
        assert_eq!(v.stuck_count(), 5, "all five messages pending");
        for s in &v.stuck {
            assert_eq!(s.stage, crate::liveness::StuckStage::Deliver);
            assert_eq!(s.cause, crate::liveness::StuckCause::ProtocolInhibited);
        }
        assert_eq!(v.classes(), vec!["deliver:protocol-inhibited".to_owned()]);
    }

    #[test]
    fn quiescent_runs_have_no_liveness_verdict() {
        let w = Workload::uniform_random(3, 10, 7);
        let r = Simulation::run_uniform(config(1), w, |_| Immediate).expect("ok");
        assert!(r.liveness.is_none());
    }

    #[test]
    fn captured_run_respects_wall_clock_causality() {
        let w = Workload::uniform_random(3, 30, 17);
        let r = Simulation::run_uniform(config(8), w, |_| Immediate).expect("ok");
        // Every captured event passed the run's feed validation (no
        // spurious receives) — spot-check an invariant: every message
        // was received after it was sent.
        for m in r.run.messages() {
            use msgorder_runs::{EventKind, SystemEvent};
            assert!(r.run.happens_before(
                SystemEvent::new(m.id, EventKind::Send),
                SystemEvent::new(m.id, EventKind::Receive)
            ));
        }
    }

    /// Delivers every user frame twice — a protocol implementation bug
    /// that used to abort the whole process.
    struct DoubleDeliver;
    impl Protocol for DoubleDeliver {
        fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
            ctx.send_user(msg, Vec::new());
        }
        fn on_user_frame(
            &mut self,
            ctx: &mut Ctx<'_>,
            _from: ProcessId,
            msg: MessageId,
            _tag: Vec<u8>,
        ) {
            ctx.deliver(msg);
            ctx.deliver(msg);
        }
    }

    #[test]
    fn protocol_bug_becomes_counterexample_not_abort() {
        let w = Workload::uniform_random(3, 5, 2);
        let e = Simulation::run_uniform(config(3), w, |_| DoubleDeliver)
            .expect_err("double delivery must be detected");
        assert!(matches!(e.kind, SimErrorKind::InvalidDelivery(_)), "{e}");
        assert!(e.msg.is_some(), "counterexample names the message");
        let trace = e.trace.as_ref().expect("partial trace is buildable");
        assert!(
            !trace.messages().is_empty(),
            "trace still lists the workload"
        );
        assert_eq!(e.stats.delivered, 1, "one valid delivery before the bug");
    }

    /// Sends a message it does not own.
    struct Thief;
    impl Protocol for Thief {
        fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
            // Deliberately misroute: claim ownership on the wrong node.
            if ctx.node().0 != ctx.meta(msg).src.0 {
                unreachable!("requests arrive at the owner");
            }
            ctx.send_user(msg, Vec::new());
            ctx.send_user(msg, Vec::new()); // double send
        }
        fn on_user_frame(
            &mut self,
            ctx: &mut Ctx<'_>,
            _from: ProcessId,
            msg: MessageId,
            _tag: Vec<u8>,
        ) {
            ctx.deliver(msg);
        }
    }

    #[test]
    fn double_send_is_a_structured_error() {
        let w = Workload::uniform_random(2, 3, 1);
        let e = Simulation::run_uniform(SimConfig::new(2, LatencyModel::Fixed(5), 1), w, |_| Thief)
            .expect_err("double send must be detected");
        assert!(matches!(e.kind, SimErrorKind::InvalidSend(_)), "{e}");
    }

    #[test]
    fn resend_before_send_is_reported() {
        struct EagerResend;
        impl Protocol for EagerResend {
            fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
                ctx.resend_user(msg, Vec::new()); // never sent it
            }
            fn on_user_frame(
                &mut self,
                _ctx: &mut Ctx<'_>,
                _from: ProcessId,
                _msg: MessageId,
                _tag: Vec<u8>,
            ) {
            }
        }
        let w = Workload::uniform_random(2, 1, 0);
        let e = Simulation::run_uniform(SimConfig::new(2, LatencyModel::Fixed(1), 0), w, |_| {
            EagerResend
        })
        .expect_err("resend before send");
        assert_eq!(e.kind, SimErrorKind::ResendBeforeSend);
    }

    #[test]
    fn a_boxed_wire_record_encodes_as_the_record() {
        let wire = WireRecord {
            from: 2,
            to: 0,
            time: 41,
            payload: PayloadKind::User {
                msg: MessageId(5),
                bytes: 9,
                retransmit: true,
            },
            decision: TransmitDecision {
                delay: 7,
                dup_delay: Some(3),
                corrupt: Some(11),
                ..TransmitDecision::default()
            },
        };
        let boxed = Box::new(wire);
        let plain = serde_json::to_string(&wire).expect("serializes");
        assert_eq!(serde_json::to_string(&boxed).expect("serializes"), plain);
        let back: WireRecord = serde_json::from_str(&plain).expect("parses");
        assert_eq!(back, wire);
        let back: Box<WireRecord> = serde_json::from_str(&plain).expect("parses");
        assert_eq!(back, boxed);
        // A journal line carries the record's own encoding, tagged.
        let ev = KernelEvent::Wire(boxed);
        let line = serde_json::to_string(&ev).expect("serializes");
        assert_eq!(line, format!("{{\"Wire\":{plain}}}"));
        let back: KernelEvent = serde_json::from_str(&line).expect("parses");
        assert_eq!(back, ev);
    }

    /// Records every observed event; optionally halts at the first
    /// delivery, optionally asks for wire records too.
    struct Recorder {
        events: Vec<(SystemEvent, usize, u64)>,
        halt_on_deliver: bool,
        wire: bool,
    }
    impl RunObserver for Recorder {
        fn wants_wire(&self) -> bool {
            self.wire
        }
        fn on_event(
            &mut self,
            view: &StreamingRun,
            ev: SystemEvent,
            index: usize,
            time: u64,
        ) -> bool {
            // Events appended by one dispatch are notified as a batch
            // after it returns, so the view may already be a few events
            // ahead — but never behind.
            assert!(index < view.event_count(), "view includes the event");
            assert!(view.contains(ev), "event visible in the live prefix");
            self.events.push((ev, index, time));
            !(self.halt_on_deliver && ev.kind == RunEventKind::Deliver)
        }
    }

    #[test]
    fn run_streaming_observes_every_event_in_order() {
        let w = Workload::uniform_random(3, 20, 19);
        let plain = Simulation::run_uniform(config(2), w.clone(), |_| Immediate).expect("ok");
        for wire in [false, true] {
            let mut obs = Recorder {
                events: Vec::new(),
                halt_on_deliver: false,
                wire,
            };
            let r = Simulation::new(config(2), w.clone(), |_| Immediate)
                .run_streaming(&mut obs)
                .expect("no protocol bug");
            assert!(r.completed && !r.halted);
            assert!(r.run.is_quiescent() && r.run.is_complete());
            assert_eq!(obs.events.len(), 80, "4 events per message");
            for (i, (_, index, _)) in obs.events.iter().enumerate() {
                assert_eq!(*index, i, "indices are the global append order");
            }
            let times: Vec<u64> = obs.events.iter().map(|&(_, _, t)| t).collect();
            assert!(times.windows(2).all(|w| w[0] <= w[1]), "times monotone");

            // Observing — run events only, or the wire journal too —
            // never changes the run: same stats, same user view as the
            // plain path.
            assert_eq!(plain.stats, r.stats);
            assert_eq!(
                plain.run.users_view().relation_pairs(),
                r.run.users_view().relation_pairs()
            );
        }
    }

    #[test]
    fn observer_halt_stops_simulation_early() {
        let w = Workload::uniform_random(3, 20, 19);
        let mut obs = Recorder {
            events: Vec::new(),
            halt_on_deliver: true,
            wire: false,
        };
        let r = Simulation::new(config(2), w, |_| Immediate)
            .run_streaming(&mut obs)
            .expect("no protocol bug");
        assert!(r.halted && !r.completed);
        assert_eq!(
            obs.events
                .iter()
                .filter(|(ev, _, _)| ev.kind == RunEventKind::Deliver)
                .count(),
            1,
            "halted at the first delivery"
        );
        assert!(
            r.run.event_count() < 80,
            "most of the run was never executed"
        );
    }

    #[test]
    fn same_tick_events_dispatch_in_schedule_order_across_runs() {
        // All frames take exactly one tick: every arrival at t+1 ties on
        // time and must fall back to the monotone sequence number, so two
        // identical runs dispatch identically.
        let w = Workload {
            sends: (0..12)
                .map(|i| SendSpec {
                    at: 0,
                    src: i % 3,
                    dst: (i + 1) % 3,
                    color: None,
                })
                .collect(),
        };
        let cfg = SimConfig::new(3, LatencyModel::Fixed(1), 5);
        let a = Simulation::run_uniform(cfg.clone(), w.clone(), |_| Immediate).expect("ok");
        let b = Simulation::run_uniform(cfg, w, |_| Immediate).expect("ok");
        assert_eq!(a.stats, b.stats);
        assert_eq!(
            a.run.users_view().relation_pairs(),
            b.run.users_view().relation_pairs()
        );
        assert_eq!(a.stats.end_time, 1, "everything resolves on tick 1");
    }

    fn send(at: u64, src: usize, dst: usize) -> SendSpec {
        SendSpec {
            at,
            src,
            dst,
            color: None,
        }
    }

    fn ev(m: usize, kind: RunEventKind) -> SystemEvent {
        SystemEvent::new(MessageId(m), kind)
    }

    /// Runs `sends` under [`Immediate`], returning the result and every
    /// run event with its time, in the order the kernel journaled them.
    fn journaled(
        config: SimConfig,
        sends: Vec<SendSpec>,
    ) -> (StreamResult, Vec<(SystemEvent, u64)>) {
        let mut obs = Recorder {
            events: Vec::new(),
            halt_on_deliver: false,
            wire: false,
        };
        let r = Simulation::new(config, Workload { sends }, |_| Immediate)
            .run_streaming(&mut obs)
            .expect("no protocol bug");
        let events = obs.events.into_iter().map(|(ev, _, t)| (ev, t)).collect();
        (r, events)
    }

    /// The `Stats` of an `Immediate` run that every frame reached.
    fn immediate_stats(msgs: usize, total_latency: u64, end_time: u64, depth: usize) -> Stats {
        Stats {
            user_messages: msgs,
            delivered: msgs,
            dispatched_events: 2 * msgs,
            total_latency,
            end_time,
            max_queue_depth: depth,
            ..Stats::default()
        }
    }

    #[test]
    fn a_request_precedes_a_frame_due_at_the_same_tick() {
        use RunEventKind::{Deliver, Invoke, Receive, Send};
        // m1's request carries seq 1 from build; m0's frame, scheduled
        // when m0 sends at t=0, carries a later seq and also falls due
        // at t=5.
        let (r, _) = journaled(
            SimConfig::new(2, LatencyModel::Fixed(5), 0),
            vec![send(0, 0, 1), send(5, 1, 0)],
        );
        assert_eq!(
            r.run.sequence(ProcessId(1)),
            [ev(1, Invoke), ev(1, Send), ev(0, Receive), ev(0, Deliver)]
        );
        assert_eq!(r.stats, immediate_stats(2, 10, 10, 2));
    }

    #[test]
    fn a_crash_deferred_request_follows_an_original_request_at_the_restart_tick() {
        use RunEventKind::{Deliver, Invoke, Receive, Send};
        // P1 is down over [3, 10): its request at t=5 is rescheduled to
        // t=10 with a fresh seq, after P0's original request due at t=10.
        let faults = FaultModel::none().with_crash(1, 3, Some(10));
        let (r, events) = journaled(
            SimConfig::new(3, LatencyModel::Fixed(5), 0).with_faults(faults),
            vec![send(5, 1, 2), send(10, 0, 2)],
        );
        assert_eq!(
            events,
            [
                (ev(1, Invoke), 10),
                (ev(1, Send), 10),
                (ev(0, Invoke), 10),
                (ev(0, Send), 10),
                (ev(1, Receive), 15),
                (ev(1, Deliver), 15),
                (ev(0, Receive), 15),
                (ev(0, Deliver), 15),
            ]
        );
        assert_eq!(r.stats, immediate_stats(2, 10, 15, 2));
    }

    #[test]
    fn requests_dispatch_by_time_then_workload_index() {
        // Listed out of time order, with equal times on different
        // processes; every frame lands after the last request.
        let (r, events) = journaled(
            SimConfig::new(3, LatencyModel::Fixed(100), 0),
            vec![
                send(7, 0, 1),
                send(2, 1, 2),
                send(7, 2, 0),
                send(2, 0, 2),
                send(7, 1, 0),
            ],
        );
        let invokes: Vec<(usize, u64)> = events
            .iter()
            .filter(|(e, _)| e.kind == RunEventKind::Invoke)
            .map(|&(e, t)| (e.msg.0, t))
            .collect();
        assert_eq!(invokes, [(1, 2), (3, 2), (0, 7), (2, 7), (4, 7)]);
        assert_eq!(r.stats, immediate_stats(5, 500, 107, 5));
    }

    /// The reference equality: `Debug` renders every field, payload
    /// bytes included, and never compares two slices.
    fn same_fields(a: &EventKind, b: &EventKind) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    /// A payload of `len` bytes drawn from `bytes`; an empty one is
    /// `Vec`'s dangling empty vector or, when `allocated`, an empty
    /// vector with a real buffer.
    fn payload(bytes: &[u8], allocated: bool) -> Vec<u8> {
        let mut out = if allocated {
            Vec::with_capacity(8)
        } else {
            Vec::new()
        };
        out.extend_from_slice(bytes);
        out
    }

    fn kind(code: u8, field: usize, bytes: Vec<u8>) -> EventKind {
        match code {
            0 => EventKind::Request {
                msg: MessageId(field),
            },
            1 => EventKind::UserArrival {
                from: field,
                msg: MessageId(1),
                tag: bytes,
            },
            2 => EventKind::ControlArrival { from: field, bytes },
            _ => EventKind::Timer { id: field as u64 },
        }
    }

    #[test]
    fn event_kind_equality_covers_every_payload_edge() {
        let dangling = || payload(&[], false);
        let allocated = || payload(&[], true);
        let bytes = payload(&[3, 1, 4], true);
        let mut flipped = bytes.clone();
        flipped[2] ^= 1 << 5;
        for code in [1, 2] {
            let k = |b: Vec<u8>| kind(code, 0, b);
            for (a, b, equal) in [
                (dangling(), dangling(), true),
                (dangling(), allocated(), true),
                (allocated(), allocated(), true),
                (dangling(), bytes.clone(), false),
                (allocated(), bytes.clone(), false),
                // Equal bytes at two addresses (two allocations).
                (bytes.clone(), payload(&bytes, true), true),
                (bytes.clone(), flipped.clone(), false),
                (bytes.clone(), bytes[..2].to_vec(), false),
            ] {
                let (a, b) = (k(a), k(b));
                assert_eq!(a == b, equal, "{a:?} vs {b:?}");
                assert_eq!(b == a, equal, "{b:?} vs {a:?}");
                assert_eq!(same_fields(&a, &b), equal);
            }
        }
        assert!(same_bytes(&[], &payload(&[], true)));
        assert!(!same_bytes(&[], &[0]));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2_000))]

        /// Small alphabets, so that most pairs share a variant and many
        /// are equal.
        #[test]
        fn written_out_event_kind_equality_is_field_by_field(
            (code_a, field_a, bytes_a, alloc_a) in (
                0u8..4, 0usize..2, proptest::collection::vec(0u8..2, 0..3), proptest::any::<bool>()
            ),
            (code_b, field_b, bytes_b, alloc_b) in (
                0u8..4, 0usize..2, proptest::collection::vec(0u8..2, 0..3), proptest::any::<bool>()
            ),
        ) {
            let a = kind(code_a, field_a, payload(&bytes_a, alloc_a));
            let b = kind(code_b, field_b, payload(&bytes_b, alloc_b));
            proptest::prop_assert_eq!(a == b, same_fields(&a, &b));
            proptest::prop_assert_eq!(a == a.clone(), true);
        }
    }
}
