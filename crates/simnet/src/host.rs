//! The transport-agnostic protocol/host boundary (DESIGN.md §13).
//!
//! A protocol consumes framed inbound events ([`HostEvent`]) and emits
//! outbound frames plus delivery decisions ([`HostAction`]) through
//! [`Ctx`], with no kernel types in the signature — the paper's whole
//! protocol contract (§3.2). Every host works this way: the simulator
//! and the explorer collect the actions in a reused buffer, the
//! realtime kernel gets them back from a
//! [`HostDriver`](crate::HostDriver), and all of them apply the batch
//! through the same kernel code. Any `impl Protocol` is a
//! [`ProtocolHost`] for free (the blanket impl hands it a [`Ctx`] over
//! a [`HostEnv`]), which is how the registry protocols and the reliable
//! link run unmodified behind a real socket.
//!
//! The split mirrors febft's `poll`/`process_message` ordering-protocol
//! interface: the *host* owns I/O, time, and scheduling; the *protocol*
//! owns ordering state and answers each event with a batch of actions
//! that the host applies (and journals) at one logical instant.

use crate::kernel::{Ctx, Protocol, RejectReason};
use crate::workload::Workload;
use msgorder_runs::{MessageId, MessageMeta, ProcessId};
use serde::{Deserialize, Serialize};

/// One framed inbound event a host feeds to a protocol instance.
///
/// These are exactly the protocol-visible occurrences of the simnet
/// kernel — init, send request (`x.s*` just executed), user frame
/// arrival (`x.r*` just executed), control frame arrival, timer — but
/// carry no kernel types, so they serialize onto a wire unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum HostEvent {
    /// One-time initialization, before any other event.
    Init,
    /// The user requested a send of `msg` (the host already recorded
    /// `x.s*`).
    Request {
        /// The requested workload message.
        msg: MessageId,
    },
    /// A user frame arrived (the host already recorded `x.r*`).
    UserFrame {
        /// Sending process.
        from: ProcessId,
        /// The workload message on the frame.
        msg: MessageId,
        /// Piggybacked protocol tag bytes.
        tag: Vec<u8>,
    },
    /// A control frame arrived.
    ControlFrame {
        /// Sending process.
        from: ProcessId,
        /// Opaque control payload.
        bytes: Vec<u8>,
    },
    /// A timer set via [`HostAction::SetTimer`] fired.
    Timer {
        /// The protocol's timer id.
        id: u64,
    },
}

/// One outbound action a protocol emits in response to a [`HostEvent`]:
/// a frame to put on the wire, a delivery decision, or a timer request.
///
/// The host applies the whole batch at the event's logical time and is
/// responsible for validation (ownership, double delivery, ids in
/// range, …) — invalid actions poison the run into a structured
/// counterexample.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum HostAction {
    /// Execute the send `x.s` of `msg`, piggybacking `tag`.
    SendUser {
        /// The message to send.
        msg: MessageId,
        /// Piggybacked tag bytes.
        tag: Vec<u8>,
    },
    /// Retransmit a previously sent user frame.
    ResendUser {
        /// The message to retransmit.
        msg: MessageId,
        /// Fresh tag bytes for the retransmitted copy.
        tag: Vec<u8>,
    },
    /// Execute the delivery `x.r` of `msg`.
    Deliver {
        /// The message to deliver.
        msg: MessageId,
    },
    /// Send a control frame.
    SendControl {
        /// Destination process.
        to: ProcessId,
        /// Opaque control payload.
        bytes: Vec<u8>,
    },
    /// Retransmit a control frame.
    ResendControl {
        /// Destination process.
        to: ProcessId,
        /// The retransmitted payload.
        bytes: Vec<u8>,
    },
    /// Request a timer callback after `delay` ticks.
    SetTimer {
        /// Ticks until the timer fires (clamped to ≥ 1 by the host).
        delay: u64,
        /// The protocol's timer id, echoed back in
        /// [`HostEvent::Timer`].
        id: u64,
    },
    /// Record that an incoming frame was refused (corrupted, forged,
    /// stale, or replayed) rather than acted on.
    RejectFrame {
        /// The claimed sender of the rejected frame.
        from: ProcessId,
        /// Why the frame was refused.
        reason: RejectReason,
    },
}

impl HostAction {
    /// Whether applying this action puts a frame on the wire (and thus
    /// consumes one transmit decision in the kernel).
    pub fn is_transmit(&self) -> bool {
        matches!(
            self,
            HostAction::SendUser { .. }
                | HostAction::ResendUser { .. }
                | HostAction::SendControl { .. }
                | HostAction::ResendControl { .. }
        )
    }
}

/// The protocol-side view of a host: static facts (node id, process
/// count, workload message metadata), the current logical time, and the
/// action buffer the protocol writes into.
///
/// A host keeps one `HostEnv` per protocol instance, updates
/// [`set_now`](HostEnv::set_now) before each event, and drains the
/// emitted actions with [`take_actions`](HostEnv::take_actions) after.
#[derive(Debug, Clone)]
pub struct HostEnv {
    pub(crate) node: usize,
    pub(crate) processes: usize,
    pub(crate) now: u64,
    /// This process's crash/restart epoch (0 until its first restart);
    /// the host's supervisor is authoritative.
    pub(crate) epoch: u64,
    pub(crate) metas: Vec<MessageMeta>,
    pub(crate) actions: Vec<HostAction>,
}

impl HostEnv {
    /// An environment for process `node` of `processes`, with workload
    /// message metadata derived from `workload` (ids are assigned in
    /// workload order, matching the kernel's numbering).
    pub fn new(node: usize, processes: usize, workload: &Workload) -> HostEnv {
        let metas = workload
            .sends
            .iter()
            .enumerate()
            .map(|(i, spec)| MessageMeta {
                id: MessageId(i),
                src: ProcessId(spec.src),
                dst: ProcessId(spec.dst),
                color: spec.color.clone(),
            })
            .collect();
        HostEnv {
            node,
            processes,
            now: 0,
            epoch: 0,
            metas,
            actions: Vec::new(),
        }
    }

    /// This environment's process id.
    pub fn node(&self) -> ProcessId {
        ProcessId(self.node)
    }

    /// The logical time the next event executes at.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Sets the logical time of the next event (the host's clock is
    /// authoritative; protocols only read it via [`Ctx::now`]).
    pub fn set_now(&mut self, now: u64) {
        self.now = now;
    }

    /// This process's crash/restart epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sets the crash/restart epoch (the host's supervisor bumps this
    /// when it restarts the process; protocols read it via
    /// [`Ctx::epoch`]).
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Whether every message and process id `ev` names exists in this
    /// environment. Events can arrive off a socket and protocol
    /// callbacks index by these ids, so a host whose events are not its
    /// own checks them here before
    /// [`process_event`](ProtocolHost::process_event) — the mirror of
    /// the kernel's range check on inbound actions.
    pub fn admits(&self, ev: &HostEvent) -> bool {
        match ev {
            HostEvent::Init | HostEvent::Timer { .. } => true,
            HostEvent::Request { msg } => msg.0 < self.metas.len(),
            HostEvent::UserFrame { from, msg, .. } => {
                from.0 < self.processes && msg.0 < self.metas.len()
            }
            HostEvent::ControlFrame { from, .. } => from.0 < self.processes,
        }
    }

    /// Drains the actions the protocol emitted since the last call, in
    /// emission order.
    pub fn take_actions(&mut self) -> Vec<HostAction> {
        std::mem::take(&mut self.actions)
    }
}

/// A protocol instance viewed through the transport-agnostic boundary:
/// consume one framed inbound event, emit outbound frames and delivery
/// decisions into the environment's action buffer.
///
/// Every [`Protocol`] implements this for free via the blanket impl —
/// including `Box<dyn Protocol>`, so registry-instantiated protocols
/// drive real transports unmodified.
pub trait ProtocolHost {
    /// Processes `ev`, appending emitted actions to `env`.
    fn process_event(&mut self, env: &mut HostEnv, ev: HostEvent);
}

impl<P: Protocol + ?Sized> ProtocolHost for P {
    fn process_event(&mut self, env: &mut HostEnv, ev: HostEvent) {
        let mut ctx = Ctx {
            node: env.node,
            now: env.now,
            processes: env.processes,
            epoch: env.epoch,
            metas: &env.metas,
            actions: &mut env.actions,
        };
        ctx.feed(self, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SendSpec;

    /// Send-and-deliver-immediately, with a control ping per frame.
    struct Chatty;
    impl Protocol for Chatty {
        fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
            ctx.send_user(msg, vec![7]);
            ctx.set_timer(10, 99);
        }
        fn on_user_frame(
            &mut self,
            ctx: &mut Ctx<'_>,
            from: ProcessId,
            msg: MessageId,
            _tag: Vec<u8>,
        ) {
            ctx.deliver(msg);
            ctx.send_control(from, vec![1, 2]);
        }
    }

    fn workload() -> Workload {
        Workload {
            sends: vec![SendSpec {
                at: 0,
                src: 0,
                dst: 1,
                color: None,
            }],
        }
    }

    #[test]
    fn blanket_impl_buffers_actions_in_emission_order() {
        let mut env = HostEnv::new(0, 2, &workload());
        env.set_now(5);
        let mut p = Chatty;
        p.process_event(&mut env, HostEvent::Request { msg: MessageId(0) });
        let actions = env.take_actions();
        assert_eq!(
            actions,
            vec![
                HostAction::SendUser {
                    msg: MessageId(0),
                    tag: vec![7],
                },
                HostAction::SetTimer { delay: 10, id: 99 },
            ]
        );
        assert!(env.take_actions().is_empty(), "drained");
    }

    #[test]
    fn env_admits_only_events_naming_known_ids() {
        let env = HostEnv::new(0, 2, &workload());
        let frame = |from, msg| HostEvent::UserFrame {
            from: ProcessId(from),
            msg: MessageId(msg),
            tag: vec![],
        };
        let control = |from| HostEvent::ControlFrame {
            from: ProcessId(from),
            bytes: vec![],
        };
        for ok in [
            HostEvent::Init,
            HostEvent::Timer { id: u64::MAX },
            HostEvent::Request { msg: MessageId(0) },
            frame(1, 0),
            control(1),
        ] {
            assert!(env.admits(&ok), "{ok:?}");
        }
        for bad in [
            HostEvent::Request { msg: MessageId(1) },
            frame(1, 1_000_000),
            frame(2, 0),
            control(usize::MAX),
        ] {
            assert!(!env.admits(&bad), "{bad:?}");
        }
    }

    #[test]
    fn host_ctx_reports_env_facts() {
        struct Probe;
        impl Protocol for Probe {
            fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
                assert_eq!(ctx.node(), ProcessId(0));
                assert_eq!(ctx.now(), 41);
                assert_eq!(ctx.process_count(), 2);
                assert_eq!(ctx.meta(msg).dst, ProcessId(1));
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
        let mut env = HostEnv::new(0, 2, &workload());
        env.set_now(41);
        Probe.process_event(&mut env, HostEvent::Request { msg: MessageId(0) });
    }

    #[test]
    fn boxed_dyn_protocol_is_a_protocol_host() {
        let mut env = HostEnv::new(1, 2, &workload());
        let mut p: Box<dyn Protocol> = Box::new(Chatty);
        p.process_event(
            &mut env,
            HostEvent::UserFrame {
                from: ProcessId(0),
                msg: MessageId(0),
                tag: vec![7],
            },
        );
        let actions = env.take_actions();
        assert_eq!(actions.len(), 2);
        assert_eq!(
            actions[0],
            HostAction::Deliver { msg: MessageId(0) },
            "delivery decision travels through the boundary"
        );
        assert!(actions[1].is_transmit());
    }

    #[test]
    fn host_events_and_actions_serialize_for_the_wire() {
        let ev = HostEvent::UserFrame {
            from: ProcessId(2),
            msg: MessageId(5),
            tag: vec![0xAB, 0x01],
        };
        let json = serde_json::to_string(&ev).expect("serializes");
        let back: HostEvent = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, ev);

        let a = HostAction::SetTimer {
            delay: 2_000,
            id: 1 << 63,
        };
        let json = serde_json::to_string(&a).expect("serializes");
        let back: HostAction = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, a);
    }
}
