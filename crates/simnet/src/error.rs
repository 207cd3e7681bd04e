//! Structured simulation failures: counterexamples instead of aborts.
//!
//! A protocol implementation bug used to `panic!` inside the kernel and
//! kill the whole process — one bad trace aborted an entire experiment
//! sweep. Instead, the kernel now *poisons* the world on the first
//! invalid action and surfaces a [`SimError`] carrying the offending
//! message, the simulated time, the partial captured run (the
//! counterexample trace), and the stats accumulated so far.

use crate::latency::LatencyOverflow;
use crate::liveness::LivenessVerdict;
use crate::stats::Stats;
use msgorder_runs::{MessageId, ProcessId, RunError, SystemRun};

/// The result of running a simulation: a [`StreamResult`] or a
/// structured counterexample.
///
/// [`StreamResult`]: crate::StreamResult
pub type SimOutcome = Result<crate::StreamResult, SimError>;

/// What kind of protocol (or kernel-capture) bug was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimErrorKind {
    /// `Ctx::send_user` called by a process that does not own the
    /// message.
    SendFromNonOwner {
        /// The process that actually owns the message.
        owner: ProcessId,
    },
    /// `Ctx::deliver` called at a process that is not the message's
    /// destination.
    DeliverAtNonDestination {
        /// The message's true destination.
        destination: ProcessId,
    },
    /// `Ctx::send_user` rejected by the run's feed (double send, send
    /// before request, …).
    InvalidSend(RunError),
    /// `Ctx::deliver` rejected by the run's feed (double delivery,
    /// delivery before receive, …).
    InvalidDelivery(RunError),
    /// A workload send request could not be recorded (kernel/workload
    /// inconsistency).
    InvalidRequest(RunError),
    /// A frame arrival could not be recorded (kernel/network
    /// inconsistency).
    InvalidReceive(RunError),
    /// `Ctx::resend_user` called for a message that was never sent (or
    /// by a non-owner).
    ResendBeforeSend,
    /// A latency sample overflowed `u64` — the frame could never be
    /// dispatched and would have wedged the event queue.
    LatencyOverflow(LatencyOverflow),
    /// Scheduling a frame at `now + delay` overflowed simulated time.
    TimeOverflow {
        /// The in-transit delay that pushed `now` past `u64::MAX`.
        delay: u64,
    },
    /// A replayed run requested more network decisions than the trace
    /// recorded — the setup being replayed does not match the recording.
    ReplayExhausted,
    /// A host failed to answer an event with a usable action batch: a
    /// real transport lost its remote protocol instance (connection
    /// lost past the reconnect budget, a malformed reply, a client gone
    /// for good), or an action named a message or process the run does
    /// not have.
    HostFailure {
        /// What the transport reported.
        detail: String,
    },
    /// The step limit tripped before the event queue drained: a
    /// livelocked (or wedged) protocol. Carries the liveness blame
    /// analysis of everything still pending at the limit.
    StepLimit {
        /// The step limit that was exhausted.
        steps: usize,
        /// Blame analysis of the pending frontier (possibly empty: a
        /// pure control-frame livelock leaves no user message pending).
        frontier: LivenessVerdict,
    },
}

impl SimErrorKind {
    /// A stable kebab-case discriminant name — the identity the
    /// counterexample shrinker preserves across reductions (two errors
    /// of the same discriminant are "the same bug" for shrinking).
    pub fn discriminant_name(&self) -> &'static str {
        match self {
            SimErrorKind::SendFromNonOwner { .. } => "send-from-non-owner",
            SimErrorKind::DeliverAtNonDestination { .. } => "deliver-at-non-destination",
            SimErrorKind::InvalidSend(_) => "invalid-send",
            SimErrorKind::InvalidDelivery(_) => "invalid-delivery",
            SimErrorKind::InvalidRequest(_) => "invalid-request",
            SimErrorKind::InvalidReceive(_) => "invalid-receive",
            SimErrorKind::ResendBeforeSend => "resend-before-send",
            SimErrorKind::LatencyOverflow(_) => "latency-overflow",
            SimErrorKind::TimeOverflow { .. } => "time-overflow",
            SimErrorKind::ReplayExhausted => "replay-exhausted",
            SimErrorKind::HostFailure { .. } => "host-failure",
            SimErrorKind::StepLimit { .. } => "step-limit",
        }
    }

    /// The liveness verdict attached to this error, if it carries one.
    pub fn liveness(&self) -> Option<&LivenessVerdict> {
        match self {
            SimErrorKind::StepLimit { frontier, .. } => Some(frontier),
            _ => None,
        }
    }
}

impl std::fmt::Display for SimErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimErrorKind::SendFromNonOwner { owner } => {
                write!(f, "send_user from a non-owner process (owner is {owner:?})")
            }
            SimErrorKind::DeliverAtNonDestination { destination } => write!(
                f,
                "deliver at a non-destination process (destination is {destination:?})"
            ),
            SimErrorKind::InvalidSend(e) => write!(f, "invalid send: {e}"),
            SimErrorKind::InvalidDelivery(e) => write!(f, "invalid delivery: {e}"),
            SimErrorKind::InvalidRequest(e) => write!(f, "invalid send request: {e}"),
            SimErrorKind::InvalidReceive(e) => write!(f, "invalid frame receive: {e}"),
            SimErrorKind::ResendBeforeSend => {
                write!(f, "resend of a message that was never sent")
            }
            SimErrorKind::LatencyOverflow(o) => write!(f, "{o}"),
            SimErrorKind::TimeOverflow { delay } => {
                write!(
                    f,
                    "simulated time overflow scheduling a frame {delay} ticks out"
                )
            }
            SimErrorKind::ReplayExhausted => {
                write!(
                    f,
                    "replay decision log exhausted: run diverged from the recording"
                )
            }
            SimErrorKind::HostFailure { detail } => {
                write!(f, "transport host failure: {detail}")
            }
            SimErrorKind::StepLimit { steps, frontier } => {
                write!(
                    f,
                    "step limit ({steps}) exhausted with {} user message(s) pending",
                    frontier.stuck_count()
                )?;
                if let Some(class) = frontier.primary_class() {
                    write!(f, " [{class}]")?;
                }
                Ok(())
            }
        }
    }
}

/// A counterexample: where and when a simulation went wrong.
#[derive(Debug, Clone)]
pub struct SimError {
    /// What went wrong.
    pub kind: SimErrorKind,
    /// The process whose protocol instance triggered the error.
    pub node: ProcessId,
    /// The offending message, when the error concerns one.
    pub msg: Option<MessageId>,
    /// Simulated time at which the error occurred.
    pub time: u64,
    /// The partial run captured up to (but excluding) the invalid
    /// action — the counterexample trace. `None` only on an error that
    /// never ran (one built by hand).
    pub trace: Option<SystemRun>,
    /// Stats accumulated up to the error.
    pub stats: Stats,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol bug at t={} on {:?}", self.time, self.node)?;
        if let Some(m) = self.msg {
            write!(f, " ({m})")?;
        }
        write!(f, ": {}", self.kind)
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_time_node_and_message() {
        let e = SimError {
            kind: SimErrorKind::SendFromNonOwner {
                owner: ProcessId(2),
            },
            node: ProcessId(0),
            msg: Some(MessageId(7)),
            time: 41,
            trace: None,
            stats: Stats::default(),
        };
        let s = e.to_string();
        assert!(s.contains("t=41"), "{s}");
        assert!(s.contains("non-owner"), "{s}");
    }
}
