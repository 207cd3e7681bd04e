//! Validation errors for runs.

use crate::ids::{MessageId, ProcessId, SystemEvent};
use std::error::Error;
use std::fmt;

/// Why a (would-be) run violates the paper's run conditions (§3.1) or the
/// feed's sequencing rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A process index was `>= n`.
    ProcessOutOfRange {
        /// The offending process.
        process: ProcessId,
        /// Number of processes in the run.
        n: usize,
    },
    /// A message id was never declared via the builder.
    UnknownMessage(MessageId),
    /// The same event was appended twice.
    DuplicateEvent(SystemEvent),
    /// Condition 3: `x.s` appeared without a preceding `x.s*`, or `x.r`
    /// without a preceding `x.r*` in the same process sequence.
    ExecutionBeforeRequest(SystemEvent),
    /// Condition 2: `x.r*` appeared although `x.s` has not occurred.
    ReceiveBeforeSend(MessageId),
    /// Condition 1: the induced relation `→` is not a partial order.
    /// (Cannot arise through the incremental builder, which appends
    /// events in a global total order, but is checked for bulk input.)
    NotAPartialOrder,
    /// An event was placed on the wrong process (e.g. a send event of
    /// `x ∈ M_ij` on a process other than `i`).
    WrongProcess {
        /// The misplaced event.
        event: SystemEvent,
        /// Where it was placed.
        found: ProcessId,
        /// Where it belongs.
        expected: ProcessId,
    },
    /// A user run contained a delivery ordered at-or-before its own send,
    /// or lacked the `x.s ▷ x.r` edge required of complete runs.
    SendDeliverOrder(MessageId),
    /// A user run's order relation is cyclic.
    CyclicOrder,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::ProcessOutOfRange { process, n } => {
                write!(f, "{process} out of range for {n} processes")
            }
            RunError::UnknownMessage(m) => write!(f, "unknown message {m}"),
            RunError::DuplicateEvent(e) => write!(f, "event {e} appended twice"),
            RunError::ExecutionBeforeRequest(e) => {
                write!(f, "execution event {e} has no preceding request event")
            }
            RunError::ReceiveBeforeSend(m) => {
                write!(f, "message {m} received before it was sent")
            }
            RunError::NotAPartialOrder => write!(f, "induced relation is not a partial order"),
            RunError::WrongProcess {
                event,
                found,
                expected,
            } => write!(f, "event {event} placed on {found}, belongs on {expected}"),
            RunError::SendDeliverOrder(m) => {
                write!(f, "message {m} lacks s ▷ r or has r ▷ s in the user view")
            }
            RunError::CyclicOrder => write!(f, "user-view order relation is cyclic"),
        }
    }
}

impl Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EventKind;

    #[test]
    fn displays_are_informative() {
        let e = RunError::ReceiveBeforeSend(MessageId(7));
        assert!(e.to_string().contains("m7"));
        let e = RunError::WrongProcess {
            event: SystemEvent::new(MessageId(1), EventKind::Send),
            found: ProcessId(2),
            expected: ProcessId(0),
        };
        assert!(e.to_string().contains("P2"));
        assert!(e.to_string().contains("P0"));
    }
}
