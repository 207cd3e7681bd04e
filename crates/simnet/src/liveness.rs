//! Liveness verdicts: structured blame analysis over the pending
//! frontier of a run that ended non-quiescent.
//!
//! The paper's characterization (Theorem 1, Lemma 2) is about *safety*;
//! its protocols are only meaningful if inhibition never becomes
//! deadlock. Under a [`FaultModel`](crate::FaultModel) a "safe" run can
//! simply wedge — the final retransmit black-holed, a partition never
//! healed, a process crashed forever — and a bare `is_quiescent()`
//! boolean (or a silent step-limit trip) explains none of it. A
//! [`LivenessVerdict`] instead names, for every pending message, the
//! system event (`s*`, `s`, `r*`, `r`, per §3.1) it is stuck at, the
//! process or link responsible, and the proximate cause the kernel can
//! prove from its own journal: all frame copies eaten by loss or an
//! unhealed partition, arrival at a crashed-forever process, a request
//! lost with its crashed owner, or the protocol inhibiting the
//! controllable event without ever executing it.

use crate::kernel::DropReason;
use msgorder_runs::{MessageId, ProcessId};
use serde::{Deserialize, Serialize};

/// The system event (§3.1) a pending message is stuck *before*: the
/// first of its four events that has not executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StuckStage {
    /// `x.s*` never executed — the send request never reached its owner.
    Request,
    /// `x.s` never executed — the protocol never released the send.
    Send,
    /// `x.r*` never executed — no frame copy ever arrived.
    Receive,
    /// `x.r` never executed — the protocol never released the delivery.
    Deliver,
}

impl StuckStage {
    /// The paper's event notation for this stage.
    pub fn notation(self) -> &'static str {
        match self {
            StuckStage::Request => "s*",
            StuckStage::Send => "s",
            StuckStage::Receive => "r*",
            StuckStage::Deliver => "r",
        }
    }

    fn class(self) -> &'static str {
        match self {
            StuckStage::Request => "request",
            StuckStage::Send => "send",
            StuckStage::Receive => "receive",
            StuckStage::Deliver => "deliver",
        }
    }
}

/// Who the blame analysis holds responsible for a stuck message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Blame {
    /// A process (its protocol instance, or its crash schedule).
    Process(ProcessId),
    /// The directed network link the message's frames traveled.
    Link {
        /// Sending endpoint.
        from: ProcessId,
        /// Receiving endpoint.
        to: ProcessId,
    },
}

impl std::fmt::Display for Blame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Blame::Process(p) => write!(f, "P{}", p.0),
            Blame::Link { from, to } => write!(f, "link P{}->P{}", from.0, to.0),
        }
    }
}

/// The proximate cause the kernel can prove for a stuck message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StuckCause {
    /// Every copy of the frame put on the wire was eaten by the fault
    /// layer. `attempts > 1` means the protocol *did* retransmit and the
    /// final retransmit was dropped too — the retry budget is exhausted.
    FrameLost {
        /// Why the last copy was eaten.
        reason: DropReason,
        /// Copies put on the wire (first send, retransmits, duplicates).
        attempts: u32,
    },
    /// The frame was eaten by a partition whose window never closed
    /// before the run ended — the partition never healed.
    PartitionNeverHealed {
        /// One endpoint of the unhealed partition.
        a: ProcessId,
        /// The other endpoint.
        b: ProcessId,
        /// The partition's (unreached) healing tick.
        until: u64,
    },
    /// One or more copies reached the destination while it was crashed,
    /// and the destination never restarted.
    ArrivalAtCrashedProcess {
        /// The crashed destination.
        node: ProcessId,
    },
    /// The responsible process crashed without restarting: its pending
    /// work (the send request, or the delivery of an already-received
    /// frame) died with it.
    CrashedWithoutRestart {
        /// The crashed process.
        node: ProcessId,
    },
    /// The frame (or the event's dispatch) was still pending in the
    /// event queue when the step limit tripped.
    InFlight,
    /// The responsible process refused incoming frames (corrupted,
    /// forged, stale, or replayed) and then never executed the
    /// controllable event: the protocol survived the adversary's input
    /// but lost the state those frames carried.
    RejectedFrames {
        /// How many frames the process rejected.
        rejections: u32,
    },
    /// The responsible process was fed forged control frames and then
    /// wedged: its protocol state was likely poisoned by input no peer
    /// ever sent.
    ForgedControl {
        /// How many forged control frames were delivered to it.
        forged: u32,
    },
    /// Everything the network owed was delivered, the process is up, and
    /// the protocol still never executed the controllable event:
    /// inhibition became deadlock.
    ProtocolInhibited,
}

impl StuckCause {
    fn class(&self) -> String {
        match self {
            StuckCause::FrameLost {
                reason: DropReason::Loss,
                ..
            } => "frame-lost:loss".to_owned(),
            StuckCause::FrameLost {
                reason: DropReason::Partition,
                ..
            } => "frame-lost:partition".to_owned(),
            StuckCause::PartitionNeverHealed { .. } => "partition-never-healed".to_owned(),
            StuckCause::ArrivalAtCrashedProcess { .. } => "arrival-at-crashed".to_owned(),
            StuckCause::CrashedWithoutRestart { .. } => "crashed-without-restart".to_owned(),
            StuckCause::InFlight => "in-flight".to_owned(),
            StuckCause::RejectedFrames { .. } => "rejected-frames".to_owned(),
            StuckCause::ForgedControl { .. } => "forged-control".to_owned(),
            StuckCause::ProtocolInhibited => "protocol-inhibited".to_owned(),
        }
    }
}

impl std::fmt::Display for StuckCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StuckCause::FrameLost { reason, attempts } => {
                let why = match reason {
                    DropReason::Loss => "random loss",
                    DropReason::Partition => "a partition",
                };
                if *attempts > 1 {
                    write!(
                        f,
                        "all {attempts} transmissions eaten by {why} (final retransmit \
                         dropped; retry budget exhausted)"
                    )
                } else {
                    write!(f, "the only transmission was eaten by {why}")
                }
            }
            StuckCause::PartitionNeverHealed { a, b, until } => write!(
                f,
                "partition P{}<->P{} never healed (heals at t={until}, run ended first)",
                a.0, b.0
            ),
            StuckCause::ArrivalAtCrashedProcess { node } => {
                write!(f, "frame arrived at P{} while it was crashed", node.0)
            }
            StuckCause::CrashedWithoutRestart { node } => {
                write!(f, "P{} crashed and never restarted", node.0)
            }
            StuckCause::InFlight => write!(f, "still pending in the event queue"),
            StuckCause::RejectedFrames { rejections } => write!(
                f,
                "stuck after rejecting {rejections} adversarial frame(s) \
                 (state the frames carried never arrived intact)"
            ),
            StuckCause::ForgedControl { forged } => write!(
                f,
                "wedged after receiving {forged} forged control frame(s) \
                 (protocol state likely poisoned by forgery)"
            ),
            StuckCause::ProtocolInhibited => {
                write!(
                    f,
                    "protocol inhibited the event forever (deadlocked inhibition)"
                )
            }
        }
    }
}

/// One message of the pending frontier, with the kernel's blame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StuckMessage {
    /// The pending message.
    pub msg: MessageId,
    /// The system event it is stuck before.
    pub stage: StuckStage,
    /// The process or link held responsible.
    pub blame: Blame,
    /// The proximate cause.
    pub cause: StuckCause,
}

impl StuckMessage {
    /// The message's blame class: `stage:cause`, e.g.
    /// `receive:frame-lost:loss` — the deduplication key the shrinker
    /// and the chaos sweep group counterexamples by.
    pub fn class(&self) -> String {
        format!("{}:{}", self.stage.class(), self.cause.class())
    }
}

impl std::fmt::Display for StuckMessage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} stuck at `{}` ({}): {}",
            self.msg,
            self.stage.notation(),
            self.blame,
            self.cause
        )
    }
}

/// The structured diagnosis of a non-quiescent run: every pending
/// message with the system event it is stuck at, the responsible
/// process or link, and the proximate cause.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LivenessVerdict {
    /// The pending frontier, in message-id order.
    pub stuck: Vec<StuckMessage>,
    /// Whether the run was cut by the step limit (`true`) or drained
    /// its event queue and wedged (`false`).
    pub step_limited: bool,
    /// Simulated time the run ended at.
    pub end_time: u64,
}

impl LivenessVerdict {
    /// The distinct blame classes of the frontier, sorted — the verdict
    /// identity the shrinker preserves.
    pub fn classes(&self) -> Vec<String> {
        let mut cs: Vec<String> = self.stuck.iter().map(StuckMessage::class).collect();
        cs.sort_unstable();
        cs.dedup();
        cs
    }

    /// The lexicographically first blame class — a one-token summary.
    pub fn primary_class(&self) -> Option<String> {
        self.classes().into_iter().next()
    }

    /// Messages stuck on the frontier.
    pub fn stuck_count(&self) -> usize {
        self.stuck.len()
    }
}

impl std::fmt::Display for LivenessVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} message(s) pending at t={}{}:",
            self.stuck.len(),
            self.end_time,
            if self.step_limited {
                " (step limit tripped)"
            } else {
                " (event queue drained)"
            }
        )?;
        for s in &self.stuck {
            writeln!(f, "  {s}")?;
        }
        Ok(())
    }
}

/// Per-user-message wire accounting the kernel keeps for blame
/// analysis: how many frame copies went out, how many the fault layer
/// ate, and what happened to the rest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FrameFate {
    /// Copies put on the wire (first send + retransmits + duplicates).
    pub attempts: u32,
    /// Copies eaten at transmit time (loss or partition).
    pub dropped: u32,
    /// Why the last eaten copy was eaten.
    pub last_drop: Option<DropReason>,
    /// Copies that arrived at a crashed destination and were lost.
    pub crashed_arrivals: u32,
    /// The send request was lost to a permanent crash of its owner.
    pub request_lost: bool,
}

/// Runs the blame analysis over the world's pending frontier. Returns
/// `None` when the run is quiescent (nothing pending).
pub(crate) fn analyze(world: &crate::kernel::World, step_limited: bool) -> Option<LivenessVerdict> {
    let end = world.now;
    let faults = &world.faults;
    // A process is gone iff it is down at the end of the run with no
    // restart ever coming (`down_until` yields the permanent marker).
    let gone = |p: usize| matches!(faults.down_until(p, end), Some(None));
    // Where the benign analysis would conclude "the protocol inhibited
    // the event forever", an adversarial history at the blamed process
    // is the more proximate cause: it either refused frames (and lost
    // the state they carried) or was fed forged control input.
    let inhibited = |p: ProcessId| {
        let track = &world.nodes[p.0];
        if track.rejected > 0 {
            StuckCause::RejectedFrames {
                rejections: track.rejected,
            }
        } else if track.forged > 0 {
            StuckCause::ForgedControl {
                forged: track.forged,
            }
        } else {
            StuckCause::ProtocolInhibited
        }
    };
    let mut stuck = Vec::new();
    for meta in world.builder.messages() {
        let m = meta.id;
        if world.builder.contains(msgorder_runs::SystemEvent::new(
            m,
            msgorder_runs::EventKind::Deliver,
        )) {
            continue;
        }
        let track = &world.messages[m.0];
        let invoked = track.invoked_at.is_some();
        let sent = track.sent;
        let received = track.received_at.is_some();
        let fate = &track.fate;
        let (src, dst) = (meta.src, meta.dst);
        let (stage, blame, cause) = if !invoked {
            let cause = if fate.request_lost || gone(src.0) {
                StuckCause::CrashedWithoutRestart { node: src }
            } else if step_limited {
                StuckCause::InFlight
            } else {
                inhibited(src)
            };
            (StuckStage::Request, Blame::Process(src), cause)
        } else if !sent {
            let cause = if gone(src.0) {
                StuckCause::CrashedWithoutRestart { node: src }
            } else {
                inhibited(src)
            };
            (StuckStage::Send, Blame::Process(src), cause)
        } else if !received {
            let in_flight = fate.attempts > fate.dropped + fate.crashed_arrivals;
            let (blame, cause) = if in_flight {
                // A copy is still scheduled: only the step limit can
                // leave it unprocessed.
                (Blame::Link { from: src, to: dst }, StuckCause::InFlight)
            } else if fate.crashed_arrivals > 0 && gone(dst.0) {
                (
                    Blame::Process(dst),
                    StuckCause::ArrivalAtCrashedProcess { node: dst },
                )
            } else if fate.last_drop == Some(DropReason::Partition) {
                match unhealed_partition(faults, src.0, dst.0, end) {
                    Some((a, b, until)) => (
                        Blame::Link { from: src, to: dst },
                        StuckCause::PartitionNeverHealed {
                            a: ProcessId(a),
                            b: ProcessId(b),
                            until,
                        },
                    ),
                    None => (
                        Blame::Link { from: src, to: dst },
                        StuckCause::FrameLost {
                            reason: DropReason::Partition,
                            attempts: fate.attempts,
                        },
                    ),
                }
            } else if fate.dropped > 0 {
                (
                    Blame::Link { from: src, to: dst },
                    StuckCause::FrameLost {
                        reason: DropReason::Loss,
                        attempts: fate.attempts,
                    },
                )
            } else if fate.crashed_arrivals > 0 {
                // Destination was down on arrival but has (or had) a
                // restart: the copy was lost all the same.
                (
                    Blame::Process(dst),
                    StuckCause::ArrivalAtCrashedProcess { node: dst },
                )
            } else {
                // No copy ever transmitted and yet `sent` — cannot
                // happen through `Ctx::send_user`; blame the protocol.
                (Blame::Process(src), StuckCause::ProtocolInhibited)
            };
            (StuckStage::Receive, blame, cause)
        } else {
            let cause = if gone(dst.0) {
                StuckCause::CrashedWithoutRestart { node: dst }
            } else {
                inhibited(dst)
            };
            (StuckStage::Deliver, Blame::Process(dst), cause)
        };
        stuck.push(StuckMessage {
            msg: m,
            stage,
            blame,
            cause,
        });
    }
    if stuck.is_empty() {
        None
    } else {
        Some(LivenessVerdict {
            stuck,
            step_limited,
            end_time: end,
        })
    }
}

/// Finds a partition over the `a<->b` link that was active at some
/// point and whose healing tick lies past the end of the run.
fn unhealed_partition(
    faults: &crate::FaultModel,
    a: usize,
    b: usize,
    end: u64,
) -> Option<(usize, usize, u64)> {
    faults
        .partitions
        .iter()
        .filter(|p| (p.a == a && p.b == b) || (p.a == b && p.b == a))
        .find(|p| p.until > end)
        .map(|p| (p.a, p.b, p.until))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_sorted_and_deduplicated() {
        let v = LivenessVerdict {
            stuck: vec![
                StuckMessage {
                    msg: MessageId(1),
                    stage: StuckStage::Receive,
                    blame: Blame::Link {
                        from: ProcessId(0),
                        to: ProcessId(1),
                    },
                    cause: StuckCause::FrameLost {
                        reason: DropReason::Loss,
                        attempts: 3,
                    },
                },
                StuckMessage {
                    msg: MessageId(0),
                    stage: StuckStage::Deliver,
                    blame: Blame::Process(ProcessId(1)),
                    cause: StuckCause::ProtocolInhibited,
                },
                StuckMessage {
                    msg: MessageId(2),
                    stage: StuckStage::Receive,
                    blame: Blame::Link {
                        from: ProcessId(0),
                        to: ProcessId(1),
                    },
                    cause: StuckCause::FrameLost {
                        reason: DropReason::Loss,
                        attempts: 1,
                    },
                },
            ],
            step_limited: false,
            end_time: 99,
        };
        assert_eq!(
            v.classes(),
            vec![
                "deliver:protocol-inhibited".to_owned(),
                "receive:frame-lost:loss".to_owned()
            ]
        );
        assert_eq!(v.primary_class().unwrap(), "deliver:protocol-inhibited");
        assert_eq!(v.stuck_count(), 3);
    }

    #[test]
    fn display_names_stage_blame_and_cause() {
        let s = StuckMessage {
            msg: MessageId(4),
            stage: StuckStage::Receive,
            blame: Blame::Link {
                from: ProcessId(0),
                to: ProcessId(2),
            },
            cause: StuckCause::FrameLost {
                reason: DropReason::Loss,
                attempts: 10,
            },
        };
        let text = s.to_string();
        assert!(text.contains("r*"), "{text}");
        assert!(text.contains("link P0->P2"), "{text}");
        assert!(text.contains("retry budget exhausted"), "{text}");
        assert_eq!(s.class(), "receive:frame-lost:loss");
    }
}
