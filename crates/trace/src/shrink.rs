//! Counterexample shrinking: delta-debug a replayable trace down to a
//! minimal reproducer.
//!
//! A chaos sweep (or an unlucky seed) hands you a violation buried in a
//! 30-message, 5-process run with three partitions and a pile of
//! irrelevant drop decisions. The shrinker reduces it the way
//! delta-debugging frameworks do: propose a smaller candidate, re-run
//! it through the kernel's [`with_replay`](msgorder_simnet::Simulation::with_replay)
//! machinery, and keep the edit only if the **verdict class** is
//! preserved — the same [`SimErrorKind`] discriminant, the same
//! violated predicate, or the same liveness blame classes — and the
//! event stream did not grow.
//!
//! Reduction passes, applied in rounds until a fixpoint:
//!
//! 1. **Message removal** — ddmin over the workload's sends (chunked
//!    removal with halving granularity, then singles).
//! 2. **Process-count reduction** — drop processes no remaining send
//!    touches, remapping ids densely and discarding their fault
//!    schedule entries.
//! 3. **Fault-schedule reduction** — remove whole partitions and
//!    crashes; shorten partition windows.
//! 4. **Decision pruning** — cancel duplicate deliveries
//!    (`dup_delay := None`) and drop verdicts (`dropped := None`) of
//!    individual recorded [`TransmitDecision`]s.
//!
//! Every accepted candidate is *re-normalized*: the decision log is
//! replaced by the decisions the candidate actually consumed, so the
//! final artifact is a self-consistent, still-replayable [`Trace`].

use crate::{assemble_trace, reexecute, Recorded, Setup, Trace, TraceError};
use msgorder_predicate::ForbiddenPredicate;
use msgorder_simnet::{KernelEvent, SimErrorKind, TransmitDecision};

/// The identity a shrink step must preserve: what kind of failure the
/// trace demonstrates, abstracted from incidental detail (times,
/// message ids, event counts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerdictClass {
    /// A protocol/kernel bug, by [`SimErrorKind`] discriminant
    /// (`"invalid-delivery"`, `"send-from-non-owner"`, …).
    Bug {
        /// The discriminant name.
        kind: String,
    },
    /// Step-limit exhaustion, with the blame classes of the frontier.
    StepLimited {
        /// Sorted distinct blame classes (possibly empty for a pure
        /// control-frame livelock).
        classes: Vec<String>,
    },
    /// The recorded forbidden predicate was satisfied.
    SpecViolated,
    /// The run drained but wedged non-quiescent, with the blame classes
    /// of the frontier.
    NonLive {
        /// Sorted distinct blame classes.
        classes: Vec<String>,
    },
}

impl std::fmt::Display for VerdictClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerdictClass::Bug { kind } => write!(f, "bug:{kind}"),
            VerdictClass::StepLimited { classes } => {
                write!(f, "step-limit:{}", classes.join(","))
            }
            VerdictClass::SpecViolated => write!(f, "spec-violated"),
            VerdictClass::NonLive { classes } => write!(f, "non-live:{}", classes.join(",")),
        }
    }
}

/// A shrink candidate: a setup plus the decision log it replays.
struct Candidate {
    setup: Setup,
    decisions: Vec<TransmitDecision>,
}

/// Executes a candidate bit-exactly: the kernel replays the decision
/// log instead of sampling, so two runs of the same candidate are
/// identical and acceptance is deterministic.
fn execute(
    setup: &Setup,
    decisions: Vec<TransmitDecision>,
    spec: Option<&ForbiddenPredicate>,
) -> Result<Recorded, TraceError> {
    let (events, outcome) = reexecute(setup, spec, decisions)?;
    let trace = assemble_trace(setup, events, &outcome, spec)?;
    Ok(Recorded { trace, outcome })
}

/// Classifies a recorded run, or `None` if it demonstrates nothing
/// (clean, quiescent, spec-satisfying run — nothing to preserve) — also
/// used by the chaos sweep to triage freshly recorded trials.
pub(crate) fn classify(rec: &Recorded) -> Option<VerdictClass> {
    match &rec.outcome {
        Err(e) => match &e.kind {
            SimErrorKind::StepLimit { frontier, .. } => Some(VerdictClass::StepLimited {
                classes: frontier.classes(),
            }),
            k => Some(VerdictClass::Bug {
                kind: k.discriminant_name().to_owned(),
            }),
        },
        Ok(sr) => {
            let verdict = rec.trace.footer.verdict.as_ref();
            if verdict.is_some_and(|v| v.violated) {
                Some(VerdictClass::SpecViolated)
            } else {
                sr.liveness.as_ref().map(|v| VerdictClass::NonLive {
                    classes: v.classes(),
                })
            }
        }
    }
}

/// What the shrinker did, pass by pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShrinkReport {
    /// The preserved verdict class.
    pub class: VerdictClass,
    /// Kernel events in the input trace.
    pub events_before: usize,
    /// Kernel events in the minimized trace.
    pub events_after: usize,
    /// Workload messages before / after.
    pub messages_before: usize,
    /// Workload messages after shrinking.
    pub messages_after: usize,
    /// Process count before shrinking.
    pub processes_before: usize,
    /// Process count after shrinking.
    pub processes_after: usize,
    /// Candidate executions tried.
    pub candidates_tried: usize,
    /// Candidates accepted (verdict preserved, no growth).
    pub candidates_accepted: usize,
    /// Fixpoint rounds run.
    pub rounds: usize,
}

impl ShrinkReport {
    /// Fraction of kernel events removed, in `[0, 1]`.
    pub fn reduction(&self) -> f64 {
        if self.events_before == 0 {
            return 0.0;
        }
        1.0 - self.events_after as f64 / self.events_before as f64
    }
}

/// A minimized trace plus the reduction accounting.
#[derive(Debug)]
pub struct Shrunk {
    /// The minimized, still-replayable trace.
    pub trace: Trace,
    /// What was removed and what was preserved.
    pub report: ShrinkReport,
}

/// What can go wrong shrinking.
#[derive(Debug)]
pub enum ShrinkError {
    /// The trace demonstrates nothing: clean, quiescent, and
    /// spec-satisfying — there is no verdict to preserve.
    NothingToShrink,
    /// The baseline re-execution did not reproduce any verdict (e.g.
    /// the trace's protocol is outside the registry, or the recording
    /// is inconsistent).
    Trace(TraceError),
}

impl std::fmt::Display for ShrinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShrinkError::NothingToShrink => {
                write!(f, "trace demonstrates no violation: nothing to shrink")
            }
            ShrinkError::Trace(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ShrinkError {}

impl From<TraceError> for ShrinkError {
    fn from(e: TraceError) -> Self {
        ShrinkError::Trace(e)
    }
}

/// The shrinking engine: holds the current best candidate and its
/// accounting.
struct Shrinker<'p> {
    /// The best reproducer so far, as the trace its last execution
    /// assembled to: its setup is what the passes edit, its event
    /// stream is the yardstick candidates must not grow past and the
    /// map from decision index to the message its frame carried, and
    /// the trace itself is the shrinker's result.
    trace: Trace,
    /// The decisions `trace` consumed (replaying them under its setup
    /// reproduces it exactly).
    decisions: Vec<TransmitDecision>,
    class: VerdictClass,
    spec: Option<&'p ForbiddenPredicate>,
    tried: usize,
    accepted: usize,
}

impl Shrinker<'_> {
    fn setup(&self) -> &Setup {
        &self.trace.header.setup
    }

    /// Offers a candidate; adopts it (re-normalizing its decision log
    /// to what it actually consumed) iff it reproduces the verdict
    /// class without growing the event stream.
    fn offer(&mut self, cand: Candidate) -> bool {
        self.tried += 1;
        let Ok(exec) = execute(&cand.setup, cand.decisions, self.spec) else {
            return false;
        };
        if classify(&exec) != Some(self.class.clone())
            || exec.trace.events.len() > self.trace.events.len()
        {
            return false;
        }
        self.accepted += 1;
        self.decisions = exec.trace.decisions();
        self.trace = exec.trace;
        true
    }

    /// The current decision log with the decisions of frames that
    /// carried a removed message filtered out. Decisions bind to
    /// transmits *positionally*, so deleting a send without deleting
    /// its wire decisions shifts every later frame onto the wrong
    /// decision; this keeps the survivors aligned. (Control frames a
    /// removed message provoked — acks, releases — cannot be attributed
    /// and stay; the unfiltered fallback covers scenarios where that
    /// matters.)
    fn decisions_without(&self, removed: &[bool]) -> Vec<TransmitDecision> {
        self.trace
            .events
            .iter()
            .filter_map(|e| match e {
                KernelEvent::Wire(w) => match w.payload {
                    msgorder_simnet::PayloadKind::User { msg, .. }
                        if removed.get(msg.0).copied().unwrap_or(false) =>
                    {
                        None
                    }
                    _ => Some(w.decision),
                },
                _ => None,
            })
            .collect()
    }

    /// Pass 1: ddmin over the workload's sends.
    fn shrink_messages(&mut self) -> bool {
        let mut improved = false;
        let mut chunk = (self.setup().workload.len() / 2).max(1);
        loop {
            let len = self.setup().workload.len();
            if len <= 1 {
                break;
            }
            let mut start = 0;
            let mut removed_any = false;
            while start < self.setup().workload.len() {
                let mut setup = self.setup().clone();
                let end = (start + chunk).min(setup.workload.sends.len());
                setup.workload.sends.drain(start..end);
                if setup.workload.sends.is_empty() {
                    start += chunk;
                    continue;
                }
                let mut removed = vec![false; self.setup().workload.len()];
                removed[start..end].fill(true);
                // Filtered decisions first (survivors stay aligned with
                // their original latencies/drops), raw log as fallback.
                let accepted = self.offer(Candidate {
                    setup: setup.clone(),
                    decisions: self.decisions_without(&removed),
                }) || self.offer(Candidate {
                    setup,
                    decisions: self.decisions.clone(),
                });
                if accepted {
                    improved = true;
                    removed_any = true;
                    // The tail shifted down onto `start`; retry there.
                } else {
                    start += chunk;
                }
            }
            if chunk == 1 {
                if !removed_any {
                    break;
                }
            } else {
                chunk = (chunk / 2).max(1);
            }
        }
        improved
    }

    /// Pass 2: drop processes no send touches, remapping ids densely.
    fn shrink_processes(&mut self) -> bool {
        let setup = self.setup();
        let n = setup.processes;
        let mut used = vec![false; n];
        for s in &setup.workload.sends {
            used[s.src] = true;
            used[s.dst] = true;
        }
        if used.iter().all(|&u| u) {
            return false;
        }
        let mut remap = vec![usize::MAX; n];
        let mut next = 0usize;
        for (old, &u) in used.iter().enumerate() {
            if u {
                remap[old] = next;
                next += 1;
            }
        }
        let mut new = setup.clone();
        new.processes = next;
        for s in &mut new.workload.sends {
            s.src = remap[s.src];
            s.dst = remap[s.dst];
        }
        new.faults.partitions.retain(|p| used[p.a] && used[p.b]);
        for p in &mut new.faults.partitions {
            p.a = remap[p.a];
            p.b = remap[p.b];
        }
        new.faults.crashes.retain(|c| used[c.process]);
        for c in &mut new.faults.crashes {
            c.process = remap[c.process];
        }
        self.offer(Candidate {
            setup: new,
            decisions: self.decisions.clone(),
        })
    }

    /// Pass 3: remove whole partitions and crashes; halve partition
    /// windows.
    fn shrink_faults(&mut self) -> bool {
        let mut improved = false;
        // Whole-partition removal (index-stable loop: retry the same
        // index after a removal shifts the tail down).
        let mut i = 0;
        while i < self.setup().faults.partitions.len() {
            let mut setup = self.setup().clone();
            setup.faults.partitions.remove(i);
            if self.offer(Candidate {
                setup,
                decisions: self.decisions.clone(),
            }) {
                improved = true;
            } else {
                i += 1;
            }
        }
        // Window halving for the partitions that remain.
        for i in 0..self.setup().faults.partitions.len() {
            loop {
                let p = self.setup().faults.partitions[i];
                let width = p.until.saturating_sub(p.from);
                if width <= 1 {
                    break;
                }
                let mut setup = self.setup().clone();
                setup.faults.partitions[i].until = p.from + width / 2;
                if !self.offer(Candidate {
                    setup,
                    decisions: self.decisions.clone(),
                }) {
                    break;
                }
                improved = true;
            }
        }
        let mut i = 0;
        while i < self.setup().faults.crashes.len() {
            let mut setup = self.setup().clone();
            setup.faults.crashes.remove(i);
            if self.offer(Candidate {
                setup,
                decisions: self.decisions.clone(),
            }) {
                improved = true;
            } else {
                i += 1;
            }
        }
        improved
    }

    /// Pass 4: prune individual decisions — cancel duplications, then
    /// adversarial injections (corruptions, forgeries, stale replays,
    /// reorder pushes), then drops. Each neutralized decision makes the
    /// counterexample read one fault simpler.
    fn shrink_decisions(&mut self) -> bool {
        // Each entry neutralizes one kind of per-decision fault; applied
        // in order so the cheapest explanation (fewest injected faults)
        // survives.
        type Pass = (
            fn(&msgorder_simnet::TransmitDecision) -> bool,
            fn(&mut msgorder_simnet::TransmitDecision),
        );
        const PASSES: [Pass; 6] = [
            (|d| d.dup_delay.is_some(), |d| d.dup_delay = None),
            (|d| d.corrupt.is_some(), |d| d.corrupt = None),
            (|d| d.forge.is_some(), |d| d.forge = None),
            (|d| d.replay_delay.is_some(), |d| d.replay_delay = None),
            (|d| d.reorder_extra != 0, |d| d.reorder_extra = 0),
            (|d| d.dropped.is_some(), |d| d.dropped = None),
        ];
        let mut improved = false;
        for (applies, neutralize) in PASSES {
            for i in 0..self.decisions.len() {
                if i >= self.decisions.len() {
                    break;
                }
                if applies(&self.decisions[i]) {
                    let mut decisions = self.decisions.clone();
                    neutralize(&mut decisions[i]);
                    if self.offer(Candidate {
                        setup: self.setup().clone(),
                        decisions,
                    }) {
                        improved = true;
                    }
                }
            }
        }
        improved
    }
}

/// Bound on fixpoint rounds; each round only runs if the previous one
/// improved something, so this is a backstop, not a tuning knob.
const MAX_ROUNDS: usize = 8;

/// Shrinks a replayable trace to a minimal reproducer of the same
/// verdict class. See the module docs for the pass structure.
///
/// # Errors
/// [`ShrinkError::NothingToShrink`] if the trace demonstrates no
/// violation; [`ShrinkError::Trace`] if the trace's protocol cannot be
/// re-executed (not in the registry) or the spec fails to parse.
pub fn shrink(trace: &Trace) -> Result<Shrunk, ShrinkError> {
    let setup = &trace.header.setup;
    let spec = setup.spec_predicate()?;
    let exec = execute(setup, trace.decisions(), spec.as_ref())?;
    let class = classify(&exec).ok_or(ShrinkError::NothingToShrink)?;
    let events_before = trace.events.len();
    let messages_before = setup.workload.len();
    let processes_before = setup.processes;
    let mut sh = Shrinker {
        decisions: exec.trace.decisions(),
        trace: exec.trace,
        class,
        spec: spec.as_ref(),
        tried: 0,
        accepted: 0,
    };
    let mut rounds = 0;
    for _ in 0..MAX_ROUNDS {
        rounds += 1;
        let mut improved = false;
        improved |= sh.shrink_messages();
        improved |= sh.shrink_processes();
        improved |= sh.shrink_faults();
        improved |= sh.shrink_decisions();
        if !improved {
            break;
        }
    }
    // The decision log is exactly what the last accepted run consumed,
    // so its trace is already the minimized, replay-consistent artifact.
    let trace = sh.trace;
    let report = ShrinkReport {
        class: sh.class,
        events_before,
        events_after: trace.events.len(),
        messages_before,
        messages_after: trace.header.setup.workload.len(),
        processes_before,
        processes_after: trace.header.setup.processes,
        candidates_tried: sh.tried,
        candidates_accepted: sh.accepted,
        rounds,
    };
    Ok(Shrunk { trace, report })
}

/// Classifies a recorded trace by re-executing it — the entry point the
/// chaos sweep uses to decide whether a trial found anything.
pub fn classify_trace(trace: &Trace) -> Result<Option<VerdictClass>, TraceError> {
    let setup = &trace.header.setup;
    let spec = setup.spec_predicate()?;
    let exec = execute(setup, trace.decisions(), spec.as_ref())?;
    Ok(classify(&exec))
}

/// The preserved-verdict check used by tests and the CLI: does this
/// (replayable) trace still demonstrate `class`?
pub fn reproduces(trace: &Trace, class: &VerdictClass) -> Result<bool, TraceError> {
    Ok(classify_trace(trace)?.as_ref() == Some(class))
}
