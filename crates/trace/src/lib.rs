//! Trace capture and deterministic replay for the simulator
//! (DESIGN.md §10), plus the metrics path over the same observer hook:
//! one observer ([`LiveMetrics`]) feeding one store
//! ([`MetricsRegistry`], whose families are fixed by
//! [`registry::FAMILIES`]) that every report and exporter reads
//! (DESIGN.md §15).
//!
//! A **trace** is the complete journal of one simulation: a header
//! naming the [`Setup`] (config, workload, protocol, spec), the
//! [`KernelEvent`] stream (run events interleaved with wire and fault
//! records), and a footer with the run [`Stats`], the outcome, and a
//! 64-bit FNV-1a fingerprint of the event stream. Traces serialize to
//! JSONL — one self-describing JSON value per line — so they can be
//! diffed, grepped, and checked into CI as goldens.
//!
//! **Replay determinism contract.** Every random choice the kernel makes
//! flows through one [`TransmitDecision`] per `transmit` call, and every
//! decision is captured in the trace's [`WireRecord`]s. Re-running the
//! same setup with [`Simulation::with_replay`] over the recorded
//! decisions therefore reproduces the identical event stream — same run
//! events, same times, same stats, same error (if any) — with the RNGs
//! bypassed entirely. [`replay`] checks exactly that, and re-verifies
//! the recorded spec against the reconstructed run.
//!
//! ```
//! use msgorder_trace::{record, replay, Setup};
//! use msgorder_simnet::{FaultModel, LatencyModel, Workload};
//!
//! let setup = Setup {
//!     processes: 3,
//!     latency: LatencyModel::Uniform { lo: 1, hi: 100 },
//!     seed: 7,
//!     faults: FaultModel::none().with_drop(0.2).unwrap(),
//!     workload: Workload::uniform_random(3, 10, 7),
//!     protocol: "fifo".into(),
//!     reliable: true,
//!     spec: Some("fifo".into()),
//!     step_limit: 1_000_000,
//! };
//! let recorded = record(&setup).expect("known protocol");
//! let report = replay(&recorded.trace).expect("well-formed trace");
//! assert!(report.ok(), "replay reproduces the recording bit-exactly");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod metrics;
pub mod registry;
pub mod shrink;
pub mod soak;

pub use metrics::{Histogram, LiveMetrics};
pub use registry::{FileExporter, MetricsRegistry, SharedRegistry};

use msgorder_predicate::catalog::{self, PaperClass};
use msgorder_predicate::{eval, ForbiddenPredicate};
use msgorder_protocols::ProtocolKind;
use msgorder_runs::{EventKind, StreamingRun};
use msgorder_simnet::{
    FaultConfigError, FaultModel, FaultRecord, KernelEvent, LatencyModel, LivenessVerdict,
    Protocol, RunObserver, SimConfig, SimError, Simulation, Stats, StreamResult, TransmitDecision,
    WireRecord, Workload,
};
use serde::{Deserialize, Serialize};

/// Version stamp of the JSONL trace schema. Bump on any incompatible
/// change to [`Setup`], [`KernelEvent`], or the framing — or to the
/// bytes a protocol puts on the wire, which wire records count: `3`
/// frames every control frame as one link envelope
/// ([`msgorder_protocols::link`]), so a v2 trace's control frames
/// would replay with other byte counts.
pub const TRACE_VERSION: u32 = 3;

/// Everything needed to re-create the simulation a trace was recorded
/// from: feed it to [`record`] to (re-)run, and carry it in the trace
/// header so a trace file is self-contained.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Setup {
    /// Number of processes.
    pub processes: usize,
    /// Channel latency model.
    pub latency: LatencyModel,
    /// RNG seed.
    pub seed: u64,
    /// Network fault model.
    pub faults: FaultModel,
    /// The workload driven into the simulation.
    pub workload: Workload,
    /// Protocol name in the [`ProtocolKind`] registry, or any other
    /// label for a custom protocol (replay then skips re-execution and
    /// only reconstructs/verifies the recorded run).
    pub protocol: String,
    /// Whether the ack/retransmission layer was enabled.
    pub reliable: bool,
    /// The verified specification: a catalog name or a `forbid …` DSL
    /// predicate. `None` = no spec verification.
    pub spec: Option<String>,
    /// The kernel's livelock step limit.
    pub step_limit: usize,
}

/// Why a [`Setup`] cannot be run: the first check of
/// [`Setup::validate`] it fails.
#[derive(Debug, Clone, PartialEq)]
pub enum SetupError {
    /// More than [`Setup::MAX_PROCESSES`] processes.
    TooManyProcesses(usize),
    /// More messages than [`Setup::max_messages`] allows over the
    /// setup's processes.
    TooManyMessages {
        /// Messages in the workload.
        messages: usize,
        /// The setup's process count.
        processes: usize,
    },
    /// Send `index` of the workload names a process outside
    /// `0..processes`.
    SendOutOfRange {
        /// Position in [`Workload::sends`].
        index: usize,
        /// Its source process.
        src: usize,
        /// Its destination process.
        dst: usize,
    },
    /// The latency model's range is empty (`lo > hi`).
    EmptyLatencyRange {
        /// Minimum latency.
        lo: u64,
        /// Maximum latency.
        hi: u64,
    },
    /// The fault model does not fit the process count.
    Faults(FaultConfigError),
    /// `reliable` is set for a registry protocol that has no
    /// ack/retransmission variant.
    ReliableUnsupported(String),
    /// `synthesized` is asked to enforce a spec that tagging cannot
    /// (order ≥ 2, or not implementable).
    UntaggableSpec {
        /// The spec as the setup names it.
        spec: String,
        /// The class the classifier puts it in.
        class: PaperClass,
    },
}

impl std::fmt::Display for SetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SetupError::TooManyProcesses(n) => {
                write!(f, "{n} processes (at most {})", Setup::MAX_PROCESSES)
            }
            SetupError::TooManyMessages {
                messages,
                processes,
            } => write!(
                f,
                "{messages} messages (at most {} over {processes} processes: \
                 a run stamps 2·n clock words per message, at most {} in all)",
                Setup::max_messages(*processes),
                Setup::MAX_CLOCK_WORDS
            ),
            SetupError::SendOutOfRange { index, src, dst } => write!(
                f,
                "send {index} (P{src} -> P{dst}) names a process out of range"
            ),
            SetupError::EmptyLatencyRange { lo, hi } => {
                write!(f, "latency range [{lo}, {hi}] is empty")
            }
            SetupError::Faults(e) => write!(f, "{e}"),
            SetupError::ReliableUnsupported(p) => {
                write!(f, "protocol `{p}` has no reliable variant")
            }
            SetupError::UntaggableSpec { spec, class } => write!(
                f,
                "protocol `synthesized` cannot enforce spec `{spec}` ({class}); \
                 it needs a tagless or tagged spec"
            ),
        }
    }
}

impl std::error::Error for SetupError {}

impl Setup {
    /// The most processes a setup may name. Registry state grows as
    /// fast as `n³` words (`causal-rst` keeps an `n × n` matrix per
    /// process — 128 MiB at this cap), so a larger count in a trace
    /// header is a typo or an attack, not a run.
    pub const MAX_PROCESSES: usize = 256;

    /// The most vector-clock words a setup's run may stamp. Every run
    /// keeps a clock of `n` words at each message's send and delivery,
    /// so a workload costs at least `2·n` words (and its own send
    /// records) per message before anything runs; this caps that at
    /// 128 MiB. [`max_messages`](Setup::max_messages) is the ceiling it
    /// puts on the message count.
    pub const MAX_CLOCK_WORDS: usize = 1 << 24;

    /// The most messages a setup over `processes` processes may name:
    /// [`MAX_CLOCK_WORDS`](Setup::MAX_CLOCK_WORDS) over `2·n` words each.
    pub fn max_messages(processes: usize) -> usize {
        Setup::MAX_CLOCK_WORDS / (2 * processes.max(1))
    }

    /// Checks everything the kernel would otherwise index, allocate or
    /// sample on trust: the process count against
    /// [`MAX_PROCESSES`](Setup::MAX_PROCESSES), the message count against
    /// [`max_messages`](Setup::max_messages), every workload, crash and
    /// partition process id against the process count, the latency
    /// range, the fault probabilities, `reliable` against the protocol,
    /// and the spec against `synthesized` (names outside the registry
    /// are not this check's business). Trace headers
    /// ([`Trace::from_jsonl`]) and CLI flags both pass through here
    /// before a kernel is built.
    pub fn validate(&self) -> Result<(), SetupError> {
        let n = self.processes;
        if n > Setup::MAX_PROCESSES {
            return Err(SetupError::TooManyProcesses(n));
        }
        let messages = self.workload.sends.len();
        if messages > Setup::max_messages(n) {
            return Err(SetupError::TooManyMessages {
                messages,
                processes: n,
            });
        }
        for (index, s) in self.workload.sends.iter().enumerate() {
            if s.src >= n || s.dst >= n {
                return Err(SetupError::SendOutOfRange {
                    index,
                    src: s.src,
                    dst: s.dst,
                });
            }
        }
        match self.latency {
            LatencyModel::Uniform { lo, hi } | LatencyModel::Straggler { lo, hi, .. }
                if lo > hi =>
            {
                return Err(SetupError::EmptyLatencyRange { lo, hi });
            }
            _ => {}
        }
        self.faults.validate_for(n).map_err(SetupError::Faults)?;
        // Only `synthesized` is built from the spec, so only a name the
        // fixed kinds do not cover needs it parsed. A spec that does not
        // parse is reported by whoever runs it.
        let kind = ProtocolKind::by_name(&self.protocol, None).or_else(|| {
            let spec = self.spec_predicate().ok().flatten();
            ProtocolKind::by_name(&self.protocol, spec.as_ref())
        });
        let Some(kind) = kind else { return Ok(()) };
        if self.reliable && !kind.supports_retransmission() {
            return Err(SetupError::ReliableUnsupported(self.protocol.clone()));
        }
        if let Some(class) = kind.untaggable_spec() {
            return Err(SetupError::UntaggableSpec {
                spec: self.spec.clone().unwrap_or_default(),
                class,
            });
        }
        Ok(())
    }

    /// The kernel configuration this setup describes — shared by the
    /// recorder, the replayer, and live-transport hosts.
    pub fn config(&self) -> SimConfig {
        SimConfig::new(self.processes, self.latency, self.seed).with_faults(self.faults.clone())
    }

    /// Parses the setup's spec into a predicate (catalog name first,
    /// then the `forbid …` DSL).
    pub fn spec_predicate(&self) -> Result<Option<ForbiddenPredicate>, TraceError> {
        match &self.spec {
            None => Ok(None),
            Some(s) => parse_spec(s).map(Some),
        }
    }
}

/// Resolves a spec string the same way the CLI does: a catalog name
/// (`fifo`, `causal`, …) or a `forbid …` DSL predicate.
pub fn parse_spec(s: &str) -> Result<ForbiddenPredicate, TraceError> {
    if let Some(entry) = catalog::by_name(s) {
        return Ok(entry.predicate);
    }
    ForbiddenPredicate::parse(s).map_err(|e| TraceError::Spec(format!("{s:?}: {e}")))
}

/// The trace header: schema version + the recorded setup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Header {
    /// Schema version ([`TRACE_VERSION`]).
    pub version: u32,
    /// The recorded setup.
    pub setup: Setup,
}

/// A serializable digest of a [`SimError`] counterexample.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorSummary {
    /// Human-readable error kind (the `SimErrorKind` display).
    pub kind: String,
    /// The process whose protocol instance triggered the error.
    pub node: usize,
    /// The offending message id, when the error concerns one.
    pub msg: Option<usize>,
    /// Simulated time of the error.
    pub time: u64,
}

impl ErrorSummary {
    /// Digests a counterexample.
    pub fn of(e: &SimError) -> ErrorSummary {
        ErrorSummary {
            kind: e.kind.to_string(),
            node: e.node.0,
            msg: e.msg.map(|m| m.0),
            time: e.time,
        }
    }
}

/// A compact digest of a [`LivenessVerdict`] for the trace footer:
/// enough to see *why* a recorded run wedged without deserializing the
/// full blame analysis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LivenessSummary {
    /// Distinct blame classes (`stage:cause`, sorted) of the frontier.
    pub classes: Vec<String>,
    /// Messages pending on the frontier.
    pub stuck: usize,
    /// Whether the step limit tripped (vs the queue draining wedged).
    pub step_limited: bool,
}

impl LivenessSummary {
    /// Digests a verdict.
    pub fn of(v: &LivenessVerdict) -> LivenessSummary {
        LivenessSummary {
            classes: v.classes(),
            stuck: v.stuck_count(),
            step_limited: v.step_limited,
        }
    }
}

/// The spec verdict recorded with (and re-checked against) a trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Verdict {
    /// Whether the forbidden predicate was satisfied (spec violated).
    pub violated: bool,
    /// The witness instantiation (message ids in workload numbering),
    /// empty if not violated.
    pub witness: Vec<usize>,
}

/// The trace footer: outcome, stats, and the event-stream fingerprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Footer {
    /// FNV-1a 64 fingerprint of the event stream (see [`fingerprint`]).
    pub fingerprint: u64,
    /// Stats at the end of the recorded run.
    pub stats: Stats,
    /// Whether the event queue drained.
    pub completed: bool,
    /// Whether an observer halted the run early.
    pub halted: bool,
    /// The counterexample, if the run was poisoned by a protocol bug.
    pub error: Option<ErrorSummary>,
    /// The spec verdict at record time, when the setup names a spec.
    pub verdict: Option<Verdict>,
    /// Blame digest when the recorded run ended non-quiescent.
    pub liveness: Option<LivenessSummary>,
}

/// One JSONL line of a trace file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Line {
    /// First line.
    Header(Header),
    /// One kernel event per line, in execution order.
    Event(KernelEvent),
    /// Last line.
    Footer(Footer),
}

/// A complete recorded trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Version + setup.
    pub header: Header,
    /// The kernel event stream, in execution order.
    pub events: Vec<KernelEvent>,
    /// Outcome, stats, fingerprint.
    pub footer: Footer,
}

impl Trace {
    /// Serializes to JSONL (header line, one line per event, footer
    /// line).
    ///
    /// # Errors
    /// [`TraceError::Internal`] if a line fails to serialize — a bug in
    /// this crate's schema types, never a reason to abort the process.
    pub fn to_jsonl(&self) -> Result<String, TraceError> {
        // Each line is built by reference as the externally tagged
        // object the derived [`Line`] encoding produces (byte-identical
        // on the wire), so dumping never clones the journal: events
        // serialize straight out of the recorder's flat buffer.
        let mut out = String::new();
        let push = |out: &mut String, tag: &str, payload: &dyn serde::Serialize| {
            let mut line = serde_json::Map::new();
            line.insert(tag, payload.to_json_value());
            match serde_json::to_string(&serde_json::Value::Object(line)) {
                Ok(s) => {
                    out.push_str(&s);
                    out.push('\n');
                    Ok(())
                }
                Err(e) => Err(TraceError::Internal(format!(
                    "trace line failed to serialize: {e:?}"
                ))),
            }
        };
        push(&mut out, "Header", &self.header)?;
        for ev in &self.events {
            push(&mut out, "Event", ev)?;
        }
        push(&mut out, "Footer", &self.footer)?;
        Ok(out)
    }

    /// Parses a JSONL trace, validating framing, schema version and the
    /// header's [`Setup`].
    pub fn from_jsonl(text: &str) -> Result<Trace, TraceError> {
        let mut header = None;
        let mut footer = None;
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let parse_error = |e| TraceError::Parse(format!("line {}: {e:?}", i + 1));
            // Until the header is read, its version is checked before the
            // rest of the line, so a file of another schema is refused by
            // its number, not by the first field whose shape differs.
            if header.is_none() {
                let value: serde_json::Value = serde_json::from_str(line).map_err(parse_error)?;
                if let Some(version) = value["Header"]["version"].as_u64() {
                    if version != u64::from(TRACE_VERSION) {
                        return Err(TraceError::Schema(format!(
                            "trace version {version} (this build reads {TRACE_VERSION})"
                        )));
                    }
                }
            }
            match serde_json::from_str(line).map_err(parse_error)? {
                Line::Header(h) => {
                    if header.is_some() {
                        return Err(TraceError::Schema("duplicate header line".into()));
                    }
                    h.setup.validate()?;
                    header = Some(h);
                }
                Line::Event(ev) => {
                    if header.is_none() {
                        return Err(TraceError::Schema("event before header".into()));
                    }
                    if footer.is_some() {
                        return Err(TraceError::Schema("event after footer".into()));
                    }
                    events.push(ev);
                }
                Line::Footer(f) => {
                    if footer.is_some() {
                        return Err(TraceError::Schema("duplicate footer line".into()));
                    }
                    footer = Some(f);
                }
            }
        }
        match (header, footer) {
            (Some(header), Some(footer)) => Ok(Trace {
                header,
                events,
                footer,
            }),
            (None, _) => Err(TraceError::Schema("missing header line".into())),
            (_, None) => Err(TraceError::Schema("missing footer line".into())),
        }
    }

    /// Writes the trace as JSONL to `path`.
    pub fn write(&self, path: impl AsRef<std::path::Path>) -> Result<(), TraceError> {
        std::fs::write(path, self.to_jsonl()?).map_err(TraceError::Io)
    }

    /// Reads a JSONL trace from `path`.
    pub fn read(path: impl AsRef<std::path::Path>) -> Result<Trace, TraceError> {
        let text = std::fs::read_to_string(path).map_err(TraceError::Io)?;
        Trace::from_jsonl(&text)
    }

    /// The recorded network decisions, in transmit order — feed to
    /// [`Simulation::with_replay`].
    pub fn decisions(&self) -> Vec<TransmitDecision> {
        self.events
            .iter()
            .filter_map(|e| match e {
                KernelEvent::Wire(w) => Some(w.decision),
                _ => None,
            })
            .collect()
    }

    /// The run events (`s*`, `s`, `r*`, `r`) with their times, in
    /// execution order.
    pub fn run_events(&self) -> impl Iterator<Item = (msgorder_runs::SystemEvent, u64)> + '_ {
        self.events.iter().filter_map(|e| match e {
            KernelEvent::Run { ev, time } => Some((*ev, *time)),
            _ => None,
        })
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix(h: &mut u64, v: u64) {
    // FNV-1a with a word-sized step: one xor-multiply per u64 keeps the
    // fingerprint off the recording path's profile entirely.
    *h ^= v;
    *h = h.wrapping_mul(FNV_PRIME);
}

fn mix_event(h: &mut u64, ev: &KernelEvent) {
    match ev {
        KernelEvent::Run { ev, time } => mix_run(h, *ev, *time),
        KernelEvent::Wire(w) => mix_wire(h, w),
        KernelEvent::Fault(f) => mix_fault(h, f),
    }
}

fn mix_run(h: &mut u64, ev: msgorder_runs::SystemEvent, time: u64) {
    mix(h, 0);
    mix(h, ev.msg.0 as u64);
    mix(
        h,
        match ev.kind {
            EventKind::Invoke => 0,
            EventKind::Send => 1,
            EventKind::Receive => 2,
            EventKind::Deliver => 3,
        },
    );
    mix(h, time);
}

fn mix_wire(h: &mut u64, w: &WireRecord) {
    mix(h, 1);
    mix(h, w.from as u64);
    mix(h, w.to as u64);
    mix(h, w.time);
    match w.payload {
        msgorder_simnet::PayloadKind::User {
            msg,
            bytes,
            retransmit,
        } => {
            mix(h, 0);
            mix(h, msg.0 as u64);
            mix(h, bytes as u64);
            mix(h, retransmit as u64);
        }
        msgorder_simnet::PayloadKind::Control { bytes, retransmit } => {
            mix(h, 1);
            mix(h, bytes as u64);
            mix(h, retransmit as u64);
        }
    }
    mix(h, w.decision.delay);
    mix(
        h,
        match w.decision.dropped {
            None => 0,
            Some(msgorder_simnet::DropReason::Partition) => 1,
            Some(msgorder_simnet::DropReason::Loss) => 2,
        },
    );
    match w.decision.dup_delay {
        None => mix(h, 0),
        Some(d) => {
            mix(h, 1);
            mix(h, d);
        }
    }
    // Adversarial decisions mix *only* when present, so every
    // pre-adversarial trace — and every run under a quiet model — keeps
    // its historical fingerprint bit-for-bit.
    if let Some(seed) = w.decision.corrupt {
        mix(h, 3);
        mix(h, seed);
    }
    if let Some(forge) = w.decision.forge {
        mix(h, 4);
        mix(h, forge.seed);
        mix(h, forge.delay);
    }
    if let Some(d) = w.decision.replay_delay {
        mix(h, 5);
        mix(h, d);
    }
    if w.decision.reorder_extra != 0 {
        mix(h, 6);
        mix(h, w.decision.reorder_extra);
    }
}

fn mix_fault(h: &mut u64, f: &FaultRecord) {
    mix(h, 2);
    match f {
        FaultRecord::ArrivalAtCrashed { node, time } => {
            mix(h, 0);
            mix(h, *node as u64);
            mix(h, *time);
        }
        FaultRecord::DeferredToRestart { node, time, until } => {
            mix(h, 1);
            mix(h, *node as u64);
            mix(h, *time);
            mix(h, *until);
        }
        FaultRecord::LostToCrash { node, time } => {
            mix(h, 2);
            mix(h, *node as u64);
            mix(h, *time);
        }
        FaultRecord::Rejected {
            node,
            from,
            time,
            reason,
        } => {
            mix(h, 3);
            mix(h, *node as u64);
            mix(h, *from as u64);
            mix(h, *time);
            mix(
                h,
                match reason {
                    msgorder_simnet::RejectReason::Malformed => 0,
                    msgorder_simnet::RejectReason::StaleEpoch => 1,
                    msgorder_simnet::RejectReason::Replayed => 2,
                    msgorder_simnet::RejectReason::Unexpected => 3,
                },
            );
        }
    }
}

/// FNV-1a 64 over the process count and every field of every kernel
/// event, in order (a direct binary mix — no serialization on the
/// recording path). Two traces fingerprint equal iff their event
/// streams are identical; the file format is not hashed, so the same
/// events written in another schema version keep their fingerprint.
pub fn fingerprint(processes: usize, events: &[KernelEvent]) -> u64 {
    let mut h = fingerprint_seed(processes);
    for ev in events {
        mix_event(&mut h, ev);
    }
    h
}

/// The fingerprint of an empty event stream over `processes`.
fn fingerprint_seed(processes: usize) -> u64 {
    let mut h = FNV_OFFSET;
    mix(&mut h, processes as u64);
    h
}

/// A [`RunObserver`] that journals the complete kernel event stream —
/// the capture side of the trace pipeline. A kept wire record is boxed
/// here, once per frame; the kernel's own journal holds it unboxed.
#[derive(Debug, Default)]
pub struct Recorder {
    /// The captured stream, in execution order.
    pub events: Vec<KernelEvent>,
}

impl Recorder {
    /// A recorder with room for `cap` events pre-allocated, so the hot
    /// observer path never reallocates mid-run.
    pub fn with_capacity(cap: usize) -> Recorder {
        Recorder {
            events: Vec::with_capacity(cap),
        }
    }
}

impl RunObserver for Recorder {
    fn on_event(
        &mut self,
        _view: &StreamingRun,
        ev: msgorder_runs::SystemEvent,
        _index: usize,
        time: u64,
    ) -> bool {
        self.events.push(KernelEvent::Run { ev, time });
        true
    }

    fn on_wire(&mut self, wire: &WireRecord) {
        self.events.push(KernelEvent::Wire(Box::new(*wire)));
    }

    fn on_fault(&mut self, fault: &FaultRecord) {
        self.events.push(KernelEvent::Fault(*fault));
    }

    fn wants_wire(&self) -> bool {
        true
    }
}

/// Fans kernel notifications out to several observers. Every observer
/// sees every event (no short-circuiting); the run halts if *any*
/// observer asks to.
pub struct Fanout<'a>(pub Vec<&'a mut dyn RunObserver>);

impl RunObserver for Fanout<'_> {
    fn on_event(
        &mut self,
        view: &StreamingRun,
        ev: msgorder_runs::SystemEvent,
        index: usize,
        time: u64,
    ) -> bool {
        let mut go = true;
        for obs in &mut self.0 {
            go &= obs.on_event(view, ev, index, time);
        }
        go
    }

    fn on_wire(&mut self, wire: &WireRecord) {
        for obs in &mut self.0 {
            obs.on_wire(wire);
        }
    }

    fn on_fault(&mut self, fault: &FaultRecord) {
        for obs in &mut self.0 {
            obs.on_fault(fault);
        }
    }

    fn wants_wire(&self) -> bool {
        self.0.iter().any(|o| o.wants_wire())
    }
}

/// What [`record`] hands back: the assembled trace plus the raw
/// simulation outcome (for callers that want the live run or the full
/// [`SimError`] counterexample).
#[derive(Debug)]
pub struct Recorded {
    /// The assembled trace.
    pub trace: Trace,
    /// The raw streaming outcome of the recorded run.
    pub outcome: Result<StreamResult, SimError>,
}

/// Records one run of `setup` using the protocol registry, returning
/// the assembled trace. Fails if the setup names an unknown protocol.
pub fn record(setup: &Setup) -> Result<Recorded, TraceError> {
    let spec = setup.spec_predicate()?;
    let kind = resolve_protocol(&setup.protocol, spec.as_ref())?;
    record_with(setup, registry_factory(&kind, setup))
}

/// Like [`record`], with an explicit protocol factory (for protocols
/// outside the registry; replay of such a trace skips re-execution).
pub fn record_with<P: Protocol>(
    setup: &Setup,
    factory: impl Fn(usize) -> P,
) -> Result<Recorded, TraceError> {
    record_with_extra(setup, factory, None)
}

/// Like [`record_with`], additionally fanning the kernel event stream
/// out to `extra` (an online monitor, a metrics collector, …). If the
/// extra observer halts the run, the trace captures the halted prefix.
pub fn record_with_extra<P: Protocol>(
    setup: &Setup,
    factory: impl Fn(usize) -> P,
    extra: Option<&mut dyn RunObserver>,
) -> Result<Recorded, TraceError> {
    let spec = setup.spec_predicate()?;
    let (events, outcome) = run_recorded(setup, factory, None, extra);
    let trace = assemble_trace(setup, events, &outcome, spec.as_ref())?;
    Ok(Recorded { trace, outcome })
}

/// The one place a simulation of a setup is built and run: `setup`'s
/// kernel under `obs`, sampling the network afresh or — with
/// `decisions` — replaying a recorded one bit-exactly.
#[allow(clippy::result_large_err)] // `Simulation::run_streaming`'s result
fn run_observed<P: Protocol>(
    setup: &Setup,
    factory: impl Fn(usize) -> P,
    decisions: Option<Vec<TransmitDecision>>,
    obs: &mut dyn RunObserver,
) -> Result<StreamResult, SimError> {
    let mut sim = Simulation::new(setup.config(), setup.workload.clone(), factory)
        .with_step_limit(setup.step_limit);
    if let Some(decisions) = decisions {
        sim = sim.with_replay(decisions);
    }
    sim.run_streaming(obs)
}

/// [`run_observed`] under a [`Recorder`] (and `extra`, if any).
fn run_recorded<P: Protocol>(
    setup: &Setup,
    factory: impl Fn(usize) -> P,
    decisions: Option<Vec<TransmitDecision>>,
    extra: Option<&mut dyn RunObserver>,
) -> (Vec<KernelEvent>, Result<StreamResult, SimError>) {
    // 4 run events per message, one wire record per frame, plus slack
    // for control traffic and retransmissions.
    let mut recorder = Recorder::with_capacity(setup.workload.len() * 8);
    let outcome = match extra {
        Some(x) => run_observed(
            setup,
            factory,
            decisions,
            &mut Fanout(vec![&mut recorder, x]),
        ),
        None => run_observed(setup, factory, decisions, &mut recorder),
    };
    (recorder.events, outcome)
}

/// Re-executes `setup` under its registry protocol against a recorded
/// decision log, keeping the re-executed journal — what the shrinker
/// runs every candidate through. ([`replay`] compares as it runs
/// instead, keeping none.)
pub(crate) fn reexecute(
    setup: &Setup,
    spec: Option<&ForbiddenPredicate>,
    decisions: Vec<TransmitDecision>,
) -> Result<(Vec<KernelEvent>, Result<StreamResult, SimError>), TraceError> {
    let kind = resolve_protocol(&setup.protocol, spec)?;
    let factory = registry_factory(&kind, setup);
    Ok(run_recorded(setup, factory, Some(decisions), None))
}

/// Builds a complete [`Trace`] (footer, fingerprint, verdict) from a
/// captured event stream and its raw outcome — shared by [`record`],
/// the counterexample shrinker's re-execution path, and live-transport
/// recorders that capture kernel events outside the simulator.
pub fn assemble_trace(
    setup: &Setup,
    events: Vec<KernelEvent>,
    outcome: &Result<StreamResult, SimError>,
    spec: Option<&ForbiddenPredicate>,
) -> Result<Trace, TraceError> {
    let (stats, completed, halted, error, liveness) = match outcome {
        Ok(sr) => (
            sr.stats.clone(),
            sr.completed,
            sr.halted,
            None,
            sr.liveness.as_ref().map(LivenessSummary::of),
        ),
        Err(e) => (
            e.stats.clone(),
            false,
            false,
            Some(ErrorSummary::of(e)),
            e.kind.liveness().map(LivenessSummary::of),
        ),
    };
    let header = Header {
        version: TRACE_VERSION,
        setup: setup.clone(),
    };
    let mut trace = Trace {
        header,
        events,
        footer: Footer {
            fingerprint: 0,
            stats,
            completed,
            halted,
            error,
            verdict: None,
            liveness,
        },
    };
    trace.footer.fingerprint = fingerprint(setup.processes, &trace.events);
    if let Some(pred) = spec {
        trace.footer.verdict = Some(compute_verdict(&trace, pred)?);
    }
    Ok(trace)
}

fn resolve_protocol(
    name: &str,
    spec: Option<&ForbiddenPredicate>,
) -> Result<ProtocolKind, TraceError> {
    ProtocolKind::by_name(name, spec).ok_or_else(|| TraceError::UnknownProtocol(name.to_owned()))
}

/// The per-node factory of a registry protocol under `setup`.
fn registry_factory<'k>(
    kind: &'k ProtocolKind,
    setup: &Setup,
) -> impl Fn(usize) -> Box<dyn Protocol> + 'k {
    let (n, reliable) = (setup.processes, setup.reliable);
    move |node| kind.instantiate_with(n, node, reliable)
}

/// Rebuilds the captured [`StreamingRun`] from a trace's run events —
/// works for any trace, registry protocol or not, complete or partial.
pub fn reconstruct(trace: &Trace) -> Result<StreamingRun, TraceError> {
    let setup = &trace.header.setup;
    let mut run = StreamingRun::new(setup.processes);
    for (index, spec) in setup.workload.sends.iter().enumerate() {
        if spec.src >= setup.processes || spec.dst >= setup.processes {
            return Err(TraceError::Setup(SetupError::SendOutOfRange {
                index,
                src: spec.src,
                dst: spec.dst,
            }));
        }
        match &spec.color {
            Some(c) => {
                run.message_colored(spec.src, spec.dst, c);
            }
            None => {
                run.message(spec.src, spec.dst);
            }
        }
    }
    for (ev, _time) in trace.run_events() {
        run.append(ev)
            .map_err(|e| TraceError::Schema(format!("trace encodes an invalid run: {e}")))?;
    }
    Ok(run)
}

/// Re-verifies `pred` over the trace's reconstructed run, feeding the
/// online monitor delivery by delivery exactly as the recording did.
fn compute_verdict(trace: &Trace, pred: &ForbiddenPredicate) -> Result<Verdict, TraceError> {
    let run = reconstruct(trace)?;
    let mut mon = eval::Monitor::new(pred);
    for (ev, _time) in trace.run_events() {
        if ev.kind == EventKind::Deliver {
            mon.on_complete(&run, ev.msg);
        }
        if mon.violated() {
            break;
        }
    }
    Ok(Verdict {
        violated: mon.violated(),
        witness: mon
            .witness()
            .map_or_else(Vec::new, |w| w.iter().map(|m| m.0).collect()),
    })
}

/// The result of re-executing a trace through the kernel in replay
/// mode.
#[derive(Debug, Clone, PartialEq)]
pub struct Reexecution {
    /// Fingerprint of the re-executed event stream.
    pub fingerprint: u64,
    /// Whether the re-executed event stream is identical to the trace.
    pub identical: bool,
    /// Whether the re-executed stats match the footer.
    pub stats_match: bool,
    /// Whether the re-executed outcome (error or clean) matches.
    pub error_match: bool,
}

impl Reexecution {
    /// All checks passed.
    pub fn ok(&self) -> bool {
        self.identical && self.stats_match && self.error_match
    }
}

/// The full replay report of [`replay`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Fingerprint recomputed from the trace file's events.
    pub recomputed_fingerprint: u64,
    /// Whether the recomputed fingerprint matches the footer (file
    /// integrity).
    pub fingerprint_ok: bool,
    /// Kernel re-execution checks; `None` when the trace's protocol is
    /// not in the registry.
    pub reexecution: Option<Reexecution>,
    /// The spec verdict recomputed from the reconstructed run, when the
    /// setup names a spec.
    pub verdict: Option<Verdict>,
    /// Whether the recomputed verdict matches the recorded one.
    pub verdict_ok: Option<bool>,
}

impl ReplayReport {
    /// Every applicable check passed: the trace is internally
    /// consistent, re-execution (if possible) was bit-exact, and the
    /// spec verdict (if any) reproduced.
    pub fn ok(&self) -> bool {
        self.fingerprint_ok
            && self.reexecution.as_ref().is_none_or(Reexecution::ok)
            && self.verdict_ok.unwrap_or(true)
    }
}

/// Checks a re-execution against a recorded event stream record by
/// record, as the kernel journals it, and folds the re-execution's
/// fingerprint: [`replay`]'s observer, which keeps no second journal.
struct Comparator<'t> {
    /// The recorded stream.
    recorded: &'t [KernelEvent],
    /// Records the re-execution has journaled so far.
    seen: usize,
    /// No journaled record differed from the recorded one at its place.
    agrees: bool,
    /// Fingerprint of the re-executed stream so far.
    fingerprint: u64,
}

impl<'t> Comparator<'t> {
    fn new(processes: usize, recorded: &'t [KernelEvent]) -> Comparator<'t> {
        Comparator {
            recorded,
            seen: 0,
            agrees: true,
            fingerprint: fingerprint_seed(processes),
        }
    }

    /// Compares the next journaled record with the recorded one at its
    /// place, if the recording reaches that far.
    fn check(&mut self, same: impl FnOnce(&KernelEvent) -> bool) {
        if let Some(rec) = self.recorded.get(self.seen) {
            self.agrees &= same(rec);
        }
        self.seen += 1;
    }

    /// Whether the re-executed stream is the recorded one — or, for a
    /// recording an observer halted, extends it: the replayed kernel
    /// (with no halting observer) runs past that point.
    fn identical(&self, halted: bool) -> bool {
        let len = self.recorded.len();
        self.agrees && (self.seen == len || (halted && self.seen > len))
    }
}

impl RunObserver for Comparator<'_> {
    fn on_event(
        &mut self,
        _view: &StreamingRun,
        ev: msgorder_runs::SystemEvent,
        _index: usize,
        time: u64,
    ) -> bool {
        mix_run(&mut self.fingerprint, ev, time);
        self.check(|rec| *rec == KernelEvent::Run { ev, time });
        true
    }

    fn on_wire(&mut self, wire: &WireRecord) {
        mix_wire(&mut self.fingerprint, wire);
        self.check(|rec| matches!(rec, KernelEvent::Wire(w) if **w == *wire));
    }

    fn on_fault(&mut self, fault: &FaultRecord) {
        mix_fault(&mut self.fingerprint, fault);
        self.check(|rec| matches!(rec, KernelEvent::Fault(f) if f == fault));
    }

    fn wants_wire(&self) -> bool {
        true
    }
}

/// Replays a trace: checks file integrity (fingerprint), re-executes
/// the recorded protocol through the kernel with the recorded network
/// decisions (when the protocol is in the registry), comparing each
/// re-executed record with the recorded one as it is journaled, and
/// re-verifies the recorded spec against the reconstructed run.
pub fn replay(trace: &Trace) -> Result<ReplayReport, TraceError> {
    let setup = &trace.header.setup;
    let recomputed = fingerprint(setup.processes, &trace.events);
    let fingerprint_ok = recomputed == trace.footer.fingerprint;

    let spec = setup.spec_predicate()?;
    let reexecution = match resolve_protocol(&setup.protocol, spec.as_ref()) {
        // Only a protocol outside the registry cannot be re-executed.
        Err(_) => None,
        Ok(kind) => {
            let mut comparator = Comparator::new(setup.processes, &trace.events);
            let outcome = run_observed(
                setup,
                registry_factory(&kind, setup),
                Some(trace.decisions()),
                &mut comparator,
            );
            let (stats, error) = match &outcome {
                Ok(sr) => (sr.stats.clone(), None),
                Err(e) => (e.stats.clone(), Some(ErrorSummary::of(e))),
            };
            let identical = comparator.identical(trace.footer.halted);
            let stats_match = trace.footer.halted || stats == trace.footer.stats;
            // A halted recording stopped consuming decisions early, so
            // the unhalted replay may legitimately run the log dry past
            // the recorded prefix.
            let exhausted_past_prefix = matches!(
                &outcome,
                Err(e) if matches!(e.kind, msgorder_simnet::SimErrorKind::ReplayExhausted)
            );
            let error_match = if trace.footer.halted {
                error.is_none() || exhausted_past_prefix
            } else {
                error == trace.footer.error
            };
            Some(Reexecution {
                fingerprint: comparator.fingerprint,
                identical,
                stats_match,
                error_match,
            })
        }
    };

    let (verdict, verdict_ok) = match &spec {
        None => (None, None),
        Some(pred) => {
            let v = compute_verdict(trace, pred)?;
            let ok = trace.footer.verdict.as_ref().is_none_or(|rec| *rec == v);
            (Some(v), Some(ok))
        }
    };

    Ok(ReplayReport {
        recomputed_fingerprint: recomputed,
        fingerprint_ok,
        reexecution,
        verdict,
        verdict_ok,
    })
}

/// Extends [`SimError`] with self-contained, replayable counterexample
/// capture.
pub trait SimErrorExt {
    /// Re-records the failing run of `setup` (which must be the setup
    /// that produced this error) and returns the trace, verified to
    /// reproduce this counterexample at the same node and time.
    fn as_trace(&self, setup: &Setup) -> Result<Trace, TraceError>;

    /// Like [`as_trace`](SimErrorExt::as_trace), with an explicit
    /// protocol factory for protocols outside the registry.
    fn as_trace_with<P: Protocol>(
        &self,
        setup: &Setup,
        factory: impl Fn(usize) -> P,
    ) -> Result<Trace, TraceError>;
}

fn check_reproduced(err: &SimError, trace: Trace) -> Result<Trace, TraceError> {
    let expected = ErrorSummary::of(err);
    match &trace.footer.error {
        Some(got) if *got == expected => Ok(trace),
        got => Err(TraceError::Divergence(format!(
            "re-recording did not reproduce the counterexample: expected {expected:?}, got {got:?}"
        ))),
    }
}

impl SimErrorExt for SimError {
    fn as_trace(&self, setup: &Setup) -> Result<Trace, TraceError> {
        check_reproduced(self, record(setup)?.trace)
    }

    fn as_trace_with<P: Protocol>(
        &self,
        setup: &Setup,
        factory: impl Fn(usize) -> P,
    ) -> Result<Trace, TraceError> {
        check_reproduced(self, record_with(setup, factory)?.trace)
    }
}

/// What can go wrong assembling, parsing, or replaying a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Filesystem error reading or writing a trace file.
    Io(std::io::Error),
    /// A line was not valid JSON (or not a trace line).
    Parse(String),
    /// Structurally invalid trace (framing, version, inconsistent run).
    Schema(String),
    /// The setup names a protocol the registry cannot instantiate.
    UnknownProtocol(String),
    /// The setup's spec string parses to nothing.
    Spec(String),
    /// The setup describes no runnable simulation.
    Setup(SetupError),
    /// Re-recording/replay did not reproduce the recorded run.
    Divergence(String),
    /// An internal invariant failed (serialization, sampled-parameter
    /// validation) — reported instead of panicking so replay/shrink/chaos
    /// never abort the process on bad input.
    Internal(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o: {e}"),
            TraceError::Parse(m) => write!(f, "trace parse: {m}"),
            TraceError::Schema(m) => write!(f, "trace schema: {m}"),
            TraceError::UnknownProtocol(p) => {
                write!(f, "protocol {p:?} is not in the registry")
            }
            TraceError::Spec(m) => write!(f, "spec: {m}"),
            TraceError::Setup(e) => write!(f, "invalid setup: {e}"),
            TraceError::Divergence(m) => write!(f, "replay divergence: {m}"),
            TraceError::Internal(m) => write!(f, "internal invariant failed: {m}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<SetupError> for TraceError {
    fn from(e: SetupError) -> TraceError {
        TraceError::Setup(e)
    }
}
