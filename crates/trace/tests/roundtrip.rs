//! Record → serialize → parse → replay round-trips, across protocols,
//! fault models, and seeds, plus the trace-driven regression tests for
//! the reliable-link timer audit (ISSUE satellites 1 and 5).

use msgorder_predicate::catalog;
use msgorder_runs::{MessageId, ProcessId};
use msgorder_simnet::{
    Ctx, FaultModel, KernelEvent, LatencyModel, PayloadKind, Protocol, Workload,
};
use msgorder_trace::{
    fingerprint, record, record_with, replay, Setup, SetupError, SimErrorExt, Trace, TraceError,
    TRACE_VERSION,
};
use proptest::prelude::*;

fn setup(protocol: &str, reliable: bool, faults: FaultModel, seed: u64, msgs: usize) -> Setup {
    Setup {
        processes: 3,
        latency: LatencyModel::Uniform { lo: 1, hi: 200 },
        seed,
        faults,
        workload: Workload::uniform_random(3, msgs, seed),
        protocol: protocol.into(),
        // `async` has no reliable variant, and a trace header may not
        // claim one (`Setup::validate`).
        reliable: reliable && protocol != "async",
        spec: Some("fifo".into()),
        step_limit: 1_000_000,
    }
}

fn fault_grid() -> Vec<(FaultModel, bool)> {
    vec![
        (FaultModel::none(), false),
        (FaultModel::none().with_drop(0.3).unwrap(), true),
        (
            FaultModel::none()
                .with_drop(0.1)
                .unwrap()
                .with_duplication(0.2)
                .unwrap()
                .with_partition(0, 1, 50, 400),
            true,
        ),
        (FaultModel::none().with_crash(2, 100, Some(600)), false),
    ]
}

/// The tentpole acceptance check: for every protocol × fault model ×
/// seed, the serialized trace round-trips bit-exactly and replays with
/// an identical fingerprint, stats, and verify verdict.
#[test]
fn record_replay_round_trip_grid() {
    for protocol in ["async", "fifo", "causal-rst", "sync"] {
        for (faults, reliable) in fault_grid() {
            for seed in [1u64, 7, 42] {
                let s = setup(protocol, reliable, faults.clone(), seed, 12);
                let recorded = record(&s).expect("registry protocol records");
                let text = recorded.trace.to_jsonl().expect("serializes");
                let parsed = Trace::from_jsonl(&text).expect("jsonl parses back");
                assert_eq!(parsed, recorded.trace, "serialization round-trips");

                let report = replay(&parsed).expect("replay runs");
                assert!(report.fingerprint_ok, "{protocol}/{seed}: fingerprint");
                let re = report.reexecution.as_ref().expect("registry protocol");
                assert!(re.identical, "{protocol}/{seed}: event streams differ");
                assert!(re.stats_match, "{protocol}/{seed}: stats differ");
                assert!(re.error_match, "{protocol}/{seed}: outcome differs");
                assert_eq!(re.fingerprint, parsed.footer.fingerprint);
                assert_eq!(
                    report.verdict_ok,
                    Some(true),
                    "{protocol}/{seed}: verdict did not reproduce"
                );
            }
        }
    }
}

/// A replayed trace fed a *different* decision stream than it recorded
/// is flagged, not silently accepted.
#[test]
fn tampered_trace_fails_fingerprint() {
    let s = setup("fifo", false, FaultModel::none(), 3, 8);
    let mut trace = record(&s).expect("records").trace;
    // Flip one wire decision: the fingerprint must notice.
    let pos = trace
        .events
        .iter()
        .position(|e| matches!(e, KernelEvent::Wire(_)))
        .expect("some wire record");
    if let KernelEvent::Wire(w) = &mut trace.events[pos] {
        w.decision.delay += 1;
    }
    let report = replay(&trace).expect("replay runs");
    assert!(
        !report.fingerprint_ok,
        "tampering must break the fingerprint"
    );
    assert!(!report.ok());
}

/// Replay compares every re-executed record with the recorded one at
/// its place. Each edit below keeps the file consistent (the footer's
/// fingerprint is recomputed), so only the re-execution can notice it:
/// the first event, a middle run event, one wire record's decision and
/// its own time, and the last event, each moved by one tick, and a
/// trace missing its last event.
#[test]
fn replay_notices_an_edit_at_any_place() {
    let s = setup("causal-rst", false, FaultModel::none(), 7, 12);
    let recorded = record(&s).expect("records").trace;
    assert!(replay(&recorded).expect("replay runs").ok());
    let events = &recorded.events;
    let runs: Vec<usize> = (0..events.len())
        .filter(|&i| matches!(events[i], KernelEvent::Run { .. }))
        .collect();
    let wire = events
        .iter()
        .position(|e| matches!(e, KernelEvent::Wire(_)))
        .expect("some wire record");
    let later = |ev: &mut KernelEvent| match ev {
        KernelEvent::Run { time, .. } => *time += 1,
        KernelEvent::Wire(w) => w.time += 1,
        KernelEvent::Fault(_) => panic!("a fault-free run journals no fault"),
    };
    for what in [
        "first event",
        "middle run event",
        "wire decision",
        "wire time",
        "last event",
        "last event removed",
    ] {
        let mut trace = recorded.clone();
        let ev = &mut trace.events;
        match what {
            "first event" => later(&mut ev[0]),
            "middle run event" => later(&mut ev[runs[runs.len() / 2]]),
            "wire decision" => {
                if let KernelEvent::Wire(w) = &mut ev[wire] {
                    w.decision.delay += 1;
                }
            }
            "wire time" => later(&mut ev[wire]),
            "last event" => later(ev.last_mut().expect("events")),
            _ => drop(ev.pop()),
        }
        assert_ne!(trace.events, recorded.events, "{what}");
        trace.footer.fingerprint = fingerprint(trace.header.setup.processes, &trace.events);
        let report = replay(&trace).expect("replay runs");
        assert!(report.fingerprint_ok, "{what}: the footer was recomputed");
        assert!(!report.ok(), "{what}");
        let re = report.reexecution.expect("registry protocol");
        assert!(!re.identical, "{what}: the re-execution must differ");
    }
}

/// Satellite 1 regression, trace-driven: two messages in flight from the
/// same sender to *different* destinations under heavy ack loss retry
/// independently — per-message retransmission counts stay within the
/// link's attempt budget (a shared/colliding timer id would either starve
/// one message or retransmit past the budget).
#[test]
fn reliable_retries_are_per_message_across_destinations() {
    let workload = Workload {
        sends: vec![
            msgorder_simnet::SendSpec {
                at: 0,
                src: 0,
                dst: 1,
                color: None,
            },
            msgorder_simnet::SendSpec {
                at: 0,
                src: 0,
                dst: 2,
                color: None,
            },
        ],
    };
    let s = Setup {
        processes: 3,
        latency: LatencyModel::Uniform { lo: 1, hi: 20 },
        seed: 11,
        faults: FaultModel::none().with_drop(0.7).unwrap(),
        workload,
        protocol: "fifo".into(),
        reliable: true,
        spec: None,
        step_limit: 1_000_000,
    };
    let trace = record(&s).expect("records").trace;

    // Count wire frames per user message (original + retransmissions).
    let mut frames = std::collections::BTreeMap::new();
    let mut retx = std::collections::BTreeMap::new();
    for ev in &trace.events {
        if let KernelEvent::Wire(w) = ev {
            if let PayloadKind::User {
                msg, retransmit, ..
            } = w.payload
            {
                *frames.entry(msg.0).or_insert(0u32) += 1;
                if retransmit {
                    *retx.entry(msg.0).or_insert(0u32) += 1;
                }
            }
        }
    }
    assert_eq!(frames.len(), 2, "both messages hit the wire");
    // Default RetryConfig: 10 total attempts → at most 9 retransmissions
    // per message, counted independently per destination.
    for (msg, n) in &frames {
        assert!(
            *n <= 10,
            "message {msg} sent {n} frames (attempt budget is 10)"
        );
    }
    for (msg, n) in &retx {
        assert!(*n <= 9, "message {msg} retransmitted {n} times");
    }
    // Replay reproduces the same retry schedule bit-exactly.
    let report = replay(&trace).expect("replay runs");
    assert!(
        report.ok(),
        "reliable-link trace must replay deterministically"
    );
}

/// Satellite 1's second claim: once the link gives up on a frame (final
/// backoff expired), a late ack cannot resurrect the retry timer — the
/// trace shows no user retransmissions after the last scheduled attempt.
#[test]
fn no_retransmissions_after_the_attempt_budget() {
    // Partition the 0-1 link long enough to eat every attempt and the
    // acks, then heal: anything arriving afterwards must not trigger
    // more retransmissions.
    let workload = Workload {
        sends: vec![msgorder_simnet::SendSpec {
            at: 0,
            src: 0,
            dst: 1,
            color: None,
        }],
    };
    let s = Setup {
        processes: 2,
        latency: LatencyModel::Fixed(5),
        seed: 1,
        faults: FaultModel::none().with_partition(0, 1, 0, 2_000_000),
        workload,
        protocol: "fifo".into(),
        reliable: true,
        spec: None,
        step_limit: 1_000_000,
    };
    let trace = record(&s).expect("records").trace;
    let user_frames: Vec<_> = trace
        .events
        .iter()
        .filter_map(|e| match e {
            KernelEvent::Wire(w) => match w.payload {
                PayloadKind::User { .. } => Some(w),
                PayloadKind::Control { .. } => None,
            },
            _ => None,
        })
        .collect();
    assert_eq!(
        user_frames.len(),
        10,
        "exactly the attempt budget, not one frame more"
    );
    assert!(
        user_frames.iter().all(|w| w.decision.dropped.is_some()),
        "the partition ate every attempt"
    );
}

/// A protocol that delivers twice — the counterexample-producing bug
/// used to exercise `SimError::as_trace`.
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
        ctx.deliver(msg); // bug
    }
}

/// Satellite 5: a counterexample converts to a trace that reproduces the
/// identical error at the identical node and time, and the trace replays
/// (reconstructing the failing prefix) cleanly.
#[test]
fn sim_error_as_trace_reproduces_the_counterexample() {
    let s = Setup {
        processes: 3,
        latency: LatencyModel::Uniform { lo: 1, hi: 100 },
        seed: 5,
        faults: FaultModel::none(),
        workload: Workload::uniform_random(3, 6, 5),
        protocol: "double-deliver".into(), // not in the registry
        reliable: false,
        spec: Some("fifo".into()),
        step_limit: 1_000_000,
    };
    let recorded = record_with(&s, |_| DoubleDeliver).expect("records");
    let err = recorded
        .outcome
        .as_ref()
        .expect_err("the bug fires")
        .clone();
    let trace = err
        .as_trace_with(&s, |_| DoubleDeliver)
        .expect("as_trace reproduces");
    let summary = trace.footer.error.as_ref().expect("error captured");
    assert_eq!(summary.node, err.node.0);
    assert_eq!(summary.time, err.time);
    assert_eq!(summary.msg, err.msg.map(|m| m.0));
    assert!(
        summary.kind.contains("invalid delivery"),
        "{}",
        summary.kind
    );

    // The protocol is not in the registry: replay validates integrity and
    // re-verifies the spec over the reconstructed failing prefix.
    let report = replay(&trace).expect("replay runs");
    assert!(report.fingerprint_ok);
    assert!(report.reexecution.is_none());
    assert!(report.ok());
}

/// `as_trace` against a setup that does *not* reproduce the error is a
/// divergence, not a silently wrong trace.
#[test]
fn as_trace_flags_divergent_setups() {
    let s = Setup {
        processes: 3,
        latency: LatencyModel::Uniform { lo: 1, hi: 100 },
        seed: 5,
        faults: FaultModel::none(),
        workload: Workload::uniform_random(3, 6, 5),
        protocol: "fifo".into(),
        reliable: false,
        spec: None,
        step_limit: 1_000_000,
    };
    let err = record_with(&s, |_| DoubleDeliver)
        .expect("records")
        .outcome
        .expect_err("bug fires");
    // Re-recording with the *healthy* registry fifo protocol cannot
    // reproduce the counterexample.
    match err.as_trace(&s) {
        Err(TraceError::Divergence(_)) => {}
        other => panic!("expected divergence, got {other:?}"),
    }
}

/// Online-halted runs record the halted prefix and still replay: the
/// re-executed stream extends the recording, and the verdict reproduces.
#[test]
fn halted_recording_replays_as_a_prefix() {
    let pred = catalog::by_name("fifo").expect("catalog fifo").predicate;
    let s = Setup {
        processes: 3,
        latency: LatencyModel::Uniform { lo: 1, hi: 500 },
        seed: 2,
        faults: FaultModel::none(),
        workload: Workload::uniform_random(3, 30, 2),
        protocol: "async".into(),
        reliable: false,
        spec: Some("fifo".into()),
        step_limit: 1_000_000,
    };
    // Find a seed where async actually violates fifo.
    let mut s = s;
    let mut chosen = None;
    for seed in 0..50u64 {
        s.seed = seed;
        s.workload = Workload::uniform_random(3, 30, seed);
        let recorded = record(&s).expect("records");
        if recorded
            .trace
            .footer
            .verdict
            .as_ref()
            .is_some_and(|v| v.violated)
        {
            chosen = Some(seed);
            break;
        }
    }
    let seed = chosen.expect("async violates fifo on some small seed");
    s.seed = seed;
    s.workload = Workload::uniform_random(3, 30, seed);

    let mut monitor = msgorder_protocols::OnlineMonitor::halting(&pred);
    let kind = msgorder_protocols::ProtocolKind::by_name("async", None).unwrap();
    let recorded = msgorder_trace::record_with_extra(
        &s,
        |node| kind.instantiate_with(3, node, false),
        Some(&mut monitor),
    )
    .expect("records");
    assert!(monitor.violated());
    let trace = recorded.trace;
    assert!(trace.footer.halted, "the monitor halted the run");
    let verdict = trace.footer.verdict.as_ref().expect("spec verdict");
    assert!(verdict.violated);

    let report = replay(&trace).expect("replay runs");
    assert!(report.ok(), "halted trace replays as a prefix: {report:?}");
    // The re-execution really ran (and ran past the halt): its stream
    // differs from the recording, yet extends it.
    let re = report.reexecution.expect("async is a registry protocol");
    assert!(re.identical && re.fingerprint != trace.footer.fingerprint);
    // The shrinker re-executes through the same function and the same
    // verdict path, so the halted prefix still classifies.
    assert_eq!(
        msgorder_trace::shrink::classify_trace(&trace).expect("re-executes"),
        Some(msgorder_trace::shrink::VerdictClass::SpecViolated)
    );
}

/// A header may name at most `Setup::max_messages(n)` sends: the
/// flags' ceiling holds for trace headers too.
#[test]
fn a_setup_past_the_clock_ceiling_is_refused() {
    let n = Setup::MAX_PROCESSES;
    let at = |messages: usize| Setup {
        processes: n,
        workload: Workload::uniform_random(n, messages, 1),
        ..setup("fifo", false, FaultModel::none(), 1, 0)
    };
    let max = Setup::max_messages(n);
    assert_eq!(max * 2 * n, Setup::MAX_CLOCK_WORDS);
    assert_eq!(at(max).validate(), Ok(()));
    let err = at(max + 1).validate().unwrap_err();
    assert_eq!(
        err,
        SetupError::TooManyMessages {
            messages: max + 1,
            processes: n
        }
    );
    assert!(err
        .to_string()
        .contains("(at most 32768 over 256 processes"));
}

/// Malformed trace files are structured errors, not panics.
#[test]
fn malformed_jsonl_is_rejected_with_structure() {
    assert!(matches!(Trace::from_jsonl(""), Err(TraceError::Schema(_))));
    assert!(matches!(
        Trace::from_jsonl("{\"nonsense\":1}\n"),
        Err(TraceError::Parse(_))
    ));
    let s = setup("fifo", false, FaultModel::none(), 1, 4);
    let good = record(&s)
        .expect("records")
        .trace
        .to_jsonl()
        .expect("serializes");
    // Drop the footer line.
    let truncated: String = good
        .lines()
        .filter(|l| !l.contains("Footer"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(matches!(
        Trace::from_jsonl(&truncated),
        Err(TraceError::Schema(_))
    ));
    // Future schema versions are refused, not misread.
    let bumped = good.replacen(
        &format!("\"version\":{TRACE_VERSION}"),
        "\"version\":999",
        1,
    );
    assert_ne!(bumped, good);
    assert!(matches!(
        Trace::from_jsonl(&bumped),
        Err(TraceError::Schema(_))
    ));
}

fn golden(name: &str) -> String {
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path).expect("golden reads")
}

/// The goldens were re-recorded at schema v3 without moving an event's
/// time or decision. The fingerprint hashes events, not file bytes, so
/// the two goldens without a control frame keep their v1 values; a wire
/// record carries its frame's length, so `trace-v3`'s pin moved with its
/// acks. Each footer carries — and each event stream recomputes — its
/// pin, and the derived schema writes each file back byte for byte.
#[test]
fn v3_goldens_keep_their_pinned_fingerprints() {
    for (name, pin) in [
        ("trace-v3.jsonl", 10934304705225658992),
        ("shrunk-v3.jsonl", 7224746513626374873),
        ("shrunk-adversarial-v3.jsonl", 10760362535232550892),
    ] {
        let text = golden(name);
        let trace = Trace::from_jsonl(&text).expect("golden parses");
        assert_eq!(trace.header.version, TRACE_VERSION, "{name}");
        assert_eq!(trace.footer.fingerprint, pin, "{name}");
        assert_eq!(
            fingerprint(trace.header.setup.processes, &trace.events),
            pin,
            "{name}"
        );
        assert_eq!(trace.to_jsonl().expect("serializes"), text, "{name}");
    }
}

/// A v1 header is refused by its version even though its fault model
/// lacks a key v2 requires: the number is read before the fields. A v2
/// header is refused the same way, though it parses: its control byte
/// counts belong to another framing.
#[test]
fn a_v1_header_is_refused_by_its_version() {
    let v3 = golden("trace-v3.jsonl");
    let v1 = v3.replacen("\"version\":3", "\"version\":1", 1).replacen(
        ",\"adversarial\":{\"corrupt\":0.0,\"forge\":0.0,\"replay_stale\":0.0,\"reorder\":0.0}",
        "",
        1,
    );
    let v2 = v3.replacen("\"version\":3", "\"version\":2", 1);
    for (old, text) in [(1, v1), (2, v2)] {
        match Trace::from_jsonl(&text) {
            Err(TraceError::Schema(why)) => {
                assert_eq!(why, format!("trace version {old} (this build reads 3)"));
            }
            other => panic!("expected a version refusal, got {other:?}"),
        }
    }
}

#[test]
fn unknown_protocol_is_a_structured_error() {
    let s = setup("no-such-protocol", false, FaultModel::none(), 1, 4);
    assert!(matches!(record(&s), Err(TraceError::UnknownProtocol(_))));
}

#[test]
fn out_of_range_workload_process_is_a_counterexample_not_a_panic() {
    let mut s = setup("fifo", false, FaultModel::none(), 1, 4);
    s.processes = 2;
    s.workload = Workload::uniform_random(2, 4, 1);
    s.workload.sends[2].dst = 7;
    // With a spec the verdict needs the run rebuilt from the header,
    // which names the bad request itself.
    assert!(matches!(record(&s), Err(TraceError::Setup(_))));
    s.spec = None;
    let recorded = record(&s).expect("a bad request is an outcome, not a refusal");
    let e = recorded.outcome.unwrap_err();
    assert_eq!(e.kind.discriminant_name(), "invalid-request");
    assert_eq!(e.msg, Some(MessageId(2)));
    let footer = recorded.trace.footer.error.expect("the footer carries it");
    assert_eq!(
        footer.kind,
        "invalid send request: P7 out of range for 2 processes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property form of the round-trip: arbitrary (protocol, faults,
    /// seed, size) → identical fingerprint, stats, and verdict under
    /// replay.
    #[test]
    fn round_trip_property(
        seed in 0u64..500,
        msgs in 2usize..20,
        proto_ix in 0usize..4,
        fault_ix in 0usize..4,
    ) {
        let protocol = ["async", "fifo", "causal-rst", "sync"][proto_ix];
        let (faults, reliable) = fault_grid().swap_remove(fault_ix);
        let mut s = setup(protocol, reliable, faults, seed, msgs);
        s.workload = Workload::uniform_random(3, msgs, seed);
        let recorded = record(&s).expect("records");
        let parsed = Trace::from_jsonl(&recorded.trace.to_jsonl().expect("serializes")).expect("parses");
        prop_assert_eq!(&parsed, &recorded.trace);
        let report = replay(&parsed).expect("replays");
        prop_assert!(report.ok(), "replay diverged: {:?}", report);
    }
}
