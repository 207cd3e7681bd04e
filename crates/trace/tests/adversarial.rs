//! Adversarial fault-model guarantees at the trace layer.
//!
//! Two invariants anchor this PR:
//!
//! 1. **Quiet means bit-identical.** A [`FaultModel`] whose adversarial
//!    knobs are all zero must produce *exactly* the event stream the
//!    pre-adversarial kernel produced — same RNG draws, same schedule,
//!    same fingerprint. The pinned fingerprints below were captured
//!    from the kernel before the adversarial machinery existed; if one
//!    moves, benign runs are paying for faults nobody injected.
//! 2. **Noisy still replays.** Runs with corruption, forgery, stale
//!    replay, and reordering enabled record every injected fault as a
//!    trace decision, so the recording replays bit-exact and the
//!    verdict reproduces.

use msgorder_simnet::{CrashSchedule, FaultModel, LatencyModel, Workload};
use msgorder_trace::{record, replay, Setup, Trace};
use std::path::PathBuf;

/// The CLI's `simulate` setup for 3 processes, 10 messages, drop 0.2,
/// dup 0.1, reliable link — the configuration the baselines were
/// captured under.
fn baseline_setup(protocol: &str, seed: u64) -> Setup {
    Setup {
        processes: 3,
        latency: LatencyModel::Uniform { lo: 1, hi: 800 },
        seed,
        faults: FaultModel::none()
            .with_drop(0.2)
            .and_then(|f| f.with_duplication(0.1))
            .expect("valid probabilities"),
        workload: Workload::uniform_random(3, 10, seed),
        protocol: protocol.to_owned(),
        reliable: true,
        spec: None,
        step_limit: 1_000_000,
    }
}

/// Fingerprints captured from the kernel *before* the adversarial
/// fault model existed. A quiet `AdversarialModel` must not perturb a
/// single RNG draw, so these are equality pins, not golden updates.
#[test]
fn quiet_adversarial_model_keeps_preadversarial_fingerprints() {
    let pins: &[(&str, u64, u64)] = &[
        // Re-captured when control frames became link envelopes (and
        // causal-rst's tag binary before that): a wire record carries
        // its frame's length, so the fingerprint moved while the
        // schedule did not.
        ("fifo", 3, 481955383241209529),
        ("fifo", 11, 6588886763321796717),
        ("causal-rst", 3, 795246106536494931),
        ("causal-rst", 11, 11157499806723830305),
        ("sync", 3, 7792625433906877396),
        ("sync", 11, 8808183383198562721),
        // Captured at the commit before the single-backend kernel, so
        // every fixed-name registry protocol pins that refactor too.
        ("async", 3, 7438647529498225702),
        ("async", 11, 16039800257874485365),
        ("causal-ses", 3, 3259900665696165670),
        ("causal-ses", 11, 11710198535216910509),
        ("flush", 3, 2486484488977183494),
        ("flush", 11, 4852362940803313959),
        ("sync-batched", 3, 6013823015389336972),
        ("sync-batched", 11, 5694308932755874674),
    ];
    for &(protocol, seed, want) in pins {
        let recorded = record(&baseline_setup(protocol, seed)).expect("records");
        assert_eq!(
            recorded.trace.footer.fingerprint, want,
            "{protocol} seed={seed}: quiet adversarial model changed the run"
        );
    }
}

/// Same pin through a crash/restart schedule (every epoch stays 0 until
/// a restart completes, and even then only *control* frames carry it,
/// so a protocol without control frames keeps its bytes).
#[test]
fn quiet_adversarial_model_keeps_crash_schedule_fingerprint() {
    let mut faults = FaultModel::none().with_drop(0.1).expect("valid");
    faults.crashes = vec![CrashSchedule {
        process: 1,
        at: 200,
        restart: Some(900),
    }];
    // `sync`'s link stamps its control frames with `Ctx::epoch`, so its
    // row also pins the epoch a restarted process reports. Re-captured
    // when control frames became link envelopes.
    for (protocol, want) in [
        ("flush", 14055127132968614344),
        ("sync", 942856248819523716),
    ] {
        let setup = Setup {
            processes: 4,
            latency: LatencyModel::Uniform { lo: 1, hi: 800 },
            seed: 7,
            faults: faults.clone(),
            workload: Workload::uniform_random(4, 12, 7),
            protocol: protocol.to_owned(),
            reliable: false,
            spec: None,
            step_limit: 1_000_000,
        };
        let recorded = record(&setup).expect("records");
        assert_eq!(recorded.trace.footer.fingerprint, want, "{protocol}");
    }
}

/// Explicitly setting every adversarial knob to `0.0` is
/// indistinguishable from never touching them: a zero knob must not
/// consume a single draw from the fault RNG stream.
#[test]
fn explicit_zero_knobs_are_bit_identical_to_untouched_model() {
    for protocol in ["fifo", "causal-rst", "sync"] {
        let plain = record(&baseline_setup(protocol, 5)).expect("records");
        let mut setup = baseline_setup(protocol, 5);
        setup.faults = setup
            .faults
            .with_corruption(0.0)
            .and_then(|f| f.with_forgery(0.0))
            .and_then(|f| f.with_stale_replay(0.0))
            .and_then(|f| f.with_reordering(0.0))
            .expect("zero is a valid probability");
        let zeroed = record(&setup).expect("records");
        assert_eq!(
            plain.trace.footer.fingerprint, zeroed.trace.footer.fingerprint,
            "{protocol}: zeroed adversarial knobs perturbed the run"
        );
    }
}

/// Noisy adversarial runs record their injections as decisions: the
/// trace replays bit-exact and reproduces the recorded outcome, for
/// every registry protocol that can take the full fault cocktail.
#[test]
fn adversarial_runs_replay_bit_exact() {
    for protocol in ["async", "fifo", "causal-rst", "causal-ses", "flush", "sync"] {
        for seed in [2u64, 9, 23] {
            let mut setup = baseline_setup(protocol, seed);
            setup.reliable = false;
            setup.faults = setup
                .faults
                .with_corruption(0.15)
                .and_then(|f| f.with_forgery(0.1))
                .and_then(|f| f.with_stale_replay(0.1))
                .and_then(|f| f.with_reordering(0.2))
                .expect("valid probabilities");
            let recorded = record(&setup).expect("records");
            let report = replay(&recorded.trace).expect("replays");
            assert!(
                report.ok(),
                "{protocol} seed={seed}: adversarial trace diverged: {report:?}"
            );
        }
    }
}

/// The checked-in golden adversarial counterexample (shrunk from a
/// chaos finding) replays bit-exact: its wire records carry corrupt
/// decisions and a structured rejection, so this pins the extended
/// trace schema and fingerprint mix.
#[test]
fn golden_adversarial_trace_replays() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/shrunk-adversarial-v3.jsonl");
    let trace = Trace::read(path.to_str().expect("utf-8 path")).expect("reads");
    assert!(
        !trace.header.setup.faults.adversarial.is_quiet(),
        "golden trace must carry a noisy adversarial model"
    );
    let report = replay(&trace).expect("replays");
    assert!(report.ok(), "golden adversarial trace diverged: {report:?}");
}
