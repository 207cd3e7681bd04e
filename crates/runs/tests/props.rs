//! Property tests for the run model.

use msgorder_runs::generator::{
    random_abstract_user_run, random_causal_run, random_sync_run, random_system_run,
    random_user_run, GenParams,
};
use msgorder_runs::{
    construct, limit_sets, realize, EventKind, MessageId, ProcessId, StreamingRun, SystemEvent,
    SystemRun, UserEvent, UserEventKind, UserRun,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Generated executions always satisfy the three run conditions
    /// (construction validates) and are complete + quiescent.
    #[test]
    fn generated_runs_valid(procs in 2usize..5, msgs in 0usize..10, seed in 0u64..10_000) {
        let run = random_system_run(GenParams::new(procs, msgs, seed));
        prop_assert!(run.is_quiescent());
        prop_assert!(run.is_complete());
        prop_assert_eq!(run.event_count(), 4 * msgs);
    }

    /// Causal pasts are prefixes, and taking them is idempotent.
    #[test]
    fn causal_past_is_idempotent_prefix(procs in 2usize..4, msgs in 1usize..7, seed in 0u64..10_000) {
        let run = random_system_run(GenParams::new(procs, msgs, seed));
        for p in 0..procs {
            let past = run.causal_past(ProcessId(p));
            prop_assert!(run.is_prefix(&past));
            let again = past.causal_past(ProcessId(p));
            prop_assert_eq!(past.event_count(), again.event_count());
        }
    }

    /// The dedicated generators land in their advertised limit sets.
    #[test]
    fn generators_hit_their_sets(procs in 2usize..5, msgs in 1usize..8, seed in 0u64..10_000) {
        prop_assert!(limit_sets::in_x_co(&random_causal_run(GenParams::new(procs, msgs, seed))));
        prop_assert!(limit_sets::in_x_sync(&random_sync_run(GenParams::new(procs, msgs, seed))));
    }

    /// Abstract runs keep the mandatory s ▷ r edges and stay acyclic.
    #[test]
    fn abstract_runs_valid(procs in 1usize..4, msgs in 0usize..7, seed in 0u64..10_000, d in 0.0f64..0.9) {
        let run = random_abstract_user_run(GenParams::new(procs, msgs, seed), d);
        prop_assert_eq!(run.len(), msgs);
        for i in 0..msgs {
            prop_assert!(run.before(UserEvent::send(MessageId(i)), UserEvent::deliver(MessageId(i))));
        }
    }

    /// Figure 5 construction round-trips execution-derived views exactly.
    #[test]
    fn figure5_roundtrip(procs in 2usize..4, msgs in 1usize..7, seed in 0u64..10_000) {
        let user = random_system_run(GenParams::new(procs, msgs, seed)).users_view();
        prop_assert!(construct::roundtrips_exactly(&user));
    }

    /// Realization preserves relations and produces quiescent executions.
    #[test]
    fn realize_random_abstract_runs(procs in 2usize..4, msgs in 1usize..5, seed in 0u64..10_000) {
        let user = random_abstract_user_run(GenParams::new(procs, msgs, seed), 0.4);
        let r = realize::realize(&user).unwrap();
        prop_assert!(r.run.is_quiescent());
        let view = r.original_view();
        for (a, b) in user.relation_pairs() {
            prop_assert!(view.before(a, b));
        }
    }

    /// Send happens-before receive for every message, every run.
    #[test]
    fn send_precedes_receive(procs in 2usize..5, msgs in 1usize..8, seed in 0u64..10_000) {
        let run = random_system_run(GenParams::new(procs, msgs, seed));
        for m in run.messages() {
            prop_assert!(run.happens_before(
                SystemEvent::new(m.id, EventKind::Send),
                SystemEvent::new(m.id, EventKind::Receive),
            ));
            prop_assert!(run.happens_before(
                SystemEvent::new(m.id, EventKind::Invoke),
                SystemEvent::new(m.id, EventKind::Deliver),
            ));
        }
    }

    /// Users-view projection never invents order: user-view precedence
    /// implies system-view precedence on send/deliver events.
    #[test]
    fn projection_sound(procs in 2usize..4, msgs in 1usize..7, seed in 0u64..10_000) {
        let run = random_system_run(GenParams::new(procs, msgs, seed));
        let user = run.users_view();
        for (a, b) in user.relation_pairs() {
            let kind = |k: UserEventKind| match k {
                UserEventKind::Send => EventKind::Send,
                UserEventKind::Deliver => EventKind::Deliver,
            };
            prop_assert!(run.happens_before(
                SystemEvent::new(a.msg, kind(a.kind)),
                SystemEvent::new(b.msg, kind(b.kind)),
            ), "user view invented {a} ▷ {b}");
        }
    }

    /// At every prefix of a randomly fed run, the validating constructor
    /// accepts the same sequences and agrees with the fed run on `→` for
    /// every event pair. Each prefix is queried before the next append,
    /// so a closure that outlived the append would answer for the
    /// shorter run and be caught.
    #[test]
    fn fed_prefixes_agree_with_from_sequences(procs in 2usize..4, msgs in 1usize..5, seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut run = SystemRun::new(procs);
        for _ in 0..msgs {
            run.message(rng.gen_range(0..procs), rng.gen_range(0..procs));
        }
        let events: Vec<SystemEvent> = (0..msgs)
            .flat_map(|m| EventKind::ALL.map(|k| SystemEvent::new(MessageId(m), k)))
            .collect();
        let mut stage = vec![0usize; msgs];
        loop {
            let seqs = (0..procs).map(|p| run.sequence(ProcessId(p)).to_vec()).collect();
            let reference = SystemRun::from_sequences(procs, run.messages().to_vec(), seqs);
            let reference = reference.expect("a fed prefix satisfies the run conditions");
            for &a in &events {
                for &b in &events {
                    prop_assert_eq!(
                        run.happens_before(a, b),
                        reference.happens_before(a, b),
                        "{} → {} after {} events", a, b, run.event_count()
                    );
                }
            }
            let pending: Vec<usize> = (0..msgs).filter(|&i| stage[i] < 4).collect();
            if pending.is_empty() {
                break;
            }
            let i = pending[rng.gen_range(0..pending.len())];
            run.append(SystemEvent::new(MessageId(i), EventKind::ALL[stage[i]]))
                .expect("stages feed in order");
            stage[i] += 1;
        }
        prop_assert_eq!(run.event_count(), 4 * msgs);
    }
}

// ---------------------------------------------------------------------
// `clone_from` into a run of another shape is a clone.
// ---------------------------------------------------------------------

/// A run over `procs` processes declaring `msgs` random messages (the
/// first one colored) and fed up to `steps` random valid events.
fn fed_run(procs: usize, msgs: usize, steps: usize, rng: &mut StdRng) -> StreamingRun {
    let mut run = StreamingRun::new(procs);
    for i in 0..msgs {
        let (src, dst) = (rng.gen_range(0..procs), rng.gen_range(0..procs));
        if i == 0 {
            run.message_colored(src, dst, "red");
        } else {
            run.message(src, dst);
        }
    }
    let mut stage = vec![0usize; msgs];
    for _ in 0..steps {
        let open: Vec<usize> = (0..msgs).filter(|&i| stage[i] < 4).collect();
        if open.is_empty() {
            break;
        }
        let i = open[rng.gen_range(0..open.len())];
        run.append(SystemEvent::new(MessageId(i), EventKind::ALL[stage[i]]))
            .expect("stages feed in order");
        stage[i] += 1;
    }
    run
}

/// Every event of every declared message of `run`.
fn all_events(run: &SystemRun) -> Vec<SystemEvent> {
    (0..run.messages().len())
        .flat_map(|m| EventKind::ALL.map(|k| SystemEvent::new(MessageId(m), k)))
        .collect()
}

/// `copy` holds what `run` holds: messages, sequences, event flags and
/// `→`, and every field as `Debug` prints it.
fn same_system_run(copy: &SystemRun, run: &SystemRun) -> Result<(), String> {
    prop_assert_eq!(copy.process_count(), run.process_count());
    prop_assert_eq!(copy.messages(), run.messages());
    for p in 0..run.process_count() {
        prop_assert_eq!(copy.sequence(ProcessId(p)), run.sequence(ProcessId(p)));
    }
    let events = all_events(run);
    for &a in &events {
        prop_assert_eq!(copy.contains(a), run.contains(a));
    }
    prop_assert_eq!(copy.event_count(), run.event_count());
    prop_assert_eq!(format!("{copy:?}"), format!("{run:?}"));
    for &a in &events {
        for &b in &events {
            prop_assert_eq!(copy.happens_before(a, b), run.happens_before(a, b));
        }
    }
    Ok(())
}

/// `copy` holds what `run` holds, the clock index included: completion
/// order, every `▷` answer, and the view's digest read off the clocks.
fn same_streaming_run(copy: &StreamingRun, run: &StreamingRun) -> Result<(), String> {
    prop_assert_eq!(format!("{copy:?}"), format!("{run:?}"));
    prop_assert_eq!(copy.completed(), run.completed());
    let users: Vec<UserEvent> = (0..run.messages().len())
        .flat_map(|m| {
            [
                UserEvent::send(MessageId(m)),
                UserEvent::deliver(MessageId(m)),
            ]
        })
        .collect();
    for &a in &users {
        for &b in &users {
            prop_assert_eq!(copy.before(a, b), run.before(a, b));
        }
    }
    prop_assert_eq!(copy.users_view_digest(), run.users_view_digest());
    same_system_run(copy, run)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `clone_from` into a run with more processes, messages and events,
    /// and into one with fewer, leaves a copy equal to a fresh clone —
    /// for a `StreamingRun` and for a `SystemRun`, whether the target's
    /// `→` closure was built and whether the source's is.
    #[test]
    fn clone_from_any_run_is_a_clone(
        procs in 1usize..5,
        msgs in 0usize..8,
        steps in 0usize..40,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let run = fed_run(procs, msgs, steps, &mut rng);
        let system = run.clone().into_run();
        let first = |kind| SystemEvent::new(MessageId(0), kind);
        if seed % 2 == 0 {
            // The source's `→` closure built, so that it is copied too.
            system.happens_before(first(EventKind::Invoke), first(EventKind::Deliver));
        }
        let longer = fed_run(procs + 1, msgs + 3, usize::MAX, &mut rng);
        let shorter = fed_run(procs.max(2) - 1, msgs / 2, steps / 2, &mut rng);
        prop_assert!(longer.event_count() > run.event_count());
        prop_assert!(shorter.event_count() <= run.event_count());
        for mut target in [longer, shorter] {
            let mut target_system = target.clone().into_run();
            // Built, so that a copy keeping it would answer for the
            // target's events.
            target_system.happens_before(first(EventKind::Invoke), first(EventKind::Send));
            target.clone_from(&run);
            same_streaming_run(&target, &run.clone())?;
            target_system.clone_from(&system);
            same_system_run(&target_system, &system.clone())?;
        }
    }
}

// ---------------------------------------------------------------------
// The word-parallel limit-set kernels against their pairwise definitions.
// ---------------------------------------------------------------------

const KINDS: [UserEventKind; 2] = [UserEventKind::Send, UserEventKind::Deliver];

/// `x.h ▷ y.f` for some `h, f` — four `before` queries, the definition
/// of a message-graph edge.
fn some_event_before(run: &UserRun, x: usize, y: usize) -> bool {
    let event = |msg, kind| UserEvent {
        msg: MessageId(msg),
        kind,
    };
    KINDS.into_iter().any(|h| {
        KINDS
            .into_iter()
            .any(|f| run.before(event(x, h), event(y, f)))
    })
}

/// The definition of the first `X_co` violation, pair by pair.
fn pairwise_co_violation(run: &UserRun) -> Option<(MessageId, MessageId)> {
    let ids = || (0..run.len()).map(MessageId);
    ids()
        .flat_map(|x| ids().map(move |y| (x, y)))
        .find(|&(x, y)| {
            x != y
                && run.before(UserEvent::send(x), UserEvent::send(y))
                && run.before(UserEvent::deliver(y), UserEvent::deliver(x))
        })
}

/// Runs on both sides of the 32-message word boundary: executions, and
/// abstract orders sparse enough that all four verdicts occur.
fn oracle_corpus() -> Vec<UserRun> {
    let mut runs = Vec::new();
    for seed in 0..600u64 {
        let procs = 2 + (seed % 4) as usize;
        let msgs = (seed % 71) as usize;
        runs.push(random_user_run(GenParams::new(procs, msgs, seed)));
        let density = [0.002, 0.01, 0.04][(seed % 3) as usize];
        runs.push(random_abstract_user_run(
            GenParams::new(procs, msgs, seed),
            density,
        ));
    }
    runs
}

#[test]
fn limit_set_kernels_match_their_pairwise_definitions() {
    // Verdict tallies, indexed by `usize::from(member)`.
    let (mut co_seen, mut sync_seen) = ([0usize; 2], [0usize; 2]);
    for run in oracle_corpus() {
        let m = run.len();

        let violation = limit_sets::co_violation(&run);
        assert_eq!(
            violation,
            pairwise_co_violation(&run),
            "X_co witness on\n{run}"
        );
        assert_eq!(limit_sets::in_x_co(&run), violation.is_none());
        co_seen[usize::from(violation.is_none())] += 1;

        let graph = run.message_graph();
        let defined: Vec<(usize, usize)> = (0..m)
            .flat_map(|x| (0..m).map(move |y| (x, y)))
            .filter(|&(x, y)| x != y && some_event_before(&run, x, y))
            .collect();
        assert_eq!(graph.edges(), &defined[..], "message graph of\n{run}");

        let is_sync = limit_sets::in_x_sync(&run);
        assert_eq!(is_sync, !graph.has_cycle(), "X_sync verdict on\n{run}");
        sync_seen[usize::from(is_sync)] += 1;

        match limit_sets::sync_violation(&run) {
            Some(crown) => {
                assert!(!is_sync && crown.len() >= 2);
                for (i, x) in crown.iter().enumerate() {
                    let y = crown[(i + 1) % crown.len()];
                    assert!(defined.contains(&(x.0, y.0)), "crown step {x} → {y}");
                    assert!(run.before(UserEvent::send(*x), UserEvent::deliver(y)));
                }
            }
            None => assert!(is_sync),
        }
        let numbering = limit_sets::sync_numbering(&run);
        // Same ready sets at every step of Kahn's algorithm, so the
        // skeleton yields the very numbering the message graph would.
        let on_graph = graph.topo_sort().ok().map(|order| {
            let mut t = vec![0; m];
            for (slot, msg) in order.into_iter().enumerate() {
                t[msg] = slot;
            }
            t
        });
        assert_eq!(numbering, on_graph, "numbering T on\n{run}");
        match numbering {
            Some(t) => {
                assert!(is_sync);
                for &(x, y) in &defined {
                    assert!(t[x] < t[y], "T({x}) < T({y}) on\n{run}");
                }
            }
            None => assert!(!is_sync),
        }
    }
    assert!(
        co_seen.iter().chain(&sync_seen).all(|&seen| seen >= 100),
        "one-sided corpus: X_co [out, in] = {co_seen:?}, X_sync = {sync_seen:?}"
    );
}
