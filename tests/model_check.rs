//! Exhaustive model checking of small configurations: unlike the seeded
//! tests, these verify protocol safety over **every** network schedule
//! of a workload (the explorer branches on all frame orderings).

use msgorder::predicate::{catalog, eval};
use msgorder::protocols::{AsyncProtocol, CausalRst, FifoProtocol, SyncProtocol};
use msgorder::runs::limit_sets;
use msgorder::simnet::{explore, DedupMode, ExploreOptions, SendSpec, Workload};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Stop after `cap` schedules; everything else at its default.
fn capped(cap: usize) -> ExploreOptions {
    ExploreOptions {
        cap,
        ..ExploreOptions::default()
    }
}

fn same_channel(n: u64) -> Workload {
    Workload {
        sends: (0..n)
            .map(|i| SendSpec {
                at: i,
                src: 0,
                dst: 1,
                color: None,
            })
            .collect(),
    }
}

/// The cross-channel causal triangle: P0 -> P1, P0 -> P2, P1 -> P2.
fn triangle() -> Workload {
    Workload {
        sends: vec![
            SendSpec {
                at: 0,
                src: 0,
                dst: 2,
                color: None,
            },
            SendSpec {
                at: 1,
                src: 0,
                dst: 1,
                color: None,
            },
            SendSpec {
                at: 2,
                src: 1,
                dst: 2,
                color: None,
            },
        ],
    }
}

/// `x: P0 -> P1` and `y: P1 -> P0`, issued concurrently.
fn crossing_pair() -> Workload {
    Workload {
        sends: vec![
            SendSpec {
                at: 0,
                src: 0,
                dst: 1,
                color: None,
            },
            SendSpec {
                at: 0,
                src: 1,
                dst: 0,
                color: None,
            },
        ],
    }
}

#[test]
fn fifo_protocol_exhaustively_fifo_on_three_messages() {
    let spec = catalog::fifo();
    let checked = AtomicUsize::new(0);
    let exp = explore(
        2,
        same_channel(3),
        |_| FifoProtocol::new(),
        &capped(100_000),
        &|run| {
            assert!(run.is_quiescent(), "liveness on every schedule");
            assert!(
                eval::satisfies_spec(&spec, &run.users_view()),
                "FIFO violated on a schedule"
            );
            checked.fetch_add(1, Ordering::Relaxed);
            true
        },
    );
    let checked = checked.into_inner();
    assert!(
        !exp.truncated,
        "exploration must be complete to count as proof"
    );
    assert!(
        checked >= 6,
        "expected all arrival interleavings, got {checked}"
    );
}

#[test]
fn async_protocol_exhaustively_shown_non_fifo() {
    let spec = catalog::fifo();
    let violated = AtomicBool::new(false);
    explore(
        2,
        same_channel(2),
        |_| AsyncProtocol::new(),
        &capped(100_000),
        &|run| {
            if !eval::satisfies_spec(&spec, &run.users_view()) {
                violated.store(true, Ordering::Relaxed);
                return false; // counterexample found
            }
            true
        },
    );
    assert!(
        violated.into_inner(),
        "some schedule must invert the two deliveries"
    );
}

#[test]
fn causal_rst_exhaustively_causal_on_the_triangle() {
    let checked = AtomicUsize::new(0);
    let exp = explore(
        3,
        triangle(),
        |_| CausalRst::new(3),
        &capped(200_000),
        &|run| {
            assert!(run.is_quiescent(), "liveness on every schedule");
            assert!(
                limit_sets::in_x_co(&run.users_view()),
                "causal ordering violated on a schedule"
            );
            checked.fetch_add(1, Ordering::Relaxed);
            true
        },
    );
    let checked = checked.into_inner();
    assert!(!exp.truncated);
    assert!(
        checked >= 2,
        "triangle has multiple schedules, got {checked}"
    );
}

/// `CausalRst`'s `Hash` is the per-node key material of the explorer's
/// seen-set, so its state must map one-to-one onto what gets hashed: a
/// representation that merged two states (or split one) would move
/// these counts. Captured at the commit before the matrix went flat.
#[test]
fn causal_rst_exact_dedup_counts_are_pinned_on_the_triangle() {
    for threads in [1, 2] {
        let violating = AtomicUsize::new(0);
        let opts = ExploreOptions {
            dedup: DedupMode::Exact,
            threads,
            ..ExploreOptions::default()
        };
        let exp = explore(3, triangle(), |_| CausalRst::new(3), &opts, &|run| {
            if !limit_sets::in_x_co(&run.users_view()) {
                violating.fetch_add(1, Ordering::Relaxed);
            }
            true
        });
        assert!(!exp.truncated, "threads {threads}");
        assert_eq!(
            (exp.schedules, exp.states, violating.into_inner()),
            (4, 29, 0),
            "threads {threads}"
        );
    }
}

#[test]
fn async_protocol_exhaustively_breaks_the_triangle() {
    let violated = AtomicBool::new(false);
    explore(
        3,
        triangle(),
        |_| AsyncProtocol::new(),
        &capped(200_000),
        &|run| {
            if !limit_sets::in_x_co(&run.users_view()) {
                violated.store(true, Ordering::Relaxed);
                return false;
            }
            true
        },
    );
    assert!(
        violated.into_inner(),
        "the relay must overtake the direct message on some schedule"
    );
}

#[test]
fn sync_protocol_exhaustively_synchronous_on_crossing_pair() {
    // x: P0 -> P1 and y: P1 -> P0 issued concurrently: without control
    // messages these can cross (a crown); the lock protocol must prevent
    // that on EVERY schedule, including all control-frame orderings.
    let w = crossing_pair();
    let checked = AtomicUsize::new(0);
    let exp = explore(2, w, |_| SyncProtocol::new(), &capped(500_000), &|run| {
        assert!(run.is_quiescent(), "liveness on every schedule");
        assert!(
            limit_sets::in_x_sync(&run.users_view()),
            "logical synchrony violated on a schedule"
        );
        checked.fetch_add(1, Ordering::Relaxed);
        true
    });
    let checked = checked.into_inner();
    assert!(!exp.truncated);
    assert!(checked >= 2, "got {checked}");
}

/// The workload with its last send coloured `red`: a forward flush for
/// `flush`, and the message `local_forward_flush` constrains.
fn red_last(mut w: Workload) -> Workload {
    if let Some(last) = w.sends.last_mut() {
        last.color = Some("red".into());
    }
    w
}

/// Safety of the whole registry against each kind's own spec (ROADMAP
/// item 1(a)): over every schedule of the file's three shapes, by full
/// search and under sleep-set reduction, and of one seeded five-message
/// workload under reduction, `verify_exhaustive` finds nothing to
/// condemn, every schedule drains, and `(schedules, sleep_skipped)` is
/// pinned per row. `flush` runs each shape with its last send marked
/// `red`, so that its spec constrains something.
#[test]
fn every_registry_kind_is_exhaustively_safe_for_its_own_spec() {
    use msgorder::protocols::{verify_exhaustive, ProtocolKind};
    let rows = [
        ("same-channel triple", 2, same_channel(3), false),
        ("same-channel triple", 2, same_channel(3), true),
        ("triangle", 3, triangle(), false),
        ("triangle", 3, triangle(), true),
        ("crossing pair", 2, crossing_pair(), false),
        ("crossing pair", 2, crossing_pair(), true),
        (
            "uniform_random(3, 5, 3)",
            3,
            Workload::uniform_random(3, 5, 3),
            true,
        ),
    ];
    // (schedules, sleep_skipped) per row. A tagged kind sends no frame
    // of its own, so all five see one schedule space.
    type Pins = [(usize, usize); 7];
    #[rustfmt::skip]
    const TAGGED: Pins = [(15, 0), (6, 0), (45, 0), (4, 5), (6, 0), (3, 1), (165, 240)];
    #[rustfmt::skip]
    let kinds: [(ProtocolKind, _, bool, Pins); 7] = [
        (ProtocolKind::Fifo, catalog::fifo(), false, TAGGED),
        (ProtocolKind::CausalRst, catalog::causal(), false, TAGGED),
        (ProtocolKind::CausalSes, catalog::causal(), false, TAGGED),
        (ProtocolKind::Synthesized(vec![catalog::causal()]), catalog::causal(), false, TAGGED),
        (ProtocolKind::Flush, catalog::local_forward_flush(), true, TAGGED),
        (ProtocolKind::Sync, catalog::sync_crown(2), false,
         [(231, 0), (73, 42), (1605, 0), (126, 53), (36, 0), (14, 2), (300_711, 62_315)]),
        (ProtocolKind::SyncBatched, catalog::sync_crown(2), false,
         [(53, 0), (38, 9), (1253, 0), (112, 40), (50, 0), (16, 3), (132_355, 40_838)]),
    ];
    for (kind, spec, marked, pins) in &kinds {
        for ((shape, procs, w, por), want) in rows.iter().zip(pins) {
            let opts = ExploreOptions {
                por: *por,
                ..ExploreOptions::default()
            };
            let w = if *marked {
                red_last(w.clone())
            } else {
                w.clone()
            };
            let out = verify_exhaustive(
                *procs,
                w,
                |node| kind.explorable(*procs, node, false),
                spec,
                &opts,
            );
            let row = format!("{} on the {shape}, por {por}", kind.name());
            assert!(out.safe, "{row}: violates {spec}");
            let e = out.exploration;
            assert_eq!(e.non_live, 0, "{row}");
            assert!(!e.truncated, "{row}");
            assert_eq!((e.schedules, e.sleep_skipped), *want, "{row}");
        }
    }
}

/// An unmarked flush channel is asynchronous: on a workload with no
/// colours, `flush` violates causal ordering in exactly the
/// configurations `async` does.
#[test]
fn unmarked_flush_finds_exactly_the_async_violations() {
    use msgorder::protocols::{explore_violations, ProtocolKind};
    let opts = ExploreOptions {
        por: true,
        ..ExploreOptions::default()
    };
    let found = [ProtocolKind::Async, ProtocolKind::Flush].map(|kind| {
        let v = explore_violations(
            3,
            Workload::uniform_random(3, 5, 3),
            |node| kind.explorable(3, node, false),
            &catalog::causal(),
            &opts,
        );
        (v.configs.len(), v.digest())
    });
    assert_eq!(found, [(89, 0x5aa9_4abe_5108_1a13); 2]);
}

/// Sleep-set reduction on reached views, registry-wide: for every kind
/// on the three small shapes, full search and POR reach the same *set*
/// of user views (by `UserRun::digest`), not only the same
/// violations. This is the executable form of the Mazurkiewicz-trace
/// argument (Bollig & Gastin) that the sleep sets rest on: schedules
/// that differ by commuting independent steps end in one configuration,
/// so pruning all but one of them loses no view. The pinned set sizes
/// are what a permissiveness oracle compares against.
#[test]
fn full_and_reduced_search_reach_the_same_views_for_every_kind() {
    use msgorder::protocols::ProtocolKind;
    use std::collections::BTreeSet;
    use std::sync::Mutex;
    let shapes = [(2, same_channel(3)), (3, triangle()), (2, crossing_pair())];
    let mut kinds = ProtocolKind::fixed();
    kinds.push(ProtocolKind::Synthesized(vec![catalog::causal()]));
    let mut sizes = Vec::new();
    for kind in &kinds {
        let mut row = Vec::new();
        for (procs, w) in &shapes {
            let [full, por] = [false, true].map(|por| {
                let views = Mutex::new(BTreeSet::new());
                let opts = ExploreOptions {
                    por,
                    ..ExploreOptions::default()
                };
                let e = explore(
                    *procs,
                    w.clone(),
                    |node| kind.explorable(*procs, node, false),
                    &opts,
                    &|run| {
                        let digest = run.users_view().digest();
                        views.lock().expect("no visitor panicked").insert(digest);
                        true
                    },
                );
                assert!(!e.truncated && e.error.is_none(), "{}", kind.name());
                views.into_inner().expect("no visitor panicked")
            });
            assert_eq!(
                full,
                por,
                "{}: reduction changed the reached views",
                kind.name()
            );
            row.push(full.len());
        }
        sizes.push((kind.name(), row));
    }
    let want: Vec<(&str, Vec<usize>)> = vec![
        ("async", vec![6, 4, 3]),
        ("fifo", vec![1, 4, 3]),
        ("causal-rst", vec![1, 3, 3]),
        ("causal-ses", vec![1, 3, 3]),
        ("flush", vec![6, 4, 3]),
        ("sync", vec![1, 3, 2]),
        ("sync-batched", vec![1, 3, 2]),
        ("synthesized", vec![1, 3, 3]),
    ];
    assert_eq!(sizes, want);
}

/// A kind that sends no control frame appends a run event at its
/// process on every dispatch, so two equal state keys are one
/// Mazurkiewicz trace, which the sleep sets already enter once (ROADMAP
/// item 15(a)). On a seeded shape under reduction the seen-set therefore
/// prunes nothing for the tagless and tagged kinds, which all walk one
/// tree; only the general kinds, whose control frames append no run
/// event, revisit states.
#[test]
fn only_control_frame_kinds_revisit_states_under_reduction() {
    use msgorder::predicate::catalog::PaperClass;
    use msgorder::protocols::ProtocolKind;
    let w = Workload::uniform_random(3, 5, 2);
    // (kind, schedules without the seen-set, schedules and states with it)
    #[rustfmt::skip]
    let pins = [
        (ProtocolKind::Async, 48, 48, 314),
        (ProtocolKind::Fifo, 48, 48, 314),
        (ProtocolKind::CausalRst, 48, 48, 314),
        (ProtocolKind::CausalSes, 48, 48, 314),
        (ProtocolKind::Flush, 48, 48, 314),
        (ProtocolKind::Sync, 8_484, 112, 2_909),
        (ProtocolKind::SyncBatched, 1_708, 65, 1_797),
    ];
    for (kind, off, exact, states) in pins {
        let [o, e] = [DedupMode::Off, DedupMode::Exact].map(|dedup| {
            let opts = ExploreOptions {
                por: true,
                dedup,
                ..ExploreOptions::default()
            };
            let e = explore(
                3,
                w.clone(),
                |node| kind.explorable(3, node, false),
                &opts,
                &|_| true,
            );
            assert!(!e.truncated && e.error.is_none(), "{}", kind.name());
            e
        });
        let name = kind.name();
        assert_eq!(
            (o.schedules, e.schedules, e.states),
            (off, exact, states),
            "{name}"
        );
        let revisits = e.schedules < o.schedules;
        assert_eq!(revisits, kind.class() == PaperClass::General, "{name}");
    }
}

#[test]
fn async_protocol_exhaustively_crosses_the_pair() {
    let w = crossing_pair();
    let crossed = AtomicBool::new(false);
    explore(2, w, |_| AsyncProtocol::new(), &capped(100_000), &|run| {
        if !limit_sets::in_x_sync(&run.users_view()) {
            crossed.store(true, Ordering::Relaxed);
            return false;
        }
        true
    });
    assert!(crossed.into_inner(), "some schedule must cross the pair");
}

/// Explores a workload under `opts` and returns the set of *violating*
/// terminal configurations (canonical user-view strings) plus the
/// explorer's counters.
fn violation_set(
    procs: usize,
    w: &Workload,
    kind: &msgorder::protocols::ProtocolKind,
    spec: &msgorder::predicate::ForbiddenPredicate,
    opts: &ExploreOptions,
) -> (
    std::collections::BTreeSet<String>,
    msgorder::simnet::Exploration,
) {
    let set = std::sync::Mutex::new(std::collections::BTreeSet::new());
    let e = explore(
        procs,
        w.clone(),
        |node| kind.explorable(procs, node, false),
        opts,
        &|run| {
            let view = run.users_view();
            if eval::find_instantiation(spec, &view).is_some() {
                set.lock()
                    .expect("no visitor panicked")
                    .insert(format!("{:?}", view.relation_pairs()));
            }
            true
        },
    );
    (set.into_inner().expect("no visitor panicked"), e)
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

    /// The acceptance property of the reduced explorer: sleep-set
    /// reduction, the sharded parallel frontier, and deduplication all
    /// find exactly the violating configurations of sequential full
    /// search — across random workloads, seeds, real protocols, and
    /// both spec polarities.
    #[test]
    fn reduced_exploration_finds_exactly_the_full_search_violations(
        msgs in 2usize..5, seed in 0u64..200, causal_spec in proptest::prelude::any::<bool>(),
        fifo_protocol in proptest::prelude::any::<bool>(),
    ) {
        use msgorder::simnet::DedupMode;
        let procs = 3;
        let w = Workload::uniform_random(procs, msgs, seed);
        let spec = if causal_spec { catalog::causal() } else { catalog::fifo() };
        let kind = if fifo_protocol {
            msgorder::protocols::ProtocolKind::Fifo
        } else {
            msgorder::protocols::ProtocolKind::Async
        };
        let full = violation_set(procs, &w, &kind, &spec, &ExploreOptions::default());
        let por = violation_set(procs, &w, &kind, &spec, &ExploreOptions {
            por: true,
            ..ExploreOptions::default()
        });
        let por_par = violation_set(procs, &w, &kind, &spec, &ExploreOptions {
            por: true,
            threads: 2,
            ..ExploreOptions::default()
        });
        let por_dedup = violation_set(procs, &w, &kind, &spec, &ExploreOptions {
            por: true,
            dedup: DedupMode::Exact,
            ..ExploreOptions::default()
        });
        proptest::prop_assert_eq!(&full.0, &por.0, "reduction changed the violation set");
        proptest::prop_assert_eq!(&full.0, &por_par.0, "threads changed the violation set");
        proptest::prop_assert_eq!(&full.0, &por_dedup.0, "dedup changed the violation set");
        proptest::prop_assert!(por.1.schedules <= full.1.schedules);
    }
}
