//! Property-based tests over randomly generated predicates and runs.

use msgorder::classifier::classify::classify;
use msgorder::classifier::cycles::min_order_by_enumeration;
use msgorder::classifier::min_order::min_cycle_order;
use msgorder::classifier::PredicateGraph;
use msgorder::poset::{Poset, TransitiveClosure};
use msgorder::predicate::{eval, ForbiddenPredicate, Var};
use msgorder::runs::generator::{random_causal_run, random_user_run, GenParams};
use msgorder::runs::limit_sets;
use msgorder::trace::{replay, shrink, Trace};
use proptest::prelude::*;
use serde_json::Value;
use std::panic::catch_unwind;

/// Strategy: a random predicate over `n ∈ [2, 5]` variables with
/// `e ∈ [1, 8]` conjuncts between distinct variables.
fn arb_predicate() -> impl Strategy<Value = ForbiddenPredicate> {
    (2usize..=5, 1usize..=8)
        .prop_flat_map(|(n, e)| {
            let conj = (0..n, 0..n, any::<bool>(), any::<bool>());
            (Just(n), proptest::collection::vec(conj, e))
        })
        .prop_map(|(n, conjs)| {
            let mut b = ForbiddenPredicate::build(n);
            for (u, v, us, vs) in conjs {
                let v = if u == v { (v + 1) % n } else { v };
                let lhs = if us { Var(u).s() } else { Var(u).r() };
                let rhs = if vs { Var(v).s() } else { Var(v).r() };
                b = b.conjunct(lhs, rhs);
            }
            b.finish()
        })
}

/// The checked-in traces whose event lines the edit property mutates.
const GOLDENS: [&str; 3] = [
    include_str!("golden/trace-v3.jsonl"),
    include_str!("golden/shrunk-v3.jsonl"),
    include_str!("golden/shrunk-adversarial-v3.jsonl"),
];

/// The enum tags an event line can carry, each with its siblings.
const VARIANTS: [&[&str]; 6] = [
    &["Run", "Wire", "Fault"],
    &["Invoke", "Send", "Receive", "Deliver"],
    &["User", "Control"],
    &["Partition", "Loss"],
    &[
        "ArrivalAtCrashed",
        "DeferredToRestart",
        "LostToCrash",
        "Rejected",
    ],
    &["Malformed", "StaleEpoch", "Replayed", "Unexpected"],
];

/// `tag`'s sibling variant number `pick` (never `tag` itself).
fn sibling(tag: &str, pick: u64) -> Option<&'static str> {
    let group = VARIANTS.iter().find(|g| g.contains(&tag))?;
    let at = group.iter().position(|t| *t == tag)?;
    let step = 1 + pick as usize % (group.len() - 1);
    Some(group[(at + step) % group.len()])
}

/// Rebuilds `v` with one edit at the site numbered `target`, counting
/// sites depth-first into `seen`: every object key (deleted), every
/// variant tag (swapped for a sibling) and every integer (set to 0,
/// moved by ±1 or set to `u64::MAX`). `pick` chooses among the edits.
fn edit_site(v: &Value, target: usize, pick: u64, seen: &mut usize) -> Value {
    let hit = |seen: &mut usize| {
        *seen += 1;
        *seen - 1 == target
    };
    match v {
        Value::Object(m) => {
            let single = m.len() == 1;
            let mut out = serde_json::Map::new();
            for (key, inner) in m.iter() {
                if hit(seen) {
                    continue; // the key is deleted
                }
                let key = match sibling(key, pick).filter(|_| single) {
                    Some(swapped) if hit(seen) => swapped.to_owned(),
                    _ => key.clone(),
                };
                out.insert(key, edit_site(inner, target, pick, seen));
            }
            Value::Object(out)
        }
        Value::Str(s) => match sibling(s, pick) {
            Some(swapped) if hit(seen) => Value::Str(swapped.to_owned()),
            _ => v.clone(),
        },
        Value::Int(i) if hit(seen) => Value::Int(match pick % 4 {
            0 => 0,
            1 => i + 1,
            2 => i - 1,
            _ => i128::from(u64::MAX),
        }),
        _ => v.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The two min-order engines agree on arbitrary multigraphs.
    #[test]
    fn min_order_engines_agree(pred in arb_predicate()) {
        let g = PredicateGraph::of(&pred);
        let by_enum = min_order_by_enumeration(&g, 1_000_000).map(|c| c.order());
        let by_bfs = min_cycle_order(&g).map(|c| c.order());
        prop_assert_eq!(by_enum, by_bfs, "disagree on {}", pred);
    }

    /// Renaming variables never changes the verdict.
    #[test]
    fn classification_invariant_under_renaming(pred in arb_predicate()) {
        let renamed = pred.clone().with_var_names(
            (0..pred.var_count()).map(|i| format!("v{}", 100 - i)).collect(),
        );
        prop_assert_eq!(
            classify(&pred).classification.protocol_class(),
            classify(&renamed).classification.protocol_class()
        );
    }

    /// Display → parse round-trips the predicate body.
    #[test]
    fn display_parse_roundtrip(pred in arb_predicate()) {
        let reparsed = ForbiddenPredicate::parse(&pred.to_string()).unwrap();
        prop_assert_eq!(pred.conjuncts(), reparsed.conjuncts());
    }

    /// Theorem-3 sufficiency, randomized: if the classifier says the
    /// trivial protocol suffices, no generated run may violate the spec;
    /// if it says tagged suffices, no causally ordered run may.
    #[test]
    fn sufficiency_randomized(pred in arb_predicate(), seed in 0u64..1000) {
        let report = classify(&pred);
        if report.classification.is_tagless_sufficient() {
            let run = random_user_run(GenParams::new(3, 6, seed));
            prop_assert!(eval::satisfies_spec(&pred, &run),
                "tagless-sufficient {} fired on a random run", pred);
        } else if report.classification.is_tagged_sufficient() {
            let run = random_causal_run(GenParams::new(3, 6, seed));
            prop_assert!(eval::satisfies_spec(&pred, &run),
                "tagged-sufficient {} fired on a causal run", pred);
        }
    }

    /// Witnesses produced for random predicates always verify.
    #[test]
    fn witnesses_verify(pred in arb_predicate()) {
        use msgorder::classifier::witness::{separation_witnesses, verify_witness};
        for w in separation_witnesses(&pred) {
            prop_assert!(verify_witness(&pred, &w).is_ok());
        }
    }

    /// Random runs: limit-set containment chain.
    #[test]
    fn containments_random(procs in 2usize..5, msgs in 1usize..9, seed in 0u64..1000) {
        let run = random_user_run(GenParams::new(procs, msgs, seed));
        if limit_sets::in_x_sync(&run) {
            prop_assert!(limit_sets::in_x_co(&run));
        }
        if limit_sets::in_x_co(&run) {
            prop_assert!(limit_sets::in_x_async(&run));
        }
    }

    /// `eval` against the causal predicate agrees with the direct
    /// `X_co` membership test on arbitrary runs.
    #[test]
    fn causal_eval_agrees_with_limit_set(procs in 2usize..5, msgs in 1usize..8, seed in 0u64..1000) {
        let run = random_user_run(GenParams::new(procs, msgs, seed));
        let b2 = msgorder::predicate::catalog::causal();
        prop_assert_eq!(eval::satisfies_spec(&b2, &run), limit_sets::in_x_co(&run));
    }

    /// Transitive closure is idempotent and reduction round-trips.
    #[test]
    fn closure_reduction_roundtrip(
        n in 1usize..12,
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..24),
    ) {
        let pairs: Vec<(usize, usize)> = edges
            .into_iter()
            .filter(|(u, v)| u < &n && v < &n && u < v) // forward edges: acyclic
            .collect();
        let c = TransitiveClosure::from_pairs(n, pairs).expect("forward edges are acyclic");
        let red = c.reduction();
        let c2 = TransitiveClosure::from_pairs(n, red).expect("covers of an order are acyclic");
        prop_assert_eq!(c.pairs(), c2.pairs());
    }

    /// Protocol safety, randomized: each protocol satisfies its own spec
    /// and stays live on arbitrary seeds/workload sizes.
    #[test]
    fn protocols_safe_and_live_randomized(
        seed in 0u64..500,
        msgs in 4usize..16,
        which in 0usize..4,
    ) {
        use msgorder::protocols::{run_and_verify, ProtocolKind};
        use msgorder::simnet::{LatencyModel, SimConfig, Workload};
        let specs = [
            (ProtocolKind::Fifo, msgorder::predicate::catalog::fifo()),
            (ProtocolKind::CausalRst, msgorder::predicate::catalog::causal()),
            (ProtocolKind::CausalSes, msgorder::predicate::catalog::causal()),
            (ProtocolKind::Sync, msgorder::predicate::catalog::sync_crown(2)),
        ];
        let (kind, spec) = &specs[which];
        let n = 3;
        let out = run_and_verify(
            SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 700 }, seed),
            Workload::uniform_random(n, msgs, seed),
            |node| kind.instantiate(n, node),
            spec,
        );
        prop_assert!(out.live, "{} not live at seed {seed}", kind.name());
        prop_assert!(out.safe, "{} violated its spec at seed {seed}: {:?}", kind.name(), out.violation);
    }

    /// The parser never panics on arbitrary input (errors are values).
    #[test]
    fn parser_never_panics(input in ".{0,80}") {
        let _ = msgorder::predicate::ForbiddenPredicate::parse(&input);
    }

    /// One edit to one field of one event line of a golden trace never
    /// causes a panic: the edited file fails to parse, or it parses and
    /// replay refuses it (an error, or a report that is not `ok()` —
    /// the fingerprint covers every field of every event), while
    /// classifying and shrinking it return whatever they return.
    #[test]
    fn edited_event_lines_never_panic(
        golden in 0usize..GOLDENS.len(),
        line in any::<u64>(),
        site in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let text = GOLDENS[golden];
        let original = Trace::from_jsonl(text).expect("golden parses");
        let lines: Vec<&str> = text.lines().collect();
        let events: Vec<usize> =
            (0..lines.len()).filter(|&i| lines[i].starts_with("{\"Event\"")).collect();
        let at = events[line as usize % events.len()];
        let value: Value = serde_json::from_str(lines[at]).expect("event line is JSON");
        let mut sites = 0;
        edit_site(&value, usize::MAX, pick, &mut sites);
        let edited = edit_site(&value, site as usize % sites, pick, &mut 0);
        let mut edited_lines = lines.clone();
        let edited_line = serde_json::to_string(&edited).expect("writes");
        edited_lines[at] = &edited_line;
        let edited_text = edited_lines.join("\n");

        let outcome = catch_unwind(|| {
            let trace = Trace::from_jsonl(&edited_text).ok()?;
            let replayed = replay(&trace).map(|report| report.ok());
            let _ = shrink::classify_trace(&trace);
            let _ = shrink::shrink(&trace);
            Some((trace, replayed))
        });
        prop_assert!(outcome.is_ok(), "panicked on edited line {}", edited_line);
        if let Ok(Some((trace, replayed))) = outcome {
            // An edit may leave the parsed trace as it was (a deleted
            // `null`, a 0 set to 0); any other must not replay clean.
            if trace != original {
                prop_assert!(!matches!(replayed, Ok(true)), "edited line {} replayed OK", edited_line);
            }
        }
    }

    /// Realization preserves the abstract order and its violations.
    #[test]
    fn realization_preserves_relations(procs in 2usize..5, msgs in 1usize..6, seed in 0u64..500) {
        use msgorder::runs::realize::realize;
        let user = random_user_run(GenParams::new(procs, msgs, seed));
        let r = realize(&user).unwrap();
        let view = r.original_view();
        for (a, b) in user.relation_pairs() {
            prop_assert!(view.before(a, b));
        }
        prop_assert!(r.run.is_quiescent());
    }

    /// Every linear extension of a random poset respects the order.
    #[test]
    fn linear_extensions_respect_order(
        n in 1usize..7,
        edges in proptest::collection::vec((0usize..7, 0usize..7), 0..10),
    ) {
        let pairs: Vec<(usize, usize)> = edges
            .into_iter()
            .filter(|(u, v)| u < &n && v < &n && u < v)
            .collect();
        let p = Poset::from_pairs(n, pairs).unwrap();
        let mut count = 0;
        msgorder::poset::linear::for_each_extension(&p, |ext| {
            let mut pos = vec![0usize; n];
            for (i, &v) in ext.iter().enumerate() {
                pos[v] = i;
            }
            for (u, v) in p.relation_pairs() {
                assert!(pos[u] < pos[v]);
            }
            count += 1;
            count < 200 // cap the walk
        });
        prop_assert!(count >= 1);
    }
}
