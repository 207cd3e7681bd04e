//! Property tests for predicates: parsing, normalization, evaluation.

use msgorder_predicate::{catalog, eval, ForbiddenPredicate, Normalized, Var};
use msgorder_runs::generator::{random_user_run, GenParams};
use proptest::prelude::*;

fn arb_predicate() -> impl Strategy<Value = ForbiddenPredicate> {
    (2usize..5, 1usize..6)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The parser returns errors, never panics, on arbitrary input.
    #[test]
    fn parser_total(input in "\\PC{0,60}") {
        let _ = ForbiddenPredicate::parse(&input);
    }

    /// Display output always re-parses to the same predicate.
    #[test]
    fn display_roundtrip(pred in arb_predicate()) {
        let back = ForbiddenPredicate::parse(&pred.to_string()).unwrap();
        prop_assert_eq!(pred.conjuncts(), back.conjuncts());
        prop_assert_eq!(pred.constraints(), back.constraints());
    }

    /// Normalization is idempotent.
    #[test]
    fn normalize_idempotent(pred in arb_predicate()) {
        match pred.normalize() {
            Normalized::Predicate(p1) => match p1.normalize() {
                Normalized::Predicate(p2) => prop_assert_eq!(p1, p2),
                other => prop_assert!(false, "lost satisfiability: {other:?}"),
            },
            Normalized::Unsatisfiable(_) => {}
        }
    }

    /// Normalization never changes evaluation (vacuous self-conjuncts
    /// are truly vacuous; unsatisfiable predicates never hold).
    #[test]
    fn normalize_preserves_semantics(pred in arb_predicate(), seed in 0u64..5_000) {
        let run = random_user_run(GenParams::new(3, 5, seed));
        let direct = eval::holds(&pred, &run);
        match pred.normalize() {
            Normalized::Predicate(p) => {
                prop_assert_eq!(direct, eval::holds(&p, &run));
            }
            Normalized::Unsatisfiable(_) => prop_assert!(!direct),
        }
    }

    /// `holds` and `count_instantiations` agree.
    #[test]
    fn holds_agrees_with_count(pred in arb_predicate(), seed in 0u64..5_000) {
        let run = random_user_run(GenParams::new(3, 5, seed));
        let c = eval::count_instantiations(&pred, &run, usize::MAX);
        prop_assert_eq!(eval::holds(&pred, &run), c > 0);
    }

    /// A found instantiation really satisfies every conjunct.
    #[test]
    fn instantiations_check_out(pred in arb_predicate(), seed in 0u64..5_000) {
        use msgorder_runs::UserEvent;
        let run = random_user_run(GenParams::new(3, 5, seed));
        if let Some(inst) = eval::find_instantiation(&pred, &run) {
            // injective
            let mut sorted = inst.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), inst.len());
            for c in pred.conjuncts() {
                let a = UserEvent { msg: inst[c.lhs.var.0], kind: c.lhs.kind };
                let b = UserEvent { msg: inst[c.rhs.var.0], kind: c.rhs.kind };
                prop_assert!(run.before(a, b), "conjunct {c:?} unsatisfied");
            }
        }
    }
}

#[test]
fn prepared_agrees_with_free_functions() {
    // The plan-hoisted evaluator is a pure refactoring of the free
    // functions — same verdict on every run.
    for entry in catalog::all() {
        let prep = eval::Prepared::new(&entry.predicate);
        for seed in 0..8 {
            let run = random_user_run(GenParams::new(3, 10, seed));
            assert_eq!(
                prep.holds(&run),
                eval::holds(&entry.predicate, &run),
                "{} seed {seed}",
                entry.name
            );
        }
    }
}
