//! Property tests: every protocol keeps its guarantee under arbitrary
//! seeds, workload shapes and latency spreads.

use msgorder_predicate::{catalog, eval};
use msgorder_protocols::ProtocolKind;
use msgorder_runs::limit_sets;
use msgorder_simnet::{LatencyModel, SimConfig, Simulation, Workload};
use proptest::prelude::*;

fn run(
    kind: &ProtocolKind,
    procs: usize,
    w: Workload,
    seed: u64,
    hi: u64,
) -> msgorder_simnet::StreamResult {
    Simulation::run_uniform(
        SimConfig::new(procs, LatencyModel::Uniform { lo: 1, hi }, seed),
        w,
        |node| kind.instantiate(procs, node),
    )
    .expect("no protocol bug")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fifo_always_fifo(procs in 2usize..5, msgs in 1usize..14, seed in 0u64..10_000, hi in 2u64..1500) {
        let w = Workload::uniform_random(procs, msgs, seed);
        let r = run(&ProtocolKind::Fifo, procs, w, seed, hi);
        prop_assert!(r.completed && r.run.is_quiescent());
        prop_assert!(eval::satisfies_spec(&catalog::fifo(), &r.run.users_view()));
        prop_assert_eq!(r.stats.control_messages, 0);
    }

    #[test]
    fn rst_always_causal(procs in 2usize..5, msgs in 1usize..12, seed in 0u64..10_000, hi in 2u64..1500) {
        let w = Workload::uniform_random(procs, msgs, seed);
        let r = run(&ProtocolKind::CausalRst, procs, w, seed, hi);
        prop_assert!(r.completed && r.run.is_quiescent());
        prop_assert!(limit_sets::in_x_co(&r.run.users_view()));
        prop_assert_eq!(r.stats.control_messages, 0);
    }

    #[test]
    fn ses_always_causal(procs in 2usize..5, msgs in 1usize..12, seed in 0u64..10_000, hi in 2u64..1500) {
        let w = Workload::uniform_random(procs, msgs, seed);
        let r = run(&ProtocolKind::CausalSes, procs, w, seed, hi);
        prop_assert!(r.completed && r.run.is_quiescent());
        prop_assert!(limit_sets::in_x_co(&r.run.users_view()));
    }

    #[test]
    fn sync_always_synchronous(procs in 2usize..5, msgs in 1usize..10, seed in 0u64..10_000,
                               batched in any::<bool>()) {
        let w = Workload::uniform_random(procs, msgs, seed);
        let kind = if batched { ProtocolKind::SyncBatched } else { ProtocolKind::Sync };
        let r = run(&kind, procs, w, seed, 700);
        prop_assert!(r.completed && r.run.is_quiescent());
        prop_assert!(limit_sets::in_x_sync(&r.run.users_view()));
        prop_assert!(r.stats.control_messages > 0 || msgs == 0);
    }

    #[test]
    fn flush_honours_markers(procs in 2usize..4, msgs in 2usize..14, seed in 0u64..10_000,
                             every in 2usize..6) {
        let w = Workload::with_markers(procs, msgs, every, "red", seed);
        let r = run(&ProtocolKind::Flush, procs, w, seed, 800);
        prop_assert!(r.completed && r.run.is_quiescent());
        prop_assert!(eval::satisfies_spec(
            &catalog::local_forward_flush(),
            &r.run.users_view()
        ));
    }

    #[test]
    fn bss_broadcasts_causally(procs in 2usize..5, rounds in 1usize..7, seed in 0u64..10_000) {
        let w = Workload::broadcast_rounds(procs, rounds, seed);
        let r = Simulation::run_uniform(
            SimConfig::new(procs, LatencyModel::Uniform { lo: 1, hi: 900 }, seed),
            w,
            |me| msgorder_protocols::CausalBss::new(procs, me),
        )
        .expect("no protocol bug");
        prop_assert!(r.completed && r.run.is_quiescent());
        prop_assert!(limit_sets::in_x_co(&r.run.users_view()));
    }

    #[test]
    fn synthesized_causal_safe_live(msgs in 1usize..9, seed in 0u64..10_000) {
        let pred = catalog::causal();
        let w = Workload::uniform_random(3, msgs, seed);
        let r = run(&ProtocolKind::Synthesized(vec![pred.clone()]), 3, w, seed, 800);
        prop_assert!(r.completed && r.run.is_quiescent());
        prop_assert!(eval::satisfies_spec(&pred, &r.run.users_view()));
        prop_assert_eq!(r.stats.control_messages, 0);
    }
}
