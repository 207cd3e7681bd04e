//! Protocol benchmarks (EXP-P1 / EXP-P2 / EXP-F2 / EXP-F3 code paths):
//! whole-simulation throughput per protocol and scaling in message count.
//! `causal-rst` at scale is the benchmark harness's `sim-bare` workload
//! and its `protocols.dispatch_ns.causal-rst` row, not a group here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use msgorder_predicate::catalog;
use msgorder_protocols::ProtocolKind;
use msgorder_simnet::{LatencyModel, SimConfig, Simulation, Workload};

fn config(n: usize, seed: u64) -> SimConfig {
    SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 500 }, seed)
}

fn bench_protocol_comparison(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocols/30-messages");
    let n = 4;
    let w = Workload::uniform_random(n, 30, 17);
    let mut kinds = ProtocolKind::fixed();
    kinds.push(ProtocolKind::Synthesized(vec![catalog::causal()]));
    for kind in kinds {
        g.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, kind| {
                b.iter(|| {
                    let r = Simulation::run_uniform(config(n, 17), w.clone(), |node| {
                        kind.instantiate(n, node)
                    })
                    .expect("no protocol bug");
                    assert!(r.run.is_quiescent());
                    r.stats
                })
            },
        );
    }
    g.finish();
}

fn bench_sync_contention(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocols/sync-contention");
    let n = 4;
    for burst in [2usize, 4, 8] {
        let w = Workload::client_server(n, 3, burst, 31);
        g.bench_with_input(BenchmarkId::from_parameter(burst), &w, |b, w| {
            b.iter(|| {
                Simulation::run_uniform(config(n, 31), w.clone(), |node| {
                    ProtocolKind::Sync.instantiate(n, node)
                })
                .expect("no protocol bug")
                .stats
            })
        });
    }
    g.finish();
}

fn bench_synthesized_scaling(c: &mut Criterion) {
    // The synthesized protocol's tag is its full causal history; this
    // bench tracks how simulation cost grows with the message count —
    // the motivation for the pruning future-work noted in its docs.
    let mut g = c.benchmark_group("protocols/synthesized-scaling");
    g.sample_size(10);
    let n = 3;
    for msgs in [10usize, 20, 40] {
        let w = Workload::uniform_random(n, msgs, 29);
        g.bench_with_input(BenchmarkId::from_parameter(msgs), &w, |b, w| {
            b.iter(|| {
                Simulation::run_uniform(config(n, 29), w.clone(), |_| {
                    ProtocolKind::Synthesized(vec![catalog::causal()]).instantiate(n, 0)
                })
                .expect("no protocol bug")
                .stats
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_protocol_comparison,
    bench_sync_contention,
    bench_synthesized_scaling
);
criterion_main!(benches);
