//! Online monitoring vs post-hoc evaluation (EXP-O1 code paths).
//!
//! Three ways to decide whether a simulated run violates a forbidden
//! predicate:
//!
//! 1. **post-hoc** — run to drain, build the `SystemRun` transitive
//!    closure, project the user's view, search for an instantiation;
//! 2. **online** — feed every run event to the streaming `Monitor`
//!    while the simulation executes, never building the closure;
//! 3. **online + halt** — same, but stop the simulation at the
//!    violating delivery (the early-exit payoff on unsafe runs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use msgorder_predicate::{catalog, eval, ForbiddenPredicate};
use msgorder_protocols::{AsyncProtocol, CausalRst, FifoProtocol, OnlineMonitor};
use msgorder_simnet::{LatencyModel, Protocol, SimConfig, Simulation, Workload};

fn config(n: usize, seed: u64) -> SimConfig {
    SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 500 }, seed)
}

/// The async protocol against the FIFO spec: violating runs, so the
/// halting pipeline gets to exit early while post-hoc pays full price.
fn bench_online_vs_posthoc(c: &mut Criterion) {
    let n = 3;
    let seed = 3u64;
    let spec = catalog::fifo();
    for msgs in [20usize, 40, 80] {
        let w = Workload::uniform_random(n, msgs, seed);
        let mut g = c.benchmark_group(format!("online-vs-posthoc/{msgs}-messages"));
        g.bench_with_input(BenchmarkId::from_parameter("posthoc"), &w, |b, w| {
            b.iter(|| {
                let r =
                    Simulation::run_uniform(config(n, seed), w.clone(), |_| AsyncProtocol::new())
                        .expect("no protocol bug");
                eval::find_instantiation(&spec, &r.run.users_view())
            })
        });
        g.bench_with_input(BenchmarkId::from_parameter("online"), &w, |b, w| {
            b.iter(|| {
                let mut mon = OnlineMonitor::new(&spec);
                Simulation::new(config(n, seed), w.clone(), |_| AsyncProtocol::new())
                    .run_streaming(&mut mon)
                    .expect("no protocol bug");
                mon.violated()
            })
        });
        g.bench_with_input(BenchmarkId::from_parameter("online-halt"), &w, |b, w| {
            b.iter(|| {
                let mut mon = OnlineMonitor::halting(&spec);
                Simulation::new(config(n, seed), w.clone(), |_| AsyncProtocol::new())
                    .run_streaming(&mut mon)
                    .expect("no protocol bug");
                mon.violated()
            })
        });
        g.finish();
    }
}

/// Safe runs: both pipelines must search the whole run — this isolates
/// the closure-vs-streaming overhead with no early-exit advantage.
fn bench_safe_run<P: Protocol>(
    c: &mut Criterion,
    group: &str,
    w: &Workload,
    n: usize,
    seed: u64,
    spec: &ForbiddenPredicate,
    factory: impl Fn(usize) -> P + Copy,
) {
    let mut g = c.benchmark_group(format!("online-vs-posthoc/{group}"));
    g.bench_with_input(BenchmarkId::from_parameter("posthoc"), w, |b, w| {
        b.iter(|| {
            let r = Simulation::run_uniform(config(n, seed), w.clone(), factory)
                .expect("no protocol bug");
            eval::find_instantiation(spec, &r.run.users_view())
        })
    });
    g.bench_with_input(BenchmarkId::from_parameter("online"), w, |b, w| {
        b.iter(|| {
            let mut mon = OnlineMonitor::new(spec);
            Simulation::new(config(n, seed), w.clone(), factory)
                .run_streaming(&mut mon)
                .expect("no protocol bug");
            mon.violated()
        })
    });
    g.finish();
}

/// FIFO protocol against the FIFO spec at the size of the violating
/// rows above, and `causal-rst` against the causal spec at the
/// benchmark harness's episode size — where a monitor that scans all
/// completed messages per delivery would lose to the closure.
fn bench_safe_run_overhead(c: &mut Criterion) {
    let (n, seed) = (3, 11);
    let w = Workload::uniform_random(n, 40, seed);
    let fifo = |_| FifoProtocol::new();
    bench_safe_run(c, "safe-40-messages", &w, n, seed, &catalog::fifo(), fifo);
    let (n, seed) = (4, 3);
    let w = Workload::uniform_random(n, 2_000, seed);
    let rst = |_| CausalRst::new(n);
    bench_safe_run(
        c,
        "safe-2000-messages",
        &w,
        n,
        seed,
        &catalog::causal(),
        rst,
    );
}

criterion_group!(benches, bench_online_vs_posthoc, bench_safe_run_overhead);
criterion_main!(benches);
