//! Run-model benchmarks (EXP-F1 / F4 / F5 code paths): projection,
//! causal past, and the Figure 5 construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use msgorder_runs::construct;
use msgorder_runs::generator::{random_system_run, GenParams};
use msgorder_runs::ProcessId;

fn bench_users_view(c: &mut Criterion) {
    let mut g = c.benchmark_group("runs/users-view");
    for msgs in [10usize, 50, 100, 200, 2_000] {
        let run = random_system_run(GenParams::new(4, msgs, 5));
        g.bench_with_input(BenchmarkId::from_parameter(msgs), &run, |b, run| {
            b.iter(|| run.users_view())
        });
    }
    g.finish();
}

fn bench_causal_past(c: &mut Criterion) {
    let mut g = c.benchmark_group("runs/causal-past");
    for msgs in [10usize, 50, 100] {
        let run = random_system_run(GenParams::new(4, msgs, 9));
        g.bench_with_input(BenchmarkId::from_parameter(msgs), &run, |b, run| {
            b.iter(|| run.causal_past(ProcessId(0)))
        });
    }
    g.finish();
}

fn bench_figure5_construction(c: &mut Criterion) {
    let mut g = c.benchmark_group("runs/figure5-construct");
    for msgs in [10usize, 50, 100] {
        let user = random_system_run(GenParams::new(4, msgs, 2)).users_view();
        g.bench_with_input(BenchmarkId::from_parameter(msgs), &user, |b, user| {
            b.iter(|| construct::system_from_user(user).expect("valid"))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_users_view,
    bench_causal_past,
    bench_figure5_construction
);
criterion_main!(benches);
