//! Limit-set membership benchmarks (EXP-S1 code paths): `X_co` and
//! `X_sync` checks as runs grow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use msgorder_runs::generator::{random_causal_run, random_user_run, GenParams};
use msgorder_runs::limit_sets;

fn bench_memberships(c: &mut Criterion) {
    let mut g = c.benchmark_group("limit-sets");
    for msgs in [10usize, 25, 50, 100, 2_000] {
        let run = random_user_run(GenParams::new(4, msgs, 13));
        // A member of X_co, so the check scans every message; an
        // unconstrained run of any size is refuted within a few.
        let causal = random_causal_run(GenParams::new(4, msgs, 13));
        g.bench_with_input(BenchmarkId::new("x_co", msgs), &causal, |b, run| {
            b.iter(|| limit_sets::in_x_co(run))
        });
        g.bench_with_input(BenchmarkId::new("x_sync", msgs), &run, |b, run| {
            b.iter(|| limit_sets::in_x_sync(run))
        });
        g.bench_with_input(BenchmarkId::new("sync_numbering", msgs), &run, |b, run| {
            b.iter(|| limit_sets::sync_numbering(run))
        });
    }
    g.finish();
}

fn bench_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("generate");
    for msgs in [10usize, 50, 100] {
        g.bench_with_input(BenchmarkId::new("random-run", msgs), &msgs, |b, &m| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                random_user_run(GenParams::new(4, m, seed))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_memberships, bench_generation);
criterion_main!(benches);
