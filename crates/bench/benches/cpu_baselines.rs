//! Criterion: the real CPU baseline (dynamic one-core-per-matrix on the
//! shared worker pool) against the sequential reference — actual host wall-time, keeping the
//! analytic model honest about numerics and scheduling.

use criterion::{criterion_group, criterion_main, Criterion};
use vbatch_baselines::cpu_real::{potrf_batch_dynamic, potrf_batch_sequential};
use vbatch_dense::gen::{seeded_rng, spd_vec};
use vbatch_workload::SizeDist;

fn bench_cpu_real(c: &mut Criterion) {
    let mut g = c.benchmark_group("cpu_real");
    g.sample_size(10);
    let sizes = SizeDist::Uniform { max: 64 }.sample_batch(&mut seeded_rng(10), 64);
    let mats: Vec<Vec<f64>> = {
        let mut rng = seeded_rng(11);
        sizes.iter().map(|&n| spd_vec(&mut rng, n)).collect()
    };

    g.bench_function("pool_dynamic", |b| {
        b.iter_batched(
            || mats.clone(),
            |mut m| potrf_batch_dynamic(&mut m, &sizes, 16),
            criterion::BatchSize::SmallInput,
        );
    });
    g.bench_function("sequential", |b| {
        b.iter_batched(
            || mats.clone(),
            |mut m| potrf_batch_sequential(&mut m, &sizes, 16),
            criterion::BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(benches, bench_cpu_real);
criterion_main!(benches);
