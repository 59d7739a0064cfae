//! Max-Coverage (Algorithm 2) — lazy-heap greedy vs the textbook rescan,
//! the DESIGN.md §7 ablation for the selection step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sns_bench::oracle::{max_coverage_bucket, max_coverage_naive};
use sns_diffusion::{Model, RrSampler};
use sns_graph::{gen, WeightModel};
use sns_rrset::{max_coverage, RrCollection};

fn build_pool(sets: u64) -> RrCollection {
    let g = gen::rmat(20_000, 120_000, gen::RmatParams::GRAPH500, 3)
        .build(WeightModel::WeightedCascade)
        .unwrap();
    let mut pool = RrCollection::new(g.num_nodes());
    let mut sampler = RrSampler::new(&g, Model::LinearThreshold);
    pool.extend_sequential(&mut sampler, 0, sets);
    pool
}

fn bench_max_coverage(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_coverage_k50");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    for sets in [10_000u64, 50_000] {
        let pool = build_pool(sets);
        group.bench_with_input(BenchmarkId::new("lazy", sets), &pool, |b, pool| {
            b.iter(|| max_coverage(pool, 50).covered)
        });
        group.bench_with_input(BenchmarkId::new("bucket", sets), &pool, |b, pool| {
            b.iter(|| max_coverage_bucket(pool, 50).covered)
        });
        group.bench_with_input(BenchmarkId::new("naive", sets), &pool, |b, pool| {
            b.iter(|| max_coverage_naive(pool, 50).covered)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_max_coverage);
criterion_main!(benches);
