//! Criterion bench: RIC sample generation throughput (Alg. 1) across
//! community size caps — the inner loop of every IMC solve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imc_community::{BenefitPolicy, CommunitySet, ThresholdPolicy};
use imc_core::{RicSampler, RicStore};
use imc_datasets::DatasetId;
use imc_graph::WeightModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_ric_generation(c: &mut Criterion) {
    let graph = imc_datasets::generate(DatasetId::Facebook, 1.0, 1)
        .reweighted(WeightModel::WeightedCascade);
    let mut group = c.benchmark_group("ric_sample");
    group.sample_size(20);
    for cap in [4usize, 8, 16, 32] {
        let communities = CommunitySet::builder(&graph)
            .louvain(7)
            .split_larger_than(cap)
            .threshold(ThresholdPolicy::Constant(2))
            .benefit(BenefitPolicy::Population)
            .build()
            .unwrap();
        let sampler = RicSampler::new(&graph, &communities);
        group.bench_with_input(BenchmarkId::new("facebook_s", cap), &cap, |b, _| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| black_box(sampler.sample(&mut rng)));
        });
    }
    group.finish();
}

fn bench_collection_build(c: &mut Criterion) {
    let graph = imc_datasets::generate(DatasetId::Facebook, 0.5, 1)
        .reweighted(WeightModel::WeightedCascade);
    let communities = CommunitySet::builder(&graph)
        .louvain(7)
        .split_larger_than(8)
        .threshold(ThresholdPolicy::Constant(2))
        .build()
        .unwrap();
    let sampler = RicSampler::new(&graph, &communities);
    let mut group = c.benchmark_group("ric_collection");
    group.sample_size(10);
    group.bench_function("extend_1000", |b| {
        b.iter(|| {
            let mut col = RicStore::for_sampler(&sampler);
            let mut rng = StdRng::seed_from_u64(9);
            col.extend_with(&sampler, 1000, &mut rng);
            black_box(col.len())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_ric_generation, bench_collection_build);
criterion_main!(benches);
