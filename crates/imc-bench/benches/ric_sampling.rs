//! Criterion bench: RIC sample generation throughput (Alg. 1) across
//! community size caps — the inner loop of every IMC solve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imc_community::{BenefitPolicy, CommunitySet, ThresholdPolicy};
use imc_core::{RicSampler, RicStore, SampleBuf};
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
    // Caps 4–32 with `h = 2` are the paper's setting; cap 128 with
    // `h = ⌈0.1·|C|⌉` is the wide case (two cover limbs, samples of
    // hundreds of nodes) that cover propagation was written for.
    let cases = [
        (4usize, ThresholdPolicy::Constant(2)),
        (8, ThresholdPolicy::Constant(2)),
        (16, ThresholdPolicy::Constant(2)),
        (32, ThresholdPolicy::Constant(2)),
        (128, ThresholdPolicy::Fraction(0.1)),
    ];
    for (cap, threshold) in cases {
        let communities = CommunitySet::builder(&graph)
            .louvain(7)
            .split_larger_than(cap)
            .threshold(threshold)
            .benefit(BenefitPolicy::Population)
            .build()
            .unwrap();
        let sampler = RicSampler::new(&graph, &communities);
        group.bench_with_input(BenchmarkId::new("facebook_s", cap), &cap, |b, _| {
            // What production runs: one buffer held across draws (one per
            // worker in `extend_from_plan`'s shards and `estimate_c`'s
            // blocks), not the owning `sample`, which builds its scratch
            // anew on every call.
            let mut rng = StdRng::seed_from_u64(3);
            let mut buf = SampleBuf::default();
            b.iter(|| {
                sampler.sample_into(&mut rng, &mut buf);
                black_box(buf.len())
            });
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
