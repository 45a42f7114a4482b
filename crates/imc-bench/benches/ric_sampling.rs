//! Criterion bench: RIC sample generation throughput (Alg. 1) across
//! community size caps — the inner loop of every IMC solve — and the store
//! build behind every cold start (`store_build`).
//!
//! `cargo bench -p imc-bench --bench ric_sampling`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imc_community::{BenefitPolicy, CommunitySet, ThresholdPolicy};
use imc_core::{default_workers, RicSampler, RicStore, SampleBuf};
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

/// The whole store build — draw, append and inverted index — on the two
/// Wiki-Vote analogs of the repository benchmark (weighted cascade,
/// Louvain split at the size cap, population benefits, dataset seed 1):
/// `narrow` is the ladder's instance (scale 0.3, cap 8, `h = 2`, 40,000
/// samples), `wide` is `imcaf-wide`'s (scale 1.0, cap 128,
/// `h = ⌈0.1·|C|⌉`, 10,000 samples). One worker draws and indexes on the
/// calling thread; all workers is `default_workers()`, what the benchmark's
/// cold starts and IMCAF's growth use.
fn bench_store_build(c: &mut Criterion) {
    let cases = [
        ("narrow", 0.3, 8, ThresholdPolicy::Constant(2), 40_000),
        ("wide", 1.0, 128, ThresholdPolicy::Fraction(0.1), 10_000),
    ];
    let mut group = c.benchmark_group("store_build");
    group.sample_size(10);
    for (name, scale, cap, threshold, samples) in cases {
        let graph = imc_datasets::generate(DatasetId::WikiVote, scale, 1)
            .reweighted(WeightModel::WeightedCascade);
        let communities = CommunitySet::builder(&graph)
            .louvain(1)
            .split_larger_than(cap)
            .threshold(threshold)
            .benefit(BenefitPolicy::Population)
            .build()
            .unwrap();
        let sampler = RicSampler::new(&graph, &communities);
        for workers in [1, default_workers()] {
            let id = BenchmarkId::new(name, format!("{workers}w"));
            group.bench_with_input(id, &workers, |b, &workers| {
                b.iter(|| {
                    let mut store = RicStore::for_sampler(&sampler);
                    store.extend_parallel_with_workers(&sampler, samples, 7, workers);
                    black_box(store.index_entries())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ric_generation,
    bench_collection_build,
    bench_store_build
);
criterion_main!(benches);
