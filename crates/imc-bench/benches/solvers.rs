//! Criterion bench: MAXR solver cost on a fixed RIC collection —
//! the microscopic version of the paper's Fig. 7 runtime comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imc_community::{CommunitySet, ThresholdPolicy};
use imc_core::maxr::engine::{greedy_c_with, greedy_nu_with};
use imc_core::{ImcInstance, MaxrAlgorithm, RicStore, SolveRequest, SolveStrategy};
use imc_datasets::DatasetId;
use imc_graph::WeightModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn fixture() -> (ImcInstance, RicStore) {
    let graph = imc_datasets::generate(DatasetId::Facebook, 0.5, 1)
        .reweighted(WeightModel::WeightedCascade);
    let communities = CommunitySet::builder(&graph)
        .louvain(7)
        .split_larger_than(8)
        .threshold(ThresholdPolicy::Constant(2))
        .build()
        .unwrap();
    let instance = ImcInstance::new(graph, communities).unwrap();
    let sampler = instance.sampler();
    let mut col = RicStore::for_sampler(&sampler);
    let mut rng = StdRng::seed_from_u64(5);
    col.extend_with(&sampler, 3_000, &mut rng);
    (instance, col)
}

fn bench_solvers(c: &mut Criterion) {
    let (instance, col) = fixture();
    let mut group = c.benchmark_group("maxr_solvers");
    group.sample_size(10);
    for k in [5usize, 20] {
        group.bench_with_input(BenchmarkId::new("greedy_c", k), &k, |b, &k| {
            b.iter(|| black_box(greedy_c_with(&col, k, SolveStrategy::Lazy)));
        });
        group.bench_with_input(BenchmarkId::new("greedy_nu", k), &k, |b, &k| {
            b.iter(|| black_box(greedy_nu_with(&col, k, SolveStrategy::Lazy)));
        });
        group.bench_with_input(BenchmarkId::new("ubg", k), &k, |b, &k| {
            let req = SolveRequest::new(k);
            b.iter(|| black_box(MaxrAlgorithm::Ubg.solve(&instance, &col, &req).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("maf", k), &k, |b, &k| {
            let req = SolveRequest::new(k);
            b.iter(|| black_box(MaxrAlgorithm::Maf.solve(&instance, &col, &req).unwrap()));
        });
    }
    group.finish();

    // BT is far slower (O(|V|) subproblems); bench it separately with a
    // pivot cap so the bench suite stays fast.
    let mut group = c.benchmark_group("bt");
    group.sample_size(10);
    group.bench_function("bt_capped_100_pivots_k5", |b| {
        let req = SolveRequest::new(5).with_candidate_limit(100);
        b.iter(|| black_box(MaxrAlgorithm::Bt.solve(&instance, &col, &req).unwrap()));
    });
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
