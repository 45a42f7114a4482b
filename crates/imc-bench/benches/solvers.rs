//! Criterion bench: MAXR solver cost on a fixed RIC collection —
//! the microscopic version of the paper's Fig. 7 runtime comparison —
//! over 1-limb covers (`maxr_solvers`, `bt`) and 2-limb ones
//! (`maxr_solvers_wide`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imc_community::{CommunitySet, ThresholdPolicy};
use imc_core::maxr::engine::{greedy_c_with, greedy_nu_with};
use imc_core::{ImcInstance, MaxrAlgorithm, RicStore, SampleBuf, SolveRequest, SolveStrategy};
use imc_datasets::DatasetId;
use imc_graph::WeightModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// The narrow fixture: communities split at 8 members with `h = 2`, so
/// every cover is one limb.
fn fixture() -> (ImcInstance, RicStore) {
    fixture_split(8, ThresholdPolicy::Constant(2))
}

/// 3,000 samples over the Facebook analog split at `cap` members.
fn fixture_split(cap: usize, threshold: ThresholdPolicy) -> (ImcInstance, RicStore) {
    let graph = imc_datasets::generate(DatasetId::Facebook, 0.5, 1)
        .reweighted(WeightModel::WeightedCascade);
    let communities = CommunitySet::builder(&graph)
        .louvain(7)
        .split_larger_than(cap)
        .threshold(threshold)
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

/// The wide fixture: communities split at 128 members with
/// `h = ⌈0.1·|C|⌉`, so most covers are two limbs — the fixed-width
/// 2-limb arm of the gain-table sweeps and of the sampler's cover
/// propagation (the narrow group above runs the 1-limb arm).
fn bench_wide(c: &mut Criterion) {
    let (instance, col) = fixture_split(128, ThresholdPolicy::Fraction(0.1));
    let mut group = c.benchmark_group("maxr_solvers_wide");
    group.sample_size(10);
    let k = 20;
    group.bench_function("greedy_c", |b| {
        b.iter(|| black_box(greedy_c_with(&col, k, SolveStrategy::Lazy)));
    });
    group.bench_function("greedy_nu", |b| {
        b.iter(|| black_box(greedy_nu_with(&col, k, SolveStrategy::Lazy)));
    });
    group.bench_function("ubg", |b| {
        let req = SolveRequest::new(k);
        b.iter(|| black_box(MaxrAlgorithm::Ubg.solve(&instance, &col, &req).unwrap()));
    });
    group.bench_function("draw", |b| {
        let sampler = instance.sampler();
        let mut rng = StdRng::seed_from_u64(3);
        let mut buf = SampleBuf::default();
        b.iter(|| {
            sampler.sample_into(&mut rng, &mut buf);
            black_box(buf.len())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_wide);
criterion_main!(benches);
