//! Equivalence properties of the one sample backend, on random small
//! instances:
//!
//! * **construction** — `RicStore::extend_with` (scratch buffer straight
//!   into the arena) builds exactly the store `RicStore::from_samples`
//!   builds from owning `RicSampler::sample` draws of the same RNG;
//! * **evaluation** — `RicStore`'s index-driven estimator overrides are
//!   bitwise-equal to the naive per-sample binary-search walk that is the
//!   *provided* half of `RicSamples`, which a zero-copy `RicStoreView`
//!   over `snapshot::encode(&store)` runs un-overridden: identical
//!   `ĉ_R(S)` / `ν_R(S)` and identical solver outputs for every MAXR
//!   algorithm and thread count.

use imc_community::CommunitySet;
use imc_core::snapshot::{self, SnapshotBytes};
use imc_core::{
    ImcInstance, LiveEdgeModel, MaxrAlgorithm, RicSample, RicSampler, RicSamples, RicStore,
    SolveRequest,
};
use imc_graph::{generators::erdos_renyi, NodeId, WeightModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ALGORITHMS: [MaxrAlgorithm; 5] = [
    MaxrAlgorithm::Greedy,
    MaxrAlgorithm::Ubg,
    MaxrAlgorithm::Maf,
    MaxrAlgorithm::Bt,
    MaxrAlgorithm::Mb,
];

/// A random small instance whose thresholds stay ≤ 2, so BT and MB are
/// admissible alongside GREEDY/UBG/MAF.
fn small_instance(seed: u64) -> ImcInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = erdos_renyi(30, 0.1, &mut rng).reweighted(WeightModel::Uniform(0.3));
    let parts = (0..6)
        .map(|c| {
            let members: Vec<NodeId> = (c * 5..c * 5 + 5).map(NodeId::new).collect();
            (members, 1 + (c % 2), 1.0 + f64::from(c))
        })
        .collect();
    let communities = CommunitySet::from_parts(30, parts).unwrap();
    ImcInstance::new(graph, communities).unwrap()
}

fn sampled_store(sampler: &RicSampler<'_>, samples: usize, seed: u64) -> RicStore {
    let mut store = RicStore::for_sampler(sampler);
    store.extend_with(sampler, samples, &mut StdRng::seed_from_u64(seed));
    store
}

/// The store's version-3 snapshot bytes in the aligned arena a
/// `RicStoreView` borrows from.
fn snapshot_of(store: &RicStore) -> SnapshotBytes {
    SnapshotBytes::copy_from(&snapshot::encode(store, 0, 0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arena_append_matches_owning_draws(seed in 0u64..500, samples in 1usize..120) {
        let instance = small_instance(seed);
        let sampler = instance.sampler();
        let store = sampled_store(&sampler, samples, seed ^ 0xA5A5);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
        let owned: Vec<RicSample> = (0..samples).map(|_| sampler.sample(&mut rng)).collect();
        let from_owned = RicStore::from_samples(
            store.node_count(),
            store.community_count(),
            store.total_benefit(),
            &owned,
        )
        .unwrap();
        prop_assert_eq!(&store, &from_owned);
    }

    #[test]
    fn estimators_agree_exactly(
        seed in 0u64..500,
        samples in 1usize..120,
        raw_seeds in proptest::collection::vec(0u32..40, 0..6),
    ) {
        let instance = small_instance(seed);
        let store = sampled_store(&instance.sampler(), samples, seed ^ 0xA5A5);
        let bytes = snapshot_of(&store);
        let view = bytes.view().unwrap();

        let seeds: Vec<NodeId> = raw_seeds.iter().map(|&v| NodeId::new(v.min(29))).collect();
        prop_assert_eq!(view.influenced_count(&seeds), store.influenced_count(&seeds));
        // ĉ is exact (an integer count times a shared factor) and ν is
        // summed in sample order by both paths, so bitwise equality — not
        // approximate equality — is the contract.
        prop_assert_eq!(view.estimate(&seeds), store.estimate(&seeds));
        prop_assert_eq!(view.nu_estimate(&seeds), store.nu_estimate(&seeds));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The determinism contract: for every solver, a request with worker
    /// threads (which BT's pivot loop fans out over) returns exactly the
    /// single-threaded answer, and under each the store and the view agree
    /// on everything but the wall-clock stamp.
    #[test]
    fn solvers_agree_across_strategies_and_implementers(
        seed in 0u64..200,
        samples in 20usize..100,
        k in 1usize..6,
    ) {
        let instance = small_instance(seed);
        let store = sampled_store(&instance.sampler(), samples, seed ^ 0x5A5A);
        let bytes = snapshot_of(&store);
        let view = bytes.view().unwrap();
        let base = SolveRequest::new(k).with_seed(seed);
        let requests = [base, base.with_threads(4)];
        for algo in ALGORITHMS {
            let reference = algo.solve(&instance, &store, &base).unwrap();
            for req in &requests {
                let arena = algo.solve(&instance, &store, req).unwrap();
                let naive = algo.solve(&instance, &view, req).unwrap();
                prop_assert_eq!(
                    &naive.seeds, &arena.seeds,
                    "{} seeds diverged from the view at {} threads", algo.name(), req.threads
                );
                prop_assert_eq!(naive.influenced_samples, arena.influenced_samples);
                prop_assert_eq!(naive.estimate, arena.estimate);
                prop_assert_eq!(naive.evaluations, arena.evaluations);
                prop_assert_eq!(
                    &naive.extras, &arena.extras,
                    "{} extras diverged from the view at {} threads", algo.name(), req.threads
                );
                prop_assert_eq!(
                    &reference.seeds, &arena.seeds,
                    "{} seeds diverged at {} threads", algo.name(), req.threads
                );
                prop_assert_eq!(reference.influenced_samples, arena.influenced_samples);
                prop_assert_eq!(reference.estimate, arena.estimate);
                prop_assert_eq!(reference.evaluations, arena.evaluations);
                prop_assert_eq!(
                    &reference.extras, &arena.extras,
                    "{} extras diverged at {} threads", algo.name(), req.threads
                );
            }
        }
    }
}

/// A planted-partition instance whose first community is the whole
/// 160-member block 0 (three cover limbs); the other two blocks are cut
/// into 8-member communities, so one store holds wide and narrow samples.
fn pinned_instance() -> ImcInstance {
    let mut rng = StdRng::seed_from_u64(11);
    let pp = imc_graph::generators::planted_partition(480, 3, 0.04, 0.004, &mut rng);
    let graph = pp.graph.reweighted(WeightModel::WeightedCascade);
    let mut parts = vec![(pp.blocks[0].clone(), 3, 20.0)];
    for block in &pp.blocks[1..] {
        parts.extend(block.chunks(8).map(|c| (c.to_vec(), 2, 1.0)));
    }
    let communities = CommunitySet::from_parts(480, parts).unwrap();
    ImcInstance::new(graph, communities).unwrap()
}

/// What the sampler *draws*, pinned as `fnv1a(snapshot::encode(store))`.
/// Every other test in this file compares two paths through the same
/// sampler. These constants were recorded at the commit before the
/// sampler body was rewritten over `SampleBuf` scratch (PR 19), by
/// running this test there, and held across the rewrite. A PR that
/// changes one of them changes what is drawn — every seeded result
/// downstream moves with it — and must say so.
#[test]
fn sampler_draws_are_pinned() {
    let instance = pinned_instance();
    let hash = |store: &RicStore| snapshot::fnv1a(&snapshot::encode(store, 0, 0));
    for (model, sequential, sharded) in [
        (
            LiveEdgeModel::IndependentCascade,
            0x4206_a2f6_5000_86d8_u64,
            0xb1b7_68e4_3b40_f70d_u64,
        ),
        (
            LiveEdgeModel::LinearThreshold,
            0x96a8_ec0b_b31d_842e,
            0x6f70_3c4d_f615_d12f,
        ),
    ] {
        let sampler = RicSampler::with_model(instance.graph(), instance.communities(), model);
        let mut store = RicStore::for_sampler(&sampler);
        store.extend_with(&sampler, 300, &mut StdRng::seed_from_u64(7));
        assert_eq!(hash(&store), sequential, "{model:?}: extend_with, seed 7");
        for workers in [1, 3] {
            let mut store = RicStore::for_sampler(&sampler);
            store.extend_parallel_with_workers(&sampler, 300, 7, workers);
            assert_eq!(hash(&store), sharded, "{model:?}: {workers} workers");
        }
    }
}

/// One 100-member community (two cover limbs) beside 8-member ones.
fn two_limb_instance() -> ImcInstance {
    let mut rng = StdRng::seed_from_u64(23);
    let pp = imc_graph::generators::planted_partition(300, 3, 0.05, 0.005, &mut rng);
    let graph = pp.graph.reweighted(WeightModel::WeightedCascade);
    let mut parts = vec![(pp.blocks[0].clone(), 4, 12.0)];
    for block in &pp.blocks[1..] {
        parts.extend(block.chunks(8).map(|c| (c.to_vec(), 2, 1.0)));
    }
    let communities = CommunitySet::from_parts(300, parts).unwrap();
    ImcInstance::new(graph, communities).unwrap()
}

/// What a shard plan appends, pinned as `fnv1a(snapshot::encode(store))`
/// at the commit before `extend_from_plan` began streaming its shards
/// and updating the index in place (recorded by running this test there):
/// the benchmark's reference store, the cluster partition rule and every
/// committed snapshot assume these bytes. Any worker count, and the
/// partition stores of a 2- or 4-daemon cluster laid end to end, give
/// the same ones.
#[test]
fn plan_draws_are_pinned_for_every_worker_count_and_partitioning() {
    let hash = |store: &RicStore| snapshot::fnv1a(&snapshot::encode(store, 0, 0));
    for (name, instance, count, seed, pinned) in [
        // The ladder's plan: 40,000 samples over the 16 sampling shards.
        (
            "ladder plan",
            pinned_instance(),
            40_000,
            7,
            0xbc6b_cf9a_16eb_e901_u64,
        ),
        // Below 64 the plan is one shard.
        (
            "count < 64",
            pinned_instance(),
            50,
            9,
            0x8e30_8cf6_ce39_7b5f,
        ),
        (
            "2-limb",
            two_limb_instance(),
            3_000,
            11,
            0x3760_2105_bf05_d805,
        ),
    ] {
        let sampler = instance.sampler();
        for workers in [1, 2, 8] {
            let mut store = RicStore::for_sampler(&sampler);
            store.extend_parallel_with_workers(&sampler, count, seed, workers);
            assert_eq!(hash(&store), pinned, "{name}: {workers} workers");
            // Appending behind an indexed prefix leaves the index a
            // from-scratch build of the whole arena gives.
            if workers == 2 && count <= 3_000 {
                let mut twice = RicStore::for_sampler(&sampler);
                twice.extend_parallel_with_workers(&sampler, count, seed, workers);
                twice.extend_parallel_with_workers(&sampler, count / 2, seed ^ 1, workers);
                store.extend_parallel_with_workers(&sampler, count / 2, seed ^ 1, 1);
                assert_eq!(twice, store, "{name}: append");
                let owned: Vec<RicSample> = twice.iter().map(|v| v.to_sample()).collect();
                let scratch = RicStore::from_samples(
                    twice.node_count(),
                    twice.community_count(),
                    twice.total_benefit(),
                    &owned,
                )
                .unwrap();
                assert_eq!(twice, scratch, "{name}: index after append");
            }
        }
        for partitions in [2, 4] {
            if count < 64 {
                continue;
            }
            let mut owned: Vec<RicSample> = Vec::new();
            for p in 0..partitions {
                let mut part = RicStore::for_sampler(&sampler);
                part.extend_partition(&sampler, count, seed, p, partitions, 2);
                owned.extend(part.iter().map(|v| v.to_sample()));
            }
            let joined = RicStore::from_samples(
                sampler.graph().node_count(),
                sampler.communities().len(),
                sampler.communities().total_benefit(),
                &owned,
            )
            .unwrap();
            assert_eq!(hash(&joined), pinned, "{name}: {partitions} partitions");
        }
    }
}
