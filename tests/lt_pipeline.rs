//! The Linear Threshold extension end-to-end (paper §II.A: "the solution
//! can be easily extended to the Linear Threshold model").
//!
//! Uses the LT live-edge RIC sampler and grades by forward LT simulation —
//! the unbiasedness argument (Lemma 1) carries over verbatim because the
//! LT live-edge realization is distributed as LT activation.

use imc::prelude::*;
use imc_core::maxr::engine::greedy_nu_with;
use imc_core::{LiveEdgeModel, RicSampler, RicStore, SolveStrategy};
use imc_diffusion::benefit::monte_carlo_benefit;
use imc_graph::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn lt_instance(seed: u64) -> ImcInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let pp = imc::graph::generators::planted_partition(150, 10, 0.35, 0.01, &mut rng);
    let graph = pp.graph.reweighted(WeightModel::WeightedCascade);
    let cs = CommunitySet::builder(&graph)
        .explicit(pp.blocks)
        .split_larger_than(8)
        .threshold(ThresholdPolicy::Constant(2))
        .benefit(BenefitPolicy::Population)
        .build()
        .unwrap();
    ImcInstance::new(graph, cs).unwrap()
}

#[test]
fn lt_ric_estimate_matches_forward_lt_simulation() {
    let inst = lt_instance(3);
    let sampler = RicSampler::with_model(
        inst.graph(),
        inst.communities(),
        LiveEdgeModel::LinearThreshold,
    );
    let mut col = RicStore::for_sampler(&sampler);
    let mut rng = StdRng::seed_from_u64(4);
    col.extend_with(&sampler, 25_000, &mut rng);

    for seeds in [
        vec![NodeId::new(0)],
        (0..5).map(NodeId::new).collect::<Vec<_>>(),
        vec![NodeId::new(20), NodeId::new(77)],
    ] {
        let ric = col.estimate(&seeds);
        let mc = monte_carlo_benefit(
            inst.graph(),
            inst.communities(),
            &LinearThreshold,
            &seeds,
            25_000,
            99,
        );
        let tol = 0.12 * mc.max(2.0) + 1.0;
        assert!(
            (ric - mc).abs() < tol,
            "LT: ĉ_R={ric:.2} vs forward MC={mc:.2} for {seeds:?}"
        );
    }
}

#[test]
fn lt_seed_selection_beats_random_seeds() {
    let inst = lt_instance(7);
    let sampler = RicSampler::with_model(
        inst.graph(),
        inst.communities(),
        LiveEdgeModel::LinearThreshold,
    );
    let mut col = RicStore::for_sampler(&sampler);
    let mut rng = StdRng::seed_from_u64(8);
    col.extend_with(&sampler, 8_000, &mut rng);

    let k = 6;
    let chosen = greedy_nu_with(&col, k, SolveStrategy::Lazy).seeds;
    let arbitrary: Vec<NodeId> = (0..k as u32).map(|i| NodeId::new(i * 20)).collect();

    let grade = |seeds: &[NodeId]| {
        monte_carlo_benefit(
            inst.graph(),
            inst.communities(),
            &LinearThreshold,
            seeds,
            8_000,
            5,
        )
    };
    let chosen_benefit = grade(&chosen);
    let arbitrary_benefit = grade(&arbitrary);
    assert!(
        chosen_benefit >= arbitrary_benefit,
        "LT-optimized {chosen_benefit:.1} lost to arbitrary {arbitrary_benefit:.1}"
    );
}

#[test]
fn lt_live_edge_realizations_form_in_forests() {
    // LT keeps at most one live in-edge per node: for any community member
    // with several direct in-neighbors and no other paths, no LT sample
    // may contain two of them. Build an isolated star to observe this.
    let mut b = imc_graph::GraphBuilder::new(5);
    for leaf in 0..4 {
        b.add_edge(leaf, 4, 0.25).unwrap();
    }
    let graph = b.build().unwrap();
    let cs = CommunitySet::from_parts(5, vec![(vec![NodeId::new(4)], 1, 1.0)]).unwrap();
    let lt = RicSampler::with_model(&graph, &cs, LiveEdgeModel::LinearThreshold);
    let ic = RicSampler::new(&graph, &cs);
    let mut rng = StdRng::seed_from_u64(1);
    let mut ic_saw_pair = false;
    for _ in 0..4_000 {
        let s = lt.sample(&mut rng);
        let leaves = (0..4).filter(|&l| s.touched_by(NodeId::new(l))).count();
        assert!(leaves <= 1, "LT sample kept {leaves} live in-edges");
        let s = ic.sample(&mut rng);
        let leaves = (0..4).filter(|&l| s.touched_by(NodeId::new(l))).count();
        if leaves >= 2 {
            ic_saw_pair = true;
        }
    }
    // IC, by contrast, regularly keeps several (Pr ≈ 26% per sample).
    assert!(
        ic_saw_pair,
        "IC never sampled two live in-edges in 4000 draws"
    );
}
