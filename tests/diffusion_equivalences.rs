//! Cross-checks between independent implementations of the same
//! quantities — the strongest guard against a silently wrong estimator.

use imc::prelude::*;
use imc_diffusion::rr::{estimate_spread, generate_rr_set};
use imc_diffusion::spread::monte_carlo_spread;
use imc_graph::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    imc::graph::generators::erdos_renyi(60, 0.06, &mut rng).reweighted(WeightModel::Uniform(0.25))
}

#[test]
fn rr_spread_estimate_agrees_with_forward_simulation() {
    // σ(S) via RR sets and via forward IC must agree — they are dual
    // estimators of the same expectation (Borgs et al.).
    let g = random_graph(1);
    let mut rng = StdRng::seed_from_u64(2);
    let rr_sets: Vec<_> = (0..30_000).map(|_| generate_rr_set(&g, &mut rng)).collect();
    for seeds in [
        vec![NodeId::new(0)],
        vec![NodeId::new(3), NodeId::new(17)],
        (0..6).map(NodeId::new).collect::<Vec<_>>(),
    ] {
        let via_rr = estimate_spread(&g, &rr_sets, &seeds);
        let via_mc = monte_carlo_spread(&g, &IndependentCascade, &seeds, 30_000, 5);
        let tol = 0.08 * via_mc.max(1.0) + 0.3;
        assert!(
            (via_rr - via_mc).abs() < tol,
            "RR {via_rr:.2} vs MC {via_mc:.2} for {seeds:?}"
        );
    }
}

#[test]
fn ric_with_unit_thresholds_equals_classic_rr_coverage() {
    // With a single community = all nodes, h = 1, uniform benefit, a RIC
    // sample is influenced by S iff the classic RR set of the drawn root
    // intersects S — so ĉ_R/b must equal the RR coverage rate, i.e.
    // σ(S)/n.
    let g = random_graph(7);
    let n = g.node_count();
    let all: Vec<NodeId> = g.nodes().collect();
    let cs = CommunitySet::from_parts(n as u32, vec![(all, 1, 1.0)]).unwrap();
    // NOTE: one big community means ρ picks it always and the sample's
    // touched set is the RR set of *some member*... with h = 1 and member
    // chosen per the multi-source BFS — actually all members root the
    // backward BFS, so the sample is influenced iff S reaches ANY node,
    // which is true for any non-empty S. Use per-node communities instead
    // for the strict correspondence.
    drop(cs);
    let parts: Vec<(Vec<NodeId>, u32, f64)> = g.nodes().map(|v| (vec![v], 1, 1.0)).collect();
    let cs = CommunitySet::from_parts(n as u32, parts).unwrap();
    let sampler = RicSampler::new(&g, &cs);
    let mut col = RicStore::for_sampler(&sampler);
    let mut rng = StdRng::seed_from_u64(8);
    col.extend_with(&sampler, 30_000, &mut rng);
    for seeds in [
        vec![NodeId::new(0)],
        (0..5).map(NodeId::new).collect::<Vec<_>>(),
    ] {
        // ĉ_R estimates Σ_v Pr[S activates v] = σ(S) (b_v = 1 each).
        let via_ric = col.estimate(&seeds);
        let via_mc = monte_carlo_spread(&g, &IndependentCascade, &seeds, 30_000, 9);
        let tol = 0.08 * via_mc.max(1.0) + 0.3;
        assert!(
            (via_ric - via_mc).abs() < tol,
            "RIC {via_ric:.2} vs MC {via_mc:.2} for {seeds:?}"
        );
    }
}

#[test]
fn celf_and_ris_choose_comparable_seed_sets() {
    use imc_diffusion::celf::{celf_im, CelfConfig};
    use imc_diffusion::ris_im::{ris_im, RisImConfig};
    let g = random_graph(11);
    let k = 3;
    let celf = celf_im(
        &g,
        &IndependentCascade,
        k,
        &CelfConfig {
            runs: 2_000,
            candidate_limit: None,
        },
        3,
    );
    let ris = ris_im(&g, k, &RisImConfig::default(), 3).seeds;
    let s_celf = monte_carlo_spread(&g, &IndependentCascade, &celf, 20_000, 13);
    let s_ris = monte_carlo_spread(&g, &IndependentCascade, &ris, 20_000, 13);
    assert!(
        (s_celf - s_ris).abs() / s_ris.max(1.0) < 0.1,
        "CELF {s_celf:.2} vs RIS {s_ris:.2}"
    );
}

#[test]
fn dagum_and_plain_monte_carlo_agree_on_benefit() {
    use imc_diffusion::benefit::monte_carlo_benefit;
    use imc_diffusion::dagum::dagum_benefit;
    let mut rng = StdRng::seed_from_u64(21);
    let pp = imc::graph::generators::planted_partition(100, 6, 0.35, 0.02, &mut rng);
    let g = pp.graph.reweighted(WeightModel::WeightedCascade);
    let cs = CommunitySet::builder(&g)
        .explicit(pp.blocks)
        .threshold(ThresholdPolicy::Constant(2))
        .build()
        .unwrap();
    let seeds: Vec<NodeId> = (0..8).map(NodeId::new).collect();
    let dag = dagum_benefit(&g, &cs, &IndependentCascade, &seeds, 0.1, 0.1, 2_000_000, 3)
        .expect("benefit is clearly positive");
    let mc = monte_carlo_benefit(&g, &cs, &IndependentCascade, &seeds, 40_000, 4);
    assert!(
        (dag - mc).abs() < 0.12 * mc.max(1.0) + 0.5,
        "Dagum {dag:.2} vs MC {mc:.2}"
    );
}
