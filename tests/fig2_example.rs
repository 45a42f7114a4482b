//! Exact reproduction of the paper's Fig. 2 non-submodularity example.
//!
//! The paper states: "each edge has weight 0.3 and each community has the
//! activation threshold 2. Therefore, we have c(∅) = 0, c({a}) = 0.327,
//! c({b}) = 0.39, c({a,b}) = 1.09."
//!
//! Those numbers pin the topology down exactly (unit benefits):
//!
//! * communities `C0 = {a, b}` and `C1 = {x, y}`, both `h = 2`, `b_i = 1`;
//! * edges `a ↔ b` (both directions), `b → x`, `b → y`, each weight `0.3`.
//!
//! Closed forms then match all three published values:
//!
//! * `c({a}) = 0.3 (C0 via b) + 0.3·0.3² (C1 through b) = 0.327`;
//! * `c({b}) = 0.3 (C0 via a) + 0.3² (C1 direct)        = 0.390`;
//! * `c({a,b}) = 1 (C0 seeded) + 0.3² (C1)              = 1.090`.

use imc_community::CommunitySet;
use imc_core::{ImcInstance, RicStore};
use imc_diffusion::benefit::monte_carlo_benefit;
use imc_diffusion::IndependentCascade;
use imc_graph::{GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

const A: u32 = 0;
const B: u32 = 1;
const X: u32 = 2;
const Y: u32 = 3;

fn fig2_instance() -> ImcInstance {
    let mut builder = GraphBuilder::new(4);
    builder.add_edge(A, B, 0.3).unwrap();
    builder.add_edge(B, A, 0.3).unwrap();
    builder.add_edge(B, X, 0.3).unwrap();
    builder.add_edge(B, Y, 0.3).unwrap();
    let graph = builder.build().unwrap();
    let communities = CommunitySet::from_parts(
        4,
        vec![
            (vec![NodeId::new(A), NodeId::new(B)], 2, 1.0),
            (vec![NodeId::new(X), NodeId::new(Y)], 2, 1.0),
        ],
    )
    .unwrap();
    ImcInstance::new(graph, communities).unwrap()
}

fn mc(instance: &ImcInstance, seeds: &[u32], seed: u64) -> f64 {
    let seeds: Vec<NodeId> = seeds.iter().map(|&v| NodeId::new(v)).collect();
    monte_carlo_benefit(
        instance.graph(),
        instance.communities(),
        &IndependentCascade,
        &seeds,
        400_000,
        seed,
    )
}

#[test]
fn paper_values_reproduced_by_forward_simulation() {
    let inst = fig2_instance();
    assert_eq!(mc(&inst, &[], 1), 0.0);
    let c_a = mc(&inst, &[A], 2);
    let c_b = mc(&inst, &[B], 3);
    let c_ab = mc(&inst, &[A, B], 4);
    assert!((c_a - 0.327).abs() < 0.005, "c({{a}}) = {c_a}");
    assert!((c_b - 0.39).abs() < 0.005, "c({{b}}) = {c_b}");
    assert!((c_ab - 1.09).abs() < 0.005, "c({{a,b}}) = {c_ab}");
}

#[test]
fn paper_values_reproduced_by_ric_sampling() {
    let inst = fig2_instance();
    let sampler = inst.sampler();
    let mut col = RicStore::for_sampler(&sampler);
    let mut rng = StdRng::seed_from_u64(5);
    col.extend_with(&sampler, 400_000, &mut rng);
    let est = |seeds: &[u32]| {
        let s: Vec<NodeId> = seeds.iter().map(|&v| NodeId::new(v)).collect();
        col.estimate(&s)
    };
    assert_eq!(est(&[]), 0.0);
    assert!((est(&[A]) - 0.327).abs() < 0.005);
    assert!((est(&[B]) - 0.39).abs() < 0.005);
    assert!((est(&[A, B]) - 1.09).abs() < 0.005);
}

#[test]
fn non_submodularity_inequality_of_section_2b() {
    // c({b}) − c(∅) < c({a,b}) − c({a}): 0.39 < 0.763.
    let inst = fig2_instance();
    let c_a = mc(&inst, &[A], 7);
    let c_b = mc(&inst, &[B], 8);
    let c_ab = mc(&inst, &[A, B], 9);
    assert!(
        c_b - 0.0 < c_ab - c_a,
        "marginals: {c_b} should be < {}",
        c_ab - c_a
    );
}

#[test]
fn diagnostics_flag_the_instance_as_non_submodular() {
    let inst = fig2_instance();
    let sampler = inst.sampler();
    let mut col = RicStore::for_sampler(&sampler);
    let mut rng = StdRng::seed_from_u64(11);
    col.extend_with(&sampler, 5_000, &mut rng);
    let report = imc_core::diagnostics::probe_submodularity(&col, 2, 5_000, &mut rng);
    assert!(report.is_non_submodular(), "{report:?}");
}
