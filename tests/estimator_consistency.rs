//! Statistical consistency of the RIC estimators (Section III).
//!
//! These tests check the paper's Lemma 1 (unbiasedness of `ĉ_R`), Lemma 3
//! (`ν` dominates `c`), and Lemma 4 (`ĉ_R = ν_R` when all thresholds are
//! 1) against independent forward Monte-Carlo simulation.

use imc::prelude::*;
use imc_core::RicSamples;
use imc_diffusion::benefit::{
    monte_carlo_benefit, monte_carlo_fractional_benefit, realized_benefit,
};
use imc_graph::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build_instance(threshold: ThresholdPolicy, seed: u64) -> ImcInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let pp = imc::graph::generators::planted_partition(120, 8, 0.3, 0.02, &mut rng);
    let graph = pp.graph.reweighted(WeightModel::WeightedCascade);
    let cs = CommunitySet::builder(&graph)
        .explicit(pp.blocks)
        .split_larger_than(6)
        .threshold(threshold)
        .benefit(BenefitPolicy::Population)
        .build()
        .unwrap();
    ImcInstance::new(graph, cs).unwrap()
}

fn collect(instance: &ImcInstance, count: usize, seed: u64) -> RicStore {
    let sampler = instance.sampler();
    let mut col = RicStore::for_sampler(&sampler);
    let mut rng = StdRng::seed_from_u64(seed);
    col.extend_with(&sampler, count, &mut rng);
    col
}

#[test]
fn lemma1_ric_estimate_is_unbiased_vs_forward_simulation() {
    let inst = build_instance(ThresholdPolicy::Constant(2), 3);
    let col = collect(&inst, 30_000, 4);
    // Several seed sets of different sizes and placements.
    let seed_sets: Vec<Vec<NodeId>> = vec![
        vec![NodeId::new(0)],
        vec![NodeId::new(0), NodeId::new(1)],
        (0..6).map(NodeId::new).collect(),
        vec![NodeId::new(10), NodeId::new(50), NodeId::new(99)],
    ];
    for seeds in seed_sets {
        let ric = col.estimate(&seeds);
        let mc = monte_carlo_benefit(
            inst.graph(),
            inst.communities(),
            &IndependentCascade,
            &seeds,
            30_000,
            777,
        );
        let diff = (ric - mc).abs();
        let tol = 0.1 * mc.max(2.0) + 1.0;
        assert!(diff < tol, "seeds {seeds:?}: ĉ_R={ric:.2} MC={mc:.2}");
    }
}

/// Forward Monte-Carlo `c(S)` with its standard error: mean and
/// `s/√runs` of the realized benefit over `runs` IC simulations.
fn forward_benefit(inst: &ImcInstance, seeds: &[NodeId], runs: u32, seed: u64) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
    for _ in 0..runs {
        let active = IndependentCascade
            .simulate(inst.graph(), seeds, &mut rng)
            .unwrap();
        let b = realized_benefit(inst.communities(), &active);
        sum += b;
        sum_sq += b * b;
    }
    let n = f64::from(runs);
    let mean = sum / n;
    let variance = (sum_sq / n - mean * mean).max(0.0);
    (mean, (variance / n).sqrt())
}

/// Share of seed sets whose 95 % normal-approximation interval for
/// `ĉ_R(S) − c(S)` covers zero, `forward[i]` being the Monte-Carlo
/// `(mean, standard error)` of `c(seed_sets[i])`. `ĉ_R = b·X/|R|` with `X`
/// binomial, so its standard error is `b·√(p̂(1−p̂)/|R|)`.
fn lemma1_coverage(col: &RicStore, seed_sets: &[Vec<NodeId>], forward: &[(f64, f64)]) -> f64 {
    let n = col.len() as f64;
    let covered = seed_sets
        .iter()
        .zip(forward)
        .filter(|(seeds, &(mc, mc_se))| {
            let p = col.influenced_count(seeds) as f64 / n;
            let ric_se = col.total_benefit() * (p * (1.0 - p) / n).sqrt();
            let diff = col.total_benefit() * p - mc;
            diff.abs() <= 1.96 * (ric_se * ric_se + mc_se * mc_se).sqrt()
        })
        .count();
    covered as f64 / seed_sets.len() as f64
}

/// Lemma 1 against an independent oracle, as interval coverage rather
/// than a hand-tuned tolerance: over 40 random seed sets on an `h = 2`
/// planted-partition instance, `ĉ_R(S)` from 4,000 RIC samples and forward
/// Monte-Carlo `c(S)` from 4,000 IC simulations are two independent
/// estimates of the same number, so the 95 % interval of their difference
/// must cover zero at the nominal rate — asserted with a slack of 0.10
/// (≥ 85 %; the seed sets share one collection, so their misses are
/// correlated and the count is wider than binomial). The check has teeth:
/// a collection that counts every sample at `h − 1` is a plausible
/// off-by-one in the estimator and must fail it outright.
///
/// Time budget: ≤ 10 s at the tier-1 profile (`[profile.test]`,
/// opt-level 2); measured ≈ 0.5 s on the 2-core box.
#[test]
fn lemma1_interval_coverage_vs_forward_simulation_and_a_biased_collection() {
    const NOMINAL: f64 = 0.95;
    const SLACK: f64 = 0.10;
    let inst = build_instance(ThresholdPolicy::Constant(2), 31);
    let col = collect(&inst, 4_000, 32);
    let mut rng = StdRng::seed_from_u64(33);
    let seed_sets: Vec<Vec<NodeId>> = (0..40)
        .map(|_| {
            let size = rand::Rng::random_range(&mut rng, 2..=10usize);
            (0..size)
                .map(|_| NodeId::new(rand::Rng::random_range(&mut rng, 0..120u32)))
                .collect()
        })
        .collect();
    let forward: Vec<(f64, f64)> = seed_sets
        .iter()
        .zip(100u64..)
        .map(|(seeds, seed)| forward_benefit(&inst, seeds, 4_000, seed))
        .collect();

    let coverage = lemma1_coverage(&col, &seed_sets, &forward);
    assert!(
        coverage >= NOMINAL - SLACK,
        "ĉ_R's 95 % interval covers forward Monte-Carlo for only {coverage:.2} of the seed sets"
    );

    let lowered: Vec<imc::core::RicSample> = (0..col.len())
        .map(|si| {
            let mut sample = col.view(si).to_sample();
            sample.threshold -= 1;
            sample
        })
        .collect();
    let biased = RicStore::from_samples(
        inst.graph().node_count(),
        inst.communities().len(),
        inst.total_benefit(),
        &lowered,
    )
    .unwrap();
    let biased_coverage = lemma1_coverage(&biased, &seed_sets, &forward);
    assert!(
        biased_coverage < NOMINAL - SLACK,
        "counting samples at h − 1 still passed the coverage check ({biased_coverage:.2})"
    );
}

/// Lemma 3 for the Q32 numerator the solvers use: it dominates ĉ_R's
/// indicator sum with no epsilon, and it exceeds eq. 7 — computed here in
/// plain `f64`, one exact integer numerator per distinct threshold — by
/// at most `2⁻³²` per covered member counted.
#[test]
fn lemma3_nu_dominates_c_everywhere() {
    let inst = build_instance(ThresholdPolicy::Fraction(0.5), 5);
    let col = collect(&inst, 5_000, 6);
    let mut rng = StdRng::seed_from_u64(7);
    let mut inexact = 0;
    for _ in 0..30 {
        let size = 1 + (rand::Rng::random_range(&mut rng, 0..8usize));
        let seeds: Vec<NodeId> = (0..size)
            .map(|_| NodeId::new(rand::Rng::random_range(&mut rng, 0..120u32)))
            .collect();
        let score = imc_core::maxr::Score::of(&col, &seeds);
        assert!(
            score.nu_acc >= score.influenced as u64 * imc_core::NU_ONE,
            "ν < ĉ for {seeds:?}"
        );
        assert!(col.nu_estimate(&seeds) >= col.estimate(&seeds));

        let mut capped_by_threshold = std::collections::BTreeMap::<u32, u64>::new();
        for si in 0..col.len() {
            let h = col.sample_threshold(si);
            let covered = col.sample_covered_members(si, &seeds).min(h);
            *capped_by_threshold.entry(h).or_default() += u64::from(covered);
        }
        let eq7: f64 = capped_by_threshold
            .iter()
            .map(|(&h, &covered)| covered as f64 / f64::from(h))
            .sum();
        let covered: u64 = capped_by_threshold.values().sum();
        let excess = imc_core::nu_fraction(score.nu_acc) - eq7;
        let bound = imc_core::nu_fraction(covered);
        assert!(
            (0.0..=bound).contains(&excess),
            "ν_Q32 − ν_eq7 = {excess:e} outside [0, {bound:e}] for {seeds:?}"
        );
        inexact += u32::from(excess > 0.0);
    }
    assert!(inexact > 0, "no threshold here exercises the rounding");
}

#[test]
fn lemma3_nu_dominates_c_under_forward_simulation_too() {
    let inst = build_instance(ThresholdPolicy::Constant(2), 11);
    let seeds: Vec<NodeId> = (0..5).map(NodeId::new).collect();
    let c = monte_carlo_benefit(
        inst.graph(),
        inst.communities(),
        &IndependentCascade,
        &seeds,
        20_000,
        3,
    );
    let nu = monte_carlo_fractional_benefit(
        inst.graph(),
        inst.communities(),
        &IndependentCascade,
        &seeds,
        20_000,
        3,
    );
    assert!(nu >= c - 1e-9, "ν={nu} < c={c}");
}

#[test]
fn lemma4_estimators_coincide_for_unit_thresholds() {
    let inst = build_instance(ThresholdPolicy::Constant(1), 13);
    let col = collect(&inst, 3_000, 14);
    for size in [1usize, 3, 7] {
        let seeds: Vec<NodeId> = (0..size as u32).map(NodeId::new).collect();
        let c = col.estimate(&seeds);
        let nu = col.nu_estimate(&seeds);
        assert!((c - nu).abs() < 1e-9, "h=1 but ĉ={c} ν={nu}");
    }
}

#[test]
fn chat_estimate_is_monotone_in_seeds() {
    let inst = build_instance(ThresholdPolicy::Constant(2), 17);
    let col = collect(&inst, 4_000, 18);
    let mut seeds: Vec<NodeId> = Vec::new();
    let mut previous = 0.0;
    for v in 0..20u32 {
        seeds.push(NodeId::new(v));
        let now = col.estimate(&seeds);
        assert!(now + 1e-9 >= previous, "ĉ_R decreased when adding {v}");
        previous = now;
    }
}

#[test]
fn empty_seed_set_scores_zero() {
    let inst = build_instance(ThresholdPolicy::Constant(2), 19);
    let col = collect(&inst, 1_000, 20);
    assert_eq!(col.estimate(&[]), 0.0);
    assert_eq!(col.nu_estimate(&[]), 0.0);
    let mc = monte_carlo_benefit(
        inst.graph(),
        inst.communities(),
        &IndependentCascade,
        &[],
        1_000,
        1,
    );
    assert_eq!(mc, 0.0);
}

#[test]
fn full_seed_set_reaches_total_benefit() {
    // Seeding every node influences every satisfiable community with
    // certainty.
    let inst = build_instance(ThresholdPolicy::Constant(2), 23);
    let all: Vec<NodeId> = inst.graph().nodes().collect();
    let col = collect(&inst, 2_000, 24);
    let satisfiable_benefit: f64 = inst
        .communities()
        .iter()
        .filter(|c| c.is_satisfiable())
        .map(|c| c.benefit)
        .sum();
    // All communities here have ≥ 2 members, so everything is satisfiable.
    assert_eq!(satisfiable_benefit, inst.total_benefit());
    assert!((col.estimate(&all) - inst.total_benefit()).abs() < 1e-9);
}

#[test]
fn estimate_variance_shrinks_with_more_samples() {
    let inst = build_instance(ThresholdPolicy::Constant(2), 29);
    let sampler = inst.sampler();
    let seeds: Vec<NodeId> = (0..4).map(NodeId::new).collect();
    let spread = |count: usize, trials: u64| -> f64 {
        let mut values = Vec::new();
        for t in 0..trials {
            let mut col = RicStore::for_sampler(&sampler);
            let mut rng = StdRng::seed_from_u64(1000 + t);
            col.extend_with(&sampler, count, &mut rng);
            values.push(col.estimate(&seeds));
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64).sqrt()
    };
    let coarse = spread(200, 8);
    let fine = spread(5_000, 8);
    assert!(
        fine < coarse,
        "std with 5000 samples ({fine:.3}) should beat 200 samples ({coarse:.3})"
    );
}
