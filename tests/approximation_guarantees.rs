//! Empirical verification of the paper's approximation theorems against
//! the exact MAXR optimum on brute-forceable instances.
//!
//! For each random small instance we compute the true optimum by
//! exhaustive search and assert every solver clears its proven bound:
//!
//! * Theorem 3 — MAF ≥ `⌊k/h⌋/r · OPT`.
//! * Theorem 4 — BT ≥ `(1−1/e)/k · OPT` (thresholds ≤ 2).
//! * Theorem 5 — MB ≥ `√((1−1/e)·⌊k/2⌋/(r·k)) · OPT`.
//! * UBG's sandwich — `ĉ(S_UBG) ≥ (ĉ(S_ν)/ν(S_ν))·(1−1/e)·OPT`.
//! * Lemma 3 for the Q32 `ν_R` the engine maximises — greedy on it clears
//!   `(1−1/e)` of its exhaustive maximum, and it dominates `ĉ_R`, both in
//!   integer arithmetic. This, not pinned seed bits, is the gate for a
//!   change to how `ν_R` is represented.

use imc_community::{CommunitySet, ThresholdPolicy};
use imc_core::maxr::engine::greedy_nu_with;
use imc_core::maxr::exhaustive::{exhaustive, exhaustive_nu};
use imc_core::maxr::Score;
use imc_core::{
    ImcInstance, MaxrAlgorithm, RicStore, SolveRequest, SolveStrategy, SolverExtras, NU_ONE,
};
use imc_graph::WeightModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct TinyCase {
    instance: ImcInstance,
    collection: RicStore,
}

fn tiny_case(seed: u64, samples: usize) -> TinyCase {
    tiny_case_with_threshold(seed, samples, 2)
}

fn tiny_case_with_threshold(seed: u64, samples: usize, threshold: u32) -> TinyCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let pp = imc_graph::generators::planted_partition(20, 4, 0.45, 0.06, &mut rng);
    let graph = pp.graph.reweighted(WeightModel::WeightedCascade);
    let communities = CommunitySet::builder(&graph)
        .explicit(pp.blocks)
        .threshold(ThresholdPolicy::Constant(threshold))
        .build()
        .unwrap();
    let instance = ImcInstance::new(graph, communities).unwrap();
    let mut collection = RicStore::for_sampler(&instance.sampler());
    collection.extend_with(&instance.sampler(), samples, &mut rng);
    TinyCase {
        instance,
        collection,
    }
}

fn check_bound(algo: MaxrAlgorithm, trials: u64, k: usize) {
    for trial in 0..trials {
        let case = tiny_case(100 + trial, 300);
        let opt = exhaustive(&case.collection, k);
        if opt.influenced_samples == 0 {
            continue;
        }
        let sol = algo
            .solve(
                &case.instance,
                &case.collection,
                &SolveRequest::new(k).with_seed(trial),
            )
            .expect("valid bounded instance");
        let r = case.instance.community_count();
        let h = case.instance.max_threshold();
        let bound = algo.approximation_ratio(r, h, k) * opt.influenced_samples as f64;
        assert!(
            sol.influenced_samples as f64 + 1e-9 >= bound,
            "{} trial {trial}: got {} < bound {bound:.2} (OPT {})",
            algo.name(),
            sol.influenced_samples,
            opt.influenced_samples
        );
    }
}

#[test]
fn theorem3_maf_bound_holds() {
    check_bound(MaxrAlgorithm::Maf, 8, 4);
}

#[test]
fn theorem4_bt_bound_holds() {
    check_bound(MaxrAlgorithm::Bt, 8, 4);
}

#[test]
fn theorem5_mb_bound_holds() {
    check_bound(MaxrAlgorithm::Mb, 8, 4);
}

#[test]
fn ubg_sandwich_bound_holds() {
    // Theorem 2 instantiated with our ν_R: ĉ(S_sand) ≥
    // (ĉ(S_ν)/ν(S_ν))·(1−1/e)·ĉ(OPT).
    for trial in 0..8 {
        let case = tiny_case(300 + trial, 300);
        let k = 4;
        let opt = exhaustive(&case.collection, k);
        if opt.influenced_samples == 0 {
            continue;
        }
        let out = MaxrAlgorithm::Ubg
            .solve(&case.instance, &case.collection, &SolveRequest::new(k))
            .expect("budget within the graph");
        let SolverExtras::Ubg { sandwich_ratio, .. } = out.extras else {
            panic!("UBG must report sandwich extras");
        };
        let got = out.influenced_samples as f64;
        let bound =
            sandwich_ratio * (1.0 - 1.0 / std::f64::consts::E) * opt.influenced_samples as f64;
        assert!(
            got + 1e-9 >= bound,
            "trial {trial}: UBG {got} < sandwich bound {bound:.2} (ratio {sandwich_ratio:.3}, OPT {})",
            opt.influenced_samples
        );
    }
}

#[test]
fn nu_greedy_clears_the_submodular_bound_in_integers() {
    // Thresholds of 2 make every Q32 term exact; 3 makes them thirds
    // rounded up — the bound must hold for the integers either way.
    for (threshold, trial) in [2u32, 3]
        .into_iter()
        .flat_map(|h| (0..6).map(move |t| (h, t)))
    {
        let case = tiny_case_with_threshold(900 + trial, 300, threshold);
        let k = 4;
        let (best, optimum) = exhaustive_nu(&case.collection, k);
        let greedy = greedy_nu_with(&case.collection, k, SolveStrategy::Lazy).seeds;
        let got = Score::of(&case.collection, &greedy);
        assert!(
            got.nu_acc as f64 >= (1.0 - 1.0 / std::f64::consts::E) * optimum as f64,
            "h={threshold} trial {trial}: greedy ν numerator {} < (1−1/e)·{optimum}",
            got.nu_acc
        );
        assert!(got.nu_acc <= optimum);
        // ν ≥ ĉ with no epsilon, for every set scored here.
        for score in [got, Score::of(&case.collection, &best)] {
            assert!(score.nu_acc >= score.influenced as u64 * NU_ONE);
        }
    }
}

#[test]
fn greedy_is_near_optimal_in_practice() {
    // No guarantee exists for plain greedy (Lemma 2), but on typical
    // instances it should land within 60% of optimum — the empirical
    // observation behind the paper using it inside UBG.
    let mut total_ratio = 0.0;
    let mut counted = 0u32;
    for trial in 0..10 {
        let case = tiny_case(500 + trial, 300);
        let k = 4;
        let opt = exhaustive(&case.collection, k);
        if opt.influenced_samples == 0 {
            continue;
        }
        let sol = MaxrAlgorithm::Greedy
            .solve(
                &case.instance,
                &case.collection,
                &SolveRequest::new(k).with_seed(trial),
            )
            .unwrap();
        total_ratio += sol.influenced_samples as f64 / opt.influenced_samples as f64;
        counted += 1;
    }
    assert!(counted >= 5, "too few non-trivial instances");
    let avg = total_ratio / counted as f64;
    assert!(avg > 0.6, "average greedy ratio {avg:.2} suspiciously low");
}

#[test]
fn exhaustive_dominates_every_solver() {
    // Sanity: no solver may beat the exact optimum.
    for trial in 0..5 {
        let case = tiny_case(700 + trial, 200);
        let k = 3;
        let opt = exhaustive(&case.collection, k);
        for algo in [
            MaxrAlgorithm::Greedy,
            MaxrAlgorithm::Ubg,
            MaxrAlgorithm::Maf,
            MaxrAlgorithm::Bt,
            MaxrAlgorithm::Mb,
        ] {
            let sol = algo
                .solve(
                    &case.instance,
                    &case.collection,
                    &SolveRequest::new(k).with_seed(trial),
                )
                .unwrap();
            assert!(
                sol.influenced_samples <= opt.influenced_samples,
                "{} beat the optimum?!",
                algo.name()
            );
        }
    }
}
