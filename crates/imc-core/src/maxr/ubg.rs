//! Upper Bound Greedy (Algorithm 2) — the Sandwich Approximation.
//!
//! Runs greedy twice: once on the submodular upper bound `ν_R` (CELF) and
//! once on the true objective `ĉ_R` (plain greedy), then keeps whichever
//! seed set scores higher under `ĉ_R`. By Theorem 2 the winner carries a
//! data-dependent guarantee of `(ĉ_R(S_ν)/ν_R(S_ν))·(1 − 1/e)` — the ratio
//! reported in the paper's Fig. 8.

use crate::maxr::engine::{greedy_c_with, greedy_nu_with, SolveStrategy};
use crate::RicSamples;
use imc_graph::NodeId;

/// Output of UBG ([`UbgSolver`](crate::maxr::solver::UbgSolver)), exposing
/// both candidate sets and the sandwich ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct UbgOutcome {
    /// The chosen seed set (the better of [`s_nu`](Self::s_nu) /
    /// [`s_c`](Self::s_c) under `ĉ_R`).
    pub seeds: Vec<NodeId>,
    /// Greedy solution for the upper bound `ν_R`.
    pub s_nu: Vec<NodeId>,
    /// Greedy solution for the objective `ĉ_R`.
    pub s_c: Vec<NodeId>,
    /// `true` when `s_nu` won.
    pub chose_nu: bool,
    /// The sample-based sandwich ratio `ĉ_R(S_ν) / ν_R(S_ν)` (1.0 when
    /// `ν_R(S_ν) = 0`).
    pub sandwich_ratio: f64,
}

/// Strategy-aware UBG behind [`UbgSolver`](crate::maxr::solver::UbgSolver).
/// Both greedy passes route through the shared engine so the sandwich bound
/// uses identical pick logic to every other consumer. Returns the outcome
/// plus the engine's evaluation count.
pub(crate) fn ubg_with<C: RicSamples>(
    collection: &C,
    k: usize,
    strategy: SolveStrategy,
) -> (UbgOutcome, u64) {
    let nu_run = greedy_nu_with(collection, k, strategy);
    let c_run = greedy_c_with(collection, k, strategy);
    let evaluations = nu_run.evaluations + c_run.evaluations;
    let s_nu = nu_run.seeds;
    let s_c = c_run.seeds;
    let c_of_nu = collection.estimate(&s_nu);
    let c_of_c = collection.estimate(&s_c);
    let nu_of_nu = collection.nu_estimate(&s_nu);
    let sandwich_ratio = if nu_of_nu > 0.0 {
        c_of_nu / nu_of_nu
    } else {
        1.0
    };
    let chose_nu = c_of_nu >= c_of_c;
    (
        UbgOutcome {
            seeds: if chose_nu { s_nu.clone() } else { s_c.clone() },
            s_nu,
            s_c,
            chose_nu,
            sandwich_ratio,
        },
        evaluations,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoverSet, RicSample, RicStore};
    use imc_community::CommunityId;

    fn mk_cover(width: usize, bits: &[usize]) -> CoverSet {
        let mut c = CoverSet::new(width);
        for &b in bits {
            c.set(b);
        }
        c
    }

    fn run(col: &RicStore, k: usize) -> UbgOutcome {
        ubg_with(col, k, SolveStrategy::Lazy).0
    }

    /// ĉ-greedy gets trapped: with k = 2, sample 0 (h=2) needs nodes
    /// {0, 1}; node 2 gives an immediate unit gain on sample 1 but wastes
    /// budget. ν-greedy prefers 0/1 (gain 1/2 each on three h=2 samples).
    fn sandwich_collection() -> RicStore {
        let mut col = RicStore::new(4, 2, 4.0);
        for _ in 0..3 {
            col.push_sample(&RicSample {
                community: CommunityId::new(0),
                threshold: 2,
                community_size: 2,
                nodes: vec![NodeId::new(0), NodeId::new(1)],
                covers: vec![mk_cover(2, &[0]), mk_cover(2, &[1])],
            })
            .unwrap();
        }
        col.push_sample(&RicSample {
            community: CommunityId::new(1),
            threshold: 1,
            community_size: 1,
            nodes: vec![NodeId::new(2)],
            covers: vec![mk_cover(1, &[0])],
        })
        .unwrap();
        col
    }

    #[test]
    fn ubg_beats_plain_greedy_on_trap() {
        let col = sandwich_collection();
        let out = run(&col, 2);
        // Plain ĉ-greedy picks node 2 first (gain 1), then one of {0,1}:
        // total influenced = 1. ν-greedy picks {0,1}: influenced = 3.
        assert_eq!(col.influenced_count(&out.s_c), 1);
        assert_eq!(col.influenced_count(&out.s_nu), 3);
        assert!(out.chose_nu);
        assert_eq!(col.influenced_count(&out.seeds), 3);
    }

    #[test]
    fn sandwich_ratio_in_unit_interval() {
        let col = sandwich_collection();
        let out = run(&col, 2);
        assert!(out.sandwich_ratio > 0.0 && out.sandwich_ratio <= 1.0 + 1e-12);
    }

    #[test]
    fn ratio_is_one_when_thresholds_are_one() {
        // Lemma 4: with h = 1 everywhere, ĉ_R == ν_R.
        let mut col = RicStore::new(3, 1, 1.0);
        col.push_sample(&RicSample {
            community: CommunityId::new(0),
            threshold: 1,
            community_size: 2,
            nodes: vec![NodeId::new(0), NodeId::new(1)],
            covers: vec![mk_cover(2, &[0]), mk_cover(2, &[1])],
        })
        .unwrap();
        let out = run(&col, 1);
        assert!((out.sandwich_ratio - 1.0).abs() < 1e-12);
        assert_eq!(col.estimate(&out.seeds), col.nu_estimate(&out.seeds));
    }

    #[test]
    fn chooses_c_when_it_wins() {
        // One h=1 sample reachable only by node 2; ν and ĉ agree, but make
        // s_c the winner by giving node 2 the only coverage.
        let mut col = RicStore::new(3, 1, 1.0);
        col.push_sample(&RicSample {
            community: CommunityId::new(0),
            threshold: 1,
            community_size: 1,
            nodes: vec![NodeId::new(2)],
            covers: vec![mk_cover(1, &[0])],
        })
        .unwrap();
        let out = run(&col, 1);
        assert_eq!(out.seeds, vec![NodeId::new(2)]);
        assert_eq!(col.influenced_count(&out.seeds), 1);
    }

    #[test]
    fn seeds_have_requested_size() {
        let col = sandwich_collection();
        let out = run(&col, 3);
        assert_eq!(out.seeds.len(), 3);
        assert_eq!(out.s_nu.len(), 3);
        assert_eq!(out.s_c.len(), 3);
    }

    #[test]
    fn deterministic() {
        let col = sandwich_collection();
        assert_eq!(run(&col, 2), run(&col, 2));
    }
}
