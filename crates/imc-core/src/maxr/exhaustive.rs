//! Exact MAXR by exhaustive enumeration — for tiny instances only.
//!
//! MAXR is NP-hard, so this solver exists for *measurement*: tests and
//! ablations compare the approximate solvers against the true optimum on
//! brute-forceable collections, turning the paper's worst-case ratios
//! (Theorems 3–5) into checkable assertions.

use crate::maxr::Score;
use crate::{CoverageState, RicSamples};
use imc_graph::NodeId;

/// Result of an exhaustive solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactSolution {
    /// An optimal seed set (lexicographically smallest among optima).
    pub seeds: Vec<NodeId>,
    /// Number of samples it influences.
    pub influenced_samples: usize,
    /// How many candidate subsets were evaluated.
    pub subsets_evaluated: u64,
}

/// Enumerates all `k`-subsets of the nodes that appear in at least one
/// sample (other nodes can never help) and returns an optimum.
///
/// # Panics
///
/// Panics if the search space `C(candidates, k)` exceeds `2^32` subsets —
/// use the approximate solvers for anything bigger.
pub fn exhaustive<C: RicSamples>(collection: &C, k: usize) -> ExactSolution {
    let (seeds, score, subsets_evaluated) = search(collection, k, collection.len() as u64, |s| {
        collection.influenced_count(s) as u64
    });
    ExactSolution {
        seeds,
        influenced_samples: score as usize,
        subsets_evaluated,
    }
}

/// [`exhaustive`] for the upper bound: a `k`-subset maximising the Q32
/// numerator of `ν_R` (see [`nu_term`](crate::nu_term)), and that maximum
/// — what greedy on `ν_R` is held to `(1 − 1/e)` of.
///
/// # Panics
///
/// As [`exhaustive`].
pub fn exhaustive_nu<C: RicSamples>(collection: &C, k: usize) -> (Vec<NodeId>, u64) {
    let ceiling = collection.len() as u64 * crate::NU_ONE;
    let (seeds, numerator, _) = search(collection, k, ceiling, |s| Score::of(collection, s).nu_acc);
    (seeds, numerator)
}

/// The lexicographically first `k`-subset of the touching nodes with the
/// largest `score`, that score, and how many subsets were scored. No
/// subset scores above `ceiling`, so the search stops at one that
/// reaches it.
fn search<C: RicSamples>(
    collection: &C,
    k: usize,
    ceiling: u64,
    score: impl Fn(&[NodeId]) -> u64,
) -> (Vec<NodeId>, u64, u64) {
    let candidates: Vec<NodeId> = (0..collection.node_count() as u32)
        .map(NodeId::new)
        .filter(|&v| collection.appearance_count(v) > 0)
        .collect();
    let k = k.min(candidates.len().max(1));
    if candidates.is_empty() {
        return (Vec::new(), 0, 1);
    }
    let space = binomial_capped(candidates.len() as u64, k as u64, 1 << 32);
    assert!(
        space < 1 << 32,
        "search space too large for exhaustive MAXR"
    );

    let mut best_seeds: Vec<NodeId> = Vec::new();
    let mut best_score = 0;
    let mut evaluated = 0u64;

    // DFS over combinations with incremental CoverageState would need
    // removal support; evaluate each combination from scratch instead
    // (fine at this scale), but prune: a subset already at the ceiling
    // cannot be beaten.
    let mut indices: Vec<usize> = (0..k).collect();
    loop {
        evaluated += 1;
        let subset: Vec<NodeId> = indices.iter().map(|&i| candidates[i]).collect();
        let score = score(&subset);
        if score > best_score || (score == best_score && best_seeds.is_empty()) {
            best_score = score;
            best_seeds = subset;
            if best_score == ceiling {
                break; // cannot improve
            }
        }
        // Next combination in lexicographic order.
        let mut i = k;
        loop {
            if i == 0 {
                return (best_seeds, best_score, evaluated);
            }
            i -= 1;
            if indices[i] != i + candidates.len() - k {
                indices[i] += 1;
                for j in (i + 1)..k {
                    indices[j] = indices[j - 1] + 1;
                }
                break;
            }
        }
    }
    (best_seeds, best_score, evaluated)
}

/// `C(n, k)` capped at `cap` to avoid overflow.
fn binomial_capped(n: u64, k: u64, cap: u64) -> u64 {
    let k = k.min(n - k.min(n));
    let mut acc: u64 = 1;
    for i in 1..=k {
        acc = acc.saturating_mul(n - k + i) / i;
        if acc >= cap {
            return cap;
        }
    }
    acc
}

/// Empirical approximation ratio of a solver's seed set against the exact
/// optimum (1.0 when the optimum influences nothing).
pub fn empirical_ratio<C: RicSamples>(collection: &C, seeds: &[NodeId], k: usize) -> f64 {
    let opt = exhaustive(collection, k);
    if opt.influenced_samples == 0 {
        return 1.0;
    }
    collection.influenced_count(seeds) as f64 / opt.influenced_samples as f64
}

/// Convenience used by diagnostics: evaluates a seed set via a fresh
/// [`CoverageState`] (exercising the incremental path).
pub fn incremental_score<C: RicSamples>(collection: &C, seeds: &[NodeId]) -> usize {
    let mut st = CoverageState::new(collection);
    for &s in seeds {
        st.add_seed(s);
    }
    st.influenced_count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoverSet, RicSample, RicStore};
    use imc_community::CommunityId;

    fn mk(width: usize, bits: &[usize]) -> CoverSet {
        let mut c = CoverSet::new(width);
        for &b in bits {
            c.set(b);
        }
        c
    }

    fn trap_collection() -> RicStore {
        // Sample 0 (h=2) needs {0,1}; sample 1 (h=1) taken by 2; sample 2
        // (h=1) taken by 2.
        let mut col = RicStore::new(4, 2, 3.0);
        col.push_sample(&RicSample {
            community: CommunityId::new(0),
            threshold: 2,
            community_size: 2,
            nodes: vec![NodeId::new(0), NodeId::new(1)],
            covers: vec![mk(2, &[0]), mk(2, &[1])],
        })
        .unwrap();
        for _ in 0..2 {
            col.push_sample(&RicSample {
                community: CommunityId::new(1),
                threshold: 1,
                community_size: 1,
                nodes: vec![NodeId::new(2)],
                covers: vec![mk(1, &[0])],
            })
            .unwrap();
        }
        col
    }

    #[test]
    fn finds_true_optimum() {
        let col = trap_collection();
        // k=2: {2, anything} gets 2; {0,1} gets 1 → optimum is 2.
        let sol = exhaustive(&col, 2);
        assert_eq!(sol.influenced_samples, 2);
        assert!(sol.seeds.contains(&NodeId::new(2)));
        // k=3: {0,1,2} gets all 3.
        let sol = exhaustive(&col, 3);
        assert_eq!(sol.influenced_samples, 3);
    }

    #[test]
    fn nu_optimum_prefers_the_fractional_pair() {
        let col = trap_collection();
        // k=1: node 2 saturates two h=1 samples; nodes 0/1 half of one.
        assert_eq!(
            exhaustive_nu(&col, 1),
            (vec![NodeId::new(2)], 2 * crate::NU_ONE)
        );
        // k=2: {0,2} = {1,2} = 2.5 > {0,1} = 1; the first in order wins.
        let (seeds, numerator) = exhaustive_nu(&col, 2);
        assert_eq!(seeds, vec![NodeId::new(0), NodeId::new(2)]);
        assert_eq!(numerator, 2 * crate::NU_ONE + crate::NU_ONE / 2);
        assert_eq!(exhaustive_nu(&col, 3).1, 3 * crate::NU_ONE);
    }

    #[test]
    fn early_exit_when_everything_influenced() {
        let col = trap_collection();
        let sol = exhaustive(&col, 3);
        // Only one 3-subset exists; evaluated counter small.
        assert_eq!(sol.subsets_evaluated, 1);
    }

    #[test]
    fn empirical_ratio_of_optimal_is_one() {
        let col = trap_collection();
        let sol = exhaustive(&col, 2);
        assert_eq!(empirical_ratio(&col, &sol.seeds, 2), 1.0);
    }

    #[test]
    fn greedy_ratio_measurable() {
        let col = trap_collection();
        let greedy =
            crate::maxr::engine::greedy_c_with(&col, 2, crate::maxr::SolveStrategy::Lazy).seeds;
        let ratio = empirical_ratio(&col, &greedy, 2);
        assert!(ratio > 0.0 && ratio <= 1.0);
    }

    #[test]
    fn incremental_score_matches_batch() {
        let col = trap_collection();
        let seeds = [NodeId::new(0), NodeId::new(1), NodeId::new(2)];
        assert_eq!(
            incremental_score(&col, &seeds),
            col.influenced_count(&seeds)
        );
    }

    #[test]
    fn empty_collection() {
        let col = RicStore::new(3, 1, 1.0);
        let sol = exhaustive(&col, 2);
        assert_eq!(sol.influenced_samples, 0);
        assert!(sol.seeds.is_empty());
    }

    #[test]
    fn k_exceeding_candidates_clamps() {
        let col = trap_collection();
        let sol = exhaustive(&col, 50);
        assert_eq!(sol.influenced_samples, 3);
    }

    #[test]
    fn binomial_capped_values() {
        assert_eq!(binomial_capped(5, 2, 1000), 10);
        assert_eq!(binomial_capped(60, 30, 1 << 20), 1 << 20); // capped
    }
}
