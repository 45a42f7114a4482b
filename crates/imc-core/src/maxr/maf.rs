//! Most Appearance First (Algorithm 3).
//!
//! Builds two candidate seed sets from appearance statistics over `R`:
//!
//! * `S1` — walk communities in descending order of how often they are the
//!   *source* of a sample; for each, spend `h` budget on `h` of its members
//!   (chosen uniformly at random, as the paper specifies) while the budget
//!   allows. Theorem 3 gives `S1` the `⌊k/h⌋/r` guarantee.
//! * `S2` — the `k` nodes appearing in the most samples. No guarantee (the
//!   paper exhibits a counterexample) but strong in practice.
//!
//! MAF returns whichever influences more samples.

use crate::maxr::pad_to_k;
use crate::RicSamples;
use imc_community::CommunitySet;
use imc_graph::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Output of MAF ([`MafSolver`](crate::maxr::solver::MafSolver)), exposing
/// both candidate sets.
#[derive(Debug, Clone, PartialEq)]
pub struct MafOutcome {
    /// The chosen seed set (better of `s1` / `s2` under `ĉ_R`).
    pub seeds: Vec<NodeId>,
    /// Community-frequency seeds (Theorem 3 carrier).
    pub s1: Vec<NodeId>,
    /// Node-appearance seeds.
    pub s2: Vec<NodeId>,
    /// `true` when `s1` won.
    pub chose_s1: bool,
}

/// MAF core behind [`MafSolver`](crate::maxr::solver::MafSolver). `seed`
/// drives the uniform member picks inside communities. MAF never computes
/// marginal gains — its two objective evaluations are the final `ĉ_R`
/// comparisons of `S1` vs `S2` — so the second tuple element is always 2.
pub(crate) fn maf_with<C: RicSamples>(
    communities: &CommunitySet,
    collection: &C,
    k: usize,
    seed: u64,
) -> (MafOutcome, u64) {
    let k = k.min(collection.node_count());
    let mut rng = StdRng::seed_from_u64(seed);

    // --- S1: most frequent source communities, h members each. ---
    let freq = collection.community_frequencies();
    let mut order: Vec<usize> = (0..freq.len()).collect();
    // Descending frequency; ties by community id for determinism.
    order.sort_by(|&a, &b| freq[b].cmp(&freq[a]).then(a.cmp(&b)));
    let mut s1: Vec<NodeId> = Vec::with_capacity(k);
    for ci in order {
        let community = communities.get(imc_community::CommunityId::new(ci as u32));
        let h = community.threshold as usize;
        // Skip unsatisfiable communities (h > population) — they can never
        // be influenced, so budget spent there is wasted.
        if h > community.population() || s1.len() + h > k {
            continue;
        }
        let mut members = community.members.clone();
        members.shuffle(&mut rng);
        s1.extend(members.into_iter().take(h));
        if s1.len() == k {
            break;
        }
    }
    pad_to_k(collection, &mut s1, k);

    // --- S2: top-k nodes by appearance count. ---
    let counts = collection.node_appearance_counts();
    let mut nodes: Vec<u32> = (0..collection.node_count() as u32).collect();
    nodes.sort_by(|&a, &b| counts[b as usize].cmp(&counts[a as usize]).then(a.cmp(&b)));
    let s2: Vec<NodeId> = nodes.into_iter().take(k).map(NodeId::new).collect();

    let c1 = collection.influenced_count(&s1);
    let c2 = collection.influenced_count(&s2);
    let chose_s1 = c1 >= c2;
    (
        MafOutcome {
            seeds: if chose_s1 { s1.clone() } else { s2.clone() },
            s1,
            s2,
            chose_s1,
        },
        2,
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

    fn run<C: crate::RicSamples>(cs: &CommunitySet, col: &C, k: usize, seed: u64) -> MafOutcome {
        maf_with(cs, col, k, seed).0
    }

    /// Community 0 = {0, 1} (h=2), community 1 = {2, 3} (h=2). Community 0
    /// sources 3 samples, community 1 sources 1. Each member covers itself
    /// in its community's samples.
    fn setup() -> (CommunitySet, RicStore) {
        let cs = CommunitySet::from_parts(
            6,
            vec![
                (vec![NodeId::new(0), NodeId::new(1)], 2, 2.0),
                (vec![NodeId::new(2), NodeId::new(3)], 2, 2.0),
            ],
        )
        .unwrap();
        let mut col = RicStore::new(6, 2, 4.0);
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
            threshold: 2,
            community_size: 2,
            nodes: vec![NodeId::new(2), NodeId::new(3)],
            covers: vec![mk_cover(2, &[0]), mk_cover(2, &[1])],
        })
        .unwrap();
        (cs, col)
    }

    #[test]
    fn s1_targets_most_frequent_community() {
        let (cs, col) = setup();
        let out = run(&cs, &col, 2, 7);
        // Budget 2 = h of community 0; S1 must be exactly its two members.
        let mut s1 = out.s1.clone();
        s1.sort();
        assert_eq!(s1, vec![NodeId::new(0), NodeId::new(1)]);
        // That influences the 3 samples of community 0.
        assert_eq!(col.influenced_count(&out.s1), 3);
    }

    #[test]
    fn k4_takes_both_communities() {
        let (cs, col) = setup();
        let out = run(&cs, &col, 4, 7);
        assert_eq!(col.influenced_count(&out.seeds), 4);
    }

    #[test]
    fn seeds_are_k_and_distinct() {
        let (cs, col) = setup();
        for k in 1..=5 {
            let out = run(&cs, &col, k, 3);
            assert_eq!(out.seeds.len(), k);
            let uniq: std::collections::HashSet<_> = out.seeds.iter().collect();
            assert_eq!(uniq.len(), k, "duplicates at k={k}");
        }
    }

    #[test]
    fn s2_is_top_appearance() {
        let (cs, col) = setup();
        let out = run(&cs, &col, 2, 7);
        // Nodes 0,1 appear in 3 samples each; 2,3 in 1 each.
        let mut s2 = out.s2.clone();
        s2.sort();
        assert_eq!(s2, vec![NodeId::new(0), NodeId::new(1)]);
    }

    #[test]
    fn deterministic_under_seed() {
        let (cs, col) = setup();
        assert_eq!(run(&cs, &col, 3, 11), run(&cs, &col, 3, 11));
    }

    #[test]
    fn unsatisfiable_community_skipped() {
        // Community with h=3 but 1 member can never be influenced; MAF
        // must not waste budget on it.
        let cs = CommunitySet::from_parts(
            4,
            vec![
                (vec![NodeId::new(0)], 3, 10.0),
                (vec![NodeId::new(1), NodeId::new(2)], 2, 1.0),
            ],
        )
        .unwrap();
        let mut col = RicStore::new(4, 2, 11.0);
        // Unsatisfiable community sources many samples.
        for _ in 0..5 {
            col.push_sample(&RicSample {
                community: CommunityId::new(0),
                threshold: 3,
                community_size: 1,
                nodes: vec![NodeId::new(0)],
                covers: vec![mk_cover(1, &[0])],
            })
            .unwrap();
        }
        col.push_sample(&RicSample {
            community: CommunityId::new(1),
            threshold: 2,
            community_size: 2,
            nodes: vec![NodeId::new(1), NodeId::new(2)],
            covers: vec![mk_cover(2, &[0]), mk_cover(2, &[1])],
        })
        .unwrap();
        let out = run(&cs, &col, 2, 5);
        assert_eq!(col.influenced_count(&out.seeds), 1);
        let mut s = out.seeds.clone();
        s.sort();
        assert_eq!(s, vec![NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn theorem3_bound_holds_on_setup() {
        // ĉ(S_MAF) ≥ ⌊k/h⌋/r · ĉ(S_OPT). Here r=2, h=2, k=2 → bound = 1/2
        // of optimum. Optimum with k=2 influences 3 samples; MAF achieves 3.
        let (cs, col) = setup();
        let out = run(&cs, &col, 2, 1);
        let opt = 3.0;
        assert!(col.influenced_count(&out.seeds) as f64 >= 0.5 * opt);
    }
}
