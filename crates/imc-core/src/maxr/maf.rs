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
use crate::maxr::solver::{Selection, SolveBackend, SolverExtras};
use imc_community::{CommunityId, CommunitySet};
use imc_graph::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// MAF (Alg. 3) over any [`SolveBackend`]. `seed` drives the uniform
/// member picks inside communities. MAF never computes marginal gains —
/// its two objective evaluations are the final `ĉ_R` comparisons of `S1`
/// vs `S2` — so the evaluation count is always 2.
pub(crate) fn maf_over<B: SolveBackend>(
    backend: &mut B,
    communities: &CommunitySet,
    k: usize,
    seed: u64,
) -> Result<Selection, B::Error> {
    let stats = backend.stats()?;
    let node_count = stats.appearance.len();
    let k = k.min(node_count);
    let mut rng = StdRng::seed_from_u64(seed);

    // --- S1: most frequent source communities, h members each. ---
    let freq = &stats.community_frequencies;
    let mut order: Vec<usize> = (0..freq.len()).collect();
    // Descending frequency; ties by community id for determinism.
    order.sort_by(|&a, &b| freq[b].cmp(&freq[a]).then(a.cmp(&b)));
    let mut s1: Vec<NodeId> = Vec::with_capacity(k);
    for ci in order {
        let community = communities.get(CommunityId::new(ci as u32));
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
    pad_to_k(&mut s1, k, node_count, |v| stats.appearance[v as usize]);

    // --- S2: top-k nodes by appearance count. ---
    let counts = &stats.appearance;
    let mut nodes: Vec<u32> = (0..node_count as u32).collect();
    nodes.sort_by(|&a, &b| counts[b as usize].cmp(&counts[a as usize]).then(a.cmp(&b)));
    let s2: Vec<NodeId> = nodes.into_iter().take(k).map(NodeId::new).collect();

    let chose_s1 = backend.score(&s1)?.influenced >= backend.score(&s2)?.influenced;
    Ok(Selection {
        seeds: if chose_s1 { s1.clone() } else { s2.clone() },
        evaluations: 2,
        score: None,
        extras: SolverExtras::Maf { s1, s2, chose_s1 },
    })
}

#[cfg(test)]
mod tests {
    use crate::maxr::testutil::{instance, sample};
    use crate::{ImcInstance, MaxrAlgorithm, RicStore, SolveReport, SolveRequest, SolverExtras};
    use imc_graph::NodeId;

    /// The MAF report plus its `(s1, s2)` candidates.
    fn run(
        (inst, col): &(ImcInstance, RicStore),
        k: usize,
        seed: u64,
    ) -> (SolveReport, Vec<NodeId>, Vec<NodeId>) {
        let report = MaxrAlgorithm::Maf
            .solve(inst, col, &SolveRequest::new(k).with_seed(seed))
            .unwrap();
        let SolverExtras::Maf { s1, s2, chose_s1 } = report.extras.clone() else {
            panic!("MAF must report its candidate sets");
        };
        assert_eq!(report.seeds, if chose_s1 { &s1[..] } else { &s2[..] });
        assert_eq!(report.evaluations, 2);
        (report, s1, s2)
    }

    /// Community 0 = {0, 1} (h=2), community 1 = {2, 3} (h=2). Community 0
    /// sources 3 samples, community 1 sources 1. Each member covers itself
    /// in its community's samples.
    fn setup() -> (ImcInstance, RicStore) {
        let first = sample(0, 2, 2, &[(0, &[0]), (1, &[1])]);
        let second = sample(1, 2, 2, &[(2, &[0]), (3, &[1])]);
        let samples = [first.clone(), first.clone(), first, second];
        (
            instance(6, &[(&[0, 1], 2, 2.0), (&[2, 3], 2, 2.0)]),
            RicStore::from_samples(6, 2, 4.0, &samples).unwrap(),
        )
    }

    #[test]
    fn s1_targets_most_frequent_community() {
        let case = setup();
        let (_, mut s1, _) = run(&case, 2, 7);
        // That influences the 3 samples of community 0.
        assert_eq!(case.1.influenced_count(&s1), 3);
        // Budget 2 = h of community 0; S1 must be exactly its two members.
        s1.sort();
        assert_eq!(s1, vec![NodeId::new(0), NodeId::new(1)]);
    }

    #[test]
    fn k4_takes_both_communities() {
        assert_eq!(run(&setup(), 4, 7).0.influenced_samples, 4);
    }

    #[test]
    fn seeds_are_k_and_distinct() {
        let case = setup();
        for k in 1..=5 {
            let seeds = run(&case, k, 3).0.seeds;
            assert_eq!(seeds.len(), k);
            let uniq: std::collections::HashSet<_> = seeds.iter().collect();
            assert_eq!(uniq.len(), k, "duplicates at k={k}");
        }
    }

    #[test]
    fn s2_is_top_appearance() {
        let (_, _, mut s2) = run(&setup(), 2, 7);
        // Nodes 0,1 appear in 3 samples each; 2,3 in 1 each.
        s2.sort();
        assert_eq!(s2, vec![NodeId::new(0), NodeId::new(1)]);
    }

    #[test]
    fn deterministic_under_seed() {
        let case = setup();
        assert_eq!(run(&case, 3, 11).0.extras, run(&case, 3, 11).0.extras);
    }

    #[test]
    fn unsatisfiable_community_skipped() {
        // Community with h=3 but 1 member can never be influenced; MAF
        // must not waste budget on it, though it sources many samples.
        let mut samples = vec![sample(0, 3, 1, &[(0, &[0])]); 5];
        samples.push(sample(1, 2, 2, &[(1, &[0]), (2, &[1])]));
        let case = (
            instance(4, &[(&[0], 3, 10.0), (&[1, 2], 2, 1.0)]),
            RicStore::from_samples(4, 2, 11.0, &samples).unwrap(),
        );
        let (report, ..) = run(&case, 2, 5);
        assert_eq!(report.influenced_samples, 1);
        let mut s = report.seeds;
        s.sort();
        assert_eq!(s, vec![NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn theorem3_bound_holds_on_setup() {
        // ĉ(S_MAF) ≥ ⌊k/h⌋/r · ĉ(S_OPT). Here r=2, h=2, k=2 → bound = 1/2
        // of optimum. Optimum with k=2 influences 3 samples; MAF achieves 3.
        let opt = 3.0;
        assert!(run(&setup(), 2, 1).0.influenced_samples as f64 >= 0.5 * opt);
    }
}
