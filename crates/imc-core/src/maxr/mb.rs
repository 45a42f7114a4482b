//! MB — the combination of MAF and BT (Section IV-C).
//!
//! Runs both algorithms and keeps the seed set influencing more samples.
//! Theorem 5: since `ĉ(S_MB)² ≥ ĉ(S_MAF)·ĉ(S_BT)` and the two ratios
//! multiply to `(1−1/e)/k · ⌊k/2⌋/r`, MB is
//! `Θ(√((1−1/e)/r))`-approximate for thresholds `≤ 2` — tight to the
//! `O(r^{1/2(log log r)^c})` inapproximability of Theorem 1.

use crate::maxr::bt::bt_with;
use crate::maxr::engine::SolveStrategy;
use crate::maxr::maf::maf_with;
use crate::RicSamples;
use imc_community::CommunitySet;
use imc_graph::NodeId;

/// Output of MB ([`MbSolver`](crate::maxr::solver::MbSolver)).
#[derive(Debug, Clone, PartialEq)]
pub struct MbOutcome {
    /// The winning seed set.
    pub seeds: Vec<NodeId>,
    /// MAF's candidate.
    pub maf_seeds: Vec<NodeId>,
    /// BT's candidate.
    pub bt_seeds: Vec<NodeId>,
    /// `true` when BT won.
    pub chose_bt: bool,
}

/// Strategy-aware MB core behind [`MbSolver`](crate::maxr::solver::MbSolver).
/// `seed` drives MAF's random member picks. The strategy only accelerates
/// the BT half (its pivot loop shards across workers); MAF is already
/// linear-time. Returns the outcome plus the total evaluation count (both
/// halves, plus the two final `ĉ_R` comparisons).
///
/// # Panics
///
/// Panics if any sample threshold exceeds 2 (checked fallibly by
/// [`MaxrAlgorithm`](crate::MaxrAlgorithm)).
pub(crate) fn mb_with<C: RicSamples>(
    communities: &CommunitySet,
    collection: &C,
    k: usize,
    seed: u64,
    strategy: SolveStrategy,
) -> (MbOutcome, u64) {
    let (maf_out, maf_evals) = maf_with(communities, collection, k, seed);
    let (bt_out, bt_evals) = bt_with(collection, k, 2, None, strategy);
    let maf_score = collection.influenced_count(&maf_out.seeds);
    let bt_score = collection.influenced_count(&bt_out.seeds);
    let chose_bt = bt_score > maf_score;
    (
        MbOutcome {
            seeds: if chose_bt {
                bt_out.seeds.clone()
            } else {
                maf_out.seeds.clone()
            },
            maf_seeds: maf_out.seeds,
            bt_seeds: bt_out.seeds,
            chose_bt,
        },
        maf_evals + bt_evals + 2,
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
        // Hub node 4 covers member 0 in both communities' samples; nodes
        // 0..4 cover themselves.
        col.push_sample(&RicSample {
            community: CommunityId::new(0),
            threshold: 2,
            community_size: 2,
            nodes: vec![NodeId::new(0), NodeId::new(1), NodeId::new(4)],
            covers: vec![mk_cover(2, &[0]), mk_cover(2, &[1]), mk_cover(2, &[0])],
        })
        .unwrap();
        col.push_sample(&RicSample {
            community: CommunityId::new(1),
            threshold: 2,
            community_size: 2,
            nodes: vec![NodeId::new(2), NodeId::new(3), NodeId::new(4)],
            covers: vec![mk_cover(2, &[0]), mk_cover(2, &[1]), mk_cover(2, &[0])],
        })
        .unwrap();
        (cs, col)
    }

    fn run(cs: &CommunitySet, col: &RicStore, k: usize, seed: u64) -> MbOutcome {
        mb_with(cs, col, k, seed, SolveStrategy::Lazy).0
    }

    #[test]
    fn mb_at_least_as_good_as_both_parts() {
        let (cs, col) = setup();
        for k in 1..=4 {
            let out = run(&cs, &col, k, 9);
            let score = col.influenced_count(&out.seeds);
            assert!(score >= col.influenced_count(&out.maf_seeds));
            assert!(score >= col.influenced_count(&out.bt_seeds));
        }
    }

    #[test]
    fn mb_k3_uses_hub() {
        // With k=3, {4, 1, 3} influences both samples (hub covers member 0
        // in each). MAF's community strategy can win only one; BT finds the
        // hub.
        let (cs, col) = setup();
        let out = run(&cs, &col, 3, 1);
        assert_eq!(col.influenced_count(&out.seeds), 2);
    }

    #[test]
    fn theorem5_bound_sanity() {
        let (cs, col) = setup();
        let k = 2;
        let out = run(&cs, &col, k, 3);
        let r = cs.len() as f64;
        let bound = ((1.0 - 1.0 / std::f64::consts::E) / r * ((k / 2) as f64 / k as f64)).sqrt();
        // OPT(k=2) influences 1 sample.
        let opt = 1.0;
        assert!(col.influenced_count(&out.seeds) as f64 >= bound * opt);
    }

    #[test]
    fn seeds_sized_k() {
        let (cs, col) = setup();
        let out = run(&cs, &col, 4, 2);
        assert_eq!(out.seeds.len(), 4);
    }

    #[test]
    fn deterministic_under_seed() {
        let (cs, col) = setup();
        assert_eq!(run(&cs, &col, 3, 5), run(&cs, &col, 3, 5));
    }
}
