//! Bounded-Threshold algorithm (Algorithm 4) and its recursive `BT^(d)`
//! extension.
//!
//! For every pivot node `u`, BT restricts attention to the samples `u`
//! touches (`G_R(u)`), *removes* from each the members `u` already reaches
//! and lowers the threshold accordingly (lines 3–7 of Alg. 4). With
//! thresholds originally `≤ 2` the residual thresholds are `≤ 1`, so a
//! plain greedy max-coverage finds `k − 1` helpers `T` with a `1 − 1/e`
//! guarantee; `K(u) = {u} ∪ T`. The answer is the `K(u)` maximizing
//! `|D_R(K(u), u)|` — the influenced samples among those `u` touches
//! (Theorem 4: `(1 − 1/e)/k`-approximate).
//!
//! `BT^(d)` (thresholds `≤ d`) replaces the inner greedy with a recursive
//! `BT^(d−1)` call on the reduced collection, giving `(1 − 1/e)/k^{d−1}`.
//!
//! BT solves `O(|V|)` subproblems, which the paper's Fig. 7 shows (and our
//! benches confirm) is orders of magnitude slower than UBG/MAF —
//! [`BtSolver::candidate_limit`](crate::maxr::solver::BtSolver::candidate_limit)
//! optionally restricts pivots to the most-appearing nodes for an
//! ablation-grade speedup.

use crate::maxr::engine::{greedy_c_with, shard_map, SolveStrategy};
use crate::maxr::pad_to_k;
use crate::samples::limbs_for_width;
use crate::{RicSamples, RicStore};
use imc_graph::NodeId;

/// Output of BT ([`BtSolver`](crate::maxr::solver::BtSolver)).
#[derive(Debug, Clone, PartialEq)]
pub struct BtOutcome {
    /// The winning seed set `K(u*)`, padded to `k`.
    pub seeds: Vec<NodeId>,
    /// The winning pivot `u*` (`None` when no node touches any sample).
    pub pivot: Option<NodeId>,
    /// `|D_R(K(u*), u*)|` — influenced samples among those the pivot
    /// touches.
    pub pivot_score: usize,
}

/// Strategy-aware BT core (`BT^(d)` for `depth > 2`) behind
/// [`BtSolver`](crate::maxr::solver::BtSolver). The per-pivot subproblems
/// are independent, so they are sharded across workers via the engine; the
/// reduce below walks results in candidate order, which keeps the winning
/// pivot (ties broken by smaller pivot id) identical for any thread count.
/// Inner greedy/recursive calls always run single-threaded — the outer pivot
/// loop is where the parallelism pays. Returns the outcome plus the total
/// number of objective evaluations (one `pivot_score` per candidate plus all
/// inner-greedy gains). With `candidate_limit` set, only that many
/// most-appearing nodes are tried as pivots.
///
/// # Panics
///
/// Panics if `depth < 2` or any sample's threshold exceeds `depth` (the
/// solver struct checks both fallibly).
pub(crate) fn bt_with<C: RicSamples>(
    collection: &C,
    k: usize,
    depth: u32,
    candidate_limit: Option<usize>,
    strategy: SolveStrategy,
) -> (BtOutcome, u64) {
    assert!(depth >= 2, "BT depth must be at least 2");
    assert!(
        (0..collection.len()).all(|si| collection.sample_threshold(si) <= depth),
        "BT^{depth}: a sample exceeds the threshold bound"
    );
    let k = k.min(collection.node_count()).max(1);
    let candidates = pivot_candidates(collection, candidate_limit);

    let runs = shard_map(candidates.len(), strategy.threads(), |i| {
        let u = candidates[i];
        let (kset, inner_evals) = seeds_for_pivot(collection, u, k, depth);
        let score = pivot_score(collection, u, &kset);
        (score, kset, inner_evals)
    });

    let mut evaluations = candidates.len() as u64;
    let mut best: Option<(usize, NodeId, Vec<NodeId>)> = None;
    for (i, (score, kset, inner_evals)) in runs.into_iter().enumerate() {
        evaluations += inner_evals;
        let u = candidates[i];
        let better = match &best {
            None => true,
            Some((bs, bu, _)) => score > *bs || (score == *bs && u < *bu),
        };
        if better {
            best = Some((score, u, kset));
        }
    }
    let outcome = match best {
        Some((score, u, mut seeds)) => {
            pad_to_k(collection, &mut seeds, k);
            BtOutcome {
                seeds,
                pivot: Some(u),
                pivot_score: score,
            }
        }
        None => {
            // Nothing touches any sample; fall back to padding.
            let mut seeds = Vec::new();
            pad_to_k(collection, &mut seeds, k);
            BtOutcome {
                seeds,
                pivot: None,
                pivot_score: 0,
            }
        }
    };
    (outcome, evaluations)
}

/// Nodes worth trying as pivots, most-appearing first.
pub fn pivot_candidates<C: RicSamples>(collection: &C, limit: Option<usize>) -> Vec<NodeId> {
    let mut nodes: Vec<(usize, u32)> = (0..collection.node_count() as u32)
        .filter_map(|v| {
            let c = collection.appearance_count(NodeId::new(v));
            (c > 0).then_some((c, v))
        })
        .collect();
    nodes.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let take = limit.unwrap_or(nodes.len());
    nodes
        .into_iter()
        .take(take)
        .map(|(_, v)| NodeId::new(v))
        .collect()
}

/// Builds `K(u)`: `{u}` plus `k − 1` helpers chosen on the reduced
/// collection (greedy for residual thresholds ≤ 1, recursive BT otherwise).
/// Returns the helper set plus the inner evaluation count.
fn seeds_for_pivot<C: RicSamples>(
    collection: &C,
    u: NodeId,
    k: usize,
    depth: u32,
) -> (Vec<NodeId>, u64) {
    let mut kset = vec![u];
    if k == 1 {
        return (kset, 0);
    }
    let reduced = reduce_for_pivot(collection, u);
    let (helpers, inner_evals) =
        if depth <= 2 || (0..reduced.len()).all(|si| reduced.sample_threshold(si) <= 1) {
            let run = greedy_c_with(&reduced, k - 1, SolveStrategy::Lazy);
            (run.seeds, run.evaluations)
        } else {
            let (out, evals) = bt_with(&reduced, k - 1, depth - 1, None, SolveStrategy::Lazy);
            (out.seeds, evals)
        };
    for h in helpers {
        if h != u && kset.len() < k {
            kset.push(h);
        }
    }
    (kset, inner_evals)
}

/// Lines 2–7 of Alg. 4: copy the samples `u` touches, remove the members
/// `u` reaches, lower thresholds. Samples `u` alone already influences
/// (residual threshold 0) are dropped — they are won regardless of `T` and
/// are counted by [`pivot_score`] directly.
pub fn reduce_for_pivot<C: RicSamples>(collection: &C, u: NodeId) -> RicStore {
    let mut reduced = RicStore::new(
        collection.node_count(),
        collection.community_count(),
        collection.total_benefit(),
    );
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut words: Vec<u64> = Vec::new();
    for r in collection.touched_by(u) {
        let si = r.sample as usize;
        let threshold = collection.sample_threshold(si);
        let cu = collection.cover_words(si, r.pos as usize);
        let covered: u32 = cu.iter().map(|w| w.count_ones()).sum();
        if covered >= threshold {
            continue; // already influenced by u alone
        }
        let residual_threshold = threshold - covered;
        let width = collection.sample_width(si);
        let limbs = limbs_for_width(width);
        nodes.clear();
        words.clear();
        for (i, v) in collection.sample_nodes(si).iter().enumerate() {
            let cover = collection.cover_words(si, i);
            if cover.iter().zip(cu).any(|(a, b)| a & !b != 0) {
                nodes.push(*v);
                words.extend(cover.iter().zip(cu).map(|(a, b)| a & !b));
            }
        }
        debug_assert_eq!(words.len(), nodes.len() * limbs);
        reduced.push_raw(
            collection.sample_community(si),
            residual_threshold,
            width,
            &nodes,
            &words,
        );
    }
    reduced.rebuild_index();
    reduced
}

/// `|D_R(K, u)|`: samples touched by `u` and influenced by `K`.
pub fn pivot_score<C: RicSamples>(collection: &C, u: NodeId, kset: &[NodeId]) -> usize {
    collection
        .touched_by(u)
        .iter()
        .filter(|r| collection.sample_influenced(r.sample as usize, kset))
        .count()
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

    fn sample(
        community: u32,
        threshold: u32,
        width: usize,
        entries: &[(u32, &[usize])],
    ) -> RicSample {
        RicSample {
            community: CommunityId::new(community),
            threshold,
            community_size: width as u32,
            nodes: entries.iter().map(|&(v, _)| NodeId::new(v)).collect(),
            covers: entries
                .iter()
                .map(|&(_, bits)| mk_cover(width, bits))
                .collect(),
        }
    }

    /// Paper-faithful BT: depth 2, every node a pivot candidate.
    fn run(col: &RicStore, k: usize) -> BtOutcome {
        bt_with(col, k, 2, None, SolveStrategy::Lazy).0
    }

    /// Node 0 touches all three h=2 samples covering member 0; nodes 1, 2,
    /// 3 each complete one sample.
    fn hub_collection() -> RicStore {
        let mut col = RicStore::new(5, 3, 3.0);
        col.push_sample(&sample(0, 2, 2, &[(0, &[0]), (1, &[1])]))
            .unwrap();
        col.push_sample(&sample(1, 2, 2, &[(0, &[0]), (2, &[1])]))
            .unwrap();
        col.push_sample(&sample(2, 2, 2, &[(0, &[0]), (3, &[1])]))
            .unwrap();
        col
    }

    #[test]
    fn bt_picks_hub_pivot_and_completers() {
        let col = hub_collection();
        let out = run(&col, 3);
        assert_eq!(out.pivot, Some(NodeId::new(0)));
        // {0} + 2 completers influence 2 samples.
        assert_eq!(out.pivot_score, 2);
        assert_eq!(col.influenced_count(&out.seeds), 2);
        assert!(out.seeds.contains(&NodeId::new(0)));
    }

    #[test]
    fn bt_k4_wins_everything() {
        let col = hub_collection();
        let out = run(&col, 4);
        assert_eq!(col.influenced_count(&out.seeds), 3);
        assert_eq!(out.pivot_score, 3);
    }

    #[test]
    fn k1_pivot_score_counts_solo_wins() {
        // Node 4 covers both members of one sample alone.
        let mut col = hub_collection();
        col.push_sample(&sample(0, 2, 2, &[(4, &[0, 1])])).unwrap();
        let out = run(&col, 1);
        assert_eq!(out.pivot, Some(NodeId::new(4)));
        assert_eq!(out.pivot_score, 1);
        assert_eq!(out.seeds, vec![NodeId::new(4)]);
    }

    #[test]
    fn reduction_removes_covered_members() {
        let col = hub_collection();
        let reduced = reduce_for_pivot(&col, NodeId::new(0));
        assert_eq!(reduced.len(), 3);
        for si in 0..reduced.len() {
            let s = reduced.view(si);
            assert_eq!(s.threshold(), 1); // 2 - 1 covered by pivot
            assert_eq!(s.nodes().len(), 1); // pivot's own entry dropped
        }
    }

    #[test]
    fn reduction_drops_solo_influenced_samples() {
        let mut col = hub_collection();
        col.push_sample(&sample(0, 2, 2, &[(0, &[0, 1])])).unwrap();
        let reduced = reduce_for_pivot(&col, NodeId::new(0));
        assert_eq!(reduced.len(), 3); // the new sample is already won
    }

    #[test]
    fn candidate_limit_restricts_pivots() {
        let col = hub_collection();
        let limited = bt_with(&col, 3, 2, Some(1), SolveStrategy::Lazy).0;
        // Node 0 is the most-appearing node, so the limit of 1 still finds
        // the right pivot.
        assert_eq!(limited.pivot, Some(NodeId::new(0)));
    }

    #[test]
    fn btd_depth3_handles_threshold3() {
        // One sample with h=3: members covered by nodes 1, 2, 3; pivot 1
        // reduces to h=2, recursion finds the rest.
        let mut col = RicStore::new(5, 1, 1.0);
        col.push_sample(&sample(0, 3, 3, &[(1, &[0]), (2, &[1]), (3, &[2])]))
            .unwrap();
        let out = bt_with(&col, 3, 3, None, SolveStrategy::Lazy).0;
        assert_eq!(col.influenced_count(&out.seeds), 1);
        assert_eq!(out.pivot_score, 1);
    }

    #[test]
    #[should_panic(expected = "threshold bound")]
    fn depth2_rejects_threshold3_samples() {
        let mut col = RicStore::new(5, 1, 1.0);
        col.push_sample(&sample(0, 3, 3, &[(1, &[0]), (2, &[1]), (3, &[2])]))
            .unwrap();
        let _ = run(&col, 2);
    }

    #[test]
    fn empty_collection_falls_back_to_padding() {
        let col = RicStore::new(4, 1, 1.0);
        let out = run(&col, 2);
        assert_eq!(out.pivot, None);
        assert_eq!(out.seeds.len(), 2);
    }

    #[test]
    fn theorem4_bound_sanity() {
        // ĉ(S_BT) ≥ (1−1/e)/k · ĉ(S_OPT) must hold on the hub instance:
        // OPT(k=3) = 2 (e.g. {0,1,2}), bound = (1−1/e)/3 · 2 ≈ 0.42.
        let col = hub_collection();
        let out = run(&col, 3);
        let bound = (1.0 - 1.0 / std::f64::consts::E) / 3.0 * 2.0;
        assert!(col.influenced_count(&out.seeds) as f64 >= bound);
    }

    #[test]
    fn deterministic() {
        let col = hub_collection();
        assert_eq!(run(&col, 3), run(&col, 3));
    }
}
