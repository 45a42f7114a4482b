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
//! [`SolveRequest::candidate_limit`](crate::SolveRequest::candidate_limit)
//! optionally restricts pivots to the most-appearing nodes for an
//! ablation-grade speedup.

use crate::maxr::pad_to_k;
use crate::maxr::solver::{Selection, SolveBackend, SolverExtras};
use crate::maxr::telemetry::EngineTelemetry;
use crate::samples::limbs_for_width;
use crate::{RicSamples, RicStore};
use imc_graph::NodeId;

/// BT (`BT^(d)` for `depth > 2`) over any [`SolveBackend`]; `depth ≥ 2`
/// and thresholds `≤ depth` are checked by the dispatch. The per-pivot
/// subproblems are independent, so the backend may fan them out; the
/// reduce below walks results in candidate order, which keeps the winning
/// pivot (ties broken by smaller pivot id) identical for any thread count.
/// Helper selection always runs single-threaded — the outer pivot loop is
/// where the parallelism pays. The evaluation count is one `pivot_score`
/// per candidate plus all helper-selection gains. With `candidate_limit`
/// set, only that many most-appearing nodes are tried as pivots.
pub(crate) fn bt_over<B: SolveBackend>(
    backend: &mut B,
    k: usize,
    depth: u32,
    candidate_limit: Option<usize>,
    threads: usize,
) -> Result<Selection, B::Error> {
    let (selection, helper_runs) = bt_unpublished(backend, k, depth, candidate_limit, threads)?;
    helper_runs.iter().for_each(EngineTelemetry::publish);
    Ok(selection)
}

/// [`bt_over`] without publishing: the telemetry of every helper run
/// comes back in pivot order, for the thread that holds the request's
/// trace context (a `BT^(d)` helper search runs on a pivot worker).
pub(crate) fn bt_unpublished<B: SolveBackend>(
    backend: &mut B,
    k: usize,
    depth: u32,
    candidate_limit: Option<usize>,
    threads: usize,
) -> Result<(Selection, Vec<EngineTelemetry>), B::Error> {
    let appearance = backend.stats()?.appearance;
    let k = k.min(appearance.len()).max(1);
    let candidates = pivot_candidates(&appearance, candidate_limit);

    let runs = backend.map_pivots(&candidates, threads, |backend, u| {
        // K(u): `{u}` plus `k − 1` helpers chosen on the reduced collection.
        let mut kset = vec![u];
        let (mut inner_evals, mut telemetry) = (0, Vec::new());
        if k > 1 {
            let (helpers, runs) = backend.helpers(u, k - 1, depth)?;
            (inner_evals, telemetry) = (helpers.evaluations, runs);
            kset.extend(helpers.seeds.into_iter().filter(|&h| h != u).take(k - 1));
        }
        let score = backend.pivot_score(u, &kset)?;
        Ok((score, kset, inner_evals, telemetry))
    })?;

    let mut evaluations = candidates.len() as u64;
    let mut helper_runs = Vec::new();
    let mut best: Option<(usize, NodeId, Vec<NodeId>)> = None;
    for (&u, (score, kset, inner_evals, telemetry)) in candidates.iter().zip(runs) {
        evaluations += inner_evals;
        helper_runs.extend(telemetry);
        let better = match &best {
            None => true,
            Some((bs, bu, _)) => score > *bs || (score == *bs && u < *bu),
        };
        if better {
            best = Some((score, u, kset));
        }
    }
    // Nothing touches any sample → no pivot; fall back to padding.
    let (pivot_score, pivot, mut seeds) = match best {
        Some((score, u, kset)) => (score, Some(u), kset),
        None => (0, None, Vec::new()),
    };
    pad_to_k(&mut seeds, k, appearance.len(), |v| appearance[v as usize]);
    let selection = Selection {
        seeds,
        evaluations,
        score: None,
        extras: SolverExtras::Bt { pivot, pivot_score },
    };
    Ok((selection, helper_runs))
}

/// Nodes worth trying as pivots, most-appearing first.
fn pivot_candidates(appearance: &[usize], limit: Option<usize>) -> Vec<NodeId> {
    let mut nodes: Vec<(usize, u32)> = appearance
        .iter()
        .enumerate()
        .filter_map(|(v, &c)| (c > 0).then_some((c, v as u32)))
        .collect();
    nodes.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    nodes.truncate(limit.unwrap_or(usize::MAX));
    nodes.into_iter().map(|(_, v)| NodeId::new(v)).collect()
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
    use crate::maxr::testutil::{instance, sample};
    use crate::{ImcInstance, MaxrAlgorithm, SolveReport, SolveRequest};

    /// The BT report plus its `(pivot, pivot_score)`.
    type Bt = (SolveReport, Option<NodeId>, usize);

    /// BT under `req` (paper-faithful for `SolveRequest::new(k)`: depth
    /// 2, every node a pivot candidate).
    fn run_with((inst, col): &(ImcInstance, RicStore), req: SolveRequest) -> Bt {
        let report = MaxrAlgorithm::Bt.solve(inst, col, &req).unwrap();
        let SolverExtras::Bt { pivot, pivot_score } = report.extras else {
            panic!("BT must report its pivot");
        };
        (report, pivot, pivot_score)
    }

    fn run(case: &(ImcInstance, RicStore), k: usize) -> Bt {
        run_with(case, SolveRequest::new(k))
    }

    /// Node 0 touches all three h=2 samples covering member 0; nodes 1, 2,
    /// 3 each complete one sample.
    fn hub_collection() -> (ImcInstance, RicStore) {
        let samples = [
            sample(0, 2, 2, &[(0, &[0]), (1, &[1])]),
            sample(1, 2, 2, &[(0, &[0]), (2, &[1])]),
            sample(2, 2, 2, &[(0, &[0]), (3, &[1])]),
        ];
        (
            instance(5, &[(&[0, 1], 2, 1.0), (&[2, 3], 2, 1.0), (&[4], 2, 1.0)]),
            RicStore::from_samples(5, 3, 3.0, &samples).unwrap(),
        )
    }

    #[test]
    fn bt_picks_hub_pivot_and_completers() {
        let (out, pivot, pivot_score) = run(&hub_collection(), 3);
        assert_eq!(pivot, Some(NodeId::new(0)));
        // {0} + 2 completers influence 2 samples.
        assert_eq!(pivot_score, 2);
        assert_eq!(out.influenced_samples, 2);
        assert!(out.seeds.contains(&NodeId::new(0)));
    }

    #[test]
    fn bt_k4_wins_everything() {
        let (out, _, pivot_score) = run(&hub_collection(), 4);
        assert_eq!(out.influenced_samples, 3);
        assert_eq!(pivot_score, 3);
    }

    #[test]
    fn k1_pivot_score_counts_solo_wins() {
        // Node 4 covers both members of one sample alone.
        let mut case = hub_collection();
        case.1
            .push_sample(&sample(0, 2, 2, &[(4, &[0, 1])]))
            .unwrap();
        let (out, pivot, pivot_score) = run(&case, 1);
        assert_eq!(pivot, Some(NodeId::new(4)));
        assert_eq!(pivot_score, 1);
        assert_eq!(out.seeds, vec![NodeId::new(4)]);
    }

    #[test]
    fn reduction_removes_covered_members() {
        let reduced = reduce_for_pivot(&hub_collection().1, NodeId::new(0));
        assert_eq!(reduced.len(), 3);
        for si in 0..reduced.len() {
            let s = reduced.view(si);
            assert_eq!(s.threshold(), 1); // 2 - 1 covered by pivot
            assert_eq!(s.nodes().len(), 1); // pivot's own entry dropped
        }
    }

    #[test]
    fn reduction_drops_solo_influenced_samples() {
        let (_, mut col) = hub_collection();
        col.push_sample(&sample(0, 2, 2, &[(0, &[0, 1])])).unwrap();
        let reduced = reduce_for_pivot(&col, NodeId::new(0));
        assert_eq!(reduced.len(), 3); // the new sample is already won
    }

    #[test]
    fn candidate_limit_restricts_pivots() {
        let case = hub_collection();
        let limited = SolveRequest::new(3).with_candidate_limit(1);
        // Node 0 is the most-appearing node, so the limit of 1 still finds
        // the right pivot — after scoring that one candidate only.
        let (out, pivot, _) = run_with(&case, limited);
        assert_eq!(pivot, Some(NodeId::new(0)));
        assert!(out.evaluations < run(&case, 3).0.evaluations);
    }

    #[test]
    fn btd_depth3_handles_threshold3() {
        // One sample with h=3: members covered by nodes 1, 2, 3; pivot 1
        // reduces to h=2, recursion finds the rest.
        let samples = [sample(0, 3, 3, &[(1, &[0]), (2, &[1]), (3, &[2])])];
        let case = (
            instance(5, &[(&[1, 2, 3], 3, 1.0)]),
            RicStore::from_samples(5, 1, 1.0, &samples).unwrap(),
        );
        let (out, _, pivot_score) = run_with(&case, SolveRequest::new(3).with_depth(3));
        assert_eq!(out.influenced_samples, 1);
        assert_eq!(pivot_score, 1);
        let btd = MaxrAlgorithm::Btd(3).solve(&case.0, &case.1, &SolveRequest::new(3));
        assert_eq!(btd.unwrap().seeds, out.seeds);
    }

    #[test]
    fn empty_collection_falls_back_to_padding() {
        let case = (instance(4, &[(&[0], 1, 1.0)]), RicStore::new(4, 1, 1.0));
        let (out, pivot, _) = run(&case, 2);
        assert_eq!(pivot, None);
        assert_eq!(out.seeds.len(), 2);
    }

    #[test]
    fn theorem4_bound_sanity() {
        // ĉ(S_BT) ≥ (1−1/e)/k · ĉ(S_OPT) must hold on the hub instance:
        // OPT(k=3) = 2 (e.g. {0,1,2}), bound = (1−1/e)/3 · 2 ≈ 0.42.
        let bound = (1.0 - 1.0 / std::f64::consts::E) / 3.0 * 2.0;
        assert!(run(&hub_collection(), 3).0.influenced_samples as f64 >= bound);
    }

    #[test]
    fn deterministic() {
        let case = hub_collection();
        let (a, b) = (run(&case, 3).0, run(&case, 3).0);
        assert_eq!((a.seeds, a.extras), (b.seeds, b.extras));
    }
}
