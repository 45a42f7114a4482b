//! Solvers for the MAXR problem (Definition 3): given a collection `R` of
//! RIC samples, pick `k` seeds maximizing the number of influenced samples.
//!
//! | [`MaxrAlgorithm`] | Ratio (paper) | Requires |
//! |---|---|---|
//! | `Greedy` (plain, on `ĉ_R`) | none (non-submodular) | — |
//! | `Ubg` (sandwich on `ν_R`)  | `(ĉ(S_ν)/ν(S_ν))·(1−1/e)` (Thm. 2) | — |
//! | `Maf` (most-appearance)    | `⌊k/h⌋ / r` (Thm. 3) | — |
//! | `Bt` / `Btd(d)` (bounded threshold) | `(1−1/e)/k` (Thm. 4), `(1−1/e)/k^{d−1}` for BT^(d) | `h_i ≤ d` |
//! | `Mb` (MAF ∨ BT)            | `Θ(√((1−1/e)/r))` (Thm. 5) | `h_i ≤ 2` |
//!
//! All of them run on the shared [`engine`] (the paper's re-evaluating
//! greedy over exact gain tables, plus a deterministic sharded map for
//! BT's pivots).
//! Each algorithm body ([`ubg`], [`maf`], [`bt`], [`mb`]) is written once
//! over the [`SolveBackend`] contract of the [`solver`] module;
//! [`MaxrAlgorithm::solve`] instantiates it over any [`RicSamples`]
//! implementer ([`RicStore`](crate::RicStore) or
//! [`RicStoreView`](crate::snapshot::RicStoreView)) and is the single
//! local entry point, and `imc-cluster`'s coordinator instantiates the
//! same bodies over its shard fleet.

pub mod bt;
pub mod engine;
pub mod exhaustive;
pub mod maf;
pub mod mb;
pub mod solver;
pub mod telemetry;
pub mod ubg;

pub use engine::{GainSource, GreedyRun, LocalSource, SolveStrategy};
pub use solver::{
    LocalBackend, Objective, Score, SolveBackend, SolveReport, SolveRequest, SolverExtras,
    UnionStats,
};
pub use telemetry::{EngineTelemetry, IterationRecord};

use crate::{ImcInstance, Result, RicSamples};
use imc_graph::NodeId;
use imc_obs::families;
use std::time::Duration;

/// Which MAXR solver the framework should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaxrAlgorithm {
    /// Plain greedy on `ĉ_R` — no guarantee (non-submodular), strong in
    /// practice.
    Greedy,
    /// Upper Bound Greedy (Alg. 2): sandwich with the submodular `ν_R`.
    Ubg,
    /// Most Appearance First (Alg. 3).
    Maf,
    /// Bounded-threshold algorithm (Alg. 4), thresholds ≤ 2.
    Bt,
    /// Recursive extension `BT^(d)`, thresholds ≤ `d` (`d ≥ 2`).
    Btd(u32),
    /// MB = best of MAF and BT (Theorem 5), thresholds ≤ 2.
    Mb,
}

impl MaxrAlgorithm {
    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            MaxrAlgorithm::Greedy => "GREEDY",
            MaxrAlgorithm::Ubg => "UBG",
            MaxrAlgorithm::Maf => "MAF",
            MaxrAlgorithm::Bt => "BT",
            MaxrAlgorithm::Btd(_) => "BT^d",
            MaxrAlgorithm::Mb => "MB",
        }
    }

    /// The approximation ratio `α` the paper proves for this solver, used
    /// to size the sample bound `Ψ` (eq. 22).
    ///
    /// For solvers without a universal guarantee (plain greedy) and for UBG
    /// (whose SSA integration optimizes the submodular `ν`, §V-B) this is
    /// `1 − 1/e`. MAF's ratio is clamped below by `1/(r·h)` so `Ψ` stays
    /// finite when `k < h`.
    pub fn approximation_ratio(&self, r: usize, h: u32, k: usize) -> f64 {
        let r = r.max(1) as f64;
        let one_minus_inv_e = 1.0 - 1.0 / std::f64::consts::E;
        match self {
            MaxrAlgorithm::Greedy | MaxrAlgorithm::Ubg => one_minus_inv_e,
            MaxrAlgorithm::Maf => {
                let ratio = (k as f64 / h.max(1) as f64).floor().max(1.0) / r;
                ratio.min(1.0)
            }
            MaxrAlgorithm::Bt => one_minus_inv_e / k.max(1) as f64,
            MaxrAlgorithm::Btd(d) => {
                one_minus_inv_e / (k.max(1) as f64).powi(d.saturating_sub(1).max(1) as i32)
            }
            MaxrAlgorithm::Mb => {
                let half = ((k / 2).max(1)) as f64 / k.max(1) as f64;
                (one_minus_inv_e / r * half).sqrt().min(1.0)
            }
        }
    }

    /// Runs the solver on a sample collection
    /// ([`RicStore`](crate::RicStore) or a zero-copy
    /// [`RicStoreView`](crate::snapshot::RicStoreView)); the seed sets are
    /// identical for identical collections and for every thread count.
    ///
    /// This is [`solve_over`](Self::solve_over) instantiated with a
    /// [`LocalBackend`], plus the `maxr_solve` metric: it applies the
    /// instance-level budget check and the per-algorithm threshold
    /// bounds, then runs the algorithm body. `req.seed` drives MAF's
    /// random member picks (the only randomized solver); `req.depth` is
    /// the `d` of BT^(d) (overridden by the variant's `d` for
    /// [`MaxrAlgorithm::Btd`]; MB always checks thresholds ≤ 2).
    ///
    /// # Errors
    ///
    /// * [`InvalidBudget`](crate::ImcError::InvalidBudget) for `req.k == 0`
    ///   or `req.k > n`.
    /// * [`InvalidParameter`](crate::ImcError::InvalidParameter) for a BT
    ///   depth below 2.
    /// * [`ThresholdTooLarge`](crate::ImcError::ThresholdTooLarge) when
    ///   BT/BT^(d)/MB run on an instance whose thresholds exceed their
    ///   bound.
    ///
    /// ```
    /// use imc_community::CommunitySet;
    /// use imc_core::{ImcInstance, MaxrAlgorithm, RicSampler, RicStore, SolveRequest};
    /// use imc_graph::{GraphBuilder, NodeId};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = GraphBuilder::new(3);
    /// b.add_edge(0, 1, 1.0)?;
    /// let graph = b.build()?;
    /// let communities =
    ///     CommunitySet::from_parts(3, vec![(vec![NodeId::new(1)], 1, 2.0)])?;
    /// let instance = ImcInstance::new(graph, communities)?;
    /// let sampler = instance.sampler();
    /// let mut store = RicStore::for_sampler(&sampler);
    /// store.extend_parallel_with_workers(&sampler, 500, 7, 2);
    /// let report =
    ///     MaxrAlgorithm::Ubg.solve(&instance, &store, &SolveRequest::new(1).with_seed(42))?;
    /// // Node 0 reaches the member through a certain edge and tops node 1
    /// // (both influence everything; smaller id wins the tie).
    /// assert_eq!(report.seeds, vec![NodeId::new(0)]);
    /// assert_eq!(report.influenced_samples, 500);
    /// assert!(report.evaluations > 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn solve<C: RicSamples>(
        &self,
        instance: &ImcInstance,
        collection: &C,
        req: &SolveRequest,
    ) -> Result<SolveReport> {
        let start = std::time::Instant::now();
        let (report, _) = {
            let _select_span = imc_obs::Span::enter_with("maxr_select", self.name());
            self.solve_over(instance, &mut LocalBackend(collection), req)?
        };
        record_maxr_solve(
            self.name(),
            start.elapsed(),
            report.influenced_samples,
            collection.len(),
            report.extras.sandwich_ratio(),
        );
        Ok(report)
    }
}

/// Records one MAXR solve: per-algorithm counter + duration histogram,
/// the coverage-ratio histogram, and a `maxr_solve` trace event (with
/// UBG's sandwich ratio when there is one).
fn record_maxr_solve(
    algo: &'static str,
    duration: Duration,
    influenced: usize,
    samples: usize,
    sandwich_ratio: Option<f64>,
) {
    families::MAXR_SOLVES.child(algo).inc();
    families::MAXR_SOLVE_DURATION
        .child(algo)
        .observe_duration(duration);
    if samples > 0 {
        families::MAXR_COVERAGE_RATIO
            .handle()
            .observe(influenced as f64 / samples as f64);
    }
    if imc_obs::trace::enabled() {
        let mut event = imc_obs::trace::TraceEvent::new("maxr_solve")
            .field("algo", algo)
            .field("seconds", duration.as_secs_f64())
            .field("influenced", influenced)
            .field("samples", samples);
        if let Some(ratio) = sandwich_ratio {
            event = event.field("sandwich_ratio", ratio);
        }
        imc_obs::trace::emit(event);
    }
}

/// Pads `seeds` up to `min(k, node_count)` with the unused nodes that
/// appear in the most samples, ties to the smallest id (extra seeds never
/// hurt the objective) — and truncates an over-long set. The one padding
/// rule: the engine's greedy loops, MAF and BT all end here, so every
/// algorithm returns exactly `min(k, n)` seeds, matching how the paper
/// compares fixed-budget solutions.
pub(crate) fn pad_to_k(
    seeds: &mut Vec<NodeId>,
    k: usize,
    node_count: usize,
    appearance: impl Fn(u32) -> usize,
) {
    let k = k.min(node_count);
    if seeds.len() >= k {
        seeds.truncate(k);
        return;
    }
    let mut used = vec![false; node_count];
    for s in seeds.iter() {
        used[s.index()] = true;
    }
    let mut rest: Vec<(usize, u32)> = (0..node_count as u32)
        .filter(|&v| !used[v as usize])
        .map(|v| (appearance(v), v))
        .collect();
    // Highest appearance first; ties by smallest id for determinism.
    rest.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    seeds.extend(
        rest.into_iter()
            .take(k - seeds.len())
            .map(|(_, v)| NodeId::new(v)),
    );
}

/// Fixtures shared by the solver test modules.
#[cfg(test)]
pub(crate) mod testutil {
    use crate::{CoverSet, ImcInstance, RicSample};
    use imc_community::{CommunityId, CommunitySet};
    use imc_graph::{GraphBuilder, NodeId};

    /// A sample of `community` with threshold `h` over `width` members;
    /// `entries` lists `(node, member positions it covers)`.
    pub(crate) fn sample(
        community: u32,
        threshold: u32,
        width: usize,
        entries: &[(u32, &[usize])],
    ) -> RicSample {
        let cover = |bits: &[usize]| {
            let mut c = CoverSet::new(width);
            bits.iter().for_each(|&b| c.set(b));
            c
        };
        RicSample {
            community: CommunityId::new(community),
            threshold,
            community_size: width as u32,
            nodes: entries.iter().map(|&(v, _)| NodeId::new(v)).collect(),
            covers: entries.iter().map(|&(_, bits)| cover(bits)).collect(),
        }
    }

    /// An edgeless `n`-node instance with `(members, threshold, benefit)`
    /// communities — what `MaxrAlgorithm::solve` validates a hand-built
    /// store against.
    pub(crate) fn instance(n: u32, parts: &[(&[u32], u32, f64)]) -> ImcInstance {
        let parts = parts
            .iter()
            .map(|&(members, h, b)| (members.iter().map(|&v| NodeId::new(v)).collect(), h, b))
            .collect();
        let communities = CommunitySet::from_parts(n, parts).unwrap();
        ImcInstance::new(GraphBuilder::new(n).build().unwrap(), communities).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one unit test of the one padding rule.
    #[test]
    fn pad_to_k_rule() {
        // appearance: node 2 highest, then 0 and 3 tied (smaller id
        // first), node 1 already used.
        let appearance = [5, 1, 9, 5];
        let pad = |seeds: &mut Vec<NodeId>, k| pad_to_k(seeds, k, 4, |v| appearance[v as usize]);
        let mut seeds = vec![NodeId::new(1)];
        pad(&mut seeds, 3);
        assert_eq!(seeds, vec![NodeId::new(1), NodeId::new(2), NodeId::new(0)]);

        // Over-long input truncates; k beyond n clamps.
        let mut long = vec![NodeId::new(3), NodeId::new(0), NodeId::new(1)];
        pad(&mut long, 2);
        assert_eq!(long, vec![NodeId::new(3), NodeId::new(0)]);
        let mut all = Vec::new();
        pad(&mut all, 10);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn names_are_distinct() {
        // ... and exactly the `algo` vocabulary of the metric table.
        let algos = [
            MaxrAlgorithm::Greedy,
            MaxrAlgorithm::Ubg,
            MaxrAlgorithm::Maf,
            MaxrAlgorithm::Bt,
            MaxrAlgorithm::Btd(3),
            MaxrAlgorithm::Mb,
        ];
        let names: Vec<&str> = algos.iter().map(|a| a.name()).collect();
        assert_eq!(names, families::ALGOS);
    }

    #[test]
    fn record_maxr_solve_feeds_labeled_series() {
        let before = families::MAXR_SOLVES.child("UBG").get();
        record_maxr_solve("UBG", Duration::from_micros(50), 3, 10, Some(0.75));
        assert_eq!(families::MAXR_SOLVES.child("UBG").get(), before + 1);
    }

    #[test]
    fn ratios_are_probabilities() {
        for algo in [
            MaxrAlgorithm::Greedy,
            MaxrAlgorithm::Ubg,
            MaxrAlgorithm::Maf,
            MaxrAlgorithm::Bt,
            MaxrAlgorithm::Btd(3),
            MaxrAlgorithm::Mb,
        ] {
            for (r, h, k) in [(1usize, 1u32, 1usize), (10, 2, 5), (100, 4, 50)] {
                let a = algo.approximation_ratio(r, h, k);
                assert!(
                    a > 0.0 && a <= 1.0,
                    "{algo:?} ratio {a} for r={r} h={h} k={k}"
                );
            }
        }
    }

    #[test]
    fn maf_ratio_matches_theorem3() {
        // ⌊k/h⌋ / r with k=10, h=2, r=5 → 5/5 = 1 (clamped to 1).
        assert_eq!(MaxrAlgorithm::Maf.approximation_ratio(5, 2, 10), 1.0);
        // k=4, h=2, r=10 → 2/10.
        assert!((MaxrAlgorithm::Maf.approximation_ratio(10, 2, 4) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn bt_ratio_matches_theorem4() {
        let e = std::f64::consts::E;
        let expect = (1.0 - 1.0 / e) / 7.0;
        assert!((MaxrAlgorithm::Bt.approximation_ratio(3, 2, 7) - expect).abs() < 1e-12);
        // BT^(3) divides by k².
        let expect3 = (1.0 - 1.0 / e) / 49.0;
        assert!((MaxrAlgorithm::Btd(3).approximation_ratio(3, 3, 7) - expect3).abs() < 1e-12);
    }

    #[test]
    fn mb_ratio_matches_theorem5_shape() {
        // Θ(√((1−1/e)/r)) up to the ⌊k/2⌋/k factor.
        let a = MaxrAlgorithm::Mb.approximation_ratio(100, 2, 10);
        let e = std::f64::consts::E;
        let expect = ((1.0 - 1.0 / e) / 100.0 * 0.5).sqrt();
        assert!((a - expect).abs() < 1e-12);
    }
}
