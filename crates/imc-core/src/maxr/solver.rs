//! The unified solver API: every MAXR algorithm behind one
//! [`MaxrSolver`] trait with a shared [`SolveRequest`] / [`SolveReport`]
//! pair.
//!
//! The algorithms differ in what they need (BT a threshold bound, MAF/MB
//! the community set and an RNG seed) and in what they can report. This
//! module folds those differences into:
//!
//! * [`SolveRequest`] — budget `k`, RNG seed, BT threshold bound `d`, and
//!   the engine [`SolveStrategy`];
//! * [`SolveReport`] — seeds, influenced-sample count, `ĉ_R` estimate,
//!   evaluation count, wall-clock time, and per-solver [`SolverExtras`];
//! * one solver struct per algorithm ([`GreedySolver`], [`UbgSolver`],
//!   [`MafSolver`], [`BtSolver`], [`MbSolver`]), all implementing
//!   [`MaxrSolver`].
//!
//! [`MaxrAlgorithm::solve`](crate::MaxrAlgorithm::solve) dispatches to
//! these and is the single entry point; the per-solver free functions it
//! replaced were removed in 0.8.0 (old → new table in
//! `docs/SOLVER_API.md`).

use crate::maxr::engine::{self, SolveStrategy};
use crate::maxr::{bt, maf, mb, ubg};
use crate::{ImcError, Result, RicSamples};
use imc_community::CommunitySet;
use imc_graph::NodeId;
use std::time::{Duration, Instant};

/// Parameters of a MAXR solve, shared by every solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveRequest {
    /// Seed budget `k`.
    pub k: usize,
    /// RNG seed for randomized solvers (MAF's uniform member picks);
    /// deterministic solvers ignore it.
    pub seed: u64,
    /// Threshold bound `d ≥ 2` for BT^(d) (ignored by other solvers; MB
    /// always uses `d = 2`).
    pub depth: u32,
    /// Engine strategy for marginal-gain evaluation.
    pub strategy: SolveStrategy,
}

impl SolveRequest {
    /// A request with budget `k` and defaults everywhere else: seed 1,
    /// depth 2, lazy single-threaded evaluation.
    pub fn new(k: usize) -> Self {
        SolveRequest {
            k,
            seed: 1,
            depth: 2,
            strategy: SolveStrategy::Lazy,
        }
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the BT threshold bound.
    pub fn with_depth(mut self, depth: u32) -> Self {
        self.depth = depth;
        self
    }

    /// Replaces the engine strategy.
    pub fn with_strategy(mut self, strategy: SolveStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the strategy from a thread count (`≤ 1` → lazy, else
    /// lazy+parallel).
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_strategy(SolveStrategy::with_threads(threads))
    }
}

/// Per-solver diagnostic payload attached to a [`SolveReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum SolverExtras {
    /// No extra diagnostics (plain greedy).
    None,
    /// UBG sandwich details (Alg. 2).
    Ubg {
        /// Greedy solution for the upper bound `ν_R`.
        s_nu: Vec<NodeId>,
        /// Greedy solution for the objective `ĉ_R`.
        s_c: Vec<NodeId>,
        /// `true` when `s_nu` won under `ĉ_R`.
        chose_nu: bool,
        /// `ĉ_R(S_ν) / ν_R(S_ν)` (1.0 when `ν_R(S_ν) = 0`).
        sandwich_ratio: f64,
    },
    /// MAF candidate sets (Alg. 3).
    Maf {
        /// Community-frequency seeds (Theorem 3 carrier).
        s1: Vec<NodeId>,
        /// Node-appearance seeds.
        s2: Vec<NodeId>,
        /// `true` when `s1` won.
        chose_s1: bool,
    },
    /// BT pivot details (Alg. 4).
    Bt {
        /// The winning pivot `u*` (`None` when nothing touches a sample).
        pivot: Option<NodeId>,
        /// `|D_R(K(u*), u*)|` — influenced samples among those `u*`
        /// touches.
        pivot_score: usize,
    },
    /// MB arbitration (Thm. 5).
    Mb {
        /// MAF's candidate seed set.
        maf_seeds: Vec<NodeId>,
        /// BT's candidate seed set.
        bt_seeds: Vec<NodeId>,
        /// `true` when BT won.
        chose_bt: bool,
    },
}

/// Result of a MAXR solve through the unified API.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Chosen seeds, in pick order, exactly `min(k, n)` of them.
    pub seeds: Vec<NodeId>,
    /// Number of samples in the collection influenced by `seeds`.
    pub influenced_samples: usize,
    /// The estimator `ĉ_R(seeds)`.
    pub estimate: f64,
    /// Marginal-gain evaluations the engine performed (work measure;
    /// depends on the strategy, unlike the seeds).
    pub evaluations: u64,
    /// Wall-clock duration of the solve (selection + evaluation).
    pub elapsed: Duration,
    /// Per-solver diagnostics.
    pub extras: SolverExtras,
}

/// A MAXR solver with the uniform `solve(samples, request)` entry point.
///
/// Implementations validate the request (`k = 0` is rejected, `k > n` is
/// clamped — note [`MaxrAlgorithm::solve`](crate::MaxrAlgorithm::solve)
/// additionally enforces the instance-level budget `k ≤ n` strictly),
/// select seeds through the shared engine, and fill in the report's
/// evaluation fields.
pub trait MaxrSolver {
    /// Short name used in reports and trace spans.
    fn name(&self) -> &'static str;

    /// Solves MAXR over `samples` under `req`.
    ///
    /// # Errors
    ///
    /// * [`ImcError::InvalidBudget`] for `req.k == 0`.
    /// * [`ImcError::InvalidParameter`] / [`ImcError::ThresholdTooLarge`]
    ///   for BT/MB depth violations.
    fn solve<C: RicSamples>(&self, samples: &C, req: &SolveRequest) -> Result<SolveReport>;
}

/// Rejects `k == 0`, clamps `k > n`.
fn validate_k<C: RicSamples>(samples: &C, k: usize) -> Result<usize> {
    if k == 0 {
        return Err(ImcError::InvalidBudget {
            k,
            node_count: samples.node_count(),
        });
    }
    Ok(k.min(samples.node_count()))
}

/// Shared report assembly: evaluates the chosen seeds once (under the
/// `maxr_evaluate` span) and stamps timing.
fn finish<C: RicSamples>(
    samples: &C,
    name: &'static str,
    seeds: Vec<NodeId>,
    evaluations: u64,
    started: Instant,
    extras: SolverExtras,
) -> SolveReport {
    let influenced = {
        let _eval_span = imc_obs::Span::enter_with("maxr_evaluate", name);
        samples.influenced_count(&seeds)
    };
    let estimate = samples.estimate(&seeds);
    SolveReport {
        seeds,
        influenced_samples: influenced,
        estimate,
        evaluations,
        elapsed: started.elapsed(),
        extras,
    }
}

/// Checks BT/MB's threshold bound against the samples at hand.
fn require_bounded_samples<C: RicSamples>(samples: &C, bound: u32) -> Result<()> {
    let max_threshold = (0..samples.len())
        .map(|si| samples.sample_threshold(si))
        .max()
        .unwrap_or(0);
    if max_threshold > bound {
        return Err(ImcError::ThresholdTooLarge {
            bound,
            max_threshold,
        });
    }
    Ok(())
}

/// Plain greedy on `ĉ_R` — no guarantee (non-submodular), strong in
/// practice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedySolver;

impl MaxrSolver for GreedySolver {
    fn name(&self) -> &'static str {
        "GREEDY"
    }

    fn solve<C: RicSamples>(&self, samples: &C, req: &SolveRequest) -> Result<SolveReport> {
        let started = Instant::now();
        let k = validate_k(samples, req.k)?;
        let run = engine::greedy_c_with(samples, k, req.strategy);
        Ok(finish(
            samples,
            self.name(),
            run.seeds,
            run.evaluations,
            started,
            SolverExtras::None,
        ))
    }
}

/// Upper Bound Greedy (Alg. 2): sandwich with the submodular `ν_R`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UbgSolver;

impl MaxrSolver for UbgSolver {
    fn name(&self) -> &'static str {
        "UBG"
    }

    fn solve<C: RicSamples>(&self, samples: &C, req: &SolveRequest) -> Result<SolveReport> {
        let started = Instant::now();
        let k = validate_k(samples, req.k)?;
        let (out, evaluations) = ubg::ubg_with(samples, k, req.strategy);
        Ok(finish(
            samples,
            self.name(),
            out.seeds,
            evaluations,
            started,
            SolverExtras::Ubg {
                s_nu: out.s_nu,
                s_c: out.s_c,
                chose_nu: out.chose_nu,
                sandwich_ratio: out.sandwich_ratio,
            },
        ))
    }
}

/// Most Appearance First (Alg. 3). Carries the community set the samples
/// were drawn from (for the `S1` community walk).
#[derive(Debug, Clone, Copy)]
pub struct MafSolver<'a> {
    communities: &'a CommunitySet,
}

impl<'a> MafSolver<'a> {
    /// A MAF solver over `communities`.
    pub fn new(communities: &'a CommunitySet) -> Self {
        MafSolver { communities }
    }
}

impl MaxrSolver for MafSolver<'_> {
    fn name(&self) -> &'static str {
        "MAF"
    }

    fn solve<C: RicSamples>(&self, samples: &C, req: &SolveRequest) -> Result<SolveReport> {
        let started = Instant::now();
        let k = validate_k(samples, req.k)?;
        let (out, evaluations) = maf::maf_with(self.communities, samples, k, req.seed);
        Ok(finish(
            samples,
            self.name(),
            out.seeds,
            evaluations,
            started,
            SolverExtras::Maf {
                s1: out.s1,
                s2: out.s2,
                chose_s1: out.chose_s1,
            },
        ))
    }
}

/// Bounded-threshold algorithm (Alg. 4) / recursive `BT^(d)` for
/// `req.depth > 2`. Requires every sample threshold ≤ `req.depth`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BtSolver {
    /// When set, only the `limit` most-appearing nodes are tried as pivots
    /// (paper-faithful behaviour is `None`: all nodes).
    pub candidate_limit: Option<usize>,
}

impl MaxrSolver for BtSolver {
    fn name(&self) -> &'static str {
        "BT"
    }

    fn solve<C: RicSamples>(&self, samples: &C, req: &SolveRequest) -> Result<SolveReport> {
        let started = Instant::now();
        if req.depth < 2 {
            return Err(ImcError::InvalidParameter { name: "bt depth" });
        }
        require_bounded_samples(samples, req.depth)?;
        let k = validate_k(samples, req.k)?;
        let (out, evaluations) =
            bt::bt_with(samples, k, req.depth, self.candidate_limit, req.strategy);
        Ok(finish(
            samples,
            self.name(),
            out.seeds,
            evaluations,
            started,
            SolverExtras::Bt {
                pivot: out.pivot,
                pivot_score: out.pivot_score,
            },
        ))
    }
}

/// MB = best of MAF and BT (Theorem 5); requires thresholds ≤ 2
/// regardless of `req.depth`.
#[derive(Debug, Clone, Copy)]
pub struct MbSolver<'a> {
    communities: &'a CommunitySet,
}

impl<'a> MbSolver<'a> {
    /// An MB solver over `communities`.
    pub fn new(communities: &'a CommunitySet) -> Self {
        MbSolver { communities }
    }
}

impl MaxrSolver for MbSolver<'_> {
    fn name(&self) -> &'static str {
        "MB"
    }

    fn solve<C: RicSamples>(&self, samples: &C, req: &SolveRequest) -> Result<SolveReport> {
        let started = Instant::now();
        require_bounded_samples(samples, 2)?;
        let k = validate_k(samples, req.k)?;
        let (out, evaluations) = mb::mb_with(self.communities, samples, k, req.seed, req.strategy);
        Ok(finish(
            samples,
            self.name(),
            out.seeds,
            evaluations,
            started,
            SolverExtras::Mb {
                maf_seeds: out.maf_seeds,
                bt_seeds: out.bt_seeds,
                chose_bt: out.chose_bt,
            },
        ))
    }
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

    fn fixture() -> (CommunitySet, RicStore) {
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
            threshold: 1,
            community_size: 1,
            nodes: vec![NodeId::new(2)],
            covers: vec![mk_cover(1, &[0])],
        })
        .unwrap();
        (cs, col)
    }

    #[test]
    fn every_solver_fills_the_report() {
        let (cs, col) = fixture();
        let req = SolveRequest::new(2).with_seed(7);
        let greedy = GreedySolver.solve(&col, &req).unwrap();
        assert_eq!(greedy.seeds.len(), 2);
        assert!(greedy.evaluations > 0);
        assert!(matches!(greedy.extras, SolverExtras::None));

        let ubg = UbgSolver.solve(&col, &req).unwrap();
        assert_eq!(ubg.seeds.len(), 2);
        assert!(matches!(ubg.extras, SolverExtras::Ubg { .. }));

        let maf = MafSolver::new(&cs).solve(&col, &req).unwrap();
        assert_eq!(maf.seeds.len(), 2);
        assert!(matches!(maf.extras, SolverExtras::Maf { .. }));

        let bt = BtSolver::default().solve(&col, &req).unwrap();
        assert_eq!(bt.seeds.len(), 2);
        assert!(matches!(bt.extras, SolverExtras::Bt { .. }));

        let mb = MbSolver::new(&cs).solve(&col, &req).unwrap();
        assert_eq!(mb.seeds.len(), 2);
        assert!(matches!(mb.extras, SolverExtras::Mb { .. }));
    }

    #[test]
    fn zero_budget_is_rejected_uniformly() {
        let (cs, col) = fixture();
        let req = SolveRequest::new(0);
        assert!(matches!(
            GreedySolver.solve(&col, &req),
            Err(ImcError::InvalidBudget { .. })
        ));
        assert!(matches!(
            UbgSolver.solve(&col, &req),
            Err(ImcError::InvalidBudget { .. })
        ));
        assert!(matches!(
            MafSolver::new(&cs).solve(&col, &req),
            Err(ImcError::InvalidBudget { .. })
        ));
        assert!(matches!(
            BtSolver::default().solve(&col, &req),
            Err(ImcError::InvalidBudget { .. })
        ));
        assert!(matches!(
            MbSolver::new(&cs).solve(&col, &req),
            Err(ImcError::InvalidBudget { .. })
        ));
    }

    #[test]
    fn bt_depth_validation_is_fallible() {
        let (_, col) = fixture();
        assert!(matches!(
            BtSolver::default().solve(&col, &SolveRequest::new(2).with_depth(1)),
            Err(ImcError::InvalidParameter { name: "bt depth" })
        ));
        // A threshold-3 sample under the default depth-2 bound.
        let mut col3 = RicStore::new(5, 1, 1.0);
        col3.push_sample(&RicSample {
            community: CommunityId::new(0),
            threshold: 3,
            community_size: 3,
            nodes: vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)],
            covers: vec![mk_cover(3, &[0]), mk_cover(3, &[1]), mk_cover(3, &[2])],
        })
        .unwrap();
        assert!(matches!(
            BtSolver::default().solve(&col3, &SolveRequest::new(2)),
            Err(ImcError::ThresholdTooLarge { .. })
        ));
        // Raising the bound to 3 makes it admissible.
        assert!(BtSolver::default()
            .solve(&col3, &SolveRequest::new(2).with_depth(3))
            .is_ok());
    }

    #[test]
    fn strategies_agree_through_the_trait() {
        let (cs, col) = fixture();
        let strategies = [
            SolveStrategy::Sequential,
            SolveStrategy::Lazy,
            SolveStrategy::Parallel { threads: 4 },
        ];
        let baseline: Vec<SolveReport> = strategies
            .iter()
            .map(|&s| {
                UbgSolver
                    .solve(&col, &SolveRequest::new(2).with_strategy(s))
                    .unwrap()
            })
            .collect();
        for w in baseline.windows(2) {
            assert_eq!(w[0].seeds, w[1].seeds);
            assert_eq!(w[0].influenced_samples, w[1].influenced_samples);
            assert_eq!(w[0].estimate, w[1].estimate);
            assert_eq!(w[0].extras, w[1].extras);
        }
        let _ = cs;
    }

    #[test]
    fn request_builders_compose() {
        let req = SolveRequest::new(5)
            .with_seed(9)
            .with_depth(3)
            .with_threads(4);
        assert_eq!(req.k, 5);
        assert_eq!(req.seed, 9);
        assert_eq!(req.depth, 3);
        assert_eq!(req.strategy, SolveStrategy::Parallel { threads: 4 });
        assert_eq!(
            SolveRequest::new(5).with_threads(1).strategy,
            SolveStrategy::Lazy
        );
    }
}
