//! The one MAXR solve path: the shared [`SolveRequest`] / [`SolveReport`]
//! pair, the [`SolveBackend`] contract the algorithm bodies are written
//! against, and the dispatch ([`MaxrAlgorithm::solve_over`]) that
//! validates a request, runs the matching body and seals the report.
//!
//! Each of Alg. 2–4 and MB exists once, as a function generic over
//! [`SolveBackend`] in [`ubg`], [`maf`], [`bt`] and [`mb`]. A backend
//! answers what those bodies need beyond the engine's gain batches: union
//! appearance statistics, whole-set scores, engine greedy runs over a
//! fresh gain session, and BT's per-pivot queries. [`LocalBackend`]
//! answers from an in-process [`RicSamples`] collection
//! ([`MaxrAlgorithm::solve`]); `imc-cluster`'s coordinator answers by
//! scatter-gathering shard daemons. Given bitwise-equal backend answers,
//! seeds, evaluation counts and extras are identical across the two by
//! construction.
//!
//! The solver structs and `*Outcome` types this replaced were removed in
//! 0.9.0 (old → new table in `docs/SOLVER_API.md`).

use crate::maxr::engine::{self, greedy_over, shard_map, GreedyRun, LocalSource};
use crate::maxr::telemetry::EngineTelemetry;
use crate::maxr::{bt, maf, mb, ubg, MaxrAlgorithm};
use crate::{CoverageState, ImcError, ImcInstance, RicSamples};
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
    /// When set, BT/BT^(d) try only the `limit` most-appearing nodes as
    /// pivots (paper-faithful behaviour is `None`: all nodes). Other
    /// solvers — including MB's BT half — ignore it.
    pub candidate_limit: Option<usize>,
    /// Worker threads for BT's pivot loop (`≤ 1`: none). Each greedy run
    /// is single-threaded; in-process UBG runs its two at once on two
    /// threads whatever this says (a cluster coordinator runs them one
    /// after the other: its client keeps one connection per shard). Every
    /// answer is the same for any count.
    pub threads: usize,
}

impl SolveRequest {
    /// A request with budget `k` and defaults everywhere else: seed 1,
    /// depth 2, every node a BT pivot, one thread.
    pub fn new(k: usize) -> Self {
        SolveRequest {
            k,
            seed: 1,
            depth: 2,
            candidate_limit: None,
            threads: 1,
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

    /// Caps BT's pivot candidates at the `limit` most-appearing nodes.
    pub fn with_candidate_limit(mut self, limit: usize) -> Self {
        self.candidate_limit = Some(limit);
        self
    }

    /// Replaces the worker-thread count (clamped to ≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
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

impl SolverExtras {
    /// UBG's sandwich ratio `ĉ_R(S_ν)/ν_R(S_ν)` (paper Fig. 8) — the
    /// data-dependent factor of Theorem 2's guarantee; `None` for every
    /// other solver.
    pub fn sandwich_ratio(&self) -> Option<f64> {
        match *self {
            SolverExtras::Ubg { sandwich_ratio, .. } => Some(sandwich_ratio),
            _ => None,
        }
    }
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
    /// Marginal gains the engine read (work measure: one per live
    /// candidate per greedy round).
    pub evaluations: u64,
    /// Wall-clock duration of the solve (selection + evaluation).
    pub elapsed: Duration,
    /// Per-solver diagnostics.
    pub extras: SolverExtras,
}

/// Which engine objective a greedy run maximizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// `ĉ_R` — the number of influenced samples.
    C,
    /// `ν_R` — the submodular upper bound.
    Nu,
}

/// Union statistics of a backend's whole collection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnionStats {
    /// `appearance[v]` = samples node `v` appears in; its length is the
    /// node count.
    pub appearance: Vec<usize>,
    /// `community_frequencies[c]` = samples community `c` sources.
    pub community_frequencies: Vec<usize>,
}

/// A seed set scored against a backend's whole collection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Score {
    /// Samples the seed set influences.
    pub influenced: usize,
    /// `Σ_g q(|I_g(S)|, h_g)` — the Q32 numerator of `ν_R(S)` (see
    /// [`nu_term`](crate::nu_term)).
    pub nu_acc: u64,
    /// Samples scored.
    pub samples: usize,
}

impl Objective {
    /// Stable label used in telemetry and metric labels.
    pub fn label(self) -> &'static str {
        match self {
            Objective::C => "c_hat",
            Objective::Nu => "nu",
        }
    }

    /// An engine gain as reported in
    /// [`IterationRecord::best_gain`](crate::maxr::IterationRecord::best_gain).
    pub(crate) fn gain_as_f64(self, gain: u64) -> f64 {
        match self {
            Objective::C => gain as f64,
            Objective::Nu => crate::nu_fraction(gain),
        }
    }
}

impl Score {
    /// Scores `seeds` (out-of-range ids skipped) against `samples` in one
    /// coverage pass. Every field is an integer, so the scores of the
    /// partitions of a collection [`add`](Self::add) up to the score of
    /// the whole, in any order.
    pub fn of<C: RicSamples>(samples: &C, seeds: &[NodeId]) -> Score {
        let mut state = CoverageState::new(samples);
        for &s in seeds {
            if s.index() < samples.node_count() {
                state.add_seed(s);
            }
        }
        Score {
            influenced: state.influenced_count(),
            nu_acc: state.nu_numerator(),
            samples: samples.len(),
        }
    }

    /// Adds the score of a disjoint partition.
    pub fn add(&mut self, part: Score) {
        self.influenced += part.influenced;
        self.nu_acc += part.nu_acc;
        self.samples += part.samples;
    }

    /// `ĉ_R(S)` (eq. 3); 0 over an empty collection.
    pub fn estimate(&self, total_benefit: f64) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        total_benefit * self.influenced as f64 / self.samples as f64
    }

    /// `ν_R(S)` (eq. 7); 0 over an empty collection.
    pub fn nu_estimate(&self, total_benefit: f64) -> f64 {
        crate::nu_value(total_benefit, self.nu_acc, self.samples)
    }
}

/// What the algorithm bodies need from a sample collection beyond the
/// engine's gain batches. Implemented by [`LocalBackend`] and by
/// `imc-cluster`'s coordinator; any implementation whose answers equal a
/// [`LocalBackend`]'s over the same samples yields the same seeds,
/// evaluation counts and extras, because all control flow lives in the
/// generic bodies.
pub trait SolveBackend {
    /// A failed backend query (a local backend never fails one).
    type Error;

    /// Appearance counts and community source frequencies.
    fn stats(&mut self) -> Result<UnionStats, Self::Error>;

    /// One engine greedy run over a fresh gain session on the whole
    /// collection.
    fn greedy(&mut self, objective: Objective, k: usize) -> Result<GreedyRun, Self::Error>;

    /// UBG's two greedy runs (Alg. 2 lines 1–5), `[ν, ĉ]`. The two share
    /// only the read-only collection, so a backend may run them at once;
    /// this default runs them one after the other through
    /// [`greedy`](Self::greedy).
    fn greedy_pair(&mut self, k: usize) -> Result<[GreedyRun; 2], Self::Error> {
        Ok([
            self.greedy(Objective::Nu, k)?,
            self.greedy(Objective::C, k)?,
        ])
    }

    /// Scores `seeds` against the whole collection.
    fn score(&mut self, seeds: &[NodeId]) -> Result<Score, Self::Error>;

    /// BT's `k` helpers for `pivot`: ĉ-greedy over a gain session on
    /// the pivot-reduced collection (Alg. 4 lines 2–8) or, when
    /// `depth > 2` leaves residual thresholds above 1, `BT^(depth−1)` on
    /// it. Also returns the telemetry of every engine run that chose
    /// them, unpublished: [`map_pivots`](Self::map_pivots) may call this
    /// on a worker thread, where no request's trace context is live, so
    /// BT publishes it from the calling thread.
    fn helpers(
        &mut self,
        pivot: NodeId,
        k: usize,
        depth: u32,
    ) -> Result<(GreedyRun, Vec<EngineTelemetry>), Self::Error>;

    /// `|D_R(K, u)|`: samples `pivot` touches that `kset` influences.
    fn pivot_score(&mut self, pivot: NodeId, kset: &[NodeId]) -> Result<usize, Self::Error>;

    /// Maps `f` over `pivots`, results in pivot order. `f` gets a backend
    /// over the same collection, so an implementation may fan the pivots
    /// out over `threads` workers.
    fn map_pivots<T, F>(
        &mut self,
        pivots: &[NodeId],
        threads: usize,
        f: F,
    ) -> Result<Vec<T>, Self::Error>
    where
        T: Send,
        F: Fn(&mut Self, NodeId) -> Result<T, Self::Error> + Sync;
}

/// [`SolveBackend`] over an in-process [`RicSamples`] collection.
#[derive(Debug)]
pub struct LocalBackend<'a, C: RicSamples>(pub &'a C);

impl<C: RicSamples> SolveBackend for LocalBackend<'_, C> {
    type Error = ImcError;

    fn stats(&mut self) -> crate::Result<UnionStats> {
        Ok(UnionStats {
            appearance: self.0.node_appearance_counts(),
            community_frequencies: self.0.community_frequencies(),
        })
    }

    fn greedy(&mut self, objective: Objective, k: usize) -> crate::Result<GreedyRun> {
        Ok(engine::greedy_published(self.0, objective, k))
    }

    /// The two runs on two scoped threads, each over its own
    /// [`CoverageState`]. Their telemetry is published here after the
    /// join, ν first: the request's trace context lives on this thread
    /// only.
    fn greedy_pair(&mut self, k: usize) -> crate::Result<[GreedyRun; 2]> {
        let samples = self.0;
        let greedy = |objective| greedy_over(&mut LocalSource::new(samples), objective, k);
        let runs = std::thread::scope(|scope| {
            let workers = [Objective::Nu, Objective::C].map(|o| scope.spawn(move || greedy(o)));
            workers.map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
        });
        Ok(runs.map(|(run, telemetry)| {
            telemetry.publish();
            run
        }))
    }

    fn score(&mut self, seeds: &[NodeId]) -> crate::Result<Score> {
        Ok(Score::of(self.0, seeds))
    }

    fn helpers(
        &mut self,
        pivot: NodeId,
        k: usize,
        depth: u32,
    ) -> crate::Result<(GreedyRun, Vec<EngineTelemetry>)> {
        let reduced = bt::reduce_for_pivot(self.0, pivot);
        if depth <= 2 || (0..reduced.len()).all(|si| reduced.sample_threshold(si) <= 1) {
            let (run, telemetry) = greedy_over(&mut LocalSource::new(&reduced), Objective::C, k);
            return Ok((run, vec![telemetry]));
        }
        let (sub, telemetry) =
            bt::bt_unpublished(&mut LocalBackend(&reduced), k, depth - 1, None, 1)?;
        let run = GreedyRun {
            seeds: sub.seeds,
            evaluations: sub.evaluations,
        };
        Ok((run, telemetry))
    }

    fn pivot_score(&mut self, pivot: NodeId, kset: &[NodeId]) -> crate::Result<usize> {
        Ok(bt::pivot_score(self.0, pivot, kset))
    }

    fn map_pivots<T, F>(&mut self, pivots: &[NodeId], threads: usize, f: F) -> crate::Result<Vec<T>>
    where
        T: Send,
        F: Fn(&mut Self, NodeId) -> crate::Result<T> + Sync,
    {
        let samples = self.0;
        shard_map(pivots.len(), threads, |i| {
            f(&mut LocalBackend(samples), pivots[i])
        })
        .into_iter()
        .collect()
    }
}

/// What an algorithm body hands back to the dispatch.
pub(crate) struct Selection {
    pub(crate) seeds: Vec<NodeId>,
    pub(crate) evaluations: u64,
    pub(crate) extras: SolverExtras,
    /// The winner's whole-set score when the body's own arbitration
    /// already computed it (UBG, MB).
    pub(crate) score: Option<Score>,
}

/// Scores `seeds` under the `maxr_evaluate` span.
pub(crate) fn evaluate<B: SolveBackend>(
    backend: &mut B,
    name: &'static str,
    seeds: &[NodeId],
) -> Result<Score, B::Error> {
    let _eval_span = imc_obs::Span::enter_with("maxr_evaluate", name);
    backend.score(seeds)
}

fn require_bounded(max_threshold: u32, bound: u32) -> crate::Result<()> {
    if max_threshold > bound {
        return Err(ImcError::ThresholdTooLarge {
            bound,
            max_threshold,
        });
    }
    Ok(())
}

impl MaxrAlgorithm {
    /// The threshold bound `d` BT runs at under `req`: the variant's own
    /// for [`Btd`](Self::Btd), else `req.depth` (which only
    /// [`Bt`](Self::Bt) reads).
    pub fn bt_depth(&self, req: &SolveRequest) -> u32 {
        match *self {
            MaxrAlgorithm::Btd(d) => d,
            _ => req.depth,
        }
    }

    /// Everything [`solve`](Self::solve) refuses before looking at a
    /// sample: the budget, BT's depth, and the threshold bound of
    /// BT/BT^(d)/MB. IMCAF asks before it draws anything.
    ///
    /// # Errors
    ///
    /// The validation failures listed on [`solve`](Self::solve).
    pub fn validate(&self, instance: &ImcInstance, req: &SolveRequest) -> crate::Result<()> {
        instance.validate_budget(req.k)?;
        match *self {
            MaxrAlgorithm::Greedy | MaxrAlgorithm::Ubg | MaxrAlgorithm::Maf => Ok(()),
            MaxrAlgorithm::Bt | MaxrAlgorithm::Btd(_) => {
                let depth = self.bt_depth(req);
                if depth < 2 {
                    return Err(ImcError::InvalidParameter { name: "bt depth" });
                }
                require_bounded(instance.max_threshold(), depth)
            }
            MaxrAlgorithm::Mb => require_bounded(instance.max_threshold(), 2),
        }
    }

    /// Runs this solver over an arbitrary [`SolveBackend`] — the body
    /// shared by [`solve`](Self::solve) and the cluster coordinator.
    /// Returns the report plus the winning seed set's [`Score`] (whose
    /// `samples` a coordinator reports).
    ///
    /// # Errors
    ///
    /// The validation failures listed on [`solve`](Self::solve), converted
    /// into the backend's error type, and any failed backend query.
    pub fn solve_over<B: SolveBackend>(
        &self,
        instance: &ImcInstance,
        backend: &mut B,
        req: &SolveRequest,
    ) -> Result<(SolveReport, Score), B::Error>
    where
        B::Error: From<ImcError>,
    {
        let started = Instant::now();
        self.validate(instance, req)?;
        let communities = instance.communities();
        let b = instance.total_benefit();
        let picked = match *self {
            MaxrAlgorithm::Greedy => {
                let run = backend.greedy(Objective::C, req.k)?;
                Selection {
                    seeds: run.seeds,
                    evaluations: run.evaluations,
                    extras: SolverExtras::None,
                    score: None,
                }
            }
            MaxrAlgorithm::Ubg => ubg::ubg_over(backend, b, req.k)?,
            MaxrAlgorithm::Maf => maf::maf_over(backend, communities, req.k, req.seed)?,
            MaxrAlgorithm::Bt | MaxrAlgorithm::Btd(_) => bt::bt_over(
                backend,
                req.k,
                self.bt_depth(req),
                req.candidate_limit,
                req.threads,
            )?,
            MaxrAlgorithm::Mb => mb::mb_over(backend, communities, req.k, req.seed, req.threads)?,
        };
        let score = match picked.score {
            Some(score) => score,
            None => evaluate(backend, self.name(), &picked.seeds)?,
        };
        let report = SolveReport {
            seeds: picked.seeds,
            influenced_samples: score.influenced,
            estimate: score.estimate(b),
            evaluations: picked.evaluations,
            elapsed: started.elapsed(),
            extras: picked.extras,
        };
        Ok((report, score))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxr::testutil::{instance, sample};
    use crate::RicStore;

    const ALL: [MaxrAlgorithm; 6] = [
        MaxrAlgorithm::Greedy,
        MaxrAlgorithm::Ubg,
        MaxrAlgorithm::Maf,
        MaxrAlgorithm::Bt,
        MaxrAlgorithm::Btd(2),
        MaxrAlgorithm::Mb,
    ];

    fn fixture() -> (ImcInstance, RicStore) {
        let pair = sample(0, 2, 2, &[(0, &[0]), (1, &[1])]);
        let samples = [
            pair.clone(),
            pair.clone(),
            pair,
            sample(1, 1, 1, &[(2, &[0])]),
        ];
        (
            instance(6, &[(&[0, 1], 2, 2.0), (&[2, 3], 1, 2.0)]),
            RicStore::from_samples(6, 2, 4.0, &samples).unwrap(),
        )
    }

    #[test]
    fn every_solver_fills_the_report() {
        let (inst, col) = fixture();
        let req = SolveRequest::new(2).with_seed(7);
        for algo in ALL {
            let report = algo.solve(&inst, &col, &req).unwrap();
            assert_eq!(report.seeds.len(), 2, "{algo:?}");
            assert!(report.evaluations > 0, "{algo:?}");
            assert_eq!(
                report.influenced_samples,
                col.influenced_count(&report.seeds)
            );
            assert_eq!(report.estimate, col.estimate(&report.seeds), "{algo:?}");
            let extras_match = match algo {
                MaxrAlgorithm::Greedy => matches!(report.extras, SolverExtras::None),
                MaxrAlgorithm::Ubg => matches!(report.extras, SolverExtras::Ubg { .. }),
                MaxrAlgorithm::Maf => matches!(report.extras, SolverExtras::Maf { .. }),
                MaxrAlgorithm::Bt | MaxrAlgorithm::Btd(_) => {
                    matches!(report.extras, SolverExtras::Bt { .. })
                }
                MaxrAlgorithm::Mb => matches!(report.extras, SolverExtras::Mb { .. }),
            };
            assert!(extras_match, "{algo:?}: {:?}", report.extras);
        }
    }

    #[test]
    fn out_of_range_budgets_are_rejected_uniformly() {
        let (inst, col) = fixture();
        for algo in ALL {
            for k in [0, 7] {
                assert!(
                    matches!(
                        algo.solve(&inst, &col, &SolveRequest::new(k)),
                        Err(ImcError::InvalidBudget { .. })
                    ),
                    "{algo:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn budget_beyond_the_collection_is_clamped() {
        // A collection over fewer nodes than the instance (the bodies clamp
        // to what the backend reports, the dispatch to the instance).
        let (inst, _) = fixture();
        let col = RicStore::new(4, 2, 4.0);
        for algo in ALL {
            let report = algo.solve(&inst, &col, &SolveRequest::new(6)).unwrap();
            assert_eq!(report.seeds.len(), 4, "{algo:?}");
        }
    }

    #[test]
    fn bt_depth_validation_is_fallible() {
        let (inst, col) = fixture();
        for algo in [MaxrAlgorithm::Bt, MaxrAlgorithm::Btd(1)] {
            assert!(matches!(
                algo.solve(&inst, &col, &SolveRequest::new(2).with_depth(1)),
                Err(ImcError::InvalidParameter { name: "bt depth" })
            ));
        }
        // A threshold-3 instance under the default depth-2 bound.
        let inst3 = instance(5, &[(&[1, 2, 3], 3, 1.0)]);
        let samples = [sample(0, 3, 3, &[(1, &[0]), (2, &[1]), (3, &[2])])];
        let col3 = RicStore::from_samples(5, 1, 1.0, &samples).unwrap();
        for algo in [MaxrAlgorithm::Bt, MaxrAlgorithm::Mb] {
            assert!(matches!(
                algo.solve(&inst3, &col3, &SolveRequest::new(2)),
                Err(ImcError::ThresholdTooLarge {
                    bound: 2,
                    max_threshold: 3
                })
            ));
        }
        // Raising the bound to 3 makes it admissible.
        assert!(MaxrAlgorithm::Bt
            .solve(&inst3, &col3, &SolveRequest::new(2).with_depth(3))
            .is_ok());
    }

    #[test]
    fn request_builders_compose() {
        let req = SolveRequest::new(5)
            .with_seed(9)
            .with_depth(3)
            .with_candidate_limit(7)
            .with_threads(4);
        assert_eq!(req.k, 5);
        assert_eq!(req.seed, 9);
        assert_eq!(req.depth, 3);
        assert_eq!(req.candidate_limit, Some(7));
        assert_eq!(req.threads, 4);
        assert_eq!(SolveRequest::new(5).with_threads(0).threads, 1);
        assert_eq!(SolveRequest::new(5).candidate_limit, None);
    }
}
