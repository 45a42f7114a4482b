//! The IMC Algorithmic Framework — Algorithm 5.
//!
//! IMCAF wraps any `α`-approximate MAXR solver in a stop-and-stare loop:
//!
//! 1. compute the worst-case sample bound `Ψ` (eq. 22) and the check-point
//!    threshold `Λ`;
//! 2. generate `Λ` RIC samples, solve MAXR, and — once the candidate
//!    influences at least `Λ` samples — grade it with the Dagum
//!    [`estimate_c`](crate::estimate::estimate_c) procedure;
//! 3. accept when the collection estimate `ĉ_R(S)` is within `(1 + ε₁)` of
//!    the independent estimate `c*`, otherwise double the collection, up to
//!    `Ψ`.
//!
//! Theorem 7: the returned set is `α(1 − ε)`-approximate with probability
//! at least `1 − δ`.
//!
//! Every draw of a run comes from one seeded plan: doubling stage `g` of
//! the collection is the 16-shard plan seeded
//! [`growth_seed(seed, g)`](crate::growth_seed), and the `Estimate` call
//! made at stage `g` walks the block stream seeded
//! [`estimate_stream_seed(seed, g)`](crate::estimate::estimate_stream_seed).
//! Both are drawn on every core and neither depends on how many there
//! are, so a result is a function of `(instance, algorithm, config,
//! seed)` alone.
//!
//! A stage is *solved and stared at* only if it can end the run: if
//! `Estimate`'s budget `t_max = |R|·(1+ε₂)/(1−ε₂)` is below `⌈Λ′⌉` (and
//! `|R|` is below `Ψ`), Alg. 6 cannot return, the doubling must follow
//! whatever the solver says, and the solve would be thrown away — so the
//! collection just grows to the next stage. The stopping stage has the
//! same `R`, the same solve and the same `S` as a loop that solves every
//! stage (docs/ALGORITHMS.md, *Dead rounds*).
//!
//! Normalization note: the paper sometimes writes `r` where the
//! general-benefit quantity is `b` (its experiments use `b_i = |C_i|`, its
//! formulas unit benefits). We implement the general version: the stop
//! condition `(|R|/b)·ĉ_R(S) ≥ Λ` is exactly "at least `Λ` influenced
//! samples", and `Estimate` returns `b·Λ′/T`; with `b_i = 1` both reduce to
//! the paper's text verbatim.

use crate::bounds::{lambda, psi, BoundParams};
use crate::estimate::{estimate_c, estimate_stream_seed};
use crate::store::{default_workers, growth_seed, sampling_shard_plan, DEFAULT_SAMPLING_SHARDS};
use crate::{ImcError, ImcInstance, MaxrAlgorithm, Result, RicStore, SolveRequest, SolveStrategy};
use imc_diffusion::dagum::stopping_threshold;
use imc_graph::NodeId;
use imc_obs::families;
use std::time::Instant;

/// Parameters of the IMCAF framework.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImcafConfig {
    /// Seed budget `k`.
    pub k: usize,
    /// Accuracy target `ε ∈ (0, 1)`.
    pub epsilon: f64,
    /// Failure probability `δ ∈ (0, 1)`.
    pub delta: f64,
    /// Hard cap on `|R|` (memory guard; `Ψ` can be astronomically large
    /// for small `α`). The theoretical guarantee holds only when the run
    /// ends by convergence or by reaching `Ψ` itself.
    pub max_samples: usize,
    /// Carries the worker-thread count the inner MAXR solves run BT's
    /// pivots on (see [`SolveStrategy`]); every answer is the same for any
    /// value. UBG's two greedies run on two threads whatever it carries.
    pub strategy: SolveStrategy,
}

impl ImcafConfig {
    /// The paper's experimental setting: `ε = δ = 0.2`.
    pub fn paper_defaults(k: usize) -> Self {
        ImcafConfig {
            k,
            epsilon: 0.2,
            delta: 0.2,
            max_samples: 1 << 20,
            strategy: SolveStrategy::Lazy,
        }
    }
}

/// Why IMCAF stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The stop-stage statistical check accepted the candidate.
    Converged,
    /// The collection reached the theoretical bound `Ψ` (guarantee holds).
    SampleBoundReached,
    /// The configured `max_samples` cap was hit before `Ψ` (best-effort
    /// result; guarantee not certified).
    CapReached,
}

impl StopReason {
    /// Stable label value used by the `imc_imcaf_runs_total{stop_reason}`
    /// metric and the `imcaf_done` trace event.
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::SampleBoundReached => "sample_bound",
            StopReason::CapReached => "cap",
        }
    }
}

/// Output of [`imcaf`].
#[derive(Debug, Clone, PartialEq)]
pub struct ImcafResult {
    /// The chosen seed set (exactly `k` nodes).
    pub seeds: Vec<NodeId>,
    /// Final collection estimate `ĉ_R(seeds)`.
    pub estimate: f64,
    /// The independent Dagum estimate `c*` from the last accepted check
    /// (`None` when the run ended without one).
    pub independent_estimate: Option<f64>,
    /// RIC samples in the final collection.
    pub samples_used: usize,
    /// Stop-stage iterations executed (stages that were solved; stages
    /// grown past without a solve are not rounds).
    pub rounds: usize,
    /// Why the loop ended.
    pub stop_reason: StopReason,
}

/// One executed stop-stage iteration's bookkeeping, recorded by
/// [`imcaf_with_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// 1-based number of this executed round.
    pub round: usize,
    /// 0-based doubling stage the collection was at: `samples` is
    /// `⌈Λ⌉·2^stage`, capped at `Ψ`. Stages grown past without a solve
    /// leave gaps.
    pub stage: usize,
    /// `|R|` when the solver ran.
    pub samples: usize,
    /// Samples influenced by the candidate.
    pub influenced: usize,
    /// `ĉ_R` of the candidate.
    pub estimate: f64,
    /// Whether the Λ check-point fired (an Estimate call was made).
    pub checked: bool,
    /// The independent estimate `c*`, when an Estimate call succeeded.
    pub independent_estimate: Option<f64>,
}

/// Runs IMCAF (Alg. 5) with the given MAXR solver.
///
/// The sample collection grows inside an arena-backed
/// [`RicStore`](crate::RicStore) across doubling stages; results are
/// deterministic for a fixed `(instance, algorithm, config, seed)` on any
/// machine (sampling and `Estimate` use every core, the answer does not
/// depend on how many).
///
/// ```
/// use imc_community::CommunitySet;
/// use imc_core::{imcaf, ImcInstance, ImcafConfig, MaxrAlgorithm};
/// use imc_graph::{GraphBuilder, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 1.0)?;
/// b.add_edge(0, 2, 1.0)?;
/// let graph = b.build()?;
/// let communities = CommunitySet::from_parts(
///     3,
///     vec![(vec![NodeId::new(1), NodeId::new(2)], 2, 5.0)],
/// )?;
/// let instance = ImcInstance::new(graph, communities)?;
/// let result = imcaf(&instance, MaxrAlgorithm::Ubg, &ImcafConfig::paper_defaults(1), 7)?;
/// // Node 0 reaches both members with certainty: c({0}) = b = 5, and the
/// // independent Dagum estimate certifies it within (1 − ε).
/// assert_eq!(result.seeds, vec![NodeId::new(0)]);
/// assert!(result.estimate >= 4.0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`ImcError::InvalidParameter`] for `ε, δ ∉ (0, 1)`.
/// * [`ImcError::InvalidBudget`] for an invalid `k`.
/// * [`ImcError::ThresholdTooLarge`] when the solver's threshold bound is
///   violated (BT/MB).
pub fn imcaf(
    instance: &ImcInstance,
    algorithm: MaxrAlgorithm,
    config: &ImcafConfig,
    seed: u64,
) -> Result<ImcafResult> {
    imcaf_inner(
        instance,
        algorithm,
        config,
        seed,
        default_workers(),
        &mut |_| {},
    )
}

/// Like [`imcaf`] but also collects one [`RoundRecord`] per executed
/// round — used by the sample-size ablation and by tests asserting the
/// doubling schedule. The same per-round data always flows to the
/// observability layer (`imcaf_round` trace events, `imc_imcaf_*` metrics)
/// regardless of which entry point is used; this variant merely
/// materializes it.
///
/// # Errors
///
/// Same conditions as [`imcaf`].
pub fn imcaf_with_trace(
    instance: &ImcInstance,
    algorithm: MaxrAlgorithm,
    config: &ImcafConfig,
    seed: u64,
) -> Result<(ImcafResult, Vec<RoundRecord>)> {
    let mut trace: Vec<RoundRecord> = Vec::new();
    let result = imcaf_inner(
        instance,
        algorithm,
        config,
        seed,
        default_workers(),
        &mut |record| trace.push(record.clone()),
    )?;
    Ok((result, trace))
}

/// Wall time of one round's three phases, for the `imcaf_round` event.
struct RoundSeconds {
    /// The plan draw(s) since the previous executed round.
    sampling: f64,
    /// Stages that draw grew past without a solve.
    unsolved_stages: usize,
    /// The MAXR solve.
    solve: f64,
    /// The `Estimate` call, when the Λ check-point fired.
    estimate: Option<f64>,
}

/// Emits the per-round structured trace event and round metrics shared by
/// every IMCAF entry point. `check_lambda` / `psi_capped` are the run's
/// Λ and (capped) Ψ bounds, stamped into every round so a trace replay of
/// Alg. 5's convergence needs no cross-referencing with the one-off
/// `imcaf_bounds` event. `phases` says where the round's wall time went;
/// it is a trace field only, not part of [`RoundRecord`].
fn observe_round(
    record: &RoundRecord,
    check_lambda: f64,
    psi_capped: usize,
    phases: &RoundSeconds,
) {
    families::IMCAF_ROUNDS.handle().inc();
    if imc_obs::trace::enabled() {
        let mut event = imc_obs::trace::TraceEvent::new("imcaf_round")
            .field("round", record.round)
            .field("stage", record.stage)
            .field("unsolved_stages", phases.unsolved_stages)
            .field("samples", record.samples)
            .field("influenced", record.influenced)
            .field("estimate", record.estimate)
            .field("checked", record.checked)
            .field("lambda", check_lambda)
            .field("lambda_met", record.influenced as f64 >= check_lambda)
            .field("psi_capped", psi_capped)
            .field("psi_exhausted", record.samples >= psi_capped)
            .field("sampling_seconds", phases.sampling)
            .field("solve_seconds", phases.solve);
        if let Some(seconds) = phases.estimate {
            event = event.field("estimate_seconds", seconds);
        }
        if let Some(c_star) = record.independent_estimate {
            event = event.field("independent_estimate", c_star);
        }
        imc_obs::trace::emit(event);
    }
}

/// Emits the end-of-run metrics and `imcaf_done` trace event.
fn observe_done(result: &ImcafResult) {
    families::IMCAF_RUNS
        .child(result.stop_reason.as_str())
        .inc();
    if imc_obs::trace::enabled() {
        imc_obs::trace::emit(
            imc_obs::trace::TraceEvent::new("imcaf_done")
                .field("stop_reason", result.stop_reason.as_str())
                .field("rounds", result.rounds)
                .field("samples_used", result.samples_used)
                .field("estimate", result.estimate),
        );
    }
}

/// The bounds of one run and its doubling schedule, and which of the
/// schedule's stages can end the run.
struct Schedule {
    /// The solver's ratio `α`, which sizes `Ψ`.
    alpha: f64,
    /// The worst-case sample bound `Ψ` (eq. 22).
    psi_bound: f64,
    /// `min(Ψ, max_samples)`.
    psi_capped: usize,
    /// The check-point threshold `Λ`; stage 0 holds `⌈Λ⌉` samples.
    check_lambda: f64,
    /// The stop stage's `ε₁ = ε₂ = ε₃ = ε/4`.
    es: f64,
    /// `δ′ = δ / (3·log₂(Ψ/Λ))` of every `Estimate` call (Alg. 5 line 9).
    delta_est: f64,
}

impl Schedule {
    fn new(instance: &ImcInstance, algorithm: MaxrAlgorithm, config: &ImcafConfig) -> Self {
        let k = config.k;
        let alpha =
            algorithm.approximation_ratio(instance.community_count(), instance.max_threshold(), k);
        // Ψ splits (paper §VI.A): ε₁ = ε₂ = ε/2, δ₁ = δ₂ = δ/2.
        let params = BoundParams {
            total_benefit: instance.total_benefit(),
            min_benefit: instance.min_benefit(),
            max_threshold: instance.max_threshold(),
            node_count: instance.node_count(),
            k,
        };
        let e2 = config.epsilon / 2.0;
        let d2 = config.delta / 2.0;
        Schedule::under(alpha, psi(&params, e2, e2, d2, d2, alpha), config)
    }

    /// The schedule of a run whose worst-case bound is `psi_bound`.
    fn under(alpha: f64, psi_bound: f64, config: &ImcafConfig) -> Self {
        let psi_capped = psi_bound.min(config.max_samples as f64).max(1.0) as usize;
        // Stop-stage splits (paper §VI.A): ε₁ = ε₂ = ε₃ = ε/4.
        let es = config.epsilon / 4.0;
        let check_lambda = lambda(es, es, es, config.delta);
        let log_rounds = (psi_capped as f64 / check_lambda).log2().max(1.0);
        Schedule {
            alpha,
            psi_bound,
            psi_capped,
            check_lambda,
            es,
            delta_est: (config.delta / (3.0 * log_rounds)).clamp(1e-9, 0.999),
        }
    }

    /// `|R|` at stage 0: `⌈Λ⌉`, capped.
    fn initial(&self) -> usize {
        (self.check_lambda.ceil() as usize)
            .min(self.psi_capped)
            .max(1)
    }

    /// `|R|` of the stage after one of `samples`: doubled, capped at `Ψ`.
    fn next(&self, samples: usize) -> usize {
        samples.saturating_mul(2).min(self.psi_capped)
    }

    /// `Estimate`'s draw budget on a collection of `samples`.
    fn t_max(&self, samples: usize) -> u64 {
        (samples as f64 * (1.0 + self.es) / (1.0 - self.es)).ceil() as u64
    }

    /// Whether a stage of `samples` can end the run — by an `Estimate`
    /// able to return (`t_max ≥ ⌈Λ′⌉`), or by exhausting `Ψ`.
    fn can_end(&self, samples: usize) -> bool {
        let need = stopping_threshold(self.es, self.delta_est).ceil() as u64;
        self.t_max(samples) >= need || samples >= self.psi_capped
    }

    /// Why a run that reached `Ψ_capped` unconverged stopped.
    fn exhausted_reason(&self) -> StopReason {
        if (self.psi_capped as f64) < self.psi_bound {
            StopReason::CapReached
        } else {
            StopReason::SampleBoundReached
        }
    }
}

/// The plan stage `stage` draws to grow the collection by `count`.
fn stage_plan(seed: u64, stage: usize, count: usize) -> Vec<(u64, usize)> {
    sampling_shard_plan(
        count,
        growth_seed(seed, stage as u64),
        DEFAULT_SAMPLING_SHARDS,
    )
}

/// The MAXR request of the solve at `stage`.
fn stage_request(config: &ImcafConfig, seed: u64, stage: usize) -> SolveRequest {
    SolveRequest::new(config.k)
        .with_seed(seed ^ (stage as u64 + 1))
        .with_threads(config.strategy.threads())
}

fn imcaf_inner(
    instance: &ImcInstance,
    algorithm: MaxrAlgorithm,
    config: &ImcafConfig,
    seed: u64,
    workers: usize,
    observe: &mut dyn FnMut(&RoundRecord),
) -> Result<ImcafResult> {
    if !(config.epsilon > 0.0 && config.epsilon < 1.0) {
        return Err(ImcError::InvalidParameter { name: "epsilon" });
    }
    if !(config.delta > 0.0 && config.delta < 1.0) {
        return Err(ImcError::InvalidParameter { name: "delta" });
    }
    // Everything the solver would refuse, before a sample is drawn.
    algorithm.validate(instance, &stage_request(config, seed, 0))?;

    let schedule = Schedule::new(instance, algorithm, config);
    let (check_lambda, psi_capped, es) = (schedule.check_lambda, schedule.psi_capped, schedule.es);
    if imc_obs::trace::enabled() {
        imc_obs::trace::emit(
            imc_obs::trace::TraceEvent::new("imcaf_bounds")
                .field("algo", algorithm.name())
                .field("k", config.k)
                .field("alpha", schedule.alpha)
                .field("psi", schedule.psi_bound)
                .field("psi_capped", psi_capped)
                .field("lambda", check_lambda),
        );
    }

    let sampler = instance.sampler();
    let mut collection = RicStore::for_sampler(&sampler);
    let (mut stage, mut target) = (0usize, schedule.initial());
    let mut rounds = 0usize;
    loop {
        // Grow to the next stage that can end the run (line 11), every
        // stage from its own seeded plan, all of them in one draw.
        let started = Instant::now();
        let mut plan = Vec::new();
        let (mut planned, mut unsolved_stages) = (collection.len(), 0);
        loop {
            plan.extend(stage_plan(seed, stage, target - planned));
            planned = target;
            if schedule.can_end(target) {
                break;
            }
            unsolved_stages += 1;
            stage += 1;
            target = schedule.next(target);
        }
        collection.extend_from_plan(&sampler, &plan, workers);
        let sampling = started.elapsed().as_secs_f64();

        rounds += 1;
        let started = Instant::now();
        let solution =
            algorithm.solve(instance, &collection, &stage_request(config, seed, stage))?;
        let mut phases = RoundSeconds {
            sampling,
            unsolved_stages,
            solve: started.elapsed().as_secs_f64(),
            estimate: None,
        };
        let mut record = RoundRecord {
            round: rounds,
            stage,
            samples: collection.len(),
            influenced: solution.influenced_samples,
            estimate: solution.estimate,
            checked: false,
            independent_estimate: None,
        };

        // Stop condition (line 8): at least Λ influenced samples.
        if solution.influenced_samples as f64 >= check_lambda {
            record.checked = true;
            let started = Instant::now();
            let graded = estimate_c(
                &sampler,
                &solution.seeds,
                es,
                schedule.delta_est,
                schedule.t_max(collection.len()),
                estimate_stream_seed(seed, stage as u64),
                workers,
            );
            phases.estimate = Some(started.elapsed().as_secs_f64());
            if let Some(out) = graded {
                record.independent_estimate = Some(out.estimate);
                if solution.estimate <= (1.0 + es) * out.estimate {
                    observe_round(&record, check_lambda, psi_capped, &phases);
                    observe(&record);
                    let result = ImcafResult {
                        seeds: solution.seeds,
                        estimate: solution.estimate,
                        independent_estimate: Some(out.estimate),
                        samples_used: collection.len(),
                        rounds,
                        stop_reason: StopReason::Converged,
                    };
                    observe_done(&result);
                    return Ok(result);
                }
            }
        }
        observe_round(&record, check_lambda, psi_capped, &phases);
        observe(&record);

        if collection.len() >= psi_capped {
            let result = ImcafResult {
                seeds: solution.seeds,
                estimate: solution.estimate,
                independent_estimate: None,
                samples_used: collection.len(),
                rounds,
                stop_reason: schedule.exhausted_reason(),
            };
            observe_done(&result);
            return Ok(result);
        }
        stage += 1;
        target = schedule.next(target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_community::{BenefitPolicy, CommunitySet, ThresholdPolicy};
    use imc_graph::generators::planted_partition;
    use imc_graph::{GraphBuilder, WeightModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_instance() -> ImcInstance {
        let mut rng = StdRng::seed_from_u64(4);
        let pp = planted_partition(60, 4, 0.4, 0.02, &mut rng);
        let graph = pp.graph.reweighted(WeightModel::WeightedCascade);
        let cs = CommunitySet::builder(&graph)
            .explicit(pp.blocks)
            .split_larger_than(8)
            .threshold(ThresholdPolicy::Constant(2))
            .benefit(BenefitPolicy::Population)
            .build()
            .unwrap();
        ImcInstance::new(graph, cs).unwrap()
    }

    #[test]
    fn returns_k_distinct_seeds() {
        let inst = small_instance();
        let cfg = ImcafConfig {
            max_samples: 20_000,
            ..ImcafConfig::paper_defaults(4)
        };
        let res = imcaf(&inst, MaxrAlgorithm::Ubg, &cfg, 1).unwrap();
        assert_eq!(res.seeds.len(), 4);
        let uniq: std::collections::HashSet<_> = res.seeds.iter().collect();
        assert_eq!(uniq.len(), 4);
        assert!(res.samples_used > 0);
        assert!(res.rounds >= 1);
    }

    #[test]
    fn all_algorithms_run_on_bounded_instance() {
        let inst = small_instance();
        let cfg = ImcafConfig {
            max_samples: 5_000,
            ..ImcafConfig::paper_defaults(4)
        };
        for algo in [
            MaxrAlgorithm::Greedy,
            MaxrAlgorithm::Ubg,
            MaxrAlgorithm::Maf,
            MaxrAlgorithm::Bt,
            MaxrAlgorithm::Mb,
        ] {
            let res = imcaf(&inst, algo, &cfg, 2).unwrap();
            assert_eq!(res.seeds.len(), 4, "{algo:?}");
            assert!(res.estimate >= 0.0);
        }
    }

    #[test]
    fn estimate_close_to_monte_carlo_ground_truth() {
        let inst = small_instance();
        let cfg = ImcafConfig {
            max_samples: 40_000,
            ..ImcafConfig::paper_defaults(4)
        };
        let res = imcaf(&inst, MaxrAlgorithm::Ubg, &cfg, 7).unwrap();
        let mc = imc_diffusion::benefit::monte_carlo_benefit(
            inst.graph(),
            inst.communities(),
            &imc_diffusion::IndependentCascade,
            &res.seeds,
            20_000,
            99,
        );
        // ĉ_R and the forward MC must agree within the ε = 0.2 regime.
        let rel = (res.estimate - mc).abs() / mc.max(1e-9);
        assert!(rel < 0.3, "ĉ_R={} mc={mc} rel={rel}", res.estimate);
    }

    #[test]
    fn bt_on_unbounded_thresholds_errors() {
        let mut b = GraphBuilder::new(8);
        b.add_edge(0, 1, 0.5).unwrap();
        let graph = b.build().unwrap();
        let cs = CommunitySet::from_parts(
            8,
            vec![((1..6).map(imc_graph::NodeId::new).collect(), 4, 5.0)],
        )
        .unwrap();
        let inst = ImcInstance::new(graph, cs).unwrap();
        let cfg = ImcafConfig::paper_defaults(2);
        assert!(matches!(
            imcaf(&inst, MaxrAlgorithm::Bt, &cfg, 0),
            Err(ImcError::ThresholdTooLarge { .. })
        ));
    }

    #[test]
    fn invalid_parameters_rejected() {
        let inst = small_instance();
        let mut cfg = ImcafConfig::paper_defaults(2);
        cfg.epsilon = 0.0;
        assert!(imcaf(&inst, MaxrAlgorithm::Maf, &cfg, 0).is_err());
        let mut cfg = ImcafConfig::paper_defaults(2);
        cfg.delta = 1.0;
        assert!(imcaf(&inst, MaxrAlgorithm::Maf, &cfg, 0).is_err());
        let cfg = ImcafConfig::paper_defaults(0);
        assert!(imcaf(&inst, MaxrAlgorithm::Maf, &cfg, 0).is_err());
    }

    #[test]
    fn tiny_cap_reports_cap_reached() {
        let inst = small_instance();
        let cfg = ImcafConfig {
            max_samples: 8,
            ..ImcafConfig::paper_defaults(2)
        };
        let res = imcaf(&inst, MaxrAlgorithm::Maf, &cfg, 3).unwrap();
        assert!(res.samples_used <= 8);
        // With 8 samples the Λ check can never pass (Λ ≈ 194 for ε=0.2).
        assert_eq!(res.stop_reason, StopReason::CapReached);
    }

    #[test]
    fn deterministic_under_seed() {
        let inst = small_instance();
        let cfg = ImcafConfig {
            max_samples: 4_000,
            ..ImcafConfig::paper_defaults(3)
        };
        let a = imcaf(&inst, MaxrAlgorithm::Ubg, &cfg, 5).unwrap();
        let b = imcaf(&inst, MaxrAlgorithm::Ubg, &cfg, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn trace_records_doubling_schedule() {
        let inst = small_instance();
        let cfg = ImcafConfig {
            max_samples: 8_000,
            ..ImcafConfig::paper_defaults(3)
        };
        let (result, trace) = super::imcaf_with_trace(&inst, MaxrAlgorithm::Maf, &cfg, 9).unwrap();
        // One record per executed round, numbered from 1.
        assert_eq!(trace.len(), result.rounds);
        for (i, record) in trace.iter().enumerate() {
            assert_eq!(record.round, i + 1);
        }
        // Every executed round sits on the doubling schedule ⌈Λ⌉·2^stage
        // (capped), at a later stage than the one before; stage 0 can
        // never end a run at ε = δ = 0.2 and is grown past.
        let schedule = Schedule::new(&inst, MaxrAlgorithm::Maf, &cfg);
        assert_eq!(trace[0].stage, 1);
        for record in &trace {
            let on_schedule = (schedule.initial() << record.stage).min(schedule.psi_capped);
            assert_eq!(record.samples, on_schedule, "stage {}", record.stage);
        }
        for w in trace.windows(2) {
            assert_eq!(w[1].stage, w[0].stage + 1);
        }
        // Final trace entry matches the result.
        assert_eq!(trace.last().unwrap().samples, result.samples_used);
    }

    /// One 100-member community (two cover limbs) beside 8-member ones.
    fn two_limb_instance() -> ImcInstance {
        let mut rng = StdRng::seed_from_u64(23);
        let pp = planted_partition(300, 3, 0.05, 0.005, &mut rng);
        let graph = pp.graph.reweighted(WeightModel::WeightedCascade);
        let mut parts = vec![(pp.blocks[0].clone(), 4, 12.0)];
        for block in &pp.blocks[1..] {
            parts.extend(block.chunks(8).map(|c| (c.to_vec(), 2, 1.0)));
        }
        ImcInstance::new(graph, CommunitySet::from_parts(300, parts).unwrap()).unwrap()
    }

    #[test]
    fn results_do_not_depend_on_the_worker_count() {
        for (name, inst, algo) in [
            ("small", small_instance(), MaxrAlgorithm::Ubg),
            ("small", small_instance(), MaxrAlgorithm::Maf),
            ("2-limb", two_limb_instance(), MaxrAlgorithm::Ubg),
        ] {
            let cfg = ImcafConfig {
                max_samples: 30_000,
                ..ImcafConfig::paper_defaults(4)
            };
            let run = |workers: usize| {
                let mut trace = Vec::new();
                let result = imcaf_inner(&inst, algo, &cfg, 11, workers, &mut |r| {
                    trace.push(r.clone())
                })
                .unwrap();
                (result, trace)
            };
            let reference = run(1);
            assert!(
                reference.0.independent_estimate.is_some(),
                "{name}: the run should reach an Estimate that returns"
            );
            for workers in [2, 8] {
                assert_eq!(
                    run(workers),
                    reference,
                    "{name} {algo:?}: {workers} workers"
                );
            }
            // The public entry points are the same run on this machine's
            // worker count.
            assert_eq!(imcaf(&inst, algo, &cfg, 11).unwrap(), reference.0);
            assert_eq!(imcaf_with_trace(&inst, algo, &cfg, 11).unwrap(), reference);
        }
    }

    /// Alg. 5 as the paper writes it, over the same plan: *every* stage is
    /// solved and, past the Λ check-point, stared at — including the
    /// stages whose `Estimate` budget is too small for Alg. 6 to return.
    fn solve_every_stage(
        instance: &ImcInstance,
        algorithm: MaxrAlgorithm,
        config: &ImcafConfig,
        seed: u64,
    ) -> ImcafResult {
        let schedule = Schedule::new(instance, algorithm, config);
        let sampler = instance.sampler();
        let mut collection = RicStore::for_sampler(&sampler);
        let (mut stage, mut target) = (0usize, schedule.initial());
        loop {
            let plan = stage_plan(seed, stage, target - collection.len());
            collection.extend_from_plan(&sampler, &plan, 1);
            let solution = algorithm
                .solve(instance, &collection, &stage_request(config, seed, stage))
                .unwrap();
            let result = |independent_estimate, stop_reason| ImcafResult {
                seeds: solution.seeds.clone(),
                estimate: solution.estimate,
                independent_estimate,
                samples_used: collection.len(),
                rounds: stage + 1,
                stop_reason,
            };
            if solution.influenced_samples as f64 >= schedule.check_lambda {
                let graded = estimate_c(
                    &sampler,
                    &solution.seeds,
                    schedule.es,
                    schedule.delta_est,
                    schedule.t_max(collection.len()),
                    estimate_stream_seed(seed, stage as u64),
                    1,
                );
                if let Some(out) = graded {
                    if solution.estimate <= (1.0 + schedule.es) * out.estimate {
                        return result(Some(out.estimate), StopReason::Converged);
                    }
                }
            }
            if collection.len() >= schedule.psi_capped {
                return result(None, schedule.exhausted_reason());
            }
            stage += 1;
            target = schedule.next(target);
        }
    }

    #[test]
    fn growing_past_dead_stages_is_exact() {
        let inst = small_instance();
        for algo in [MaxrAlgorithm::Ubg, MaxrAlgorithm::Maf] {
            // No effective cap (the run converges), a cap between stages
            // that cuts the last doubling short, and caps inside the dead
            // stages.
            for max_samples in [1 << 20, 4_000, 1_500, 150] {
                let cfg = ImcafConfig {
                    max_samples,
                    ..ImcafConfig::paper_defaults(4)
                };
                for seed in [3, 4] {
                    let fast = imcaf(&inst, algo, &cfg, seed).unwrap();
                    let every = solve_every_stage(&inst, algo, &cfg, seed);
                    assert!(fast.rounds <= every.rounds);
                    assert_eq!(
                        ImcafResult {
                            rounds: every.rounds,
                            ..fast
                        },
                        every,
                        "{algo:?} max_samples={max_samples} seed={seed}"
                    );
                }
            }
        }
        // The uncapped runs above did skip something: every stage before
        // the first executed one.
        let cfg = ImcafConfig::paper_defaults(4);
        let (fast, trace) = imcaf_with_trace(&inst, MaxrAlgorithm::Ubg, &cfg, 3).unwrap();
        let every = solve_every_stage(&inst, MaxrAlgorithm::Ubg, &cfg, 3);
        assert_eq!(fast.stop_reason, StopReason::Converged);
        assert!(trace[0].stage >= 1);
        assert_eq!(every.rounds, fast.rounds + trace[0].stage);
    }

    /// Fresh samples independent of `R` is what Alg. 6 and Theorem 7
    /// assume: within one run no growth shard and no `Estimate` block may
    /// share an RNG seed with any other.
    #[test]
    fn no_seed_of_a_run_is_used_twice() {
        let cfg = ImcafConfig::paper_defaults(4);
        assert_eq!(cfg.max_samples, 1 << 20);
        // Ψ beyond the cap: the run can use every stage up to 2²⁰ samples.
        let schedule = Schedule::under(0.5, f64::INFINITY, &cfg);
        assert_eq!(schedule.psi_capped, 1 << 20);
        for seed in [0, 7, u64::MAX - 3, 1 << 63] {
            let mut seen = std::collections::HashSet::new();
            let (mut stage, mut samples, mut drawn) = (0usize, schedule.initial(), 0usize);
            loop {
                for (shard_seed, _) in stage_plan(seed, stage, samples - drawn) {
                    assert!(
                        seen.insert(shard_seed),
                        "growth seed reused at stage {stage}"
                    );
                }
                let stream = estimate_stream_seed(seed, stage as u64);
                let blocks = schedule
                    .t_max(samples)
                    .div_ceil(crate::estimate::ESTIMATE_BLOCK);
                for block in 0..blocks {
                    assert!(
                        seen.insert(stream.wrapping_add(block)),
                        "block seed reused at stage {stage}"
                    );
                }
                if samples >= schedule.psi_capped {
                    break;
                }
                (drawn, samples, stage) = (samples, schedule.next(samples), stage + 1);
            }
            assert!(stage >= 8 && seen.len() > 8_000, "stages={stage}");
        }
    }
}
