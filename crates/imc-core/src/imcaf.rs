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
//! Normalization note: the paper sometimes writes `r` where the
//! general-benefit quantity is `b` (its experiments use `b_i = |C_i|`, its
//! formulas unit benefits). We implement the general version: the stop
//! condition `(|R|/b)·ĉ_R(S) ≥ Λ` is exactly "at least `Λ` influenced
//! samples", and `Estimate` returns `b·Λ′/T`; with `b_i = 1` both reduce to
//! the paper's text verbatim.

use crate::bounds::{lambda, psi, BoundParams};
use crate::estimate::estimate_c;
use crate::{ImcError, ImcInstance, MaxrAlgorithm, Result, RicStore, SolveRequest, SolveStrategy};
use imc_graph::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
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
    /// value.
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
    /// Stop-stage iterations executed.
    pub rounds: usize,
    /// Why the loop ended.
    pub stop_reason: StopReason,
}

/// One stop-stage iteration's bookkeeping, recorded by
/// [`imcaf_with_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// 1-based round number.
    pub round: usize,
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
/// [`RicStore`](crate::RicStore) across doubling rounds; results are
/// deterministic for a fixed `(instance, algorithm, config, seed)`.
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
    imcaf_inner(instance, algorithm, config, seed, &mut |_| {})
}

/// Like [`imcaf`] but also collects the per-round [`RoundRecord`]s — used
/// by the sample-size ablation and by tests asserting the doubling
/// schedule. The same per-round data always flows to the observability
/// layer (`imcaf_round` trace events, `imc_imcaf_*` metrics) regardless of
/// which entry point is used; this variant merely materializes it.
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
    let result = imcaf_inner(instance, algorithm, config, seed, &mut |record| {
        trace.push(record.clone())
    })?;
    Ok((result, trace))
}

/// Wall time of one round's three phases, for the `imcaf_round` event.
struct RoundSeconds {
    /// The `extend_with` that produced the collection this round solved.
    sampling: f64,
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
    crate::obs::imcaf_rounds_total().inc();
    if imc_obs::trace::enabled() {
        let mut event = imc_obs::trace::TraceEvent::new("imcaf_round")
            .field("round", record.round)
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
    crate::obs::record_imcaf_run(result.stop_reason.as_str());
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

fn imcaf_inner(
    instance: &ImcInstance,
    algorithm: MaxrAlgorithm,
    config: &ImcafConfig,
    seed: u64,
    observe: &mut dyn FnMut(&RoundRecord),
) -> Result<ImcafResult> {
    if !(config.epsilon > 0.0 && config.epsilon < 1.0) {
        return Err(ImcError::InvalidParameter { name: "epsilon" });
    }
    if !(config.delta > 0.0 && config.delta < 1.0) {
        return Err(ImcError::InvalidParameter { name: "delta" });
    }
    instance.validate_budget(config.k)?;

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
    let psi_bound = psi(&params, e2, e2, d2, d2, alpha);
    let psi_capped = psi_bound.min(config.max_samples as f64).max(1.0) as usize;

    // Stop-stage splits (paper §VI.A): ε₁ = ε₂ = ε₃ = ε/4.
    let es = config.epsilon / 4.0;
    let check_lambda = lambda(es, es, es, config.delta);

    if imc_obs::trace::enabled() {
        imc_obs::trace::emit(
            imc_obs::trace::TraceEvent::new("imcaf_bounds")
                .field("algo", algorithm.name())
                .field("k", k)
                .field("alpha", alpha)
                .field("psi", psi_bound)
                .field("psi_capped", psi_capped)
                .field("lambda", check_lambda),
        );
    }

    let sampler = instance.sampler();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut collection = RicStore::for_sampler(&sampler);
    let initial = (check_lambda.ceil() as usize).min(psi_capped).max(1);
    let started = Instant::now();
    collection.extend_with(&sampler, initial, &mut rng);
    let mut sampling_seconds = started.elapsed().as_secs_f64();

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let req = SolveRequest::new(k)
            .with_seed(seed ^ rounds as u64)
            .with_threads(config.strategy.threads());
        let started = Instant::now();
        let solution = algorithm.solve(instance, &collection, &req)?;
        let mut phases = RoundSeconds {
            sampling: sampling_seconds,
            solve: started.elapsed().as_secs_f64(),
            estimate: None,
        };
        let mut record = RoundRecord {
            round: rounds,
            samples: collection.len(),
            influenced: solution.influenced_samples,
            estimate: solution.estimate,
            checked: false,
            independent_estimate: None,
        };

        // Stop condition (line 8): at least Λ influenced samples.
        if solution.influenced_samples as f64 >= check_lambda {
            record.checked = true;
            // δ for each Estimate call: δ / (3·log₂(Ψ/Λ)) (line 9).
            let log_rounds = (psi_capped as f64 / check_lambda).log2().max(1.0);
            let delta_est = (config.delta / (3.0 * log_rounds)).clamp(1e-9, 0.999);
            let t_max = (collection.len() as f64 * (1.0 + es) / (1.0 - es)).ceil() as u64;
            let started = Instant::now();
            let graded = estimate_c(&sampler, &solution.seeds, es, delta_est, t_max, &mut rng);
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
            let reason = if (psi_capped as f64) < psi_bound {
                StopReason::CapReached
            } else {
                StopReason::SampleBoundReached
            };
            let result = ImcafResult {
                seeds: solution.seeds,
                estimate: solution.estimate,
                independent_estimate: None,
                samples_used: collection.len(),
                rounds,
                stop_reason: reason,
            };
            observe_done(&result);
            return Ok(result);
        }

        // Double the collection (line 11), capped at Ψ.
        let grow = collection.len().min(psi_capped - collection.len()).max(1);
        let started = Instant::now();
        collection.extend_with(&sampler, grow, &mut rng);
        sampling_seconds = started.elapsed().as_secs_f64();
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
        assert_eq!(trace.len(), result.rounds);
        // Sample counts are non-decreasing and (until the cap) doubling.
        for w in trace.windows(2) {
            assert!(w[1].samples >= w[0].samples);
            assert!(w[1].samples <= w[0].samples * 2);
        }
        assert_eq!(trace.last().unwrap().round, result.rounds);
        // Final trace entry matches the result.
        assert_eq!(trace.last().unwrap().samples, result.samples_used);
    }
}
