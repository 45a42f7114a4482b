//! Per-round solve-engine telemetry: how many candidates each greedy
//! round read a gain for, what that batch cost, and what it picked.
//!
//! The greedy loop in [`engine`](crate::maxr::engine) assembles one
//! [`EngineTelemetry`] per run — one [`IterationRecord`] per greedy round.
//! Publishing feeds the `imc_engine_*` metric families (see
//! `docs/METRICS.md`) and, when a trace sink is installed, emits one
//! `engine_iteration` JSONL event per round plus an `engine_solve` summary
//! — all from the coordinating thread, so the events join the surrounding
//! request's [`TraceCtx`](imc_obs::trace::TraceCtx) span tree.

use crate::maxr::solver::Objective;
use imc_obs::families;

/// What one greedy round did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterationRecord {
    /// Zero-based greedy round (= seeds picked so far at round start).
    pub round: u32,
    /// Marginal gains read this round: one per candidate live at its
    /// start.
    pub evaluations: u64,
    /// Wall-clock seconds of the round's one gain batch (table reads
    /// locally, one scatter round on a cluster).
    pub batch_seconds: f64,
    /// The winning marginal gain (`ĉ_R` gains are cast from integers, `ν_R`
    /// gains are [`nu_fraction`](crate::nu_fraction)s); `0.0` when the
    /// round found no positive gain.
    pub best_gain: f64,
    /// Whether the round picked a seed (`false` only for the final
    /// empty round before padding).
    pub picked: bool,
    /// Wall-clock seconds the round took, seed commit included.
    pub seconds: f64,
}

/// Full telemetry of one engine greedy run.
#[derive(Debug, Clone)]
pub struct EngineTelemetry {
    /// The objective maximised: `"c_hat"` (Alg. 3's influenced-sample
    /// count) or `"nu"` (Alg. 2's submodular upper bound).
    pub objective: &'static str,
    /// One record per greedy round, in pick order.
    pub rounds: Vec<IterationRecord>,
    /// Wall-clock seconds of the whole run.
    pub wall_seconds: f64,
}

impl EngineTelemetry {
    pub(crate) fn new(objective: Objective) -> Self {
        EngineTelemetry {
            objective: objective.label(),
            rounds: Vec::new(),
            wall_seconds: 0.0,
        }
    }

    /// Total marginal gains read. Equals
    /// [`GreedyRun::evaluations`](crate::maxr::GreedyRun::evaluations)
    /// for the run that produced this telemetry.
    pub fn evaluations(&self) -> u64 {
        self.rounds.iter().map(|r| r.evaluations).sum()
    }

    /// Publishes the run into the `imc_engine_*` metric families and —
    /// when a trace sink is installed — emits one `engine_iteration`
    /// event per round plus an `engine_solve` summary.
    pub fn publish(&self) {
        families::ENGINE_ROUNDS
            .child(self.objective)
            .inc_by(self.rounds.len() as u64);
        families::ENGINE_EVALUATIONS
            .child(self.objective)
            .inc_by(self.evaluations());
        for rec in &self.rounds {
            families::ENGINE_QUEUE_DEPTH
                .handle()
                .observe(rec.evaluations as f64);
            families::ENGINE_SHARD_DURATION
                .handle()
                .observe(rec.batch_seconds);
        }
        if !imc_obs::trace::enabled() {
            return;
        }
        use imc_obs::trace::{emit, TraceEvent};
        for rec in &self.rounds {
            emit(
                TraceEvent::new("engine_iteration")
                    .field("objective", self.objective)
                    .field("round", rec.round)
                    .field("evaluations", rec.evaluations)
                    .field("batch_seconds", rec.batch_seconds)
                    .field("best_gain", rec.best_gain)
                    .field("picked", rec.picked)
                    .field("seconds", rec.seconds),
            );
        }
        emit(
            TraceEvent::new("engine_solve")
                .field("objective", self.objective)
                .field("rounds", self.rounds.len())
                .field("evaluations", self.evaluations())
                .field("wall_seconds", self.wall_seconds),
        );
    }
}
