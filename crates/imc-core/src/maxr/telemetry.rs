//! Per-iteration solve-engine telemetry: what the CELF queue did, what
//! each gain batch cost, and where every marginal-gain evaluation went.
//!
//! The greedy loops in [`engine`](crate::maxr::engine) assemble one
//! [`EngineTelemetry`] per run — one [`IterationRecord`] per greedy round
//! plus the shard timing of every gain batch. Publishing feeds the
//! `imc_engine_*` metric families (see `docs/METRICS.md`) and, when a
//! trace sink is installed, emits one `engine_iteration` JSONL event per
//! round plus an `engine_solve` summary — all from the coordinating
//! thread, so the events join the surrounding request's
//! [`TraceCtx`](imc_obs::trace::TraceCtx) span tree.
//!
//! A popped queue entry ends one of three ways, each counted: its gain is
//! fetched and **consumed** (`evaluations`; all but the winner are also
//! `wasted_evaluations`), fetched but **unconsumed** because the replay
//! cut the window before it (`speculative_evaluations`), or consumed
//! without a fetch because its cached gain was already exact
//! (`fresh_hits`). Per round `pops` is the sum of the three: a cut never
//! returns an unfetched entry, because cached-exact `ν_R` entries exist
//! only in round 0, whose first, one-entry window decides it.

use std::time::Instant;

/// What one greedy round did, recorded by every strategy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterationRecord {
    /// Zero-based greedy round (= seeds picked so far at round start).
    pub round: u32,
    /// CELF queue depth (or live candidate count for the sequential
    /// strategy) when the round started.
    pub queue_depth: usize,
    /// Entries taken off the queue this round, including those a replay
    /// cut put back (every candidate, for the sequential strategy).
    pub pops: u64,
    /// ν only: pops whose cached gain was stamped fresh for this round
    /// and contended for the argmax without re-evaluation.
    pub fresh_hits: u64,
    /// Evaluations that re-checked a queue entry popped with a stale or
    /// bound-only key (for `ĉ_R` every evaluation is such a re-check —
    /// its potential key is never an exact gain).
    pub stale_rechecks: u64,
    /// Marginal-gain evaluations **consumed** this round: gains that were
    /// fetched from the source and replayed against the running best. The
    /// same for every window width.
    pub evaluations: u64,
    /// Evaluations whose result was discarded — everything this round
    /// evaluated except the winning pick.
    pub wasted_evaluations: u64,
    /// Gains **fetched but unconsumed**: the window's replay proved, before
    /// reaching them, that their entries could no longer win the round, so
    /// the entries went back to the queue with their old keys. Source work
    /// a width-1 window would not have asked for; zero when the cap is 1.
    pub speculative_evaluations: u64,
    /// Windows fetched this round — one source batch call each (one
    /// scatter round on a cluster). A window of fresh ν entries only is
    /// not fetched and not counted.
    pub batches: u32,
    /// Evaluation shards executed this round (1 per inline batch).
    pub shards: u32,
    /// Total wall-clock seconds across this round's evaluation shards.
    pub shard_seconds_sum: f64,
    /// Slowest single evaluation shard this round, in seconds.
    pub shard_seconds_max: f64,
    /// The winning marginal gain (`ĉ_R` gains are cast from integers);
    /// `0.0` when the round found no positive gain.
    pub best_gain: f64,
    /// Whether the round picked a seed (`false` only for the final
    /// empty round before padding).
    pub picked: bool,
    /// Wall-clock seconds the round took.
    pub seconds: f64,
}

impl IterationRecord {
    /// A fresh record for `round` starting with `queue_depth` entries.
    pub(crate) fn begin(round: u32, queue_depth: usize) -> Self {
        IterationRecord {
            round,
            queue_depth,
            ..IterationRecord::default()
        }
    }

    /// Folds one batch's shard timing into the round.
    pub(crate) fn absorb(&mut self, stats: &MapStats) {
        self.shards += stats.shard_seconds.len() as u32;
        for &s in &stats.shard_seconds {
            self.shard_seconds_sum += s;
            self.shard_seconds_max = self.shard_seconds_max.max(s);
        }
    }

    /// Seals the record once the round's argmax is decided.
    pub(crate) fn finish(&mut self, best_gain: f64, picked: bool, started: Instant) {
        self.best_gain = best_gain;
        self.picked = picked;
        self.wasted_evaluations = self.evaluations.saturating_sub(u64::from(picked));
        self.seconds = started.elapsed().as_secs_f64();
    }
}

/// Shard timing of one marginal-gain evaluation batch: one inline shard
/// of table reads locally, one entry per shard daemon for a
/// scatter-gather round in a cluster
/// [`GainSource`](crate::maxr::GainSource).
#[derive(Debug, Clone, Default)]
pub struct MapStats {
    /// Wall-clock seconds per executed shard.
    pub shard_seconds: Vec<f64>,
}

impl MapStats {
    /// The stats of a batch evaluated inline since `start`.
    pub fn inline(start: Instant) -> Self {
        MapStats {
            shard_seconds: vec![start.elapsed().as_secs_f64()],
        }
    }
}

/// Full telemetry of one engine greedy run.
#[derive(Debug, Clone)]
pub struct EngineTelemetry {
    /// The timed objective: `"c_hat"` (Alg. 3's influenced-sample count)
    /// or `"nu"` (Alg. 2's submodular upper bound).
    pub objective: &'static str,
    /// The [`SolveStrategy`](crate::SolveStrategy) label that ran.
    pub strategy: &'static str,
    /// Evaluation threads the strategy used.
    pub threads: usize,
    /// Evaluations spent on the initial full gain scan (ν's CELF queue
    /// seeding wave; zero for strategies without one).
    pub initial_evaluations: u64,
    /// One record per greedy round, in pick order.
    pub rounds: Vec<IterationRecord>,
    /// Wall-clock seconds of every evaluation shard executed anywhere in
    /// the run (including the initial scan).
    pub shard_seconds: Vec<f64>,
    /// Wall-clock seconds of the whole run.
    pub wall_seconds: f64,
}

impl EngineTelemetry {
    pub(crate) fn new(objective: &'static str, strategy: &'static str, threads: usize) -> Self {
        EngineTelemetry {
            objective,
            strategy,
            threads,
            initial_evaluations: 0,
            rounds: Vec::new(),
            shard_seconds: Vec::new(),
            wall_seconds: 0.0,
        }
    }

    /// Folds one batch's shard timing into the run-level series.
    pub(crate) fn absorb(&mut self, stats: MapStats) {
        self.shard_seconds.extend(stats.shard_seconds);
    }

    /// Total consumed marginal-gain evaluations, initial scan included. Equals
    /// [`GreedyRun::evaluations`](crate::maxr::GreedyRun::evaluations)
    /// for the run that produced this telemetry.
    pub fn evaluations(&self) -> u64 {
        self.initial_evaluations + self.rounds.iter().map(|r| r.evaluations).sum::<u64>()
    }

    /// Total stale-pop re-checks across all rounds.
    pub fn stale_rechecks(&self) -> u64 {
        self.rounds.iter().map(|r| r.stale_rechecks).sum()
    }

    /// Total discarded evaluations across all rounds.
    pub fn wasted_evaluations(&self) -> u64 {
        self.rounds.iter().map(|r| r.wasted_evaluations).sum()
    }

    /// Total gains fetched from the source but cut off unconsumed.
    pub fn speculative_evaluations(&self) -> u64 {
        self.rounds.iter().map(|r| r.speculative_evaluations).sum()
    }

    /// Publishes the run into the `imc_engine_*` metric families and —
    /// when a trace sink is installed — emits one `engine_iteration`
    /// event per round plus an `engine_solve` summary.
    pub fn publish(&self) {
        crate::obs::record_engine_run(self);
        if !imc_obs::trace::enabled() {
            return;
        }
        use imc_obs::trace::{emit, TraceEvent};
        for rec in &self.rounds {
            emit(
                TraceEvent::new("engine_iteration")
                    .field("objective", self.objective)
                    .field("strategy", self.strategy)
                    .field("threads", self.threads)
                    .field("round", rec.round)
                    .field("queue_depth", rec.queue_depth)
                    .field("pops", rec.pops)
                    .field("fresh_hits", rec.fresh_hits)
                    .field("stale_rechecks", rec.stale_rechecks)
                    .field("evaluations", rec.evaluations)
                    .field("wasted_evaluations", rec.wasted_evaluations)
                    .field("speculative_evaluations", rec.speculative_evaluations)
                    .field("batches", rec.batches)
                    .field("shards", rec.shards)
                    .field("shard_seconds_sum", rec.shard_seconds_sum)
                    .field("shard_seconds_max", rec.shard_seconds_max)
                    .field("best_gain", rec.best_gain)
                    .field("picked", rec.picked)
                    .field("seconds", rec.seconds),
            );
        }
        emit(
            TraceEvent::new("engine_solve")
                .field("objective", self.objective)
                .field("strategy", self.strategy)
                .field("threads", self.threads)
                .field("rounds", self.rounds.len())
                .field("initial_evaluations", self.initial_evaluations)
                .field("evaluations", self.evaluations())
                .field("stale_rechecks", self.stale_rechecks())
                .field("wasted_evaluations", self.wasted_evaluations())
                .field("speculative_evaluations", self.speculative_evaluations())
                .field("shards", self.shard_seconds.len())
                .field("wall_seconds", self.wall_seconds),
        );
    }
}
