//! Observability for the solver stack: the `imc_ric_*`, `imc_maxr_*`,
//! `imc_imcaf_*` and `imc_estimate_*` metric families (see DESIGN.md §7
//! and `docs/METRICS.md`), all registered in the process-wide
//! [`imc_obs::global`] registry.
//!
//! Handles are cached in `OnceLock` statics so the per-sample hot path
//! (Alg. 1 runs millions of times per IMCAF invocation) pays a couple of
//! relaxed atomic ops and never a registry lookup. Everything here is
//! passive: with no scrape and no trace sink installed the overhead is the
//! atomics alone.

use imc_obs::{exponential_buckets, Counter, Histogram, DEFAULT_DURATION_BUCKETS};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// RIC sample width buckets: node counts per sample, 1 … 262144
/// geometrically (×4).
fn width_buckets() -> Vec<f64> {
    exponential_buckets(1.0, 4.0, 10)
}

/// Generated-sample counts per Estimate call, same geometric layout.
fn estimate_sample_buckets() -> Vec<f64> {
    exponential_buckets(1.0, 4.0, 10)
}

/// Coverage-ratio buckets (fractions of the collection influenced).
const COVERAGE_BUCKETS: &[f64] = &[0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.0];

pub(crate) fn ric_samples_total() -> &'static Arc<Counter> {
    static H: OnceLock<Arc<Counter>> = OnceLock::new();
    H.get_or_init(|| {
        imc_obs::global().counter(
            "imc_ric_samples_generated_total",
            "RIC samples generated (Alg. 1), across collections and Estimate calls.",
        )
    })
}

pub(crate) fn ric_sample_width() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        imc_obs::global().histogram(
            "imc_ric_sample_width",
            "Nodes per generated RIC sample (the sample's memory and solve cost driver).",
            &width_buckets(),
        )
    })
}

pub(crate) fn ric_shard_duration() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        imc_obs::global().histogram(
            "imc_ric_shard_duration_seconds",
            "Wall-clock time of one sampling shard of a plan draw (extend_parallel, IMCAF growth).",
            DEFAULT_DURATION_BUCKETS,
        )
    })
}

pub(crate) fn ric_index_duration() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        imc_obs::global().histogram(
            "imc_ric_index_seconds",
            "Wall-clock time of the inverted-index update after one sampler append to a RicStore (a plan draw or extend_with).",
            DEFAULT_DURATION_BUCKETS,
        )
    })
}

pub(crate) fn imcaf_rounds_total() -> &'static Arc<Counter> {
    static H: OnceLock<Arc<Counter>> = OnceLock::new();
    H.get_or_init(|| {
        imc_obs::global().counter(
            "imc_imcaf_rounds_total",
            "IMCAF stop-stage iterations executed (Alg. 5 outer loop; stages grown past without a solve are not counted).",
        )
    })
}

pub(crate) fn estimate_calls_total() -> &'static Arc<Counter> {
    static H: OnceLock<Arc<Counter>> = OnceLock::new();
    H.get_or_init(|| {
        imc_obs::global().counter(
            "imc_estimate_calls_total",
            "Dagum Estimate invocations (Alg. 6).",
        )
    })
}

pub(crate) fn estimate_exhausted_total() -> &'static Arc<Counter> {
    static H: OnceLock<Arc<Counter>> = OnceLock::new();
    H.get_or_init(|| {
        imc_obs::global().counter(
            "imc_estimate_exhausted_total",
            "Estimate calls whose fresh samples could not reach the stopping threshold within t_max.",
        )
    })
}

pub(crate) fn estimate_samples() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        imc_obs::global().histogram(
            "imc_estimate_samples",
            "Fresh RIC samples consumed per Estimate call.",
            &estimate_sample_buckets(),
        )
    })
}

pub(crate) fn maxr_coverage_ratio() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        imc_obs::global().histogram(
            "imc_maxr_coverage_ratio",
            "Fraction of the collection influenced by each MAXR solution.",
            COVERAGE_BUCKETS,
        )
    })
}

/// Where ĉ_R and ν_R evaluation time goes since gains are table reads:
/// each table's build and every seed commit add the index entries they
/// swept, one `inc_by` each. Exact and seed-deterministic for a given
/// solve.
pub(crate) fn table_entries_swept() -> &'static Arc<Counter> {
    static H: OnceLock<Arc<Counter>> = OnceLock::new();
    H.get_or_init(|| {
        imc_obs::global().counter(
            "imc_objective_table_entries_swept_total",
            "Index entries swept to build the c_hat and nu gain tables and to keep them exact on seed commits.",
        )
    })
}

pub(crate) fn engine_queue_depth() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        imc_obs::global().histogram(
            "imc_engine_queue_depth",
            "Live candidates at the start of each engine greedy round.",
            &width_buckets(),
        )
    })
}

pub(crate) fn engine_shard_duration() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        imc_obs::global().histogram(
            "imc_engine_shard_duration_seconds",
            "Wall-clock time of one engine gain batch (one per greedy round).",
            DEFAULT_DURATION_BUCKETS,
        )
    })
}

/// The `imc_engine_*` counter families, labelled by objective
/// (`c_hat` / `nu`). Help strings live here so every registration of a
/// family is identical.
const ENGINE_COUNTERS: [(&str, &str); 2] = [
    (
        "imc_engine_rounds_total",
        "Greedy rounds executed by the solve engine.",
    ),
    (
        "imc_engine_evaluations_total",
        "Marginal gains read by the solve engine (one per live candidate per round).",
    ),
];

/// Publishes one engine run's telemetry into the `imc_engine_*` families.
pub(crate) fn record_engine_run(telemetry: &crate::maxr::EngineTelemetry) {
    let registry = imc_obs::global();
    let labels = [("objective", telemetry.objective)];
    let totals = [telemetry.rounds.len() as u64, telemetry.evaluations()];
    for ((name, help), total) in ENGINE_COUNTERS.iter().zip(totals) {
        registry.counter_with(name, help, &labels).inc_by(total);
    }
    for rec in &telemetry.rounds {
        engine_queue_depth().observe(rec.evaluations as f64);
        engine_shard_duration().observe(rec.batch_seconds);
    }
}

/// Records one MAXR solve: per-algorithm counter + duration histogram,
/// the coverage-ratio histogram, and a `maxr_solve` trace event (with
/// UBG's sandwich ratio when there is one).
pub(crate) fn record_maxr_solve(
    algo: &'static str,
    duration: Duration,
    influenced: usize,
    samples: usize,
    sandwich_ratio: Option<f64>,
) {
    let registry = imc_obs::global();
    registry
        .counter_with(
            "imc_maxr_solves_total",
            "MAXR solves by algorithm.",
            &[("algo", algo)],
        )
        .inc();
    registry
        .histogram_with(
            "imc_maxr_solve_duration_seconds",
            "Wall-clock MAXR solve time by algorithm.",
            DEFAULT_DURATION_BUCKETS,
            &[("algo", algo)],
        )
        .observe_duration(duration);
    if samples > 0 {
        maxr_coverage_ratio().observe(influenced as f64 / samples as f64);
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

/// Records one finished IMCAF run under its stop reason.
pub(crate) fn record_imcaf_run(stop_reason: &'static str) {
    imc_obs::global()
        .counter_with(
            "imc_imcaf_runs_total",
            "Completed IMCAF runs by stop reason.",
            &[("stop_reason", stop_reason)],
        )
        .inc();
}

/// Publishes a [`RicStore`](crate::RicStore)'s arena footprint to the
/// `imc_ric_store_arena_bytes` / `imc_ric_store_index_entries` gauges.
/// Called by the service daemon whenever it (re)publishes a collection.
pub fn set_ric_store_gauges(store: &crate::RicStore) {
    let registry = imc_obs::global();
    registry
        .gauge(
            "imc_ric_store_arena_bytes",
            "Bytes held by the published RicStore arena (all flat buffers).",
        )
        .set(store.arena_bytes() as f64);
    registry
        .gauge(
            "imc_ric_store_index_entries",
            "Entries in the published RicStore's inverted node index.",
        )
        .set(store.index_entries() as f64);
}

/// Forces registration of every metric family this crate can export, so a
/// `/metrics` scrape sees them (at zero) before the first solve. Called by
/// the daemon on startup; idempotent and cheap, safe to call repeatedly.
pub fn register() {
    let _ = ric_samples_total();
    let _ = ric_sample_width();
    let _ = ric_shard_duration();
    let _ = ric_index_duration();
    set_ric_store_gauges(&crate::RicStore::new(0, 0, 0.0));
    let _ = imcaf_rounds_total();
    let _ = estimate_calls_total();
    let _ = estimate_exhausted_total();
    let _ = estimate_samples();
    let _ = maxr_coverage_ratio();
    let _ = table_entries_swept();
    for algo in ["GREEDY", "UBG", "MAF", "BT", "BT^d", "MB"] {
        let registry = imc_obs::global();
        let _ = registry.counter_with(
            "imc_maxr_solves_total",
            "MAXR solves by algorithm.",
            &[("algo", algo)],
        );
        let _ = registry.histogram_with(
            "imc_maxr_solve_duration_seconds",
            "Wall-clock MAXR solve time by algorithm.",
            DEFAULT_DURATION_BUCKETS,
            &[("algo", algo)],
        );
    }
    for reason in ["converged", "sample_bound", "cap"] {
        let _ = imc_obs::global().counter_with(
            "imc_imcaf_runs_total",
            "Completed IMCAF runs by stop reason.",
            &[("stop_reason", reason)],
        );
    }
    let _ = engine_queue_depth();
    let _ = engine_shard_duration();
    for objective in ["c_hat", "nu"] {
        for (name, help) in ENGINE_COUNTERS {
            let _ = imc_obs::global().counter_with(name, help, &[("objective", objective)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent_and_exports_all_families() {
        register();
        register();
        let text = imc_obs::encode::to_prometheus(imc_obs::global());
        for name in [
            "imc_ric_samples_generated_total",
            "imc_ric_sample_width",
            "imc_ric_shard_duration_seconds",
            "imc_ric_index_seconds",
            "imc_ric_store_arena_bytes",
            "imc_ric_store_index_entries",
            "imc_maxr_solves_total",
            "imc_maxr_solve_duration_seconds",
            "imc_maxr_coverage_ratio",
            "imc_objective_table_entries_swept_total",
            "imc_imcaf_rounds_total",
            "imc_imcaf_runs_total",
            "imc_estimate_calls_total",
            "imc_estimate_exhausted_total",
            "imc_estimate_samples",
            "imc_engine_rounds_total",
            "imc_engine_evaluations_total",
            "imc_engine_queue_depth",
            "imc_engine_shard_duration_seconds",
        ] {
            assert!(
                text.contains(name),
                "family `{name}` missing from exposition"
            );
        }
    }

    #[test]
    fn record_maxr_solve_feeds_labeled_series() {
        let before = imc_obs::global()
            .counter_with(
                "imc_maxr_solves_total",
                "MAXR solves by algorithm.",
                &[("algo", "UBG")],
            )
            .get();
        record_maxr_solve("UBG", Duration::from_micros(50), 3, 10, Some(0.75));
        let after = imc_obs::global()
            .counter_with(
                "imc_maxr_solves_total",
                "MAXR solves by algorithm.",
                &[("algo", "UBG")],
            )
            .get();
        assert_eq!(after, before + 1);
    }
}
