//! The `--smoke` scale end to end: every workload, both kinds of run, at
//! about a twentieth of the size. It walks every code path and checks the
//! output schema; the numbers it produces are not metrics.

use crate::harness::RunConfig;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report;
use crate::workload::Workload;
use crate::{e2e, ledger};

/// One test, sequential on purpose: the runs share the process-wide trace
/// sink and metric registry, whose deltas a concurrent run would disturb.
#[test]
fn smoke_scale_walks_every_workload_and_both_kinds_of_run() {
    let started = std::time::Instant::now();
    for workload in Workload::ALL {
        for traced in [false, true] {
            let config = RunConfig {
                workload,
                seed: 7,
                seconds: 0.1,
                traced,
                smoke: true,
            };
            let outcome = if traced {
                ledger::run(config)
            } else {
                e2e::run(config)
            }
            .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", workload.name()));
            assert_eq!(
                outcome.failed,
                0,
                "{} traced={traced}: {:?}",
                workload.name(),
                outcome.first_failure
            );
            let declared = if traced { PER_LAYER } else { END_TO_END };
            // At smoke scale 60 requests support neither tail percentile.
            let missing: Vec<&str> = outcome
                .metrics
                .missing(declared)
                .into_iter()
                .filter(|name| !name.contains("estimate_p9"))
                .collect();
            assert!(
                missing.is_empty(),
                "{} traced={traced} lacks {missing:?}",
                workload.name()
            );
            assert!(outcome.exact.iter().all(|(_, v)| !v.is_empty()));
            // The result line stays schema-valid and carries no metrics.
            let line = report::result_line(&outcome);
            let value = imc_service::json::parse(&line).expect("result line is JSON");
            assert!(value
                .get("metrics")
                .and_then(|m| m.as_object())
                .is_some_and(|m| m.is_empty()));
            assert!(report::result_file_value(&outcome).get("nproc").is_some());
        }
    }
    eprintln!(
        "smoke: all workloads in {:.1}s",
        started.elapsed().as_secs_f64()
    );
}
