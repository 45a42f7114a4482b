//! Turning a [`RunOutcome`] into what the contract asks for: every metric
//! by name with its unit on stdout, a result file that records where and
//! how it was measured, and the one-object result line.

use crate::e2e::RunOutcome;
use crate::env;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use imc_service::json::{self, ObjectBuilder, Value};
use std::path::{Path, PathBuf};

/// The metric list a run of this kind must fill.
pub fn declared_for(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// A run is correct when nothing failed and every declared metric of its
/// kind was measured.
pub fn is_correct(outcome: &RunOutcome) -> bool {
    outcome.failed == 0
        && outcome.attempted >= 1
        && outcome
            .metrics
            .missing(declared_for(outcome.config.traced))
            .is_empty()
}

/// `{name: {"value": v, "unit": u}}` over the declared metrics only.
fn declared_metrics_value(outcome: &RunOutcome) -> Value {
    let mut metrics = ObjectBuilder::new();
    for def in declared_for(outcome.config.traced) {
        if let Some(value) = outcome.metrics.get(def.name) {
            metrics = metrics.field(
                def.name,
                ObjectBuilder::new()
                    .field("value", value)
                    .field("unit", def.unit)
                    .build(),
            );
        }
    }
    metrics.build()
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// A smoke run reports no metrics.
pub fn result_line(outcome: &RunOutcome) -> String {
    let metrics = if outcome.config.smoke {
        ObjectBuilder::new().build()
    } else {
        declared_metrics_value(outcome)
    };
    json::to_string(
        &ObjectBuilder::new()
            .field("correct", is_correct(outcome))
            .field("attempted", outcome.attempted)
            .field("failed", outcome.failed)
            .field("metrics", metrics)
            .build(),
    )
}

fn pairs_value<V: Clone + Into<Value>>(pairs: &[(String, V)]) -> Value {
    pairs
        .iter()
        .fold(ObjectBuilder::new(), |b, (k, v)| b.field(k, v.clone()))
        .build()
}

/// The result file: the metrics plus everything needed to judge whether
/// two results are comparable.
pub fn result_file_value(outcome: &RunOutcome) -> Value {
    let all_metrics = outcome
        .metrics
        .iter()
        .fold(ObjectBuilder::new(), |b, m| {
            b.field(
                &m.name,
                ObjectBuilder::new()
                    .field("value", m.value)
                    .field("unit", m.unit.as_str())
                    .field("n", m.n)
                    .build(),
            )
        })
        .build();
    let notes: Vec<Value> = outcome
        .notes
        .iter()
        .map(|n| Value::Str(n.clone()))
        .collect();
    ObjectBuilder::new()
        .field("schema", "imc-benchmark/result/v1")
        .field("workload", outcome.config.workload.name())
        .field("workload_seed", outcome.config.seed)
        .field("seconds_budget", outcome.config.seconds)
        .field("traced", outcome.config.traced)
        .field("smoke", outcome.config.smoke)
        .field("correct", is_correct(outcome))
        .field("attempted", outcome.attempted)
        .field("failed", outcome.failed)
        .field(
            "first_failure",
            outcome.first_failure.clone().unwrap_or_default(),
        )
        .field("nproc", env::nproc())
        .field("rustc", env::rustc_version())
        .field("git_commit", env::git_commit())
        .field("cargo_lock_fnv1a", env::cargo_lock_hash())
        .field("repetitions", pairs_value(&outcome.repetitions))
        .field("exact_counts", pairs_value(&outcome.exact))
        .field("metrics", all_metrics)
        .field("notes", notes)
        .build()
}

/// Where a run's result file goes.
pub fn result_path(outcome: &RunOutcome, dir: &Path) -> PathBuf {
    let kind = if outcome.config.traced {
        "ledger"
    } else {
        "result"
    };
    dir.join(format!("{}.{kind}.json", outcome.config.workload.name()))
}

/// Prints the human-readable report, writes the result file (full runs
/// only) and prints the result line last.
pub fn emit(outcome: &RunOutcome) -> std::io::Result<()> {
    let c = &outcome.config;
    println!(
        "# imc-benchmark {} seed={} seconds={} traced={} smoke={} nproc={}",
        c.workload.name(),
        c.seed,
        c.seconds,
        c.traced,
        c.smoke,
        env::nproc()
    );
    for (label, count) in &outcome.repetitions {
        println!("#   {label} = {count}");
    }
    for (label, count) in &outcome.exact {
        println!("#   exact {label} = {count}");
    }
    for m in outcome.metrics.iter() {
        println!("{} = {} {} (n={})", m.name, m.value, m.unit, m.n);
    }
    for note in &outcome.notes {
        println!("# note: {note}");
    }
    for name in outcome.metrics.missing(declared_for(c.traced)) {
        println!("# MISSING {name}");
    }
    if let Some(why) = &outcome.first_failure {
        println!(
            "# FAILED ({} of {}): {why}",
            outcome.failed, outcome.attempted
        );
    }
    if c.smoke {
        println!("# smoke run: every path walked, metrics suppressed in the result line");
    } else {
        let dir = env::out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = result_path(outcome, &dir);
        std::fs::write(&path, json::to_string(&result_file_value(outcome)) + "\n")?;
        println!("# wrote {}", path.display());
    }
    println!("{}", result_line(outcome));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::RunConfig;
    use crate::metrics::MetricSet;
    use crate::workload::Workload;

    fn outcome(traced: bool, fill: bool) -> RunOutcome {
        let mut metrics = MetricSet::default();
        if fill {
            for (i, def) in declared_for(traced).iter().enumerate() {
                metrics.put(def.name, 1.5 + i as f64, 3);
            }
            metrics.put_extra("engine.bt_s_5k", 0.25, "s", 1);
        }
        RunOutcome {
            config: RunConfig {
                workload: Workload::LadderDaemon,
                seed: 7,
                seconds: 15.0,
                traced,
                smoke: false,
            },
            metrics,
            attempted: 10,
            failed: 0,
            first_failure: None,
            repetitions: vec![("solve_reps".into(), 5)],
            exact: vec![("reference.evaluations".into(), "27168".into())],
            notes: vec![],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_declared_metrics() {
        for traced in [false, true] {
            let line = result_line(&outcome(traced, true));
            let value = json::parse(&line).unwrap();
            let keys: Vec<&str> = value
                .as_object()
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(value.get("correct").and_then(Value::as_bool), Some(true));
            let metrics = value.get("metrics").unwrap().as_object().unwrap();
            let declared = declared_for(traced);
            assert_eq!(metrics.len(), declared.len(), "extras stay out of the line");
            for def in declared {
                let m = &metrics[def.name];
                assert!(m.get("value").and_then(Value::as_f64).is_some());
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(def.unit));
            }
        }
    }

    #[test]
    fn a_missing_metric_or_a_failure_is_incorrect() {
        assert!(!is_correct(&outcome(false, false)));
        let mut failed = outcome(false, true);
        failed.failed = 1;
        assert!(!is_correct(&failed));
        assert!(is_correct(&outcome(true, true)));
    }

    #[test]
    fn result_file_records_the_environment() {
        let value = result_file_value(&outcome(true, true));
        for key in [
            "nproc",
            "rustc",
            "git_commit",
            "cargo_lock_fnv1a",
            "workload_seed",
            "repetitions",
            "exact_counts",
        ] {
            assert!(value.get(key).is_some(), "result file lacks {key}");
        }
        // Ledger-only extras are kept in the file.
        assert!(value
            .get("metrics")
            .unwrap()
            .get("engine.bt_s_5k")
            .is_some());
    }

    #[test]
    fn smoke_runs_report_no_metrics() {
        let mut o = outcome(false, true);
        o.config.smoke = true;
        let value = json::parse(&result_line(&o)).unwrap();
        assert!(value
            .get("metrics")
            .unwrap()
            .as_object()
            .unwrap()
            .is_empty());
    }
}
