//! `imc-benchmark`: the repo's benchmark.
//!
//! ```text
//! imc-benchmark [run] --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1 | --traced] [--smoke]
//! imc-benchmark calibrate [--runs N] [--seed S] [--seconds T] [--write]
//! imc-benchmark manifest            # BENCHMARK.json as metrics.rs declares it
//! ```
//!
//! `run` prints every metric by name with its unit and ends with one JSON
//! object (`correct`, `attempted`, `failed`, `metrics`); it exits non-zero
//! when a correctness gate failed. See `benchmark/README.md`.

mod calibrate;
mod e2e;
mod env;
mod harness;
mod layers;
mod ledger;
mod metrics;
mod prng;
mod prom;
mod report;
mod rung;
#[cfg(test)]
mod smoke;
mod spans;
mod stats;
mod workload;

use harness::RunConfig;
use std::process::ExitCode;
use workload::Workload;

/// Default measurement budget, the `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 40.0;

const USAGE: &str = "usage:
  imc-benchmark [run] --workload <ladder-local|ladder-daemon|ladder-cluster|imcaf-wide> --seed <u64>
                [--seconds <s>] [--trace 0|1 | --traced] [--smoke]
  imc-benchmark calibrate [--runs N] [--seed S] [--seconds T] [--workload W] [--write]
  imc-benchmark manifest";

/// The value following flag `name`.
fn flag_value(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{name} needs a value"))
}

/// Parses `run` flags.
fn parse_run(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| flag_value(&mut it, name);
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds must be a positive number")?;
            }
            "--trace" => {
                traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--traced" => traced = true,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
        smoke,
    })
}

/// Runs one workload and emits its report; `Ok(true)` when correct.
fn run(config: RunConfig) -> Result<bool, String> {
    let outcome = if config.traced {
        ledger::run(config)
    } else {
        e2e::run(config)
    }
    .map_err(|e| e.to_string())?;
    report::emit(&outcome).map_err(|e| format!("writing the report: {e}"))?;
    Ok(report::is_correct(&outcome))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("calibrate") => calibrate::run(&args[1..]),
        Some("manifest") => {
            print!("{}", calibrate::benchmark_json(&Default::default()));
            Ok(true)
        }
        Some("run") => parse_run(&args[1..]).and_then(run),
        Some(flag) if flag.starts_with("--") => parse_run(&args).and_then(run),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("imc-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_s_flag_form() {
        let c = parse_run(&args(
            "--workload ladder-cluster --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(c.workload, Workload::LadderCluster);
        assert_eq!(
            (c.seed, c.seconds, c.traced, c.smoke),
            (9, 10.0, true, false)
        );
        let c = parse_run(&args("--workload imcaf-wide --seed 1 --traced --smoke")).unwrap();
        assert!(c.traced && c.smoke);
        assert_eq!(c.seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(parse_run(&args("--seed 1")).is_err());
        assert!(parse_run(&args("--workload ladder-local")).is_err());
        assert!(parse_run(&args("--workload nope --seed 1")).is_err());
        assert!(parse_run(&args("--workload ladder-local --seed 1 --trace 2")).is_err());
        assert!(parse_run(&args("--workload ladder-local --seed 1 --seconds 0")).is_err());
        assert!(parse_run(&args("--workload ladder-local --seed x")).is_err());
    }
}
