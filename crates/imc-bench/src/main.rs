//! `imc-bench` — regenerate the paper's tables and figures.
//!
//! ```text
//! imc-bench <experiment> [--scale F] [--quick] [--runs N] [--seed N] [--out DIR]
//!           [--trace FILE] [--metrics-out FILE]
//!
//! experiments:
//!   table1            dataset statistics (Table I)
//!   fig4              quality vs community structure and size cap s
//!   fig5              benefit vs k, regular thresholds
//!   fig6              benefit vs k, bounded thresholds (h = 2)
//!   fig7              runtime vs k
//!   fig8              UBG sandwich ratio vs k
//!   ablation-samples  quality vs |R|
//!   ablation-btd      BT^(3) on a threshold-3 instance
//!   ablation-nonsub   submodularity violation rate per threshold regime
//!   ablation-ratios   empirical ratios vs the exact MAXR optimum
//!   all               everything above
//! ```
//!
//! Performance is measured by the standalone `benchmark/` package
//! (`BENCHMARK.json`, `docs/BENCHMARKS.md`), not here.

use imc_bench::experiments::{self, ExpOptions};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        eprintln!(
            "usage: imc-bench <experiment> [--scale F] [--quick] [--runs N] [--seed N] [--out DIR] \
             [--trace FILE] [--metrics-out FILE]"
        );
        eprintln!("experiments: table1 fig4 fig5 fig6 fig7 fig8 ablation-samples ablation-btd ablation-nonsub ablation-ratios all");
        return ExitCode::FAILURE;
    };
    let mut options = ExpOptions::default();
    let mut metrics_out: Option<PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => options.quick = true,
            "--trace" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    return usage_error("--trace expects a file path");
                };
                if let Err(e) = imc_obs::trace::set_sink_path(std::path::Path::new(path)) {
                    eprintln!("error: cannot open trace file {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            "--metrics-out" => {
                i += 1;
                metrics_out = match args.get(i) {
                    Some(v) => Some(PathBuf::from(v)),
                    None => return usage_error("--metrics-out expects a file path"),
                };
            }
            "--scale" => {
                i += 1;
                options.scale = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(v) => v,
                    None => return usage_error("--scale expects a number"),
                };
            }
            "--runs" => {
                i += 1;
                options.runs = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(v) => v,
                    None => return usage_error("--runs expects an integer"),
                };
            }
            "--seed" => {
                i += 1;
                options.seed = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(v) => v,
                    None => return usage_error("--seed expects an integer"),
                };
            }
            "--out" => {
                i += 1;
                options.out_dir = match args.get(i) {
                    Some(v) => Some(PathBuf::from(v)),
                    None => return usage_error("--out expects a directory"),
                };
            }
            "--max-samples" => {
                i += 1;
                options.max_samples = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(v) => v,
                    None => return usage_error("--max-samples expects an integer"),
                };
            }
            "--grade-budget" => {
                i += 1;
                options.grade_budget = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(v) => v,
                    None => return usage_error("--grade-budget expects an integer"),
                };
            }
            other => return usage_error(&format!("unknown flag {other}")),
        }
        i += 1;
    }

    let started = std::time::Instant::now();
    let result = match command.as_str() {
        "table1" => experiments::table1::run(&options),
        "fig4" => experiments::fig4::run(&options),
        "fig5" => experiments::fig5::run(&options),
        "fig6" => experiments::fig6::run(&options),
        "fig7" => experiments::fig7::run(&options),
        "fig8" => experiments::fig8::run(&options),
        "ablation-samples" => experiments::ablations::samples(&options),
        "ablation-btd" => experiments::ablations::btd(&options),
        "ablation-nonsub" => experiments::ablations::nonsubmodularity(&options),
        "ablation-ratios" => experiments::ablations::ratios(&options),
        "all" => experiments::table1::run(&options)
            .and_then(|_| experiments::fig4::run(&options))
            .and_then(|_| experiments::fig5::run(&options))
            .and_then(|_| experiments::fig6::run(&options))
            .and_then(|_| experiments::fig7::run(&options))
            .and_then(|_| experiments::fig8::run(&options))
            .and_then(|_| experiments::ablations::samples(&options))
            .and_then(|_| experiments::ablations::btd(&options))
            .and_then(|_| experiments::ablations::nonsubmodularity(&options))
            .and_then(|_| experiments::ablations::ratios(&options)),
        other => return usage_error(&format!("unknown experiment {other}")),
    };
    // Dump the accumulated solver metrics (same registry the daemon
    // exposes over GET /metrics) even when the experiment failed partway:
    // a partial exposition is exactly what post-mortems want.
    if let Some(path) = metrics_out {
        let text = imc_obs::encode::to_prometheus(imc_obs::global());
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("error: cannot write metrics to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("[{command}] wrote metrics to {}", path.display());
    }
    imc_obs::trace::clear_sink();
    match result {
        Ok(()) => {
            eprintln!(
                "[{command}] done in {:.1}s",
                started.elapsed().as_secs_f64()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("[{command}] failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::FAILURE
}
