//! `cluster-runner` — spawn a sharded imc cluster from a topology file,
//! verify distributed/single-node identity of seeds and evaluation
//! count, and write an artifact of identity flags and exact counts.
//!
//! ```text
//! cluster-runner --topology data/topology.toml --out data/cluster_smoke.json
//! ```
//!
//! With `--chaos kind:shard@after[:millis]` the named shard is put
//! behind a fault-injecting proxy and the run also verifies the
//! coordinator's recovery contract: a transient fault (`drop` / `hang`
//! / `slow`) must leave the answer bitwise identical to single-node; a
//! permanent fault (`kill`) must complete degraded (`approximate:
//! true`, the lost shard named) with seeds matching a fresh solve over
//! the surviving shard set.

use std::path::PathBuf;
use std::process::ExitCode;

use imc_cluster::{run, ChaosSpec, RunnerOptions, Topology};

const USAGE: &str = "usage: cluster-runner --topology <topology.toml> \
     [--out <cluster_smoke.json>] [--chaos <kind:shard@after[:millis]>] \
     [--trace <trace.jsonl>] [--quiet]";

fn main() -> ExitCode {
    let mut topology_path: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut chaos: Option<ChaosSpec> = None;
    let mut trace: Option<PathBuf> = None;
    let mut verbose = true;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--topology" => topology_path = args.next().map(PathBuf::from),
            "--out" => out = args.next().map(PathBuf::from),
            "--chaos" => {
                let Some(spec) = args.next() else {
                    eprintln!("cluster-runner: --chaos needs a spec\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                chaos = match ChaosSpec::parse(&spec) {
                    Ok(spec) => Some(spec),
                    Err(e) => {
                        eprintln!("cluster-runner: {e}\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--trace" => trace = args.next().map(PathBuf::from),
            "--quiet" => verbose = false,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("cluster-runner: unknown argument {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(topology_path) = topology_path else {
        eprintln!("cluster-runner: missing --topology\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let topology = match Topology::load(&topology_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cluster-runner: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut options = RunnerOptions::new(topology, out);
    options.verbose = verbose;
    options.chaos = chaos;
    options.trace = trace;
    match run(&options) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.seeds_identical && report.evaluations_identical && report.eval_roundtrip {
                ExitCode::SUCCESS
            } else {
                eprintln!("cluster-runner: identity checks FAILED");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("cluster-runner: {e}");
            ExitCode::FAILURE
        }
    }
}
