//! `imc-benchmark calibrate`: is the benchmark steady enough to gate on?
//!
//! 1. *Repeatability*: every declared workload's traced run twice, back
//!    to back, with one seed; every *exact* count must be identical.
//! 2. *Spread*: every declared workload's end-to-end run `--runs` times,
//!    each with another seed; per metric the distance between the first
//!    and third quartile as a share of the median (Python's
//!    `statistics.quantiles(values, n=4)`), held against the metric's
//!    bound. A spread below a third of the bound is steady; below the
//!    bound it is tolerated; a metric that cannot stay within the largest
//!    allowed bound must be demoted to a per-layer metric (move its row
//!    from `END_TO_END` to `PER_LAYER` in `metrics.rs`) rather than kept
//!    noisy.
//! 3. `--write` regenerates `BENCHMARK.json` from the tables in
//!    `metrics.rs`, with each bound raised to what the spreads justify.
//!
//! Each run is a child process (peak RSS is per process); every child is
//! waited for.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median};
use crate::workload::Workload;
use imc_service::json::{self, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// The largest bound `BENCHMARK.json` may carry.
pub const MAX_BOUND: f64 = 0.25;
/// The command the driver runs, before its own flags.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];
/// The directory that holds the benchmark and nothing else.
pub const PATHS: &[&str] = &["benchmark"];

struct Options {
    runs: usize,
    seed: u64,
    seconds: f64,
    write: bool,
    workloads: Vec<Workload>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        runs: 2,
        seed: 1,
        seconds: crate::DEFAULT_SECONDS,
        write: false,
        workloads: Workload::DECLARED.to_vec(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| crate::flag_value(&mut it, name);
        match flag.as_str() {
            "--runs" => {
                o.runs = value("--runs")?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 2)
                    .ok_or("--runs must be an integer of at least 2")?;
            }
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--workload" => {
                let name = value("--workload")?;
                o.workloads =
                    vec![Workload::parse(&name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?];
            }
            "--write" => o.write = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(o)
}

/// The parsed result line of one child run.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Parses a result line into its metric values.
fn parse_result_line(line: &str) -> Result<ChildResult, String> {
    let value = json::parse(line).map_err(|e| format!("result line: {e}"))?;
    let metrics = value
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line lacks `metrics`")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: value.get("correct").and_then(Value::as_bool) == Some(true),
        metrics,
    })
}

/// Runs one workload in a child process and parses its result line.
fn child_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{} printed nothing", workload.name()))?;
    let result = parse_result_line(line)?;
    if !output.status.success() || !result.correct {
        return Err(format!(
            "{} seed {seed} (traced={traced}) failed a correctness gate:\n{stdout}",
            workload.name()
        ));
    }
    Ok(result)
}

/// One metric's verdict on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Median over the runs.
    pub median: f64,
    /// Quartile distance over the median.
    pub spread: f64,
    /// `steady`, `tolerated`, `raise` (needs a larger bound) or `demote`.
    pub label: &'static str,
}

/// Judges `values` of `def` (an end-to-end metric). `setup_s` is exempt
/// from the spread rule, as in the acceptance check.
pub fn judge(def: &MetricDef, values: &[f64]) -> Verdict {
    let bound = def.bound.unwrap_or(MAX_BOUND);
    let spread = iqr_share(values);
    let label = if spread <= bound / 3.0 {
        "steady"
    } else if spread <= bound || def.name == "setup_s" {
        "tolerated"
    } else if spread <= MAX_BOUND {
        "raise"
    } else {
        "demote"
    };
    Verdict {
        median: median(values),
        spread,
        label,
    }
}

/// The bound the spreads justify for `def`: its declared bound, raised —
/// in steps of 0.05, up to [`MAX_BOUND`] — until the worst spread seen
/// fits under it.
pub fn justified_bound(def: &MetricDef, worst_spread: f64) -> f64 {
    let declared = def.bound.unwrap_or(MAX_BOUND);
    if def.name == "setup_s" {
        return declared;
    }
    let mut bound = declared;
    while worst_spread > bound && bound < MAX_BOUND {
        bound = (bound + 0.05).min(MAX_BOUND);
    }
    (bound * 100.0).round() / 100.0
}

/// Renders `BENCHMARK.json` from the metric tables with the given bounds
/// (declared bounds where `bounds` has no entry).
pub fn benchmark_json(bounds: &BTreeMap<&str, f64>) -> String {
    let quote = |s: &str| json::to_string(&Value::Str(s.to_string()));
    let list = |items: Vec<String>| items.join(", ");
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"command\": [{}],\n",
        list(COMMAND.iter().map(|s| quote(s)).collect())
    ));
    out.push_str(&format!(
        "  \"paths\": [{}],\n",
        list(PATHS.iter().map(|s| quote(s)).collect())
    ));
    out.push_str(&format!(
        "  \"run_seconds\": {},\n",
        crate::DEFAULT_SECONDS as u64
    ));
    let workloads: Vec<String> = Workload::DECLARED
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name()),
                quote(w.why())
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"workloads\": [\n{}\n  ],\n",
        workloads.join(",\n")
    ));
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            let bound = bounds.get(m.name).copied().or(m.bound).unwrap_or(MAX_BOUND);
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        })
        .collect();
    out.push_str(&format!("  \"end_to_end\": [\n{}\n  ],\n", e2e.join(",\n")));
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"per_layer\": [\n{}\n  ]\n}}\n",
        layers.join(",\n")
    ));
    out
}

/// Where `BENCHMARK.json` lives: the checkout root.
fn benchmark_json_path() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("BENCHMARK.json")
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
    }
}

/// Runs the calibration; `Ok(true)` when every check passed.
pub fn run(args: &[String]) -> Result<bool, String> {
    let o = parse(args)?;
    let mut ok = true;

    println!("== repeatability: traced run twice, seed {} ==", o.seed);
    for &w in &o.workloads {
        let a = child_run(w, o.seed, o.seconds, true)?;
        let b = child_run(w, o.seed, o.seconds, true)?;
        for def in PER_LAYER.iter().filter(|d| d.exact) {
            let show = |r: &ChildResult| {
                r.metrics
                    .get(def.name)
                    .map_or("missing".to_string(), f64::to_string)
            };
            let (x, y) = (show(&a), show(&b));
            let same = x == y && x != "missing";
            println!(
                "{:<15} {:<28} {x:>16} {y:>16} {}",
                w.name(),
                def.name,
                if same { "identical" } else { "DIFFERS" }
            );
            ok &= same;
        }
    }

    println!(
        "== spread: {} end-to-end runs per workload, seeds {}..{} ==",
        o.runs,
        o.seed,
        o.seed + o.runs as u64 - 1
    );
    let mut worst: BTreeMap<&str, f64> = BTreeMap::new();
    for &w in &o.workloads {
        let runs: Vec<ChildResult> = (0..o.runs as u64)
            .map(|i| child_run(w, o.seed + i, o.seconds, false))
            .collect::<Result<_, _>>()?;
        for def in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(def.name).copied())
                .collect();
            if values.len() != runs.len() {
                println!("{:<15} {:<18} MISSING from some run", w.name(), def.name);
                ok = false;
                continue;
            }
            let verdict = judge(def, &values);
            println!(
                "{:<15} {:<18} median {:>14.4} {:<8} spread {:>6.2}% bound {:>5.1}% {}",
                w.name(),
                def.name,
                verdict.median,
                def.unit,
                verdict.spread * 100.0,
                def.bound.unwrap_or(MAX_BOUND) * 100.0,
                verdict.label
            );
            println!("    values {values:?}");
            if def.name != "setup_s" {
                let entry = worst.entry(def.name).or_insert(0.0);
                *entry = entry.max(verdict.spread);
            }
            ok &= verdict.label != "demote";
        }
    }

    let bounds: BTreeMap<&str, f64> = END_TO_END
        .iter()
        .map(|def| {
            let spread = worst.get(def.name).copied().unwrap_or(0.0);
            (def.name, justified_bound(def, spread))
        })
        .collect();
    println!("== bounds the spreads justify ==");
    for def in END_TO_END {
        println!(
            "{:<18} declared {:>5.1}%  justified {:>5.1}%",
            def.name,
            def.bound.unwrap_or(MAX_BOUND) * 100.0,
            bounds[def.name] * 100.0
        );
    }
    if o.write {
        let path = benchmark_json_path();
        std::fs::write(&path, benchmark_json(&bounds))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        crate::metrics::find(name).unwrap()
    }

    #[test]
    fn verdicts_follow_the_third_of_bound_rule() {
        let rss = def("peak_rss_mb"); // bound 0.15
        let steady: Vec<f64> = (0..10).map(|i| 2.0 + 0.005 * i as f64).collect();
        assert_eq!(judge(rss, &steady).label, "steady");
        let tolerated: Vec<f64> = (0..10).map(|i| 2.0 + 0.04 * i as f64).collect();
        assert_eq!(judge(rss, &tolerated).label, "tolerated");
        let raise: Vec<f64> = (0..10).map(|i| 2.0 + 0.09 * i as f64).collect();
        assert_eq!(judge(rss, &raise).label, "raise");
        let demote: Vec<f64> = (0..10).map(|i| 2.0 + 0.4 * i as f64).collect();
        assert_eq!(judge(rss, &demote).label, "demote");
        // setup_s is exempt from the spread rule.
        assert_eq!(judge(def("setup_s"), &demote).label, "tolerated");
    }

    #[test]
    fn justified_bounds_only_ever_rise_and_stay_capped() {
        let rss = def("peak_rss_mb");
        assert_eq!(justified_bound(rss, 0.01), 0.15);
        assert_eq!(justified_bound(rss, 0.17), 0.2);
        assert_eq!(justified_bound(rss, 0.9), MAX_BOUND);
        assert_eq!(justified_bound(def("setup_s"), 0.9), 0.25);
    }

    #[test]
    fn result_lines_parse_back() {
        let line = r#"{"attempted":10,"correct":true,"failed":0,"metrics":{"solve_s":{"unit":"s","value":1.5},"benefit_mc":{"unit":"benefit","value":1608.0}}}"#;
        let parsed = parse_result_line(line).unwrap();
        assert!(parsed.correct);
        assert_eq!(parsed.metrics["solve_s"], 1.5);
        assert_eq!(parsed.metrics["benefit_mc"], 1608.0);
        assert!(parse_result_line("not json").is_err());
    }

    /// The committed `BENCHMARK.json` says what the tables say: same
    /// command, paths, workloads, metric names, units and directions;
    /// bounds at least the declared ones and at most 0.25.
    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let value = json::parse(&text).expect("BENCHMARK.json is JSON");
        let keys: Vec<&str> = value
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let strings = |key: &str| -> Vec<String> {
            value
                .get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|v| v.as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(strings("command"), COMMAND);
        assert_eq!(strings("paths"), PATHS);
        assert_eq!(
            value.get("run_seconds").and_then(Value::as_u64),
            Some(crate::DEFAULT_SECONDS as u64)
        );
        let workloads = value.get("workloads").and_then(Value::as_array).unwrap();
        assert_eq!(workloads.len(), Workload::DECLARED.len());
        for (w, entry) in Workload::DECLARED.iter().zip(workloads) {
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(w.name()));
            assert_eq!(entry.get("why").and_then(Value::as_str), Some(w.why()));
        }
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = value.get(key).and_then(Value::as_array).unwrap();
            assert_eq!(entries.len(), table.len(), "{key}");
            for (def, entry) in table.iter().zip(entries) {
                assert_eq!(entry.get("name").and_then(Value::as_str), Some(def.name));
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(def.unit));
                assert_eq!(
                    entry.get("better").and_then(Value::as_str),
                    Some(def.better.as_str())
                );
                match def.bound {
                    Some(declared) => {
                        let bound = entry.get("bound").and_then(Value::as_f64).unwrap();
                        assert!(bound >= declared && bound <= MAX_BOUND, "{}", def.name);
                    }
                    None => assert!(entry.get("bound").is_none(), "{}", def.name),
                }
            }
        }
        // Regenerating from the committed bounds reproduces the file.
        let bounds: BTreeMap<&str, f64> = END_TO_END
            .iter()
            .zip(value.get("end_to_end").and_then(Value::as_array).unwrap())
            .map(|(d, e)| (d.name, e.get("bound").and_then(Value::as_f64).unwrap()))
            .collect();
        assert_eq!(benchmark_json(&bounds), text);
    }
}
