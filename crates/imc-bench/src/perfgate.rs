//! `imc-bench perf-gate` — the performance regression gate.
//!
//! Compares freshly generated `BENCH_ric.json` / `BENCH_solver.json` /
//! `BENCH_service.json` against the committed baselines at the
//! repository root, with schema-aware tolerances:
//!
//! * `seeds_identical: false` in a candidate solver **or RIC** record
//!   **always** fails the gate — determinism regressions are never
//!   tolerable. The same holds for the cluster artifact's
//!   `seeds_identical` / `evaluations_identical` / `eval_roundtrip`
//!   flags (on *either* side: a broken committed baseline also fails).
//! * `BENCH_service.json` is optional on the candidate side only —
//!   `--quick` CI runs regenerate just the solver/RIC files, so a
//!   missing cluster candidate earns a note, never a failure.
//! * Wall-time rows are compared only between *matching workloads*
//!   (same dataset, sample count, `k`, and — for the solver table —
//!   the same `(strategy, threads)` pair). A quick-mode candidate
//!   measured against the committed full-mode baseline skips the
//!   wall-time rows with a note instead of comparing apples to oranges;
//!   this is what keeps the `--quick` CI job non-flaky.
//! * A matched wall-time row fails when the candidate is more than
//!   `tolerance` (default 25%) slower than the baseline. The snapshot
//!   codec rows (v3 parse / v3 view) additionally get 50ms
//!   of absolute slack: they are single-shot, millisecond-scale
//!   timings, and a real regression there is orders of magnitude.
//! * Evaluation counts and memory sizes are reported in the trend table
//!   but never fail the gate on their own: they change legitimately when
//!   the engine changes, and the wall clock is the quantity the gate
//!   protects.
//!
//! The gate prints a trend table (`baseline → candidate → ratio →
//! status` per metric) and exits nonzero on any failure. `--report FILE`
//! additionally writes the table plus verdict to a file CI can archive.

use imc_service::json::{self, Value};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Solver schema this gate understands.
pub const SOLVER_SCHEMA: &str = "imc-bench/solver/v1";
/// RIC schema this gate understands.
pub const RIC_SCHEMA: &str = "imc-bench/ric/v4";
/// Cluster service schema this gate understands (`BENCH_service.json`,
/// written by the `cluster-runner` binary in `imc-cluster`).
pub const SERVICE_SCHEMA: &str = "imc-bench/service/v1";

/// Gate configuration (see module docs).
#[derive(Debug, Clone)]
pub struct GateOptions {
    /// Directory holding the baseline `BENCH_*.json` (the repo root in
    /// CI).
    pub baseline_dir: PathBuf,
    /// Directory holding the candidate `BENCH_*.json` from a fresh run.
    pub candidate_dir: PathBuf,
    /// Maximum tolerated wall-time regression as a fraction (0.25 =
    /// fail when a candidate row is >25% slower than baseline).
    pub tolerance: f64,
    /// Optional report file for CI artifacts.
    pub report_path: Option<PathBuf>,
}

impl Default for GateOptions {
    fn default() -> Self {
        GateOptions {
            baseline_dir: PathBuf::from("."),
            candidate_dir: PathBuf::from("."),
            tolerance: 0.25,
            report_path: None,
        }
    }
}

/// The gate's verdict plus the rendered report.
#[derive(Debug)]
pub struct GateOutcome {
    /// `true` when no check failed.
    pub passed: bool,
    /// Human-readable trend table, notes and verdict.
    pub report: String,
}

/// One trend-table row.
struct TrendRow {
    metric: String,
    baseline: String,
    candidate: String,
    ratio: Option<f64>,
    status: &'static str,
}

/// Accumulates rows, notes and failures across both bench files.
#[derive(Default)]
struct Gate {
    rows: Vec<TrendRow>,
    notes: Vec<String>,
    failures: Vec<String>,
}

impl Gate {
    fn fail(&mut self, message: impl Into<String>) {
        self.failures.push(message.into());
    }

    fn note(&mut self, message: impl Into<String>) {
        self.notes.push(message.into());
    }

    /// Adds one compared wall-time row, failing the gate when the
    /// candidate regressed past `tolerance`.
    fn compare_seconds(&mut self, metric: &str, baseline: f64, candidate: f64, tolerance: f64) {
        self.compare_seconds_with_slack(metric, baseline, candidate, tolerance, 0.0);
    }

    /// Like [`compare_seconds`](Self::compare_seconds) but with an
    /// absolute slack added to the allowance: the row fails only when
    /// `candidate > baseline * (1 + tolerance) + slack`. Millisecond-scale
    /// single-shot timings (snapshot parse/view) need this — a 2µs→5µs
    /// scheduler hiccup is a 2.5x ratio but not a regression.
    fn compare_seconds_with_slack(
        &mut self,
        metric: &str,
        baseline: f64,
        candidate: f64,
        tolerance: f64,
        slack: f64,
    ) {
        let ratio = if baseline > 0.0 {
            candidate / baseline
        } else {
            f64::INFINITY
        };
        let regressed = candidate > baseline * (1.0 + tolerance) + slack;
        if regressed {
            self.fail(format!(
                "{metric}: {candidate:.6}s is {ratio:.2}x the baseline {baseline:.6}s \
                 (tolerance {:.0}%)",
                tolerance * 100.0
            ));
        }
        self.rows.push(TrendRow {
            metric: metric.to_string(),
            baseline: format!("{baseline:.6}s"),
            candidate: format!("{candidate:.6}s"),
            ratio: Some(ratio),
            status: if regressed { "FAIL" } else { "ok" },
        });
    }

    /// Adds an informational (never-failing) row.
    fn info_row(&mut self, metric: &str, baseline: String, candidate: String, ratio: Option<f64>) {
        self.rows.push(TrendRow {
            metric: metric.to_string(),
            baseline,
            candidate,
            ratio,
            status: "info",
        });
    }

    fn render(&self, passed: bool) -> String {
        let mut out = String::from("perf-gate trend table\n");
        let width = self
            .rows
            .iter()
            .map(|r| r.metric.len())
            .max()
            .unwrap_or(6)
            .max("metric".len());
        let _ = writeln!(
            out,
            "{:width$}  {:>14}  {:>14}  {:>7}  status",
            "metric", "baseline", "candidate", "ratio"
        );
        for row in &self.rows {
            let ratio = row
                .ratio
                .map_or_else(|| "-".to_string(), |r| format!("{r:.2}x"));
            let _ = writeln!(
                out,
                "{:width$}  {:>14}  {:>14}  {:>7}  {}",
                row.metric, row.baseline, row.candidate, ratio, row.status
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        for failure in &self.failures {
            let _ = writeln!(out, "FAIL: {failure}");
        }
        let _ = writeln!(out, "verdict: {}", if passed { "PASS" } else { "FAIL" });
        out
    }
}

fn load(path: &Path) -> io::Result<Value> {
    let text = std::fs::read_to_string(path)?;
    json::parse(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

fn str_field(v: &Value, key: &str) -> Option<String> {
    v.get(key).and_then(|f| f.as_str()).map(String::from)
}

fn f64_field(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

fn u64_field(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

/// Checks both files carry the expected schema tag; a mismatch means the
/// formats drifted and every other comparison would be meaningless.
fn check_schema(gate: &mut Gate, file: &str, expected: &str, base: &Value, cand: &Value) -> bool {
    let mut ok = true;
    for (side, v) in [("baseline", base), ("candidate", cand)] {
        let got = str_field(v, "schema").unwrap_or_default();
        if got != expected {
            gate.fail(format!(
                "{file}: {side} schema is `{got}`, gate understands `{expected}`"
            ));
            ok = false;
        }
    }
    ok
}

/// Gates the solver table (`BENCH_solver.json`).
fn gate_solver(gate: &mut Gate, base: &Value, cand: &Value, tolerance: f64) {
    if !check_schema(gate, "BENCH_solver.json", SOLVER_SCHEMA, base, cand) {
        return;
    }
    // Determinism is workload-independent: a fresh quick run proving
    // seeds differ across strategies fails the gate outright.
    match cand.get("seeds_identical").and_then(Value::as_bool) {
        Some(true) => {}
        Some(false) => gate.fail(
            "BENCH_solver.json: candidate reports seeds_identical=false — \
             strategies no longer agree on the seed set",
        ),
        None => gate.fail("BENCH_solver.json: candidate is missing `seeds_identical`"),
    }
    let workload = |v: &Value| {
        (
            str_field(v, "dataset").unwrap_or_default(),
            str_field(v, "objective").unwrap_or_default(),
            u64_field(v, "samples").unwrap_or(0),
            u64_field(v, "k").unwrap_or(0),
        )
    };
    let (bw, cw) = (workload(base), workload(cand));
    if bw != cw {
        gate.note(format!(
            "BENCH_solver.json: workloads differ (baseline {}/{} samples={} k={}, \
             candidate {}/{} samples={} k={}); wall-time rows skipped",
            bw.0, bw.1, bw.2, bw.3, cw.0, cw.1, cw.2, cw.3
        ));
        return;
    }
    let rows = |v: &Value| -> Vec<(String, u64, f64, u64)> {
        v.get("strategies")
            .and_then(Value::as_array)
            .map(|arr| {
                arr.iter()
                    .filter_map(|row| {
                        Some((
                            str_field(row, "strategy")?,
                            u64_field(row, "threads")?,
                            f64_field(row, "seconds")?,
                            u64_field(row, "evaluations")?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let base_rows = rows(base);
    let cand_rows = rows(cand);
    for (strategy, threads, base_secs, base_evals) in &base_rows {
        let Some((_, _, cand_secs, cand_evals)) = cand_rows
            .iter()
            .find(|(s, t, _, _)| s == strategy && t == threads)
        else {
            gate.fail(format!(
                "BENCH_solver.json: candidate lost the `{strategy}` t{threads} row"
            ));
            continue;
        };
        let metric = format!("solver {strategy} t{threads}");
        gate.compare_seconds(&metric, *base_secs, *cand_secs, tolerance);
        if cand_evals != base_evals {
            gate.info_row(
                &format!("{metric} evaluations"),
                base_evals.to_string(),
                cand_evals.to_string(),
                Some(*cand_evals as f64 / (*base_evals).max(1) as f64),
            );
        }
    }
}

/// Gates the RIC microbenchmarks (`BENCH_ric.json`).
fn gate_ric(gate: &mut Gate, base: &Value, cand: &Value, tolerance: f64) {
    if !check_schema(gate, "BENCH_ric.json", RIC_SCHEMA, base, cand) {
        return;
    }
    // Determinism is workload-independent: the store, a decoded v3
    // snapshot, and the zero-copy view must all drive the solver to the
    // same seed set, even on a quick run.
    match cand.get("seeds_identical").and_then(Value::as_bool) {
        Some(true) => {}
        Some(false) => gate.fail(
            "BENCH_ric.json: candidate reports seeds_identical=false — \
             snapshot paths no longer reproduce the store's seed set",
        ),
        None => gate.fail("BENCH_ric.json: candidate is missing `seeds_identical`"),
    }
    let eval_workload = |v: &Value| {
        let e = v.get("evaluation");
        (
            str_field(v, "dataset").unwrap_or_default(),
            u64_field(v, "samples").unwrap_or(0),
            e.and_then(|e| u64_field(e, "seed_sets")).unwrap_or(0),
            e.and_then(|e| u64_field(e, "seeds_per_set")).unwrap_or(0),
        )
    };
    let (bw, cw) = (eval_workload(base), eval_workload(cand));
    if bw != cw {
        gate.note(format!(
            "BENCH_ric.json: workloads differ (baseline {} samples={} sets={}x{}, \
             candidate {} samples={} sets={}x{}); wall-time rows skipped",
            bw.0, bw.1, bw.2, bw.3, cw.0, cw.1, cw.2, cw.3
        ));
        return;
    }
    let nested_f64 = |v: &Value, path: &[&str]| -> Option<f64> {
        let mut cur = v;
        for key in &path[..path.len() - 1] {
            cur = cur.get(key)?;
        }
        f64_field(cur, path[path.len() - 1])
    };
    for (metric, path) in [
        ("ric generation", &["generation", "seconds"] as &[&str]),
        ("ric eval store", &["evaluation", "store", "seconds"]),
        ("ric eval kernel", &["evaluation", "kernel", "seconds"]),
    ] {
        match (nested_f64(base, path), nested_f64(cand, path)) {
            (Some(b), Some(c)) => gate.compare_seconds(metric, b, c, tolerance),
            _ => gate.fail(format!("BENCH_ric.json: `{}` missing", path.join("."))),
        }
    }
    // Snapshot codec wall times: single-shot and millisecond-scale, so
    // the ratio check gets 50ms of absolute slack on top of the usual
    // tolerance. A real regression (index rebuild sneaking back into the
    // v3 path, validation going quadratic) is orders of magnitude, not
    // milliseconds.
    for (metric, path) in [
        (
            "ric snapshot v3 parse",
            &["snapshot", "v3_parse_seconds"] as &[&str],
        ),
        ("ric snapshot v3 view", &["snapshot", "v3_view_seconds"]),
    ] {
        match (nested_f64(base, path), nested_f64(cand, path)) {
            (Some(b), Some(c)) => {
                gate.compare_seconds_with_slack(metric, b, c, tolerance, 0.050);
            }
            _ => gate.fail(format!("BENCH_ric.json: `{}` missing", path.join("."))),
        }
    }
    let arena = |v: &Value| {
        v.get("memory")
            .and_then(|m| u64_field(m, "arena_bytes"))
            .unwrap_or(0)
    };
    let (ba, ca) = (arena(base), arena(cand));
    if ba != ca {
        gate.info_row(
            "ric arena_bytes",
            ba.to_string(),
            ca.to_string(),
            Some(ca as f64 / ba.max(1) as f64),
        );
    }
}

/// Validates one side's determinism flags; any `false` (or a missing
/// flag) is a hard failure — distributed/single-node divergence is
/// never a tolerable regression.
fn service_flags(gate: &mut Gate, side: &str, v: &Value) {
    for flag in ["seeds_identical", "evaluations_identical", "eval_roundtrip"] {
        match v.get(flag).and_then(Value::as_bool) {
            Some(true) => {}
            Some(false) => gate.fail(format!(
                "BENCH_service.json: {side} reports {flag}=false — the cluster \
                 no longer matches the single-node solver"
            )),
            None => gate.fail(format!("BENCH_service.json: {side} is missing `{flag}`")),
        }
    }
}

/// Gates the cluster artifact (`BENCH_service.json`).
///
/// The committed baseline is always validated. The candidate is
/// optional: the `--quick` CI path regenerates only the solver/RIC
/// files, so its absence earns a note, not a failure. When present it
/// must carry the right schema and clean determinism flags, and its
/// solve wall time is compared on matching workloads.
fn gate_service(gate: &mut Gate, base: &Value, cand: Option<&Value>, tolerance: f64) {
    let schema_ok = |gate: &mut Gate, side: &str, v: &Value| -> bool {
        let got = str_field(v, "schema").unwrap_or_default();
        if got != SERVICE_SCHEMA {
            gate.fail(format!(
                "BENCH_service.json: {side} schema is `{got}`, gate understands `{SERVICE_SCHEMA}`"
            ));
        }
        got == SERVICE_SCHEMA
    };
    if !schema_ok(gate, "baseline", base) {
        return;
    }
    service_flags(gate, "baseline", base);
    let Some(cand) = cand else {
        gate.note(
            "BENCH_service.json: no candidate (quick runs skip the cluster); \
             baseline validated only",
        );
        return;
    };
    if !schema_ok(gate, "candidate", cand) {
        return;
    }
    service_flags(gate, "candidate", cand);
    let workload = |v: &Value| {
        (
            str_field(v, "dataset").unwrap_or_default(),
            u64_field(v, "samples").unwrap_or(0),
            u64_field(v, "k").unwrap_or(0),
            u64_field(v, "shards").unwrap_or(0),
        )
    };
    let (bw, cw) = (workload(base), workload(cand));
    if bw != cw {
        gate.note(format!(
            "BENCH_service.json: workloads differ (baseline {} samples={} k={} shards={}, \
             candidate {} samples={} k={} shards={}); wall-time rows skipped",
            bw.0, bw.1, bw.2, bw.3, cw.0, cw.1, cw.2, cw.3
        ));
        return;
    }
    let solve_secs = |v: &Value| v.get("solve").and_then(|s| f64_field(s, "seconds"));
    match (solve_secs(base), solve_secs(cand)) {
        (Some(b), Some(c)) => gate.compare_seconds("service cluster solve", b, c, tolerance),
        _ => gate.fail("BENCH_service.json: `solve.seconds` missing"),
    }
    // Load-phase numbers trend but never fail on their own: throughput
    // and tail latency on shared CI machines are too noisy to gate.
    let load_f64 = |v: &Value, key: &str| v.get("load").and_then(|l| f64_field(l, key));
    if let (Some(b), Some(c)) = (
        load_f64(base, "throughput_rps"),
        load_f64(cand, "throughput_rps"),
    ) {
        gate.info_row(
            "service load throughput_rps",
            format!("{b:.1}"),
            format!("{c:.1}"),
            Some(c / b.max(f64::MIN_POSITIVE)),
        );
    }
    let load_u64 = |v: &Value, key: &str| v.get("load").and_then(|l| u64_field(l, key));
    if let (Some(b), Some(c)) = (load_u64(base, "p99_us"), load_u64(cand, "p99_us")) {
        gate.info_row(
            "service load p99_us",
            b.to_string(),
            c.to_string(),
            Some(c as f64 / b.max(1) as f64),
        );
    }
}

/// Runs the gate: loads both bench files from each directory, compares,
/// renders the report (optionally to `report_path`).
///
/// # Errors
///
/// I/O or JSON-parse failure on any of the four files. A *failing gate*
/// is not an error — inspect [`GateOutcome::passed`].
pub fn run(options: &GateOptions) -> io::Result<GateOutcome> {
    let mut gate = Gate::default();
    for (file, checker) in [
        (
            "BENCH_solver.json",
            gate_solver as fn(&mut Gate, &Value, &Value, f64),
        ),
        ("BENCH_ric.json", gate_ric),
    ] {
        let base = load(&options.baseline_dir.join(file))?;
        let cand = load(&options.candidate_dir.join(file))?;
        checker(&mut gate, &base, &cand, options.tolerance);
    }
    let service_base = load(&options.baseline_dir.join("BENCH_service.json"))?;
    let service_cand_path = options.candidate_dir.join("BENCH_service.json");
    let service_cand = if service_cand_path.exists() {
        Some(load(&service_cand_path)?)
    } else {
        None
    };
    gate_service(
        &mut gate,
        &service_base,
        service_cand.as_ref(),
        options.tolerance,
    );
    let passed = gate.failures.is_empty();
    let report = gate.render(passed);
    if let Some(path) = &options.report_path {
        std::fs::write(path, &report)?;
    }
    Ok(GateOutcome { passed, report })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The repository root holding the committed baselines.
    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("imc-perfgate-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Copies the committed baselines into `dir`, applying `edit` to the
    /// solver JSON text first.
    fn stage_candidate(dir: &Path, edit_solver: impl Fn(String) -> String) {
        let root = repo_root();
        let solver = std::fs::read_to_string(root.join("BENCH_solver.json")).unwrap();
        std::fs::write(dir.join("BENCH_solver.json"), edit_solver(solver)).unwrap();
        std::fs::copy(root.join("BENCH_ric.json"), dir.join("BENCH_ric.json")).unwrap();
    }

    #[test]
    fn committed_baselines_pass_against_themselves() {
        let options = GateOptions {
            baseline_dir: repo_root(),
            candidate_dir: repo_root(),
            ..GateOptions::default()
        };
        let outcome = run(&options).unwrap();
        assert!(outcome.passed, "{}", outcome.report);
        assert!(outcome.report.contains("verdict: PASS"));
        assert!(outcome.report.contains("solver sequential t1"));
        assert!(outcome.report.contains("ric eval store"));
    }

    /// Re-emits the committed solver baseline with every strategy's wall
    /// time multiplied by `scale` — a synthetic slowdown.
    fn scaled_solver(scale: f64) -> String {
        solver_candidate(scale, true, 0)
    }

    /// Re-emits the committed solver baseline with a wall-time `scale`,
    /// an explicit `seeds_identical` flag, and `k` shifted by `k_shift`
    /// (a nonzero shift makes the workload mismatch the baseline).
    fn solver_candidate(scale: f64, seeds_identical: bool, k_shift: u64) -> String {
        let text = std::fs::read_to_string(repo_root().join("BENCH_solver.json")).unwrap();
        let v = json::parse(&text).unwrap();
        let rows: Vec<String> = v
            .get("strategies")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|row| {
                format!(
                    r#"{{ "strategy": "{}", "threads": {}, "seconds": {}, "evaluations": {}, "speedup_vs_sequential": 1.0 }}"#,
                    row.get("strategy").unwrap().as_str().unwrap(),
                    row.get("threads").unwrap().as_u64().unwrap(),
                    row.get("seconds").unwrap().as_f64().unwrap() * scale,
                    row.get("evaluations").unwrap().as_u64().unwrap(),
                )
            })
            .collect();
        format!(
            r#"{{ "schema": "{SOLVER_SCHEMA}", "dataset": "{}", "objective": "{}",
                 "samples": {}, "k": {}, "runs_per_strategy": 3, "seeds_identical": {seeds_identical},
                 "strategies": [{}] }}"#,
            v.get("dataset").unwrap().as_str().unwrap(),
            v.get("objective").unwrap().as_str().unwrap(),
            v.get("samples").unwrap().as_u64().unwrap(),
            v.get("k").unwrap().as_u64().unwrap() + k_shift,
            rows.join(",")
        )
    }

    #[test]
    fn doubled_wall_time_fails_the_gate() {
        let dir = temp_dir("2x");
        stage_candidate(&dir, |_| scaled_solver(2.0));
        let options = GateOptions {
            baseline_dir: repo_root(),
            candidate_dir: dir.clone(),
            report_path: Some(dir.join("report.txt")),
            ..GateOptions::default()
        };
        let outcome = run(&options).unwrap();
        assert!(
            !outcome.passed,
            "2x regression must fail:\n{}",
            outcome.report
        );
        assert!(outcome.report.contains("FAIL"));
        assert!(outcome.report.contains("2.00x"));
        // The report artifact landed where CI will pick it up.
        let written = std::fs::read_to_string(dir.join("report.txt")).unwrap();
        assert_eq!(written, outcome.report);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seeds_identical_false_fails_even_across_workloads() {
        let dir = temp_dir("seeds");
        // Quick-style candidate: different workload AND broken seeds.
        stage_candidate(&dir, |_| solver_candidate(1.0, false, 5));
        let options = GateOptions {
            baseline_dir: repo_root(),
            candidate_dir: dir.clone(),
            ..GateOptions::default()
        };
        let outcome = run(&options).unwrap();
        assert!(!outcome.passed);
        assert!(outcome.report.contains("seeds_identical=false"));
        // Mismatched workload skipped the wall rows with a note.
        assert!(outcome.report.contains("wall-time rows skipped"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quick_candidate_against_full_baseline_passes_with_note() {
        let dir = temp_dir("quick");
        stage_candidate(&dir, |_| solver_candidate(3.0, true, 5));
        let options = GateOptions {
            baseline_dir: repo_root(),
            candidate_dir: dir.clone(),
            ..GateOptions::default()
        };
        let outcome = run(&options).unwrap();
        assert!(outcome.passed, "{}", outcome.report);
        assert!(outcome.report.contains("wall-time rows skipped"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absent_service_candidate_passes_with_note() {
        let dir = temp_dir("svc-absent");
        // Identical solver/RIC candidates, but no BENCH_service.json.
        stage_candidate(&dir, |s| s);
        let options = GateOptions {
            baseline_dir: repo_root(),
            candidate_dir: dir.clone(),
            ..GateOptions::default()
        };
        let outcome = run(&options).unwrap();
        assert!(outcome.passed, "{}", outcome.report);
        assert!(outcome.report.contains("quick runs skip the cluster"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn service_candidate_with_broken_seed_identity_fails() {
        let dir = temp_dir("svc-seeds");
        stage_candidate(&dir, |s| s);
        let service = std::fs::read_to_string(repo_root().join("BENCH_service.json")).unwrap();
        std::fs::write(
            dir.join("BENCH_service.json"),
            service.replace("\"seeds_identical\":true", "\"seeds_identical\":false"),
        )
        .unwrap();
        let options = GateOptions {
            baseline_dir: repo_root(),
            candidate_dir: dir.clone(),
            ..GateOptions::default()
        };
        let outcome = run(&options).unwrap();
        assert!(!outcome.passed);
        assert!(outcome
            .report
            .contains("no longer matches the single-node solver"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn service_candidate_with_wrong_schema_fails() {
        let dir = temp_dir("svc-schema");
        stage_candidate(&dir, |s| s);
        let service = std::fs::read_to_string(repo_root().join("BENCH_service.json")).unwrap();
        std::fs::write(
            dir.join("BENCH_service.json"),
            service.replace(SERVICE_SCHEMA, "imc-bench/service/v0"),
        )
        .unwrap();
        let options = GateOptions {
            baseline_dir: repo_root(),
            candidate_dir: dir.clone(),
            ..GateOptions::default()
        };
        let outcome = run(&options).unwrap();
        assert!(!outcome.passed);
        assert!(outcome
            .report
            .contains("gate understands `imc-bench/service/v1`"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn within_tolerance_slowdown_passes() {
        let dir = temp_dir("tol");
        // A uniform 20% slowdown stays inside the default 25% tolerance.
        stage_candidate(&dir, |_| scaled_solver(1.2));
        let options = GateOptions {
            baseline_dir: repo_root(),
            candidate_dir: dir.clone(),
            ..GateOptions::default()
        };
        let outcome = run(&options).unwrap();
        assert!(outcome.passed, "{}", outcome.report);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
