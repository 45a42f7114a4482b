//! Solve-timeline reconstruction from JSONL trace files.
//!
//! The trace sink ([`crate::trace`]) writes flat JSON objects — span
//! events (`kind":"span"`, emitted when a [`crate::Span`] closes) and
//! free-form events (`round_attribution`, `retry_probe`, …). This
//! module stitches one or more such files — typically the coordinator's
//! plus one per shard daemon — back into a per-solve span tree and
//! answers the operator's questions: where did the wall time go, which
//! shard was the straggler each round, and what did the fault-recovery
//! machinery do.
//!
//! Two steps:
//!
//! 1. **Parse** — each line goes through the workspace's JSON codec
//!    ([`crate::json`]); lines that are truncated (a process died
//!    mid-write), not JSON, or not an object of scalar values are counted
//!    and skipped, never fatal.
//! 2. **Analyze** — build the span tree per `trace_id` (a shard file's
//!    `rpc_server` spans nest under the coordinator's `rpc_client` spans
//!    through `parent_span_id`), compute the critical path (at every
//!    level, the child that finishes last), fold the per-round
//!    `round_attribution` events into a compute/scatter-wait/reduce
//!    table naming the straggler shard, and render a human report plus
//!    flamegraph-compatible folded stacks.
//!
//! Timestamps are kept exactly as written: every coordinator and shard
//! daemon this workspace starts runs in one process, on one clock.

use crate::json::{self, Value};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// A trace line the stitcher keeps: one JSON object whose values are all
/// scalars. Anything else — a torn tail, a nested value, not JSON — is a
/// skipped line.
fn scalar_object(line: &str) -> Option<BTreeMap<String, Value>> {
    match json::parse(line) {
        Ok(Value::Object(obj))
            if obj
                .values()
                .all(|v| !matches!(v, Value::Array(_) | Value::Object(_))) =>
        {
            Some(obj)
        }
        _ => None,
    }
}

/// One span reconstructed from a `kind":"span"` event.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span's own id.
    pub span_id: String,
    /// Span name (`cluster_solve`, `scatter_round`, `rpc_client`, …).
    pub name: String,
    /// The qualifier the span was opened with (may be empty).
    pub detail: String,
    /// Start, UNIX microseconds.
    pub start_us: i64,
    /// End, UNIX microseconds.
    pub end_us: i64,
    /// Parent span id, when the span was nested.
    pub parent_span_id: Option<String>,
    /// Index of the source file the span came from.
    pub file: usize,
    /// Child span indices (into [`Timeline::spans`]), in start order.
    pub children: Vec<usize>,
}

impl SpanNode {
    /// The span's duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us).max(0) as f64 / 1e6
    }
}

/// One non-span event.
#[derive(Debug, Clone)]
pub struct EventNode {
    /// The event's `kind` field.
    pub kind: String,
    /// Timestamp, UNIX microseconds.
    pub ts_us: i64,
    /// Enclosing span id at emit time, when a span was open.
    pub parent_span_id: Option<String>,
    /// Index of the source file the event came from.
    pub file: usize,
    /// All fields of the line (including the ones lifted above).
    pub fields: BTreeMap<String, Value>,
}

/// One scatter round's wall-time attribution, decoded from a
/// `round_attribution` event.
#[derive(Debug, Clone)]
pub struct Round {
    /// `"c"` (ĉ fan-out) or `"nu"` (ν fan-out).
    pub objective: String,
    /// Candidate nodes evaluated this round.
    pub batch: u64,
    /// Shards that answered.
    pub shards: u64,
    /// Wall seconds of the fan-out (scatter + slowest shard + gather).
    pub scatter_s: f64,
    /// Wall seconds of the coordinator-side reduce.
    pub reduce_s: f64,
    /// Address of the slowest shard this round.
    pub straggler: String,
    /// The straggler's RPC seconds.
    pub straggler_s: f64,
    /// The fastest shard's RPC seconds (the straggler's headroom).
    pub fastest_s: f64,
    /// Event timestamp, UNIX microseconds.
    pub ts_us: i64,
}

/// One kept trace line: the index of its file and its fields.
type Line = (usize, BTreeMap<String, Value>);

/// Everything parsed from one set of trace files, grouped by trace id.
#[derive(Debug, Default)]
pub struct TraceSet {
    /// Span events per trace id (file index, raw object).
    spans: HashMap<String, Vec<Line>>,
    /// Non-span events per trace id; events with no trace id are
    /// dropped.
    events: HashMap<String, Vec<Line>>,
    /// Input file labels, index-aligned with the `file` fields.
    pub files: Vec<String>,
    /// Lines that failed to parse, per file.
    pub skipped: Vec<usize>,
}

impl TraceSet {
    /// Parses `(label, contents)` pairs — one per trace file. Unparsable
    /// lines are counted in [`TraceSet::skipped`] and dropped.
    pub fn parse(inputs: &[(String, String)]) -> TraceSet {
        let mut set = TraceSet {
            files: inputs.iter().map(|(label, _)| label.clone()).collect(),
            skipped: vec![0; inputs.len()],
            ..TraceSet::default()
        };
        for (file, (_, contents)) in inputs.iter().enumerate() {
            for line in contents.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                let Some(obj) = scalar_object(line) else {
                    set.skipped[file] += 1;
                    continue;
                };
                let Some(id) = obj.get("trace_id").and_then(Value::as_str) else {
                    continue;
                };
                let lines = if obj.get("kind").and_then(Value::as_str) == Some("span") {
                    set.spans.entry(id.to_string()).or_default()
                } else {
                    set.events.entry(id.to_string()).or_default()
                };
                lines.push((file, obj));
            }
        }
        set
    }

    /// Every trace id seen, largest span count first.
    pub fn trace_ids(&self) -> Vec<String> {
        let mut ids: Vec<(usize, String)> = self
            .spans
            .keys()
            .map(|id| (self.spans[id].len(), id.clone()))
            .collect();
        ids.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        ids.into_iter().map(|(_, id)| id).collect()
    }

    /// Stitches one trace id into a [`Timeline`]: builds the span tree
    /// and attaches events.
    pub fn timeline(&self, trace_id: &str) -> Option<Timeline> {
        let raw_spans = self.spans.get(trace_id)?;
        let raw_events = self.events.get(trace_id).map_or(&[][..], Vec::as_slice);
        let mut spans: Vec<SpanNode> = raw_spans
            .iter()
            .filter_map(|(file, obj)| {
                let start_us = obj.get("start_us").and_then(Value::as_i64)?;
                let end_us = obj.get("ts_us").and_then(Value::as_i64)?;
                Some(SpanNode {
                    span_id: obj.get("span_id").and_then(Value::as_str)?.to_string(),
                    name: obj.get("span").and_then(Value::as_str)?.to_string(),
                    detail: obj
                        .get("detail")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    start_us,
                    end_us: end_us.max(start_us),
                    parent_span_id: obj
                        .get("parent_span_id")
                        .and_then(Value::as_str)
                        .map(str::to_string),
                    file: *file,
                    children: Vec::new(),
                })
            })
            .collect();
        spans.sort_by(|a, b| a.start_us.cmp(&b.start_us).then(a.span_id.cmp(&b.span_id)));
        let index_of: HashMap<String, usize> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.span_id.clone(), i))
            .collect();
        let mut roots = Vec::new();
        for i in 0..spans.len() {
            let parent = spans[i]
                .parent_span_id
                .as_ref()
                .and_then(|p| index_of.get(p))
                .copied();
            match parent {
                // A self-parented span (id collision) stays a root.
                Some(p) if p != i => spans[p].children.push(i),
                _ => roots.push(i),
            }
        }

        let events: Vec<EventNode> = raw_events
            .iter()
            .filter_map(|(file, obj)| {
                Some(EventNode {
                    kind: obj.get("kind").and_then(Value::as_str)?.to_string(),
                    ts_us: obj.get("ts_us").and_then(Value::as_i64)?,
                    parent_span_id: obj
                        .get("parent_span_id")
                        .and_then(Value::as_str)
                        .map(str::to_string),
                    file: *file,
                    fields: obj.clone(),
                })
            })
            .collect();

        Some(Timeline {
            trace_id: trace_id.to_string(),
            spans,
            roots,
            events,
            files: self.files.clone(),
            skipped: self.skipped.clone(),
        })
    }

    /// The best solve timeline: prefers the trace with a `cluster_solve`
    /// (or `solve`-named) root span, falls back to the largest trace.
    pub fn solve_timeline(&self) -> Option<Timeline> {
        let ids = self.trace_ids();
        ids.iter()
            .filter_map(|id| self.timeline(id))
            .find(|t| t.spans.iter().any(|s| s.name.contains("solve")))
            .or_else(|| ids.first().and_then(|id| self.timeline(id)))
    }
}

/// One stitched trace: the span tree plus its attached events.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// The stitched trace id.
    pub trace_id: String,
    /// All spans, sorted by start time.
    pub spans: Vec<SpanNode>,
    /// Indices of spans with no (present) parent.
    pub roots: Vec<usize>,
    /// Non-span events of this trace.
    pub events: Vec<EventNode>,
    /// Input file labels.
    pub files: Vec<String>,
    /// Unparsable line count per input file.
    pub skipped: Vec<usize>,
}

impl Timeline {
    /// Per-round attribution decoded from `round_attribution` events,
    /// in timestamp order.
    pub fn rounds(&self) -> Vec<Round> {
        let mut rounds: Vec<Round> = self
            .events
            .iter()
            .filter(|e| e.kind == "round_attribution")
            .map(|e| {
                let text = |k: &str| e.fields.get(k).and_then(Value::as_str);
                let count = |k: &str| e.fields.get(k).and_then(Value::as_i64).unwrap_or(0) as u64;
                let secs = |k: &str| e.fields.get(k).and_then(Value::as_f64).unwrap_or(0.0);
                Round {
                    objective: text("objective").unwrap_or("?").to_string(),
                    batch: count("batch"),
                    shards: count("shards"),
                    scatter_s: secs("scatter_s"),
                    reduce_s: secs("reduce_s"),
                    straggler: text("straggler").unwrap_or("").to_string(),
                    straggler_s: secs("straggler_s"),
                    fastest_s: secs("fastest_s"),
                    ts_us: e.ts_us,
                }
            })
            .collect();
        rounds.sort_by_key(|r| r.ts_us);
        rounds
    }

    /// The critical path: from the longest root, repeatedly descend
    /// into the child that finishes last. Returns span indices, root
    /// first.
    pub fn critical_path(&self) -> Vec<usize> {
        let root = self.roots.iter().copied().max_by(|&a, &b| {
            (self.spans[a].end_us - self.spans[a].start_us)
                .cmp(&(self.spans[b].end_us - self.spans[b].start_us))
        });
        let Some(mut at) = root else {
            return Vec::new();
        };
        let mut path = vec![at];
        loop {
            let next = self.spans[at]
                .children
                .iter()
                .copied()
                .max_by_key(|&c| self.spans[c].end_us);
            match next {
                Some(c) => {
                    path.push(c);
                    at = c;
                }
                None => return path,
            }
        }
    }

    /// Flamegraph-compatible folded stacks: one `frame;frame;... N`
    /// line per span, `N` the span's *self* time in microseconds
    /// (duration minus the children's, floored at zero). Feed to
    /// `flamegraph.pl` or speedscope as-is.
    pub fn folded_stacks(&self) -> String {
        fn frame(span: &SpanNode) -> String {
            let mut name = span.name.clone();
            if !span.detail.is_empty() {
                name.push(':');
                name.push_str(&span.detail);
            }
            name.replace([';', ' '], "_")
        }
        fn walk(tl: &Timeline, at: usize, prefix: &str, out: &mut String) {
            let span = &tl.spans[at];
            let stack = if prefix.is_empty() {
                frame(span)
            } else {
                format!("{prefix};{}", frame(span))
            };
            let child_us: i64 = span
                .children
                .iter()
                .map(|&c| (tl.spans[c].end_us - tl.spans[c].start_us).max(0))
                .sum();
            let self_us = (span.end_us - span.start_us - child_us).max(0);
            let _ = writeln!(out, "{stack} {self_us}");
            for &c in &span.children {
                walk(tl, c, &stack, out);
            }
        }
        let mut out = String::new();
        for &root in &self.roots {
            walk(self, root, "", &mut out);
        }
        out
    }

    /// The human-readable timeline report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace {}", self.trace_id);
        for (file, label) in self.files.iter().enumerate() {
            let _ = writeln!(
                out,
                "  input {label}: {} spans, {} events, {} unparsable lines",
                self.spans.iter().filter(|s| s.file == file).count(),
                self.events.iter().filter(|e| e.file == file).count(),
                self.skipped.get(file).copied().unwrap_or(0),
            );
        }
        if let Some(&root) = self.roots.first() {
            let longest = self
                .roots
                .iter()
                .copied()
                .max_by_key(|&r| self.spans[r].end_us - self.spans[r].start_us)
                .unwrap_or(root);
            let span = &self.spans[longest];
            let _ = writeln!(
                out,
                "  root span {}{} {:.6}s ({} spans total, {} roots)",
                span.name,
                if span.detail.is_empty() {
                    String::new()
                } else {
                    format!(" [{}]", span.detail)
                },
                span.seconds(),
                self.spans.len(),
                self.roots.len(),
            );
        }

        let rounds = self.rounds();
        if !rounds.is_empty() {
            let _ = writeln!(out, "rounds ({}):", rounds.len());
            // A solve scatters once per greedy round and a trace may hold
            // many solves; list the opening
            // rounds plus the slowest ones and elide the rest (the
            // verdict below still aggregates every round).
            const HEAD: usize = 4;
            const SLOWEST: usize = 8;
            let shown: std::collections::HashSet<usize> = if rounds.len() <= HEAD + SLOWEST + 4 {
                (0..rounds.len()).collect()
            } else {
                let mut by_scatter: Vec<usize> = (0..rounds.len()).collect();
                by_scatter.sort_by(|&a, &b| {
                    rounds[b]
                        .scatter_s
                        .partial_cmp(&rounds[a].scatter_s)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                (0..HEAD)
                    .chain(by_scatter.into_iter().take(SLOWEST))
                    .collect()
            };
            let mut elided = 0usize;
            let mut totals: HashMap<&str, (usize, f64)> = HashMap::new();
            for (i, r) in rounds.iter().enumerate() {
                if !shown.contains(&i) {
                    elided += 1;
                    if !r.straggler.is_empty() {
                        let entry = totals.entry(&r.straggler).or_insert((0, 0.0));
                        entry.0 += 1;
                        entry.1 += r.straggler_s;
                    }
                    continue;
                }
                let wait_s = (r.scatter_s - r.straggler_s).max(0.0);
                let _ = writeln!(
                    out,
                    "  #{:<3} {:<2} batch={:<5} scatter={:.6}s reduce={:.6}s \
                     straggler={} ({:.6}s, fastest {:.6}s, overhead {:.6}s)",
                    i + 1,
                    r.objective,
                    r.batch,
                    r.scatter_s,
                    r.reduce_s,
                    if r.straggler.is_empty() {
                        "-"
                    } else {
                        &r.straggler
                    },
                    r.straggler_s,
                    r.fastest_s,
                    wait_s,
                );
                if !r.straggler.is_empty() {
                    let entry = totals.entry(&r.straggler).or_insert((0, 0.0));
                    entry.0 += 1;
                    entry.1 += r.straggler_s;
                }
            }
            if elided > 0 {
                let _ = writeln!(
                    out,
                    "  ... {elided} rounds elided (showing the first {HEAD} and the {SLOWEST} slowest) ..."
                );
            }
            let mut ranked: Vec<(&str, (usize, f64))> = totals.into_iter().collect();
            ranked.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(b.0)));
            if let Some((addr, (n, secs))) = ranked.first() {
                let _ = writeln!(
                    out,
                    "  straggler verdict: {addr} slowest in {n}/{} rounds ({secs:.6}s total)",
                    rounds.len()
                );
            }
        }

        let faults: Vec<&EventNode> = self
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind.as_str(),
                    "retry_probe" | "shard_revived" | "shard_dead" | "degraded_rescatter"
                )
            })
            .collect();
        if !faults.is_empty() {
            let _ = writeln!(out, "fault recovery ({} events):", faults.len());
            for e in &faults {
                let shard = e
                    .fields
                    .get("shard")
                    .or_else(|| e.fields.get("lost"))
                    .and_then(Value::as_str)
                    .unwrap_or("?");
                let extra = match e.kind.as_str() {
                    "retry_probe" => format!(
                        "attempt={} recovered={}",
                        e.fields.get("attempt").and_then(Value::as_i64).unwrap_or(0),
                        matches!(e.fields.get("recovered"), Some(Value::Bool(true))),
                    ),
                    "degraded_rescatter" => format!(
                        "survivors={}",
                        e.fields
                            .get("survivors")
                            .and_then(Value::as_i64)
                            .unwrap_or(0)
                    ),
                    _ => String::new(),
                };
                let _ = writeln!(out, "  {:<20} shard={shard} {extra}", e.kind);
            }
        }

        let path = self.critical_path();
        if !path.is_empty() {
            let _ = writeln!(out, "critical path:");
            for (depth, &i) in path.iter().enumerate() {
                let span = &self.spans[i];
                let _ = writeln!(
                    out,
                    "  {:indent$}{} {:.6}s{}",
                    "",
                    span.name,
                    span.seconds(),
                    if span.detail.is_empty() {
                        String::new()
                    } else {
                        format!(" [{}]", span.detail)
                    },
                    indent = depth * 2,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_line(
        trace: &str,
        id: &str,
        parent: Option<&str>,
        name: &str,
        start: i64,
        end: i64,
        detail: &str,
    ) -> String {
        let parent = parent
            .map(|p| format!(",\"parent_span_id\":\"{p}\""))
            .unwrap_or_default();
        let detail = if detail.is_empty() {
            String::new()
        } else {
            format!(",\"detail\":\"{detail}\"")
        };
        format!(
            "{{\"ts_us\":{end},\"kind\":\"span\",\"trace_id\":\"{trace}\"{parent},\"span_id\":\"{id}\",\"span\":\"{name}\",\"start_us\":{start},\"seconds\":{}{detail}}}",
            (end - start) as f64 / 1e6
        )
    }

    /// The coordinator's lines: solve → round → rpc_client, plus the
    /// round's attribution event.
    fn coordinator_lines() -> Vec<String> {
        vec![
            span_line("t1", "c1", None, "cluster_solve", 1_000_000, 2_000_000, "GREEDY"),
            span_line("t1", "r1", Some("c1"), "scatter_round", 1_100_000, 1_600_000, "c"),
            span_line("t1", "p1", Some("r1"), "rpc_client", 1_100_000, 1_500_000, "eval_batch 127.0.0.1:9001"),
            concat!(
                r#"{"ts_us":1600100,"kind":"round_attribution","trace_id":"t1","parent_span_id":"r1","objective":"c","batch":64,"#,
                r#""shards":1,"scatter_s":0.4,"reduce_s":0.01,"straggler":"127.0.0.1:9001","straggler_s":0.4,"fastest_s":0.4}"#
            )
            .to_string(),
        ]
    }

    /// Two files: `coord` and one shard (rpc_server), on the same clock.
    fn with_shard(coord: &[String]) -> TraceSet {
        let shard = span_line(
            "t1",
            "s1",
            Some("p1"),
            "rpc_server",
            1_150_000,
            1_450_000,
            "eval_batch",
        );
        TraceSet::parse(&[
            ("coord.jsonl".to_string(), coord.join("\n")),
            ("shard.jsonl".to_string(), shard),
        ])
    }

    fn fixture() -> TraceSet {
        with_shard(&coordinator_lines())
    }

    #[test]
    fn stitches_across_files() {
        let set = fixture();
        let tl = set.solve_timeline().expect("timeline");
        assert_eq!(tl.trace_id, "t1");
        assert_eq!(tl.spans.len(), 4);
        assert_eq!(tl.roots.len(), 1);
        // The shard's rpc_server span keeps its timestamps and nests
        // inside rpc_client.
        let server = tl.spans.iter().find(|s| s.name == "rpc_server").unwrap();
        assert_eq!(server.start_us, 1_150_000);
        assert_eq!(server.end_us, 1_450_000);
        let client_idx = tl
            .spans
            .iter()
            .position(|s| s.name == "rpc_client")
            .unwrap();
        assert!(tl.spans[client_idx]
            .children
            .iter()
            .any(|&c| tl.spans[c].name == "rpc_server"));
        // Solve root covers every other span.
        let root = &tl.spans[tl.roots[0]];
        assert_eq!(root.name, "cluster_solve");
        for s in &tl.spans {
            assert!(s.start_us >= root.start_us && s.end_us <= root.end_us);
        }
    }

    #[test]
    fn rounds_and_critical_path_and_folded_stacks() {
        let set = fixture();
        let tl = set.solve_timeline().unwrap();
        let rounds = tl.rounds();
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].straggler, "127.0.0.1:9001");
        assert!((rounds[0].scatter_s - 0.4).abs() < 1e-9);

        let path = tl.critical_path();
        let names: Vec<&str> = path.iter().map(|&i| tl.spans[i].name.as_str()).collect();
        assert_eq!(
            names,
            vec!["cluster_solve", "scatter_round", "rpc_client", "rpc_server"]
        );

        let folded = tl.folded_stacks();
        assert!(!folded.trim().is_empty());
        let top = folded
            .lines()
            .find(|l| l.starts_with("cluster_solve:GREEDY "))
            .expect("root self-time line");
        // Root self time: 1s total − 0.5s round child = 0.5s.
        assert_eq!(top, "cluster_solve:GREEDY 500000");
        assert!(folded
            .contains("cluster_solve:GREEDY;scatter_round:c;rpc_client:eval_batch_127.0.0.1:9001"));
        // Every line is "frames N".
        for line in folded.lines() {
            let n = line.rsplit(' ').next().unwrap();
            assert!(n.parse::<i64>().is_ok(), "line: {line}");
        }

        let report = tl.report();
        assert!(report.contains("straggler=127.0.0.1:9001"));
        assert!(report.contains("straggler verdict: 127.0.0.1:9001 slowest in 1/1 rounds"));
        assert!(report.contains("critical path:"));
    }

    #[test]
    fn an_old_clock_offset_line_changes_nothing() {
        // Trace files written before 0.24.0 hold one `clock_offset`
        // event per shard. It shifts no timestamp and adds no report
        // line.
        let mut coord = coordinator_lines();
        coord.push(
            r#"{"ts_us":900000,"kind":"clock_offset","shard":"127.0.0.1:9001","offset_us":1000000,"rtt_us":200,"probes":4}"#
                .to_string(),
        );
        let old = with_shard(&coord).solve_timeline().unwrap();
        let new = fixture().solve_timeline().unwrap();
        let times = |tl: &Timeline| -> Vec<(String, i64, i64)> {
            tl.spans
                .iter()
                .map(|s| (s.span_id.clone(), s.start_us, s.end_us))
                .collect()
        };
        assert_eq!(times(&old), times(&new));
        assert_eq!(old.report(), new.report());
        assert!(!old.report().contains("clock"));
        assert_eq!(old.folded_stacks(), new.folded_stacks());
        assert_eq!(old.skipped, vec![0, 0]);
    }

    #[test]
    fn truncated_tail_and_out_of_order_lines_survive() {
        let set = fixture();
        let mut coord = String::new();
        // Reverse the coordinator's lines and truncate the last one.
        let base = [
            span_line("t1", "c1", None, "cluster_solve", 1_000_000, 2_000_000, ""),
            span_line(
                "t1",
                "r1",
                Some("c1"),
                "scatter_round",
                1_100_000,
                1_600_000,
                "c",
            ),
        ];
        for line in base.iter().rev() {
            coord.push_str(line);
            coord.push('\n');
        }
        coord.push_str(&span_line("t1", "x9", Some("r1"), "rpc_client", 1, 2, "")[..40]);
        let set2 = TraceSet::parse(&[("coord.jsonl".to_string(), coord)]);
        let tl = set2.timeline("t1").expect("timeline");
        assert_eq!(tl.spans.len(), 2, "truncated line dropped");
        assert_eq!(tl.skipped[0], 1);
        assert_eq!(tl.roots.len(), 1);
        assert_eq!(tl.spans[tl.roots[0]].name, "cluster_solve");
        drop(set);
    }

    #[test]
    fn lines_that_are_not_scalar_objects_are_skipped() {
        let lines = [
            r#"{"a":{"b":1}}"#,
            r#"{"a":[1,2]}"#,
            r#"{"a":1"#,
            r#"{"a":1} trailing"#,
            "not json",
            "[1]",
            "{}",
        ]
        .join("\n");
        let set = TraceSet::parse(&[("f".to_string(), lines)]);
        assert_eq!(set.skipped, vec![6], "only the empty object is kept");
    }

    #[test]
    fn orphaned_spans_become_roots() {
        // Parent span lost (e.g. the coordinator died before closing
        // it): the child must still surface as a root, not vanish.
        let line = span_line("t1", "k1", Some("missing"), "rpc_client", 10, 20, "");
        let set = TraceSet::parse(&[("f".to_string(), line)]);
        let tl = set.timeline("t1").unwrap();
        assert_eq!(tl.roots.len(), 1);
        assert!(!tl.folded_stacks().trim().is_empty());
    }
}
