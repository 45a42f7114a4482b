//! Property tests for the trace stitcher ([`imc_obs::timeline`]).
//!
//! The stitcher consumes whatever JSONL a crashed or skewed cluster left
//! behind, so the properties hammer exactly those conditions:
//!
//! * **line order is irrelevant** — spans arrive interleaved across
//!   threads and processes, so any permutation of the same lines must
//!   stitch to the same tree;
//! * **files link, timestamps stay** — a shard file linked through
//!   `rpc_client`/`rpc_server` pairs stitches into the coordinator's
//!   tree, and every timestamp comes out exactly as written;
//! * **truncated streams never panic** — a kill -9 mid-write leaves a
//!   torn final line; every prefix of a valid file must parse to a
//!   subset of the full timeline with at most one skipped line.

use imc_obs::timeline::TraceSet;
use proptest::prelude::*;

/// One synthetic span: parent link, start and duration (µs), name and
/// detail drawn from realistic vocabularies.
#[derive(Debug, Clone)]
struct RawSpan {
    parent: Option<usize>,
    start_us: i64,
    dur_us: i64,
    name: &'static str,
    detail: &'static str,
}

/// A forest of up to 40 spans; span 0 is always a root, later spans pick
/// a parent among their predecessors or none.
fn forest() -> impl Strategy<Value = Vec<RawSpan>> {
    let span = (
        0u32..65_536,
        0u64..5_000_000,
        0u64..2_000_000,
        prop_oneof![
            Just("cluster_solve"),
            Just("scatter_round"),
            Just("rpc_client"),
            Just("reduce"),
        ],
        prop_oneof![
            Just(""),
            Just("GREEDY"),
            Just("c"),
            Just("eval_batch 127.0.0.1:9001"),
            Just("nu x:1.0,y:-2"),
        ],
    );
    prop::collection::vec(span, 1..40).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (sel, start_us, dur_us, name, detail))| RawSpan {
                parent: if i == 0 || sel % 4 == 0 {
                    None
                } else {
                    Some(sel as usize % i)
                },
                start_us: start_us as i64,
                dur_us: dur_us as i64,
                name,
                detail,
            })
            .collect()
    })
}

/// Serializes a forest the way the live sink does (one span event per
/// line, `ts_us` = end time), in index order.
fn serialize(forest: &[RawSpan], trace_id: &str) -> Vec<String> {
    forest
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let parent = s
                .parent
                .map(|p| format!(r#""parent_span_id":"s{p}","#))
                .unwrap_or_default();
            let detail = if s.detail.is_empty() {
                String::new()
            } else {
                format!(r#","detail":"{}""#, s.detail)
            };
            format!(
                r#"{{"ts_us":{},"kind":"span","trace_id":"{trace_id}",{parent}"span_id":"s{i}","span":"{}","start_us":{},"seconds":{:.6}{detail}}}"#,
                s.start_us + s.dur_us,
                s.name,
                s.start_us,
                s.dur_us as f64 / 1e6,
            )
        })
        .collect()
}

/// Deterministic Fisher–Yates permutation from a 64-bit seed (an LCG,
/// so the property owns its shuffle instead of leaning on the strategy
/// surface).
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any permutation of the same span lines stitches to the same
    /// forest: every parent link honored, every span present exactly
    /// once, one folded-stack line per span, and a critical path that
    /// is a root-anchored parent→child chain.
    #[test]
    fn shuffled_lines_stitch_to_the_same_forest(
        forest in forest(),
        seed in 0u64..u64::MAX,
    ) {
        let mut lines = serialize(&forest, "t-prop");
        shuffle(&mut lines, seed);
        let set = TraceSet::parse(&[("in".to_string(), lines.join("\n"))]);
        let tl = set.timeline("t-prop").expect("non-empty forest stitches");

        prop_assert_eq!(tl.spans.len(), forest.len());
        prop_assert_eq!(&set.skipped, &vec![0]);

        // Parent links: a span whose parent exists is that parent's
        // child; everything else is a root.
        let by_id = |id: &str| tl.spans.iter().position(|s| s.span_id == id).unwrap();
        for (i, raw) in forest.iter().enumerate() {
            let at = by_id(&format!("s{i}"));
            match raw.parent {
                Some(p) => {
                    let parent = by_id(&format!("s{p}"));
                    prop_assert!(tl.spans[parent].children.contains(&at));
                    prop_assert!(!tl.roots.contains(&at));
                }
                None => prop_assert!(tl.roots.contains(&at)),
            }
            prop_assert!(tl.spans[at].end_us >= tl.spans[at].start_us);
        }
        let child_count: usize = tl.spans.iter().map(|s| s.children.len()).sum();
        prop_assert_eq!(child_count + tl.roots.len(), forest.len());

        // One folded-stack line per span, all self-times non-negative.
        let folded = tl.folded_stacks();
        prop_assert_eq!(folded.lines().count(), forest.len());
        for line in folded.lines() {
            let value: i64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            prop_assert!(value >= 0);
        }

        // The critical path starts at a root and descends parent→child.
        let path = tl.critical_path();
        prop_assert!(!path.is_empty());
        prop_assert!(tl.roots.contains(&path[0]));
        for pair in path.windows(2) {
            prop_assert!(tl.spans[pair[0]].children.contains(&pair[1]));
        }

        // The report never panics and names the trace.
        prop_assert!(tl.report().contains("t-prop"));
    }

    /// A shard file whose `rpc_server` spans name coordinator spans as
    /// parents stitches into the coordinator's forest: each server span
    /// is its parent's child, the roots are the coordinator's, and every
    /// start and end is the one written, whatever the two files' times.
    #[test]
    fn linked_shard_file_stitches_with_timestamps_as_written(
        forest in forest(),
        servers in prop::collection::vec((0usize..40, 0u64..10_000_000, 0u64..500_000), 1..8),
    ) {
        let coordinator = serialize(&forest, "t").join("\n");
        let shard: Vec<String> = servers
            .iter()
            .enumerate()
            .map(|(i, &(parent, start, dur))| {
                format!(
                    r#"{{"ts_us":{},"kind":"span","trace_id":"t","parent_span_id":"s{}","span_id":"srv{i}","span":"rpc_server","start_us":{start},"seconds":{:.6}}}"#,
                    start + dur,
                    parent % forest.len(),
                    dur as f64 / 1e6,
                )
            })
            .collect();
        let set = TraceSet::parse(&[
            ("coordinator".to_string(), coordinator),
            ("shard".to_string(), shard.join("\n")),
        ]);
        let tl = set.timeline("t").expect("trace t stitches");
        prop_assert_eq!(tl.spans.len(), forest.len() + servers.len());
        let by_id = |id: &str| tl.spans.iter().position(|s| s.span_id == id).unwrap();
        for (i, raw) in forest.iter().enumerate() {
            let at = by_id(&format!("s{i}"));
            prop_assert_eq!(tl.spans[at].start_us, raw.start_us);
            prop_assert_eq!(tl.spans[at].end_us, raw.start_us + raw.dur_us);
            prop_assert_eq!(tl.spans[at].file, 0);
            prop_assert_eq!(tl.roots.contains(&at), raw.parent.is_none());
        }
        for (i, &(parent, start, dur)) in servers.iter().enumerate() {
            let at = by_id(&format!("srv{i}"));
            prop_assert_eq!(tl.spans[at].start_us, start as i64);
            prop_assert_eq!(tl.spans[at].end_us, (start + dur) as i64);
            prop_assert_eq!(tl.spans[at].file, 1);
            let parent = by_id(&format!("s{}", parent % forest.len()));
            prop_assert!(tl.spans[parent].children.contains(&at));
        }
        let roots = forest.iter().filter(|s| s.parent.is_none()).count();
        prop_assert_eq!(tl.roots.len(), roots);
    }

    /// Every byte-prefix of a valid trace file parses without panicking
    /// into a subset of the full forest, skipping at most the one torn
    /// line.
    #[test]
    fn truncated_streams_parse_a_prefix_of_the_forest(
        forest in forest(),
        seed in 0u64..u64::MAX,
        cut_frac in 0f64..1f64,
    ) {
        let mut lines = serialize(&forest, "t-cut");
        shuffle(&mut lines, seed);
        let full = lines.join("\n");
        let cut = (full.len() as f64 * cut_frac) as usize;
        // All-ASCII serialization, so any byte index is a char boundary.
        let truncated = &full[..cut.min(full.len())];

        let set = TraceSet::parse(&[("in".to_string(), truncated.to_string())]);
        prop_assert!(set.skipped[0] <= 1, "at most the torn line skips");
        if let Some(tl) = set.timeline("t-cut") {
            prop_assert!(tl.spans.len() <= forest.len());
            // Every stitched span is one of the originals, intact.
            for span in &tl.spans {
                let i: usize = span.span_id[1..].parse().unwrap();
                prop_assert_eq!(span.start_us, forest[i].start_us);
                prop_assert_eq!(span.end_us, forest[i].start_us + forest[i].dur_us);
                prop_assert_eq!(span.name.as_str(), forest[i].name);
            }
            let _ = tl.report();
            let _ = tl.folded_stacks();
            let _ = tl.critical_path();
        }
    }
}
