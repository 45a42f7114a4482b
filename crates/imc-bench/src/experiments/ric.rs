//! RicStore microbenchmarks — sampling throughput, solver-evaluation
//! throughput (scalar [`RicStore::influenced_count`] vs the reusable
//! [`CoverageEvaluator`] kernel path), snapshot codec wall times (v3
//! parse vs the zero-copy v3 view), and arena memory footprint.
//!
//! Besides the usual table, this experiment writes `BENCH_ric.json`
//! (schema documented in `docs/BENCHMARKS.md`), the machine-readable
//! record CI archives so throughput regressions show up in review rather
//! than in production.
//!
//! Both evaluation paths read the same store (and the view is opened
//! over the store's own v3 encoding), and every timed evaluation is
//! checked for agreement — the speedup number is only meaningful if both
//! paths return the same `ĉ_R(S)`. The `seeds_identical` flag goes further: a full UBG
//! solve over the store, over a decoded v3 snapshot, and over the
//! zero-copy view must pick bitwise-identical seed sets, which is what
//! `perf-gate` hard-fails on.

use crate::experiments::ExpOptions;
use crate::harness::{build_instance, dataset_graph};
use crate::report::{fmt_f, Table};
use imc_community::ThresholdPolicy;
use imc_core::snapshot::{self, RicStoreView, SnapshotBytes};
use imc_core::{CoverageEvaluator, MaxrAlgorithm, RicStore, SolveRequest};
use imc_datasets::DatasetId;
use imc_graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Schema identifier stamped into `BENCH_ric.json`; bump when fields
/// change meaning. v2 added `evaluation.kernel`, the `snapshot` section,
/// and the top-level `seeds_identical` determinism flag; v3 dropped
/// `evaluation.legacy` and `evaluation.speedup` with the backend they
/// timed, and made `evaluation.kernel_speedup` relative to `store`; v4
/// dropped `snapshot.v2_parse_seconds` with the version-2 decoder.
pub const BENCH_SCHEMA: &str = "imc-bench/ric/v4";

/// One backend's evaluation timing.
struct EvalTiming {
    seconds: f64,
    evals_per_sec: f64,
}

/// Wall times for the snapshot codec paths, plus the encoded size.
struct SnapshotTiming {
    bytes: usize,
    v3_parse_seconds: f64,
    v3_view_seconds: f64,
}

/// Runs the microbenchmarks, prints the table, and writes
/// `BENCH_ric.json` into `--out` (or the working directory).
pub fn run(options: &ExpOptions) -> std::io::Result<()> {
    let (samples, eval_sets, seeds_per_set) = if options.quick {
        (4_000usize, 400usize, 8usize)
    } else {
        (40_000, 2_000, 10)
    };

    // The bundled medium instance: the Wiki-Vote analog with Louvain
    // communities, size cap 8, bounded thresholds h = 2 (fig. 7a's setup).
    let dataset = DatasetId::WikiVote;
    let graph = dataset_graph(dataset, 0.3 * options.scale, options.seed);
    let instance = build_instance(
        &graph,
        crate::harness::Formation::Louvain,
        8,
        ThresholdPolicy::Constant(2),
        options.seed,
    );
    let sampler = instance.sampler();

    // 1. Sampling throughput into the arena (seed-sharded, deterministic).
    let mut store = RicStore::for_sampler(&sampler);
    let gen_start = Instant::now();
    store.extend_parallel(&sampler, samples, options.seed);
    let gen_seconds = gen_start.elapsed().as_secs_f64();
    let samples_per_sec = samples as f64 / gen_seconds;

    // 2. Solver-evaluation throughput: `ĉ_R(S)` on the same seed sets
    // through two paths. The store walks the inverted index but
    // rebuilds its scratch state per call; the kernel evaluator buckets
    // the whole batch by sample and sweeps the cover arena in ascending
    // address order, so large arenas stream from memory instead of
    // paying a dependent random load per index entry.
    let node_count = store.node_count() as u32;
    let mut rng = StdRng::seed_from_u64(options.seed ^ 0x51C0_FFEE);
    let seed_sets: Vec<Vec<NodeId>> = (0..eval_sets)
        .map(|_| {
            (0..seeds_per_set)
                .map(|_| NodeId::new(rng.random_range(0..node_count)))
                .collect()
        })
        .collect();

    let store_counts: Vec<usize>;
    let store_timing = {
        let start = Instant::now();
        store_counts = seed_sets
            .iter()
            .map(|s| store.influenced_count(s))
            .collect();
        timing(start.elapsed().as_secs_f64(), eval_sets)
    };
    let kernel_counts: Vec<usize>;
    let kernel_timing = {
        let mut evaluator = CoverageEvaluator::new(&store);
        let start = Instant::now();
        kernel_counts = evaluator.influenced_counts(&seed_sets);
        timing(start.elapsed().as_secs_f64(), eval_sets)
    };
    assert_eq!(
        store_counts, kernel_counts,
        "the batched kernel evaluator must agree with the scalar path"
    );
    let kernel_speedup = kernel_timing.evals_per_sec / store_timing.evals_per_sec;

    // 3. Snapshot codec wall times. The v3 parse adopts the persisted
    // columns after full validation; the v3 view never copies the arena
    // at all.
    let fingerprint = snapshot::instance_fingerprint(instance.graph(), instance.communities());
    let v3_bytes = snapshot::encode(&store, fingerprint, 1);
    let snapshot_timing = {
        let start = Instant::now();
        let from_v3 = snapshot::decode(&v3_bytes).expect("v3 snapshot decodes");
        let v3_parse_seconds = start.elapsed().as_secs_f64();

        let arena = SnapshotBytes::copy_from(&v3_bytes);
        let start = Instant::now();
        let view = RicStoreView::open(arena.as_bytes()).expect("v3 view opens");
        let v3_view_seconds = start.elapsed().as_secs_f64();

        // 4. End-to-end determinism: the solver must pick bitwise-identical
        // seeds whether it reads the in-memory store, a decoded snapshot,
        // or the zero-copy view.
        let k = 5usize.min(store.node_count());
        let req = SolveRequest::new(k).with_seed(options.seed);
        let from_store = MaxrAlgorithm::Ubg
            .solve(&instance, &store, &req)
            .expect("solve over store");
        let from_parsed = MaxrAlgorithm::Ubg
            .solve(&instance, &from_v3.collection, &req)
            .expect("solve over decoded snapshot");
        let from_view = MaxrAlgorithm::Ubg
            .solve(&instance, &view, &req)
            .expect("solve over zero-copy view");
        assert_eq!(
            from_store.seeds, from_parsed.seeds,
            "decoded snapshot must reproduce the store's seed set"
        );
        assert_eq!(
            from_store.seeds, from_view.seeds,
            "zero-copy view must reproduce the store's seed set"
        );

        SnapshotTiming {
            bytes: v3_bytes.len(),
            v3_parse_seconds,
            v3_view_seconds,
        }
    };
    // The asserts above abort the run on disagreement, so a written JSON
    // always carries `true`; the field exists so perf-gate can hard-fail
    // if a future change downgrades the assert into a warning.
    let seeds_identical = true;

    // 5. Memory footprint (arena bytes stand in for RSS: the store's flat
    // buffers are its only heap allocation).
    let arena_bytes = store.arena_bytes();
    let index_entries = store.index_entries();

    let mut table = Table::new("RicStore microbenchmarks", &["metric", "value"]);
    table.push_row(vec![
        "dataset".into(),
        imc_datasets::spec(dataset).name.into(),
    ]);
    table.push_row(vec!["samples".into(), samples.to_string()]);
    table.push_row(vec!["gen samples/sec".into(), fmt_f(samples_per_sec)]);
    table.push_row(vec![
        "store evals/sec".into(),
        fmt_f(store_timing.evals_per_sec),
    ]);
    table.push_row(vec![
        "kernel evals/sec".into(),
        fmt_f(kernel_timing.evals_per_sec),
    ]);
    table.push_row(vec![
        "kernel speedup".into(),
        format!("{kernel_speedup:.2}x"),
    ]);
    table.push_row(vec![
        "snapshot bytes".into(),
        snapshot_timing.bytes.to_string(),
    ]);
    table.push_row(vec![
        "v3 parse ms".into(),
        fmt_f(snapshot_timing.v3_parse_seconds * 1e3),
    ]);
    table.push_row(vec![
        "v3 view ms".into(),
        fmt_f(snapshot_timing.v3_view_seconds * 1e3),
    ]);
    table.push_row(vec!["arena bytes".into(), arena_bytes.to_string()]);
    table.push_row(vec!["index entries".into(), index_entries.to_string()]);
    table.emit(options.out_dir.as_deref())?;

    let json = bench_json(
        imc_datasets::spec(dataset).name,
        samples,
        gen_seconds,
        samples_per_sec,
        eval_sets,
        seeds_per_set,
        &store_timing,
        &kernel_timing,
        kernel_speedup,
        &snapshot_timing,
        seeds_identical,
        arena_bytes,
        index_entries,
    );
    let path = options
        .out_dir
        .clone()
        .unwrap_or_else(|| Path::new(".").to_path_buf())
        .join("BENCH_ric.json");
    let mut file = std::fs::File::create(&path)?;
    file.write_all(json.as_bytes())?;
    eprintln!("[ric] wrote {}", path.display());
    Ok(())
}

fn timing(seconds: f64, evals: usize) -> EvalTiming {
    EvalTiming {
        seconds,
        evals_per_sec: evals as f64 / seconds.max(1e-12),
    }
}

#[allow(clippy::too_many_arguments)]
fn bench_json(
    dataset: &str,
    samples: usize,
    gen_seconds: f64,
    samples_per_sec: f64,
    eval_sets: usize,
    seeds_per_set: usize,
    store: &EvalTiming,
    kernel: &EvalTiming,
    kernel_speedup: f64,
    snap: &SnapshotTiming,
    seeds_identical: bool,
    arena_bytes: usize,
    index_entries: usize,
) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"{schema}\",\n",
            "  \"dataset\": \"{dataset}\",\n",
            "  \"samples\": {samples},\n",
            "  \"generation\": {{\n",
            "    \"seconds\": {gen_seconds:.6},\n",
            "    \"samples_per_sec\": {samples_per_sec:.1}\n",
            "  }},\n",
            "  \"evaluation\": {{\n",
            "    \"seed_sets\": {eval_sets},\n",
            "    \"seeds_per_set\": {seeds_per_set},\n",
            "    \"store\": {{ \"seconds\": {ss:.6}, \"evals_per_sec\": {se:.1} }},\n",
            "    \"kernel\": {{ \"seconds\": {ks:.6}, \"evals_per_sec\": {ke:.1} }},\n",
            "    \"kernel_speedup\": {kernel_speedup:.3}\n",
            "  }},\n",
            "  \"snapshot\": {{\n",
            "    \"bytes\": {snap_bytes},\n",
            "    \"v3_parse_seconds\": {v3p:.6},\n",
            "    \"v3_view_seconds\": {v3v:.6}\n",
            "  }},\n",
            "  \"seeds_identical\": {seeds_identical},\n",
            "  \"memory\": {{\n",
            "    \"arena_bytes\": {arena_bytes},\n",
            "    \"index_entries\": {index_entries}\n",
            "  }}\n",
            "}}\n",
        ),
        schema = BENCH_SCHEMA,
        dataset = dataset,
        samples = samples,
        gen_seconds = gen_seconds,
        samples_per_sec = samples_per_sec,
        eval_sets = eval_sets,
        seeds_per_set = seeds_per_set,
        ss = store.seconds,
        se = store.evals_per_sec,
        ks = kernel.seconds,
        ke = kernel.evals_per_sec,
        kernel_speedup = kernel_speedup,
        snap_bytes = snap.bytes,
        v3p = snap.v3_parse_seconds,
        v3v = snap.v3_view_seconds,
        seeds_identical = seeds_identical,
        arena_bytes = arena_bytes,
        index_entries = index_entries,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_at_tiny_scale_and_writes_json() {
        let dir = std::env::temp_dir().join(format!("imc-bench-ric-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let options = ExpOptions {
            scale: 0.2,
            out_dir: Some(dir.clone()),
            ..ExpOptions::smoke()
        };
        run(&options).unwrap();
        let json = std::fs::read_to_string(dir.join("BENCH_ric.json")).unwrap();
        assert!(json.contains(BENCH_SCHEMA));
        assert!(json.contains("\"kernel_speedup\""));
        assert!(!json.contains("legacy"));
        assert!(json.contains("\"kernel\""));
        assert!(json.contains("\"v3_view_seconds\""));
        assert!(json.contains("\"seeds_identical\": true"));
        assert!(json.contains("\"arena_bytes\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
