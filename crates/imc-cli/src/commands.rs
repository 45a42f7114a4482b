//! Subcommand implementations. Each takes parsed [`Args`] and a writer,
//! returning the text the binary prints — fully testable without a
//! process spawn.

use crate::args::Args;
use crate::community_io::{read_assignments, write_assignments};
use crate::{CliError, Result};
use imc_community::{BenefitPolicy, CommunitySet, ThresholdPolicy};
use imc_core::{imcaf, ImcInstance, ImcafConfig, MaxrAlgorithm, SolveStrategy};
use imc_diffusion::dagum::dagum_benefit;
use imc_diffusion::IndependentCascade;
use imc_graph::edgelist::{self, ParseOptions};
use imc_graph::{Graph, NodeId, WeightModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::path::Path;

/// Dispatches a subcommand by name.
///
/// # Errors
///
/// [`CliError::Usage`] for unknown commands or bad flags; domain errors
/// from the underlying crates otherwise.
pub fn run<W: Write>(command: &str, args: &Args, out: &mut W) -> Result<()> {
    match command {
        "generate" => generate(args, out),
        "communities" => communities(args, out),
        "solve" => solve(args, out),
        "estimate" => estimate(args, out),
        "stats" => stats(args, out),
        "dot" => dot(args, out),
        "serve" => crate::service::serve(args, out),
        "cluster" => cluster(args, out),
        "trace" => trace(args, out),
        "query" => crate::service::query(args, out),
        "snapshot save" => crate::service::snapshot_save(args, out),
        "snapshot load" => crate::service::snapshot_load(args, out),
        other if other == "snapshot" || other.starts_with("snapshot ") => Err(CliError::Usage(
            "snapshot expects an action: snapshot save | snapshot load".into(),
        )),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}` (expected generate | communities | solve | estimate | \
             stats | dot | serve | cluster | trace | query | snapshot)"
        ))),
    }
}

/// `imc trace --input FILE[,FILE...] [--trace-id ID] [--folded FILE]
/// [--out FILE]` — stitch one or more JSONL trace files (the
/// coordinator's plus any shard daemons') into a solve timeline:
/// per-round straggler attribution, fault-recovery events, the
/// critical path, and flamegraph-compatible folded stacks. Without
/// `--trace-id` the largest trace containing a solve span is picked.
fn trace<W: Write>(args: &Args, out: &mut W) -> Result<()> {
    let raw = args.required("input")?;
    let mut inputs: Vec<(String, String)> = Vec::new();
    for path in raw.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let contents = std::fs::read_to_string(path)
            .map_err(|e| CliError::Io(std::io::Error::new(e.kind(), format!("{path}: {e}"))))?;
        inputs.push((path.to_string(), contents));
    }
    if inputs.is_empty() {
        return Err(CliError::Usage(
            "--input expects one or more comma-separated trace files".into(),
        ));
    }
    let set = imc_obs::timeline::TraceSet::parse(&inputs);
    let timeline = match args.get("trace-id") {
        Some(id) => set
            .timeline(id)
            .ok_or_else(|| CliError::Usage(format!("trace id `{id}` not found in the inputs")))?,
        None => set.solve_timeline().ok_or_else(|| {
            CliError::Usage("no spans found in the inputs (was tracing enabled?)".into())
        })?,
    };
    let report = timeline.report();
    if let Some(path) = args.get("out") {
        std::fs::write(path, &report)?;
    }
    write!(out, "{report}")?;
    if let Some(path) = args.get("folded") {
        std::fs::write(path, timeline.folded_stacks())?;
        writeln!(out, "folded stacks written to {path}")?;
    }
    Ok(())
}

/// `imc cluster --topology FILE [--out FILE] [--data-dir DIR]
/// [--chaos SPEC] [--trace FILE] [--quiet]` — spawn a sharded solve
/// cluster from a topology file, verify the distributed solve is
/// bitwise identical to single-node in seeds and evaluation count, and
/// print the `imc-cluster/smoke/v1` report (identity flags and exact
/// counts; it times nothing). With `--chaos
/// kind:shard@after[:millis]` (kill | drop | hang | slow) one shard is
/// put behind a fault-injecting proxy and the run also verifies the
/// recovery contract; `--trace` appends each request's JSONL trace
/// events to the named file.
fn cluster<W: Write>(args: &Args, out: &mut W) -> Result<()> {
    let topology = imc_cluster::Topology::load(Path::new(args.required("topology")?))
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let mut options =
        imc_cluster::RunnerOptions::new(topology, args.get("out").map(std::path::PathBuf::from));
    if let Some(dir) = args.get("data-dir") {
        options.data_dir = std::path::PathBuf::from(dir);
    }
    if let Some(spec) = args.get("chaos") {
        options.chaos = Some(imc_cluster::ChaosSpec::parse(spec).map_err(CliError::Usage)?);
    }
    if let Some(trace) = args.get("trace") {
        options.trace = Some(std::path::PathBuf::from(trace));
    }
    options.verbose = !args.switch("quiet");
    let report = imc_cluster::run(&options)
        .map_err(|e| CliError::Io(std::io::Error::other(e.to_string())))?;
    writeln!(out, "{}", report.to_json())?;
    if !(report.seeds_identical && report.evaluations_identical && report.eval_roundtrip) {
        return Err(CliError::Io(std::io::Error::other(
            "cluster identity checks failed: the distributed solve diverged from single-node",
        )));
    }
    Ok(())
}

/// Installs the process-wide JSONL trace sink when `--trace <path>` is
/// given. Every subsequent solver/daemon event in this process appends
/// one JSON line to the file (see `imc_obs::trace`).
pub(crate) fn install_trace(args: &Args) -> Result<()> {
    if let Some(path) = args.get("trace") {
        imc_obs::trace::set_sink_path(Path::new(path))?;
    }
    Ok(())
}

pub(crate) fn load_graph(args: &Args) -> Result<Graph> {
    let path = args.required("graph")?;
    let options = ParseOptions {
        undirected: args.switch("undirected"),
        ..ParseOptions::default()
    };
    let parsed = edgelist::read_path(Path::new(path), options)?;
    let graph = parsed.builder.build()?;
    let weights = args.get_or("weights", "cascade".to_string())?;
    Ok(match weights.as_str() {
        "cascade" => graph.reweighted(WeightModel::WeightedCascade),
        "keep" => graph,
        "trivalency" => graph.reweighted(WeightModel::trivalency_classic()),
        other => {
            let p: f64 = other.parse().map_err(|_| {
                CliError::Usage(format!(
                    "--weights expects cascade | keep | trivalency | <probability>, got `{other}`"
                ))
            })?;
            graph.reweighted(WeightModel::Uniform(p))
        }
    })
}

fn threshold_policy(args: &Args) -> Result<ThresholdPolicy> {
    match (args.get("threshold"), args.get("threshold-frac")) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "--threshold and --threshold-frac are mutually exclusive".into(),
        )),
        (Some(h), None) => Ok(ThresholdPolicy::Constant(h.parse().map_err(|_| {
            CliError::Usage(format!("--threshold has invalid value `{h}`"))
        })?)),
        (None, Some(f)) => Ok(ThresholdPolicy::Fraction(f.parse().map_err(|_| {
            CliError::Usage(format!("--threshold-frac has invalid value `{f}`"))
        })?)),
        (None, None) => Ok(ThresholdPolicy::Constant(2)),
    }
}

fn benefit_policy(args: &Args) -> Result<BenefitPolicy> {
    match args.get_or("benefit", "population".to_string())?.as_str() {
        "population" => Ok(BenefitPolicy::Population),
        other => {
            let b: f64 = other.parse().map_err(|_| {
                CliError::Usage(format!(
                    "--benefit expects population | <constant>, got `{other}`"
                ))
            })?;
            Ok(BenefitPolicy::Uniform(b))
        }
    }
}

pub(crate) fn build_instance(args: &Args, graph: Graph) -> Result<ImcInstance> {
    let path = args.required("communities")?;
    let file = std::fs::File::open(path)?;
    let groups = read_assignments(file)?;
    let communities = CommunitySet::builder(&graph)
        .explicit(groups)
        .threshold(threshold_policy(args)?)
        .benefit(benefit_policy(args)?)
        .build()?;
    Ok(ImcInstance::new(graph, communities)?)
}

/// `imc generate`: writes a synthetic graph as an edge list.
fn generate<W: Write>(args: &Args, out: &mut W) -> Result<()> {
    let model = args.get_or("model", "ba".to_string())?;
    let n: u32 = args.get_or("nodes", 1000u32)?;
    let seed: u64 = args.get_or("seed", 1u64)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = match model.as_str() {
        "ba" => imc_graph::generators::barabasi_albert(n, args.get_or("attach", 3u32)?, &mut rng),
        "er" => imc_graph::generators::erdos_renyi(n, args.get_or("p", 0.01f64)?, &mut rng),
        "ws" => imc_graph::generators::watts_strogatz(
            n,
            args.get_or("k-half", 4u32)?,
            args.get_or("beta", 0.1f64)?,
            &mut rng,
        ),
        "pp" => {
            imc_graph::generators::planted_partition(
                n,
                args.get_or("blocks", (n / 10).max(1))?,
                args.get_or("p-in", 0.3f64)?,
                args.get_or("p-out", 0.01f64)?,
                &mut rng,
            )
            .graph
        }
        "rmat" => imc_graph::generators::rmat_graph500(
            args.get_or("scale", 10u32)?,
            args.get_or("edges", (n as usize) * 8)?,
            &mut rng,
        ),
        other => {
            return Err(CliError::Usage(format!(
                "--model expects ba | er | ws | pp | rmat, got `{other}`"
            )))
        }
    };
    match args.get("out") {
        Some(path) => {
            let file = std::fs::File::create(path)?;
            edgelist::write(&graph, file)?;
            writeln!(
                out,
                "wrote {} nodes, {} edges to {path}",
                graph.node_count(),
                graph.edge_count()
            )?;
        }
        None => edgelist::write(&graph, &mut *out)?,
    }
    Ok(())
}

/// `imc communities`: detects communities and writes the assignment file.
fn communities<W: Write>(args: &Args, out: &mut W) -> Result<()> {
    let graph = load_graph(args)?;
    let seed: u64 = args.get_or("seed", 1u64)?;
    let method = args.get_or("method", "louvain".to_string())?;
    let mut groups = match method.as_str() {
        "louvain" => imc_community::louvain::louvain(&graph, seed),
        "lpa" => imc_community::label_propagation::label_propagation(&graph, seed, 20),
        "random" => imc_community::random_partition::random_partition(
            graph.node_count() as u32,
            args.get_or("count", 16u32)?,
            seed,
        ),
        other => {
            return Err(CliError::Usage(format!(
                "--method expects louvain | lpa | random, got `{other}`"
            )))
        }
    };
    if let Some(cap) = args.get("split") {
        let cap: usize = cap
            .parse()
            .map_err(|_| CliError::Usage(format!("--split has invalid value `{cap}`")))?;
        groups = imc_community::split::split_larger_than(groups, cap);
    }
    let q = imc_community::modularity::modularity(&graph, &groups);
    match args.get("out") {
        Some(path) => {
            let file = std::fs::File::create(path)?;
            write_assignments(file, &groups)?;
            writeln!(
                out,
                "wrote {} communities (Q = {q:.4}) to {path}",
                groups.len()
            )?;
        }
        None => write_assignments(&mut *out, &groups)?,
    }
    Ok(())
}

/// `imc solve`: runs IMCAF with the chosen MAXR solver. With
/// `--trace FILE`, every IMCAF round, Estimate call, and MAXR solve is
/// appended to FILE as one JSON line (see `docs/METRICS.md`). With
/// `--threads N` (N > 1) BT's pivot loop (`--algo bt | mb`) runs on N
/// threads; seeds are bitwise identical for every N.
fn solve<W: Write>(args: &Args, out: &mut W) -> Result<()> {
    install_trace(args)?;
    let graph = load_graph(args)?;
    let instance = build_instance(args, graph)?;
    let k: usize = args.required_as("k")?;
    let algo = match args.get_or("algo", "ubg".to_string())?.as_str() {
        "ubg" => MaxrAlgorithm::Ubg,
        "maf" => MaxrAlgorithm::Maf,
        "mb" => MaxrAlgorithm::Mb,
        "bt" => MaxrAlgorithm::Bt,
        "greedy" => MaxrAlgorithm::Greedy,
        other => {
            return Err(CliError::Usage(format!(
                "--algo expects ubg | maf | mb | bt | greedy, got `{other}`"
            )))
        }
    };
    let threads: usize = args.get_or("threads", 1usize)?;
    if threads == 0 {
        return Err(CliError::Usage("--threads must be at least 1".into()));
    }
    let config = ImcafConfig {
        k,
        epsilon: args.get_or("epsilon", 0.2f64)?,
        delta: args.get_or("delta", 0.2f64)?,
        max_samples: args.get_or("max-samples", 1usize << 20)?,
        strategy: SolveStrategy::with_threads(threads),
    };
    let seed: u64 = args.get_or("seed", 1u64)?;
    let result = imcaf(&instance, algo, &config, seed)?;
    let ids: Vec<String> = result.seeds.iter().map(|v| v.raw().to_string()).collect();
    writeln!(out, "seeds: {}", ids.join(","))?;
    if !args.switch("quiet") {
        writeln!(
            out,
            "estimate: {:.4} (over {} RIC samples, {} rounds, stop: {:?})",
            result.estimate, result.samples_used, result.rounds, result.stop_reason
        )?;
    }
    Ok(())
}

/// `imc estimate`: grades a seed set with the Dagum estimator.
fn estimate<W: Write>(args: &Args, out: &mut W) -> Result<()> {
    let graph = load_graph(args)?;
    let instance = build_instance(args, graph)?;
    let seeds: Vec<NodeId> = args
        .required_u32_list("seeds")?
        .into_iter()
        .map(NodeId::new)
        .collect();
    for &s in &seeds {
        if !instance.graph().contains(s) {
            return Err(CliError::Usage(format!("seed {} out of range", s.raw())));
        }
    }
    let epsilon: f64 = args.get_or("epsilon", 0.2f64)?;
    let delta: f64 = args.get_or("delta", 0.2f64)?;
    let budget: u64 = args.get_or("budget", 500_000u64)?;
    let seed: u64 = args.get_or("seed", 1u64)?;
    match dagum_benefit(
        instance.graph(),
        instance.communities(),
        &IndependentCascade,
        &seeds,
        epsilon,
        delta,
        budget,
        seed,
    ) {
        Ok(v) => writeln!(out, "benefit: {v:.4}")?,
        Err(_) => writeln!(out, "benefit: 0.0000 (below certification threshold)")?,
    }
    Ok(())
}

/// `imc stats`: prints structural statistics of a graph.
fn stats<W: Write>(args: &Args, out: &mut W) -> Result<()> {
    let graph = load_graph(args)?;
    let s = imc_graph::stats::GraphStats::compute(&graph);
    writeln!(out, "{s}")?;
    writeln!(
        out,
        "wcc: {}  degeneracy: {}  diameter>=: {}",
        imc_graph::components::weakly_connected_components(&graph).len(),
        imc_graph::kcore::degeneracy(&graph),
        imc_graph::distance::estimate_diameter(&graph, 8),
    )?;
    Ok(())
}

/// `imc dot`: renders the graph (optionally with communities and seeds)
/// as Graphviz DOT.
fn dot<W: Write>(args: &Args, out: &mut W) -> Result<()> {
    let graph = load_graph(args)?;
    let groups = match args.get("communities") {
        Some(path) => read_assignments(std::fs::File::open(path)?)?,
        None => Vec::new(),
    };
    let highlight: Vec<NodeId> = match args.get("seeds") {
        Some(_) => args
            .required_u32_list("seeds")?
            .into_iter()
            .map(NodeId::new)
            .collect(),
        None => Vec::new(),
    };
    let options = imc_graph::dot::DotOptions {
        groups,
        highlight,
        edge_labels: graph.edge_count() <= 200,
        min_weight: args
            .get("min-weight")
            .map(|w| w.parse())
            .transpose()
            .map_err(|_| CliError::Usage("--min-weight expects a number".into()))?,
    };
    write!(out, "{}", imc_graph::dot::to_dot(&graph, &options))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(command: &str, tokens: &[&str]) -> Result<String> {
        let args = Args::parse(tokens.iter().map(|s| s.to_string()))?;
        let mut out = Vec::new();
        run(command, &args, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("imc-cli-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn trace_subcommand_stitches_and_folds() {
        let input = tmp("trace-input.jsonl");
        std::fs::write(
            &input,
            concat!(
                "{\"ts_us\":2000000,\"kind\":\"span\",\"trace_id\":\"t1\",\"span_id\":\"c1\",",
                "\"span\":\"cluster_solve\",\"start_us\":1000000,\"seconds\":1.0,\"detail\":\"GREEDY\"}\n",
                "{\"ts_us\":1500000,\"kind\":\"span\",\"trace_id\":\"t1\",\"parent_span_id\":\"c1\",",
                "\"span_id\":\"p1\",\"span\":\"rpc_client\",\"start_us\":1100000,\"seconds\":0.4,",
                "\"detail\":\"eval_batch 127.0.0.1:9001\"}\n",
                "{\"ts_us\":1500100,\"kind\":\"round_attribution\",\"trace_id\":\"t1\",",
                "\"objective\":\"c\",\"batch\":8,\"shards\":1,\"scatter_s\":0.4,\"reduce_s\":0.01,",
                "\"straggler\":\"127.0.0.1:9001\",\"straggler_s\":0.4,\"fastest_s\":0.4}\n",
            ),
        )
        .unwrap();
        let folded = tmp("trace-folded.txt");
        let out = run_str("trace", &["--input", &input, "--folded", &folded]).unwrap();
        assert!(out.contains("trace t1"), "out: {out}");
        assert!(out.contains("straggler=127.0.0.1:9001"), "out: {out}");
        assert!(out.contains("critical path:"), "out: {out}");
        let stacks = std::fs::read_to_string(&folded).unwrap();
        assert!(
            stacks.contains("cluster_solve:GREEDY;rpc_client:"),
            "stacks: {stacks}"
        );
        // A bogus trace id is a usage error, not a panic.
        assert!(matches!(
            run_str("trace", &["--input", &input, "--trace-id", "nope"]),
            Err(CliError::Usage(_))
        ));
        let _ = std::fs::remove_file(&input);
        let _ = std::fs::remove_file(&folded);
    }

    #[test]
    fn unknown_command_is_usage_error() {
        assert!(matches!(
            run_str("frobnicate", &[]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn generate_to_stdout_parses_back() {
        let text = run_str(
            "generate",
            &["--model", "er", "--nodes", "50", "--p", "0.05"],
        )
        .unwrap();
        let parsed = edgelist::parse_str(&text, ParseOptions::default()).unwrap();
        assert!(parsed.builder.build().unwrap().edge_count() > 0);
    }

    #[test]
    fn full_pipeline_generate_communities_solve_estimate() {
        let graph_path = tmp("g.txt");
        let comm_path = tmp("c.txt");
        let msg = run_str(
            "generate",
            &[
                "--model",
                "pp",
                "--nodes",
                "80",
                "--blocks",
                "8",
                "--p-in",
                "0.4",
                "--p-out",
                "0.02",
                "--seed",
                "3",
                "--out",
                &graph_path,
            ],
        )
        .unwrap();
        assert!(msg.contains("wrote"));

        let msg = run_str(
            "communities",
            &[
                "--graph",
                &graph_path,
                "--method",
                "louvain",
                "--split",
                "8",
                "--out",
                &comm_path,
            ],
        )
        .unwrap();
        assert!(msg.contains("communities"));

        let solve_out = run_str(
            "solve",
            &[
                "--graph",
                &graph_path,
                "--communities",
                &comm_path,
                "--k",
                "4",
                "--algo",
                "maf",
                "--max-samples",
                "2000",
            ],
        )
        .unwrap();
        assert!(solve_out.contains("seeds:"));
        let seeds_line = solve_out.lines().next().unwrap();
        let seeds = seeds_line.trim_start_matches("seeds: ").to_string();
        assert_eq!(seeds.split(',').count(), 4);

        let est_out = run_str(
            "estimate",
            &[
                "--graph",
                &graph_path,
                "--communities",
                &comm_path,
                "--seeds",
                &seeds,
                "--budget",
                "30000",
            ],
        )
        .unwrap();
        assert!(est_out.contains("benefit:"));

        let stats_out = run_str("stats", &["--graph", &graph_path]).unwrap();
        assert!(stats_out.contains("n=80"));

        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&comm_path).ok();
    }

    #[test]
    fn solve_with_trace_writes_valid_jsonl() {
        let graph_path = tmp("gt.txt");
        let comm_path = tmp("ct.txt");
        let trace_path = tmp("trace.jsonl");
        run_str(
            "generate",
            &[
                "--model",
                "pp",
                "--nodes",
                "60",
                "--blocks",
                "6",
                "--p-in",
                "0.4",
                "--p-out",
                "0.02",
                "--seed",
                "8",
                "--out",
                &graph_path,
            ],
        )
        .unwrap();
        let mut assignments = String::new();
        for v in 0..60 {
            assignments.push_str(&format!("{v} {}\n", v / 10));
        }
        std::fs::write(&comm_path, assignments).unwrap();
        let out = run_str(
            "solve",
            &[
                "--graph",
                &graph_path,
                "--communities",
                &comm_path,
                "--k",
                "3",
                "--algo",
                "maf",
                "--max-samples",
                "4000",
                "--trace",
                &trace_path,
            ],
        )
        .unwrap();
        assert!(out.contains("seeds:"));
        imc_obs::trace::clear_sink();

        // Every line must parse as a JSON object with `ts_us` and `kind`;
        // the solve must have logged at least bounds, rounds, and a
        // completion event. The sink is process-global, so events from
        // concurrently running tests may interleave — that's fine, they
        // must still be valid lines.
        let text = std::fs::read_to_string(&trace_path).unwrap();
        assert!(!text.is_empty(), "trace file is empty");
        let mut kinds = std::collections::BTreeSet::new();
        for line in text.lines() {
            let v = imc_obs::json::parse(line)
                .unwrap_or_else(|e| panic!("invalid JSONL line `{line}`: {e}"));
            assert!(v.get("ts_us").and_then(|t| t.as_u64()).is_some(), "{line}");
            let kind = v.get("kind").unwrap().as_str().unwrap().to_string();
            // A round says where its time went; `estimate_seconds` is there
            // exactly when the round made an Estimate call.
            if kind == "imcaf_round" {
                for phase in ["sampling_seconds", "solve_seconds"] {
                    let seconds = v.get(phase).and_then(|s| s.as_f64());
                    assert!(seconds.is_some_and(|s| s >= 0.0), "{phase} in {line}");
                }
                assert_eq!(
                    v.get("estimate_seconds").and_then(|s| s.as_f64()).is_some(),
                    v.get("checked").unwrap().as_bool().unwrap(),
                    "{line}"
                );
            }
            if kind == "estimate" {
                assert!(
                    v.get("seconds").and_then(|s| s.as_f64()).is_some(),
                    "{line}"
                );
            }
            kinds.insert(kind);
        }
        for expected in ["imcaf_bounds", "imcaf_round", "imcaf_done", "maxr_solve"] {
            assert!(
                kinds.contains(expected),
                "missing kind `{expected}` in {kinds:?}"
            );
        }
        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&comm_path).ok();
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn solve_threads_flag_is_seed_invariant() {
        let graph_path = tmp("gp.txt");
        let comm_path = tmp("cp.txt");
        run_str(
            "generate",
            &[
                "--model",
                "pp",
                "--nodes",
                "60",
                "--blocks",
                "6",
                "--p-in",
                "0.4",
                "--p-out",
                "0.02",
                "--seed",
                "4",
                "--out",
                &graph_path,
            ],
        )
        .unwrap();
        let mut assignments = String::new();
        for v in 0..60 {
            assignments.push_str(&format!("{v} {}\n", v / 10));
        }
        std::fs::write(&comm_path, assignments).unwrap();
        let base = [
            "--graph",
            &graph_path,
            "--communities",
            &comm_path,
            "--k",
            "3",
            "--algo",
            "ubg",
            "--max-samples",
            "2000",
            "--quiet",
        ];
        let seq = run_str("solve", &base).unwrap();
        for threads in ["1", "2", "4"] {
            let mut tokens = base.to_vec();
            tokens.extend(["--threads", threads]);
            assert_eq!(run_str("solve", &tokens).unwrap(), seq, "threads={threads}");
        }
        let mut tokens = base.to_vec();
        tokens.extend(["--threads", "0"]);
        assert!(matches!(run_str("solve", &tokens), Err(CliError::Usage(_))));
        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&comm_path).ok();
    }

    #[test]
    fn solve_rejects_bad_algo_and_threshold_conflict() {
        let graph_path = tmp("g2.txt");
        run_str(
            "generate",
            &[
                "--model",
                "er",
                "--nodes",
                "20",
                "--p",
                "0.1",
                "--out",
                &graph_path,
            ],
        )
        .unwrap();
        let comm_path = tmp("c2.txt");
        std::fs::write(&comm_path, "0 0\n1 0\n2 1\n3 1\n").unwrap();
        let err = run_str(
            "solve",
            &[
                "--graph",
                &graph_path,
                "--communities",
                &comm_path,
                "--k",
                "2",
                "--algo",
                "nope",
            ],
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        let err = run_str(
            "solve",
            &[
                "--graph",
                &graph_path,
                "--communities",
                &comm_path,
                "--k",
                "2",
                "--threshold",
                "2",
                "--threshold-frac",
                "0.5",
            ],
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&comm_path).ok();
    }

    #[test]
    fn estimate_rejects_out_of_range_seed() {
        let graph_path = tmp("g3.txt");
        run_str(
            "generate",
            &[
                "--model",
                "er",
                "--nodes",
                "10",
                "--p",
                "0.2",
                "--out",
                &graph_path,
            ],
        )
        .unwrap();
        let comm_path = tmp("c3.txt");
        std::fs::write(&comm_path, "0 0\n1 0\n").unwrap();
        let err = run_str(
            "estimate",
            &[
                "--graph",
                &graph_path,
                "--communities",
                &comm_path,
                "--seeds",
                "999",
            ],
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&comm_path).ok();
    }

    #[test]
    fn dot_subcommand_renders() {
        let graph_path = tmp("g5.txt");
        run_str(
            "generate",
            &[
                "--model",
                "er",
                "--nodes",
                "15",
                "--p",
                "0.2",
                "--out",
                &graph_path,
            ],
        )
        .unwrap();
        let comm_path = tmp("c5.txt");
        std::fs::write(&comm_path, "0 0\n1 0\n2 1\n").unwrap();
        let dot_out = run_str(
            "dot",
            &[
                "--graph",
                &graph_path,
                "--communities",
                &comm_path,
                "--seeds",
                "0,2",
                "--weights",
                "keep",
            ],
        )
        .unwrap();
        assert!(dot_out.contains("digraph imc"));
        assert!(dot_out.contains("cluster_0"));
        assert!(dot_out.contains("color=red"));
        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&comm_path).ok();
    }

    #[test]
    fn weights_flag_variants() {
        let graph_path = tmp("g4.txt");
        run_str(
            "generate",
            &[
                "--model",
                "er",
                "--nodes",
                "20",
                "--p",
                "0.2",
                "--out",
                &graph_path,
            ],
        )
        .unwrap();
        for w in ["cascade", "keep", "trivalency", "0.05"] {
            let out = run_str("stats", &["--graph", &graph_path, "--weights", w]).unwrap();
            assert!(out.contains("n=20"), "weights={w}");
        }
        assert!(run_str("stats", &["--graph", &graph_path, "--weights", "bogus"]).is_err());
        std::fs::remove_file(&graph_path).ok();
    }
}
