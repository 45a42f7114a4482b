//! The cluster runner: spawns a whole topology (N shard daemons + one
//! coordinator) inside one process, round-trips the raw shard ops,
//! proves the cluster solve identical to a single-node reference in
//! seeds *and* evaluation count, and — with `--chaos` — rehearses the
//! coordinator's fault-recovery contract. It measures nothing: the
//! artifact it writes (`imc-cluster/smoke/v1`, committed as
//! `data/cluster_smoke.json`) holds identity flags and exact counts
//! that any machine reproduces bit for bit. Timings live in the
//! standalone `benchmark/` package (`docs/BENCHMARKS.md`).
//!
//! Everything is deterministic: the instance comes from the synthetic
//! dataset analogs, every shard draws partition `i` of the
//! `sampling_shard_plan` rooted at the topology's `base_seed`, and the
//! single-node reference draws the same plan un-partitioned — so
//! `seeds_identical` is a real end-to-end distributed-vs-local check,
//! not a tautology.

use std::fmt;
use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use imc_community::{BenefitPolicy, CommunitySet, ThresholdPolicy};
use imc_core::snapshot;
use imc_core::{ImcInstance, MaxrAlgorithm, RicSampler, RicStore, SolveRequest};
use imc_datasets::DatasetId;
use imc_graph::WeightModel;
use imc_obs::json::{self, ObjectBuilder, Value};
use imc_service::client::{Client, RetryPolicy};
use imc_service::{ServeConfig, Server, ServerHandle, ServiceState};

use crate::chaos::{ChaosFault, ChaosProxy, ChaosSpec};
use crate::coordinator::{Coordinator, CoordinatorConfig, CoordinatorHandle};
use crate::topology::Topology;
use imc_obs::families;

/// Schema tag of the emitted artifact.
pub const SMOKE_SCHEMA: &str = "imc-cluster/smoke/v1";

/// A runner failure, with a human-readable message.
#[derive(Debug)]
pub struct RunnerError {
    detail: String,
}

impl RunnerError {
    fn new(detail: impl Into<String>) -> Self {
        Self {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cluster runner: {}", self.detail)
    }
}

impl std::error::Error for RunnerError {}

impl From<crate::topology::TopologyError> for RunnerError {
    fn from(e: crate::topology::TopologyError) -> Self {
        RunnerError::new(e.to_string())
    }
}

impl From<std::io::Error> for RunnerError {
    fn from(e: std::io::Error) -> Self {
        RunnerError::new(e.to_string())
    }
}

/// What to run and where to put the artifact.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// The parsed topology.
    pub topology: Topology,
    /// Where to write the artifact (`None` skips the write).
    pub out: Option<PathBuf>,
    /// Dataset directory for `imc-datasets` drop-in files (the bench
    /// harness convention is `data/`).
    pub data_dir: PathBuf,
    /// Print progress lines to stderr.
    pub verbose: bool,
    /// Fault to inject (`--chaos`): puts one shard behind a
    /// [`ChaosProxy`] and verifies the coordinator's recovery story.
    pub chaos: Option<ChaosSpec>,
    /// JSONL trace sink (`--trace`): every request's trace events are
    /// appended here for the run's duration.
    pub trace: Option<PathBuf>,
}

impl RunnerOptions {
    /// Options for a topology with the artifact written to `out`.
    pub fn new(topology: Topology, out: Option<PathBuf>) -> Self {
        RunnerOptions {
            topology,
            out,
            data_dir: PathBuf::from("data"),
            verbose: true,
            chaos: None,
            trace: None,
        }
    }
}

/// Everything the run checked and counted; serialized by
/// [`RunnerReport::to_json`]. No field depends on the machine or the
/// clock.
#[derive(Debug, Clone)]
pub struct RunnerReport {
    /// Dataset name from the topology.
    pub dataset: String,
    /// Total samples across all shards.
    pub samples: usize,
    /// Solve budget.
    pub k: u32,
    /// Shard count.
    pub shards: usize,
    /// Cluster GREEDY seeds bitwise equal to the single-node reference.
    pub seeds_identical: bool,
    /// Cluster evaluation count equal to the single-node engine's.
    pub evaluations_identical: bool,
    /// The raw shard eval ops round-tripped on shard 0.
    pub eval_roundtrip: bool,
    /// Evaluations reported by the distributed solve.
    pub solve_evaluations: u64,
    /// Scatter rounds the solve made (`imc_cluster_scatter_total` over
    /// the solve RPC; the runner's shards and coordinator share one
    /// process and nothing else scatters meanwhile). One per greedy round
    /// plus the final whole-set score, so far below `solve_evaluations`.
    pub solve_scatter_rounds: u64,
    /// Chaos-mode outcome (`None` for normal runs).
    pub chaos: Option<ChaosReport>,
}

/// What a chaos run observed, serialized under the artifact's `chaos`
/// key.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The injected spec, in `--chaos` syntax.
    pub spec: String,
    /// Whether the solve came back flagged `approximate`.
    pub approximate: bool,
    /// `lost_shards` from the solve response.
    pub lost_shards: Vec<String>,
    /// `effective_samples` from the solve response.
    pub effective_samples: u64,
    /// For a permanent fault: whether the degraded seeds matched a
    /// fresh solve over the surviving shard set. For a transient
    /// fault this mirrors `seeds_identical` (vs single-node).
    pub degraded_match: bool,
}

impl RunnerReport {
    /// Serializes the report as the `imc-cluster/smoke/v1` artifact.
    pub fn to_json(&self) -> String {
        let value = ObjectBuilder::new()
            .field("schema", SMOKE_SCHEMA)
            .field("dataset", self.dataset.as_str())
            .field("samples", self.samples)
            .field("k", u64::from(self.k))
            .field("shards", self.shards)
            .field("seeds_identical", self.seeds_identical)
            .field("evaluations_identical", self.evaluations_identical)
            .field("eval_roundtrip", self.eval_roundtrip)
            .field(
                "solve",
                ObjectBuilder::new()
                    .field("evaluations", self.solve_evaluations)
                    .field("scatter_rounds", self.solve_scatter_rounds)
                    .build(),
            );
        let value = match &self.chaos {
            Some(chaos) => value.field(
                "chaos",
                ObjectBuilder::new()
                    .field("spec", chaos.spec.as_str())
                    .field("approximate", chaos.approximate)
                    .field("lost_shards", chaos.lost_shards.clone())
                    .field("effective_samples", chaos.effective_samples)
                    .field("degraded_match", chaos.degraded_match)
                    .build(),
            ),
            None => value,
        };
        json::to_string(&value.build())
    }
}

/// Maps a topology dataset name to its [`DatasetId`].
fn parse_dataset(name: &str) -> Result<DatasetId, RunnerError> {
    imc_datasets::all()
        .into_iter()
        .find(|&id| imc_datasets::spec(id).name == name)
        .ok_or_else(|| {
            let names: Vec<&str> = imc_datasets::all()
                .into_iter()
                .map(|id| imc_datasets::spec(id).name)
                .collect();
            RunnerError::new(format!(
                "unknown dataset `{name}` (expected one of {})",
                names.join(" | ")
            ))
        })
}

/// Builds the solve instance exactly as the bench harness does: dataset
/// analog, weighted-cascade weights, Louvain communities split at the
/// size cap, constant thresholds, population benefits.
fn build_instance(topo: &Topology, data_dir: &Path) -> Result<ImcInstance, RunnerError> {
    let id = parse_dataset(&topo.dataset)?;
    let (graph, _source) =
        imc_datasets::load_or_generate(id, data_dir, topo.scale, topo.instance_seed)
            .map_err(|e| RunnerError::new(format!("dataset load failed: {e}")))?;
    let graph = graph.reweighted(WeightModel::WeightedCascade);
    let communities = CommunitySet::builder(&graph)
        .louvain(topo.instance_seed)
        .split_larger_than(topo.size_cap)
        .threshold(ThresholdPolicy::Constant(topo.threshold))
        .benefit(BenefitPolicy::Population)
        .build()
        .map_err(|e| RunnerError::new(format!("community build failed: {e}")))?;
    ImcInstance::new(graph, communities)
        .map_err(|e| RunnerError::new(format!("instance build failed: {e}")))
}

/// Cache path for one shard's sampling-plan partition. The filename
/// binds every input that determines the partition's contents
/// (partition index and count, total samples, base seed, instance
/// fingerprint), so a parameter change simply misses the cache instead
/// of silently reusing stale samples.
fn shard_snapshot_path(dir: &Path, fingerprint: u64, topo: &Topology, partition: usize) -> PathBuf {
    dir.join(format!(
        "shard-{partition}-of-{shards}-n{samples}-b{base_seed}-{fingerprint:016x}.snap",
        shards = topo.shards,
        samples = topo.samples,
        base_seed = topo.base_seed,
    ))
}

/// Loads one shard's store from the snapshot cache, or draws the
/// partition fresh and (best-effort) persists it for the next run.
///
/// Cache writes go through a temp file + rename so a crashed run can
/// never leave a truncated snapshot behind, and every cache failure —
/// unreadable file, wrong version, fingerprint mismatch — degrades to
/// the fresh-draw path. Correctness never depends on the cache: the
/// runner's end-to-end `seeds_identical` check compares the cluster
/// against an uncached single-node solve.
fn load_or_build_shard_store(
    sampler: &RicSampler<'_>,
    fingerprint: u64,
    topo: &Topology,
    partition: usize,
    snapshot_dir: Option<&Path>,
    log: &dyn Fn(&str),
) -> RicStore {
    let cache_path = snapshot_dir.map(|dir| shard_snapshot_path(dir, fingerprint, topo, partition));
    if let Some(path) = &cache_path {
        if let Ok(bytes) = fs::read(path) {
            match snapshot::decode(&bytes) {
                Ok(data) if data.fingerprint == fingerprint => {
                    log(&format!(
                        "shard {partition}: cold-started from snapshot cache {} ({} samples)",
                        path.display(),
                        data.collection.len()
                    ));
                    return data.collection;
                }
                Ok(data) => log(&format!(
                    "shard {partition}: cache fingerprint mismatch ({:#018x} != {:#018x}), re-drawing",
                    data.fingerprint, fingerprint
                )),
                Err(e) => log(&format!(
                    "shard {partition}: unreadable cache {}: {e}; re-drawing",
                    path.display()
                )),
            }
        }
    }
    let mut store = RicStore::for_sampler(sampler);
    store.extend_partition(
        sampler,
        topo.samples,
        topo.base_seed,
        partition,
        topo.shards,
        topo.workers,
    );
    if let Some(path) = &cache_path {
        let written = path
            .parent()
            .map(fs::create_dir_all)
            .transpose()
            .map_err(snapshot::SnapshotError::Io)
            .and_then(|_| snapshot::save(path, &store, fingerprint, 0));
        match written {
            Ok(()) => log(&format!(
                "shard {partition}: cached {} samples at {}",
                store.len(),
                path.display()
            )),
            Err(e) => log(&format!(
                "shard {partition}: could not write cache {}: {e}",
                path.display()
            )),
        }
    }
    store
}

/// Builds the coordinator config the topology's `[fault]` section asks
/// for, fronting `shards`.
fn coordinator_config(topo: &Topology, shards: Vec<SocketAddr>) -> CoordinatorConfig {
    CoordinatorConfig {
        shards,
        retry: RetryPolicy {
            attempts: topo.retry_attempts,
            base_delay: Duration::from_millis(topo.retry_base_ms),
            max_delay: Duration::from_millis(topo.retry_cap_ms),
            jitter: topo.retry_jitter,
        },
        probe_timeout: Duration::from_millis(topo.probe_timeout_ms),
        degrade: topo.degrade,
        ..CoordinatorConfig::default()
    }
}

/// A running topology: shard daemons plus the coordinator, with an
/// optional chaos proxy spliced in front of one shard.
struct Cluster {
    shard_handles: Vec<ServerHandle>,
    /// What the coordinator dials — the proxy address for the chaos
    /// shard, daemon addresses for the rest.
    front_addrs: Vec<SocketAddr>,
    /// The daemons' real addresses, bypassing any proxy. Direct checks
    /// (eval round-trip, fresh-survivor solves) use these so they never
    /// consume the proxy's request-count trigger.
    daemon_addrs: Vec<SocketAddr>,
    proxy: Option<ChaosProxy>,
    coordinator: CoordinatorHandle,
}

impl Cluster {
    /// Spawns the shard daemons (each over its sampling-plan partition)
    /// and the coordinator fronting them, all on ephemeral ports.
    /// With a `snapshot_dir`, shard stores load from the format-v3
    /// cache when a matching file exists and are persisted otherwise.
    /// With a `chaos` spec, the named shard sits behind a
    /// [`ChaosProxy`] armed with the spec's fault.
    fn spawn(
        instance: &Arc<ImcInstance>,
        topo: &Topology,
        snapshot_dir: Option<&Path>,
        chaos: Option<&ChaosSpec>,
        log: &dyn Fn(&str),
    ) -> Result<Cluster, RunnerError> {
        if let Some(spec) = chaos {
            if spec.shard >= topo.shards {
                return Err(RunnerError::new(format!(
                    "chaos spec names shard {} but the topology has only {}",
                    spec.shard, topo.shards
                )));
            }
        }
        let sampler = instance.sampler();
        let fingerprint = snapshot::instance_fingerprint(instance.graph(), instance.communities());
        let mut shard_handles = Vec::with_capacity(topo.shards);
        let mut daemon_addrs = Vec::with_capacity(topo.shards);
        // A connection occupies a shard pool worker for its lifetime, so
        // the pool must cover what the coordinator can hold open at once:
        // the solve session, a retry's reconnect while a hung connection
        // lingers, and a health probe — with one to spare.
        let workers = topo.workers.max(4);
        for partition in 0..topo.shards {
            let store = load_or_build_shard_store(
                &sampler,
                fingerprint,
                topo,
                partition,
                snapshot_dir,
                log,
            );
            let state = Arc::new(ServiceState::new((**instance).clone(), store, 0));
            let config = ServeConfig {
                workers,
                refresh: None,
                ..ServeConfig::default()
            };
            let handle = Server::start(state, config)?;
            daemon_addrs.push(handle.addr());
            shard_handles.push(handle);
        }
        let mut front_addrs = daemon_addrs.clone();
        let proxy = match chaos {
            Some(spec) => {
                let proxy = ChaosProxy::start(daemon_addrs[spec.shard], spec.fault, spec.after)?;
                log(&format!(
                    "chaos: shard {} ({}) behind proxy {} armed with {spec}",
                    spec.shard,
                    daemon_addrs[spec.shard],
                    proxy.addr()
                ));
                front_addrs[spec.shard] = proxy.addr();
                Some(proxy)
            }
            None => None,
        };
        let coordinator = Coordinator::start(
            Arc::clone(instance),
            coordinator_config(topo, front_addrs.clone()),
        )?;
        Ok(Cluster {
            shard_handles,
            front_addrs,
            daemon_addrs,
            proxy,
            coordinator,
        })
    }

    fn stop(self) {
        self.coordinator.stop_and_join();
        if let Some(proxy) = self.proxy {
            proxy.stop_and_join();
        }
        for handle in self.shard_handles {
            handle.stop_and_join();
        }
    }
}

/// One request/response against `addr`, with response errors mapped to
/// [`RunnerError`].
fn roundtrip(client: &mut Client, line: &str, what: &str) -> Result<Value, RunnerError> {
    let value = client
        .request(line)
        .map_err(|e| RunnerError::new(format!("{what}: {e}")))?;
    match value.get("ok").and_then(Value::as_bool) {
        Some(true) => Ok(value),
        _ => Err(RunnerError::new(format!(
            "{what} failed: {}",
            json::to_string(&value)
        ))),
    }
}

/// Checks the raw shard-role ops on shard 0: `eval_begin` →
/// `eval_batch`(ĉ) → `eval_seed` → `eval_batch`(ν) →
/// `eval_end` must round-trip coherently.
fn check_eval_roundtrip(addr: SocketAddr, node_count: usize) -> Result<(), RunnerError> {
    let mut client = Client::connect(addr, Duration::from_secs(10))
        .map_err(|e| RunnerError::new(format!("shard connect: {e}")))?;
    let begin = roundtrip(&mut client, r#"{"op":"eval_begin"}"#, "eval_begin")?;
    let session = begin
        .get("session")
        .and_then(Value::as_u64)
        .ok_or_else(|| RunnerError::new("eval_begin returned no session id"))?;
    let probe: Vec<u64> = (0..node_count.min(4) as u64).collect();
    let nodes = json::to_string(&Value::from(probe.clone()));
    let c = roundtrip(
        &mut client,
        &format!(r#"{{"op":"eval_batch","session":{session},"kind":"c","nodes":{nodes}}}"#),
        "eval_batch c",
    )?;
    let gains = c
        .get("gains")
        .and_then(Value::as_array)
        .ok_or_else(|| RunnerError::new("eval_batch returned no gains"))?;
    if gains.len() != probe.len() {
        return Err(RunnerError::new(format!(
            "eval_batch returned {} gains for {} nodes",
            gains.len(),
            probe.len()
        )));
    }
    roundtrip(
        &mut client,
        &format!(r#"{{"op":"eval_seed","session":{session},"node":0}}"#),
        "eval_seed",
    )?;
    let nu = roundtrip(
        &mut client,
        &format!(r#"{{"op":"eval_batch","session":{session},"kind":"nu","nodes":{nodes}}}"#),
        "eval_batch nu",
    )?;
    if nu.get("accs").and_then(Value::as_array).map(<[Value]>::len) != Some(probe.len()) {
        return Err(RunnerError::new("eval_batch nu returned a bad accs array"));
    }
    roundtrip(
        &mut client,
        &format!(r#"{{"op":"eval_end","session":{session}}}"#),
        "eval_end",
    )?;
    Ok(())
}

/// Runs the full harness: spawn, verify, report.
///
/// # Errors
///
/// Any spawn, protocol, identity-check or artifact-write failure.
pub fn run(options: &RunnerOptions) -> Result<RunnerReport, RunnerError> {
    let topo = &options.topology;
    let log = |msg: &str| {
        if options.verbose {
            eprintln!("cluster-runner: {msg}");
        }
    };
    if let Some(trace) = &options.trace {
        imc_obs::trace::set_sink_path(trace)
            .map_err(|e| RunnerError::new(format!("cannot open trace sink: {e}")))?;
        log(&format!("tracing to {}", trace.display()));
    }
    log(&format!(
        "building instance: dataset={} scale={} samples={} shards={}",
        topo.dataset, topo.scale, topo.samples, topo.shards
    ));
    let instance = Arc::new(build_instance(topo, &options.data_dir)?);

    log("spawning shard daemons + coordinator");
    let snapshot_dir = (!topo.snapshot_dir.is_empty()).then(|| PathBuf::from(&topo.snapshot_dir));
    let cluster = Cluster::spawn(
        &instance,
        topo,
        snapshot_dir.as_deref(),
        options.chaos.as_ref(),
        &log,
    )?;
    let result = run_against(&cluster, &instance, topo, options.chaos.as_ref(), &log);
    cluster.stop();
    let (mut report, cluster_seeds) = result?;

    // For a permanent fault the answer is *supposed* to differ from the
    // full-R single-node solve (its R shrank); identity was already
    // checked against a fresh solve over the surviving shard set inside
    // `check_recovery`. Every other run compares against single-node.
    let expects_full_r = !matches!(
        options.chaos,
        Some(ChaosSpec {
            fault: ChaosFault::Kill,
            ..
        })
    );
    if expects_full_r {
        // The single-node reference solve — same sampling plan, one store.
        log("running single-node reference solve");
        let sampler = instance.sampler();
        let mut full = RicStore::for_sampler(&sampler);
        full.extend_parallel_with_workers(&sampler, topo.samples, topo.base_seed, topo.workers);
        let reference = MaxrAlgorithm::Greedy
            .solve(
                &instance,
                &full,
                &SolveRequest::new(topo.k as usize).with_seed(topo.base_seed),
            )
            .map_err(|e| RunnerError::new(format!("reference solve failed: {e}")))?;
        let reference_seeds: Vec<u64> =
            reference.seeds.iter().map(|v| u64::from(v.raw())).collect();
        report.seeds_identical = cluster_seeds == reference_seeds;
        report.evaluations_identical = report.solve_evaluations == reference.evaluations;
        if let Some(chaos) = &mut report.chaos {
            chaos.degraded_match = report.seeds_identical;
        }
        log(&format!(
            "seeds_identical={} evaluations_identical={} ({} vs {} evaluations)",
            report.seeds_identical,
            report.evaluations_identical,
            report.solve_evaluations,
            reference.evaluations
        ));
    }

    if let Some(out) = &options.out {
        fs::write(out, report.to_json() + "\n")?;
        log(&format!("wrote {}", out.display()));
    }
    if options.trace.is_some() {
        imc_obs::trace::clear_sink();
    }
    Ok(report)
}

/// One GREEDY solve answered by a coordinator, with the scatter rounds
/// it made (`imc_cluster_scatter_total` over the RPC; the runner's
/// shards and coordinators share one process and nothing else scatters
/// meanwhile).
struct ClusterSolve {
    response: Value,
    seeds: Vec<u64>,
    evaluations: u64,
    scatter_rounds: u64,
}

/// Sends the topology's solve (`greedy`, `k`, `base_seed`) to the
/// coordinator at `addr`.
fn solve_through(
    addr: SocketAddr,
    topo: &Topology,
    what: &str,
) -> Result<ClusterSolve, RunnerError> {
    let mut client = Client::connect(addr, Duration::from_secs(600))
        .map_err(|e| RunnerError::new(format!("{what}: coordinator connect: {e}")))?;
    let line = json::to_string(
        &ObjectBuilder::new()
            .field("op", "solve")
            .field("algo", "greedy")
            .field("k", u64::from(topo.k))
            .field("seed", topo.base_seed)
            .build(),
    );
    let scatter_before = families::CLUSTER_SCATTER.handle().get();
    let response = roundtrip(&mut client, &line, what)?;
    let scatter_rounds = families::CLUSTER_SCATTER.handle().get() - scatter_before;
    let seeds = response
        .get("seeds")
        .and_then(Value::as_array)
        .ok_or_else(|| RunnerError::new(format!("{what} returned no seeds")))?
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| RunnerError::new(format!("{what}: non-integer seed")))
        })
        .collect::<Result<_, _>>()?;
    let evaluations = response
        .get("evaluations")
        .and_then(Value::as_u64)
        .ok_or_else(|| RunnerError::new(format!("{what} returned no evaluation count")))?;
    Ok(ClusterSolve {
        response,
        seeds,
        evaluations,
        scatter_rounds,
    })
}

/// The cluster-side phases (everything that needs live daemons): the
/// raw shard-op round-trip, the distributed solve and, with a chaos
/// spec armed, the recovery contract. Returns the report (single-node
/// identity flags unfilled) plus the cluster's seed set for the
/// caller's single-node comparison.
fn run_against(
    cluster: &Cluster,
    instance: &Arc<ImcInstance>,
    topo: &Topology,
    chaos: Option<&ChaosSpec>,
    log: &dyn Fn(&str),
) -> Result<(RunnerReport, Vec<u64>), RunnerError> {
    // Straight at the daemon, never through a chaos proxy, whose trigger
    // count it would consume.
    log("checking shard eval round-trip");
    check_eval_roundtrip(cluster.daemon_addrs[0], instance.node_count())?;

    let armed = chaos.map_or_else(String::new, |spec| format!(" with {spec} armed"));
    log(&format!("distributed GREEDY solve at k={}{armed}", topo.k));
    let solve = solve_through(cluster.coordinator.addr(), topo, "cluster solve")?;
    let chaos = chaos
        .map(|spec| check_recovery(cluster, instance, topo, spec, &solve, log))
        .transpose()?;

    // A kill fault settles identity in `check_recovery` (against the
    // survivors); every other run leaves it to `run`'s single-node
    // comparison.
    let settled = chaos.as_ref().is_some_and(|c| c.degraded_match);
    let report = RunnerReport {
        dataset: topo.dataset.clone(),
        samples: topo.samples,
        k: topo.k,
        shards: topo.shards,
        seeds_identical: settled,
        evaluations_identical: settled,
        eval_roundtrip: true,
        solve_evaluations: solve.evaluations,
        solve_scatter_rounds: solve.scatter_rounds,
        chaos,
    };
    Ok((report, solve.seeds))
}

/// Asserts the recovery contract on a solve made with `spec` armed: a
/// transient fault must not degrade the answer; a permanent one must
/// degrade it, name exactly the lost shard, and pick the seeds a fresh
/// solve over the surviving shard set picks.
fn check_recovery(
    cluster: &Cluster,
    instance: &Arc<ImcInstance>,
    topo: &Topology,
    spec: &ChaosSpec,
    solve: &ClusterSolve,
    log: &dyn Fn(&str),
) -> Result<ChaosReport, RunnerError> {
    let response = &solve.response;
    let approximate = response
        .get("approximate")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    let lost_shards: Vec<String> = response
        .get("lost_shards")
        .and_then(Value::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    let effective_samples = response
        .get("effective_samples")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    log(&format!(
        "chaos solve completed: approximate={approximate} lost_shards={lost_shards:?} \
         effective_samples={effective_samples} (proxy tripped={})",
        cluster.proxy.as_ref().is_some_and(ChaosProxy::tripped)
    ));

    let degraded_match = match spec.fault {
        ChaosFault::Kill => {
            if !approximate {
                return Err(RunnerError::new(
                    "kill fault: solve was not flagged approximate",
                ));
            }
            let proxy_addr = cluster.front_addrs[spec.shard].to_string();
            if lost_shards != vec![proxy_addr.clone()] {
                return Err(RunnerError::new(format!(
                    "kill fault: lost_shards {lost_shards:?} should name exactly the \
                     killed shard {proxy_addr}"
                )));
            }
            // The acceptance identity: a fresh coordinator configured
            // with only the surviving daemons must reproduce the
            // degraded seeds bitwise.
            log("verifying degraded seeds against a fresh solve over the survivors");
            let survivors: Vec<SocketAddr> = cluster
                .daemon_addrs
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != spec.shard)
                .map(|(_, &addr)| addr)
                .collect();
            let fresh =
                Coordinator::start(Arc::clone(instance), coordinator_config(topo, survivors))?;
            let verify = solve_through(fresh.addr(), topo, "fresh survivor solve");
            fresh.stop_and_join();
            let fresh_seeds = verify?.seeds;
            if solve.seeds != fresh_seeds {
                return Err(RunnerError::new(format!(
                    "degraded seeds {:?} differ from the fresh survivor solve's \
                     {fresh_seeds:?}",
                    solve.seeds
                )));
            }
            log("degraded seeds match the fresh survivor solve bitwise");
            true
        }
        ChaosFault::DropOnce | ChaosFault::Hang(_) | ChaosFault::Slow(_) => {
            if approximate || !lost_shards.is_empty() {
                return Err(RunnerError::new(format!(
                    "transient fault: solve degraded unexpectedly \
                     (approximate={approximate}, lost_shards={lost_shards:?})"
                )));
            }
            // `run` fills seeds_identical (and mirrors it into
            // chaos.degraded_match) from the single-node reference.
            false
        }
    };
    Ok(ChaosReport {
        spec: spec.to_string(),
        approximate,
        lost_shards,
        effective_samples,
        degraded_match,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_graph::{generators::erdos_renyi, NodeId, WeightModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_instance() -> ImcInstance {
        let mut rng = StdRng::seed_from_u64(7);
        let graph = erdos_renyi(24, 0.15, &mut rng).reweighted(WeightModel::Uniform(0.3));
        let parts = (0..4)
            .map(|c| {
                let members: Vec<NodeId> = (c * 6..c * 6 + 6).map(NodeId::new).collect();
                (members, 2, 1.0)
            })
            .collect();
        let communities = imc_community::CommunitySet::from_parts(24, parts).unwrap();
        ImcInstance::new(graph, communities).unwrap()
    }

    #[test]
    fn shard_snapshot_cache_round_trips_bitwise() {
        let instance = tiny_instance();
        let sampler = instance.sampler();
        let fingerprint = snapshot::instance_fingerprint(instance.graph(), instance.communities());
        let topo = Topology::parse("[cluster]\nshards = 2\nworkers = 1\nsamples = 512\n").unwrap();
        let dir = std::env::temp_dir().join(format!("imc-shard-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let log = |_: &str| {};
        for partition in 0..topo.shards {
            let fresh = load_or_build_shard_store(
                &sampler,
                fingerprint,
                &topo,
                partition,
                Some(&dir),
                &log,
            );
            let path = shard_snapshot_path(&dir, fingerprint, &topo, partition);
            assert!(path.is_file(), "cache file missing after fresh draw");
            let cached = load_or_build_shard_store(
                &sampler,
                fingerprint,
                &topo,
                partition,
                Some(&dir),
                &log,
            );
            assert_eq!(fresh, cached, "cached shard store differs from fresh draw");
        }

        // A fingerprint mismatch must re-draw (same deterministic plan,
        // so same contents) and overwrite the cache under the new name.
        let other =
            load_or_build_shard_store(&sampler, fingerprint ^ 1, &topo, 0, Some(&dir), &log);
        let fresh = load_or_build_shard_store(&sampler, fingerprint, &topo, 0, Some(&dir), &log);
        assert_eq!(other, fresh);
        let renamed = shard_snapshot_path(&dir, fingerprint ^ 1, &topo, 0);
        let data = snapshot::decode(&fs::read(renamed).unwrap()).unwrap();
        assert_eq!(data.fingerprint, fingerprint ^ 1);

        // No directory: plain fresh draw, nothing written anywhere.
        let uncached = load_or_build_shard_store(&sampler, fingerprint, &topo, 0, None, &log);
        assert_eq!(uncached, fresh);

        let _ = fs::remove_dir_all(&dir);
    }
}
