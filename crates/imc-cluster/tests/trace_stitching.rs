//! End-to-end trace contract of a chaos-kill cluster solve: with a trace
//! sink installed, a solve that loses a shard mid-flight must
//!
//! * leave the **answer bitwise identical** to the same solve untraced
//!   (tracing is pure observation — ISSUE 10 acceptance criterion);
//! * emit a stitchable timeline whose `cluster_solve` span parents the
//!   per-round `scatter_round` and `rpc_client`/`rpc_server` spans;
//! * record the fault story as events: `retry_probe` attempts,
//!   `shard_dead` with the degrade decision, `degraded_rescatter`
//!   naming the lost shard, and per-round `round_attribution` lines
//!   naming each round's straggler.
//!
//! One `#[test]` only: the trace sink is process-global, and this file
//! being its own integration binary keeps other tests out of the file.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use imc_cluster::{ChaosFault, ChaosProxy, Coordinator, CoordinatorConfig, CoordinatorHandle};
use imc_community::CommunitySet;
use imc_core::{ImcInstance, RicStore};
use imc_graph::{generators::erdos_renyi, NodeId, WeightModel};
use imc_obs::timeline::TraceSet;
use imc_service::client::{Client, ClientConfig, RetryPolicy};
use imc_service::json::Value;
use imc_service::{ServeConfig, Server, ServerHandle, ServiceState};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_instance(seed: u64) -> ImcInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = erdos_renyi(30, 0.1, &mut rng).reweighted(WeightModel::Uniform(0.3));
    let parts = (0..6)
        .map(|c| {
            let members: Vec<NodeId> = (c * 5..c * 5 + 5).map(NodeId::new).collect();
            (members, 1 + (c % 2), 1.0 + f64::from(c))
        })
        .collect();
    let communities = CommunitySet::from_parts(30, parts).unwrap();
    ImcInstance::new(graph, communities).unwrap()
}

fn spawn_shards(
    instance: &ImcInstance,
    shards: usize,
    samples: usize,
    base_seed: u64,
) -> (Vec<ServerHandle>, Vec<SocketAddr>) {
    let sampler = instance.sampler();
    let mut handles = Vec::with_capacity(shards);
    let mut addrs = Vec::with_capacity(shards);
    for partition in 0..shards {
        let mut store = RicStore::for_sampler(&sampler);
        store.extend_partition(&sampler, samples, base_seed, partition, shards, 2);
        let state = Arc::new(ServiceState::new(instance.clone(), store, 0));
        let config = ServeConfig {
            workers: 2,
            refresh: None,
            ..ServeConfig::default()
        };
        let handle = Server::start(state, config).unwrap();
        addrs.push(handle.addr());
        handles.push(handle);
    }
    (handles, addrs)
}

fn start_coordinator(instance: &ImcInstance, shards: Vec<SocketAddr>) -> CoordinatorHandle {
    Coordinator::start(
        Arc::new(instance.clone()),
        CoordinatorConfig {
            shards,
            client: ClientConfig::uniform(Duration::from_secs(5)),
            retry: RetryPolicy {
                attempts: 3,
                base_delay: Duration::from_millis(2),
                max_delay: Duration::from_millis(20),
                jitter: 0.0,
            },
            probe_timeout: Duration::from_millis(200),
            ..CoordinatorConfig::default()
        },
    )
    .unwrap()
}

/// One chaos-kill solve over a fresh 2-shard topology; returns the seed
/// set. The proxy fronting shard 1 goes dark at its 5th request.
fn chaos_solve(instance: &ImcInstance, samples: usize, base_seed: u64, k: usize) -> Vec<u64> {
    let (handles, addrs) = spawn_shards(instance, 2, samples, base_seed);
    let proxy = ChaosProxy::start(addrs[1], ChaosFault::Kill, 5).unwrap();
    let fronts = vec![addrs[0], proxy.addr()];
    let coordinator = start_coordinator(instance, fronts);

    let mut client = Client::connect(coordinator.addr(), Duration::from_secs(120)).unwrap();
    let line = format!(r#"{{"op":"solve","k":{k},"algo":"greedy","seed":{base_seed}}}"#);
    let resp = client.request(&line).unwrap();
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "chaos solve failed: {resp:?}"
    );
    assert!(proxy.tripped(), "the kill never fired");
    assert_eq!(resp.get("approximate").and_then(Value::as_bool), Some(true));
    let seeds = resp
        .get("seeds")
        .and_then(Value::as_array)
        .expect("seeds array")
        .iter()
        .filter_map(Value::as_u64)
        .collect();

    drop(client);
    coordinator.stop_and_join();
    proxy.stop_and_join();
    for h in handles {
        h.stop_and_join();
    }
    seeds
}

#[test]
fn chaos_kill_solve_traces_the_full_fault_story() {
    let instance = small_instance(22);
    let (samples, base_seed, k) = (192usize, 6u64, 4usize);

    // Reference run, untraced.
    let untraced_seeds = chaos_solve(&instance, samples, base_seed, k);

    // Identical run with the trace sink on.
    let trace_path =
        std::env::temp_dir().join(format!("imc-trace-stitching-{}.jsonl", std::process::id()));
    imc_obs::trace::set_sink_path(&trace_path).unwrap();
    let traced_seeds = chaos_solve(&instance, samples, base_seed, k);
    imc_obs::trace::clear_sink();

    assert_eq!(
        traced_seeds, untraced_seeds,
        "tracing must not change the answer (bitwise seed identity)"
    );

    let contents = std::fs::read_to_string(&trace_path).unwrap();
    let _ = std::fs::remove_file(&trace_path);
    let set = TraceSet::parse(&[("chaos".to_string(), contents)]);
    let tl = set
        .timeline(
            set.trace_ids()
                .iter()
                .find(|id| {
                    set.timeline(id)
                        .is_some_and(|t| t.spans.iter().any(|s| s.name == "cluster_solve"))
                })
                .expect("a trace holding the cluster_solve span"),
        )
        .unwrap();

    // The solve span parents the scatter rounds, which parent the
    // per-shard RPC client spans; shard daemons (same process, same
    // sink) contribute nested rpc_server spans.
    let solve = tl
        .spans
        .iter()
        .position(|s| s.name == "cluster_solve")
        .expect("cluster_solve span");
    assert_eq!(tl.spans[solve].detail, "GREEDY");
    let mut names = std::collections::HashSet::new();
    let mut stack = vec![solve];
    while let Some(at) = stack.pop() {
        names.insert(tl.spans[at].name.clone());
        stack.extend(tl.spans[at].children.iter().copied());
    }
    for expected in ["scatter_round", "rpc_client", "rpc_server"] {
        assert!(
            names.contains(expected),
            "span {expected} missing under cluster_solve; got {names:?}"
        );
    }

    // Per-round straggler attribution decodes, and every straggler is
    // one of the two shard addresses.
    let rounds = tl.rounds();
    assert!(!rounds.is_empty(), "no round_attribution events");
    for round in &rounds {
        assert!(!round.straggler.is_empty());
        assert!(round.straggler_s >= round.fastest_s);
        assert!(round.shards >= 1);
    }

    // The fault story: probe attempts, the death verdict, the degraded
    // re-scatter naming the lost shard.
    let kinds: Vec<&str> = tl.events.iter().map(|e| e.kind.as_str()).collect();
    for expected in ["retry_probe", "shard_dead", "degraded_rescatter"] {
        assert!(
            kinds.contains(&expected),
            "event {expected} missing; got {kinds:?}"
        );
    }
    let dead = tl.events.iter().find(|e| e.kind == "shard_dead").unwrap();
    let dead_shard = dead
        .fields
        .get("shard")
        .and_then(Value::as_str)
        .expect("shard_dead names its shard");
    let rescatter = tl
        .events
        .iter()
        .find(|e| e.kind == "degraded_rescatter")
        .unwrap();
    assert_eq!(
        rescatter.fields.get("lost").and_then(Value::as_str),
        Some(dead_shard),
        "degraded_rescatter must name the dead shard"
    );
    assert_eq!(
        rescatter.fields.get("survivors").and_then(Value::as_i64),
        Some(1),
    );

    // The folded stacks and report render, and the report tells the
    // straggler story in prose.
    assert!(tl.folded_stacks().lines().count() >= tl.spans.len());
    let report = tl.report();
    assert!(report.contains("straggler"), "report: {report}");
    assert!(report.contains("critical path:"), "report: {report}");
}
