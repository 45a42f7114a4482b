//! Distributed-vs-single-node equivalence: a coordinator fronting 1, 2
//! or 4 shard daemons must produce **bitwise identical** seed sets and
//! evaluation counts to the single-node solver for every MAXR
//! algorithm, because the shards jointly hold exactly the collection a
//! single node would sample (`extend_partition` of the one shared
//! sampling plan) and the scatter-gather reduction reproduces the
//! estimator arithmetic exactly (integer sums, for ĉ and for ν's Q32
//! numerators alike — so not even the shard order is part of the answer).

use std::net::SocketAddr;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};
use std::time::Duration;

use imc_cluster::{Coordinator, CoordinatorConfig, CoordinatorHandle};
use imc_community::{BenefitPolicy, CommunitySet, ThresholdPolicy};
use imc_core::{ImcInstance, MaxrAlgorithm, RicStore, SolveRequest};
use imc_datasets::DatasetId;
use imc_graph::{generators::erdos_renyi, NodeId, WeightModel};
use imc_service::client::Client;
use imc_service::client::RetryPolicy;
use imc_service::json::Value;
use imc_service::{ServeConfig, Server, ServerHandle, ServiceState};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ALGOS: [(&str, MaxrAlgorithm); 5] = [
    ("greedy", MaxrAlgorithm::Greedy),
    ("ubg", MaxrAlgorithm::Ubg),
    ("maf", MaxrAlgorithm::Maf),
    ("bt", MaxrAlgorithm::Bt),
    ("mb", MaxrAlgorithm::Mb),
];

/// A random small instance whose thresholds stay ≤ 2, so BT and MB are
/// admissible alongside GREEDY/UBG/MAF.
fn small_instance(seed: u64) -> ImcInstance {
    instance_with_thresholds(seed, |c| 1 + (c % 2))
}

/// Six communities of five on a random 30-node graph; community `c` has
/// threshold `threshold(c)`.
fn instance_with_thresholds(seed: u64, threshold: impl Fn(u32) -> u32) -> ImcInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = erdos_renyi(30, 0.1, &mut rng).reweighted(WeightModel::Uniform(0.3));
    let parts = (0..6)
        .map(|c| {
            let members: Vec<NodeId> = (c * 5..c * 5 + 5).map(NodeId::new).collect();
            (members, threshold(c), 1.0 + f64::from(c))
        })
        .collect();
    let communities = CommunitySet::from_parts(30, parts).unwrap();
    ImcInstance::new(graph, communities).unwrap()
}

/// Shard daemons over the partitions of one sampling plan, plus a
/// coordinator fronting them.
fn spawn_cluster(
    instance: &ImcInstance,
    shards: usize,
    samples: usize,
    base_seed: u64,
) -> (Vec<ServerHandle>, CoordinatorHandle) {
    let sampler = instance.sampler();
    let mut handles = Vec::with_capacity(shards);
    let mut addrs: Vec<SocketAddr> = Vec::with_capacity(shards);
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
    let coordinator = coordinator_over(instance, addrs);
    (handles, coordinator)
}

/// A coordinator fronting `shards`, in that order.
fn coordinator_over(instance: &ImcInstance, shards: Vec<SocketAddr>) -> CoordinatorHandle {
    Coordinator::start(
        Arc::new(instance.clone()),
        CoordinatorConfig {
            shards,
            ..CoordinatorConfig::default()
        },
    )
    .unwrap()
}

fn stop_cluster(handles: Vec<ServerHandle>, coordinator: CoordinatorHandle) {
    coordinator.stop_and_join();
    for h in handles {
        h.stop_and_join();
    }
}

/// `imc_cluster_scatter_total` is one counter per process, and this file's
/// tests run on parallel threads: the acceptance test, which pins the
/// counter's growth over one solve, holds this exclusively; every other
/// test that makes a coordinator scatter holds it shared.
static SCATTER_TOTAL: RwLock<()> = RwLock::new(());

fn scatter_shared() -> RwLockReadGuard<'static, ()> {
    SCATTER_TOTAL.read().unwrap_or_else(PoisonError::into_inner)
}

/// One request against the coordinator, which must answer `ok`.
fn request_ok(addr: SocketAddr, line: &str) -> Value {
    let mut client = Client::connect(addr, Duration::from_secs(120)).unwrap();
    let resp = client.request(line).unwrap();
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "{line} failed: {resp:?}"
    );
    resp
}

/// One solve against the coordinator; returns (seeds, evaluations).
fn cluster_solve(addr: SocketAddr, algo: &str, k: usize, seed: u64) -> (Vec<NodeId>, u64) {
    let line = format!(r#"{{"op":"solve","k":{k},"algo":"{algo}","seed":{seed}}}"#);
    let resp = request_ok(addr, &line);
    let seeds = resp
        .get("seeds")
        .and_then(Value::as_array)
        .expect("seeds array")
        .iter()
        .map(|v| NodeId::new(v.as_u64().expect("integer seed") as u32))
        .collect();
    let evaluations = resp
        .get("evaluations")
        .and_then(Value::as_u64)
        .expect("evaluation count");
    (seeds, evaluations)
}

/// The full cross-product check for one instance/sampling configuration.
fn assert_equivalence(
    instance: &ImcInstance,
    shards: usize,
    samples: usize,
    base_seed: u64,
    k: usize,
) {
    let sampler = instance.sampler();
    let mut full = RicStore::for_sampler(&sampler);
    full.extend_parallel_with_workers(&sampler, samples, base_seed, 2);

    let (handles, coordinator) = spawn_cluster(instance, shards, samples, base_seed);
    let _shared = scatter_shared();
    for (name, algo) in ALGOS {
        let solver_seed = base_seed ^ 0x5EED;
        let reference = algo
            .solve(
                instance,
                &full,
                &SolveRequest::new(k).with_seed(solver_seed),
            )
            .unwrap();
        let (seeds, evaluations) = cluster_solve(coordinator.addr(), name, k, solver_seed);
        assert_eq!(
            seeds, reference.seeds,
            "{name} seeds diverged at shards={shards} samples={samples} k={k}"
        );
        assert_eq!(
            evaluations, reference.evaluations,
            "{name} evaluation counts diverged at shards={shards} samples={samples} k={k}"
        );
    }
    stop_cluster(handles, coordinator);
}

#[test]
fn all_solvers_bitwise_identical_over_shard_counts() {
    let instance = small_instance(42);
    for shards in [1usize, 2, 4] {
        assert_equivalence(&instance, shards, 256, 77, 5);
    }
}

/// Neither shard count nor shard order is part of the answer: every
/// reduction is an integer sum, so a coordinator over one shard, over two,
/// and over the same two in reverse order each returns the seeds, evaluation count, `estimate`, sandwich ratio and
/// `nu_estimate` of the in-process solve, bit for bit. Thresholds of 3
/// make the ν terms thirds, whose `f64` sums do depend on the order they
/// are folded in — the carry chain this replaced needed partition order.
#[test]
fn reversed_shard_order_changes_no_bit() {
    let instance = instance_with_thresholds(11, |_| 3);
    let (samples, base_seed, k) = (384, 5, 6);
    let sampler = instance.sampler();
    let mut full = RicStore::for_sampler(&sampler);
    full.extend_parallel_with_workers(&sampler, samples, base_seed, 2);
    let reference = MaxrAlgorithm::Ubg
        .solve(&instance, &full, &SolveRequest::new(k))
        .unwrap();
    let ratio = reference.extras.sandwich_ratio().expect("UBG extras");

    let (handles, forward) = spawn_cluster(&instance, 2, samples, base_seed);
    let reversed = coordinator_over(&instance, handles.iter().rev().map(|h| h.addr()).collect());
    let (single_handles, single) = spawn_cluster(&instance, 1, samples, base_seed);
    let _shared = scatter_shared();
    let seeds_json: Vec<String> = reference
        .seeds
        .iter()
        .map(|v| v.raw().to_string())
        .collect();
    let estimate_line = format!(r#"{{"op":"estimate","seeds":[{}]}}"#, seeds_json.join(","));
    let bits = |resp: &Value, key: &str| resp.get(key).and_then(Value::as_f64).map(f64::to_bits);
    for coordinator in [&single, &forward, &reversed] {
        let (seeds, evaluations) = cluster_solve(coordinator.addr(), "ubg", k, 1);
        assert_eq!(seeds, reference.seeds);
        assert_eq!(evaluations, reference.evaluations);
        let solve = request_ok(
            coordinator.addr(),
            &format!(r#"{{"op":"solve","k":{k},"algo":"ubg"}}"#),
        );
        assert_eq!(bits(&solve, "estimate"), Some(reference.estimate.to_bits()));
        assert_eq!(bits(&solve, "sandwich_ratio"), Some(ratio.to_bits()));
        let estimate = request_ok(coordinator.addr(), &estimate_line);
        assert_eq!(
            bits(&estimate, "estimate"),
            Some(full.estimate(&reference.seeds).to_bits())
        );
        assert_eq!(
            bits(&estimate, "nu_estimate"),
            Some(full.nu_estimate(&reference.seeds).to_bits())
        );
    }
    reversed.stop_and_join();
    stop_cluster(single_handles, single);
    stop_cluster(handles, forward);
}

/// What the distributed path does not implement is refused with a typed
/// `invalid_parameter` error — before any shard work — and the
/// coordinator keeps serving.
#[test]
fn cluster_restrictions_are_typed_errors_on_the_wire() {
    let instance = small_instance(42);
    let (handles, coordinator) = spawn_cluster(&instance, 2, 64, 77);
    let mut client = Client::connect(coordinator.addr(), Duration::from_secs(120)).unwrap();
    for knobs in [r#""algo":"bt","depth":3"#, r#""framework":"imcaf""#] {
        let resp = client
            .request(&format!(r#"{{"op":"solve","k":3,{knobs}}}"#))
            .unwrap();
        assert_eq!(
            resp.get("ok").and_then(Value::as_bool),
            Some(false),
            "{knobs}"
        );
        let code = resp.get("error").and_then(|e| e.get("code"));
        assert_eq!(
            code.and_then(Value::as_str),
            Some("invalid_parameter"),
            "{knobs}"
        );
    }
    let health = client.request(r#"{"op":"health"}"#).unwrap();
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
    drop(client);
    stop_cluster(handles, coordinator);
}

/// The coordinator used to refuse `mode: parallel` and `threads > 1`; the
/// refusal guarded nothing. `threads` is accepted (and unused: pivots run
/// one after another) and the removed `mode` field is ignored whatever it
/// holds — each such solve is the in-process answer, for the greedy engine
/// and for BT's pivot loop alike.
#[test]
fn stale_mode_and_threads_knobs_are_served_with_the_in_process_answer() {
    let instance = small_instance(42);
    let (samples, base_seed, k) = (64, 77, 3);
    let sampler = instance.sampler();
    let mut full = RicStore::for_sampler(&sampler);
    full.extend_parallel_with_workers(&sampler, samples, base_seed, 2);
    let (handles, coordinator) = spawn_cluster(&instance, 2, samples, base_seed);
    let _shared = scatter_shared();
    for (name, algo) in [("ubg", MaxrAlgorithm::Ubg), ("bt", MaxrAlgorithm::Bt)] {
        let reference = algo.solve(&instance, &full, &SolveRequest::new(k)).unwrap();
        let seeds: Vec<u64> = reference.seeds.iter().map(|v| u64::from(v.raw())).collect();
        for knobs in [
            r#""mode":"sequential""#,
            r#""mode":"lazy""#,
            r#""mode":"parallel""#,
            r#""mode":"warp""#,
            r#""mode":7"#,
            r#""threads":2"#,
            r#""threads":64,"mode":"parallel""#,
        ] {
            let line = format!(r#"{{"op":"solve","k":{k},"algo":"{name}",{knobs}}}"#);
            let resp = request_ok(coordinator.addr(), &line);
            let got: Vec<u64> = resp
                .get("seeds")
                .and_then(Value::as_array)
                .expect("seeds array")
                .iter()
                .filter_map(Value::as_u64)
                .collect();
            assert_eq!(got, seeds, "{line}");
            assert_eq!(
                resp.get("evaluations").and_then(Value::as_u64),
                Some(reference.evaluations),
                "{line}"
            );
            assert_eq!(
                resp.get("estimate")
                    .and_then(Value::as_f64)
                    .map(f64::to_bits),
                Some(reference.estimate.to_bits()),
                "{line}"
            );
            assert!(resp.get("mode").is_none(), "{line}");
        }
    }
    // A `threads` that is not a non-negative integer is still a bad request.
    let mut client = Client::connect(coordinator.addr(), Duration::from_secs(120)).unwrap();
    let resp = client
        .request(r#"{"op":"solve","k":3,"threads":-1}"#)
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    drop(client);
    stop_cluster(handles, coordinator);
}

/// The `imc_cluster_*` families live in the coordinator's process, so
/// the coordinator answers `metrics` itself, in the daemon's shape.
#[test]
fn coordinator_answers_the_metrics_op_with_its_own_families() {
    let instance = small_instance(42);
    let (handles, coordinator) = spawn_cluster(&instance, 2, 64, 77);
    {
        let _shared = scatter_shared();
        cluster_solve(coordinator.addr(), "greedy", 3, 77);
    }
    let mut client = Client::connect(coordinator.addr(), Duration::from_secs(120)).unwrap();
    let resp = client.request(r#"{"op":"metrics"}"#).unwrap();
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(
        resp.get("format").and_then(Value::as_str),
        Some("prometheus-0.0.4")
    );
    let body = resp.get("body").and_then(Value::as_str).expect("body");
    let scatters: u64 = body
        .lines()
        .find_map(|line| line.strip_prefix("imc_cluster_scatter_total "))
        .expect("imc_cluster_scatter_total sample line")
        .parse()
        .unwrap();
    assert!(scatters > 0, "no scatter round counted after a solve");
    drop(client);
    stop_cluster(handles, coordinator);
}

/// A fast-failing retry policy so dead-shard tests don't sit in
/// backoff sleeps.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 2,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(5),
        jitter: 0.0,
    }
}

#[test]
fn dead_shard_degrades_the_solve_and_names_it() {
    let instance = small_instance(7);
    let (mut handles, coordinator) = spawn_cluster(&instance, 2, 128, 9);
    let dead = handles.pop().unwrap();
    let dead_addr = dead.addr();
    dead.stop_and_join();

    // Degrade is the default: the solve completes over the surviving
    // shard, flagged approximate, naming the lost one.
    let _shared = scatter_shared();
    let mut client = Client::connect(coordinator.addr(), Duration::from_secs(30)).unwrap();
    let resp = client
        .request(r#"{"op":"solve","k":3,"algo":"greedy","seed":1}"#)
        .unwrap();
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "degraded solve should complete: {resp:?}"
    );
    assert_eq!(resp.get("approximate").and_then(Value::as_bool), Some(true));
    assert_eq!(resp.get("shards").and_then(Value::as_u64), Some(1));
    let lost: Vec<&str> = resp
        .get("lost_shards")
        .and_then(Value::as_array)
        .expect("lost_shards array")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(lost, vec![dead_addr.to_string().as_str()]);
    let effective = resp
        .get("effective_samples")
        .and_then(Value::as_u64)
        .expect("effective_samples");
    assert!(
        effective > 0 && effective < 128,
        "effective_samples {effective} should cover only the survivor's partition"
    );
    let degraded_seeds: Vec<u64> = resp
        .get("seeds")
        .and_then(Value::as_array)
        .expect("seeds")
        .iter()
        .filter_map(Value::as_u64)
        .collect();

    // The degraded answer equals a fresh solve over the surviving
    // shard set (same daemon, same partition store).
    let survivor = handles[0].addr();
    let fresh = coordinator_over(&instance, vec![survivor]);
    let (fresh_seeds, _) = cluster_solve(fresh.addr(), "greedy", 3, 1);
    fresh.stop_and_join();
    let fresh_raw: Vec<u64> = fresh_seeds.iter().map(|v| u64::from(v.raw())).collect();
    assert_eq!(
        degraded_seeds, fresh_raw,
        "degraded seeds must match a fresh solve over the survivors"
    );
    drop(client);
    stop_cluster(handles, coordinator);
}

#[test]
fn degrade_disabled_keeps_the_shard_unavailable_error() {
    let instance = small_instance(7);
    let sampler = instance.sampler();
    let mut handles = Vec::new();
    let mut addrs: Vec<SocketAddr> = Vec::new();
    for partition in 0..2 {
        let mut store = RicStore::for_sampler(&sampler);
        store.extend_partition(&sampler, 128, 9, partition, 2, 2);
        let state = Arc::new(ServiceState::new(instance.clone(), store, 0));
        let handle = Server::start(
            state,
            ServeConfig {
                workers: 2,
                refresh: None,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        addrs.push(handle.addr());
        handles.push(handle);
    }
    let coordinator = Coordinator::start(
        Arc::new(instance.clone()),
        CoordinatorConfig {
            shards: addrs,
            retry: fast_retry(),
            probe_timeout: Duration::from_millis(100),
            degrade: false,
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let dead = handles.pop().unwrap();
    let dead_addr = dead.addr();
    dead.stop_and_join();

    let _shared = scatter_shared();
    let mut client = Client::connect(coordinator.addr(), Duration::from_secs(30)).unwrap();
    let resp = client
        .request(r#"{"op":"solve","k":3,"algo":"greedy","seed":1}"#)
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    let error = resp.get("error").expect("error object");
    assert_eq!(
        error.get("code").and_then(Value::as_str),
        Some("shard_unavailable")
    );
    let message = error
        .get("message")
        .and_then(Value::as_str)
        .expect("error message");
    assert!(
        message.contains(&dead_addr.to_string()),
        "error message {message:?} does not name the dead shard {dead_addr}"
    );
    drop(client);
    stop_cluster(handles, coordinator);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random small instances, budgets and sampling seeds: the cluster
    /// must stay bitwise-faithful for every solver at 1, 2 and 4 shards.
    #[test]
    fn random_instances_stay_bitwise_identical(
        instance_seed in 0u64..100,
        base_seed in 0u64..1_000,
        k in 1usize..7,
        shard_choice in 0usize..3,
    ) {
        let shards = [1usize, 2, 4][shard_choice];
        let instance = small_instance(instance_seed);
        assert_equivalence(&instance, shards, 192, base_seed, k);
    }
}

/// The ISSUE acceptance bar: a 2-shard cluster over the wiki-vote
/// analog (40k samples) solves GREEDY at k=25 bitwise identically to a
/// single node — in one scatter round per greedy round plus the final
/// score, whatever the evaluation count.
#[test]
fn acceptance_wiki_vote_two_shard_greedy_bitwise() {
    let (graph, _source) =
        imc_datasets::load_or_generate(DatasetId::WikiVote, std::path::Path::new("data"), 0.3, 1)
            .unwrap();
    let graph = graph.reweighted(WeightModel::WeightedCascade);
    let communities = CommunitySet::builder(&graph)
        .louvain(1)
        .split_larger_than(8)
        .threshold(ThresholdPolicy::Constant(2))
        .benefit(BenefitPolicy::Population)
        .build()
        .unwrap();
    let instance = ImcInstance::new(graph, communities).unwrap();

    let samples = 40_000;
    let base_seed = 1234;
    let k = 25;
    let sampler = instance.sampler();
    let mut full = RicStore::for_sampler(&sampler);
    full.extend_parallel_with_workers(&sampler, samples, base_seed, 4);
    let reference = MaxrAlgorithm::Greedy
        .solve(&instance, &full, &SolveRequest::new(k).with_seed(base_seed))
        .unwrap();

    let (handles, coordinator) = spawn_cluster(&instance, 2, samples, base_seed);
    let exclusive = SCATTER_TOTAL
        .write()
        .unwrap_or_else(PoisonError::into_inner);
    let before = imc_obs::families::CLUSTER_SCATTER.handle().get();
    let (seeds, evaluations) = cluster_solve(coordinator.addr(), "greedy", k, base_seed);
    let rounds = imc_obs::families::CLUSTER_SCATTER.handle().get() - before;
    drop(exclusive);
    stop_cluster(handles, coordinator);

    assert_eq!(seeds, reference.seeds);
    assert_eq!(evaluations, reference.evaluations);
    // One gain round per pick and one `shard_eval` fan for the report: a
    // loop that pays a round trip per gain makes `evaluations` of them.
    assert_eq!(
        rounds,
        k as u64 + 1,
        "scatter rounds for {evaluations} evaluations"
    );
}
