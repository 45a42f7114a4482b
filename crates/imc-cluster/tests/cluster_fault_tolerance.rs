//! Fault-tolerance contract of the cluster coordinator, driven by the
//! [`imc_cluster::chaos`] proxy:
//!
//! * a **transient** fault (one severed connection, recovered within
//!   the retry budget) must leave the answer bitwise identical to the
//!   single-node solve over the full sampling plan — the retry layer
//!   reruns from scratch, so nothing about the fault leaks into the
//!   result;
//! * a **permanent** fault (shard dark from some request on) must
//!   complete degraded: `approximate: true`, the lost shard named, and
//!   seeds bitwise identical to a fresh solve over the surviving shard
//!   set — because the degraded rerun is a pure function of the
//!   ordered survivor list;
//! * the same identity holds for **any** survivor subset of a 4-shard
//!   topology (proptest over {1,2,3} lost shards).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use imc_cluster::{ChaosFault, ChaosProxy, Coordinator, CoordinatorConfig, CoordinatorHandle};
use imc_community::CommunitySet;
use imc_core::{ImcInstance, MaxrAlgorithm, RicStore, SolveRequest};
use imc_graph::{generators::erdos_renyi, NodeId, WeightModel};
use imc_obs::json::Value;
use imc_service::client::Client;
use imc_service::client::{ClientConfig, RetryPolicy};
use imc_service::{ServeConfig, Server, ServerHandle, ServiceState};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random small instance with thresholds ≤ 2 (all solvers admissible).
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

/// Shard daemons over the partitions of one sampling plan. Returns the
/// handles and their addresses (partition order).
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

/// A coordinator with a fast-failing retry policy (tests should not sit
/// in production-scale backoff sleeps).
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

/// One solve against `addr`; returns the whole response object.
fn solve(addr: SocketAddr, k: usize, seed: u64) -> Value {
    let mut client = Client::connect(addr, Duration::from_secs(120)).unwrap();
    let line = format!(r#"{{"op":"solve","k":{k},"algo":"greedy","seed":{seed}}}"#);
    client.request(&line).unwrap()
}

fn seeds_of(resp: &Value) -> Vec<u64> {
    resp.get("seeds")
        .and_then(Value::as_array)
        .expect("seeds array")
        .iter()
        .filter_map(Value::as_u64)
        .collect()
}

#[test]
fn transient_fault_is_bitwise_identical_to_single_node() {
    let instance = small_instance(21);
    let (samples, base_seed, k) = (192usize, 5u64, 4usize);

    // Single-node reference over the full plan.
    let sampler = instance.sampler();
    let mut full = RicStore::for_sampler(&sampler);
    full.extend_parallel_with_workers(&sampler, samples, base_seed, 2);
    let reference = MaxrAlgorithm::Greedy
        .solve(&instance, &full, &SolveRequest::new(k).with_seed(base_seed))
        .unwrap();
    let reference_seeds: Vec<u64> = reference.seeds.iter().map(|v| u64::from(v.raw())).collect();

    // Two shards; shard 1 drops one connection mid-solve.
    let (handles, addrs) = spawn_shards(&instance, 2, samples, base_seed);
    let proxy = ChaosProxy::start(addrs[1], ChaosFault::DropOnce, 3).unwrap();
    let fronts = vec![addrs[0], proxy.addr()];
    let coordinator = start_coordinator(&instance, fronts);

    let resp = solve(coordinator.addr(), k, base_seed);
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "solve failed: {resp:?}"
    );
    assert!(proxy.tripped(), "the fault never fired");
    assert_eq!(
        resp.get("approximate").and_then(Value::as_bool),
        Some(false),
        "a recovered transient fault must not degrade the answer"
    );
    assert_eq!(resp.get("shards").and_then(Value::as_u64), Some(2));
    assert_eq!(
        seeds_of(&resp),
        reference_seeds,
        "transient-fault seeds must be bitwise identical to single-node"
    );
    assert_eq!(
        resp.get("evaluations").and_then(Value::as_u64),
        Some(reference.evaluations)
    );

    coordinator.stop_and_join();
    proxy.stop_and_join();
    for h in handles {
        h.stop_and_join();
    }
}

#[test]
fn killed_shard_degrades_and_matches_fresh_survivor_solve() {
    let instance = small_instance(22);
    let (samples, base_seed, k) = (192usize, 6u64, 4usize);

    let (handles, addrs) = spawn_shards(&instance, 2, samples, base_seed);
    let proxy = ChaosProxy::start(addrs[1], ChaosFault::Kill, 5).unwrap();
    let proxy_addr = proxy.addr();
    let fronts = vec![addrs[0], proxy_addr];
    let coordinator = start_coordinator(&instance, fronts);

    let resp = solve(coordinator.addr(), k, base_seed);
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "degraded solve failed: {resp:?}"
    );
    assert!(proxy.tripped(), "the kill never fired");
    assert_eq!(resp.get("approximate").and_then(Value::as_bool), Some(true));
    assert_eq!(resp.get("shards").and_then(Value::as_u64), Some(1));
    let lost: Vec<&str> = resp
        .get("lost_shards")
        .and_then(Value::as_array)
        .expect("lost_shards")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(lost, vec![proxy_addr.to_string().as_str()]);

    // Fresh coordinator over the surviving daemon: bitwise identity.
    let fresh = start_coordinator(&instance, vec![addrs[0]]);
    let fresh_resp = solve(fresh.addr(), k, base_seed);
    assert_eq!(fresh_resp.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(
        fresh_resp.get("approximate").and_then(Value::as_bool),
        Some(false)
    );
    assert_eq!(
        seeds_of(&resp),
        seeds_of(&fresh_resp),
        "degraded seeds must match the fresh survivor solve bitwise"
    );
    assert_eq!(
        resp.get("effective_samples").and_then(Value::as_u64),
        fresh_resp.get("samples").and_then(Value::as_u64),
        "effective_samples must equal the survivors' sample total"
    );
    fresh.stop_and_join();

    coordinator.stop_and_join();
    proxy.stop_and_join();
    for h in handles {
        h.stop_and_join();
    }
}

#[test]
fn coordinator_health_reports_per_shard_states() {
    let instance = small_instance(23);
    let (handles, addrs) = spawn_shards(&instance, 2, 128, 7);
    let dead = dark_shard(addrs[1]);
    let dead_addr = dead.addr();
    let coordinator = start_coordinator(&instance, vec![addrs[0], dead_addr]);

    let mut client = Client::connect(coordinator.addr(), Duration::from_secs(30)).unwrap();
    let resp = client.request(r#"{"op":"health"}"#).unwrap();
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(resp.get("status").and_then(Value::as_str), Some("degraded"));
    assert_eq!(resp.get("shards").and_then(Value::as_u64), Some(1));
    let states = resp
        .get("shard_states")
        .and_then(Value::as_array)
        .expect("shard_states array");
    assert_eq!(states.len(), 2);
    let dead_entry = states
        .iter()
        .find(|s| s.get("addr").and_then(Value::as_str) == Some(&dead_addr.to_string()))
        .expect("dead shard entry");
    assert_ne!(
        dead_entry.get("state").and_then(Value::as_str),
        Some("healthy"),
        "a non-answering shard must not report healthy"
    );

    // The coordinator's own ping fast path answers too.
    let ping = client.request(r#"{"op":"ping"}"#).unwrap();
    assert_eq!(ping.get("ok").and_then(Value::as_bool), Some(true));
    drop(client);
    coordinator.stop_and_join();
    dead.stop_and_join();
    for h in handles {
        h.stop_and_join();
    }
}

/// A shard that is dark for the whole test: `addr`'s daemon behind a
/// chaos proxy that kills it at its first request, so every connection is
/// accepted and dropped unanswered. The proxy holds its port until it is
/// stopped. A stopped daemon or a dropped listener would free the port,
/// and a parallel test's ephemeral bind could take it and answer in the
/// dead shard's place.
fn dark_shard(addr: SocketAddr) -> ChaosProxy {
    ChaosProxy::start(addr, ChaosFault::Kill, 0).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any survivor subset of a 4-shard topology: the degraded solve
    /// over the survivors is bitwise identical to a fresh solve
    /// configured with exactly those shards (1, 2 or 3 survivors).
    #[test]
    fn degraded_solve_matches_fresh_solve_over_any_survivor_subset(
        instance_seed in 0u64..50,
        base_seed in 0u64..500,
        k in 1usize..6,
        dead_mask in 1u8..15, // at least one dead, at least one alive
    ) {
        let instance = small_instance(instance_seed);
        let (handles, addrs) = spawn_shards(&instance, 4, 160, base_seed);
        let dark: Vec<Option<ChaosProxy>> = addrs
            .iter()
            .enumerate()
            .map(|(i, &addr)| (dead_mask & (1 << i) != 0).then(|| dark_shard(addr)))
            .collect();
        let fronts: Vec<SocketAddr> = addrs
            .iter()
            .zip(&dark)
            .map(|(&addr, proxy)| proxy.as_ref().map_or(addr, ChaosProxy::addr))
            .collect();
        let survivors: Vec<SocketAddr> = addrs
            .iter()
            .enumerate()
            .filter(|&(i, _)| dead_mask & (1 << i) == 0)
            .map(|(_, &addr)| addr)
            .collect();
        prop_assert!(!survivors.is_empty() && survivors.len() < 4);

        let coordinator = start_coordinator(&instance, fronts);
        let degraded = solve(coordinator.addr(), k, base_seed);
        prop_assert_eq!(degraded.get("ok").and_then(Value::as_bool), Some(true));
        prop_assert_eq!(degraded.get("approximate").and_then(Value::as_bool), Some(true));
        prop_assert_eq!(
            degraded.get("shards").and_then(Value::as_u64),
            Some(survivors.len() as u64)
        );
        coordinator.stop_and_join();

        let fresh = start_coordinator(&instance, survivors);
        let reference = solve(fresh.addr(), k, base_seed);
        prop_assert_eq!(reference.get("ok").and_then(Value::as_bool), Some(true));
        fresh.stop_and_join();

        prop_assert_eq!(seeds_of(&degraded), seeds_of(&reference));
        prop_assert_eq!(
            degraded.get("evaluations").and_then(Value::as_u64),
            reference.get("evaluations").and_then(Value::as_u64)
        );
        for proxy in dark.into_iter().flatten() {
            proxy.stop_and_join();
        }
        for h in handles {
            h.stop_and_join();
        }
    }
}
