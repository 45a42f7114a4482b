//! The estimate path through a coordinator: the `shard_eval` fan is sent
//! to every shard before any reply is read, and a client connection keeps
//! one connection per shard for as long as it lives.
//!
//! * the fan costs the slowest shard, not the sum of the shards;
//! * requests on one client connection reuse one connection per shard;
//! * a kept connection that died between two requests (severed once, or
//!   the shard restarted on its port) is re-dialled and the request
//!   replayed: the answer is the single-node one, bit for bit;
//! * a shard that goes dark mid-fan degrades the estimate like any other
//!   request;
//! * hanging up frees the shard workers the client connection held.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use imc_cluster::{ChaosFault, ChaosProxy, Coordinator, CoordinatorConfig, CoordinatorHandle};
use imc_community::CommunitySet;
use imc_core::{ImcInstance, RicStore};
use imc_graph::{generators::erdos_renyi, NodeId, WeightModel};
use imc_obs::json::Value;
use imc_service::client::{Client, ClientConfig, RetryPolicy};
use imc_service::{ServeConfig, Server, ServerHandle, ServiceState};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SAMPLES: usize = 192;
const BASE_SEED: u64 = 9;
const ESTIMATE: &str = r#"{"op":"estimate","seeds":[3,11,17,24]}"#;
const ESTIMATE_SEEDS: [u32; 4] = [3, 11, 17, 24];

fn small_instance() -> ImcInstance {
    let mut rng = StdRng::seed_from_u64(31);
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

/// Partition `partition` of `shards` of the one sampling plan.
fn partition_store(instance: &ImcInstance, partition: usize, shards: usize) -> RicStore {
    let sampler = instance.sampler();
    let mut store = RicStore::for_sampler(&sampler);
    store.extend_partition(&sampler, SAMPLES, BASE_SEED, partition, shards, 2);
    store
}

/// A shard daemon over one partition, with two workers, bound to `addr`.
fn spawn_shard(
    instance: &ImcInstance,
    partition: usize,
    shards: usize,
    addr: &str,
) -> ServerHandle {
    let store = partition_store(instance, partition, shards);
    let state = Arc::new(ServiceState::new(instance.clone(), store, 0));
    let config = ServeConfig {
        addr: addr.to_string(),
        workers: 2,
        refresh: None,
        ..ServeConfig::default()
    };
    // A fixed port (the restart test) can be held for a moment by a
    // parallel test's outgoing connection: wait it out.
    for _ in 0..500 {
        if let Ok(handle) = Server::start(Arc::clone(&state), config.clone()) {
            return handle;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("could not bind {addr}");
}

fn spawn_shards(instance: &ImcInstance, shards: usize) -> Vec<ServerHandle> {
    (0..shards)
        .map(|partition| spawn_shard(instance, partition, shards, "127.0.0.1:0"))
        .collect()
}

/// A proxy in front of `shard` whose fault never fires.
fn passthrough(shard: &ServerHandle) -> ChaosProxy {
    ChaosProxy::start(shard.addr(), ChaosFault::DropOnce, u64::MAX).unwrap()
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

fn connect(coordinator: &CoordinatorHandle) -> Client {
    Client::connect(coordinator.addr(), Duration::from_secs(30)).unwrap()
}

/// One estimate on `client`; must succeed.
fn estimate(client: &mut Client) -> Value {
    let reply = client.request(ESTIMATE).unwrap();
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(true),
        "estimate failed: {reply:?}"
    );
    reply
}

/// The three estimators of `reply` are those of `store`, bit for bit.
fn assert_answers_like(reply: &Value, store: &RicStore) {
    let seeds: Vec<NodeId> = ESTIMATE_SEEDS.iter().map(|&v| NodeId::new(v)).collect();
    let bits = |key: &str| reply.get(key).and_then(Value::as_f64).map(f64::to_bits);
    assert_eq!(bits("estimate"), Some(store.estimate(&seeds).to_bits()));
    assert_eq!(
        bits("nu_estimate"),
        Some(store.nu_estimate(&seeds).to_bits())
    );
    assert_eq!(
        reply.get("influenced_samples").and_then(Value::as_u64),
        Some(store.influenced_count(&seeds) as u64)
    );
    assert_eq!(
        reply.get("effective_samples").and_then(Value::as_u64),
        Some(store.len() as u64)
    );
}

fn assert_exact(reply: &Value, instance: &ImcInstance) {
    assert_eq!(
        reply.get("approximate").and_then(Value::as_bool),
        Some(false)
    );
    assert_eq!(reply.get("shards").and_then(Value::as_u64), Some(2));
    assert_answers_like(reply, &partition_store(instance, 0, 1));
}

fn stop_all(coordinator: CoordinatorHandle, proxies: Vec<ChaosProxy>, shards: Vec<ServerHandle>) {
    coordinator.stop_and_join();
    for proxy in proxies {
        proxy.stop_and_join();
    }
    for shard in shards {
        shard.stop_and_join();
    }
}

#[test]
fn a_fan_over_two_slow_shards_takes_one_delay_not_two() {
    let instance = small_instance();
    let shards = spawn_shards(&instance, 2);
    let delay = Duration::from_millis(40);
    let proxies: Vec<ChaosProxy> = shards
        .iter()
        .map(|s| ChaosProxy::start(s.addr(), ChaosFault::Slow(delay), 0).unwrap())
        .collect();
    let coordinator = start_coordinator(&instance, proxies.iter().map(ChaosProxy::addr).collect());
    let mut client = connect(&coordinator);
    // The best of a few, so a preempted test thread cannot fail it; two
    // delays in a row can never come in under 80 ms.
    let fastest = (0..4)
        .map(|_| {
            let start = Instant::now();
            assert_exact(&estimate(&mut client), &instance);
            start.elapsed()
        })
        .min()
        .unwrap();
    assert!(fastest >= delay, "{fastest:?}: the proxies did not delay");
    assert!(
        fastest < Duration::from_millis(70),
        "{fastest:?}: the shards were asked one after the other"
    );
    drop(client);
    stop_all(coordinator, proxies, shards);
}

#[test]
fn estimates_on_one_connection_share_one_connection_per_shard() {
    let instance = small_instance();
    let shards = spawn_shards(&instance, 2);
    let proxies: Vec<ChaosProxy> = shards.iter().map(passthrough).collect();
    let coordinator = start_coordinator(&instance, proxies.iter().map(ChaosProxy::addr).collect());
    let mut client = connect(&coordinator);
    for _ in 0..20 {
        assert_exact(&estimate(&mut client), &instance);
    }
    for proxy in &proxies {
        assert_eq!((proxy.connections(), proxy.requests()), (1, 20));
    }
    // A second client connection brings its own.
    let mut other = connect(&coordinator);
    assert_exact(&estimate(&mut other), &instance);
    for proxy in &proxies {
        assert_eq!((proxy.connections(), proxy.requests()), (2, 21));
    }
    drop((client, other));
    stop_all(coordinator, proxies, shards);
}

#[test]
fn a_severed_kept_connection_is_redialled_and_the_answer_is_exact() {
    let instance = small_instance();
    let shards = spawn_shards(&instance, 2);
    // Shard 1's second request finds its connection cut.
    let proxies = vec![
        passthrough(&shards[0]),
        ChaosProxy::start(shards[1].addr(), ChaosFault::DropOnce, 1).unwrap(),
    ];
    let coordinator = start_coordinator(&instance, proxies.iter().map(ChaosProxy::addr).collect());
    let mut client = connect(&coordinator);
    assert_exact(&estimate(&mut client), &instance);
    assert!(!proxies[1].tripped());
    assert_exact(&estimate(&mut client), &instance);
    assert!(proxies[1].tripped(), "the fault never fired");
    // One reply per request: the cut request was replayed once, on a new
    // connection, and shard 0 never noticed.
    assert_eq!((proxies[0].connections(), proxies[0].requests()), (1, 2));
    assert_eq!((proxies[1].connections(), proxies[1].requests()), (2, 3));
    assert_exact(&estimate(&mut client), &instance);
    assert_eq!((proxies[1].connections(), proxies[1].requests()), (2, 4));
    drop(client);
    stop_all(coordinator, proxies, shards);
}

/// A solve's `eval_*` requests are session-scoped and never replayed, so a
/// kept connection that died under one fails that run; the run is redone
/// from scratch on new connections and answers like a solve that met no
/// fault.
#[test]
fn a_solve_on_a_severed_kept_connection_is_rerun_and_exact() {
    let solve = r#"{"op":"solve","k":3,"algo":"greedy","seed":5}"#;
    let answer = |reply: &Value| {
        assert_eq!(
            reply.get("approximate").and_then(Value::as_bool),
            Some(false),
            "{reply:?}"
        );
        let seeds = reply.get("seeds").cloned().expect("seeds");
        (seeds, reply.get("evaluations").and_then(Value::as_u64))
    };
    let instance = small_instance();
    let shards = spawn_shards(&instance, 2);
    let proxies = vec![
        passthrough(&shards[0]),
        ChaosProxy::start(shards[1].addr(), ChaosFault::DropOnce, 1).unwrap(),
    ];
    let coordinator = start_coordinator(&instance, proxies.iter().map(ChaosProxy::addr).collect());
    let mut client = connect(&coordinator);
    assert_exact(&estimate(&mut client), &instance);
    let faulted = client.request(solve).unwrap();
    assert!(proxies[1].tripped(), "the fault never fired");
    let clean = connect(&coordinator).request(solve).unwrap();
    assert_eq!(answer(&faulted), answer(&clean));
    drop(client);
    stop_all(coordinator, proxies, shards);
}

#[test]
fn a_shard_restarted_on_its_port_is_redialled_and_the_answer_is_exact() {
    let instance = small_instance();
    let mut shards = spawn_shards(&instance, 2);
    let addrs: Vec<SocketAddr> = shards.iter().map(ServerHandle::addr).collect();
    let coordinator = start_coordinator(&instance, addrs.clone());
    let mut client = connect(&coordinator);
    assert_exact(&estimate(&mut client), &instance);

    shards.remove(1).stop_and_join();
    shards.push(spawn_shard(&instance, 1, 2, &addrs[1].to_string()));
    assert_exact(&estimate(&mut client), &instance);
    assert_exact(&estimate(&mut client), &instance);

    drop(client);
    stop_all(coordinator, Vec::new(), shards);
}

#[test]
fn a_shard_killed_mid_fan_degrades_the_estimate() {
    let instance = small_instance();
    let shards = spawn_shards(&instance, 2);
    // Shard 1 answers the first fan and goes dark on the second.
    let proxies = vec![
        passthrough(&shards[0]),
        ChaosProxy::start(shards[1].addr(), ChaosFault::Kill, 1).unwrap(),
    ];
    let dark = proxies[1].addr();
    let coordinator = start_coordinator(&instance, proxies.iter().map(ChaosProxy::addr).collect());
    let mut client = connect(&coordinator);
    assert_exact(&estimate(&mut client), &instance);

    let survivor = partition_store(&instance, 0, 2);
    for _ in 0..2 {
        let reply = estimate(&mut client);
        assert_eq!(
            reply.get("approximate").and_then(Value::as_bool),
            Some(true)
        );
        assert_eq!(reply.get("shards").and_then(Value::as_u64), Some(1));
        let lost: Vec<&str> = reply
            .get("lost_shards")
            .and_then(Value::as_array)
            .expect("lost_shards")
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(lost, vec![dark.to_string().as_str()]);
        assert_answers_like(&reply, &survivor);
    }
    drop(client);
    stop_all(coordinator, proxies, shards);
}

#[test]
fn hanging_up_frees_the_shard_workers() {
    let instance = small_instance();
    // Two workers a shard: two client connections hold both.
    let shards = spawn_shards(&instance, 2);
    let coordinator = start_coordinator(&instance, shards.iter().map(ServerHandle::addr).collect());
    let mut first = connect(&coordinator);
    let mut second = connect(&coordinator);
    assert_exact(&estimate(&mut first), &instance);
    assert_exact(&estimate(&mut second), &instance);
    drop((first, second));
    // A leaked shard connection would hold its worker, and this request
    // would sit in the shards' queues until the coordinator gave up on it.
    let mut third = connect(&coordinator);
    let start = Instant::now();
    assert_exact(&estimate(&mut third), &instance);
    assert!(start.elapsed() < Duration::from_secs(2));
    drop(third);
    stop_all(coordinator, Vec::new(), shards);
}
