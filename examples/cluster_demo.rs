//! Cluster demo: a sharded solve cluster in one process.
//!
//! ```text
//! cargo run --release --example cluster_demo
//! ```
//!
//! Steps: build a small planted-partition instance → start two shard
//! daemons, each sampling its own partition of one shared sampling plan
//! → start the scatter-gather coordinator → solve GREEDY through the
//! cluster → prove the seed set bitwise identical to a single-node
//! solve over the full collection → score it twice on the same
//! connection, bitwise identical again.

use std::sync::Arc;
use std::time::Duration;

use imc::prelude::*;
use imc_cluster::{Coordinator, CoordinatorConfig};
use imc_core::{RicStore, SolveRequest};
use imc_service::client::Client;
use imc_service::json::Value;
use imc_service::{ServeConfig, Server, ServiceState};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A small community-structured instance.
    let mut rng = StdRng::seed_from_u64(7);
    let pp = imc::graph::generators::planted_partition(300, 15, 0.25, 0.005, &mut rng);
    let graph = pp.graph.reweighted(WeightModel::WeightedCascade);
    let communities = CommunitySet::builder(&graph)
        .louvain(7)
        .split_larger_than(8)
        .threshold(ThresholdPolicy::Constant(2))
        .benefit(BenefitPolicy::Population)
        .build()?;
    let instance = Arc::new(ImcInstance::new(graph, communities)?);
    println!("instance: {} nodes", instance.node_count());

    // 2. Two shard daemons. `extend_partition` gives shard i partition i
    //    of the one sampling plan rooted at base_seed, so together the
    //    shards hold exactly the collection a single node would sample.
    let (samples, base_seed, k) = (8_192usize, 42u64, 10usize);
    let sampler = instance.sampler();
    let mut shard_handles = Vec::new();
    let mut shard_addrs = Vec::new();
    for partition in 0..2 {
        let mut store = RicStore::for_sampler(&sampler);
        store.extend_partition(&sampler, samples, base_seed, partition, 2, 2);
        let state = Arc::new(ServiceState::new((*instance).clone(), store, 0));
        let handle = Server::start(
            state,
            ServeConfig {
                workers: 2,
                refresh: None,
                ..ServeConfig::default()
            },
        )?;
        println!(
            "shard {partition}: {} ({} samples)",
            handle.addr(),
            samples / 2
        );
        shard_addrs.push(handle.addr());
        shard_handles.push(handle);
    }

    // 3. The coordinator scatter-gathers CELF evaluations across both
    //    shards and speaks the same protocol as a single imc-service.
    let coordinator = Coordinator::start(
        Arc::clone(&instance),
        CoordinatorConfig {
            shards: shard_addrs,
            ..CoordinatorConfig::default()
        },
    )?;
    println!("coordinator: {}", coordinator.addr());

    // 4. Solve through the cluster.
    let mut client = Client::connect(coordinator.addr(), Duration::from_secs(60))?;
    let response = client.request(&format!(
        r#"{{"op":"solve","k":{k},"algo":"greedy","seed":{base_seed}}}"#
    ))?;
    let cluster_seeds: Vec<u64> = response
        .get("seeds")
        .and_then(Value::as_array)
        .expect("seeds")
        .iter()
        .filter_map(Value::as_u64)
        .collect();
    println!("cluster seeds: {cluster_seeds:?}");

    // 5. Single-node reference over the full (unpartitioned) plan.
    let mut full = RicStore::for_sampler(&sampler);
    full.extend_parallel_with_workers(&sampler, samples, base_seed, 2);
    let reference = MaxrAlgorithm::Greedy.solve(
        &instance,
        &full,
        &SolveRequest::new(k).with_seed(base_seed),
    )?;
    let reference_seeds: Vec<u64> = reference.seeds.iter().map(|v| u64::from(v.raw())).collect();
    println!("single-node seeds: {reference_seeds:?}");
    assert_eq!(cluster_seeds, reference_seeds, "distributed solve diverged");
    println!("bitwise identical ✓");

    // 6. Score the answer, twice, on the connection the solve used: the
    //    coordinator asks both shards at once and keeps its shard
    //    connections while this client stays connected, and the summed
    //    integer scores are the single-node estimators bit for bit.
    let ids: Vec<String> = cluster_seeds.iter().map(u64::to_string).collect();
    let estimate = format!(r#"{{"op":"estimate","seeds":[{}]}}"#, ids.join(","));
    let c_hat = full.estimate(&reference.seeds);
    let nu = full.nu_estimate(&reference.seeds);
    for _ in 0..2 {
        let reply = client.request(&estimate)?;
        let bits = |key: &str| reply.get(key).and_then(Value::as_f64).map(f64::to_bits);
        assert_eq!(bits("estimate"), Some(c_hat.to_bits()), "ĉ_R diverged");
        assert_eq!(bits("nu_estimate"), Some(nu.to_bits()), "ν_R diverged");
        println!("cluster estimate: ĉ_R = {c_hat:.3}, ν_R = {nu:.3} ✓");
    }

    drop(client);
    coordinator.stop_and_join();
    for handle in shard_handles {
        handle.stop_and_join();
    }
    Ok(())
}
