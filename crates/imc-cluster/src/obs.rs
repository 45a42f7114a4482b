//! Cluster-level metrics, registered in the process-global
//! [`imc_obs`] registry under the `imc_cluster_*` prefix.
//!
//! Handles are cached in `OnceLock` statics so hot paths pay a single
//! atomic load; see `docs/METRICS.md` for the rendered catalogue.

use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};

use imc_obs::{Counter, Gauge, Histogram, DEFAULT_DURATION_BUCKETS};

/// Total scatter rounds issued by coordinators (one per batched
/// `eval_c`/`eval_nu` fan-out across all shards).
pub fn scatter_total() -> &'static Arc<Counter> {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    M.get_or_init(|| {
        imc_obs::global().counter(
            "imc_cluster_scatter_total",
            "Scatter-gather rounds fanned out to shards by the cluster coordinator",
        )
    })
}

/// Total per-shard RPC failures observed by a coordinator.
pub fn shard_errors_total() -> &'static Arc<Counter> {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    M.get_or_init(|| {
        imc_obs::global().counter(
            "imc_cluster_shard_errors_total",
            "Shard RPC failures (transport or remote error) seen by the coordinator",
        )
    })
}

/// Latency of a single shard RPC as observed by the coordinator.
pub fn shard_rpc_seconds() -> &'static Arc<Histogram> {
    static M: OnceLock<Arc<Histogram>> = OnceLock::new();
    M.get_or_init(|| {
        imc_obs::global().histogram(
            "imc_cluster_shard_rpc_seconds",
            "Round-trip latency of one shard RPC issued by the coordinator",
            DEFAULT_DURATION_BUCKETS,
        )
    })
}

/// The closed vocabulary of the `op` label on
/// [`rpc_duration_seconds`]: the shard RPCs a coordinator times.
pub const RPC_OPS: [&str; 4] = ["eval_begin", "eval_batch", "eval_seed", "shard_eval"];

/// Latency of one shard RPC, broken out by operation and shard address.
/// The unlabeled [`shard_rpc_seconds`] aggregate stays for dashboards
/// that predate the breakout; this family is what straggler hunting
/// reads (`op` ∈ [`RPC_OPS`]).
pub fn rpc_duration_seconds(op: &str, shard: &str) -> Arc<Histogram> {
    imc_obs::global().histogram_with(
        "imc_cluster_rpc_duration_seconds",
        "Round-trip latency of one shard RPC, by operation and shard address",
        DEFAULT_DURATION_BUCKETS,
        &[("op", op), ("shard", shard)],
    )
}

/// End-to-end latency of requests served by the coordinator frontend.
pub fn request_duration_seconds() -> &'static Arc<Histogram> {
    static M: OnceLock<Arc<Histogram>> = OnceLock::new();
    M.get_or_init(|| {
        imc_obs::global().histogram(
            "imc_cluster_request_duration_seconds",
            "End-to-end latency of requests answered by the cluster coordinator",
            DEFAULT_DURATION_BUCKETS,
        )
    })
}

/// Number of shards the coordinator is configured with.
pub fn shards_gauge() -> &'static Arc<Gauge> {
    static M: OnceLock<Arc<Gauge>> = OnceLock::new();
    M.get_or_init(|| {
        imc_obs::global().gauge(
            "imc_cluster_shards",
            "Shard count in the coordinator's current topology",
        )
    })
}

/// Per-shard health state gauge, labeled by the shard's address.
/// Values encode [`crate::health::ShardState`]: 0 = dead, 1 = suspect,
/// 2 = recovered, 3 = healthy.
pub fn shard_state_gauge(addr: &str) -> Arc<Gauge> {
    imc_obs::global().gauge_with(
        "imc_cluster_shard_state",
        "Health state of one shard as seen by the coordinator (0=dead 1=suspect 2=recovered 3=healthy)",
        &[("shard", addr)],
    )
}

/// Total stateless shard RPC retries performed after transport errors.
pub fn retries_total() -> &'static Arc<Counter> {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    M.get_or_init(|| {
        imc_obs::global().counter(
            "imc_cluster_retries_total",
            "Shard RPCs retried after a transport error (reconnect-and-replay)",
        )
    })
}

/// Total solves that completed in degraded mode (one or more shards
/// excluded, answer flagged `approximate`).
pub fn degraded_solves_total() -> &'static Arc<Counter> {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    M.get_or_init(|| {
        imc_obs::global().counter(
            "imc_cluster_degraded_solves_total",
            "Cluster solves completed over a strict subset of shards (approximate answers)",
        )
    })
}

/// Total health probes (`ping` round-trips) issued by the coordinator.
pub fn probes_total() -> &'static Arc<Counter> {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    M.get_or_init(|| {
        imc_obs::global().counter(
            "imc_cluster_probes_total",
            "Health probes (ping round-trips) issued to shards by the coordinator",
        )
    })
}

/// Total health probes that failed (no ok ping response in time).
pub fn probe_failures_total() -> &'static Arc<Counter> {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    M.get_or_init(|| {
        imc_obs::global().counter(
            "imc_cluster_probe_failures_total",
            "Health probes that timed out or returned an error",
        )
    })
}

/// Forces registration of every coordinator-side metric family
/// (including the zero-valued children for each of `shards`' addresses)
/// so a fresh coordinator's first scrape already lists them. Called by
/// [`Coordinator::start`](crate::Coordinator::start); idempotent.
pub fn register(shards: &[SocketAddr]) {
    let _ = scatter_total();
    let _ = shard_errors_total();
    let _ = shard_rpc_seconds();
    let _ = request_duration_seconds();
    let _ = shards_gauge();
    let _ = retries_total();
    let _ = degraded_solves_total();
    let _ = probes_total();
    let _ = probe_failures_total();
    for addr in shards {
        let addr = addr.to_string();
        let _ = shard_state_gauge(&addr);
        for op in RPC_OPS {
            let _ = rpc_duration_seconds(op, &addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_register_once_and_accumulate() {
        let before = scatter_total().get();
        scatter_total().inc();
        scatter_total().inc();
        assert_eq!(scatter_total().get(), before + 2);
        shard_rpc_seconds().observe(0.004);
        assert!(shard_rpc_seconds().count() >= 1);
        shards_gauge().set(2.0);
    }

    #[test]
    fn rpc_duration_is_keyed_by_op_and_shard() {
        let a = rpc_duration_seconds("eval_batch", "127.0.0.1:7201");
        let b = rpc_duration_seconds("shard_eval", "127.0.0.1:7201");
        let before = a.count();
        a.observe(0.002);
        assert_eq!(
            rpc_duration_seconds("eval_batch", "127.0.0.1:7201").count(),
            before + 1
        );
        // Different op label → distinct child histogram.
        assert!(b.count() == rpc_duration_seconds("shard_eval", "127.0.0.1:7201").count());
    }

    #[test]
    fn shard_state_gauge_is_keyed_by_address() {
        let a = shard_state_gauge("127.0.0.1:7101");
        let b = shard_state_gauge("127.0.0.1:7102");
        a.set(3.0);
        b.set(0.0);
        // Same label → same underlying handle; different label → distinct.
        assert_eq!(shard_state_gauge("127.0.0.1:7101").get(), 3.0);
        assert_eq!(shard_state_gauge("127.0.0.1:7102").get(), 0.0);
    }
}
