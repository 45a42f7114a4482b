//! Per-layer probes: each layer's public functions called directly, from
//! outside, on the workload's own instance and store. Every probe is a
//! few tenths of a second; together they explain an end-to-end number but
//! never stand in for one.
//!
//! Rates over buffers are *computed* from the stated buffer sizes (bytes
//! the kernel must read or write), not measured on a memory bus.

use crate::harness::Harness;
use crate::metrics::MetricSet;
use crate::rung::OpError;
use crate::stats::median;
use crate::workload::build_instance;
use imc_core::kernels;
use imc_core::maxr::engine::{greedy_c_with, greedy_nu_with};
use imc_core::snapshot::{self, SnapshotBytes};
use imc_core::{
    CoverageEvaluator, CoverageState, MaxrAlgorithm, RicStore, SolveRequest, SolveStrategy,
};
use imc_graph::NodeId;
use imc_service::json::{self, ObjectBuilder};
use imc_service::protocol;
use std::hint::black_box;
use std::time::Instant;

/// Words per streaming-kernel operand: 4 Mi words = 32 MiB, so a
/// two-operand kernel touches 64 MiB — far beyond any cache here.
const STREAM_WORDS: usize = 4 << 20;
/// Candidate nodes in one `eval_batch` line / reply.
const BATCH_NODES: usize = 256;

fn seconds_of<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

/// Median seconds of `reps` calls.
fn median_seconds<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let (s, out) = seconds_of(&mut f);
            black_box(out);
            s
        })
        .collect();
    median(&samples)
}

/// `imc-datasets` / `imc-graph` / `imc-community`: building the instance.
pub fn instance(h: &Harness, m: &mut MetricSet) {
    let reps = 3;
    let s = median_seconds(reps, || build_instance(&h.spec, h.seeds.dataset));
    m.put("instance.build_s", s, reps as u64);
}

/// `imc-core::generator`: sampling throughput with one worker and with
/// every hardware thread, and the mean sample size the rest scales with.
/// Returns the all-threads rate for `imcaf.sampling_share`.
pub fn generator(h: &Harness, m: &mut MetricSet) -> f64 {
    let sampler = h.instance.sampler();
    let count = (h.spec.samples / 4).max(64);
    let rate = |workers: usize| {
        let s = median_seconds(2, || {
            let mut store = RicStore::for_sampler(&sampler);
            store.extend_parallel_with_workers(&sampler, count, h.seeds.sampling, workers);
            store.len()
        });
        count as f64 / s
    };
    m.put("generator.samples_per_s_1w", rate(1), count as u64);
    let all = rate(h.nproc);
    m.put("generator.samples_per_s_nproc", all, count as u64);
    m.put(
        "generator.nodes_per_sample",
        h.reference_store.stats().mean_sample_size,
        h.reference_store.len() as u64,
    );
    all
}

/// `imc-core::store`: footprint, the scalar evaluation every estimate
/// pays three times, and what appending costs over drawing fresh.
pub fn store(h: &Harness, m: &mut MetricSet) {
    let store = &h.reference_store;
    m.put("store.arena_bytes", store.arena_bytes() as f64, 1);
    m.put("store.index_entries", store.index_entries() as f64, 1);

    let sets: Vec<Vec<NodeId>> = h
        .stream
        .iter()
        .take(300)
        .map(|r| r.iter().map(|&v| NodeId::new(v)).collect())
        .collect();
    let (s, total) = seconds_of(|| {
        sets.iter()
            .map(|set| store.influenced_count(set))
            .sum::<usize>()
    });
    black_box(total);
    m.put(
        "store.scalar_evals_per_s",
        sets.len() as f64 / s,
        sets.len() as u64,
    );

    // Extending N samples onto a store that already holds N re-indexes
    // all 2N; a fresh draw of N indexes N. The difference is the append
    // path's own cost (IMCAF's doubling rounds pay it every round).
    let sampler = h.instance.sampler();
    let n = (h.spec.samples / 4).max(64);
    let reps = 3;
    let overheads: Vec<f64> = (0..reps)
        .map(|_| {
            let mut grown = RicStore::for_sampler(&sampler);
            let (fresh, ()) = seconds_of(|| {
                grown.extend_parallel_with_workers(&sampler, n, h.seeds.sampling, h.nproc)
            });
            let (extend, ()) = seconds_of(|| {
                grown.extend_parallel_with_workers(&sampler, n, h.seeds.sampling ^ 1, h.nproc)
            });
            black_box(grown.len());
            extend - fresh
        })
        .collect();
    m.put("store.append_overhead_s", median(&overheads), reps as u64);
}

/// `imc-core::kernels`: the 2-limb slot the wide workload lives on, and
/// the streaming rate of the two kernels the multi-limb path uses.
pub fn kernels(m: &mut MetricSet) {
    let pattern = |salt: u64| -> Vec<u64> {
        let mut x = crate::prng::SplitMix64::new(salt);
        (0..STREAM_WORDS).map(|_| x.next_u64()).collect()
    };
    let a = pattern(1);
    let mut b = pattern(2);
    let bytes_per_operand = (STREAM_WORDS * 8) as f64;

    // Two-word covers, back to back: per-call overhead dominates, which
    // is exactly what a 65..128-member community pays per sample.
    let pairs = STREAM_WORDS / 2;
    let s = median_seconds(3, || {
        let mut total = 0u64;
        for i in 0..pairs {
            total += u64::from(kernels::union_count(
                &a[2 * i..2 * i + 2],
                &b[2 * i..2 * i + 2],
            ));
        }
        total
    });
    m.put(
        "kernels.union_count_ns_per_word_2limb",
        s * 1e9 / STREAM_WORDS as f64,
        pairs as u64,
    );

    // One call over the whole buffers: reads 2 x 32 MiB.
    let s = median_seconds(5, || kernels::union_count(&a, &b));
    m.put(
        "kernels.union_count_gbps_stream",
        2.0 * bytes_per_operand / s / 1e9,
        STREAM_WORDS as u64,
    );
    // Reads 2 x 32 MiB and writes 32 MiB back.
    let s = median_seconds(5, || kernels::or_assign_count(&mut b, &a));
    m.put(
        "kernels.or_assign_count_gbps_stream",
        3.0 * bytes_per_operand / s / 1e9,
        STREAM_WORDS as u64,
    );
}

/// `imc-core::objective`: the batched evaluator the engine's CELF shards
/// use, and the one-node shard evaluations that are the shard-side
/// compute of one cluster RPC.
pub fn objective(h: &Harness, m: &mut MetricSet) {
    let store: &RicStore = &h.reference_store;
    let sets: Vec<Vec<NodeId>> = h
        .stream
        .iter()
        .take(2 * BATCH_NODES)
        .map(|r| r.iter().map(|&v| NodeId::new(v)).collect())
        .collect();
    let mut evaluator = CoverageEvaluator::new(store);
    let (s, counts) = seconds_of(|| {
        sets.chunks(BATCH_NODES)
            .map(|batch| evaluator.influenced_counts(batch).len())
            .sum::<usize>()
    });
    m.put(
        "objective.batched_evals_per_s",
        counts as f64 / s,
        counts as u64,
    );

    // A state a few seeds into a solve, then one-node batches like the
    // ones CELF's stale re-checks send.
    let mut state = CoverageState::new(store);
    for &v in h.answer.iter().flatten().take(3) {
        state.add_seed(v);
    }
    let candidates: Vec<u32> = h
        .stream
        .iter()
        .flat_map(|r| r.iter().copied())
        .take(1_000)
        .collect();
    let (s, n) = seconds_of(|| {
        let mut out = Vec::with_capacity(1);
        for &v in &candidates {
            out.clear();
            state.eval_c_shard(&[v], &mut out);
            black_box(&out);
        }
        candidates.len()
    });
    m.put(
        "objective.eval_c_shard_us_per_node",
        s * 1e6 / n as f64,
        n as u64,
    );
    let (s, n) = seconds_of(|| {
        let mut out = Vec::with_capacity(1);
        for &v in &candidates {
            out.clear();
            state.eval_nu_shard(&[v], &mut out);
            black_box(&out);
        }
        candidates.len()
    });
    m.put(
        "objective.eval_nu_shard_us_per_node",
        s * 1e6 / n as f64,
        n as u64,
    );
}

/// `imc-core::maxr`: the two greedy arms of UBG separately, MAF, and (on
/// bounded thresholds) BT over the first 5,000 samples.
pub fn engine(h: &Harness, m: &mut MetricSet) -> Result<(), OpError> {
    let store: &RicStore = &h.reference_store;
    let k = h.spec.k;
    let (s, run) = seconds_of(|| greedy_c_with(&store, k, SolveStrategy::Lazy));
    m.put("engine.greedy_c_s", s, 1);
    m.put("engine.evaluations_c", run.evaluations as f64, 1);
    m.put(
        "engine.us_per_eval_c",
        s * 1e6 / run.evaluations.max(1) as f64,
        run.evaluations,
    );
    let (s, run) = seconds_of(|| greedy_nu_with(&store, k, SolveStrategy::Lazy));
    m.put("engine.greedy_nu_s", s, 1);
    m.put("engine.evaluations_nu", run.evaluations as f64, 1);

    let request = SolveRequest::new(k).with_seed(h.seeds.solve);
    let (s, report) = seconds_of(|| MaxrAlgorithm::Maf.solve(&h.instance, &store, &request));
    report.map_err(|e| OpError(format!("MAF: {e}")))?;
    m.put("engine.maf_s", s, 1);

    // BT's guarantee needs thresholds bounded by its depth (2); the wide
    // workload's fractional thresholds are not, so this row exists on
    // the ladder only and stays out of BENCHMARK.json.
    if h.instance.max_threshold() <= 2 {
        let prefix: Vec<_> = store.iter().take(5_000).map(|v| v.to_sample()).collect();
        let small = RicStore::from_samples(
            store.node_count(),
            store.community_count(),
            store.total_benefit(),
            prefix.iter(),
        )
        .map_err(|e| OpError(format!("5k-sample prefix: {e}")))?;
        let (s, report) = seconds_of(|| MaxrAlgorithm::Bt.solve(&h.instance, &small, &request));
        report.map_err(|e| OpError(format!("BT: {e}")))?;
        m.put_extra("engine.bt_s_5k", s, "s", 1);
    }
    Ok(())
}

/// `imc-core::snapshot`: the v3 codec the daemon cold-starts through.
pub fn snapshot_codec(h: &Harness, m: &mut MetricSet) -> Result<(), OpError> {
    let store: &RicStore = &h.reference_store;
    let fingerprint = snapshot::instance_fingerprint(h.instance.graph(), h.instance.communities());
    let (encode_s, bytes) = seconds_of(|| snapshot::encode(&store, fingerprint, 0));
    m.put("snapshot.bytes", bytes.len() as f64, 1);
    m.put("snapshot.encode_s", encode_s, 1);
    let (decode_s, decoded) = seconds_of(|| snapshot::decode(&bytes));
    let decoded = decoded.map_err(|e| OpError(format!("snapshot decode: {e}")))?;
    if decoded.collection.len() != store.len() {
        return Err(OpError("snapshot round trip lost samples".into()));
    }
    drop(decoded);
    m.put("snapshot.decode_s", decode_s, 1);
    let aligned = SnapshotBytes::copy_from(&bytes);
    drop(bytes);
    let reps = 20;
    let opens: Vec<f64> = (0..reps)
        .map(|_| {
            let (s, view) = seconds_of(|| aligned.view());
            black_box(view.is_ok());
            s * 1e6
        })
        .collect();
    aligned
        .view()
        .map_err(|e| OpError(format!("snapshot view: {e}")))?;
    m.put("snapshot.view_open_us", median(&opens), reps as u64);
    Ok(())
}

/// `imc-service::json` / `protocol`: the codec cost of one 256-node
/// `eval_batch` exchange — what every cluster RPC pays twice.
pub fn codec(h: &Harness, m: &mut MetricSet) -> Result<(), OpError> {
    let nodes: Vec<String> = h
        .stream
        .iter()
        .flat_map(|r| r.iter().copied())
        .take(BATCH_NODES)
        .map(|v| v.to_string())
        .collect();
    let line = format!(
        r#"{{"op":"eval_batch","session":1,"kind":"c","nodes":[{}]}}"#,
        nodes.join(",")
    );
    json::parse(&line).map_err(|e| OpError(format!("eval_batch line: {e}")))?;
    protocol::parse_request(&line).map_err(|e| OpError(format!("eval_batch request: {e}")))?;

    let reps = 2_000;
    let per_call_us = |f: &mut dyn FnMut()| {
        let (s, ()) = seconds_of(|| {
            for _ in 0..reps {
                f();
            }
        });
        s * 1e6 / reps as f64
    };
    let us = per_call_us(&mut || {
        black_box(json::parse(black_box(&line)).is_ok());
    });
    m.put("json.parse_eval_batch_us", us, reps as u64);
    let us = per_call_us(&mut || {
        black_box(protocol::parse_request(black_box(&line)).is_ok());
    });
    m.put("protocol.parse_request_us", us, reps as u64);

    // The reply a shard renders for that batch: 256 gains + potentials.
    let gains: Vec<u64> = (0..BATCH_NODES as u64).map(|i| 40_000 - i * 97).collect();
    let potentials: Vec<u64> = gains.iter().map(|g| g + 1_234).collect();
    let us = per_call_us(&mut || {
        let body = ObjectBuilder::new()
            .field("gains", black_box(&gains).clone())
            .field("potentials", black_box(&potentials).clone())
            .field("elapsed_us", 321u64);
        black_box(protocol::ok_response("eval_batch", body));
    });
    m.put("json.encode_gains_us", us, reps as u64);
    Ok(())
}

/// `imc-obs`: rendering the whole registry, the cost of one scrape.
pub fn metrics_render(m: &mut MetricSet) {
    let reps = 20;
    let renders: Vec<f64> = (0..reps)
        .map(|_| {
            let (s, text) = seconds_of(|| imc_obs::encode::to_prometheus(imc_obs::global()));
            black_box(text.len());
            s * 1e6
        })
        .collect();
    m.put("obs.metrics_render_us", median(&renders), reps as u64);
}
