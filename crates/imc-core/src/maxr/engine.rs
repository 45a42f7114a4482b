//! The shared solve engine: strategy-aware greedy selection over RIC
//! samples, combining CELF lazy evaluation with a deterministic scoped
//! thread pool for parallel marginal-gain evaluation.
//!
//! Every strategy returns **bitwise-identical seed sets**:
//!
//! * [`SolveStrategy::Sequential`] is the reference — a full re-scan of
//!   every candidate per round, exactly the paper's greedy loops.
//! * [`SolveStrategy::Lazy`] prunes evaluations with a priority queue.
//!   For the submodular `ν_R` (Lemma 3) this is classic CELF on cached
//!   gains. `ĉ_R` is **non-submodular** (Lemma 2), so cached gains are
//!   not upper bounds there; instead the queue is keyed by the node's
//!   *potential* — the number of still-uninfluenced samples it touches —
//!   which only shrinks as seeds are added and always dominates the
//!   gain. Both queues break ties toward the smaller [`NodeId`] and a
//!   round ends only when no queued entry can beat the verified best, so
//!   the pick equals the sequential argmax every round.
//! * [`SolveStrategy::Parallel`] evaluates queue batches on scoped worker
//!   threads. Work is split into fixed-width shards whose boundaries
//!   depend only on the item count, each shard's results are written back
//!   in shard order, and the argmax reduction runs over that fixed order
//!   under a total order on `(gain, node)` — so the outcome is identical
//!   for *any* thread count, including 1.

use crate::maxr::pad_to_k;
use crate::maxr::telemetry::{EngineTelemetry, IterationRecord, MapStats};
use crate::{CoverageState, RicSamples};
use imc_graph::NodeId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;
use std::time::Instant;

/// How a solver schedules marginal-gain evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveStrategy {
    /// Full re-scan of every candidate per round, single-threaded — the
    /// reference semantics every other strategy reproduces exactly.
    Sequential,
    /// CELF lazy evaluation, single-threaded (the default).
    #[default]
    Lazy,
    /// CELF lazy evaluation with gains computed on scoped worker threads.
    Parallel {
        /// Worker threads (clamped to ≥ 1; `1` behaves like [`Lazy`](Self::Lazy)).
        threads: usize,
    },
}

impl SolveStrategy {
    /// Number of evaluation threads this strategy uses.
    pub fn threads(self) -> usize {
        match self {
            SolveStrategy::Sequential | SolveStrategy::Lazy => 1,
            SolveStrategy::Parallel { threads } => threads.max(1),
        }
    }

    /// Stable label used in reports and the service protocol.
    pub fn label(self) -> &'static str {
        match self {
            SolveStrategy::Sequential => "sequential",
            SolveStrategy::Lazy => "lazy",
            SolveStrategy::Parallel { .. } => "parallel",
        }
    }

    /// The strategy a thread-count knob maps to: `Lazy` for ≤ 1 thread,
    /// `Parallel` otherwise.
    pub fn with_threads(threads: usize) -> Self {
        if threads > 1 {
            SolveStrategy::Parallel { threads }
        } else {
            SolveStrategy::Lazy
        }
    }
}

/// Outcome of one engine greedy run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GreedyRun {
    /// Selected seeds, in pick order, padded to exactly `min(k, n)`.
    pub seeds: Vec<NodeId>,
    /// Marginal-gain evaluations performed — the engine's work measure.
    /// Deterministic for a fixed strategy; lazy strategies report fewer.
    pub evaluations: u64,
}

/// Fixed shard width. Work is split into `⌈len/SHARD⌉` chunks whose
/// boundaries depend only on the item count — never on the thread count —
/// so the concatenated result equals the sequential map exactly.
const SHARD: usize = 256;

/// Below this many items the spawn overhead outweighs the parallelism and
/// the map runs inline.
const MIN_PARALLEL_ITEMS: usize = 192;

/// Maps `eval` over `0..len`, fanning shards out to `threads` scoped
/// workers, and returns the results in index order — bit-identical to
/// `(0..len).map(eval).collect()` for any thread count.
pub(crate) fn shard_map<T, F>(len: usize, threads: usize, eval: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    shard_map_stats(len, threads, eval).0
}

/// [`shard_map`] plus per-shard wall times and per-worker busy fractions
/// for the engine telemetry. The timing never influences the result: the
/// value vector stays bit-identical to the sequential map.
pub(crate) fn shard_map_stats<T, F>(len: usize, threads: usize, eval: F) -> (Vec<T>, MapStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    shard_map_chunks_stats(len, threads, |lo, hi| (lo..hi).map(&eval).collect())
}

/// Chunk-granular [`shard_map_stats`]: the closure computes the results
/// for a whole shard range `[lo, hi)` at once instead of one item at a
/// time. Shard boundaries and result order are identical to the per-item
/// map, so a chunk closure that evaluates its range in ascending order is
/// bit-identical to `shard_map_stats` — while paying closure dispatch once
/// per 256-candidate shard rather than once per candidate. This is how
/// [`LocalSource`] serves a whole CELF shard from one sweep of the
/// inverted index (see `docs/KERNELS.md`).
pub(crate) fn shard_map_chunks_stats<T, F>(
    len: usize,
    threads: usize,
    eval: F,
) -> (Vec<T>, MapStats)
where
    T: Send,
    F: Fn(usize, usize) -> Vec<T> + Sync,
{
    if threads <= 1 || len < MIN_PARALLEL_ITEMS {
        let start = Instant::now();
        let vals = eval(0, len);
        debug_assert_eq!(vals.len(), len, "chunk evaluator length mismatch");
        let stats = MapStats {
            shard_seconds: vec![start.elapsed().as_secs_f64()],
            busy_fractions: Vec::new(),
        };
        return (vals, stats);
    }
    let shards = len.div_ceil(SHARD);
    let workers = threads.min(shards);
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, Vec<T>, f64)>> = Mutex::new(Vec::with_capacity(shards));
    let busy: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(workers));
    let wall = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut my_busy = 0.0;
                loop {
                    let s = cursor.fetch_add(1, AtomicOrdering::Relaxed);
                    if s >= shards {
                        break;
                    }
                    let shard_start = Instant::now();
                    let lo = s * SHARD;
                    let hi = ((s + 1) * SHARD).min(len);
                    let vals = eval(lo, hi);
                    debug_assert_eq!(vals.len(), hi - lo, "chunk evaluator length mismatch");
                    let secs = shard_start.elapsed().as_secs_f64();
                    my_busy += secs;
                    collected
                        .lock()
                        .expect("shard results poisoned")
                        .push((s, vals, secs));
                }
                busy.lock().expect("busy seconds poisoned").push(my_busy);
            });
        }
    });
    let wall_secs = wall.elapsed().as_secs_f64().max(1e-12);
    let mut groups = collected.into_inner().expect("shard results poisoned");
    groups.sort_unstable_by_key(|&(s, _, _)| s);
    let mut out = Vec::with_capacity(len);
    let mut shard_seconds = Vec::with_capacity(groups.len());
    for (_, vals, secs) in groups {
        out.extend(vals);
        shard_seconds.push(secs);
    }
    let busy_fractions = busy
        .into_inner()
        .expect("busy seconds poisoned")
        .into_iter()
        .map(|b| (b / wall_secs).min(1.0))
        .collect();
    (
        out,
        MapStats {
            shard_seconds,
            busy_fractions,
        },
    )
}

/// Entries popped per evaluation batch: classic one-at-a-time CELF when
/// single-threaded, a thread-scaled batch when parallel. Evaluating a
/// slightly larger superset of candidates never changes the argmax.
fn batch_cap(threads: usize) -> usize {
    if threads <= 1 {
        1
    } else {
        threads * 64
    }
}

/// Within one popped batch, evaluations run in chunks of this many items
/// per worker thread; after each chunk the round's best-so-far is
/// re-checked against the cached keys of the still-unevaluated remainder.
const CHUNK_PER_THREAD: usize = 16;

/// Evaluation chunk width for the best-so-far re-check. Single-threaded
/// strategies already pop one entry at a time, so chunking is a no-op
/// there.
fn eval_chunk(threads: usize) -> usize {
    if threads <= 1 {
        1
    } else {
        threads * CHUNK_PER_THREAD
    }
}

/// A marginal-gain oracle the greedy loops run against.
///
/// The engine keeps the CELF queues, batching, tie-breaks and evaluation
/// accounting to itself; a source only answers gain queries against the
/// seed set committed so far. Two implementations exist:
///
/// * [`LocalSource`] — a [`CoverageState`] over an in-process
///   [`RicSamples`] backend, the classic single-node path;
/// * the scatter-gather coordinator in `imc-cluster`, which fans each
///   batch out to shard daemons owning disjoint partitions of the sample
///   store and reduces the partial answers.
///
/// Any source whose answers are bitwise equal to a [`LocalSource`] over
/// the concatenation of its data produces bitwise-identical seed sets
/// *and* evaluation counts, because all control flow lives in the engine.
pub trait GainSource {
    /// Node count of the underlying graph — the candidate id space.
    fn node_count(&self) -> usize;

    /// Number of samples node `v` appears in: the initial ĉ potential,
    /// the candidate filter, and the padding key.
    fn appearance_count(&self, v: u32) -> usize;

    /// `(gain, potential)` for each node of `nodes` under the current
    /// seed set — the ĉ_R marginal gain and the number of
    /// still-uninfluenced samples the node touches (see
    /// [`CoverageState::marginal_influenced_with_potential`]).
    fn eval_c_batch(&mut self, nodes: &[u32]) -> (Vec<(usize, usize)>, MapStats);

    /// ν_R marginal gain for each node of `nodes` under the current seed
    /// set (see [`CoverageState::marginal_fraction`]). Values must be
    /// bitwise-identical to a local evaluation over the full collection.
    fn eval_nu_batch(&mut self, nodes: &[u32]) -> (Vec<f64>, MapStats);

    /// Commits `v` as a seed; every later batch sees the updated state.
    fn add_seed(&mut self, v: u32);
}

/// [`GainSource`] over an in-process [`RicSamples`] backend: a
/// [`CoverageState`] plus the worker count used to fan each evaluation
/// batch out through the deterministic shard map.
#[derive(Debug)]
pub struct LocalSource<C: RicSamples> {
    state: CoverageState<C>,
    threads: usize,
}

impl<C: RicSamples> LocalSource<C> {
    /// Wraps `collection` (owned or borrowed — see [`CoverageState`]) for
    /// evaluation with `threads` workers per batch.
    pub fn new(collection: C, threads: usize) -> Self {
        LocalSource {
            state: CoverageState::new(collection),
            threads: threads.max(1),
        }
    }

    /// The coverage state accumulated so far.
    pub fn state(&self) -> &CoverageState<C> {
        &self.state
    }
}

impl<C: RicSamples> GainSource for LocalSource<C> {
    fn node_count(&self) -> usize {
        self.state.collection().node_count()
    }

    fn appearance_count(&self, v: u32) -> usize {
        self.state.collection().appearance_count(NodeId::new(v))
    }

    fn eval_c_batch(&mut self, nodes: &[u32]) -> (Vec<(usize, usize)>, MapStats) {
        let state = &self.state;
        shard_map_chunks_stats(nodes.len(), self.threads, |lo, hi| {
            let mut out = Vec::with_capacity(hi - lo);
            state.eval_c_shard(&nodes[lo..hi], &mut out);
            out
        })
    }

    fn eval_nu_batch(&mut self, nodes: &[u32]) -> (Vec<f64>, MapStats) {
        let state = &self.state;
        shard_map_chunks_stats(nodes.len(), self.threads, |lo, hi| {
            let mut out = Vec::with_capacity(hi - lo);
            state.eval_nu_shard(&nodes[lo..hi], &mut out);
            out
        })
    }

    fn add_seed(&mut self, v: u32) {
        self.state.add_seed(NodeId::new(v));
    }
}

/// Strategy-aware greedy on `ĉ_R` (the number of influenced samples).
///
/// All strategies return the seed set of the paper's plain re-evaluating
/// greedy: per round the argmax of the marginal gain, ties to the
/// smallest node id, stopping (then padding) once no gain is positive.
pub fn greedy_c_with<C: RicSamples>(
    collection: &C,
    k: usize,
    strategy: SolveStrategy,
) -> GreedyRun {
    greedy_c_with_telemetry(collection, k, strategy).0
}

/// [`greedy_c_with`] that also returns the run's [`EngineTelemetry`].
///
/// Either entry point publishes the telemetry into the `imc_engine_*`
/// metric families and the trace stream; this one additionally hands the
/// structured records back for benches and tests.
pub fn greedy_c_with_telemetry<C: RicSamples>(
    collection: &C,
    k: usize,
    strategy: SolveStrategy,
) -> (GreedyRun, EngineTelemetry) {
    let mut source = LocalSource::new(collection, strategy.threads());
    let (run, telemetry) = greedy_c_over(&mut source, k, strategy);
    telemetry.publish();
    (run, telemetry)
}

/// [`greedy_c_with`] over an arbitrary [`GainSource`] — the engine entry
/// point the cluster coordinator shares with the local solvers. Returns
/// the run and its telemetry *without* publishing; the caller decides
/// where the telemetry goes.
pub fn greedy_c_over<S: GainSource>(
    source: &mut S,
    k: usize,
    strategy: SolveStrategy,
) -> (GreedyRun, EngineTelemetry) {
    match strategy {
        SolveStrategy::Sequential => greedy_c_sequential(source, k),
        SolveStrategy::Lazy | SolveStrategy::Parallel { .. } => greedy_c_lazy(source, k, strategy),
    }
}

/// Strategy-aware CELF greedy on the submodular upper bound `ν_R`.
///
/// All strategies return the seed set of plain greedy on `ν_R`: per round
/// the argmax of the fractional gain under `f64::total_cmp`, ties to the
/// smallest node id, stopping once the best gain is ≤ `1e-15`.
pub fn greedy_nu_with<C: RicSamples>(
    collection: &C,
    k: usize,
    strategy: SolveStrategy,
) -> GreedyRun {
    greedy_nu_with_telemetry(collection, k, strategy).0
}

/// [`greedy_nu_with`] that also returns the run's [`EngineTelemetry`].
///
/// Either entry point publishes the telemetry into the `imc_engine_*`
/// metric families and the trace stream; this one additionally hands the
/// structured records back for benches and tests.
pub fn greedy_nu_with_telemetry<C: RicSamples>(
    collection: &C,
    k: usize,
    strategy: SolveStrategy,
) -> (GreedyRun, EngineTelemetry) {
    let mut source = LocalSource::new(collection, strategy.threads());
    let (run, telemetry) = greedy_nu_over(&mut source, k, strategy);
    telemetry.publish();
    (run, telemetry)
}

/// [`greedy_nu_with`] over an arbitrary [`GainSource`] — see
/// [`greedy_c_over`]. Telemetry is returned unpublished.
pub fn greedy_nu_over<S: GainSource>(
    source: &mut S,
    k: usize,
    strategy: SolveStrategy,
) -> (GreedyRun, EngineTelemetry) {
    match strategy {
        SolveStrategy::Sequential => greedy_nu_sequential(source, k),
        SolveStrategy::Lazy | SolveStrategy::Parallel { .. } => greedy_nu_lazy(source, k, strategy),
    }
}

fn greedy_c_sequential<S: GainSource>(source: &mut S, k: usize) -> (GreedyRun, EngineTelemetry) {
    let wall = Instant::now();
    let mut telemetry = EngineTelemetry::new("c_hat", "sequential", 1);
    let k = k.min(source.node_count());
    let candidates: Vec<u32> = (0..source.node_count() as u32)
        .filter(|&v| source.appearance_count(v) > 0)
        .collect();
    let mut used = vec![false; source.node_count()];
    let mut remaining = candidates.len();
    let mut seeds = Vec::with_capacity(k);
    let mut evaluations = 0u64;
    let mut alive: Vec<u32> = Vec::with_capacity(candidates.len());
    for round in 0..k {
        let round_start = Instant::now();
        let mut rec = IterationRecord::begin(round as u32, remaining);
        alive.clear();
        alive.extend(candidates.iter().copied().filter(|&v| !used[v as usize]));
        // One batch per round: the state is fixed within a round, so the
        // batched gains equal a per-candidate ascending scan exactly.
        let (gains, stats) = source.eval_c_batch(&alive);
        rec.absorb(&stats);
        telemetry.absorb(stats);
        evaluations += alive.len() as u64;
        rec.evaluations += alive.len() as u64;
        let mut best: Option<(usize, u32)> = None;
        for (&v, &(gain, _)) in alive.iter().zip(&gains) {
            let better = match best {
                None => gain > 0,
                Some((bg, bv)) => gain > bg || (gain == bg && gain > 0 && v < bv),
            };
            if better {
                best = Some((gain, v));
            }
        }
        rec.pops = rec.evaluations;
        match best {
            Some((gain, v)) => {
                source.add_seed(v);
                used[v as usize] = true;
                remaining -= 1;
                seeds.push(NodeId::new(v));
                rec.finish(gain as f64, true, round_start);
                telemetry.rounds.push(rec);
            }
            None => {
                rec.finish(0.0, false, round_start);
                telemetry.rounds.push(rec);
                break;
            }
        }
    }
    pad_to_k(&mut seeds, k, source.node_count(), |v| {
        source.appearance_count(v)
    });
    telemetry.wall_seconds = wall.elapsed().as_secs_f64();
    (GreedyRun { seeds, evaluations }, telemetry)
}

/// Lazy-queue entry for `ĉ_R`: keyed by the node's *potential* (samples it
/// touches that are not yet influenced), which upper-bounds every future
/// gain even though `ĉ_R` is non-submodular.
#[derive(Debug, PartialEq, Eq)]
struct UbEntry {
    ub: usize,
    node: u32,
}

impl Ord for UbEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.ub
            .cmp(&other.ub)
            .then_with(|| other.node.cmp(&self.node)) // prefer smaller id on tie
    }
}

impl PartialOrd for UbEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn greedy_c_lazy<S: GainSource>(
    source: &mut S,
    k: usize,
    strategy: SolveStrategy,
) -> (GreedyRun, EngineTelemetry) {
    let threads = strategy.threads();
    let wall = Instant::now();
    let mut telemetry = EngineTelemetry::new("c_hat", strategy.label(), threads);
    let k = k.min(source.node_count());
    // Initial potential = appearance count (no sample is influenced yet).
    let mut heap: BinaryHeap<UbEntry> = (0..source.node_count() as u32)
        .filter_map(|v| {
            let ub = source.appearance_count(v);
            (ub > 0).then_some(UbEntry { ub, node: v })
        })
        .collect();
    let cap = batch_cap(threads);
    let chunk = eval_chunk(threads);
    let mut seeds = Vec::with_capacity(k);
    let mut evaluations = 0u64;
    let mut round_idx = 0u32;
    let mut batch: Vec<UbEntry> = Vec::new();
    let mut evaluated: Vec<UbEntry> = Vec::new();
    while seeds.len() < k {
        let round_start = Instant::now();
        let mut rec = IterationRecord::begin(round_idx, heap.len());
        let mut best: Option<(usize, u32)> = None;
        evaluated.clear();
        loop {
            batch.clear();
            while batch.len() < cap {
                let viable = match (heap.peek(), best) {
                    (None, _) => false,
                    (Some(top), None) => top.ub > 0,
                    (Some(top), Some((bg, bv))) => top.ub > bg || (top.ub == bg && top.node < bv),
                };
                if !viable {
                    break;
                }
                batch.push(heap.pop().expect("peeked entry"));
            }
            if batch.is_empty() {
                break;
            }
            rec.batches += 1;
            rec.pops += batch.len() as u64;
            // Evaluate the batch in chunks; between chunks, entries whose
            // cached upper bound can no longer beat the updated best go
            // back to the queue *unevaluated*. Pops arrive in the queue's
            // total order, so the first non-viable entry marks the cut.
            let mut idx = 0;
            while idx < batch.len() {
                let hi = (idx + chunk).min(batch.len());
                let ids: Vec<u32> = batch[idx..hi].iter().map(|e| e.node).collect();
                let (gains, stats) = source.eval_c_batch(&ids);
                rec.absorb(&stats);
                telemetry.absorb(stats);
                evaluations += (hi - idx) as u64;
                rec.evaluations += (hi - idx) as u64;
                rec.stale_rechecks += (hi - idx) as u64;
                for (e, &(gain, potential)) in batch[idx..hi].iter().zip(&gains) {
                    let better = match best {
                        None => gain > 0,
                        Some((bg, bv)) => gain > bg || (gain == bg && gain > 0 && e.node < bv),
                    };
                    if better {
                        best = Some((gain, e.node));
                    }
                    evaluated.push(UbEntry {
                        ub: potential,
                        node: e.node,
                    });
                }
                idx = hi;
                if idx < batch.len() {
                    if let Some((bg, bv)) = best {
                        let cut = batch[idx..]
                            .iter()
                            .position(|e| !(e.ub > bg || (e.ub == bg && e.node < bv)))
                            .map_or(batch.len(), |p| idx + p);
                        if cut < batch.len() {
                            rec.saved_evaluations += (batch.len() - cut) as u64;
                            for e in batch.drain(cut..) {
                                heap.push(e);
                            }
                        }
                    }
                }
            }
        }
        match best {
            Some((gain, v)) => {
                source.add_seed(v);
                seeds.push(NodeId::new(v));
                // Non-winners return with their freshly measured potential
                // (still an upper bound after the new seed: potentials only
                // shrink). Zero-potential nodes can never gain again.
                for e in evaluated.drain(..) {
                    if e.node != v && e.ub > 0 {
                        heap.push(e);
                    }
                }
                rec.finish(gain as f64, true, round_start);
                telemetry.rounds.push(rec);
            }
            None => {
                rec.finish(0.0, false, round_start);
                telemetry.rounds.push(rec);
                break;
            }
        }
        round_idx += 1;
    }
    pad_to_k(&mut seeds, k, source.node_count(), |v| {
        source.appearance_count(v)
    });
    telemetry.wall_seconds = wall.elapsed().as_secs_f64();
    (GreedyRun { seeds, evaluations }, telemetry)
}

/// A gain below this is treated as zero for `ν_R` (matches the historical
/// CELF cut-off).
const NU_EPS: f64 = 1e-15;

fn greedy_nu_sequential<S: GainSource>(source: &mut S, k: usize) -> (GreedyRun, EngineTelemetry) {
    let wall = Instant::now();
    let mut telemetry = EngineTelemetry::new("nu", "sequential", 1);
    let k = k.min(source.node_count());
    let candidates: Vec<u32> = (0..source.node_count() as u32)
        .filter(|&v| source.appearance_count(v) > 0)
        .collect();
    let mut used = vec![false; source.node_count()];
    let mut remaining = candidates.len();
    let mut seeds = Vec::with_capacity(k);
    let mut evaluations = 0u64;
    let mut alive: Vec<u32> = Vec::with_capacity(candidates.len());
    for round in 0..k {
        let round_start = Instant::now();
        let mut rec = IterationRecord::begin(round as u32, remaining);
        alive.clear();
        alive.extend(candidates.iter().copied().filter(|&v| !used[v as usize]));
        let (gains, stats) = source.eval_nu_batch(&alive);
        rec.absorb(&stats);
        telemetry.absorb(stats);
        evaluations += alive.len() as u64;
        rec.evaluations += alive.len() as u64;
        let mut best: Option<(f64, u32)> = None;
        for (&v, &gain) in alive.iter().zip(&gains) {
            // Ascending scan keeps the smallest id on exact ties.
            let better = match best {
                None => gain > NU_EPS,
                Some((bg, _)) => gain.total_cmp(&bg) == Ordering::Greater,
            };
            if better {
                best = Some((gain, v));
            }
        }
        rec.pops = rec.evaluations;
        match best {
            Some((gain, v)) => {
                source.add_seed(v);
                used[v as usize] = true;
                remaining -= 1;
                seeds.push(NodeId::new(v));
                rec.finish(gain, true, round_start);
                telemetry.rounds.push(rec);
            }
            None => {
                rec.finish(0.0, false, round_start);
                telemetry.rounds.push(rec);
                break;
            }
        }
    }
    pad_to_k(&mut seeds, k, source.node_count(), |v| {
        source.appearance_count(v)
    });
    telemetry.wall_seconds = wall.elapsed().as_secs_f64();
    (GreedyRun { seeds, evaluations }, telemetry)
}

/// CELF entry for `ν_R`: cached gain with a staleness stamp.
#[derive(Debug, PartialEq)]
struct NuEntry {
    gain: f64,
    node: u32,
    stamp: u32,
}

impl Eq for NuEntry {}

impl Ord for NuEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.node.cmp(&self.node)) // prefer smaller id on tie
    }
}

impl PartialOrd for NuEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn greedy_nu_lazy<S: GainSource>(
    source: &mut S,
    k: usize,
    strategy: SolveStrategy,
) -> (GreedyRun, EngineTelemetry) {
    let threads = strategy.threads();
    let wall = Instant::now();
    let mut telemetry = EngineTelemetry::new("nu", strategy.label(), threads);
    let k = k.min(source.node_count());
    let candidates: Vec<u32> = (0..source.node_count() as u32)
        .filter(|&v| source.appearance_count(v) > 0)
        .collect();
    // The initial full gain scan is the single biggest evaluation wave —
    // fan it out across the workers.
    let (initial, scan_stats) = source.eval_nu_batch(&candidates);
    telemetry.absorb(scan_stats);
    telemetry.initial_evaluations = candidates.len() as u64;
    let mut evaluations = candidates.len() as u64;
    let mut heap: BinaryHeap<NuEntry> = candidates
        .iter()
        .zip(&initial)
        .map(|(&v, &g)| NuEntry {
            gain: g,
            node: v,
            stamp: 0,
        })
        .collect();
    let cap = batch_cap(threads);
    let chunk = eval_chunk(threads);
    let mut seeds = Vec::with_capacity(k);
    let mut round = 0u32;
    let mut stale: Vec<NuEntry> = Vec::new();
    let mut evaluated: Vec<(f64, u32)> = Vec::new();
    while seeds.len() < k {
        let round_start = Instant::now();
        let mut rec = IterationRecord::begin(round, heap.len());
        let mut best: Option<(f64, u32)> = None;
        evaluated.clear();
        loop {
            stale.clear();
            let mut popped_fresh = false;
            while stale.len() < cap {
                let viable = match (heap.peek(), best) {
                    (None, _) => false,
                    (Some(top), None) => top.gain > NU_EPS,
                    (Some(top), Some((bg, bv))) => match top.gain.total_cmp(&bg) {
                        Ordering::Greater => true,
                        Ordering::Equal => top.node < bv,
                        Ordering::Less => false,
                    },
                };
                if !viable {
                    break;
                }
                let e = heap.pop().expect("peeked entry");
                rec.pops += 1;
                if e.stamp == round {
                    // Gain is exact under the current seed set: contends
                    // for the argmax without re-evaluation.
                    let better = match best {
                        None => e.gain > NU_EPS,
                        Some((bg, bv)) => match e.gain.total_cmp(&bg) {
                            Ordering::Greater => true,
                            Ordering::Equal => e.node < bv,
                            Ordering::Less => false,
                        },
                    };
                    if better {
                        best = Some((e.gain, e.node));
                    }
                    evaluated.push((e.gain, e.node));
                    rec.fresh_hits += 1;
                    popped_fresh = true;
                } else {
                    stale.push(e);
                }
            }
            if stale.is_empty() {
                if popped_fresh {
                    continue;
                }
                break;
            }
            rec.batches += 1;
            // Re-evaluate the stale pops in chunks; between chunks, stale
            // entries whose cached (upper-bound) gain can no longer beat
            // the updated best go back to the queue unevaluated. Pops
            // arrive in the queue's total order, so the first non-viable
            // entry marks the cut.
            let mut idx = 0;
            while idx < stale.len() {
                let hi = (idx + chunk).min(stale.len());
                let ids: Vec<u32> = stale[idx..hi].iter().map(|e| e.node).collect();
                let (gains, stats) = source.eval_nu_batch(&ids);
                rec.absorb(&stats);
                telemetry.absorb(stats);
                evaluations += (hi - idx) as u64;
                rec.evaluations += (hi - idx) as u64;
                rec.stale_rechecks += (hi - idx) as u64;
                for (e, &gain) in stale[idx..hi].iter().zip(&gains) {
                    let better = match best {
                        None => gain > NU_EPS,
                        Some((bg, bv)) => match gain.total_cmp(&bg) {
                            Ordering::Greater => true,
                            Ordering::Equal => e.node < bv,
                            Ordering::Less => false,
                        },
                    };
                    if better {
                        best = Some((gain, e.node));
                    }
                    evaluated.push((gain, e.node));
                }
                idx = hi;
                if idx < stale.len() {
                    if let Some((bg, bv)) = best {
                        let cut = stale[idx..]
                            .iter()
                            .position(|e| match e.gain.total_cmp(&bg) {
                                Ordering::Greater => false,
                                Ordering::Equal => e.node >= bv,
                                Ordering::Less => true,
                            })
                            .map_or(stale.len(), |p| idx + p);
                        if cut < stale.len() {
                            rec.saved_evaluations += (stale.len() - cut) as u64;
                            for e in stale.drain(cut..) {
                                heap.push(e);
                            }
                        }
                    }
                }
            }
        }
        match best {
            Some((gain, v)) => {
                source.add_seed(v);
                seeds.push(NodeId::new(v));
                // Re-queue the non-winners with their freshly measured
                // gains, stamped with the round they were measured in; the
                // round bump below marks them stale. Submodularity lets
                // exhausted (≤ ε) entries drop out for good.
                for &(g, node) in &evaluated {
                    if node != v && g > NU_EPS {
                        heap.push(NuEntry {
                            gain: g,
                            node,
                            stamp: round,
                        });
                    }
                }
                round += 1;
                rec.finish(gain, true, round_start);
                telemetry.rounds.push(rec);
            }
            None => {
                rec.finish(0.0, false, round_start);
                telemetry.rounds.push(rec);
                break;
            }
        }
    }
    pad_to_k(&mut seeds, k, source.node_count(), |v| {
        source.appearance_count(v)
    });
    telemetry.wall_seconds = wall.elapsed().as_secs_f64();
    (GreedyRun { seeds, evaluations }, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoverSet, RicSample, RicStore};
    use imc_community::CommunityId;

    const ALL_STRATEGIES: [SolveStrategy; 6] = [
        SolveStrategy::Sequential,
        SolveStrategy::Lazy,
        SolveStrategy::Parallel { threads: 1 },
        SolveStrategy::Parallel { threads: 2 },
        SolveStrategy::Parallel { threads: 4 },
        SolveStrategy::Parallel { threads: 8 },
    ];

    fn mk_cover(width: usize, bits: &[usize]) -> CoverSet {
        let mut c = CoverSet::new(width);
        for &b in bits {
            c.set(b);
        }
        c
    }

    /// A pseudo-random collection large and irregular enough to exercise
    /// staleness, ties, and the padding path.
    fn scrambled_collection(nodes: u32, samples: usize, salt: u64) -> RicStore {
        let mut drawn = Vec::with_capacity(samples);
        let mut x = salt | 1;
        let mut next = |m: u64| {
            // xorshift64 — deterministic, no external RNG in unit tests.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for _ in 0..samples {
            let width = 1 + next(3) as usize;
            let threshold = 1 + next(width.min(2) as u64) as u32;
            let n = 1 + next(4) as usize;
            let mut ids: Vec<u32> = (0..n).map(|_| next(u64::from(nodes)) as u32).collect();
            ids.sort_unstable();
            ids.dedup();
            let entries: Vec<(NodeId, CoverSet)> = ids
                .iter()
                .map(|&v| {
                    let bit = next(width as u64) as usize;
                    (NodeId::new(v), mk_cover(width, &[bit]))
                })
                .collect();
            drawn.push(RicSample {
                community: CommunityId::new(next(3) as u32),
                threshold,
                community_size: width as u32,
                nodes: entries.iter().map(|e| e.0).collect(),
                covers: entries.into_iter().map(|e| e.1).collect(),
            });
        }
        RicStore::from_samples(nodes as usize, 3, samples as f64, &drawn).unwrap()
    }

    /// Collection where the non-submodular trap is visible: sample needs
    /// BOTH nodes 0 and 1 (h=2); node 2 alone influences a different
    /// sample.
    fn trap_collection() -> RicStore {
        let samples = [
            RicSample {
                community: CommunityId::new(0),
                threshold: 2,
                community_size: 2,
                nodes: vec![NodeId::new(0), NodeId::new(1)],
                covers: vec![mk_cover(2, &[0]), mk_cover(2, &[1])],
            },
            RicSample {
                community: CommunityId::new(1),
                threshold: 1,
                community_size: 1,
                nodes: vec![NodeId::new(2)],
                covers: vec![mk_cover(1, &[0])],
            },
        ];
        RicStore::from_samples(4, 2, 2.0, &samples).unwrap()
    }

    fn c(col: &RicStore, k: usize) -> Vec<NodeId> {
        greedy_c_with(col, k, SolveStrategy::Lazy).seeds
    }

    fn nu(col: &RicStore, k: usize) -> Vec<NodeId> {
        greedy_nu_with(col, k, SolveStrategy::Lazy).seeds
    }

    #[test]
    fn greedy_c_returns_k_distinct_seeds_and_clamps_to_n() {
        let col = trap_collection();
        let s = c(&col, 3);
        assert_eq!(s.len(), 3);
        let set: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), 3);
        assert_eq!(c(&col, 100).len(), 4);
    }

    #[test]
    fn greedy_c_first_pick_is_the_zero_marginal_trap() {
        // With k=1 no single node influences sample 0; node 2 influences
        // sample 1 → greedy must pick node 2 first.
        let col = trap_collection();
        assert_eq!(c(&col, 1), vec![NodeId::new(2)]);
    }

    #[test]
    fn greedy_c_k3_covers_both_samples() {
        let col = trap_collection();
        assert_eq!(col.influenced_count(&c(&col, 3)), 2);
    }

    #[test]
    fn greedy_nu_sees_through_the_trap() {
        // ν gain of node 0 or 1 is 1/2 > 0, so greedy_nu picks them even
        // though their ĉ gain is 0 — the whole point of the sandwich.
        let col = trap_collection();
        let s = nu(&col, 3);
        assert_eq!(col.influenced_count(&s), 2);
        assert!(s.contains(&NodeId::new(0)) && s.contains(&NodeId::new(1)));
    }

    #[test]
    fn greedy_nu_matches_brute_force_on_small_instance() {
        // ν_R is submodular; CELF must equal plain greedy on ν.
        let col = trap_collection();
        let celf = nu(&col, 2);
        // Plain greedy on ν:
        let mut state = CoverageState::new(&col);
        let mut plain = Vec::new();
        for _ in 0..2 {
            let best = (0..4u32)
                .map(NodeId::new)
                .max_by(|&a, &b| {
                    state
                        .marginal_fraction(a)
                        .total_cmp(&state.marginal_fraction(b))
                        .then(b.cmp(&a))
                })
                .unwrap();
            state.add_seed(best);
            plain.push(best);
        }
        assert_eq!(col.nu_estimate(&celf), col.nu_estimate(&plain));
    }

    #[test]
    fn greedy_is_deterministic() {
        let col = trap_collection();
        assert_eq!(c(&col, 3), c(&col, 3));
        assert_eq!(nu(&col, 3), nu(&col, 3));
    }

    #[test]
    fn all_strategies_agree_on_c_greedy() {
        for salt in [1u64, 7, 42, 1234] {
            let col = scrambled_collection(40, 120, salt);
            for k in [1usize, 3, 7, 40] {
                let reference = greedy_c_with(&col, k, SolveStrategy::Sequential);
                for strategy in ALL_STRATEGIES {
                    let run = greedy_c_with(&col, k, strategy);
                    assert_eq!(
                        run.seeds, reference.seeds,
                        "ĉ diverged for salt={salt} k={k} {strategy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_strategies_agree_on_nu_greedy() {
        for salt in [1u64, 7, 42, 1234] {
            let col = scrambled_collection(40, 120, salt);
            for k in [1usize, 3, 7, 40] {
                let reference = greedy_nu_with(&col, k, SolveStrategy::Sequential);
                for strategy in ALL_STRATEGIES {
                    let run = greedy_nu_with(&col, k, strategy);
                    assert_eq!(
                        run.seeds, reference.seeds,
                        "ν diverged for salt={salt} k={k} {strategy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn lazy_evaluates_no_more_than_sequential() {
        let col = scrambled_collection(60, 300, 5);
        let k = 10;
        let sequential = greedy_c_with(&col, k, SolveStrategy::Sequential);
        let lazy = greedy_c_with(&col, k, SolveStrategy::Lazy);
        assert!(
            lazy.evaluations <= sequential.evaluations,
            "lazy {} > sequential {}",
            lazy.evaluations,
            sequential.evaluations
        );
        let nu_seq = greedy_nu_with(&col, k, SolveStrategy::Sequential);
        let nu_lazy = greedy_nu_with(&col, k, SolveStrategy::Lazy);
        assert!(nu_lazy.evaluations <= nu_seq.evaluations);
    }

    /// CELF soundness: every lazy pick must be the true argmax of *fresh*
    /// gains — a stale cached gain winning a round would show up here as a
    /// pick whose freshly recomputed gain is below some other candidate's.
    #[test]
    fn celf_queue_never_returns_a_stale_gain() {
        for salt in [3u64, 9, 77] {
            let col = scrambled_collection(30, 90, salt);
            let run = greedy_nu_with(&col, 8, SolveStrategy::Lazy);
            let mut state = CoverageState::new(&col);
            let mut used = vec![false; RicSamples::node_count(&col)];
            for &picked in &run.seeds {
                let fresh_picked = state.marginal_fraction(picked);
                if fresh_picked <= NU_EPS {
                    break; // padding region — no more greedy picks
                }
                for v in 0..RicSamples::node_count(&col) as u32 {
                    if used[v as usize] {
                        continue;
                    }
                    let fresh = state.marginal_fraction(NodeId::new(v));
                    assert!(
                        fresh.total_cmp(&fresh_picked) != Ordering::Greater,
                        "salt={salt}: pick {picked} (gain {fresh_picked}) \
                         beaten by fresh gain {fresh} of node {v}"
                    );
                    if fresh.total_cmp(&fresh_picked) == Ordering::Equal {
                        assert!(
                            picked.index() as u32 <= v,
                            "salt={salt}: tie broken away from smaller id"
                        );
                    }
                }
                used[picked.index()] = true;
                state.add_seed(picked);
            }
        }
    }

    /// Same soundness check for the potential-keyed ĉ queue.
    #[test]
    fn lazy_c_queue_never_returns_a_stale_gain() {
        for salt in [3u64, 9, 77] {
            let col = scrambled_collection(30, 90, salt);
            let run = greedy_c_with(&col, 8, SolveStrategy::Lazy);
            let mut state = CoverageState::new(&col);
            let mut used = vec![false; RicSamples::node_count(&col)];
            for &picked in &run.seeds {
                let fresh_picked = state.marginal_influenced(picked);
                if fresh_picked == 0 {
                    break; // padding region
                }
                for v in 0..RicSamples::node_count(&col) as u32 {
                    if used[v as usize] {
                        continue;
                    }
                    let fresh = state.marginal_influenced(NodeId::new(v));
                    assert!(
                        fresh <= fresh_picked,
                        "salt={salt}: pick {picked} (gain {fresh_picked}) \
                         beaten by fresh gain {fresh} of node {v}"
                    );
                }
                used[picked.index()] = true;
                state.add_seed(picked);
            }
        }
    }

    #[test]
    fn telemetry_accounts_for_every_evaluation() {
        let col = scrambled_collection(60, 300, 11);
        let k = 8;
        for strategy in ALL_STRATEGIES {
            let (run, telemetry) = greedy_nu_with_telemetry(&col, k, strategy);
            assert_eq!(
                telemetry.evaluations(),
                run.evaluations,
                "ν telemetry evaluation total diverged for {strategy:?}"
            );
            assert_eq!(telemetry.objective, "nu");
            assert_eq!(telemetry.strategy, strategy.label());
            assert_eq!(telemetry.threads, strategy.threads());
            let picked = telemetry.rounds.iter().filter(|r| r.picked).count();
            assert!(picked <= k);
            assert!(telemetry.rounds.len() <= k + 1);
            // Queue depth at round start can never be below what is left
            // to pop that round.
            for rec in &telemetry.rounds {
                assert!(rec.pops <= rec.queue_depth as u64 + rec.saved_evaluations);
                assert!(rec.wasted_evaluations <= rec.evaluations);
            }
            assert!(telemetry.wall_seconds >= 0.0);

            let (c_run, c_telemetry) = greedy_c_with_telemetry(&col, k, strategy);
            assert_eq!(
                c_telemetry.evaluations(),
                c_run.evaluations,
                "ĉ telemetry evaluation total diverged for {strategy:?}"
            );
            assert_eq!(c_telemetry.objective, "c_hat");
            if strategy != SolveStrategy::Sequential {
                // Every queue-based ĉ evaluation re-checks a bound-only key.
                assert_eq!(c_telemetry.stale_rechecks(), c_run.evaluations);
            }
        }
    }

    #[test]
    fn parallel_run_records_shard_timings() {
        // 400 candidates push the initial ν scan over MIN_PARALLEL_ITEMS,
        // so the parallel path must report per-shard wall times and
        // per-worker busy fractions.
        let col = scrambled_collection(400, 1200, 21);
        let (_, telemetry) =
            greedy_nu_with_telemetry(&col, 6, SolveStrategy::Parallel { threads: 4 });
        assert!(
            !telemetry.shard_seconds.is_empty(),
            "no shard timings recorded"
        );
        assert!(
            !telemetry.busy_fractions.is_empty(),
            "no busy fractions recorded"
        );
        for &b in &telemetry.busy_fractions {
            assert!((0.0..=1.0).contains(&b), "busy fraction {b} out of range");
        }
        for &s in &telemetry.shard_seconds {
            assert!(s >= 0.0);
        }
    }

    /// The thread-scaling fix: a wide parallel batch must push part of its
    /// popped entries back unevaluated once the best-so-far proves they
    /// cannot win — with seeds still bitwise identical to sequential.
    #[test]
    fn chunked_recheck_saves_evaluations_without_changing_seeds() {
        let col = scrambled_collection(400, 1200, 21);
        let k = 6;
        let reference_nu = greedy_nu_with(&col, k, SolveStrategy::Sequential);
        let reference_c = greedy_c_with(&col, k, SolveStrategy::Sequential);
        let strategy = SolveStrategy::Parallel { threads: 8 };
        let (nu_run, nu_telemetry) = greedy_nu_with_telemetry(&col, k, strategy);
        let (c_run, c_telemetry) = greedy_c_with_telemetry(&col, k, strategy);
        assert_eq!(nu_run.seeds, reference_nu.seeds);
        assert_eq!(c_run.seeds, reference_c.seeds);
        assert!(
            nu_telemetry.saved_evaluations() > 0,
            "ν saved no evaluations: {} pops, {} evaluations",
            nu_telemetry.rounds.iter().map(|r| r.pops).sum::<u64>(),
            nu_telemetry.evaluations(),
        );
        assert!(
            c_telemetry.saved_evaluations() > 0,
            "ĉ saved no evaluations: {} pops, {} evaluations",
            c_telemetry.rounds.iter().map(|r| r.pops).sum::<u64>(),
            c_telemetry.evaluations(),
        );
        // Single-threaded CELF pops one entry at a time — nothing to save.
        let (_, lazy_telemetry) = greedy_nu_with_telemetry(&col, k, SolveStrategy::Lazy);
        assert_eq!(lazy_telemetry.saved_evaluations(), 0);
    }

    #[test]
    fn shard_map_matches_sequential_map_for_every_thread_count() {
        let data: Vec<u64> = (0..1000u64).map(|i| i * i % 977).collect();
        let expect: Vec<u64> = data.iter().map(|&v| v * 3 + 1).collect();
        for threads in [1usize, 2, 3, 4, 8, 16] {
            let got = shard_map(data.len(), threads, |i| data[i] * 3 + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn chunked_shard_map_matches_per_item_map_for_every_thread_count() {
        let data: Vec<u64> = (0..1000u64).map(|i| i * 7 % 613).collect();
        let expect: Vec<u64> = data.iter().map(|&v| v ^ 0x5a).collect();
        for threads in [1usize, 2, 3, 4, 8, 16] {
            let (got, _) = shard_map_chunks_stats(data.len(), threads, |lo, hi| {
                data[lo..hi].iter().map(|&v| v ^ 0x5a).collect()
            });
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_oversized_budgets_pad() {
        let col = RicStore::new(5, 1, 1.0);
        for strategy in ALL_STRATEGIES {
            assert_eq!(greedy_c_with(&col, 2, strategy).seeds.len(), 2);
            assert_eq!(greedy_nu_with(&col, 2, strategy).seeds.len(), 2);
            assert_eq!(greedy_c_with(&col, 100, strategy).seeds.len(), 5);
        }
    }

    #[test]
    fn strategy_labels_and_threads() {
        assert_eq!(SolveStrategy::Sequential.threads(), 1);
        assert_eq!(SolveStrategy::Lazy.threads(), 1);
        assert_eq!(SolveStrategy::Parallel { threads: 0 }.threads(), 1);
        assert_eq!(SolveStrategy::Parallel { threads: 4 }.threads(), 4);
        assert_eq!(SolveStrategy::with_threads(1), SolveStrategy::Lazy);
        assert_eq!(
            SolveStrategy::with_threads(4),
            SolveStrategy::Parallel { threads: 4 }
        );
        assert_eq!(SolveStrategy::default().label(), "lazy");
        assert_eq!(SolveStrategy::Sequential.label(), "sequential");
        assert_eq!(SolveStrategy::Parallel { threads: 2 }.label(), "parallel");
    }
}
