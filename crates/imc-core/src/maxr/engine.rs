//! The shared solve engine: strategy-aware greedy selection over RIC
//! samples by CELF lazy evaluation against a [`GainSource`], plus the
//! deterministic scoped-thread map BT's pivot loop runs on.
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
//!   the pick equals the sequential argmax every round. The queue is
//!   re-checked a *window* at a time (`lazy_rounds`); the window's width
//!   belongs to the [`GainSource`] and changes no decision.
//! * [`SolveStrategy::Parallel`] is the same loop over a source that asks
//!   for a thread-scaled window (`threads × 16` entries) — a window cap
//!   and nothing else. No gain batch is fanned out to threads any more:
//!   `ĉ_R` and `ν_R` gains are both table reads (see
//!   [`CoverageState::eval_c_shard`] and
//!   [`CoverageState::eval_nu_shard`]), the initial `ν_R` scan included.
//!   The window width changes how many gains are fetched, never which are
//!   consumed — so seeds *and* evaluation counts equal `Lazy`'s for *any*
//!   thread count, including 1. (BT's pivot loop is what still uses the
//!   threads, through `shard_map`.)

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
    /// CELF lazy evaluation over a `threads × 16` window (and BT pivots on
    /// scoped worker threads).
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
    /// Marginal-gain evaluations **consumed** — gains the greedy loop
    /// fetched from its source and acted on; the engine's work measure.
    /// `Sequential` consumes every live candidate every round; `Lazy` and
    /// `Parallel` consume the same, smaller, number whatever the window
    /// width. Gains a wide window fetched in vain are reported apart, in
    /// [`IterationRecord::speculative_evaluations`].
    pub evaluations: u64,
}

/// Fixed shard width. Work is split into `⌈len/SHARD⌉` chunks whose
/// boundaries depend only on the item count — never on the thread count —
/// so the concatenated result equals the sequential map exactly.
const SHARD: usize = 256;

/// Below this many items the spawn overhead outweighs the parallelism and
/// [`shard_map`] runs inline.
const MIN_PARALLEL_ITEMS: usize = 192;

/// Maps `eval` over `0..len`, fanning shards out to `threads` scoped
/// workers, and returns the results in index order — bit-identical to
/// `(0..len).map(eval).collect()` for any thread count.
pub(crate) fn shard_map<T, F>(len: usize, threads: usize, eval: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || len < MIN_PARALLEL_ITEMS {
        return (0..len).map(eval).collect();
    }
    let shards = len.div_ceil(SHARD);
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::with_capacity(shards));
    std::thread::scope(|scope| {
        for _ in 0..threads.min(shards) {
            scope.spawn(|| loop {
                let s = cursor.fetch_add(1, AtomicOrdering::Relaxed);
                if s >= shards {
                    break;
                }
                let vals = (s * SHARD..((s + 1) * SHARD).min(len)).map(&eval).collect();
                collected
                    .lock()
                    .expect("shard results poisoned")
                    .push((s, vals));
            });
        }
    });
    let mut groups = collected.into_inner().expect("shard results poisoned");
    groups.sort_unstable_by_key(|&(s, _)| s);
    groups.into_iter().flat_map(|(_, vals)| vals).collect()
}

/// Window entries a [`LocalSource`] serves per worker thread: enough for
/// the shard map to have work for every worker, small enough that a cut
/// wastes little.
const WINDOW_PER_THREAD: usize = 16;

/// A marginal-gain oracle the greedy loops run against.
///
/// The engine keeps the CELF queues, windows, tie-breaks and evaluation
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
    /// set, as the Q32 numerator (see
    /// [`CoverageState::marginal_fraction`]). Integers, so a source over
    /// partitions of the collection adds its parts' answers.
    fn eval_nu_batch(&mut self, nodes: &[u32]) -> (Vec<u64>, MapStats);

    /// Commits `v` as a seed; every later batch sees the updated state.
    fn add_seed(&mut self, v: u32);

    /// The widest window of queue entries the lazy loops may ask for in
    /// one batch call. `1` is classic one-at-a-time CELF; a source whose
    /// batch call has a fixed cost (a thread fan-out, a network round)
    /// returns more. The width changes how many gains are *fetched*, never
    /// which are *consumed*: seeds, [`GreedyRun::evaluations`] and the
    /// queue after every round are the same for every cap.
    fn window_cap(&self) -> usize {
        1
    }
}

/// [`GainSource`] over an in-process [`RicSamples`] backend: a
/// [`CoverageState`] plus the thread count its window cap scales with.
#[derive(Debug)]
pub struct LocalSource<C: RicSamples> {
    state: CoverageState<C>,
    threads: usize,
}

impl<C: RicSamples> LocalSource<C> {
    /// Wraps `collection` (owned or borrowed — see [`CoverageState`]) for
    /// evaluation under a `threads`-scaled window cap.
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

    /// Table reads (see [`CoverageState::eval_c_shard`]): nothing to fan
    /// out, so the batch is one inline shard at any thread count.
    fn eval_c_batch(&mut self, nodes: &[u32]) -> (Vec<(usize, usize)>, MapStats) {
        let start = Instant::now();
        let mut out = Vec::with_capacity(nodes.len());
        self.state.eval_c_shard(nodes, &mut out);
        (out, MapStats::inline(start))
    }

    /// Table reads too (see [`CoverageState::eval_nu_shard`]).
    fn eval_nu_batch(&mut self, nodes: &[u32]) -> (Vec<u64>, MapStats) {
        let start = Instant::now();
        let mut out = Vec::with_capacity(nodes.len());
        self.state.eval_nu_shard(nodes, &mut out);
        (out, MapStats::inline(start))
    }

    fn add_seed(&mut self, v: u32) {
        self.state.add_seed(NodeId::new(v));
    }

    /// One entry at a time single-threaded (an in-process call has no
    /// fixed cost to amortise), a thread-scaled window otherwise.
    fn window_cap(&self) -> usize {
        if self.threads <= 1 {
            1
        } else {
            self.threads * WINDOW_PER_THREAD
        }
    }
}

/// What the greedy loops need to know about the objective they maximise.
/// Everything else — queue, window, replay, tie-break, accounting — is
/// written once over this.
trait EngineObjective {
    /// Gain and queue-key type.
    type Value: Copy;
    /// One node's entry in the source's batch reply.
    type Answer: Copy;
    /// Telemetry label.
    const LABEL: &'static str;
    /// Whether a measured gain is itself the node's next queue key, exact
    /// until the next seed is committed (ν_R's CELF cache: a re-pop in the
    /// round it was measured in needs no evaluation). `ĉ_R` queues the
    /// potential instead, which bounds the gain and never equals it.
    const KEY_IS_GAIN: bool;

    /// Total order on gains and keys.
    fn cmp(a: Self::Value, b: Self::Value) -> Ordering;
    /// Whether a gain is worth a seed (and a key worth queueing).
    fn positive(v: Self::Value) -> bool;
    /// The gain as reported in [`IterationRecord::best_gain`].
    fn as_f64(v: Self::Value) -> f64;
    /// One batch call on the source.
    fn fetch<S: GainSource>(source: &mut S, nodes: &[u32]) -> (Vec<Self::Answer>, MapStats);
    /// The marginal gain an answer carries.
    fn gain(answer: Self::Answer) -> Self::Value;
    /// The key the answered node re-enters the lazy queue with.
    fn key(answer: Self::Answer) -> Self::Value;
    /// Lazy-queue keys for `candidates` before any seed is committed;
    /// whatever evaluation that costs is booked on `telemetry`.
    fn initial_keys<S: GainSource>(
        source: &mut S,
        candidates: &[u32],
        telemetry: &mut EngineTelemetry,
    ) -> Vec<Self::Value>;
}

/// `ĉ_R`, the number of influenced samples. Non-submodular (Lemma 2), so
/// the lazy queue is keyed by the node's *potential* — samples it touches
/// that are not yet influenced — which upper-bounds every future gain.
struct CHat;

impl EngineObjective for CHat {
    type Value = usize;
    type Answer = (usize, usize);
    const LABEL: &'static str = "c_hat";
    const KEY_IS_GAIN: bool = false;

    fn cmp(a: usize, b: usize) -> Ordering {
        a.cmp(&b)
    }
    fn positive(v: usize) -> bool {
        v > 0
    }
    fn as_f64(v: usize) -> f64 {
        v as f64
    }
    fn fetch<S: GainSource>(source: &mut S, nodes: &[u32]) -> (Vec<(usize, usize)>, MapStats) {
        source.eval_c_batch(nodes)
    }
    fn gain((gain, _): (usize, usize)) -> usize {
        gain
    }
    fn key((_, potential): (usize, usize)) -> usize {
        potential
    }
    /// No sample is influenced yet, so the potential is the appearance
    /// count: no evaluation needed.
    fn initial_keys<S: GainSource>(
        source: &mut S,
        candidates: &[u32],
        _: &mut EngineTelemetry,
    ) -> Vec<usize> {
        candidates
            .iter()
            .map(|&v| source.appearance_count(v))
            .collect()
    }
}

/// `ν_R`, the submodular upper bound (Lemma 3): classic CELF on cached
/// gains — Q32 numerators (see [`nu_term`](crate::nu_term)), so the order
/// is the integers'.
struct Nu;

impl EngineObjective for Nu {
    type Value = u64;
    type Answer = u64;
    const LABEL: &'static str = "nu";
    const KEY_IS_GAIN: bool = true;

    fn cmp(a: u64, b: u64) -> Ordering {
        a.cmp(&b)
    }
    fn positive(v: u64) -> bool {
        v > 0
    }
    fn as_f64(v: u64) -> f64 {
        crate::nu_fraction(v)
    }
    fn fetch<S: GainSource>(source: &mut S, nodes: &[u32]) -> (Vec<u64>, MapStats) {
        source.eval_nu_batch(nodes)
    }
    fn gain(answer: u64) -> u64 {
        answer
    }
    fn key(answer: u64) -> u64 {
        answer
    }
    /// The initial full gain scan is the single biggest evaluation wave:
    /// one batch (for a [`LocalSource`], the sweep that builds the ν
    /// table).
    fn initial_keys<S: GainSource>(
        source: &mut S,
        candidates: &[u32],
        telemetry: &mut EngineTelemetry,
    ) -> Vec<u64> {
        let (gains, stats) = source.eval_nu_batch(candidates);
        telemetry.absorb(stats);
        telemetry.initial_evaluations = candidates.len() as u64;
        gains
    }
}

/// Whether `(value, node)` displaces `best` under the round's total order:
/// larger value first, smaller id on a tie, nothing non-positive. Asked of
/// a queue key it says the entry can still win the round; asked of a
/// measured gain, that it now leads it.
fn beats<O: EngineObjective>(value: O::Value, node: u32, best: Option<(O::Value, u32)>) -> bool {
    match best {
        None => O::positive(value),
        Some((best_value, best_node)) => match O::cmp(value, best_value) {
            Ordering::Greater => true,
            Ordering::Equal => node < best_node,
            Ordering::Less => false,
        },
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
    greedy_published::<CHat, C>(collection, k, strategy)
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
    greedy_over::<CHat, S>(source, k, strategy)
}

/// Strategy-aware CELF greedy on the submodular upper bound `ν_R`.
///
/// All strategies return the seed set of plain greedy on `ν_R`: per round
/// the argmax of the (integer, Q32) fractional gain, ties to the smallest
/// node id, stopping once no gain is positive.
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
    greedy_published::<Nu, C>(collection, k, strategy)
}

/// [`greedy_nu_with`] over an arbitrary [`GainSource`] — see
/// [`greedy_c_over`]. Telemetry is returned unpublished.
pub fn greedy_nu_over<S: GainSource>(
    source: &mut S,
    k: usize,
    strategy: SolveStrategy,
) -> (GreedyRun, EngineTelemetry) {
    greedy_over::<Nu, S>(source, k, strategy)
}

fn greedy_published<O: EngineObjective, C: RicSamples>(
    collection: &C,
    k: usize,
    strategy: SolveStrategy,
) -> (GreedyRun, EngineTelemetry) {
    let mut source = LocalSource::new(collection, strategy.threads());
    let (run, telemetry) = greedy_over::<O, _>(&mut source, k, strategy);
    telemetry.publish();
    (run, telemetry)
}

fn greedy_over<O: EngineObjective, S: GainSource>(
    source: &mut S,
    k: usize,
    strategy: SolveStrategy,
) -> (GreedyRun, EngineTelemetry) {
    let wall = Instant::now();
    let mut telemetry = EngineTelemetry::new(O::LABEL, strategy.label(), strategy.threads());
    let k = k.min(source.node_count());
    let candidates: Vec<u32> = (0..source.node_count() as u32)
        .filter(|&v| source.appearance_count(v) > 0)
        .collect();
    let mut seeds = match strategy {
        SolveStrategy::Sequential => {
            sequential_rounds::<O, S>(source, k, candidates, &mut telemetry)
        }
        SolveStrategy::Lazy | SolveStrategy::Parallel { .. } => {
            lazy_rounds::<O, S>(source, k, &candidates, &mut telemetry)
        }
    };
    pad_to_k(&mut seeds, k, source.node_count(), |v| {
        source.appearance_count(v)
    });
    telemetry.wall_seconds = wall.elapsed().as_secs_f64();
    let evaluations = telemetry.evaluations();
    (GreedyRun { seeds, evaluations }, telemetry)
}

/// Seals `rec` into `telemetry` and commits the round's pick, if any.
/// Returns the pick; `None` ends the greedy run.
fn close_round<O: EngineObjective, S: GainSource>(
    source: &mut S,
    seeds: &mut Vec<NodeId>,
    telemetry: &mut EngineTelemetry,
    mut rec: IterationRecord,
    best: Option<(O::Value, u32)>,
    started: Instant,
) -> Option<u32> {
    if let Some((_, v)) = best {
        source.add_seed(v);
        seeds.push(NodeId::new(v));
    }
    rec.finish(
        best.map_or(0.0, |(gain, _)| O::as_f64(gain)),
        best.is_some(),
        started,
    );
    telemetry.rounds.push(rec);
    best.map(|(_, v)| v)
}

/// The reference: every live candidate re-evaluated every round.
fn sequential_rounds<O: EngineObjective, S: GainSource>(
    source: &mut S,
    k: usize,
    mut alive: Vec<u32>,
    telemetry: &mut EngineTelemetry,
) -> Vec<NodeId> {
    let mut seeds = Vec::with_capacity(k);
    while seeds.len() < k {
        let round_start = Instant::now();
        let mut rec = IterationRecord::begin(seeds.len() as u32, alive.len());
        // One batch per round: the state is fixed within a round, so the
        // batched gains equal a per-candidate ascending scan exactly —
        // which also keeps the smallest id on exact ties.
        let (answers, stats) = O::fetch(source, &alive);
        rec.absorb(&stats);
        telemetry.absorb(stats);
        rec.evaluations = alive.len() as u64;
        rec.pops = rec.evaluations;
        let mut best = None;
        for (&v, &answer) in alive.iter().zip(&answers) {
            let gain = O::gain(answer);
            if beats::<O>(gain, v, best) {
                best = Some((gain, v));
            }
        }
        match close_round::<O, S>(source, &mut seeds, telemetry, rec, best, round_start) {
            Some(v) => alive.retain(|&a| a != v),
            None => break,
        }
    }
    seeds
}

/// An entry's key was never an exact gain (`ĉ_R`'s potentials).
const NEVER_FRESH: u32 = u32::MAX;

/// Lazy-queue entry: a key that upper-bounds the node's gain, and the
/// round the key was measured in when it *is* the gain.
struct Entry<O: EngineObjective> {
    key: O::Value,
    node: u32,
    stamp: u32,
}

impl<O: EngineObjective> Ord for Entry<O> {
    fn cmp(&self, other: &Self) -> Ordering {
        O::cmp(self.key, other.key).then_with(|| other.node.cmp(&self.node)) // prefer smaller id on tie
    }
}

impl<O: EngineObjective> PartialOrd for Entry<O> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<O: EngineObjective> PartialEq for Entry<O> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<O: EngineObjective> Eq for Entry<O> {}

/// Lazy greedy: a max-queue of upper-bound keys, re-checked a window at a
/// time.
///
/// Within one round the queue only shrinks and the best-so-far only
/// grows, so the entries a one-at-a-time loop goes on to evaluate are a
/// *prefix* of the queue's order — for `ĉ_R`'s potential keys as much as
/// for `ν_R`'s cached gains, since both bound the gain from above. A
/// window of that prefix is therefore fetched in one source call and then
/// **replayed** in pop order against the running best: the first entry
/// that can no longer win, and everything behind it, returns to the queue
/// with its old key, unconsumed and uncounted. Every decision is the
/// one-at-a-time loop's; the width only trades source calls against gains
/// fetched in vain ([`IterationRecord::speculative_evaluations`]). It
/// doubles from 1 inside each round up to [`GainSource::window_cap`],
/// because most rounds find their best within a few entries.
fn lazy_rounds<O: EngineObjective, S: GainSource>(
    source: &mut S,
    k: usize,
    candidates: &[u32],
    telemetry: &mut EngineTelemetry,
) -> Vec<NodeId> {
    let keys = O::initial_keys(source, candidates, telemetry);
    // Initial keys that are gains are exact for round 0.
    let stamp = if O::KEY_IS_GAIN { 0 } else { NEVER_FRESH };
    let mut heap: BinaryHeap<Entry<O>> = candidates
        .iter()
        .zip(keys)
        .map(|(&node, key)| Entry { key, node, stamp })
        .collect();
    let cap = source.window_cap().max(1);
    let mut seeds = Vec::with_capacity(k);
    let mut window: Vec<Entry<O>> = Vec::new();
    let mut stale: Vec<u32> = Vec::new();
    let mut measured: Vec<Entry<O>> = Vec::new();
    while seeds.len() < k {
        let round_start = Instant::now();
        let round = seeds.len() as u32;
        // What a key measured this round is stamped with on its way back.
        let restamp = if O::KEY_IS_GAIN { round } else { NEVER_FRESH };
        let mut rec = IterationRecord::begin(round, heap.len());
        let mut best: Option<(O::Value, u32)> = None;
        let mut width = 1;
        loop {
            while window.len() < width
                && heap
                    .peek()
                    .is_some_and(|top| beats::<O>(top.key, top.node, best))
            {
                window.push(heap.pop().expect("peeked entry"));
            }
            if window.is_empty() {
                break;
            }
            rec.pops += window.len() as u64;
            // A key stamped this round is already the exact gain.
            stale.clear();
            stale.extend(window.iter().filter(|e| e.stamp != round).map(|e| e.node));
            let answers = if stale.is_empty() {
                Vec::new()
            } else {
                let (answers, stats) = O::fetch(source, &stale);
                debug_assert_eq!(answers.len(), stale.len(), "one answer per node");
                rec.batches += 1;
                rec.absorb(&stats);
                telemetry.absorb(stats);
                answers
            };
            let mut fetched = answers.iter();
            let mut consumed = 0;
            for e in &window {
                if !beats::<O>(e.key, e.node, best) {
                    break;
                }
                let (gain, key) = if e.stamp == round {
                    rec.fresh_hits += 1;
                    (e.key, e.key)
                } else {
                    let &answer = fetched.next().expect("one answer per stale entry");
                    rec.evaluations += 1;
                    (O::gain(answer), O::key(answer))
                };
                if beats::<O>(gain, e.node, best) {
                    best = Some((gain, e.node));
                }
                measured.push(Entry {
                    key,
                    node: e.node,
                    stamp: restamp,
                });
                consumed += 1;
            }
            rec.speculative_evaluations += fetched.len() as u64;
            heap.extend(window.drain(consumed..));
            window.clear();
            width = width.saturating_mul(2).min(cap);
        }
        rec.stale_rechecks = rec.evaluations;
        let Some(v) = close_round::<O, S>(source, &mut seeds, telemetry, rec, best, round_start)
        else {
            break;
        };
        // Non-winners return with their freshly measured keys, still upper
        // bounds after the new seed (potentials only shrink; ν_R is
        // submodular). A non-positive key can never win again.
        heap.extend(
            measured
                .drain(..)
                .filter(|e| e.node != v && O::positive(e.key)),
        );
    }
    seeds
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
                        .cmp(&state.marginal_fraction(b))
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
                if fresh_picked == 0 {
                    break; // padding region — no more greedy picks
                }
                for v in 0..RicSamples::node_count(&col) as u32 {
                    if used[v as usize] {
                        continue;
                    }
                    let fresh = state.marginal_fraction(NodeId::new(v));
                    assert!(
                        fresh <= fresh_picked,
                        "salt={salt}: pick {picked} (gain {fresh_picked}) \
                         beaten by fresh gain {fresh} of node {v}"
                    );
                    if fresh == fresh_picked {
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
            for rec in &telemetry.rounds {
                // A replay cut ends the round, so no entry pops twice.
                assert!(rec.pops <= rec.queue_depth as u64);
                assert!(rec.wasted_evaluations <= rec.evaluations);
                if strategy != SolveStrategy::Sequential {
                    // Every pop ends exactly one of three ways.
                    assert_eq!(
                        rec.pops,
                        rec.evaluations + rec.fresh_hits + rec.speculative_evaluations
                    );
                }
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
        // Every batch — the 400-candidate initial ν scan included — is one
        // inline shard of table reads at any thread count.
        let col = scrambled_collection(400, 1200, 21);
        let (_, telemetry) =
            greedy_nu_with_telemetry(&col, 6, SolveStrategy::Parallel { threads: 4 });
        let batches: u32 = telemetry.rounds.iter().map(|r| r.batches).sum();
        assert_eq!(telemetry.shard_seconds.len() as u32, 1 + batches);
        for &s in &telemetry.shard_seconds {
            assert!(s >= 0.0);
        }
    }

    /// [`LocalSource`] reporting an arbitrary window cap, counting the
    /// batch calls the engine makes.
    struct CappedSource<'a> {
        inner: LocalSource<&'a RicStore>,
        cap: usize,
        calls: u64,
    }

    impl<'a> CappedSource<'a> {
        fn new(col: &'a RicStore, cap: usize) -> Self {
            CappedSource {
                inner: LocalSource::new(col, 1),
                cap,
                calls: 0,
            }
        }
    }

    impl GainSource for CappedSource<'_> {
        fn node_count(&self) -> usize {
            self.inner.node_count()
        }
        fn appearance_count(&self, v: u32) -> usize {
            self.inner.appearance_count(v)
        }
        fn eval_c_batch(&mut self, nodes: &[u32]) -> (Vec<(usize, usize)>, MapStats) {
            self.calls += 1;
            self.inner.eval_c_batch(nodes)
        }
        fn eval_nu_batch(&mut self, nodes: &[u32]) -> (Vec<u64>, MapStats) {
            self.calls += 1;
            self.inner.eval_nu_batch(nodes)
        }
        fn add_seed(&mut self, v: u32) {
            self.inner.add_seed(v);
        }
        fn window_cap(&self) -> usize {
            self.cap
        }
    }

    /// Equal gains everywhere and keys that tie in groups, so the id
    /// tie-break decides where a window is cut: every node sits alone in
    /// three threshold-1 samples (ĉ gain 3), and every third node shares
    /// two threshold-2 samples with its successor — raising both nodes'
    /// potential above their gain, and the successor's ĉ gain once the
    /// node is a seed.
    fn tie_collection() -> RicStore {
        let mut drawn = Vec::new();
        for v in 0..16u32 {
            for _ in 0..3 {
                drawn.push(RicSample {
                    community: CommunityId::new(0),
                    threshold: 1,
                    community_size: 1,
                    nodes: vec![NodeId::new(v)],
                    covers: vec![mk_cover(1, &[0])],
                });
            }
            if v % 3 == 2 {
                for _ in 0..2 {
                    drawn.push(RicSample {
                        community: CommunityId::new(1),
                        threshold: 2,
                        community_size: 2,
                        nodes: vec![NodeId::new(v), NodeId::new((v + 1) % 16)],
                        covers: vec![mk_cover(2, &[0]), mk_cover(2, &[1])],
                    });
                }
            }
        }
        RicStore::from_samples(16, 2, drawn.len() as f64, &drawn).unwrap()
    }

    /// The tie fixture is not vacuous: wide windows do get cut on it, and
    /// — all its gains being equal — by the id tie-break alone.
    #[test]
    fn tie_fixture_cuts_windows_on_the_id_tie_break() {
        let col = tie_collection();
        let mut source = CappedSource::new(&col, 64);
        let (_, telemetry) = greedy_c_over(&mut source, 8, SolveStrategy::Lazy);
        assert!(telemetry.speculative_evaluations() > 0);
    }

    /// Source calls a round needs for `pops` entries when every window but
    /// the last is full: widths double from 1 up to `cap`.
    fn windows_for(pops: u64, cap: usize) -> u32 {
        let (mut left, mut width, mut windows) = (pops, 1u64, 0);
        while left > 0 {
            left = left.saturating_sub(width);
            width = width.saturating_mul(2).min(cap as u64);
            windows += 1;
        }
        windows
    }

    /// What a round decided, as opposed to how it was fetched.
    fn decisions(t: &EngineTelemetry) -> Vec<(u64, u64, u64, u64)> {
        t.rounds
            .iter()
            .map(|r| {
                (
                    r.pops - r.speculative_evaluations,
                    r.fresh_hits,
                    r.evaluations,
                    r.best_gain.to_bits(),
                )
            })
            .collect()
    }

    const WINDOW_CAPS: [usize; 6] = [1, 2, 3, 7, 64, usize::MAX];

    proptest::proptest! {
        /// The tentpole contract: a window of any width is replayed into
        /// exactly the decisions of the one-at-a-time loop, for the
        /// submodular ν queue and the potential-keyed ĉ queue alike, and
        /// costs the source no more calls than the doubling schedule.
        #[test]
        fn every_window_width_replays_the_one_at_a_time_loop(
            fixture in 0usize..3,
            salt in 1u64..10_000,
            k in 1usize..20,
            cap_idx in 0usize..WINDOW_CAPS.len(),
        ) {
            let col = match fixture {
                0 => scrambled_collection(40, 120, salt),
                1 => trap_collection(),
                _ => tie_collection(),
            };
            let cap = WINDOW_CAPS[cap_idx];
            for nu in [false, true] {
                let run = |cap: usize| {
                    let mut source = CappedSource::new(&col, cap);
                    let (run, telemetry) = if nu {
                        greedy_nu_over(&mut source, k, SolveStrategy::Lazy)
                    } else {
                        greedy_c_over(&mut source, k, SolveStrategy::Lazy)
                    };
                    (run, telemetry, source.calls)
                };
                let (reference, ref_telemetry, ref_calls) = run(1);
                let (windowed, telemetry, calls) = run(cap);
                proptest::prop_assert_eq!(&windowed, &reference, "cap={} nu={}", cap, nu);
                proptest::prop_assert_eq!(decisions(&telemetry), decisions(&ref_telemetry));
                // Width 1 fetches nothing it does not consume: one call per
                // re-check (plus ν's initial scan).
                let initial_scan = u64::from(nu);
                proptest::prop_assert_eq!(ref_telemetry.speculative_evaluations(), 0);
                proptest::prop_assert_eq!(
                    ref_calls,
                    initial_scan + reference.evaluations - ref_telemetry.initial_evaluations
                );
                let batches: u64 = telemetry.rounds.iter().map(|r| u64::from(r.batches)).sum();
                proptest::prop_assert_eq!(calls, initial_scan + batches);
                for rec in &telemetry.rounds {
                    let schedule = windows_for(rec.pops, cap);
                    if nu {
                        // All-fresh windows are not fetched.
                        proptest::prop_assert!(rec.batches <= schedule);
                    } else {
                        proptest::prop_assert_eq!(rec.batches, schedule);
                    }
                }
            }
        }
    }

    /// `Parallel` is `Lazy` over a wider window: same seeds, same consumed
    /// evaluations, the surplus reported as speculative.
    #[test]
    fn parallel_consumes_what_lazy_consumes() {
        let col = scrambled_collection(400, 1200, 21);
        let k = 6;
        let (lazy_nu, lazy_nu_telemetry) = greedy_nu_with_telemetry(&col, k, SolveStrategy::Lazy);
        let (lazy_c, lazy_c_telemetry) = greedy_c_with_telemetry(&col, k, SolveStrategy::Lazy);
        assert_eq!(lazy_nu_telemetry.speculative_evaluations(), 0);
        assert_eq!(lazy_c_telemetry.speculative_evaluations(), 0);
        let strategy = SolveStrategy::Parallel { threads: 8 };
        let (nu_run, nu_telemetry) = greedy_nu_with_telemetry(&col, k, strategy);
        let (c_run, c_telemetry) = greedy_c_with_telemetry(&col, k, strategy);
        assert_eq!(nu_run, lazy_nu);
        assert_eq!(c_run, lazy_c);
        assert_eq!(decisions(&nu_telemetry), decisions(&lazy_nu_telemetry));
        assert_eq!(decisions(&c_telemetry), decisions(&lazy_c_telemetry));
        assert!(
            c_telemetry.speculative_evaluations() > 0,
            "a 128-wide window over {} ĉ evaluations cut nothing off",
            c_run.evaluations
        );
        let batches = |t: &EngineTelemetry| t.rounds.iter().map(|r| r.batches).sum::<u32>();
        assert!(batches(&c_telemetry) < batches(&lazy_c_telemetry));
        assert!(batches(&nu_telemetry) <= batches(&lazy_nu_telemetry));
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
