//! The shared solve engine: the paper's re-evaluating greedy (Alg. 2–3)
//! over RIC samples against a [`GainSource`], plus the deterministic
//! scoped-thread map BT's pivot loop runs on.
//!
//! There is one loop ([`greedy_over`]): per round one gain batch for every
//! live candidate, the argmax with ties to the smaller [`NodeId`], and a
//! stop (then padding) once no gain is positive. It is written once for
//! both objectives — `ĉ_R`, non-submodular (Lemma 2), and its submodular
//! upper bound `ν_R` (Lemma 3) — because both gains are `u64`s read from
//! tables the source keeps exact on every seed commit (see
//! [`CoverageState::eval_c_shard`] and [`CoverageState::eval_nu_shard`]):
//! there is nothing left for a lazy queue to save. `docs/ALGORITHMS.md`
//! (*The solve engine*) has the measurements behind that.

use crate::maxr::pad_to_k;
use crate::maxr::solver::Objective;
use crate::maxr::telemetry::{EngineTelemetry, IterationRecord};
use crate::{CoverageState, RicSamples};
use imc_graph::NodeId;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;
use std::time::Instant;

/// A worker-thread count under three historical names.
///
/// The variants once selected among three greedy loops; there is one loop
/// now and it ignores this value. What survives is the thread count BT's
/// pivot map runs on ([`threads`](Self::threads)), and the names, because
/// the `benchmark/` package spells `SolveStrategy::Lazy` (ROADMAP,
/// *Benchmark housekeeping*: replace both with a `threads: usize`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveStrategy {
    /// One thread.
    Sequential,
    /// One thread (the default).
    #[default]
    Lazy,
    /// `threads` workers for BT's pivot loop.
    Parallel {
        /// Worker threads (clamped to ≥ 1).
        threads: usize,
    },
}

impl SolveStrategy {
    /// The worker-thread count this value carries.
    pub fn threads(self) -> usize {
        match self {
            SolveStrategy::Sequential | SolveStrategy::Lazy => 1,
            SolveStrategy::Parallel { threads } => threads.max(1),
        }
    }

    /// The value carrying `threads`: `Lazy` for ≤ 1, `Parallel` otherwise.
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
    /// Marginal gains read from the source: every live candidate, every
    /// round (the last, pick-less round included) — the engine's work
    /// measure, a function of the collection and `k` alone.
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

/// A marginal-gain oracle the greedy loop runs against.
///
/// The engine keeps the argmax, the tie-break, the stopping rule and the
/// evaluation accounting to itself; a source only answers gain queries
/// against the seed set committed so far. Two implementations exist:
///
/// * [`LocalSource`] — a [`CoverageState`] over an in-process
///   [`RicSamples`] backend, the classic single-node path;
/// * the scatter-gather coordinator in `imc-cluster`, which fans each
///   batch out to shard daemons owning disjoint partitions of the sample
///   store and adds the partial answers.
///
/// Any source whose answers equal a [`LocalSource`]'s over the
/// concatenation of its data produces identical seed sets *and*
/// evaluation counts, because all control flow lives in the engine.
pub trait GainSource {
    /// Node count of the underlying graph — the candidate id space.
    fn node_count(&self) -> usize;

    /// Number of samples node `v` appears in: the candidate filter and the
    /// padding key.
    fn appearance_count(&self, v: u32) -> usize;

    /// The marginal gain of each node of `nodes` under the current seed
    /// set: additional influenced samples for [`Objective::C`], the Q32
    /// numerator of the `ν_R` increase for [`Objective::Nu`] (see
    /// [`nu_term`](crate::nu_term)). Integers either way, so a source over
    /// partitions of the collection adds its parts' answers.
    fn eval_batch(&mut self, objective: Objective, nodes: &[u32]) -> Vec<u64>;

    /// Commits `v` as a seed; every later batch sees the updated state.
    fn add_seed(&mut self, v: u32);
}

/// [`GainSource`] over an in-process [`RicSamples`] backend.
#[derive(Debug)]
pub struct LocalSource<C: RicSamples> {
    state: CoverageState<C>,
}

impl<C: RicSamples> LocalSource<C> {
    /// Wraps `collection` (owned or borrowed — see [`CoverageState`]).
    pub fn new(collection: C) -> Self {
        LocalSource {
            state: CoverageState::new(collection),
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

    fn eval_batch(&mut self, objective: Objective, nodes: &[u32]) -> Vec<u64> {
        let mut out = Vec::with_capacity(nodes.len());
        match objective {
            Objective::C => self.state.eval_c_shard(nodes, &mut out),
            Objective::Nu => self.state.eval_nu_shard(nodes, &mut out),
        }
        out
    }

    fn add_seed(&mut self, v: u32) {
        self.state.add_seed(NodeId::new(v));
    }
}

/// Greedy on `ĉ_R` (the number of influenced samples): per round the
/// argmax of the marginal gain, ties to the smallest node id, stopping
/// (then padding) once no gain is positive. The strategy is ignored (see
/// [`SolveStrategy`]). Publishes the run's [`EngineTelemetry`].
pub fn greedy_c_with<C: RicSamples>(collection: &C, k: usize, _: SolveStrategy) -> GreedyRun {
    greedy_published(collection, Objective::C, k)
}

/// Greedy on the submodular upper bound `ν_R`: per round the argmax of
/// the (integer, Q32) fractional gain, ties to the smallest node id,
/// stopping once no gain is positive. The strategy is ignored (see
/// [`SolveStrategy`]). Publishes the run's [`EngineTelemetry`].
pub fn greedy_nu_with<C: RicSamples>(collection: &C, k: usize, _: SolveStrategy) -> GreedyRun {
    greedy_published(collection, Objective::Nu, k)
}

pub(crate) fn greedy_published<C: RicSamples>(
    collection: &C,
    objective: Objective,
    k: usize,
) -> GreedyRun {
    let (run, telemetry) = greedy_over(&mut LocalSource::new(collection), objective, k);
    telemetry.publish();
    run
}

/// The engine: greedy on `objective` over an arbitrary [`GainSource`] —
/// the one loop the local solvers and the cluster coordinator share.
/// Returns the run and its telemetry *without* publishing; the caller
/// decides where the telemetry goes.
pub fn greedy_over<S: GainSource>(
    source: &mut S,
    objective: Objective,
    k: usize,
) -> (GreedyRun, EngineTelemetry) {
    let wall = Instant::now();
    let mut telemetry = EngineTelemetry::new(objective);
    let node_count = source.node_count();
    let k = k.min(node_count);
    let mut alive: Vec<u32> = (0..node_count as u32)
        .filter(|&v| source.appearance_count(v) > 0)
        .collect();
    let mut seeds = Vec::with_capacity(k);
    while seeds.len() < k {
        let round_start = Instant::now();
        // The state is fixed within a round, so one batch equals a
        // per-candidate scan; `alive` ascends, so a strict `>` keeps the
        // smallest id on exact ties.
        let gains = source.eval_batch(objective, &alive);
        debug_assert_eq!(gains.len(), alive.len(), "one gain per candidate");
        let batch_seconds = round_start.elapsed().as_secs_f64();
        let evaluations = alive.len() as u64;
        let mut best: Option<(u64, u32)> = None;
        for (&v, &gain) in alive.iter().zip(&gains) {
            if gain > best.map_or(0, |(best_gain, _)| best_gain) {
                best = Some((gain, v));
            }
        }
        if let Some((_, v)) = best {
            source.add_seed(v);
            seeds.push(NodeId::new(v));
            alive.retain(|&a| a != v);
        }
        telemetry.rounds.push(IterationRecord {
            round: telemetry.rounds.len() as u32,
            evaluations,
            batch_seconds,
            best_gain: best.map_or(0.0, |(gain, _)| objective.gain_as_f64(gain)),
            picked: best.is_some(),
            seconds: round_start.elapsed().as_secs_f64(),
        });
        if best.is_none() {
            break;
        }
    }
    pad_to_k(&mut seeds, k, node_count, |v| source.appearance_count(v));
    telemetry.wall_seconds = wall.elapsed().as_secs_f64();
    let evaluations = telemetry.evaluations();
    (GreedyRun { seeds, evaluations }, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxr::testutil::sample;
    use crate::objective::tests::{sample_strategy, snapshot_of, NODES};
    use crate::RicStore;

    /// Every value of the vestigial strategy argument.
    const STRATEGIES: [SolveStrategy; 4] = [
        SolveStrategy::Sequential,
        SolveStrategy::Lazy,
        SolveStrategy::Parallel { threads: 1 },
        SolveStrategy::Parallel { threads: 8 },
    ];

    /// A pseudo-random collection large and irregular enough to exercise
    /// ties, gains that rise as seeds land, and the padding path.
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
            const BIT: [&[usize]; 3] = [&[0], &[1], &[2]];
            let entries: Vec<(u32, &[usize])> = ids
                .iter()
                .map(|&v| (v, BIT[next(width as u64) as usize]))
                .collect();
            drawn.push(sample(next(3) as u32, threshold, width, &entries));
        }
        RicStore::from_samples(nodes as usize, 3, samples as f64, &drawn).unwrap()
    }

    /// Collection where the non-submodular trap is visible: sample needs
    /// BOTH nodes 0 and 1 (h=2); node 2 alone influences a different
    /// sample.
    fn trap_collection() -> RicStore {
        let samples = [
            sample(0, 2, 2, &[(0, &[0]), (1, &[1])]),
            sample(1, 1, 1, &[(2, &[0])]),
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
        let col = trap_collection();
        let engine = nu(&col, 2);
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
        assert_eq!(col.nu_estimate(&engine), col.nu_estimate(&plain));
    }

    #[test]
    fn greedy_is_deterministic() {
        let col = trap_collection();
        assert_eq!(c(&col, 3), c(&col, 3));
        assert_eq!(nu(&col, 3), nu(&col, 3));
    }

    /// The strategy argument is a thread-count carrier the loop never
    /// reads: seeds *and* evaluation counts are the same for every value.
    #[test]
    fn all_strategies_agree_on_c_greedy() {
        for salt in [1u64, 7, 42, 1234] {
            let col = scrambled_collection(40, 120, salt);
            for k in [1usize, 3, 7, 40] {
                let reference = greedy_c_with(&col, k, SolveStrategy::Sequential);
                for strategy in STRATEGIES {
                    let run = greedy_c_with(&col, k, strategy);
                    assert_eq!(run, reference, "ĉ salt={salt} k={k} {strategy:?}");
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
                for strategy in STRATEGIES {
                    let run = greedy_nu_with(&col, k, strategy);
                    assert_eq!(run, reference, "ν salt={salt} k={k} {strategy:?}");
                }
            }
        }
    }

    /// Every ν pick must be the true argmax of gains recomputed by the
    /// index walk — a stale table entry winning a round would show up here
    /// as a pick whose fresh gain is below some other candidate's.
    #[test]
    fn every_nu_pick_is_the_fresh_argmax() {
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

    /// Same soundness check for ĉ, whose gains can rise between rounds.
    #[test]
    fn every_c_pick_is_the_fresh_argmax() {
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
        for objective in [Objective::C, Objective::Nu] {
            let (run, telemetry) = greedy_over(&mut LocalSource::new(&col), objective, k);
            assert_eq!(telemetry.evaluations(), run.evaluations, "{objective:?}");
            assert_eq!(telemetry.objective, objective.label());
            let picked = telemetry.rounds.iter().filter(|r| r.picked).count();
            assert!(picked <= k);
            assert!(telemetry.rounds.len() <= k + 1);
            for (i, rec) in telemetry.rounds.iter().enumerate() {
                assert_eq!(rec.round as usize, i);
                // One gain per live candidate; each pick retires one.
                assert_eq!(
                    rec.evaluations + i as u64,
                    telemetry.rounds[0].evaluations,
                    "{objective:?} round {i}"
                );
                assert_eq!(rec.picked, rec.best_gain > 0.0);
                assert!(rec.batch_seconds <= rec.seconds);
            }
            assert!(telemetry.wall_seconds >= 0.0);
        }
    }

    /// The engine's reference: a greedy that keeps no state between
    /// rounds and reads neither a gain table nor the inverted index. The
    /// value of `S ∪ {v}` is recomputed sample by sample with the
    /// [`RicSamples`] full-scan methods, ties go to the smaller id, the
    /// run stops at the first round with no positive gain and pads by
    /// appearance. Returns the seeds, each picking round's best gain, and
    /// the gains a one-batch-per-round loop reads.
    fn from_scratch_greedy<C: RicSamples>(
        col: &C,
        objective: Objective,
        k: usize,
    ) -> (Vec<NodeId>, Vec<u64>, u64) {
        let value = |seeds: &[NodeId]| -> u64 {
            (0..col.len())
                .map(|si| match objective {
                    Objective::C => u64::from(col.sample_influenced(si, seeds)),
                    Objective::Nu => col.sample_nu_term(si, seeds),
                })
                .sum()
        };
        let n = col.node_count();
        let appearance: Vec<usize> = (0..n as u32)
            .map(|v| {
                (0..col.len())
                    .filter(|&si| col.sample_nodes(si).contains(&NodeId::new(v)))
                    .count()
            })
            .collect();
        let k = k.min(n);
        let mut live = appearance.iter().filter(|&&a| a > 0).count() as u64;
        let (mut seeds, mut best_gains, mut reads) = (Vec::new(), Vec::new(), 0);
        while seeds.len() < k {
            reads += live;
            let held = value(&seeds);
            let mut best: Option<(u64, NodeId)> = None;
            for v in (0..n as u32).map(NodeId::new) {
                if seeds.contains(&v) {
                    continue;
                }
                seeds.push(v);
                let gain = value(&seeds) - held;
                seeds.pop();
                if gain > best.map_or(0, |(g, _)| g) {
                    best = Some((gain, v));
                }
            }
            let Some((gain, v)) = best else { break };
            seeds.push(v);
            best_gains.push(gain);
            live -= 1;
        }
        let mut rest: Vec<u32> = (0..n as u32)
            .filter(|&v| !seeds.contains(&NodeId::new(v)))
            .collect();
        rest.sort_by_key(|&v| (std::cmp::Reverse(appearance[v as usize]), v));
        let missing = k - seeds.len();
        seeds.extend(rest.into_iter().take(missing).map(NodeId::new));
        (seeds, best_gains, reads)
    }

    fn assert_engine_equals_oracle<C: RicSamples>(col: &C, k: usize) {
        for objective in [Objective::C, Objective::Nu] {
            let (run, telemetry) = greedy_over(&mut LocalSource::new(col), objective, k);
            let (seeds, best_gains, reads) = from_scratch_greedy(col, objective, k);
            assert_eq!(run.seeds, seeds, "{objective:?} seeds");
            assert_eq!(run.evaluations, reads, "{objective:?} evaluations");
            let picked: Vec<f64> = telemetry
                .rounds
                .iter()
                .filter(|r| r.picked)
                .map(|r| r.best_gain)
                .collect();
            let expected: Vec<f64> = best_gains
                .iter()
                .map(|&g| objective.gain_as_f64(g))
                .collect();
            assert_eq!(picked, expected, "{objective:?} best gains");
        }
    }

    proptest::proptest! {
        /// The one loop against an oracle that shares none of its
        /// machinery (no `CoverageState`, no tables, no index): same
        /// seeds, same per-round best gains, same evaluation count, for
        /// both objectives, over the owned store and over a view of its
        /// snapshot — on samples of 1–4 cover limbs with thresholds up to
        /// one past the width (never met).
        #[test]
        fn engine_equals_a_from_scratch_greedy(
            samples in proptest::collection::vec(sample_strategy(), 0..12),
            k in 1usize..=NODES as usize + 2,
        ) {
            let store =
                RicStore::from_samples(NODES as usize, 1, samples.len() as f64, &samples).unwrap();
            assert_engine_equals_oracle(&store, k);
            assert_engine_equals_oracle(&snapshot_of(&store).view().unwrap(), k);
        }
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
        assert_eq!(c(&col, 2).len(), 2);
        assert_eq!(nu(&col, 2).len(), 2);
        assert_eq!(c(&col, 100).len(), 5);
    }

    /// The three variant names are labels for a thread count.
    #[test]
    fn strategy_labels_and_threads() {
        assert_eq!(SolveStrategy::Sequential.threads(), 1);
        assert_eq!(SolveStrategy::Lazy.threads(), 1);
        assert_eq!(SolveStrategy::Parallel { threads: 0 }.threads(), 1);
        assert_eq!(SolveStrategy::Parallel { threads: 4 }.threads(), 4);
        assert_eq!(SolveStrategy::default(), SolveStrategy::Lazy);
        assert_eq!(SolveStrategy::with_threads(1), SolveStrategy::Lazy);
        assert_eq!(
            SolveStrategy::with_threads(4),
            SolveStrategy::Parallel { threads: 4 }
        );
    }
}
