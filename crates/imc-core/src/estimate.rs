//! The `Estimate` procedure (Algorithm 6).
//!
//! Grades a candidate seed set `S` by applying the Dagum–Karp–Luby–Ross
//! stopping rule to *fresh RIC samples*: each sample is influenced by `S`
//! with probability exactly `c(S)/b` (Lemma 1), so counting influenced
//! samples until `Λ′ = 1 + 4(e−2)·ln(2/δ′)·(1+ε′)/ε′²` of them are seen
//! yields `c* = b·Λ′/T` with `Pr[c* ≥ (1−ε′)·c(S)] ≥ 1 − δ′`.
//!
//! Returns `None` when `Λ′` cannot be reached within `t_max` samples —
//! the paper's `return −1` — which IMCAF treats as "keep sampling".
//!
//! The fresh samples are a fixed i.i.d. stream, a function of the stream
//! seed alone: draw `t` (0-based) is draw `t mod 256` of block
//! `⌊t/256⌋`, and block `i` comes from its own
//! `StdRng::seed_from_u64(stream_seed + i)`. The stopping rule walks that
//! stream in order, so the stopping time `T` does not depend on how many
//! threads drew the blocks or on how far past `T` they got.

use crate::{RicSampler, SampleBuf};
use imc_diffusion::dagum::stopping_threshold;
use imc_graph::NodeId;
use imc_obs::families;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Draws per block of the `Estimate` stream — the unit a worker claims.
/// Part of what a seed means: changing it re-deals every stream.
pub const ESTIMATE_BLOCK: u64 = 256;

/// Which draws of one block were influenced: bit `d` is draw `d`.
type HitMask = [u64; (ESTIMATE_BLOCK / 64) as usize];

/// The stream seed of the `Estimate` call made in `round` of a run seeded
/// `seed`: `seed + 2⁶³ + round·2⁴⁰`, block `i` adding `i`.
///
/// Disjoint from every growth shard seed of the same run by construction
/// (Alg. 6 needs samples independent of the collection that chose `S`):
/// [`growth_seed`](crate::growth_seed) shard seeds are `seed + d` with
/// `d < 2⁴⁰` for any stage below `2²⁴`, block seeds are `seed + d` with
/// `d ≥ 2⁶³` for any round below `2²³` and block below `2⁴⁰`, and no two
/// `(round, block)` pairs in that range share a `d`.
pub fn estimate_stream_seed(seed: u64, round: u64) -> u64 {
    seed.wrapping_add(1 << 63)
        .wrapping_add(round.wrapping_mul(1 << 40))
}

/// Outcome of one [`estimate_c`] invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateOutcome {
    /// The estimate `c* = b·Λ′/T`.
    pub estimate: f64,
    /// Fresh RIC samples consumed — the stopping time `T`.
    pub samples_used: u64,
}

/// The stopping rule's walk over the block stream, in stream order.
struct Walk {
    /// `⌈Λ′⌉`: influenced draws that end the walk.
    need: u64,
    t_max: u64,
    hits: u64,
    /// Draws folded in so far, in whole blocks.
    draws: u64,
    /// The stopping time `T` (1-based), once `need` hits were seen.
    reached: Option<u64>,
}

impl Walk {
    /// Whether the walk is over: `T` is known, or `need` hits are out of
    /// reach even if every draw still allowed were influenced.
    fn over(&self) -> bool {
        self.reached.is_some() || self.hits + (self.t_max - self.draws) < self.need
    }

    /// Index of the block the walk reads next (every block before the
    /// stream's last is full).
    fn next_block(&self) -> u64 {
        self.draws / ESTIMATE_BLOCK
    }

    /// Folds in the next block of the stream.
    fn take(&mut self, mask: &HitMask, len: u64) {
        for (word, &bits) in mask.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                self.hits += 1;
                if self.hits == self.need {
                    let draw = word as u64 * 64 + u64::from(bits.trailing_zeros());
                    self.reached = Some(self.draws + draw + 1);
                    return;
                }
                bits &= bits - 1;
            }
        }
        self.draws += len;
    }
}

/// Walks the stream whose block `i` (of `len` draws) is
/// `draw_block(i, len, scratch)` until `need` hits or until they are out
/// of reach within `t_max` draws. `workers` threads draw blocks, claiming
/// them in stream order; the caller folds finished blocks in stream order
/// and stops everyone when the walk is over, so what was drawn past that
/// point is never looked at. One worker draws on the calling thread.
fn walk_blocks<F>(need: u64, t_max: u64, workers: usize, draw_block: F) -> Walk
where
    F: Fn(u64, u64, &mut SampleBuf) -> HitMask + Sync,
{
    let mut walk = Walk {
        need,
        t_max,
        hits: 0,
        draws: 0,
        reached: None,
    };
    let blocks = t_max.div_ceil(ESTIMATE_BLOCK);
    let block_len = |i: u64| ESTIMATE_BLOCK.min(t_max - i * ESTIMATE_BLOCK);
    if workers <= 1 {
        // One scratch buffer for the whole walk: grading draws thousands
        // of throwaway samples.
        let mut buf = SampleBuf::default();
        while !walk.over() {
            let i = walk.next_block();
            walk.take(&draw_block(i, block_len(i), &mut buf), block_len(i));
        }
        return walk;
    }
    // `next` hands out block indices and `stop` ends the claiming; neither
    // publishes data (blocks travel through the channel).
    let next = AtomicU64::new(0);
    let stop = AtomicBool::new(walk.over());
    let (finished, inbox) = std::sync::mpsc::channel::<(u64, HitMask)>();
    std::thread::scope(|scope| {
        for _ in 0..(workers as u64).min(blocks) {
            let finished = finished.clone();
            let (next, stop, draw_block) = (&next, &stop, &draw_block);
            scope.spawn(move || {
                let mut buf = SampleBuf::default();
                while !stop.load(Ordering::Relaxed) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= blocks
                        || finished
                            .send((i, draw_block(i, block_len(i), &mut buf)))
                            .is_err()
                    {
                        break;
                    }
                }
            });
        }
        drop(finished);
        let mut early: BTreeMap<u64, HitMask> = BTreeMap::new();
        for (i, mask) in &inbox {
            early.insert(i, mask);
            while !walk.over() {
                let i = walk.next_block();
                let Some(mask) = early.remove(&i) else {
                    break;
                };
                walk.take(&mask, block_len(i));
            }
            if walk.over() {
                stop.store(true, Ordering::Relaxed);
                break;
            }
        }
    });
    walk
}

/// Runs Alg. 6 over the stream seeded `stream_seed` (see the module
/// docs): returns the estimate at the first draw `T ≤ t_max` by which
/// `⌈Λ′⌉` draws were influenced by `seeds`, or `None` as soon as that is
/// out of reach — at once, drawing nothing, when `t_max < ⌈Λ′⌉`.
///
/// `workers` threads draw the blocks (`0` is treated as `1`); the outcome
/// is the same for every value.
///
/// # Panics
///
/// Panics if `epsilon` or `delta` is outside `(0, 1)` (via
/// [`stopping_threshold`]).
pub fn estimate_c(
    sampler: &RicSampler<'_>,
    seeds: &[NodeId],
    epsilon: f64,
    delta: f64,
    t_max: u64,
    stream_seed: u64,
    workers: usize,
) -> Option<EstimateOutcome> {
    let lambda_prime = stopping_threshold(epsilon, delta);
    let b = sampler.communities().total_benefit();
    families::ESTIMATE_CALLS.handle().inc();
    let started = std::time::Instant::now();

    // Draws made, whether or not the walk got to see them (a statistic).
    let drawn = AtomicU64::new(0);
    let need = lambda_prime.ceil() as u64;
    let walk = walk_blocks(need, t_max, workers, |i, len, buf| {
        let mut rng = StdRng::seed_from_u64(stream_seed.wrapping_add(i));
        let mut mask = HitMask::default();
        for d in 0..len as usize {
            sampler.sample_into(&mut rng, buf);
            if buf.influenced_by(seeds) {
                mask[d / 64] |= 1 << (d % 64);
            }
        }
        drawn.fetch_add(len, Ordering::Relaxed);
        mask
    });

    let outcome = walk.reached.map(|t| EstimateOutcome {
        estimate: b * lambda_prime / t as f64,
        samples_used: t,
    });
    let consumed = walk.reached.unwrap_or(walk.draws);
    if outcome.is_none() {
        families::ESTIMATE_EXHAUSTED.handle().inc();
    }
    families::ESTIMATE_SAMPLES.handle().observe(consumed as f64);
    if imc_obs::trace::enabled() {
        let event = imc_obs::trace::TraceEvent::new("estimate")
            .field(
                "outcome",
                if outcome.is_some() {
                    "converged"
                } else {
                    "exhausted"
                },
            )
            .field("samples_used", consumed);
        let event = match outcome {
            Some(out) => event.field("estimate", out.estimate),
            None => event.field("influenced", walk.hits),
        };
        imc_obs::trace::emit(
            event
                .field("blocks", consumed.div_ceil(ESTIMATE_BLOCK))
                .field("discarded_draws", drawn.into_inner() - consumed)
                .field("seconds", started.elapsed().as_secs_f64()),
        );
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_community::CommunitySet;
    use imc_graph::{Graph, GraphBuilder};

    /// 0 → {1, 2} with certainty, one community {1, 2} (h = 2, b = 5):
    /// every sample is influenced by {0}.
    fn certain() -> (Graph, CommunitySet) {
        let mut bld = GraphBuilder::new(3);
        bld.add_edge(0, 1, 1.0).unwrap();
        bld.add_edge(0, 2, 1.0).unwrap();
        let cs = CommunitySet::from_parts(3, vec![(vec![NodeId::new(1), NodeId::new(2)], 2, 5.0)])
            .unwrap();
        (bld.build().unwrap(), cs)
    }

    /// 0 → 1 with p = 0.5, one community {1} (h = 1, b = 2): c({0}) = 1.
    fn coin() -> (Graph, CommunitySet) {
        let mut bld = GraphBuilder::new(2);
        bld.add_edge(0, 1, 0.5).unwrap();
        let cs = CommunitySet::from_parts(2, vec![(vec![NodeId::new(1)], 1, 2.0)]).unwrap();
        (bld.build().unwrap(), cs)
    }

    #[test]
    fn exact_on_deterministic_instance() {
        let (g, cs) = certain();
        let sampler = RicSampler::new(&g, &cs);
        let out = estimate_c(&sampler, &[NodeId::new(0)], 0.2, 0.2, 100_000, 1, 1).unwrap();
        // Every sample influenced: T = ceil(Λ′), estimate = b·Λ′/⌈Λ′⌉ ≈ b.
        assert!((out.estimate - 5.0).abs() < 0.05, "estimate={out:?}");
    }

    #[test]
    fn probabilistic_edge_estimates_true_benefit() {
        let (g, cs) = coin();
        let sampler = RicSampler::new(&g, &cs);
        let out = estimate_c(&sampler, &[NodeId::new(0)], 0.1, 0.1, 1_000_000, 3, 2).unwrap();
        assert!((out.estimate - 1.0).abs() < 0.12, "estimate={out:?}");
    }

    #[test]
    fn hopeless_seed_exhausts_budget() {
        let g = GraphBuilder::new(3).build().unwrap();
        let cs = CommunitySet::from_parts(3, vec![(vec![NodeId::new(1), NodeId::new(2)], 2, 1.0)])
            .unwrap();
        let sampler = RicSampler::new(&g, &cs);
        assert!(estimate_c(&sampler, &[NodeId::new(0)], 0.2, 0.2, 500, 5, 1).is_none());
    }

    #[test]
    fn samples_used_reported() {
        let g = GraphBuilder::new(2).build().unwrap();
        let cs = CommunitySet::from_parts(2, vec![(vec![NodeId::new(1)], 1, 1.0)]).unwrap();
        let sampler = RicSampler::new(&g, &cs);
        // Seeding the member itself influences every sample.
        let out = estimate_c(&sampler, &[NodeId::new(1)], 0.2, 0.2, 100_000, 7, 1).unwrap();
        let lambda = stopping_threshold(0.2, 0.2);
        assert_eq!(out.samples_used, lambda.ceil() as u64);
    }

    /// The stopping rule walked by hand over the concatenated block
    /// stream, one draw at a time.
    fn sequential_walk(
        sampler: &RicSampler<'_>,
        seeds: &[NodeId],
        (epsilon, delta): (f64, f64),
        t_max: u64,
        stream_seed: u64,
    ) -> Option<EstimateOutcome> {
        let lambda_prime = stopping_threshold(epsilon, delta);
        let mut buf = SampleBuf::default();
        let mut rng = StdRng::seed_from_u64(stream_seed);
        let mut influenced = 0u64;
        for t in 0..t_max {
            if t % ESTIMATE_BLOCK == 0 {
                rng = StdRng::seed_from_u64(stream_seed.wrapping_add(t / ESTIMATE_BLOCK));
            }
            sampler.sample_into(&mut rng, &mut buf);
            influenced += u64::from(buf.influenced_by(seeds));
            if influenced as f64 >= lambda_prime {
                return Some(EstimateOutcome {
                    estimate: sampler.communities().total_benefit() * lambda_prime / (t + 1) as f64,
                    samples_used: t + 1,
                });
            }
        }
        None
    }

    /// `estimate_c` at 1, 2 and 8 workers against [`sequential_walk`];
    /// returns the common outcome.
    fn agreed(
        sampler: &RicSampler<'_>,
        seeds: &[NodeId],
        accuracy: (f64, f64),
        t_max: u64,
        stream_seed: u64,
    ) -> Option<EstimateOutcome> {
        let reference = sequential_walk(sampler, seeds, accuracy, t_max, stream_seed);
        for workers in [1, 2, 8] {
            let out = estimate_c(
                sampler,
                seeds,
                accuracy.0,
                accuracy.1,
                t_max,
                stream_seed,
                workers,
            );
            assert_eq!(out, reference, "workers={workers} t_max={t_max}");
        }
        reference
    }

    #[test]
    fn stopping_time_is_the_sequential_walks_for_any_worker_count() {
        let (g, cs) = coin();
        let sampler = RicSampler::new(&g, &cs);
        let seeds = [NodeId::new(0)];
        // p = 1/2 and ⌈Λ′⌉ = 200: T ≈ 400, in the second block or later,
        // and not at its edge.
        for stream_seed in [11, 12, 13] {
            let out = agreed(&sampler, &seeds, (0.2, 0.2), 100_000, stream_seed).unwrap();
            assert!(out.samples_used > ESTIMATE_BLOCK);
            assert_ne!(out.samples_used % ESTIMATE_BLOCK, 0, "seed {stream_seed}");
        }
        // A budget that is not a whole number of blocks: the last block is
        // short, and a budget one draw below T misses.
        let t = agreed(&sampler, &seeds, (0.2, 0.2), 100_000, 11)
            .unwrap()
            .samples_used;
        assert_ne!(t % ESTIMATE_BLOCK, 0);
        assert_eq!(
            agreed(&sampler, &seeds, (0.2, 0.2), t, 11).map(|o| o.samples_used),
            Some(t)
        );
        assert_eq!(agreed(&sampler, &seeds, (0.2, 0.2), t - 1, 11), None);
    }

    #[test]
    fn stopping_time_on_a_blocks_last_draw() {
        // Every draw is influenced, so T = ⌈Λ′⌉; δ is chosen to put that
        // on the last draw of block 1.
        let (g, cs) = certain();
        let sampler = RicSampler::new(&g, &cs);
        let accuracy = (0.2, 0.00535);
        assert_eq!(
            stopping_threshold(accuracy.0, accuracy.1).ceil() as u64,
            2 * ESTIMATE_BLOCK
        );
        let out = agreed(&sampler, &[NodeId::new(0)], accuracy, 10_000, 21).unwrap();
        assert_eq!(out.samples_used, 2 * ESTIMATE_BLOCK);
        // With exactly that budget it still lands; one less cannot.
        let with_budget =
            |t_max: u64| agreed(&sampler, &[NodeId::new(0)], accuracy, t_max, 21).is_some();
        assert!(with_budget(2 * ESTIMATE_BLOCK));
        assert!(!with_budget(2 * ESTIMATE_BLOCK - 1));
    }

    #[test]
    fn a_budget_below_the_threshold_draws_nothing() {
        let (g, cs) = certain();
        let sampler = RicSampler::new(&g, &cs);
        let need = stopping_threshold(0.2, 0.2).ceil() as u64;
        assert_eq!(
            agreed(&sampler, &[NodeId::new(0)], (0.2, 0.2), need - 1, 31),
            None
        );
        for workers in [1, 2, 8] {
            let walk = walk_blocks(need, need - 1, workers, |_, _, _| {
                panic!("a walk that cannot succeed must not draw")
            });
            assert_eq!((walk.reached, walk.draws), (None, 0));
        }
    }

    #[test]
    fn a_walk_stops_the_moment_the_threshold_is_out_of_reach() {
        // 1,000 draws allowed, 600 hits needed, no hit ever: after two
        // blocks 0 + 488 < 600, so the third block is never folded in.
        for workers in [1, 2, 8] {
            let walk = walk_blocks(600, 1_000, workers, |_, _, _| HitMask::default());
            assert_eq!((walk.reached, walk.draws), (None, 2 * ESTIMATE_BLOCK));
        }
    }
}
