//! The four workloads: what they are made of, how `--seed` turns into
//! inputs, and the seeded estimate request stream.
//!
//! The program under test only ever sees the generated inputs (a graph, a
//! community set, sampling/solve seeds, request lines); no crate reads
//! the workload name or the benchmark seed.

use crate::prng::{derive, SplitMix64};
use imc_community::{BenefitPolicy, CommunitySet, ThresholdPolicy};
use imc_core::ImcInstance;
use imc_datasets::DatasetId;
use imc_graph::{NodeId, WeightModel};

/// Seed budget of every solve.
pub const K: usize = 25;
/// Seeds per estimate request.
pub const SEEDS_PER_REQUEST: usize = 8;
/// Of every [`MIX_PERIOD`] consecutive requests, this many are
/// perturbations of the UBG answer (expensive); the rest are uniform node
/// ids (cheap). See [`request_stream`] for why one in five.
pub const MIX_EXPENSIVE: usize = 1;
/// See [`MIX_EXPENSIVE`].
pub const MIX_PERIOD: usize = 5;
/// The Wiki-Vote analog is a *dataset*: one fixed graph, like the SNAP
/// file it stands in for. `--seed` varies everything drawn on top of it.
pub const DATASET_SEED: u64 = 1;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process solve over an `Arc<RicStore>`: the floor.
    LadderLocal,
    /// The same solve behind one TCP NDJSON daemon.
    LadderDaemon,
    /// The same plan split over two shard daemons behind a coordinator.
    LadderCluster,
    /// Full IMCAF over wide communities with fractional thresholds.
    ImcafWide,
}

impl Workload {
    /// All workloads, in ladder order.
    pub const ALL: [Workload; 4] = [
        Workload::LadderLocal,
        Workload::LadderDaemon,
        Workload::LadderCluster,
        Workload::ImcafWide,
    ];

    /// The workloads `BENCHMARK.json` declares, which the acceptance
    /// driver runs and gates on. Its time limit covers 4 + 22 runs per
    /// declared workload, so four workloads leave ≈ 30 s a run and two
    /// leave ≈ 60 s; at 20–25 s a run every timing spread past its bound.
    /// The two kept stress disjoint layers: the cluster rung runs the
    /// whole ladder (engine, objective, json, protocol, service,
    /// scatter-gather) on single-limb covers, the IMCAF run the generator,
    /// the append path and the multi-limb kernels in-process. The two
    /// lower rungs stay runnable by hand, and every traced run reports
    /// them as `service.*` / `cluster.*` rows with their bases.
    pub const DECLARED: [Workload; 2] = [Workload::LadderCluster, Workload::ImcafWide];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LadderLocal => "ladder-local",
            Workload::LadderDaemon => "ladder-daemon",
            Workload::LadderCluster => "ladder-cluster",
            Workload::ImcafWide => "imcaf-wide",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether this is one of the three ladder rungs.
    pub fn is_ladder(self) -> bool {
        self != Workload::ImcafWide
    }

    /// One-line rationale (also in `BENCHMARK.json` and the README).
    pub fn why(self) -> &'static str {
        match self {
            Workload::LadderLocal => {
                "engine+objective do all the work, service/cluster none: the floor the other rungs are subtracted from"
            }
            Workload::LadderDaemon => {
                "adds exactly json/protocol/pool/socket to the same solve; where a snapshot or codec change shows"
            }
            Workload::LadderCluster => {
                "single-limb solve through every layer up to scatter-gather; RPC count and round-trips dominate, so batching or nu-carry changes show here"
            }
            Workload::ImcafWide => {
                "in-process, so service and cluster are bypassed; wide samples, 2-limb covers, append-then-solve: generator, store append, multi-limb kernels, Estimate"
            }
        }
    }
}

/// Sizes of one workload at one scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Wiki-Vote analog scale (1.0 = the paper's 7,100 nodes).
    pub dataset_scale: f64,
    /// Louvain communities larger than this are split.
    pub size_cap: usize,
    /// Community threshold policy.
    pub threshold: ThresholdPolicy,
    /// RIC samples in the served / fixed store.
    pub samples: usize,
    /// Seed budget.
    pub k: usize,
    /// Cycles (set-up + solve + estimate slices) a run never goes below.
    pub min_cycles: usize,
    /// Estimate slices per cycle, each one concurrency-1 burst followed by
    /// one concurrency-`min(nproc, 4)` burst.
    pub estimate_slices: usize,
    /// Requests of one concurrency-1 slice.
    pub estimates_c1: usize,
    /// Requests of one concurrency-`min(nproc, 4)` slice.
    pub estimates_cn: usize,
    /// Untimed estimate warm-ups.
    pub warmups: usize,
    /// Forward Monte-Carlo runs behind `benefit_mc`.
    pub mc_runs: u64,
}

/// IMCAF accuracy parameters of `imcaf-wide` (the paper's §VI.A).
pub const IMCAF_EPSILON: f64 = 0.2;
/// See [`IMCAF_EPSILON`].
pub const IMCAF_DELTA: f64 = 0.2;

impl Spec {
    /// The sizes of `workload`; `smoke` shrinks them to about a twentieth
    /// so tests can walk every code path in seconds.
    pub fn of(workload: Workload, smoke: bool) -> Spec {
        let full = match workload {
            Workload::LadderLocal | Workload::LadderDaemon => Spec {
                dataset_scale: 0.3,
                size_cap: 8,
                threshold: ThresholdPolicy::Constant(2),
                samples: 40_000,
                k: K,
                min_cycles: 2,
                estimate_slices: 3,
                estimates_c1: 250,
                estimates_cn: 375,
                warmups: 50,
                mc_runs: 2_000,
            },
            Workload::LadderCluster => Spec::of(Workload::LadderLocal, false),
            Workload::ImcafWide => Spec {
                dataset_scale: 1.0,
                size_cap: 128,
                threshold: ThresholdPolicy::Fraction(0.1),
                samples: 10_000,
                k: K,
                min_cycles: 2,
                estimate_slices: 6,
                estimates_c1: 250,
                estimates_cn: 375,
                warmups: 50,
                mc_runs: 2_000,
            },
        };
        if !smoke {
            return full;
        }
        Spec {
            dataset_scale: if workload.is_ladder() { 0.1 } else { 0.15 },
            samples: full.samples / 20,
            k: 5,
            estimate_slices: 1,
            estimates_c1: 60,
            estimates_cn: 60,
            warmups: 5,
            mc_runs: 200,
            ..full
        }
    }
}

/// Everything `--seed` determines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// Graph generation and Louvain.
    pub dataset: u64,
    /// `base_seed` of the sampling plan.
    pub sampling: u64,
    /// The `seed` field of every solve request.
    pub solve: u64,
    /// The estimate request stream.
    pub stream: u64,
    /// The forward Monte-Carlo grader.
    pub mc: u64,
}

impl Seeds {
    /// Derives every input seed from the workload seed.
    pub fn from_workload_seed(seed: u64) -> Seeds {
        Seeds {
            dataset: DATASET_SEED,
            sampling: derive(seed, 1),
            solve: derive(seed, 2),
            stream: derive(seed, 3),
            mc: derive(seed, 4),
        }
    }
}

/// Builds the instance: Wiki-Vote analog with weighted-cascade weights,
/// Louvain communities split at the size cap, population benefits.
pub fn build_instance(spec: &Spec, dataset_seed: u64) -> ImcInstance {
    let graph = imc_datasets::generate(DatasetId::WikiVote, spec.dataset_scale, dataset_seed)
        .reweighted(WeightModel::WeightedCascade);
    let communities = CommunitySet::builder(&graph)
        .louvain(dataset_seed)
        .split_larger_than(spec.size_cap)
        .threshold(spec.threshold)
        .benefit(BenefitPolicy::Population)
        .build()
        .expect("the benchmark's community policies are valid");
    ImcInstance::new(graph, communities).expect("communities were built over this graph")
}

/// The seeded estimate request stream: `count` requests of
/// [`SEEDS_PER_REQUEST`] node ids each.
///
/// Estimate cost is proportional to the seeds' appearance counts, so the
/// stream mixes two kinds. *Perturbations* keep most of the solver's own
/// answer (high-appearance nodes: expensive, ≈3× the cost) and swap one to
/// three positions for uniform nodes; *uniform* requests draw every id
/// uniformly (mostly low-appearance nodes: cheap).
///
/// Both kinds are stratified, because appearance counts are heavy-tailed
/// and a slice of a few hundred independent draws has a median that moves
/// by a tenth on the draw alone. Perturbations walk the answer's windows
/// in turn instead of picking one at random, and uniform ids are dealt
/// without replacement from a shuffled deck of all ids, so every slice
/// holds nearly the same multiset of work in a seed-dependent arrangement.
///
/// The mix is [`MIX_EXPENSIVE`]:[`MIX_PERIOD`] so that the percentiles
/// taken from it sit where their mode is dense: with one request in five
/// expensive, the 50th percentile is the 62nd percentile of the cheap ones
/// (where service overhead shows) and the 90th is the *median* expensive
/// request (where the store shows). A 1:1 mix puts the median on the gap
/// between the two modes, and 3:8 put it at the cheap mode's 80th
/// percentile, on its thin upper tail; both moved by a tenth from run to
/// run with no code change.
pub fn request_stream(
    answer: &[NodeId],
    node_count: usize,
    count: usize,
    seed: u64,
) -> Vec<Vec<u32>> {
    assert!(node_count > 0, "an instance has nodes");
    let mut rng = SplitMix64::new(seed);
    let mut deck = Deck::new(node_count);
    (0..count)
        .map(|i| {
            let expensive = !answer.is_empty() && i % MIX_PERIOD < MIX_EXPENSIVE;
            if expensive {
                let offset = (i / MIX_PERIOD) % answer.len();
                let mut seeds: Vec<u32> = (0..SEEDS_PER_REQUEST)
                    .map(|j| answer[(offset + j) % answer.len()].raw())
                    .collect();
                let swaps = 1 + rng.below(3) as usize;
                for _ in 0..swaps {
                    let at = rng.below(SEEDS_PER_REQUEST as u64) as usize;
                    seeds[at] = deck.deal(&mut rng);
                }
                seeds
            } else {
                (0..SEEDS_PER_REQUEST)
                    .map(|_| deck.deal(&mut rng))
                    .collect()
            }
        })
        .collect()
}

/// Uniform node ids dealt without replacement: a shuffled deck of every
/// id, reshuffled when it runs out.
struct Deck {
    node_count: u32,
    cards: Vec<u32>,
}

impl Deck {
    fn new(node_count: usize) -> Deck {
        Deck {
            node_count: u32::try_from(node_count).expect("node ids are u32"),
            cards: Vec::new(),
        }
    }

    fn deal(&mut self, rng: &mut SplitMix64) -> u32 {
        if self.cards.is_empty() {
            self.cards = (0..self.node_count).collect();
            // Fisher-Yates.
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        self.cards.pop().expect("the deck was just refilled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer() -> Vec<NodeId> {
        (100..125).map(NodeId::new).collect()
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "why must fit BENCHMARK.json");
        }
        assert_eq!(Workload::parse("ladder"), None);
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let a = request_stream(&answer(), 2130, 400, 9);
        let b = request_stream(&answer(), 2130, 400, 9);
        let c = request_stream(&answer(), 2130, 400, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // A longer stream extends a shorter one: phases can share a prefix.
        let longer = request_stream(&answer(), 2130, 500, 9);
        assert_eq!(&longer[..400], &a[..]);
    }

    #[test]
    fn stream_shape_and_mix() {
        let stream = request_stream(&answer(), 2130, 800, 3);
        assert_eq!(stream.len(), 800);
        let mut expensive = 0;
        for (i, req) in stream.iter().enumerate() {
            assert_eq!(req.len(), SEEDS_PER_REQUEST);
            assert!(req.iter().all(|&v| (v as usize) < 2130));
            let from_answer = req.iter().filter(|&&v| (100..125).contains(&v)).count();
            if i % MIX_PERIOD < MIX_EXPENSIVE {
                // At most three positions were swapped out.
                assert!(from_answer >= SEEDS_PER_REQUEST - 3, "request {i}: {req:?}");
                expensive += 1;
            }
        }
        assert_eq!(expensive, 800 * MIX_EXPENSIVE / MIX_PERIOD);
    }

    #[test]
    fn stream_is_stratified() {
        // Uniform ids are dealt without replacement: one pass over the
        // deck is a permutation of every id.
        let cheap = request_stream(&[], 64, 64 / SEEDS_PER_REQUEST, 5);
        let mut ids: Vec<u32> = cheap.into_iter().flatten().collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..64).collect::<Vec<u32>>());
        // Perturbations walk the answer's windows in turn: the i-th one
        // keeps at least five positions of the window starting at i.
        let answer = answer();
        let stream = request_stream(&answer, 2130, 60 * MIX_PERIOD, 5);
        for (i, req) in stream.iter().step_by(MIX_PERIOD).enumerate() {
            let kept = (0..SEEDS_PER_REQUEST)
                .filter(|&j| req[j] == answer[(i + j) % answer.len()].raw())
                .count();
            assert!(kept >= SEEDS_PER_REQUEST - 3, "perturbation {i}: {req:?}");
        }
    }

    #[test]
    fn seeds_follow_the_workload_seed_but_not_the_dataset() {
        let a = Seeds::from_workload_seed(1);
        let b = Seeds::from_workload_seed(2);
        assert_eq!(a, Seeds::from_workload_seed(1));
        assert_eq!(a.dataset, b.dataset);
        assert_ne!(a.sampling, b.sampling);
        assert_ne!(a.solve, b.solve);
        assert_ne!(a.stream, b.stream);
        assert_ne!(a.mc, b.mc);
    }

    #[test]
    fn smoke_specs_are_about_a_twentieth() {
        for w in Workload::ALL {
            let full = Spec::of(w, false);
            let smoke = Spec::of(w, true);
            assert_eq!(smoke.samples * 20, full.samples);
            assert!(smoke.estimates_c1 < full.estimates_c1);
        }
        // Partitioned sampling needs at least 64 samples per plan.
        assert!(Spec::of(Workload::LadderCluster, true).samples >= 64);
    }
}
