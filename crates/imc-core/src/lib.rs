//! # Influence Maximization at Community level (IMC)
//!
//! Implementation of *"Influence Maximization at Community Level: A New
//! Challenge with Non-submodularity"* (Nguyen, Zhou, Thai — ICDCS 2019).
//!
//! Given a social graph `G = (V, E, w)` under the Independent Cascade model
//! and a set of disjoint communities, each with an activation threshold
//! `h_i` and a benefit `b_i`, IMC asks for `k` seed nodes maximizing the
//! expected benefit `c(S)` of *influenced* communities — communities where
//! at least `h_i` members get activated. `c(·)` is neither submodular nor
//! supermodular, which breaks the classic greedy machinery of influence
//! maximization.
//!
//! The pipeline mirrors the paper:
//!
//! 1. **RIC sampling** ([`RicSampler`], Alg. 1) — benefit-weighted reverse
//!    samples rooted at communities, giving the unbiased estimator
//!    `ĉ_R(S)` (Lemma 1) materialized by the arena-backed [`RicStore`]
//!    (owned) or its zero-copy twin [`snapshot::RicStoreView`] (borrowed
//!    from snapshot bytes); both lend the one columnar layout,
//!    [`RicColumns`], through [`RicSamples`], which is all anything
//!    downstream sees.
//! 2. **MAXR solvers** ([`maxr`]) — UBG (sandwich with the submodular
//!    upper bound `ν_R`), MAF (most-appearance-first), BT (bounded
//!    thresholds, with the `BT^(d)` recursion) and MB (MAF ∨ BT, tight to
//!    the inapproximability bound), each written once over
//!    [`maxr::SolveBackend`] and dispatched by [`MaxrAlgorithm::solve`].
//! 3. **IMCAF** ([`imcaf`], Alg. 5) — a stop-and-stare outer loop with the
//!    sample bound `Ψ` (eq. 22) and the Dagum [`estimate`] procedure
//!    (Alg. 6), turning any `α`-approximate MAXR solver into an
//!    `α(1 − ε)`-approximation for IMC with probability `1 − δ`
//!    (Theorem 7).
//! 4. **Baselines** ([`baselines`]) — HBC, the knapsack heuristic KS,
//!    classic IM, plus degree/PageRank heuristics.
//!
//! ```
//! use imc_core::{imcaf, ImcInstance, ImcafConfig, MaxrAlgorithm};
//! use imc_community::{BenefitPolicy, CommunitySet, ThresholdPolicy};
//! use imc_graph::{generators::planted_partition, WeightModel};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(1);
//! let pp = planted_partition(100, 5, 0.3, 0.02, &mut rng);
//! let graph = pp.graph.reweighted(WeightModel::WeightedCascade);
//! let communities = CommunitySet::builder(&graph)
//!     .explicit(pp.blocks)
//!     .split_larger_than(8)
//!     .threshold(ThresholdPolicy::Constant(2))
//!     .benefit(BenefitPolicy::Population)
//!     .build()?;
//! let instance = ImcInstance::new(graph, communities)?;
//! let result = imcaf(&instance, MaxrAlgorithm::Ubg, &ImcafConfig::paper_defaults(5), 42)?;
//! assert_eq!(result.seeds.len(), 5);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: exactly two audited items are exempted from
// it (CI counts the exemptions). The zero-copy snapshot view needs the cast
// module `snapshot::cast` to reborrow aligned bytes as typed columns, and
// the index walk needs `kernels::prefetch_read`, one function around the
// prefetch hint, which dereferences nothing. Everything else stays
// unsafe-free.
#![deny(unsafe_code)]
#![deny(missing_docs)]

mod bitset;
mod error;
mod generator;
mod imcaf;
mod objective;
mod problem;
mod sample;
mod samples;
mod store;

pub mod kernels;

pub mod baselines;
pub mod bounds;
pub mod diagnostics;
pub mod estimate;
pub mod maxr;
pub mod snapshot;

pub use bitset::CoverSet;
pub use error::ImcError;
pub use generator::{LiveEdgeModel, RicSampler, SampleBuf};
pub use imcaf::{imcaf, imcaf_with_trace, ImcafConfig, ImcafResult, RoundRecord, StopReason};
pub use maxr::{
    GainSource, GreedyRun, LocalSource, MaxrAlgorithm, SolveReport, SolveRequest, SolveStrategy,
    SolverExtras,
};
pub use objective::{
    nu_fraction, nu_term, nu_value, CoverageEvaluator, CoverageState, NU_MAX_SAMPLES, NU_ONE,
};
pub use problem::ImcInstance;
pub use sample::RicSample;
pub use samples::{RicColumns, RicSamples};
pub use store::{
    default_workers, growth_seed, partition_shard_range, sampling_shard_plan, CollectionStats,
    RicSampleView, RicStore, RicStoreError, SampleRef, DEFAULT_SAMPLING_SHARDS,
};

/// Convenience result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, ImcError>;
