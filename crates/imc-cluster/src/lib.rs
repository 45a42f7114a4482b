//! # imc-cluster — sharded distributed MAXR solving
//!
//! Splits a RIC sample collection across `N` shard daemons and solves
//! MAXR with a scatter-gather coordinator whose answers are **bitwise
//! identical** to a single-node solve over the union collection:
//!
//! * each shard is a plain `imc-service` daemon serving a deterministic
//!   seed-range partition of the sampling plan (partition `i` of the
//!   [`sampling_shard_plan`](imc_core::sampling_shard_plan) rooted at
//!   `base_seed` — partitions concatenate, in shard order, to exactly
//!   the plan a single node would draw);
//! * the [`coordinator`] runs the *same* solver bodies
//!   ([`imc_core::MaxrAlgorithm::solve_over`]) and greedy engine loops
//!   ([`imc_core::maxr::engine`]) as a local solve but plugs in a
//!   [`ClusterSource`]: `ĉ_R` marginal gains are integers, `ν_R`
//!   marginal gains are Q32 fixed-point integers
//!   ([`imc_core::nu_term`]), and both **sum** across shards — every
//!   round goes to all shards at once, and the single-node value comes
//!   back bit for bit whatever order the shards are listed in;
//! * the [`runner`] spawns the whole topology in one process from a
//!   TOML file, checks cluster-vs-local identity of seeds and
//!   evaluation count, rehearses faults (`--chaos`), and writes an
//!   artifact of identity flags and exact counts.
//!
//! The wire protocol is `imc-service`'s newline-delimited JSON with the
//! shard-role ops (`eval_begin` / `eval_batch` / `eval_seed` /
//! `eval_end` / `shard_eval`) added in this crate's companion change —
//! see [`imc_service::protocol`]. See `DESIGN.md` §8 for the
//! architecture discussion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod coordinator;
pub mod health;
pub mod runner;
pub mod source;
pub mod topology;

pub use chaos::{ChaosFault, ChaosProxy, ChaosSpec};
pub use coordinator::{
    cluster_solve, ClusterReport, CoordError, Coordinator, CoordinatorConfig, CoordinatorHandle,
};
pub use health::{HealthBoard, ShardState};
pub use runner::{run, RunnerOptions, RunnerReport, SMOKE_SCHEMA};
pub use source::ClusterSource;
pub use topology::Topology;
