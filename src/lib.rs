//! # imc — Influence Maximization at Community Level
//!
//! Umbrella crate for the ICDCS 2019 paper *"Influence Maximization at
//! Community Level: A New Challenge with Non-submodularity"* (Nguyen, Zhou,
//! Thai). It re-exports the workspace crates under stable module names:
//!
//! * [`graph`] — directed weighted CSR graphs, generators, traversal.
//! * [`community`] — community model, Louvain detection, partitions.
//! * [`diffusion`] — IC/LT simulation, Monte-Carlo estimation, classic RIS.
//! * [`core`] — RIC sampling, MAXR solvers (UBG/MAF/BT/MB), IMCAF, baselines.
//! * [`datasets`] — deterministic synthetic analogs of the paper's datasets.
//!
//! # Quickstart
//!
//! ```
//! use imc::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small planted-partition network with weighted-cascade weights.
//! let mut rng = StdRng::seed_from_u64(7);
//! let pp = imc::graph::generators::planted_partition(120, 6, 0.25, 0.01, &mut rng);
//! let graph = pp.graph.reweighted(WeightModel::WeightedCascade);
//!
//! // Detect communities with Louvain; benefit = population, threshold = 2.
//! let communities = CommunitySet::builder(&graph)
//!     .louvain(0xC0FFEE)
//!     .split_larger_than(8)
//!     .threshold(ThresholdPolicy::Constant(2))
//!     .benefit(BenefitPolicy::Population)
//!     .build()?;
//!
//! // Solve IMC with the IMCAF framework + UBG.
//! let instance = ImcInstance::new(graph, communities)?;
//! let config = ImcafConfig::paper_defaults(3);
//! let result = imcaf(&instance, MaxrAlgorithm::Ubg, &config, 99)?;
//! assert_eq!(result.seeds.len(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use imc_community as community;
pub use imc_core as core;
pub use imc_datasets as datasets;
pub use imc_diffusion as diffusion;
pub use imc_graph as graph;

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use imc_community::{BenefitPolicy, CommunityId, CommunitySet, ThresholdPolicy};
    pub use imc_core::{
        imcaf, imcaf_with_trace, ImcInstance, ImcafConfig, LiveEdgeModel, MaxrAlgorithm,
        RicSampler, RicStore,
    };
    pub use imc_diffusion::{DiffusionModel, IndependentCascade, LinearThreshold};
    pub use imc_graph::{Graph, GraphBuilder, NodeId, WeightModel};
}
