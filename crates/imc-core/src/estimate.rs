//! The `Estimate` procedure (Algorithm 6).
//!
//! Grades a candidate seed set `S` by applying the Dagum–Karp–Luby–Ross
//! stopping rule to *fresh RIC samples*: each sample is influenced by `S`
//! with probability exactly `c(S)/b` (Lemma 1), so counting influenced
//! samples until `Λ′ = 1 + 4(e−2)·ln(2/δ′)·(1+ε′)/ε′²` of them are seen
//! yields `c* = b·Λ′/T` with `Pr[c* ≥ (1−ε′)·c(S)] ≥ 1 − δ′`.
//!
//! Returns `None` when `t_max` samples were drawn without reaching `Λ′` —
//! the paper's `return −1` — which IMCAF treats as "keep sampling".

use crate::{RicSampler, SampleBuf};
use imc_diffusion::dagum::stopping_threshold;
use imc_graph::NodeId;
use rand::Rng;

/// Outcome of one [`estimate_c`] invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateOutcome {
    /// The estimate `c* = b·Λ′/T`.
    pub estimate: f64,
    /// Fresh RIC samples consumed.
    pub samples_used: u64,
}

/// Runs Alg. 6: draws fresh RIC samples until `Λ′` of them are influenced
/// by `seeds` (then returns the estimate) or `t_max` samples are exhausted
/// (then returns `None`).
///
/// # Panics
///
/// Panics if `epsilon` or `delta` is outside `(0, 1)` (via
/// [`stopping_threshold`]).
pub fn estimate_c<R: Rng + ?Sized>(
    sampler: &RicSampler<'_>,
    seeds: &[NodeId],
    epsilon: f64,
    delta: f64,
    t_max: u64,
    rng: &mut R,
) -> Option<EstimateOutcome> {
    let lambda_prime = stopping_threshold(epsilon, delta);
    let b = sampler.communities().total_benefit();
    crate::obs::estimate_calls_total().inc();
    let started = std::time::Instant::now();
    let mut influenced = 0u64;
    // One reusable scratch buffer for the whole run — grading draws
    // thousands of throwaway samples, so the owning path's per-sample
    // allocations would dominate. The RNG stream (and thus the result) is
    // identical to drawing owned samples.
    let mut buf = SampleBuf::default();
    for t in 1..=t_max {
        sampler.sample_into(rng, &mut buf);
        if buf.influenced_by(seeds) {
            influenced += 1;
            if influenced as f64 >= lambda_prime {
                crate::obs::estimate_samples().observe(t as f64);
                if imc_obs::trace::enabled() {
                    imc_obs::trace::emit(
                        imc_obs::trace::TraceEvent::new("estimate")
                            .field("outcome", "converged")
                            .field("samples_used", t)
                            .field("estimate", b * lambda_prime / t as f64)
                            .field("seconds", started.elapsed().as_secs_f64()),
                    );
                }
                return Some(EstimateOutcome {
                    estimate: b * lambda_prime / t as f64,
                    samples_used: t,
                });
            }
        }
    }
    crate::obs::estimate_exhausted_total().inc();
    crate::obs::estimate_samples().observe(t_max as f64);
    if imc_obs::trace::enabled() {
        imc_obs::trace::emit(
            imc_obs::trace::TraceEvent::new("estimate")
                .field("outcome", "exhausted")
                .field("samples_used", t_max)
                .field("influenced", influenced)
                .field("seconds", started.elapsed().as_secs_f64()),
        );
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_community::CommunitySet;
    use imc_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exact_on_deterministic_instance() {
        // Seed 0 reaches both members of the single community with
        // certainty: c(S) = b = 5.
        let mut bld = GraphBuilder::new(3);
        bld.add_edge(0, 1, 1.0).unwrap();
        bld.add_edge(0, 2, 1.0).unwrap();
        let g = bld.build().unwrap();
        let cs = CommunitySet::from_parts(3, vec![(vec![NodeId::new(1), NodeId::new(2)], 2, 5.0)])
            .unwrap();
        let sampler = RicSampler::new(&g, &cs);
        let mut rng = StdRng::seed_from_u64(1);
        let out = estimate_c(&sampler, &[NodeId::new(0)], 0.2, 0.2, 100_000, &mut rng).unwrap();
        // Every sample influenced: T = ceil(Λ′), estimate = b·Λ′/⌈Λ′⌉ ≈ b.
        assert!((out.estimate - 5.0).abs() < 0.05, "estimate={out:?}");
    }

    #[test]
    fn probabilistic_edge_estimates_true_benefit() {
        // 0 -> 1 with p=0.5, single community {1} h=1 b=2: c({0}) = 1.
        let mut bld = GraphBuilder::new(2);
        bld.add_edge(0, 1, 0.5).unwrap();
        let g = bld.build().unwrap();
        let cs = CommunitySet::from_parts(2, vec![(vec![NodeId::new(1)], 1, 2.0)]).unwrap();
        let sampler = RicSampler::new(&g, &cs);
        let mut rng = StdRng::seed_from_u64(3);
        let out = estimate_c(&sampler, &[NodeId::new(0)], 0.1, 0.1, 1_000_000, &mut rng).unwrap();
        assert!((out.estimate - 1.0).abs() < 0.12, "estimate={out:?}");
    }

    #[test]
    fn hopeless_seed_exhausts_budget() {
        let g = GraphBuilder::new(3).build().unwrap();
        let cs = CommunitySet::from_parts(3, vec![(vec![NodeId::new(1), NodeId::new(2)], 2, 1.0)])
            .unwrap();
        let sampler = RicSampler::new(&g, &cs);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(estimate_c(&sampler, &[NodeId::new(0)], 0.2, 0.2, 500, &mut rng).is_none());
    }

    #[test]
    fn samples_used_reported() {
        let g = GraphBuilder::new(2).build().unwrap();
        let cs = CommunitySet::from_parts(2, vec![(vec![NodeId::new(1)], 1, 1.0)]).unwrap();
        let sampler = RicSampler::new(&g, &cs);
        let mut rng = StdRng::seed_from_u64(7);
        // Seeding the member itself influences every sample.
        let out = estimate_c(&sampler, &[NodeId::new(1)], 0.2, 0.2, 100_000, &mut rng).unwrap();
        let lambda = stopping_threshold(0.2, 0.2);
        assert_eq!(out.samples_used, lambda.ceil() as u64);
    }
}
