//! Behavioral tests of the IMCAF stop-and-stare loop (Alg. 5) beyond the
//! unit level: check-point semantics, trace consistency, and the
//! guarantee-relevant relationships between the estimates it reports.

use imc::prelude::*;
use imc_core::bounds::lambda;
use imc_core::StopReason;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn instance(seed: u64, n: u32, blocks: u32) -> ImcInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let pp = imc::graph::generators::planted_partition(n, blocks, 0.35, 0.01, &mut rng);
    let graph = pp.graph.reweighted(WeightModel::WeightedCascade);
    let cs = CommunitySet::builder(&graph)
        .explicit(pp.blocks)
        .split_larger_than(8)
        .threshold(ThresholdPolicy::Constant(2))
        .benefit(BenefitPolicy::Population)
        .build()
        .unwrap();
    ImcInstance::new(graph, cs).unwrap()
}

#[test]
fn converged_runs_pass_the_lambda_checkpoint() {
    let inst = instance(1, 150, 8);
    let cfg = ImcafConfig {
        max_samples: 60_000,
        ..ImcafConfig::paper_defaults(6)
    };
    let (result, trace) = imcaf_with_trace(&inst, MaxrAlgorithm::Ubg, &cfg, 3).unwrap();
    if result.stop_reason == StopReason::Converged {
        let es = cfg.epsilon / 4.0;
        let check = lambda(es, es, es, cfg.delta);
        let last = trace.last().unwrap();
        assert!(
            last.influenced as f64 >= check,
            "converged with only {} influenced < Λ = {check:.1}",
            last.influenced
        );
        assert!(last.checked);
        // Acceptance condition: ĉ_R(S) ≤ (1 + ε₁)·c*.
        let c_star = result.independent_estimate.expect("converged ⇒ estimate");
        assert!(result.estimate <= (1.0 + es) * c_star + 1e-9);
    }
}

#[test]
fn independent_estimate_close_to_sample_estimate_on_convergence() {
    let inst = instance(5, 150, 8);
    let cfg = ImcafConfig {
        max_samples: 60_000,
        ..ImcafConfig::paper_defaults(5)
    };
    let result = imc::core::imcaf(&inst, MaxrAlgorithm::Maf, &cfg, 7).unwrap();
    if let Some(c_star) = result.independent_estimate {
        let rel = (result.estimate - c_star).abs() / c_star.max(1e-9);
        assert!(
            rel < 0.35,
            "ĉ_R={} vs c*={c_star} (rel {rel:.2})",
            result.estimate
        );
    }
}

#[test]
fn tighter_epsilon_needs_at_least_as_many_samples() {
    let inst = instance(9, 120, 6);
    let loose = ImcafConfig {
        epsilon: 0.4,
        max_samples: 200_000,
        ..ImcafConfig::paper_defaults(4)
    };
    let tight = ImcafConfig {
        epsilon: 0.15,
        max_samples: 200_000,
        ..ImcafConfig::paper_defaults(4)
    };
    let a = imc::core::imcaf(&inst, MaxrAlgorithm::Maf, &loose, 2).unwrap();
    let b = imc::core::imcaf(&inst, MaxrAlgorithm::Maf, &tight, 2).unwrap();
    assert!(
        b.samples_used >= a.samples_used,
        "tight ε used {} < loose ε {}",
        b.samples_used,
        a.samples_used
    );
}

#[test]
fn stop_reason_is_cap_when_cap_below_lambda() {
    let inst = instance(13, 100, 5);
    let cfg = ImcafConfig {
        max_samples: 50,
        ..ImcafConfig::paper_defaults(3)
    };
    let result = imc::core::imcaf(&inst, MaxrAlgorithm::Greedy, &cfg, 1).unwrap();
    assert_eq!(result.stop_reason, StopReason::CapReached);
    assert!(result.samples_used <= 50);
    assert!(result.independent_estimate.is_none());
}

#[test]
fn different_solvers_share_the_sampling_schedule() {
    // The schedule (Λ, doubling, Ψ) is solver-independent; per-round
    // sample counts must match across solvers for the same config/seed.
    let inst = instance(17, 120, 6);
    let cfg = ImcafConfig {
        max_samples: 3_000,
        ..ImcafConfig::paper_defaults(4)
    };
    let (_, trace_a) = imcaf_with_trace(&inst, MaxrAlgorithm::Maf, &cfg, 5).unwrap();
    let (_, trace_b) = imcaf_with_trace(&inst, MaxrAlgorithm::Greedy, &cfg, 5).unwrap();
    let counts_a: Vec<usize> = trace_a.iter().map(|r| r.samples).collect();
    let counts_b: Vec<usize> = trace_b.iter().map(|r| r.samples).collect();
    // One may stop earlier, but the shared prefix must be identical.
    let shared = counts_a.len().min(counts_b.len());
    assert_eq!(counts_a[..shared], counts_b[..shared]);
}

#[test]
fn all_seeds_are_valid_nodes_and_distinct_across_algorithms() {
    let inst = instance(21, 140, 7);
    let cfg = ImcafConfig {
        max_samples: 4_000,
        ..ImcafConfig::paper_defaults(6)
    };
    for algo in [
        MaxrAlgorithm::Greedy,
        MaxrAlgorithm::Ubg,
        MaxrAlgorithm::Maf,
        MaxrAlgorithm::Bt,
        MaxrAlgorithm::Mb,
        MaxrAlgorithm::Btd(2),
    ] {
        let result = imc::core::imcaf(&inst, algo, &cfg, 3).unwrap();
        assert_eq!(result.seeds.len(), 6, "{algo:?}");
        let distinct: std::collections::HashSet<_> = result.seeds.iter().collect();
        assert_eq!(distinct.len(), 6, "{algo:?}");
        for s in &result.seeds {
            assert!(inst.graph().contains(*s), "{algo:?} emitted invalid node");
        }
    }
}

use imc_core::imcaf_with_trace;
