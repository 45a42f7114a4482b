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

/// 200 isolated nodes, each its own community (`h = 1`, `b = 1`): every
/// seed set of `k` nodes is worth exactly `k`, so whatever the solver
/// picks is picked for its luck in `R` — the `k` most frequent roots — and
/// `ĉ_R(S)` overstates `c(S) = k` by the selection bias alone.
fn symmetric_instance() -> ImcInstance {
    let graph = GraphBuilder::new(200).build().unwrap();
    let parts = (0..200).map(|v| (vec![NodeId::new(v)], 1, 1.0)).collect();
    ImcInstance::new(graph, CommunitySet::from_parts(200, parts).unwrap()).unwrap()
}

#[test]
fn acceptance_test_rejects_an_overfitted_candidate() {
    // Alg. 5 line 10: a candidate whose collection estimate exceeds
    // (1 + ε₁)·c* is not accepted however many samples it influences; the
    // collection doubles until the selection bias has shrunk below ε₁.
    let inst = symmetric_instance();
    let cfg = ImcafConfig::paper_defaults(10);
    let es = cfg.epsilon / 4.0;
    let (result, trace) = imcaf_with_trace(&inst, MaxrAlgorithm::Greedy, &cfg, 1).unwrap();
    assert_eq!(result.stop_reason, StopReason::Converged);
    let rejected: Vec<_> = trace[..trace.len() - 1]
        .iter()
        .filter(|r| r.independent_estimate.is_some())
        .collect();
    assert!(
        !rejected.is_empty(),
        "no stage was graded and rejected: {trace:?}"
    );
    for record in rejected {
        let c_star = record.independent_estimate.unwrap();
        assert!(record.estimate > (1.0 + es) * c_star, "{record:?}");
    }
    let c_star = result.independent_estimate.unwrap();
    assert!(result.estimate <= (1.0 + es) * c_star);
    // The truth is k = 10 exactly; the accepted estimate is within ε of it
    // and c* within Dagum's (1 − ε₂).
    assert!((result.estimate - 10.0).abs() <= cfg.epsilon * 10.0);
    assert!(c_star >= (1.0 - es) * 10.0);
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
    // The schedule (Λ, doubling, Ψ, which stages can end a run) is
    // solver-independent: one record per *executed* round, and for the
    // same config/seed the executed stages and their sample counts match
    // across solvers.
    let inst = instance(17, 120, 6);
    let cfg = ImcafConfig {
        max_samples: 3_000,
        ..ImcafConfig::paper_defaults(4)
    };
    let (_, trace_a) = imcaf_with_trace(&inst, MaxrAlgorithm::Maf, &cfg, 5).unwrap();
    let (_, trace_b) = imcaf_with_trace(&inst, MaxrAlgorithm::Greedy, &cfg, 5).unwrap();
    let counts_a: Vec<(usize, usize)> = trace_a.iter().map(|r| (r.stage, r.samples)).collect();
    let counts_b: Vec<(usize, usize)> = trace_b.iter().map(|r| (r.stage, r.samples)).collect();
    // One may stop earlier, but the shared prefix must be identical.
    let shared = counts_a.len().min(counts_b.len());
    assert!(shared >= 1);
    assert_eq!(counts_a[..shared], counts_b[..shared]);
    // Λ ≈ 2,666 at ε = δ = 0.2: stage 0 cannot end a run, so the first
    // executed round is stage 1, cut short by the 3,000 cap.
    assert_eq!(counts_a[0], (1, 3_000));
}

/// Theorem 7, checked from outside: over 48 seeded `imcaf(UBG, ε = δ =
/// 0.2)` runs on the planted-partition family (4 instances × 12 seeds),
/// each graded by forward Monte-Carlo under a fixed grader seed, the share
/// of runs whose collection estimate misses the truth by more than `ε`,
/// or whose independent estimate `c*` overshoots Dagum's `(1 − ε₂)`
/// floor, stays within `δ`. This is the gate for a change to what a seed
/// draws (the plan, the block stream, which stages are solved): such a
/// change moves every pinned seed, and is judged by whether the guarantee
/// still holds, not by seed identity.
///
/// Wall budget: ≤ 20 s at tier-1's `opt-level = 2` (≈ 6 s on the 2-core
/// reference box: 48 runs of ≈ 10,664 samples plus 48 × 4,000 forward
/// simulations).
#[test]
fn theorem7_failure_rate_stays_within_delta() {
    const RUNS_PER_INSTANCE: u64 = 12;
    const GRADER_SEED: u64 = 0x7e57;
    let started = std::time::Instant::now();
    let (mut runs, mut misses, mut rounds) = (0usize, 0usize, 0usize);
    for (instance_seed, n, blocks, k) in [
        (31, 120, 6, 4),
        (32, 150, 8, 6),
        (33, 160, 8, 5),
        (34, 200, 10, 8),
    ] {
        let inst = instance(instance_seed, n, blocks);
        let cfg = ImcafConfig::paper_defaults(k);
        let es = cfg.epsilon / 4.0;
        for seed in 0..RUNS_PER_INSTANCE {
            let result = imc::core::imcaf(&inst, MaxrAlgorithm::Ubg, &cfg, 100 + seed).unwrap();
            assert_eq!(
                result.stop_reason,
                StopReason::Converged,
                "instance {instance_seed} seed {seed}"
            );
            let c_star = result.independent_estimate.expect("converged ⇒ c*");
            let c_mc = imc::diffusion::benefit::monte_carlo_benefit(
                inst.graph(),
                inst.communities(),
                &IndependentCascade,
                &result.seeds,
                4_000,
                GRADER_SEED,
            );
            let off = (result.estimate - c_mc).abs() > cfg.epsilon * c_mc;
            let overshoot = c_star < (1.0 - es) * c_mc;
            runs += 1;
            misses += usize::from(off || overshoot);
            rounds += result.rounds;
        }
    }
    let elapsed = started.elapsed();
    eprintln!(
        "theorem 7: {misses} of {runs} runs missed; mean executed rounds {:.2}; {elapsed:.1?}",
        rounds as f64 / runs as f64
    );
    assert!(runs >= 40);
    assert!(
        misses as f64 <= 0.2 * runs as f64,
        "{misses} of {runs} runs outside the (ε, δ) = (0.2, 0.2) guarantee"
    );
    assert!(elapsed.as_secs() < 20, "budget: {elapsed:?}");
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
