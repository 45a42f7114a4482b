//! Ablations beyond the paper's figures.
//!
//! * [`samples`] — solution quality vs the RIC collection size `|R|`:
//!   validates the Ψ/Λ machinery empirically (quality saturates well below
//!   the worst-case bound, which is why SSA-style early stopping pays).
//! * [`btd`] — the `BT^(d)` recursion on a threshold-3 instance, the
//!   paper's extension of Alg. 4 that it analyses but never measures.

use crate::experiments::ExpOptions;
use crate::harness::{build_instance, dataset_graph, grade, Formation};
use crate::report::{fmt_f, fmt_secs, Table};
use imc_community::ThresholdPolicy;
use imc_core::{MaxrAlgorithm, RicStore, SolveRequest};
use imc_datasets::DatasetId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Quality vs `|R|` for UBG at fixed `k`.
pub fn samples(options: &ExpOptions) -> std::io::Result<()> {
    let sizes: &[usize] = if options.quick {
        &[125, 1_000]
    } else {
        &[125, 500, 2_000, 8_000, 32_000]
    };
    let k = 10;
    let graph = dataset_graph(
        DatasetId::Facebook,
        if options.quick { 0.4 } else { 1.0 } * options.scale,
        options.seed,
    );
    let instance = build_instance(
        &graph,
        Formation::Louvain,
        8,
        ThresholdPolicy::Constant(2),
        options.seed,
    );
    let sampler = instance.sampler();

    let mut table = Table::new(
        "Ablation - UBG quality vs RIC collection size (k=10, h=2)",
        &["|R|", "benefit", "solve seconds"],
    );
    for &size in sizes {
        let mut collection = RicStore::for_sampler(&sampler);
        let mut rng = StdRng::seed_from_u64(options.seed);
        collection.extend_with(&sampler, size, &mut rng);
        let start = Instant::now();
        let outcome = MaxrAlgorithm::Ubg
            .solve(&instance, &collection, &SolveRequest::new(k))
            .expect("budget within the graph");
        let elapsed = start.elapsed();
        let benefit = grade(
            &instance,
            &outcome.seeds,
            options.seed + 3,
            options.grade_budget,
        );
        table.push_row(vec![size.to_string(), fmt_f(benefit), fmt_secs(elapsed)]);
    }
    table.emit(options.out_dir.as_deref())
}

/// `BT^(3)` vs the other solvers on a threshold-3 instance.
pub fn btd(options: &ExpOptions) -> std::io::Result<()> {
    let k = 6;
    let graph = dataset_graph(DatasetId::Facebook, 0.3 * options.scale, options.seed);
    let instance = build_instance(
        &graph,
        Formation::Louvain,
        8,
        ThresholdPolicy::Constant(3),
        options.seed,
    );
    let sampler = instance.sampler();
    let mut collection = RicStore::for_sampler(&sampler);
    let mut rng = StdRng::seed_from_u64(options.seed);
    collection.extend_with(
        &sampler,
        if options.quick { 1_000 } else { 6_000 },
        &mut rng,
    );

    let mut table = Table::new(
        "Ablation - BT^3 vs other solvers (h=3, k=6)",
        &["method", "benefit", "solve seconds"],
    );
    // BT^3 with a candidate cap (full pivot scan at threshold 3 is the
    // k^{d-1} regime the paper warns about).
    let start = Instant::now();
    let bt_req = SolveRequest::new(k)
        .with_depth(3)
        .with_candidate_limit(if options.quick { 10 } else { 50 });
    let bt_out = MaxrAlgorithm::Bt
        .solve(&instance, &collection, &bt_req)
        .expect("thresholds bounded by 3");
    let bt_time = start.elapsed();
    let bt_benefit = grade(
        &instance,
        &bt_out.seeds,
        options.seed + 1,
        options.grade_budget,
    );
    table.push_row(vec![
        "BT^3 (capped)".into(),
        fmt_f(bt_benefit),
        fmt_secs(bt_time),
    ]);

    for algo in [
        MaxrAlgorithm::Ubg,
        MaxrAlgorithm::Maf,
        MaxrAlgorithm::Greedy,
    ] {
        let start = Instant::now();
        let sol = algo
            .solve(
                &instance,
                &collection,
                &SolveRequest::new(k).with_seed(options.seed),
            )
            .expect("solvers valid on h=3 instance");
        let t = start.elapsed();
        let benefit = grade(
            &instance,
            &sol.seeds,
            options.seed + 1,
            options.grade_budget,
        );
        table.push_row(vec![algo.name().to_string(), fmt_f(benefit), fmt_secs(t)]);
    }
    table.emit(options.out_dir.as_deref())
}

/// Non-submodularity probe: how often does adding a seed *increase*
/// another node's marginal gain (the behavior of the paper's Fig. 2 /
/// Lemma 2), as a function of the threshold policy? Regimes with higher
/// violation rates are exactly where plain greedy is risky and the UBG
/// sandwich ratio (Fig. 8) drops.
pub fn nonsubmodularity(options: &ExpOptions) -> std::io::Result<()> {
    let graph = dataset_graph(
        DatasetId::Facebook,
        if options.quick { 0.3 } else { 0.6 } * options.scale,
        options.seed,
    );
    let regimes: &[(&str, ThresholdPolicy)] = &[
        ("h=1", ThresholdPolicy::Constant(1)),
        ("h=2", ThresholdPolicy::Constant(2)),
        ("h=4", ThresholdPolicy::Constant(4)),
        ("50%", ThresholdPolicy::Fraction(0.5)),
        ("100%", ThresholdPolicy::Fraction(1.0)),
    ];
    let trials = if options.quick { 2_000 } else { 20_000 };
    let sample_count = if options.quick { 500 } else { 3_000 };

    let mut table = Table::new(
        "Ablation - submodularity violation rate vs threshold regime",
        &["regime", "violations", "trials", "rate"],
    );
    for &(name, threshold) in regimes {
        let instance = build_instance(&graph, Formation::Louvain, 8, threshold, options.seed);
        let sampler = instance.sampler();
        let mut collection = RicStore::for_sampler(&sampler);
        let mut rng = StdRng::seed_from_u64(options.seed);
        collection.extend_with(&sampler, sample_count, &mut rng);
        let report = imc_core::diagnostics::probe_submodularity(&collection, 4, trials, &mut rng);
        table.push_row(vec![
            name.to_string(),
            report.increasing.to_string(),
            report.trials().to_string(),
            format!("{:.4}", report.violation_rate()),
        ]);
    }
    table.emit(options.out_dir.as_deref())
}

/// Empirical approximation ratios against the exact optimum on
/// brute-forceable instances — turns Theorems 3–5 into measurements.
pub fn ratios(options: &ExpOptions) -> std::io::Result<()> {
    use imc_core::maxr::exhaustive::exhaustive;
    let mut table = Table::new(
        "Ablation - empirical ratio vs exact MAXR optimum (tiny instances)",
        &["instance", "k", "method", "ratio", "paper bound"],
    );
    let trials = if options.quick { 3 } else { 10 };
    for trial in 0..trials {
        let seed = options.seed + trial;
        let mut rng = StdRng::seed_from_u64(seed);
        let pp = imc_graph::generators::planted_partition(24, 4, 0.4, 0.05, &mut rng);
        let graph = pp.graph.reweighted(imc_graph::WeightModel::WeightedCascade);
        let cs = imc_community::CommunitySet::builder(&graph)
            .explicit(pp.blocks)
            .threshold(ThresholdPolicy::Constant(2))
            .build()
            .expect("valid blocks");
        let instance = imc_core::ImcInstance::new(graph, cs).expect("valid instance");
        let sampler = instance.sampler();
        let mut collection = RicStore::for_sampler(&sampler);
        collection.extend_with(&sampler, 400, &mut rng);
        let k = 4;
        let opt = exhaustive(&collection, k);
        if opt.influenced_samples == 0 {
            continue;
        }
        let r = instance.community_count();
        let h = instance.max_threshold();
        for algo in [
            MaxrAlgorithm::Ubg,
            MaxrAlgorithm::Maf,
            MaxrAlgorithm::Bt,
            MaxrAlgorithm::Mb,
            MaxrAlgorithm::Greedy,
        ] {
            let sol = algo
                .solve(
                    &instance,
                    &collection,
                    &SolveRequest::new(k).with_seed(seed),
                )
                .expect("bounded instance");
            let ratio = sol.influenced_samples as f64 / opt.influenced_samples as f64;
            table.push_row(vec![
                format!("trial{trial}"),
                k.to_string(),
                algo.name().to_string(),
                format!("{ratio:.3}"),
                format!("{:.3}", algo.approximation_ratio(r, h, k)),
            ]);
        }
    }
    table.emit(options.out_dir.as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_ablations_complete() {
        let options = ExpOptions::smoke();
        samples(&options).unwrap();
        btd(&options).unwrap();
    }

    #[test]
    fn quick_nonsub_and_ratios_complete() {
        let options = ExpOptions::smoke();
        nonsubmodularity(&options).unwrap();
        ratios(&options).unwrap();
    }
}
