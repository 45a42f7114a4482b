//! Fig. 8 — UBG's data-dependent sandwich ratio `c(S_ν)/ν(S_ν)` vs `k`.
//!
//! `S_ν` is the greedy solution for the submodular upper bound; the ratio
//! multiplies into UBG's guarantee (Theorem 2). The paper computes both
//! quantities by Monte Carlo and observes: the ratio grows toward 1 with
//! `k`, and is much higher under bounded thresholds (`h = 2`) than the
//! regular 50% thresholds — in the limit `h = 1` the ratio is exactly 1
//! (Lemma 4).

use crate::experiments::ExpOptions;
use crate::harness::{build_instance, dataset_graph, Formation};
use crate::report::{fmt_f, Table};
use imc_community::ThresholdPolicy;
use imc_core::maxr::engine::greedy_nu_with;
use imc_core::{RicStore, SolveStrategy};
use imc_datasets::DatasetId;
use imc_diffusion::benefit::{monte_carlo_benefit, monte_carlo_fractional_benefit};
use imc_diffusion::IndependentCascade;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the experiment and prints/writes the table.
pub fn run(options: &ExpOptions) -> std::io::Result<()> {
    let ks: &[usize] = if options.quick {
        &[5, 20]
    } else {
        &[5, 10, 20, 50]
    };
    let datasets: &[(DatasetId, f64)] = if options.quick {
        &[(DatasetId::Facebook, 0.4)]
    } else {
        &[(DatasetId::Facebook, 1.0), (DatasetId::WikiVote, 0.3)]
    };
    let regimes: &[(&str, ThresholdPolicy)] = &[
        ("bounded h=2", ThresholdPolicy::Constant(2)),
        ("regular 50%", ThresholdPolicy::Fraction(0.5)),
    ];
    let sample_count = if options.quick { 4_000 } else { 12_000 };
    let mc_runs = if options.quick { 4_000 } else { 12_000 };

    let mut table = Table::new(
        "Fig 8 - UBG sandwich ratio c(S_nu)/nu(S_nu) vs k",
        &["dataset", "regime", "k", "c(S_nu)", "nu(S_nu)", "ratio"],
    );
    for &(dataset, ds_scale) in datasets {
        let graph = dataset_graph(dataset, ds_scale * options.scale, options.seed);
        for &(regime_name, threshold) in regimes {
            let instance = build_instance(&graph, Formation::Louvain, 8, threshold, options.seed);
            let sampler = instance.sampler();
            let mut collection = RicStore::for_sampler(&sampler);
            let mut rng = StdRng::seed_from_u64(options.seed);
            collection.extend_with(&sampler, sample_count, &mut rng);
            for &k in ks {
                let s_nu = greedy_nu_with(&collection, k, SolveStrategy::Lazy).seeds;
                let c = monte_carlo_benefit(
                    instance.graph(),
                    instance.communities(),
                    &IndependentCascade,
                    &s_nu,
                    mc_runs,
                    options.seed + 7,
                );
                let nu = monte_carlo_fractional_benefit(
                    instance.graph(),
                    instance.communities(),
                    &IndependentCascade,
                    &s_nu,
                    mc_runs,
                    options.seed + 7,
                );
                let ratio = if nu > 0.0 { c / nu } else { 1.0 };
                table.push_row(vec![
                    imc_datasets::spec(dataset).name.to_string(),
                    regime_name.to_string(),
                    k.to_string(),
                    fmt_f(c),
                    fmt_f(nu),
                    format!("{ratio:.3}"),
                ]);
            }
        }
    }
    table.emit(options.out_dir.as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_completes() {
        let options = ExpOptions::smoke();
        run(&options).unwrap();
    }
}
