//! Upper Bound Greedy (Algorithm 2) — the Sandwich Approximation.
//!
//! Runs greedy twice: once on the submodular upper bound `ν_R` and once
//! on the true objective `ĉ_R`, then keeps whichever seed set scores
//! higher under `ĉ_R`. By Theorem 2 the winner carries a
//! data-dependent guarantee of `(ĉ_R(S_ν)/ν_R(S_ν))·(1 − 1/e)` — the ratio
//! reported in the paper's Fig. 8.

use crate::maxr::solver::{evaluate, Selection, SolveBackend, SolverExtras};

/// UBG (Alg. 2) over any [`SolveBackend`]. Both greedy passes route
/// through the shared engine so the sandwich bound uses identical pick
/// logic to every other consumer — the backend's
/// [`greedy_pair`](SolveBackend::greedy_pair) may run them at once; the
/// winner's score doubles as the report's. `total_benefit` scales the two
/// estimators.
pub(crate) fn ubg_over<B: SolveBackend>(
    backend: &mut B,
    total_benefit: f64,
    k: usize,
) -> Result<Selection, B::Error> {
    let [nu_run, c_run] = backend.greedy_pair(k)?;
    let evaluations = nu_run.evaluations + c_run.evaluations;
    let (s_nu, s_c) = (nu_run.seeds, c_run.seeds);
    let score_nu = evaluate(backend, "UBG", &s_nu)?;
    let score_c = evaluate(backend, "UBG", &s_c)?;
    let c_of_nu = score_nu.estimate(total_benefit);
    let nu_of_nu = score_nu.nu_estimate(total_benefit);
    let sandwich_ratio = if nu_of_nu > 0.0 {
        c_of_nu / nu_of_nu
    } else {
        1.0
    };
    let chose_nu = c_of_nu >= score_c.estimate(total_benefit);
    Ok(Selection {
        seeds: if chose_nu { s_nu.clone() } else { s_c.clone() },
        evaluations,
        score: Some(if chose_nu { score_nu } else { score_c }),
        extras: SolverExtras::Ubg {
            s_nu,
            s_c,
            chose_nu,
            sandwich_ratio,
        },
    })
}

#[cfg(test)]
mod tests {
    use crate::maxr::engine::greedy_over;
    use crate::maxr::testutil::{instance, sample};
    use crate::maxr::{Objective, Score};
    use crate::objective::tests::{sample_of_width, NODES};
    use crate::{
        ImcInstance, LocalSource, MaxrAlgorithm, RicSample, RicStore, SolveReport, SolveRequest,
        SolverExtras,
    };
    use imc_graph::NodeId;
    use proptest::prelude::*;

    /// The UBG report plus its `(s_nu, s_c, chose_nu, sandwich_ratio)`.
    type Ubg = (SolveReport, Vec<NodeId>, Vec<NodeId>, bool, f64);

    fn run((inst, col): &(ImcInstance, RicStore), k: usize) -> Ubg {
        let report = MaxrAlgorithm::Ubg
            .solve(inst, col, &SolveRequest::new(k))
            .unwrap();
        let SolverExtras::Ubg {
            s_nu,
            s_c,
            chose_nu,
            sandwich_ratio,
        } = report.extras.clone()
        else {
            panic!("UBG must report sandwich extras");
        };
        (report, s_nu, s_c, chose_nu, sandwich_ratio)
    }

    /// ĉ-greedy gets trapped: with k = 2, sample 0 (h=2) needs nodes
    /// {0, 1}; node 2 gives an immediate unit gain on sample 1 but wastes
    /// budget. ν-greedy prefers 0/1 (gain 1/2 each on three h=2 samples).
    fn sandwich_collection() -> (ImcInstance, RicStore) {
        let pair = sample(0, 2, 2, &[(0, &[0]), (1, &[1])]);
        let samples = [
            pair.clone(),
            pair.clone(),
            pair,
            sample(1, 1, 1, &[(2, &[0])]),
        ];
        (
            instance(4, &[(&[0, 1], 2, 2.0), (&[2], 1, 2.0)]),
            RicStore::from_samples(4, 2, 4.0, &samples).unwrap(),
        )
    }

    /// The single `h = 1` sample `s` of the single community `members`.
    fn unit_threshold_case(members: &[u32], s: RicSample) -> (ImcInstance, RicStore) {
        (
            instance(3, &[(members, 1, 1.0)]),
            RicStore::from_samples(3, 1, 1.0, &[s]).unwrap(),
        )
    }

    #[test]
    fn ubg_beats_plain_greedy_on_trap() {
        let case = sandwich_collection();
        let (report, s_nu, s_c, chose_nu, _) = run(&case, 2);
        // Plain ĉ-greedy picks node 2 first (gain 1), then one of {0,1}:
        // total influenced = 1. ν-greedy picks {0,1}: influenced = 3.
        assert_eq!(case.1.influenced_count(&s_c), 1);
        assert_eq!(case.1.influenced_count(&s_nu), 3);
        assert!(chose_nu);
        // The winner's arbitration score is the report's.
        assert_eq!(report.seeds, s_nu);
        assert_eq!(report.influenced_samples, 3);
        assert_eq!(report.estimate, case.1.estimate(&s_nu));
    }

    #[test]
    fn sandwich_ratio_in_unit_interval() {
        let case = sandwich_collection();
        let (_, s_nu, _, _, ratio) = run(&case, 2);
        assert!(ratio > 0.0 && ratio <= 1.0 + 1e-12);
        assert_eq!(ratio, case.1.estimate(&s_nu) / case.1.nu_estimate(&s_nu));
    }

    #[test]
    fn ratio_is_one_when_thresholds_are_one() {
        // Lemma 4: with h = 1 everywhere, ĉ_R == ν_R.
        let case = unit_threshold_case(&[0, 1], sample(0, 1, 2, &[(0, &[0]), (1, &[1])]));
        let (report, _, _, _, ratio) = run(&case, 1);
        assert!((ratio - 1.0).abs() < 1e-12);
        assert_eq!(
            case.1.estimate(&report.seeds),
            case.1.nu_estimate(&report.seeds)
        );
    }

    #[test]
    fn chooses_c_when_it_wins() {
        // One h=1 sample reachable only by node 2; ν and ĉ agree, but make
        // s_c the winner by giving node 2 the only coverage.
        let case = unit_threshold_case(&[2], sample(0, 1, 1, &[(2, &[0])]));
        let (report, ..) = run(&case, 1);
        assert_eq!(report.seeds, vec![NodeId::new(2)]);
        assert_eq!(report.influenced_samples, 1);
    }

    #[test]
    fn seeds_have_requested_size() {
        let (report, s_nu, s_c, ..) = run(&sandwich_collection(), 3);
        assert_eq!((report.seeds.len(), s_nu.len(), s_c.len()), (3, 3, 3));
    }

    /// 1–11 samples of `width` members over the shared proptest nodes.
    fn samples(width: std::ops::RangeInclusive<u32>) -> impl Strategy<Value = Vec<RicSample>> {
        prop::collection::vec(sample_of_width(width), 1..12)
    }

    proptest! {
        /// UBG is two engine greedies and one arbitration, whether or not
        /// the backend runs the greedies at once: its `s_nu`, `s_c`,
        /// evaluation count and sandwich ratio are what two direct
        /// `greedy_over` runs give, on 1-, 2- and 3-limb stores.
        #[test]
        fn ubg_equals_two_direct_greedy_runs(
            stores in (samples(1..=64), samples(65..=128), samples(129..=192)),
            k in 1usize..6,
        ) {
            for samples in [stores.0, stores.1, stores.2] {
                let store = RicStore::from_samples(NODES as usize, 1, 2.0, &samples).unwrap();
                let case = (instance(NODES, &[(&[0], 1, 2.0)]), store);
                let (report, s_nu, s_c, _, ratio) = run(&case, k);
                let store = &case.1;
                let (nu, _) = greedy_over(&mut LocalSource::new(store), Objective::Nu, k);
                let (c, _) = greedy_over(&mut LocalSource::new(store), Objective::C, k);
                prop_assert_eq!(report.evaluations, nu.evaluations + c.evaluations);
                let score = Score::of(store, &nu.seeds);
                let (c_of_nu, nu_of_nu) = (score.estimate(2.0), score.nu_estimate(2.0));
                let expected = if nu_of_nu > 0.0 { c_of_nu / nu_of_nu } else { 1.0 };
                prop_assert_eq!(ratio.to_bits(), expected.to_bits());
                prop_assert_eq!(s_nu, nu.seeds);
                prop_assert_eq!(s_c, c.seeds);
            }
        }
    }

    #[test]
    fn deterministic() {
        let case = sandwich_collection();
        let (a, b) = (run(&case, 2).0, run(&case, 2).0);
        assert_eq!((a.seeds, a.extras), (b.seeds, b.extras));
    }
}
