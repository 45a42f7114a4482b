//! MB — the combination of MAF and BT (Section IV-C).
//!
//! Runs both algorithms and keeps the seed set influencing more samples.
//! Theorem 5: since `ĉ(S_MB)² ≥ ĉ(S_MAF)·ĉ(S_BT)` and the two ratios
//! multiply to `(1−1/e)/k · ⌊k/2⌋/r`, MB is
//! `Θ(√((1−1/e)/r))`-approximate for thresholds `≤ 2` — tight to the
//! `O(r^{1/2(log log r)^c})` inapproximability of Theorem 1.

use crate::maxr::bt::bt_over;
use crate::maxr::maf::maf_over;
use crate::maxr::solver::{evaluate, Selection, SolveBackend, SolverExtras};
use imc_community::CommunitySet;

/// MB (Thm. 5) over any [`SolveBackend`]; thresholds must be ≤ 2 (checked
/// by the dispatch). `seed` drives MAF's random member picks. `threads`
/// only accelerates the BT half (its pivot loop may fan out); MAF is
/// already linear-time. The evaluation count is both halves plus the two
/// final `ĉ_R` comparisons, whose winner's score doubles as the report's.
pub(crate) fn mb_over<B: SolveBackend>(
    backend: &mut B,
    communities: &CommunitySet,
    k: usize,
    seed: u64,
    threads: usize,
) -> Result<Selection, B::Error> {
    let maf = maf_over(backend, communities, k, seed)?;
    let bt = bt_over(backend, k, 2, None, threads)?;
    let maf_score = evaluate(backend, "MB", &maf.seeds)?;
    let bt_score = evaluate(backend, "MB", &bt.seeds)?;
    let chose_bt = bt_score.influenced > maf_score.influenced;
    Ok(Selection {
        seeds: if chose_bt {
            bt.seeds.clone()
        } else {
            maf.seeds.clone()
        },
        evaluations: maf.evaluations + bt.evaluations + 2,
        score: Some(if chose_bt { bt_score } else { maf_score }),
        extras: SolverExtras::Mb {
            maf_seeds: maf.seeds,
            bt_seeds: bt.seeds,
            chose_bt,
        },
    })
}

#[cfg(test)]
mod tests {
    use crate::maxr::testutil::{instance, sample};
    use crate::{ImcInstance, MaxrAlgorithm, RicStore, SolveReport, SolveRequest, SolverExtras};

    /// Hub node 4 covers member 0 in both communities' samples; nodes
    /// 0..4 cover themselves.
    fn setup() -> (ImcInstance, RicStore) {
        let samples = [
            sample(0, 2, 2, &[(0, &[0]), (1, &[1]), (4, &[0])]),
            sample(1, 2, 2, &[(2, &[0]), (3, &[1]), (4, &[0])]),
        ];
        (
            instance(6, &[(&[0, 1], 2, 2.0), (&[2, 3], 2, 2.0)]),
            RicStore::from_samples(6, 2, 4.0, &samples).unwrap(),
        )
    }

    fn run((inst, col): &(ImcInstance, RicStore), k: usize, seed: u64) -> SolveReport {
        MaxrAlgorithm::Mb
            .solve(inst, col, &SolveRequest::new(k).with_seed(seed))
            .unwrap()
    }

    #[test]
    fn mb_at_least_as_good_as_both_parts() {
        let case = setup();
        for k in 1..=4 {
            let out = run(&case, k, 9);
            let SolverExtras::Mb {
                maf_seeds,
                bt_seeds,
                chose_bt,
            } = &out.extras
            else {
                panic!("MB must report both candidates");
            };
            assert_eq!(&out.seeds, if *chose_bt { bt_seeds } else { maf_seeds });
            assert!(out.influenced_samples >= case.1.influenced_count(maf_seeds));
            assert!(out.influenced_samples >= case.1.influenced_count(bt_seeds));
        }
    }

    #[test]
    fn mb_k3_uses_hub() {
        // With k=3, {4, 1, 3} influences both samples (hub covers member 0
        // in each). MAF's community strategy can win only one; BT finds the
        // hub.
        assert_eq!(run(&setup(), 3, 1).influenced_samples, 2);
    }

    #[test]
    fn theorem5_bound_sanity() {
        let case = setup();
        let k = 2;
        let r = case.0.community_count() as f64;
        let bound = ((1.0 - 1.0 / std::f64::consts::E) / r * ((k / 2) as f64 / k as f64)).sqrt();
        // OPT(k=2) influences 1 sample.
        let opt = 1.0;
        assert!(run(&case, k, 3).influenced_samples as f64 >= bound * opt);
    }

    #[test]
    fn seeds_sized_k() {
        assert_eq!(run(&setup(), 4, 2).seeds.len(), 4);
    }

    #[test]
    fn deterministic_under_seed() {
        let case = setup();
        let (a, b) = (run(&case, 3, 5), run(&case, 3, 5));
        assert_eq!((a.seeds, a.extras), (b.seeds, b.extras));
    }
}
