//! Empirical diagnostics for the shape of the MAXR objective.
//!
//! The paper's central structural claim is that `ĉ_R` is **neither
//! submodular nor supermodular** (Lemma 2 / Fig. 2). This module measures
//! that: it samples random triples `(S, v, w)` and classifies the marginal
//! pattern, quantifying *how* non-submodular a given instance is — the
//! quantity that governs when the UBG sandwich is tight (Fig. 8) and when
//! plain greedy is safe.

use crate::RicSamples;
use imc_graph::NodeId;
use rand::Rng;

/// Counts of marginal-gain patterns observed by [`probe_submodularity`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmodularityReport {
    /// Trials where `gain(v | S ∪ {w}) ≤ gain(v | S)` (submodular-like).
    pub diminishing: u64,
    /// Trials where `gain(v | S ∪ {w}) > gain(v | S)` — submodularity
    /// violations (supermodular behavior).
    pub increasing: u64,
    /// Trials skipped because `v ∈ S ∪ {w}` after sampling.
    pub skipped: u64,
}

impl SubmodularityReport {
    /// Total non-skipped trials.
    pub fn trials(&self) -> u64 {
        self.diminishing + self.increasing
    }

    /// Fraction of trials violating submodularity (0 when no trials ran).
    pub fn violation_rate(&self) -> f64 {
        let t = self.trials();
        if t == 0 {
            0.0
        } else {
            self.increasing as f64 / t as f64
        }
    }

    /// `true` when at least one violation was observed — a *certificate*
    /// that the objective is not submodular on this collection.
    pub fn is_non_submodular(&self) -> bool {
        self.increasing > 0
    }
}

/// Samples `trials` random triples `(S, v, w)` with `|S| ≤ max_base` and
/// compares `v`'s marginal before and after adding `w` to `S`.
///
/// Submodularity would require the marginal never to increase; every
/// `increasing` count is a concrete counterexample like the paper's
/// Fig. 2.
pub fn probe_submodularity<C: RicSamples, R: Rng + ?Sized>(
    collection: &C,
    max_base: usize,
    trials: u64,
    rng: &mut R,
) -> SubmodularityReport {
    let n = collection.node_count() as u32;
    let mut report = SubmodularityReport::default();
    if n < 2 || collection.is_empty() {
        return report;
    }
    for _ in 0..trials {
        let base_size = rng.random_range(0..=max_base);
        let mut base: Vec<NodeId> = (0..base_size)
            .map(|_| NodeId::new(rng.random_range(0..n)))
            .collect();
        base.sort();
        base.dedup();
        let v = NodeId::new(rng.random_range(0..n));
        let w = NodeId::new(rng.random_range(0..n));
        if v == w || base.contains(&v) || base.contains(&w) {
            report.skipped += 1;
            continue;
        }
        let s = collection.influenced_count(&base);
        let mut with_v = base.clone();
        with_v.push(v);
        let sv = collection.influenced_count(&with_v);
        let mut with_w = base.clone();
        with_w.push(w);
        let sw = collection.influenced_count(&with_w);
        let mut with_vw = with_w;
        with_vw.push(v);
        let svw = collection.influenced_count(&with_vw);
        let gain_before = sv - s;
        let gain_after = svw - sw;
        if gain_after > gain_before {
            report.increasing += 1;
        } else {
            report.diminishing += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxr::testutil::sample;
    use crate::RicStore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The paper's Lemma 2 instance: one sample, two members, each covered
    /// only by itself — the canonical supermodular trap.
    fn lemma2_collection() -> RicStore {
        let samples = [sample(0, 2, 2, &[(0, &[0]), (1, &[1])])];
        RicStore::from_samples(2, 1, 1.0, &samples).unwrap()
    }

    #[test]
    fn lemma2_violation_detected() {
        let col = lemma2_collection();
        let mut rng = StdRng::seed_from_u64(1);
        let report = probe_submodularity(&col, 1, 500, &mut rng);
        assert!(report.is_non_submodular(), "{report:?}");
        assert!(report.violation_rate() > 0.0);
    }

    #[test]
    fn unit_thresholds_are_submodular() {
        // All h = 1: coverage is a union — genuinely submodular, so no
        // violations can appear.
        let samples: Vec<_> = (0..3)
            .map(|node| sample(0, 1, 1, &[(node, &[0])]))
            .collect();
        let col = RicStore::from_samples(3, 1, 1.0, &samples).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let report = probe_submodularity(&col, 2, 2_000, &mut rng);
        assert!(!report.is_non_submodular(), "{report:?}");
        assert!(report.trials() > 0);
    }

    #[test]
    fn empty_collection_reports_nothing() {
        let col = RicStore::new(5, 1, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let report = probe_submodularity(&col, 2, 100, &mut rng);
        assert_eq!(report.trials(), 0);
        assert_eq!(report.violation_rate(), 0.0);
    }

    #[test]
    fn report_accounting_consistent() {
        let col = lemma2_collection();
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 300;
        let report = probe_submodularity(&col, 1, trials, &mut rng);
        assert_eq!(
            report.diminishing + report.increasing + report.skipped,
            trials
        );
    }
}
