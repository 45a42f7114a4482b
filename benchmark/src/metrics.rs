//! The benchmark's vocabulary: every metric it reports, with unit,
//! direction, regression bound (end-to-end only) and whether the value is
//! an *exact* count that must repeat bit-for-bit. `BENCHMARK.json` and
//! the README tables are checked against these lists by tests.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, `layer.metric` for per-layer metrics.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end only: share of the parent's median the metric may
    /// worsen by.
    pub bound: Option<f64>,
    /// Repeats bit-for-bit for a fixed seed; asserted equal between runs.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Reported by every workload, from the
/// untraced run. (`failed_share` is not a metric here because it is 0 on
/// a healthy run; failures are the `failed`/`attempted` pair of the
/// result line and fail the run.)
///
/// The timing bounds are the largest the contract allows because the
/// reference box drifts by a tenth and more over minutes (measured
/// spreads are in the README). The tail percentiles could not repeat
/// within any allowed bound (`estimate_p99_us` spread 23–28 % over 1,000
/// samples, `estimate_p90_us` up to 22 % as the median of twelve slices)
/// and were demoted to the per-layer list, as ISSUE 11 prescribes.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("solve_s", "s", Lower, 0.25),
    e2e("estimate_p50_us", "us", Lower, 0.25),
    e2e("estimate_rps", "1/s", Higher, 0.25),
    e2e("benefit_mc", "benefit", Higher, 0.03),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
];

/// One row per layer boundary, from the traced run. Every workload
/// reports every row, measured on its own instance and store.
pub const PER_LAYER: &[MetricDef] = &[
    layer("instance.build_s", "s", Lower),
    layer("generator.samples_per_s_1w", "1/s", Higher),
    layer("generator.samples_per_s_nproc", "1/s", Higher),
    exact("generator.nodes_per_sample", "count"),
    exact("store.arena_bytes", "bytes"),
    exact("store.index_entries", "count"),
    layer("store.scalar_evals_per_s", "1/s", Higher),
    layer("store.append_overhead_s", "s", Lower),
    layer("kernels.union_count_ns_per_word_2limb", "ns", Lower),
    layer("kernels.union_count_gbps_stream", "GB/s", Higher),
    layer("kernels.or_assign_count_gbps_stream", "GB/s", Higher),
    layer("objective.batched_evals_per_s", "1/s", Higher),
    layer("objective.eval_c_shard_us_per_node", "us", Lower),
    layer("objective.eval_nu_shard_us_per_node", "us", Lower),
    layer("engine.greedy_c_s", "s", Lower),
    layer("engine.greedy_nu_s", "s", Lower),
    layer("engine.maf_s", "s", Lower),
    exact("engine.evaluations_c", "count"),
    exact("engine.evaluations_nu", "count"),
    layer("engine.us_per_eval_c", "us", Lower),
    exact("imcaf.rounds", "count"),
    exact("imcaf.samples_used", "count"),
    exact("imcaf.checked_rounds", "count"),
    layer("imcaf.sampling_share", "share", Lower),
    exact("snapshot.bytes", "bytes"),
    layer("snapshot.encode_s", "s", Lower),
    layer("snapshot.decode_s", "s", Lower),
    layer("snapshot.view_open_us", "us", Lower),
    layer("json.parse_eval_batch_us", "us", Lower),
    layer("json.encode_gains_us", "us", Lower),
    layer("protocol.parse_request_us", "us", Lower),
    layer("service.ping_p50_us", "us", Lower),
    layer("service.added_solve_s", "s", Lower),
    layer("service.added_estimate_us", "us", Lower),
    exact("cluster.rpcs_per_solve", "count"),
    layer("cluster.rpc_s_per_solve", "s", Lower),
    layer("cluster.us_per_rpc", "us", Lower),
    layer("cluster.added_solve_s", "s", Lower),
    layer("cluster.solve_s_1shard", "s", Lower),
    layer("cluster.compute_share", "share", Lower),
    layer("cluster.scatter_wait_share", "share", Lower),
    layer("cluster.reduce_share", "share", Lower),
    layer("demoted.estimate_p90_us", "us", Lower),
    layer("demoted.estimate_p99_us", "us", Lower),
    layer("obs.trace_overhead_share", "share", Lower),
    layer("obs.metrics_render_us", "us", Lower),
];

/// Looks a metric up by name in both lists.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name (declared, or a ledger-only extra).
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Samples behind the value (repetitions, requests, iterations).
    pub n: u64,
}

/// An ordered set of measured values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    values: Vec<Measured>,
}

impl MetricSet {
    /// Records a declared metric; the unit comes from its definition.
    ///
    /// # Panics
    ///
    /// On an undeclared name or a non-finite value: both are bugs in the
    /// benchmark, and a silent NaN would poison every later comparison.
    pub fn put(&mut self, name: &str, value: f64, n: u64) {
        let def = find(name).unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        self.put_extra(name, value, def.unit, n);
    }

    /// Records a ledger-only extra (kept in the result file, not in the
    /// result line).
    pub fn put_extra(&mut self, name: &str, value: f64, unit: &str, n: u64) {
        assert!(value.is_finite(), "metric `{name}` measured {value}");
        self.values.push(Measured {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            n,
        });
    }

    /// The value of `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Every measured value, in recording order.
    pub fn iter(&self) -> impl Iterator<Item = &Measured> {
        self.values.iter()
    }

    /// Names of `declared` metrics that were not measured.
    pub fn missing(&self, declared: &[MetricDef]) -> Vec<&'static str> {
        declared
            .iter()
            .filter(|d| self.get(d.name).is_none())
            .map(|d| d.name)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn declarations_meet_the_benchmark_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s takes the largest bound"
        );
    }

    #[test]
    fn metric_set_tracks_missing_and_rejects_nan() {
        let mut set = MetricSet::default();
        set.put("solve_s", 1.25, 5);
        assert_eq!(set.get("solve_s"), Some(1.25));
        assert!(set.missing(END_TO_END).contains(&"setup_s"));
        assert!(!set.missing(END_TO_END).contains(&"solve_s"));
        let nan = std::panic::catch_unwind(|| {
            let mut s = MetricSet::default();
            s.put("solve_s", f64::NAN, 1);
        });
        assert!(nan.is_err());
        let undeclared = std::panic::catch_unwind(|| {
            let mut s = MetricSet::default();
            s.put("made_up", 1.0, 1);
        });
        assert!(undeclared.is_err());
    }
}
