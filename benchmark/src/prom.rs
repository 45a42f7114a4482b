//! Reading the program's Prometheus exposition from outside: parse the
//! text `imc_obs::encode::to_prometheus` renders and take deltas of a
//! family between two scrapes (the in-process daemons share one global
//! registry, so "per solve" means "after minus before").

use std::collections::BTreeMap;

/// One scrape: series (`name{labels}`) → value. Comment lines (`# HELP`,
/// `# TYPE`, `# EXEMPLAR`) and unparsable lines are skipped.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    series: BTreeMap<String, f64>,
}

impl Scrape {
    /// Parses exposition text.
    pub fn parse(text: &str) -> Scrape {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // The value is the last whitespace-separated token; label
            // values may themselves contain spaces.
            let Some((key, value)) = line.rsplit_once(' ') else {
                continue;
            };
            if let Ok(v) = value.parse::<f64>() {
                series.insert(key.trim().to_string(), v);
            }
        }
        Scrape { series }
    }

    /// Scrapes the process-wide registry.
    pub fn global() -> Scrape {
        Scrape::parse(&imc_obs::encode::to_prometheus(imc_obs::global()))
    }

    /// Sum of every series of family `name` (exact metric name, any
    /// labels) whose label text contains every fragment in `label_has`.
    pub fn sum(&self, name: &str, label_has: &[&str]) -> f64 {
        self.series
            .iter()
            .filter(|(key, _)| {
                let (metric, labels) = match key.split_once('{') {
                    Some((m, l)) => (m, l),
                    None => (key.as_str(), ""),
                };
                metric == name && label_has.iter().all(|frag| labels.contains(frag))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// `after.sum(..) − self.sum(..)`: how much a family grew between two
    /// scrapes.
    pub fn delta(&self, after: &Scrape, name: &str, label_has: &[&str]) -> f64 {
        after.sum(name, label_has) - self.sum(name, label_has)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# HELP imc_cluster_rpc_duration_seconds Shard RPC wall time.
# TYPE imc_cluster_rpc_duration_seconds histogram
imc_cluster_rpc_duration_seconds_bucket{op=\"eval_batch\",shard=\"127.0.0.1:1\",le=\"0.001\"} 5
imc_cluster_rpc_duration_seconds_sum{op=\"eval_batch\",shard=\"127.0.0.1:1\"} 0.5
imc_cluster_rpc_duration_seconds_count{op=\"eval_batch\",shard=\"127.0.0.1:1\"} 10
# EXEMPLAR imc_cluster_rpc_duration_seconds trace_id=\"abc\" value=0.4
imc_cluster_rpc_duration_seconds_count{op=\"eval_batch\",shard=\"127.0.0.1:2\"} 7
imc_cluster_rpc_duration_seconds_count{op=\"eval_seed\",shard=\"127.0.0.1:1\"} 3
imc_cluster_scatter_total 4
";

    const AFTER: &str = "\
imc_cluster_rpc_duration_seconds_sum{op=\"eval_batch\",shard=\"127.0.0.1:1\"} 0.75
imc_cluster_rpc_duration_seconds_count{op=\"eval_batch\",shard=\"127.0.0.1:1\"} 110
imc_cluster_rpc_duration_seconds_count{op=\"eval_batch\",shard=\"127.0.0.1:2\"} 107
imc_cluster_rpc_duration_seconds_count{op=\"eval_seed\",shard=\"127.0.0.1:1\"} 28
imc_cluster_rpc_duration_seconds_count{op=\"eval_begin\",shard=\"127.0.0.1:3\"} 1
imc_cluster_scatter_total 104
";

    #[test]
    fn sums_a_family_across_labels_and_skips_comments() {
        let s = Scrape::parse(BEFORE);
        let count = "imc_cluster_rpc_duration_seconds_count";
        assert_eq!(s.sum(count, &[]), 20.0);
        assert_eq!(s.sum(count, &["op=\"eval_batch\""]), 17.0);
        assert_eq!(s.sum(count, &["op=\"eval_batch\"", "127.0.0.1:2"]), 7.0);
        // `_count` must not pick up `_bucket` or `_sum` of the same family.
        assert_eq!(s.sum("imc_cluster_rpc_duration_seconds_sum", &[]), 0.5);
        assert_eq!(s.sum("imc_cluster_scatter_total", &[]), 4.0);
        assert_eq!(s.sum("absent", &[]), 0.0);
    }

    #[test]
    fn deltas_cover_series_that_appear_between_scrapes() {
        let before = Scrape::parse(BEFORE);
        let after = Scrape::parse(AFTER);
        let count = "imc_cluster_rpc_duration_seconds_count";
        // 100 + 100 + 25 + 1 new series.
        assert_eq!(before.delta(&after, count, &[]), 226.0);
        assert_eq!(before.delta(&after, count, &["eval_batch"]), 200.0);
        let sum = before.delta(&after, "imc_cluster_rpc_duration_seconds_sum", &[]);
        assert!((sum - 0.25).abs() < 1e-12);
    }

    #[test]
    fn parses_the_real_encoder_output() {
        let registry = imc_obs::Registry::new();
        registry
            .counter_with("bench_probe_total", "probe", &[("op", "a b")])
            .inc();
        let text = imc_obs::encode::to_prometheus(&registry);
        let s = Scrape::parse(&text);
        assert_eq!(s.sum("bench_probe_total", &["op=\"a b\""]), 1.0);
    }
}
