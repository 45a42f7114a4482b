//! Cluster topology files.
//!
//! A topology is a tiny, hand-rolled TOML subset — `[section]` headers
//! and `key = value` pairs where values are integers, floats, booleans
//! or double-quoted strings. Comments start with `#`. That is all the
//! cluster runner needs, and it keeps the crate std-only (the container
//! image has no TOML crate and the repo policy forbids adding one).
//! Validation is strict: a key no field consumes (a typo, a mistyped
//! section, a key or section this version no longer has) is an error
//! naming it, never a silent default; so is an integer too large for
//! its field.
//!
//! ```toml
//! [cluster]
//! shards = 2
//! samples = 40000
//!
//! [instance]
//! dataset = "wiki-vote"
//! scale = 0.3
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::Path;

/// A parse or validation failure for a topology file.
#[derive(Debug)]
pub struct TopologyError {
    detail: String,
}

impl TopologyError {
    fn new(detail: impl Into<String>) -> Self {
        Self {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "topology: {}", self.detail)
    }
}

impl std::error::Error for TopologyError {}

/// One parsed scalar value.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Int(i64),
    Float(f64),
    Bool(bool),
    Str(String),
}

/// Flat `section.key -> value` view of a parsed file. Each getter takes
/// its entry out, so what is left after every field has been read is
/// exactly the set of keys nothing consumed.
#[derive(Debug, Default)]
struct Table {
    entries: BTreeMap<String, Scalar>,
}

impl Table {
    fn parse(text: &str) -> Result<Self, TopologyError> {
        let mut entries = BTreeMap::new();
        let mut section = String::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = match raw.find('#') {
                // A '#' inside a quoted string would break here; the
                // runner never writes such values, so reject them.
                Some(idx) if raw[..idx].matches('"').count() % 2 == 0 => &raw[..idx],
                Some(_) => {
                    return Err(TopologyError::new(format!(
                        "line {}: '#' inside a quoted value is unsupported",
                        lineno + 1
                    )))
                }
                None => raw,
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim();
                if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                    return Err(TopologyError::new(format!(
                        "line {}: invalid section name {name:?}",
                        lineno + 1
                    )));
                }
                section = name.to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(TopologyError::new(format!(
                    "line {}: expected `key = value`, got {line:?}",
                    lineno + 1
                )));
            };
            let key = key.trim();
            if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(TopologyError::new(format!(
                    "line {}: invalid key {key:?}",
                    lineno + 1
                )));
            }
            let scalar = Self::parse_scalar(value.trim()).ok_or_else(|| {
                TopologyError::new(format!(
                    "line {}: cannot parse value {:?}",
                    lineno + 1,
                    value.trim()
                ))
            })?;
            let full = if section.is_empty() {
                key.to_string()
            } else {
                format!("{section}.{key}")
            };
            if entries.insert(full.clone(), scalar).is_some() {
                return Err(TopologyError::new(format!("duplicate key {full:?}")));
            }
        }
        Ok(Self { entries })
    }

    fn parse_scalar(text: &str) -> Option<Scalar> {
        if let Some(body) = text.strip_prefix('"').and_then(|t| t.strip_suffix('"')) {
            if body.contains('"') || body.contains('\\') {
                return None;
            }
            return Some(Scalar::Str(body.to_string()));
        }
        match text {
            "true" => return Some(Scalar::Bool(true)),
            "false" => return Some(Scalar::Bool(false)),
            _ => {}
        }
        if let Ok(i) = text.parse::<i64>() {
            return Some(Scalar::Int(i));
        }
        if text.contains(['.', 'e', 'E']) {
            if let Ok(f) = text.parse::<f64>() {
                return Some(Scalar::Float(f));
            }
        }
        None
    }

    fn u64(&mut self, key: &str, default: u64) -> Result<u64, TopologyError> {
        match self.entries.remove(key) {
            None => Ok(default),
            Some(Scalar::Int(i)) if i >= 0 => Ok(i as u64),
            Some(other) => Err(TopologyError::new(format!(
                "{key} must be a non-negative integer, got {other:?}"
            ))),
        }
    }

    fn u32(&mut self, key: &str, default: u32) -> Result<u32, TopologyError> {
        let value = self.u64(key, u64::from(default))?;
        u32::try_from(value).map_err(|_| {
            TopologyError::new(format!("{key} must be at most {}, got {value}", u32::MAX))
        })
    }

    fn f64(&mut self, key: &str, default: f64) -> Result<f64, TopologyError> {
        match self.entries.remove(key) {
            None => Ok(default),
            Some(Scalar::Float(f)) => Ok(f),
            Some(Scalar::Int(i)) => Ok(i as f64),
            Some(other) => Err(TopologyError::new(format!(
                "{key} must be a number, got {other:?}"
            ))),
        }
    }

    fn string(&mut self, key: &str, default: &str) -> Result<String, TopologyError> {
        match self.entries.remove(key) {
            None => Ok(default.to_string()),
            Some(Scalar::Str(s)) => Ok(s),
            Some(other) => Err(TopologyError::new(format!(
                "{key} must be a string, got {other:?}"
            ))),
        }
    }

    fn bool(&mut self, key: &str, default: bool) -> Result<bool, TopologyError> {
        match self.entries.remove(key) {
            None => Ok(default),
            Some(Scalar::Bool(b)) => Ok(b),
            Some(other) => Err(TopologyError::new(format!(
                "{key} must be true or false, got {other:?}"
            ))),
        }
    }
}

/// A parsed and validated cluster topology.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Number of shard daemons (each owns one sampling-plan partition).
    pub shards: usize,
    /// Sampling worker threads per shard.
    pub workers: usize,
    /// Base RNG seed for the sampling plan shared by every shard.
    pub base_seed: u64,
    /// Total RIC samples across the whole cluster.
    pub samples: usize,
    /// Seed-set budget used by the runner's solve check.
    pub k: u32,
    /// Dataset identifier (as accepted by `imc-datasets`).
    pub dataset: String,
    /// Dataset scale factor for synthetic analogs.
    pub scale: f64,
    /// Louvain community size cap (`split_larger_than`).
    pub size_cap: usize,
    /// Constant community threshold.
    pub threshold: u32,
    /// Instance-construction seed (Louvain + dataset generation).
    pub instance_seed: u64,
    /// Directory for per-shard snapshot caching (empty disables it).
    /// When set, each shard daemon persists its sampling-plan
    /// partition as a format-v3 snapshot and cold-starts from it on
    /// the next run instead of re-drawing the samples.
    pub snapshot_dir: String,
    /// Retry attempts per stateless shard RPC (minimum 1 = no retry).
    pub retry_attempts: u32,
    /// Backoff before the first retry, in milliseconds.
    pub retry_base_ms: u64,
    /// Cap on any single backoff delay, in milliseconds.
    pub retry_cap_ms: u64,
    /// Jitter fraction in `[0, 1]` applied to each backoff delay.
    pub retry_jitter: f64,
    /// Cap on one health-probe (`ping`) round-trip, in milliseconds.
    pub probe_timeout_ms: u64,
    /// Whether the coordinator degrades (answers `approximate` over the
    /// surviving shards) instead of failing when a shard dies.
    pub degrade: bool,
}

impl Topology {
    /// Parse a topology from TOML text.
    pub fn parse(text: &str) -> Result<Self, TopologyError> {
        let mut table = Table::parse(text)?;
        let topo = Self {
            shards: table.u64("cluster.shards", 2)? as usize,
            workers: table.u64("cluster.workers", 2)? as usize,
            base_seed: table.u64("cluster.base_seed", 1234)?,
            samples: table.u64("cluster.samples", 40_000)? as usize,
            k: table.u32("cluster.k", 25)?,
            dataset: table.string("instance.dataset", "wiki-vote")?,
            scale: table.f64("instance.scale", 0.3)?,
            size_cap: table.u64("instance.size_cap", 8)? as usize,
            threshold: table.u32("instance.threshold", 2)?,
            instance_seed: table.u64("instance.seed", 1)?,
            snapshot_dir: table.string("cluster.snapshot_dir", "")?,
            retry_attempts: table.u32("fault.retry_attempts", 3)?,
            retry_base_ms: table.u64("fault.retry_base_ms", 50)?,
            retry_cap_ms: table.u64("fault.retry_cap_ms", 2_000)?,
            retry_jitter: table.f64("fault.retry_jitter", 0.2)?,
            probe_timeout_ms: table.u64("fault.probe_timeout_ms", 500)?,
            degrade: table.bool("fault.degrade", true)?,
        };
        if let Some(key) = table.entries.keys().next() {
            return Err(TopologyError::new(format!("unknown key {key:?}")));
        }
        topo.validate()?;
        Ok(topo)
    }

    /// Load and parse a topology file from disk.
    pub fn load(path: &Path) -> Result<Self, TopologyError> {
        let text = fs::read_to_string(path)
            .map_err(|e| TopologyError::new(format!("cannot read {}: {e}", path.display())))?;
        Self::parse(&text)
    }

    fn validate(&self) -> Result<(), TopologyError> {
        if self.shards == 0 {
            return Err(TopologyError::new("cluster.shards must be at least 1"));
        }
        if self.workers == 0 {
            return Err(TopologyError::new("cluster.workers must be at least 1"));
        }
        if self.samples == 0 {
            return Err(TopologyError::new("cluster.samples must be at least 1"));
        }
        // The partition rule of `RicStore::extend_partition`: every shard
        // daemon owns an equal slice of the fixed sampling-shard plan, and a
        // draw too small to be sharded cannot be split at all. imc-core
        // asserts both; a topology file must not be able to reach them.
        let plan_shards = imc_core::DEFAULT_SAMPLING_SHARDS;
        if !plan_shards.is_multiple_of(self.shards) {
            return Err(TopologyError::new(format!(
                "cluster.shards = {} must divide the {plan_shards} sampling shards evenly \
                 (DEFAULT_SAMPLING_SHARDS % shards == 0)",
                self.shards
            )));
        }
        if self.shards > 1
            && imc_core::sampling_shard_plan(self.samples, self.base_seed, plan_shards).len()
                != plan_shards
        {
            return Err(TopologyError::new(format!(
                "cluster.samples = {} is too small to split across {} shards \
                 (samples >= 64 when shards > 1)",
                self.samples, self.shards
            )));
        }
        if self.k == 0 {
            return Err(TopologyError::new("cluster.k must be at least 1"));
        }
        if !(self.scale > 0.0 && self.scale.is_finite()) {
            return Err(TopologyError::new(
                "instance.scale must be a positive number",
            ));
        }
        if self.threshold == 0 {
            return Err(TopologyError::new("instance.threshold must be at least 1"));
        }
        if self.retry_attempts == 0 {
            return Err(TopologyError::new(
                "fault.retry_attempts must be at least 1 (1 = no retry)",
            ));
        }
        if !(0.0..=1.0).contains(&self.retry_jitter) {
            return Err(TopologyError::new("fault.retry_jitter must be in [0, 1]"));
        }
        if self.probe_timeout_ms == 0 {
            return Err(TopologyError::new(
                "fault.probe_timeout_ms must be at least 1",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_topology() {
        let text = r#"
            # two-shard smoke topology
            [cluster]
            shards = 2
            workers = 3
            base_seed = 99
            samples = 1024
            k = 7
            snapshot_dir = "cache/shards"

            [instance]
            dataset = "wiki-vote"  # synthetic analog
            scale = 0.25
            size_cap = 8
            threshold = 2
            seed = 5

            [fault]
            retry_attempts = 4
            retry_base_ms = 10
            retry_cap_ms = 100
            retry_jitter = 0.1
            probe_timeout_ms = 250
            degrade = false
        "#;
        let topo = Topology::parse(text).unwrap();
        assert_eq!(topo.shards, 2);
        assert_eq!(topo.workers, 3);
        assert_eq!(topo.base_seed, 99);
        assert_eq!(topo.samples, 1024);
        assert_eq!(topo.k, 7);
        assert_eq!(topo.dataset, "wiki-vote");
        assert!((topo.scale - 0.25).abs() < 1e-12);
        assert_eq!(topo.size_cap, 8);
        assert_eq!(topo.threshold, 2);
        assert_eq!(topo.instance_seed, 5);
        assert_eq!(topo.snapshot_dir, "cache/shards");
        assert_eq!(topo.retry_attempts, 4);
        assert_eq!(topo.retry_base_ms, 10);
        assert_eq!(topo.retry_cap_ms, 100);
        assert!((topo.retry_jitter - 0.1).abs() < 1e-12);
        assert_eq!(topo.probe_timeout_ms, 250);
        assert!(!topo.degrade);
    }

    #[test]
    fn defaults_fill_missing_sections() {
        let topo = Topology::parse("[cluster]\nshards = 4\n").unwrap();
        assert_eq!(topo.shards, 4);
        assert_eq!(topo.samples, 40_000);
        assert_eq!(topo.dataset, "wiki-vote");
        assert_eq!(topo.snapshot_dir, "");
        assert_eq!(topo.retry_attempts, 3);
        assert_eq!(topo.retry_base_ms, 50);
        assert_eq!(topo.retry_cap_ms, 2_000);
        assert_eq!(topo.probe_timeout_ms, 500);
        assert!(topo.degrade, "degraded answers on by default");
    }

    #[test]
    fn rejects_zero_shards_and_garbage() {
        assert!(Topology::parse("[cluster]\nshards = 0\n").is_err());
        assert!(Topology::parse("not toml at all").is_err());
        assert!(Topology::parse("[cluster]\nshards = \"two\"\n").is_err());
        assert!(Topology::parse("[cluster]\nshards = 1\nshards = 2\n").is_err());
        assert!(Topology::parse("[fault]\nretry_attempts = 0\n").is_err());
        assert!(Topology::parse("[fault]\nretry_jitter = 1.5\n").is_err());
        assert!(Topology::parse("[fault]\ndegrade = 1\n").is_err());
        // Partitioning rules imc-core would otherwise assert on.
        let uneven = Topology::parse("[cluster]\nshards = 3\n")
            .unwrap_err()
            .to_string();
        assert!(uneven.contains("cluster.shards"), "{uneven}");
        assert!(
            uneven.contains("DEFAULT_SAMPLING_SHARDS % shards == 0"),
            "{uneven}"
        );
        let tiny = Topology::parse("[cluster]\nshards = 2\nsamples = 50\n")
            .unwrap_err()
            .to_string();
        assert!(tiny.contains("cluster.samples"), "{tiny}");
        assert!(tiny.contains("samples >= 64"), "{tiny}");
        assert!(Topology::parse("[cluster]\nshards = 1\nsamples = 50\n").is_ok());
        assert!(Topology::parse("[cluster]\nshards = 16\nsamples = 64\n").is_ok());
    }

    #[test]
    fn unknown_keys_and_sections_are_errors_naming_them() {
        let error = |text: &str| Topology::parse(text).unwrap_err().to_string();
        // A typo'd key must not load as the default.
        let typo = error("[cluster]\nshard = 4\n");
        assert!(typo.contains(r#"unknown key "cluster.shard""#), "{typo}");
        let typo = error("[fault]\nretry_atempts = 9\n");
        assert!(
            typo.contains(r#"unknown key "fault.retry_atempts""#),
            "{typo}"
        );
        // A typo'd section takes every key under it along.
        let section = error("[clustr]\nshards = 4\n");
        assert!(
            section.contains(r#"unknown key "clustr.shards""#),
            "{section}"
        );
        // So does a key outside any section, and the `[load]` section
        // removed in 0.12.0.
        let bare = error("shards = 4\n");
        assert!(bare.contains(r#"unknown key "shards""#), "{bare}");
        let load = error("[cluster]\nshards = 2\n[load]\nrequests = 10\nconnections = 4\n");
        assert!(load.contains(r#"unknown key "load.connections""#), "{load}");
        // And a key removed in 0.24.0 with the background prober.
        let prober = error("[fault]\nprobe_interval_ms = 1000\n");
        assert!(
            prober.contains(r#"unknown key "fault.probe_interval_ms""#),
            "{prober}"
        );
    }

    #[test]
    fn integers_too_large_for_their_field_are_errors_naming_them() {
        let error = |text: &str| Topology::parse(text).unwrap_err().to_string();
        // A `u32` field past `u32::MAX` must not keep its low 32 bits.
        for (text, key) in [
            ("[cluster]\nk = 4294967297\n", "cluster.k"),
            ("[instance]\nthreshold = 4294967298\n", "instance.threshold"),
            (
                "[fault]\nretry_attempts = 4294967296\n",
                "fault.retry_attempts",
            ),
        ] {
            let message = error(text);
            assert!(
                message.contains(&format!("{key} must be at most 4294967295")),
                "{message}"
            );
        }
        let topo = Topology::parse("[cluster]\nk = 4294967295\n").unwrap();
        assert_eq!(topo.k, u32::MAX);
        // `workers` is a `usize` and keeps every bit (parse level only:
        // a runner would start that many threads).
        let topo = Topology::parse("[cluster]\nworkers = 4294967297\n").unwrap();
        assert_eq!(topo.workers as u64, 4_294_967_297);
    }

    #[test]
    fn committed_topology_loads() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data/topology.toml");
        let topo = Topology::load(&path).unwrap();
        assert_eq!((topo.shards, topo.samples, topo.k), (2, 40_000, 25));
    }
}
