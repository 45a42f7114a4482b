//! The metric table: every `imc_*` family the workspace exports, declared
//! once — name, type, help text, label names, bucket bounds and the closed
//! vocabulary of its first label.
//!
//! Instrumented code records through the table's statics, never through a
//! name string:
//!
//! * [`Family::handle`] — the unlabelled instrument;
//! * [`Family::child`] — one child of a closed-vocabulary family;
//! * [`Family::with`] — a child of a family with an open label (a shard
//!   address, a span name), looked up in the registry per call.
//!
//! The first two are cached in a `OnceLock` on first use, so a hot path
//! (Alg. 1 runs millions of times per IMCAF invocation) pays an atomic
//! load and its instrument's relaxed atomics, never the registry lock.
//! [`register`] creates every family in a registry, with every unlabelled
//! instrument and closed-vocabulary child at zero, so a first scrape lists
//! them all; it never writes a value. `docs/METRICS.md` has one row per
//! family of [`TABLE`], held to it by `tests/metrics_docs.rs`.

use crate::metrics::{Counter, Gauge, Histogram, DEFAULT_DURATION_BUCKETS};
use crate::registry::{MetricKind, Registry};
use std::sync::{Arc, OnceLock};

/// What a table row declares.
#[derive(Debug)]
pub struct Spec {
    /// Exported family name.
    pub name: &'static str,
    /// Prometheus type.
    pub kind: MetricKind,
    /// `# HELP` text.
    pub help: &'static str,
    /// Label names, in exposition order.
    pub labels: &'static [&'static str],
    /// The closed vocabulary of the first label; empty when the label's
    /// values are only known at run time.
    pub values: &'static [&'static str],
    /// Bucket upper bounds (histograms only).
    pub buckets: &'static [f64],
}

impl Spec {
    const BASE: Spec = Spec {
        name: "",
        kind: MetricKind::Counter,
        help: "",
        labels: &[],
        values: &[],
        buckets: &[],
    };
}

/// The instrument types a family can hold.
pub trait Instrument: Send + Sync + Sized + 'static {
    /// Registers (or retrieves) the child of `spec` with these labels.
    fn child_of(registry: &Registry, spec: &Spec, labels: &[(&str, &str)]) -> Arc<Self>;
}

impl Instrument for Counter {
    fn child_of(registry: &Registry, spec: &Spec, labels: &[(&str, &str)]) -> Arc<Self> {
        registry.counter_with(spec.name, spec.help, labels)
    }
}

impl Instrument for Gauge {
    fn child_of(registry: &Registry, spec: &Spec, labels: &[(&str, &str)]) -> Arc<Self> {
        registry.gauge_with(spec.name, spec.help, labels)
    }
}

impl Instrument for Histogram {
    fn child_of(registry: &Registry, spec: &Spec, labels: &[(&str, &str)]) -> Arc<Self> {
        registry.histogram_with(spec.name, spec.help, spec.buckets, labels)
    }
}

/// One row of the table: its [`Spec`] and the global registry's cached
/// instruments.
#[derive(Debug)]
pub struct Family<I> {
    /// The declaration.
    pub spec: Spec,
    handles: OnceLock<Vec<Arc<I>>>,
}

impl<I: Instrument> Family<I> {
    /// The unlabelled instrument, or one child per closed value of a
    /// one-label family; none for a family with an open label.
    fn closed_children(&self, registry: &Registry) -> Vec<Arc<I>> {
        match self.spec.labels {
            [] => vec![I::child_of(registry, &self.spec, &[])],
            [label] => self
                .spec
                .values
                .iter()
                .map(|value| I::child_of(registry, &self.spec, &[(label, value)]))
                .collect(),
            _ => Vec::new(),
        }
    }

    fn handles(&self) -> &[Arc<I>] {
        self.handles
            .get_or_init(|| self.closed_children(crate::global()))
    }

    /// The unlabelled instrument in the global registry.
    ///
    /// # Panics
    ///
    /// Panics when the family has labels.
    pub fn handle(&self) -> &I {
        assert!(
            self.spec.labels.is_empty(),
            "`{}` is labelled",
            self.spec.name
        );
        &self.handles()[0]
    }

    /// The global registry's child for `value` of a closed-vocabulary
    /// family.
    ///
    /// # Panics
    ///
    /// Panics when `value` is not in the family's vocabulary.
    pub fn child(&self, value: &str) -> &I {
        let at = self.spec.values.iter().position(|v| *v == value);
        let at =
            at.unwrap_or_else(|| panic!("`{value}` is not a `{}` label value", self.spec.name));
        &self.handles()[at]
    }

    /// The global registry's child for these label values, one per label
    /// name — a registry lookup on every call.
    pub fn with<const N: usize>(&self, values: [&str; N]) -> Arc<I> {
        assert_eq!(
            N,
            self.spec.labels.len(),
            "`{}` label count",
            self.spec.name
        );
        let labels: [(&str, &str); N] = std::array::from_fn(|i| (self.spec.labels[i], values[i]));
        I::child_of(crate::global(), &self.spec, &labels)
    }
}

/// A table row with its instrument type erased, for walking [`TABLE`].
pub trait Row: Sync {
    /// The row's declaration.
    fn spec(&self) -> &Spec;
    /// Creates the family in `registry` with its closed children at zero.
    fn register(&self, registry: &Registry);
}

impl<I: Instrument> Row for Family<I> {
    fn spec(&self) -> &Spec {
        &self.spec
    }

    fn register(&self, registry: &Registry) {
        registry.declare(&self.spec);
        self.closed_children(registry);
    }
}

/// Creates every family of [`TABLE`] in `registry`, in table order, with
/// every unlabelled instrument and closed-vocabulary child at zero. Writes
/// no value, so calling it again (every `ServiceState::new` does) changes
/// nothing that was recorded.
pub fn register(registry: &Registry) {
    for row in TABLE {
        row.register(registry);
    }
}

/// Node counts per sample (and per Estimate call, and live candidates per
/// greedy round): 1 … 262144, ×4.
const SIZE_BUCKETS: &[f64] = &[
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0,
];

/// Fractions of the collection influenced.
const COVERAGE_BUCKETS: &[f64] = &[0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.0];

const SECONDS: &[f64] = DEFAULT_DURATION_BUCKETS;

/// `algo`: the MAXR solvers' report names.
pub const ALGOS: &[&str] = &["GREEDY", "UBG", "MAF", "BT", "BT^d", "MB"];
/// `stop_reason`: which IMCAF exit fired.
pub const STOP_REASONS: &[&str] = &["converged", "sample_bound", "cap"];
/// `objective`: the greedy engine's two objectives.
pub const OBJECTIVES: &[&str] = &["c_hat", "nu"];
/// `op` on the daemon's request families.
pub const DAEMON_OPS: &[&str] = &["solve", "estimate", "eval", "info", "error"];
/// `op` on `imc_cluster_rpc_duration_seconds`: the shard RPCs a
/// coordinator times.
pub const RPC_OPS: &[&str] = &["eval_begin", "eval_batch", "eval_seed", "shard_eval"];

/// Declares each row as a documented `pub static` (its help text is its
/// doc) and lists them all in [`TABLE`].
macro_rules! table {
    ($($id:ident: $kind:ident = $name:literal, $help:literal $(, $key:ident = $value:expr)*;)*) => {
        $(
            #[doc = $help]
            // A row that sets every optional field leaves `BASE` unused.
            #[allow(clippy::needless_update)]
            pub static $id: Family<$kind> = Family {
                spec: Spec {
                    name: $name,
                    kind: MetricKind::$kind,
                    help: $help,
                    $($key: $value,)*
                    ..Spec::BASE
                },
                handles: OnceLock::new(),
            };
        )*
        /// Every family, in registration (and so exposition) order.
        pub static TABLE: &[&dyn Row] = &[$(&$id),*];
    };
}

table! {
    // Solver (`imc-core`).
    RIC_SAMPLES: Counter = "imc_ric_samples_generated_total",
        "RIC samples generated (Alg. 1), across collections and Estimate calls.";
    RIC_SAMPLE_WIDTH: Histogram = "imc_ric_sample_width",
        "Nodes per generated RIC sample (the sample's memory and solve cost driver).",
        buckets = SIZE_BUCKETS;
    RIC_SHARD_DURATION: Histogram = "imc_ric_shard_duration_seconds",
        "Wall-clock time of one sampling shard of a plan draw (extend_parallel, IMCAF growth).",
        buckets = SECONDS;
    RIC_INDEX_DURATION: Histogram = "imc_ric_index_seconds",
        "Wall-clock time of the inverted-index update after one sampler append to a RicStore (a plan draw or extend_with).",
        buckets = SECONDS;
    RIC_STORE_ARENA_BYTES: Gauge = "imc_ric_store_arena_bytes",
        "Bytes held by the published RicStore arena (all flat buffers).";
    RIC_STORE_INDEX_ENTRIES: Gauge = "imc_ric_store_index_entries",
        "Entries in the published RicStore's inverted node index.";
    IMCAF_ROUNDS: Counter = "imc_imcaf_rounds_total",
        "IMCAF stop-stage iterations executed (Alg. 5 outer loop; stages grown past without a solve are not counted).";
    ESTIMATE_CALLS: Counter = "imc_estimate_calls_total",
        "Dagum Estimate invocations (Alg. 6).";
    ESTIMATE_EXHAUSTED: Counter = "imc_estimate_exhausted_total",
        "Estimate calls whose fresh samples could not reach the stopping threshold within t_max.";
    ESTIMATE_SAMPLES: Histogram = "imc_estimate_samples",
        "Fresh RIC samples consumed per Estimate call.",
        buckets = SIZE_BUCKETS;
    MAXR_COVERAGE_RATIO: Histogram = "imc_maxr_coverage_ratio",
        "Fraction of the collection influenced by each MAXR solution.",
        buckets = COVERAGE_BUCKETS;
    TABLE_ENTRIES_SWEPT: Counter = "imc_objective_table_entries_swept_total",
        "Index entries swept to build the c_hat and nu gain tables and to keep them exact on seed commits.";
    MAXR_SOLVES: Counter = "imc_maxr_solves_total",
        "MAXR solves by algorithm.",
        labels = &["algo"], values = ALGOS;
    MAXR_SOLVE_DURATION: Histogram = "imc_maxr_solve_duration_seconds",
        "Wall-clock MAXR solve time by algorithm.",
        labels = &["algo"], values = ALGOS, buckets = SECONDS;
    IMCAF_RUNS: Counter = "imc_imcaf_runs_total",
        "Completed IMCAF runs by stop reason.",
        labels = &["stop_reason"], values = STOP_REASONS;
    ENGINE_QUEUE_DEPTH: Histogram = "imc_engine_queue_depth",
        "Live candidates at the start of each engine greedy round.",
        buckets = SIZE_BUCKETS;
    ENGINE_SHARD_DURATION: Histogram = "imc_engine_shard_duration_seconds",
        "Wall-clock time of one engine gain batch (one per greedy round).",
        buckets = SECONDS;
    ENGINE_ROUNDS: Counter = "imc_engine_rounds_total",
        "Greedy rounds executed by the solve engine.",
        labels = &["objective"], values = OBJECTIVES;
    ENGINE_EVALUATIONS: Counter = "imc_engine_evaluations_total",
        "Marginal gains read by the solve engine (one per live candidate per round).",
        labels = &["objective"], values = OBJECTIVES;
    SPAN_DURATION: Histogram = "imc_span_duration_seconds",
        "Duration of instrumented phases, labeled by span name.",
        labels = &["span", "detail"], buckets = SECONDS;

    // Daemon (`imc-service`).
    REQUESTS: Counter = "imc_requests_total",
        "Completed daemon requests by operation.",
        labels = &["op"], values = DAEMON_OPS;
    REQUEST_DURATION: Histogram = "imc_request_duration_seconds",
        "Wall-clock daemon request latency by operation.",
        labels = &["op"], values = DAEMON_OPS, buckets = SECONDS;
    SAMPLES_SCANNED: Counter = "imc_samples_scanned_total",
        "RIC samples scanned on behalf of daemon requests.";
    DEADLINE_MISSES: Counter = "imc_deadline_misses_total",
        "Requests dropped because their deadline passed while queued.";
    SNAPSHOT_LOAD_DURATION: Histogram = "imc_snapshot_load_seconds",
        "Wall-clock time to load and validate a snapshot file at cold start.",
        buckets = SECONDS;
    COLLECTION_SAMPLES: Gauge = "imc_collection_samples",
        "RIC samples in the currently-published collection.";
    COLLECTION_GENERATION: Gauge = "imc_collection_generation",
        "Generation number of the currently-published collection.";

    // Coordinator (`imc-cluster`).
    CLUSTER_SCATTER: Counter = "imc_cluster_scatter_total",
        "Scatter-gather rounds fanned out to shards by the cluster coordinator";
    CLUSTER_SHARD_ERRORS: Counter = "imc_cluster_shard_errors_total",
        "Shard RPC failures (transport or remote error) seen by the coordinator";
    CLUSTER_SHARD_RPC_DURATION: Histogram = "imc_cluster_shard_rpc_seconds",
        "Round-trip latency of one shard RPC issued by the coordinator",
        buckets = SECONDS;
    CLUSTER_REQUEST_DURATION: Histogram = "imc_cluster_request_duration_seconds",
        "End-to-end latency of requests answered by the cluster coordinator",
        buckets = SECONDS;
    CLUSTER_SHARDS: Gauge = "imc_cluster_shards",
        "Shard count in the coordinator's current topology";
    CLUSTER_RETRIES: Counter = "imc_cluster_retries_total",
        "Shard RPCs retried after a transport error (reconnect-and-replay)";
    CLUSTER_DEGRADED_SOLVES: Counter = "imc_cluster_degraded_solves_total",
        "Cluster solves completed over a strict subset of shards (approximate answers)";
    CLUSTER_PROBES: Counter = "imc_cluster_probes_total",
        "Health probes (ping round-trips) issued to shards by the coordinator";
    CLUSTER_PROBE_FAILURES: Counter = "imc_cluster_probe_failures_total",
        "Health probes that timed out or returned an error";
    CLUSTER_SHARD_STATE: Gauge = "imc_cluster_shard_state",
        "Health state of one shard as seen by the coordinator (0=dead 1=suspect 2=recovered 3=healthy)",
        labels = &["shard"];
    CLUSTER_RPC_DURATION: Histogram = "imc_cluster_rpc_duration_seconds",
        "Round-trip latency of one shard RPC, by operation and shard address",
        labels = &["op", "shard"], values = RPC_OPS, buckets = SECONDS;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::to_prometheus;
    use crate::registry::Child;

    /// How many children `register` creates for a row.
    fn closed_children(spec: &Spec) -> usize {
        match spec.labels.len() {
            0 => 1,
            1 => spec.values.len(),
            _ => 0,
        }
    }

    #[test]
    fn register_exports_exactly_the_table_at_zero() {
        let registry = Registry::new();
        register(&registry);
        let families = registry.families();
        let names: Vec<&str> = families.iter().map(|f| f.name.as_str()).collect();
        let table: Vec<&str> = TABLE.iter().map(|row| row.spec().name).collect();
        assert_eq!(names, table);
        for (family, row) in families.iter().zip(TABLE) {
            let spec = row.spec();
            assert_eq!((family.kind, family.help.as_str()), (spec.kind, spec.help));
            assert!(family
                .label_names
                .iter()
                .map(String::as_str)
                .eq(spec.labels.iter().copied()));
            let children = family.children.read().expect("family lock");
            assert_eq!(children.len(), closed_children(spec), "{}", spec.name);
            for (values, child) in children.iter() {
                if let [value] = values.as_slice() {
                    assert!(spec.values.contains(&value.as_str()), "{}", spec.name);
                }
                match child {
                    Child::Histogram(h) => {
                        assert_eq!(h.bounds(), spec.buckets, "{}", spec.name);
                        assert_eq!(h.count(), 0);
                    }
                    Child::Counter(c) => assert_eq!(c.get(), 0),
                    Child::Gauge(g) => assert_eq!(g.get(), 0.0),
                }
            }
        }
        // A histogram without buckets would be rejected by the registry,
        // a counter or gauge with buckets is a misdeclared row.
        for row in TABLE {
            let spec = row.spec();
            assert_eq!(
                spec.kind == MetricKind::Histogram,
                !spec.buckets.is_empty(),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn registering_again_changes_no_recorded_value() {
        let registry = Registry::new();
        register(&registry);
        for family in registry.families() {
            for child in family.children.read().expect("family lock").values() {
                match child {
                    Child::Counter(c) => c.inc_by(7),
                    Child::Gauge(g) => g.set(3.5),
                    Child::Histogram(h) => h.observe(0.5),
                }
            }
        }
        let recorded = to_prometheus(&registry);
        register(&registry);
        assert_eq!(to_prometheus(&registry), recorded);
    }

    #[test]
    fn handles_register_once_and_accumulate() {
        let handle: *const Counter = CLUSTER_SCATTER.handle();
        assert!(std::ptr::eq(handle, CLUSTER_SCATTER.handle()));
        let before = CLUSTER_SCATTER.handle().get();
        CLUSTER_SCATTER.handle().inc();
        CLUSTER_SCATTER.handle().inc();
        assert_eq!(CLUSTER_SCATTER.handle().get(), before + 2);

        // A closed-vocabulary child is the global registry's child.
        let before = MAXR_SOLVES.child("UBG").get();
        MAXR_SOLVES.child("UBG").inc();
        let spec = &MAXR_SOLVES.spec;
        let child = crate::global().counter_with(spec.name, spec.help, &[("algo", "UBG")]);
        assert_eq!(child.get(), before + 1);
    }

    #[test]
    fn rpc_duration_is_keyed_by_op_and_shard() {
        let a = CLUSTER_RPC_DURATION.with(["eval_batch", "127.0.0.1:7201"]);
        let b = CLUSTER_RPC_DURATION.with(["shard_eval", "127.0.0.1:7201"]);
        let before = (a.count(), b.count());
        a.observe(0.002);
        let again = CLUSTER_RPC_DURATION.with(["eval_batch", "127.0.0.1:7201"]);
        assert_eq!(again.count(), before.0 + 1);
        assert_eq!(b.count(), before.1, "a different op is a distinct child");
    }

    #[test]
    fn shard_state_gauge_is_keyed_by_address() {
        CLUSTER_SHARD_STATE.with(["127.0.0.1:7101"]).set(3.0);
        CLUSTER_SHARD_STATE.with(["127.0.0.1:7102"]).set(0.0);
        assert_eq!(CLUSTER_SHARD_STATE.with(["127.0.0.1:7101"]).get(), 3.0);
        assert_eq!(CLUSTER_SHARD_STATE.with(["127.0.0.1:7102"]).get(), 0.0);
    }

    #[test]
    #[should_panic(expected = "label value")]
    fn values_outside_a_closed_vocabulary_panic() {
        let _ = IMCAF_RUNS.child("timeout");
    }
}
