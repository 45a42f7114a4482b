//! # imc-obs — unified observability for the `imc` workspace
//!
//! A vendored, `std`-only metrics/tracing layer shared by the solver stack
//! (`imc-core`), the query daemon (`imc-service`), the CLI and the bench
//! harness, in the same offline idiom as the `vendor/` dependency
//! stand-ins: no external crates, no network, atomic hot paths.
//!
//! Four pieces:
//!
//! * **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) behind a
//!   [`Registry`], updated lock-free with relaxed atomics; histogram sums
//!   use a CAS loop so concurrent totals are *exact*, not approximate.
//!   Every `imc_*` family is declared once in the metric table
//!   ([`families`]), whose rows cache their instruments for hot paths.
//! * **Exposition** ([`encode::to_prometheus`]) renders a registry in the
//!   Prometheus text format 0.0.4 — the wire format behind
//!   `GET /metrics`.
//! * **Tracing** ([`trace`], [`span::Span`]) — structured JSONL events to
//!   an optional global sink, plus RAII spans that both time a phase into
//!   a histogram and emit a trace event; [`timeline`] stitches the files
//!   back into span trees.
//! * **JSON** ([`json`]) — the workspace's one JSON codec, shared by the
//!   daemon's NDJSON wire protocol, the trace sink and the stitcher.
//!
//! The process-wide registry is [`global()`]; the table's rows record
//! there so one exposition pass sees the whole stack. Local [`Registry`]
//! values exist for tests and embedding.
//!
//! ```
//! use imc_obs::{encode, Registry};
//!
//! let registry = Registry::new();
//! let requests = registry.counter_with(
//!     "imc_requests_total",
//!     "Completed requests by operation.",
//!     &[("op", "solve")],
//! );
//! requests.inc();
//! let text = encode::to_prometheus(&registry);
//! assert!(text.contains(r#"imc_requests_total{op="solve"} 1"#));
//! ```
//!
//! Metric naming follows the scheme documented in `DESIGN.md` §7: every
//! name carries the `imc_` prefix, counters end in `_total`, and unit
//! suffixes (`_seconds`, `_us`) name the unit explicitly.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod encode;
pub mod families;
pub mod json;
mod metrics;
mod registry;
pub mod span;
pub mod timeline;
pub mod trace;

pub use metrics::{
    quantile_from_cumulative, Counter, Exemplar, Gauge, Histogram, DEFAULT_DURATION_BUCKETS,
};
pub use registry::{MetricKind, Registry};
pub use span::Span;

use std::sync::OnceLock;

/// The process-wide registry shared by every instrumented crate.
///
/// Created lazily on first use and never dropped; all `imc_*` metrics of
/// the solver stack and the daemon live here so a single
/// [`encode::to_prometheus`] call exports the whole process.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global() as *const Registry;
        let b = global() as *const Registry;
        assert_eq!(a, b);
    }

    #[test]
    fn global_registry_registers_and_encodes() {
        let c = global().counter("imc_obs_selftest_total", "Self-test counter.");
        c.inc_by(3);
        let text = encode::to_prometheus(global());
        assert!(text.contains("imc_obs_selftest_total"));
    }
}
