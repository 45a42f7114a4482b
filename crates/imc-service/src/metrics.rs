//! Request metrics: per-operation counters, with p50/p99 latency derived
//! from the shared `imc_request_duration_seconds` histogram.
//!
//! Every recorded request is mirrored into the process-wide
//! [`imc_obs::global`] registry through the metric table
//! ([`imc_obs::families`]: `REQUESTS`, `REQUEST_DURATION`,
//! `SAMPLES_SCANNED`, `DEADLINE_MISSES`), so the daemon's `GET /metrics`
//! exposition and the NDJSON `stats` op report from one source of truth.
//! The `stats` percentiles are computed by merging the per-op
//! duration-histogram buckets (every child shares the family's layout)
//! and interpolating with [`imc_obs::quantile_from_cumulative`] — no
//! separate latency reservoir, so the two surfaces can never disagree.

use imc_obs::families::{DEADLINE_MISSES, REQUESTS, REQUEST_DURATION, SAMPLES_SCANNED};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Lock-light metrics shared by every worker thread.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Completed `solve` requests.
    pub solve_requests: AtomicU64,
    /// Completed `estimate` requests.
    pub estimate_requests: AtomicU64,
    /// Completed shard evaluation requests (`eval_*` / `shard_eval`).
    pub eval_requests: AtomicU64,
    /// Completed `stats`/`health` requests.
    pub info_requests: AtomicU64,
    /// Requests rejected with an error response.
    pub error_requests: AtomicU64,
    /// Requests dropped because their deadline passed while queued.
    pub deadline_misses: AtomicU64,
    /// Total RIC samples scanned on behalf of requests.
    pub samples_served: AtomicU64,
}

impl Metrics {
    /// Fresh metrics with zeroed counters.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one completed request of the given operation kind.
    pub fn record(&self, kind: OpKind, latency: Duration, samples_scanned: u64) {
        match kind {
            OpKind::Solve => &self.solve_requests,
            OpKind::Estimate => &self.estimate_requests,
            OpKind::Eval => &self.eval_requests,
            OpKind::Info => &self.info_requests,
            OpKind::Error => &self.error_requests,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.samples_served
            .fetch_add(samples_scanned, Ordering::Relaxed);
        REQUESTS.child(kind.as_str()).inc();
        let duration = REQUEST_DURATION.child(kind.as_str());
        // Slow (top-bucket) observations pin the live request's trace id
        // as the histogram's exemplar, so a dashboard's tail bucket links
        // straight to an offending trace in the JSONL sink.
        match imc_obs::trace::current_trace_id() {
            Some(trace_id) => duration.observe_with_exemplar(latency.as_secs_f64(), &trace_id),
            None => duration.observe_duration(latency),
        }
        SAMPLES_SCANNED.handle().inc_by(samples_scanned);
    }

    /// Records a request rejected because its deadline expired in queue.
    pub fn record_deadline_miss(&self) {
        self.deadline_misses.fetch_add(1, Ordering::Relaxed);
        self.error_requests.fetch_add(1, Ordering::Relaxed);
        DEADLINE_MISSES.handle().inc();
        REQUESTS.child(OpKind::Error.as_str()).inc();
    }

    /// A point-in-time snapshot of all counters and percentiles.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let (p50, p99) = latency_quantiles_us();
        MetricsSnapshot {
            solve_requests: self.solve_requests.load(Ordering::Relaxed),
            estimate_requests: self.estimate_requests.load(Ordering::Relaxed),
            eval_requests: self.eval_requests.load(Ordering::Relaxed),
            info_requests: self.info_requests.load(Ordering::Relaxed),
            error_requests: self.error_requests.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            samples_served: self.samples_served.load(Ordering::Relaxed),
            p50_latency_us: p50,
            p99_latency_us: p99,
        }
    }
}

/// p50/p99 request latency in microseconds, interpolated from the merged
/// cumulative buckets of the per-op `imc_request_duration_seconds`
/// children. All children share the family's bucket layout, so
/// element-wise summation yields the all-ops distribution.
fn latency_quantiles_us() -> (u64, u64) {
    let buckets = REQUEST_DURATION.spec.buckets;
    let mut merged = vec![0u64; buckets.len() + 1];
    for op in REQUEST_DURATION.spec.values {
        let cumulative = REQUEST_DURATION.child(op).cumulative_buckets();
        debug_assert_eq!(cumulative.len(), merged.len());
        for (slot, c) in merged.iter_mut().zip(cumulative) {
            *slot += c;
        }
    }
    let to_us = |q: f64| {
        let seconds = imc_obs::quantile_from_cumulative(buckets, &merged, q);
        (seconds * 1e6).round() as u64
    };
    (to_us(0.5), to_us(0.99))
}

/// Which counter a completed request increments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `solve` requests.
    Solve,
    /// `estimate` requests.
    Estimate,
    /// Shard evaluation requests (`eval_*` and `shard_eval`).
    Eval,
    /// `stats` and `health` requests.
    Info,
    /// Requests answered with an error.
    Error,
}

impl OpKind {
    /// The `op` label value this kind exports under.
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::Solve => "solve",
            OpKind::Estimate => "estimate",
            OpKind::Eval => "eval",
            OpKind::Info => "info",
            OpKind::Error => "error",
        }
    }
}

/// Plain-data view of [`Metrics`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Completed `solve` requests.
    pub solve_requests: u64,
    /// Completed `estimate` requests.
    pub estimate_requests: u64,
    /// Completed shard evaluation requests.
    pub eval_requests: u64,
    /// Completed `stats`/`health` requests.
    pub info_requests: u64,
    /// Requests answered with an error.
    pub error_requests: u64,
    /// Requests dropped for missing their deadline in queue.
    pub deadline_misses: u64,
    /// Total RIC samples scanned.
    pub samples_served: u64,
    /// Median request latency, microseconds, interpolated from the shared
    /// duration histogram (0 when no data). Process-wide, like the
    /// histogram it derives from.
    pub p50_latency_us: u64,
    /// 99th-percentile request latency, microseconds, from the same
    /// histogram (0 when no data).
    pub p99_latency_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_by_kind() {
        let m = Metrics::new();
        m.record(OpKind::Solve, Duration::from_micros(10), 100);
        m.record(OpKind::Solve, Duration::from_micros(20), 100);
        m.record(OpKind::Estimate, Duration::from_micros(30), 50);
        m.record(OpKind::Eval, Duration::from_micros(5), 25);
        m.record(OpKind::Info, Duration::from_micros(1), 0);
        m.record(OpKind::Error, Duration::from_micros(1), 0);
        let s = m.snapshot();
        assert_eq!(s.solve_requests, 2);
        assert_eq!(s.estimate_requests, 1);
        assert_eq!(s.eval_requests, 1);
        assert_eq!(s.info_requests, 1);
        assert_eq!(s.error_requests, 1);
        assert_eq!(s.samples_served, 275);
    }

    #[test]
    fn quantiles_come_from_the_shared_histogram() {
        // The duration histogram is process-global and shared with every
        // other test in this binary, so assert ordering and liveness, not
        // exact values.
        let m = Metrics::new();
        m.record(OpKind::Info, Duration::from_micros(50), 0);
        m.record(OpKind::Info, Duration::from_millis(5), 0);
        let s = m.snapshot();
        assert!(s.p50_latency_us > 0, "recorded data must move the median");
        assert!(s.p50_latency_us <= s.p99_latency_us);
        // The histogram's finite bounds end at ~2.62 s; the interpolated
        // quantile can never exceed the last finite bound.
        assert!(s.p99_latency_us <= 3_000_000);
    }

    #[test]
    fn stats_quantiles_interpolate_when_one_bucket_holds_everything() {
        // The exact-fill edge: a burst of identical-latency requests puts
        // every observation into one bucket of the daemon layout. The
        // merged-bucket quantile path (what `stats` p50/p99 uses) must
        // interpolate inside that bucket instead of reporting its upper
        // bound for both percentiles. Pinned against the free function so
        // the process-global histogram shared with other tests can't
        // perturb it.
        let buckets = REQUEST_DURATION.spec.buckets;
        let filled = 5; // bucket (2.56e-3, 1.024e-2]
        let mut merged = vec![0u64; buckets.len() + 1];
        for slot in merged.iter_mut().skip(filled) {
            *slot = 100;
        }
        let lower = buckets[filled - 1];
        let upper = buckets[filled];
        let p50 = imc_obs::quantile_from_cumulative(buckets, &merged, 0.5);
        let p99 = imc_obs::quantile_from_cumulative(buckets, &merged, 0.99);
        assert!(
            (p50 - (lower + (upper - lower) * 0.5)).abs() < 1e-12,
            "p50 must be the bucket midpoint, got {p50}"
        );
        assert!(
            (p99 - (lower + (upper - lower) * 0.99)).abs() < 1e-12,
            "p99 must interpolate at 99%, got {p99}"
        );
        assert!(
            p50 < p99 && p99 < upper,
            "neither percentile is the bucket bound"
        );
    }

    #[test]
    fn deadline_misses_count_as_errors() {
        let m = Metrics::new();
        m.record_deadline_miss();
        let s = m.snapshot();
        assert_eq!(s.deadline_misses, 1);
        assert_eq!(s.error_requests, 1);
    }

    #[test]
    fn record_mirrors_into_shared_registry() {
        // Delta-based: the global registry is shared across parallel
        // tests, so assert growth, not absolute values.
        let before_count = REQUESTS.child("solve").get();
        let before_hist = REQUEST_DURATION.child("solve").count();
        let before_scanned = SAMPLES_SCANNED.handle().get();
        let m = Metrics::new();
        m.record(OpKind::Solve, Duration::from_micros(123), 42);
        assert_eq!(REQUESTS.child("solve").get(), before_count + 1);
        assert_eq!(REQUEST_DURATION.child("solve").count(), before_hist + 1);
        assert_eq!(SAMPLES_SCANNED.handle().get(), before_scanned + 42);

        let before_miss = DEADLINE_MISSES.handle().get();
        let before_errors = REQUESTS.child("error").get();
        m.record_deadline_miss();
        assert_eq!(DEADLINE_MISSES.handle().get(), before_miss + 1);
        assert_eq!(REQUESTS.child("error").get(), before_errors + 1);
    }
}
