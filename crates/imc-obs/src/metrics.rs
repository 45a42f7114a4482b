//! The three instrument types: counters, gauges, fixed-bucket histograms.
//!
//! All updates are lock-free. Counters and histogram bucket/count updates
//! are single relaxed `fetch_add`s; gauge stores and the histogram sum use
//! f64 bit-casts over `AtomicU64` (a CAS loop for additive updates), so
//! concurrent totals are exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically-increasing `u64` counter.
///
/// Prometheus type `counter`; names should end in `_total`.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn inc_by(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable `f64` gauge (current-value metric: sizes, generations,
/// temperatures).
///
/// Stored as f64 bits in an `AtomicU64`; `set`/`get` are single atomic
/// ops, `add` is a CAS loop.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge starting at `0.0`.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Replaces the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative). Exact under concurrency.
    pub fn add(&self, delta: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram of `f64` observations.
///
/// Buckets are defined by their inclusive upper bounds (ascending); an
/// implicit `+Inf` bucket catches the rest. Per-bucket tallies are stored
/// *non*-cumulatively and summed cumulatively only at exposition time.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>, // bounds.len() + 1 (the +Inf bucket)
    count: AtomicU64,
    sum_bits: AtomicU64,
    exemplar: Mutex<Option<Exemplar>>,
}

/// The trace id of a notable observation, attached to a histogram so a
/// dashboard's top-bucket count links back to an offending request.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// Trace id of the request that produced the observation.
    pub trace_id: String,
    /// The observed value (seconds for `*_duration_seconds` families).
    pub value: f64,
    /// Wall-clock UNIX microseconds when the observation was recorded.
    pub ts_us: u64,
}

/// Duration buckets (seconds) covering 10 µs … ~2.6 s exponentially —
/// the default for `*_duration_seconds` histograms across the workspace.
pub const DEFAULT_DURATION_BUCKETS: &[f64] = &[
    1e-5, 4e-5, 1.6e-4, 6.4e-4, 2.56e-3, 1.024e-2, 4.096e-2, 0.16384, 0.65536, 2.62144,
];

impl Histogram {
    /// A histogram with the given ascending bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics when `bounds` is empty, non-finite, or not strictly
    /// ascending — bucket layouts are static configuration, so a bad one
    /// is a programming error.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "histogram bounds must be strictly ascending");
        }
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite (+Inf is implicit)"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            exemplar: Mutex::new(None),
        }
    }

    /// Records one observation and, when it lands in the top finite
    /// bucket or the `+Inf` overflow, stores `trace_id` as the
    /// histogram's [`Exemplar`] (latest offender wins). Observations in
    /// lower buckets never touch the exemplar slot, so the hot path
    /// stays lock-free.
    pub fn observe_with_exemplar(&self, v: f64, trace_id: &str) {
        self.observe(v);
        let top_start = self.bounds.len().saturating_sub(1);
        let in_top = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len())
            >= top_start;
        if in_top {
            if let Ok(mut slot) = self.exemplar.lock() {
                *slot = Some(Exemplar {
                    trace_id: trace_id.to_string(),
                    value: v,
                    ts_us: crate::trace::now_us(),
                });
            }
        }
    }

    /// The most recent top-bucket exemplar, if any observation has set
    /// one via [`observe_with_exemplar`](Self::observe_with_exemplar).
    pub fn exemplar(&self) -> Option<Exemplar> {
        self.exemplar.lock().ok().and_then(|slot| slot.clone())
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // CAS loop keeps the sum exact under concurrency.
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Records a [`std::time::Duration`] in seconds.
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// The configured upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Cumulative per-bucket counts, one entry per bound plus the final
    /// `+Inf` bucket (which equals [`count`](Self::count) once no
    /// observation is in flight).
    pub fn cumulative_buckets(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.buckets
            .iter()
            .map(|b| {
                acc += b.load(Ordering::Relaxed);
                acc
            })
            .collect()
    }

    /// Estimates the `q`-quantile (`0.0 ≤ q ≤ 1.0`) of the recorded
    /// observations from the bucket layout, Prometheus
    /// `histogram_quantile`-style: linear interpolation inside the bucket
    /// containing the target rank, the last finite bound when the rank
    /// lands in the `+Inf` bucket, `0.0` when nothing has been observed.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_cumulative(&self.bounds, &self.cumulative_buckets(), q)
    }
}

/// The `q`-quantile of a histogram given as bucket upper `bounds` plus
/// `cumulative` counts (one entry per bound, then the `+Inf` bucket).
///
/// This is the same estimate [`Histogram::quantile`] computes, exposed as
/// a free function so callers can merge the cumulative buckets of several
/// same-layout histograms (e.g. per-operation children of one family)
/// before asking for an aggregate quantile.
///
/// # Panics
///
/// Panics when `cumulative.len() != bounds.len() + 1` — merged layouts
/// must match the family's bounds.
pub fn quantile_from_cumulative(bounds: &[f64], cumulative: &[u64], q: f64) -> f64 {
    assert_eq!(
        cumulative.len(),
        bounds.len() + 1,
        "cumulative buckets must cover every bound plus +Inf"
    );
    let total = *cumulative.last().expect("at least the +Inf bucket");
    if total == 0 {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = q * total as f64;
    let idx = cumulative
        .iter()
        .position(|&c| c as f64 >= rank)
        .unwrap_or(bounds.len());
    if idx >= bounds.len() {
        // Rank fell in the +Inf bucket: the honest answer is "at least the
        // last finite bound" — report that bound, as Prometheus does.
        return bounds[bounds.len() - 1];
    }
    let upper = bounds[idx];
    let lower = if idx == 0 { 0.0 } else { bounds[idx - 1] };
    let below = if idx == 0 { 0 } else { cumulative[idx - 1] };
    let in_bucket = cumulative[idx] - below;
    if in_bucket == 0 {
        // The rank landed exactly on the cumulative boundary of an
        // *empty* bucket (only reachable at rank 0 when the histogram's
        // mass all sits in later buckets — the exact-fill edge). No
        // observation lives in this bucket, so its upper bound would
        // overstate: the distribution up to this rank ends at `lower`.
        return lower;
    }
    lower + (upper - lower) * ((rank - below as f64) / in_bucket as f64).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.inc_by(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_sets_and_adds() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.add(-1.0);
        assert_eq!(g.get(), 1.5);
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let h = Histogram::new(&[1.0, 10.0]);
        h.observe(0.5); // bucket le=1
        h.observe(1.0); // le bounds are inclusive
        h.observe(5.0); // bucket le=10
        h.observe(100.0); // +Inf
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106.5);
        assert_eq!(h.cumulative_buckets(), vec![2, 3, 4]);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for _ in 0..50 {
            h.observe(0.5); // le=1
        }
        for _ in 0..50 {
            h.observe(1.5); // le=2
        }
        // Median rank (50) sits exactly at the top of the first bucket.
        assert!((h.quantile(0.5) - 1.0).abs() < 1e-12);
        // 75th percentile: halfway through the (1, 2] bucket.
        assert!((h.quantile(0.75) - 1.5).abs() < 1e-12);
        // Extremes clamp to the bucket edges.
        assert!(h.quantile(0.0) >= 0.0);
        assert!((h.quantile(1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Histogram::new(&[1.0]);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn exact_fill_single_bucket_interpolates_not_upper_bound() {
        // Every observation lands in one interior bucket (2, 4]: the
        // daemon-stats layout after a burst of identical-latency requests.
        // p50/p99 must interpolate across the bucket, not collapse to the
        // bucket's upper bound.
        let h = Histogram::new(&[1.0, 2.0, 4.0, 8.0]);
        for _ in 0..100 {
            h.observe(3.0);
        }
        assert!(
            (h.quantile(0.5) - 3.0).abs() < 1e-12,
            "p50 = bucket midpoint"
        );
        let p99 = h.quantile(0.99);
        assert!((p99 - (2.0 + 2.0 * 0.99)).abs() < 1e-12, "got {p99}");
        assert!(p99 < 4.0, "p99 must stay below the bucket upper bound");
        // Rank 0 lands on the exactly-filled boundary of the empty first
        // bucket; the estimate must not report that empty bucket's upper
        // bound (1.0) — nothing was observed at or below it.
        assert_eq!(h.quantile(0.0), 0.0);
    }

    #[test]
    fn exemplar_tracks_latest_top_bucket_observation_only() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        // Fast observations never set an exemplar.
        h.observe_with_exemplar(0.5, "aaaa111122223333");
        assert_eq!(h.exemplar(), None);
        // A top-finite-bucket observation does; the overflow bucket too;
        // latest offender wins.
        h.observe_with_exemplar(3.0, "bbbb111122223333");
        assert_eq!(
            h.exemplar().map(|e| e.trace_id),
            Some("bbbb111122223333".to_string())
        );
        h.observe_with_exemplar(9.0, "cccc111122223333");
        let ex = h.exemplar().expect("exemplar set");
        assert_eq!(ex.trace_id, "cccc111122223333");
        assert_eq!(ex.value, 9.0);
        assert!(ex.ts_us > 0);
        // The counts include every observation, exemplar-worthy or not.
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn quantile_in_the_inf_bucket_reports_last_finite_bound() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(100.0);
        h.observe(200.0);
        assert_eq!(h.quantile(0.99), 2.0);
    }

    #[test]
    fn quantile_from_merged_cumulative_buckets() {
        // Two same-layout histograms merged bucket-wise must yield the
        // quantile of the union of their observations.
        let a = Histogram::new(&[1.0, 2.0, 4.0]);
        let b = Histogram::new(&[1.0, 2.0, 4.0]);
        for _ in 0..10 {
            a.observe(0.5);
        }
        for _ in 0..10 {
            b.observe(3.0);
        }
        let merged: Vec<u64> = a
            .cumulative_buckets()
            .iter()
            .zip(b.cumulative_buckets())
            .map(|(&x, y)| x + y)
            .collect();
        let q50 = quantile_from_cumulative(&[1.0, 2.0, 4.0], &merged, 0.5);
        // Half the mass is at 0.5, half at 3.0: the median lands on the
        // first bucket's top edge.
        assert!((q50 - 1.0).abs() < 1e-12, "got {q50}");
        let q90 = quantile_from_cumulative(&[1.0, 2.0, 4.0], &merged, 0.9);
        assert!(q90 > 2.0 && q90 <= 4.0, "got {q90}");
    }

    #[test]
    #[should_panic(expected = "cumulative buckets")]
    fn quantile_rejects_mismatched_layouts() {
        let _ = quantile_from_cumulative(&[1.0, 2.0], &[1, 2], 0.5);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn concurrent_totals_are_exact() {
        // N threads hammering one counter, one gauge and one histogram:
        // every total must come out exact, not approximately.
        use std::sync::Arc;
        let c = Arc::new(Counter::new());
        let g = Arc::new(Gauge::new());
        let h = Arc::new(Histogram::new(&[0.5, 1.5, 3.0]));
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let c = Arc::clone(&c);
                let g = Arc::clone(&g);
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        c.inc();
                        g.add(1.0);
                        h.observe((((t * per_thread + i) % 4) as f64) + 0.25);
                    }
                });
            }
        });
        let total = threads * per_thread;
        assert_eq!(c.get(), total);
        assert_eq!(g.get(), total as f64);
        assert_eq!(h.count(), total);
        // Observations cycle 0.25, 1.25, 2.25, 3.25 — exactly total/4 each
        // (f64 sums of .25 multiples are exact in binary).
        assert_eq!(h.sum(), (0.25 + 1.25 + 2.25 + 3.25) * (total / 4) as f64);
        assert_eq!(
            h.cumulative_buckets(),
            vec![total / 4, total / 2, 3 * total / 4, total]
        );
    }
}
