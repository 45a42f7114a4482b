//! The benchmark's own in-memory spans: one record per call into a layer
//! (name, start, end, the span that caused it, the operation it belongs
//! to), kept in memory and written out when the run ends. No crate under
//! test is instrumented; the spans wrap the calls from outside.
//!
//! A span's *self time* is its duration minus the part of that interval
//! its child spans cover (children of concurrent callers may overlap, so
//! the cover is the union of their intervals, clipped to the parent).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the run (1-based).
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    /// Operation id shared by every span of one solve / estimate.
    pub op: u64,
    /// Layer-boundary name, e.g. `daemon.solve`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// Collects spans from any thread; disabled recorders cost one relaxed
/// load per span.
#[derive(Debug)]
pub struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    next_op: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// An open span; records itself on drop.
#[derive(Debug)]
pub struct SpanGuard<'r> {
    recorder: &'r Recorder,
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start_ns: u64,
}

impl Recorder {
    /// A recorder; `enabled = false` makes every span a no-op.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_op: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// A fresh operation id (one per solve / estimate request).
    pub fn new_op(&self) -> u64 {
        self.next_op.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a span named `name` under `parent` (0 = root) for operation
    /// `op`. Returns `None` when disabled.
    pub fn span(&self, name: &'static str, parent: u64, op: u64) -> Option<SpanGuard<'_>> {
        if !self.enabled() {
            return None;
        }
        Some(SpanGuard {
            recorder: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            op,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
        })
    }

    /// All finished spans, in completion order.
    pub fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.spans.lock().expect("span store lock"))
    }
}

impl SpanGuard<'_> {
    /// This span's id, to parent children under.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// The id of an optional guard, 0 when spans are off.
pub fn id_of(guard: &Option<SpanGuard<'_>>) -> u64 {
    guard.as_ref().map_or(0, SpanGuard::id)
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.recorder.epoch.elapsed().as_nanos() as u64;
        // A poisoned store means another thread panicked mid-push; the
        // run is failing anyway and Drop must not panic.
        if let Ok(mut spans) = self.recorder.spans.lock() {
            spans.push(SpanRecord {
                id: self.id,
                parent: self.parent,
                op: self.op,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
            });
        }
    }
}

/// Total length of the union of `intervals`, each clipped to
/// `[lo, hi]`.
pub fn union_cover(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Self time of every span: `(id, self_ns)`, in the order given.
pub fn self_times(spans: &[SpanRecord]) -> Vec<(u64, u64)> {
    use std::collections::HashMap;
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            let cover = children
                .get_mut(&s.id)
                .map_or(0, |c| union_cover(c, s.start_ns, s.end_ns));
            (s.id, duration - cover.min(duration))
        })
        .collect()
}

/// Per-name aggregate of a span set: count, total and self seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct NameTotals {
    /// Span name.
    pub name: &'static str,
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations, seconds.
    pub total_s: f64,
    /// Sum of self times, seconds.
    pub self_s: f64,
}

/// Aggregates spans by name, largest self time first.
pub fn totals_by_name(spans: &[SpanRecord]) -> Vec<NameTotals> {
    use std::collections::BTreeMap;
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, &(_, self_ns)) in spans.iter().zip(&selfs) {
        let entry = by_name.entry(s.name).or_insert(NameTotals {
            name: s.name,
            count: 0,
            total_s: 0.0,
            self_s: 0.0,
        });
        entry.count += 1;
        entry.total_s += s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9;
        entry.self_s += self_ns as f64 / 1e9;
    }
    let mut out: Vec<NameTotals> = by_name.into_values().collect();
    out.sort_by(|a, b| {
        b.self_s
            .partial_cmp(&a.self_s)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            op: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [rec(1, 0, 0, 100), rec(2, 1, 10, 30), rec(3, 1, 50, 90)];
        assert_eq!(self_times(&spans), vec![(1, 40), (2, 20), (3, 40)]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two concurrent children overlap on [20, 40): cover is 10..60.
        let spans = [rec(1, 0, 0, 100), rec(2, 1, 10, 40), rec(3, 1, 20, 60)];
        assert_eq!(self_times(&spans)[0], (1, 50));
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = [rec(1, 0, 10, 50), rec(2, 1, 0, 20), rec(3, 1, 45, 80)];
        // Cover inside [10, 50] is [10, 20) + [45, 50) = 15.
        assert_eq!(self_times(&spans)[0], (1, 25));
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [rec(1, 0, 0, 100), rec(2, 1, 0, 60), rec(3, 2, 10, 50)];
        assert_eq!(self_times(&spans), vec![(1, 40), (2, 20), (3, 40)]);
    }

    #[test]
    fn recorder_links_parent_and_op_and_disables_cleanly() {
        let r = Recorder::new(true);
        let op = r.new_op();
        {
            let outer = r.span("outer", 0, op);
            let _inner = r.span("inner", id_of(&outer), op);
        }
        let spans = r.take();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.op, outer.op);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

        let off = Recorder::new(false);
        assert!(off.span("x", 0, 0).is_none());
        assert!(off.take().is_empty());
    }

    #[test]
    fn totals_rank_by_self_time() {
        let mut a = rec(1, 0, 0, 100);
        a.name = "parent";
        let mut b = rec(2, 1, 0, 90);
        b.name = "child";
        let totals = totals_by_name(&[a, b]);
        assert_eq!(totals[0].name, "child");
        assert!((totals[0].self_s - 90e-9).abs() < 1e-15);
        assert!((totals[1].self_s - 10e-9).abs() < 1e-15);
    }
}
