//! The metric registry: named families of counters/gauges/histograms with
//! label sets.
//!
//! A *family* is one exported metric name (`imc_requests_total`) with a
//! help string, a kind, and a fixed list of label names; its *children*
//! are the concrete instruments, one per label-value tuple. Registration
//! is idempotent: asking for an existing (name, labels) pair returns the
//! same `Arc`, so callers cache handles freely.

use crate::metrics::{Counter, Gauge, Histogram};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, RwLock};

/// Which instrument type a family exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Current-value gauge.
    Gauge,
    /// Fixed-bucket histogram.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Child {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
pub(crate) struct Family {
    pub(crate) name: String,
    pub(crate) help: String,
    pub(crate) kind: MetricKind,
    pub(crate) label_names: Vec<String>,
    /// Bucket layout shared by every child (histogram families only; the
    /// first registration wins).
    bounds: Vec<f64>,
    pub(crate) children: RwLock<BTreeMap<Vec<String>, Child>>,
}

impl Family {
    /// Panics unless a re-registration asks for this family's kind and
    /// label names.
    fn assert_matches(&self, kind: MetricKind, labels: &[(&str, &str)]) {
        let name = &self.name;
        assert!(
            self.kind == kind,
            "metric `{name}` re-registered as {kind:?}, was {:?}",
            self.kind
        );
        let names = || labels.iter().map(|(k, _)| *k);
        assert!(
            self.label_names.iter().map(String::as_str).eq(names()),
            "metric `{name}` re-registered with labels {:?}, was {:?}",
            names().collect::<Vec<_>>(),
            self.label_names
        );
    }
}

/// A collection of metric families, encodable as one exposition.
///
/// Most code uses the process-wide [`global()`](crate::global) registry;
/// local registries exist for tests and embedding.
#[derive(Debug, Default)]
pub struct Registry {
    inner: RwLock<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    families: Vec<Arc<Family>>,
    by_name: HashMap<String, usize>,
}

impl Inner {
    fn get(&self, name: &str) -> Option<Arc<Family>> {
        self.by_name
            .get(name)
            .map(|&idx| Arc::clone(&self.families[idx]))
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or retrieves) an unlabeled counter.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered with a different kind or
    /// label set — metric identity is static configuration.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Registers (or retrieves) a counter child with the given labels.
    ///
    /// # Panics
    ///
    /// Same conditions as [`counter`](Self::counter); additionally when
    /// the label *names* differ from the family's first registration.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let family = self.family(name, help, MetricKind::Counter, labels, &[]);
        let child = self.child(&family, labels, || Child::Counter(Arc::new(Counter::new())));
        match child {
            Child::Counter(c) => c,
            _ => unreachable!("family kind checked above"),
        }
    }

    /// Registers (or retrieves) an unlabeled gauge.
    ///
    /// # Panics
    ///
    /// Same conditions as [`counter`](Self::counter).
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or retrieves) a gauge child with the given labels.
    ///
    /// # Panics
    ///
    /// Same conditions as [`counter_with`](Self::counter_with).
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let family = self.family(name, help, MetricKind::Gauge, labels, &[]);
        let child = self.child(&family, labels, || Child::Gauge(Arc::new(Gauge::new())));
        match child {
            Child::Gauge(g) => g,
            _ => unreachable!("family kind checked above"),
        }
    }

    /// Registers (or retrieves) an unlabeled histogram with the given
    /// bucket bounds.
    ///
    /// # Panics
    ///
    /// Same conditions as [`counter`](Self::counter), plus
    /// [`Histogram::new`]'s bound validation.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Registers (or retrieves) a histogram child with the given labels.
    ///
    /// Every child of a family shares the bucket layout of the family's
    /// first registration; later `bounds` arguments are ignored.
    ///
    /// # Panics
    ///
    /// Same conditions as [`counter_with`](Self::counter_with), plus
    /// [`Histogram::new`]'s bound validation.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        let family = self.family(name, help, MetricKind::Histogram, labels, bounds);
        let family_bounds = family.bounds.clone();
        let child = self.child(&family, labels, || {
            Child::Histogram(Arc::new(Histogram::new(&family_bounds)))
        });
        match child {
            Child::Histogram(h) => h,
            _ => unreachable!("family kind checked above"),
        }
    }

    /// Registers `spec`'s family without creating a child, so it is listed
    /// (in registration order) before its first label values are known.
    pub(crate) fn declare(&self, spec: &crate::families::Spec) {
        let labels: Vec<(&str, &str)> = spec.labels.iter().map(|name| (*name, "")).collect();
        self.family(spec.name, spec.help, spec.kind, &labels, spec.buckets);
    }

    /// Registration-ordered snapshot of the families (for the encoder).
    pub(crate) fn families(&self) -> Vec<Arc<Family>> {
        self.inner.read().expect("registry lock").families.clone()
    }

    fn family(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Family> {
        // An existing family is found under the read lock and checked
        // without allocating: every span drop and labelled-handle fetch
        // comes through here, and they must not serialise on this lock.
        let existing = self.inner.read().expect("registry lock").get(name);
        if let Some(family) = existing {
            family.assert_matches(kind, labels);
            return family;
        }
        if kind == MetricKind::Histogram {
            // Validate bucket layout eagerly so the panic points here.
            let _ = Histogram::new(bounds);
        }
        let mut inner = self.inner.write().expect("registry lock");
        // Another thread may have inserted between the two locks.
        if let Some(family) = inner.get(name) {
            drop(inner);
            family.assert_matches(kind, labels);
            return family;
        }
        let family = Arc::new(Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            label_names: labels.iter().map(|(k, _)| (*k).to_string()).collect(),
            bounds: bounds.to_vec(),
            children: RwLock::new(BTreeMap::new()),
        });
        let idx = inner.families.len();
        inner.families.push(Arc::clone(&family));
        inner.by_name.insert(name.to_string(), idx);
        family
    }

    fn child(
        &self,
        family: &Family,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Child,
    ) -> Child {
        let key: Vec<String> = labels.iter().map(|(_, v)| (*v).to_string()).collect();
        {
            let children = family.children.read().expect("family lock");
            if let Some(c) = children.get(&key) {
                return c.clone();
            }
        }
        let mut children = family.children.write().expect("family lock");
        children.entry(key).or_insert_with(make).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("x_total", "x");
        let b = r.counter("x_total", "x");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn labeled_children_are_distinct() {
        let r = Registry::new();
        let solve = r.counter_with("req_total", "reqs", &[("op", "solve")]);
        let stats = r.counter_with("req_total", "reqs", &[("op", "stats")]);
        solve.inc();
        assert_eq!(solve.get(), 1);
        assert_eq!(stats.get(), 0);
        assert_eq!(r.families().len(), 1);
    }

    #[test]
    fn histogram_children_share_bounds() {
        let r = Registry::new();
        let a = r.histogram_with("h", "h", &[1.0, 2.0], &[("x", "a")]);
        // Later bounds are ignored; the family layout wins.
        let b = r.histogram_with("h", "h", &[9.0], &[("x", "b")]);
        assert_eq!(a.bounds(), b.bounds());
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("same_name", "a");
        let _ = r.gauge("same_name", "b");
    }

    #[test]
    #[should_panic(expected = "labels")]
    fn label_name_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter_with("same", "a", &[("op", "x")]);
        let _ = r.counter_with("same", "a", &[("kind", "x")]);
    }

    #[test]
    fn concurrent_registration_and_updates_are_exact() {
        // The satellite-required registry concurrency test: N threads
        // race to register AND update the same families; totals exact.
        let r = Arc::new(Registry::new());
        let threads = 8;
        let per_thread = 5_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let r = Arc::clone(&r);
                scope.spawn(move || {
                    let op = if t % 2 == 0 { "even" } else { "odd" };
                    for _ in 0..per_thread {
                        r.counter_with("race_total", "racing counter", &[("op", op)])
                            .inc();
                        r.histogram("race_hist", "racing histogram", &[1.0, 2.0])
                            .observe(1.5);
                    }
                });
            }
        });
        let even = r.counter_with("race_total", "racing counter", &[("op", "even")]);
        let odd = r.counter_with("race_total", "racing counter", &[("op", "odd")]);
        assert_eq!(even.get() + odd.get(), threads as u64 * per_thread);
        assert_eq!(even.get(), odd.get());
        let h = r.histogram("race_hist", "racing histogram", &[1.0, 2.0]);
        assert_eq!(h.count(), threads as u64 * per_thread);
        assert_eq!(h.sum(), 1.5 * (threads as u64 * per_thread) as f64);
        assert_eq!(
            h.cumulative_buckets(),
            vec![0, threads as u64 * per_thread, threads as u64 * per_thread]
        );
    }
}
