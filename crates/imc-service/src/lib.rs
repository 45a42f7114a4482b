//! # imc-service — persistent RIC store + multi-threaded query daemon
//!
//! Serves IMC queries over TCP from a warm, shared, atomically-refreshed
//! RIC sample collection:
//!
//! * the instance (graph + communities) and the sample collection are
//!   loaded **once** into [`ServiceState`] and shared by every connection;
//! * a fixed worker-thread pool handles connections concurrently, each
//!   request *pinning* the current collection `Arc` so solves are
//!   consistent even while a refresh publishes a new one;
//! * a background [`refresher`] thread grows the collection (doubling, as
//!   in IMCAF's outer loop) and publishes snapshots via an atomic `Arc`
//!   swap — readers never block on sampling;
//! * the wire format is newline-delimited JSON ([`protocol`]), hand-rolled
//!   over `std::net` — no external dependencies.
//!
//! Snapshots of the collection (with the instance fingerprint and a
//! generation counter) persist via [`imc_core::snapshot`], so a daemon can
//! cold-start warm: `imc snapshot save` then `imc serve --snapshot <file>`
//! answers `estimate` queries without regenerating a single sample.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
// The codec lives in `imc_obs::json`; this re-export keeps the
// `imc_service::json` path that the benchmark crate and the wire tests
// import.
pub use imc_obs::json;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod refresher;
pub mod server;

use imc_core::snapshot::{self, SnapshotData, SnapshotError};
use imc_core::{ImcInstance, RicStore};
use imc_obs::families;
use metrics::Metrics;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

pub use server::{RefreshConfig, ServeConfig, Server, ServerHandle};

/// Shared, thread-safe service state: one instance, one swappable
/// collection, one metrics registry.
#[derive(Debug)]
pub struct ServiceState {
    instance: ImcInstance,
    fingerprint: u64,
    collection: RwLock<Arc<RicStore>>,
    generation: AtomicU64,
    metrics: Metrics,
}

impl ServiceState {
    /// Wraps an instance and an initial collection (possibly empty) as
    /// snapshot `generation`.
    ///
    /// Also registers every metric family of the table
    /// ([`imc_obs::families::register`]) in the global registry, so the
    /// first `/metrics` scrape sees them at zero rather than absent.
    pub fn new(instance: ImcInstance, collection: RicStore, generation: u64) -> Self {
        families::register(imc_obs::global());
        let fingerprint = snapshot::instance_fingerprint(instance.graph(), instance.communities());
        let state = ServiceState {
            instance,
            fingerprint,
            collection: RwLock::new(Arc::new(collection)),
            generation: AtomicU64::new(generation),
            metrics: Metrics::new(),
        };
        state.refresh_gauges();
        state
    }

    /// Starts from a decoded snapshot, verifying it matches the instance.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::FingerprintMismatch`] when the snapshot was sampled
    /// from a different graph/community structure.
    pub fn from_snapshot(instance: ImcInstance, data: SnapshotData) -> Result<Self, SnapshotError> {
        let expected = snapshot::instance_fingerprint(instance.graph(), instance.communities());
        if data.fingerprint != expected {
            return Err(SnapshotError::FingerprintMismatch {
                expected,
                found: data.fingerprint,
            });
        }
        Ok(ServiceState::new(
            instance,
            data.collection,
            data.generation,
        ))
    }

    /// Loads a snapshot file and wraps it.
    ///
    /// The cold-start wall time (file read + decode/validate + fingerprint
    /// check) is recorded into the `imc_snapshot_load_seconds` histogram.
    /// With version-3 snapshots the decode adopts the persisted inverted
    /// index instead of rebuilding it; a daemon that trusts its snapshot
    /// source can go further and borrow the columns zero-copy via
    /// [`imc_core::snapshot::RicStoreView`] (see `docs/FORMATS.md`).
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`], including fingerprint mismatch.
    pub fn from_snapshot_path(instance: ImcInstance, path: &Path) -> Result<Self, SnapshotError> {
        let started = std::time::Instant::now();
        let data = snapshot::load_for_instance(path, &instance)?;
        families::SNAPSHOT_LOAD_DURATION
            .handle()
            .observe_duration(started.elapsed());
        ServiceState::from_snapshot(instance, data)
    }

    /// The problem instance.
    pub fn instance(&self) -> &ImcInstance {
        &self.instance
    }

    /// Fingerprint of the instance (matches snapshot files).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Pins the currently-published collection. The returned `Arc` stays
    /// valid (and immutable) even if a refresh publishes a newer
    /// generation mid-request.
    pub fn collection(&self) -> Arc<RicStore> {
        Arc::clone(&self.collection.read().expect("collection lock"))
    }

    /// Pins the current collection together with its generation number,
    /// read consistently under one lock acquisition (a concurrent
    /// [`publish`](Self::publish) can never tear the pair).
    pub fn pinned(&self) -> (Arc<RicStore>, u64) {
        let slot = self.collection.read().expect("collection lock");
        (Arc::clone(&slot), self.generation.load(Ordering::SeqCst))
    }

    /// Atomically publishes a new collection, bumping the generation.
    /// Returns the new generation number.
    pub fn publish(&self, collection: RicStore) -> u64 {
        let generation = {
            let mut slot = self.collection.write().expect("collection lock");
            *slot = Arc::new(collection);
            self.generation.fetch_add(1, Ordering::SeqCst) + 1
        };
        self.refresh_gauges();
        generation
    }

    /// Pushes the current collection size, generation, and arena footprint
    /// into the `imc_collection_samples` / `imc_collection_generation` /
    /// `imc_ric_store_*` gauges. Called on construction, on publish, and
    /// before each exposition.
    pub fn refresh_gauges(&self) {
        let (collection, generation) = self.pinned();
        families::COLLECTION_SAMPLES
            .handle()
            .set(collection.len() as f64);
        families::COLLECTION_GENERATION
            .handle()
            .set(generation as f64);
        families::RIC_STORE_ARENA_BYTES
            .handle()
            .set(collection.arena_bytes() as f64);
        families::RIC_STORE_INDEX_ENTRIES
            .handle()
            .set(collection.index_entries() as f64);
    }

    /// Current snapshot generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Request metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Persists the current collection to a snapshot file.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failure.
    pub fn save_snapshot(&self, path: &Path) -> Result<(), SnapshotError> {
        let collection = self.collection();
        snapshot::save(path, &*collection, self.fingerprint, self.generation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_community::CommunitySet;
    use imc_graph::{GraphBuilder, NodeId};

    fn tiny_instance() -> ImcInstance {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.add_edge(3, 4, 0.8).unwrap();
        let g = b.build().unwrap();
        let cs = CommunitySet::from_parts(
            6,
            vec![
                (vec![NodeId::new(1), NodeId::new(2)], 1, 2.0),
                (vec![NodeId::new(4), NodeId::new(5)], 1, 3.0),
            ],
        )
        .unwrap();
        ImcInstance::new(g, cs).unwrap()
    }

    pub(crate) fn tiny_state(samples: usize) -> ServiceState {
        let instance = tiny_instance();
        let sampler = instance.sampler();
        let mut col = RicStore::for_sampler(&sampler);
        col.extend_parallel_with_workers(&sampler, samples, 7, 1);
        // `col` borrows `instance` via the sampler only transiently; the
        // collection itself owns its data.
        ServiceState::new(instance, col, 0)
    }

    /// The tiny instance serving `store` (say, one partition of a
    /// [`tiny_state`] collection) instead of a fresh draw.
    pub(crate) fn state_over(store: RicStore) -> ServiceState {
        ServiceState::new(tiny_instance(), store, 0)
    }

    #[test]
    fn publish_swaps_atomically_while_pinned() {
        let state = tiny_state(100);
        let pinned = state.collection();
        assert_eq!(pinned.len(), 100);
        assert_eq!(state.generation(), 0);

        let sampler = state.instance().sampler();
        let mut bigger = RicStore::for_sampler(&sampler);
        bigger.extend_parallel_with_workers(&sampler, 200, 9, 1);
        let generation = state.publish(bigger);
        assert_eq!(generation, 1);
        assert_eq!(state.generation(), 1);
        // The pinned Arc still sees the old data; a fresh pin sees the new.
        assert_eq!(pinned.len(), 100);
        assert_eq!(state.collection().len(), 200);
    }

    #[test]
    fn snapshot_round_trip_through_state() {
        let state = tiny_state(50);
        let dir = std::env::temp_dir().join(format!("imc-svc-state-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.snap");
        state.save_snapshot(&path).unwrap();

        let instance = state.instance().clone();
        let loads_before = families::SNAPSHOT_LOAD_DURATION.handle().count();
        let restored = ServiceState::from_snapshot_path(instance, &path).unwrap();
        assert_eq!(restored.generation(), 0);
        assert_eq!(*restored.collection(), *state.collection());
        // The cold-start load is observed in imc_snapshot_load_seconds.
        assert!(families::SNAPSHOT_LOAD_DURATION.handle().count() > loads_before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn from_snapshot_path_refuses_pre_v3_files() {
        // The committed fixtures were sampled from `tiny_state`'s
        // instance, so only their format version stands in the way: the
        // version-1 file, and the version-3 file restamped as version 2.
        let instance = tiny_state(1).instance().clone();
        let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("../imc-core/tests/fixtures");
        let v3 = fixtures.join("snapshot_v3.snap");
        let mut v2_bytes = std::fs::read(&v3).unwrap();
        v2_bytes[7] = 2;
        let dir = std::env::temp_dir().join(format!("imc-svc-pre-v3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let v2 = dir.join("v2.snap");
        std::fs::write(&v2, v2_bytes).unwrap();
        for (path, version) in [(fixtures.join("snapshot_v1.snap"), 1), (v2, 2)] {
            assert!(
                matches!(
                    ServiceState::from_snapshot_path(instance.clone(), &path),
                    Err(SnapshotError::UnsupportedVersion(v)) if v == version
                ),
                "{}",
                path.display()
            );
        }
        assert!(ServiceState::from_snapshot_path(instance, &v3).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn from_snapshot_rejects_foreign_instance() {
        let state = tiny_state(10);
        let dir = std::env::temp_dir().join(format!("imc-svc-fp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.snap");
        state.save_snapshot(&path).unwrap();

        // A different graph (extra edge) must be refused.
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.add_edge(3, 4, 0.8).unwrap();
        b.add_edge(4, 5, 0.8).unwrap();
        let g = b.build().unwrap();
        let cs = CommunitySet::from_parts(
            6,
            vec![
                (vec![NodeId::new(1), NodeId::new(2)], 1, 2.0),
                (vec![NodeId::new(4), NodeId::new(5)], 1, 3.0),
            ],
        )
        .unwrap();
        let other = ImcInstance::new(g, cs).unwrap();
        assert!(matches!(
            ServiceState::from_snapshot_path(other, &path),
            Err(SnapshotError::FingerprintMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
