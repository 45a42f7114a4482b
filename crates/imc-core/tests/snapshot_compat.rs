//! Compatibility checks against committed snapshot files.
//!
//! Both fixtures hold the same deterministic collection
//! ([`fixture_store`], fingerprint of [`fixture_instance`], generation 3):
//!
//! * `fixtures/snapshot_v3.snap` was written by `encode` at the commit
//!   *before* `encode` became header + column copies. It pins the
//!   version-3 bytes across commits: a changed section order, padding or
//!   element type fails here even though every same-commit round trip
//!   would still pass.
//! * `fixtures/snapshot_v1.snap` was written by the row-major version-1
//!   encoder. Nothing reads it any more.
//!
//! Every reader answers v1 bytes, and v3 bytes stamped as version 2,
//! with a typed `UnsupportedVersion`.

use imc_community::CommunitySet;
use imc_core::snapshot::{
    decode, encode, instance_fingerprint, load, load_for_instance, RicStoreView, SnapshotBytes,
    SnapshotError,
};
use imc_core::{ImcInstance, RicStore};
use imc_graph::{GraphBuilder, NodeId};

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name);
    std::fs::read(path).expect("committed fixture present")
}

/// The instance the fixtures were sampled from (mirrors the service crate's
/// `tiny_state` test helper at the time the first fixture was written).
fn fixture_instance() -> ImcInstance {
    let mut b = GraphBuilder::new(6);
    b.add_edge(0, 1, 0.9).unwrap();
    b.add_edge(1, 2, 0.5).unwrap();
    b.add_edge(3, 4, 0.8).unwrap();
    let graph = b.build().unwrap();
    let communities = CommunitySet::from_parts(
        6,
        vec![
            (vec![NodeId::new(1), NodeId::new(2)], 1, 2.0),
            (vec![NodeId::new(4), NodeId::new(5)], 1, 3.0),
        ],
    )
    .unwrap();
    ImcInstance::new(graph, communities).unwrap()
}

/// The deterministic collection every fixture was sampled from, with the
/// fingerprint recorded in them.
fn fixture_store() -> (ImcInstance, u64, RicStore) {
    let instance = fixture_instance();
    let fp = instance_fingerprint(instance.graph(), instance.communities());
    let sampler = instance.sampler();
    let mut store = RicStore::for_sampler(&sampler);
    store.extend_parallel_with_workers(&sampler, 200, 7, 1);
    (instance, fp, store)
}

#[test]
fn v3_bytes_are_pinned_across_commits() {
    let committed = fixture("snapshot_v3.snap");
    assert_eq!(committed[7], 3, "fixture must remain a version-3 file");
    let (instance, fp, fresh) = fixture_store();
    assert_eq!(encode(&fresh, fp, 3), committed);

    let data = decode(&committed).expect("v3 fixture decodes");
    assert_eq!((data.fingerprint, data.generation), (fp, 3));
    assert_eq!(data.collection, fresh);

    // The same bytes pass the fingerprint gate from disk.
    let dir = std::env::temp_dir().join(format!("imc-compat-v3-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fixture.snap");
    std::fs::write(&path, &committed).unwrap();
    let gated = load_for_instance(&path, &instance).expect("fingerprint matches");
    assert_eq!(gated.collection, fresh);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v1_and_v2_bytes_are_unsupported_by_every_live_reader() {
    let instance = fixture_instance();
    let dir = std::env::temp_dir().join(format!("imc-compat-old-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let v1 = fixture("snapshot_v1.snap");
    assert_eq!(v1[7], 1, "snapshot_v1.snap must remain a version-1 file");
    let mut v2 = fixture("snapshot_v3.snap");
    v2[7] = 2;
    for (name, version, bytes) in [("snapshot_v1.snap", 1u8, v1), ("v3 stamped as v2", 2, v2)] {
        let unsupported =
            |e: &SnapshotError| matches!(e, SnapshotError::UnsupportedVersion(v) if *v == version);

        assert!(unsupported(&decode(&bytes).unwrap_err()), "decode {name}");
        let aligned = SnapshotBytes::copy_from(&bytes);
        assert!(
            unsupported(&RicStoreView::open(aligned.as_bytes()).unwrap_err()),
            "RicStoreView::open {name}"
        );
        let path = dir.join(format!("v{version}.snap"));
        std::fs::write(&path, &bytes).unwrap();
        assert!(unsupported(&load(&path).unwrap_err()), "load {name}");
        assert!(
            unsupported(&load_for_instance(&path, &instance).unwrap_err()),
            "load_for_instance {name}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
