//! Property-based tests (proptest) for the snapshot store: encode/decode
//! round-trips, rejection of truncated or corrupted files, and — with the
//! checksum re-stamped so only the structural validators stand in the way —
//! hostile bytes that must be refused or be safe to solve over.

use imc_community::CommunityId;
use imc_community::CommunitySet;
use imc_core::snapshot::{self, RicStoreView, SnapshotBytes};
use imc_core::{
    CoverSet, ImcInstance, MaxrAlgorithm, RicSample, RicSamples, RicStore, SolveRequest,
};
use imc_graph::{generators::erdos_renyi, GraphBuilder, NodeId, WeightModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small random instance plus a collection sampled from it.
fn sampled_instance(seed: u64, samples: usize) -> (ImcInstance, u64, RicStore) {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = erdos_renyi(30, 0.1, &mut rng).reweighted(WeightModel::Uniform(0.3));
    let members: Vec<Vec<NodeId>> = (0..6)
        .map(|c| (c * 5..c * 5 + 5).map(NodeId::new).collect())
        .collect();
    let parts = members
        .into_iter()
        .enumerate()
        .map(|(i, m)| (m, 1 + (i as u32 % 3), 1.0 + i as f64))
        .collect();
    let communities = CommunitySet::from_parts(30, parts).unwrap();
    let fp = snapshot::instance_fingerprint(&graph, &communities);
    let instance = ImcInstance::new(graph, communities).unwrap();
    let sampler = instance.sampler();
    let mut col = RicStore::for_sampler(&sampler);
    col.extend_with(&sampler, samples, &mut rng);
    (instance, fp, col)
}

fn sampled_collection(seed: u64, samples: usize) -> (u64, RicStore) {
    let (_, fp, col) = sampled_instance(seed, samples);
    (fp, col)
}

/// Overwrites one byte per site — `(in_head, position fraction, value)`,
/// `in_head` aiming at the first `head_len` bytes (header, section table or
/// leading metadata) where a random hit would otherwise be rare — and
/// re-stamps a valid FNV-1a trailer, so the checksum no longer shields the
/// structural validators.
fn mutate_and_restamp(bytes: &[u8], head_len: usize, sites: &[(u8, f64, u8)]) -> Vec<u8> {
    let mut bad = bytes.to_vec();
    let body = bad.len() - 8;
    for &(in_head, frac, value) in sites {
        let span = if in_head == 0 {
            head_len.min(body)
        } else {
            body
        };
        bad[(span as f64 * frac) as usize] = value;
    }
    let sum = snapshot::fnv1a(&bad[..body]);
    bad[body..].copy_from_slice(&sum.to_le_bytes());
    bad
}

/// What "accepted" must mean for hostile bytes: a full `verify()` passes
/// over the collection's own encoding and a solve runs to completion.
fn assert_safe_to_solve(instance: &ImcInstance, samples: &impl RicSamples) {
    let bytes = SnapshotBytes::copy_from(&snapshot::encode(samples, 0, 0));
    bytes.view().expect("reopens").verify().expect("verifies");
    MaxrAlgorithm::Ubg
        .solve(instance, samples, &SolveRequest::new(3))
        .expect("k=3 UBG solve completes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn round_trip_is_identity(seed in 0u64..1000, samples in 1usize..80) {
        let (fp, col) = sampled_collection(seed, samples);
        let bytes = snapshot::encode(&col, fp, seed);
        let data = snapshot::decode(&bytes).expect("round trip decodes");
        prop_assert_eq!(data.fingerprint, fp);
        prop_assert_eq!(data.generation, seed);
        prop_assert_eq!(&data.collection, &col);
        prop_assert_eq!(data.collection.node_count(), col.node_count());
        prop_assert_eq!(data.collection.total_benefit(), col.total_benefit());
        // The rebuilt inverted index must answer identically for every node.
        for v in 0..col.node_count() {
            let v = NodeId::new(v as u32);
            prop_assert_eq!(data.collection.touched_by(v), col.touched_by(v));
        }
    }

    #[test]
    fn truncation_never_decodes(seed in 0u64..200, cut_frac in 0.0f64..1.0) {
        let (fp, col) = sampled_collection(seed, 20);
        let bytes = snapshot::encode(&col, fp, 0);
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(snapshot::decode(&bytes[..cut]).is_err(), "cut at {} accepted", cut);
    }

    #[test]
    fn single_bit_flip_never_decodes_to_different_collection(
        seed in 0u64..200,
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let (fp, col) = sampled_collection(seed, 20);
        let bytes = snapshot::encode(&col, fp, 0);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        let mut bad = bytes.clone();
        bad[pos] ^= 1 << bit;
        // Either rejected outright (the expected case — FNV-1a catches any
        // single-bit flip), or, hypothetically, decodes to exactly the same
        // content; it must never yield a *different* collection.
        match snapshot::decode(&bad) {
            Err(_) => {}
            Ok(data) => prop_assert_eq!(&data.collection, &col),
        }
    }

    #[test]
    fn appended_garbage_never_decodes(seed in 0u64..100, extra in 1usize..64) {
        let (fp, col) = sampled_collection(seed, 10);
        let mut bytes = snapshot::encode(&col, fp, 0);
        bytes.extend(std::iter::repeat_n(0xabu8, extra));
        prop_assert!(snapshot::decode(&bytes).is_err());
    }

    #[test]
    fn fingerprint_distinguishes_edge_weights(w in 0.01f64..0.99, w2 in 0.01f64..0.99) {
        prop_assume!((w - w2).abs() > 1e-9);
        let build = |weight: f64| {
            let mut b = GraphBuilder::new(4);
            b.add_edge(0, 1, weight).unwrap();
            b.add_edge(2, 3, 0.5).unwrap();
            b.build().unwrap()
        };
        let cs = CommunitySet::from_parts(
            4,
            vec![(vec![NodeId::new(1), NodeId::new(3)], 1, 1.0)],
        )
        .unwrap();
        prop_assert_ne!(
            snapshot::instance_fingerprint(&build(w), &cs),
            snapshot::instance_fingerprint(&build(w2), &cs)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hostile_v3_bytes_are_refused_or_safe(
        seed in 0u64..50,
        sites in prop::collection::vec((0u8..2, 0.0f64..1.0, 0u8..=255), 1..=8),
    ) {
        let (instance, fp, col) = sampled_instance(seed, 20);
        // 208 = header + section table.
        let bad = mutate_and_restamp(&snapshot::encode(&col, fp, 0), 208, &sites);
        if let Ok(data) = snapshot::decode(&bad) {
            assert_safe_to_solve(&instance, &data.collection);
        }
        let aligned = SnapshotBytes::copy_from(&bad);
        if let Ok(view) = RicStoreView::open_verified(aligned.as_bytes()) {
            assert_safe_to_solve(&instance, &view);
        }
    }
}

#[test]
fn empty_collection_round_trips() {
    let col = RicStore::new(5, 2, 3.5);
    let data = snapshot::decode(&snapshot::encode(&col, 9, 1)).unwrap();
    assert!(data.collection.is_empty());
    assert_eq!(data.collection.node_count(), 5);
    assert_eq!(data.collection.community_count(), 2);
    assert_eq!(data.collection.total_benefit(), 3.5);
}

#[test]
fn hand_built_wide_community_round_trips() {
    let mut col = RicStore::new(3, 1, 2.0);
    let mut cover = CoverSet::new(100);
    cover.set(99);
    cover.set(63);
    cover.set(64);
    col.push_sample(&RicSample {
        community: CommunityId::new(0),
        threshold: 3,
        community_size: 100,
        nodes: vec![NodeId::new(2)],
        covers: vec![cover],
    })
    .unwrap();
    let data = snapshot::decode(&snapshot::encode(&col, 1, 0)).unwrap();
    assert_eq!(data.collection, col);
}
