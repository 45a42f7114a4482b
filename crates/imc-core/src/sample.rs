use crate::CoverSet;
use imc_community::CommunityId;
use imc_graph::NodeId;

/// One Reverse Influenceable Community (RIC) sample — Definition 2 of the
/// paper.
///
/// A sample is rooted at a *source community* `C_g` (chosen with probability
/// `b_i / b`) and a live-edge realization `G_g` of the graph. It stores:
///
/// * every node that *touches* `C_g` in `G_g` (has a live path to some
///   member), and
/// * for each such node, the [`CoverSet`] of member indices it reaches —
///   the inverted form of the paper's reachable sets `R_g(u)`.
///
/// A seed set `S` *influences* the sample when the union of its members'
/// cover sets has at least `threshold` bits — i.e. `S` reaches at least
/// `h_g` members of `C_g` (the indicator `X_g(S)`).
///
/// This is the type a sample is built by hand in (test fixtures) and
/// handed over in ([`RicSampler::sample`](crate::RicSampler::sample),
/// [`RicSampleView::to_sample`](crate::RicSampleView::to_sample)); it has
/// no methods. A [`RicStore`](crate::RicStore) holds samples as columns
/// and answers every query: `X_g(S)` is
/// [`RicSamples::sample_influenced`](crate::RicSamples::sample_influenced).
#[derive(Debug, Clone, PartialEq)]
pub struct RicSample {
    /// The source community `C_g`.
    pub community: CommunityId,
    /// Activation threshold `h_g` of the source community.
    pub threshold: u32,
    /// `|C_g|` — the width of every cover set in this sample.
    pub community_size: u32,
    /// All nodes touching `C_g` in the live-edge graph, **strictly
    /// ascending** by id (sorted, no duplicates), which
    /// [`RicStore::push_sample`](crate::RicStore::push_sample) checks:
    /// the store's lookups binary-search it. Members of `C_g` always touch
    /// it (empty path), so they appear here.
    pub nodes: Vec<NodeId>,
    /// `covers[i]`: which member indices (positions within the community's
    /// sorted member list) `nodes[i]` reaches. Parallel to `nodes`.
    pub covers: Vec<CoverSet>,
}

#[cfg(test)]
mod tests {
    use crate::maxr::testutil::sample;
    use crate::{nu_term, RicSample, RicSamples, RicStore, RicStoreError, NU_ONE};
    use imc_graph::NodeId;

    /// The Fig. 3-style sample as a one-sample store: a community of 4
    /// members (indices 0..4) with threshold 3, touched by nodes 1–7
    /// (8 and up exist but touch nothing).
    /// covers: v1 reaches {0}, v2 {1}, v3 {2}, v4 {3}, v5 {0,1}, v6 {2},
    /// v7 {0,1,2}.
    fn fig3_store() -> RicStore {
        RicStore::from_samples(10, 1, 1.0, [&fig3_sample()]).unwrap()
    }

    fn fig3_sample() -> RicSample {
        let masks: [&[usize]; 7] = [&[0], &[1], &[2], &[3], &[0, 1], &[2], &[0, 1, 2]];
        let entries: Vec<(u32, &[usize])> = (1..).zip(masks).collect();
        sample(0, 3, 4, &entries)
    }

    fn ids(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().copied().map(NodeId::new).collect()
    }

    #[test]
    fn cover_lookup() {
        let g = fig3_store();
        assert_eq!(g.touched_by(NodeId::new(5)).len(), 1);
        assert!(g.touched_by(NodeId::new(9)).is_empty());
        assert_eq!(g.view(0).cover_of(NodeId::new(7)), Some(&[0b111u64][..]));
        assert_eq!(g.view(0).cover_of(NodeId::new(0)), None);
    }

    #[test]
    fn paper_fig3_influence_cases() {
        let g = fig3_store();
        // "g is influenced by {v5, v6} or {v7} but not by {v1} or {v1, v4}"
        assert_eq!(g.influenced_count(&ids(&[5, 6])), 1);
        assert_eq!(g.influenced_count(&ids(&[7])), 1);
        assert_eq!(g.influenced_count(&ids(&[1])), 0);
        assert_eq!(g.influenced_count(&ids(&[1, 4])), 0);
    }

    #[test]
    fn covered_members_dedups_overlap() {
        let g = fig3_store();
        // v5 covers {0,1}, v7 covers {0,1,2}: union is 3, not 5.
        assert_eq!(g.sample_covered_members(0, &ids(&[5, 7])), 3);
    }

    #[test]
    fn nu_term_clamps_at_one() {
        let g = fig3_store();
        assert_eq!(g.sample_nu_term(0, &ids(&[1])), nu_term(1, 3));
        assert_eq!(g.sample_nu_term(0, &ids(&[7, 4, 5])), NU_ONE);
    }

    #[test]
    fn seeds_outside_sample_contribute_nothing() {
        let g = fig3_store();
        // 9 is in the graph but not the sample; 100 is past the graph.
        for seeds in [ids(&[9]), ids(&[100]), ids(&[9, 100])] {
            assert_eq!(g.sample_covered_members(0, &seeds), 0);
            assert_eq!(g.influenced_count(&seeds), 0);
        }
        assert_eq!(g.influenced_count(&ids(&[7, 100])), 1);
    }

    #[test]
    fn unsorted_or_duplicate_nodes_degrade_safely_and_store_rejects_them() {
        let rejected = RicStoreError::NodesNotStrictlyAscending { sample: 0 };
        let mut reversed = fig3_sample();
        reversed.nodes.reverse(); // 7,6,...,1 — violates the invariant.
        let mut dup = fig3_sample();
        dup.nodes[1] = dup.nodes[0]; // duplicate id 1 at positions 0 and 1.

        let mut store = RicStore::new(10, 1, 1.0);
        for bad in [&reversed, &dup] {
            assert_eq!(store.push_sample(bad), Err(rejected));
            assert_eq!(
                RicStore::from_samples(10, 1, 1.0, [bad]).err(),
                Some(rejected)
            );
        }
        assert!(store.is_empty(), "rejected samples must not be appended");

        // The refused pushes leave the store whole: a valid sample still
        // lands at index 0 and every lookup on it is exact.
        store.push_sample(&fig3_sample()).unwrap();
        assert_eq!(store.len(), 1);
        for v in 1..=7 {
            assert_eq!(store.touched_by(NodeId::new(v)).len(), 1);
        }
        assert_eq!(store.influenced_count(&ids(&[7])), 1);
        assert_eq!(store.influenced_count(&ids(&[1, 4])), 0);
    }
}
