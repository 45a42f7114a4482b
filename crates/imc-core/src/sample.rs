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
#[derive(Debug, Clone, PartialEq)]
pub struct RicSample {
    /// The source community `C_g`.
    pub community: CommunityId,
    /// Activation threshold `h_g` of the source community.
    pub threshold: u32,
    /// `|C_g|` — the width of every cover set in this sample.
    pub community_size: u32,
    /// All nodes touching `C_g` in the live-edge graph, **strictly
    /// ascending** by id (sorted, no duplicates) — every lookup on this
    /// type binary-searches it. Members of `C_g` always touch it (empty
    /// path), so they appear here.
    pub nodes: Vec<NodeId>,
    /// `covers[i]`: which member indices (positions within the community's
    /// sorted member list) `nodes[i]` reaches. Parallel to `nodes`.
    pub covers: Vec<CoverSet>,
}

impl RicSample {
    /// The cover set of `v` within this sample, or `None` when `v` does not
    /// touch the source community.
    ///
    /// # Input invariant
    ///
    /// The lookup is a binary search over `nodes`, so it is only correct
    /// when `nodes` is **strictly ascending** (sorted, no duplicates) — the
    /// invariant the generator always upholds. On a hand-built sample that
    /// violates it the search may miss a node that is present, or resolve a
    /// duplicated id to either of its entries; no panic, but the answer is
    /// unspecified. [`RicStore::push_sample`](crate::RicStore::push_sample)
    /// and [`RicStore::from_samples`](crate::RicStore::from_samples)
    /// reject such samples up front with
    /// [`RicStoreError::NodesNotStrictlyAscending`](crate::RicStoreError::NodesNotStrictlyAscending).
    pub fn cover_of(&self, v: NodeId) -> Option<&CoverSet> {
        self.nodes.binary_search(&v).ok().map(|i| &self.covers[i])
    }

    /// `true` when `v` touches this sample.
    pub fn touched_by(&self, v: NodeId) -> bool {
        self.nodes.binary_search(&v).is_ok()
    }

    /// Number of distinct community members reachable from `seeds` — the
    /// paper's `|I_g(S)|`.
    pub fn covered_members(&self, seeds: &[NodeId]) -> u32 {
        let mut acc = CoverSet::new(self.community_size as usize);
        for &s in seeds {
            if let Some(c) = self.cover_of(s) {
                acc.or_assign(c);
            }
        }
        acc.count_ones()
    }

    /// The indicator `X_g(S)`: does `S` reach at least `h_g` members?
    pub fn influenced_by(&self, seeds: &[NodeId]) -> bool {
        self.covered_members(seeds) >= self.threshold
    }

    /// Fractional coverage `min(|I_g(S)| / h_g, 1)` — the sample's
    /// contribution to the submodular upper bound `ν_R` (eq. 7).
    pub fn fractional_coverage(&self, seeds: &[NodeId]) -> f64 {
        (self.covered_members(seeds) as f64 / self.threshold as f64).min(1.0)
    }

    /// Number of nodes in the sample.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the sample contains no nodes (cannot happen for samples
    /// produced by the generator — members always touch — but guards
    /// hand-built samples).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the Fig. 3-style sample used across tests: community of 4
    /// members (indices 0..4), plus outside nodes 5, 6, 7.
    /// covers: v1 reaches {0}, v2 {1}, v3 {2}, v4 {3}, v5 {0,1}, v6 {2},
    /// v7 {0,1,2}.
    fn fig3_sample() -> RicSample {
        let masks: [&[usize]; 7] = [&[0], &[1], &[2], &[3], &[0, 1], &[2], &[0, 1, 2]];
        let covers = masks
            .iter()
            .map(|bits| {
                let mut c = CoverSet::new(4);
                for &b in *bits {
                    c.set(b);
                }
                c
            })
            .collect();
        RicSample {
            community: CommunityId::new(0),
            threshold: 3,
            community_size: 4,
            nodes: (1..=7).map(NodeId::new).collect(),
            covers,
        }
    }

    #[test]
    fn cover_lookup() {
        let g = fig3_sample();
        assert!(g.touched_by(NodeId::new(5)));
        assert!(!g.touched_by(NodeId::new(9)));
        assert_eq!(g.cover_of(NodeId::new(7)).unwrap().count_ones(), 3);
        assert!(g.cover_of(NodeId::new(0)).is_none());
    }

    #[test]
    fn paper_fig3_influence_cases() {
        let g = fig3_sample();
        // "g is influenced by {v5, v6} or {v7} but not by {v1} or {v1, v4}"
        assert!(g.influenced_by(&[NodeId::new(5), NodeId::new(6)]));
        assert!(g.influenced_by(&[NodeId::new(7)]));
        assert!(!g.influenced_by(&[NodeId::new(1)]));
        assert!(!g.influenced_by(&[NodeId::new(1), NodeId::new(4)]));
    }

    #[test]
    fn covered_members_dedups_overlap() {
        let g = fig3_sample();
        // v5 covers {0,1}, v7 covers {0,1,2}: union is 3, not 5.
        assert_eq!(g.covered_members(&[NodeId::new(5), NodeId::new(7)]), 3);
    }

    #[test]
    fn fractional_coverage_clamps_at_one() {
        let g = fig3_sample();
        assert!((g.fractional_coverage(&[NodeId::new(1)]) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            g.fractional_coverage(&[NodeId::new(7), NodeId::new(4), NodeId::new(5)]),
            1.0
        );
    }

    #[test]
    fn seeds_outside_sample_contribute_nothing() {
        let g = fig3_sample();
        assert_eq!(g.covered_members(&[NodeId::new(100)]), 0);
        assert!(!g.influenced_by(&[NodeId::new(100)]));
    }

    #[test]
    fn len_and_empty() {
        let g = fig3_sample();
        assert_eq!(g.len(), 7);
        assert!(!g.is_empty());
    }

    /// Pins the documented (unspecified-but-non-panicking) behaviour on
    /// hand-built samples that violate the strictly-ascending invariant:
    /// binary search can miss present nodes, and `RicStore` refuses the
    /// sample with a typed error instead of silently mis-answering.
    #[test]
    fn unsorted_or_duplicate_nodes_degrade_safely_and_store_rejects_them() {
        let mut g = fig3_sample();
        g.nodes.reverse(); // 7,6,...,1 — violates the invariant.
                           // No panic, but the search misses nodes that are in the slice.
        let hits = (1..=7)
            .filter(|&v| g.cover_of(NodeId::new(v)).is_some())
            .count();
        assert!(
            hits < 7,
            "binary search over unsorted nodes cannot be exhaustive"
        );
        let mut store = crate::RicStore::new(8, 1, 1.0);
        assert_eq!(
            store.push_sample(&g),
            Err(crate::RicStoreError::NodesNotStrictlyAscending { sample: 0 })
        );

        let mut dup = fig3_sample();
        dup.nodes[1] = dup.nodes[0]; // duplicate id 1 at positions 0 and 1.
                                     // Either entry may be resolved; the call itself must stay safe.
        let _ = dup.cover_of(NodeId::new(1));
        assert_eq!(
            store.push_sample(&dup),
            Err(crate::RicStoreError::NodesNotStrictlyAscending { sample: 0 })
        );
        assert!(store.is_empty(), "rejected samples must not be appended");
    }
}
