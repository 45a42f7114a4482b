//! The [`RicSamples`] abstraction — read-only access to a collection of
//! RIC samples — and [`RicColumns`], the one columnar layout behind it.
//!
//! A collection is nine columns (the sections of a version-3 snapshot, see
//! `docs/FORMATS.md`) plus three instance scalars. [`RicColumns`] borrows
//! them and owns the offset arithmetic; [`RicSamples`] has one required
//! method, [`columns`](RicSamples::columns), and provides everything else
//! on top of it. Two types lend columns (plus the `&T` / `Arc<T>`
//! forwarders):
//!
//! * [`RicStore`](crate::RicStore) — owns the columns as vectors. The
//!   production hot path; it overrides the estimator methods with
//!   index-driven versions.
//! * [`RicStoreView`](crate::snapshot::RicStoreView) — the same columns
//!   borrowed zero-copy from version-3 snapshot bytes. It implements only
//!   `columns`, so it runs the naive provided estimators.
//!
//! Every MAXR solver, [`CoverageState`](crate::CoverageState) and the
//! snapshot encoder are generic over this trait — and the
//! `store_equivalence` property test holds the two implementers to
//! *identical* solver outputs, not merely equivalent ones.

use crate::objective::{nu_term, nu_value};
use crate::store::SampleRef;
use imc_community::CommunityId;
use imc_graph::NodeId;

/// Number of `u64` limbs a cover set of `width` bits occupies. Matches
/// [`CoverSet`](crate::CoverSet): one limb even for `width == 0`, and the
/// `Small`/`Large` boundary at 64 bits maps to 1 limb vs `⌈width/64⌉`.
#[inline]
pub(crate) fn limbs_for_width(width: u32) -> usize {
    (width as usize).div_ceil(64).max(1)
}

/// Mask of the bits the top limb of a `width`-bit cover may use. Bits
/// beyond the community width are meaningless and would corrupt union
/// popcounts, so every ingest path rejects them; lower limbs are always
/// fully usable.
pub(crate) fn top_limb_mask(width: u32) -> u64 {
    let used = width as usize - (limbs_for_width(width) - 1) * 64;
    if used == 64 {
        u64::MAX
    } else {
        (1u64 << used) - 1
    }
}

/// The columnar layout of a collection, borrowed: three instance scalars
/// and the nine columns of snapshot sections 0–8, in the element types the
/// file stores. Lent by [`RicSamples::columns`]; `Copy`, so hot loops can
/// hoist it once and index through it.
///
/// Fields are crate-private: a value only ever comes from a
/// [`RicStore`](crate::RicStore) (valid by construction) or from
/// [`RicStoreView::open`](crate::snapshot::RicStoreView::open) (offsets
/// validated), so the slicing below is in bounds for every sample index
/// `< len()`, position `< sample_nodes(si).len()` and node `< node_count`.
#[derive(Debug, Clone, Copy)]
pub struct RicColumns<'a> {
    pub(crate) node_count: usize,
    pub(crate) community_count: usize,
    pub(crate) total_benefit: f64,
    // Per-sample metadata columns.
    pub(crate) communities: &'a [u32],
    pub(crate) thresholds: &'a [u32],
    pub(crate) widths: &'a [u32],
    // CSR node lists: sample si owns nodes[node_offsets[si]..node_offsets[si+1]].
    pub(crate) node_offsets: &'a [u64],
    pub(crate) nodes: &'a [NodeId],
    // Flat cover bitsets: sample si owns cover_words[cover_offsets[si]..
    // cover_offsets[si+1]], as len(si) consecutive groups of limbs(si) limbs.
    pub(crate) cover_offsets: &'a [u64],
    pub(crate) cover_words: &'a [u64],
    // CSR inverted index: node v touches index_entries[index_offsets[v]..
    // index_offsets[v+1]], ordered by (sample, pos) ascending.
    pub(crate) index_offsets: &'a [u64],
    pub(crate) index_entries: &'a [SampleRef],
}

impl<'a> RicColumns<'a> {
    /// Number of samples `|R|`.
    #[inline]
    pub fn len(self) -> usize {
        self.communities.len()
    }

    /// `true` when the collection holds no samples.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.communities.is_empty()
    }

    /// Nodes touching sample `si`, sorted ascending by id.
    #[inline]
    pub fn sample_nodes(self, si: usize) -> &'a [NodeId] {
        &self.nodes[self.node_offsets[si] as usize..self.node_offsets[si + 1] as usize]
    }

    /// All cover limbs of sample `si`: one group of `limbs(width)` limbs
    /// per node, in node order.
    #[inline]
    pub fn sample_words(self, si: usize) -> &'a [u64] {
        &self.cover_words[self.cover_offsets[si] as usize..self.cover_offsets[si + 1] as usize]
    }

    /// Where in the cover arena the row of the node at position `pos`
    /// within sample `si` starts.
    #[inline]
    pub(crate) fn cover_start(self, si: usize, pos: usize) -> usize {
        self.cover_offsets[si] as usize + pos * limbs_for_width(self.widths[si])
    }

    /// Cover limbs of the node at position `pos` within sample `si`.
    #[inline]
    pub fn cover_words(self, si: usize, pos: usize) -> &'a [u64] {
        let start = self.cover_start(si, pos);
        &self.cover_words[start..start + limbs_for_width(self.widths[si])]
    }

    /// Samples touched by `v`, ordered by `(sample, pos)` ascending.
    #[inline]
    pub fn touched_by(self, v: NodeId) -> &'a [SampleRef] {
        let v = v.index();
        &self.index_entries[self.index_offsets[v] as usize..self.index_offsets[v + 1] as usize]
    }
}

/// Read-only view of a collection `R` of RIC samples.
///
/// The one required method lends the collection's [`RicColumns`]; the
/// layout accessors and everything the solvers consume (estimators,
/// appearance statistics, per-sample influence checks) are provided on top
/// of it. An implementation may override the provided *estimator and
/// statistics* methods with faster versions as long as the results are
/// identical — `ĉ_R` and the `ν_R` numerator are integer-exact, so every
/// implementer agrees bitwise. [`RicStore`](crate::RicStore)
/// overrides exactly the six its inverted index speeds up
/// (`appearance_count`, `influenced_count`, `estimate`, `nu_estimate`,
/// `community_frequencies`, `node_appearance_counts`);
/// [`RicStoreView`](crate::snapshot::RicStoreView) overrides none and so
/// stays the naive oracle the tests compare against.
///
/// `Sync` is a supertrait so the parallel solve engine can share a
/// collection across scoped worker threads; both implementers are plain
/// (owned or borrowed) data and satisfy it automatically.
pub trait RicSamples: Sync {
    /// The collection's columns.
    fn columns(&self) -> RicColumns<'_>;

    /// Number of samples `|R|`.
    #[inline]
    fn len(&self) -> usize {
        self.columns().len()
    }

    /// Node count of the underlying graph.
    #[inline]
    fn node_count(&self) -> usize {
        self.columns().node_count
    }

    /// Number of communities of the underlying instance.
    #[inline]
    fn community_count(&self) -> usize {
        self.columns().community_count
    }

    /// Total benefit `b` of the underlying instance.
    #[inline]
    fn total_benefit(&self) -> f64 {
        self.columns().total_benefit
    }

    /// Source community `C_g` of sample `si`.
    #[inline]
    fn sample_community(&self, si: usize) -> CommunityId {
        CommunityId::new(self.columns().communities[si])
    }

    /// Activation threshold `h_g` of sample `si`.
    #[inline]
    fn sample_threshold(&self, si: usize) -> u32 {
        self.columns().thresholds[si]
    }

    /// `|C_g|` — the cover-set width of sample `si`.
    #[inline]
    fn sample_width(&self, si: usize) -> u32 {
        self.columns().widths[si]
    }

    /// Nodes touching sample `si`, sorted ascending by id.
    #[inline]
    fn sample_nodes(&self, si: usize) -> &[NodeId] {
        self.columns().sample_nodes(si)
    }

    /// Cover words of the node at position `pos` within sample `si` —
    /// exactly `max(1, ⌈width/64⌉)` little-endian `u64` limbs.
    #[inline]
    fn cover_words(&self, si: usize, pos: usize) -> &[u64] {
        self.columns().cover_words(si, pos)
    }

    /// Samples touched by `v` (the paper's `G_R(u)`), ordered by
    /// `(sample, pos)` ascending.
    #[inline]
    fn touched_by(&self, v: NodeId) -> &[SampleRef] {
        self.columns().touched_by(v)
    }

    /// `true` when the collection holds no samples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of samples `v` appears in — MAF's node-appearance count.
    fn appearance_count(&self, v: NodeId) -> usize {
        self.touched_by(v).len()
    }

    /// Number of distinct members of sample `si` reachable from `seeds` —
    /// the paper's `|I_g(S)|`.
    fn sample_covered_members(&self, si: usize, seeds: &[NodeId]) -> u32 {
        let limbs = limbs_for_width(self.sample_width(si));
        let mut acc = [0u64; 4];
        let mut heap: Vec<u64>;
        let union: &mut [u64] = if limbs <= 4 {
            &mut acc[..limbs]
        } else {
            heap = vec![0u64; limbs];
            &mut heap
        };
        let nodes = self.sample_nodes(si);
        for &s in seeds {
            if let Ok(pos) = nodes.binary_search(&s) {
                for (u, &w) in union.iter_mut().zip(self.cover_words(si, pos)) {
                    *u |= w;
                }
            }
        }
        crate::kernels::count_ones(union)
    }

    /// The indicator `X_g(S)` for sample `si`: does `S` reach at least
    /// `h_g` members?
    fn sample_influenced(&self, si: usize, seeds: &[NodeId]) -> bool {
        self.sample_covered_members(si, seeds) >= self.sample_threshold(si)
    }

    /// Fractional coverage `min(|I_g(S)|/h_g, 1)` of sample `si` — its
    /// contribution to `ν_R` (eq. 7), as the Q32 term
    /// [`nu_term`](crate::nu_term).
    fn sample_nu_term(&self, si: usize, seeds: &[NodeId]) -> u64 {
        nu_term(
            self.sample_covered_members(si, seeds),
            self.sample_threshold(si),
        )
    }

    /// Number of samples influenced by `S`: `Σ_g X_g(S)`.
    fn influenced_count(&self, seeds: &[NodeId]) -> usize {
        (0..self.len())
            .filter(|&si| self.sample_influenced(si, seeds))
            .count()
    }

    /// The estimator `ĉ_R(S)` (eq. 3). Returns 0 for an empty collection.
    fn estimate(&self, seeds: &[NodeId]) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.total_benefit() * self.influenced_count(seeds) as f64 / self.len() as f64
    }

    /// The submodular upper-bound estimator `ν_R(S)` (eq. 7). Returns 0
    /// for an empty collection. The per-sample terms are integers
    /// ([`nu_term`](crate::nu_term)), so every implementer
    /// produces bitwise-identical values whatever order it sums them in.
    fn nu_estimate(&self, seeds: &[NodeId]) -> f64 {
        let numerator = (0..self.len())
            .map(|si| self.sample_nu_term(si, seeds))
            .sum();
        nu_value(self.total_benefit(), numerator, self.len())
    }

    /// How many samples each community roots — MAF's community-frequency
    /// table.
    fn community_frequencies(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.community_count()];
        for si in 0..self.len() {
            counts[self.sample_community(si).index()] += 1;
        }
        counts
    }

    /// Appearance count for every node (`counts[v]` = samples touched by
    /// `v`).
    fn node_appearance_counts(&self) -> Vec<usize> {
        (0..self.node_count() as u32)
            .map(|v| self.appearance_count(NodeId::new(v)))
            .collect()
    }
}

/// Forwards the lender and the six methods [`RicStore`](crate::RicStore)
/// overrides through a smart pointer, so the index-driven versions stay on
/// the forwarded path instead of falling back to the trait defaults.
macro_rules! forward_ric_samples {
    () => {
        #[inline]
        fn columns(&self) -> RicColumns<'_> {
            (**self).columns()
        }
        fn appearance_count(&self, v: NodeId) -> usize {
            (**self).appearance_count(v)
        }
        fn influenced_count(&self, seeds: &[NodeId]) -> usize {
            (**self).influenced_count(seeds)
        }
        fn estimate(&self, seeds: &[NodeId]) -> f64 {
            (**self).estimate(seeds)
        }
        fn nu_estimate(&self, seeds: &[NodeId]) -> f64 {
            (**self).nu_estimate(seeds)
        }
        fn community_frequencies(&self) -> Vec<usize> {
            (**self).community_frequencies()
        }
        fn node_appearance_counts(&self) -> Vec<usize> {
            (**self).node_appearance_counts()
        }
    };
}

impl<T: RicSamples + ?Sized> RicSamples for &T {
    forward_ric_samples!();
}

impl<T: RicSamples + ?Sized + Send> RicSamples for std::sync::Arc<T> {
    forward_ric_samples!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{encode, SnapshotBytes};
    use crate::{CoverSet, RicSample, RicStore};

    fn cover(width: usize, bits: &[usize]) -> CoverSet {
        let mut c = CoverSet::new(width);
        for &b in bits {
            c.set(b);
        }
        c
    }

    /// Two narrow samples plus one of width 300 — 5 limbs, past the 4-limb
    /// inline scratch of `sample_covered_members`, so the heap path runs.
    fn build() -> RicStore {
        let samples = [
            RicSample {
                community: CommunityId::new(0),
                threshold: 2,
                community_size: 2,
                nodes: vec![NodeId::new(1), NodeId::new(2)],
                covers: vec![cover(2, &[0]), cover(2, &[1])],
            },
            RicSample {
                community: CommunityId::new(1),
                threshold: 1,
                community_size: 2,
                nodes: vec![NodeId::new(2)],
                covers: vec![cover(2, &[0])],
            },
            RicSample {
                community: CommunityId::new(1),
                threshold: 2,
                community_size: 300,
                nodes: vec![NodeId::new(1), NodeId::new(4)],
                covers: vec![cover(300, &[0, 299]), cover(300, &[299])],
            },
        ];
        RicStore::from_samples(6, 2, 4.0, &samples).unwrap()
    }

    /// The provided (default) trait methods — which `RicStoreView` runs
    /// un-overridden — must agree with the inherent index-driven `RicStore`
    /// implementations that override them.
    #[test]
    fn provided_methods_match_inherent_store_queries() {
        let store = build();
        let snapshot = SnapshotBytes::copy_from(&encode(&store, 0, 0));
        let naive = snapshot.view().unwrap();
        for seeds in [
            vec![],
            vec![NodeId::new(1)],
            vec![NodeId::new(2)],
            vec![NodeId::new(4)],
            vec![NodeId::new(1), NodeId::new(2)],
            vec![NodeId::new(5)],
        ] {
            assert_eq!(
                naive.influenced_count(&seeds),
                store.influenced_count(&seeds)
            );
            assert_eq!(naive.estimate(&seeds), store.estimate(&seeds));
            assert_eq!(naive.nu_estimate(&seeds), store.nu_estimate(&seeds));
            for si in 0..store.len() {
                assert_eq!(
                    naive.sample_covered_members(si, &seeds),
                    store.sample_covered_members(si, &seeds)
                );
            }
        }
        assert_eq!(naive.community_frequencies(), store.community_frequencies());
        assert_eq!(
            naive.node_appearance_counts(),
            store.node_appearance_counts()
        );
        assert_eq!(naive.appearance_count(NodeId::new(2)), 2);
    }

    #[test]
    fn wide_sample_covered_members_spills_to_heap_scratch() {
        let store = build();
        assert_eq!(limbs_for_width(store.sample_width(2)), 5);
        assert_eq!(store.sample_covered_members(2, &[NodeId::new(1)]), 2);
        assert_eq!(store.sample_covered_members(2, &[NodeId::new(4)]), 1);
        assert!(store.sample_influenced(2, &[NodeId::new(4), NodeId::new(1)]));
    }

    #[test]
    fn top_limb_mask_boundaries() {
        assert_eq!(top_limb_mask(0), 0);
        assert_eq!(top_limb_mask(4), 0b1111);
        assert_eq!(top_limb_mask(64), !0);
        assert_eq!(top_limb_mask(65), 1);
        assert_eq!(top_limb_mask(128), !0);
        assert_eq!(top_limb_mask(130), 0b11);
    }
}
