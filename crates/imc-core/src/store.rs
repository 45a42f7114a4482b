//! [`RicStore`] — the arena-backed RIC collection.
//!
//! The whole collection lives in four flat buffers:
//!
//! ```text
//! node_offsets:  [0,        n_0,      n_0+n_1,  ...]          (CSR)
//! nodes:         [s_0 nodes | s_1 nodes | ...]                 sorted per sample
//! cover_offsets: [0,        n_0·L_0,  n_0·L_0+n_1·L_1, ...]   (word CSR)
//! cover_words:   [s_0 covers | s_1 covers | ...]               L_i limbs per node
//! ```
//!
//! plus a CSR **inverted node index** `index_offsets`/`index_entries`
//! mapping every node to the `(sample, pos)` pairs it appears at — the
//! paper's `G_R(u)`, materialized contiguously. A greedy gain evaluation
//! for `v` is then one linear scan of `index(v)` with direct word loads,
//! no per-sample binary search and no pointer chasing.
//!
//! Together with the three per-sample metadata columns these are the nine
//! columns of [`RicColumns`], held in the element types a version-3
//! snapshot stores (`u32` ids, `u64` offsets): the store lends them as
//! they are, and the snapshot codec copies them out byte for byte.

use crate::samples::{limbs_for_width, top_limb_mask, RicColumns, RicSamples};
use crate::{CoverSet, CoverageState, RicSample, RicSampler};
use imc_community::CommunityId;
use imc_graph::NodeId;
use imc_obs::families;
use rand::Rng;

/// Fixed number of deterministic sampling shards used by
/// [`RicStore::extend_parallel`] when the caller does not pick one
/// explicitly.
///
/// This constant is the **cluster partition key**: a distributed solve
/// splits the same 16 sampling shards across daemons (shard `j` of `P`
/// owns sampling shards `[j·16/P, (j+1)·16/P)`), so the concatenation of
/// the per-daemon stores is bitwise identical to the single-node store.
/// Changing it invalidates every committed baseline and snapshot seeded
/// under the old split.
pub const DEFAULT_SAMPLING_SHARDS: usize = 16;

/// The deterministic sampling-shard plan shared by every parallel
/// extension path: `(rng_seed, sample_count)` per shard, in shard order.
///
/// Shard `i` draws `count/shards` samples (plus one of the `count %
/// shards` leftovers for the first shards) from
/// `StdRng::seed_from_u64(base_seed + i)`. Counts below 64 collapse to a
/// single shard seeded `base_seed`, which makes tiny draws identical to a
/// sequential `extend_with` run.
pub fn sampling_shard_plan(count: usize, base_seed: u64, shards: usize) -> Vec<(u64, usize)> {
    if count == 0 {
        return Vec::new();
    }
    // Fixed shard count (independent of the machine) keeps the output
    // reproducible across hosts; worker threads just consume shards.
    let shards = if count < 64 { 1 } else { shards.max(1) };
    let per = count / shards;
    let extra = count % shards;
    (0..shards)
        .map(|i| {
            (
                base_seed.wrapping_add(i as u64),
                per + usize::from(i < extra),
            )
        })
        .collect()
}

/// Seed stride between growth stages — far larger than the 16 shard
/// offsets of one [`sampling_shard_plan`], so stages never share a shard
/// seed.
const GROWTH_SEED_STRIDE: u64 = 1 << 16;

/// The one doubling schedule's seed rule: growth stage `stage` of a
/// collection grown under `base_seed` draws
/// `sampling_shard_plan(count, growth_seed(base_seed, stage), 16)`, i.e.
/// its shard seeds are `base_seed + (stage + 1)·2¹⁶ + 0..16`. IMCAF's
/// stages and the daemon refresher's generations both use it, so a rerun
/// reproduces every collection bit for bit and no two stages of one run
/// reuse a shard seed.
pub fn growth_seed(base_seed: u64, stage: u64) -> u64 {
    base_seed.wrapping_add(stage.wrapping_add(1).wrapping_mul(GROWTH_SEED_STRIDE))
}

/// Worker threads for a draw whose output does not depend on the worker
/// count (a shard plan, `Estimate`'s block stream): every hardware
/// thread, at most 8.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// The contiguous slice of sampling shards owned by `partition` of
/// `partitions` — the cluster partition rule.
///
/// Requires `partitions` to divide `shards` evenly so every partition owns
/// the same number of shards and the concatenation over partitions (in
/// partition order) reproduces the full shard order exactly.
///
/// # Panics
///
/// When `partitions == 0`, `partition >= partitions`, or `shards %
/// partitions != 0`.
pub fn partition_shard_range(
    shards: usize,
    partition: usize,
    partitions: usize,
) -> std::ops::Range<usize> {
    assert!(partitions > 0, "partitions must be positive");
    assert!(
        partition < partitions,
        "partition {partition} out of range for {partitions} partitions"
    );
    assert!(
        shards.is_multiple_of(partitions),
        "{partitions} partitions must divide the {shards} sampling shards evenly"
    );
    let width = shards / partitions;
    partition * width..(partition + 1) * width
}

/// Location of one node appearance inside a [`RicStore`]: which sample and
/// at which position (so the node's cover limbs are
/// [`cover_words(sample, pos)`](RicSamples::cover_words)).
// `repr(C)` pins the layout to two consecutive `u32`s (8 bytes, no
// padding), which is what snapshot format v3 persists and what the
// zero-copy view reinterprets in place — see `snapshot.rs` and
// docs/FORMATS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct SampleRef {
    /// Index of the sample within the store.
    pub sample: u32,
    /// Position of the node inside that sample's `nodes` array.
    pub pos: u32,
}

/// Summary statistics of a [`RicStore`], from [`RicStore::stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectionStats {
    /// `|R|`.
    pub samples: usize,
    /// Σ_g |g| — the inverted-index size, i.e. one greedy sweep's cost.
    pub total_index_entries: usize,
    /// Mean nodes per sample.
    pub mean_sample_size: f64,
    /// Largest sample.
    pub max_sample_size: usize,
    /// Σ_g |g|² — proxy for BT's total pivot-reduction cost.
    pub sum_squared_sizes: u64,
    /// Distinct nodes appearing in at least one sample.
    pub touched_nodes: usize,
}

/// Validation failure when feeding a sample into a [`RicStore`].
///
/// The store enforces the invariants [`RicSample::cover_of`] silently
/// assumes (sorted, duplicate-free node lists; covers shaped to the
/// sample's community width) and reports violations as typed errors
/// instead of corrupting lookups downstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RicStoreError {
    /// The sample's `nodes` array is not strictly ascending (unsorted or
    /// containing duplicates), so binary-searched cover lookups would be
    /// unspecified.
    NodesNotStrictlyAscending {
        /// Index the sample would have had in the store.
        sample: usize,
    },
    /// A node id is outside the store's graph (`id ≥ node_count`).
    NodeOutOfRange {
        /// Index the sample would have had in the store.
        sample: usize,
        /// The offending node id.
        node: u32,
    },
    /// The sample's source community is outside the store's instance.
    CommunityOutOfRange {
        /// Index the sample would have had in the store.
        sample: usize,
        /// The offending community id.
        community: u32,
    },
    /// The sample's activation threshold is zero (every seed set would
    /// trivially influence it; the snapshot codec rejects these too).
    ZeroThreshold {
        /// Index the sample would have had in the store.
        sample: usize,
    },
    /// The cover array disagrees with the node array (count of covers, or
    /// limb count of one cover, does not match the community width).
    CoverShapeMismatch {
        /// Index the sample would have had in the store.
        sample: usize,
    },
    /// A cover has bits set at positions `≥ community_size`.
    CoverBitsOutOfRange {
        /// Index the sample would have had in the store.
        sample: usize,
    },
}

impl std::fmt::Display for RicStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RicStoreError::NodesNotStrictlyAscending { sample } => {
                write!(f, "sample {sample}: nodes not strictly ascending")
            }
            RicStoreError::NodeOutOfRange { sample, node } => {
                write!(f, "sample {sample}: node {node} out of range")
            }
            RicStoreError::CommunityOutOfRange { sample, community } => {
                write!(f, "sample {sample}: community {community} out of range")
            }
            RicStoreError::ZeroThreshold { sample } => {
                write!(f, "sample {sample}: zero activation threshold")
            }
            RicStoreError::CoverShapeMismatch { sample } => {
                write!(f, "sample {sample}: cover shape does not match nodes/width")
            }
            RicStoreError::CoverBitsOutOfRange { sample } => {
                write!(f, "sample {sample}: cover bits set beyond community width")
            }
        }
    }
}

impl std::error::Error for RicStoreError {}

/// Borrowed view of one sample inside a [`RicStore`] — the store-side
/// analogue of [`RicSample`], pointing into the arena instead of owning
/// buffers.
#[derive(Debug, Clone, Copy)]
pub struct RicSampleView<'a> {
    community: CommunityId,
    threshold: u32,
    community_size: u32,
    nodes: &'a [NodeId],
    cover_words: &'a [u64],
}

impl<'a> RicSampleView<'a> {
    /// The source community `C_g`.
    pub fn community(&self) -> CommunityId {
        self.community
    }

    /// The activation threshold `h_g`.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// `|C_g|` — the width of every cover in this sample.
    pub fn community_size(&self) -> u32 {
        self.community_size
    }

    /// The sample's nodes, ascending by id.
    pub fn nodes(&self) -> &'a [NodeId] {
        self.nodes
    }

    /// Number of nodes in the sample.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no node reaches any member (BT residuals can be empty).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Cover limbs of the node at `pos`.
    pub fn cover_words_of(&self, pos: usize) -> &'a [u64] {
        let limbs = limbs_for_width(self.community_size);
        &self.cover_words[pos * limbs..(pos + 1) * limbs]
    }

    /// Cover limbs of node `v`, or `None` when `v` is not in the sample.
    pub fn cover_of(&self, v: NodeId) -> Option<&'a [u64]> {
        self.nodes
            .binary_search(&v)
            .ok()
            .map(|pos| self.cover_words_of(pos))
    }

    /// Materializes the view as an owning [`RicSample`].
    pub fn to_sample(&self) -> RicSample {
        RicSample {
            community: self.community,
            threshold: self.threshold,
            community_size: self.community_size,
            nodes: self.nodes.to_vec(),
            covers: (0..self.nodes.len())
                .map(|pos| {
                    CoverSet::from_words(self.community_size as usize, self.cover_words_of(pos))
                })
                .collect(),
        }
    }
}

/// Arena-backed collection `R` of RIC samples with a CSR inverted node
/// index — the production storage for the MAXR/IMCAF hot path.
///
/// Its index-driven estimator overrides are held bitwise-equal to the
/// naive provided methods of [`RicSamples`] (which
/// [`RicStoreView`](crate::snapshot::RicStoreView) runs un-overridden) by
/// the `store_equivalence` property test.
///
/// ```
/// use imc_community::CommunitySet;
/// use imc_core::{RicSampler, RicStore};
/// use imc_graph::{GraphBuilder, NodeId};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 1.0)?;
/// let graph = b.build()?;
/// let communities =
///     CommunitySet::from_parts(3, vec![(vec![NodeId::new(1)], 1, 2.0)])?;
/// let sampler = RicSampler::new(&graph, &communities);
/// let mut store = RicStore::for_sampler(&sampler);
/// store.extend_with(&sampler, 1000, &mut StdRng::seed_from_u64(7));
/// // Node 0 reaches the single member through a certain edge: ĉ = b = 2.
/// assert_eq!(store.estimate(&[NodeId::new(0)]), 2.0);
/// // The inverted index knows node 0 touches every sample.
/// assert_eq!(store.appearance_count(NodeId::new(0)), 1000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RicStore {
    node_count: usize,
    community_count: usize,
    total_benefit: f64,
    // The nine columns of `RicColumns`, owned, in the element types a
    // version-3 snapshot stores — so `columns()` lends them as they are
    // and `snapshot::encode` copies them out byte for byte.
    communities: Vec<u32>,
    thresholds: Vec<u32>,
    widths: Vec<u32>,
    node_offsets: Vec<u64>,
    nodes: Vec<NodeId>,
    cover_offsets: Vec<u64>,
    cover_words: Vec<u64>,
    index_offsets: Vec<u64>,
    index_entries: Vec<SampleRef>,
}

impl RicStore {
    /// Creates an empty store for a graph with `node_count` nodes,
    /// `community_count` communities and total benefit `total_benefit`.
    pub fn new(node_count: usize, community_count: usize, total_benefit: f64) -> Self {
        RicStore {
            node_count,
            community_count,
            total_benefit,
            communities: Vec::new(),
            thresholds: Vec::new(),
            widths: Vec::new(),
            node_offsets: vec![0],
            nodes: Vec::new(),
            cover_offsets: vec![0],
            cover_words: Vec::new(),
            index_offsets: vec![0; node_count + 1],
            index_entries: Vec::new(),
        }
    }

    /// Creates an empty store matching a sampler's instance.
    pub fn for_sampler(sampler: &RicSampler<'_>) -> Self {
        RicStore::new(
            sampler.graph().node_count(),
            sampler.communities().len(),
            sampler.communities().total_benefit(),
        )
    }

    /// Builds a store from owning samples, validating each.
    pub fn from_samples<'s, I>(
        node_count: usize,
        community_count: usize,
        total_benefit: f64,
        samples: I,
    ) -> Result<Self, RicStoreError>
    where
        I: IntoIterator<Item = &'s RicSample>,
    {
        let mut store = RicStore::new(node_count, community_count, total_benefit);
        for s in samples {
            store.append_validated(s)?;
        }
        store.rebuild_index();
        Ok(store)
    }

    /// Appends one sample, validating it and updating the inverted index.
    ///
    /// Rebuilds the index (`O(arena)`); batch construction paths
    /// ([`from_samples`](Self::from_samples), [`extend_with`](Self::extend_with),
    /// [`extend_parallel`](Self::extend_parallel)) amortize that to one
    /// rebuild per batch.
    pub fn push_sample(&mut self, sample: &RicSample) -> Result<(), RicStoreError> {
        self.append_validated(sample)?;
        self.rebuild_index();
        Ok(())
    }

    fn append_validated(&mut self, sample: &RicSample) -> Result<(), RicStoreError> {
        let si = self.len();
        if sample.community.index() >= self.community_count {
            return Err(RicStoreError::CommunityOutOfRange {
                sample: si,
                community: sample.community.index() as u32,
            });
        }
        if sample.threshold == 0 {
            return Err(RicStoreError::ZeroThreshold { sample: si });
        }
        if !sample.nodes.windows(2).all(|w| w[0] < w[1]) {
            return Err(RicStoreError::NodesNotStrictlyAscending { sample: si });
        }
        if let Some(v) = sample.nodes.iter().find(|v| v.index() >= self.node_count) {
            return Err(RicStoreError::NodeOutOfRange {
                sample: si,
                node: v.index() as u32,
            });
        }
        if sample.covers.len() != sample.nodes.len() {
            return Err(RicStoreError::CoverShapeMismatch { sample: si });
        }
        let limbs = limbs_for_width(sample.community_size);
        let top_mask = top_limb_mask(sample.community_size);
        for cover in &sample.covers {
            let words = cover.words();
            if words.len() != limbs {
                return Err(RicStoreError::CoverShapeMismatch { sample: si });
            }
            if words[limbs - 1] & !top_mask != 0 {
                return Err(RicStoreError::CoverBitsOutOfRange { sample: si });
            }
        }
        self.communities.push(sample.community.raw());
        self.thresholds.push(sample.threshold);
        self.widths.push(sample.community_size);
        self.nodes.extend_from_slice(&sample.nodes);
        for cover in &sample.covers {
            self.cover_words.extend_from_slice(cover.words());
        }
        self.node_offsets.push(self.nodes.len() as u64);
        self.cover_offsets.push(self.cover_words.len() as u64);
        Ok(())
    }

    /// Appends already-validated raw sample parts without touching the
    /// index. `words` is `nodes.len() × limbs(width)` limbs. Used by the
    /// trusted in-crate producers (sampler output, BT pivot reductions,
    /// the version-2 snapshot reader); callers must finish with
    /// [`rebuild_index`](Self::rebuild_index).
    pub(crate) fn push_raw(
        &mut self,
        community: CommunityId,
        threshold: u32,
        width: u32,
        nodes: &[NodeId],
        words: &[u64],
    ) {
        debug_assert_eq!(words.len(), nodes.len() * limbs_for_width(width));
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]));
        self.communities.push(community.raw());
        self.thresholds.push(threshold);
        self.widths.push(width);
        self.nodes.extend_from_slice(nodes);
        self.cover_words.extend_from_slice(words);
        self.node_offsets.push(self.nodes.len() as u64);
        self.cover_offsets.push(self.cover_words.len() as u64);
    }

    /// Recomputes the CSR inverted index from the node arena — what
    /// [`index_appended`](Self::index_appended) builds from nothing, on
    /// one thread.
    pub(crate) fn rebuild_index(&mut self) {
        self.index_offsets.clear();
        self.index_offsets.resize(self.node_count + 1, 0);
        self.index_entries.clear();
        self.index_appended(0, 1);
    }

    /// Brings the CSR inverted index up to date after samples `first..`
    /// were appended behind an indexed prefix: one counting sort over the
    /// appended range only — `O(node_count + Σ_{g ≥ first} |g|)` plus one
    /// block move of the entries already there. Every node's run keeps
    /// its old entries (they name earlier samples) and gains the new ones
    /// behind them, so entries per node stay ordered by `(sample, pos)`
    /// ascending — exactly what a from-scratch sort of the whole arena
    /// gives.
    ///
    /// The scatter of the appended entries runs on `parts` threads (`0`
    /// counts as `1`): part `j` owns a contiguous node range, balanced on
    /// the new offsets, and the matching slice of the entries; it scans
    /// every appended sample in order and writes only its own nodes'
    /// entries, so the result is the same for every `parts`.
    pub(crate) fn index_appended(&mut self, first: usize, parts: usize) {
        let appended_from = self.node_offsets[first] as usize;
        debug_assert_eq!(self.index_entries.len(), appended_from);
        if appended_from == self.nodes.len() {
            return;
        }
        // New offsets: the old ones shifted by the appearances appended
        // at smaller node ids.
        let mut offsets = vec![0u64; self.node_count + 1];
        for v in &self.nodes[appended_from..] {
            offsets[v.index() + 1] += 1;
        }
        let mut shift = 0u64;
        for (new, old) in offsets.iter_mut().zip(&self.index_offsets).skip(1) {
            shift += *new;
            *new = old + shift;
        }
        // Old runs move right in place, highest node first: run `v` lands
        // at or beyond where it started, and everything beyond that has
        // moved already. `cursor[v]` ends up one past run `v`'s old
        // entries — where its first new entry goes.
        self.index_entries
            .resize(self.nodes.len(), SampleRef { sample: 0, pos: 0 });
        let mut cursor = vec![0u64; self.node_count];
        for v in (0..self.node_count).rev() {
            let (lo, hi) = (self.index_offsets[v], self.index_offsets[v + 1]);
            cursor[v] = offsets[v] + (hi - lo);
            if hi > lo && offsets[v] != lo {
                self.index_entries
                    .copy_within(lo as usize..hi as usize, offsets[v] as usize);
            }
        }
        // Part `j` owns the nodes `bounds[j]..bounds[j + 1]`, cut where
        // the new offsets reach `j/parts` of the entries, and the slice of
        // the entries their runs span; the last part runs on this thread.
        let node_count = self.node_count;
        let parts = parts.clamp(1, node_count);
        let total = self.nodes.len() as u64;
        let mut bounds: Vec<usize> = (0..parts)
            .map(|j| offsets.partition_point(|&o| o < total * j as u64 / parts as u64))
            .collect();
        bounds.push(node_count);
        // Writes the entry of every appended appearance of a node in
        // `lo..lo + cursor.len()`, in `(sample, pos)` order: `cursor[v - lo]`
        // is the index position of `v`'s next entry and `out` holds the
        // entries from position `base` on.
        let (node_offsets, nodes) = (&self.node_offsets, &self.nodes);
        let scatter = move |lo: usize, base: u64, cursor: &mut [u64], out: &mut [SampleRef]| {
            for si in first..node_offsets.len() - 1 {
                let (a, b) = (node_offsets[si] as usize, node_offsets[si + 1] as usize);
                for (pos, v) in nodes[a..b].iter().enumerate() {
                    // Not this part's past its end (an id below `lo` wraps).
                    if let Some(slot) = cursor.get_mut(v.index().wrapping_sub(lo)) {
                        out[(*slot - base) as usize] = SampleRef {
                            sample: si as u32,
                            pos: pos as u32,
                        };
                        *slot += 1;
                    }
                }
            }
        };
        let (mut cursor, mut entries) = (&mut cursor[..], &mut self.index_entries[..]);
        std::thread::scope(|scope| {
            for (j, range) in bounds.windows(2).enumerate() {
                let (lo, hi) = (range[0], range[1]);
                let (own, rest) = std::mem::take(&mut cursor).split_at_mut(hi - lo);
                cursor = rest;
                let spanned = (offsets[hi] - offsets[lo]) as usize;
                let (out, rest) = std::mem::take(&mut entries).split_at_mut(spanned);
                entries = rest;
                let base = offsets[lo];
                if j + 1 == parts {
                    scatter(lo, base, own, out);
                } else {
                    scope.spawn(move || scatter(lo, base, own, out));
                }
            }
        });
        self.index_offsets = offsets;
    }

    /// [`index_appended`](Self::index_appended) after a sampler append,
    /// observed in `imc_ric_index_seconds` — the append paths' index step,
    /// not the rebuilds of loads and reduced stores.
    fn index_drawn(&mut self, first: usize, parts: usize) {
        let started = std::time::Instant::now();
        self.index_appended(first, parts);
        families::RIC_INDEX_DURATION
            .handle()
            .observe_duration(started.elapsed());
    }

    /// Appends another store's arena (metadata, nodes, covers) without
    /// rebuilding the index — the shard-merge step of parallel generation.
    fn append_arena(&mut self, other: &RicStore) {
        let node_base = self.nodes.len() as u64;
        let word_base = self.cover_words.len() as u64;
        self.communities.extend_from_slice(&other.communities);
        self.thresholds.extend_from_slice(&other.thresholds);
        self.widths.extend_from_slice(&other.widths);
        self.nodes.extend_from_slice(&other.nodes);
        self.cover_words.extend_from_slice(&other.cover_words);
        self.node_offsets
            .extend(other.node_offsets[1..].iter().map(|o| o + node_base));
        self.cover_offsets
            .extend(other.cover_offsets[1..].iter().map(|o| o + word_base));
    }

    /// Generates and appends `count` samples from `sampler`, reusing one
    /// scratch buffer so each draw lands in the arena without an owning
    /// `RicSample` in between. Draws the same RNG stream as `count` calls
    /// of [`RicSampler::sample`].
    pub fn extend_with<R: Rng + ?Sized>(
        &mut self,
        sampler: &RicSampler<'_>,
        count: usize,
        rng: &mut R,
    ) {
        let first = self.len();
        self.draw_into_arena(sampler, count, rng);
        self.index_drawn(first, 1);
    }

    /// `count` draws of `rng` appended to the arena, index untouched.
    fn draw_into_arena<R: Rng + ?Sized>(
        &mut self,
        sampler: &RicSampler<'_>,
        count: usize,
        rng: &mut R,
    ) {
        let mut buf = crate::generator::SampleBuf::default();
        for _ in 0..count {
            sampler.sample_into(rng, &mut buf);
            self.push_raw(
                buf.community(),
                buf.threshold(),
                buf.width(),
                buf.nodes(),
                buf.cover_words(),
            );
        }
    }

    /// Generates and appends `count` samples using multiple threads, with
    /// results bit-identical regardless of thread count or scheduling.
    ///
    /// The work is split into a fixed number of shards (independent of the
    /// machine, see [`sampling_shard_plan`]), shard `i` samples from an RNG
    /// seeded with `base_seed + i`, and the shards are appended in shard
    /// order. The sample stream differs from
    /// [`extend_with`](Self::extend_with) (which draws every sample from
    /// one sequential RNG), so callers pick one scheme and stay with it.
    pub fn extend_parallel(&mut self, sampler: &RicSampler<'_>, count: usize, base_seed: u64) {
        self.extend_parallel_with_workers(sampler, count, base_seed, default_workers());
    }

    /// [`extend_parallel`](Self::extend_parallel) with an explicit worker
    /// count. Any `workers` value produces the same store; `0` is treated
    /// as `1`.
    pub fn extend_parallel_with_workers(
        &mut self,
        sampler: &RicSampler<'_>,
        count: usize,
        base_seed: u64,
        workers: usize,
    ) {
        self.extend_parallel_sharded(sampler, count, base_seed, DEFAULT_SAMPLING_SHARDS, workers);
    }

    /// [`extend_parallel_with_workers`](Self::extend_parallel_with_workers)
    /// with an explicit sampling-shard count — see [`sampling_shard_plan`]
    /// for what the shard count means and why all producers must agree on
    /// it.
    pub fn extend_parallel_sharded(
        &mut self,
        sampler: &RicSampler<'_>,
        count: usize,
        base_seed: u64,
        shards: usize,
        workers: usize,
    ) {
        let plan = sampling_shard_plan(count, base_seed, shards);
        self.extend_from_plan(sampler, &plan, workers);
    }

    /// Generates and appends only the sampling shards a cluster partition
    /// owns: shard `partition` of `partitions` draws sampling shards
    /// `[partition·16/partitions, (partition+1)·16/partitions)` of the
    /// full [`sampling_shard_plan`] for `count` samples. Concatenating the partition stores in partition
    /// order is bitwise identical to a single
    /// [`extend_parallel`](Self::extend_parallel) of `count` samples.
    ///
    /// With `partitions == 1` this *is* `extend_parallel_with_workers`.
    ///
    /// # Panics
    ///
    /// When `partitions` does not divide [`DEFAULT_SAMPLING_SHARDS`] evenly,
    /// or when `partitions > 1` and `count < 64` (tiny draws collapse to a
    /// single shard and cannot be partitioned).
    pub fn extend_partition(
        &mut self,
        sampler: &RicSampler<'_>,
        count: usize,
        base_seed: u64,
        partition: usize,
        partitions: usize,
        workers: usize,
    ) {
        let shards = DEFAULT_SAMPLING_SHARDS;
        let plan = sampling_shard_plan(count, base_seed, shards);
        if plan.is_empty() {
            assert!(
                partition < partitions,
                "partition {partition} out of range for {partitions} partitions"
            );
            return;
        }
        assert!(
            partitions == 1 || plan.len() == shards,
            "count {count} below the shard threshold cannot be split across {partitions} partitions"
        );
        let range = partition_shard_range(plan.len(), partition, partitions);
        self.extend_from_plan(sampler, &plan[range], workers);
    }

    /// Draws every `(seed, n)` shard of `plan` (shard `i` from
    /// `StdRng::seed_from_u64(seed_i)`) and appends them in plan order —
    /// the shared tail of all parallel extension paths, and the growth
    /// step of IMCAF, which passes several stages' plans back to back so
    /// they share one index update. The store is the same for every
    /// `workers`.
    ///
    /// One worker draws straight into the arena. Several workers claim
    /// shards in plan order and draw each into a segment of its own; a
    /// finished segment is appended as soon as every shard before it has
    /// been, then freed, and no worker starts a shard more than
    /// `2·workers` past the last one appended — so at most `2·workers`
    /// segments are alive, however uneven the shards.
    pub(crate) fn extend_from_plan(
        &mut self,
        sampler: &RicSampler<'_>,
        plan: &[(u64, usize)],
        workers: usize,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::sync::{Condvar, Mutex};

        let first = self.len();
        let total: usize = plan.iter().map(|&(_, n)| n).sum();
        self.communities.reserve(total);
        self.thresholds.reserve(total);
        self.widths.reserve(total);
        self.node_offsets.reserve(total);
        self.cover_offsets.reserve(total);

        let draw_shard = |seed: u64, n: usize, into: &mut RicStore| {
            let start = std::time::Instant::now();
            into.draw_into_arena(sampler, n, &mut StdRng::seed_from_u64(seed));
            families::RIC_SHARD_DURATION
                .handle()
                .observe_duration(start.elapsed());
        };

        let workers = workers.clamp(1, plan.len().max(1));
        if workers == 1 {
            for &(seed, n) in plan {
                draw_shard(seed, n, self);
            }
        } else {
            /// Shards claimed and appended so far, finished segments
            /// waiting for their turn, and the store they are appended to.
            struct Merge<'s> {
                claimed: usize,
                appended: usize,
                ready: Vec<Option<RicStore>>,
                store: &'s mut RicStore,
            }
            let (nodes, communities, benefit) =
                (self.node_count, self.community_count, self.total_benefit);
            let merge = Mutex::new(Merge {
                claimed: 0,
                appended: 0,
                ready: plan.iter().map(|_| None).collect(),
                store: self,
            });
            let appended_one = Condvar::new();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let shard = {
                            let mut m = merge.lock().expect("no shard panicked");
                            while m.claimed < plan.len() && m.claimed >= m.appended + 2 * workers {
                                m = appended_one.wait(m).expect("no shard panicked");
                            }
                            if m.claimed == plan.len() {
                                break;
                            }
                            m.claimed += 1;
                            m.claimed - 1
                        };
                        let (seed, n) = plan[shard];
                        let mut segment = RicStore::new(nodes, communities, benefit);
                        draw_shard(seed, n, &mut segment);
                        let mut guard = merge.lock().expect("no shard panicked");
                        let m = &mut *guard;
                        m.ready[shard] = Some(segment);
                        while let Some(next) = m.ready.get_mut(m.appended).and_then(Option::take) {
                            m.store.append_arena(&next);
                            m.appended += 1;
                        }
                        appended_one.notify_all();
                    });
                }
            });
        }
        self.index_drawn(first, workers);
    }

    /// Number of samples `|R|`.
    pub fn len(&self) -> usize {
        self.communities.len()
    }

    /// `true` when the store holds no samples.
    pub fn is_empty(&self) -> bool {
        self.communities.is_empty()
    }

    /// Node count of the underlying graph.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of communities of the underlying instance.
    pub fn community_count(&self) -> usize {
        self.community_count
    }

    /// Total benefit `b` of the underlying instance.
    pub fn total_benefit(&self) -> f64 {
        self.total_benefit
    }

    /// Borrowed view of sample `si`.
    pub fn view(&self, si: usize) -> RicSampleView<'_> {
        let cols = self.columns();
        RicSampleView {
            community: CommunityId::new(self.communities[si]),
            threshold: self.thresholds[si],
            community_size: self.widths[si],
            nodes: cols.sample_nodes(si),
            cover_words: cols.sample_words(si),
        }
    }

    /// Iterator over all samples as borrowed views, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = RicSampleView<'_>> + '_ {
        (0..self.len()).map(|si| self.view(si))
    }

    /// Samples touched by `v` (the paper's `G_R(u)`), ordered by
    /// `(sample, pos)` ascending.
    pub fn touched_by(&self, v: NodeId) -> &[SampleRef] {
        self.columns().touched_by(v)
    }

    /// Number of samples `v` appears in — MAF's node-appearance count.
    pub fn appearance_count(&self, v: NodeId) -> usize {
        (self.index_offsets[v.index() + 1] - self.index_offsets[v.index()]) as usize
    }

    /// Number of samples influenced by `S`, computed through the inverted
    /// index: only samples actually touched by a seed are visited, instead
    /// of scanning all `|R|` samples with per-seed binary searches.
    pub fn influenced_count(&self, seeds: &[NodeId]) -> usize {
        self.seeded(seeds).influenced_count()
    }

    /// A coverage state holding `seeds` (out-of-range ids skipped).
    fn seeded(&self, seeds: &[NodeId]) -> CoverageState<&RicStore> {
        let mut state = CoverageState::new(self);
        for &s in seeds {
            if s.index() < self.node_count {
                state.add_seed(s);
            }
        }
        state
    }

    /// The estimator `ĉ_R(S)` (eq. 3). Returns 0 for an empty store.
    pub fn estimate(&self, seeds: &[NodeId]) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.total_benefit * self.influenced_count(seeds) as f64 / self.len() as f64
    }

    /// The submodular upper-bound estimator `ν_R(S)` (eq. 7). Returns 0
    /// for an empty store. Computed through the inverted index; the
    /// numerator is an integer, so the value is bitwise-identical to the
    /// provided [`RicSamples::nu_estimate`].
    pub fn nu_estimate(&self, seeds: &[NodeId]) -> f64 {
        self.seeded(seeds).nu_estimate()
    }

    /// How many samples each community roots — MAF's community-frequency
    /// table.
    pub fn community_frequencies(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.community_count];
        for &c in &self.communities {
            counts[c as usize] += 1;
        }
        counts
    }

    /// Appearance count for every node.
    pub fn node_appearance_counts(&self) -> Vec<usize> {
        self.index_offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .collect()
    }

    /// Size and cost statistics of the store — the quantities that govern
    /// solver runtimes (greedy cost scales with the total index size; BT's
    /// per-pivot cost with the squared sample sizes).
    pub fn stats(&self) -> CollectionStats {
        let sizes = self.node_offsets.windows(2).map(|w| (w[1] - w[0]) as usize);
        let total = self.nodes.len();
        let max = sizes.clone().max().unwrap_or(0);
        let sum_sq: u64 = sizes.map(|s| (s * s) as u64).sum();
        let touched_nodes = self
            .index_offsets
            .windows(2)
            .filter(|w| w[1] > w[0])
            .count();
        CollectionStats {
            samples: self.len(),
            total_index_entries: total,
            mean_sample_size: if self.is_empty() {
                0.0
            } else {
                total as f64 / self.len() as f64
            },
            max_sample_size: max,
            sum_squared_sizes: sum_sq,
            touched_nodes,
        }
    }

    /// Bytes held by the arena and index buffers — the store's RSS proxy
    /// (per-sample metadata columns, CSR offsets, node ids, cover limbs,
    /// and inverted-index entries; excludes `Vec` growth slack).
    pub fn arena_bytes(&self) -> usize {
        use std::mem::size_of;
        self.communities.len() * size_of::<u32>()
            + self.thresholds.len() * size_of::<u32>()
            + self.widths.len() * size_of::<u32>()
            + self.node_offsets.len() * size_of::<u64>()
            + self.nodes.len() * size_of::<NodeId>()
            + self.cover_offsets.len() * size_of::<u64>()
            + self.cover_words.len() * size_of::<u64>()
            + self.index_offsets.len() * size_of::<u64>()
            + self.index_entries.len() * size_of::<SampleRef>()
    }

    /// Number of entries in the inverted node index (`Σ_g |g|`).
    pub fn index_entries(&self) -> usize {
        self.index_entries.len()
    }
}

impl RicColumns<'_> {
    /// Copies the columns into an owned [`RicStore`] — the inverted index
    /// is adopted verbatim, not rebuilt.
    pub fn to_store(self) -> RicStore {
        RicStore {
            node_count: self.node_count,
            community_count: self.community_count,
            total_benefit: self.total_benefit,
            communities: self.communities.to_vec(),
            thresholds: self.thresholds.to_vec(),
            widths: self.widths.to_vec(),
            node_offsets: self.node_offsets.to_vec(),
            nodes: self.nodes.to_vec(),
            cover_offsets: self.cover_offsets.to_vec(),
            cover_words: self.cover_words.to_vec(),
            index_offsets: self.index_offsets.to_vec(),
            index_entries: self.index_entries.to_vec(),
        }
    }
}

impl RicSamples for RicStore {
    #[inline]
    fn columns(&self) -> RicColumns<'_> {
        RicColumns {
            node_count: self.node_count,
            community_count: self.community_count,
            total_benefit: self.total_benefit,
            communities: &self.communities,
            thresholds: &self.thresholds,
            widths: &self.widths,
            node_offsets: &self.node_offsets,
            nodes: &self.nodes,
            cover_offsets: &self.cover_offsets,
            cover_words: &self.cover_words,
            index_offsets: &self.index_offsets,
            index_entries: &self.index_entries,
        }
    }

    fn appearance_count(&self, v: NodeId) -> usize {
        RicStore::appearance_count(self, v)
    }

    fn influenced_count(&self, seeds: &[NodeId]) -> usize {
        RicStore::influenced_count(self, seeds)
    }

    fn estimate(&self, seeds: &[NodeId]) -> f64 {
        RicStore::estimate(self, seeds)
    }

    fn nu_estimate(&self, seeds: &[NodeId]) -> f64 {
        RicStore::nu_estimate(self, seeds)
    }

    fn community_frequencies(&self) -> Vec<usize> {
        RicStore::community_frequencies(self)
    }

    fn node_appearance_counts(&self) -> Vec<usize> {
        RicStore::node_appearance_counts(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{encode, SnapshotBytes};
    use imc_community::CommunitySet;
    use imc_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn manual_sample(community: u32, threshold: u32, node_covers: &[(u32, &[usize])]) -> RicSample {
        let width = 4usize;
        let mut nodes = Vec::new();
        let mut covers = Vec::new();
        for &(v, bits) in node_covers {
            nodes.push(NodeId::new(v));
            let mut c = CoverSet::new(width);
            for &b in bits {
                c.set(b);
            }
            covers.push(c);
        }
        RicSample {
            community: CommunityId::new(community),
            threshold,
            community_size: width as u32,
            nodes,
            covers,
        }
    }

    fn fixture_samples() -> Vec<RicSample> {
        vec![
            manual_sample(0, 2, &[(1, &[0]), (2, &[1])]),
            manual_sample(1, 1, &[(2, &[0])]),
            manual_sample(0, 2, &[(3, &[0, 1])]),
        ]
    }

    fn fixture_store() -> RicStore {
        RicStore::from_samples(10, 3, 6.0, &fixture_samples()).unwrap()
    }

    fn medium_instance() -> (imc_graph::Graph, CommunitySet) {
        let mut b = GraphBuilder::new(30);
        for u in 0..29u32 {
            b.add_edge(u, u + 1, 0.5).unwrap();
            b.add_edge(u + 1, u, 0.3).unwrap();
        }
        b.add_edge(0, 15, 0.7).unwrap();
        let g = b.build().unwrap();
        let cs = CommunitySet::from_parts(
            30,
            vec![
                ((0..5).map(NodeId::new).collect(), 2, 1.0),
                ((10..16).map(NodeId::new).collect(), 3, 3.0),
                ((20..24).map(NodeId::new).collect(), 1, 2.0),
            ],
        )
        .unwrap();
        (g, cs)
    }

    #[test]
    fn index_tracks_appearances() {
        let store = fixture_store();
        assert_eq!(store.appearance_count(NodeId::new(2)), 2);
        assert_eq!(store.appearance_count(NodeId::new(1)), 1);
        assert_eq!(store.appearance_count(NodeId::new(9)), 0);
        let refs = store.touched_by(NodeId::new(2));
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[0], SampleRef { sample: 0, pos: 1 });
        assert_eq!(refs[1], SampleRef { sample: 1, pos: 0 });
    }

    #[test]
    fn influenced_count_and_estimate() {
        let store = fixture_store();
        // {3} influences sample 2 only; {2} influences sample 1 only;
        // {1,2} influences samples 0 and 1.
        assert_eq!(store.influenced_count(&[NodeId::new(3)]), 1);
        assert_eq!(store.influenced_count(&[NodeId::new(2)]), 1);
        assert_eq!(store.influenced_count(&[NodeId::new(1), NodeId::new(2)]), 2);
        // ĉ = b * count / |R| = 6 * 2 / 3 = 4.
        assert_eq!(store.estimate(&[NodeId::new(1), NodeId::new(2)]), 4.0);
    }

    #[test]
    fn nu_dominates_c_hat() {
        let store = fixture_store();
        for seeds in [
            vec![NodeId::new(1)],
            vec![NodeId::new(2)],
            vec![NodeId::new(3)],
            vec![NodeId::new(1), NodeId::new(3)],
        ] {
            assert!(
                store.nu_estimate(&seeds) >= store.estimate(&seeds),
                "Lemma 3 violated for {seeds:?}"
            );
        }
    }

    #[test]
    fn nu_estimate_fractional_value() {
        let store = fixture_store();
        // {1}: sample 0 fraction 1/2, others 0 → ν = 6 * 0.5 / 3 = 1.
        assert_eq!(store.nu_estimate(&[NodeId::new(1)]), 1.0);
    }

    #[test]
    fn community_frequencies_counted() {
        assert_eq!(fixture_store().community_frequencies(), vec![2, 1, 0]);
    }

    #[test]
    fn node_appearance_counts_match_index() {
        let counts = fixture_store().node_appearance_counts();
        assert_eq!(counts[2], 2);
        assert_eq!(counts[3], 1);
        assert_eq!(counts.iter().sum::<usize>(), 4);
    }

    #[test]
    fn empty_store_estimates_zero() {
        let store = RicStore::new(5, 2, 10.0);
        assert!(store.is_empty());
        assert_eq!(store.estimate(&[NodeId::new(0)]), 0.0);
        assert_eq!(store.nu_estimate(&[NodeId::new(0)]), 0.0);
    }

    #[test]
    fn stats_reflect_contents() {
        let st = fixture_store().stats();
        assert_eq!(st.samples, 3);
        assert_eq!(st.total_index_entries, 4); // 2 + 1 + 1 nodes
        assert_eq!(st.max_sample_size, 2);
        assert!((st.mean_sample_size - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(st.sum_squared_sizes, 4 + 1 + 1);
        assert_eq!(st.touched_nodes, 3); // nodes 1, 2, 3
    }

    #[test]
    fn empty_store_stats() {
        let st = RicStore::new(5, 2, 10.0).stats();
        assert_eq!(st.samples, 0);
        assert_eq!(st.mean_sample_size, 0.0);
        assert_eq!(st.max_sample_size, 0);
    }

    /// The index-driven inherent queries against the naive per-sample
    /// binary-search walk of the provided trait methods, which a
    /// `RicStoreView` over the store's snapshot runs un-overridden.
    fn assert_matches_provided_methods(store: &RicStore, seed_sets: &[Vec<NodeId>]) {
        let snapshot = SnapshotBytes::copy_from(&encode(store, 0, 0));
        let naive = snapshot.view().unwrap();
        for seeds in seed_sets {
            assert_eq!(store.influenced_count(seeds), naive.influenced_count(seeds));
            assert_eq!(store.estimate(seeds), naive.estimate(seeds));
            assert_eq!(store.nu_estimate(seeds), naive.nu_estimate(seeds));
        }
        assert_eq!(store.community_frequencies(), naive.community_frequencies());
        assert_eq!(
            store.node_appearance_counts(),
            naive.node_appearance_counts()
        );
    }

    #[test]
    fn index_driven_queries_match_provided_methods_on_fixture() {
        assert_matches_provided_methods(
            &fixture_store(),
            &[
                vec![],
                vec![NodeId::new(1)],
                vec![NodeId::new(2)],
                vec![NodeId::new(3)],
                vec![NodeId::new(1), NodeId::new(2)],
                vec![NodeId::new(1), NodeId::new(3)],
                // Seed ids outside the graph are ignored: the naive walk
                // binary-searches and simply misses.
                vec![NodeId::new(3), NodeId::new(4000)],
            ],
        );
    }

    #[test]
    fn shard_plan_covers_count_and_collapses_small_draws() {
        let plan = sampling_shard_plan(300, 77, DEFAULT_SAMPLING_SHARDS);
        assert_eq!(plan.len(), 16);
        assert_eq!(plan.iter().map(|&(_, n)| n).sum::<usize>(), 300);
        for (i, &(seed, n)) in plan.iter().enumerate() {
            assert_eq!(seed, 77 + i as u64);
            // 300 = 16·18 + 12: the first 12 shards draw one extra sample.
            assert_eq!(n, 18 + usize::from(i < 12));
        }
        assert_eq!(sampling_shard_plan(10, 5, 16), vec![(5, 10)]);
        assert!(sampling_shard_plan(0, 5, 16).is_empty());
    }

    #[test]
    fn partition_ranges_tile_the_shard_plan() {
        for partitions in [1usize, 2, 4, 8, 16] {
            let mut covered = Vec::new();
            for p in 0..partitions {
                covered.extend(partition_shard_range(16, p, partitions));
            }
            assert_eq!(covered, (0..16).collect::<Vec<_>>(), "P={partitions}");
        }
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn partition_ranges_reject_uneven_split() {
        let _ = partition_shard_range(16, 0, 3);
    }

    #[test]
    fn partition_stores_concatenate_to_single_node_store() {
        let (g, cs) = medium_instance();
        let sampler = RicSampler::new(&g, &cs);
        let mut full = RicStore::for_sampler(&sampler);
        full.extend_parallel_with_workers(&sampler, 300, 77, 2);
        for partitions in [1usize, 2, 4] {
            let mut merged = RicStore::for_sampler(&sampler);
            for p in 0..partitions {
                let mut part = RicStore::for_sampler(&sampler);
                part.extend_partition(&sampler, 300, 77, p, partitions, 2);
                merged.append_arena(&part);
            }
            merged.rebuild_index();
            assert_eq!(merged, full, "partitions={partitions}");
        }
    }

    #[test]
    fn partition_sample_counts_sum_to_total() {
        let (g, cs) = medium_instance();
        let sampler = RicSampler::new(&g, &cs);
        let mut lens = Vec::new();
        for p in 0..4 {
            let mut part = RicStore::for_sampler(&sampler);
            part.extend_partition(&sampler, 301, 9, p, 4, 1);
            lens.push(part.len());
        }
        // 301 = 16·18 + 13 extras spread over the first 13 shards.
        assert_eq!(lens.iter().sum::<usize>(), 301);
        assert_eq!(lens, vec![76, 76, 76, 73]);
    }

    #[test]
    #[should_panic(expected = "cannot be split")]
    fn partition_rejects_tiny_counts() {
        let (g, cs) = medium_instance();
        let sampler = RicSampler::new(&g, &cs);
        let mut part = RicStore::for_sampler(&sampler);
        part.extend_partition(&sampler, 10, 9, 0, 2, 1);
    }

    #[test]
    fn round_trips_through_owning_samples() {
        let store = fixture_store();
        let owned: Vec<RicSample> = store.iter().map(|v| v.to_sample()).collect();
        assert_eq!(owned, fixture_samples());
        assert_eq!(RicStore::from_samples(10, 3, 6.0, &owned).unwrap(), store);
    }

    #[test]
    fn views_expose_sample_contents() {
        let store = fixture_store();
        let v = store.view(0);
        assert_eq!(v.community(), CommunityId::new(0));
        assert_eq!(v.threshold(), 2);
        assert_eq!(v.community_size(), 4);
        assert_eq!(v.len(), 2);
        assert_eq!(v.nodes(), &[NodeId::new(1), NodeId::new(2)]);
        assert_eq!(v.cover_of(NodeId::new(1)), Some(&[0b01u64][..]));
        assert_eq!(v.cover_of(NodeId::new(2)), Some(&[0b10u64][..]));
        assert_eq!(v.cover_of(NodeId::new(7)), None);
        assert_eq!(
            store.sample_covered_members(0, &[NodeId::new(1), NodeId::new(2)]),
            2
        );
        assert!(store.sample_influenced(0, &[NodeId::new(1), NodeId::new(2)]));
        assert!(!store.sample_influenced(0, &[NodeId::new(1)]));
        assert_eq!(
            store.sample_nu_term(0, &[NodeId::new(1)]),
            crate::NU_ONE / 2
        );
        assert_eq!(v.to_sample(), fixture_samples()[0]);
    }

    #[test]
    fn empty_sample_is_accepted() {
        // BT pivot reduction produces residual samples with no nodes.
        let mut store = RicStore::new(4, 1, 1.0);
        store
            .push_sample(&RicSample {
                community: CommunityId::new(0),
                threshold: 1,
                community_size: 2,
                nodes: vec![],
                covers: vec![],
            })
            .unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.view(0).is_empty());
        assert_eq!(store.influenced_count(&[NodeId::new(0)]), 0);
    }

    #[test]
    fn rejects_unsorted_and_duplicate_nodes() {
        let mut store = RicStore::new(10, 3, 6.0);
        let mut unsorted = manual_sample(0, 1, &[(2, &[0]), (1, &[1])]);
        assert_eq!(
            store.push_sample(&unsorted),
            Err(RicStoreError::NodesNotStrictlyAscending { sample: 0 })
        );
        unsorted.nodes = vec![NodeId::new(2), NodeId::new(2)];
        assert_eq!(
            store.push_sample(&unsorted),
            Err(RicStoreError::NodesNotStrictlyAscending { sample: 0 })
        );
        assert!(store.is_empty(), "rejected samples must not be stored");
    }

    #[test]
    fn rejects_out_of_range_ids_and_zero_threshold() {
        let mut store = RicStore::new(3, 1, 1.0);
        assert_eq!(
            store.push_sample(&manual_sample(0, 1, &[(5, &[0])])),
            Err(RicStoreError::NodeOutOfRange { sample: 0, node: 5 })
        );
        assert_eq!(
            store.push_sample(&manual_sample(2, 1, &[(1, &[0])])),
            Err(RicStoreError::CommunityOutOfRange {
                sample: 0,
                community: 2
            })
        );
        assert_eq!(
            store.push_sample(&manual_sample(0, 0, &[(1, &[0])])),
            Err(RicStoreError::ZeroThreshold { sample: 0 })
        );
    }

    #[test]
    fn rejects_malformed_covers() {
        let mut store = RicStore::new(10, 3, 6.0);
        let mut missing_cover = manual_sample(0, 1, &[(1, &[0]), (2, &[1])]);
        missing_cover.covers.pop();
        assert_eq!(
            store.push_sample(&missing_cover),
            Err(RicStoreError::CoverShapeMismatch { sample: 0 })
        );
        let mut wrong_width = manual_sample(0, 1, &[(1, &[0])]);
        wrong_width.covers[0] = CoverSet::new(100); // 2 limbs vs width 4 → 1
        assert_eq!(
            store.push_sample(&wrong_width),
            Err(RicStoreError::CoverShapeMismatch { sample: 0 })
        );
        let mut stray_bits = manual_sample(0, 1, &[(1, &[0])]);
        stray_bits.covers[0] = CoverSet::Small(1 << 10); // width 4
        assert_eq!(
            store.push_sample(&stray_bits),
            Err(RicStoreError::CoverBitsOutOfRange { sample: 0 })
        );
    }

    #[test]
    fn error_messages_are_descriptive() {
        let e = RicStoreError::NodesNotStrictlyAscending { sample: 3 };
        assert!(e.to_string().contains("strictly ascending"));
        let e = RicStoreError::NodeOutOfRange { sample: 1, node: 9 };
        assert!(e.to_string().contains("node 9"));
    }

    /// The samples `plan` describes, drawn one owning `RicSample` at a time
    /// — the reference for the scratch-buffer arena paths.
    fn owning_draws(sampler: &RicSampler<'_>, plan: &[(u64, usize)]) -> RicStore {
        let mut owned = Vec::new();
        for &(seed, n) in plan {
            let mut rng = StdRng::seed_from_u64(seed);
            owned.extend((0..n).map(|_| sampler.sample(&mut rng)));
        }
        RicStore::from_samples(
            sampler.graph().node_count(),
            sampler.communities().len(),
            sampler.communities().total_benefit(),
            &owned,
        )
        .unwrap()
    }

    #[test]
    fn extend_with_matches_owning_sample_stream() {
        let (g, cs) = medium_instance();
        let sampler = RicSampler::new(&g, &cs);
        let mut store = RicStore::for_sampler(&sampler);
        store.extend_with(&sampler, 150, &mut StdRng::seed_from_u64(11));
        assert_eq!(store, owning_draws(&sampler, &[(11, 150)]));
    }

    #[test]
    fn extend_with_generates_from_sampler() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        let g = b.build().unwrap();
        let cs = CommunitySet::from_parts(
            3,
            vec![
                (vec![NodeId::new(1)], 1, 2.0),
                (vec![NodeId::new(2)], 1, 2.0),
            ],
        )
        .unwrap();
        let sampler = RicSampler::new(&g, &cs);
        let mut store = RicStore::for_sampler(&sampler);
        let mut rng = StdRng::seed_from_u64(1);
        store.extend_with(&sampler, 500, &mut rng);
        assert_eq!(store.len(), 500);
        assert_eq!(store.total_benefit(), 4.0);
        // Node 0 reaches member 1 always when community 0 is drawn (~half
        // the samples).
        let freq = store.community_frequencies();
        assert_eq!(freq.iter().sum::<usize>(), 500);
        assert!(freq[0] > 180 && freq[0] < 320, "freq={freq:?}");
        // ĉ({0}) ≈ b · Pr[C_0 drawn] = 4 · 0.5 = 2 (node 0 reaches C_0
        // through the certain edge, never C_1).
        let est = store.estimate(&[NodeId::new(0)]);
        assert!((est - 2.0).abs() < 0.4, "est={est}");
    }

    #[test]
    fn extend_parallel_bit_identical_across_worker_counts() {
        let (g, cs) = medium_instance();
        let sampler = RicSampler::new(&g, &cs);
        let mut reference = RicStore::for_sampler(&sampler);
        reference.extend_parallel_with_workers(&sampler, 300, 77, 1);
        for workers in [2, 4, 8] {
            let mut store = RicStore::for_sampler(&sampler);
            store.extend_parallel_with_workers(&sampler, 300, 77, workers);
            assert_eq!(store, reference, "workers={workers}");
        }
        // The machine-default entry point and the explicit default shard
        // count agree too.
        let mut auto = RicStore::for_sampler(&sampler);
        auto.extend_parallel(&sampler, 300, 77);
        assert_eq!(auto, reference);
        let mut explicit = RicStore::for_sampler(&sampler);
        explicit.extend_parallel_sharded(&sampler, 300, 77, DEFAULT_SAMPLING_SHARDS, 4);
        assert_eq!(explicit, reference);
        // And it is the documented stream: shard `i` of the plan drawn
        // from `StdRng::seed_from_u64(77 + i)`, appended in shard order.
        let plan = sampling_shard_plan(300, 77, DEFAULT_SAMPLING_SHARDS);
        assert_eq!(owning_draws(&sampler, &plan), reference);
    }

    /// The index scatter split into 1, 2, 3 or 8 parts (and more parts
    /// than nodes) builds the index `rebuild_index` builds, from nothing
    /// and behind an indexed prefix of 1, 150 or 399 samples.
    #[test]
    fn index_scatter_is_the_same_for_every_part_count() {
        let (g, cs) = medium_instance();
        let sampler = RicSampler::new(&g, &cs);
        let draws = |store: &mut RicStore, n: usize, rng: &mut StdRng| {
            store.draw_into_arena(&sampler, n, rng);
        };
        let mut reference = RicStore::for_sampler(&sampler);
        draws(&mut reference, 400, &mut StdRng::seed_from_u64(5));
        let unindexed = reference.clone();
        reference.rebuild_index();
        for parts in [1, 2, 3, 8, 64] {
            let mut fresh = unindexed.clone();
            fresh.index_appended(0, parts);
            assert_eq!(fresh, reference, "parts={parts}");
            for prefix in [1, 150, 399] {
                let mut rng = StdRng::seed_from_u64(5);
                let mut grown = RicStore::for_sampler(&sampler);
                draws(&mut grown, prefix, &mut rng);
                grown.rebuild_index();
                draws(&mut grown, 400 - prefix, &mut rng);
                grown.index_appended(prefix, parts);
                assert_eq!(grown, reference, "parts={parts} prefix={prefix}");
            }
        }
        let mut fixture = fixture_store();
        fixture.index_appended(fixture.len(), 3); // nothing appended: a no-op
        assert_eq!(fixture, fixture_store());
    }

    #[test]
    fn extend_parallel_small_count_single_shard() {
        let (g, cs) = medium_instance();
        let sampler = RicSampler::new(&g, &cs);
        // Below the shard threshold the plan is one shard seeded base_seed,
        // i.e. identical to a sequential draw from StdRng(base_seed).
        let mut par = RicStore::for_sampler(&sampler);
        par.extend_parallel_with_workers(&sampler, 10, 5, 4);
        let mut seq = RicStore::for_sampler(&sampler);
        seq.extend_with(&sampler, 10, &mut StdRng::seed_from_u64(5));
        assert_eq!(par, seq);
    }

    #[test]
    fn extend_parallel_zero_count_is_noop() {
        let (g, cs) = medium_instance();
        let sampler = RicSampler::new(&g, &cs);
        let mut store = RicStore::for_sampler(&sampler);
        store.extend_parallel(&sampler, 0, 1);
        assert!(store.is_empty());
    }

    #[test]
    fn index_driven_queries_match_provided_methods_on_generated_store() {
        let (g, cs) = medium_instance();
        let sampler = RicSampler::new(&g, &cs);
        let mut store = RicStore::for_sampler(&sampler);
        store.extend_parallel_with_workers(&sampler, 400, 3, 4);
        assert_matches_provided_methods(
            &store,
            &[
                vec![NodeId::new(0)],
                vec![NodeId::new(12), NodeId::new(21)],
                vec![NodeId::new(2), NodeId::new(14), NodeId::new(22)],
                (0..30).step_by(5).map(NodeId::new).collect(),
            ],
        );
    }

    #[test]
    fn arena_accounting_is_consistent() {
        let store = fixture_store();
        assert_eq!(store.index_entries(), 4); // 2 + 1 + 1 node appearances
                                              // 3 communities + 3 thresholds + 3 widths (4B each) + 4+4 offsets
                                              // (8B) + 4 nodes (4B) + 4 limbs (8B) + 11 index offsets (8B) + 4
                                              // index entries (8B).
        let expect = 3 * 4 * 3 + (4 + 4) * 8 + 4 * 4 + 4 * 8 + 11 * 8 + 4 * 8;
        assert_eq!(store.arena_bytes(), expect);
    }
}
