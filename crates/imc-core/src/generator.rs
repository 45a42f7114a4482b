use crate::samples::limbs_for_width;
use crate::{CoverSet, RicSample};
use imc_community::{CommunityId, CommunitySet};
use imc_graph::{Graph, NodeId};
use imc_obs::families;
use rand::{Rng, RngCore};

/// Flat sweeps over the live edges that cover propagation runs before it
/// hands an unsettled draw to the worklist.
const COVER_SWEEPS: usize = 16;

/// `2⁵³`, the scale of the vendored `random::<f64>()`, which is
/// `(next_u64() >> 11) · 2⁻⁵³`.
const COIN_SCALE: f64 = (1u64 << 53) as f64;

/// The integer form of a coin with probability `w ∈ (0, 1)`: for every
/// 53-bit `m`, `m < coin_threshold(w)` exactly when `m·2⁻⁵³ < w` — when the
/// `random::<f64>()` made from `m` comes up live.
///
/// Both sides are exact: `m < 2⁵³` converts to `f64` without rounding and a
/// power-of-two scale loses no bit, so `m·2⁻⁵³ < w ⇔ m < w·2⁵³`, and for an
/// integer `m` that is `m < ⌈w·2⁵³⌉`, an integer `≤ 2⁵³`.
fn coin_threshold(w: f64) -> u64 {
    (w * COIN_SCALE).ceil() as u64
}

/// One coin per edge of a row, in row order, each one `next_u64()` as
/// `random::<f64>()` would draw it. The sources of the live edges are
/// packed, in row order, at the front of `kept`, and their count is
/// returned. Branch-free: every source is written, and the cursor moves on
/// by the coin. Kept out of line: inlined into the BFS loop, the
/// generator's state no longer stays in registers across the row, and a
/// wide draw measured about 4 % slower.
#[inline(never)]
fn flip_coins<R: RngCore + ?Sized>(
    sources: &[u32],
    thresholds: &[u64],
    rng: &mut R,
    kept: &mut [u32],
) -> usize {
    let mut live = 0;
    for (&source, &t) in sources.iter().zip(thresholds) {
        kept[live] = source;
        live += usize::from((rng.next_u64() >> 11) < t);
    }
    live
}

/// One sweep of `cover[p] |= cover[l]` over the live edges `p → l`
/// (`sources[e] = p`, `targets[e] = l`), `limbs` words a cover. Returns
/// the OR of every bit it set, so `0` means every inclusion already held.
fn sweep_covers(words: &mut [u64], limbs: usize, sources: &[u32], targets: &[u32]) -> u64 {
    let mut changed = 0u64;
    if limbs == 1 {
        for (&p, &l) in sources.iter().zip(targets) {
            let had = words[p as usize];
            let merged = had | words[l as usize];
            words[p as usize] = merged;
            changed |= merged ^ had;
        }
        return changed;
    }
    for (&p, &l) in sources.iter().zip(targets) {
        let (p, l) = (p as usize * limbs, l as usize * limbs);
        for limb in 0..limbs {
            let had = words[p + limb];
            let merged = had | words[l + limb];
            words[p + limb] = merged;
            changed |= merged ^ had;
        }
    }
    changed
}

/// The in-edges of every node whose in-edges all need a coin
/// (`0 < w < 1`), as an in-CSR of sources and [`coin_threshold`]s — what
/// the IC draw flips branch-free. A node with a certain or dead in-edge
/// has an empty row and `coined[v] == false`; it keeps the per-edge loop.
#[derive(Debug, Clone, Default)]
struct CoinRows {
    coined: Vec<bool>,
    offsets: Vec<usize>,
    sources: Vec<u32>,
    thresholds: Vec<u64>,
    /// The longest row: the size of `SampleBuf::kept`.
    widest: usize,
}

impl CoinRows {
    fn of(graph: &Graph) -> Self {
        let mut rows = CoinRows {
            offsets: vec![0],
            ..CoinRows::default()
        };
        for v in graph.nodes() {
            let coined = graph.in_edges(v).all(|e| 0.0 < e.weight && e.weight < 1.0);
            if coined {
                for e in graph.in_edges(v) {
                    rows.sources.push(e.source.raw());
                    rows.thresholds.push(coin_threshold(e.weight));
                }
                rows.widest = rows.widest.max(graph.in_degree(v));
            }
            rows.coined.push(coined);
            rows.offsets.push(rows.sources.len());
        }
        rows
    }

    /// `v`'s sources and thresholds.
    fn row(&self, v: NodeId) -> (&[u32], &[u64]) {
        let row = self.offsets[v.index()]..self.offsets[v.index() + 1];
        (&self.sources[row.clone()], &self.thresholds[row])
    }
}

/// Reusable output buffer for one sampler draw, holding the sample as the
/// flat arrays an arena append wants: sorted node ids plus one contiguous
/// run of cover limbs (`len × max(1, ⌈width/64⌉)` words).
///
/// It also owns the sampler's scratch — the per-graph-node interning
/// table, the BFS queue, the coin scratch, the live-edge lists, the covers
/// in discovery order, the propagation worklist and the node-id bitmap —
/// so once the buffer has seen a draw as large as the next
/// one, that draw allocates nothing (docs/KERNELS.md, *RIC sampler
/// scratch and word-parallel cover propagation*). Every production draw
/// holds one `SampleBuf` across all the draws of a thread — a worker of
/// the store's plan draws
/// ([`RicStore::extend_parallel`](crate::RicStore::extend_parallel),
/// IMCAF's growth) across its shards, a worker of
/// [`estimate_c`](crate::estimate::estimate_c) across its blocks; any loop
/// over draws should do the same.
#[derive(Debug, Clone, Default)]
pub struct SampleBuf {
    community: CommunityId,
    threshold: u32,
    width: u32,
    nodes: Vec<NodeId>,
    cover_words: Vec<u64>,
    /// `slots[v]` interns graph node `v`: it holds `v`'s local id in the
    /// draw stamped `epoch`, and nothing when the stamp is older. One
    /// entry per node of the last sampler's graph.
    slots: Vec<Slot>,
    /// Stamp of the last draw; `0` is never a draw's stamp.
    epoch: u32,
    /// The BFS queue, which is also the local id → node table: a node is
    /// queued at the moment it is interned, so queue position *is* local
    /// id. Members are local ids `0..width`.
    order: Vec<NodeId>,
    /// Sources of one node's coin row, live ones packed at the front; as
    /// long as the sampler's widest row.
    kept: Vec<u32>,
    /// CSR of live in-edges by local id: row `l` of `live_adj`, from
    /// `live_off[l]` to `live_off[l + 1]`, holds the local ids `p` with a
    /// live edge `p → l`, and `live_dst` beside it holds that `l` — the
    /// same live edges as a flat `(p, l)` list, in ascending `l`.
    live_off: Vec<usize>,
    live_adj: Vec<u32>,
    live_dst: Vec<u32>,
    /// Covers in local-id order, `limbs` words per node (`cover_words` is
    /// the same rows in ascending node-id order).
    local_words: Vec<u64>,
    /// Propagation worklist: a FIFO ring of `order.len() + 1` entries, and
    /// whether each local id is currently in it.
    work: Vec<u32>,
    queued: Vec<bool>,
    /// One bit per node of the sampler's graph, set for the nodes of the
    /// draw while it is emitted; all zero between draws.
    present: Vec<u64>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    epoch: u32,
    local: u32,
}

impl SampleBuf {
    /// Source community of the last draw.
    pub fn community(&self) -> CommunityId {
        self.community
    }

    /// Activation threshold `h_g` of the last draw.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Community size (cover width in bits) of the last draw.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Nodes of the last draw, ascending by id.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Cover limbs of the last draw — `nodes().len()` consecutive groups
    /// of `max(1, ⌈width/64⌉)` little-endian words.
    pub fn cover_words(&self) -> &[u64] {
        &self.cover_words
    }

    /// Number of nodes in the last draw.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the last draw touched no node.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Local id of `v` in the last draw; `None` when the draw did not
    /// reach `v` (which covers any id the sampler's graph does not have).
    fn local_of(&self, v: NodeId) -> Option<usize> {
        let slot = self.slots.get(v.index())?;
        (slot.epoch == self.epoch).then_some(slot.local as usize)
    }

    /// Whether the buffered draw would be influenced by `seeds`: the union
    /// of the seeds' covers reaches at least `threshold` members. Matches
    /// [`RicSamples::sample_influenced`](crate::RicSamples::sample_influenced)
    /// on a store holding the draw, without materializing it: each
    /// seed is one read of the interning table, and the union is folded a
    /// limb at a time, so the call allocates nothing at any width.
    pub fn influenced_by(&self, seeds: &[NodeId]) -> bool {
        let limbs = limbs_for_width(self.width);
        let mut covered = 0u32;
        for limb in 0..limbs {
            let mut union = 0u64;
            for &s in seeds {
                if let Some(l) = self.local_of(s) {
                    union |= self.local_words[l * limbs + limb];
                }
            }
            covered += union.count_ones();
        }
        covered >= self.threshold
    }

    /// Materializes the buffered draw as an owning [`RicSample`].
    pub fn to_sample(&self) -> RicSample {
        let limbs = limbs_for_width(self.width);
        RicSample {
            community: self.community,
            threshold: self.threshold,
            community_size: self.width,
            nodes: self.nodes.clone(),
            covers: (0..self.nodes.len())
                .map(|i| {
                    CoverSet::from_words(
                        self.width as usize,
                        &self.cover_words[i * limbs..(i + 1) * limbs],
                    )
                })
                .collect(),
        }
    }

    /// Opens a draw over a graph of `node_count` nodes whose widest coin
    /// row has `widest` edges: a fresh stamp makes every slot stale at
    /// once. The table and the bitmap are re-sized when the sampler's graph
    /// differs from the last one's, and the table is cleared on the (rare)
    /// stamp wrap so an old stamp can never read as current.
    fn begin_draw(&mut self, node_count: usize, widest: usize) {
        if self.slots.len() != node_count || self.epoch == u32::MAX {
            self.slots.clear();
            self.slots.resize(node_count, Slot::default());
            self.present.clear();
            self.present.resize(node_count.div_ceil(64), 0);
            self.epoch = 0;
        }
        if self.kept.len() < widest {
            self.kept.resize(widest, 0);
        }
        self.epoch += 1;
        self.order.clear();
        self.live_off.clear();
        self.live_adj.clear();
        self.live_dst.clear();
    }

    /// Local id of `v` in the open draw, queueing `v` if it is new.
    #[inline]
    fn intern(&mut self, v: NodeId) -> u32 {
        let slot = &mut self.slots[v.index()];
        if slot.epoch != self.epoch {
            *slot = Slot {
                epoch: self.epoch,
                local: self.order.len() as u32,
            };
            self.order.push(v);
        }
        slot.local
    }

    /// Records the live edge `source → l`, interning `source`.
    #[inline]
    fn push_live(&mut self, source: NodeId, l: u32) {
        let p = self.intern(source);
        self.live_adj.push(p);
        self.live_dst.push(l);
    }

    /// Word-parallel cover propagation: member `i` (local id `i`) starts
    /// with bit `i`, and every live edge `p → l` ORs all limbs of
    /// `cover[l]` into `cover[p]` until nothing grows. The result is the
    /// least fixed point of those inclusions — `p`'s cover is exactly the
    /// members `p` reaches — whatever order the edges are visited in.
    ///
    /// First come up to [`COVER_SWEEPS`] branch-free sweeps over the flat
    /// edge list, in ascending `l`; a sweep that changes nothing proves the
    /// fixed point. One sweep settles every edge of the BFS tree, because a
    /// node is discovered from a smaller local id, so only edges closing a
    /// cycle or a second path need more. A draw still unsettled after the
    /// sweeps goes to the worklist, which keeps its worst-case bound.
    fn propagate_covers(&mut self) {
        let (width, limbs) = (self.width as usize, limbs_for_width(self.width));
        let n = self.order.len();
        let words = &mut self.local_words;
        words.clear();
        words.resize(n * limbs, 0);
        for member in 0..width {
            words[member * limbs + member / 64] |= 1u64 << (member % 64);
        }
        // The worklist's scratch grows with every draw, not only with the
        // rare one that falls back, so a warm buffer never allocates.
        self.work.clear();
        self.work.reserve(n + 1);
        self.queued.clear();
        self.queued.reserve(n);
        for _ in 0..COVER_SWEEPS {
            if sweep_covers(words, limbs, &self.live_adj, &self.live_dst) == 0 {
                return;
            }
        }
        self.drain_worklist();
    }

    /// Propagates covers to the fixed point with a FIFO worklist seeded
    /// with every node — from any covers that hold only bits the
    /// inclusions force, such as the sweeps leave. A node re-enters the
    /// worklist only when its cover gained a bit, so it is popped at most
    /// `width + 1` times.
    fn drain_worklist(&mut self) {
        let limbs = limbs_for_width(self.width);
        let n = self.order.len();
        let words = &mut self.local_words;
        self.queued.clear();
        self.queued.resize(n, true);
        self.work.clear();
        self.work.extend(0..=n as u32);
        // `work[head..tail]` (cyclically) is the FIFO. `queued` keeps a
        // node in it at most once, so it never holds more than `n` of the
        // ring's `n + 1` entries and `head == tail` only means empty.
        let next = |i: usize| if i == n { 0 } else { i + 1 };
        let (mut head, mut tail) = (0usize, n);
        while head != tail {
            let l = self.work[head] as usize;
            head = next(head);
            self.queued[l] = false;
            for &p in &self.live_adj[self.live_off[l]..self.live_off[l + 1]] {
                let p = p as usize;
                let mut grew = false;
                for limb in 0..limbs {
                    let had = words[p * limbs + limb];
                    let merged = had | words[l * limbs + limb];
                    words[p * limbs + limb] = merged;
                    grew |= merged != had;
                }
                if grew && !self.queued[p] {
                    self.queued[p] = true;
                    self.work[tail] = p as u32;
                    tail = next(tail);
                }
            }
        }
    }

    /// Writes the draw's output arrays: nodes ascending by id, each
    /// followed in `cover_words` by its cover row. The order comes from the
    /// node-id bitmap: set the draw's bits, then scan and clear every word.
    fn emit(&mut self) {
        let limbs = limbs_for_width(self.width);
        self.nodes.clear();
        self.cover_words.clear();
        for v in &self.order {
            self.present[v.index() / 64] |= 1u64 << (v.index() % 64);
        }
        for (i, word) in self.present.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let v = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let l = self.slots[v].local as usize;
                self.nodes.push(NodeId::new(v as u32));
                self.cover_words
                    .extend_from_slice(&self.local_words[l * limbs..(l + 1) * limbs]);
            }
        }
    }
}

/// Which live-edge distribution the sampler draws from.
///
/// The paper presents RIC under Independent Cascade and notes (§II.A) the
/// standard live-edge equivalence extends everything to Linear Threshold:
/// under LT, each node keeps **at most one** incoming live edge, chosen
/// with probability proportional to its weight (none with probability
/// `1 − Σ_u w(u, v)`), and reverse reachability over that forest-like
/// realization is distributed exactly as LT activation (Kempe et al.
/// 2003, Thm. 4.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LiveEdgeModel {
    /// Every edge live independently with probability `w(u, v)` (IC).
    #[default]
    IndependentCascade,
    /// Each node keeps at most one live in-edge, categorically by weight
    /// (LT). Requires `Σ_u w(u, v) ≤ 1` for every `v` (weighted cascade
    /// satisfies this by construction).
    LinearThreshold,
}

/// Generator of RIC samples — Algorithm 1 of the paper.
///
/// For each sample it: (1) draws the source community `C_g` from the
/// benefit distribution `ρ(C_i) = b_i / b`; (2) performs a *multi-source
/// backward BFS* from all members, lazily flipping each edge's liveness
/// coin the first time the edge is examined (the paper's `⊥ / y / n`
/// states — an edge is examined at most once because each node is dequeued
/// at most once, so the memoization is implicit); (3) computes, for every
/// visited node, the set of members it reaches over live edges — the
/// inverted form of the reachable sets `R_g(u)` that Alg. 1 extracts with
/// per-member DFS — by pushing all members' bits along the live edges at
/// once, a word at a time, until nothing changes.
///
/// All working memory of a draw lives in the caller's [`SampleBuf`], so a
/// draw into a warm buffer allocates nothing.
///
/// Construction is `O(n + m)`: an IC sampler keeps its own copy of the
/// in-edges of every node whose in-edges all need a coin, with each coin's
/// probability as an integer threshold, so those coins are flipped
/// branch-free. Build one sampler per collection, not per draw. It is
/// `Sync`, so parallel harnesses share one across threads by reference,
/// each thread with its own RNG.
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
/// let s = sampler.sample(&mut StdRng::seed_from_u64(7));
/// // The member and its certain in-neighbour are always in the sample.
/// assert_eq!(s.nodes, vec![NodeId::new(0), NodeId::new(1)]);
/// // A store answers queries: seeding the in-neighbour influences it.
/// let store = RicStore::from_samples(3, 1, 2.0, [&s])?;
/// assert_eq!(store.influenced_count(&[NodeId::new(0)]), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RicSampler<'a> {
    graph: &'a Graph,
    communities: &'a CommunitySet,
    benefit_cdf: Vec<f64>,
    model: LiveEdgeModel,
    /// Empty under LT, which draws one categorical per node instead.
    coins: CoinRows,
}

impl<'a> RicSampler<'a> {
    /// Creates a sampler over `graph` and `communities` under the IC
    /// live-edge model.
    ///
    /// # Panics
    ///
    /// Panics if `communities` is empty or sized for a different graph —
    /// construct via [`ImcInstance`](crate::ImcInstance) for the fallible
    /// path.
    pub fn new(graph: &'a Graph, communities: &'a CommunitySet) -> Self {
        Self::with_model(graph, communities, LiveEdgeModel::IndependentCascade)
    }

    /// Creates a sampler with an explicit live-edge model.
    ///
    /// # Panics
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn with_model(
        graph: &'a Graph,
        communities: &'a CommunitySet,
        model: LiveEdgeModel,
    ) -> Self {
        assert!(
            !communities.is_empty(),
            "cannot sample from zero communities"
        );
        assert_eq!(
            communities.node_count(),
            graph.node_count(),
            "community set built for a different graph"
        );
        let coins = match model {
            LiveEdgeModel::IndependentCascade => CoinRows::of(graph),
            LiveEdgeModel::LinearThreshold => CoinRows::default(),
        };
        RicSampler {
            graph,
            communities,
            benefit_cdf: communities.benefit_cdf(),
            model,
            coins,
        }
    }

    /// The live-edge model this sampler draws from.
    pub fn model(&self) -> LiveEdgeModel {
        self.model
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The underlying community set.
    pub fn communities(&self) -> &CommunitySet {
        self.communities
    }

    /// Draws the source community id from `ρ(C_i) = b_i / b`.
    pub fn sample_community<R: Rng + ?Sized>(&self, rng: &mut R) -> CommunityId {
        let x: f64 = rng.random();
        let idx = self.benefit_cdf.partition_point(|&c| c < x);
        CommunityId::new(idx.min(self.benefit_cdf.len() - 1) as u32)
    }

    /// Generates one RIC sample (Alg. 1) as an owning [`RicSample`].
    ///
    /// Each call builds and drops a [`SampleBuf`] — scratch sized to the
    /// graph included — so this is for one-off draws and tests. A loop
    /// over draws should hold one `SampleBuf` and call
    /// [`sample_into`](Self::sample_into).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> RicSample {
        let cid = self.sample_community(rng);
        self.sample_rooted(cid, rng)
    }

    /// Generates one RIC sample into a reusable [`SampleBuf`] — same draw
    /// (identical RNG stream) as [`sample`](Self::sample), without
    /// allocating an owning [`RicSample`].
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, buf: &mut SampleBuf) {
        let cid = self.sample_community(rng);
        self.sample_rooted_into(cid, rng, buf);
    }

    /// Generates a RIC sample with a *fixed* source community — used by
    /// tests and stratified diagnostics. Like [`sample`](Self::sample) it
    /// builds a [`SampleBuf`] per call; a loop should hold one and call
    /// [`sample_rooted_into`](Self::sample_rooted_into).
    pub fn sample_rooted<R: Rng + ?Sized>(&self, cid: CommunityId, rng: &mut R) -> RicSample {
        let mut buf = SampleBuf::default();
        self.sample_rooted_into(cid, rng, &mut buf);
        buf.to_sample()
    }

    /// [`sample_rooted`](Self::sample_rooted) into a reusable buffer. The
    /// RNG is consumed only by the community draw (in
    /// [`sample_into`](Self::sample_into)) and the phase-1 live-edge BFS,
    /// so the buffered and owning paths draw identical streams.
    pub fn sample_rooted_into<R: Rng + ?Sized>(
        &self,
        cid: CommunityId,
        rng: &mut R,
        buf: &mut SampleBuf,
    ) {
        let community = self.communities.get(cid);
        buf.community = cid;
        buf.threshold = community.threshold;
        buf.width = community.members.len() as u32;

        // --- Phase 1: multi-source backward live-edge BFS. ---
        // `buf.order` is the queue and `head` its cursor; the node at
        // position `head` has local id `head`, so its live in-edges land
        // in `live_adj` as the next CSR row.
        buf.begin_draw(self.graph.node_count(), self.coins.widest);
        for &m in &community.members {
            buf.intern(m);
        }
        let mut head = 0;
        while head < buf.order.len() {
            let u = buf.order[head];
            let lu = head as u32;
            head += 1;
            buf.live_off.push(buf.live_adj.len());
            match self.model {
                // IC: each in-edge of u is examined exactly once (u is
                // dequeued once), so this coin is the edge's single
                // liveness draw. A row of coins only is flipped whole
                // first, then its live sources are interned in row order
                // — the same draws and the same local ids.
                LiveEdgeModel::IndependentCascade if self.coins.coined[u.index()] => {
                    let (sources, thresholds) = self.coins.row(u);
                    let live = flip_coins(sources, thresholds, rng, &mut buf.kept);
                    for i in 0..live {
                        buf.push_live(NodeId::new(buf.kept[i]), lu);
                    }
                }
                LiveEdgeModel::IndependentCascade => {
                    for e in self.graph.in_edges(u) {
                        let live = if e.weight >= 1.0 {
                            true
                        } else if e.weight <= 0.0 {
                            false
                        } else {
                            rng.random::<f64>() < e.weight
                        };
                        if live {
                            buf.push_live(e.source, lu);
                        }
                    }
                }
                // LT: u keeps at most one live in-edge, categorically by
                // weight (live-edge form of the Linear Threshold model).
                LiveEdgeModel::LinearThreshold => {
                    let x: f64 = rng.random();
                    let mut acc = 0.0f64;
                    for e in self.graph.in_edges(u) {
                        acc += e.weight;
                        if x < acc {
                            buf.push_live(e.source, lu);
                            break;
                        }
                    }
                }
            }
        }
        buf.live_off.push(buf.live_adj.len());

        // --- Phase 2: which members each node reaches -> cover bitsets. ---
        buf.propagate_covers();

        // --- Phase 3: ascending node id for binary-searchable lookup. ---
        buf.emit();

        families::RIC_SAMPLES.handle().inc();
        families::RIC_SAMPLE_WIDTH
            .handle()
            .observe(buf.nodes.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kernels, RicSamples, RicStore};
    use imc_graph::GraphBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::collections::{HashMap, VecDeque};

    /// The oracle: Alg. 1 as the paper writes it — a hash-interned
    /// backward BFS, then one DFS **per community member** over the live
    /// in-edges, then a sort. This was `sample_rooted_into`'s body until
    /// the scratch-and-propagation rewrite; it consumes the RNG exactly as
    /// the sampler must. Returns `(nodes, cover_words)` in output order.
    fn per_member_walk<R: Rng + ?Sized>(
        sampler: &RicSampler<'_>,
        cid: CommunityId,
        rng: &mut R,
    ) -> (Vec<NodeId>, Vec<u64>) {
        let members = &sampler.communities.get(cid).members;
        let width = members.len();

        let mut local: HashMap<NodeId, u32> = HashMap::new();
        let mut nodes: Vec<NodeId> = Vec::new();
        // live_in[l(u)] = local ids v with a live edge (v -> u).
        let mut live_in: Vec<Vec<u32>> = Vec::new();
        let mut queue: VecDeque<NodeId> = VecDeque::new();

        fn intern(
            v: NodeId,
            local: &mut HashMap<NodeId, u32>,
            nodes: &mut Vec<NodeId>,
            live_in: &mut Vec<Vec<u32>>,
        ) -> (u32, bool) {
            if let Some(&l) = local.get(&v) {
                (l, false)
            } else {
                let l = nodes.len() as u32;
                local.insert(v, l);
                nodes.push(v);
                live_in.push(Vec::new());
                (l, true)
            }
        }

        for &m in members {
            intern(m, &mut local, &mut nodes, &mut live_in);
            queue.push_back(m);
        }
        while let Some(u) = queue.pop_front() {
            let lu = local[&u];
            match sampler.model {
                LiveEdgeModel::IndependentCascade => {
                    for e in sampler.graph.in_edges(u) {
                        let live = if e.weight >= 1.0 {
                            true
                        } else if e.weight <= 0.0 {
                            false
                        } else {
                            rng.random::<f64>() < e.weight
                        };
                        if live {
                            let (lv, fresh) =
                                intern(e.source, &mut local, &mut nodes, &mut live_in);
                            live_in[lu as usize].push(lv);
                            if fresh {
                                queue.push_back(e.source);
                            }
                        }
                    }
                }
                LiveEdgeModel::LinearThreshold => {
                    let x: f64 = rng.random();
                    let mut acc = 0.0f64;
                    for e in sampler.graph.in_edges(u) {
                        acc += e.weight;
                        if x < acc {
                            let (lv, fresh) =
                                intern(e.source, &mut local, &mut nodes, &mut live_in);
                            live_in[lu as usize].push(lv);
                            if fresh {
                                queue.push_back(e.source);
                            }
                            break;
                        }
                    }
                }
            }
        }

        let limbs = width.div_ceil(64).max(1);
        let mut raw_words = vec![0u64; nodes.len() * limbs];
        let mut seen = vec![u32::MAX; nodes.len()]; // stamp = member index
        let mut stack: Vec<u32> = Vec::new();
        for (mi, &m) in members.iter().enumerate() {
            let lm = local[&m];
            stack.push(lm);
            seen[lm as usize] = mi as u32;
            while let Some(l) = stack.pop() {
                raw_words[l as usize * limbs + mi / 64] |= 1u64 << (mi % 64);
                for &p in &live_in[l as usize] {
                    if seen[p as usize] != mi as u32 {
                        seen[p as usize] = mi as u32;
                        stack.push(p);
                    }
                }
            }
        }

        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by_key(|&i| nodes[i]);
        let sorted = order.iter().map(|&i| nodes[i]).collect();
        let mut words = Vec::with_capacity(raw_words.len());
        for &i in &order {
            words.extend_from_slice(&raw_words[i * limbs..(i + 1) * limbs]);
        }
        (sorted, words)
    }

    /// A random digraph on `n` nodes whose community 0 has `width` random
    /// members and a threshold in `1..=width + 1`; the other nodes form
    /// 8-member communities. Weights come from `{0, (0, 1), 1}`, and a
    /// clique of certain edges is planted, so dead edges, certain edges,
    /// cycles and dense strongly-connected cores all occur.
    fn random_instance(n: usize, width: usize, rng: &mut StdRng) -> (Graph, CommunitySet) {
        let mut b = GraphBuilder::new(n as u32);
        let mut ids: Vec<u32> = (0..n as u32).collect();
        ids.shuffle(rng);
        let mut add = |u: u32, v: u32, w: f64| {
            if u != v {
                b.add_edge(u, v, w).unwrap();
            }
        };
        for _ in 0..rng.random_range(0..=4 * n) {
            let w = match rng.random_range(0..5u32) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.random::<f64>(),
            };
            add(
                rng.random_range(0..n as u32),
                rng.random_range(0..n as u32),
                w,
            );
        }
        let clique = &ids[..rng.random_range(0..=n.min(10))];
        for &u in clique {
            for &v in clique {
                add(u, v, 1.0);
            }
        }
        let graph = b.build().unwrap();

        ids.shuffle(rng);
        let node = |&v: &u32| NodeId::new(v);
        let threshold = rng.random_range(1..=width as u32 + 1);
        let mut parts = vec![(ids[..width].iter().map(node).collect(), threshold, 3.0)];
        for rest in ids[width..].chunks(8) {
            parts.push((rest.iter().map(node).collect(), 2, 1.0));
        }
        let communities = CommunitySet::from_parts(n as u32, parts).unwrap();
        (graph, communities)
    }

    /// A live graph whose covers the sweeps settle only after `len`
    /// sweeps (2 when `len` is 1). Members 0 and 1 form community 0; every
    /// node of the chain `2 → 3 → … → len + 1` has a certain edge into
    /// member 0, and the chain's last node one into member 1. Member 0's
    /// in-edges give the chain ascending local ids, so member 1's bit
    /// travels the chain against the sweep order, one node a sweep.
    fn back_chain(len: usize, threshold: u32) -> (Graph, CommunitySet) {
        let last = len as u32 + 1;
        let mut b = GraphBuilder::new(last + 1);
        for v in 2..=last {
            b.add_edge(v, 0, 1.0).unwrap();
            if v < last {
                b.add_edge(v, v + 1, 1.0).unwrap();
            }
        }
        b.add_edge(last, 1, 1.0).unwrap();
        let members = vec![NodeId::new(0), NodeId::new(1)];
        let communities = CommunitySet::from_parts(last + 1, vec![(members, threshold, 3.0)]);
        (b.build().unwrap(), communities.unwrap())
    }

    /// How many sweeps the buffered draw's covers take to settle from the
    /// member bits, with no cap: more than [`COVER_SWEEPS`] means the draw
    /// went to the worklist.
    fn sweeps_to_settle(buf: &SampleBuf) -> usize {
        let limbs = limbs_for_width(buf.width);
        let mut words = vec![0u64; buf.order.len() * limbs];
        for m in 0..buf.width as usize {
            words[m * limbs + m / 64] |= 1u64 << (m % 64);
        }
        (1..)
            .find(|_| sweep_covers(&mut words, limbs, &buf.live_adj, &buf.live_dst) == 0)
            .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The sampler equals the per-member walk bit for bit — metadata,
        /// nodes, covers and RNG consumption — under both live-edge
        /// models, at every limb count from 1 to 4, with one `SampleBuf`
        /// carried across draws and across samplers whose graphs differ in
        /// node count (the interning table is re-sized in between). The
        /// samplers cover every path of a draw: nodes mixing dead, certain
        /// and coin in-edges (the per-edge loop); the same graph under
        /// weighted cascade (coins only: the branch-free flip); and a back
        /// chain of `chain` nodes (past the sweep budget from 17 on: the
        /// worklist).
        #[test]
        fn sampler_equals_the_per_member_walk(
            seed in 0u64..u64::MAX,
            width in prop_oneof![
                Just(1usize), Just(64), Just(65), Just(128), Just(129), 1usize..=200
            ],
            outside in 0usize..=100,
            other_n in 1usize..=300,
            model in prop_oneof![
                Just(LiveEdgeModel::IndependentCascade),
                Just(LiveEdgeModel::LinearThreshold)
            ],
            chain in 1usize..=32,
        ) {
            let n = width + outside;
            prop_assume!(other_n != n);
            let mut rng = StdRng::seed_from_u64(seed);
            let first = random_instance(n, width, &mut rng);
            let other_width = rng.random_range(1..=other_n.min(200));
            let second = random_instance(other_n, other_width, &mut rng);
            // Weighted cascade, `w(u, v) = 1/in-degree(v)`: every node of
            // in-degree ≥ 2 has coins only.
            let cascade = (
                first.0.reweighted(imc_graph::WeightModel::WeightedCascade),
                first.1.clone(),
            );
            let chained = back_chain(chain, rng.random_range(1..=3));
            let mut buf = SampleBuf::default();
            let mut rng_new = StdRng::seed_from_u64(seed ^ 0x5EED);
            let mut rng_old = rng_new.clone();
            for instance in [&first, &second, &cascade, &chained, &first] {
                let (graph, communities) = instance;
                let sampler = RicSampler::with_model(graph, communities, model);
                for draw in 0..6 {
                    // Even draws are rooted at the wide community, odd
                    // draws pick theirs from the benefit distribution.
                    let cid = if draw % 2 == 0 {
                        sampler.sample_rooted_into(CommunityId::new(0), &mut rng_new, &mut buf);
                        CommunityId::new(0)
                    } else {
                        sampler.sample_into(&mut rng_new, &mut buf);
                        sampler.sample_community(&mut rng_old)
                    };
                    let (nodes, words) = per_member_walk(&sampler, cid, &mut rng_old);
                    let community = communities.get(cid);
                    prop_assert_eq!(buf.community(), cid);
                    prop_assert_eq!(buf.threshold(), community.threshold);
                    prop_assert_eq!(buf.width() as usize, community.members.len());
                    prop_assert_eq!(buf.nodes(), &nodes[..]);
                    prop_assert_eq!(buf.cover_words(), &words[..]);
                    prop_assert_eq!(rng_new.random::<u64>(), rng_old.random::<u64>());
                    // (LT keeps one in-edge a node: no chain to walk.)
                    if std::ptr::eq(instance, &chained) && model == LiveEdgeModel::IndependentCascade {
                        prop_assert_eq!(sweeps_to_settle(&buf), chain.max(2));
                    }
                }
            }
        }
    }

    /// A `RngCore` whose every draw is one fixed word.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u32(&mut self) -> u32 {
            (self.0 >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for (b, s) in dest
                .iter_mut()
                .zip(self.0.to_le_bytes().into_iter().cycle())
            {
                *b = s;
            }
        }
    }

    /// The integer coin is the float coin: [`flip_coins`] over
    /// [`coin_threshold`]s keeps an edge exactly when `random::<f64>() < w`
    /// would, on both sides of every threshold at the edge cases of `w`,
    /// and draw for draw on random streams. It goes through the vendored
    /// `random::<f64>()`, so a change to how that builds its float fails
    /// here instead of re-drawing every collection.
    #[test]
    fn integer_coins_equal_the_float_draw() {
        let ulp = 1.0 / COIN_SCALE; // 2⁻⁵³
        let float_coin = |m: u64, w: f64| Fixed(m << 11).random::<f64>() < w;
        let integer_coin = |m: u64, w: f64| {
            flip_coins(&[7], &[coin_threshold(w)], &mut Fixed(m << 11), &mut [0]) == 1
        };
        let mut rng = StdRng::seed_from_u64(17);
        let mut weights = vec![
            f64::from_bits(1), // the smallest subnormal
            f64::MIN_POSITIVE / 3.0,
            ulp,
            2.0 * ulp,
            12_345.0 * ulp,
            0.1,
            1.0 / 3.0,
            0.5,
            1.0 - 2.0 * ulp,
            1.0 - ulp,
        ];
        weights.extend(
            (0..10_000)
                .map(|_| rng.random::<f64>())
                .filter(|&w| w > 0.0),
        );
        for w in weights {
            let t = coin_threshold(w);
            assert!((1..=1 << 53).contains(&t), "w = {w:e}: threshold {t}");
            for m in [0, 1, t - 1, t, t + 1, (1 << 53) - 1] {
                if m < 1 << 53 {
                    assert_eq!(integer_coin(m, w), float_coin(m, w), "w = {w:e}, m = {m}");
                }
            }
        }
        // Rows of 1–40 random coins: the same survivors, in row order,
        // and the two streams in step after every row.
        let mut kept = [0u32; 40];
        for _ in 0..10_000 {
            let len = rng.random_range(1..=40usize);
            let weights: Vec<f64> = (0..len).map(|_| rng.random::<f64>().max(ulp)).collect();
            let thresholds: Vec<u64> = weights.iter().map(|&w| coin_threshold(w)).collect();
            let sources: Vec<u32> = (0..len as u32).collect();
            let mut float = rng.clone();
            let live = flip_coins(&sources, &thresholds, &mut rng, &mut kept);
            let expected: Vec<u32> = sources
                .iter()
                .filter(|&&e| float.random::<f64>() < weights[e as usize])
                .copied()
                .collect();
            assert_eq!(kept[..live], expected[..]);
            assert_eq!(rng.next_u64(), float.next_u64());
        }
    }

    #[test]
    fn a_back_chain_past_the_sweep_budget_goes_to_the_worklist() {
        // 16 settles on the last sweep; 17 and 48 go to the worklist.
        for len in [COVER_SWEEPS, COVER_SWEEPS + 1, 3 * COVER_SWEEPS] {
            let (graph, communities) = back_chain(len, 2);
            let sampler = RicSampler::new(&graph, &communities);
            let mut buf = SampleBuf::default();
            let mut rng = StdRng::seed_from_u64(5);
            sampler.sample_rooted_into(CommunityId::new(0), &mut rng, &mut buf);
            assert_eq!(sweeps_to_settle(&buf), len);
            // Every chain node reaches both members.
            assert_eq!(buf.len(), len + 2);
            for (i, &v) in buf.nodes().iter().enumerate() {
                let expected = if v.raw() < 2 { 1 << v.raw() } else { 0b11 };
                assert_eq!(buf.cover_words()[i], expected, "node {v:?}");
            }
            let (nodes, words) =
                per_member_walk(&sampler, CommunityId::new(0), &mut StdRng::seed_from_u64(5));
            assert_eq!((buf.nodes(), buf.cover_words()), (&nodes[..], &words[..]));
        }
    }

    /// A drawn sample as a one-sample store of a `node_count`-node graph —
    /// where its covers are read and its influence counted.
    fn one_sample_store(s: &RicSample, node_count: usize) -> RicStore {
        RicStore::from_samples(node_count, s.community.index() + 1, 1.0, [s]).unwrap()
    }

    /// The cover of `v` in a one-sample store's only sample.
    fn cover(store: &RicStore, v: u32) -> &[u64] {
        store.view(0).cover_of(NodeId::new(v)).unwrap()
    }

    /// Whether `v` is in the drawn sample `s`.
    fn touches(s: &RicSample, v: u32) -> bool {
        s.nodes.binary_search(&NodeId::new(v)).is_ok()
    }

    fn single_community(node_count: u32, members: &[u32], h: u32) -> CommunitySet {
        CommunitySet::from_parts(
            node_count,
            vec![(members.iter().map(|&v| NodeId::new(v)).collect(), h, 1.0)],
        )
        .unwrap()
    }

    #[test]
    fn members_always_in_sample_covering_themselves() {
        let g = GraphBuilder::new(5).build().unwrap();
        let cs = single_community(5, &[1, 3], 2);
        let sampler = RicSampler::new(&g, &cs);
        let mut rng = StdRng::seed_from_u64(1);
        let s = sampler.sample(&mut rng);
        assert_eq!(s.nodes, vec![NodeId::new(1), NodeId::new(3)]);
        let store = one_sample_store(&s, 5);
        assert_eq!(kernels::count_ones(cover(&store, 1)), 1);
        assert_eq!(cover(&store, 1)[0] & 1, 1); // member index 0
        assert_eq!(cover(&store, 3)[0] >> 1 & 1, 1);
    }

    #[test]
    fn deterministic_edges_included_with_transitive_covers() {
        // 4 -> 0 -> 1(member), 0 -> 2(member), certainty edges.
        let mut b = GraphBuilder::new(5);
        b.add_edge(4, 0, 1.0).unwrap();
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(0, 2, 1.0).unwrap();
        let g = b.build().unwrap();
        let cs = single_community(5, &[1, 2], 2);
        let sampler = RicSampler::new(&g, &cs);
        let mut rng = StdRng::seed_from_u64(3);
        let s = sampler.sample(&mut rng);
        // Sample contains 0, 1, 2, 4 (3 touches nothing).
        assert_eq!(
            s.nodes,
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(4)
            ]
        );
        // Node 0 and node 4 reach both members.
        let store = one_sample_store(&s, 5);
        assert_eq!(kernels::count_ones(cover(&store, 0)), 2);
        assert_eq!(kernels::count_ones(cover(&store, 4)), 2);
        assert_eq!(store.influenced_count(&[NodeId::new(4)]), 1);
        assert_eq!(store.influenced_count(&[NodeId::new(1)]), 0);
    }

    #[test]
    fn zero_weight_edges_never_live() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.0).unwrap();
        let g = b.build().unwrap();
        let cs = single_community(3, &[1], 1);
        let sampler = RicSampler::new(&g, &cs);
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = sampler.sample(&mut rng);
            assert_eq!(s.nodes, vec![NodeId::new(1)]);
        }
    }

    #[test]
    fn edge_liveness_rate_matches_weight() {
        // 0 -> 1 (member) with p = 0.4: node 0 appears in ≈40% of samples.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.4).unwrap();
        let g = b.build().unwrap();
        let cs = single_community(2, &[1], 1);
        let sampler = RicSampler::new(&g, &cs);
        let mut rng = StdRng::seed_from_u64(5);
        let runs = 20_000;
        let mut hits = 0;
        for _ in 0..runs {
            hits += usize::from(touches(&sampler.sample(&mut rng), 0));
        }
        let rate = hits as f64 / runs as f64;
        assert!((rate - 0.4).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn community_selection_follows_benefit_distribution() {
        let g = GraphBuilder::new(4).build().unwrap();
        let cs = CommunitySet::from_parts(
            4,
            vec![
                (vec![NodeId::new(0)], 1, 3.0), // ρ = 0.75
                (vec![NodeId::new(1)], 1, 1.0), // ρ = 0.25
            ],
        )
        .unwrap();
        let sampler = RicSampler::new(&g, &cs);
        let mut rng = StdRng::seed_from_u64(9);
        let runs = 20_000;
        let mut first = 0;
        for _ in 0..runs {
            if sampler.sample_community(&mut rng) == CommunityId::new(0) {
                first += 1;
            }
        }
        let rate = first as f64 / runs as f64;
        assert!((rate - 0.75).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn diamond_covers_are_not_double_counted() {
        // 0 -> 1 -> 3(member), 0 -> 2 -> 3: one member reached through two
        // paths still sets exactly one bit.
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let cs = single_community(4, &[3], 1);
        let sampler = RicSampler::new(&g, &cs);
        let mut rng = StdRng::seed_from_u64(2);
        let s = sampler.sample(&mut rng);
        let store = one_sample_store(&s, 4);
        assert_eq!(kernels::count_ones(cover(&store, 0)), 1);
    }

    #[test]
    fn cycle_in_live_graph_terminates() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 0, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        let g = b.build().unwrap();
        let cs = single_community(3, &[2], 1);
        let sampler = RicSampler::new(&g, &cs);
        let mut rng = StdRng::seed_from_u64(4);
        let s = sampler.sample(&mut rng);
        assert_eq!(s.nodes.len(), 3);
        let store = one_sample_store(&s, 3);
        for v in 0..3u32 {
            assert_eq!(store.influenced_count(&[NodeId::new(v)]), 1);
        }
    }

    #[test]
    fn sample_probability_equals_ic_activation_probability() {
        // Unbiasedness (Lemma 1, single community, h = 1): the probability
        // that seed u touches the sample equals the probability that IC
        // from {u} activates the member.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.6).unwrap();
        let g = b.build().unwrap();
        let cs = single_community(3, &[2], 1);
        let sampler = RicSampler::new(&g, &cs);
        let mut rng = StdRng::seed_from_u64(6);
        let runs = 40_000;
        let mut hits = 0;
        for _ in 0..runs {
            hits += usize::from(touches(&sampler.sample(&mut rng), 0));
        }
        let rate = hits as f64 / runs as f64;
        assert!((rate - 0.3).abs() < 0.015, "rate={rate} expected 0.3");
    }

    #[test]
    fn lt_sampler_keeps_at_most_one_live_in_edge() {
        // Member 2 has two in-edges of weight 0.4 each; under LT at most
        // one of {0, 1} can ever appear in a sample.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2, 0.4).unwrap();
        b.add_edge(1, 2, 0.4).unwrap();
        let g = b.build().unwrap();
        let cs = single_community(3, &[2], 1);
        let sampler = RicSampler::with_model(&g, &cs, LiveEdgeModel::LinearThreshold);
        let mut rng = StdRng::seed_from_u64(8);
        let mut saw_zero = 0usize;
        let mut saw_one = 0usize;
        let runs = 10_000;
        for _ in 0..runs {
            let s = sampler.sample(&mut rng);
            let has0 = touches(&s, 0);
            let has1 = touches(&s, 1);
            assert!(!(has0 && has1), "LT sample kept two live in-edges");
            saw_zero += usize::from(has0);
            saw_one += usize::from(has1);
        }
        // Each selected with probability 0.4.
        let r0 = saw_zero as f64 / runs as f64;
        let r1 = saw_one as f64 / runs as f64;
        assert!((r0 - 0.4).abs() < 0.03, "r0={r0}");
        assert!((r1 - 0.4).abs() < 0.03, "r1={r1}");
    }

    #[test]
    fn lt_ric_estimate_matches_forward_lt_simulation() {
        // Unbiasedness under LT: Pr[u touches sample] must equal the
        // probability LT activation from {u} influences the community.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.6).unwrap();
        let g = b.build().unwrap();
        let cs = single_community(3, &[2], 1);
        let sampler = RicSampler::with_model(&g, &cs, LiveEdgeModel::LinearThreshold);
        let mut rng = StdRng::seed_from_u64(10);
        let runs = 30_000;
        let mut hits = 0;
        for _ in 0..runs {
            hits += usize::from(touches(&sampler.sample(&mut rng), 0));
        }
        let ric_rate = hits as f64 / runs as f64;
        // Forward LT: node 1 activates iff θ₁ ≤ 0.5, then 2 iff θ₂ ≤ 0.6.
        let expected = 0.5 * 0.6;
        assert!(
            (ric_rate - expected).abs() < 0.02,
            "ric={ric_rate} lt={expected}"
        );
    }

    /// The 8-node, two-community instance of the buffered-path tests.
    fn two_community_instance() -> (Graph, CommunitySet) {
        let mut b = GraphBuilder::new(8);
        for (u, v, w) in [
            (0, 2, 0.7),
            (1, 2, 0.4),
            (3, 4, 0.9),
            (4, 5, 0.5),
            (6, 2, 0.3),
        ] {
            b.add_edge(u, v, w).unwrap();
        }
        let cs = CommunitySet::from_parts(
            8,
            vec![
                (vec![NodeId::new(2), NodeId::new(5)], 1, 2.0),
                (vec![NodeId::new(4)], 1, 1.0),
            ],
        )
        .unwrap();
        (b.build().unwrap(), cs)
    }

    #[test]
    fn sample_into_matches_owning_path_and_rng_stream() {
        // The second instance has a 300-member community: five cover
        // limbs, wider than any fixed-size union buffer.
        let wide = random_instance(400, 300, &mut StdRng::seed_from_u64(3));
        let mut outcomes = [0usize; 2];
        for (g, cs) in [two_community_instance(), wide] {
            let sampler = RicSampler::new(&g, &cs);
            let n = g.node_count() as u32;
            let mut rng_owned = StdRng::seed_from_u64(42);
            let mut rng_buf = StdRng::seed_from_u64(42);
            let mut rng_seeds = StdRng::seed_from_u64(43);
            let mut buf = SampleBuf::default();
            for _ in 0..200 {
                let owned = sampler.sample(&mut rng_owned);
                sampler.sample_into(&mut rng_buf, &mut buf);
                assert_eq!(buf.to_sample(), owned, "buffered draw diverged");
                assert_eq!(buf.len(), owned.nodes.len());
                assert_eq!(buf.is_empty(), owned.nodes.is_empty());
                let one = RicStore::from_samples(n as usize, cs.len(), 1.0, [&owned]).unwrap();
                // Seed sets of 0–5 ids, some of them beyond the graph: an
                // id the sampler has no slot for is just not in the sample.
                for _ in 0..8 {
                    let seeds: Vec<NodeId> = (0..rng_seeds.random_range(0..6u32))
                        .map(|_| NodeId::new(rng_seeds.random_range(0..n + 3)))
                        .collect();
                    let expected = one.sample_influenced(0, &seeds);
                    assert_eq!(buf.influenced_by(&seeds), expected, "seeds {seeds:?}");
                    outcomes[usize::from(expected)] += 1;
                }
                assert!(!buf.influenced_by(&[NodeId::new(n), NodeId::new(u32::MAX)]));
            }
        }
        assert!(outcomes[0] > 100 && outcomes[1] > 100, "{outcomes:?}");
    }

    #[test]
    fn epoch_wrap_equals_a_fresh_buffer() {
        // Three communities no draw of which reaches another's nodes, so
        // a stamp stays in the table until its own community is redrawn.
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        let g = b.build().unwrap();
        let node = NodeId::new;
        let cs = CommunitySet::from_parts(
            5,
            vec![
                (vec![node(0), node(1)], 1, 1.0),
                (vec![node(2), node(3)], 2, 1.0),
                (vec![node(4)], 1, 1.0),
            ],
        )
        .unwrap();
        let sampler = RicSampler::new(&g, &cs);
        let mut rng = StdRng::seed_from_u64(1);
        let root = CommunityId::new;

        // Leave stamp 1 on community 0 and stamp 2 on community 1, then
        // put the counter two draws before the wrap: the draws that re-use
        // stamps 1 and 2 must not read those entries as their own.
        let mut used = SampleBuf::default();
        sampler.sample_rooted_into(root(0), &mut rng, &mut used);
        sampler.sample_rooted_into(root(1), &mut rng, &mut used);
        used.epoch = u32::MAX - 1;
        let mut fresh = SampleBuf::default();
        for (cid, stamp) in [(root(2), u32::MAX), (root(0), 1), (root(1), 2)] {
            sampler.sample_rooted_into(cid, &mut rng, &mut used);
            sampler.sample_rooted_into(cid, &mut rng, &mut fresh);
            assert_eq!(used.epoch, stamp);
            assert_eq!(used.to_sample(), fresh.to_sample());
            for v in 0..5 {
                assert_eq!(
                    used.influenced_by(&[node(v)]),
                    fresh.influenced_by(&[node(v)])
                );
            }
        }
    }

    #[test]
    fn default_model_is_ic() {
        let g = GraphBuilder::new(2).build().unwrap();
        let cs = single_community(2, &[1], 1);
        let sampler = RicSampler::new(&g, &cs);
        assert_eq!(sampler.model(), LiveEdgeModel::IndependentCascade);
    }

    #[test]
    #[should_panic(expected = "zero communities")]
    fn empty_communities_panics() {
        let g = GraphBuilder::new(2).build().unwrap();
        let cs = CommunitySet::from_parts(2, vec![]).unwrap();
        let _ = RicSampler::new(&g, &cs);
    }
}
