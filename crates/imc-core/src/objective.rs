use crate::kernels::{self, with_row_width, RowWidth};
use crate::samples::{limbs_for_width, RicSamples};
use crate::RicStore;
use imc_graph::NodeId;
use imc_obs::families;
use std::sync::OnceLock;

/// One in Q32 fixed point: the `ν_R` term of a sample whose threshold is
/// met.
pub const NU_ONE: u64 = 1 << 32;

/// Most samples a collection may hold for sums of [`nu_term`]s to stay
/// below `2⁶³` — exact in a `u64` and in the JSON integers the shard
/// protocol carries them as. [`CoverageState::new`] checks it (the IMCAF
/// sample cap is `2²⁰`).
pub const NU_MAX_SAMPLES: usize = 1 << 31;

/// The `ν_R` term (eq. 7) of one sample with `count` covered members and
/// threshold `h ≥ 1`, in Q32 fixed point:
/// `q(c, h) = min(c · ⌈2³²/h⌉, 2³²)`.
///
/// This is the only ν arithmetic in the tree. It is
///
/// * **exact** (`= min(c/h, 1)·2³²`) whenever `c ≥ h` or `h` is a power of
///   two, and otherwise above `c/h·2³²` by less than `c` — under `2⁻³²`
///   relative per covered member, so a reported `ν_R` exceeds eq. 7 by at
///   most `h_max·2⁻³²` relative (`3·10⁻⁸` at the 128 threshold cap);
/// * **concave and non-decreasing in `c`** (a linear function capped by a
///   constant), so Lemma 3's submodularity holds in integer arithmetic
///   with no rounding caveat;
/// * **at least `2³²·[c ≥ h]`**, ĉ_R's indicator, so `ν_R ≥ ĉ_R` holds
///   with no epsilon;
///
/// and, being an integer, **additive** over samples, shards and commit
/// order: partial sums of any split of a collection, added in any order,
/// equal the whole. No product overflows (`c < 2³²`, `⌈2³²/h⌉ ≤ 2³²`);
/// sums need fewer than [`NU_MAX_SAMPLES`] samples.
#[inline]
pub fn nu_term(count: u32, h: u32) -> u64 {
    NuUnit::of(h).term(count)
}

/// `⌈2³²/h⌉` — what one covered member of a threshold-`h` sample is worth
/// in [`nu_term`]; the division is hoisted here for loops over one
/// sample's rows.
#[derive(Clone, Copy)]
struct NuUnit(u64);

impl NuUnit {
    /// `⌈2³²/h⌉ = ⌊(2³² − 1)/h⌋ + 1` for every `h ≥ 1`, which is a 32-bit
    /// division (several times cheaper than the 64-bit one).
    #[inline]
    fn of(h: u32) -> Self {
        NuUnit(u64::from(u32::MAX / h) + 1)
    }

    /// `min(count · unit, 2³²)`, in arithmetic: written as a `min`, the
    /// cap compiles to a branch inside the gain tables' row loops at
    /// `x86-64-v2`, which no predictor gets right, and the ν table sweep
    /// ran slower than in the baseline x86-64 build (docs/KERNELS.md,
    /// *The x86-64-v2 baseline*).
    #[inline]
    fn term(self, count: u32) -> u64 {
        let product = u64::from(count) * self.0;
        // 1 iff `product ≥ 2³²`: `product >> 32` is below 2³².
        let over = ((product >> 32) + u64::from(u32::MAX)) >> 32;
        product - product.wrapping_sub(NU_ONE) * over
    }
}

/// A Q32 numerator as the number it stands for — the one place a ν
/// quantity becomes an `f64`.
pub fn nu_fraction(numerator: u64) -> f64 {
    numerator as f64 / NU_ONE as f64
}

/// `ν_R` (eq. 7) from the numerator `Σ_g q(|I_g|, h_g)` over `samples`
/// samples: one formula, so every reporter (state, store, view, daemon,
/// coordinator) prints the same bits. 0 over an empty collection.
pub fn nu_value(total_benefit: f64, numerator: u64, samples: usize) -> f64 {
    if samples == 0 {
        return 0.0;
    }
    total_benefit * nu_fraction(numerator) / samples as f64
}

/// Incremental evaluator of the MAXR objectives over any [`RicSamples`]
/// implementer ([`RicStore`] or
/// [`RicStoreView`](crate::snapshot::RicStoreView)).
///
/// Maintains, per sample, the union of cover sets of the seeds added so
/// far — stored as one flat `u64` buffer with per-sample offsets. Both
/// greedy solvers drive it:
///
/// * the ĉ_R gain — how many *additional* samples become influenced if `v`
///   is added (**not** submodular, so a gain cached from an earlier round
///   bounds nothing): [`eval_c_shard`];
/// * the ν_R gain — the increase of `Σ_g q(|I_g|, h_g)` ([`nu_term`], the
///   Q32 numerator of eq. 7; submodular by Lemma 3): [`eval_nu_shard`].
///
/// Each is answered from a per-node table that the objective's first
/// evaluation builds with one sample-major sweep and
/// [`add_seed`](Self::add_seed) keeps exact — see `docs/KERNELS.md`,
/// *Incremental ĉ gain tables* and *Incremental ν gain tables*. The index
/// walks [`marginal_influenced`](Self::marginal_influenced) and [`marginal_fraction`](Self::marginal_fraction) compute the same
/// numbers from scratch and are the oracles the tables are tested against.
///
/// A state that is never asked for an objective's gain (whole-set scoring,
/// estimates, the other objective's greedy) neither builds nor maintains
/// that objective's table.
///
/// The backend is held *by value*: pass `&collection` for the usual
/// borrowed use (blanket `RicSamples` impls cover `&T` and `Arc<T>`), or
/// an owned `Arc<RicStore>` when the state must be self-contained — e.g.
/// a cluster shard session that outlives the request that pinned the
/// store.
///
/// [`eval_c_shard`]: Self::eval_c_shard
/// [`eval_nu_shard`]: Self::eval_nu_shard
#[derive(Debug, Clone)]
pub struct CoverageState<C: RicSamples = RicStore> {
    collection: C,
    union_offsets: Vec<usize>,
    union_words: Vec<u64>,
    counts: Vec<u32>,
    influenced: Vec<bool>,
    influenced_count: usize,
    seeds: Vec<NodeId>,
    /// Built by the first ĉ evaluation, from whatever unions the state
    /// holds then; exact for the current seed set ever after.
    tables: OnceLock<GainTables>,
    /// Likewise for the first ν evaluation.
    nu_table: OnceLock<NuTable>,
}

/// The ĉ_R answer for every node under the current seed set `S`, over the
/// samples `g` that `S` has not influenced yet (`U_g` is the union of the
/// seeds' covers in `g`):
///
/// `gain[v] = #{g : v ∈ g, |U_g ∪ cover_v(g)| ≥ h_g}`.
///
/// A sample's terms depend on `U_g` alone, so committing a seed can only
/// change them for the samples that seed touches.
#[derive(Debug, Clone)]
struct GainTables {
    gain: Vec<u32>,
}

impl GainTables {
    /// Adds (`open`) or removes the terms of one uninfluenced sample with
    /// union `union`.
    fn sweep<W: RowWidth>(&mut self, rows: SampleRows<'_, W>, union: W::Row<'_>, open: bool) {
        rows.for_each([union], |v, [count]| {
            let crosses = u32::from(count >= rows.h);
            let gain = &mut self.gain[v];
            *gain = if open {
                *gain + crosses
            } else {
                *gain - crosses
            };
        });
    }

    /// A still-uninfluenced sample's union grew from `old` to `new`: every
    /// node that crosses `h` with the new union but did not with the old
    /// one gains the sample.
    fn grow<'u, W: RowWidth>(&mut self, rows: SampleRows<'_, W>, old: W::Row<'u>, new: W::Row<'u>) {
        rows.for_each([old, new], |v, [before, after]| {
            self.gain[v] += u32::from((after >= rows.h) & (before < rows.h));
        });
    }
}

/// The ν_R answer for every node under the current seed set, over the
/// same uninfluenced samples (`|U_g| < h_g`; an influenced sample's term
/// is saturated and can gain nothing):
///
/// `gain[v] = Σ_{g ∋ v} q(|U_g ∪ cover_v(g)|, h_g) − q(|U_g|, h_g)`.
///
/// As for [`GainTables`], a sample's terms depend on `U_g` alone.
#[derive(Debug, Clone)]
struct NuTable {
    gain: Vec<u64>,
}

impl NuTable {
    /// Adds (`open`) or removes the terms of one uninfluenced sample:
    /// what each node would add to the sample's ν term under `union`.
    fn sweep<W: RowWidth>(&mut self, rows: SampleRows<'_, W>, union: W::Row<'_>, open: bool) {
        let unit = NuUnit::of(rows.h);
        let held = unit.term(rows.w.count_ones(union));
        rows.for_each([union], |v, [count]| {
            let term = unit.term(count) - held;
            let gain = &mut self.gain[v];
            *gain = if open { *gain + term } else { *gain - term };
        });
    }

    /// A still-uninfluenced sample's union grew from `old` to `new`: every
    /// node trades its term against the old union for the (never larger)
    /// one against the new, both read in one pass over its rows.
    fn grow<'u, W: RowWidth>(&mut self, rows: SampleRows<'_, W>, old: W::Row<'u>, new: W::Row<'u>) {
        let unit = NuUnit::of(rows.h);
        let [held_old, held_new] = [old, new].map(|union| unit.term(rows.w.count_ones(union)));
        rows.for_each([old, new], |v, [before, after]| {
            self.gain[v] -= (unit.term(before) - held_old) - (unit.term(after) - held_new);
        });
    }
}

/// One uninfluenced sample's contiguous node and cover rows and its
/// threshold, at the row width its passes are compiled for
/// ([`with_row_width!`] picks it per sample).
#[derive(Clone, Copy)]
struct SampleRows<'a, W> {
    w: W,
    nodes: &'a [NodeId],
    covers: &'a [u64],
    h: u32,
}

impl<W: RowWidth> SampleRows<'_, W> {
    /// The one row loop of both gain tables: `visit(v, counts)` for every
    /// node `v` of the sample, in node order, where `counts[i]` is
    /// `|unions[i] ∪ cover_v|` — one union to sweep a sample in or out,
    /// the old and the new one to grow it.
    #[inline(always)]
    fn for_each<const U: usize>(
        self,
        unions: [W::Row<'_>; U],
        mut visit: impl FnMut(usize, [u32; U]),
    ) {
        for (&v, cover) in self
            .nodes
            .iter()
            .zip(self.covers.chunks_exact(self.w.limbs()))
        {
            let cover = self.w.row(cover);
            visit(
                v.index(),
                unions.map(|union| self.w.union_count(union, cover)),
            );
        }
    }
}

/// How many index entries ahead of the one it is working on
/// [`CoverageState::add_seed`] prefetches. A constant, not a knob: 4 / 8 /
/// 16 / 32 / 64 ahead walk one benchmark-shaped score in 460 / 413 / 396 /
/// 391 / 408 µs on 2-limb covers and 316 / 310 / 290 / 297 / 301 µs on
/// 1-limb ones (700 and 475 µs without; `docs/KERNELS.md`).
const PREFETCH_AHEAD: usize = 16;

impl<C: RicSamples> CoverageState<C> {
    /// Fresh state with no seeds.
    pub fn new(collection: C) -> Self {
        let widths = collection.columns().widths;
        let mut union_offsets = Vec::with_capacity(widths.len() + 1);
        union_offsets.push(0usize);
        let mut end = 0;
        union_offsets.extend(widths.iter().map(|&width| {
            end += limbs_for_width(width);
            end
        }));
        let total_limbs = *union_offsets.last().unwrap_or(&0);
        let len = collection.len();
        assert!(
            len < NU_MAX_SAMPLES,
            "{len} samples: the Q32 ν numerator needs fewer than 2^31"
        );
        CoverageState {
            collection,
            union_offsets,
            union_words: vec![0u64; total_limbs],
            counts: vec![0; len],
            influenced: vec![false; len],
            influenced_count: 0,
            seeds: Vec::new(),
            tables: OnceLock::new(),
            nu_table: OnceLock::new(),
        }
    }

    /// The collection being evaluated.
    pub fn collection(&self) -> &C {
        &self.collection
    }

    /// Seeds added so far, in insertion order.
    pub fn seeds(&self) -> &[NodeId] {
        &self.seeds
    }

    /// Number of samples currently influenced.
    pub fn influenced_count(&self) -> usize {
        self.influenced_count
    }

    /// `|I_g(seeds)|` per sample — covered-member counts in sample order.
    pub fn covered_counts(&self) -> &[u32] {
        &self.counts
    }

    /// Current `ĉ_R(seeds)`.
    pub fn estimate(&self) -> f64 {
        if self.collection.is_empty() {
            return 0.0;
        }
        self.collection.total_benefit() * self.influenced_count as f64
            / self.collection.len() as f64
    }

    /// `Σ_g q(|I_g(seeds)|, h_g)` — the Q32 numerator of `ν_R(seeds)`
    /// (see [`nu_term`]). One pass over the covered counts, paid by
    /// whoever scores a whole seed set — not per index entry by every
    /// `add_seed`, most of whose callers (the greedy loops, `ĉ_R`
    /// estimates) never ask.
    pub fn nu_numerator(&self) -> u64 {
        // Neighbouring samples mostly share a threshold (all of them,
        // under a constant policy), so the unit's division is redone only
        // when it changes and the loop body stays branch-free.
        let mut unit_of = (1, NuUnit::of(1));
        let mut numerator = 0;
        for (&count, &h) in self.counts.iter().zip(self.collection.columns().thresholds) {
            if h != unit_of.0 {
                unit_of = (h, NuUnit::of(h));
            }
            numerator += unit_of.1.term(count);
        }
        numerator
    }

    /// Current `ν_R(seeds)`.
    pub fn nu_estimate(&self) -> f64 {
        nu_value(
            self.collection.total_benefit(),
            self.nu_numerator(),
            self.collection.len(),
        )
    }

    fn union_of(&self, si: usize) -> &[u64] {
        &self.union_words[self.union_offsets[si]..self.union_offsets[si + 1]]
    }

    /// Number of additional samples influenced if `v` were added, by
    /// walking `v`'s index entries — the oracle for
    /// [`eval_c_shard`](Self::eval_c_shard).
    pub fn marginal_influenced(&self, v: NodeId) -> usize {
        let mut gain = 0usize;
        for r in self.collection.touched_by(v) {
            let si = r.sample as usize;
            if self.influenced[si] {
                continue;
            }
            let cover = self.collection.cover_words(si, r.pos as usize);
            let union_count = kernels::union_count(self.union_of(si), cover);
            if union_count >= self.collection.sample_threshold(si) {
                gain += 1;
            }
        }
        gain
    }

    /// Batched ĉ_R evaluation: [`marginal_influenced`](Self::marginal_influenced)
    /// for every candidate of one gain batch, in slice order, read from
    /// the gain table.
    ///
    /// The first call on a state builds the table with one sample-major
    /// sweep of the arena (`O(index entries of uninfluenced samples)`);
    /// every later call is one array read per node, whatever seeds were
    /// committed in between (see `docs/KERNELS.md`, *Incremental ĉ gain
    /// tables*).
    pub fn eval_c_shard(&self, nodes: &[u32], out: &mut Vec<u64>) {
        let tables = self.tables.get_or_init(|| self.build_tables());
        out.extend(nodes.iter().map(|&v| u64::from(tables.gain[v as usize])));
    }

    /// Calls `sweep(nodes, covers, union, h)` for every uninfluenced
    /// sample — the sample-major pass that builds a gain table from the
    /// unions held right now — and books the entries swept.
    fn sweep_open_samples(&self, mut sweep: impl FnMut(&[NodeId], &[u64], &[u64], u32)) {
        let cols = self.collection.columns();
        let mut swept = 0;
        for si in (0..cols.len()).filter(|&si| !self.influenced[si]) {
            let nodes = cols.sample_nodes(si);
            sweep(
                nodes,
                cols.sample_words(si),
                self.union_of(si),
                cols.thresholds[si],
            );
            swept += nodes.len();
        }
        families::TABLE_ENTRIES_SWEPT.handle().inc_by(swept as u64);
    }

    fn build_tables(&self) -> GainTables {
        let mut tables = GainTables {
            gain: vec![0; self.collection.node_count()],
        };
        self.sweep_open_samples(|nodes, covers, union, h| {
            with_row_width!(union.len(), w => {
                tables.sweep(SampleRows { w, nodes, covers, h }, w.row(union), true);
            });
        });
        tables
    }

    fn build_nu_table(&self) -> NuTable {
        let mut table = NuTable {
            gain: vec![0; self.collection.node_count()],
        };
        self.sweep_open_samples(|nodes, covers, union, h| {
            with_row_width!(union.len(), w => {
                table.sweep(SampleRows { w, nodes, covers, h }, w.row(union), true);
            });
        });
        table
    }

    /// Batched ν_R evaluation: [`marginal_fraction`](Self::marginal_fraction)
    /// for every candidate of one gain batch, in slice order, read from
    /// the ν gain table.
    ///
    /// As for [`eval_c_shard`](Self::eval_c_shard): the first call on a
    /// state builds the table with one sample-major sweep, every later
    /// call is one array read per node (see `docs/KERNELS.md`,
    /// *Incremental ν gain tables*).
    pub fn eval_nu_shard(&self, nodes: &[u32], out: &mut Vec<u64>) {
        let table = self.nu_table.get_or_init(|| self.build_nu_table());
        out.extend(nodes.iter().map(|&v| table.gain[v as usize]));
    }

    /// Increase of the ν_R numerator `Σ_g q(|I_g|, h_g)` if `v` were
    /// added, by walking `v`'s index entries — the oracle for
    /// [`eval_nu_shard`](Self::eval_nu_shard).
    pub fn marginal_fraction(&self, v: NodeId) -> u64 {
        let mut gain = 0;
        for r in self.collection.touched_by(v) {
            let si = r.sample as usize;
            if self.influenced[si] {
                continue;
            }
            let unit = NuUnit::of(self.collection.sample_threshold(si));
            let cover = self.collection.cover_words(si, r.pos as usize);
            let union_count = kernels::union_count(self.union_of(si), cover);
            gain += unit.term(union_count) - unit.term(self.counts[si]);
        }
        gain
    }

    /// Adds `v` as a seed, updating all per-sample state. Adding a
    /// duplicate seed is a no-op for the objective (unions are idempotent)
    /// but still records the seed.
    ///
    /// Once a gain table exists this is also where evaluation is paid
    /// for: every sample `v` touches that was uninfluenced and whose union
    /// changed is swept once per table (its node and cover rows are
    /// contiguous), and no other sample's terms can have moved.
    pub fn add_seed(&mut self, v: NodeId) {
        let cols = self.collection.columns();
        let mut tables = self.tables.get_mut();
        let mut nu_table = self.nu_table.get_mut();
        let maintained = tables.is_some() || nu_table.is_some();
        // Where the `AnyLimbs` arm holds a sample's old union; the fixed
        // widths hold it in registers.
        let mut scratch = Vec::new();
        let mut swept = 0;
        let entries = cols.touched_by(v);
        for (i, r) in entries.iter().enumerate() {
            // Each entry is a dependent jump into the cover arena, far
            // larger than any cache: ask for a later entry's lines now, so
            // the misses overlap (`docs/KERNELS.md`, *Index walks prefetch
            // ahead*).
            if let Some(ahead) = entries.get(i + PREFETCH_AHEAD) {
                let sj = ahead.sample as usize;
                kernels::prefetch_read(cols.cover_words, cols.cover_start(sj, ahead.pos as usize));
                kernels::prefetch_read(&self.union_words, self.union_offsets[sj]);
                kernels::prefetch_read(&self.counts, sj);
            }
            let si = r.sample as usize;
            let cover = cols.cover_words(si, r.pos as usize);
            let h = cols.thresholds[si];
            let lo = self.union_offsets[si];
            let was_open = !self.influenced[si];
            with_row_width!(cover.len(), w => {
                let union = &mut self.union_words[lo..lo + w.limbs()];
                let old = (was_open && maintained).then(|| w.hold(union, &mut scratch));
                let count = w.or_assign_count(union, w.row(cover));
                // A union only gains bits, so it changed iff its popcount rose.
                let grew = count != self.counts[si];
                self.counts[si] = count;
                let closes = was_open && count >= h;
                if closes {
                    self.influenced[si] = true;
                    self.influenced_count += 1;
                }
                let Some(old) = old.filter(|_| grew) else {
                    continue;
                };
                let rows = SampleRows {
                    w,
                    nodes: cols.sample_nodes(si),
                    covers: cols.sample_words(si),
                    h,
                };
                let new = w.row(union);
                if let Some(tables) = tables.as_deref_mut() {
                    if closes {
                        tables.sweep(rows, old, false);
                    } else {
                        tables.grow(rows, old, new);
                    }
                    swept += rows.nodes.len();
                }
                if let Some(table) = nu_table.as_deref_mut() {
                    if closes {
                        table.sweep(rows, old, false);
                    } else {
                        table.grow(rows, old, new);
                    }
                    swept += rows.nodes.len();
                }
            });
        }
        if maintained {
            families::TABLE_ENTRIES_SWEPT.handle().inc_by(swept as u64);
        }
        self.seeds.push(v);
    }
}

/// `ĉ_R` counts of many whole seed sets: one
/// [`RicSamples::influenced_count`] per set.
///
/// Kept only for the benchmark's `objective.batched_evals_per_s` probe,
/// until that probe is re-pointed (ROADMAP item 6). New code calls
/// [`RicSamples::influenced_count`] or
/// [`Score::of`](crate::maxr::Score::of) directly. A seed id at or past
/// the collection's node count touches no sample and is skipped, as it is
/// by both of those.
///
/// ```
/// use imc_core::{CoverSet, CoverageEvaluator, RicSample, RicStore};
/// use imc_community::CommunityId;
/// use imc_graph::NodeId;
///
/// let mut cover = CoverSet::new(2);
/// cover.set(0);
/// let sample = RicSample {
///     community: CommunityId::new(0),
///     threshold: 1,
///     community_size: 2,
///     nodes: vec![NodeId::new(1)],
///     covers: vec![cover],
/// };
/// let store = RicStore::from_samples(4, 1, 1.0, [&sample]).unwrap();
/// let mut eval = CoverageEvaluator::new(&store);
/// let sets = [vec![NodeId::new(1)], vec![NodeId::new(2), NodeId::new(99)]];
/// assert_eq!(eval.influenced_counts(&sets), vec![1, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct CoverageEvaluator<C: RicSamples = RicStore> {
    collection: C,
}

impl<C: RicSamples> CoverageEvaluator<C> {
    /// An evaluator over `collection`.
    pub fn new(collection: C) -> Self {
        CoverageEvaluator { collection }
    }

    /// `result[i]` is the number of samples `sets[i]` influences.
    pub fn influenced_counts<S: AsRef<[NodeId]>>(&mut self, sets: &[S]) -> Vec<usize> {
        sets.iter()
            .map(|set| self.collection.influenced_count(set.as_ref()))
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::maxr::testutil::sample;
    use crate::samples::top_limb_mask;
    use crate::snapshot::{encode, SnapshotBytes};
    use crate::{CoverSet, RicSample};
    use imc_community::CommunityId;
    use proptest::prelude::*;

    fn build_collection() -> RicStore {
        let samples = [
            // Community 0, h = 2, members {a, b}: node 1 covers a, node 2
            // covers b, node 3 covers both.
            sample(0, 2, 2, &[(1, &[0]), (2, &[1]), (3, &[0, 1])]),
            // Community 1, h = 1: node 2 covers member 0.
            sample(1, 1, 2, &[(2, &[0])]),
        ];
        RicStore::from_samples(6, 2, 4.0, &samples).unwrap()
    }

    /// Snapshot bytes of `store`; a `RicStoreView` over them answers
    /// through the naive provided methods of `RicSamples`.
    pub(crate) fn snapshot_of(store: &RicStore) -> SnapshotBytes {
        SnapshotBytes::copy_from(&encode(store, 0, 0))
    }

    /// The three properties `nu_term` documents, for every `c`, `h` up
    /// to past the 128 threshold cap.
    #[test]
    fn nu_term_is_exact_or_barely_above_concave_and_dominates_the_indicator() {
        for h in 1u32..=130 {
            let mut step = u64::MAX;
            for c in 0u32..=140 {
                let q = nu_term(c, h);
                // q·h vs c·2³² compares q with c/h·2³² in integers.
                let (scaled, exact) = (q * u64::from(h), u64::from(c.min(h)) << 32);
                assert!(scaled >= exact && scaled - exact < u64::from(c.max(1) * h));
                if c >= h || h.is_power_of_two() {
                    assert_eq!(scaled, exact, "c={c} h={h}");
                }
                assert!(q >= NU_ONE * u64::from(c >= h) && q <= NU_ONE);
                let next = nu_term(c + 1, h) - q;
                assert!(next <= step, "not concave at c={c} h={h}");
                step = next;
            }
        }
        // The arithmetic cap is `min` wherever the product can fall,
        // `2⁶⁴ − 2³²` included.
        for h in [
            1,
            2,
            3,
            7,
            128,
            65_535,
            65_536,
            65_537,
            u32::MAX - 1,
            u32::MAX,
        ] {
            let unit = NuUnit::of(h).0;
            for c in [
                0,
                1,
                h / 2,
                h - 1,
                h,
                h.saturating_add(1),
                u32::MAX - 1,
                u32::MAX,
            ] {
                assert_eq!(
                    nu_term(c, h),
                    (u64::from(c) * unit).min(NU_ONE),
                    "c={c} h={h}"
                );
            }
        }
    }

    #[test]
    fn marginals_match_brute_force() {
        let col = build_collection();
        let snapshot = snapshot_of(&col);
        let naive = snapshot.view().unwrap();
        let mut st = CoverageState::new(&col);
        for v in [1u32, 2, 3, 4] {
            let v = NodeId::new(v);
            let brute = naive.influenced_count(&[v]);
            assert_eq!(st.marginal_influenced(v), brute, "node {v}");
        }
        st.add_seed(NodeId::new(1));
        // After seeding 1 (covers a in sample 0): adding 2 completes
        // sample 0 AND influences sample 1 → gain 2.
        assert_eq!(st.marginal_influenced(NodeId::new(2)), 2);
        assert_eq!(st.marginal_influenced(NodeId::new(3)), 1);
    }

    #[test]
    fn state_estimate_matches_collection_estimate() {
        let col = build_collection();
        let mut st = CoverageState::new(&col);
        st.add_seed(NodeId::new(2));
        st.add_seed(NodeId::new(1));
        let seeds = [NodeId::new(2), NodeId::new(1)];
        let snapshot = snapshot_of(&col);
        let naive = snapshot.view().unwrap();
        assert_eq!(st.estimate(), naive.estimate(&seeds));
        assert_eq!(st.nu_estimate(), naive.nu_estimate(&seeds));
        assert_eq!(st.influenced_count(), 2);
        assert_eq!(st.covered_counts(), &[2, 1]);
    }

    #[test]
    fn fraction_marginals_are_consistent() {
        let col = build_collection();
        let mut st = CoverageState::new(&col);
        // Node 3 covers both members of sample 0: fraction gain = 1.
        assert_eq!(st.marginal_fraction(NodeId::new(3)), NU_ONE);
        assert_eq!(st.marginal_fraction(NodeId::new(1)), NU_ONE / 2);
        st.add_seed(NodeId::new(1));
        // Remaining gain for 3 is only the missing half of sample 0.
        assert_eq!(st.marginal_fraction(NodeId::new(3)), NU_ONE / 2);
    }

    #[test]
    fn fraction_sum_never_exceeds_sample_count() {
        let col = build_collection();
        let mut st = CoverageState::new(&col);
        for v in [1u32, 2, 3] {
            st.add_seed(NodeId::new(v));
        }
        assert_eq!(st.nu_numerator(), 2 * NU_ONE);
        assert_eq!(st.nu_estimate(), col.total_benefit());
        assert_eq!(st.influenced_count(), 2);
    }

    #[test]
    fn duplicate_seed_is_idempotent_for_objective() {
        let col = build_collection();
        let mut st = CoverageState::new(&col);
        st.add_seed(NodeId::new(3));
        let before = st.estimate();
        st.add_seed(NodeId::new(3));
        assert_eq!(st.estimate(), before);
    }

    #[test]
    fn submodularity_of_fraction_gain() {
        // marginal_fraction must be non-increasing as seeds are added
        // (Lemma 3's submodularity), for every candidate.
        let col = build_collection();
        let mut st = CoverageState::new(&col);
        let candidates: Vec<NodeId> = (0..6).map(NodeId::new).collect();
        let before: Vec<u64> = candidates
            .iter()
            .map(|&v| st.marginal_fraction(v))
            .collect();
        st.add_seed(NodeId::new(2));
        for (i, &v) in candidates.iter().enumerate() {
            assert!(
                st.marginal_fraction(v) <= before[i],
                "gain increased for {v}"
            );
        }
    }

    /// ν gains and numerators are integers, so the partial answers of any
    /// split of the sample list, added in any order, are the whole
    /// collection's — what lets cluster shards answer concurrently.
    #[test]
    fn nu_partials_of_any_split_sum_to_the_whole() {
        let col = build_collection();
        let part = |keep: &[usize]| {
            let samples: Vec<RicSample> = keep.iter().map(|&si| col.view(si).to_sample()).collect();
            RicStore::from_samples(6, 2, 4.0, &samples).unwrap()
        };
        let all: Vec<u32> = (0..6).collect();
        for split in [[&[0][..], &[1][..]], [&[1], &[0]], [&[], &[0, 1]]] {
            let parts = split.map(part);
            let mut states = parts.each_ref().map(CoverageState::new);
            let mut full = CoverageState::new(&col);
            for seed in [1u32, 2] {
                let mut summed = vec![0u64; all.len()];
                for st in states.iter().rev() {
                    let mut gains = Vec::new();
                    st.eval_nu_shard(&all, &mut gains);
                    summed.iter_mut().zip(gains).for_each(|(t, g)| *t += g);
                }
                let mut whole = Vec::new();
                full.eval_nu_shard(&all, &mut whole);
                assert_eq!(summed, whole);
                states
                    .iter_mut()
                    .for_each(|st| st.add_seed(NodeId::new(seed)));
                full.add_seed(NodeId::new(seed));
                let numerator: u64 = states.iter().map(CoverageState::nu_numerator).sum();
                assert_eq!(numerator, full.nu_numerator());
            }
        }
    }

    #[test]
    fn shard_evaluators_match_scalar_methods() {
        let col = build_collection();
        let mut st = CoverageState::new(&col);
        st.add_seed(NodeId::new(1));
        let nodes: Vec<u32> = (0..6).collect();
        let mut c_out = Vec::new();
        st.eval_c_shard(&nodes, &mut c_out);
        let mut nu_out = Vec::new();
        st.eval_nu_shard(&nodes, &mut nu_out);
        for (i, &v) in nodes.iter().enumerate() {
            let v = NodeId::new(v);
            assert_eq!(c_out[i], st.marginal_influenced(v) as u64);
            assert_eq!(nu_out[i], st.marginal_fraction(v));
        }
    }

    /// The state is generic over `RicSamples`: it must track the same
    /// values over the zero-copy view as over the owned store.
    #[test]
    fn view_backend_tracks_identical_state() {
        let store = build_collection();
        let snapshot = snapshot_of(&store);
        let mut st_col = CoverageState::new(snapshot.view().unwrap());
        let mut st_store = CoverageState::new(&store);
        for v in (0..6).map(NodeId::new) {
            assert_eq!(
                st_col.marginal_influenced(v),
                st_store.marginal_influenced(v)
            );
            assert_eq!(st_col.marginal_fraction(v), st_store.marginal_fraction(v));
        }
        for v in [2u32, 1, 3] {
            st_col.add_seed(NodeId::new(v));
            st_store.add_seed(NodeId::new(v));
            assert_eq!(st_col.estimate(), st_store.estimate());
            assert_eq!(st_col.nu_estimate(), st_store.nu_estimate());
            assert_eq!(st_col.covered_counts(), st_store.covered_counts());
        }
    }

    /// A state builds a gain table only for an objective it is asked
    /// about, from the unions held by then, so the ν greedy never pays to
    /// maintain ĉ tables, nor the ĉ greedy a ν table, nor whole-set scoring
    /// either.
    #[test]
    fn tables_are_built_by_the_first_c_evaluation_only() {
        let col = build_collection();
        let mut st = CoverageState::new(&col);
        let nodes: Vec<u32> = (0..6).collect();
        let mut nu_out = Vec::new();
        assert!(st.nu_table.get().is_none());
        for seed in [1u32, 2] {
            st.eval_nu_shard(&nodes, &mut nu_out);
            st.add_seed(NodeId::new(seed));
            let _ = (st.estimate(), st.nu_estimate(), st.covered_counts());
            assert!(st.tables.get().is_none(), "ν-only state built ĉ tables");
        }
        assert!(st.clone().tables.get().is_none());
        let mut c_out = Vec::new();
        st.eval_c_shard(&nodes, &mut c_out);
        assert!(st.tables.get().is_some());
        // Seeds 1 and 2 influenced both samples: nothing is left to gain.
        assert_eq!(c_out, vec![0; 6]);

        let mut st = CoverageState::new(&col);
        st.eval_c_shard(&nodes, &mut c_out);
        st.add_seed(NodeId::new(1));
        let _ = (st.nu_estimate(), st.marginal_fraction(NodeId::new(3)));
        assert!(st.nu_table.get().is_none(), "ĉ-only state built a ν table");
    }

    /// Nodes `0..TOUCHING` may appear in samples; ids up to `NODES` exist
    /// but touch nothing.
    const TOUCHING: u32 = 12;
    pub(crate) const NODES: u32 = 14;

    /// A sample of width 1–200 (1–4 cover limbs) with 0–6 distinct nodes,
    /// covers about a quarter full, and a threshold anywhere from 1 to
    /// `width + 1` — the last can never be met.
    pub(crate) fn sample_strategy() -> impl Strategy<Value = RicSample> {
        sample_of_width(1u32..=200)
    }

    /// [`sample_strategy`] with the width drawn from `width`.
    pub(crate) fn sample_of_width(
        width: impl Strategy<Value = u32>,
    ) -> impl Strategy<Value = RicSample> {
        let word = (0u64..=u64::MAX, 0u64..=u64::MAX).prop_map(|(a, b)| a & b);
        let row = (0..TOUCHING, prop::collection::vec(word, 4));
        (width, 0u32..=200, prop::collection::vec(row, 0..7)).prop_map(|(width, t, mut rows)| {
            rows.sort_by_key(|r| r.0);
            rows.dedup_by_key(|r| r.0);
            let limbs = limbs_for_width(width);
            RicSample {
                community: CommunityId::new(0),
                threshold: 1 + t % (width + 1),
                community_size: width,
                nodes: rows.iter().map(|r| NodeId::new(r.0)).collect(),
                covers: rows
                    .iter()
                    .map(|(_, words)| {
                        let mut words = words[..limbs].to_vec();
                        words[limbs - 1] &= top_limb_mask(width);
                        CoverSet::from_words(width as usize, &words)
                    })
                    .collect(),
            }
        })
    }

    /// Every ĉ (`nu == false`) or ν table answer for `nodes` equals the
    /// index walk.
    fn assert_tables_equal_walk<C: RicSamples>(st: &CoverageState<C>, nodes: &[u32], nu: bool) {
        let (mut c_out, mut nu_out) = (Vec::new(), Vec::new());
        if nu {
            st.eval_nu_shard(nodes, &mut nu_out);
            assert_eq!(nu_out.len(), nodes.len());
        } else {
            st.eval_c_shard(nodes, &mut c_out);
            assert_eq!(c_out.len(), nodes.len());
        }
        for (i, &v) in nodes.iter().enumerate() {
            let v = NodeId::new(v);
            if nu {
                let walk = st.marginal_fraction(v);
                assert_eq!(nu_out[i], walk, "ν of {v} after seeds {:?}", st.seeds());
            } else {
                let walk = st.marginal_influenced(v) as u64;
                assert_eq!(c_out[i], walk, "ĉ of {v} after seeds {:?}", st.seeds());
            }
        }
    }

    /// A state under test plus the two ν invariants only integers can
    /// assert exactly: the gains of the committed picks telescope to the
    /// state's ν numerator, and no node's gain ever rises (Lemma 3).
    #[derive(Clone)]
    struct Driven<C: RicSamples> {
        st: CoverageState<C>,
        telescoped: u64,
        ceiling: Vec<u64>,
    }

    impl<C: RicSamples> Driven<C> {
        fn new(collection: C) -> Self {
            Driven {
                st: CoverageState::new(collection),
                telescoped: 0,
                ceiling: vec![u64::MAX; NODES as usize],
            }
        }

        /// ν gain of every node — from the table once the run is past its
        /// first evaluation (`built`), from the walk before, so checking
        /// never builds a table early.
        fn nu_gains(&self, built: bool) -> Vec<u64> {
            let all: Vec<u32> = (0..NODES).collect();
            let mut out = Vec::new();
            if built {
                self.st.eval_nu_shard(&all, &mut out);
            } else {
                out.extend(
                    all.iter()
                        .map(|&v| self.st.marginal_fraction(NodeId::new(v))),
                );
            }
            out
        }

        fn commit(&mut self, node: u32, built: bool) {
            self.telescoped += self.nu_gains(built)[node as usize];
            self.st.add_seed(NodeId::new(node));
            assert_eq!(self.telescoped, self.st.nu_numerator(), "seed {node}");
            let gains = self.nu_gains(built);
            for (v, (now, before)) in gains.iter().zip(&self.ceiling).enumerate() {
                assert!(now <= before, "ν gain of {v} rose on seed {node}");
            }
            self.ceiling = gains;
        }
    }

    /// Replays `ops` — `(kind, node, batch)`: commit `node` as a seed
    /// (kinds 0–1) or evaluate `batch` under ĉ (kind 2) or ν (kind 3) —
    /// checking every answer against the walk. Evaluations before op
    /// `first_eval` are skipped, so each table is built from whatever the
    /// seeds before its first evaluation left. At op `fork_at` the state
    /// is cloned; from then on the twin commits different seeds and
    /// answers the same batches.
    fn drive<C: RicSamples + Clone>(
        collection: C,
        saturate: bool,
        ops: &[(u32, u32, Vec<u32>)],
        first_eval: usize,
        fork_at: usize,
    ) {
        let mut run = Driven::new(collection);
        if saturate {
            // Everything that can be influenced is, before the build.
            (0..NODES).for_each(|v| run.commit(v, false));
        }
        let mut twin = None;
        for (i, (kind, node, batch)) in ops.iter().enumerate() {
            if i == fork_at {
                twin = Some(run.clone());
            }
            let built = i >= first_eval;
            if *kind < 2 {
                run.commit(*node, built);
                if let Some(twin) = &mut twin {
                    twin.commit((node + 1) % NODES, built);
                }
            } else if built {
                assert_tables_equal_walk(&run.st, batch, *kind == 3);
                if let Some(twin) = &twin {
                    assert_tables_equal_walk(&twin.st, batch, *kind == 3);
                }
            }
        }
        let all: Vec<u32> = (0..NODES).collect();
        for run in std::iter::once(&run).chain(&twin) {
            assert_tables_equal_walk(&run.st, &all, false);
            assert_tables_equal_walk(&run.st, &all, true);
        }
    }

    /// A collection of `limbs`-limb samples in which node 0 touches every
    /// sample — its index list is as long as the collection, around the
    /// prefetch distance — and every other node fewer.
    fn walk_collection() -> impl Strategy<Value = Vec<RicSample>> {
        const LENGTHS: [usize; 6] = [
            0,
            1,
            PREFETCH_AHEAD - 1,
            PREFETCH_AHEAD,
            PREFETCH_AHEAD + 1,
            3 * PREFETCH_AHEAD + 5,
        ];
        (1u32..=3, 0..LENGTHS.len()).prop_flat_map(|(limbs, which)| {
            let sample = sample_of_width(limbs * 64 - 63..=limbs * 64).prop_map(|mut sample| {
                if sample.nodes.first() != Some(&NodeId::new(0)) {
                    let mut cover = CoverSet::new(sample.community_size as usize);
                    cover.set(0);
                    sample.nodes.insert(0, NodeId::new(0));
                    sample.covers.insert(0, cover);
                }
                sample
            });
            prop::collection::vec(sample, LENGTHS[which])
        })
    }

    /// 1–11 samples, every one `width` members wide.
    fn samples_of_width(width: u32) -> impl Strategy<Value = Vec<RicSample>> {
        prop::collection::vec(sample_of_width(Just(width)), 1..12)
    }

    /// Both tables of one state, built before the first commit and kept
    /// by every commit of `order`, equal the index walks after each.
    fn assert_tables_track_every_commit<C: RicSamples>(collection: C, order: &[u32]) {
        let all: Vec<u32> = (0..NODES).collect();
        let check = |st: &CoverageState<C>| {
            assert_tables_equal_walk(st, &all, false);
            assert_tables_equal_walk(st, &all, true);
        };
        let mut st = CoverageState::new(collection);
        check(&st);
        for &v in order {
            st.add_seed(NodeId::new(v));
            check(&st);
        }
    }

    /// [`a_score_equals_the_naive_estimators`] for one collection.
    fn assert_score_equals_the_naive_estimators(samples: &[RicSample], seeds: &[NodeId]) {
        use crate::maxr::Score;
        let store =
            RicStore::from_samples(NODES as usize, 1, samples.len() as f64, samples).unwrap();
        let snapshot = snapshot_of(&store);
        let view = snapshot.view().unwrap();
        let score = Score::of(&store, seeds);
        assert_eq!(score, Score::of(&view, seeds));
        let b = store.total_benefit();
        assert_eq!(score.samples, samples.len());
        assert_eq!(score.influenced, RicSamples::influenced_count(&view, seeds));
        let sets = [seeds];
        assert_eq!(
            CoverageEvaluator::new(&store).influenced_counts(&sets),
            [score.influenced]
        );
        assert_eq!(
            CoverageEvaluator::new(&view).influenced_counts(&sets),
            [score.influenced]
        );
        assert_eq!(
            score.estimate(b).to_bits(),
            RicSamples::estimate(&view, seeds).to_bits()
        );
        assert_eq!(
            score.nu_estimate(b).to_bits(),
            RicSamples::nu_estimate(&view, seeds).to_bits()
        );
    }

    proptest! {
        /// Every row-width arm of the table sweeps — `Limbs<1>` at widths
        /// 1 and 64, `Limbs<2>` at 65 and 128, `AnyLimbs` at 129 — answers
        /// what the index walks compute, after every commit, over the
        /// store and over a view of its snapshot.
        #[test]
        fn gain_tables_equal_the_index_walk_at_every_row_width(
            stores in (
                samples_of_width(1),
                samples_of_width(64),
                samples_of_width(65),
                samples_of_width(128),
                samples_of_width(129),
            ),
            order in prop::collection::vec(0..NODES, 1..20),
        ) {
            let (s1, s64, s65, s128, s129) = stores;
            for samples in [s1, s64, s65, s128, s129] {
                let store =
                    RicStore::from_samples(NODES as usize, 1, samples.len() as f64, &samples)
                        .unwrap();
                assert_tables_track_every_commit(&store, &order);
                let snapshot = snapshot_of(&store);
                assert_tables_track_every_commit(snapshot.view().unwrap(), &order);
            }
        }

        /// The prefetching walk changes no value: a whole-set score over
        /// the store and over a view of its snapshot is what the naive
        /// per-sample estimators of `RicSamples` compute, for index lists
        /// shorter than, as long as and longer than the prefetch distance,
        /// on 1-, 2- and 3-limb covers, and at every row-width arm of the
        /// walk's union update (`Limbs<1>` at widths 1 and 64, `Limbs<2>`
        /// at 65 and 128, `AnyLimbs` at 129), with duplicate and
        /// out-of-range seeds; so is what [`CoverageEvaluator`] counts
        /// over either.
        #[test]
        fn a_score_equals_the_naive_estimators(
            samples in walk_collection(),
            stores in (
                samples_of_width(1),
                samples_of_width(64),
                samples_of_width(65),
                samples_of_width(128),
                samples_of_width(129),
            ),
            seeds in prop::collection::vec((0..NODES + 3).prop_map(NodeId::new), 0..10),
        ) {
            let store =
                RicStore::from_samples(NODES as usize, 1, samples.len() as f64, &samples).unwrap();
            prop_assert_eq!(store.touched_by(NodeId::new(0)).len(), samples.len());
            let (s1, s64, s65, s128, s129) = stores;
            for samples in [samples, s1, s64, s65, s128, s129] {
                assert_score_equals_the_naive_estimators(&samples, &seeds);
            }
        }

        /// The tentpole contract: whatever interleaving of seed commits
        /// (duplicates and no-op seeds included) and evaluations a state
        /// sees, and wherever its first evaluation falls, the gain tables
        /// of both objectives answer exactly what the index walks compute
        /// from scratch — over the owned store and over a view of its
        /// snapshot, and in both copies after a `clone()` — while the ν
        /// gains telescope and never rise.
        #[test]
        fn gain_tables_equal_the_index_walk(
            samples in prop::collection::vec(sample_strategy(), 0..12),
            saturate in (0u32..4).prop_map(|x| x == 0),
            ops in prop::collection::vec(
                (0u32..4, 0..NODES, prop::collection::vec(0..NODES, 0..8)),
                1..24,
            ),
            first_eval in 0usize..24,
            fork_at in 0usize..24,
        ) {
            let store =
                RicStore::from_samples(NODES as usize, 1, samples.len() as f64, &samples).unwrap();
            drive(&store, saturate, &ops, first_eval, fork_at);
            let snapshot = snapshot_of(&store);
            drive(snapshot.view().unwrap(), saturate, &ops, first_eval, fork_at);
        }
    }
}
