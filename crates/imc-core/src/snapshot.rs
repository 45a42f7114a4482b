//! Persistent snapshot store for RIC sample collections.
//!
//! IMCAF-generated sample collections are expensive (each RIC sample is a
//! reverse BFS over a live-edge realization), but they are pure data: a
//! collection sampled once can serve any number of `solve`/`estimate`
//! queries later. This module serializes a collection — together with a
//! fingerprint of the graph + community structure it was sampled from — to
//! a versioned, checksummed, std-only binary format, so a warm index can
//! cold-start from disk instead of regenerating samples.
//!
//! # Format (version 3, all integers little-endian)
//!
//! Version 3 is an offset-based, alignment-padded columnar layout: a
//! 64-byte header, a 9-entry section table, then one 8-byte-aligned
//! section per [`RicStore`] column — **including the CSR inverted
//! node→(sample, pos) index**, so decoding never rebuilds it. Every
//! section is one column of [`RicColumns`], stored
//! exactly as [`RicStore`] holds it in memory: [`encode`] is header +
//! section table + nine column copies + checksum, [`decode`] is a verified
//! [`RicStoreView`] + nine `to_vec()`s, and the columns can also be
//! *borrowed* straight out of an 8-byte-aligned byte buffer (a
//! memory-mapped file or a [`SnapshotBytes`]) through [`RicStoreView`] —
//! cold-starting a multi-GB store in the time it takes to validate
//! `O(samples + nodes)` offsets rather than parse the file. Both
//! directions therefore need a little-endian host.
//!
//! ```text
//! offset  size  field
//! 0       7     magic "IMCSNAP"
//! 7       1     format version (= 3)
//! 8       8     instance fingerprint (FNV-1a, see [`instance_fingerprint`])
//! 16      8     node_count        (u64)
//! 24      8     community_count   (u64)
//! 32      8     total_benefit     (f64 bits)
//! 40      8     generation        (u64, snapshot publisher's counter)
//! 48      8     sample_count S    (u64)
//! 56      8     index entries N   (u64, = Σ_g |g|)
//! 64      144   section table: 9 × { offset (u64), byte_len (u64) }
//! ...           sections 0–8, each 8-byte aligned, zero padding between:
//!                 0 communities    S × u32      4 nodes        N × u32
//!                 1 thresholds     S × u32      5 cover_offsets (S+1) × u64
//!                 2 widths         S × u32      6 cover_words  W × u64
//!                 3 node_offsets   (S+1) × u64  7 index_offsets (node_count+1) × u64
//!                                               8 index_entries N × {sample u32, pos u32}
//! end-8   8     FNV-1a checksum over every preceding byte
//! ```
//!
//! Version 3 is the only format [`decode`], [`load`] and the view read;
//! older version bytes get [`SnapshotError::UnsupportedVersion`] — an old
//! file is re-drawn with `imc-tool snapshot save`. See `docs/FORMATS.md`
//! for the byte-level specification, the alignment rules, and a worked
//! hexdump.
//!
//! Decoding validates the magic, version, checksum and every structural
//! invariant (sorted in-range nodes, in-range community ids, zero padding
//! bits, and that the persisted inverted index is *exactly* the one
//! [`RicStore`] would rebuild) before reconstructing the collection, so a
//! truncated or corrupted file is rejected rather than producing a
//! silently wrong index. [`RicStoreView::open`] intentionally skips the
//! checksum and the `O(file)` walk — that is what makes it near-zero-cost —
//! and [`RicStoreView::verify`] performs them on demand; open views only
//! over snapshot files you trust (ones this process or its deploy pipeline
//! wrote).

use crate::samples::{limbs_for_width, top_limb_mask, RicColumns};
use crate::{RicSamples, RicStore};
use imc_community::CommunitySet;
use imc_graph::{Graph, NodeId};
use std::fmt;
use std::path::Path;

/// Leading magic bytes of every snapshot file.
pub const MAGIC: &[u8; 7] = b"IMCSNAP";
/// Format version written by [`encode`] — and the only one [`decode`] reads.
pub const FORMAT_VERSION: u8 = 3;

/// Header length: magic, version and seven `u64` fields.
const HEADER_LEN: usize = 7 + 1 + 8 * 7;
/// Number of column sections in a version-3 file.
const SECTION_COUNT: usize = 9;
/// First byte after the version-3 section table (= 208, 8-aligned).
const SECTIONS_START: usize = HEADER_LEN + SECTION_COUNT * 16;
const CHECKSUM_LEN: usize = 8;

/// Rounds `n` up to the next multiple of 8 — the section alignment.
const fn align8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

/// Errors raised while reading or writing snapshots.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version byte is not one this build understands.
    UnsupportedVersion(u8),
    /// The file ends before the declared content does.
    Truncated,
    /// The trailing checksum does not match the content.
    ChecksumMismatch,
    /// A structural invariant is violated; the message says which.
    Corrupt(&'static str),
    /// The snapshot was sampled from a different graph/community structure.
    FingerprintMismatch {
        /// Fingerprint of the instance the caller is loading for.
        expected: u64,
        /// Fingerprint recorded in the snapshot file.
        found: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot format version {v} (this build reads version {FORMAT_VERSION}; re-draw the file with `imc-tool snapshot save`)"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch (file corrupted)"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot is corrupt: {what}"),
            SnapshotError::FingerprintMismatch { expected, found } => write!(
                f,
                "snapshot fingerprint {found:#018x} does not match instance fingerprint {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// A decoded snapshot: the collection plus the provenance recorded with it.
#[derive(Debug, Clone)]
pub struct SnapshotData {
    /// The reconstructed sample collection (persisted inverted index
    /// validated and adopted verbatim).
    pub collection: RicStore,
    /// Fingerprint of the instance the samples were drawn from.
    pub fingerprint: u64,
    /// Generation counter the publisher stamped (0 for CLI-produced files).
    pub generation: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher (std-only, stable across platforms).
#[derive(Debug, Clone)]
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a hash of a byte slice — exposed for tests and the wire protocol.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Deterministic fingerprint of an IMC instance: node count, the full
/// weighted edge list, and every community's members/threshold/benefit.
///
/// Two instances fingerprint equal iff a sample collection drawn from one
/// is valid for the other, so snapshot loading can refuse a collection
/// sampled from a different graph or community structure.
pub fn instance_fingerprint(graph: &Graph, communities: &CommunitySet) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(graph.node_count() as u64);
    h.write_u64(graph.edge_count() as u64);
    for e in graph.edges() {
        h.write_u32(e.source.raw());
        h.write_u32(e.target.raw());
        h.write_u64(e.weight.to_bits());
    }
    h.write_u64(communities.len() as u64);
    for c in communities.iter() {
        h.write_u32(c.threshold);
        h.write_u64(c.benefit.to_bits());
        h.write_u64(c.members.len() as u64);
        for &m in &c.members {
            h.write_u32(m.raw());
        }
    }
    h.finish()
}

/// One of the two audited escape hatches from the crate-wide
/// `deny(unsafe_code)` (the other is `kernels::prefetch_read`):
/// reinterpreting 8-byte-aligned little-endian snapshot bytes as the typed
/// columns they store, and typed columns as raw bytes. Every cast from
/// bytes checks alignment at runtime (`align_to` with an empty
/// prefix/suffix) rather than assuming it, and both directions are only
/// instantiated at types whose every bit pattern is a valid value and that
/// have no padding bytes: `u32`, `u64`, `NodeId` (`repr(transparent)` over
/// `u32`) and `SampleRef` (`repr(C)`, two consecutive `u32`s).
#[allow(unsafe_code)]
mod cast {
    use crate::store::SampleRef;
    use imc_graph::NodeId;

    /// Reinterprets `bytes` as a slice of `T`, or `None` when the pointer
    /// is misaligned for `T` or the length is not a multiple of its size.
    ///
    /// Private on purpose: callers below instantiate it only at the four
    /// plain-old-data types listed in the module doc.
    fn typed<T>(bytes: &[u8]) -> Option<&[T]> {
        if !bytes.len().is_multiple_of(size_of::<T>()) {
            return None;
        }
        // SAFETY: `align_to` splits at alignment boundaries; demanding an
        // empty prefix and suffix proves the whole slice is aligned and
        // sized for `T`. The only `T`s used are plain-old-data types with
        // no invalid bit patterns (see module doc), so reading them from
        // arbitrary initialized bytes is sound.
        let (prefix, mid, suffix) = unsafe { bytes.align_to::<T>() };
        if prefix.is_empty() && suffix.is_empty() {
            Some(mid)
        } else {
            None
        }
    }

    pub(super) fn u32s(bytes: &[u8]) -> Option<&[u32]> {
        typed(bytes)
    }

    pub(super) fn u64s(bytes: &[u8]) -> Option<&[u64]> {
        typed(bytes)
    }

    pub(super) fn node_ids(bytes: &[u8]) -> Option<&[NodeId]> {
        typed(bytes)
    }

    pub(super) fn sample_refs(bytes: &[u8]) -> Option<&[SampleRef]> {
        typed(bytes)
    }

    /// Views a column as its bytes (for copying it into a snapshot).
    ///
    /// Private on purpose, like [`typed`]: only instantiated below, at the
    /// four padding-free plain-old-data types listed in the module doc.
    fn bytes_of<T>(items: &[T]) -> &[u8] {
        // SAFETY: the only `T`s used have no padding (see module doc), so
        // every byte of an initialized `[T]` is initialized; `u8` has
        // alignment 1, and `size_of_val` cannot overflow `isize` (the
        // source allocation already exists).
        unsafe { std::slice::from_raw_parts(items.as_ptr().cast(), size_of_val(items)) }
    }

    pub(super) fn u32s_as_bytes(items: &[u32]) -> &[u8] {
        bytes_of(items)
    }

    pub(super) fn u64s_as_bytes(items: &[u64]) -> &[u8] {
        bytes_of(items)
    }

    pub(super) fn node_ids_as_bytes(items: &[NodeId]) -> &[u8] {
        bytes_of(items)
    }

    pub(super) fn sample_refs_as_bytes(items: &[SampleRef]) -> &[u8] {
        bytes_of(items)
    }

    /// Mutable byte view of a `u64` arena (for copying a file into it).
    pub(super) fn u64s_as_bytes_mut(words: &mut [u64]) -> &mut [u8] {
        // SAFETY: as above; writing any bytes through the view leaves the
        // `u64`s initialized, and the mutable borrow is exclusive.
        unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast(), words.len() * 8) }
    }
}

/// Encodes a collection (any [`RicSamples`] implementer) into the current
/// version-3 sectioned snapshot format: header, section table, the nine
/// columns copied byte for byte (zero-padded to 8), checksum.
///
/// The inverted index is persisted (sections 7–8) in exactly the order
/// [`RicStore`] rebuilds it — per node, `(sample, pos)` ascending — so
/// decoding adopts it verbatim instead of re-deriving it, and
/// [`RicStoreView`] can serve `touched_by` straight from the file bytes.
///
/// # Panics
///
/// On a big-endian host: sections are the in-memory columns, and the
/// format is little-endian.
pub fn encode<C: RicSamples>(collection: &C, fingerprint: u64, generation: u64) -> Vec<u8> {
    if cfg!(target_endian = "big") {
        panic!("snapshot encoding requires a little-endian host");
    }
    let c = collection.columns();
    let sections: [&[u8]; SECTION_COUNT] = [
        cast::u32s_as_bytes(c.communities),
        cast::u32s_as_bytes(c.thresholds),
        cast::u32s_as_bytes(c.widths),
        cast::u64s_as_bytes(c.node_offsets),
        cast::node_ids_as_bytes(c.nodes),
        cast::u64s_as_bytes(c.cover_offsets),
        cast::u64s_as_bytes(c.cover_words),
        cast::u64s_as_bytes(c.index_offsets),
        cast::sample_refs_as_bytes(c.index_entries),
    ];
    let body_len = sections
        .iter()
        .fold(SECTIONS_START, |at, sec| align8(at + sec.len()));
    let mut out = Vec::with_capacity(body_len + CHECKSUM_LEN);
    out.extend_from_slice(MAGIC);
    out.push(FORMAT_VERSION);
    let header = [
        fingerprint,
        c.node_count as u64,
        c.community_count as u64,
        c.total_benefit.to_bits(),
        generation,
        c.len() as u64,
        c.nodes.len() as u64,
    ];
    for v in header {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let mut at = SECTIONS_START;
    for sec in &sections {
        out.extend_from_slice(&(at as u64).to_le_bytes());
        out.extend_from_slice(&(sec.len() as u64).to_le_bytes());
        at = align8(at + sec.len());
    }
    for sec in &sections {
        out.extend_from_slice(sec);
        out.resize(align8(out.len()), 0);
    }
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Validates a sample's metadata fields.
fn check_meta(community: u32, threshold: u32, community_count: u64) -> Result<(), SnapshotError> {
    if u64::from(community) >= community_count {
        return Err(SnapshotError::Corrupt(
            "sample references an out-of-range community",
        ));
    }
    // Thresholds above the community size are legal (such a community can
    // never activate — `ThresholdPolicy::Constant` does not clamp), so
    // only zero is structurally invalid.
    if threshold == 0 {
        return Err(SnapshotError::Corrupt("sample threshold is zero"));
    }
    Ok(())
}

/// Validates the instance scalars of a header.
fn check_instance(
    node_count: u64,
    community_count: u64,
    total_benefit: f64,
) -> Result<(), SnapshotError> {
    if node_count > u64::from(u32::MAX) {
        return Err(SnapshotError::Corrupt("node count exceeds u32 range"));
    }
    // Communities are non-empty and disjoint, so there are at most as many
    // as nodes; this also bounds every per-community table by the file.
    if community_count > node_count {
        return Err(SnapshotError::Corrupt("community count exceeds node count"));
    }
    if !total_benefit.is_finite() || total_benefit < 0.0 {
        return Err(SnapshotError::Corrupt(
            "total benefit is not a finite non-negative number",
        ));
    }
    Ok(())
}

/// The format version byte, after checking the magic.
fn version_of(bytes: &[u8]) -> Result<u8, SnapshotError> {
    if bytes.len() < MAGIC.len() + 1 {
        return Err(SnapshotError::Truncated);
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    Ok(bytes[MAGIC.len()])
}

/// Decodes version-3 snapshot bytes, validating magic, version, checksum
/// and every structural invariant: open a view, verify it fully, then
/// copy the nine columns into an owned [`RicStore`]. The persisted
/// inverted index is validated to be exactly what `RicStore` would
/// rebuild, then adopted verbatim.
///
/// # Errors
///
/// Any [`SnapshotError`] variant except `Io` and `FingerprintMismatch`
/// (fingerprints are checked by [`load_for_instance`], which knows the
/// expected value). Version-1 and version-2 bytes get
/// [`UnsupportedVersion`](SnapshotError::UnsupportedVersion).
pub fn decode(bytes: &[u8]) -> Result<SnapshotData, SnapshotError> {
    // `std::fs::read` makes no alignment promise; copy into an 8-aligned
    // arena when needed so the typed casts apply.
    let owned;
    let aligned = if (bytes.as_ptr() as usize).is_multiple_of(8) {
        bytes
    } else {
        owned = SnapshotBytes::copy_from(bytes);
        owned.as_bytes()
    };
    let view = RicStoreView::open_verified(aligned)?;
    Ok(SnapshotData {
        fingerprint: view.fingerprint(),
        generation: view.generation(),
        collection: view.to_store(),
    })
}

/// Zero-copy read-only view of a version-3 snapshot.
///
/// Every [`RicStore`] column — metadata, CSR node lists, cover limbs and
/// the inverted index — is borrowed directly from the underlying byte
/// buffer as one [`RicColumns`], so "loading" a snapshot is an
/// `O(samples + nodes)` validation pass with no parsing, no allocation
/// proportional to the file, and no index rebuild. The view implements
/// [`RicSamples`] by lending those columns and nothing else, so estimators
/// and MAXR solvers run on it through the naive provided methods — it is
/// the oracle the `RicStore` overrides are tested against.
///
/// The buffer must be 8-byte aligned (a page-aligned memory map qualifies,
/// as does [`SnapshotBytes`]) and the host little-endian; [`open`](Self::open)
/// rejects both violations.
///
/// # Trust model
///
/// [`open`](Self::open) validates the header, section table and every CSR
/// offset array — enough to guarantee that all slicing the view performs
/// is in bounds — but deliberately skips the checksum and the `O(file)`
/// content walk; that skip is what makes opening near-zero-cost. A file
/// with corrupt *index entries* can therefore make an accessor panic
/// (bounds-checked) or return wrong data, but never touch memory outside
/// the buffer. Call [`open_verified`](Self::open_verified) (or
/// [`verify`](Self::verify)) for untrusted bytes; plain `open` is for
/// snapshots this process or its deploy pipeline wrote.
///
/// ```
/// use imc_core::snapshot::{self, RicStoreView, SnapshotBytes};
/// use imc_core::{CoverSet, RicSample, RicSamples, RicStore};
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
///
/// // In production the bytes would come from an mmap'd snapshot file;
/// // `SnapshotBytes` provides the same 8-byte-aligned buffer in memory.
/// let bytes = SnapshotBytes::copy_from(&snapshot::encode(&store, 0xFEED, 1));
/// let view = RicStoreView::open(bytes.as_bytes()).unwrap();
/// assert_eq!(view.fingerprint(), 0xFEED);
/// assert_eq!(view.len(), store.len());
/// let seeds = [NodeId::new(1)];
/// assert_eq!(view.estimate(&seeds), store.estimate(&seeds));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RicStoreView<'a> {
    raw: &'a [u8],
    fingerprint: u64,
    generation: u64,
    columns: RicColumns<'a>,
}

impl<'a> RicStoreView<'a> {
    /// Opens a view over version-3 snapshot bytes with the cheap
    /// `O(samples + nodes)` structural validation described in the type
    /// docs. The checksum is *not* verified — see the trust model above.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`] / [`UnsupportedVersion`](SnapshotError::UnsupportedVersion)
    /// for non-v3 input, [`Truncated`](SnapshotError::Truncated) for short
    /// buffers, and [`Corrupt`](SnapshotError::Corrupt) for misalignment or
    /// any offset-table inconsistency.
    pub fn open(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        if !cfg!(target_endian = "little") {
            return Err(SnapshotError::Corrupt(
                "zero-copy snapshot views require a little-endian host",
            ));
        }
        let version = version_of(bytes)?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        if !(bytes.as_ptr() as usize).is_multiple_of(8) {
            return Err(SnapshotError::Corrupt(
                "snapshot buffer is not 8-byte aligned (use SnapshotBytes or a page-aligned map)",
            ));
        }
        if !bytes.len().is_multiple_of(8) {
            return Err(SnapshotError::Corrupt(
                "snapshot length is not a multiple of 8",
            ));
        }
        if bytes.len() < SECTIONS_START + CHECKSUM_LEN {
            return Err(SnapshotError::Truncated);
        }
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let fingerprint = u64_at(8);
        let node_count64 = u64_at(16);
        let community_count = u64_at(24);
        let total_benefit = f64::from_bits(u64_at(32));
        let generation = u64_at(40);
        let sample_count = u64_at(48);
        let entry_count = u64_at(56);
        check_instance(node_count64, community_count, total_benefit)?;
        let body_len = (bytes.len() - CHECKSUM_LEN) as u64;
        // Coarse count bounds: every later `usize` length computation fits
        // without overflow once each count is at most the body length.
        if sample_count.saturating_mul(4) > body_len
            || entry_count.saturating_mul(4) > body_len
            || node_count64.saturating_mul(8) > body_len
        {
            return Err(SnapshotError::Corrupt(
                "header counts imply more data than the file holds",
            ));
        }
        let s = sample_count as usize;
        let n = entry_count as usize;
        let node_count = node_count64 as usize;
        let expected_lens: [Option<usize>; SECTION_COUNT] = [
            Some(s * 4),                // communities
            Some(s * 4),                // thresholds
            Some(s * 4),                // widths
            Some((s + 1) * 8),          // node_offsets
            Some(n * 4),                // nodes
            Some((s + 1) * 8),          // cover_offsets
            None,                       // cover_words: any multiple of 8
            Some((node_count + 1) * 8), // index_offsets
            Some(n * 8),                // index_entries
        ];
        let mut offs = [0usize; SECTION_COUNT];
        let mut lens = [0usize; SECTION_COUNT];
        let mut at = SECTIONS_START;
        for i in 0..SECTION_COUNT {
            let off = u64_at(HEADER_LEN + i * 16);
            let len = u64_at(HEADER_LEN + i * 16 + 8);
            if off > body_len || len > body_len - off {
                return Err(SnapshotError::Truncated);
            }
            // Sections must sit exactly where the canonical writer puts
            // them: back to back from SECTIONS_START, each aligned up to 8.
            if off as usize != at {
                return Err(SnapshotError::Corrupt(
                    "section table offsets are not canonical",
                ));
            }
            match expected_lens[i] {
                Some(want) if len as usize != want => {
                    return Err(SnapshotError::Corrupt(
                        "section length disagrees with header counts",
                    ));
                }
                None if len % 8 != 0 => {
                    return Err(SnapshotError::Corrupt(
                        "cover-words section length is not a multiple of 8",
                    ));
                }
                _ => {}
            }
            offs[i] = off as usize;
            lens[i] = len as usize;
            at = align8(at + len as usize);
        }
        if at as u64 != body_len {
            return Err(SnapshotError::Corrupt("trailing bytes after last section"));
        }
        let sec = |i: usize| &bytes[offs[i]..offs[i] + lens[i]];
        const MISALIGNED: SnapshotError =
            SnapshotError::Corrupt("section not aligned for its element type");
        let c = RicColumns {
            node_count,
            community_count: community_count as usize,
            total_benefit,
            communities: cast::u32s(sec(0)).ok_or(MISALIGNED)?,
            thresholds: cast::u32s(sec(1)).ok_or(MISALIGNED)?,
            widths: cast::u32s(sec(2)).ok_or(MISALIGNED)?,
            node_offsets: cast::u64s(sec(3)).ok_or(MISALIGNED)?,
            nodes: cast::node_ids(sec(4)).ok_or(MISALIGNED)?,
            cover_offsets: cast::u64s(sec(5)).ok_or(MISALIGNED)?,
            cover_words: cast::u64s(sec(6)).ok_or(MISALIGNED)?,
            index_offsets: cast::u64s(sec(7)).ok_or(MISALIGNED)?,
            index_entries: cast::sample_refs(sec(8)).ok_or(MISALIGNED)?,
        };
        // CSR offset validation — after this every slice the accessors
        // take is in bounds: node/cover offsets are monotone and span
        // their sections, and cover offsets agree with each sample's node
        // count × limb width.
        if c.node_offsets.first() != Some(&0) || c.node_offsets.last() != Some(&entry_count) {
            return Err(SnapshotError::Corrupt(
                "node offsets do not span the node section",
            ));
        }
        let w_total = (lens[6] / 8) as u64;
        if c.cover_offsets.first() != Some(&0) || c.cover_offsets.last() != Some(&w_total) {
            return Err(SnapshotError::Corrupt(
                "cover offsets do not span the cover-words section",
            ));
        }
        for si in 0..s {
            let n_si = c.node_offsets[si + 1]
                .checked_sub(c.node_offsets[si])
                .ok_or(SnapshotError::Corrupt("node offsets are not monotone"))?;
            let limbs = limbs_for_width(c.widths[si]) as u64;
            if c.cover_offsets[si + 1]
                != c.cover_offsets[si].saturating_add(n_si.saturating_mul(limbs))
            {
                return Err(SnapshotError::Corrupt(
                    "cover offsets disagree with node counts and widths",
                ));
            }
            check_meta(c.communities[si], c.thresholds[si], community_count)?;
        }
        if c.index_offsets.first() != Some(&0) || c.index_offsets.last() != Some(&entry_count) {
            return Err(SnapshotError::Corrupt(
                "index offsets do not span the entry section",
            ));
        }
        let mut prev = 0u64;
        for &o in c.index_offsets {
            if o < prev {
                return Err(SnapshotError::Corrupt("index offsets are not monotone"));
            }
            prev = o;
        }
        Ok(RicStoreView {
            raw: bytes,
            fingerprint,
            generation,
            columns: c,
        })
    }

    /// Opens a view and immediately runs the full [`verify`](Self::verify)
    /// pass (checksum + complete structural walk) — for untrusted bytes.
    pub fn open_verified(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let view = Self::open(bytes)?;
        view.verify()?;
        Ok(view)
    }

    /// Verifies everything [`open`](Self::open) skipped: the trailing
    /// checksum, per-sample node ordering and range, cover padding bits,
    /// and that the persisted inverted index is *exactly* the one
    /// `RicStore::rebuild_index` would produce.
    ///
    /// The index proof is by bijection: every persisted entry under node
    /// `v` is checked to point back at `v` (so each per-node list is a
    /// subset of the true one), per-node lists are strictly ascending (so
    /// entries are distinct), and the offsets already force the total
    /// entry count to equal the node-arena length — subsets of equal total
    /// size must be equal.
    pub fn verify(&self) -> Result<(), SnapshotError> {
        let (body, tail) = self.raw.split_at(self.raw.len() - CHECKSUM_LEN);
        let declared = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        if fnv1a(body) != declared {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let c = self.columns;
        for si in 0..c.len() {
            let nodes = c.sample_nodes(si);
            let mut prev: Option<u32> = None;
            for v in nodes {
                let v = v.raw();
                if v as usize >= c.node_count {
                    return Err(SnapshotError::Corrupt("sample node id out of range"));
                }
                if prev.is_some_and(|p| p >= v) {
                    return Err(SnapshotError::Corrupt(
                        "sample nodes not strictly ascending",
                    ));
                }
                prev = Some(v);
            }
            let limbs = limbs_for_width(c.widths[si]);
            let top_mask = top_limb_mask(c.widths[si]);
            for pos in 0..nodes.len() {
                if c.cover_words(si, pos)[limbs - 1] & !top_mask != 0 {
                    return Err(SnapshotError::Corrupt(
                        "cover set has bits beyond community size",
                    ));
                }
            }
        }
        for v in 0..c.node_count {
            let mut prev: Option<(u32, u32)> = None;
            for r in c.touched_by(NodeId::new(v as u32)) {
                let si = r.sample as usize;
                if si >= c.len() {
                    return Err(SnapshotError::Corrupt(
                        "index entry references an out-of-range sample",
                    ));
                }
                let Some(node) = c.sample_nodes(si).get(r.pos as usize) else {
                    return Err(SnapshotError::Corrupt("index entry position out of range"));
                };
                if node.raw() != v as u32 {
                    return Err(SnapshotError::Corrupt(
                        "index entry does not point back at its node",
                    ));
                }
                if prev.is_some_and(|p| p >= (r.sample, r.pos)) {
                    return Err(SnapshotError::Corrupt(
                        "index entries not strictly ascending",
                    ));
                }
                prev = Some((r.sample, r.pos));
            }
        }
        Ok(())
    }

    /// Fingerprint of the instance the samples were drawn from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Generation counter the publisher stamped.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The raw snapshot bytes this view borrows from.
    pub fn raw_bytes(&self) -> &'a [u8] {
        self.raw
    }

    /// Materializes an owned [`RicStore`] by copying the nine columns — no
    /// index rebuild, since the persisted index is adopted verbatim. Run
    /// [`verify`](Self::verify) first when the bytes are untrusted.
    pub fn to_store(&self) -> RicStore {
        self.columns.to_store()
    }
}

impl RicSamples for RicStoreView<'_> {
    #[inline]
    fn columns(&self) -> RicColumns<'_> {
        self.columns
    }
}

/// Owned snapshot bytes in an 8-byte-aligned arena.
///
/// `Vec<u8>` (what [`std::fs::read`] returns) makes no alignment promise,
/// and [`RicStoreView`] needs its buffer 8-byte aligned to reinterpret the
/// `u64` sections in place. `SnapshotBytes` stores the file in a `u64`
/// arena, guaranteeing alignment without platform mmap code.
#[derive(Debug, Clone)]
pub struct SnapshotBytes {
    words: Box<[u64]>,
    len: usize,
}

impl SnapshotBytes {
    /// Copies `bytes` into a fresh 8-aligned arena.
    pub fn copy_from(bytes: &[u8]) -> Self {
        let mut words = vec![0u64; bytes.len().div_ceil(8)].into_boxed_slice();
        cast::u64s_as_bytes_mut(&mut words)[..bytes.len()].copy_from_slice(bytes);
        SnapshotBytes {
            words,
            len: bytes.len(),
        }
    }

    /// Reads a file into an aligned arena.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failure.
    pub fn read_from(path: &Path) -> Result<Self, SnapshotError> {
        Ok(Self::copy_from(&std::fs::read(path)?))
    }

    /// The stored bytes (8-byte aligned, original length).
    pub fn as_bytes(&self) -> &[u8] {
        &cast::u64s_as_bytes(&self.words)[..self.len]
    }

    /// Opens a [`RicStoreView`] over the stored bytes.
    ///
    /// # Errors
    ///
    /// Everything [`RicStoreView::open`] can raise.
    pub fn view(&self) -> Result<RicStoreView<'_>, SnapshotError> {
        RicStoreView::open(self.as_bytes())
    }
}

/// Writes a snapshot to `path` (atomically where the filesystem allows:
/// write to `<path>.tmp` — the full file name plus `.tmp`, so siblings
/// that differ only in extension never share a temp file — then rename
/// over the destination).
///
/// # Errors
///
/// [`SnapshotError::Io`] on filesystem failure.
pub fn save<C: RicSamples>(
    path: &Path,
    collection: &C,
    fingerprint: u64,
    generation: u64,
) -> Result<(), SnapshotError> {
    let bytes = encode(collection, fingerprint, generation);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads and decodes a snapshot from `path` without fingerprint checking.
///
/// # Errors
///
/// Any [`SnapshotError`] except `FingerprintMismatch`.
pub fn load(path: &Path) -> Result<SnapshotData, SnapshotError> {
    let bytes = std::fs::read(path)?;
    decode(&bytes)
}

/// Reads a snapshot and verifies it was sampled from `instance`'s exact
/// graph and community structure.
///
/// # Errors
///
/// [`SnapshotError::FingerprintMismatch`] when the snapshot came from a
/// different instance, plus every error [`load`] can raise.
pub fn load_for_instance(
    path: &Path,
    instance: &crate::ImcInstance,
) -> Result<SnapshotData, SnapshotError> {
    let expected = instance_fingerprint(instance.graph(), instance.communities());
    let data = load(path)?;
    if data.fingerprint != expected {
        return Err(SnapshotError::FingerprintMismatch {
            expected,
            found: data.fingerprint,
        });
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoverSet, RicSample, RicSampler};
    use imc_community::{CommunityId, CommunitySet};
    use imc_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_collection() -> (Graph, CommunitySet, RicStore) {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 0.8).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.add_edge(3, 4, 0.9).unwrap();
        let g = b.build().unwrap();
        let cs = CommunitySet::from_parts(
            6,
            vec![
                (vec![NodeId::new(1), NodeId::new(2)], 1, 2.0),
                (vec![NodeId::new(4), NodeId::new(5)], 2, 3.0),
            ],
        )
        .unwrap();
        let sampler = RicSampler::new(&g, &cs);
        let mut col = RicStore::for_sampler(&sampler);
        col.extend_with(&sampler, 200, &mut StdRng::seed_from_u64(11));
        (g, cs, col)
    }

    #[test]
    fn round_trip_preserves_samples_and_header() {
        let (g, cs, col) = tiny_collection();
        let fp = instance_fingerprint(&g, &cs);
        let bytes = encode(&col, fp, 7);
        let data = decode(&bytes).unwrap();
        assert_eq!(data.fingerprint, fp);
        assert_eq!(data.generation, 7);
        assert_eq!(data.collection, col);
        // The adopted inverted index answers identically.
        for v in 0..6 {
            assert_eq!(
                data.collection.touched_by(NodeId::new(v)),
                col.touched_by(NodeId::new(v))
            );
        }
    }

    #[test]
    fn estimates_survive_round_trip() {
        let (g, cs, col) = tiny_collection();
        let fp = instance_fingerprint(&g, &cs);
        let data = decode(&encode(&col, fp, 0)).unwrap();
        for seeds in [vec![NodeId::new(0)], vec![NodeId::new(0), NodeId::new(3)]] {
            assert_eq!(data.collection.estimate(&seeds), col.estimate(&seeds));
            assert_eq!(data.collection.nu_estimate(&seeds), col.nu_estimate(&seeds));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let (g, cs, col) = tiny_collection();
        let mut bytes = encode(&col, instance_fingerprint(&g, &cs), 0);
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn every_other_version_rejected() {
        let (g, cs, col) = tiny_collection();
        let mut bytes = encode(&col, instance_fingerprint(&g, &cs), 0);
        for version in [0, 1, 2, FORMAT_VERSION + 1] {
            bytes[7] = version;
            assert!(matches!(
                decode(&bytes),
                Err(SnapshotError::UnsupportedVersion(v)) if v == version
            ));
        }
    }

    #[test]
    fn every_truncation_point_rejected() {
        let (g, cs, col) = tiny_collection();
        let bytes = encode(&col, instance_fingerprint(&g, &cs), 0);
        // Cutting anywhere must fail loudly — never yield a collection.
        for cut in [
            0,
            3,
            8,
            HEADER_LEN - 1,
            HEADER_LEN,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn bit_flip_anywhere_is_caught_by_checksum() {
        let (g, cs, col) = tiny_collection();
        let bytes = encode(&col, instance_fingerprint(&g, &cs), 0);
        for &at in &[8usize, 20, HEADER_LEN + 3, bytes.len() - 12] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at {at} accepted");
        }
    }

    #[test]
    fn fingerprint_mismatch_detected() {
        let (g, cs, col) = tiny_collection();
        let fp = instance_fingerprint(&g, &cs);
        let dir = std::env::temp_dir().join(format!("imc-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.snap");
        save(&path, &col, fp ^ 1, 0).unwrap();
        let inst = crate::ImcInstance::new(g, cs).unwrap();
        assert!(matches!(
            load_for_instance(&path, &inst),
            Err(SnapshotError::FingerprintMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_load_file_round_trip() {
        let (g, cs, col) = tiny_collection();
        let fp = instance_fingerprint(&g, &cs);
        let dir = std::env::temp_dir().join(format!("imc-snap-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("col.snap");
        save(&path, &col, fp, 3).unwrap();
        let inst = crate::ImcInstance::new(g, cs).unwrap();
        let data = load_for_instance(&path, &inst).unwrap();
        assert_eq!(data.generation, 3);
        assert_eq!(data.collection, col);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sibling_saves_do_not_share_a_temp_file() {
        let (g, cs, col) = tiny_collection();
        let fp = instance_fingerprint(&g, &cs);
        let mut other = col.clone();
        other.push_sample(&col.view(0).to_sample()).unwrap();
        let dir = std::env::temp_dir().join(format!("imc-snap-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (snap, bak, mine) = (dir.join("a.snap"), dir.join("a.bak"), dir.join("a.tmp"));
        // A user's own `a.tmp` is not ours to overwrite and rename away.
        std::fs::write(&mine, b"mine").unwrap();
        // Interleave saves to two paths that differ only in extension;
        // sharing one temp name makes a rename lose its source.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for (path, store) in [(&snap, &col), (&bak, &other)] {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    for generation in 0..50 {
                        save(path, store, fp, generation).unwrap();
                    }
                });
            }
        });
        assert_eq!(std::fs::read(&snap).unwrap(), encode(&col, fp, 49));
        assert_eq!(std::fs::read(&bak).unwrap(), encode(&other, fp, 49));
        assert_eq!(load(&snap).unwrap().collection, col);
        assert_eq!(load(&bak).unwrap().collection, other);
        assert_eq!(std::fs::read(&mine).unwrap(), b"mine");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_sensitive_to_structure() {
        let (g, cs, _) = tiny_collection();
        let fp = instance_fingerprint(&g, &cs);
        // Different weight → different fingerprint.
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 0.7).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.add_edge(3, 4, 0.9).unwrap();
        let g2 = b.build().unwrap();
        assert_ne!(fp, instance_fingerprint(&g2, &cs));
        // Different threshold → different fingerprint.
        let cs2 = CommunitySet::from_parts(
            6,
            vec![
                (vec![NodeId::new(1), NodeId::new(2)], 2, 2.0),
                (vec![NodeId::new(4), NodeId::new(5)], 2, 3.0),
            ],
        )
        .unwrap();
        assert_ne!(fp, instance_fingerprint(&g, &cs2));
    }

    /// Rewrites the trailing checksum so structural validators (not the
    /// checksum) must catch a deliberate corruption.
    fn restamp(mut b: Vec<u8>) -> Vec<u8> {
        let n = b.len();
        let sum = fnv1a(&b[..n - 8]);
        b[n - 8..].copy_from_slice(&sum.to_le_bytes());
        b
    }

    /// Reads section `i`'s (offset, byte_len) from a v3 file's table.
    fn v3_section(bytes: &[u8], i: usize) -> (usize, usize) {
        let at = HEADER_LEN + i * 16;
        let off = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap());
        (off as usize, len as usize)
    }

    #[test]
    fn corrupt_v3_fields_rejected_with_fixed_checksum() {
        let (g, cs, col) = tiny_collection();
        let bytes = encode(&col, instance_fingerprint(&g, &cs), 0);
        // Out-of-range community id in the first sample (section 0).
        let (communities_off, _) = v3_section(&bytes, 0);
        let mut bad = bytes.clone();
        bad[communities_off..communities_off + 4].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            decode(&restamp(bad)),
            Err(SnapshotError::Corrupt(_))
        ));
        // Zero threshold (section 1).
        let (thresholds_off, _) = v3_section(&bytes, 1);
        let mut bad = bytes.clone();
        bad[thresholds_off..thresholds_off + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode(&restamp(bad)),
            Err(SnapshotError::Corrupt(_))
        ));
        // Absurd sample count breaks the section-length cross-check.
        let mut bad = bytes.clone();
        bad[48..56].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode(&restamp(bad)),
            Err(SnapshotError::Corrupt(_))
        ));
        // A community count no instance on `node_count` nodes can have —
        // accepted, it would size every per-community table.
        let mut bad = bytes.clone();
        bad[24..32].copy_from_slice(&(1u64 << 56).to_le_bytes());
        assert!(matches!(
            decode(&restamp(bad)),
            Err(SnapshotError::Corrupt(_))
        ));
        // Non-canonical section offset.
        let mut bad = bytes.clone();
        let (off0, _) = v3_section(&bytes, 0);
        bad[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&((off0 + 8) as u64).to_le_bytes());
        assert!(matches!(
            decode(&restamp(bad)),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_v3_index_rejected_by_bijection_check() {
        let (g, cs, col) = tiny_collection();
        let bytes = encode(&col, instance_fingerprint(&g, &cs), 0);
        let (entries_off, entries_len) = v3_section(&bytes, 8);
        assert!(entries_len >= 16, "fixture should have several entries");
        // Swap the first entry's sample for the second entry's: the entry
        // no longer points back at its node (or breaks ordering) — either
        // way the bijection walk must reject it even with a valid checksum.
        let mut bad = bytes.clone();
        bad.copy_within(entries_off + 8..entries_off + 16, entries_off);
        let bad = restamp(bad);
        assert!(matches!(decode(&bad), Err(SnapshotError::Corrupt(_))));
        // The cheap open() accepts it (offsets are untouched)...
        let arena = SnapshotBytes::copy_from(&bad);
        assert!(arena.view().is_ok());
        // ...and verify() is what catches it.
        assert!(matches!(
            arena.view().unwrap().verify(),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn view_matches_owned_store_everywhere() {
        let (g, cs, col) = tiny_collection();
        let fp = instance_fingerprint(&g, &cs);
        let arena = SnapshotBytes::copy_from(&encode(&col, fp, 2));
        let view = RicStoreView::open_verified(arena.as_bytes()).unwrap();
        assert_eq!(view.fingerprint(), fp);
        assert_eq!(view.generation(), 2);
        assert_eq!(view.len(), col.len());
        assert_eq!(view.node_count(), col.node_count());
        assert_eq!(view.community_count(), col.community_count());
        assert_eq!(
            view.total_benefit().to_bits(),
            col.total_benefit().to_bits()
        );
        for si in 0..col.len() {
            assert_eq!(view.sample_community(si), col.sample_community(si));
            assert_eq!(view.sample_threshold(si), col.sample_threshold(si));
            assert_eq!(view.sample_width(si), col.sample_width(si));
            assert_eq!(view.sample_nodes(si), col.sample_nodes(si));
            for pos in 0..col.sample_nodes(si).len() {
                assert_eq!(view.cover_words(si, pos), col.cover_words(si, pos));
            }
        }
        for v in 0..6 {
            assert_eq!(
                view.touched_by(NodeId::new(v)),
                col.touched_by(NodeId::new(v))
            );
        }
        // Estimators are bitwise identical through the trait.
        for seeds in [
            vec![],
            vec![NodeId::new(1)],
            vec![NodeId::new(0), NodeId::new(3)],
        ] {
            assert_eq!(
                view.estimate(&seeds).to_bits(),
                col.estimate(&seeds).to_bits()
            );
            assert_eq!(
                view.nu_estimate(&seeds).to_bits(),
                col.nu_estimate(&seeds).to_bits()
            );
        }
        // Materializing copies the persisted index verbatim.
        assert_eq!(view.to_store(), col);
        // `encode` copies whatever columns it is lent: the view re-encodes
        // to the bytes it borrows.
        assert_eq!(encode(&view, fp, 2), arena.as_bytes());
    }

    #[test]
    fn view_rejects_misaligned_buffers() {
        let (g, cs, col) = tiny_collection();
        let bytes = encode(&col, instance_fingerprint(&g, &cs), 0);
        // Prepend one byte so the snapshot starts at an odd address.
        let mut shifted = vec![0u8; 1];
        shifted.extend_from_slice(&bytes);
        assert!(matches!(
            RicStoreView::open(&shifted[1..]),
            Err(SnapshotError::Corrupt(_))
        ));
        // The owned decode path copies into an aligned arena and succeeds.
        assert_eq!(decode(&shifted[1..]).unwrap().collection, col);
    }

    #[test]
    fn v3_encode_is_a_decode_fixpoint() {
        // decode(encode(x)) re-encodes to the identical bytes: the basis of
        // the fixture bitwise-stability guarantee.
        let (g, cs, col) = tiny_collection();
        let bytes = encode(&col, instance_fingerprint(&g, &cs), 4);
        let data = decode(&bytes).unwrap();
        assert_eq!(
            encode(&data.collection, data.fingerprint, data.generation),
            bytes
        );
    }

    #[test]
    fn empty_collection_round_trips_through_v3() {
        let col = RicStore::new(3, 2, 5.0);
        let bytes = encode(&col, 1, 0);
        let data = decode(&bytes).unwrap();
        assert_eq!(data.collection, col);
        let arena = SnapshotBytes::copy_from(&bytes);
        let view = arena.view().unwrap();
        assert_eq!(view.len(), 0);
        assert!(view.is_empty());
        assert_eq!(view.estimate(&[NodeId::new(0)]), 0.0);
    }

    #[test]
    fn threshold_above_community_size_round_trips() {
        // `ThresholdPolicy::Constant` does not clamp, so a singleton
        // community with the default threshold 2 is a legal sample.
        let mut col = RicStore::new(3, 1, 1.0);
        let mut cover = CoverSet::new(1);
        cover.set(0);
        col.push_sample(&RicSample {
            community: CommunityId::new(0),
            threshold: 2,
            community_size: 1,
            nodes: vec![NodeId::new(2)],
            covers: vec![cover],
        })
        .unwrap();
        let decoded = decode(&encode(&col, 7, 0)).unwrap();
        assert_eq!(decoded.collection, col);
    }

    #[test]
    fn large_cover_sets_round_trip() {
        // Hand-build a collection whose community is wider than 64 members.
        let width = 130u32;
        let mut col = RicStore::new(4, 1, 1.0);
        let mut c0 = CoverSet::new(width as usize);
        c0.set(0);
        c0.set(64);
        c0.set(129);
        let mut c1 = CoverSet::new(width as usize);
        c1.set(70);
        col.push_sample(&RicSample {
            community: CommunityId::new(0),
            threshold: 2,
            community_size: width,
            nodes: vec![NodeId::new(1), NodeId::new(3)],
            covers: vec![c0, c1],
        })
        .unwrap();
        let data = decode(&encode(&col, 42, 1)).unwrap();
        assert_eq!(data.collection, col);
    }
}
