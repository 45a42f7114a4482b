//! Chunked-popcount coverage kernels.
//!
//! Every solver iteration bottoms out in popcounts over packed `u64` cover
//! bitsets (`ĉ_R`/`ν_R` marginal gains, Alg. 2/5). These kernels are the
//! single implementation of that counting, without platform intrinsics:
//! fixed 8-limb chunks unrolled via [`slice::chunks_exact`], plus the
//! `RowWidth` arms that compile a per-row loop for 1- and 2-limb rows.
//! The shipped x86-64 build targets baseline x86-64 (`fxsr`/`sse`/`sse2`:
//! no POPCNT, no AVX2), so every `count_ones` is a shift-and-mask
//! sequence and nothing here is vectorized; on the 1- and 2-limb rows the
//! benchmark's workloads are made of, a chunked kernel is all set-up and
//! remainder loop, which is why those rows go through `Limbs`
//! (`docs/KERNELS.md`, *Why chunks of 8, and fixed-width rows*). The one
//! intrinsic in this module is [`prefetch_read`], a hint that computes
//! nothing (see `docs/KERNELS.md`, *Index walks prefetch ahead*).
//!
//! Contract (see `docs/KERNELS.md` for the full statement):
//!
//! * Every kernel is an integer-exact popcount — bit-identical to the
//!   obvious scalar loop on every input, for any slice length, including
//!   ragged tails (`len % 8 != 0`) and empty slices.
//! * Paired slices must have equal length; the kernels panic on mismatch
//!   (two covers of one sample always have its limb count).
//! * Fused variants (`union_count`, `or_assign_count`)
//!   make one pass over their operands so a marginal-gain evaluation never
//!   touches a limb twice.
//!
//! Chunk size 8 is one cache line (8×u64 = 64 bytes on x86-64/aarch64)
//! and keeps the remainder loop at most 7 limbs.

/// Limbs per unrolled chunk: 64 bytes, one cache line.
pub const CHUNK: usize = 8;

/// Popcount of `words` — `Σ count_ones(w)`.
#[inline]
pub fn count_ones(words: &[u64]) -> u32 {
    let mut chunks = words.chunks_exact(CHUNK);
    let mut total = 0u32;
    for c in &mut chunks {
        // Fixed-size re-borrow lets the compiler fully unroll the chunk.
        let c: &[u64; CHUNK] = c.try_into().unwrap();
        let mut acc = 0u32;
        for &w in c {
            acc += w.count_ones();
        }
        total += acc;
    }
    for &w in chunks.remainder() {
        total += w.count_ones();
    }
    total
}

/// Popcount of the elementwise union: `Σ count_ones(a | b)`.
///
/// # Panics
///
/// Panics when `a.len() != b.len()`.
#[inline]
pub fn union_count(a: &[u64], b: &[u64]) -> u32 {
    assert_eq!(a.len(), b.len(), "kernel operand length mismatch");
    let mut ac = a.chunks_exact(CHUNK);
    let mut bc = b.chunks_exact(CHUNK);
    let mut total = 0u32;
    for (ca, cb) in (&mut ac).zip(&mut bc) {
        let ca: &[u64; CHUNK] = ca.try_into().unwrap();
        let cb: &[u64; CHUNK] = cb.try_into().unwrap();
        let mut acc = 0u32;
        for i in 0..CHUNK {
            acc += (ca[i] | cb[i]).count_ones();
        }
        total += acc;
    }
    for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
        total += (x | y).count_ones();
    }
    total
}

/// Fused `acc |= src` + popcount of the result, in one pass.
///
/// Returns `count_ones(acc)` *after* the union — exactly what
/// [`crate::CoverageState::add_seed`] needs, without re-reading `acc`.
///
/// # Panics
///
/// Panics when `acc.len() != src.len()`.
#[inline]
pub fn or_assign_count(acc: &mut [u64], src: &[u64]) -> u32 {
    assert_eq!(acc.len(), src.len(), "kernel operand length mismatch");
    let mut achunks = acc.chunks_exact_mut(CHUNK);
    let mut schunks = src.chunks_exact(CHUNK);
    let mut total = 0u32;
    for (ca, cs) in (&mut achunks).zip(&mut schunks) {
        let ca: &mut [u64; CHUNK] = ca.try_into().unwrap();
        let cs: &[u64; CHUNK] = cs.try_into().unwrap();
        let mut count = 0u32;
        for i in 0..CHUNK {
            let merged = ca[i] | cs[i];
            ca[i] = merged;
            count += merged.count_ones();
        }
        total += count;
    }
    for (x, y) in achunks.into_remainder().iter_mut().zip(schunks.remainder()) {
        let merged = *x | y;
        *x = merged;
        total += merged.count_ones();
    }
    total
}

/// The limb count of the cover rows a per-row loop walks, as that loop is
/// compiled for it. [`Limbs<1>`] and [`Limbs<2>`] are widths the compiler
/// knows, so a row is a few straight-line words with no chunk set-up and
/// no remainder loop; [`AnyLimbs`] carries any width at run time and
/// counts through the chunked kernels above. [`with_row_width!`] picks the
/// one for a sample.
pub(crate) trait RowWidth: Copy {
    /// One row as the loop holds it: the words themselves at a fixed
    /// width (in registers), a slice at a run-time one.
    type Row<'a>: Copy;

    /// Words per row.
    fn limbs(self) -> usize;

    /// `words`, which must be one row, as a [`Row`](Self::Row).
    fn row(self, words: &[u64]) -> Self::Row<'_>;

    /// [`union_count`] of two rows.
    fn union_count(self, a: Self::Row<'_>, b: Self::Row<'_>) -> u32;
}

/// A row width fixed at compile time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Limbs<const N: usize>;

/// A row width read at run time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AnyLimbs(pub(crate) usize);

impl<const N: usize> RowWidth for Limbs<N> {
    type Row<'a> = [u64; N];

    #[inline(always)]
    fn limbs(self) -> usize {
        N
    }

    #[inline(always)]
    fn row(self, words: &[u64]) -> [u64; N] {
        *<&[u64; N]>::try_from(words).expect("kernel operand length mismatch")
    }

    #[inline(always)]
    fn union_count(self, a: [u64; N], b: [u64; N]) -> u32 {
        (0..N).map(|i| (a[i] | b[i]).count_ones()).sum()
    }
}

impl RowWidth for AnyLimbs {
    type Row<'a> = &'a [u64];

    #[inline(always)]
    fn limbs(self) -> usize {
        self.0
    }

    #[inline(always)]
    fn row(self, words: &[u64]) -> &[u64] {
        words
    }

    #[inline(always)]
    fn union_count(self, a: &[u64], b: &[u64]) -> u32 {
        union_count(a, b)
    }
}

/// Evaluates `$body` with `$w` bound to the [`RowWidth`] of `$limbs`-limb
/// rows: [`Limbs<1>`], [`Limbs<2>`], or [`AnyLimbs`] from 3 limbs on. The
/// body is compiled once per arm, so a row loop written once, generic over
/// the width, gets a fixed-width copy for the two common widths.
macro_rules! with_row_width {
    ($limbs:expr, $w:ident => $body:expr) => {
        match $limbs {
            1 => {
                let $w = $crate::kernels::Limbs::<1>;
                $body
            }
            2 => {
                let $w = $crate::kernels::Limbs::<2>;
                $body
            }
            limbs => {
                let $w = $crate::kernels::AnyLimbs(limbs);
                $body
            }
        }
    };
}
pub(crate) use with_row_width;

/// Hints the CPU to start loading `slice[index]` into cache; returns at
/// once, reads nothing and changes no value. An index walk whose every
/// entry is a dependent jump into a large arena calls this for the entry a
/// few iterations ahead, so the misses overlap instead of queueing.
///
/// Any `index` is accepted — past the end, `usize::MAX` — and an empty
/// slice too: the address is formed without being dereferenced. A no-op
/// off x86-64.
///
/// This is the crate's second audited exemption from `deny(unsafe_code)`
/// (the first is `snapshot::cast`).
#[allow(unsafe_code)]
#[inline(always)]
pub fn prefetch_read<T>(slice: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let address = slice.as_ptr().wrapping_add(index).cast::<i8>();
        // SAFETY: `_mm_prefetch` needs SSE, which every x86-64 target has.
        // PREFETCHT0 is a hint: it performs no architectural read and never
        // faults, whatever the address (unmapped, misaligned, wrapped), and
        // `wrapping_add` forms that address without the in-bounds
        // obligation of `add`. Nothing is dereferenced.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(address) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, index);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn scalar_count(words: &[u64]) -> u32 {
        words.iter().map(|w| w.count_ones()).sum()
    }

    #[test]
    fn empty_slices() {
        assert_eq!(count_ones(&[]), 0);
        assert_eq!(union_count(&[], &[]), 0);
        assert_eq!(or_assign_count(&mut [], &[]), 0);
    }

    #[test]
    fn exact_chunk_and_ragged_tail() {
        // 8 limbs (one exact chunk), then 9 and 23 (ragged tails).
        for len in [1usize, 7, 8, 9, 16, 23] {
            let a: Vec<u64> = (0..len as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            assert_eq!(count_ones(&a), scalar_count(&a), "len {len}");
        }
    }

    /// The prefetch is a hint on an address that is never dereferenced:
    /// no index can fault, and the slice is left as it was.
    #[test]
    fn prefetch_read_accepts_any_index() {
        let empty: [u64; 0] = [];
        for index in [0, 1, usize::MAX] {
            prefetch_read(&empty, index);
        }
        let words = [1u64, 2, 3];
        for index in [
            0,
            2,
            words.len(),
            words.len() + 1,
            usize::MAX / 8,
            usize::MAX,
        ] {
            prefetch_read(&words, index);
        }
        let bytes = [7u8; 5];
        prefetch_read(&bytes, usize::MAX);
        assert_eq!(words, [1, 2, 3]);
        assert_eq!(bytes, [7; 5]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn union_length_mismatch_panics() {
        let _ = union_count(&[0], &[0, 0]);
    }

    proptest! {
        #[test]
        fn kernels_match_scalar(
            pairs in proptest::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 0..40)
        ) {
            let a: Vec<u64> = pairs.iter().map(|p| p.0).collect();
            let b: Vec<u64> = pairs.iter().map(|p| p.1).collect();
            prop_assert_eq!(count_ones(&a), scalar_count(&a));
            prop_assert_eq!(
                union_count(&a, &b),
                a.iter().zip(&b).map(|(x, y)| (x | y).count_ones()).sum::<u32>()
            );
            let mut acc = a.clone();
            let fused = or_assign_count(&mut acc, &b);
            let expected: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x | y).collect();
            prop_assert_eq!(&acc, &expected);
            prop_assert_eq!(fused, scalar_count(&expected));
        }
    }
}
