use crate::kernels;

/// Compact bitset over the members of one community.
///
/// A RIC sample stores, for every node it contains, *which community
/// members* that node can reach (`R_g(·)` inverted). Community sizes are
/// small after the paper's `s`-cap (default 8), so the common case is a
/// single inline `u64`; larger communities fall back to a boxed limb array.
///
/// This is how a cover is built by hand (test fixtures) and handed over
/// (in a [`RicSample`](crate::RicSample)); a [`RicStore`](crate::RicStore)
/// keeps covers as packed limbs in one arena ([`words`](Self::words) /
/// [`from_words`](Self::from_words) convert), and every union and count
/// the solvers do runs on those limbs through [`crate::kernels`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CoverSet {
    /// Communities with at most 64 members.
    Small(u64),
    /// Arbitrary width; limbs in little-endian bit order.
    Large(Box<[u64]>),
}

impl CoverSet {
    /// An empty set able to hold `width` bits.
    pub fn new(width: usize) -> Self {
        if width <= 64 {
            CoverSet::Small(0)
        } else {
            CoverSet::Large(vec![0u64; width.div_ceil(64)].into_boxed_slice())
        }
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the width the set was created with.
    #[inline]
    pub fn set(&mut self, i: usize) {
        match self {
            CoverSet::Small(w) => {
                assert!(i < 64, "bit {i} out of range for small cover set");
                *w |= 1u64 << i;
            }
            CoverSet::Large(limbs) => limbs[i / 64] |= 1u64 << (i % 64),
        }
    }

    /// Tests bit `i` (out-of-range bits read as 0 for `Small`).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        match self {
            CoverSet::Small(w) => i < 64 && (*w >> i) & 1 == 1,
            CoverSet::Large(limbs) => limbs.get(i / 64).is_some_and(|l| (*l >> (i % 64)) & 1 == 1),
        }
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        match self {
            CoverSet::Small(w) => w.count_ones(),
            CoverSet::Large(limbs) => kernels::count_ones(limbs),
        }
    }

    /// The backing `u64` limbs, little-endian bit order. A `Small` set
    /// exposes its single word; this is the bridge between the enum
    /// representation and flat arena storage ([`crate::RicStore`]).
    #[inline]
    pub fn words(&self) -> &[u64] {
        match self {
            CoverSet::Small(w) => std::slice::from_ref(w),
            CoverSet::Large(limbs) => limbs,
        }
    }

    /// Rebuilds a set of the given `width` from raw limbs (the inverse of
    /// [`words`](Self::words)).
    ///
    /// # Panics
    ///
    /// Panics when `words.len()` differs from the limb count `width`
    /// implies (`max(1, ⌈width/64⌉)`).
    pub fn from_words(width: usize, words: &[u64]) -> CoverSet {
        let limbs = width.div_ceil(64).max(1);
        assert_eq!(words.len(), limbs, "cover set width mismatch");
        if width <= 64 {
            CoverSet::Small(words[0])
        } else {
            CoverSet::Large(words.to_vec().into_boxed_slice())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_set_get() {
        let mut s = CoverSet::new(8);
        assert!(matches!(s, CoverSet::Small(_)));
        s.set(0);
        s.set(7);
        assert!(s.get(0) && s.get(7) && !s.get(3));
        assert_eq!(s.count_ones(), 2);
    }

    #[test]
    fn large_set_get() {
        let mut s = CoverSet::new(130);
        assert!(matches!(s, CoverSet::Large(_)));
        s.set(0);
        s.set(64);
        s.set(129);
        assert!(s.get(0) && s.get(64) && s.get(129) && !s.get(128));
        assert_eq!(s.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn small_set_bit_out_of_range_panics() {
        let mut s = CoverSet::new(8);
        s.set(64);
    }

    #[test]
    fn words_round_trip() {
        let mut small = CoverSet::new(8);
        small.set(0);
        small.set(5);
        assert_eq!(small.words(), &[0b100001u64]);
        assert_eq!(CoverSet::from_words(8, small.words()), small);

        let mut large = CoverSet::new(130);
        large.set(64);
        large.set(129);
        assert_eq!(large.words().len(), 3);
        assert_eq!(CoverSet::from_words(130, large.words()), large);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn from_words_wrong_limb_count_panics() {
        let _ = CoverSet::from_words(130, &[0, 0]);
    }

    #[test]
    fn boundary_width_64_is_small() {
        let s = CoverSet::new(64);
        assert!(matches!(s, CoverSet::Small(_)));
        let s = CoverSet::new(65);
        assert!(matches!(s, CoverSet::Large(_)));
    }
}
