//! SplitMix64: the benchmark's own PRNG, so request streams and derived
//! seeds depend on nothing but `--seed` (not on the vendored `rand`
//! stand-in the crates under test happen to use).

/// The first output of the stream seeded with `x`: a one-shot hash.
pub fn mix(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

/// Derives an independent sub-seed of `seed` for the purpose `lane`.
pub fn derive(seed: u64, lane: u64) -> u64 {
    mix(mix(seed) ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`); the modulo bias is below
    /// `bound / 2^64`, irrelevant for node ids.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn derived_lanes_are_distinct() {
        let lanes: Vec<u64> = (0..6).map(|l| derive(42, l)).collect();
        for i in 0..lanes.len() {
            for j in i + 1..lanes.len() {
                assert_ne!(lanes[i], lanes[j]);
            }
        }
        assert_eq!(derive(42, 3), derive(42, 3));
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix64::new(1);
        assert!((0..1000).all(|_| r.below(17) < 17));
    }
}
