//! Per-shard RNG seeds.
//!
//! A computation split into independent pieces seeds each piece from
//! [`shard_seed`]`(base_seed, ordinal)`, where the ordinal is the
//! piece's position in the sequential loop the split replaces, never a
//! thread id or a scheduling order. Together with the pool's ordered
//! delivery this is what makes engine output independent of worker
//! count.

/// Derives the RNG seed for one shard from `(seed, shard)`.
///
/// Uses the SplitMix64 finalizer over `seed ^ shard * φ64` so that
/// neighbouring shard ids map to statistically independent streams and
/// a change to either input flips the whole output word.
#[must_use]
pub fn shard_seed(seed: u64, shard: u64) -> u64 {
    let mut z = seed ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_seed_is_stable_and_distinct() {
        let a = shard_seed(20090, 0);
        let b = shard_seed(20090, 1);
        let c = shard_seed(20091, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Stability: the exact values are part of the reproducibility
        // contract — artifacts depend on them.
        assert_eq!(a, shard_seed(20090, 0));
    }
}
