//! FNV-1a, the workspace's one non-cryptographic hash: frame
//! checksums (32-bit), trace and span ids, and the serve breaker's
//! spec fingerprints (64-bit). Stable forever, since its outputs are
//! persisted in journals and on the wire.

/// 32-bit FNV-1a of `bytes`.
#[must_use]
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// 64-bit FNV-1a of `bytes`.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a32(b""), 0x811c_9dc5);
        assert_eq!(fnv1a32(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a32(b"foobar"), 0xbf9c_f968);
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn trace_ids_stay_bit_identical() {
        // The serve daemon mints a job's trace id from its id and each
        // attempt's root-span id from `ID#ATTEMPT`.
        assert_eq!(fnv1a64(b"job-0001"), 0x1fd5_564f_322c_9b40);
        assert_eq!(fnv1a64(b"job-0001#1"), 0x8963_b185_cdb3_5898);
    }
}
