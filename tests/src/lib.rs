//! Integration-test support crate.
//!
//! The actual integration tests live in `tests/tests/*.rs`; this library only
//! hosts small shared helpers for them.

/// Builds a deterministic experiment seed for integration tests.
///
/// Keeping the seed derivation in one place means every integration test that
/// wants reproducible output agrees on the same seeding scheme.
pub fn test_seed(case: &str) -> u64 {
    // FNV-1a over the case name: stable across runs and platforms.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in case.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One mangling of `bytes`, as hostile-input properties draw them: cut at
/// `at`, flip bit `bit` of the byte at `at`, or splice `junk` in at `at`
/// (by `how`). `at` wraps to the input's length.
pub fn mangle(mut bytes: Vec<u8>, how: u8, at: usize, bit: u8, junk: Vec<u8>) -> Vec<u8> {
    let at = at % (bytes.len() + 1);
    match how {
        0 => bytes.truncate(at),
        1 if at < bytes.len() => bytes[at] ^= 1 << bit,
        1 => {}
        _ => {
            bytes.splice(at..at, junk);
        }
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::test_seed;

    #[test]
    fn seed_is_deterministic() {
        assert_eq!(test_seed("abc"), test_seed("abc"));
        assert_ne!(test_seed("abc"), test_seed("abd"));
    }
}
