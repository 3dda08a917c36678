//! A stable 64-bit hasher (FNV-1a) for keys that must hash identically
//! across processes and runs.
//!
//! `std::collections::HashMap`'s default hasher is randomized per process,
//! and `DefaultHasher`'s algorithm is explicitly unspecified across
//! releases. The engine derives each query's *solver seed* from a content
//! salt, a hash of everything that defines the query, so the hash must be
//! a fixed function of the bytes fed to it — anything else would make
//! synthesis trajectories depend on the run environment.
//!
//! `Fnv64` implements [`std::hash::Hasher`], so any `#[derive(Hash)]` type
//! can be folded into it with `value.hash(&mut h)`.

use std::hash::Hasher;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, 64-bit: deterministic, order-sensitive, allocation-free.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64 { state: FNV_OFFSET }
    }
}

impl Fnv64 {
    /// A fresh hasher at the standard FNV offset basis.
    #[must_use]
    pub fn new() -> Fnv64 {
        Fnv64::default()
    }

    /// Hash one `Hash` value from a fresh state.
    #[must_use]
    pub fn hash_one<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
        let mut h = Fnv64::new();
        value.hash(&mut h);
        h.finish()
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Reference FNV-1a values (raw writes; `str`'s Hash impl adds a
        // terminator byte, so `hash_one` is only compared to itself).
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn stable_and_order_sensitive() {
        assert_eq!(Fnv64::hash_one(&(1u64, 2u64)), Fnv64::hash_one(&(1u64, 2u64)));
        assert_ne!(Fnv64::hash_one(&(1u64, 2u64)), Fnv64::hash_one(&(2u64, 1u64)));
    }
}
