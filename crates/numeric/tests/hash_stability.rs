//! Pins the `Hash` byte stream of `Rat`.
//!
//! Solver seeds are derived from `Fnv64` hashes of query content
//! (`Formula::hash` folds every rational constant), so a change to the
//! layout or derived `Hash` of `Rat`/`BigInt` silently re-seeds every solver
//! query and moves every synthesis trajectory. These constants were recorded
//! before the single-limb fast paths landed; a representation change must
//! fail here, not only in a golden CSV. (They assume a 64-bit little-endian
//! target, like the committed goldens.)

use cso_numeric::{BigInt, Rat};
use cso_runtime::hash::Fnv64;

#[test]
fn rat_hash_bytes_are_frozen() {
    let multi_limb = Rat::new(
        "123456789012345678901234567890123".parse::<BigInt>().unwrap(),
        BigInt::from(7i64).pow(30),
    );
    let cases = [
        (Rat::zero(), 0x1f8d_3679_011d_6486),
        (Rat::one(), 0x1bfa_f276_7251_cb65),
        (Rat::from_frac(-7, 3), 0xbd4b_c584_99f4_ed23),
        (Rat::from_f64(0.1).unwrap(), 0xbab7_36ab_c5c6_0d00),
        (Rat::from_frac(1_234_567, 1_000_000), 0x9938_976d_fca3_7da7),
        (multi_limb, 0x0bfe_f188_d1c9_9bbc),
    ];
    for (r, want) in cases {
        assert_eq!(Fnv64::hash_one(&r), want, "hash of {r} moved");
    }
}
