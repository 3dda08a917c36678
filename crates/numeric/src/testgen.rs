//! Generators for the unit tests that check each single-limb fast path
//! against its multi-limb fallback. They lean on the edges where a word
//! path could go wrong: exact bit widths (so 47–49-bit denominators, the
//! `u128` limit of `Rat::to_f64`, come up often), values a few steps from
//! 2^53, 2^63 and `u64::MAX`, zero, negatives, and two-limb values that
//! must take the fallback.

use crate::{BigInt, Sign};
use cso_runtime::prop::{bool_any, int_in, one_of, u64_in, zip2, Config, Gen};

/// More cases than the default: each case is a few word operations.
pub(crate) fn config() -> Config {
    Config { cases: 4000, ..Config::default() }
}

/// A machine word biased to the fast paths' edges.
pub(crate) fn arb_word() -> Gen<u64> {
    let near = |c: u64| int_in(-3, 3).map(move |o| c.wrapping_add_signed(o));
    one_of(vec![
        // Exactly `w` significant bits.
        zip2(int_in(1, 64), u64_in(0, u64::MAX)).map(|(w, r)| {
            let w = w as u32;
            (r >> (64 - w)) | (1u64 << (w - 1))
        }),
        zip2(int_in(45, 50), u64_in(0, u64::MAX)).map(|(w, r)| {
            let w = w as u32;
            (r >> (64 - w)) | (1u64 << (w - 1))
        }),
        near(0),
        near(1 << 53),
        near(1 << 63),
        near(u64::MAX),
        u64_in(0, 2_000_000),
    ])
}

/// A magnitude of zero, one or two limbs, as a signed `BigInt`.
pub(crate) fn arb_bigint() -> Gen<BigInt> {
    let one = || arb_word().map(|w| vec![w]);
    let mag = one_of(vec![
        one(),
        one(),
        one(),
        one(),
        zip2(arb_word(), arb_word()).map(|(lo, hi)| vec![lo, hi]),
    ]);
    zip2(bool_any(), mag).map(|(neg, mag)| {
        let v = mag.iter().rev().fold(BigInt::zero(), |acc, &w| &acc.shl(64) + &BigInt::from(w));
        if neg {
            -v
        } else {
            v
        }
    })
}

/// A nonzero signed `BigInt`, mostly one limb.
pub(crate) fn arb_nonzero() -> Gen<BigInt> {
    zip2(arb_bigint(), bool_any()).map(|(v, neg)| {
        if v.is_zero() {
            BigInt::from_small(if neg { Sign::Minus } else { Sign::Plus }, 1)
        } else {
            v
        }
    })
}
