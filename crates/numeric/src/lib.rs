//! Exact and interval arithmetic substrate for the `compsynth` workspace.
//!
//! This crate provides the three numeric foundations every other crate in the
//! workspace builds on:
//!
//! * [`BigInt`] — arbitrary-precision signed integers. The exact simplex
//!   solver in `cso-lp` pivots rational tableaus whose entries grow without
//!   bound, so fixed-width integers are not an option.
//! * [`Rat`] — arbitrary-precision rationals (always normalized). Used for
//!   exact model certification in the `cso-logic` solver, exact LP solving,
//!   and anywhere a result must be bit-for-bit reproducible.
//! * [`Interval`] — outward-rounded `f64` intervals. Used by the
//!   branch-and-prune solver in `cso-logic` to soundly over-approximate the
//!   range of nonlinear terms over boxes.
//!
//! The split mirrors how δ-complete solvers such as dReal are built: fast
//! floating-point interval pruning, with exact arithmetic reserved for the
//! final certificates.
//!
//! # Example
//!
//! ```
//! use cso_numeric::{BigInt, Rat, Interval};
//!
//! let a = Rat::from_int(1) / Rat::from_int(3);
//! let b = Rat::new(BigInt::from(2), BigInt::from(6));
//! assert_eq!(a, b); // rationals are always normalized
//!
//! let x = Interval::new(1.0, 2.0);
//! let y = x * x; // outward rounded: certainly contains [1, 4]
//! assert!(y.contains_f64(1.0) && y.contains_f64(4.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bigint;
pub mod interval;
pub mod rational;
#[cfg(test)]
mod testgen;

pub use bigint::BigInt;
pub use interval::{Interval, IntervalLanes};
pub use rational::{words_to_f64, Rat};

/// Sign of a number: negative, zero or positive.
///
/// Stored explicitly on [`BigInt`] so the magnitude can stay unsigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sign {
    /// Strictly negative.
    Minus,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Plus,
}

impl Sign {
    /// Flip the sign; zero stays zero.
    #[must_use]
    pub fn negate(self) -> Sign {
        match self {
            Sign::Minus => Sign::Plus,
            Sign::Zero => Sign::Zero,
            Sign::Plus => Sign::Minus,
        }
    }

    /// Product-of-signs rule. An inherent method rather than `std::ops::Mul`
    /// so sign algebra stays visually distinct from numeric multiplication.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Sign) -> Sign {
        match (self, other) {
            (Sign::Zero, _) | (_, Sign::Zero) => Sign::Zero,
            (Sign::Plus, Sign::Plus) | (Sign::Minus, Sign::Minus) => Sign::Plus,
            _ => Sign::Minus,
        }
    }

    /// `+1`, `0` or `-1` as an `i32`.
    #[must_use]
    pub fn to_i32(self) -> i32 {
        match self {
            Sign::Minus => -1,
            Sign::Zero => 0,
            Sign::Plus => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_negate() {
        assert_eq!(Sign::Plus.negate(), Sign::Minus);
        assert_eq!(Sign::Minus.negate(), Sign::Plus);
        assert_eq!(Sign::Zero.negate(), Sign::Zero);
    }

    #[test]
    fn sign_mul_table() {
        assert_eq!(Sign::Plus.mul(Sign::Plus), Sign::Plus);
        assert_eq!(Sign::Plus.mul(Sign::Minus), Sign::Minus);
        assert_eq!(Sign::Minus.mul(Sign::Minus), Sign::Plus);
        assert_eq!(Sign::Zero.mul(Sign::Minus), Sign::Zero);
        assert_eq!(Sign::Plus.mul(Sign::Zero), Sign::Zero);
    }

    #[test]
    fn sign_to_i32() {
        assert_eq!(Sign::Plus.to_i32(), 1);
        assert_eq!(Sign::Zero.to_i32(), 0);
        assert_eq!(Sign::Minus.to_i32(), -1);
    }
}
