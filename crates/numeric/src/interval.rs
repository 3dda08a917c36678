//! Outward-rounded floating-point interval arithmetic.
//!
//! [`Interval`] represents a closed interval `[lo, hi]` of reals with `f64`
//! endpoints. Every arithmetic operation rounds its lower endpoint down and
//! its upper endpoint up by one ulp ([`round_down`] / [`round_up`]), so the
//! result is a *sound over-approximation* of the exact real interval. That
//! soundness is what lets the branch-and-prune solver in `cso-logic`
//! *prove* that a constraint has no solution in a box: if the outward-rounded evaluation of
//! `t` over the box misses the constraint's satisfying set entirely, no real
//! point in the box can satisfy it.
//!
//! Infinite endpoints are permitted (division by an interval containing zero
//! yields the whole line); NaN is never produced for non-empty inputs.
//!
//! [`IntervalLanes`] holds `N` intervals as two endpoint arrays and applies
//! each operation lane by lane. Both forms compute every endpoint through
//! the same per-endpoint functions, so lane `k` of a lane operation is bit
//! for bit the scalar operation on lane `k`'s operands. The per-lane work
//! is branch-free (selects on float compares), so the compiler can
//! vectorize the lane loops.
//!
//! No subnormal operand reaches the floating-point multiplier. Box edges at
//! zero round outward to `±MIN_SUBNORMAL`, and on many x86 cores a product
//! with a subnormal operand takes a microcode assist of tens of
//! nanoseconds. Such a product is computed on the integer significands
//! instead, rounded to nearest-even exactly as the hardware rounds, so the
//! results stay bit-identical. A lane `mul` checks its live lanes once and
//! keeps the branch-free loop when none holds a subnormal.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A closed interval `[lo, hi]` with `lo <= hi` (endpoints may be infinite).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

const SIGN: u64 = 1 << 63;

/// The next `f64` below `x`: bit-identical to `x.next_down()` for every
/// input, `-∞` and NaN returned unchanged. In particular `+∞` rounds down
/// to `f64::MAX`: a lower endpoint of `+∞` only arises from a finite
/// computation that overflowed, and the exact value is below it.
/// Branchless (two selects on float compares), so lane loops that call it
/// vectorize.
#[inline(always)]
#[must_use]
pub fn round_down(x: f64) -> f64 {
    let bits = x.to_bits();
    // A positive value steps its magnitude down; zero and negative values
    // step it up with the sign set (so both zeros go to `-MIN_SUBNORMAL`).
    let stepped = if x > 0.0 { bits.wrapping_sub(1) } else { (bits | SIGN).wrapping_add(1) };
    if x > f64::NEG_INFINITY {
        f64::from_bits(stepped)
    } else {
        x
    }
}

/// The next `f64` above `x`: bit-identical to `x.next_up()` for every
/// input (`-∞` rounds up to `-f64::MAX`). Defined through [`round_down`],
/// so outward rounding has one definition.
#[inline(always)]
#[must_use]
pub fn round_up(x: f64) -> f64 {
    -round_down(-x)
}

impl Interval {
    /// Construct `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or either endpoint is NaN.
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Interval {
        assert!(!lo.is_nan() && !hi.is_nan(), "Interval endpoint is NaN");
        assert!(lo <= hi, "Interval with lo > hi: [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The degenerate interval `[x, x]`.
    #[must_use]
    pub fn point(x: f64) -> Interval {
        Interval::new(x, x)
    }

    /// The whole real line `[-inf, +inf]`.
    #[must_use]
    pub fn whole() -> Interval {
        Interval { lo: f64::NEG_INFINITY, hi: f64::INFINITY }
    }

    /// Lower endpoint.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Width `hi - lo` (may be infinite).
    #[must_use]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint, clamped to finite values for infinite intervals.
    #[must_use]
    pub fn midpoint(&self) -> f64 {
        if self.lo.is_infinite() && self.hi.is_infinite() {
            return 0.0;
        }
        if self.lo.is_infinite() {
            return self.hi - 1.0;
        }
        if self.hi.is_infinite() {
            return self.lo + 1.0;
        }
        let m = self.lo / 2.0 + self.hi / 2.0;
        m.clamp(self.lo, self.hi)
    }

    /// `true` iff `x` lies within the interval.
    #[must_use]
    pub fn contains_f64(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// `true` iff the interval contains zero.
    #[must_use]
    pub fn contains_zero(&self) -> bool {
        self.contains_f64(0.0)
    }

    /// `true` iff `other` is entirely within `self`.
    #[must_use]
    pub fn contains(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Intersection, or `None` if disjoint.
    #[must_use]
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }

    /// Smallest interval containing both.
    #[must_use]
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Split at the midpoint into two halves.
    #[must_use]
    pub fn bisect(&self) -> (Interval, Interval) {
        let m = self.midpoint();
        (Interval { lo: self.lo, hi: m }, Interval { lo: m, hi: self.hi })
    }

    /// `true` iff every point in `self` is `< x`.
    #[must_use]
    pub fn certainly_lt(&self, x: f64) -> bool {
        self.hi < x
    }

    /// `true` iff every point in `self` is `<= x`.
    #[must_use]
    pub fn certainly_le(&self, x: f64) -> bool {
        self.hi <= x
    }

    /// `true` iff every point in `self` is `> x`.
    #[must_use]
    pub fn certainly_gt(&self, x: f64) -> bool {
        self.lo > x
    }

    /// `true` iff every point in `self` is `>= x`.
    #[must_use]
    pub fn certainly_ge(&self, x: f64) -> bool {
        self.lo >= x
    }

    /// Minimum of two intervals (pointwise set image of `min`).
    #[must_use]
    pub fn min_i(&self, other: &Interval) -> Interval {
        Interval { lo: self.lo.min(other.lo), hi: self.hi.min(other.hi) }
    }

    /// Maximum of two intervals (pointwise set image of `max`).
    #[must_use]
    pub fn max_i(&self, other: &Interval) -> Interval {
        Interval { lo: self.lo.max(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Absolute-value image.
    #[must_use]
    pub fn abs_i(&self) -> Interval {
        if self.lo >= 0.0 {
            *self
        } else if self.hi <= 0.0 {
            Interval { lo: -self.hi, hi: -self.lo }
        } else {
            Interval { lo: 0.0, hi: self.hi.max(-self.lo) }
        }
    }
}

impl Neg for Interval {
    type Output = Interval;
    fn neg(self) -> Interval {
        Interval { lo: -self.hi, hi: -self.lo }
    }
}

/// Multiply endpoints treating `0 * inf` as `0` (correct for interval
/// arithmetic where an exact zero endpoint annihilates). Branch-free apart
/// from the select, so lane loops vectorize; an operand that is subnormal
/// costs a microcode assist on many x86 cores, so callers route those
/// through [`mul_ep_exact`] instead.
#[inline(always)]
fn mul_ep(a: f64, b: f64) -> f64 {
    if a == 0.0 || b == 0.0 {
        0.0
    } else {
        a * b
    }
}

/// `true` iff `x` is a nonzero subnormal (either sign). Float compares
/// only, so a lane loop over it vectorizes.
#[inline(always)]
fn is_subnormal(x: f64) -> bool {
    (x.abs() < f64::MIN_POSITIVE) & (x != 0.0)
}

/// [`mul_ep`], with a product that has a subnormal operand computed on
/// integers: no subnormal reaches the floating-point multiplier.
#[inline(always)]
fn mul_ep_exact(a: f64, b: f64) -> f64 {
    if a == 0.0 || b == 0.0 {
        0.0
    } else if is_subnormal(a) || is_subnormal(b) {
        mul_subnormal(a, b)
    } else {
        a * b
    }
}

/// `a * b` for nonzero `a`, `b` with at least one subnormal operand,
/// bit-identical to the IEEE product under round-to-nearest-even: the
/// exact product of the two integer significands (at most 106 bits) is
/// rounded once, into the subnormal or the normal range. Such a product
/// has magnitude below 4, so it never overflows.
#[cold]
#[inline(never)]
fn mul_subnormal(a: f64, b: f64) -> f64 {
    let sign = (a.to_bits() ^ b.to_bits()) & SIGN;
    if a.is_nan() || b.is_nan() {
        return a + b;
    }
    if a.is_infinite() || b.is_infinite() {
        return f64::from_bits(sign | f64::INFINITY.to_bits());
    }
    // `x = m · 2^e` with an integer significand `m`.
    let split = |x: f64| {
        let bits = x.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32;
        let frac = bits & ((1 << 52) - 1);
        if exp == 0 {
            (frac, -1074)
        } else {
            (frac | (1 << 52), exp - 1075)
        }
    };
    let ((ma, ea), (mb, eb)) = (split(a), split(b));
    let p = u128::from(ma) * u128::from(mb);
    let e = ea + eb;
    // The result's quantum: 53 significant bits, but never below 2^-1074.
    let top = 127 - p.leading_zeros() as i32 + e;
    let q = (top - 52).max(-1074);
    let drop = q - e;
    let m = if drop <= 0 {
        (p << -drop) as u64
    } else if drop >= 128 {
        0
    } else {
        let kept = p >> drop;
        let rest = p & ((1 << drop) - 1);
        let half = 1u128 << (drop - 1);
        let up = rest > half || (rest == half && kept & 1 == 1);
        (kept + u128::from(up)) as u64
    };
    // `m < 2^53` carries its leading bit into the exponent field, which
    // also moves a subnormal that rounded up to 2^52 into the normal range.
    f64::from_bits(sign | ((((q + 1074) as u64) << 52) + m))
}

// Per-endpoint definitions of the rounded operations, shared by the scalar
// operators and the lane loops: `(alo, ahi) op (blo, bhi) -> (lo, hi)`.

#[inline(always)]
fn add_ep(alo: f64, ahi: f64, blo: f64, bhi: f64) -> (f64, f64) {
    (round_down(alo + blo), round_up(ahi + bhi))
}

#[inline(always)]
fn sub_ep(alo: f64, ahi: f64, blo: f64, bhi: f64) -> (f64, f64) {
    add_ep(alo, ahi, -bhi, -blo)
}

#[inline(always)]
fn hull4(c: [f64; 4]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for x in c {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    (round_down(lo), round_up(hi))
}

#[inline(always)]
fn mul_ep4(alo: f64, ahi: f64, blo: f64, bhi: f64) -> (f64, f64) {
    hull4([mul_ep(alo, blo), mul_ep(alo, bhi), mul_ep(ahi, blo), mul_ep(ahi, bhi)])
}

#[inline(always)]
fn mul_ep4_exact(alo: f64, ahi: f64, blo: f64, bhi: f64) -> (f64, f64) {
    hull4([
        mul_ep_exact(alo, blo),
        mul_ep_exact(alo, bhi),
        mul_ep_exact(ahi, blo),
        mul_ep_exact(ahi, bhi),
    ])
}

#[inline(always)]
fn div_ep4(alo: f64, ahi: f64, blo: f64, bhi: f64) -> (f64, f64) {
    let (lo, hi) = hull4([alo / blo, alo / bhi, ahi / blo, ahi / bhi]);
    // A divisor containing zero makes the image unbounded (or undefined at
    // a point); the sound over-approximation is the whole line.
    if blo <= 0.0 && 0.0 <= bhi {
        (f64::NEG_INFINITY, f64::INFINITY)
    } else {
        (lo, hi)
    }
}

impl Add for Interval {
    type Output = Interval;
    fn add(self, rhs: Interval) -> Interval {
        let (lo, hi) = add_ep(self.lo, self.hi, rhs.lo, rhs.hi);
        Interval { lo, hi }
    }
}

impl Sub for Interval {
    type Output = Interval;
    fn sub(self, rhs: Interval) -> Interval {
        let (lo, hi) = sub_ep(self.lo, self.hi, rhs.lo, rhs.hi);
        Interval { lo, hi }
    }
}

impl Mul for Interval {
    type Output = Interval;
    fn mul(self, rhs: Interval) -> Interval {
        let (lo, hi) = mul_ep4_exact(self.lo, self.hi, rhs.lo, rhs.hi);
        Interval { lo, hi }
    }
}

impl Div for Interval {
    type Output = Interval;
    fn div(self, rhs: Interval) -> Interval {
        let (lo, hi) = div_ep4(self.lo, self.hi, rhs.lo, rhs.hi);
        Interval { lo, hi }
    }
}

/// Run `lane(k)` for `k` in `0..min(n, N)`. A full batch runs a loop of
/// constant trip count `N`, which the compiler unrolls and vectorizes; a
/// loop bounded only by `n <= N` it leaves scalar, which suits a partial
/// batch of a lane or two.
#[inline(always)]
pub fn for_each_lane<const N: usize>(n: usize, mut lane: impl FnMut(usize)) {
    if n >= N {
        (0..N).for_each(&mut lane);
    } else {
        (0..n).for_each(lane);
    }
}

/// Up to `N` intervals in structure-of-arrays form: lane `k` is
/// `[lo[k], hi[k]]`. Each operation writes lanes `0..n` of `out` with
/// exactly the endpoint arithmetic of the matching [`Interval`] operation,
/// so every lane is bit-identical to the scalar result, and leaves lanes
/// `n..N` as they were. Lanes are not validated: a lane holding `lo > hi`
/// or NaN computes garbage for that lane only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalLanes<const N: usize> {
    /// Lower endpoints.
    pub lo: [f64; N],
    /// Upper endpoints.
    pub hi: [f64; N],
}

impl<const N: usize> Default for IntervalLanes<N> {
    fn default() -> Self {
        IntervalLanes { lo: [0.0; N], hi: [0.0; N] }
    }
}

impl<const N: usize> IntervalLanes<N> {
    /// Every lane set to `iv`.
    #[must_use]
    pub fn splat(iv: Interval) -> Self {
        IntervalLanes { lo: [iv.lo; N], hi: [iv.hi; N] }
    }

    /// Store `iv` in lane `k`.
    pub fn set(&mut self, k: usize, iv: Interval) {
        self.lo[k] = iv.lo;
        self.hi[k] = iv.hi;
    }

    #[inline(always)]
    fn zip(
        &self,
        b: &Self,
        out: &mut Self,
        n: usize,
        f: impl Fn(f64, f64, f64, f64) -> (f64, f64),
    ) {
        for_each_lane::<N>(n, |k| {
            (out.lo[k], out.hi[k]) = f(self.lo[k], self.hi[k], b.lo[k], b.hi[k]);
        });
    }

    /// Lane-wise negation of lanes `0..n` (see `Neg for Interval`).
    pub fn neg(&self, out: &mut Self, n: usize) {
        for_each_lane::<N>(n, |k| (out.lo[k], out.hi[k]) = (-self.hi[k], -self.lo[k]));
    }

    /// Lane-wise outward-rounded sum of lanes `0..n` (see `Add for Interval`).
    pub fn add(&self, b: &Self, out: &mut Self, n: usize) {
        self.zip(b, out, n, add_ep);
    }

    /// Lane-wise outward-rounded difference of lanes `0..n` (see `Sub for
    /// Interval`).
    pub fn sub(&self, b: &Self, out: &mut Self, n: usize) {
        self.zip(b, out, n, sub_ep);
    }

    /// Lane-wise outward-rounded product of lanes `0..n` (see `Mul for
    /// Interval`). One pass over the live lanes looks for a subnormal
    /// endpoint; without one the branch-free loop runs, with one the whole
    /// call takes the exact path.
    pub fn mul(&self, b: &Self, out: &mut Self, n: usize) {
        let mut subnormal = false;
        for_each_lane::<N>(n, |k| {
            subnormal |= is_subnormal(self.lo[k])
                | is_subnormal(self.hi[k])
                | is_subnormal(b.lo[k])
                | is_subnormal(b.hi[k]);
        });
        if subnormal {
            self.zip(b, out, n, mul_ep4_exact);
        } else {
            self.zip(b, out, n, mul_ep4);
        }
    }

    /// Lane-wise outward-rounded quotient of lanes `0..n` (see `Div for
    /// Interval`).
    pub fn div(&self, b: &Self, out: &mut Self, n: usize) {
        self.zip(b, out, n, div_ep4);
    }

    /// Lane-wise [`Interval::min_i`] of lanes `0..n`.
    pub fn min(&self, b: &Self, out: &mut Self, n: usize) {
        self.zip(b, out, n, |alo, ahi, blo, bhi| (alo.min(blo), ahi.min(bhi)));
    }

    /// Lane-wise [`Interval::max_i`] of lanes `0..n`.
    pub fn max(&self, b: &Self, out: &mut Self, n: usize) {
        self.zip(b, out, n, |alo, ahi, blo, bhi| (alo.max(blo), ahi.max(bhi)));
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let i = Interval::new(-1.0, 2.0);
        assert_eq!(i.lo(), -1.0);
        assert_eq!(i.hi(), 2.0);
        assert_eq!(i.width(), 3.0);
        assert!(i.contains_zero());
        assert!(i.contains_f64(2.0));
        assert!(!i.contains_f64(2.0001));
    }

    #[test]
    #[should_panic(expected = "lo > hi")]
    fn inverted_panics() {
        let _ = Interval::new(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_panics() {
        let _ = Interval::new(f64::NAN, 1.0);
    }

    #[test]
    fn add_outward() {
        let a = Interval::new(0.1, 0.2);
        let b = Interval::new(0.3, 0.4);
        let c = a + b;
        // Must contain the exact real result despite rounding.
        assert!(c.lo() <= 0.4 && c.hi() >= 0.6);
        assert!(c.lo() < 0.1 + 0.3 + 1e-15);
    }

    #[test]
    fn sub_and_neg() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(0.5, 1.5);
        let c = a - b;
        assert!(c.contains_f64(-0.5) && c.contains_f64(1.5));
        assert_eq!((-a).lo(), -2.0);
        assert_eq!((-a).hi(), -1.0);
    }

    #[test]
    fn mul_sign_cases() {
        let pos = Interval::new(2.0, 3.0);
        let neg = Interval::new(-3.0, -2.0);
        let mix = Interval::new(-1.0, 2.0);
        assert!((pos * pos).contains(&Interval::new(4.0, 9.0)));
        assert!((pos * neg).contains(&Interval::new(-9.0, -4.0)));
        assert!((mix * mix).contains(&Interval::new(-2.0, 4.0)));
        assert!((neg * neg).contains(&Interval::new(4.0, 9.0)));
    }

    #[test]
    fn mul_zero_times_infinite() {
        let z = Interval::point(0.0);
        let w = Interval::whole();
        let p = z * w;
        assert!(!p.lo().is_nan() && !p.hi().is_nan());
        assert!(p.contains_zero());
    }

    #[test]
    fn div_no_zero() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(4.0, 8.0);
        let c = a / b;
        assert!(c.contains(&Interval::new(0.125, 0.5)));
    }

    #[test]
    fn div_across_zero_is_whole() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(-1.0, 1.0);
        assert_eq!(a / b, Interval::whole());
    }

    #[test]
    fn intersect_hull() {
        let a = Interval::new(0.0, 2.0);
        let b = Interval::new(1.0, 3.0);
        assert_eq!(a.intersect(&b), Some(Interval::new(1.0, 2.0)));
        assert_eq!(a.hull(&b), Interval::new(0.0, 3.0));
        let c = Interval::new(5.0, 6.0);
        assert_eq!(a.intersect(&c), None);
        // Touching intervals intersect in a point.
        let d = Interval::new(2.0, 4.0);
        assert_eq!(a.intersect(&d), Some(Interval::point(2.0)));
    }

    #[test]
    fn bisect_covers() {
        let i = Interval::new(0.0, 8.0);
        let (l, r) = i.bisect();
        assert_eq!(l.hi(), r.lo());
        assert_eq!(l.lo(), 0.0);
        assert_eq!(r.hi(), 8.0);
    }

    #[test]
    fn midpoint_infinite() {
        assert_eq!(Interval::whole().midpoint(), 0.0);
        let half = Interval::new(0.0, f64::INFINITY);
        assert!(half.contains_f64(half.midpoint()));
        let neg = Interval::new(f64::NEG_INFINITY, 0.0);
        assert!(neg.contains_f64(neg.midpoint()));
    }

    #[test]
    fn certainly_predicates() {
        let i = Interval::new(1.0, 2.0);
        assert!(i.certainly_gt(0.5));
        assert!(i.certainly_ge(1.0));
        assert!(i.certainly_lt(2.5));
        assert!(i.certainly_le(2.0));
        assert!(!i.certainly_gt(1.5));
        assert!(!i.certainly_lt(1.5));
    }

    #[test]
    fn min_max_abs() {
        let a = Interval::new(-2.0, 1.0);
        let b = Interval::new(0.0, 3.0);
        assert_eq!(a.min_i(&b), Interval::new(-2.0, 1.0));
        assert_eq!(a.max_i(&b), Interval::new(0.0, 3.0));
        assert_eq!(a.abs_i(), Interval::new(0.0, 2.0));
        assert_eq!(Interval::new(-3.0, -1.0).abs_i(), Interval::new(1.0, 3.0));
        assert_eq!(Interval::new(1.0, 3.0).abs_i(), Interval::new(1.0, 3.0));
    }
}
