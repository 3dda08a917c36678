//! Arbitrary-precision signed integers.
//!
//! [`BigInt`] stores a sign and little-endian `u64` limbs with no trailing
//! zero limbs. All operations are total (no overflow); division by zero
//! panics, matching the standard library's integer semantics.
//!
//! Multi-limb operations favour simplicity over raw speed: schoolbook
//! multiplication, Knuth Algorithm D division and binary GCD on limb
//! vectors. Most numbers the solver touches fit one limb (sampled points
//! snapped to `k/10^6`, dyadic box bounds), so the hot kernels take
//! single-limb fast paths that compute in `u64`/`u128` and allocate at most
//! the final limbs: add, multiply, `div_rem` and Stein's GCD on words
//! (after one word-sized remainder when only one side is a word) here, and
//! `Rat::new`, `Rat::from_f64`, `Rat::to_f64`, `Rat`'s ordering, `Add` and
//! `Mul` in [`crate::rational`]. The multi-limb code stays the fallback,
//! and the unit tests check each fast path against it.
//!
//! A magnitude of one limb is stored inline ([`Limbs`]), so zero and
//! every one-word value (the common case) live in the `BigInt` itself
//! with no heap allocation; two or more limbs go to a heap vector. The
//! magnitude derefs to a limb slice either way, and the `mag_*` kernels
//! work on slices.
//!
//! The `Hash` bytes are frozen, not the layout: `Hash` writes `sign` and
//! then the limb slice, the same byte stream the earlier derived hash of
//! `sign` plus a `Vec<u64>` wrote. Solver seeds hash query constants
//! through it, so a different stream would re-seed every solver query;
//! `tests/hash_stability.rs` pins the bytes.

use crate::Sign;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, AddAssign, Deref, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

/// An arbitrary-precision signed integer.
///
/// Invariants:
/// * `mag` has no trailing zero limbs;
/// * `sign == Sign::Zero` iff `mag` is empty.
#[derive(Clone, PartialEq, Eq)]
pub struct BigInt {
    sign: Sign,
    /// Little-endian magnitude limbs.
    mag: Limbs,
}

/// A trimmed little-endian limb store: no limbs or one limb inline
/// (`Word(0)` is the empty magnitude), two or more on the heap. Each
/// magnitude has exactly one form, so the derived equality is equality of
/// the limb slices.
#[derive(Clone, PartialEq, Eq)]
enum Limbs {
    Word(u64),
    Heap(Vec<u64>),
}

impl Limbs {
    /// The store for trimmed limbs `v`; allocates nothing new.
    fn from_vec(v: Vec<u64>) -> Limbs {
        debug_assert!(v.last() != Some(&0), "untrimmed limbs");
        match *v.as_slice() {
            [] => Limbs::Word(0),
            [w] => Limbs::Word(w),
            _ => Limbs::Heap(v),
        }
    }
}

impl Deref for Limbs {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        match self {
            Limbs::Word(0) => &[],
            Limbs::Word(w) => std::slice::from_ref(w),
            Limbs::Heap(v) => v,
        }
    }
}

impl Hash for BigInt {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // A slice hashes as its length and then its elements: the byte
        // stream `tests/hash_stability.rs` pins.
        self.sign.hash(state);
        self.mag[..].hash(state);
    }
}

// ---------------------------------------------------------------------------
// Magnitude (unsigned) primitives. All operate on little-endian limb slices
// with no trailing zeros (except where noted) and return normalized vectors.
// ---------------------------------------------------------------------------

fn mag_trim(v: &mut Vec<u64>) {
    while v.last() == Some(&0) {
        v.pop();
    }
}

fn mag_cmp(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i].cmp(&b[i]);
        }
    }
    Ordering::Equal
}

fn mag_add(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for (i, &l) in long.iter().enumerate() {
        let s = short.get(i).copied().unwrap_or(0);
        let (x, c1) = l.overflowing_add(s);
        let (x, c2) = x.overflowing_add(carry);
        carry = u64::from(c1) + u64::from(c2);
        out.push(x);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// `a - b`; requires `a >= b`.
fn mag_sub(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert!(mag_cmp(a, b) != Ordering::Less, "mag_sub underflow");
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0u64;
    for (i, &av) in a.iter().enumerate() {
        let s = b.get(i).copied().unwrap_or(0);
        let (x, b1) = av.overflowing_sub(s);
        let (x, b2) = x.overflowing_sub(borrow);
        borrow = u64::from(b1) + u64::from(b2);
        out.push(x);
    }
    debug_assert_eq!(borrow, 0);
    mag_trim(&mut out);
    out
}

fn mag_mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let cur = u128::from(out[i + j]) + u128::from(ai) * u128::from(bj) + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let cur = u128::from(out[k]) + carry;
            out[k] = cur as u64;
            carry = cur >> 64;
            k += 1;
        }
    }
    mag_trim(&mut out);
    out
}

/// Shift left by `bits` (< 64) within limbs, appending a new top limb if needed.
fn mag_shl_small(a: &[u64], bits: u32) -> Vec<u64> {
    debug_assert!(bits < 64);
    if bits == 0 {
        return a.to_vec();
    }
    let mut out = Vec::with_capacity(a.len() + 1);
    let mut carry = 0u64;
    for &limb in a {
        out.push((limb << bits) | carry);
        carry = limb >> (64 - bits);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// Shift right by `bits` (< 64).
fn mag_shr_small(a: &[u64], bits: u32) -> Vec<u64> {
    debug_assert!(bits < 64);
    if bits == 0 {
        return a.to_vec();
    }
    let mut out = Vec::with_capacity(a.len());
    for i in 0..a.len() {
        let lo = a[i] >> bits;
        let hi = a.get(i + 1).map_or(0, |&n| n << (64 - bits));
        out.push(lo | hi);
    }
    mag_trim(&mut out);
    out
}

/// Divide magnitude by a single limb; returns (quotient, remainder).
fn mag_divrem_limb(a: &[u64], d: u64) -> (Vec<u64>, u64) {
    assert!(d != 0, "division by zero");
    let mut q = vec![0u64; a.len()];
    let mut rem = 0u128;
    for i in (0..a.len()).rev() {
        let cur = (rem << 64) | u128::from(a[i]);
        q[i] = (cur / u128::from(d)) as u64;
        rem = cur % u128::from(d);
    }
    mag_trim(&mut q);
    (q, rem as u64)
}

/// Knuth Algorithm D: divide `a` by multi-limb `d` (d.len() >= 2), returning
/// (quotient, remainder).
fn mag_divrem_knuth(a: &[u64], d: &[u64]) -> (Vec<u64>, Vec<u64>) {
    debug_assert!(d.len() >= 2);
    if mag_cmp(a, d) == Ordering::Less {
        return (Vec::new(), a.to_vec());
    }
    // D1: normalize so the top limb of the divisor has its high bit set.
    let shift = d.last().unwrap().leading_zeros();
    let mut u = mag_shl_small(a, shift);
    u.push(0); // guard limb
    let v = mag_shl_small(d, shift);
    let n = v.len();
    let m = u.len() - n - 1;
    let v_top = v[n - 1];
    let v_next = v[n - 2];
    let mut q = vec![0u64; m + 1];

    for j in (0..=m).rev() {
        // D3: estimate qhat from the top two limbs of the current window.
        let top = (u128::from(u[j + n]) << 64) | u128::from(u[j + n - 1]);
        let mut qhat = top / u128::from(v_top);
        let mut rhat = top % u128::from(v_top);
        while qhat >= (1u128 << 64)
            || qhat * u128::from(v_next) > ((rhat << 64) | u128::from(u[j + n - 2]))
        {
            qhat -= 1;
            rhat += u128::from(v_top);
            if rhat >= (1u128 << 64) {
                break;
            }
        }
        // D4: multiply and subtract qhat * v from the window u[j .. j+n].
        let mut borrow = 0i128;
        let mut carry = 0u128;
        for i in 0..n {
            let p = qhat * u128::from(v[i]) + carry;
            carry = p >> 64;
            let sub = i128::from(u[j + i]) - i128::from(p as u64) - borrow;
            if sub < 0 {
                u[j + i] = (sub + (1i128 << 64)) as u64;
                borrow = 1;
            } else {
                u[j + i] = sub as u64;
                borrow = 0;
            }
        }
        let sub = i128::from(u[j + n]) - i128::from(carry as u64) - borrow;
        if sub < 0 {
            // D6: estimate was one too large; add v back.
            u[j + n] = (sub + (1i128 << 64)) as u64;
            qhat -= 1;
            let mut c = 0u64;
            for i in 0..n {
                let (x, c1) = u[j + i].overflowing_add(v[i]);
                let (x, c2) = x.overflowing_add(c);
                u[j + i] = x;
                c = u64::from(c1) + u64::from(c2);
            }
            u[j + n] = u[j + n].wrapping_add(c);
        } else {
            u[j + n] = sub as u64;
        }
        q[j] = qhat as u64;
    }
    mag_trim(&mut q);
    let mut r = u[..n].to_vec();
    mag_trim(&mut r);
    (q, mag_shr_small(&r, shift))
}

fn mag_divrem(a: &[u64], d: &[u64]) -> (Vec<u64>, Vec<u64>) {
    assert!(!d.is_empty(), "division by zero");
    match d.len() {
        1 => {
            let (q, r) = mag_divrem_limb(a, d[0]);
            (q, if r == 0 { Vec::new() } else { vec![r] })
        }
        _ => mag_divrem_knuth(a, d),
    }
}

/// Remainder of a magnitude modulo one limb, without building the quotient.
fn mag_rem_limb(a: &[u64], d: u64) -> u64 {
    a.iter().rev().fold(0u64, |rem, &limb| {
        (((u128::from(rem) << 64) | u128::from(limb)) % u128::from(d)) as u64
    })
}

/// Stein's binary GCD of two machine words; `gcd(0, x) = x`.
pub(crate) fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let common = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << common;
        }
    }
}

/// GCD of two magnitudes. When either side fits one limb the other is
/// reduced modulo it and the rest runs on machine words, with no
/// allocation; only two multi-limb operands take the limb-vector binary
/// GCD.
fn mag_gcd(a: &Limbs, b: &Limbs) -> Limbs {
    let g = match (&**a, &**b) {
        ([], _) => return b.clone(),
        (_, []) => return a.clone(),
        ([x], [y]) => gcd_u64(*x, *y),
        ([x], b) => gcd_u64(*x, mag_rem_limb(b, *x)),
        (a, [y]) => gcd_u64(mag_rem_limb(a, *y), *y),
        (a, b) => return Limbs::from_vec(mag_gcd_limbs(a.to_vec(), b.to_vec())),
    };
    Limbs::Word(g)
}

/// Binary GCD of two magnitudes on limb vectors (any sizes). Subtracts
/// and shifts in place, so it allocates only for the shifted result.
fn mag_gcd_limbs(mut a: Vec<u64>, mut b: Vec<u64>) -> Vec<u64> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let common = mag_strip_twos(&mut a).min(mag_strip_twos(&mut b));
    loop {
        match mag_cmp(&a, &b) {
            Ordering::Equal => break,
            Ordering::Less => std::mem::swap(&mut a, &mut b),
            Ordering::Greater => {}
        }
        // Both odd and a > b: a - b is even and nonzero.
        mag_sub_assign(&mut a, &b);
        mag_strip_twos(&mut a);
    }
    let mut out = vec![0u64; (common / 64) as usize];
    out.extend_from_slice(&mag_shl_small(&a, (common % 64) as u32));
    out
}

/// Divide a nonzero magnitude in place by its largest power-of-two
/// factor, returning the exponent.
fn mag_strip_twos(v: &mut Vec<u64>) -> u64 {
    let zero_limbs = v.iter().take_while(|&&limb| limb == 0).count();
    v.drain(..zero_limbs);
    let bits = v[0].trailing_zeros();
    if bits > 0 {
        for i in 0..v.len() {
            let hi = v.get(i + 1).map_or(0, |&n| n << (64 - bits));
            v[i] = (v[i] >> bits) | hi;
        }
        mag_trim(v);
    }
    zero_limbs as u64 * 64 + u64::from(bits)
}

/// `a -= b` in place; requires `a >= b`.
fn mag_sub_assign(a: &mut Vec<u64>, b: &[u64]) {
    debug_assert!(mag_cmp(a, b) != Ordering::Less, "mag_sub_assign underflow");
    let mut borrow = 0u64;
    for (i, av) in a.iter_mut().enumerate() {
        if i >= b.len() && borrow == 0 {
            break;
        }
        let s = b.get(i).copied().unwrap_or(0);
        let (x, b1) = av.overflowing_sub(s);
        let (x, b2) = x.overflowing_sub(borrow);
        borrow = u64::from(b1) + u64::from(b2);
        *av = x;
    }
    debug_assert_eq!(borrow, 0);
    mag_trim(a);
}

// ---------------------------------------------------------------------------
// BigInt API
// ---------------------------------------------------------------------------

impl BigInt {
    /// The integer zero.
    #[must_use]
    pub fn zero() -> BigInt {
        BigInt { sign: Sign::Zero, mag: Limbs::Word(0) }
    }

    /// The integer one.
    #[must_use]
    pub fn one() -> BigInt {
        BigInt::from(1i64)
    }

    /// `sign · m` from a one-word magnitude (`m = 0` gives zero).
    pub(crate) fn from_small(sign: Sign, m: u64) -> BigInt {
        if m == 0 {
            BigInt::zero()
        } else {
            debug_assert!(sign != Sign::Zero);
            BigInt { sign, mag: Limbs::Word(m) }
        }
    }

    /// `sign · m` from a two-word magnitude (`m = 0` gives zero); only a
    /// magnitude of 2^64 or more allocates.
    pub(crate) fn from_u128(sign: Sign, m: u128) -> BigInt {
        match u64::try_from(m) {
            Ok(w) => BigInt::from_small(sign, w),
            Err(_) => BigInt { sign, mag: Limbs::Heap(vec![m as u64, (m >> 64) as u64]) },
        }
    }

    /// The magnitude as one machine word, when it fits (zero included).
    pub(crate) fn small_mag(&self) -> Option<u64> {
        match self.mag {
            Limbs::Word(m) => Some(m),
            Limbs::Heap(_) => None,
        }
    }

    /// Overwrite a one-limb magnitude in place, keeping the sign; `m` must
    /// be nonzero.
    pub(crate) fn set_small_mag(&mut self, m: u64) {
        debug_assert!(self.mag.len() == 1 && m != 0);
        self.mag = Limbs::Word(m);
    }

    fn from_mag(sign: Sign, mut mag: Vec<u64>) -> BigInt {
        mag_trim(&mut mag);
        if mag.is_empty() {
            BigInt::zero()
        } else {
            debug_assert!(sign != Sign::Zero);
            BigInt { sign, mag: Limbs::from_vec(mag) }
        }
    }

    /// The sign of this integer.
    #[must_use]
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// `true` iff this integer is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// `true` iff this integer is strictly positive.
    #[must_use]
    pub fn is_positive(&self) -> bool {
        self.sign == Sign::Plus
    }

    /// `true` iff this integer is strictly negative.
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Minus
    }

    /// `true` iff this integer equals one.
    #[must_use]
    pub fn is_one(&self) -> bool {
        self.sign == Sign::Plus && self.mag == Limbs::Word(1)
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(&self) -> BigInt {
        match self.sign {
            Sign::Minus => BigInt { sign: Sign::Plus, mag: self.mag.clone() },
            _ => self.clone(),
        }
    }

    /// Number of bits in the magnitude (0 for zero).
    #[must_use]
    pub fn bit_len(&self) -> u64 {
        match self.mag.last() {
            None => 0,
            Some(&top) => self.mag.len() as u64 * 64 - u64::from(top.leading_zeros()),
        }
    }

    /// Greatest common divisor of the absolute values; `gcd(0, x) = |x|`.
    #[must_use]
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        let mag = mag_gcd(&self.mag, &other.mag);
        let sign = if mag.is_empty() { Sign::Zero } else { Sign::Plus };
        BigInt { sign, mag }
    }

    /// [`BigInt::gcd`] on limb vectors only: the reference the word fast
    /// paths are tested against.
    #[cfg(test)]
    pub(crate) fn gcd_limbs(&self, other: &BigInt) -> BigInt {
        BigInt::from_mag(Sign::Plus, mag_gcd_limbs(self.mag.to_vec(), other.mag.to_vec()))
    }

    /// Truncated division with remainder: `self = q * d + r`, `|r| < |d|`,
    /// and `r` has the sign of `self` (like Rust's `/` and `%`).
    ///
    /// # Panics
    /// Panics if `d` is zero.
    #[must_use]
    pub fn div_rem(&self, d: &BigInt) -> (BigInt, BigInt) {
        assert!(!d.is_zero(), "BigInt division by zero");
        if self.is_zero() {
            return (BigInt::zero(), BigInt::zero());
        }
        let q_sign = self.sign.mul(d.sign);
        if let (Limbs::Word(x), Limbs::Word(y)) = (&self.mag, &d.mag) {
            return (BigInt::from_small(q_sign, x / y), BigInt::from_small(self.sign, x % y));
        }
        let (q_mag, r_mag) = mag_divrem(&self.mag, &d.mag);
        (BigInt::from_mag(q_sign, q_mag), BigInt::from_mag(self.sign, r_mag))
    }

    /// `self * 2^bits`.
    #[must_use]
    pub fn shl(&self, bits: u64) -> BigInt {
        if self.is_zero() {
            return BigInt::zero();
        }
        let limbs = (bits / 64) as usize;
        let rest = (bits % 64) as u32;
        let mut mag = vec![0u64; limbs];
        mag.extend_from_slice(&mag_shl_small(&self.mag, rest));
        BigInt::from_mag(self.sign, mag)
    }

    /// `self / 2^bits`, truncated toward zero.
    #[must_use]
    pub fn shr(&self, bits: u64) -> BigInt {
        let limbs = (bits / 64) as usize;
        if limbs >= self.mag.len() {
            return BigInt::zero();
        }
        let rest = (bits % 64) as u32;
        let mag = mag_shr_small(&self.mag[limbs..], rest);
        BigInt::from_mag(self.sign, mag)
    }

    /// Convert to the nearest `f64` (may lose precision; saturates to
    /// infinity for enormous values).
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        let bits = self.bit_len();
        let x = if bits <= 63 {
            // Fits in the top limb (or is zero).
            self.mag.first().copied().unwrap_or(0) as f64
        } else {
            // Take the top 64 bits and scale.
            let shift = bits - 64;
            let top = self.shr(shift);
            let t = top.mag.first().copied().unwrap_or(0) as f64;
            t * (shift as f64).exp2()
        };
        match self.sign {
            Sign::Minus => -x,
            _ => x,
        }
    }

    /// Raise to a small power.
    #[must_use]
    pub fn pow(&self, mut e: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while e > 0 {
            if e & 1 == 1 {
                acc = &acc * &base;
            }
            e >>= 1;
            if e > 0 {
                base = &base * &base;
            }
        }
        acc
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> BigInt {
        let sign = match v.cmp(&0) {
            Ordering::Less => Sign::Minus,
            Ordering::Equal => Sign::Zero,
            Ordering::Greater => Sign::Plus,
        };
        BigInt::from_small(sign, v.unsigned_abs())
    }
}

impl From<i32> for BigInt {
    fn from(v: i32) -> BigInt {
        BigInt::from(i128::from(v))
    }
}

impl From<u64> for BigInt {
    fn from(v: u64) -> BigInt {
        BigInt::from_small(Sign::Plus, v)
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> BigInt {
        let sign = match v.cmp(&0) {
            Ordering::Less => Sign::Minus,
            Ordering::Equal => Sign::Zero,
            Ordering::Greater => Sign::Plus,
        };
        BigInt::from_u128(sign, v.unsigned_abs())
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt { sign: self.sign.negate(), mag: self.mag }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt { sign: self.sign.negate(), mag: self.mag.clone() }
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        let (a, b) = (self.sign, rhs.sign);
        if a == Sign::Zero {
            return rhs.clone();
        }
        if b == Sign::Zero {
            return self.clone();
        }
        if let (Limbs::Word(x), Limbs::Word(y)) = (&self.mag, &rhs.mag) {
            let (x, y) = (u128::from(*x), u128::from(*y));
            return match (a == b, x.cmp(&y)) {
                (true, _) => BigInt::from_u128(a, x + y),
                (false, Ordering::Less) => BigInt::from_u128(b, y - x),
                (false, _) => BigInt::from_u128(a, x - y),
            };
        }
        if a == b {
            return BigInt::from_mag(a, mag_add(&self.mag, &rhs.mag));
        }
        match mag_cmp(&self.mag, &rhs.mag) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt::from_mag(a, mag_sub(&self.mag, &rhs.mag)),
            Ordering::Less => BigInt::from_mag(b, mag_sub(&rhs.mag, &self.mag)),
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        self + &(-rhs)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        let sign = self.sign.mul(rhs.sign);
        if sign == Sign::Zero {
            return BigInt::zero();
        }
        if let (Limbs::Word(x), Limbs::Word(y)) = (&self.mag, &rhs.mag) {
            return BigInt::from_u128(sign, u128::from(*x) * u128::from(*y));
        }
        BigInt::from_mag(sign, mag_mul(&self.mag, &rhs.mag))
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    fn div(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).1
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: &BigInt) -> BigInt {
                (&self).$method(rhs)
            }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                self.$method(&rhs)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);
forward_owned_binop!(Div, div);
forward_owned_binop!(Rem, rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, rhs: &BigInt) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, rhs: &BigInt) {
        *self = &*self * rhs;
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &BigInt) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &BigInt) -> Ordering {
        match (self.sign, other.sign) {
            (a, b) if a != b => a.to_i32().cmp(&b.to_i32()),
            (Sign::Zero, _) => Ordering::Equal,
            (Sign::Plus, _) => mag_cmp(&self.mag, &other.mag),
            (Sign::Minus, _) => mag_cmp(&other.mag, &self.mag),
        }
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Repeatedly divide by 10^19 (largest power of ten in a u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut mag = self.mag.to_vec();
        let mut chunks: Vec<u64> = Vec::new();
        while !mag.is_empty() {
            let (q, r) = mag_divrem_limb(&mag, CHUNK);
            chunks.push(r);
            mag = q;
        }
        if self.sign == Sign::Minus {
            write!(f, "-")?;
        }
        write!(f, "{}", chunks.last().unwrap())?;
        for c in chunks.iter().rev().skip(1) {
            write!(f, "{c:019}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

/// Error returned when parsing a [`BigInt`] from a malformed string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigIntError {
    msg: &'static str,
}

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid BigInt literal: {}", self.msg)
    }
}

impl std::error::Error for ParseBigIntError {}

impl FromStr for BigInt {
    type Err = ParseBigIntError;

    fn from_str(s: &str) -> Result<BigInt, ParseBigIntError> {
        let (neg, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() {
            return Err(ParseBigIntError { msg: "empty digit string" });
        }
        let mut mag: Vec<u64> = Vec::new();
        for chunk in chunk_decimal(digits)? {
            // mag = mag * 10^19 + chunk
            mag = mag_mul(&mag, &[10_000_000_000_000_000_000]);
            mag = mag_add(&mag, &[chunk]);
        }
        mag_trim(&mut mag);
        if mag.is_empty() {
            return Ok(BigInt::zero());
        }
        Ok(BigInt::from_mag(if neg { Sign::Minus } else { Sign::Plus }, mag))
    }
}

/// Split a decimal digit string into big-endian chunks of up to 19 digits.
fn chunk_decimal(digits: &str) -> Result<Vec<u64>, ParseBigIntError> {
    if !digits.bytes().all(|b| b.is_ascii_digit()) {
        return Err(ParseBigIntError { msg: "non-digit character" });
    }
    let bytes = digits.as_bytes();
    let first = bytes.len() % 19;
    let mut out = Vec::with_capacity(bytes.len() / 19 + 1);
    let mut push = |s: &[u8]| {
        let mut v = 0u64;
        for &b in s {
            v = v * 10 + u64::from(b - b'0');
        }
        out.push(v);
    };
    if first > 0 {
        push(&bytes[..first]);
    }
    for c in bytes[first..].chunks(19) {
        push(c);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bi(s: &str) -> BigInt {
        s.parse().unwrap()
    }

    #[test]
    fn from_small_ints() {
        assert_eq!(BigInt::from(0i64).to_string(), "0");
        assert_eq!(BigInt::from(42i64).to_string(), "42");
        assert_eq!(BigInt::from(-42i64).to_string(), "-42");
        assert_eq!(BigInt::from(i128::MAX).to_string(), i128::MAX.to_string());
        assert_eq!(BigInt::from(i128::MIN).to_string(), i128::MIN.to_string());
    }

    #[test]
    fn parse_round_trip() {
        for s in [
            "0",
            "1",
            "-1",
            "18446744073709551616",
            "-340282366920938463463374607431768211456",
            "99999999999999999999999999999999999999999999",
        ] {
            assert_eq!(bi(s).to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<BigInt>().is_err());
        assert!("-".parse::<BigInt>().is_err());
        assert!("12a".parse::<BigInt>().is_err());
        assert!("1.5".parse::<BigInt>().is_err());
    }

    #[test]
    fn parse_leading_zeros_and_plus() {
        assert_eq!(bi("000123").to_string(), "123");
        assert_eq!("+7".parse::<BigInt>().unwrap().to_string(), "7");
        assert_eq!(bi("-000").to_string(), "0");
    }

    #[test]
    fn add_sub_mixed_signs() {
        assert_eq!(&bi("100") + &bi("-30"), bi("70"));
        assert_eq!(&bi("-100") + &bi("30"), bi("-70"));
        assert_eq!(&bi("-100") - &bi("-100"), BigInt::zero());
        assert_eq!(&bi("18446744073709551615") + &bi("1"), bi("18446744073709551616"));
    }

    #[test]
    fn mul_large() {
        let a = bi("123456789012345678901234567890");
        let b = bi("987654321098765432109876543210");
        assert_eq!(
            (&a * &b).to_string(),
            "121932631137021795226185032733622923332237463801111263526900"
        );
        assert_eq!(&a * &BigInt::zero(), BigInt::zero());
        assert_eq!((&a * &bi("-1")).to_string(), format!("-{a}"));
    }

    #[test]
    fn div_rem_small_divisor() {
        let a = bi("123456789012345678901234567890");
        let (q, r) = a.div_rem(&bi("97"));
        assert_eq!(&q * &bi("97") + &r, a);
        assert!(r < bi("97"));
    }

    #[test]
    fn div_rem_multi_limb_divisor() {
        let a = bi("340282366920938463463374607431768211456123456789");
        let d = bi("18446744073709551629"); // > 2^64, prime-ish
        let (q, r) = a.div_rem(&d);
        assert_eq!(&q * &d + &r, a);
        assert!(r.abs() < d);
    }

    #[test]
    fn div_rem_signs_match_rust() {
        for (a, b) in [(7i64, 3), (-7, 3), (7, -3), (-7, -3)] {
            let (q, r) = BigInt::from(a).div_rem(&BigInt::from(b));
            assert_eq!(q, BigInt::from(a / b), "q for {a}/{b}");
            assert_eq!(r, BigInt::from(a % b), "r for {a}%{b}");
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = bi("5").div_rem(&BigInt::zero());
    }

    #[test]
    fn knuth_d6_addback_regression() {
        // Crafted case that exercises the rare "add back" branch: the
        // top limbs force an over-estimate of qhat.
        let a = bi("340282366920938463444927863358058659840"); // 2^128 - 2^65
        let d = bi("18446744073709551615"); // 2^64 - 1 (single limb path)
        let (q, r) = a.div_rem(&d);
        assert_eq!(&q * &d + &r, a);
        // multi-limb case:
        let d2 = bi("340282366920938463463374607431768211455"); // 2^128 - 1
        let big = &a * &d2 + &bi("12345");
        let (q2, r2) = big.div_rem(&d2);
        assert_eq!(&q2 * &d2 + &r2, big);
        assert!(r2 < d2);
    }

    /// Euclid's algorithm on `div_rem`: a reference for the binary GCD.
    fn gcd_euclid(a: &BigInt, b: &BigInt) -> BigInt {
        let (mut a, mut b) = (a.abs(), b.abs());
        while !b.is_zero() {
            let r = a.div_rem(&b).1;
            a = std::mem::replace(&mut b, r);
        }
        a
    }

    #[test]
    fn gcd_limbs_matches_euclid() {
        use crate::testgen::{arb_bigint, config};
        use cso_runtime::prop::{self, zip3};
        use cso_runtime::prop_assert_eq;
        // A shared factor (often with powers of two) makes the GCD nontrivial.
        let gen = zip3(arb_bigint(), arb_bigint(), arb_bigint());
        prop::check_with(&config(), "gcd_limbs_matches_euclid", &gen, |(a, b, f)| {
            let (a, b) = (a * f, b * f);
            prop_assert_eq!(a.gcd_limbs(&b), gcd_euclid(&a, &b));
            Ok(())
        });
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(bi("12").gcd(&bi("18")), bi("6"));
        assert_eq!(bi("-12").gcd(&bi("18")), bi("6"));
        assert_eq!(bi("0").gcd(&bi("5")), bi("5"));
        assert_eq!(bi("5").gcd(&bi("0")), bi("5"));
        assert_eq!(bi("17").gcd(&bi("31")), bi("1"));
        let a = bi("123456789012345678901234567890");
        assert_eq!(a.gcd(&a), a);
    }

    #[test]
    fn gcd_word_paths_match_limbs() {
        use crate::testgen::{arb_bigint, config};
        use cso_runtime::prop::{self, zip2};
        use cso_runtime::prop_assert_eq;
        prop::check_with(
            &config(),
            "gcd_word_paths_match_limbs",
            &zip2(arb_bigint(), arb_bigint()),
            |(a, b)| {
                prop_assert_eq!(a.gcd(b), a.gcd_limbs(b));
                Ok(())
            },
        );
        for (a, b) in [(0, 0), (0, 9), (u64::MAX, 1 << 63), (1 << 63, 1 << 62), (6, 4)] {
            assert_eq!(BigInt::from(gcd_u64(a, b)), BigInt::from(a).gcd_limbs(&BigInt::from(b)));
        }
    }

    #[test]
    fn arith_word_paths_match_limbs() {
        use crate::testgen::{arb_word, config};
        use cso_runtime::prop::{self, bool_any, zip4};
        use cso_runtime::prop_assert_eq;
        let gen = zip4(arb_word(), bool_any(), arb_word(), bool_any());
        prop::check_with(&config(), "arith_word_paths_match_limbs", &gen, |&(x, nx, y, ny)| {
            let signed = |w: u64, neg: bool| if neg { -i128::from(w) } else { i128::from(w) };
            let (x, y) = (signed(x, nx), signed(y, ny));
            let (a, b) = (BigInt::from(x), BigInt::from(y));
            prop_assert_eq!(&a + &b, BigInt::from(x + y));
            prop_assert_eq!(&a - &b, BigInt::from(x - y));
            let product = BigInt::from_mag(a.sign.mul(b.sign), mag_mul(&a.mag, &b.mag));
            prop_assert_eq!(&a * &b, product);
            if y != 0 {
                prop_assert_eq!(a.div_rem(&b), (BigInt::from(x / y), BigInt::from(x % y)));
            }
            Ok(())
        });
    }

    #[test]
    fn from_i64_matches_i128() {
        use crate::testgen::arb_word;
        use cso_runtime::prop::{self, bool_any, zip2};
        use cso_runtime::prop_assert_eq;
        let gen = zip2(arb_word(), bool_any()).map(|(w, neg)| {
            let v = w as i64;
            if neg {
                v.wrapping_neg()
            } else {
                v
            }
        });
        prop::check("from_i64_matches_i128", &gen, |&v| {
            prop_assert_eq!(BigInt::from(v), BigInt::from(i128::from(v)));
            Ok(())
        });
        for v in [0, 1, -1, i64::MIN, i64::MAX] {
            assert_eq!(BigInt::from(v), BigInt::from(i128::from(v)), "{v}");
        }
    }

    #[test]
    fn gcd_large_coprime_product() {
        let p = bi("1000000007");
        let q = bi("998244353");
        let a = &p * &q;
        assert_eq!(a.gcd(&p), p);
        assert_eq!(a.gcd(&q), q);
    }

    #[test]
    fn shifts() {
        assert_eq!(bi("1").shl(130).to_string(), (bi("4") * bi("2").pow(128)).to_string());
        assert_eq!(bi("12345").shl(64).shr(64), bi("12345"));
        assert_eq!(bi("-8").shr(2), bi("-2"));
        assert_eq!(bi("7").shr(10), BigInt::zero());
    }

    #[test]
    fn bit_len() {
        assert_eq!(BigInt::zero().bit_len(), 0);
        assert_eq!(bi("1").bit_len(), 1);
        assert_eq!(bi("255").bit_len(), 8);
        assert_eq!(bi("256").bit_len(), 9);
        assert_eq!(bi("18446744073709551616").bit_len(), 65);
    }

    #[test]
    fn to_f64_values() {
        assert_eq!(BigInt::zero().to_f64(), 0.0);
        assert_eq!(bi("12345").to_f64(), 12345.0);
        assert_eq!(bi("-12345").to_f64(), -12345.0);
        let huge = bi("2").pow(100);
        let f = huge.to_f64();
        assert!((f - 2f64.powi(100)).abs() / 2f64.powi(100) < 1e-12);
    }

    #[test]
    fn ordering() {
        assert!(bi("-5") < bi("3"));
        assert!(bi("3") < bi("5"));
        assert!(bi("-5") < bi("-3"));
        assert!(bi("18446744073709551616") > bi("18446744073709551615"));
        assert_eq!(bi("7").cmp(&bi("7")), Ordering::Equal);
    }

    #[test]
    fn pow() {
        assert_eq!(bi("3").pow(0), bi("1"));
        assert_eq!(bi("3").pow(5), bi("243"));
        assert_eq!(bi("-2").pow(3), bi("-8"));
        assert_eq!(bi("-2").pow(4), bi("16"));
        assert_eq!(bi("10").pow(30).to_string(), format!("1{}", "0".repeat(30)));
    }

    #[test]
    fn assign_ops() {
        let mut x = bi("10");
        x += &bi("5");
        assert_eq!(x, bi("15"));
        x -= &bi("20");
        assert_eq!(x, bi("-5"));
        x *= &bi("-3");
        assert_eq!(x, bi("15"));
    }
}
