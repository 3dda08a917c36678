//! Arbitrary-precision rational numbers.
//!
//! [`Rat`] keeps the invariant `den > 0` and `gcd(num, den) = 1` after every
//! operation, so equality is structural and hashing is consistent. All
//! arithmetic is exact; conversions to and from `f64` are provided for
//! interoperation with the interval layer (`from_f64` is exact because every
//! finite double is a dyadic rational).
//!
//! The solver converts every sampled point with these, so [`Rat::new`],
//! [`Rat::from_f64`], [`Rat::to_f64`], the ordering, `Add` and `Mul` (and
//! through them `Sub` and `Div`) first try a path on machine words
//! (`u64`/`u128`) for one-limb operands and fall back to the limb-vector
//! code otherwise, or when a word result would overflow. A one-limb
//! [`BigInt`] is stored inline, so a word path that ends in one-limb parts
//! allocates nothing. Both paths give identical results, down to the bits
//! of `to_f64`; the unit tests check each pair.

use crate::bigint::{gcd_u64, BigInt};
use crate::Sign;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number `num / den` with `den > 0` and `gcd(num, den) = 1`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rat {
    num: BigInt,
    den: BigInt,
}

/// `±n / d` to the nearest `f64`, on machine words: [`Rat::to_f64`] of the
/// reduced fraction with one-limb parts `n > 0` and `d`, down to the bits.
/// `None` when `d` has more than 48 bits, where the words would overflow
/// and `to_f64` takes its limb path instead. Callers that already hold a
/// reduced fraction as words get the same `f64` without building a `Rat`.
#[must_use]
pub fn words_to_f64(neg: bool, n: u64, d: u64) -> Option<f64> {
    debug_assert!(n > 0 && d > 0, "words_to_f64 of a zero part");
    // The steps of `to_f64_limbs` on machine words. With one-limb operands
    // the shift 80 - nb + db is at least 17 and the shifted numerator has
    // 80 + db bits, so it fits a u128 for denominators of up to 48 bits.
    // The quotient then has 80 or 81 bits, and `BigInt::to_f64` would round
    // its top 64 (truncated) to f64.
    if d.leading_zeros() < 16 {
        return None;
    }
    let shift = 80 - i64::from(64 - n.leading_zeros()) + i64::from(64 - d.leading_zeros());
    let q = (u128::from(n) << shift) / u128::from(d);
    let drop = 128 - q.leading_zeros() - 64;
    let x = ((q >> drop) as u64 as f64) * f64::from(drop).exp2();
    let x = if neg { -x } else { x };
    Some(x * (-shift as f64).exp2())
}

impl Rat {
    /// Construct and normalize `num / den`.
    ///
    /// # Panics
    /// Panics if `den` is zero.
    #[must_use]
    pub fn new(num: BigInt, den: BigInt) -> Rat {
        assert!(!den.is_zero(), "Rat with zero denominator");
        let (mut num, mut den) = if den.is_negative() { (-num, -den) } else { (num, den) };
        if num.is_zero() {
            return Rat { num: BigInt::zero(), den: BigInt::one() };
        }
        if let (Some(n), Some(d)) = (num.small_mag(), den.small_mag()) {
            let g = gcd_u64(n, d);
            if g != 1 {
                num.set_small_mag(n / g);
                den.set_small_mag(d / g);
            }
            return Rat { num, den };
        }
        let g = num.gcd(&den);
        if g.is_one() {
            Rat { num, den }
        } else {
            Rat { num: &num / &g, den: &den / &g }
        }
    }

    /// The rational zero.
    #[must_use]
    pub fn zero() -> Rat {
        Rat { num: BigInt::zero(), den: BigInt::one() }
    }

    /// The rational one.
    #[must_use]
    pub fn one() -> Rat {
        Rat { num: BigInt::one(), den: BigInt::one() }
    }

    /// An integer as a rational.
    #[must_use]
    pub fn from_int(v: i64) -> Rat {
        Rat { num: BigInt::from(v), den: BigInt::one() }
    }

    /// `p / q` from machine integers.
    ///
    /// # Panics
    /// Panics if `q` is zero.
    #[must_use]
    pub fn from_frac(p: i64, q: i64) -> Rat {
        Rat::new(BigInt::from(p), BigInt::from(q))
    }

    /// Exact conversion from a finite `f64` (every finite double is a dyadic
    /// rational). Returns `None` for NaN or infinities.
    #[must_use]
    pub fn from_f64(x: f64) -> Option<Rat> {
        if !x.is_finite() {
            return None;
        }
        if x == 0.0 {
            return Some(Rat::zero());
        }
        let bits = x.to_bits();
        let neg = bits >> 63 == 1;
        let exp = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        // value = mant * 2^(e - 52), with implicit leading bit for normals.
        let (mant, e) =
            if exp == 0 { (frac, -1022i64 - 52) } else { (frac | (1u64 << 52), exp - 1023 - 52) };
        if e < 0 {
            // mant · 2^e in lowest terms: strip the common powers of two.
            let tz = i64::from(mant.trailing_zeros()).min(-e);
            let k = -e - tz;
            if k < 64 {
                let sign = if neg { Sign::Minus } else { Sign::Plus };
                return Some(Rat {
                    num: BigInt::from_small(sign, mant >> tz),
                    den: BigInt::from_small(Sign::Plus, 1u64 << k),
                });
            }
        }
        let m = BigInt::from(mant);
        let m = if neg { -m } else { m };
        let r = if e >= 0 {
            Rat { num: m.shl(e as u64), den: BigInt::one() }
        } else {
            Rat::new(m, BigInt::one().shl((-e) as u64))
        };
        Some(r)
    }

    /// Numerator (sign carried here).
    #[must_use]
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// Denominator (always positive).
    #[must_use]
    pub fn denom(&self) -> &BigInt {
        &self.den
    }

    /// `true` iff zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Sign of the rational.
    #[must_use]
    pub fn sign(&self) -> Sign {
        self.num.sign()
    }

    /// `true` iff strictly positive.
    #[must_use]
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// `true` iff strictly negative.
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// `true` iff this rational is an integer.
    #[must_use]
    pub fn is_integer(&self) -> bool {
        self.den.is_one()
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(&self) -> Rat {
        Rat { num: self.num.abs(), den: self.den.clone() }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if zero.
    #[must_use]
    pub fn recip(&self) -> Rat {
        assert!(!self.is_zero(), "reciprocal of zero");
        if self.num.is_negative() {
            Rat { num: -&self.den, den: -&self.num }
        } else {
            Rat { num: self.den.clone(), den: self.num.clone() }
        }
    }

    /// Round toward negative infinity to an integer.
    #[must_use]
    pub fn floor(&self) -> BigInt {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_negative() {
            q - BigInt::one()
        } else {
            q
        }
    }

    /// Round toward positive infinity to an integer.
    #[must_use]
    pub fn ceil(&self) -> BigInt {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_positive() {
            q + BigInt::one()
        } else {
            q
        }
    }

    /// Convert to the nearest `f64`.
    ///
    /// Implemented by scaling the numerator so the integer quotient carries
    /// ~80 significant bits before the final floating division, which keeps
    /// the result within 1 ulp even when both sides are enormous.
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        if self.num.is_zero() {
            return 0.0;
        }
        if let (Some(n), Some(d)) = (self.num.small_mag(), self.den.small_mag()) {
            if let Some(x) = words_to_f64(self.num.is_negative(), n, d) {
                return x;
            }
        }
        self.to_f64_limbs()
    }

    /// [`Rat::to_f64`] on limb vectors (any sizes).
    fn to_f64_limbs(&self) -> f64 {
        let nb = self.num.bit_len() as i64;
        let db = self.den.bit_len() as i64;
        // Shift num so quotient has ~80 bits.
        let shift = 80 - (nb - db);
        let (q, scale_back) = if shift > 0 {
            (&self.num.shl(shift as u64) / &self.den, -shift)
        } else {
            (&self.num.shr((-shift) as u64) / &self.den, -shift)
        };
        // Scale in two halves: 2^scale_back alone is 0 below 2^-1074 even
        // where the result is a normal double (q has about 80 bits). Each
        // half keeps the intermediate normal, so the product still rounds
        // only once.
        let half = scale_back / 2;
        q.to_f64() * (half as f64).exp2() * ((scale_back - half) as f64).exp2()
    }

    /// The midpoint of two rationals.
    #[must_use]
    pub fn midpoint(&self, other: &Rat) -> Rat {
        (self + other) / Rat::from_int(2)
    }

    /// Minimum by value.
    #[must_use]
    pub fn min(self, other: Rat) -> Rat {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum by value.
    #[must_use]
    pub fn max(self, other: Rat) -> Rat {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Clamp into `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn clamp(self, lo: &Rat, hi: &Rat) -> Rat {
        assert!(lo <= hi, "Rat::clamp with lo > hi");
        if &self < lo {
            lo.clone()
        } else if &self > hi {
            hi.clone()
        } else {
            self
        }
    }
}

impl Default for Rat {
    fn default() -> Rat {
        Rat::zero()
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Rat {
        Rat::from_int(v)
    }
}

impl From<BigInt> for Rat {
    fn from(v: BigInt) -> Rat {
        Rat { num: v, den: BigInt::one() }
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat { num: -self.num, den: self.den }
    }
}

impl Neg for &Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat { num: -&self.num, den: self.den.clone() }
    }
}

impl Rat {
    /// The four parts as words `(|num|, den, |rhs.num|, rhs.den)`, when
    /// each fits one limb.
    fn words(&self, rhs: &Rat) -> Option<(u64, u64, u64, u64)> {
        Some((
            self.num.small_mag()?,
            self.den.small_mag()?,
            rhs.num.small_mag()?,
            rhs.den.small_mag()?,
        ))
    }

    /// `self + rhs` on machine words, or `None` when a part or the sum's
    /// denominator does not fit one limb or the numerator overflows a
    /// `u128`. The steps of [`Rat::add_limbs`], so the result is the same
    /// reduced `Rat`.
    fn add_words(&self, rhs: &Rat) -> Option<Rat> {
        let (a, b, c, d) = self.words(rhs)?;
        if a == 0 {
            return Some(rhs.clone());
        }
        if c == 0 {
            return Some(self.clone());
        }
        let g = gcd_u64(b, d);
        let (db, dd) = (b / g, d / g);
        let den = u64::try_from(u128::from(b) * u128::from(dd)).ok()?;
        let x = u128::from(a) * u128::from(dd);
        let y = u128::from(c) * u128::from(db);
        let (sign, mag) = match (self.sign() == rhs.sign(), x.cmp(&y)) {
            (true, _) => (self.sign(), x.checked_add(y)?),
            (false, Ordering::Less) => (rhs.sign(), y - x),
            (false, _) => (self.sign(), x - y),
        };
        if mag == 0 {
            return Some(Rat::zero());
        }
        // gcd(mag, den) from one word-sized remainder, as `BigInt::gcd`.
        let g = match u64::try_from(mag) {
            Ok(m) => gcd_u64(m, den),
            Err(_) => gcd_u64((mag % u128::from(den)) as u64, den),
        };
        Some(Rat {
            num: BigInt::from_u128(sign, mag / u128::from(g)),
            den: BigInt::from_small(Sign::Plus, den / g),
        })
    }

    /// `self + rhs` on limb vectors (any sizes).
    fn add_limbs(&self, rhs: &Rat) -> Rat {
        // a/b + c/d = (a*(d/g) + c*(b/g)) / (b*(d/g)) with g = gcd(b, d),
        // which keeps intermediate magnitudes small.
        let g = self.den.gcd(&rhs.den);
        let db = &self.den / &g;
        let dd = &rhs.den / &g;
        let num = &self.num * &dd + &rhs.num * &db;
        let den = &self.den * &dd;
        Rat::new(num, den)
    }

    /// `self * rhs` on machine words, or `None` when a part does not fit
    /// one limb. Cross-reducing leaves coprime word products, which fit a
    /// `u128` each.
    fn mul_words(&self, rhs: &Rat) -> Option<Rat> {
        let (a, b, c, d) = self.words(rhs)?;
        let sign = self.sign().mul(rhs.sign());
        if sign == Sign::Zero {
            return Some(Rat::zero());
        }
        let (g1, g2) = (gcd_u64(a, d), gcd_u64(c, b));
        Some(Rat {
            num: BigInt::from_u128(sign, u128::from(a / g1) * u128::from(c / g2)),
            den: BigInt::from_u128(Sign::Plus, u128::from(b / g2) * u128::from(d / g1)),
        })
    }

    /// `self * rhs` on limb vectors (any sizes).
    fn mul_limbs(&self, rhs: &Rat) -> Rat {
        if self.is_zero() || rhs.is_zero() {
            return Rat::zero();
        }
        // Cross-reduce before multiplying: each factor of the numerator is
        // coprime to each factor of the denominator, so the products are
        // in lowest terms, and the denominator stays positive.
        let g1 = self.num.gcd(&rhs.den);
        let g2 = rhs.num.gcd(&self.den);
        let num = (&self.num / &g1) * (&rhs.num / &g2);
        let den = (&self.den / &g2) * (&rhs.den / &g1);
        Rat { num, den }
    }
}

impl Add for &Rat {
    type Output = Rat;
    fn add(self, rhs: &Rat) -> Rat {
        self.add_words(rhs).unwrap_or_else(|| self.add_limbs(rhs))
    }
}

impl Sub for &Rat {
    type Output = Rat;
    fn sub(self, rhs: &Rat) -> Rat {
        self + &(-rhs)
    }
}

impl Mul for &Rat {
    type Output = Rat;
    fn mul(self, rhs: &Rat) -> Rat {
        self.mul_words(rhs).unwrap_or_else(|| self.mul_limbs(rhs))
    }
}

impl Div for &Rat {
    type Output = Rat;
    fn div(self, rhs: &Rat) -> Rat {
        assert!(!rhs.is_zero(), "Rat division by zero");
        self * &rhs.recip()
    }
}

macro_rules! forward_owned_binop_rat {
    ($trait:ident, $method:ident) => {
        impl $trait for Rat {
            type Output = Rat;
            fn $method(self, rhs: Rat) -> Rat {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Rat> for Rat {
            type Output = Rat;
            fn $method(self, rhs: &Rat) -> Rat {
                (&self).$method(rhs)
            }
        }
        impl $trait<Rat> for &Rat {
            type Output = Rat;
            fn $method(self, rhs: Rat) -> Rat {
                self.$method(&rhs)
            }
        }
    };
}

forward_owned_binop_rat!(Add, add);
forward_owned_binop_rat!(Sub, sub);
forward_owned_binop_rat!(Mul, mul);
forward_owned_binop_rat!(Div, div);

impl AddAssign<&Rat> for Rat {
    fn add_assign(&mut self, rhs: &Rat) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&Rat> for Rat {
    fn sub_assign(&mut self, rhs: &Rat) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&Rat> for Rat {
    fn mul_assign(&mut self, rhs: &Rat) {
        *self = &*self * rhs;
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // Cheap sign comparison first.
        let s = self.sign().to_i32().cmp(&other.sign().to_i32());
        if s != Ordering::Equal {
            return s;
        }
        let words = (
            self.num.small_mag(),
            self.den.small_mag(),
            other.num.small_mag(),
            other.den.small_mag(),
        );
        if let (Some(n1), Some(d1), Some(n2), Some(d2)) = words {
            // Same signs: compare |n1|·d2 with |n2|·d1, flipped when negative.
            let ord = (u128::from(n1) * u128::from(d2)).cmp(&(u128::from(n2) * u128::from(d1)));
            return if self.is_negative() { ord.reverse() } else { ord };
        }
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rat({self})")
    }
}

/// Error returned when parsing a [`Rat`] from a malformed string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatError {
    msg: &'static str,
}

impl fmt::Display for ParseRatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid Rat literal: {}", self.msg)
    }
}

impl std::error::Error for ParseRatError {}

impl FromStr for Rat {
    type Err = ParseRatError;

    /// Accepts `"p"`, `"p/q"` and decimal `"d.ddd"` forms (optionally signed).
    fn from_str(s: &str) -> Result<Rat, ParseRatError> {
        if let Some((p, q)) = s.split_once('/') {
            let num: BigInt =
                p.trim().parse().map_err(|_| ParseRatError { msg: "bad numerator" })?;
            let den: BigInt =
                q.trim().parse().map_err(|_| ParseRatError { msg: "bad denominator" })?;
            if den.is_zero() {
                return Err(ParseRatError { msg: "zero denominator" });
            }
            return Ok(Rat::new(num, den));
        }
        if let Some((int_part, frac_part)) = s.split_once('.') {
            let neg = int_part.trim_start().starts_with('-');
            let int: BigInt = if int_part.is_empty() || int_part == "-" || int_part == "+" {
                BigInt::zero()
            } else {
                int_part.parse().map_err(|_| ParseRatError { msg: "bad integer part" })?
            };
            if frac_part.is_empty() || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseRatError { msg: "bad fractional part" });
            }
            let frac: BigInt =
                frac_part.parse().map_err(|_| ParseRatError { msg: "bad fractional part" })?;
            let scale = BigInt::from(10i64).pow(frac_part.len() as u32);
            let mag = &int.abs() * &scale + &frac;
            let num = if neg { -mag } else { mag };
            return Ok(Rat::new(num, scale));
        }
        let num: BigInt = s.parse().map_err(|_| ParseRatError { msg: "bad integer" })?;
        Ok(Rat::from(num))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(s: &str) -> Rat {
        s.parse().unwrap()
    }

    #[test]
    fn normalization() {
        assert_eq!(r("2/6"), r("1/3"));
        assert_eq!(r("-2/6"), r("-1/3"));
        assert_eq!(r("2/-6"), r("-1/3"));
        assert_eq!(r("-2/-6"), r("1/3"));
        assert_eq!(r("0/5"), Rat::zero());
        assert!(r("1/3").denom().is_positive());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(BigInt::one(), BigInt::zero());
    }

    #[test]
    fn arithmetic() {
        assert_eq!(r("1/2") + r("1/3"), r("5/6"));
        assert_eq!(r("1/2") - r("1/3"), r("1/6"));
        assert_eq!(r("2/3") * r("3/4"), r("1/2"));
        assert_eq!(r("1/2") / r("1/4"), r("2"));
        assert_eq!(r("-1/2") * r("-1/2"), r("1/4"));
    }

    #[test]
    fn comparison() {
        assert!(r("1/3") < r("1/2"));
        assert!(r("-1/2") < r("-1/3"));
        assert!(r("-1") < r("1/1000000"));
        assert_eq!(r("7/7"), Rat::one());
        assert!(r("10/3") > r("3"));
    }

    #[test]
    fn parse_decimal() {
        assert_eq!(r("1.25"), r("5/4"));
        assert_eq!(r("-0.5"), r("-1/2"));
        assert_eq!(r("0.125"), r("1/8"));
        assert_eq!(r("3.".trim_end_matches('.')), r("3"));
        assert!("1.2.3".parse::<Rat>().is_err());
        assert!("1.".parse::<Rat>().is_err());
        assert!("a/b".parse::<Rat>().is_err());
        assert!("1/0".parse::<Rat>().is_err());
    }

    #[test]
    fn from_f64_exact() {
        assert_eq!(Rat::from_f64(0.5).unwrap(), r("1/2"));
        assert_eq!(Rat::from_f64(-0.75).unwrap(), r("-3/4"));
        assert_eq!(Rat::from_f64(3.0).unwrap(), r("3"));
        assert_eq!(Rat::from_f64(0.0).unwrap(), Rat::zero());
        assert!(Rat::from_f64(f64::NAN).is_none());
        assert!(Rat::from_f64(f64::INFINITY).is_none());
        // 0.1 is not exactly 1/10 in binary; round-trip must match the double.
        let tenth = Rat::from_f64(0.1).unwrap();
        assert_eq!(tenth.to_f64(), 0.1);
        assert_ne!(tenth, r("1/10"));
    }

    /// [`Rat::new`] with limb-vector GCD and division only.
    fn new_ref(num: BigInt, den: BigInt) -> Rat {
        let (num, den) = if den.is_negative() { (-num, -den) } else { (num, den) };
        if num.is_zero() {
            return Rat::zero();
        }
        let g = num.gcd_limbs(&den);
        Rat { num: num.div_rem(&g).0, den: den.div_rem(&g).0 }
    }

    /// [`Rat::from_f64`] as `±mant / 2^-e` through [`new_ref`].
    fn from_f64_ref(x: f64) -> Rat {
        if x == 0.0 {
            return Rat::zero();
        }
        let bits = x.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mant, e) =
            if exp == 0 { (frac, -1022i64 - 52) } else { (frac | (1u64 << 52), exp - 1023 - 52) };
        let m = if bits >> 63 == 1 { -BigInt::from(mant) } else { BigInt::from(mant) };
        if e >= 0 {
            Rat { num: m.shl(e as u64), den: BigInt::one() }
        } else {
            new_ref(m, BigInt::one().shl((-e) as u64))
        }
    }

    fn arb_rat() -> cso_runtime::prop::Gen<Rat> {
        use crate::testgen::{arb_bigint, arb_nonzero};
        cso_runtime::prop::zip2(arb_bigint(), arb_nonzero()).map(|(n, d)| new_ref(n, d))
    }

    #[test]
    fn new_word_path_matches_limbs() {
        use crate::testgen::{arb_bigint, arb_nonzero, config};
        use cso_runtime::prop::{self, zip2};
        use cso_runtime::prop_assert_eq;
        prop::check_with(
            &config(),
            "new_word_path_matches_limbs",
            &zip2(arb_bigint(), arb_nonzero()),
            |(n, d)| {
                prop_assert_eq!(Rat::new(n.clone(), d.clone()), new_ref(n.clone(), d.clone()));
                Ok(())
            },
        );
        let min = BigInt::from(i64::MIN);
        assert_eq!(Rat::new(min.clone(), BigInt::from(-2i64)), new_ref(min, BigInt::from(-2i64)));
    }

    #[test]
    fn from_f64_word_path_matches_limbs() {
        use crate::testgen::config;
        use cso_runtime::prop::{self, bool_any, int_in, one_of, u64_in, zip4};
        use cso_runtime::prop_assert_eq;
        // Exponent fields: subnormals, tiny, the 2^63/2^64 denominator cut
        // (k = 1075 - exp - trailing zeros), around 1, huge, and anything.
        let exp = one_of(vec![
            int_in(0, 0),
            int_in(1, 8),
            int_in(950, 1015),
            int_in(1000, 1100),
            int_in(2040, 2046),
            int_in(0, 2046),
        ]);
        let gen = zip4(bool_any(), exp, u64_in(0, (1 << 52) - 1), int_in(0, 52)).map(
            |(neg, exp, frac, tz)| {
                let frac = frac >> tz << tz;
                f64::from_bits((u64::from(neg) << 63) | ((exp as u64) << 52) | frac)
            },
        );
        prop::check_with(&config(), "from_f64_word_path_matches_limbs", &gen, |&x| {
            prop_assert_eq!(Rat::from_f64(x).unwrap(), from_f64_ref(x));
            Ok(())
        });
        for x in [f64::MIN_POSITIVE, 5e-324, f64::MAX, -f64::MAX, 2f64.powi(-63), 2f64.powi(-64)] {
            assert_eq!(Rat::from_f64(x).unwrap(), from_f64_ref(x), "{x:e}");
        }
    }

    #[test]
    fn to_f64_word_path_matches_limbs() {
        use crate::testgen::config;
        use cso_runtime::prop;
        use cso_runtime::prop_assert_eq;
        prop::check_with(&config(), "to_f64_word_path_matches_limbs", &arb_rat(), |r| {
            prop_assert_eq!(r.to_f64().to_bits(), r.to_f64_limbs().to_bits());
            Ok(())
        });
        // 48/49-bit denominators sit on both sides of the u128 limit. In
        // the last two pairs the quotient's top 64 bits end in a rounding
        // tie that its truncated low bits would break: rounding the whole
        // quotient to f64 gives a different double there.
        let cases = [1, 3, (1u64 << 47) + 1, (1 << 48) - 1, 1 << 48, (1 << 49) - 3]
            .into_iter()
            .flat_map(|d| [1, (1 << 53) - 1, 1 << 63, u64::MAX].map(|n| (n, d)))
            .chain([(14_397_647_957_064_353_281, 3), (2_876_474_534_966_737_549, 1_000_000)]);
        for (n, d) in cases {
            let r = new_ref(BigInt::from(n), BigInt::from(d));
            assert_eq!(r.to_f64().to_bits(), r.to_f64_limbs().to_bits(), "{r}");
        }
    }

    #[test]
    fn add_mul_word_paths_match_limbs() {
        use crate::testgen::config;
        use cso_runtime::prop::{self, zip2};
        use cso_runtime::{prop_assert, prop_assert_eq};
        prop::check_with(
            &config(),
            "add_mul_word_paths_match_limbs",
            &zip2(arb_rat(), arb_rat()),
            |(a, b)| {
                let words = a.words(b).is_some();
                prop_assert_eq!(a.mul_words(b).is_some(), words);
                prop_assert!(words || a.add_words(b).is_none());
                prop_assert_eq!(a + b, a.add_limbs(b));
                prop_assert_eq!(a * b, a.mul_limbs(b));
                Ok(())
            },
        );
        // Sums whose numerator or denominator leaves the word range.
        let max = BigInt::from(u64::MAX);
        let cases = [
            (Rat::from(max.clone()), Rat::from(max.clone())),
            (Rat::new(BigInt::one(), max.clone()), Rat::new(BigInt::one(), BigInt::from(3i64))),
            (Rat::new(max.clone(), BigInt::from(2i64)), Rat::new(-&max, BigInt::from(3i64))),
        ];
        for (a, b) in cases {
            assert_eq!(&a + &b, a.add_limbs(&b), "{a} + {b}");
            assert_eq!(&a * &b, a.mul_limbs(&b), "{a} * {b}");
        }
    }

    #[test]
    fn cmp_word_path_matches_cross_multiplication() {
        use crate::testgen::config;
        use cso_runtime::prop::{self, zip2};
        use cso_runtime::prop_assert_eq;
        prop::check_with(
            &config(),
            "cmp_word_path_matches_cross_multiplication",
            &zip2(arb_rat(), arb_rat()),
            |(a, b)| {
                prop_assert_eq!(a.cmp(b), (&a.num * &b.den).cmp(&(&b.num * &a.den)));
                prop_assert_eq!(a.cmp(a), std::cmp::Ordering::Equal);
                Ok(())
            },
        );
    }

    #[test]
    fn to_f64_accuracy() {
        assert_eq!(r("1/2").to_f64(), 0.5);
        assert_eq!(r("-7").to_f64(), -7.0);
        let x = r("123456789/1000000");
        assert!((x.to_f64() - 123.456789).abs() < 1e-9);
        // Huge numerator and denominator.
        let big = Rat::new(BigInt::from(7i64).pow(100), BigInt::from(11i64).pow(90));
        let expect = 100.0 * 7f64.ln().exp2().log2(); // dummy to avoid constant folding; real check below
        let _ = expect;
        let lg = 100.0 * 7f64.log2() - 90.0 * 11f64.log2();
        assert!((big.to_f64().log2() - lg).abs() < 1e-9);
        // Tiny values: the scale factor alone would underflow to 0.
        let pow2 = |k: u64| BigInt::one().shl(k);
        assert_eq!(Rat::new(BigInt::one(), pow2(1000)).to_f64(), 2f64.powi(-1000));
        assert_eq!(Rat::new(BigInt::from(-3i64), pow2(1074)).to_f64(), -3.0 * f64::from_bits(1));
        let third = Rat::new(BigInt::one(), &BigInt::from(3i64) * &pow2(1000));
        assert_eq!(third.to_f64(), (1.0 / 3.0) * 2f64.powi(-1000));
        assert_eq!(Rat::new(BigInt::one(), pow2(1076)).to_f64(), 0.0);
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(r("7/2").floor(), BigInt::from(3i64));
        assert_eq!(r("7/2").ceil(), BigInt::from(4i64));
        assert_eq!(r("-7/2").floor(), BigInt::from(-4i64));
        assert_eq!(r("-7/2").ceil(), BigInt::from(-3i64));
        assert_eq!(r("4").floor(), BigInt::from(4i64));
        assert_eq!(r("4").ceil(), BigInt::from(4i64));
    }

    #[test]
    fn recip_and_midpoint() {
        assert_eq!(r("3/4").recip(), r("4/3"));
        assert_eq!(r("-3/4").recip(), r("-4/3"));
        assert_eq!(r("1/2").midpoint(&r("1/4")), r("3/8"));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rat::zero().recip();
    }

    #[test]
    fn min_max_clamp() {
        assert_eq!(r("1/2").min(r("1/3")), r("1/3"));
        assert_eq!(r("1/2").max(r("1/3")), r("1/2"));
        assert_eq!(r("5").clamp(&r("0"), &r("3")), r("3"));
        assert_eq!(r("-5").clamp(&r("0"), &r("3")), r("0"));
        assert_eq!(r("2").clamp(&r("0"), &r("3")), r("2"));
    }

    #[test]
    fn display() {
        assert_eq!(r("3/6").to_string(), "1/2");
        assert_eq!(r("4/2").to_string(), "2");
        assert_eq!(r("-1/3").to_string(), "-1/3");
    }
}
