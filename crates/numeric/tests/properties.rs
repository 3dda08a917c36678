//! Property-based tests for the numeric substrate.
//!
//! These check the algebraic laws that the rest of the workspace silently
//! relies on: field axioms for `Rat`, ring axioms and Euclidean division for
//! `BigInt`, soundness (containment) for `Interval`, and bit-for-bit
//! agreement of the lane kernels and the rounding helpers with the scalar
//! operations they replace.

use cso_numeric::interval::{round_down, round_up};
use cso_numeric::{BigInt, Interval, IntervalLanes, Rat};
use cso_runtime::prop::{
    self, bool_any, f64_in, i128_any, i64_any, int_in, just, one_of, u64_in, u8_any, usize_in,
    vec_of, zip2, zip3, zip4, Config, Gen,
};
use cso_runtime::{prop_assert, prop_assert_eq, prop_assume};

fn arb_bigint() -> Gen<BigInt> {
    // Mix small values with products of large factors to stress multi-limb paths.
    one_of(vec![
        i64_any().map(BigInt::from),
        zip2(i128_any(), i64_any()).map(|(a, b)| &BigInt::from(a) * &BigInt::from(b)),
        zip3(i128_any(), i128_any(), u8_any())
            .map(|(a, b, s)| (&BigInt::from(a) * &BigInt::from(b)).shl(u64::from(s % 64))),
    ])
}

fn arb_rat() -> Gen<Rat> {
    zip2(i64_any(), int_in(1, i64::MAX)).map(|(p, q)| Rat::new(BigInt::from(p), BigInt::from(q)))
}

fn arb_interval() -> Gen<Interval> {
    zip2(f64_in(-1e6, 1e6), f64_in(-1e6, 1e6)).map(|(a, b)| Interval::new(a.min(b), a.max(b)))
}

#[test]
fn bigint_add_commutes() {
    prop::check("bigint_add_commutes", &zip2(arb_bigint(), arb_bigint()), |(a, b)| {
        prop_assert_eq!(a + b, b + a);
        Ok(())
    });
}

#[test]
fn bigint_add_associates() {
    prop::check(
        "bigint_add_associates",
        &zip3(arb_bigint(), arb_bigint(), arb_bigint()),
        |(a, b, c)| {
            prop_assert_eq!(&(a + b) + c, a + &(b + c));
            Ok(())
        },
    );
}

#[test]
fn bigint_mul_distributes() {
    prop::check(
        "bigint_mul_distributes",
        &zip3(arb_bigint(), arb_bigint(), arb_bigint()),
        |(a, b, c)| {
            prop_assert_eq!(a * &(b + c), &(a * b) + &(a * c));
            Ok(())
        },
    );
}

#[test]
fn bigint_sub_inverse() {
    prop::check("bigint_sub_inverse", &zip2(arb_bigint(), arb_bigint()), |(a, b)| {
        prop_assert_eq!(&(a + b) - b, a.clone());
        Ok(())
    });
}

#[test]
fn bigint_divrem_identity() {
    prop::check("bigint_divrem_identity", &zip2(arb_bigint(), arb_bigint()), |(a, b)| {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(b);
        prop_assert_eq!(&(&q * b) + &r, a.clone());
        prop_assert!(r.abs() < b.abs());
        // Remainder sign matches dividend (truncated division).
        prop_assert!(r.is_zero() || r.sign() == a.sign());
        Ok(())
    });
}

#[test]
fn bigint_parse_roundtrip() {
    prop::check("bigint_parse_roundtrip", &arb_bigint(), |a| {
        let s = a.to_string();
        let back: BigInt = s.parse().unwrap();
        prop_assert_eq!(back, a.clone());
        Ok(())
    });
}

#[test]
fn bigint_gcd_divides_both() {
    prop::check("bigint_gcd_divides_both", &zip2(arb_bigint(), arb_bigint()), |(a, b)| {
        prop_assume!(!a.is_zero() || !b.is_zero());
        let g = a.gcd(b);
        prop_assert!(!g.is_zero());
        prop_assert!((a % &g).is_zero());
        prop_assert!((b % &g).is_zero());
        Ok(())
    });
}

#[test]
fn bigint_shift_roundtrip() {
    prop::check("bigint_shift_roundtrip", &zip2(arb_bigint(), int_in(0, 199)), |(a, s)| {
        let s = *s as u64;
        prop_assert_eq!(a.shl(s).shr(s), a.clone());
        Ok(())
    });
}

#[test]
fn bigint_ordering_consistent_with_sub() {
    prop::check(
        "bigint_ordering_consistent_with_sub",
        &zip2(arb_bigint(), arb_bigint()),
        |(a, b)| {
            let d = a - b;
            prop_assert_eq!(a.cmp(b), d.cmp(&BigInt::zero()));
            Ok(())
        },
    );
}

#[test]
fn rat_field_add_commutes() {
    prop::check("rat_field_add_commutes", &zip2(arb_rat(), arb_rat()), |(a, b)| {
        prop_assert_eq!(a + b, b + a);
        Ok(())
    });
}

#[test]
fn rat_mul_associates() {
    prop::check("rat_mul_associates", &zip3(arb_rat(), arb_rat(), arb_rat()), |(a, b, c)| {
        prop_assert_eq!(&(a * b) * c, a * &(b * c));
        Ok(())
    });
}

#[test]
fn rat_distributive() {
    prop::check("rat_distributive", &zip3(arb_rat(), arb_rat(), arb_rat()), |(a, b, c)| {
        prop_assert_eq!(a * &(b + c), &(a * b) + &(a * c));
        Ok(())
    });
}

#[test]
fn rat_div_inverse() {
    prop::check("rat_div_inverse", &zip2(arb_rat(), arb_rat()), |(a, b)| {
        prop_assume!(!b.is_zero());
        prop_assert_eq!(&(a / b) * b, a.clone());
        Ok(())
    });
}

#[test]
fn rat_normalized() {
    prop::check("rat_normalized", &arb_rat(), |a| {
        prop_assert!(a.denom().is_positive());
        prop_assert!(a.numer().gcd(a.denom()).is_one() || a.is_zero());
        Ok(())
    });
}

#[test]
fn rat_ordering_total() {
    prop::check("rat_ordering_total", &zip3(arb_rat(), arb_rat(), arb_rat()), |abc| {
        // Transitivity spot-check.
        let mut v = [abc.0.clone(), abc.1.clone(), abc.2.clone()];
        v.sort();
        prop_assert!(v[0] <= v[1] && v[1] <= v[2] && v[0] <= v[2]);
        Ok(())
    });
}

#[test]
fn rat_f64_roundtrip_is_exact() {
    prop::check("rat_f64_roundtrip_is_exact", &f64_in(-1e12, 1e12), |&x| {
        let r = Rat::from_f64(x).unwrap();
        prop_assert_eq!(r.to_f64(), x);
        Ok(())
    });
}

/// A one-limb magnitude: small, near powers of ten and two, random, and
/// within a few steps of `u64::MAX`, where the word products and sums of
/// `Rat` arithmetic overflow into the limb fallback.
fn arb_limb() -> Gen<u64> {
    one_of(vec![
        u64_in(0, 1000),
        u64_in(1, 1 << 20).map(|k| k * 1_000_000),
        int_in(0, 63).map(|k| 1 << k),
        u64_in(0, u64::MAX),
        u64_in(0, 16).map(|k| u64::MAX - k),
        u64_in(0, 16).map(|k| (1 << 63) + k),
    ])
}

/// `±num / den` from one-limb parts (`den > 0`).
fn arb_word_rat() -> Gen<Rat> {
    zip3(arb_limb(), arb_limb(), bool_any()).map(|(n, d, neg)| {
        let n = BigInt::from(n);
        Rat::new(if neg { -n } else { n }, BigInt::from(d.max(1)))
    })
}

/// `num / den` in lowest terms with a positive denominator, by `BigInt`
/// arithmetic alone.
fn normalized(num: BigInt, den: BigInt) -> (BigInt, BigInt) {
    let (num, den) = if den.is_negative() { (-num, -den) } else { (num, den) };
    if num.is_zero() {
        return (BigInt::zero(), BigInt::one());
    }
    let g = num.gcd(&den);
    (&num / &g, &den / &g)
}

/// `Rat` arithmetic on one-limb parts equals cross-multiplying and
/// normalizing the parts as `BigInt`s, whichever path the `Rat` took.
#[test]
fn rat_ops_match_bigint_arithmetic() {
    prop::check(
        "rat_ops_match_bigint_arithmetic",
        &zip2(arb_word_rat(), arb_word_rat()),
        |(x, y)| {
            let (a, b, c, d) = (x.numer(), x.denom(), y.numer(), y.denom());
            let parts = |r: Rat| (r.numer().clone(), r.denom().clone());
            prop_assert_eq!(parts(x + y), normalized(&(a * d) + &(c * b), b * d), "{} + {}", x, y);
            prop_assert_eq!(parts(x - y), normalized(&(a * d) - &(c * b), b * d), "{} - {}", x, y);
            prop_assert_eq!(parts(x * y), normalized(a * c, b * d), "{} * {}", x, y);
            if !y.is_zero() {
                prop_assert_eq!(parts(x / y), normalized(a * d, b * c), "{} / {}", x, y);
            }
            Ok(())
        },
    );
}

#[test]
fn rat_floor_le_ceil() {
    prop::check("rat_floor_le_ceil", &arb_rat(), |a| {
        let f = Rat::from(a.floor());
        let c = Rat::from(a.ceil());
        prop_assert!(&f <= a && a <= &c);
        prop_assert!(&c - &f <= Rat::one());
        Ok(())
    });
}

/// `(interval, interval, point-in-first, point-in-second)` for soundness
/// checks of the interval operations.
fn arb_two_intervals_with_points() -> Gen<(Interval, Interval, f64, f64)> {
    // Endpoints are where an unrounded bound first excludes the exact result.
    let at = || one_of(vec![just(0.0), just(1.0), f64_in(0.0, 1.0)]);
    zip4(arb_interval(), arb_interval(), at(), at()).map(|(i, j, t, u)| {
        // The interpolation can round one ulp past an endpoint; the
        // exact-soundness checks need points truly inside the inputs.
        let x = (i.lo() + t * (i.hi() - i.lo())).clamp(i.lo(), i.hi());
        let y = (j.lo() + u * (j.hi() - j.lo())).clamp(j.lo(), j.hi());
        (i, j, x, y)
    })
}

/// Exact membership of `q` in `iv`: every finite `f64` converts exactly
/// to a `Rat`, and an infinite endpoint leaves that side unbounded.
fn contains_exact(iv: Interval, q: &Rat) -> bool {
    let above_lo =
        iv.lo() == f64::NEG_INFINITY || Rat::from_f64(iv.lo()).is_some_and(|lo| lo <= *q);
    let below_hi = iv.hi() == f64::INFINITY || Rat::from_f64(iv.hi()).is_some_and(|hi| *q <= hi);
    above_lo && below_hi
}

/// Exact operands: `x` and `y` are finite, so the conversion is exact.
fn exact(x: f64) -> Rat {
    Rat::from_f64(x).expect("finite point")
}

#[test]
fn interval_add_sound() {
    prop::check("interval_add_sound", &arb_two_intervals_with_points(), |&(i, j, x, y)| {
        prop_assert!(contains_exact(i + j, &(&exact(x) + &exact(y))));
        Ok(())
    });
}

#[test]
fn interval_mul_sound() {
    prop::check("interval_mul_sound", &arb_two_intervals_with_points(), |&(i, j, x, y)| {
        prop_assert!(contains_exact(i * j, &(&exact(x) * &exact(y))));
        Ok(())
    });
}

#[test]
fn interval_div_sound() {
    prop::check("interval_div_sound", &arb_two_intervals_with_points(), |&(i, j, x, y)| {
        prop_assume!(y != 0.0);
        prop_assert!(contains_exact(i / j, &(&exact(x) / &exact(y))));
        Ok(())
    });
}

#[test]
fn interval_sub_sound() {
    prop::check("interval_sub_sound", &arb_two_intervals_with_points(), |&(i, j, x, y)| {
        prop_assert!(contains_exact(i - j, &(&exact(x) - &exact(y))));
        Ok(())
    });
}

#[test]
fn interval_bisect_partitions() {
    prop::check("interval_bisect_partitions", &arb_interval(), |&i| {
        let (l, r) = i.bisect();
        prop_assert_eq!(l.lo(), i.lo());
        prop_assert_eq!(r.hi(), i.hi());
        prop_assert_eq!(l.hi(), r.lo());
        prop_assert!(i.contains(&l) && i.contains(&r));
        Ok(())
    });
}

#[test]
fn interval_intersect_commutes() {
    prop::check("interval_intersect_commutes", &zip2(arb_interval(), arb_interval()), |&(i, j)| {
        prop_assert_eq!(i.intersect(&j), j.intersect(&i));
        if let Some(k) = i.intersect(&j) {
            prop_assert!(i.contains(&k) && j.contains(&k));
        }
        Ok(())
    });
}

#[test]
fn rat_from_f64_matches_interval() {
    prop::check(
        "rat_from_f64_matches_interval",
        &zip2(f64_in(-1e9, 1e9), f64_in(-1e9, 1e9)),
        |&(x, y)| {
            // Exact rational arithmetic must land inside the outward-rounded
            // interval product: the agreement contract between the two layers.
            let rx = Rat::from_f64(x).unwrap();
            let ry = Rat::from_f64(y).unwrap();
            let exact = (&rx * &ry).to_f64();
            let iv = Interval::point(x) * Interval::point(y);
            prop_assert!(iv.contains_f64(exact));
            Ok(())
        },
    );
}

/// An `f64` biased to where outward rounding and the lane selects could go
/// wrong: signed zeros, infinities, `±f64::MAX`, subnormals, powers of two
/// and their neighbours, and arbitrary finite bit patterns.
fn arb_edge_f64() -> Gen<f64> {
    let signed = |g: Gen<f64>| zip2(g, bool_any()).map(|(x, neg)| if neg { -x } else { x });
    one_of(vec![
        signed(just(0.0)),
        signed(just(f64::INFINITY)),
        signed(just(f64::MAX)),
        signed(u64_in(1, (1 << 52) - 1).map(f64::from_bits)),
        signed(zip2(int_in(-1074, 1023), int_in(-1, 1)).map(|(e, step)| {
            let p = 2f64.powi(e as i32);
            match step {
                -1 => p.next_down(),
                1 => p.next_up(),
                _ => p,
            }
        })),
        signed(u64_in(0, 0x7FEF_FFFF_FFFF_FFFF).map(f64::from_bits)),
        f64_in(-1e6, 1e6),
        f64_in(-2.0, 2.0),
    ])
}

/// An `f64` for products where the hardware rounds: `arb_edge_f64`, and
/// more often subnormals (small significands, where the product's
/// rounding bits are few), the neighbours of `f64::MIN_POSITIVE`, and
/// factors such as `1.5` or `2^-k` that put a product exactly on a
/// rounding tie.
fn arb_product_operand() -> Gen<f64> {
    let signed = |g: Gen<f64>| zip2(g, bool_any()).map(|(x, neg)| if neg { -x } else { x });
    one_of(vec![
        arb_edge_f64(),
        signed(u64_in(1, 64).map(f64::from_bits)),
        signed(u64_in(1, (1 << 52) - 1).map(f64::from_bits)),
        signed(int_in(-8, 8).map(|k| {
            let bits = f64::MIN_POSITIVE.to_bits();
            f64::from_bits(bits.wrapping_add_signed(k))
        })),
        signed(
            zip2(int_in(0, 8), int_in(-60, 2))
                .map(|(m, e)| (2 * m + 1) as f64 * 2f64.powi(e as i32)),
        ),
    ])
}

/// The hardware reference for one endpoint product: IEEE `a * b`, except
/// that an exact zero annihilates (also an infinite other operand).
fn hw_mul(a: f64, b: f64) -> f64 {
    if a == 0.0 || b == 0.0 {
        0.0
    } else {
        a * b
    }
}

/// The point product and the lane product both equal the hardware product
/// `a * b`, outward-rounded, bit for bit; subnormal operands take an
/// integer path that must round exactly as the multiplier does.
#[test]
fn interval_mul_matches_hardware() {
    let pairs = vec_of(zip2(arb_product_operand(), arb_product_operand()), LANES, LANES);
    prop::check_with(
        &Config { cases: 2000, ..Config::default() },
        "interval_mul_matches_hardware",
        &zip2(pairs, usize_in(0, LANES)),
        |(pairs, n)| {
            let (mut a, mut b) = (IntervalLanes::<LANES>::default(), IntervalLanes::default());
            for (k, &(x, y)) in pairs.iter().enumerate() {
                a.set(k, Interval::point(x));
                b.set(k, Interval::point(y));
            }
            let mut out = IntervalLanes::default();
            a.mul(&b, &mut out, *n);
            for (k, &(x, y)) in pairs.iter().enumerate() {
                let p = hw_mul(x, y);
                let want = (round_down(p).to_bits(), round_up(p).to_bits());
                let point = Interval::point(x) * Interval::point(y);
                let got = (point.lo().to_bits(), point.hi().to_bits());
                prop_assert_eq!(
                    got,
                    want,
                    "point {:e} * {:e}: got [{:e}, {:e}]",
                    x,
                    y,
                    point.lo(),
                    point.hi()
                );
                if k < *n {
                    let lane = (out.lo[k].to_bits(), out.hi[k].to_bits());
                    prop_assert_eq!(lane, want, "lane {} of {}: {:e} * {:e}", k, n, x, y);
                }
            }
            Ok(())
        },
    );
    // Rounding ties and carries at the subnormal/normal boundary.
    let tiny = f64::from_bits(1);
    let top_sub = f64::MIN_POSITIVE.next_down();
    for (a, b) in [
        (tiny, 0.5),
        (tiny, 1.5),
        (tiny, 2.5),
        (tiny, tiny),
        (tiny, f64::MAX),
        (tiny, f64::INFINITY),
        (top_sub, 1.0 + f64::EPSILON),
        (top_sub, 0.75),
        (f64::from_bits(3), 1.0 / 3.0),
    ] {
        for (x, y) in [(a, b), (b, -a)] {
            let p = Interval::point(x) * Interval::point(y);
            let want = (round_down(x * y).to_bits(), round_up(x * y).to_bits());
            assert_eq!((p.lo().to_bits(), p.hi().to_bits()), want, "{x:e} * {y:e}");
        }
    }
}

/// An interval with edge endpoints: points, half-infinite and whole
/// intervals, and (often) divisors straddling zero.
fn arb_edge_interval() -> Gen<Interval> {
    one_of(vec![
        zip2(arb_edge_f64(), arb_edge_f64()).map(|(a, b)| Interval::new(a.min(b), a.max(b))),
        arb_edge_f64().map(Interval::point),
        zip2(arb_edge_f64(), arb_edge_f64())
            .map(|(a, b)| Interval::new(-a.abs(), b.abs()).hull(&Interval::point(0.0))),
    ])
}

#[test]
fn round_down_up_match_next_down_up() {
    prop::check_with(
        &Config { cases: 2000, ..Config::default() },
        "round_down_up_match_next_down_up",
        &arb_edge_f64(),
        |&x| {
            prop_assert_eq!(
                round_down(x).to_bits(),
                x.next_down().to_bits(),
                "round_down({:e})",
                x
            );
            prop_assert_eq!(round_up(x).to_bits(), x.next_up().to_bits(), "round_up({:e})", x);
            Ok(())
        },
    );
}

const LANES: usize = 8;

/// Every lane operation equals the scalar `Interval` operation on each
/// lane, endpoint bits included, for full and partial batches; lanes past
/// the live count keep their previous contents.
#[test]
fn interval_lanes_match_scalar_bit_for_bit() {
    let pairs = vec_of(zip2(arb_edge_interval(), arb_edge_interval()), LANES, LANES);
    prop::check_with(
        &Config { cases: 2000, ..Config::default() },
        "interval_lanes_match_scalar_bit_for_bit",
        &zip2(pairs, usize_in(0, LANES)),
        |(pairs, n)| {
            let (mut a, mut b) = (IntervalLanes::<LANES>::default(), IntervalLanes::default());
            for (k, (x, y)) in pairs.iter().enumerate() {
                a.set(k, *x);
                b.set(k, *y);
            }
            type Lanes = IntervalLanes<LANES>;
            type Lane = fn(&Lanes, &Lanes, &mut Lanes, usize);
            type Scalar = fn(Interval, Interval) -> Interval;
            let ops: [(&str, Lane, Scalar); 7] = [
                ("neg", |a, _, o, n| a.neg(o, n), |x, _| -x),
                ("add", IntervalLanes::add, |x, y| x + y),
                ("sub", IntervalLanes::sub, |x, y| x - y),
                ("mul", IntervalLanes::mul, |x, y| x * y),
                ("div", IntervalLanes::div, |x, y| x / y),
                ("min", IntervalLanes::min, |x, y| x.min_i(&y)),
                ("max", IntervalLanes::max, |x, y| x.max_i(&y)),
            ];
            for (name, lane, scalar) in ops {
                let mut out = IntervalLanes::splat(Interval::new(-7.0, 7.0));
                lane(&a, &b, &mut out, *n);
                for (k, &(x, y)) in pairs.iter().enumerate() {
                    let want = if k < *n { scalar(x, y) } else { Interval::new(-7.0, 7.0) };
                    prop_assert_eq!(
                        (out.lo[k].to_bits(), out.hi[k].to_bits()),
                        (want.lo().to_bits(), want.hi().to_bits()),
                        "{} lane {} of {} on {} and {}: got [{:e}, {:e}], want {}",
                        name,
                        k,
                        n,
                        x,
                        y,
                        out.lo[k],
                        out.hi[k],
                        want
                    );
                }
            }
            Ok(())
        },
    );
}
