//! Sound interval evaluation of terms and formulas over box domains.
//!
//! This is the *refutation* semantics. [`ieval_term`] returns an interval
//! guaranteed to contain the exact value of the term at every point of the
//! box; [`ieval_formula`] returns a three-valued verdict:
//!
//! * [`Tri::True`] — the formula holds at **every** point of the box;
//! * [`Tri::False`] — the formula holds at **no** point of the box;
//! * [`Tri::Unknown`] — the interval test cannot decide.
//!
//! Soundness of `Tri::False` is what makes branch-and-prune refutations
//! (and therefore the synthesis engine's convergence signal) trustworthy.

use crate::term::{CmpOp, Formula, Term};
use crate::vars::BoxDomain;
use cso_numeric::interval::{round_down, round_up};
use cso_numeric::{Interval, Rat};

/// Three-valued verdict of an interval formula check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    /// Certainly true over the whole box.
    True,
    /// Certainly false over the whole box.
    False,
    /// Undecided at this box size.
    Unknown,
}

impl Tri {
    /// Three-valued conjunction.
    #[must_use]
    pub fn and(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::False, _) | (_, Tri::False) => Tri::False,
            (Tri::True, Tri::True) => Tri::True,
            _ => Tri::Unknown,
        }
    }

    /// Three-valued disjunction.
    #[must_use]
    pub fn or(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::True, _) | (_, Tri::True) => Tri::True,
            (Tri::False, Tri::False) => Tri::False,
            _ => Tri::Unknown,
        }
    }

    /// Three-valued negation. Kept as an inherent method alongside
    /// `and`/`or` — Kleene logic reads better without operator overloading.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Tri {
        match self {
            Tri::True => Tri::False,
            Tri::False => Tri::True,
            Tri::Unknown => Tri::Unknown,
        }
    }
}

/// Sound enclosure of a single rational constant. `Rat::to_f64` is only
/// accurate to ~1 ulp, so a constant like `1/3` must not be enclosed as
/// `Interval::point(r.to_f64())` — that point can *exclude* the true value,
/// and a `Tri::False` built on it could refute a box containing a
/// satisfying point. Exactly-representable constants (integers, dyadics —
/// the common case) stay points so decided comparisons stay sharp;
/// everything else is widened outward by one ulp on both sides, covering
/// the true rational whichever way `to_f64` rounded. That holds across the
/// whole range: tiny constants round to a subnormal (or zero) within one
/// ulp, and an infinite `to_f64` means `|r| > f64::MAX`, where widening ∞
/// gives `[f64::MAX, ∞]`.
#[must_use]
pub fn rat_enclosure(r: &Rat) -> Interval {
    let x = r.to_f64();
    if x.is_finite() && Rat::from_f64(x).as_ref() == Some(r) {
        Interval::point(x)
    } else {
        Interval::new(round_down(x), round_up(x))
    }
}

/// Evaluate a term over a box, returning a sound enclosure of its range.
#[must_use]
pub fn ieval_term(t: &Term, dom: &BoxDomain) -> Interval {
    match t {
        Term::Const(r) => rat_enclosure(r),
        Term::Var(v) => dom.get(*v),
        Term::Neg(a) => -ieval_term(a, dom),
        Term::Add(a, b) => ieval_term(a, dom) + ieval_term(b, dom),
        Term::Sub(a, b) => ieval_term(a, dom) - ieval_term(b, dom),
        Term::Mul(a, b) => ieval_term(a, dom) * ieval_term(b, dom),
        Term::Div(a, b) => ieval_term(a, dom) / ieval_term(b, dom),
        Term::Min(a, b) => ieval_term(a, dom).min_i(&ieval_term(b, dom)),
        Term::Max(a, b) => ieval_term(a, dom).max_i(&ieval_term(b, dom)),
        Term::Ite(c, a, b) => match ieval_formula(c, dom) {
            Tri::True => ieval_term(a, dom),
            Tri::False => ieval_term(b, dom),
            Tri::Unknown => ieval_term(a, dom).hull(&ieval_term(b, dom)),
        },
    }
}

/// Decide a comparison between two interval enclosures, if possible.
#[must_use]
pub fn icmp(op: CmpOp, a: Interval, b: Interval) -> Tri {
    match op {
        CmpOp::Lt => {
            if a.hi() < b.lo() {
                Tri::True
            } else if a.lo() >= b.hi() {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        CmpOp::Le => {
            if a.hi() <= b.lo() {
                Tri::True
            } else if a.lo() > b.hi() {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        CmpOp::Gt => icmp(CmpOp::Lt, b, a),
        CmpOp::Ge => icmp(CmpOp::Le, b, a),
        CmpOp::Eq => {
            // Equal only if both are the same point; disjoint means false.
            if a.lo() == a.hi() && b.lo() == b.hi() && a.lo() == b.lo() {
                Tri::True
            } else if a.hi() < b.lo() || b.hi() < a.lo() {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        CmpOp::Ne => icmp(CmpOp::Eq, a, b).not(),
    }
}

/// Evaluate a formula over a box, returning a sound three-valued verdict.
#[must_use]
pub fn ieval_formula(f: &Formula, dom: &BoxDomain) -> Tri {
    match f {
        Formula::True => Tri::True,
        Formula::False => Tri::False,
        Formula::Cmp(op, a, b) => icmp(*op, ieval_term(a, dom), ieval_term(b, dom)),
        Formula::And(fs) => {
            let mut acc = Tri::True;
            for g in fs {
                acc = acc.and(ieval_formula(g, dom));
                if acc == Tri::False {
                    return Tri::False;
                }
            }
            acc
        }
        Formula::Or(fs) => {
            let mut acc = Tri::False;
            for g in fs {
                acc = acc.or(ieval_formula(g, dom));
                if acc == Tri::True {
                    return Tri::True;
                }
            }
            acc
        }
        Formula::Not(g) => ieval_formula(g, dom).not(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars::{VarId, VarRegistry};

    fn dom2(x: (f64, f64), y: (f64, f64)) -> BoxDomain {
        let mut d = BoxDomain::with_len(2);
        d.set(VarId(0), Interval::new(x.0, x.1));
        d.set(VarId(1), Interval::new(y.0, y.1));
        d
    }

    #[test]
    fn tri_truth_tables() {
        assert_eq!(Tri::True.and(Tri::Unknown), Tri::Unknown);
        assert_eq!(Tri::False.and(Tri::Unknown), Tri::False);
        assert_eq!(Tri::True.or(Tri::Unknown), Tri::True);
        assert_eq!(Tri::False.or(Tri::Unknown), Tri::Unknown);
        assert_eq!(Tri::Unknown.not(), Tri::Unknown);
        assert_eq!(Tri::True.not(), Tri::False);
    }

    #[test]
    fn term_enclosure() {
        let mut r = VarRegistry::new();
        let x = r.intern("x");
        let y = r.intern("y");
        let t = Term::var(x).mul(Term::var(y));
        let d = dom2((1.0, 2.0), (3.0, 4.0));
        let iv = ieval_term(&t, &d);
        assert!(iv.contains_f64(3.0) && iv.contains_f64(8.0));
        assert!(iv.lo() >= 2.9 && iv.hi() <= 8.1);
    }

    #[test]
    fn cmp_decisions() {
        assert_eq!(icmp(CmpOp::Lt, Interval::new(0.0, 1.0), Interval::new(2.0, 3.0)), Tri::True);
        assert_eq!(icmp(CmpOp::Lt, Interval::new(2.0, 3.0), Interval::new(0.0, 1.0)), Tri::False);
        assert_eq!(icmp(CmpOp::Lt, Interval::new(0.0, 2.5), Interval::new(2.0, 3.0)), Tri::Unknown);
        assert_eq!(icmp(CmpOp::Ge, Interval::new(5.0, 6.0), Interval::new(1.0, 5.0)), Tri::True);
        assert_eq!(icmp(CmpOp::Eq, Interval::point(2.0), Interval::point(2.0)), Tri::True);
        assert_eq!(icmp(CmpOp::Eq, Interval::new(0.0, 1.0), Interval::new(2.0, 3.0)), Tri::False);
        assert_eq!(icmp(CmpOp::Ne, Interval::new(0.0, 1.0), Interval::new(2.0, 3.0)), Tri::True);
    }

    #[test]
    fn le_boundary_is_true() {
        // a.hi == b.lo: every a <= every b.
        assert_eq!(icmp(CmpOp::Le, Interval::new(0.0, 2.0), Interval::new(2.0, 3.0)), Tri::True);
        // strict < at touching boundary cannot be certain.
        assert_eq!(icmp(CmpOp::Lt, Interval::new(0.0, 2.0), Interval::new(2.0, 3.0)), Tri::Unknown);
    }

    #[test]
    fn formula_refutation() {
        let mut r = VarRegistry::new();
        let x = r.intern("x");
        let y = r.intern("y");
        // x * y >= 100 is certainly false on [0,2]x[0,2].
        let f = Term::var(x).mul(Term::var(y)).ge(Term::int(100));
        assert_eq!(ieval_formula(&f, &dom2((0.0, 2.0), (0.0, 2.0))), Tri::False);
        // ... and certainly true on [20,30]x[20,30].
        assert_eq!(ieval_formula(&f, &dom2((20.0, 30.0), (20.0, 30.0))), Tri::True);
        // ... and unknown on [0,20]x[0,20].
        assert_eq!(ieval_formula(&f, &dom2((0.0, 20.0), (0.0, 20.0))), Tri::Unknown);
    }

    #[test]
    fn ite_hulls_when_condition_unknown() {
        let mut r = VarRegistry::new();
        let x = r.intern("x");
        let _ = r.intern("y");
        // if x >= 1 then 1000 else 0, over x in [0, 2]: condition unknown.
        let t = Term::ite(Term::var(x).ge(Term::int(1)), Term::int(1000), Term::int(0));
        let d = dom2((0.0, 2.0), (0.0, 0.0));
        let iv = ieval_term(&t, &d);
        assert!(iv.contains_f64(0.0) && iv.contains_f64(1000.0));
        // Over x in [1.5, 2]: condition certainly true.
        let d2 = dom2((1.5, 2.0), (0.0, 0.0));
        assert_eq!(ieval_term(&t, &d2), Interval::point(1000.0));
    }

    #[test]
    fn inexact_constants_are_widened_outward() {
        use cso_numeric::Rat;
        let third = Rat::from_frac(1, 3);
        let iv = rat_enclosure(&third);
        // The enclosure must contain the true value: 3·iv ∋ 1.
        let tripled = iv * Interval::point(3.0);
        assert!(tripled.lo() < 1.0 && 1.0 < tripled.hi());
        assert!(iv.hi() > iv.lo(), "1/3 is not a dyadic; its enclosure must be widened");
        // Exactly representable constants stay points.
        assert_eq!(rat_enclosure(&Rat::from_int(7)), Interval::point(7.0));
        assert_eq!(rat_enclosure(&Rat::from_frac(3, 4)), Interval::point(0.75));
    }

    #[test]
    fn constants_past_the_f64_range_are_enclosed() {
        use cso_numeric::{BigInt, Rat};
        // 2^-1000 is a double, so its enclosure is that point.
        let tiny = Rat::new(BigInt::one(), BigInt::one().shl(1000));
        assert_eq!(rat_enclosure(&tiny), Interval::point(2f64.powi(-1000)));
        // -3·2^-1075 lies halfway between two subnormals and rounds to
        // -2·2^-1074; one ulp either side of that covers it.
        let neg_tiny = Rat::new(BigInt::from(-3i64), BigInt::one().shl(1075));
        let sub = f64::from_bits(1);
        assert_eq!(rat_enclosure(&neg_tiny), Interval::new(-3.0 * sub, -sub));
        // Past f64::MAX, `to_f64` is infinite; the old point [∞, ∞]
        // excluded the finite value.
        let huge = Rat::from(BigInt::one().shl(1024));
        assert_eq!(rat_enclosure(&huge), Interval::new(f64::MAX, f64::INFINITY));
        assert_eq!(rat_enclosure(&-huge), Interval::new(f64::NEG_INFINITY, -f64::MAX));
    }

    #[test]
    fn point_enclosure_must_not_refute_a_satisfiable_box() {
        use crate::vars::VarRegistry;
        use cso_numeric::Rat;
        // Regression: with `Const(1/3)` enclosed as a rounded point c, the
        // degenerate box [c, c] was wrongly refuted for `x < 1/3` (when
        // to_f64 rounds down, x = c *does* satisfy it) or for `x > 1/3`
        // (when it rounds up). Whichever way the conversion rounded, the
        // satisfiable side must no longer come back `Tri::False`.
        let third = Rat::from_frac(1, 3);
        let c = third.to_f64();
        let rc = Rat::from_f64(c).expect("finite");
        assert_ne!(rc, third, "1/3 must not convert exactly");
        let mut r = VarRegistry::new();
        let x = r.intern("x");
        let mut d = BoxDomain::new(&r);
        d.set(x, Interval::point(c));
        let f = if rc < third {
            Term::var(x).lt(Term::constant(third)) // x = c satisfies x < 1/3
        } else {
            Term::var(x).gt(Term::constant(third)) // x = c satisfies x > 1/3
        };
        assert_ne!(ieval_formula(&f, &d), Tri::False, "box contains a satisfying point");
    }

    #[test]
    fn division_across_zero_gives_whole() {
        let mut r = VarRegistry::new();
        let x = r.intern("x");
        let _ = r.intern("y");
        let t = Term::int(1).div(Term::var(x));
        let d = dom2((-1.0, 1.0), (0.0, 0.0));
        let iv = ieval_term(&t, &d);
        assert!(iv.lo().is_infinite() && iv.hi().is_infinite());
        // A comparison against it is unknown, never a crash.
        let f = t.gt(Term::int(0));
        assert_eq!(ieval_formula(&f, &d), Tri::Unknown);
    }
}
