//! Property-based tests for the logic crate.
//!
//! The two contracts that the synthesis engine's correctness rests on:
//!
//! 1. **Enclosure** — for any term `t` and any point `p` in a box `B`,
//!    `eval(t, p) ∈ ieval(t, B)`, and interval formula verdicts agree with
//!    exact evaluation (True ⇒ eval true, False ⇒ eval false).
//! 2. **Simplification** — `simplify(t)` evaluates identically to `t` on
//!    every error-free input.

use cso_logic::eval::{eval_formula, eval_term};
use cso_logic::ieval::{ieval_formula, ieval_term, rat_enclosure, Tri};
use cso_logic::simplify::{simplify_formula, simplify_term};
use cso_logic::solver::{Outcome, Solver, SolverConfig};
use cso_logic::{BoxDomain, CmpOp, Formula, Term, VarId};
use cso_numeric::{BigInt, Interval, Rat};
use cso_runtime::prop::{
    self, i64_any, int_in, just, one_of, recursive, vec_of, zip2, zip3, zip4, Config, Gen,
};
use cso_runtime::{prop_assert, prop_assert_eq};

const NVARS: usize = 3;

fn cfg128() -> Config {
    Config { cases: 128, ..Config::default() }
}

/// Random division-free term over NVARS variables (division would make the
/// "error-free" precondition fiddly; dedicated unit tests cover Div).
fn arb_term() -> Gen<Term> {
    let leaf = one_of(vec![
        int_in(-50, 49).map(Term::int),
        int_in(0, NVARS as i64 - 1).map(|i| Term::var(VarId::from_index(i as usize))),
    ]);
    recursive(leaf, 4, |inner| {
        one_of(vec![
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.add(b)),
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.sub(b)),
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.mul(b)),
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.min(b)),
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.max(b)),
            inner.clone().map(Term::neg),
            zip3(inner.clone(), inner.clone(), inner)
                .map(|(c, a, b)| Term::ite(c.ge(Term::int(0)), a, b)),
        ])
    })
}

fn arb_formula() -> Gen<Formula> {
    let atom = zip3(arb_term(), arb_term(), int_in(0, 5)).map(|(a, b, op)| {
        let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne][op as usize];
        Formula::cmp(op, a, b)
    });
    recursive(atom, 3, |inner| {
        one_of(vec![
            vec_of(inner.clone(), 1, 2).map(Formula::and),
            vec_of(inner.clone(), 1, 2).map(Formula::or),
            inner.map(Formula::not),
        ])
    })
}

/// A box over NVARS vars plus a point inside it.
fn arb_box_and_point() -> Gen<(BoxDomain, Vec<Rat>)> {
    vec_of(zip3(int_in(-20, 19), int_in(0, 9), int_in(0, 100)), NVARS, NVARS).map(|dims| {
        let mut dom = BoxDomain::with_len(NVARS);
        let mut pt = Vec::new();
        for (i, (lo, w, frac)) in dims.into_iter().enumerate() {
            let lo_r = Rat::from_int(lo);
            let hi_r = Rat::from_int(lo + w);
            dom.set(VarId::from_index(i), Interval::new(lo_r.to_f64(), hi_r.to_f64()));
            // Point at lo + w * frac/100: exactly representable rational.
            let p = &lo_r + &(Rat::from_int(w) * Rat::from_frac(frac, 100));
            pt.push(p);
        }
        (dom, pt)
    })
}

#[test]
fn term_enclosure() {
    prop::check_with(
        &cfg128(),
        "term_enclosure",
        &zip2(arb_box_and_point(), arb_term()),
        |((dom, pt), t)| {
            // Exact membership: the endpoints convert to `Rat` exactly, and
            // an infinite endpoint leaves that side unbounded.
            let exact = eval_term(t, pt).expect("division-free term");
            let iv = ieval_term(t, dom);
            let above_lo = iv.lo() == f64::NEG_INFINITY
                || Rat::from_f64(iv.lo()).is_some_and(|lo| lo <= exact);
            let below_hi =
                iv.hi() == f64::INFINITY || Rat::from_f64(iv.hi()).is_some_and(|hi| exact <= hi);
            prop_assert!(above_lo && below_hi, "value {exact} outside enclosure {iv} for {t}");
            Ok(())
        },
    );
}

#[test]
fn formula_verdict_sound() {
    prop::check_with(
        &cfg128(),
        "formula_verdict_sound",
        &zip2(arb_box_and_point(), arb_formula()),
        |((dom, pt), f)| {
            let exact = eval_formula(f, pt).expect("division-free formula");
            match ieval_formula(f, dom) {
                Tri::True => prop_assert!(exact, "Tri::True but point falsifies {f}"),
                Tri::False => prop_assert!(!exact, "Tri::False but point satisfies {f}"),
                Tri::Unknown => {}
            }
            Ok(())
        },
    );
}

#[test]
fn simplify_term_preserves_semantics() {
    prop::check_with(
        &cfg128(),
        "simplify_term_preserves_semantics",
        &zip2(arb_box_and_point(), arb_term()),
        |((_, pt), t)| {
            let s = simplify_term(t);
            let a = eval_term(t, pt).unwrap();
            let b = eval_term(&s, pt).unwrap();
            prop_assert_eq!(a, b, "simplify changed {} -> {}", t, s);
            Ok(())
        },
    );
}

#[test]
fn simplify_formula_preserves_semantics() {
    prop::check_with(
        &cfg128(),
        "simplify_formula_preserves_semantics",
        &zip2(arb_box_and_point(), arb_formula()),
        |((_, pt), f)| {
            let s = simplify_formula(f);
            let a = eval_formula(f, pt).unwrap();
            let b = eval_formula(&s, pt).unwrap();
            prop_assert_eq!(a, b, "simplify changed {} -> {}", f, s);
            Ok(())
        },
    );
}

#[test]
fn simplify_never_grows() {
    prop::check_with(&cfg128(), "simplify_never_grows", &arb_term(), |t| {
        prop_assert!(simplify_term(t).size() <= t.size());
        Ok(())
    });
}

#[test]
fn solver_sat_models_are_certified() {
    prop::check_with(&cfg128(), "solver_sat_models_are_certified", &arb_formula(), |f| {
        let mut dom = BoxDomain::with_len(NVARS);
        for i in 0..NVARS {
            dom.set(VarId::from_index(i), Interval::new(-10.0, 10.0));
        }
        let cfg = SolverConfig { max_boxes: 2_000, initial_samples: 64, ..SolverConfig::default() };
        let mut s = Solver::new(cfg);
        // Unsat / DeltaUnsat / Exhausted are all acceptable for random
        // formulas; only a Sat claim carries a certificate to check.
        if let Outcome::Sat(m) = s.solve(f, &dom) {
            prop_assert!(eval_formula(f, m.values()).unwrap(), "uncertified model for {}", f);
            // Model inside the box.
            for (i, v) in m.values().iter().enumerate() {
                let x = v.to_f64();
                prop_assert!((-10.0..=10.0).contains(&x), "var {i} = {x} out of box");
            }
        }
        Ok(())
    });
}

#[test]
fn solver_unsat_is_sound() {
    prop::check_with(
        &cfg128(),
        "solver_unsat_is_sound",
        &zip2(arb_term(), int_in(1, 49)),
        |(t, k)| {
            // t - t + k > 2k is always false; solver must never claim Sat.
            let f = t.clone().sub(t.clone()).add(Term::int(*k)).gt(Term::int(2 * k));
            let mut dom = BoxDomain::with_len(NVARS);
            for i in 0..NVARS {
                dom.set(VarId::from_index(i), Interval::new(-5.0, 5.0));
            }
            let cfg =
                SolverConfig { max_boxes: 5_000, initial_samples: 16, ..SolverConfig::default() };
            let mut s = Solver::new(cfg);
            let out = s.solve(&f, &dom);
            prop_assert!(!matches!(out, Outcome::Sat(_)), "claimed sat for unsat formula");
            Ok(())
        },
    );
}

/// Random term over NVARS variables *with* division and inexact rational
/// constants (e.g. `1/3`, whose `f64` enclosure must be widened outward).
/// Only the tape differential properties use it: they compare the two
/// evaluators bit for bit, errors included, so partiality is welcome.
fn arb_term_partial() -> Gen<Term> {
    let leaf = one_of(vec![
        int_in(-50, 49).map(Term::int),
        zip2(int_in(-9, 9), int_in(1, 7)).map(|(n, d)| Term::constant(Rat::from_frac(n, d))),
        int_in(0, NVARS as i64 - 1).map(|i| Term::var(VarId::from_index(i as usize))),
    ]);
    recursive(leaf, 3, |inner| {
        one_of(vec![
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.add(b)),
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.sub(b)),
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.mul(b)),
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.div(b)),
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.min(b)),
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.max(b)),
            zip3(inner.clone(), inner.clone(), inner)
                .map(|(c, a, b)| Term::ite(c.ge(Term::int(0)), a, b)),
        ])
    })
}

fn arb_formula_partial() -> Gen<Formula> {
    let atom = zip3(arb_term_partial(), arb_term_partial(), int_in(0, 5)).map(|(a, b, op)| {
        let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne][op as usize];
        Formula::cmp(op, a, b)
    });
    recursive(atom, 3, |inner| {
        one_of(vec![
            vec_of(inner.clone(), 1, 3).map(Formula::and),
            vec_of(inner.clone(), 1, 2).map(Formula::or),
            inner.map(Formula::not),
        ])
    })
}

/// The compiled tape's interval interpreter is decision-identical to the
/// tree walker: for every conjunct of the prepared query and every box,
/// the batched tape verdict equals `ieval_formula` — including on random
/// *sub-boxes* of the seed domain, where domain seeding may replay cached
/// decided verdicts instead of re-evaluating.
#[test]
fn tape_interval_verdicts_match_tree_walker() {
    use cso_logic::{CompiledQuery, TapeScratch};
    prop::check_with(
        &cfg128(),
        "tape_interval_verdicts_match_tree_walker",
        &zip2(arb_box_and_point(), arb_formula_partial()),
        |((dom, pt), f)| {
            let q = CompiledQuery::prepare(f, Some(dom), true);
            let Some(tape) = &q.tape else { return Ok(()) }; // trivial query
                                                             // A sub-box of the seed domain: shrink each dim toward `pt`.
            let mut sub = dom.clone();
            for (i, iv) in dom.intervals().iter().enumerate() {
                let p = pt[i].to_f64();
                sub.set(VarId::from_index(i), Interval::new((iv.lo() + p) / 2.0, p.max(iv.lo())));
            }
            let mut scratch = TapeScratch::new();
            let cis: Vec<u32> = (0..q.conjuncts.len() as u32).collect();
            let mut out = Vec::new();
            tape.verdicts(&[dom, &sub], &cis, &mut scratch, &mut out);
            for (b, d) in [dom, &sub].into_iter().enumerate() {
                for (j, c) in q.conjuncts.iter().enumerate() {
                    let tree = ieval_formula(c, d);
                    let got = out[b * cis.len() + j];
                    prop_assert_eq!(got, tree, "conjunct {} of {} over box {}", j, f, b);
                }
            }
            Ok(())
        },
    );
}

/// Whether the tape's early-exit refuter rejects the point `pt`, run over
/// every conjunct on the point's one-ulp enclosures: the path seeding and
/// branch-and-prune's sample pass take before exact evaluation.
fn refuted_at(tape: &cso_logic::Tape, pt: &[Rat]) -> bool {
    let encl: Vec<Interval> = pt.iter().map(rat_enclosure).collect();
    let mut s = cso_logic::TapeScratch::new();
    let all = 0..tape.conjunct_count() as u32;
    tape.refuter(all, &mut s).refutes_chunk(1, |_, v| encl[v as usize])[0]
}

/// The tape's exact interpreter replays `eval_formula` bit for bit —
/// same verdicts, same errors (division by zero surfaces from the same
/// operand order, untaken `ite` branches never evaluate).
#[test]
fn tape_exact_eval_matches_eval_formula() {
    use cso_logic::{CompiledQuery, ExactScratch};
    prop::check_with(
        &cfg128(),
        "tape_exact_eval_matches_eval_formula",
        &zip2(arb_box_and_point(), arb_formula_partial()),
        |((dom, pt), f)| {
            let q = CompiledQuery::prepare(f, Some(dom), true);
            let Some(tape) = &q.tape else { return Ok(()) };
            let tree = eval_formula(&q.simplified, pt);
            let mut ex = ExactScratch::new();
            let got = tape.eval_exact(pt, &mut ex);
            prop_assert_eq!(&got, &tree, "exact replay diverged on {}", f);
            // The interval point fast path is sound: a point the refuter
            // rejects, on its one-ulp enclosures, can never be a model.
            if refuted_at(tape, pt) {
                prop_assert!(!matches!(tree, Ok(true)), "the refuter rejected a model of {}", f);
            }
            Ok(())
        },
    );
}

/// Batched SoA evaluation is just a layout change: verdicts over a batch
/// of boxes equal the verdicts of each box evaluated alone.
#[test]
fn tape_batched_verdicts_match_single_box() {
    use cso_logic::{CompiledQuery, TapeScratch};
    prop::check_with(
        &cfg128(),
        "tape_batched_verdicts_match_single_box",
        &zip3(arb_box_and_point(), arb_box_and_point(), arb_formula_partial()),
        |((d1, _), (d2, _), f)| {
            let q = CompiledQuery::prepare(f, None, true);
            let Some(tape) = &q.tape else { return Ok(()) };
            let cis: Vec<u32> = (0..q.conjuncts.len() as u32).collect();
            let mut scratch = TapeScratch::new();
            let mut batched = Vec::new();
            tape.verdicts(&[d1, d2], &cis, &mut scratch, &mut batched);
            for (b, d) in [d1, d2].into_iter().enumerate() {
                let mut single = Vec::new();
                tape.verdicts(&[d], &cis, &mut scratch, &mut single);
                prop_assert_eq!(
                    &batched[b * cis.len()..(b + 1) * cis.len()],
                    &single[..],
                    "batch row {} diverged for {}",
                    b,
                    f
                );
            }
            Ok(())
        },
    );
}

/// The lane interpreter agrees with the tree walker for every batch size
/// from one box to two full lane chunks plus one, so full chunks, partial
/// chunks and a chunk following a full one are all covered — on sub-boxes
/// of the seed domain, where domain seeding replays cached verdicts. Each
/// case asks for all conjuncts and for a random non-empty subset of them,
/// whose pass is planned from the union of the subset's needed-slot
/// masks. The early-exit refuter, planned over the same conjuncts in
/// ascending and in reversed order, flags a box exactly when one of their
/// verdicts is `False`. Point refutation, which runs the refuter on one
/// box, never rejects a point where the formula holds exactly.
#[test]
fn tape_verdicts_match_ieval_for_every_batch_size() {
    use cso_logic::tape::LANES;
    use cso_logic::{CompiledQuery, TapeScratch};
    let n_max = 2 * LANES + 1;
    // Sub-box ends as percentages of the seed box, often its own integer
    // ends, so endpoints touch integer constants and `icmp`'s boundary
    // cases come up.
    let end = || one_of(vec![just(0), just(100), int_in(0, 100)]);
    let fracs = vec_of(vec_of(zip2(end(), end()), NVARS, NVARS), n_max, n_max);
    prop::check_with(
        &Config { cases: 1024, ..Config::default() },
        "tape_verdicts_match_ieval_for_every_batch_size",
        &zip4(arb_box_and_point(), arb_formula_partial(), fracs, i64_any()),
        |((dom, pt), f, fracs, pick)| {
            let q = CompiledQuery::prepare(f, Some(dom), true);
            let Some(tape) = &q.tape else { return Ok(()) };
            let boxes: Vec<BoxDomain> = fracs
                .iter()
                .map(|dims| {
                    let mut b = dom.clone();
                    for (i, &(s, t)) in dims.iter().enumerate() {
                        let iv = dom.intervals()[i];
                        let at = |p: i64| iv.lo() + (iv.hi() - iv.lo()) * p as f64 / 100.0;
                        let (lo, hi) = (at(s.min(t)).max(iv.lo()), at(s.max(t)).min(iv.hi()));
                        b.set(VarId::from_index(i), Interval::new(lo, hi.max(lo)));
                    }
                    b
                })
                .collect();
            // Bit `j % 64` of `pick` selects conjunct `j`; an empty pick
            // takes one conjunct instead.
            let n_conj = q.conjuncts.len() as u32;
            let mut subset: Vec<u32> = (0..n_conj).filter(|j| pick >> (j % 64) & 1 == 1).collect();
            if subset.is_empty() {
                subset.push(pick.unsigned_abs() as u32 % n_conj);
            }
            let all: Vec<u32> = (0..n_conj).collect();
            let mut scratch = TapeScratch::new();
            // The refuter gets a scratch of its own, so its lanes never hold
            // what the verdict pass just computed for the same boxes.
            let mut refuter_scratch = TapeScratch::new();
            let mut out = Vec::new();
            let mut flags = Vec::new();
            for cis in [&all, &subset] {
                let reversed: Vec<u32> = cis.iter().rev().copied().collect();
                for n in 1..=n_max {
                    tape.verdicts(&boxes[..n], cis, &mut scratch, &mut out);
                    prop_assert_eq!(out.len(), n * cis.len());
                    for (b, d) in boxes[..n].iter().enumerate() {
                        for (j, &ci) in cis.iter().enumerate() {
                            let got = out[b * cis.len() + j];
                            prop_assert_eq!(
                                got,
                                ieval_formula(&q.conjuncts[ci as usize], d),
                                "batch {} box {} conjunct {} of {} (asked {:?})",
                                n,
                                b,
                                ci,
                                f,
                                cis
                            );
                        }
                    }
                    // Early-exit refutation, in either conjunct order: a box
                    // is refuted exactly when some asked verdict is False.
                    let var = |b: usize, v: u32| boxes[b].get(VarId::from_index(v as usize));
                    for order in [cis, &reversed] {
                        let mut refuter = tape.refuter(order.iter().copied(), &mut refuter_scratch);
                        refuter.refutes(n, var, &mut flags);
                        prop_assert_eq!(flags.len(), n);
                        for (b, &refuted) in flags.iter().enumerate() {
                            let verdicts = &out[b * cis.len()..(b + 1) * cis.len()];
                            prop_assert_eq!(
                                refuted,
                                verdicts.contains(&Tri::False),
                                "batch {} box {} of {} (asked {:?})",
                                n,
                                b,
                                f,
                                order
                            );
                        }
                    }
                }
            }
            if refuted_at(tape, pt) {
                prop_assert!(
                    !matches!(eval_formula(&q.simplified, pt), Ok(true)),
                    "the refuter rejected a model {:?} of {}",
                    pt,
                    f
                );
            }
            Ok(())
        },
    );
}

/// Whether `r` equals some finite `f64`, decided from its reduced parts
/// alone (not through `to_f64`/`from_f64`): the denominator is `2^k`, and
/// the odd part of the numerator fits the 53-bit significand at an
/// exponent the format has.
fn representable(r: &Rat) -> bool {
    let (num, den) = (r.numer().abs(), r.denom());
    let k = den.bit_len() - 1;
    if *den != BigInt::one().shl(k) {
        return false;
    }
    if k > 0 {
        // `num` is odd: num · 2^-k needs 53 bits and k ≤ 1074.
        return num.bit_len() <= 53 && k <= 1074;
    }
    let mut odd = num.clone();
    while !odd.is_zero() && odd.shr(1).shl(1) == odd {
        odd = odd.shr(1);
    }
    odd.bit_len() <= 53 && num.bit_len() <= 1024
}

/// Rationals for `rat_enclosure`: ratios of machine integers, sampled
/// points snapped to `k/10^6` as the solver does, inexact constants such
/// as 1/3, values read from doubles (subnormals and huge ones included),
/// and tiny or huge rationals around the ends of the `f64` range.
fn arb_constant() -> Gen<Rat> {
    let pow2 = |k: i64| BigInt::one().shl(k as u64);
    one_of(vec![
        zip2(i64_any(), int_in(1, i64::MAX)).map(|(p, q)| Rat::from_frac(p, q)),
        int_in(-9_000_000_000_000_000, 9_000_000_000_000_000).map(|k| Rat::from_frac(k, 1_000_000)),
        int_in(-100_000_000, 100_000_000).map(|k| Rat::from_frac(k, 1_000_000)),
        zip2(int_in(-20, 20), int_in(1, 40))
            .map(|(p, j)| Rat::from_frac(p, 3) / Rat::from(BigInt::one().shl(j as u64))),
        zip2(int_in(0, (1 << 62) - 1), int_in(0, 2046)).map(|(m, e)| {
            let x = f64::from_bits(((e as u64) << 52) | (m as u64 & ((1 << 52) - 1)));
            Rat::from_f64(if m & (1 << 61) == 0 { x } else { -x }).unwrap()
        }),
        zip2(int_in(-1_000_000, 1_000_000), int_in(900, 1140))
            .map(move |(p, k)| Rat::new(BigInt::from(p), pow2(k))),
        zip3(int_in(1, 1_000_000), int_in(1, 100), int_in(900, 1140))
            .map(move |(p, q, k)| Rat::new(BigInt::from(p), &BigInt::from(q) * &pow2(k))),
        zip2(int_in(-1_000_000, 1_000_000), int_in(1000, 1040))
            .map(move |(p, k)| Rat::from(&BigInt::from(p) * &pow2(k)) / Rat::from_int(3)),
    ])
}

#[test]
fn rat_enclosure_is_exactly_sound() {
    prop::check_with(
        &Config { cases: 2000, ..Config::default() },
        "rat_enclosure_is_exactly_sound",
        &arb_constant(),
        |r| {
            let iv = rat_enclosure(r);
            let lo_ok =
                iv.lo() == f64::NEG_INFINITY || Rat::from_f64(iv.lo()).is_some_and(|lo| lo <= *r);
            let hi_ok =
                iv.hi() == f64::INFINITY || Rat::from_f64(iv.hi()).is_some_and(|hi| *r <= hi);
            prop_assert!(lo_ok && hi_ok, "{r} outside [{:e}, {:e}]", iv.lo(), iv.hi());
            // Sharp: a point iff `r` is a double.
            let point = iv.lo() == iv.hi();
            prop_assert_eq!(point, representable(r), "{} -> [{:e}, {:e}]", r, iv.lo(), iv.hi());
            Ok(())
        },
    );
}

/// Shrinking smoke test: force a failure on a structural property and
/// check the harness hands back a *minimal* term, not the first random
/// counterexample. "Contains a Mul node" should shrink to a bare product
/// of two leaves (size 3).
#[test]
fn shrinking_reaches_minimal_term() {
    fn has_mul(t: &Term) -> bool {
        t.size() >= 3 && format!("{t}").contains('*')
    }
    let out = prop::check_result(&Config::default(), &arb_term(), &|t: &Term| {
        if has_mul(t) {
            Err(prop::CaseError::Fail(format!("found mul in {t}")))
        } else {
            Ok(())
        }
    });
    let failure = out.expect_err("mul terms are reachable");
    assert!(has_mul(&failure.value), "shrunk value still fails");
    assert!(
        failure.value.size() <= 3,
        "minimal mul term has two leaf operands, got {} (size {})",
        failure.value,
        failure.value.size()
    );
}

/// Whether every coordinate of `p` lies in `b` (an infinite end bounds
/// nothing).
fn inside(p: &[Rat], b: &BoxDomain) -> bool {
    p.iter().zip(b.intervals()).all(|(x, iv)| {
        Rat::from_f64(iv.lo()).is_none_or(|lo| lo <= *x)
            && Rat::from_f64(iv.hi()).is_none_or(|hi| *x <= hi)
    })
}

/// Whether `inner` lies in `outer`, dimension by dimension.
fn within(inner: &BoxDomain, outer: &BoxDomain) -> bool {
    inner.intervals().iter().zip(outer.intervals()).all(|(i, o)| o.contains(i))
}

/// The comparison atoms of `f` outside `ite` guards, as `lhs - rhs`.
fn atom_gaps(f: &Formula, out: &mut Vec<Term>) {
    match f {
        Formula::Cmp(_, a, b) => out.push((**a).clone().sub((**b).clone())),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|g| atom_gaps(g, out)),
        Formula::Not(g) => atom_gaps(g, out),
        Formula::True | Formula::False => {}
    }
}

/// Candidate points of `dom` on which contraction is checked: the given
/// point, the box's corners, points at given percentages of each range,
/// and points where an atom is tight. Those solve `gap = 0` for one
/// coordinate, the others at a corner or at `pt`, wherever the atom's gap
/// is affine along that line, so they sit on the boundary of the atom's
/// solution set: exactly where a projection that rounds inward would cut.
fn contraction_probes(
    f: &Formula,
    dom: &BoxDomain,
    pt: &[Rat],
    fracs: &[Vec<i64>],
) -> Vec<Vec<Rat>> {
    let ends: Vec<[Rat; 2]> = dom
        .intervals()
        .iter()
        .map(|iv| [iv.lo(), iv.hi()].map(|x| Rat::from_f64(x).expect("finite box end")))
        .collect();
    let mut bases = vec![pt.to_vec()];
    for corner in 0..1usize << NVARS {
        bases.push((0..NVARS).map(|i| ends[i][corner >> i & 1].clone()).collect());
    }
    let mut probes = bases.clone();
    for per in fracs {
        probes.push(
            (0..NVARS)
                .map(|i| &ends[i][0] + &((&ends[i][1] - &ends[i][0]) * Rat::from_frac(per[i], 100)))
                .collect(),
        );
    }
    let mut gaps = Vec::new();
    atom_gaps(f, &mut gaps);
    for gap in gaps.iter().take(6) {
        for base in &bases {
            for v in 0..NVARS {
                let at = |t: i64| {
                    let mut p = base.clone();
                    p[v] = Rat::from_int(t);
                    eval_term(gap, &p).ok()
                };
                let (Some(g0), Some(g1), Some(g2)) = (at(0), at(1), at(2)) else { continue };
                let slope = &g1 - &g0;
                if slope.is_zero() || &g2 - &g1 != slope {
                    continue;
                }
                let mut p = base.clone();
                p[v] = -(&g0 / &slope);
                probes.push(p);
            }
        }
    }
    probes.retain(|p| inside(p, dom));
    probes
}

/// Contraction is sound against exact arithmetic. On random formulas
/// (division and inexact constants included) and boxes, some with a range
/// that ends at zero, every probe point
/// where the compiled formula holds exactly (see `contraction_probes`)
/// lies inside the contracted box, the contracted box lies inside the
/// original, and a conjunct dropped from `pending` is certainly true on
/// it. Checked for a whole box contracted from its own forward pass, and
/// for both halves of a split box contracted from the lanes of the verdict
/// pass that scored them.
#[test]
fn contraction_keeps_every_exact_solution() {
    use cso_logic::{CompiledQuery, Contractee, Contraction, ExactScratch, TapeScratch};
    let fracs = vec_of(vec_of(int_in(0, 100), NVARS, NVARS), 2, 2);
    // A dimension to split, and one to move so that it starts (1) or ends
    // (2) at zero, where a product is divided back by a range touching
    // zero from one side.
    let dims = zip3(int_in(0, NVARS as i64 - 1), int_in(0, NVARS as i64 - 1), int_in(0, 2));
    prop::check_with(
        &Config { cases: 512, ..Config::default() },
        "contraction_keeps_every_exact_solution",
        &zip4(arb_box_and_point(), arb_formula_partial(), fracs, dims),
        |((dom, pt), f, fracs, (split, zeroed, at))| {
            let mut dom = dom.clone();
            let iv = dom.intervals()[*zeroed as usize];
            match at {
                1 => dom.set(VarId::from_index(*zeroed as usize), Interval::new(0.0, iv.width())),
                2 => dom.set(VarId::from_index(*zeroed as usize), Interval::new(-iv.width(), 0.0)),
                _ => {}
            }
            let dom = &dom;
            let q = CompiledQuery::prepare(f, Some(dom), true);
            let Some(tape) = &q.tape else { return Ok(()) };
            let mut ex = ExactScratch::new();
            let sols: Vec<Vec<Rat>> = contraction_probes(&q.simplified, dom, pt, fracs)
                .into_iter()
                .filter(|p| tape.eval_exact(p, &mut ex) == Ok(true))
                .collect();
            let all: Vec<u32> = (0..q.conjuncts.len() as u32).collect();
            let mut s = TapeScratch::new();
            // Check one contraction of `before` (a sub-box of `dom`, with
            // every conjunct in `asked` pending on it) that left `after`.
            let check = |how: &str,
                         before: &BoxDomain,
                         after: &BoxDomain,
                         asked: &[u32],
                         pending: &[u32],
                         out: Contraction|
             -> prop::CaseResult {
                let kept: Vec<&Vec<Rat>> = sols.iter().filter(|p| inside(p, before)).collect();
                if out == Contraction::Empty {
                    prop_assert!(
                        kept.is_empty(),
                        "{how}: emptied {} holding {:?} of {}",
                        before,
                        kept[0],
                        f
                    );
                    return Ok(());
                }
                prop_assert!(
                    within(after, before),
                    "{how}: {} grew to {} for {}",
                    before,
                    after,
                    f
                );
                prop_assert_eq!(
                    out == Contraction::Narrowed,
                    after.intervals() != before.intervals(),
                    "{}: {:?}",
                    how,
                    out
                );
                for p in kept {
                    prop_assert!(
                        inside(p, after),
                        "{how}: {:?} left {} -> {} for {}",
                        p,
                        before,
                        after,
                        f
                    );
                }
                for ci in asked.iter().filter(|ci| !pending.contains(ci)) {
                    let v = ieval_formula(&q.conjuncts[*ci as usize], after);
                    prop_assert_eq!(v, Tri::True, "{}: dropped conjunct {} of {}", how, ci, f);
                }
                Ok(())
            };
            // The whole box, from forward passes of its own.
            let mut whole = [Contractee::new(dom.clone(), all.clone(), None)];
            tape.contract(&mut whole, &mut s);
            let [c] = &whole;
            check("whole box", dom, &c.dom, &all, &c.pending, c.outcome)?;
            // Both halves of a split: the first sweep from the verdict
            // pass's lanes, the others sharing passes.
            let dim = *split as usize;
            let (lo, hi) = dom.bisect(dim);
            let halves = [lo, hi];
            let mut verdicts = Vec::new();
            let mut asked = Vec::new();
            let mut cs = Vec::new();
            let mut pass = tape.verdict_pass(&all, &mut s);
            pass.chunk(&halves, &mut verdicts);
            for (k, half) in halves.iter().enumerate() {
                let row = &verdicts[k * all.len()..(k + 1) * all.len()];
                if row.contains(&Tri::False) {
                    let held = sols.iter().any(|p| inside(p, half));
                    prop_assert!(!held, "half {} refuted but holds a solution of {}", k, f);
                    continue;
                }
                let open: Vec<u32> =
                    all.iter().copied().filter(|&ci| row[ci as usize] == Tri::Unknown).collect();
                let mut c = Contractee::new(half.clone(), open.clone(), Some(dim));
                pass.contract(k, &mut c);
                asked.push((half, open));
                cs.push(c);
            }
            tape.contract(&mut cs, &mut s);
            for ((half, open), c) in asked.iter().zip(&cs) {
                check("split half", half, &c.dom, open, &c.pending, c.outcome)?;
            }
            Ok(())
        },
    );
}

/// A box over NVARS vars, each range in `[-5, 14]` and at least 1 wide,
/// plus a point inside it.
fn arb_guard_box() -> Gen<(BoxDomain, Vec<Rat>)> {
    vec_of(zip3(int_in(-5, 4), int_in(1, 10), int_in(0, 100)), NVARS, NVARS).map(|dims| {
        let mut dom = BoxDomain::with_len(NVARS);
        let mut pt = Vec::new();
        for (i, (lo, w, frac)) in dims.into_iter().enumerate() {
            dom.set(VarId::from_index(i), Interval::new(lo as f64, (lo + w) as f64));
            pt.push(Rat::from_int(lo) + Rat::from_int(w) * Rat::from_frac(frac, 100));
        }
        (dom, pt)
    })
}

/// A comparison of a variable with a constant, either way round. The
/// constants, `n/10 + 1/k` for `k` in 3..=9 (most of them inexact in
/// binary), spread over `[-5, 14]`, the span of `arb_guard_box`.
fn arb_guard_atom() -> Gen<Formula> {
    let c = zip2(int_in(-53, 137), int_in(3, 9))
        .map(|(n, k)| Term::constant(Rat::from_frac(n, 10) + Rat::from_frac(1, k)));
    let v = int_in(0, NVARS as i64 - 1).map(|i| Term::var(VarId::from_index(i as usize)));
    zip4(v, c, int_in(0, 5), int_in(0, 1)).map(|(v, c, op, flip)| {
        let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne][op as usize];
        if flip == 1 {
            Formula::cmp(op, c, v)
        } else {
            Formula::cmp(op, v, c)
        }
    })
}

/// An `ite` whose guard compares variables with constants, alone or under
/// `and`, `or` and `not`, as a sketch's thresholds do once its holes are
/// filled in; its branches may hold more of them.
fn arb_guarded_term() -> Gen<Term> {
    let guard = one_of(vec![
        arb_guard_atom(),
        vec_of(arb_guard_atom(), 2, 2).map(Formula::and),
        vec_of(arb_guard_atom(), 2, 2).map(Formula::or),
        arb_guard_atom().map(Formula::not),
    ]);
    let leaf = one_of(vec![
        int_in(-50, 49).map(Term::int),
        int_in(0, NVARS as i64 - 1).map(|i| Term::var(VarId::from_index(i as usize))),
    ]);
    let branch = recursive(leaf, 2, move |inner| {
        one_of(vec![
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.add(b)),
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.sub(b)),
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.mul(b)),
            zip3(guard.clone(), inner.clone(), inner).map(|(g, a, b)| Term::ite(g, a, b)),
        ])
    });
    let guard = one_of(vec![
        arb_guard_atom(),
        vec_of(arb_guard_atom(), 2, 2).map(Formula::and),
        arb_guard_atom().map(Formula::not),
    ]);
    zip3(guard, branch.clone(), branch).map(|(g, a, b)| Term::ite(g, a, b))
}

/// The constants an `ite` guard of `f` compares variable `var` with.
fn guard_consts(f: &Formula, var: usize, out: &mut Vec<Rat>) {
    fn in_term(t: &Term, var: usize, out: &mut Vec<Rat>) {
        match t {
            Term::Const(_) | Term::Var(_) => {}
            Term::Neg(a) => in_term(a, var, out),
            Term::Add(a, b)
            | Term::Sub(a, b)
            | Term::Mul(a, b)
            | Term::Div(a, b)
            | Term::Min(a, b)
            | Term::Max(a, b) => {
                in_term(a, var, out);
                in_term(b, var, out);
            }
            Term::Ite(c, a, b) => {
                in_guard(c, var, out);
                guard_consts(c, var, out);
                in_term(a, var, out);
                in_term(b, var, out);
            }
        }
    }
    fn in_guard(g: &Formula, var: usize, out: &mut Vec<Rat>) {
        match g {
            Formula::Cmp(_, a, b) => {
                for (x, c) in [(a, b), (b, a)] {
                    if let (Term::Var(v), Term::Const(r)) = (&**x, &**c) {
                        if v.index() == var {
                            out.push(r.clone());
                        }
                    }
                }
            }
            Formula::And(gs) | Formula::Or(gs) => gs.iter().for_each(|g| in_guard(g, var, out)),
            Formula::Not(g) => in_guard(g, var, out),
            Formula::True | Formula::False => {}
        }
    }
    match f {
        Formula::Cmp(_, a, b) => {
            in_term(a, var, out);
            in_term(b, var, out);
        }
        Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|g| guard_consts(g, var, out)),
        Formula::Not(g) => guard_consts(g, var, out),
        Formula::True | Formula::False => {}
    }
}

/// Cutting a box at a guard constant loses no solution. On random boxes
/// and formulas whose `ite` guards compare variables with constants, a
/// cut `Tape::guard_cut` picks lies strictly inside the range and is the
/// `f64` of a guard constant of that variable; the two halves
/// `BoxDomain::split` makes there tile the box exactly (the same ranges
/// elsewhere, `[lo, cut]` and `[cut, hi]` on the cut one); and every probe
/// point where the compiled formula holds exactly, including points on
/// and one ulp around each guard constant, lies in a half.
#[test]
fn guard_cuts_keep_every_exact_solution() {
    use cso_logic::CompiledQuery;
    let atom = zip3(arb_guarded_term(), arb_guarded_term(), int_in(0, 5)).map(|(a, b, op)| {
        let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne][op as usize];
        Formula::cmp(op, a, b)
    });
    let fracs = vec_of(vec_of(int_in(0, 100), NVARS, NVARS), 2, 2);
    prop::check_with(
        &Config { cases: 512, ..Config::default() },
        "guard_cuts_keep_every_exact_solution",
        &zip3(arb_guard_box(), vec_of(atom, 1, 2).map(Formula::and), fracs),
        |((dom, pt), f, fracs)| {
            let q = CompiledQuery::prepare(f, Some(dom), true);
            let Some(tape) = &q.tape else { return Ok(()) };
            for dim in 0..NVARS {
                check_guard_cut(&q, tape, dom, pt, fracs, dim)?;
            }
            Ok(())
        },
    );
}

/// One dimension of `guard_cuts_keep_every_exact_solution`.
fn check_guard_cut(
    q: &cso_logic::CompiledQuery,
    tape: &cso_logic::Tape,
    dom: &BoxDomain,
    pt: &[Rat],
    fracs: &[Vec<i64>],
    dim: usize,
) -> prop::CaseResult {
    let f = &q.simplified;
    let iv = dom.intervals()[dim];
    let Some(cut) = tape.guard_cut(dim, iv) else { return Ok(()) };
    let mut consts = Vec::new();
    guard_consts(f, dim, &mut consts);
    prop_assert!(iv.lo() < cut && cut < iv.hi(), "cut {cut} not inside {iv} for {f}");
    prop_assert!(
        consts.iter().any(|c| c.to_f64() == cut),
        "cut {cut} is no guard constant of x{dim} in {f}"
    );
    let (lo, hi) = dom.split(dim, cut);
    for (d, ((a, b), p)) in
        lo.intervals().iter().zip(hi.intervals()).zip(dom.intervals()).enumerate()
    {
        let want = if d == dim {
            (Interval::new(p.lo(), cut), Interval::new(cut, p.hi()))
        } else {
            (*p, *p)
        };
        prop_assert_eq!((*a, *b), want, "halves of {} at {} on x{}", dom, cut, dim);
    }
    // Probes: the usual ones, and on each guard constant of the cut
    // variable (exactly, at its `f64` and one ulp either side), the
    // other coordinates from each of those.
    let mut probes = contraction_probes(f, dom, pt, fracs);
    let bases = probes.clone();
    for c in &consts {
        let x = c.to_f64();
        let at = [c.clone()]
            .into_iter()
            .chain([x.next_down(), x, x.next_up()].into_iter().filter_map(Rat::from_f64));
        for v in at {
            for base in &bases {
                let mut p = base.clone();
                p[dim] = v.clone();
                probes.push(p);
            }
        }
    }
    let mut ex = cso_logic::ExactScratch::new();
    for p in probes.iter().filter(|p| inside(p, dom)) {
        if tape.eval_exact(p, &mut ex) == Ok(true) {
            prop_assert!(
                inside(p, &lo) || inside(p, &hi),
                "{:?} solves {} in {} but neither half at {}",
                p,
                f,
                dom,
                cut
            );
        }
    }
    Ok(())
}
