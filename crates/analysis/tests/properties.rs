//! Property tests: abstract-interval soundness of the analyzer on random
//! sketches.
//!
//! A random expression tree is rendered to sketch source (integer
//! literals, integer hole values inside integer declared ranges, integer
//! in-bounds metric values), parsed back, and analyzed. Two properties
//! must hold for every case:
//!
//! 1. **Enclosure soundness** — if concrete evaluation succeeds, the
//!    exact rational value lies inside the analyzer's reported output
//!    range, compared as `Rat` against the range's endpoints (no rounding
//!    of the value to `f64` first).
//! 2. **Division coverage** — if concrete evaluation faults with
//!    `DivByZero` at an in-bounds input, the report must have flagged
//!    that possibility statically (`E001` certain or `W101` possible).
//!
//! Failures shrink to a minimal tree via `cso_runtime::prop`'s
//! choice-stream shrinker; `CSO_PROP_SEED` replays a specific case.

use cso_analysis::{analyze, AnalysisConfig};
use cso_numeric::Rat;
use cso_runtime::prop::{self, int_in, one_of, recursive, zip2, zip3, CaseError, CaseResult, Gen};
use cso_sketch::{Sketch, SketchError};

/// A generated expression. Holes carry `(lo, value, hi)` with
/// `lo <= value <= hi`; rendering assigns each one a fresh name so
/// source order matches declaration order.
#[derive(Debug, Clone)]
enum E {
    Num(i64),
    Param(usize),
    Hole(i64, i64, i64),
    /// `0..=5`: `+ - * / min max`.
    Bin(u8, Box<E>, Box<E>),
    /// `0..=3`: `>= <= > <`; guard operands are arithmetic, the `else`
    /// branch may chain another `if` (the shape the grammar guarantees).
    If(u8, Box<E>, Box<E>, Box<E>, Box<E>),
}

/// An inclusive integer range with a chosen in-bounds value.
type Triple = (i64, i64, i64);

fn triple() -> Gen<Triple> {
    zip3(int_in(-9, 9), int_in(0, 3), int_in(0, 3)).map(|(v, a, b)| (v - a, v, v + b))
}

fn leaf() -> Gen<E> {
    one_of(vec![
        int_in(-9, 9).map(E::Num),
        int_in(0, 1).map(|i| E::Param(i as usize)),
        triple().map(|(lo, v, hi)| E::Hole(lo, v, hi)),
    ])
}

/// Arithmetic trees: leaves plus binary operators, division included.
fn arith() -> Gen<E> {
    recursive(leaf(), 3, |inner| {
        zip3(int_in(0, 5), inner.clone(), inner).map(|(k, a, b)| {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            E::Bin(k as u8, Box::new(a), Box::new(b))
        })
    })
}

/// Full sketch bodies: arithmetic, optionally wrapped in `if` chains
/// (nested `if` only in the `else` branch, mirroring the built-ins).
fn top() -> Gen<E> {
    recursive(arith(), 2, |inner| {
        zip3(zip2(int_in(0, 3), arith()), zip2(arith(), arith()), inner).map(
            |((k, then), (ga, gb), els)| {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                E::If(k as u8, Box::new(ga), Box::new(gb), Box::new(then), Box::new(els))
            },
        )
    })
}

/// Render to sketch source, collecting hole values in declaration order.
fn render(e: &E, out: &mut String, hole_vals: &mut Vec<Rat>) {
    match e {
        E::Num(n) if *n < 0 => {
            out.push_str(&format!("(0 - {})", -n));
        }
        E::Num(n) => out.push_str(&n.to_string()),
        E::Param(0) => out.push('x'),
        E::Param(_) => out.push('y'),
        E::Hole(lo, v, hi) => {
            let (lo_s, hi_s) = (bound_src(*lo), bound_src(*hi));
            out.push_str(&format!("??h{} in [{lo_s}, {hi_s}]", hole_vals.len()));
            hole_vals.push(Rat::from_int(*v));
        }
        E::Bin(k, a, b) => {
            let op = ["+", "-", "*", "/"].get(*k as usize).copied();
            if let Some(op) = op {
                out.push('(');
                render(a, out, hole_vals);
                out.push_str(&format!(" {op} "));
                render(b, out, hole_vals);
                out.push(')');
            } else {
                out.push_str(if *k == 4 { "min(" } else { "max(" });
                render(a, out, hole_vals);
                out.push_str(", ");
                render(b, out, hole_vals);
                out.push(')');
            }
        }
        E::If(k, ga, gb, then, els) => {
            out.push_str("if ");
            render(ga, out, hole_vals);
            out.push_str([" >= ", " <= ", " > ", " < "][*k as usize]);
            render(gb, out, hole_vals);
            out.push_str(" then ");
            render(then, out, hole_vals);
            out.push_str(" else ");
            render(els, out, hole_vals);
        }
    }
}

/// Negative range bounds in hole declarations.
fn bound_src(b: i64) -> String {
    b.to_string()
}

fn fail(msg: String) -> CaseResult {
    Err(CaseError::Fail(msg))
}

/// One full case: build the sketch, analyze over the generated metric
/// bounds, evaluate at the generated in-bounds point, compare.
fn soundness_case(case: &(E, Triple, Triple)) -> CaseResult {
    let (tree, px, py) = case;
    let mut src = String::from("fn f(x, y) {\n    ");
    let mut hole_vals = Vec::new();
    render(tree, &mut src, &mut hole_vals);
    src.push_str("\n}\n");

    let sketch = match Sketch::parse(&src) {
        Ok(s) => s,
        Err(e) => return fail(format!("generated source failed to parse: {e:?}\n{src}")),
    };
    if sketch.holes().len() != hole_vals.len() {
        return fail(format!("hole order drifted: {} declared\n{src}", sketch.holes().len()));
    }

    let cfg = AnalysisConfig {
        param_bounds: vec![
            (Rat::from_int(px.0), Rat::from_int(px.2)),
            (Rat::from_int(py.0), Rat::from_int(py.2)),
        ],
        ..AnalysisConfig::default()
    };
    let analysis = analyze(&sketch, &cfg);

    let args = [Rat::from_int(px.1), Rat::from_int(py.1)];
    match sketch.eval(&hole_vals, &args) {
        Ok(v) => {
            // Exact containment, compared as `Rat`: an infinite endpoint
            // leaves its side unbounded, a finite one converts exactly.
            let (lo, hi) = (analysis.output_range.lo(), analysis.output_range.hi());
            let lo_ok = lo == f64::NEG_INFINITY || Rat::from_f64(lo).is_some_and(|l| l <= v);
            let hi_ok = hi == f64::INFINITY || Rat::from_f64(hi).is_some_and(|h| v <= h);
            if lo_ok && hi_ok {
                Ok(())
            } else {
                fail(format!("value {v} outside inferred range {}\n{src}", analysis.output_range))
            }
        }
        Err(SketchError::DivByZero { .. }) => {
            let flagged =
                analysis.report.diagnostics().iter().any(|d| d.code == "E001" || d.code == "W101");
            if flagged {
                Ok(())
            } else {
                fail(format!("dynamic DivByZero at an in-bounds input, no E001/W101\n{src}"))
            }
        }
        Err(other) => fail(format!("unexpected eval error {other:?}\n{src}")),
    }
}

#[test]
fn inferred_range_encloses_every_inbounds_evaluation() {
    let gen = zip3(top(), triple(), triple());
    prop::check("analysis-enclosure-soundness", &gen, soundness_case);
}
