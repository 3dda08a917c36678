//! Term language and δ-complete solver for bounded nonlinear rational
//! arithmetic — the workspace's substitute for Z3.
//!
//! The HotNets '19 paper issues one kind of logical query: an *existential*
//! question over *box-bounded* real variables (`ClosedInRange` in the paper)
//! whose atoms are polynomial (in)equalities — hole assignments, scenario
//! coordinates, and preference constraints. This crate implements exactly
//! that fragment, from scratch:
//!
//! * [`Term`] / [`Formula`] — a small expression language over rationals
//!   with `if-then-else`, `min`/`max` and the four arithmetic operators.
//! * exact evaluation ([`eval`]) over [`cso_numeric::Rat`] environments —
//!   used to *certify* satisfying assignments bit-for-bit;
//! * interval evaluation ([`ieval`]) over [`cso_numeric::Interval`] boxes —
//!   used to *refute* boxes soundly;
//! * [`solver`] — randomized model seeding + branch-and-prune subdivision.
//!   `Sat` answers carry an exactly-certified rational model; `Unsat`
//!   answers are interval-certified over the whole box; `DeltaUnsat` means
//!   refuted everywhere except sub-δ boxes in which exhaustive sampling
//!   found nothing (the δ-completeness caveat, as in dReal).
//!
//! # Example: solve a tiny nonlinear system
//!
//! ```
//! use cso_logic::{Formula, Term, VarRegistry, BoxDomain, solver::{Solver, SolverConfig, Outcome}};
//! use cso_numeric::Interval;
//!
//! let mut vars = VarRegistry::new();
//! let x = vars.intern("x");
//! let y = vars.intern("y");
//! // x * y >= 6  and  x + y <= 5, with x, y in [0, 10]
//! let f = Formula::and(vec![
//!     Term::var(x).mul(Term::var(y)).ge(Term::int(6)),
//!     Term::var(x).add(Term::var(y)).le(Term::int(5)),
//! ]);
//! let mut dom = BoxDomain::new(&vars);
//! dom.set(x, Interval::new(0.0, 10.0));
//! dom.set(y, Interval::new(0.0, 10.0));
//! let mut solver = Solver::new(SolverConfig::default());
//! match solver.solve(&f, &dom) {
//!     Outcome::Sat(model) => {
//!         // the model is exactly certified
//!         assert!(cso_logic::eval::eval_formula(&f, model.values()).unwrap());
//!     }
//!     other => panic!("expected sat, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod ieval;
pub mod model;
pub mod simplify;
pub mod solver;
pub mod tape;
pub mod term;
pub mod vars;

pub use model::Model;
pub use tape::{
    CompiledQuery, Contractee, Contraction, ExactScratch, Refuter, Tape, TapeScratch, TapeStats,
    VerdictPass,
};
pub use term::{CmpOp, Formula, Term};
pub use vars::{BoxDomain, VarId, VarRegistry};
