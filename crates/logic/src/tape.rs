//! Compiled evaluation: flat SSA tapes for formulas and terms.
//!
//! Branch-and-prune evaluates every pending conjunct on every box of
//! every round — the hottest loop in the system. Re-walking the `Arc`
//! AST there (as `ieval_formula`/`eval_formula` do) would repeat shared
//! subtrees and constant arithmetic each time. This module compiles a
//! simplified [`Formula`] DAG once per solver query into a flat
//! arena-allocated tape of SSA slots, and the solver evaluates every box
//! and every sample off the tape; it is the solver's only evaluator:
//!
//! * **Hash-consing.** Every structurally identical subterm — whether
//!   shared through an `Arc` or duplicated across conjuncts — gets exactly
//!   one slot, so shared subterms are evaluated once per box instead of
//!   once per occurrence (this also kills the double evaluation of `Ite`
//!   branches under an undecided guard: each branch is one slot, evaluated
//!   once, however many hulls read it).
//! * **Constant folding.** A slot whose subtree mentions no variables has
//!   a box-independent interval, verdict, and exact rational value; all
//!   three are precomputed at compile time and replayed. Folding is done
//!   by running the *same* semantics the interpreters use, so replay is
//!   bit-identical to re-walking the tree — including exact-evaluation
//!   errors (a constant `1/0` still reports [`EvalError::DivByZero`]).
//! * **Domain seeding (CSE over interval facts).** Given the query's
//!   initial box, formula slots that are already decided over the whole
//!   box are cached: interval evaluation is inclusion-monotonic, so a
//!   verdict of `True`/`False` over a box holds on every sub-box the
//!   solver will ever evaluate, and the cached verdict is exactly what the
//!   tree walker would recompute.
//! * **Batched (structure-of-arrays) evaluation.** One tape pass scores
//!   many boxes at once: scratch values are laid out slot-major
//!   (`slot * batch + box`), so each instruction streams over contiguous
//!   operands across the whole batch.
//!
//! Two interpreters share the tape. The **interval** interpreter is
//! straight-line (interval semantics is total) and reproduces
//! `ieval_formula` verdict-for-verdict. The **exact rational** interpreter
//! is demand-driven over the slot graph — exact semantics is partial and
//! evaluation-order-sensitive (`Div` checks the denominator first, `Ite`
//! evaluates only the taken branch, `And`/`Or` short-circuit but surface
//! errors from evaluated operands) — and reproduces `eval_formula`
//! bit-for-bit, errors included; memoizing a shared slot is sound because
//! exact evaluation is pure, so a replay equals a recomputation. The tree
//! walkers stay as the independent reference: property tests compare
//! both interpreters against them on random formulas and boxes.

use crate::eval::EvalError;
use crate::ieval::{icmp, rat_enclosure, Tri};
use crate::simplify::simplify_formula;
use crate::term::{CmpOp, Formula, Term};
use crate::vars::{BoxDomain, VarId};
use cso_numeric::{Interval, Rat};
use cso_runtime::trace::{self, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// One tape instruction. Numeric ops produce an interval (or exact
/// rational); `True`..`Not` produce a three-valued verdict (or exact
/// bool). Operands are slot indices of earlier instructions.
#[derive(Debug, Clone)]
enum Op {
    Const(Rat),
    Var(u32),
    Neg(u32),
    Add(u32, u32),
    Sub(u32, u32),
    Mul(u32, u32),
    Div(u32, u32),
    Min(u32, u32),
    Max(u32, u32),
    /// Condition (formula slot), then-branch, else-branch.
    Ite(u32, u32, u32),
    True,
    False,
    Cmp(CmpOp, u32, u32),
    All(Box<[u32]>),
    Any(Box<[u32]>),
    Not(u32),
}

/// Structural hash-consing key: operands are already-interned slot ids, so
/// two structurally identical subtrees always produce the same key.
#[derive(PartialEq, Eq, Hash)]
enum Key {
    Const(Rat),
    Var(u32),
    Neg(u32),
    Add(u32, u32),
    Sub(u32, u32),
    Mul(u32, u32),
    Div(u32, u32),
    Min(u32, u32),
    Max(u32, u32),
    Ite(u32, u32, u32),
    True,
    False,
    Cmp(CmpOp, u32, u32),
    All(Vec<u32>),
    Any(Vec<u32>),
    Not(u32),
}

/// Per-query compile counters (also emitted on the `solver.tape` trace
/// counter by [`CompiledQuery::prepare`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct TapeStats {
    /// AST nodes visited during compilation.
    pub nodes: usize,
    /// Distinct slots after hash-consing.
    pub slots: usize,
    /// Node visits answered by a memo hit (pointer or structural).
    pub shared: usize,
    /// Slots with no variables: interval, verdict, and exact value folded
    /// at compile time.
    pub const_slots: usize,
    /// Variable-dependent formula slots decided over the seed box and
    /// cached (sound on every sub-box by inclusion monotonicity).
    pub decided: usize,
}

/// Reusable scratch for the interval interpreter. Holds the slot-major
/// value arrays and the merged needed-slot bitmask; resized on demand, so
/// one scratch serves tapes and batches of any size.
#[derive(Debug, Default)]
pub struct TapeScratch {
    iv: Vec<Interval>,
    tri: Vec<Tri>,
    mask: Vec<u64>,
    batch: usize,
}

impl TapeScratch {
    /// An empty scratch (buffers grow on first use).
    #[must_use]
    pub fn new() -> TapeScratch {
        TapeScratch::default()
    }
}

/// Reusable scratch for the exact rational interpreter: one memo cell per
/// slot, cleared per evaluation.
#[derive(Debug, Default)]
pub struct ExactScratch {
    rat: Vec<Option<Result<Rat, EvalError>>>,
    boolv: Vec<Option<Result<bool, EvalError>>>,
}

impl ExactScratch {
    /// An empty scratch (buffers grow on first use).
    #[must_use]
    pub fn new() -> ExactScratch {
        ExactScratch::default()
    }

    fn reset(&mut self, n: usize) {
        self.rat.clear();
        self.rat.resize(n, None);
        self.boolv.clear();
        self.boolv.resize(n, None);
    }
}

/// A compiled formula: one slot arena shared by the whole-formula root and
/// every conjunct root.
#[derive(Debug)]
pub struct Tape {
    ops: Vec<Op>,
    /// Box-independent interval of var-free numeric slots.
    cached_iv: Vec<Option<Interval>>,
    /// Box-independent verdict: var-free formula slots always; var-bearing
    /// formula slots when decided over the seed box.
    cached_tri: Vec<Option<Tri>>,
    /// Exact value of var-free numeric slots (errors preserved).
    cached_rat: Vec<Option<Result<Rat, EvalError>>>,
    /// Exact value of var-free formula slots (errors preserved).
    cached_bool: Vec<Option<Result<bool, EvalError>>>,
    has_vars: Vec<bool>,
    /// Largest variable index mentioned, if any.
    max_var: Option<u32>,
    /// Whole-formula root (exact certification evaluates this).
    root: u32,
    /// Per-conjunct formula roots (pruning evaluates these).
    roots: Vec<u32>,
    /// Per-conjunct needed-slot bitmask; descent stops at cached slots.
    conj_masks: Vec<Vec<u64>>,
    /// Union of all conjunct masks.
    all_mask: Vec<u64>,
    stats: TapeStats,
}

struct Builder {
    ops: Vec<Op>,
    cached_iv: Vec<Option<Interval>>,
    cached_tri: Vec<Option<Tri>>,
    cached_rat: Vec<Option<Result<Rat, EvalError>>>,
    cached_bool: Vec<Option<Result<bool, EvalError>>>,
    has_vars: Vec<bool>,
    max_var: Option<u32>,
    memo: HashMap<Key, u32>,
    term_ptrs: HashMap<usize, u32>,
    form_ptrs: HashMap<usize, u32>,
    nodes: usize,
    shared: usize,
}

impl Builder {
    fn new() -> Builder {
        Builder {
            ops: Vec::new(),
            cached_iv: Vec::new(),
            cached_tri: Vec::new(),
            cached_rat: Vec::new(),
            cached_bool: Vec::new(),
            has_vars: Vec::new(),
            max_var: None,
            memo: HashMap::new(),
            term_ptrs: HashMap::new(),
            form_ptrs: HashMap::new(),
            nodes: 0,
            shared: 0,
        }
    }

    /// Intern an `Arc`'d term, with a pointer-identity fast path for
    /// subtrees shared through the same allocation.
    fn term_slot(&mut self, t: &Arc<Term>) -> u32 {
        let p = Arc::as_ptr(t) as usize;
        if let Some(&s) = self.term_ptrs.get(&p) {
            self.nodes += 1;
            self.shared += 1;
            return s;
        }
        let s = self.intern_term(t);
        self.term_ptrs.insert(p, s);
        s
    }

    /// Intern an `Arc`'d formula, with a pointer-identity fast path.
    fn form_slot(&mut self, f: &Arc<Formula>) -> u32 {
        let p = Arc::as_ptr(f) as usize;
        if let Some(&s) = self.form_ptrs.get(&p) {
            self.nodes += 1;
            self.shared += 1;
            return s;
        }
        let s = self.intern_form(f);
        self.form_ptrs.insert(p, s);
        s
    }

    fn intern_term(&mut self, t: &Term) -> u32 {
        self.nodes += 1;
        match t {
            Term::Const(r) => self.add_slot(Key::Const(r.clone()), || Op::Const(r.clone())),
            Term::Var(v) => {
                let i = v.index() as u32;
                self.max_var = Some(self.max_var.map_or(i, |m| m.max(i)));
                self.add_slot(Key::Var(i), || Op::Var(i))
            }
            Term::Neg(a) => {
                let a = self.term_slot(a);
                self.add_slot(Key::Neg(a), || Op::Neg(a))
            }
            Term::Add(a, b) => {
                let (a, b) = (self.term_slot(a), self.term_slot(b));
                self.add_slot(Key::Add(a, b), || Op::Add(a, b))
            }
            Term::Sub(a, b) => {
                let (a, b) = (self.term_slot(a), self.term_slot(b));
                self.add_slot(Key::Sub(a, b), || Op::Sub(a, b))
            }
            Term::Mul(a, b) => {
                let (a, b) = (self.term_slot(a), self.term_slot(b));
                self.add_slot(Key::Mul(a, b), || Op::Mul(a, b))
            }
            Term::Div(a, b) => {
                let (a, b) = (self.term_slot(a), self.term_slot(b));
                self.add_slot(Key::Div(a, b), || Op::Div(a, b))
            }
            Term::Min(a, b) => {
                let (a, b) = (self.term_slot(a), self.term_slot(b));
                self.add_slot(Key::Min(a, b), || Op::Min(a, b))
            }
            Term::Max(a, b) => {
                let (a, b) = (self.term_slot(a), self.term_slot(b));
                self.add_slot(Key::Max(a, b), || Op::Max(a, b))
            }
            Term::Ite(c, a, b) => {
                let c = self.form_slot(c);
                let (a, b) = (self.term_slot(a), self.term_slot(b));
                self.add_slot(Key::Ite(c, a, b), || Op::Ite(c, a, b))
            }
        }
    }

    fn intern_form(&mut self, f: &Formula) -> u32 {
        self.nodes += 1;
        match f {
            Formula::True => self.add_slot(Key::True, || Op::True),
            Formula::False => self.add_slot(Key::False, || Op::False),
            Formula::Cmp(op, a, b) => {
                let (a, b) = (self.term_slot(a), self.term_slot(b));
                self.add_slot(Key::Cmp(*op, a, b), || Op::Cmp(*op, a, b))
            }
            Formula::And(fs) => {
                let ch: Vec<u32> = fs.iter().map(|g| self.intern_form(g)).collect();
                let op_ch = ch.clone().into_boxed_slice();
                self.add_slot(Key::All(ch), || Op::All(op_ch))
            }
            Formula::Or(fs) => {
                let ch: Vec<u32> = fs.iter().map(|g| self.intern_form(g)).collect();
                let op_ch = ch.clone().into_boxed_slice();
                self.add_slot(Key::Any(ch), || Op::Any(op_ch))
            }
            Formula::Not(g) => {
                let g = self.form_slot(g);
                self.add_slot(Key::Not(g), || Op::Not(g))
            }
        }
    }

    fn add_slot(&mut self, key: Key, op: impl FnOnce() -> Op) -> u32 {
        if let Some(&s) = self.memo.get(&key) {
            self.shared += 1;
            return s;
        }
        let i = self.ops.len() as u32;
        self.ops.push(op());
        self.memo.insert(key, i);
        self.seal_slot(i as usize);
        i
    }

    /// Compute var-freeness and, for var-free slots, fold the interval,
    /// verdict, and exact value at compile time — with exactly the
    /// semantics the runtime interpreters (and the tree walkers they
    /// mirror) would apply, so replay is bit-identical.
    fn seal_slot(&mut self, i: usize) {
        let op = self.ops[i].clone();
        let hv = match &op {
            Op::Const(_) | Op::True | Op::False => false,
            Op::Var(_) => true,
            Op::Neg(a) | Op::Not(a) => self.has_vars[*a as usize],
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::Div(a, b)
            | Op::Min(a, b)
            | Op::Max(a, b)
            | Op::Cmp(_, a, b) => self.has_vars[*a as usize] || self.has_vars[*b as usize],
            Op::Ite(c, a, b) => {
                self.has_vars[*c as usize]
                    || self.has_vars[*a as usize]
                    || self.has_vars[*b as usize]
            }
            Op::All(ch) | Op::Any(ch) => ch.iter().any(|&c| self.has_vars[c as usize]),
        };
        self.has_vars.push(hv);
        self.cached_iv.push(None);
        self.cached_tri.push(None);
        self.cached_rat.push(None);
        self.cached_bool.push(None);
        if hv {
            return;
        }
        // Interval / verdict folding (total semantics, mirrors ieval).
        let giv = |j: &u32| self.cached_iv[*j as usize].expect("var-free child has interval");
        let gtri = |j: &u32| self.cached_tri[*j as usize].expect("var-free child has verdict");
        match &op {
            Op::Const(r) => self.cached_iv[i] = Some(rat_enclosure(r)),
            Op::Var(_) => unreachable!("var slots have vars"),
            Op::Neg(a) => self.cached_iv[i] = Some(-giv(a)),
            Op::Add(a, b) => self.cached_iv[i] = Some(giv(a) + giv(b)),
            Op::Sub(a, b) => self.cached_iv[i] = Some(giv(a) - giv(b)),
            Op::Mul(a, b) => self.cached_iv[i] = Some(giv(a) * giv(b)),
            Op::Div(a, b) => self.cached_iv[i] = Some(giv(a) / giv(b)),
            Op::Min(a, b) => self.cached_iv[i] = Some(giv(a).min_i(&giv(b))),
            Op::Max(a, b) => self.cached_iv[i] = Some(giv(a).max_i(&giv(b))),
            Op::Ite(c, a, b) => {
                self.cached_iv[i] = Some(match gtri(c) {
                    Tri::True => giv(a),
                    Tri::False => giv(b),
                    Tri::Unknown => giv(a).hull(&giv(b)),
                });
            }
            Op::True => self.cached_tri[i] = Some(Tri::True),
            Op::False => self.cached_tri[i] = Some(Tri::False),
            Op::Cmp(op, a, b) => self.cached_tri[i] = Some(icmp(*op, giv(a), giv(b))),
            Op::All(ch) => {
                let mut acc = Tri::True;
                for c in ch.iter() {
                    acc = acc.and(gtri(c));
                }
                self.cached_tri[i] = Some(acc);
            }
            Op::Any(ch) => {
                let mut acc = Tri::False;
                for c in ch.iter() {
                    acc = acc.or(gtri(c));
                }
                self.cached_tri[i] = Some(acc);
            }
            Op::Not(a) => self.cached_tri[i] = Some(gtri(a).not()),
        }
        // Exact folding (partial semantics, mirrors eval.rs order).
        let grat = |j: &u32| self.cached_rat[*j as usize].clone().expect("var-free child value");
        let gbool = |j: &u32| self.cached_bool[*j as usize].clone().expect("var-free child value");
        let bin = |a: &u32, b: &u32, f: fn(Rat, Rat) -> Rat| -> Result<Rat, EvalError> {
            Ok(f(grat(a)?, grat(b)?))
        };
        match &op {
            Op::Const(r) => self.cached_rat[i] = Some(Ok(r.clone())),
            Op::Var(_) => unreachable!("var slots have vars"),
            Op::Neg(a) => self.cached_rat[i] = Some(grat(a).map(|r| -r)),
            Op::Add(a, b) => self.cached_rat[i] = Some(bin(a, b, |x, y| x + y)),
            Op::Sub(a, b) => self.cached_rat[i] = Some(bin(a, b, |x, y| x - y)),
            Op::Mul(a, b) => self.cached_rat[i] = Some(bin(a, b, |x, y| x * y)),
            Op::Div(a, b) => {
                // Denominator first, exactly like eval_term.
                self.cached_rat[i] = Some((|| {
                    let d = grat(b)?;
                    if d.is_zero() {
                        return Err(EvalError::DivByZero);
                    }
                    Ok(grat(a)? / d)
                })());
            }
            Op::Min(a, b) => self.cached_rat[i] = Some(bin(a, b, |x, y| x.min(y))),
            Op::Max(a, b) => self.cached_rat[i] = Some(bin(a, b, |x, y| x.max(y))),
            Op::Ite(c, a, b) => {
                self.cached_rat[i] = Some((|| {
                    if gbool(c)? {
                        grat(a)
                    } else {
                        grat(b)
                    }
                })());
            }
            Op::True => self.cached_bool[i] = Some(Ok(true)),
            Op::False => self.cached_bool[i] = Some(Ok(false)),
            Op::Cmp(op, a, b) => {
                self.cached_bool[i] = Some((|| {
                    let x = grat(a)?;
                    let y = grat(b)?;
                    Ok(op.apply(&x, &y))
                })());
            }
            Op::All(ch) => {
                self.cached_bool[i] = Some((|| {
                    for c in ch.iter() {
                        if !gbool(c)? {
                            return Ok(false);
                        }
                    }
                    Ok(true)
                })());
            }
            Op::Any(ch) => {
                self.cached_bool[i] = Some((|| {
                    for c in ch.iter() {
                        if gbool(c)? {
                            return Ok(true);
                        }
                    }
                    Ok(false)
                })());
            }
            Op::Not(a) => self.cached_bool[i] = Some(gbool(a).map(|v| !v)),
        }
    }
}

impl Tape {
    /// Compile `simplified` (and its `conjuncts`, which must be
    /// `simplified.conjuncts()`) into one shared slot arena. When `seed`
    /// is given, variable-dependent formula slots decided over it are
    /// cached — sound and bit-identical on every sub-box of `seed`, so
    /// callers must only evaluate boxes contained in it.
    #[must_use]
    pub fn compile(simplified: &Formula, conjuncts: &[Formula], seed: Option<&BoxDomain>) -> Tape {
        let mut b = Builder::new();
        let root = b.intern_form(simplified);
        let roots: Vec<u32> = conjuncts.iter().map(|c| b.intern_form(c)).collect();
        let const_slots = b.cached_iv.iter().filter(|c| c.is_some()).count()
            + b.cached_tri.iter().filter(|c| c.is_some()).count();
        let stats = TapeStats {
            nodes: b.nodes,
            slots: b.ops.len(),
            shared: b.shared,
            const_slots,
            decided: 0,
        };
        let mut tape = Tape {
            ops: b.ops,
            cached_iv: b.cached_iv,
            cached_tri: b.cached_tri,
            cached_rat: b.cached_rat,
            cached_bool: b.cached_bool,
            has_vars: b.has_vars,
            max_var: b.max_var,
            root,
            roots,
            conj_masks: Vec::new(),
            all_mask: Vec::new(),
            stats,
        };
        if let Some(dom) = seed {
            tape.seed_domain(dom);
        }
        tape.build_masks();
        tape
    }

    /// Compile counters for this tape.
    #[must_use]
    pub fn stats(&self) -> &TapeStats {
        &self.stats
    }

    /// Number of conjunct roots.
    #[must_use]
    pub fn conjunct_count(&self) -> usize {
        self.roots.len()
    }

    /// Evaluate every slot once over the seed box and cache the decided
    /// variable-dependent formula verdicts. Interval evaluation is
    /// inclusion-monotonic, so a `True`/`False` over the seed box is the
    /// verdict the tree walker computes on every sub-box.
    fn seed_domain(&mut self, dom: &BoxDomain) {
        if self.max_var.is_some_and(|m| (m as usize) >= dom.len()) {
            return; // seed box does not cover the formula's variables
        }
        let mut scratch = TapeScratch::new();
        self.eval_slots(&[dom], None, &mut scratch);
        for i in 0..self.ops.len() {
            let is_formula = matches!(
                self.ops[i],
                Op::True | Op::False | Op::Cmp(..) | Op::All(_) | Op::Any(_) | Op::Not(_)
            );
            if is_formula && self.has_vars[i] && self.cached_tri[i].is_none() {
                match scratch.tri[i] {
                    v @ (Tri::True | Tri::False) => {
                        self.cached_tri[i] = Some(v);
                        self.stats.decided += 1;
                    }
                    Tri::Unknown => {}
                }
            }
        }
    }

    /// Per-conjunct needed-slot bitmasks: descend from each root, stopping
    /// at cached slots (their value is broadcast, their children skipped).
    /// For an `Ite` whose guard verdict is cached, only the reachable
    /// branch is marked.
    fn build_masks(&mut self) {
        let words = self.ops.len().div_ceil(64);
        let mut conj_masks = Vec::with_capacity(self.roots.len());
        let mut all_mask = vec![0u64; words];
        for &r in &self.roots {
            let mut m = vec![0u64; words];
            self.mark(r, &mut m);
            for (a, b) in all_mask.iter_mut().zip(&m) {
                *a |= *b;
            }
            conj_masks.push(m);
        }
        // The whole-formula root only matters for exact evaluation, which
        // is demand-driven and maskless; conjunct masks are enough.
        self.conj_masks = conj_masks;
        self.all_mask = all_mask;
    }

    fn mark(&self, i: u32, mask: &mut [u64]) {
        let idx = i as usize;
        if mask[idx >> 6] & (1 << (idx & 63)) != 0 {
            return;
        }
        mask[idx >> 6] |= 1 << (idx & 63);
        if self.cached_iv[idx].is_some() || self.cached_tri[idx].is_some() {
            return;
        }
        match &self.ops[idx] {
            Op::Const(_) | Op::Var(_) | Op::True | Op::False => {}
            Op::Neg(a) | Op::Not(a) => self.mark(*a, mask),
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::Div(a, b)
            | Op::Min(a, b)
            | Op::Max(a, b)
            | Op::Cmp(_, a, b) => {
                self.mark(*a, mask);
                self.mark(*b, mask);
            }
            Op::Ite(c, a, b) => {
                self.mark(*c, mask);
                match self.cached_tri[*c as usize] {
                    Some(Tri::True) => self.mark(*a, mask),
                    Some(Tri::False) => self.mark(*b, mask),
                    _ => {
                        self.mark(*a, mask);
                        self.mark(*b, mask);
                    }
                }
            }
            Op::All(ch) | Op::Any(ch) => {
                for &c in ch.iter() {
                    self.mark(c, mask);
                }
            }
        }
    }

    // -- interval interpreter -------------------------------------------------

    /// Evaluate the slots selected by `mask` (all slots when `None`) over
    /// the batch of boxes, slot-major into the scratch.
    fn eval_slots(&self, doms: &[&BoxDomain], mask: Option<&[u64]>, s: &mut TapeScratch) {
        let n = self.ops.len();
        let nb = doms.len();
        s.batch = nb;
        s.iv.clear();
        s.iv.resize(n * nb, Interval::point(0.0));
        s.tri.clear();
        s.tri.resize(n * nb, Tri::Unknown);
        for i in 0..n {
            if let Some(m) = mask {
                if m[i >> 6] & (1 << (i & 63)) == 0 {
                    continue;
                }
            }
            self.eval_slot(i, doms, s);
        }
    }

    #[inline]
    fn eval_slot(&self, i: usize, doms: &[&BoxDomain], s: &mut TapeScratch) {
        let nb = doms.len();
        let base = i * nb;
        if let Some(v) = self.cached_iv[i] {
            s.iv[base..base + nb].fill(v);
            return;
        }
        if let Some(t) = self.cached_tri[i] {
            s.tri[base..base + nb].fill(t);
            return;
        }
        match &self.ops[i] {
            Op::Const(_) | Op::True | Op::False => unreachable!("constant slots are cached"),
            Op::Var(v) => {
                for (k, d) in doms.iter().enumerate() {
                    s.iv[base + k] = d.get(VarId(*v));
                }
            }
            Op::Neg(a) => {
                let ab = *a as usize * nb;
                for k in 0..nb {
                    s.iv[base + k] = -s.iv[ab + k];
                }
            }
            Op::Add(a, b) => {
                let (ab, bb) = (*a as usize * nb, *b as usize * nb);
                for k in 0..nb {
                    s.iv[base + k] = s.iv[ab + k] + s.iv[bb + k];
                }
            }
            Op::Sub(a, b) => {
                let (ab, bb) = (*a as usize * nb, *b as usize * nb);
                for k in 0..nb {
                    s.iv[base + k] = s.iv[ab + k] - s.iv[bb + k];
                }
            }
            Op::Mul(a, b) => {
                let (ab, bb) = (*a as usize * nb, *b as usize * nb);
                for k in 0..nb {
                    s.iv[base + k] = s.iv[ab + k] * s.iv[bb + k];
                }
            }
            Op::Div(a, b) => {
                let (ab, bb) = (*a as usize * nb, *b as usize * nb);
                for k in 0..nb {
                    s.iv[base + k] = s.iv[ab + k] / s.iv[bb + k];
                }
            }
            Op::Min(a, b) => {
                let (ab, bb) = (*a as usize * nb, *b as usize * nb);
                for k in 0..nb {
                    s.iv[base + k] = s.iv[ab + k].min_i(&s.iv[bb + k]);
                }
            }
            Op::Max(a, b) => {
                let (ab, bb) = (*a as usize * nb, *b as usize * nb);
                for k in 0..nb {
                    s.iv[base + k] = s.iv[ab + k].max_i(&s.iv[bb + k]);
                }
            }
            Op::Ite(c, a, b) => {
                let (cb, ab, bb) = (*c as usize * nb, *a as usize * nb, *b as usize * nb);
                for k in 0..nb {
                    s.iv[base + k] = match s.tri[cb + k] {
                        Tri::True => s.iv[ab + k],
                        Tri::False => s.iv[bb + k],
                        Tri::Unknown => s.iv[ab + k].hull(&s.iv[bb + k]),
                    };
                }
            }
            Op::Cmp(op, a, b) => {
                let (ab, bb) = (*a as usize * nb, *b as usize * nb);
                for k in 0..nb {
                    s.tri[base + k] = icmp(*op, s.iv[ab + k], s.iv[bb + k]);
                }
            }
            Op::All(ch) => {
                for k in 0..nb {
                    let mut acc = Tri::True;
                    for &c in ch.iter() {
                        acc = acc.and(s.tri[c as usize * nb + k]);
                        if acc == Tri::False {
                            break;
                        }
                    }
                    s.tri[base + k] = acc;
                }
            }
            Op::Any(ch) => {
                for k in 0..nb {
                    let mut acc = Tri::False;
                    for &c in ch.iter() {
                        acc = acc.or(s.tri[c as usize * nb + k]);
                        if acc == Tri::True {
                            break;
                        }
                    }
                    s.tri[base + k] = acc;
                }
            }
            Op::Not(a) => {
                let ab = *a as usize * nb;
                for k in 0..nb {
                    s.tri[base + k] = s.tri[ab + k].not();
                }
            }
        }
    }

    /// Evaluate the conjunct roots `cis` over a batch of boxes in one tape
    /// pass. Clears `out`, then appends verdicts box-major:
    /// `out[b * cis.len() + j]` is conjunct `cis[j]` on `doms[b]` — each
    /// verdict bit-identical to `ieval_formula(&conjuncts[ci], doms[b])`.
    pub fn verdicts(
        &self,
        doms: &[&BoxDomain],
        cis: &[u32],
        scratch: &mut TapeScratch,
        out: &mut Vec<Tri>,
    ) {
        out.clear();
        if doms.is_empty() || cis.is_empty() {
            return;
        }
        let words = self.all_mask.len();
        scratch.mask.clear();
        scratch.mask.resize(words, 0);
        let mut mask = std::mem::take(&mut scratch.mask);
        if cis.len() == self.roots.len() {
            mask.copy_from_slice(&self.all_mask);
        } else {
            for &ci in cis {
                for (m, w) in mask.iter_mut().zip(&self.conj_masks[ci as usize]) {
                    *m |= *w;
                }
            }
        }
        self.eval_slots(doms, Some(&mask), scratch);
        scratch.mask = mask;
        let nb = doms.len();
        out.reserve(nb * cis.len());
        for b in 0..nb {
            for &ci in cis {
                out.push(scratch.tri[self.roots[ci as usize] as usize * nb + b]);
            }
        }
    }

    /// Sound interval refutation of one box: `true` iff some conjunct is
    /// certainly false on it — bit-identical to running `ieval_formula`
    /// over each conjunct.
    #[must_use]
    pub fn refutes_box(&self, dom: &BoxDomain, scratch: &mut TapeScratch) -> bool {
        let cis: Vec<u32> = (0..self.roots.len() as u32).collect();
        let mut out = Vec::new();
        self.verdicts(&[dom], &cis, scratch, &mut out);
        out.contains(&Tri::False)
    }

    /// Sound fast rejection of an exact sample: encloses each value in a
    /// one-ulp point box and interval-refutes the conjuncts. `true` means
    /// the exact formula certainly does not hold at `env` (so exact
    /// certification can be skipped); `false` is inconclusive.
    #[must_use]
    pub fn refutes_point(&self, env: &[Rat], scratch: &mut TapeScratch) -> bool {
        if self.max_var.is_some_and(|m| (m as usize) >= env.len()) {
            return false; // mirror eval_formula's UnboundVar path: inconclusive
        }
        let mut dom = BoxDomain::with_len(env.len());
        for (i, r) in env.iter().enumerate() {
            dom.set(VarId(i as u32), rat_enclosure(r));
        }
        self.refutes_box(&dom, scratch)
    }

    // -- exact rational interpreter -------------------------------------------

    /// Exact rational evaluation of the whole formula — bit-identical to
    /// `eval_formula(&simplified, env)`, including which error surfaces.
    ///
    /// # Errors
    /// Exactly those of `eval_formula`: [`EvalError::DivByZero`] on an
    /// exactly-zero denominator, [`EvalError::UnboundVar`] on a variable
    /// the environment does not cover.
    pub fn eval_exact(&self, env: &[Rat], scratch: &mut ExactScratch) -> Result<bool, EvalError> {
        scratch.reset(self.ops.len());
        self.exact_form(self.root, env, scratch)
    }

    fn exact_term(&self, i: u32, env: &[Rat], s: &mut ExactScratch) -> Result<Rat, EvalError> {
        let idx = i as usize;
        if let Some(r) = &s.rat[idx] {
            return r.clone();
        }
        let out = if let Some(r) = &self.cached_rat[idx] {
            r.clone()
        } else {
            self.exact_term_uncached(idx, env, s)
        };
        s.rat[idx] = Some(out.clone());
        out
    }

    fn exact_term_uncached(
        &self,
        idx: usize,
        env: &[Rat],
        s: &mut ExactScratch,
    ) -> Result<Rat, EvalError> {
        match &self.ops[idx] {
            Op::Const(r) => Ok(r.clone()),
            Op::Var(v) => env.get(*v as usize).cloned().ok_or(EvalError::UnboundVar(*v as usize)),
            Op::Neg(a) => Ok(-self.exact_term(*a, env, s)?),
            Op::Add(a, b) => Ok(self.exact_term(*a, env, s)? + self.exact_term(*b, env, s)?),
            Op::Sub(a, b) => Ok(self.exact_term(*a, env, s)? - self.exact_term(*b, env, s)?),
            Op::Mul(a, b) => Ok(self.exact_term(*a, env, s)? * self.exact_term(*b, env, s)?),
            Op::Div(a, b) => {
                // Denominator first, exactly like eval_term.
                let d = self.exact_term(*b, env, s)?;
                if d.is_zero() {
                    return Err(EvalError::DivByZero);
                }
                Ok(self.exact_term(*a, env, s)? / d)
            }
            Op::Min(a, b) => Ok(self.exact_term(*a, env, s)?.min(self.exact_term(*b, env, s)?)),
            Op::Max(a, b) => Ok(self.exact_term(*a, env, s)?.max(self.exact_term(*b, env, s)?)),
            Op::Ite(c, a, b) => {
                // Condition, then only the taken branch.
                if self.exact_form(*c, env, s)? {
                    self.exact_term(*a, env, s)
                } else {
                    self.exact_term(*b, env, s)
                }
            }
            _ => unreachable!("formula op in term position"),
        }
    }

    fn exact_form(&self, i: u32, env: &[Rat], s: &mut ExactScratch) -> Result<bool, EvalError> {
        let idx = i as usize;
        if let Some(r) = &s.boolv[idx] {
            return r.clone();
        }
        let out = if let Some(r) = &self.cached_bool[idx] {
            r.clone()
        } else {
            self.exact_form_uncached(idx, env, s)
        };
        s.boolv[idx] = Some(out.clone());
        out
    }

    fn exact_form_uncached(
        &self,
        idx: usize,
        env: &[Rat],
        s: &mut ExactScratch,
    ) -> Result<bool, EvalError> {
        match &self.ops[idx] {
            Op::True => Ok(true),
            Op::False => Ok(false),
            Op::Cmp(op, a, b) => {
                let x = self.exact_term(*a, env, s)?;
                let y = self.exact_term(*b, env, s)?;
                Ok(op.apply(&x, &y))
            }
            Op::All(ch) => {
                for &c in ch.iter() {
                    if !self.exact_form(c, env, s)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Op::Any(ch) => {
                for &c in ch.iter() {
                    if self.exact_form(c, env, s)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Op::Not(a) => Ok(!self.exact_form(*a, env, s)?),
            _ => unreachable!("term op in formula position"),
        }
    }
}

/// A solver query compiled once: the simplified formula, its conjuncts,
/// and the compiled tape — prepared by the caller so the solver and the
/// exact certifier share one compilation.
#[derive(Debug)]
pub struct CompiledQuery {
    /// `simplify_formula` of the original query.
    pub simplified: Formula,
    /// `simplified.conjuncts()` — what branch-and-prune prunes on.
    pub conjuncts: Vec<Formula>,
    /// The compiled tape; `None` exactly when the formula is trivially
    /// `True`/`False`.
    pub tape: Option<Tape>,
}

impl CompiledQuery {
    /// Simplify `f` and, unless it simplifies to `True`/`False`, compile
    /// its tape under a `solver.tape_compile` span (per-query compile
    /// counters go to the `solver.tape` trace counter). `seed` should be
    /// the box the query will be solved over; every box later evaluated
    /// through the tape must be contained in it. `_use_tape` is ignored:
    /// the tape is the solver's only evaluator, and the parameter stays
    /// only until its last caller drops it.
    #[must_use]
    pub fn prepare(f: &Formula, seed: Option<&BoxDomain>, _use_tape: bool) -> CompiledQuery {
        let simplified = simplify_formula(f);
        let conjuncts = simplified.conjuncts();
        let tape = (!matches!(simplified, Formula::True | Formula::False)).then(|| {
            let _sp = trace::span("solver.tape_compile");
            let tape = Tape::compile(&simplified, &conjuncts, seed);
            let st = *tape.stats();
            trace::counter("solver.tape", || {
                vec![
                    ("nodes", Value::U64(st.nodes as u64)),
                    ("slots", Value::U64(st.slots as u64)),
                    ("shared", Value::U64(st.shared as u64)),
                    ("const_slots", Value::U64(st.const_slots as u64)),
                    ("decided", Value::U64(st.decided as u64)),
                ]
            });
            tape
        });
        CompiledQuery { simplified, conjuncts, tape }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_formula;
    use crate::ieval::ieval_formula;
    use crate::term::Term;
    use crate::vars::VarRegistry;

    fn dom2(x: (f64, f64), y: (f64, f64)) -> BoxDomain {
        let mut d = BoxDomain::with_len(2);
        d.set(VarId(0), Interval::new(x.0, x.1));
        d.set(VarId(1), Interval::new(y.0, y.1));
        d
    }

    fn compile(f: &Formula, seed: Option<&BoxDomain>) -> (Formula, Vec<Formula>, Tape) {
        let simplified = simplify_formula(f);
        let conjuncts = simplified.conjuncts();
        let tape = Tape::compile(&simplified, &conjuncts, seed);
        (simplified, conjuncts, tape)
    }

    fn tape_verdict(tape: &Tape, ci: u32, dom: &BoxDomain) -> Tri {
        let mut s = TapeScratch::new();
        let mut out = Vec::new();
        tape.verdicts(&[dom], &[ci], &mut s, &mut out);
        out[0]
    }

    #[test]
    fn verdicts_match_tree_walker() {
        let mut r = VarRegistry::new();
        let x = r.intern("x");
        let y = r.intern("y");
        let f = Formula::and(vec![
            Term::var(x).mul(Term::var(y)).ge(Term::int(12)),
            Term::var(x).add(Term::var(y)).le(Term::int(9)),
            Term::int(1).div(Term::var(x)).gt(Term::int(0)),
        ]);
        let (_, conjuncts, tape) = compile(&f, None);
        assert_eq!(tape.conjunct_count(), 3);
        for dom in [
            dom2((0.0, 10.0), (0.0, 10.0)),
            dom2((4.0, 6.0), (3.0, 4.0)),
            dom2((-1.0, 1.0), (0.0, 0.5)),
            dom2((9.0, 10.0), (9.0, 10.0)),
        ] {
            for (ci, c) in conjuncts.iter().enumerate() {
                assert_eq!(
                    tape_verdict(&tape, ci as u32, &dom),
                    ieval_formula(c, &dom),
                    "conjunct {ci} diverged"
                );
            }
        }
    }

    #[test]
    fn batched_evaluation_matches_single_box() {
        let mut r = VarRegistry::new();
        let x = r.intern("x");
        let y = r.intern("y");
        let f = Formula::and(vec![
            Term::var(x).mul(Term::var(y)).ge(Term::int(12)),
            Term::var(x).add(Term::var(y)).le(Term::int(9)),
        ]);
        let (_, _, tape) = compile(&f, None);
        let doms = [
            dom2((0.0, 10.0), (0.0, 10.0)),
            dom2((4.0, 6.0), (3.0, 4.0)),
            dom2((0., 1.), (0., 1.)),
        ];
        let refs: Vec<&BoxDomain> = doms.iter().collect();
        let mut s = TapeScratch::new();
        let mut batched = Vec::new();
        tape.verdicts(&refs, &[0, 1], &mut s, &mut batched);
        for (b, dom) in doms.iter().enumerate() {
            for ci in 0..2u32 {
                assert_eq!(
                    batched[b * 2 + ci as usize],
                    tape_verdict(&tape, ci, dom),
                    "box {b} conjunct {ci}"
                );
            }
        }
    }

    #[test]
    fn exact_replay_matches_eval_formula_including_errors() {
        let mut r = VarRegistry::new();
        let x = r.intern("x");
        let y = r.intern("y");
        // Error ordering matters: 1/x errors at x=0, the untaken Ite
        // branch must not surface its own error, And short-circuits but
        // keeps earlier errors.
        let shared = Term::var(x).mul(Term::var(y));
        let f = Formula::and(vec![
            Formula::or(vec![
                Term::int(1).div(Term::var(x)).gt(Term::int(0)),
                shared.clone().ge(Term::int(0)),
            ]),
            Term::ite(
                Term::var(y).ge(Term::int(0)),
                shared.clone(),
                Term::int(1).div(Term::int(0)),
            )
            .le(Term::int(100)),
            Formula::False,
        ]);
        let (simplified, _, tape) = compile(&f, None);
        let mut s = ExactScratch::new();
        for (xi, yi) in [(1i64, 2i64), (0, 2), (0, -2), (3, -1), (-2, 5)] {
            let env = vec![Rat::from_int(xi), Rat::from_int(yi)];
            assert_eq!(
                tape.eval_exact(&env, &mut s),
                eval_formula(&simplified, &env),
                "env ({xi}, {yi})"
            );
        }
    }

    #[test]
    fn constant_subtrees_fold_without_changing_semantics() {
        let mut r = VarRegistry::new();
        let x = r.intern("x");
        // (1/3 + 1/3) is var-free: folded at compile time, but the folded
        // interval must be what the tree walker computes (composed outward
        // arithmetic), not a re-enclosure of 2/3.
        let c = Term::constant(Rat::from_frac(1, 3)).add(Term::constant(Rat::from_frac(1, 3)));
        let f = Term::var(x).ge(c);
        let (simplified, conjuncts, tape) = compile(&f, None);
        assert!(tape.stats().const_slots > 0);
        let dom = {
            let mut d = BoxDomain::with_len(1);
            d.set(VarId(0), Interval::new(0.0, 1.0));
            d
        };
        assert_eq!(tape_verdict(&tape, 0, &dom), ieval_formula(&conjuncts[0], &dom));
        let env = vec![Rat::from_int(1)];
        let mut s = ExactScratch::new();
        assert_eq!(tape.eval_exact(&env, &mut s), eval_formula(&simplified, &env));
    }

    #[test]
    fn constant_division_by_zero_replays_the_error() {
        let mut r = VarRegistry::new();
        let x = r.intern("x");
        let f = Term::var(x).ge(Term::int(1).div(Term::int(0)));
        let (simplified, _, tape) = compile(&f, None);
        let env = vec![Rat::from_int(1)];
        let mut s = ExactScratch::new();
        assert_eq!(tape.eval_exact(&env, &mut s), eval_formula(&simplified, &env));
        assert_eq!(tape.eval_exact(&env, &mut s), Err(EvalError::DivByZero));
    }

    #[test]
    fn hash_consing_dedupes_shared_subterms() {
        let mut r = VarRegistry::new();
        let x = r.intern("x");
        let y = r.intern("y");
        let prod = Term::var(x).mul(Term::var(y));
        // The same product appears in three conjuncts (fresh clones, no
        // Arc sharing): structural hash-consing must still unify it.
        let f = Formula::and(vec![
            prod.clone().ge(Term::int(12)),
            prod.clone().le(Term::int(13)),
            prod.clone().ne_t(Term::int(0)),
        ]);
        let (_, _, tape) = compile(&f, None);
        assert!(tape.stats().shared >= 2, "shared product must hit the memo");
        // x, y, x*y, 3 consts, 3 cmps, 1 and = 9 slots, not 13.
        assert!(tape.stats().slots < tape.stats().nodes);
    }

    #[test]
    fn domain_seeding_caches_decided_guards() {
        let mut r = VarRegistry::new();
        let x = r.intern("x");
        let y = r.intern("y");
        // Guard `y <= 200` is True over the whole seed box: decided.
        let t = Term::ite(
            Term::var(y).le(Term::int(200)),
            Term::var(x),
            Term::var(x).mul(Term::int(5)),
        );
        let f = t.ge(Term::int(3));
        let seed = dom2((0.0, 10.0), (0.0, 100.0));
        let (_, conjuncts, tape) = compile(&f, Some(&seed));
        assert!(tape.stats().decided >= 1, "guard must be decided over the seed box");
        // Verdicts on sub-boxes still match the tree walker exactly.
        for dom in [dom2((0.0, 5.0), (0.0, 50.0)), dom2((4.0, 10.0), (60.0, 100.0))] {
            assert_eq!(tape_verdict(&tape, 0, &dom), ieval_formula(&conjuncts[0], &dom));
        }
    }

    #[test]
    fn refutes_point_is_sound_and_useful() {
        let mut r = VarRegistry::new();
        let x = r.intern("x");
        let y = r.intern("y");
        let f = Formula::and(vec![
            Term::var(x).add(Term::var(y)).ge(Term::int(5)),
            Term::var(x).le(Term::int(2)),
        ]);
        let (simplified, _, tape) = compile(&f, None);
        let mut s = TapeScratch::new();
        // A point that plainly violates x <= 2 is rejected by intervals.
        let bad = vec![Rat::from_int(7), Rat::from_int(7)];
        assert!(tape.refutes_point(&bad, &mut s));
        assert_eq!(eval_formula(&simplified, &bad), Ok(false));
        // A satisfying point is never rejected.
        let good = vec![Rat::from_int(1), Rat::from_int(6)];
        assert!(!tape.refutes_point(&good, &mut s));
        assert_eq!(eval_formula(&simplified, &good), Ok(true));
    }

    #[test]
    fn prepare_skips_trivial_formulas() {
        let q = CompiledQuery::prepare(&Formula::True, None, true);
        assert!(q.tape.is_none());
        let q = CompiledQuery::prepare(&Formula::False, None, true);
        assert!(q.tape.is_none());
        let mut r = VarRegistry::new();
        let x = r.intern("x");
        let q = CompiledQuery::prepare(&Term::var(x).ge(Term::int(1)), None, true);
        assert!(q.tape.is_some());
    }
}
