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
//!   once, however many hulls read it). Slots are numbered in walk order,
//!   so the tape depends only on the formula's structure: neither the
//!   interning maps' hasher nor pointer identity (which only short-cuts
//!   re-walking a shared subtree) can change it.
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
//! * **Lanes (structure-of-arrays evaluation).** One tape pass scores up
//!   to [`LANES`] boxes side by side: every slot holds a
//!   [`IntervalLanes`] (separate `lo` and `hi` arrays, one entry per box)
//!   and one verdict byte per box, and every opcode is one loop over the
//!   live lanes, with its output slot split off by `split_at_mut` so the
//!   loop reads and writes disjoint arrays. Verdict bytes encode
//!   False = 0, Unknown = 1, True = 2, so Kleene `All` is the minimum,
//!   `Any` the maximum and `Not` is `2 - x`; comparisons and `Ite` are
//!   selects, not branches. Full chunks run loops of constant trip count,
//!   which the compiler unrolls and vectorizes at the baseline target. A
//!   larger batch goes through in chunks of [`LANES`].
//! * **Planned passes.** Each slot is one 16-byte instruction with its
//!   operands inline (list children sit in a side array), and cached slots
//!   carry their values in the tape's caches. A pass first plans: it walks
//!   the slots the requested conjuncts need (the union of their
//!   needed-slot masks), splats every cached one into all lanes once, and
//!   lists the uncached ones. Each chunk of [`LANES`] boxes then runs only
//!   that list. Domain seeding and batch verdicts go through this path.
//! * **Early-exit refutation.** Pruning a sample needs only "some conjunct
//!   is `False`", not every verdict. A [`Refuter`] plans the requested
//!   conjuncts once, in the order given: each conjunct's run list is its
//!   needed slots minus those of the conjuncts before it. Each chunk of
//!   [`LANES`] boxes runs the lists conjunct by conjunct and stops as soon
//!   as every live lane is refuted. Sample refutation in branch-and-prune
//!   and seeding both go through it.
//! * **Contraction (HC4-revise).** [`Tape::contract`] narrows a box to the
//!   solutions of its pending conjuncts: after a forward pass, each
//!   comparison that must hold is projected backward through the slots,
//!   from the last slot to the first, onto the variables, with the same
//!   outward-rounded interval operators. A [`VerdictPass`] keeps each
//!   chunk's lanes, so a box it scored takes its first sweep without a
//!   forward pass of its own; later sweeps share forward passes
//!   [`LANES`] boxes at a time.
//!
//! Lanes never mix, and each lane computes exactly the scalar `f64`
//! operations of [`Interval`]'s operators — the lane kernels and the
//! operators share one per-endpoint definition in `cso-numeric`, including
//! the outward rounding — so every verdict is bit-identical to evaluating
//! its box alone. (Were `f64::min`/`max` lowered differently in vector and
//! scalar code, the only possible difference is the sign of a zero
//! endpoint: no comparison distinguishes `-0` from `+0`, and the next
//! rounding step maps both to the same value.)
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
use cso_numeric::interval::{for_each_lane, round_down, round_up};
use cso_numeric::{Interval, IntervalLanes, Rat};
use cso_runtime::trace::{self, Value};
use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// One tape instruction: 16 bytes, with no `Rat` inside. Numeric ops
/// produce an interval (or exact rational); `True`..`Not` produce a
/// three-valued verdict (or exact bool). Operands are slot indices of
/// earlier instructions; `All`/`Any` read the run `start..start + len` of
/// the tape's child array. A `Const` slot's value lives in the slot caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    Const,
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
    /// Children `start`, `len` in the child array.
    All(u32, u32),
    Any(u32, u32),
    Not(u32),
}

const _: () = assert!(std::mem::size_of::<Op>() == 16);

impl Op {
    /// `true` for ops that produce a verdict rather than a number.
    fn is_formula(self) -> bool {
        matches!(self, Op::True | Op::False | Op::Cmp(..) | Op::All(..) | Op::Any(..) | Op::Not(_))
    }
}

/// The children of an `All`/`Any` op.
fn kids_of(kids: &[u32], start: u32, len: u32) -> &[u32] {
    &kids[start as usize..(start + len) as usize]
}

/// Structural hash-consing key: operands are already-interned slot ids, so
/// two structurally identical subtrees always produce the same key. A
/// constant is keyed by its value and a list op by its children; every
/// other op is its own key.
#[derive(PartialEq, Eq, Hash)]
enum Key {
    Const(Rat),
    All(Vec<u32>),
    Any(Vec<u32>),
    Op(Op),
}

/// The interning maps' hasher: one multiply-rotate step per word. The keys
/// are slot ids, opcodes, addresses and `Rat` limbs, a handful of words
/// each, on which `std`'s SipHash costs several times more. The keys come
/// from the program's own formulas, so resistance to crafted collisions is
/// not needed; which slot a key gets never depends on the hash.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("chunk of eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.word(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.word(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.word(x);
    }

    fn write_usize(&mut self, x: usize) {
        self.word(x as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits, and the map
        // picks buckets from the low ones.
        self.0.rotate_left(26)
    }
}

type SlotMap<K> = HashMap<K, u32, BuildHasherDefault<WordHasher>>;

/// Per-query compile counters (also emitted on the `solver.tape` trace
/// counter by [`CompiledQuery::prepare`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// Boxes the interval interpreter evaluates side by side: every slot holds
/// one interval (or verdict) per lane, and every opcode is one loop over
/// the lanes.
pub const LANES: usize = 4;

// Verdict bytes: the order False < Unknown < True makes Kleene `and` the
// minimum, `or` the maximum and `not` the reflection `TRUE - x`.
const FALSE: u8 = 0;
const UNKNOWN: u8 = 1;
const TRUE: u8 = 2;

fn tri_byte(t: Tri) -> u8 {
    match t {
        Tri::False => FALSE,
        Tri::Unknown => UNKNOWN,
        Tri::True => TRUE,
    }
}

fn byte_tri(b: u8) -> Tri {
    match b {
        FALSE => Tri::False,
        UNKNOWN => Tri::Unknown,
        _ => Tri::True,
    }
}

/// Contraction sweeps per box at most: each is one forward interval pass
/// and one backward projection.
const CONTRACT_SWEEPS: usize = 8;

/// A sweep that narrows no variable by more than this fraction of its
/// width ends the contraction: the fixpoint is near, and another sweep
/// costs more than the little it would cut.
const CONTRACT_MIN_GAIN: f64 = 0.1;

// Contraction requirement bits, per slot: the formula must be true, must
// be false; the numeric slot's interval was narrowed.
const NEED_TRUE: u8 = 1;
const NEED_FALSE: u8 = 2;
const NARROWED: u8 = 4;

/// What [`Tape::contract`] concluded about a box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contraction {
    /// No variable narrowed.
    Unchanged,
    /// At least one variable narrowed.
    Narrowed,
    /// No point of the box satisfies every pending conjunct.
    Empty,
}

/// The backward pass's view of the scratch (see [`Tape::revise`]): the
/// forward values in lane `k`, and the narrowed intervals and requirement
/// bits of the slots stamped with `epoch`.
struct Revise<'a> {
    iv: &'a [IntervalLanes<LANES>],
    k: usize,
    nar: &'a mut [Interval],
    need: &'a mut [u8],
    stamp: &'a mut [u32],
    epoch: u32,
}

impl Revise<'_> {
    /// Slot `j`'s interval: narrowed this pass, or as the forward pass left
    /// it.
    fn get(&self, j: u32) -> Interval {
        let j = j as usize;
        if self.stamp[j] == self.epoch {
            self.nar[j]
        } else {
            Interval::new(self.iv[j].lo[self.k], self.iv[j].hi[self.k])
        }
    }

    /// Stamp slot `j` for this pass, with no requirement yet.
    fn touch(&mut self, j: usize, iv: Interval) {
        self.stamp[j] = self.epoch;
        self.need[j] = 0;
        self.nar[j] = iv;
    }

    /// Intersect numeric slot `j`'s interval with `iv`; `false` when they
    /// are disjoint. A NaN endpoint of `iv` bounds nothing.
    fn narrow(&mut self, j: u32, iv: Interval) -> bool {
        let cur = self.get(j);
        let Some(x) = cur.intersect(&iv) else { return false };
        if x != cur {
            let j = j as usize;
            if self.stamp[j] == self.epoch {
                self.nar[j] = x;
            } else {
                self.touch(j, x);
            }
            self.need[j] |= NARROWED;
        }
        true
    }

    /// Require formula slot `j`, whose forward verdict is `v`, to be true
    /// (or false): `false` when it certainly is not, or when it is already
    /// required to be the opposite. A verdict that already holds asks for
    /// nothing.
    fn require(&mut self, j: u32, v: u8, want: bool) -> bool {
        let (holds, fails, bit) =
            if want { (TRUE, FALSE, NEED_TRUE) } else { (FALSE, TRUE, NEED_FALSE) };
        if v == holds {
            return true;
        }
        if v == fails {
            return false;
        }
        let j = j as usize;
        if self.stamp[j] != self.epoch {
            self.touch(j, Interval::whole());
        }
        self.need[j] |= bit;
        self.need[j] & (NEED_TRUE | NEED_FALSE) != NEED_TRUE | NEED_FALSE
    }
}

/// `[lo, ∞]`.
fn at_least(lo: f64) -> Interval {
    Interval::new(lo, f64::INFINITY)
}

/// `[-∞, hi]`.
fn at_most(hi: f64) -> Interval {
    Interval::new(f64::NEG_INFINITY, hi)
}

/// Whether `x` is bounded and excludes zero: dividing by it is defined
/// everywhere and yields no `∞/∞` or `0/0`.
fn safe_divisor(x: Interval) -> bool {
    x.lo().is_finite() && x.hi().is_finite() && !x.contains_zero()
}

/// An enclosure of `{z / y : z ∈ z, y ∈ y, y ≠ 0}`, the operand `x` of
/// `z = x·y` wherever `y ≠ 0` or `z ≠ 0`; `None` where it bounds nothing.
/// A bounded divisor excluding zero divides outright. One that only
/// touches zero from one side, under a `z` that excludes zero, leaves a
/// ray: for `y ∈ (0, ȳ]` and `z ≥ z̲ > 0`, `z / y ≥ z̲ / ȳ`, and likewise
/// for the other three sign cases, each bound rounded outward.
fn div_back(z: Interval, y: Interval) -> Option<Interval> {
    if safe_divisor(y) {
        return Some(z / y);
    }
    let (ylo, yhi) = (y.lo(), y.hi());
    if !(ylo.is_finite() && yhi.is_finite()) || z.contains_zero() || ylo == yhi {
        return None;
    }
    let pos = z.lo() > 0.0;
    if ylo >= 0.0 {
        // y ∈ (0, yhi]
        Some(if pos { at_least(round_down(z.lo() / yhi)) } else { at_most(round_up(z.hi() / yhi)) })
    } else if yhi <= 0.0 {
        // y ∈ [ylo, 0)
        Some(if pos { at_most(round_up(z.lo() / ylo)) } else { at_least(round_down(z.hi() / ylo)) })
    } else {
        None
    }
}

/// Verdict byte of a comparison from its "certainly true" and "certainly
/// false" tests; `t` wins when both hold, as in `icmp`'s branch order.
#[inline(always)]
fn verdict(t: bool, f: bool) -> u8 {
    UNKNOWN + u8::from(t) - u8::from(f & !t)
}

/// Lane-wise `icmp` over lanes `0..n`: the same tests, without branches.
fn cmp_lanes(
    op: CmpOp,
    a: &IntervalLanes<LANES>,
    b: &IntervalLanes<LANES>,
    out: &mut [u8; LANES],
    n: usize,
) {
    let (a, b) = if matches!(op, CmpOp::Gt | CmpOp::Ge) { (b, a) } else { (a, b) };
    match op {
        CmpOp::Lt | CmpOp::Gt => for_each_lane::<LANES>(n, |k| {
            out[k] = verdict(a.hi[k] < b.lo[k], a.lo[k] >= b.hi[k]);
        }),
        CmpOp::Le | CmpOp::Ge => for_each_lane::<LANES>(n, |k| {
            out[k] = verdict(a.hi[k] <= b.lo[k], a.lo[k] > b.hi[k]);
        }),
        CmpOp::Eq | CmpOp::Ne => {
            let ne = op == CmpOp::Ne;
            for_each_lane::<LANES>(n, |k| {
                let point = (a.lo[k] == a.hi[k]) & (b.lo[k] == b.hi[k]) & (a.lo[k] == b.lo[k]);
                let apart = (a.hi[k] < b.lo[k]) | (b.hi[k] < a.lo[k]);
                let v = verdict(point, apart);
                out[k] = if ne { TRUE - v } else { v };
            });
        }
    }
}

/// Lane-wise `Ite` over lanes `0..n`: the taken branch under a decided
/// guard, else the hull of both (`Interval::hull`'s endpoint order).
fn ite_lanes(
    c: &[u8; LANES],
    a: &IntervalLanes<LANES>,
    b: &IntervalLanes<LANES>,
    out: &mut IntervalLanes<LANES>,
    n: usize,
) {
    for_each_lane::<LANES>(n, |k| {
        let (lo, hi) = match c[k] {
            TRUE => (a.lo[k], a.hi[k]),
            FALSE => (b.lo[k], b.hi[k]),
            _ => (a.lo[k].min(b.lo[k]), a.hi[k].max(b.hi[k])),
        };
        out.lo[k] = lo;
        out.hi[k] = hi;
    });
}

/// Reusable scratch for the interval interpreter: slot-major lane arrays
/// (one [`IntervalLanes`] and one verdict-byte row per slot), the merged
/// needed-slot bitmask, the current pass's plan (the uncached slots it
/// runs, and for a refutation pass where each conjunct's list ends).
/// Buffers grow on demand, so one scratch serves tapes of any size.
#[derive(Debug, Default)]
pub struct TapeScratch {
    iv: Vec<IntervalLanes<LANES>>,
    tri: Vec<[u8; LANES]>,
    mask: Vec<u64>,
    run: Vec<u32>,
    /// Refutation plan: per conjunct, the end of its list in `run` and its
    /// root slot.
    segs: Vec<(u32, u32)>,
    /// Contraction: per slot stamped with the current `epoch`, its
    /// narrowed interval and its requirement bits (`NEED_TRUE`,
    /// `NEED_FALSE`, `NARROWED`).
    nar: Vec<Interval>,
    need: Vec<u8>,
    stamp: Vec<u32>,
    epoch: u32,
    /// Contraction: the conjuncts each box of a sweep revises, run
    /// together, and per box still sweeping its index and its run in
    /// `active`.
    active: Vec<u32>,
    live: Vec<(u32, u32, u32)>,
}

impl TapeScratch {
    /// An empty scratch (buffers grow on first use).
    #[must_use]
    pub fn new() -> TapeScratch {
        TapeScratch::default()
    }
}

thread_local! {
    /// The calling thread's interval scratch. Domain seeding and the
    /// solver's passes share it, so a thread holds one set of lane arrays,
    /// sized for the largest tape it has evaluated.
    static SCRATCH: RefCell<TapeScratch> = RefCell::new(TapeScratch::new());
}

/// Run `f` with the calling thread's interval scratch.
///
/// # Panics
/// Panics if `f` calls `with_scratch` again (the scratch is borrowed).
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut TapeScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
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
    /// Children of the `All`/`Any` ops.
    kids: Vec<u32>,
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
    /// Per variable index: whether some conjunct's pass reads it (a `Var`
    /// slot in `all_mask`). Unread coordinates need no enclosure.
    reads: Vec<bool>,
    /// Per conjunct: the variables its pass reads (the `Var` slots of its
    /// mask), ascending.
    conj_vars: Vec<Vec<u32>>,
    /// Per variable index: its `Var` slot, if the formula mentions it.
    var_slots: Vec<Option<u32>>,
    /// `(variable, constant)` pairs, sorted and without repeats: the `f64`
    /// of every constant that an undecided `ite` guard of some conjunct's
    /// pass compares a variable against (see [`Tape::guard_cut`]).
    guard_consts: Vec<(u32, f64)>,
    stats: TapeStats,
}

#[derive(Default)]
struct Builder {
    ops: Vec<Op>,
    kids: Vec<u32>,
    cached_iv: Vec<Option<Interval>>,
    cached_tri: Vec<Option<Tri>>,
    cached_rat: Vec<Option<Result<Rat, EvalError>>>,
    cached_bool: Vec<Option<Result<bool, EvalError>>>,
    has_vars: Vec<bool>,
    max_var: Option<u32>,
    memo: SlotMap<Key>,
    term_ptrs: SlotMap<usize>,
    form_ptrs: SlotMap<usize>,
    nodes: usize,
    shared: usize,
}

impl Builder {
    /// Intern an `Arc`'d term, with a pointer-identity fast path for
    /// subtrees shared through the same allocation. An allocation with a
    /// single owner is reached once by the walk (the compiled formulas are
    /// borrowed throughout), so only shared ones are remembered.
    fn term_slot(&mut self, t: &Arc<Term>) -> u32 {
        if Arc::strong_count(t) == 1 {
            return self.intern_term(t);
        }
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

    /// Intern an `Arc`'d formula, with the same pointer-identity fast path.
    fn form_slot(&mut self, f: &Arc<Formula>) -> u32 {
        if Arc::strong_count(f) == 1 {
            return self.intern_form(f);
        }
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
            Term::Const(r) => {
                let fresh = self.ops.len() as u32;
                let i = self.add(Key::Const(r.clone()), Op::Const);
                if i == fresh {
                    self.cached_iv[i as usize] = Some(rat_enclosure(r));
                    self.cached_rat[i as usize] = Some(Ok(r.clone()));
                }
                i
            }
            Term::Var(v) => {
                let i = v.index() as u32;
                self.max_var = Some(self.max_var.map_or(i, |m| m.max(i)));
                self.add_op(Op::Var(i))
            }
            Term::Neg(a) => {
                let a = self.term_slot(a);
                self.add_op(Op::Neg(a))
            }
            Term::Add(a, b) => {
                let (a, b) = (self.term_slot(a), self.term_slot(b));
                self.add_op(Op::Add(a, b))
            }
            Term::Sub(a, b) => {
                let (a, b) = (self.term_slot(a), self.term_slot(b));
                self.add_op(Op::Sub(a, b))
            }
            Term::Mul(a, b) => {
                let (a, b) = (self.term_slot(a), self.term_slot(b));
                self.add_op(Op::Mul(a, b))
            }
            Term::Div(a, b) => {
                let (a, b) = (self.term_slot(a), self.term_slot(b));
                self.add_op(Op::Div(a, b))
            }
            Term::Min(a, b) => {
                let (a, b) = (self.term_slot(a), self.term_slot(b));
                self.add_op(Op::Min(a, b))
            }
            Term::Max(a, b) => {
                let (a, b) = (self.term_slot(a), self.term_slot(b));
                self.add_op(Op::Max(a, b))
            }
            Term::Ite(c, a, b) => {
                let c = self.form_slot(c);
                let (a, b) = (self.term_slot(a), self.term_slot(b));
                self.add_op(Op::Ite(c, a, b))
            }
        }
    }

    fn intern_form(&mut self, f: &Formula) -> u32 {
        self.nodes += 1;
        match f {
            Formula::True => self.add_op(Op::True),
            Formula::False => self.add_op(Op::False),
            Formula::Cmp(op, a, b) => {
                let (a, b) = (self.term_slot(a), self.term_slot(b));
                self.add_op(Op::Cmp(*op, a, b))
            }
            Formula::And(fs) => self.add_list(false, fs),
            Formula::Or(fs) => self.add_list(true, fs),
            Formula::Not(g) => {
                let g = self.form_slot(g);
                self.add_op(Op::Not(g))
            }
        }
    }

    /// Intern an `All` (or, with `any`, an `Any`) over `fs`. The children
    /// go to the child array first and are dropped again on a memo hit.
    fn add_list(&mut self, any: bool, fs: &[Formula]) -> u32 {
        let ch: Vec<u32> = fs.iter().map(|g| self.intern_form(g)).collect();
        let start = self.kids.len() as u32;
        self.kids.extend_from_slice(&ch);
        let len = ch.len() as u32;
        let (key, op) = if any {
            (Key::Any(ch), Op::Any(start, len))
        } else {
            (Key::All(ch), Op::All(start, len))
        };
        let fresh = self.ops.len() as u32;
        let i = self.add(key, op);
        if i != fresh {
            self.kids.truncate(start as usize);
        }
        i
    }

    fn add_op(&mut self, op: Op) -> u32 {
        self.add(Key::Op(op), op)
    }

    /// The slot of `key`: on a memo hit the existing one, otherwise a new
    /// slot holding `op`, sealed.
    fn add(&mut self, key: Key, op: Op) -> u32 {
        let i = self.ops.len() as u32;
        match self.memo.entry(key) {
            Entry::Occupied(e) => {
                self.shared += 1;
                *e.get()
            }
            Entry::Vacant(e) => {
                e.insert(i);
                self.ops.push(op);
                self.seal_slot(i as usize);
                i
            }
        }
    }

    /// Compute var-freeness and, for var-free slots, fold the interval,
    /// verdict, and exact value at compile time — with exactly the
    /// semantics the runtime interpreters (and the tree walkers they
    /// mirror) would apply, so replay is bit-identical. A constant's own
    /// values are filled in by `intern_term`, which holds the `Rat`.
    fn seal_slot(&mut self, i: usize) {
        let op = self.ops[i];
        let hv = match op {
            Op::Const | Op::True | Op::False => false,
            Op::Var(_) => true,
            Op::Neg(a) | Op::Not(a) => self.has_vars[a as usize],
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::Div(a, b)
            | Op::Min(a, b)
            | Op::Max(a, b)
            | Op::Cmp(_, a, b) => self.has_vars[a as usize] || self.has_vars[b as usize],
            Op::Ite(c, a, b) => {
                self.has_vars[c as usize] || self.has_vars[a as usize] || self.has_vars[b as usize]
            }
            Op::All(s, l) | Op::Any(s, l) => {
                kids_of(&self.kids, s, l).iter().any(|&c| self.has_vars[c as usize])
            }
        };
        self.has_vars.push(hv);
        self.cached_iv.push(None);
        self.cached_tri.push(None);
        self.cached_rat.push(None);
        self.cached_bool.push(None);
        if hv || op == Op::Const {
            return;
        }
        let kids = &self.kids;
        // Interval / verdict folding (total semantics, mirrors ieval).
        let giv = |j: u32| self.cached_iv[j as usize].expect("var-free child has interval");
        let gtri = |j: u32| self.cached_tri[j as usize].expect("var-free child has verdict");
        let (iv, tri) = match op {
            Op::Const | Op::Var(_) => unreachable!("handled above"),
            Op::Neg(a) => (Some(-giv(a)), None),
            Op::Add(a, b) => (Some(giv(a) + giv(b)), None),
            Op::Sub(a, b) => (Some(giv(a) - giv(b)), None),
            Op::Mul(a, b) => (Some(giv(a) * giv(b)), None),
            Op::Div(a, b) => (Some(giv(a) / giv(b)), None),
            Op::Min(a, b) => (Some(giv(a).min_i(&giv(b))), None),
            Op::Max(a, b) => (Some(giv(a).max_i(&giv(b))), None),
            Op::Ite(c, a, b) => {
                let v = match gtri(c) {
                    Tri::True => giv(a),
                    Tri::False => giv(b),
                    Tri::Unknown => giv(a).hull(&giv(b)),
                };
                (Some(v), None)
            }
            Op::True => (None, Some(Tri::True)),
            Op::False => (None, Some(Tri::False)),
            Op::Cmp(op, a, b) => (None, Some(icmp(op, giv(a), giv(b)))),
            Op::All(s, l) => {
                (None, Some(kids_of(kids, s, l).iter().fold(Tri::True, |acc, &c| acc.and(gtri(c)))))
            }
            Op::Any(s, l) => {
                (None, Some(kids_of(kids, s, l).iter().fold(Tri::False, |acc, &c| acc.or(gtri(c)))))
            }
            Op::Not(a) => (None, Some(gtri(a).not())),
        };
        // Exact folding (partial semantics, mirrors eval.rs order).
        let grat = |j: u32| self.cached_rat[j as usize].clone().expect("var-free child value");
        let gbool = |j: u32| self.cached_bool[j as usize].clone().expect("var-free child value");
        let bin = |a: u32, b: u32, f: fn(Rat, Rat) -> Rat| -> Result<Rat, EvalError> {
            Ok(f(grat(a)?, grat(b)?))
        };
        let (rat, boolv) = match op {
            Op::Const | Op::Var(_) => unreachable!("handled above"),
            Op::Neg(a) => (Some(grat(a).map(|r| -r)), None),
            Op::Add(a, b) => (Some(bin(a, b, |x, y| x + y)), None),
            Op::Sub(a, b) => (Some(bin(a, b, |x, y| x - y)), None),
            Op::Mul(a, b) => (Some(bin(a, b, |x, y| x * y)), None),
            // Denominator first, exactly like eval_term.
            Op::Div(a, b) => (
                Some(grat(b).and_then(|d| {
                    if d.is_zero() {
                        return Err(EvalError::DivByZero);
                    }
                    Ok(grat(a)? / d)
                })),
                None,
            ),
            Op::Min(a, b) => (Some(bin(a, b, |x, y| x.min(y))), None),
            Op::Max(a, b) => (Some(bin(a, b, |x, y| x.max(y))), None),
            Op::Ite(c, a, b) => {
                (Some(gbool(c).and_then(|t| if t { grat(a) } else { grat(b) })), None)
            }
            Op::True => (None, Some(Ok(true))),
            Op::False => (None, Some(Ok(false))),
            Op::Cmp(op, a, b) => (None, Some(grat(a).and_then(|x| Ok(op.apply(&x, &grat(b)?))))),
            Op::All(s, l) => (
                None,
                Some((|| {
                    for &c in kids_of(kids, s, l) {
                        if !gbool(c)? {
                            return Ok(false);
                        }
                    }
                    Ok(true)
                })()),
            ),
            Op::Any(s, l) => (
                None,
                Some((|| {
                    for &c in kids_of(kids, s, l) {
                        if gbool(c)? {
                            return Ok(true);
                        }
                    }
                    Ok(false)
                })()),
            ),
            Op::Not(a) => (None, Some(gbool(a).map(|v| !v))),
        };
        self.cached_iv[i] = iv;
        self.cached_tri[i] = tri;
        self.cached_rat[i] = rat;
        self.cached_bool[i] = boolv;
    }
}

/// The indices of the set bits of `mask`, ascending.
fn set_bits(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(w, &bits)| {
        let mut bits = bits;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + b
            })
        })
    })
}

impl Tape {
    /// Compile `simplified` (and its `conjuncts`, which must be
    /// `simplified.conjuncts()`) into one shared slot arena. When `seed`
    /// is given, variable-dependent formula slots decided over it are
    /// cached — sound and bit-identical on every sub-box of `seed`, so
    /// callers must only evaluate boxes contained in it.
    #[must_use]
    pub fn compile(simplified: &Formula, conjuncts: &[Formula], seed: Option<&BoxDomain>) -> Tape {
        let mut b = Builder::default();
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
            kids: b.kids,
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
            reads: Vec::new(),
            conj_vars: Vec::new(),
            var_slots: Vec::new(),
            guard_consts: Vec::new(),
            stats,
        };
        if let Some(dom) = seed {
            tape.seed_domain(dom);
        }
        tape.build_masks();
        tape.collect_guard_consts();
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
        with_scratch(|scratch| {
            self.plan(0..self.ops.len(), scratch);
            self.run(0..scratch.run.len(), 1, |_, v| dom.get(VarId(v)), scratch);
            for i in 0..self.ops.len() {
                if self.ops[i].is_formula() && self.has_vars[i] && self.cached_tri[i].is_none() {
                    match byte_tri(scratch.tri[i][0]) {
                        v @ (Tri::True | Tri::False) => {
                            self.cached_tri[i] = Some(v);
                            self.stats.decided += 1;
                        }
                        Tri::Unknown => {}
                    }
                }
            }
        });
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
        let vars_of = |mask: &[u64]| -> Vec<u32> {
            let mut vs: Vec<u32> = set_bits(mask)
                .filter_map(|i| if let Op::Var(v) = self.ops[i] { Some(v) } else { None })
                .collect();
            vs.sort_unstable();
            vs
        };
        let mut reads = vec![false; self.max_var.map_or(0, |m| m as usize + 1)];
        for v in vars_of(&all_mask) {
            reads[v as usize] = true;
        }
        self.conj_vars = conj_masks.iter().map(|m| vars_of(m)).collect();
        self.var_slots = vec![None; reads.len()];
        for (i, op) in self.ops.iter().enumerate() {
            if let Op::Var(v) = *op {
                self.var_slots[v as usize] = Some(i as u32);
            }
        }
        self.conj_masks = conj_masks;
        self.all_mask = all_mask;
        self.reads = reads;
    }

    /// Collect the comparisons `x op c` and `c op x` of a variable with a
    /// constant that sit in the guard of an `ite` some conjunct's pass
    /// evaluates, below any `All`, `Any` and `Not`. A guard decided over
    /// the seed box is skipped: no sub-box can change its branch.
    fn collect_guard_consts(&mut self) {
        let mut seen = vec![false; self.ops.len()];
        let mut todo: Vec<u32> = set_bits(&self.all_mask)
            .filter_map(|i| match self.ops[i] {
                Op::Ite(c, _, _) => Some(c),
                _ => None,
            })
            .collect();
        let mut consts = Vec::new();
        while let Some(j) = todo.pop() {
            let j = j as usize;
            if seen[j] || self.cached_tri[j].is_some() {
                continue;
            }
            seen[j] = true;
            match self.ops[j] {
                Op::All(st, l) | Op::Any(st, l) => todo.extend(kids_of(&self.kids, st, l)),
                Op::Not(a) => todo.push(a),
                Op::Cmp(_, a, b) => {
                    for (x, c) in [(a, b), (b, a)] {
                        let (Op::Var(v), Some(Ok(r))) =
                            (self.ops[x as usize], &self.cached_rat[c as usize])
                        else {
                            continue;
                        };
                        let at = r.to_f64();
                        if at.is_finite() {
                            consts.push((v, at));
                        }
                    }
                }
                _ => {}
            }
        }
        consts.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        consts.dedup();
        self.guard_consts = consts;
    }

    /// Where branch-and-prune cuts `iv`, the range of variable `var`: at
    /// the guard constant (see `collect_guard_consts`) nearest the
    /// midpoint, the lower one on a tie, when one or two of them lie
    /// strictly inside `iv`. `None`, for a cut at the midpoint, when none
    /// or more than two do: two is what a query comparing two frozen
    /// candidates holds per guarded variable.
    #[must_use]
    pub fn guard_cut(&self, var: usize, iv: Interval) -> Option<f64> {
        let g = &self.guard_consts;
        let var = var as u32;
        let of_var =
            &g[g.partition_point(|&(v, _)| v < var)..g.partition_point(|&(v, _)| v <= var)];
        let start = of_var.partition_point(|&(_, c)| c <= iv.lo());
        let end = of_var.partition_point(|&(_, c)| c < iv.hi());
        let inside = of_var.get(start..end).filter(|s| matches!(s.len(), 1 | 2))?;
        let mid = iv.midpoint();
        inside.iter().map(|&(_, c)| c).min_by(|a, b| (a - mid).abs().total_cmp(&(b - mid).abs()))
    }

    /// Whether interval evaluation of some conjunct reads variable `v`.
    /// A sample's coordinate no conjunct reads needs no enclosure.
    #[must_use]
    pub(crate) fn reads_var(&self, v: usize) -> bool {
        self.reads.get(v).copied().unwrap_or(false)
    }

    /// Whether an environment of `len` values binds every variable the
    /// formula mentions.
    #[must_use]
    pub(crate) fn binds(&self, len: usize) -> bool {
        self.max_var.is_none_or(|m| (m as usize) < len)
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
        match self.ops[idx] {
            Op::Const | Op::Var(_) | Op::True | Op::False => {}
            Op::Neg(a) | Op::Not(a) => self.mark(a, mask),
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::Div(a, b)
            | Op::Min(a, b)
            | Op::Max(a, b)
            | Op::Cmp(_, a, b) => {
                self.mark(a, mask);
                self.mark(b, mask);
            }
            Op::Ite(c, a, b) => {
                self.mark(c, mask);
                match self.cached_tri[c as usize] {
                    Some(Tri::True) => self.mark(a, mask),
                    Some(Tri::False) => self.mark(b, mask),
                    _ => {
                        self.mark(a, mask);
                        self.mark(b, mask);
                    }
                }
            }
            Op::All(s, l) | Op::Any(s, l) => {
                for &c in kids_of(&self.kids, s, l) {
                    self.mark(c, mask);
                }
            }
        }
    }

    // -- interval interpreter -------------------------------------------------

    /// Plan one interpreter pass over the slots `needed` yields, in
    /// ascending order: splat each cached slot's value into every lane
    /// once, and list the uncached ones for [`Tape::run`], which every
    /// chunk of the pass then executes. Nothing a pass runs writes a
    /// cached slot, so the splats hold for all of its chunks.
    fn plan(&self, needed: impl Iterator<Item = usize>, s: &mut TapeScratch) {
        self.start_plan(s);
        for i in needed {
            self.plan_slot(i, s);
        }
    }

    /// Size the scratch's lane arrays for this tape and clear its plan.
    fn start_plan(&self, s: &mut TapeScratch) {
        let slots = self.ops.len();
        if s.iv.len() < slots {
            s.iv.resize(slots, IntervalLanes::default());
            s.tri.resize(slots, [UNKNOWN; LANES]);
        }
        s.run.clear();
        s.segs.clear();
    }

    /// Splat slot `i` into every lane if it is cached, else list it to run.
    fn plan_slot(&self, i: usize, s: &mut TapeScratch) {
        if let Some(v) = self.cached_iv[i] {
            s.iv[i] = IntervalLanes::splat(v);
        } else if let Some(t) = self.cached_tri[i] {
            s.tri[i] = [tri_byte(t); LANES];
        } else {
            s.run.push(i as u32);
        }
    }

    /// Evaluate the planned slots `s.run[span]` over `n <= LANES` boxes side
    /// by side, into the scratch's lane arrays. `var(k, v)` is variable
    /// `v`'s interval on box `k`. Lanes `n..LANES` keep whatever they held
    /// and are never read.
    fn run(
        &self,
        span: Range<usize>,
        n: usize,
        var: impl Fn(usize, u32) -> Interval,
        s: &mut TapeScratch,
    ) {
        debug_assert!(n <= LANES);
        let TapeScratch { iv, tri, run, .. } = s;
        for &i in &run[span] {
            let i = i as usize;
            // Operands are earlier slots: split the output slot off so the
            // lane loops read and write disjoint arrays.
            let (iv, iv_rest) = iv.split_at_mut(i);
            let out = &mut iv_rest[0];
            let (tri, tri_rest) = tri.split_at_mut(i);
            let tout = &mut tri_rest[0];
            let at = |j: u32| j as usize;
            match self.ops[i] {
                Op::Const | Op::True | Op::False => unreachable!("constant slots are cached"),
                Op::Var(v) => {
                    for k in 0..n {
                        out.set(k, var(k, v));
                    }
                }
                Op::Neg(a) => iv[at(a)].neg(out, n),
                Op::Add(a, b) => iv[at(a)].add(&iv[at(b)], out, n),
                Op::Sub(a, b) => iv[at(a)].sub(&iv[at(b)], out, n),
                Op::Mul(a, b) => iv[at(a)].mul(&iv[at(b)], out, n),
                Op::Div(a, b) => iv[at(a)].div(&iv[at(b)], out, n),
                Op::Min(a, b) => iv[at(a)].min(&iv[at(b)], out, n),
                Op::Max(a, b) => iv[at(a)].max(&iv[at(b)], out, n),
                Op::Ite(c, a, b) => ite_lanes(&tri[at(c)], &iv[at(a)], &iv[at(b)], out, n),
                Op::Cmp(op, a, b) => cmp_lanes(op, &iv[at(a)], &iv[at(b)], tout, n),
                Op::All(st, l) => {
                    *tout = [TRUE; LANES];
                    for &c in kids_of(&self.kids, st, l) {
                        let x = &tri[at(c)];
                        for_each_lane::<LANES>(n, |k| tout[k] = tout[k].min(x[k]));
                    }
                }
                Op::Any(st, l) => {
                    *tout = [FALSE; LANES];
                    for &c in kids_of(&self.kids, st, l) {
                        let x = &tri[at(c)];
                        for_each_lane::<LANES>(n, |k| tout[k] = tout[k].max(x[k]));
                    }
                }
                Op::Not(a) => {
                    let x = &tri[at(a)];
                    for_each_lane::<LANES>(n, |k| tout[k] = TRUE - x[k]);
                }
            }
        }
    }

    /// Evaluate the conjunct roots `cis` over a batch of boxes. Clears
    /// `out`, then appends verdicts box-major: `out[b * cis.len() + j]` is
    /// conjunct `cis[j]` on `doms[b]` — each verdict bit-identical to
    /// `ieval_formula(&conjuncts[ci], doms[b])`.
    /// Boxes go through the interpreter [`LANES`] at a time, each pass
    /// evaluating only the slots the conjuncts `cis` need.
    pub fn verdicts<D: Borrow<BoxDomain>>(
        &self,
        doms: &[D],
        cis: &[u32],
        scratch: &mut TapeScratch,
        out: &mut Vec<Tri>,
    ) {
        out.clear();
        if doms.is_empty() || cis.is_empty() {
            return;
        }
        let mut pass = self.verdict_pass(cis, scratch);
        out.reserve(doms.len() * cis.len());
        for chunk in doms.chunks(LANES) {
            pass.chunk(chunk, out);
        }
    }

    /// Plan a verdict pass over the conjunct roots `cis`: the slots of the
    /// union of their needed-slot masks. The returned [`VerdictPass`]
    /// scores boxes [`LANES`] at a time and can contract each box of its
    /// last chunk from the lanes the chunk left.
    pub fn verdict_pass<'a>(&'a self, cis: &'a [u32], s: &'a mut TapeScratch) -> VerdictPass<'a> {
        if cis.len() == self.roots.len() {
            self.plan(set_bits(&self.all_mask), s);
        } else {
            let mut mask = std::mem::take(&mut s.mask);
            self.union_mask(cis, &mut mask);
            self.plan(set_bits(&mask), s);
            s.mask = mask;
        }
        VerdictPass { tape: self, cis, s }
    }

    /// Set `mask` to the union of the needed-slot masks of conjuncts `cis`.
    fn union_mask(&self, cis: &[u32], mask: &mut Vec<u64>) {
        mask.clear();
        mask.resize(self.all_mask.len(), 0);
        for &ci in cis {
            for (m, w) in mask.iter_mut().zip(&self.conj_masks[ci as usize]) {
                *m |= *w;
            }
        }
    }

    /// Plan an early-exit refutation pass over the conjunct roots `cis`,
    /// checked in the order given. Each conjunct's run list is its
    /// needed slots minus those of the conjuncts before it, so every slot
    /// is listed once; cached slots are splatted into the lanes here, as
    /// in a verdict pass. The plan holds for every chunk the returned
    /// [`Refuter`] scores.
    pub fn refuter<'a>(
        &'a self,
        cis: impl IntoIterator<Item = u32>,
        s: &'a mut TapeScratch,
    ) -> Refuter<'a> {
        self.start_plan(s);
        let mut seen = std::mem::take(&mut s.mask);
        seen.clear();
        seen.resize(self.all_mask.len(), 0);
        for ci in cis {
            for (w, (&bits, acc)) in self.conj_masks[ci as usize].iter().zip(&mut seen).enumerate()
            {
                let mut fresh = bits & !*acc;
                *acc |= bits;
                while fresh != 0 {
                    self.plan_slot(w * 64 + fresh.trailing_zeros() as usize, s);
                    fresh &= fresh - 1;
                }
            }
            s.segs.push((s.run.len() as u32, self.roots[ci as usize]));
        }
        s.mask = seen;
        Refuter { tape: self, s }
    }

    // -- contraction -----------------------------------------------------------

    /// Contract every box of `boxes` (HC4-revise) towards the solutions of
    /// its pending conjuncts. A sweep runs one forward interval pass over
    /// the slots of the conjuncts it revises, then one backward projection
    /// ([`Tape::revise`]) that narrows every slot the revised roots reach,
    /// down to the variables, whose ranges then narrow to match. A box's
    /// sweep revises its pending conjuncts that read a variable flagged in
    /// its [`Contractee`] (one its last sweep narrowed), and a box sweeps
    /// again only while its last sweep narrowed some variable by more than
    /// [`CONTRACT_MIN_GAIN`] of its width, [`CONTRACT_SWEEPS`] sweeps in
    /// all. The boxes still sweeping share each forward pass, [`LANES`] at
    /// a time; lanes are independent, so every box ends as it would alone.
    ///
    /// No point at which every pending conjunct holds exactly leaves its
    /// box, and a conjunct certainly true on the contracted box leaves its
    /// pending list.
    pub fn contract(&self, boxes: &mut [Contractee], s: &mut TapeScratch) {
        let mut live = std::mem::take(&mut s.live);
        let mut active = std::mem::take(&mut s.active);
        let mut mask = std::mem::take(&mut s.mask);
        loop {
            // The boxes still sweeping, each with its run of `active`.
            live.clear();
            active.clear();
            for (b, c) in boxes.iter_mut().enumerate() {
                if !c.live {
                    continue;
                }
                let from = active.len();
                if c.sweeps < CONTRACT_SWEEPS && self.binds(c.dom.len()) {
                    self.reading(&c.pending, &c.hot, &mut active);
                }
                if active.len() == from {
                    c.live = false;
                    continue;
                }
                live.push((b as u32, from as u32, active.len() as u32));
            }
            if live.is_empty() {
                break;
            }
            self.union_mask(&active, &mut mask);
            self.plan(set_bits(&mask), s);
            for chunk in live.chunks(LANES) {
                let var = |k: usize, v: u32| boxes[chunk[k].0 as usize].dom.get(VarId(v));
                self.run(0..s.run.len(), chunk.len(), var, s);
                for (k, &(b, from, end)) in chunk.iter().enumerate() {
                    let run = &active[from as usize..end as usize];
                    self.narrow_box(k, run, &mut boxes[b as usize], s);
                }
            }
        }
        s.live = live;
        s.active = active;
        s.mask = mask;
    }

    /// Append to `active` the conjuncts of `pending` that read a variable
    /// flagged in `hot`.
    fn reading(&self, pending: &[u32], hot: &[bool], active: &mut Vec<u32>) {
        active.extend(
            pending
                .iter()
                .copied()
                .filter(|&ci| self.conj_vars[ci as usize].iter().any(|&v| hot[v as usize])),
        );
    }

    /// Finish a sweep of box `c` whose forward pass left its slot values in
    /// lane `k`: revise the conjuncts `active`, drop from its pending list
    /// those certainly true, narrow its range and flag the variables that
    /// narrowed. The box stays live when another sweep is worth running.
    fn narrow_box(&self, k: usize, active: &[u32], c: &mut Contractee, s: &mut TapeScratch) {
        c.sweeps += 1;
        c.live = false;
        if active.is_empty() {
            return;
        }
        if !self.revise(k, active, s) {
            c.outcome = Contraction::Empty;
            return;
        }
        // A conjunct true over the box is true on every point left.
        let decided = |ci: &u32| s.tri[self.roots[*ci as usize] as usize][k] == TRUE;
        c.pending.retain(|ci| active.binary_search(ci).is_err() || !decided(ci));
        c.hot.fill(false);
        for (v, &slot) in self.var_slots.iter().enumerate() {
            let Some(i) = slot.map(|i| i as usize) else { continue };
            if s.stamp[i] != s.epoch || s.need[i] & NARROWED == 0 {
                continue;
            }
            let (old, new) = (c.dom.get(VarId(v as u32)), s.nar[i]);
            c.dom.set(VarId(v as u32), new);
            c.hot[v] = true;
            c.outcome = Contraction::Narrowed;
            c.live |=
                new.width() < old.width() && new.width() <= old.width() * (1.0 - CONTRACT_MIN_GAIN);
        }
    }

    /// The backward half of a sweep (HC4-revise), over the planned slots
    /// whose values a forward pass left in lane `k`. Every root of `active`
    /// must be true. The slots are then visited from the last to the
    /// first, so each has heard from all its readers before it projects
    /// onto its own operands:
    ///
    /// * a comparison that must hold (or fail) bounds each side by the
    ///   other; `All` that must hold makes every child hold, `Any` that
    ///   must hold makes its one child that is not certainly false hold
    ///   (and dually for must-fail); `Not` flips;
    /// * `z = x + y` gives `x ⊆ z − y` and `y ⊆ z − x`, and likewise for
    ///   `−`, `×`, `÷`, negation, `min` and `max`, each computed with the
    ///   outward-rounded interval operators; a product or quotient is
    ///   divided back only where that bounds something (`div_back`);
    /// * `Ite` passes its interval to the branch its guard takes, and only
    ///   where the guard is decided on the box.
    ///
    /// Every projection keeps each point at which the active conjuncts
    /// hold exactly (a point where exact evaluation errors satisfies
    /// nothing). Slots stamped with the current epoch carry their narrowed
    /// interval in `s.nar` and their requirement bits in `s.need`.
    /// `false` when some requirement cannot hold on the box.
    fn revise(&self, k: usize, active: &[u32], s: &mut TapeScratch) -> bool {
        let slots = self.ops.len();
        if s.stamp.len() < slots {
            s.nar.resize(slots, Interval::whole());
            s.need.resize(slots, 0);
            s.stamp.resize(slots, 0);
        }
        s.epoch = s.epoch.wrapping_add(1);
        if s.epoch == 0 {
            s.stamp.fill(0);
            s.epoch = 1;
        }
        let TapeScratch { iv, tri, run, nar, need, stamp, epoch, .. } = s;
        let mut r = Revise { iv, k, nar, need, stamp, epoch: *epoch };
        let v = |j: u32| tri[j as usize][k];
        for &ci in active {
            let root = self.roots[ci as usize];
            if !r.require(root, v(root), true) {
                return false;
            }
        }
        // Readers come after their operands, so every slot is visited once
        // all of its readers have been.
        for &i in run.iter().rev() {
            if r.stamp[i as usize] != r.epoch {
                continue;
            }
            let bits = r.need[i as usize];
            let z = r.nar[i as usize];
            let ok = match self.ops[i as usize] {
                _ if bits == 0 => true,
                Op::Const | Op::Var(_) | Op::True | Op::False => true,
                Op::Cmp(op, a, b) => {
                    let op = if bits & NEED_TRUE != 0 { op } else { op.negate() };
                    let (x, y) = (r.get(a), r.get(b));
                    match op {
                        CmpOp::Lt | CmpOp::Le => {
                            r.narrow(a, at_most(y.hi())) && r.narrow(b, at_least(x.lo()))
                        }
                        CmpOp::Gt | CmpOp::Ge => {
                            r.narrow(a, at_least(y.lo())) && r.narrow(b, at_most(x.hi()))
                        }
                        CmpOp::Eq => r.narrow(a, y) && r.narrow(b, r.get(a)),
                        CmpOp::Ne => true,
                    }
                }
                Op::All(st, l) | Op::Any(st, l) => {
                    let kids = kids_of(&self.kids, st, l);
                    let want = bits & NEED_TRUE != 0;
                    // `All` must hold or `Any` must fail: every child alike.
                    // Otherwise one child must go the other way, which
                    // binds only when it is the one child left undecided.
                    if want == matches!(self.ops[i as usize], Op::All(..)) {
                        kids.iter().all(|&c| r.require(c, v(c), want))
                    } else {
                        let mut open = kids.iter().filter(|&&c| v(c) == UNKNOWN);
                        match (open.next(), open.next()) {
                            (Some(&c), None) => r.require(c, v(c), want),
                            _ => true,
                        }
                    }
                }
                Op::Not(a) => r.require(a, v(a), bits & NEED_TRUE == 0),
                // Numeric slots: their readers narrowed them to `z`.
                Op::Neg(a) => r.narrow(a, -z),
                Op::Add(a, b) => r.narrow(a, z - r.get(b)) && r.narrow(b, z - r.get(a)),
                Op::Sub(a, b) => r.narrow(a, z + r.get(b)) && r.narrow(b, r.get(a) - z),
                Op::Mul(a, b) => {
                    div_back(z, r.get(b)).is_none_or(|x| r.narrow(a, x))
                        && div_back(z, r.get(a)).is_none_or(|y| r.narrow(b, y))
                }
                // `z = x / y` with `y ≠ 0` is `x = z·y`, and `y = x / z`
                // where `z ≠ 0` (which `x ≠ 0` implies).
                Op::Div(a, b) => {
                    r.narrow(a, z * r.get(b))
                        && div_back(r.get(a), z).is_none_or(|y| r.narrow(b, y))
                }
                Op::Min(a, b) => {
                    let (x, y) = (r.get(a), r.get(b));
                    r.narrow(a, at_least(z.lo()))
                        && r.narrow(b, at_least(z.lo()))
                        && (y.lo() <= z.hi() || r.narrow(a, z))
                        && (x.lo() <= z.hi() || r.narrow(b, z))
                }
                Op::Max(a, b) => {
                    let (x, y) = (r.get(a), r.get(b));
                    r.narrow(a, at_most(z.hi()))
                        && r.narrow(b, at_most(z.hi()))
                        && (y.hi() >= z.lo() || r.narrow(a, z))
                        && (x.hi() >= z.lo() || r.narrow(b, z))
                }
                Op::Ite(c, a, b) => match v(c) {
                    TRUE => r.narrow(a, z),
                    FALSE => r.narrow(b, z),
                    _ => true,
                },
            };
            if !ok {
                return false;
            }
        }
        true
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
        match self.ops[idx] {
            Op::Var(v) => env.get(v as usize).cloned().ok_or(EvalError::UnboundVar(v as usize)),
            Op::Neg(a) => Ok(-self.exact_term(a, env, s)?),
            Op::Add(a, b) => Ok(self.exact_term(a, env, s)? + self.exact_term(b, env, s)?),
            Op::Sub(a, b) => Ok(self.exact_term(a, env, s)? - self.exact_term(b, env, s)?),
            Op::Mul(a, b) => Ok(self.exact_term(a, env, s)? * self.exact_term(b, env, s)?),
            Op::Div(a, b) => {
                // Denominator first, exactly like eval_term.
                let d = self.exact_term(b, env, s)?;
                if d.is_zero() {
                    return Err(EvalError::DivByZero);
                }
                Ok(self.exact_term(a, env, s)? / d)
            }
            Op::Min(a, b) => Ok(self.exact_term(a, env, s)?.min(self.exact_term(b, env, s)?)),
            Op::Max(a, b) => Ok(self.exact_term(a, env, s)?.max(self.exact_term(b, env, s)?)),
            Op::Ite(c, a, b) => {
                // Condition, then only the taken branch.
                if self.exact_form(c, env, s)? {
                    self.exact_term(a, env, s)
                } else {
                    self.exact_term(b, env, s)
                }
            }
            Op::Const => unreachable!("constant slots are cached"),
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
        match self.ops[idx] {
            Op::True => Ok(true),
            Op::False => Ok(false),
            Op::Cmp(op, a, b) => {
                let x = self.exact_term(a, env, s)?;
                let y = self.exact_term(b, env, s)?;
                Ok(op.apply(&x, &y))
            }
            Op::All(st, l) => {
                for &c in kids_of(&self.kids, st, l) {
                    if !self.exact_form(c, env, s)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Op::Any(st, l) => {
                for &c in kids_of(&self.kids, st, l) {
                    if self.exact_form(c, env, s)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Op::Not(a) => Ok(!self.exact_form(a, env, s)?),
            _ => unreachable!("term op in formula position"),
        }
    }
}

/// A planned verdict pass (see [`Tape::verdict_pass`]). Each chunk's
/// lanes stay in the scratch until the next chunk, so a box of the chunk
/// can take its first contraction sweep without a forward pass of its own.
#[derive(Debug)]
pub struct VerdictPass<'a> {
    tape: &'a Tape,
    cis: &'a [u32],
    s: &'a mut TapeScratch,
}

impl VerdictPass<'_> {
    /// Score `doms` (at most [`LANES`] boxes) side by side and append
    /// their verdicts box-major, as [`Tape::verdicts`] does.
    pub fn chunk<D: Borrow<BoxDomain>>(&mut self, doms: &[D], out: &mut Vec<Tri>) {
        let n = doms.len();
        debug_assert!(n <= LANES);
        let var = |k: usize, v: u32| doms[k].borrow().get(VarId(v));
        self.tape.run(0..self.s.run.len(), n, var, self.s);
        for k in 0..n {
            for &ci in self.cis {
                out.push(byte_tri(self.s.tri[self.tape.roots[ci as usize] as usize][k]));
            }
        }
    }

    /// The first contraction sweep of `c`, whose range is box `k` of the
    /// last chunk, from that chunk's lanes: [`Tape::contract`] then takes
    /// any further sweeps. Every conjunct the sweep revises (the pending
    /// ones that read a variable flagged in `c`) must be among the pass's
    /// conjuncts.
    pub fn contract(&mut self, k: usize, c: &mut Contractee) {
        let tape = self.tape;
        if !tape.binds(c.dom.len()) {
            c.live = false;
            return;
        }
        let mut active = std::mem::take(&mut self.s.active);
        active.clear();
        tape.reading(&c.pending, &c.hot, &mut active);
        tape.narrow_box(k, &active, c, self.s);
        self.s.active = active;
    }
}

/// A box under contraction (see [`Tape::contract`]): its range, the
/// conjuncts still undecided on it, the variables whose narrowing its next
/// sweep revises from, and what contraction has concluded about it.
#[derive(Debug, Clone)]
pub struct Contractee {
    /// The range, narrowed in place.
    pub dom: BoxDomain,
    /// Conjuncts not certainly true on `dom`, ascending.
    pub pending: Vec<u32>,
    /// What contraction concluded so far; after `Empty` the other fields
    /// are unspecified.
    pub outcome: Contraction,
    hot: Vec<bool>,
    live: bool,
    sweeps: usize,
}

impl Contractee {
    /// A box to contract, with its `pending` conjuncts in ascending order.
    /// Its first sweep revises those that read variable `changed`, or
    /// every one for `None`: on a box split from a contracted parent, only
    /// the conjuncts that read the split variable see a range they were
    /// not revised on.
    #[must_use]
    pub fn new(dom: BoxDomain, pending: Vec<u32>, changed: Option<usize>) -> Contractee {
        let mut hot = vec![changed.is_none(); dom.len()];
        if let Some(d) = changed {
            hot[d] = true;
        }
        Contractee { dom, pending, outcome: Contraction::Unchanged, hot, live: true, sweeps: 0 }
    }
}

/// A planned early-exit refutation pass (see [`Tape::refuter`]): answers,
/// per box, whether some planned conjunct is certainly `False` on it.
#[derive(Debug)]
pub struct Refuter<'a> {
    tape: &'a Tape,
    s: &'a mut TapeScratch,
}

impl Refuter<'_> {
    /// Score `n <= LANES` boxes side by side; `var(k, v)` is variable
    /// `v`'s interval on box `k`. Entry `k < n` of the result is `true`
    /// exactly when some planned conjunct's verdict on box `k` is `False`,
    /// the verdict [`Tape::verdicts`] gives. The conjuncts' run lists go in
    /// plan order, and the chunk stops as soon as every box is refuted.
    pub fn refutes_chunk(
        &mut self,
        n: usize,
        var: impl Fn(usize, u32) -> Interval,
    ) -> [bool; LANES] {
        let mut refuted = [false; LANES];
        let mut from = 0;
        for j in 0..self.s.segs.len() {
            let (end, root) = self.s.segs[j];
            self.tape.run(from..end as usize, n, &var, self.s);
            from = end as usize;
            let t = &self.s.tri[root as usize];
            for_each_lane::<LANES>(n, |k| refuted[k] |= t[k] == FALSE);
            if refuted[..n].iter().all(|&r| r) {
                break;
            }
        }
        refuted
    }

    /// [`Refuter::refutes_chunk`] over `n` boxes of any count, [`LANES`] at
    /// a time: clears `out` and appends one flag per box.
    pub fn refutes(&mut self, n: usize, var: impl Fn(usize, u32) -> Interval, out: &mut Vec<bool>) {
        out.clear();
        for start in (0..n).step_by(LANES) {
            let len = LANES.min(n - start);
            let flags = self.refutes_chunk(len, |k, v| var(start + k, v));
            out.extend_from_slice(&flags[..len]);
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
    use cso_numeric::BigInt;
    use cso_runtime::prop::{
        self, i64_any, int_in, one_of, recursive, vec_of, zip2, zip3, Config, Gen,
    };
    use cso_runtime::prop_assert;

    impl Tape {
        /// This tape without guard constants: branch-and-prune then cuts
        /// every box at its midpoint.
        pub(crate) fn without_guard_cuts(mut self) -> Tape {
            self.guard_consts.clear();
            self
        }
    }

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
    fn interning_depends_only_on_structure() {
        // Each call builds fresh `Arc`s with the same sharing: the product
        // is shared through one allocation, the sum is repeated as equal
        // copies, and the guard is decided over the seed box.
        let build = || {
            let (x, y) = (Term::var(VarId(0)), Term::var(VarId(1)));
            let prod = x.clone().mul(y.clone());
            let sum = || x.clone().add(Term::constant(Rat::from_frac(1, 3)));
            Formula::and(vec![
                prod.clone().ge(Term::int(12)),
                Formula::or(vec![sum().le(Term::int(9)), Formula::not(prod.clone().gt(sum()))]),
                Term::ite(y.clone().le(Term::int(20)), prod, sum()).ne_t(Term::int(0)),
            ])
        };
        let seed = dom2((0.0, 10.0), (0.0, 10.0));
        let sub = dom2((2.0, 3.0), (4.0, 7.0));
        let f = build();
        let tapes =
            [compile(&f, Some(&seed)), compile(&f, Some(&seed)), compile(&build(), Some(&seed))];
        let verdicts = |tape: &Tape| {
            let cis: Vec<u32> = (0..tape.conjunct_count() as u32).collect();
            let mut out = Vec::new();
            tape.verdicts(&[&seed, &sub], &cis, &mut TapeScratch::new(), &mut out);
            out
        };
        let (_, _, first) = &tapes[0];
        assert!(first.stats().shared > 0 && first.stats().decided > 0);
        for (_, _, tape) in &tapes[1..] {
            assert_eq!(tape.stats(), first.stats());
            assert_eq!(
                (&tape.ops, &tape.kids, &tape.roots),
                (&first.ops, &first.kids, &first.roots)
            );
            assert_eq!(verdicts(tape), verdicts(first));
        }
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

    /// The refuter run on one point's one-ulp enclosures, as seeding runs
    /// it on its candidates: a plainly violating point is refuted, a model
    /// never is.
    #[test]
    fn point_refutation_is_sound_and_useful() {
        let mut r = VarRegistry::new();
        let x = r.intern("x");
        let y = r.intern("y");
        let f = Formula::and(vec![
            Term::var(x).add(Term::var(y)).ge(Term::int(5)),
            Term::var(x).le(Term::int(2)),
        ]);
        let (simplified, _, tape) = compile(&f, None);
        let mut s = TapeScratch::new();
        let mut refutes = |pt: &[Rat]| {
            let encl: Vec<Interval> = pt.iter().map(rat_enclosure).collect();
            let all = 0..tape.conjunct_count() as u32;
            tape.refuter(all, &mut s).refutes_chunk(1, |_, v| encl[v as usize])[0]
        };
        // A point that plainly violates x <= 2 is rejected by intervals.
        let bad = vec![Rat::from_int(7), Rat::from_int(7)];
        assert!(refutes(&bad));
        assert_eq!(eval_formula(&simplified, &bad), Ok(false));
        // A satisfying point is never rejected.
        let good = vec![Rat::from_int(1), Rat::from_int(6)];
        assert!(!refutes(&good));
        assert_eq!(eval_formula(&simplified, &good), Ok(true));
    }

    /// Random rationals for point boxes: ratios of machine integers,
    /// solver-style `k/10^6` samples, and huge or tiny magnitudes whose
    /// enclosures are one ulp wide or reach the ends of the `f64` range.
    fn arb_rat() -> Gen<Rat> {
        let pow2 = |k: i64| BigInt::one().shl(k as u64);
        one_of(vec![
            zip2(i64_any(), int_in(1, i64::MAX)).map(|(p, q)| Rat::from_frac(p, q)),
            int_in(-100_000_000, 100_000_000).map(|k| Rat::from_frac(k, 1_000_000)),
            int_in(-3, 3).map(Rat::from_int),
            zip2(int_in(-1_000_000, 1_000_000), int_in(900, 1100))
                .map(move |(p, k)| Rat::new(BigInt::from(p), pow2(k))),
            zip2(int_in(-1_000_000, 1_000_000), int_in(1000, 1030))
                .map(move |(p, k)| Rat::from(&BigInt::from(p) * &pow2(k)) / Rat::from_int(3)),
        ])
    }

    /// Random terms over three variables with division, inexact constants
    /// and guarded `Ite`s.
    fn arb_term() -> Gen<Term> {
        let leaf = one_of(vec![
            int_in(-9, 9).map(Term::int),
            zip2(int_in(-9, 9), int_in(1, 7)).map(|(n, d)| Term::constant(Rat::from_frac(n, d))),
            int_in(0, 2).map(|i| Term::var(VarId(i as u32))),
        ]);
        recursive(leaf, 4, |inner| {
            one_of(vec![
                zip2(inner.clone(), inner.clone()).map(|(a, b)| a.add(b)),
                zip2(inner.clone(), inner.clone()).map(|(a, b)| a.sub(b)),
                zip2(inner.clone(), inner.clone()).map(|(a, b)| a.mul(b)),
                zip2(inner.clone(), inner.clone()).map(|(a, b)| a.div(b)),
                zip2(inner.clone(), inner.clone()).map(|(a, b)| a.min(b)),
                zip2(inner.clone(), inner.clone()).map(|(a, b)| a.max(b)),
                inner.clone().map(Term::neg),
                zip3(inner.clone(), inner.clone(), inner)
                    .map(|(c, a, b)| Term::ite(c.ge(Term::int(0)), a, b)),
            ])
        })
    }

    /// Exact-rational soundness of the lane interpreter, slot by slot: on
    /// the one-ulp point boxes of random rational points (what sample
    /// refutation evaluates), every numeric slot's lane interval contains
    /// the slot's exact value wherever that value is defined, compared as
    /// `Rat`; and every decided verdict agrees with exact evaluation.
    #[test]
    fn lane_slots_contain_exact_values() {
        let points = vec_of(vec_of(arb_rat(), 3, 3), 1, LANES);
        prop::check_with(
            &Config { cases: 256, ..Config::default() },
            "lane_slots_contain_exact_values",
            &zip3(arb_term(), arb_term(), points),
            |(a, b, points)| {
                let f = a.clone().le(b.clone());
                let (_, _, tape) = compile(&f, None);
                let encl: Vec<Vec<Interval>> =
                    points.iter().map(|p| p.iter().map(rat_enclosure).collect()).collect();
                let mut s = TapeScratch::new();
                tape.plan(0..tape.ops.len(), &mut s);
                tape.run(0..s.run.len(), points.len(), |k, v| encl[k][v as usize], &mut s);
                let mut ex = ExactScratch::new();
                for (k, env) in points.iter().enumerate() {
                    for (i, op) in tape.ops.iter().enumerate() {
                        ex.reset(tape.ops.len());
                        if op.is_formula() {
                            let exact = tape.exact_form(i as u32, env, &mut ex);
                            let v = byte_tri(s.tri[i][k]);
                            if let Ok(x) = exact {
                                prop_assert!(
                                    v == Tri::Unknown || (v == Tri::True) == x,
                                    "slot {} verdict {:?} but exact {} at {:?} in {}",
                                    i,
                                    v,
                                    x,
                                    env,
                                    f
                                );
                            }
                            continue;
                        }
                        let Ok(x) = tape.exact_term(i as u32, env, &mut ex) else { continue };
                        let (lo, hi) = (s.iv[i].lo[k], s.iv[i].hi[k]);
                        let lo_ok =
                            lo == f64::NEG_INFINITY || Rat::from_f64(lo).is_some_and(|l| l <= x);
                        let hi_ok =
                            hi == f64::INFINITY || Rat::from_f64(hi).is_some_and(|h| x <= h);
                        prop_assert!(
                            lo_ok && hi_ok,
                            "slot {} = {} outside [{:e}, {:e}] at {:?} in {}",
                            i,
                            x,
                            lo,
                            hi,
                            env,
                            f
                        );
                    }
                }
                Ok(())
            },
        );
    }

    /// `x·y ≥ 7` with `y` in a range that touches zero from one side
    /// leaves `x` on a ray: `x ≥ 7/3` for `y ∈ [0, 3]`, `x ≤ -7/3` for
    /// `y ∈ [-3, 0]`. The ray's end is rounded outward, so the tight
    /// solutions `(±7/3, ±3)` stay inside, and the box does narrow.
    #[test]
    fn contraction_bounds_products_over_zero_touching_ranges() {
        let f = Term::var(VarId(0)).mul(Term::var(VarId(1))).ge(Term::int(7));
        for sign in [1.0, -1.0] {
            let dom = dom2((-10.0, 10.0), (0.0f64.min(3.0 * sign), 0.0f64.max(3.0 * sign)));
            let (_, conjuncts, tape) = compile(&f, Some(&dom));
            let mut boxes = [Contractee::new(dom.clone(), vec![0], None)];
            tape.contract(&mut boxes, &mut TapeScratch::new());
            let c = &boxes[0];
            assert_eq!(c.outcome, Contraction::Narrowed, "{}", c.dom);
            let x = c.dom.get(VarId(0));
            let bound = Rat::from_frac(7, 3) * Rat::from_int(sign as i64);
            let end = if sign > 0.0 { x.lo() } else { x.hi() };
            let tight = vec![bound.clone(), Rat::from_int(3 * sign as i64)];
            assert_eq!(eval_formula(&conjuncts[0], &tight), Ok(true));
            assert!(
                Rat::from_f64(x.lo()).unwrap() <= bound && bound <= Rat::from_f64(x.hi()).unwrap(),
                "7/3 left {x}"
            );
            assert!((end - 7.0 / 3.0 * sign).abs() < 1e-9, "{x} did not narrow to the ray");
        }
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
