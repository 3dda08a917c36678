//! δ-complete satisfiability solver for bounded nonlinear rational formulas.
//!
//! The solver answers existential queries `∃ x ∈ Box. φ(x)` for the formula
//! language of this crate. It combines two phases:
//!
//! 1. **Model seeding** — caller-provided seed models, jittered variants of
//!    them, and uniform random samples are checked *exactly* (rational
//!    arithmetic). This is what keeps satisfiable queries fast in the
//!    synthesis loop, where the previous iteration's model is usually close
//!    to a model of the next query. Disable via
//!    [`SolverConfig::use_seeding`] for the ablation study.
//! 2. **Branch, contract and prune** — subdivision of the box. A box is
//!    pruned when interval evaluation certainly refutes one conjunct; a
//!    box whose every conjunct is certainly true yields a model
//!    immediately. A box that splits is cut in two on one dimension: at a
//!    *guard constant* when one or two lie strictly inside its range there
//!    (the one nearest the midpoint), else at the midpoint. A variable's
//!    guard constants are the `f64`s of the constants `c` an `ite` guard
//!    compares it with (`x op c` or `c op x`), collected once per query
//!    when the tape compiles ([`Tape::guard_cut`]). Midpoint bisection
//!    never lands on such a threshold, so every box straddling it keeps the
//!    hull of both branches; a query comparing two frozen candidates holds
//!    two constants per guarded variable, and two cuts make the points
//!    where the candidates take different branches a cell of their own.
//!    Hole variables, with one constant per recorded scenario, are bisected
//!    until a box holds at most two. Every box that survives is first
//!    *contracted*
//!    ([`Tape::contract`], HC4-revise): each pending comparison is
//!    projected backward through the tape's slots onto the variables, and
//!    the box shrinks to the narrowed ranges. Contraction never removes a
//!    point where every conjunct holds exactly, so a box it empties is
//!    pruned, and samples, the residual test and the choice of split
//!    dimension all see the narrowed box. Boxes narrower than
//!    [`SolverConfig::delta`] in every dimension that still cannot be
//!    decided are *residual*.
//!
//! Both phases evaluate through the query's compiled [`Tape`] (see
//! [`crate::tape`]): interval verdicts for pruning and a point check plus
//! exact rational replay for certification. The tree walkers
//! `ieval_formula`/`eval_formula` are not on this path; they are the
//! independent reference the tape's property tests compare against.
//!
//! The outcome is:
//! * [`Outcome::Sat`] — with an **exactly certified** rational model;
//! * [`Outcome::Unsat`] — every box was refuted by sound interval
//!   arithmetic: a proof of unsatisfiability;
//! * [`Outcome::DeltaUnsat`] — refuted everywhere except residual sub-δ
//!   boxes where exhaustive sampling found nothing. Following the
//!   δ-decidability literature (dReal), callers treat this as "unsat for
//!   all practical purposes"; the synthesis engine uses it as its
//!   convergence signal.
//! * [`Outcome::Exhausted`] — the box budget ran out first.
//!
//! Two monotonicity facts make the pruning loop cheap: once a conjunct is
//! certainly true on a box it stays true on every sub-box, and a conjunct
//! whose variables were untouched by a split keeps its verdict. The solver
//! therefore re-evaluates only the still-unknown conjuncts that mention the
//! split dimension. Contraction leans on the same facts: the root is
//! contracted on every pending conjunct, and a child of a split box first
//! only on those that read the split dimension, since the others were
//! revised on the same ranges when its parent was contracted.
//!
//! # Rounds
//!
//! Branch-and-prune processes the subdivision frontier in deterministic
//! *rounds*: each round pops a fixed-size batch off the depth-first stack
//! (deepest boxes first, preserving the DFS search profile) and walks it
//! in batch order. Every box draws one sample from its own RNG stream,
//! forked deterministically from `(seed, box id)`. The first box that
//! certifies a model ends the search: the boxes after it in the batch are
//! not counted, and the boxes before it are not split. Otherwise the
//! surviving children go back on the stack
//! in reverse batch order, each low child below its high one, so the first
//! box's high child is on top; children take their ids in push order.
//!
//! A round costs two tape passes, plus the contraction sweeps: one pass
//! interval-refutes every box's sample, one checks every split box's
//! children, each pass scoring its boxes [`crate::tape::LANES`] at a time
//! (see `BnpCtx::round`). A child that survives takes its first
//! contraction sweep from the lanes the child pass left, so it costs only
//! the backward projection; the children whose first sweep narrowed a
//! range by more than a tenth sweep again, sharing forward passes
//! [`crate::tape::LANES`] at a time. The sample pass only needs "some
//! conjunct is `False`" per sample: it encloses the drawn coordinates on
//! machine words, without building a `Rat`, and runs the conjuncts one by
//! one, stopping each chunk of samples as soon as all of them are refuted.
//! Seeding refutes its candidates the same way, [`crate::tape::LANES`] at
//! a time under one plan per query, and certifies the survivors in draw
//! order. Tape lanes are independent, so the outcome, the model, and every
//! counter are byte-identical to a solver that processes one box at a
//! time. A query runs on the calling thread; callers that want
//! parallelism run independent queries or synthesis runs side by side.

use crate::ieval::{rat_enclosure, Tri};
use crate::model::Model;
use crate::tape::{self, CompiledQuery, Contractee, Contraction, ExactScratch, Tape, LANES};
use crate::term::Formula;
use crate::vars::BoxDomain;
use cso_numeric::interval::{round_down, round_up};
use cso_numeric::{words_to_f64, Interval, Rat};
use cso_runtime::trace::{self, Value};
use cso_runtime::Rng;
use std::cell::RefCell;
use std::time::{Duration, Instant};

thread_local! {
    /// Per-thread exact-evaluation scratch (memo cells for the rational
    /// tape interpreter).
    static EX_SCRATCH: RefCell<ExactScratch> = RefCell::new(ExactScratch::new());
    /// Per-thread branch-and-prune round buffers.
    static ROUND_SCRATCH: RefCell<RoundScratch> = RefCell::new(RoundScratch::default());
}

/// Tuning knobs for the solver.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Minimum box width: boxes narrower than this in every dimension are
    /// not split further. This is the δ of δ-completeness. The synthesis
    /// engine never reads it: every query it solves sets `delta_per_dim`
    /// for every dimension, from `SynthConfig::delta_rel`.
    pub delta: f64,
    /// Optional per-dimension δ overriding `delta` (indexed by variable
    /// index). Dimensions whose ranges differ by orders of magnitude —
    /// throughput in `[0, 10]` vs latency in `[0, 200]` — deserve
    /// proportional resolutions; the split heuristic also normalizes widths
    /// by these values.
    pub delta_per_dim: Option<Vec<f64>>,
    /// Maximum number of boxes to process before giving up with
    /// [`Outcome::Exhausted`].
    pub max_boxes: usize,
    /// Uniform random samples drawn across the whole box before
    /// branch-and-prune starts.
    pub initial_samples: usize,
    /// Jittered variants tried around each caller-provided seed.
    pub jitters_per_seed: usize,
    /// RNG seed (the solver is fully deterministic given the config and
    /// query).
    pub seed: u64,
    /// Enable phase 1 (seeding). Disabled for the seeding ablation.
    pub use_seeding: bool,
    /// Ignored: branch-and-prune always runs on the calling thread. Kept
    /// (default 1, read and written nowhere in the workspace) only because
    /// the perf ledger still sets it; it goes when the ledger stops.
    pub threads: usize,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            delta: 1e-3,
            delta_per_dim: None,
            max_boxes: 200_000,
            initial_samples: 512,
            jitters_per_seed: 16,
            seed: 0xC50_5EED,
            use_seeding: true,
            threads: 1,
        }
    }
}

/// Result of a solver invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Satisfiable, with an exactly certified model.
    Sat(Model),
    /// Proved unsatisfiable over the whole box.
    Unsat,
    /// Unsatisfiable except possibly inside residual sub-δ boxes.
    DeltaUnsat,
    /// Budget exhausted before a decision.
    Exhausted,
}

impl Outcome {
    /// `true` for `Unsat` and `DeltaUnsat` (the convergence signals).
    #[must_use]
    pub fn is_unsat_like(&self) -> bool {
        matches!(self, Outcome::Unsat | Outcome::DeltaUnsat)
    }

    /// The model, if satisfiable.
    #[must_use]
    pub fn model(&self) -> Option<&Model> {
        match self {
            Outcome::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Counters describing the work done by the last `solve` call.
///
/// Box and sample counts are deterministic given the config and query;
/// the two `*_time` fields are wall-clock and exist for telemetry only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Boxes popped from the subdivision frontier.
    pub boxes_processed: usize,
    /// Boxes pruned by interval refutation.
    pub boxes_pruned: usize,
    /// Sub-δ boxes left undecided.
    pub residual_boxes: usize,
    /// Exact sample evaluations.
    pub samples_tried: usize,
    /// Exact evaluations that errored (division by zero, unbound
    /// variable). Errors count as failed samples, so without this counter
    /// a measure-zero division-by-zero set is invisible in telemetry. A
    /// sample the tape's interval point check refutes never reaches exact
    /// evaluation, so its errors are not counted.
    pub eval_errors: usize,
    /// Whether the model was found during seeding (vs branch-and-prune).
    pub sat_from_seeding: bool,
    /// Wall-clock time spent in the seeding phase.
    pub seeding_time: Duration,
    /// Wall-clock time spent in branch-and-prune.
    pub bnp_time: Duration,
    /// Boxes that contraction narrowed in at least one variable.
    pub contracted: usize,
    /// Boxes that contraction emptied (each also counts as pruned).
    pub emptied: usize,
}

/// The solver. Holds configuration, RNG state, and last-run statistics.
#[derive(Debug)]
pub struct Solver {
    cfg: SolverConfig,
    rng: Rng,
    /// Statistics from the most recent `solve` call.
    pub stats: SolverStats,
}

/// Boxes per branch-and-prune round. Fixed, because the round boundaries
/// decide the DFS order and which box ids the children's RNG streams are
/// forked from, and with them the outcome.
const ROUND_SIZE: usize = 64;

/// Frontier item: a box, the indices of conjuncts still undecided on it,
/// and the deterministic id its sampling RNG is forked from.
struct BoxTask {
    dom: BoxDomain,
    pending: Vec<u32>,
    id: u64,
}

/// Buffers a branch-and-prune round reuses, kept per thread so that no
/// round allocates a buffer per box or per sample.
#[derive(Default)]
struct RoundScratch {
    /// The sample being drawn or certified.
    vals: Vec<Rat>,
    /// One box's drawn coordinates, `dims` per sample.
    xs: Vec<f64>,
    /// One-ulp enclosures of every sample of the round, `dims` per sample.
    encl: Vec<Interval>,
    /// Per sample of the round: whether refutation rejected it.
    refuted: Vec<bool>,
    /// Conjuncts one tape pass checks, and their position in it.
    cis: Vec<u32>,
    pos: Vec<u32>,
    verdicts: Vec<Tri>,
    /// Boxes of the round that split, with their split dimension.
    splits: Vec<(usize, usize)>,
    /// Their children, two per split box.
    children: Vec<BoxDomain>,
    /// `pick_split_dim`'s per-dimension flags.
    relevant: Vec<bool>,
    /// The children under contraction.
    contractees: Vec<Contractee>,
}

impl RoundScratch {
    /// Start the conjunct set of the next tape pass: empty, for a query of
    /// `n_conj` conjuncts. Members are added by setting `pos[ci] = 0`.
    fn reset_cis(&mut self, n_conj: usize) {
        self.pos.clear();
        self.pos.resize(n_conj, u32::MAX);
    }

    /// Freeze the set: `cis` lists the members in ascending order, and
    /// `pos[ci]` becomes each member's index in it.
    fn seal_cis(&mut self) {
        self.cis.clear();
        for (ci, p) in self.pos.iter_mut().enumerate() {
            if *p == 0 {
                *p = self.cis.len() as u32;
                self.cis.push(ci as u32);
            }
        }
    }
}

/// Shared read-only context for processing frontier boxes.
struct BnpCtx<'a> {
    cfg: &'a SolverConfig,
    mentions: &'a [Vec<u32>],
    tape: &'a Tape,
}

impl BnpCtx<'_> {
    fn delta_for(&self, dim: usize) -> f64 {
        self.cfg
            .delta_per_dim
            .as_ref()
            .and_then(|v| v.get(dim).copied())
            .unwrap_or(self.cfg.delta)
            .max(f64::MIN_POSITIVE)
    }

    /// The box's private RNG stream, forked deterministically from the
    /// solver seed and the box's id — independent of where in its round
    /// the box is processed.
    fn box_rng(&self, id: u64) -> Rng {
        Rng::seed_from_u64(
            self.cfg.seed ^ id.wrapping_add(0x9E37_79B9).wrapping_mul(0xA24B_AED4_963E_E407),
        )
    }

    /// A box is residual when every dimension still read by a pending
    /// conjunct is narrower than its δ; unconstrained dimensions are
    /// irrelevant (splitting them cannot change any verdict).
    fn box_is_residual(&self, task: &BoxTask) -> bool {
        task.pending.iter().all(|&ci| {
            self.mentions[ci as usize].iter().all(|&v| {
                let d = v as usize;
                d >= task.dom.len() || task.dom.intervals()[d].width() <= self.delta_for(d)
            })
        })
    }

    /// Split the dimension with the largest width relative to its δ, among
    /// dimensions mentioned by still-pending conjuncts (splitting a
    /// dimension no undecided conjunct reads can never change a verdict).
    fn pick_split_dim(&self, task: &BoxTask, relevant: &mut Vec<bool>) -> usize {
        relevant.clear();
        relevant.resize(task.dom.len(), false);
        for &ci in &task.pending {
            for &v in &self.mentions[ci as usize] {
                if let Some(r) = relevant.get_mut(v as usize) {
                    *r = true;
                }
            }
        }
        let mut best = None;
        let mut score = f64::NEG_INFINITY;
        for (d, &rel) in relevant.iter().enumerate() {
            if !rel {
                continue;
            }
            let w = task.dom.intervals()[d].width();
            if w <= 0.0 {
                continue;
            }
            let s = w / self.delta_for(d);
            if s > score {
                score = s;
                best = Some(d);
            }
        }
        best.unwrap_or_else(|| task.dom.widest_dim())
    }

    /// Close out a box on which every conjunct is certainly true: certify
    /// its midpoint, then up to three samples from the box's own stream.
    /// When every evaluation errors (division by zero on a measure-zero
    /// set can do this), the box counts as residual.
    fn certify_decided(&self, task: &BoxTask, stats: &mut SolverStats) -> Option<Model> {
        let mut rng = self.box_rng(task.id);
        let mid = Solver::mid_values(&task.dom);
        let tries =
            std::iter::once(mid).chain((0..3).map(|_| Solver::sample_uniform(&mut rng, &task.dom)));
        for vals in tries {
            stats.samples_tried += 1;
            if holds_exactly(self.tape, &vals, &mut stats.eval_errors) {
                return Some(Model::new(vals));
            }
        }
        stats.residual_boxes += 1;
        None
    }

    /// Process one round of frontier boxes in batch order, with two tape
    /// passes for the whole round instead of one or two per box, adding
    /// the round's work to `stats`:
    ///
    /// 1. Every box with pending conjuncts draws one sample from its own
    ///    stream (the values a box-at-a-time solver would draw). Each
    ///    coordinate's one-ulp enclosure is computed on machine words from
    ///    the drawn `f64` ([`Solver::enclosure_in`]), and coordinates no
    ///    conjunct reads are drawn but not enclosed. One early-exit
    ///    refutation pass ([`tape::Refuter`]) then asks, per sample, only
    ///    whether some conjunct of the union of the boxes' pending ones is
    ///    `False`, and stops each chunk of [`LANES`] samples once all of
    ///    them are refuted. A conjunct that is not pending on a box is
    ///    certainly true on it, so by soundness it cannot be refuted at a
    ///    point of the box: checking more conjuncts than the box's own
    ///    never changes a sample's decision. Only the enclosures are kept;
    ///    a box whose sample survives redraws it for the exact values.
    /// 2. The survivors are certified exactly in batch order, box by box;
    ///    the first model stops the walk, and the round returns it before
    ///    splitting any box.
    /// 3. Otherwise every box that is not residual is split (at a guard
    ///    constant, [`Tape::guard_cut`], or at the midpoint), and one pass
    ///    checks all children on the union of their re-check conjuncts
    ///    (each child reads only its own). Each child it
    ///    does not refute is contracted: the first sweep from the lanes of
    ///    the pass, the later ones shared by the children still sweeping.
    ///    The children that survive go onto `stack`, numbered from
    ///    `next_id` in push order.
    ///
    /// Lanes are independent, so every verdict, and with it the outcome
    /// and every counter, equals processing the boxes one at a time.
    fn round(
        &self,
        batch: &[BoxTask],
        r: &mut RoundScratch,
        stats: &mut SolverStats,
        stack: &mut Vec<BoxTask>,
        next_id: &mut u64,
    ) -> Option<Model> {
        let n_conj = self.mentions.len();
        let dims = batch.first().map_or(0, |t| t.dom.len());

        r.encl.clear();
        for task in batch.iter().filter(|t| !t.pending.is_empty()) {
            let mut rng = self.box_rng(task.id);
            let ivs = task.dom.intervals();
            r.xs.clear();
            r.xs.extend(ivs.iter().map(|&iv| Solver::draw_uniform(&mut rng, iv)));
            Solver::enclose_draws(self.tape, &r.xs, ivs, &mut r.encl);
        }
        r.reset_cis(n_conj);
        for task in batch {
            for &ci in &task.pending {
                r.pos[ci as usize] = 0;
            }
        }
        r.seal_cis();
        let n_samples = batch.iter().filter(|t| !t.pending.is_empty()).count();
        let encl = &r.encl;
        tape::with_scratch(|s| {
            let var = |b: usize, v: u32| encl[b * dims + v as usize];
            self.tape.refuter(r.cis.iter().copied(), s).refutes(n_samples, var, &mut r.refuted);
        });

        let mut model = None;
        r.splits.clear();
        let mut sample = 0usize;
        for (bi, task) in batch.iter().enumerate() {
            stats.boxes_processed += 1;
            if task.pending.is_empty() {
                model = self.certify_decided(task, stats);
                if model.is_some() {
                    break;
                }
                continue;
            }
            stats.samples_tried += 1;
            if !r.refuted[sample] {
                // Redraw the sample from the box's stream: only a survivor
                // of refutation needs its exact values.
                r.vals.clear();
                Solver::sample_uniform_into(&mut self.box_rng(task.id), &task.dom, &mut r.vals);
                if holds_exactly(self.tape, &r.vals, &mut stats.eval_errors) {
                    model = Some(Model::new(r.vals.clone()));
                    break;
                }
            }
            sample += 1;
            if self.box_is_residual(task) {
                stats.residual_boxes += 1;
            } else {
                r.splits.push((bi, self.pick_split_dim(task, &mut r.relevant)));
            }
        }
        if model.is_some() || r.splits.is_empty() {
            return model;
        }

        // Children are built in push order: boxes in reverse batch order,
        // each low child before its high one, so batch[0]'s high child ends
        // on top, the box a depth-first search explores next.
        r.splits.reverse();
        // Conjuncts to re-check on a child: those that mention the split
        // dim; the others keep their verdict on the sub-box.
        let recheck =
            |ci: u32, dim: usize| self.mentions[ci as usize].binary_search(&(dim as u32)).is_ok();
        r.children.clear();
        r.reset_cis(n_conj);
        for &(bi, dim) in &r.splits {
            let dom = &batch[bi].dom;
            let iv = dom.intervals()[dim];
            let (lo, hi) = dom.split(dim, self.tape.guard_cut(dim, iv).unwrap_or(iv.midpoint()));
            r.children.push(lo);
            r.children.push(hi);
            for &ci in &batch[bi].pending {
                if recheck(ci, dim) {
                    r.pos[ci as usize] = 0;
                }
            }
        }
        r.seal_cis();
        // One verdict pass over the children, LANES at a time. A child that
        // survives it takes its first contraction sweep from the lanes its
        // chunk left; the children that sweep again share later passes.
        let width = r.cis.len();
        let mut children = std::mem::take(&mut r.children);
        r.verdicts.clear();
        tape::with_scratch(|s| {
            let mut pass = self.tape.verdict_pass(&r.cis, s);
            for (first, chunk) in children.chunks_mut(LANES).enumerate() {
                pass.chunk(chunk, &mut r.verdicts);
                'child: for (k, dom) in chunk.iter_mut().enumerate() {
                    let c = first * LANES + k;
                    let (bi, dim) = r.splits[c / 2];
                    let mut pending = Vec::with_capacity(batch[bi].pending.len());
                    for &ci in &batch[bi].pending {
                        if !recheck(ci, dim) {
                            pending.push(ci);
                            continue;
                        }
                        match r.verdicts[c * width + r.pos[ci as usize] as usize] {
                            Tri::False => {
                                stats.boxes_pruned += 1;
                                continue 'child;
                            }
                            Tri::Unknown => pending.push(ci),
                            Tri::True => {}
                        }
                    }
                    let dom = std::mem::replace(dom, BoxDomain::with_len(0));
                    let mut child = Contractee::new(dom, pending, Some(dim));
                    pass.contract(k, &mut child);
                    r.contractees.push(child);
                }
            }
            self.tape.contract(&mut r.contractees, s);
        });
        children.clear();
        r.children = children;
        for c in r.contractees.drain(..) {
            match c.outcome {
                Contraction::Empty => {
                    stats.boxes_pruned += 1;
                    stats.emptied += 1;
                    continue;
                }
                Contraction::Narrowed => stats.contracted += 1,
                Contraction::Unchanged => {}
            }
            stack.push(BoxTask { dom: c.dom, pending: c.pending, id: *next_id });
            *next_id += 1;
        }
        None
    }
}

/// Exact rational check of the compiled formula at `vals`. An evaluation
/// error (division by zero, unbound variable) certifies nothing and is
/// counted in `errors`.
fn holds_exactly(tape: &Tape, vals: &[Rat], errors: &mut usize) -> bool {
    match EX_SCRATCH.with(|s| tape.eval_exact(vals, &mut s.borrow_mut())) {
        Ok(holds) => holds,
        Err(_) => {
            *errors += 1;
            false
        }
    }
}

impl Solver {
    /// Create a solver with the given configuration.
    #[must_use]
    pub fn new(cfg: SolverConfig) -> Solver {
        let rng = Rng::seed_from_u64(cfg.seed);
        Solver { cfg, rng, stats: SolverStats::default() }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SolverConfig {
        &self.cfg
    }

    /// Solve `∃ x ∈ dom. f(x)` with no seeds.
    pub fn solve(&mut self, f: &Formula, dom: &BoxDomain) -> Outcome {
        self.solve_seeded(f, dom, &[])
    }

    /// Solve with caller-provided seed models (checked first, then
    /// jittered). Seeds outside the box are clamped into it. Compiles the
    /// query (see [`CompiledQuery::prepare`]) and delegates to
    /// [`Solver::solve_compiled`].
    pub fn solve_seeded(&mut self, f: &Formula, dom: &BoxDomain, seeds: &[Model]) -> Outcome {
        let q = CompiledQuery::prepare(f, Some(dom), true);
        self.solve_compiled(&q, dom, seeds)
    }

    /// Solve a query the caller compiled once with
    /// [`CompiledQuery::prepare`] — the engine prepares per query so the
    /// solver and the exact certifier share one compilation. `dom` must be
    /// contained in the box the query was prepared over (the tape's
    /// domain-seeded verdicts are only sound on sub-boxes).
    pub fn solve_compiled(
        &mut self,
        q: &CompiledQuery,
        dom: &BoxDomain,
        seeds: &[Model],
    ) -> Outcome {
        self.stats = SolverStats::default();
        match q.simplified {
            Formula::True => {
                // The midpoint is a model; it counts as one sample.
                self.stats.samples_tried = 1;
                return Outcome::Sat(Model::new(Solver::mid_values(dom)));
            }
            Formula::False => return Outcome::Unsat,
            _ => {}
        }
        let tape = q.tape.as_ref().expect("prepare compiles every non-trivial query");

        if self.cfg.use_seeding {
            let _sp = trace::span_with("solver.seeding", || {
                vec![("seeds", Value::U64(seeds.len() as u64))]
            });
            let t0 = Instant::now();
            let seeded = self.seeding_phase(tape, dom, seeds);
            self.stats.seeding_time = t0.elapsed();
            if let Some(m) = seeded {
                self.stats.sat_from_seeding = true;
                return Outcome::Sat(m);
            }
        }

        let t0 = Instant::now();
        let out = {
            let _sp = trace::span("solver.bnp");
            self.branch_and_prune(tape, &q.conjuncts, dom)
        };
        self.stats.bnp_time = t0.elapsed();
        out
    }

    // -- phase 1: seeding ---------------------------------------------------

    /// Check the caller's seeds clamped into the box, then jittered
    /// variants of them, then uniform samples, in that order, until one is
    /// certified. Candidates go through one refutation plan for the whole
    /// phase, [`LANES`] at a time; the survivors of each chunk are
    /// certified exactly in draw order. Counters cover the candidates up to
    /// and including the model, and `self.rng` ends where drawing one
    /// candidate at a time would leave it.
    fn seeding_phase(&mut self, tape: &Tape, dom: &BoxDomain, seeds: &[Model]) -> Option<Model> {
        let dims = dom.len();
        let ivs = dom.intervals();
        let binds = tape.binds(dims);
        tape::with_scratch(|s| {
            let mut refuter = tape.refuter(0..tape.conjunct_count() as u32, s);
            let mut refute = |n: usize, encl: &[Interval]| {
                if binds {
                    refuter.refutes_chunk(n, |k, v| encl[k * dims + v as usize])
                } else {
                    [false; LANES] // exact evaluation reports the unbound variable
                }
            };
            let mut encl = Vec::with_capacity(LANES * dims);
            // Exact seeds, clamped into the box.
            let clamped: Vec<Vec<Rat>> =
                seeds.iter().map(|s| Solver::clamp_into(dom, s.values())).collect();
            for chunk in clamped.chunks(LANES) {
                encl.clear();
                encl.extend(chunk.iter().flatten().map(rat_enclosure));
                let refuted = refute(chunk.len(), &encl);
                let certified =
                    self.first_model(tape, &refuted[..chunk.len()], |k| chunk[k].clone());
                if let Some((_, m)) = certified {
                    return Some(m);
                }
            }
            // Jitter around each seed, with radius growing geometrically:
            // thin feasible regions want probes close to the (nearly
            // feasible) seed first, wide ones are caught by the later large
            // radii. Then uniform random samples.
            let centers: Vec<Vec<f64>> = seeds
                .iter()
                .map(|s| {
                    let at =
                        |i: usize| s.values().get(i).map_or_else(|| ivs[i].midpoint(), Rat::to_f64);
                    (0..dims).map(at).collect()
                })
                .collect();
            let jitters = self.cfg.jitters_per_seed;
            let drawn = seeds.len() * jitters + self.cfg.initial_samples;
            let mut xs = Vec::with_capacity(LANES * dims);
            let mut after = Vec::with_capacity(LANES);
            for start in (0..drawn).step_by(LANES) {
                let n = LANES.min(drawn - start);
                xs.clear();
                after.clear();
                for i in start..start + n {
                    if i < seeds.len() * jitters {
                        let step = (i % jitters) as u32;
                        Solver::jitter_into(
                            &mut self.rng,
                            dom,
                            &centers[i / jitters],
                            step,
                            &mut xs,
                        );
                    } else {
                        xs.extend(ivs.iter().map(|&iv| Solver::draw_uniform(&mut self.rng, iv)));
                    }
                    after.push(self.rng.clone());
                }
                encl.clear();
                Solver::enclose_draws(tape, &xs, ivs, &mut encl);
                let refuted = refute(n, &encl);
                let rats = |k: usize| {
                    let point = &xs[k * dims..(k + 1) * dims];
                    point.iter().zip(ivs).map(|(&x, &iv)| Solver::rat_in(iv, x)).collect()
                };
                if let Some((k, m)) = self.first_model(tape, &refuted[..n], rats) {
                    self.rng = after[k].clone();
                    return Some(m);
                }
            }
            None
        })
    }

    /// Certify a chunk of seeding candidates in order, counting each as
    /// tried: a refuted one is skipped (exact evaluation could only return
    /// `false` or an error there), a survivor gets its exact values from
    /// `vals_of` and is evaluated. The first model, with its index.
    fn first_model(
        &mut self,
        tape: &Tape,
        refuted: &[bool],
        mut vals_of: impl FnMut(usize) -> Vec<Rat>,
    ) -> Option<(usize, Model)> {
        for (k, &refuted) in refuted.iter().enumerate() {
            self.stats.samples_tried += 1;
            if refuted {
                continue;
            }
            let vals = vals_of(k);
            if holds_exactly(tape, &vals, &mut self.stats.eval_errors) {
                return Some((k, Model::new(vals)));
            }
        }
        None
    }

    // -- phase 2: branch and prune -------------------------------------------

    fn branch_and_prune(&mut self, tape: &Tape, conjuncts: &[Formula], dom: &BoxDomain) -> Outcome {
        let mentions: Vec<Vec<u32>> =
            conjuncts.iter().map(|c| c.vars().iter().map(|v| v.0).collect()).collect();

        // Root: evaluate every conjunct in one batched tape pass, then
        // scan in conjunct order; the first `False` refutes the box.
        let cis: Vec<u32> = (0..conjuncts.len() as u32).collect();
        let mut root_verdicts = Vec::new();
        tape::with_scratch(|s| tape.verdicts(&[dom], &cis, s, &mut root_verdicts));
        let mut root_pending = Vec::new();
        for (i, &v) in root_verdicts.iter().enumerate() {
            match v {
                Tri::False => {
                    self.stats.boxes_processed = 1;
                    self.stats.boxes_pruned = 1;
                    return Outcome::Unsat;
                }
                Tri::Unknown => root_pending.push(i as u32),
                Tri::True => {}
            }
        }
        // Contract the root before the first split, like every child.
        let mut root = [Contractee::new(dom.clone(), root_pending, None)];
        tape::with_scratch(|s| tape.contract(&mut root, s));
        let [root] = root;
        match root.outcome {
            Contraction::Empty => {
                self.stats.boxes_processed = 1;
                self.stats.boxes_pruned = 1;
                self.stats.emptied = 1;
                return Outcome::Unsat;
            }
            Contraction::Narrowed => self.stats.contracted = 1,
            Contraction::Unchanged => {}
        }

        let ctx = BnpCtx { cfg: &self.cfg, mentions: &mentions, tape };

        // Depth-first stack of unexplored boxes; the top is the deepest.
        let mut stack = vec![BoxTask { dom: root.dom, pending: root.pending, id: 0 }];
        let mut next_id: u64 = 1;

        while !stack.is_empty() {
            let remaining = self.cfg.max_boxes.saturating_sub(self.stats.boxes_processed);
            if remaining == 0 {
                return Outcome::Exhausted;
            }
            // Pop a fixed-size batch; batch[0] is the stack top — exactly
            // the box a sequential DFS would pop first.
            let b = ROUND_SIZE.min(stack.len()).min(remaining);
            trace::counter("solver.bnp.round", || {
                vec![
                    ("batch", Value::U64(b as u64)),
                    ("stack", Value::U64(stack.len() as u64)),
                    ("explored", Value::U64(self.stats.boxes_processed as u64)),
                ]
            });
            let batch: Vec<BoxTask> = stack.drain(stack.len() - b..).rev().collect();
            let model = ROUND_SCRATCH.with(|r| {
                let r = &mut r.borrow_mut();
                ctx.round(&batch, r, &mut self.stats, &mut stack, &mut next_id)
            });
            if let Some(m) = model {
                return Outcome::Sat(m);
            }
        }

        if self.stats.residual_boxes == 0 {
            Outcome::Unsat
        } else {
            Outcome::DeltaUnsat
        }
    }

    // -- sampling helpers -----------------------------------------------------

    /// Snap an `f64` to a rational with denominator 10^6, keeping models
    /// human-readable; exactness is preserved because every candidate is
    /// re-certified.
    fn snap(x: f64) -> Rat {
        let scaled = (x * 1e6).round();
        if scaled.abs() < 9e15 {
            Rat::from_frac(scaled as i64, 1_000_000)
        } else {
            Rat::from_f64(x).unwrap_or_else(Rat::zero)
        }
    }

    /// The range sampling draws from: `iv` with an infinite end capped at
    /// ±1e9, or at the finite end where that lies beyond the cap, so the
    /// range is never empty.
    fn clamp_iv(iv: Interval) -> (f64, f64) {
        const CAP: f64 = 1e9;
        let (lo, hi) = (iv.lo(), iv.hi());
        let capped_lo = if hi.is_finite() { (-CAP).min(hi) } else { -CAP };
        let capped_hi = if lo.is_finite() { CAP.max(lo) } else { CAP };
        (if lo.is_finite() { lo } else { capped_lo }, if hi.is_finite() { hi } else { capped_hi })
    }

    /// `x` clamped into `iv` (infinite ends capped), and the numerator `k`
    /// of its snap `k/10^6` when that lies strictly inside: the fast path
    /// of [`Solver::rat_in`] and [`Solver::enclosure_in`].
    fn grid_in(iv: Interval, x: f64) -> (f64, Option<i64>) {
        let (lo, hi) = Solver::clamp_iv(iv);
        let x = x.clamp(lo, hi);
        // `snap(x)` is `k/10^6` for `k = scaled` when `|k| < 9e15`. The
        // product `lo·10^6` lies strictly below the next double up from its
        // rounded value, so a `k` above that (and below the mirror bound at
        // `hi`) puts `k/10^6` strictly inside `[lo, hi]`, where the exact
        // clamp of `rat_in` returns it unchanged.
        let scaled = (x * 1e6).round();
        let inside =
            scaled.abs() < 9e15 && round_up(lo * 1e6) < scaled && scaled < round_down(hi * 1e6);
        (x, inside.then_some(scaled as i64))
    }

    /// The exact value a draw `x` from `iv` is sampled at: `snap(x)` when
    /// that lies in the box (infinite ends capped). Snapping can push an
    /// edge draw, or any draw from a box narrower than the `10^-6` grid,
    /// out of the box; then the in-box point nearest `x` on the coarsest
    /// decimal grid that has one ([`decimal_in`]), and only when none
    /// does, the box end nearest the snap.
    fn rat_in(iv: Interval, x: f64) -> Rat {
        let (x, k) = Solver::grid_in(iv, x);
        if let Some(k) = k {
            return Rat::from_frac(k, 1_000_000);
        }
        let (lo, hi) = Solver::clamp_iv(iv);
        let snapped = Solver::snap(x);
        let rlo = Rat::from_f64(lo).unwrap_or_else(Rat::zero);
        let rhi = Rat::from_f64(hi).unwrap_or_else(Rat::zero);
        if rlo > rhi || (rlo <= snapped && snapped <= rhi) {
            return snapped;
        }
        let rx = Rat::from_f64(x).unwrap_or_else(Rat::zero);
        decimal_in(&rlo, &rhi, &rx).unwrap_or_else(|| snapped.clamp(&rlo, &rhi))
    }

    /// `rat_enclosure(&Solver::rat_in(iv, x))`, bit for bit, computed on
    /// machine words wherever `rat_in` takes its fast path: no `Rat` is
    /// built there.
    fn enclosure_in(iv: Interval, x: f64) -> Interval {
        match Solver::grid_in(iv, x) {
            (_, Some(k)) => grid_enclosure(k),
            (x, None) => rat_enclosure(&Solver::rat_in(iv, x)),
        }
    }

    /// One uniform draw from `iv` (infinite ends capped): the value a
    /// sample's coordinate is snapped from.
    fn draw_uniform(rng: &mut Rng, iv: Interval) -> f64 {
        let (lo, hi) = Solver::clamp_iv(iv);
        if lo == hi {
            lo
        } else {
            rng.random_range(lo..=hi)
        }
    }

    /// Append to `encl` the enclosures ([`Solver::enclosure_in`]) of the
    /// drawn points `xs`, one coordinate per interval of `ivs` each. A
    /// coordinate the tape does not read gets the whole line instead,
    /// which no pass of it reads.
    fn enclose_draws(tape: &Tape, xs: &[f64], ivs: &[Interval], encl: &mut Vec<Interval>) {
        let dims = ivs.iter().enumerate().cycle();
        encl.extend(xs.iter().zip(dims).map(|(&x, (d, &iv))| {
            if tape.reads_var(d) {
                Solver::enclosure_in(iv, x)
            } else {
                Interval::whole()
            }
        }));
    }

    fn sample_uniform(rng: &mut Rng, dom: &BoxDomain) -> Vec<Rat> {
        let mut vals = Vec::with_capacity(dom.len());
        Solver::sample_uniform_into(rng, dom, &mut vals);
        vals
    }

    /// Append one uniform sample of `dom` to `vals`.
    fn sample_uniform_into(rng: &mut Rng, dom: &BoxDomain, vals: &mut Vec<Rat>) {
        vals.extend(
            dom.intervals().iter().map(|&iv| Solver::rat_in(iv, Solver::draw_uniform(rng, iv))),
        );
    }

    fn mid_values(dom: &BoxDomain) -> Vec<Rat> {
        (0..dom.len())
            .map(|i| {
                let iv = dom.intervals()[i];
                Solver::rat_in(iv, iv.midpoint())
            })
            .collect()
    }

    fn clamp_into(dom: &BoxDomain, vals: &[Rat]) -> Vec<Rat> {
        (0..dom.len())
            .map(|i| {
                let iv = dom.intervals()[i];
                let (lo, hi) = Solver::clamp_iv(iv);
                let rlo = Rat::from_f64(lo).unwrap_or_else(Rat::zero);
                let rhi = Rat::from_f64(hi).unwrap_or_else(Rat::zero);
                match vals.get(i) {
                    Some(v) if rlo <= rhi => v.clone().clamp(&rlo, &rhi),
                    Some(v) => v.clone(),
                    None => Solver::rat_in(iv, iv.midpoint()),
                }
            })
            .collect()
    }

    /// Append jitter step `step` around `center` (one value per dimension):
    /// the radius is 0.4% of the range at step 0, growing ~1.5x every two
    /// steps, capped at 15%.
    fn jitter_into(rng: &mut Rng, dom: &BoxDomain, center: &[f64], step: u32, xs: &mut Vec<f64>) {
        let factor = (0.004 * 1.5f64.powi(step as i32 / 2)).min(0.15);
        xs.extend(dom.intervals().iter().zip(center).map(|(&iv, &c)| {
            let (lo, hi) = Solver::clamp_iv(iv);
            let radius = ((hi - lo) * factor).max(1e-6);
            c + rng.random_range(-radius..=radius)
        }));
    }
}

/// The point of `[lo, hi]` nearest `x` (ties upward) on the coarsest
/// decimal grid `10^-p`, `p = 6..=15`, that has a point in `[lo, hi]`;
/// `None` when none of them has one.
fn decimal_in(lo: &Rat, hi: &Rat, x: &Rat) -> Option<Rat> {
    let ten = Rat::from_int(10);
    let half = Rat::from_frac(1, 2);
    let mut scale = Rat::from_int(1_000_000);
    for _ in 6..=15 {
        let (kmin, kmax) = ((lo * &scale).ceil(), (hi * &scale).floor());
        if kmin <= kmax {
            let k = (x * &scale + &half).floor().clamp(kmin, kmax);
            return Some(Rat::from(k) / scale);
        }
        scale *= &ten;
    }
    None
}

/// The one-ulp enclosure of `k / 10^6` for `|k| < 9e15`, on machine words:
/// bit for bit `rat_enclosure(&Rat::from_frac(k, 1_000_000))`. The fraction
/// is reduced by the common powers of two and of five, and its `f64` comes
/// from [`words_to_f64`], the word path of [`Rat::to_f64`]. The enclosure
/// is a point exactly when no five is left in the reduced denominator:
/// then it is a power of two and the numerator is below `2^53`, so the
/// fraction is a double.
fn grid_enclosure(k: i64) -> Interval {
    if k == 0 {
        return Interval::point(0.0);
    }
    let twos = k.trailing_zeros().min(6);
    let mut n = k.unsigned_abs() >> twos;
    let mut fives = 0;
    while fives < 6 && n.is_multiple_of(5) {
        n /= 5;
        fives += 1;
    }
    let d = (1u64 << (6 - twos)) * 5u64.pow(6 - fives);
    let x = words_to_f64(k < 0, n, d).expect("a denominator of at most 10^6 has a word path");
    if fives == 6 {
        Interval::point(x)
    } else {
        Interval::new(round_down(x), round_up(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_formula;
    use crate::term::Term;
    use crate::vars::VarRegistry;

    fn solver() -> Solver {
        Solver::new(SolverConfig::default())
    }

    fn setup2() -> (VarRegistry, BoxDomain, crate::vars::VarId, crate::vars::VarId) {
        let mut r = VarRegistry::new();
        let x = r.intern("x");
        let y = r.intern("y");
        let mut d = BoxDomain::new(&r);
        d.set(x, Interval::new(0.0, 10.0));
        d.set(y, Interval::new(0.0, 10.0));
        (r, d, x, y)
    }

    #[test]
    fn sat_simple_linear() {
        let (_, d, x, y) = setup2();
        let f = Formula::and(vec![
            Term::var(x).add(Term::var(y)).ge(Term::int(5)),
            Term::var(x).le(Term::int(2)),
        ]);
        let mut s = solver();
        match s.solve(&f, &d) {
            Outcome::Sat(m) => {
                assert!(eval_formula(&f, m.values()).unwrap());
            }
            o => panic!("expected sat, got {o:?}"),
        }
    }

    #[test]
    fn sat_nonlinear() {
        let (_, d, x, y) = setup2();
        // x*y == near 12 with narrow band, x > y
        let f = Formula::and(vec![
            Term::var(x).mul(Term::var(y)).ge(Term::int(12)),
            Term::var(x).mul(Term::var(y)).le(Term::int(13)),
            Term::var(x).gt(Term::var(y)),
        ]);
        let mut s = solver();
        let out = s.solve(&f, &d);
        let m = out.model().expect("sat");
        assert!(eval_formula(&f, m.values()).unwrap());
    }

    #[test]
    fn unsat_proved() {
        let (_, d, x, y) = setup2();
        // x + y > 25 impossible on [0,10]^2
        let f = Term::var(x).add(Term::var(y)).gt(Term::int(25));
        let mut s = solver();
        assert_eq!(s.solve(&f, &d), Outcome::Unsat);
    }

    #[test]
    fn unsat_needs_splitting() {
        let (_, d, x, y) = setup2();
        // x*y >= 60 and x + y <= 10: max of x*y on the simplex is 25.
        let f = Formula::and(vec![
            Term::var(x).mul(Term::var(y)).ge(Term::int(60)),
            Term::var(x).add(Term::var(y)).le(Term::int(10)),
        ]);
        let mut s = solver();
        let out = s.solve(&f, &d);
        assert!(out.is_unsat_like(), "got {out:?}");
    }

    #[test]
    fn thin_sat_band_found() {
        let (_, d, x, y) = setup2();
        // A thin diagonal band: 4.999 <= x + y <= 5.001.
        let f = Formula::and(vec![
            Term::var(x).add(Term::var(y)).ge(Term::constant(Rat::from_frac(4999, 1000))),
            Term::var(x).add(Term::var(y)).le(Term::constant(Rat::from_frac(5001, 1000))),
        ]);
        let mut s = solver();
        let out = s.solve(&f, &d);
        let m = out.model().expect("thin band should be found");
        assert!(eval_formula(&f, m.values()).unwrap());
    }

    #[test]
    fn seeds_accelerate_and_are_clamped() {
        let (_, d, x, y) = setup2();
        let f = Formula::and(vec![Term::var(x).ge(Term::int(9)), Term::var(y).le(Term::int(1))]);
        // A seed outside the box gets clamped in and certified.
        let seed = Model::new(vec![Rat::from_int(50), Rat::from_int(-3)]);
        let mut s = solver();
        match s.solve_seeded(&f, &d, &[seed]) {
            Outcome::Sat(m) => {
                assert!(eval_formula(&f, m.values()).unwrap());
                assert!(s.stats.sat_from_seeding);
                assert_eq!(s.stats.samples_tried, 1, "first clamped seed suffices");
            }
            o => panic!("expected sat, got {o:?}"),
        }
    }

    #[test]
    fn seeding_disabled_still_solves() {
        let (_, d, x, y) = setup2();
        let f = Formula::and(vec![Term::var(x).ge(Term::int(9)), Term::var(y).le(Term::int(1))]);
        let cfg = SolverConfig { use_seeding: false, ..SolverConfig::default() };
        let mut s = Solver::new(cfg);
        let out = s.solve(&f, &d);
        assert!(out.model().is_some());
        assert!(!s.stats.sat_from_seeding);
    }

    #[test]
    fn trivial_formulas() {
        let (_, d, _, _) = setup2();
        let mut s = solver();
        // `True` is satisfied at the midpoint, which counts as one sample.
        let mid = Model::new(vec![Rat::from_int(5), Rat::from_int(5)]);
        assert_eq!(s.solve(&Formula::True, &d), Outcome::Sat(mid));
        assert_eq!(s.stats.samples_tried, 1);
        assert_eq!(s.solve(&Formula::False, &d), Outcome::Unsat);
        assert_eq!(s.stats.samples_tried, 0);
    }

    #[test]
    fn exhaustion_reported() {
        let (_, d, x, y) = setup2();
        // Hard thin unsat band with a tiny budget: must report Exhausted,
        // not a bogus unsat.
        let f = Formula::and(vec![
            Term::var(x).mul(Term::var(y)).ge(Term::int(25)),
            Term::var(x).add(Term::var(y)).le(Term::int(10)),
            Term::var(x).sub(Term::var(y)).ge(Term::constant(Rat::from_frac(1, 1000))),
        ]);
        let cfg = SolverConfig {
            max_boxes: 3,
            use_seeding: false,
            delta: 1e-9,
            ..SolverConfig::default()
        };
        let mut s = Solver::new(cfg);
        let out = s.solve(&f, &d);
        assert!(matches!(out, Outcome::Exhausted | Outcome::DeltaUnsat), "got {out:?}");
    }

    #[test]
    fn delta_unsat_on_measure_zero_equality() {
        let (_, d, x, y) = setup2();
        // x == y && x != y is plainly unsat, but x*x == y (a curve) is
        // measure-zero: sampling cannot hit it, interval tests cannot refute
        // it, so we expect DeltaUnsat (residual boxes along the curve) —
        // with an exact-equality atom Sat is also possible if a snapped
        // rational lands exactly on the curve.
        let f = Formula::and(vec![
            Term::var(x).mul(Term::var(x)).eq_t(Term::var(y)),
            // Keep it off trivial points.
            Term::var(x).ge(Term::int(1)),
            Term::var(x).mul(Term::var(x)).ne_t(Term::var(x)),
        ]);
        let cfg = SolverConfig { delta: 0.05, max_boxes: 100_000, ..SolverConfig::default() };
        let mut s = Solver::new(cfg);
        match s.solve(&f, &d) {
            Outcome::Sat(m) => {
                assert!(eval_formula(&f, m.values()).unwrap());
            }
            Outcome::DeltaUnsat => {
                assert!(s.stats.residual_boxes > 0);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (_, d, x, y) = setup2();
        let f = Formula::and(vec![
            Term::var(x).mul(Term::var(y)).ge(Term::int(12)),
            Term::var(x).add(Term::var(y)).le(Term::int(9)),
        ]);
        let m1 = Solver::new(SolverConfig::default()).solve(&f, &d);
        let m2 = Solver::new(SolverConfig::default()).solve(&f, &d);
        assert_eq!(m1, m2);
    }

    /// Pins outcomes (models included) and every deterministic counter on
    /// SAT bands, an UNSAT proof (which contraction now empties at the
    /// root) and an inexact constant, with seeding off and on. The
    /// seeding-answered rows are those the tree-walking
    /// evaluators produced; the branch-and-prune rows were re-recorded when
    /// contraction landed, and their contraction counts again when a round
    /// that certifies a model stopped splitting the boxes before it. Any
    /// change to what branch-and-prune or seeding decides shows up here.
    #[test]
    fn outcomes_and_counters_are_pinned() {
        let (_, d, x, y) = setup2();
        let queries: Vec<Formula> = vec![
            Formula::and(vec![
                Term::var(x).add(Term::var(y)).ge(Term::constant(Rat::from_frac(4999, 1000))),
                Term::var(x).add(Term::var(y)).le(Term::constant(Rat::from_frac(5001, 1000))),
            ]),
            Formula::and(vec![
                Term::var(x).mul(Term::var(y)).ge(Term::int(60)),
                Term::var(x).add(Term::var(y)).le(Term::int(10)),
            ]),
            Formula::and(vec![
                Term::var(x).mul(Term::var(y)).ge(Term::int(12)),
                Term::var(x).mul(Term::var(y)).le(Term::int(13)),
                Term::var(x).gt(Term::var(y)),
            ]),
            // Inexact constant (1/3) exercising the one-ulp enclosures.
            Formula::and(vec![
                Term::var(x).mul(Term::constant(Rat::from_frac(1, 3))).ge(Term::int(2)),
                Term::var(x).add(Term::var(y)).le(Term::int(7)),
            ]),
        ];
        let sat = |x: (i64, i64), y: (i64, i64)| {
            Outcome::Sat(Model::new(vec![Rat::from_frac(x.0, x.1), Rat::from_frac(y.0, y.1)]))
        };
        // (outcome, boxes_processed, boxes_pruned, residual_boxes,
        //  samples_tried, sat_from_seeding, eval_errors, contracted, emptied)
        // per query.
        let pinned = |seeding: bool| {
            if seeding {
                [
                    (
                        sat((412_691, 100_000), (873_189, 1_000_000)),
                        79,
                        0,
                        0,
                        591,
                        false,
                        0,
                        127,
                        0,
                    ),
                    (Outcome::Unsat, 1, 1, 0, 512, false, 0, 0, 1),
                    (
                        sat((4_925_383, 1_000_000), (2_617_797, 1_000_000)),
                        0,
                        0,
                        0,
                        98,
                        true,
                        0,
                        0,
                        0,
                    ),
                    (
                        sat((6_243_021, 1_000_000), (243_713, 1_000_000)),
                        0,
                        0,
                        0,
                        111,
                        true,
                        0,
                        0,
                        0,
                    ),
                ]
            } else {
                [
                    (sat((412_691, 100_000), (873_189, 1_000_000)), 79, 0, 0, 79, false, 0, 127, 0),
                    (Outcome::Unsat, 1, 1, 0, 0, false, 0, 0, 1),
                    (
                        sat((7_204_039, 1_000_000), (1_737_473, 1_000_000)),
                        10,
                        0,
                        0,
                        10,
                        false,
                        0,
                        15,
                        0,
                    ),
                    (sat((1_203_681, 200_000), (571_589, 1_000_000)), 1, 0, 0, 1, false, 0, 1, 0),
                ]
            }
        };
        for seeding in [false, true] {
            for (qi, (f, want)) in queries.iter().zip(pinned(seeding)).enumerate() {
                let cfg = SolverConfig { seed: 7, use_seeding: seeding, ..SolverConfig::default() };
                let mut s = Solver::new(cfg);
                let out = s.solve(f, &d);
                let st = s.stats;
                assert_eq!(
                    (
                        out,
                        st.boxes_processed,
                        st.boxes_pruned,
                        st.residual_boxes,
                        st.samples_tried,
                        st.sat_from_seeding,
                        st.eval_errors,
                        st.contracted,
                        st.emptied,
                    ),
                    want,
                    "seeding {seeding} query {qi}"
                );
            }
        }
        // One solver reused across the queries, twice through, the second
        // time with a seed model to jitter around: every query starts from
        // the RNG state the previous one left, so seeding must leave it
        // exactly where drawing one sample at a time does.
        let reused = [
            (sat((412_691, 100_000), (873_189, 1_000_000)), 79, 0, 0, 591, false, 0, 127, 0),
            (Outcome::Unsat, 1, 1, 0, 512, false, 0, 0, 1),
            (sat((1_846_013, 200_000), (1_307_647, 1_000_000)), 0, 0, 0, 15, true, 0, 0, 0),
            (sat((6_427_091, 1_000_000), (150_673, 1_000_000)), 0, 0, 0, 127, true, 0, 0, 0),
            (sat((412_691, 100_000), (873_189, 1_000_000)), 79, 0, 0, 608, false, 0, 127, 0),
            (Outcome::Unsat, 1, 1, 0, 529, false, 0, 0, 1),
            (sat((2_194_113, 500_000), (1_390_587, 500_000)), 0, 0, 0, 84, true, 0, 0, 0),
            (sat((6_328_651, 1_000_000), (59_843, 250_000)), 0, 0, 0, 33, true, 0, 0, 0),
        ];
        let seed_model = Model::new(vec![Rat::from_int(1), Rat::from_int(1)]);
        let cfg = SolverConfig { seed: 7, use_seeding: true, ..SolverConfig::default() };
        let mut s = Solver::new(cfg);
        let runs = queries.iter().map(|f| (f, false)).chain(queries.iter().map(|f| (f, true)));
        for (qi, ((f, seeded), want)) in runs.zip(reused).enumerate() {
            let out = if seeded {
                s.solve_seeded(f, &d, std::slice::from_ref(&seed_model))
            } else {
                s.solve(f, &d)
            };
            let st = s.stats;
            assert_eq!(
                (
                    out,
                    st.boxes_processed,
                    st.boxes_pruned,
                    st.residual_boxes,
                    st.samples_tried,
                    st.sat_from_seeding,
                    st.eval_errors,
                    st.contracted,
                    st.emptied,
                ),
                want,
                "reused solver run {qi}"
            );
        }
    }

    #[test]
    fn stats_report_phase_times() {
        let (_, d, x, y) = setup2();
        let f = Formula::and(vec![
            Term::var(x).mul(Term::var(y)).ge(Term::int(60)),
            Term::var(x).add(Term::var(y)).le(Term::int(10)),
        ]);
        let cfg = SolverConfig { use_seeding: false, ..SolverConfig::default() };
        let mut s = Solver::new(cfg);
        let out = s.solve(&f, &d);
        assert!(out.is_unsat_like());
        assert!(s.stats.bnp_time > Duration::ZERO, "branch-and-prune time must be recorded");
        assert_eq!(s.stats.seeding_time, Duration::ZERO, "seeding disabled, no seeding time");
    }

    /// `rat_in` returns the snap when it lies in the box, else the in-box
    /// point nearest the draw on the coarsest decimal grid `10^-p`
    /// (`p = 6..=15`) with a point in the box, else the box end nearest the
    /// snap: including for box ends on, and one ulp around, the `k/10^6`
    /// grid that snapping rounds to. The reference picks the nearest grid
    /// point by comparing distances, not by rounding and clamping.
    #[test]
    fn rat_in_matches_the_exact_clamp() {
        use cso_numeric::BigInt;
        use cso_runtime::prop::{self, f64_in, int_in, just, one_of, zip3, Config, Gen};
        let grid = || {
            zip3(int_in(-2_000_000_000, 2_000_000_000), int_in(-1, 1), just(())).map(
                |(k, step, ())| match (k as f64 / 1e6, step) {
                    (v, -1) => v.next_down(),
                    (v, 1) => v.next_up(),
                    (v, _) => v,
                },
            )
        };
        let end = || -> Gen<f64> {
            one_of(vec![grid(), f64_in(-1e3, 1e3), just(0.0), just(-0.0), f64_in(-1e12, 1e12)])
        };
        prop::check_with(
            &Config { cases: 4000, ..Config::default() },
            "rat_in_matches_the_exact_clamp",
            &zip3(end(), end(), one_of(vec![end(), f64_in(0.0, 1.0)])),
            |&(a, b, x)| {
                let iv = Interval::new(a.min(b), a.max(b));
                let (lo, hi) = Solver::clamp_iv(iv);
                let x = x.clamp(lo, hi);
                let (rlo, rhi) =
                    (Rat::from_f64(lo).expect("finite"), Rat::from_f64(hi).expect("finite"));
                let rx = Rat::from_f64(x).expect("finite");
                let snapped = Solver::snap(x);
                let on_grid = |p: u32| {
                    let unit = Rat::from(BigInt::from(10).pow(p));
                    let (kmin, kmax) = ((&rlo * &unit).ceil(), (&rhi * &unit).floor());
                    let t = &rx * &unit;
                    [kmin.clone(), kmax.clone(), t.floor(), t.ceil()]
                        .into_iter()
                        .filter(|k| &kmin <= k && k <= &kmax)
                        .map(|k| Rat::from(k) / &unit)
                        .min_by(|u, v| {
                            let (du, dv) = ((u - &rx).abs(), (v - &rx).abs());
                            du.cmp(&dv).then(v.cmp(u))
                        })
                };
                let want = if rlo <= snapped && snapped <= rhi {
                    snapped
                } else {
                    (6..=15).find_map(on_grid).unwrap_or_else(|| snapped.clamp(&rlo, &rhi))
                };
                cso_runtime::prop_assert_eq!(Solver::rat_in(iv, x), want, "{} at {:e}", iv, x);
                Ok(())
            },
        );
    }

    /// A draw whose snap leaves the box lands on the coarsest decimal grid
    /// with a point in the box: a box narrower than the `10^-6` grid gets a
    /// 7-digit decimal, an edge draw on a wide box the first `10^-6` point
    /// inside, and a one-ulp box holding no 15-digit decimal its nearer end.
    #[test]
    fn rat_in_lands_on_the_coarsest_decimal_grid_in_the_box() {
        let narrow = Interval::new(0.123_456_1, 0.123_456_3);
        assert_eq!(Solver::rat_in(narrow, 0.123_456_2), Rat::from_frac(1_234_562, 10_000_000));
        let wide = Interval::new(0.123_456_4, 0.5);
        assert_eq!(Solver::rat_in(wide, 0.123_456_4), Rat::from_frac(123_457, 1_000_000));
        let lo = 0.123_456_789_012_345_67_f64;
        let ulp = Interval::new(lo, lo.next_up());
        let end = Rat::from_f64(lo.next_up()).expect("finite");
        assert_eq!(Solver::rat_in(ulp, lo), end);
    }

    /// The sampler's word-level enclosure equals `rat_enclosure` of the
    /// `Rat` that `rat_in` builds, both endpoints bit for bit: on negative,
    /// zero-width and half-infinite boxes, for values at and one ulp inside
    /// each box end, and around the `|x·10^6| < 9e15` edge of the fast path.
    #[test]
    fn enclosure_in_matches_rat_enclosure_of_rat_in() {
        use cso_runtime::prop::{self, bool_any, f64_in, int_in, just, one_of, zip3, Config, Gen};
        let grid = || {
            zip3(int_in(-2_000_000_000, 2_000_000_000), int_in(-1, 1), just(())).map(
                |(k, step, ())| match (k as f64 / 1e6, step) {
                    (v, -1) => v.next_down(),
                    (v, 1) => v.next_up(),
                    (v, _) => v,
                },
            )
        };
        // Values whose scaled magnitude `|x·10^6|` sits near 9e15.
        let edge = || {
            zip3(int_in(-4_000, 4_000), bool_any(), just(()))
                .map(|(d, neg, ())| (9e15 + d as f64) / 1e6 * if neg { -1.0 } else { 1.0 })
        };
        let end = || -> Gen<f64> {
            one_of(vec![
                grid(),
                f64_in(-1e3, 1e3),
                f64_in(-1e3, 0.0),
                just(0.0),
                just(-0.0),
                edge(),
                f64_in(-1e12, 1e12),
                just(f64::INFINITY),
                just(f64::NEG_INFINITY),
            ])
        };
        // The value: anywhere, or at or one ulp inside a box end.
        let at = one_of(vec![
            end().map(|x| (x, 0)),
            f64_in(0.0, 1.0).map(|x| (x, 0)),
            int_in(1, 4).map(|w| (0.0, w)),
        ]);
        prop::check_with(
            &Config { cases: 4000, ..Config::default() },
            "enclosure_in_matches_rat_enclosure_of_rat_in",
            &zip3(end(), end(), at),
            |&(a, b, (x, which))| {
                let iv = Interval::new(a.min(b), a.max(b));
                let (lo, hi) = Solver::clamp_iv(iv);
                let x = match which {
                    1 => lo,
                    2 => lo.next_up().min(hi),
                    3 => hi,
                    4 => hi.next_down().max(lo),
                    _ => x,
                };
                let got = Solver::enclosure_in(iv, x);
                let want = rat_enclosure(&Solver::rat_in(iv, x));
                cso_runtime::prop_assert_eq!(
                    (got.lo().to_bits(), got.hi().to_bits()),
                    (want.lo().to_bits(), want.hi().to_bits()),
                    "{} at {:e}: {} vs {}",
                    iv,
                    x,
                    got,
                    want
                );
                Ok(())
            },
        );
    }

    /// A box with one infinite end whose finite end lies beyond the ±1e9
    /// sampling cap: the capped range is the finite end alone, so drawing,
    /// snapping and jittering around a seed all stay inside the box.
    #[test]
    fn half_infinite_box_beyond_the_cap_is_sampled() {
        let mut r = VarRegistry::new();
        let x = r.intern("x");
        let f = Term::var(x).le(Term::int(0));
        for (lo, hi) in [(f64::NEG_INFINITY, -2e9), (2e9, f64::INFINITY)] {
            let mut d = BoxDomain::new(&r);
            d.set(x, Interval::new(lo, hi));
            let end = if lo.is_finite() { lo } else { hi };
            assert_eq!(Solver::clamp_iv(d.get(x)), (end, end));
            let seed = Model::new(vec![Rat::from_int(-5)]);
            for seeds in [&[][..], std::slice::from_ref(&seed)] {
                let out = solver().solve_seeded(&f, &d, seeds);
                if lo.is_finite() {
                    assert_eq!(out, Outcome::Unsat, "[{lo}, {hi}] holds no x <= 0");
                    continue;
                }
                let m = out.model().expect("x = -2e9 is a model");
                assert!(eval_formula(&f, m.values()).unwrap());
                assert!(m.values()[0] <= Rat::from_int(-2_000_000_000), "{m:?} left the box");
            }
        }
    }

    /// A SWAN scenario-disagreement query as the synthesis engine builds it
    /// on the Quick profile: over holes, then `s1`, then `s2` metrics, find
    /// scenarios with `fb(s2) − fb(s1) ≥ 5` and `fa(s1) − fa(s2) ≥ 5`, where
    /// the frozen candidates differ only in `tp_thrsh`, by 3 % of its
    /// range. Branch-and-prune alone, on the scenario site's 1000-box
    /// budget: midpoint bisection never isolates the band between the two
    /// thresholds and runs out, while cuts at the guard constants make it a
    /// cell of its own, whose samples certify a model.
    #[test]
    fn guard_cuts_isolate_a_threshold_disagreement() {
        let mut r = VarRegistry::new();
        let holes = ["tp_thrsh", "l_thrsh", "slope1", "slope2"].map(|h| r.intern(h));
        let s1 = [r.intern("s1_throughput"), r.intern("s1_latency")];
        let s2 = [r.intern("s2_throughput"), r.intern("s2_latency")];
        // SWAN's objective with its holes filled in.
        let swan = |h: [Rat; 4], s: [crate::vars::VarId; 2]| {
            let [tp, l] = s.map(Term::var);
            let [tp_thrsh, l_thrsh, slope1, slope2] = h.map(Term::constant);
            let guard = Formula::and(vec![tp.clone().ge(tp_thrsh), l.clone().le(l_thrsh)]);
            let bonus = tp.clone().sub(slope1.mul(tp.clone()).mul(l.clone())).add(Term::int(1000));
            Term::ite(guard, bonus, tp.clone().sub(slope2.mul(tp).mul(l)))
        };
        let fa = [
            Rat::from_frac(1_473_799, 500_000),
            Rat::from_frac(52_204_301, 1_000_000),
            Rat::from_int(1),
            Rat::from_int(5),
        ];
        let mut fb = fa.clone();
        fb[0] = &fa[0] + &Rat::from_frac(3, 10);
        let m = Term::int(5);
        let f = Formula::and(vec![
            swan(fb.clone(), s2).sub(swan(fb, s1)).ge(m.clone()),
            swan(fa.clone(), s1).sub(swan(fa, s2)).ge(m),
        ]);
        let mut d = BoxDomain::new(&r);
        for (v, hi) in holes.into_iter().zip([10.0, 200.0, 10.0, 10.0]) {
            d.set(v, Interval::new(0.0, hi));
        }
        for [tp, l] in [s1, s2] {
            d.set(tp, Interval::new(0.0, 10.0));
            d.set(l, Interval::new(0.0, 200.0));
        }
        let cfg = SolverConfig {
            delta_per_dim: Some(d.intervals().iter().map(|iv| iv.width() * 0.03).collect()),
            max_boxes: 1000,
            use_seeding: false,
            ..SolverConfig::default()
        };
        let q = CompiledQuery::prepare(&f, Some(&d), true);
        let tape = q.tape.expect("a non-trivial query");
        let mut s = Solver::new(cfg.clone());
        match s.branch_and_prune(&tape, &q.conjuncts, &d) {
            Outcome::Sat(m) => assert!(eval_formula(&f, m.values()).unwrap()),
            o => panic!("guard cuts: expected sat, got {o:?} after {:?}", s.stats),
        }
        let mut s = Solver::new(cfg);
        let midpoint = s.branch_and_prune(&tape.without_guard_cuts(), &q.conjuncts, &d);
        assert_eq!(midpoint, Outcome::Exhausted, "midpoint bisection after {:?}", s.stats);
    }

    #[test]
    fn ite_objective_query() {
        // A miniature of the real workload: compare a SWAN-style sketched
        // objective at two scenario points.
        let mut r = VarRegistry::new();
        let t1 = r.intern("t1");
        let l1 = r.intern("l1");
        let t2 = r.intern("t2");
        let l2 = r.intern("l2");
        let obj = |t: Term, l: Term| {
            let cond = Formula::and(vec![t.clone().ge(Term::int(1)), l.clone().le(Term::int(50))]);
            let sat = t.clone().sub(t.clone().mul(l.clone())).add(Term::int(1000));
            let unsat = t.clone().sub(Term::int(5).mul(t).mul(l));
            Term::ite(cond, sat, unsat)
        };
        // Find scenarios where objective(s1) > objective(s2) + 500.
        let f = obj(Term::var(t1), Term::var(l1))
            .gt(obj(Term::var(t2), Term::var(l2)).add(Term::int(500)));
        let mut d = BoxDomain::new(&r);
        for v in [t1, t2] {
            d.set(v, Interval::new(0.0, 10.0));
        }
        for v in [l1, l2] {
            d.set(v, Interval::new(0.0, 200.0));
        }
        let mut s = solver();
        let out = s.solve(&f, &d);
        let m = out.model().expect("sat");
        assert!(eval_formula(&f, m.values()).unwrap());
    }
}
