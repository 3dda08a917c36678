//! Zero-dependency session snapshots.
//!
//! A snapshot is a versioned, deterministic byte serialization of a parked
//! synthesis session: the sketch source, metric space and full
//! configuration, plus every piece of dynamic state the engine carries —
//! preference graph, RNG stream position, feasibility-seed pool, solver
//! memo, accumulated statistics, and the exact
//! [`EngineState`](crate::engine) the session is parked in. Restoring a
//! snapshot and resuming produces *byte-identical* results to an
//! uninterrupted run (enforced by the `session_resume` differential tests).
//!
//! # Format
//!
//! ```text
//! magic   8 bytes  "CSOSNAP\0"
//! version 1 byte   currently 3
//! session 8 bytes  session id, little-endian u64
//! config  sketch source, metric space, SynthConfig
//! state   rng, pool, graph, stats, loop context, engine state, cache
//! ```
//!
//! All integers are little-endian `u64` (or a single tag byte); strings
//! are length-prefixed UTF-8; rationals travel as their exact decimal
//! `numer/denom` rendering; floats as IEEE-754 bit patterns. `Arc`-shared
//! [`Term`]/[`Formula`] subtrees are deduplicated with preorder backrefs,
//! so a snapshot of a memo-heavy cache stays proportional to the number of
//! *distinct* subtrees. Hash-map iteration order never leaks into the
//! bytes: memo entries are sorted by fingerprint, so
//! `snapshot(restore(s)) == s`.
//!
//! Known limitation: a custom viability constraint installed with
//! `set_viability` is not captured (nothing in the repo snapshots mid-run
//! with one installed); the query builder's clause cache is also dropped,
//! which can only affect the `clauses_reused` telemetry, never outcomes.

use crate::config::{LintPolicy, SynthConfig};
use crate::engine::{EngineState, LoopCtx, SynthError, SynthOutcome, SynthResult, Synthesizer};
use crate::scenario::{MetricSpace, Scenario};
use crate::stats::{IterationRecord, SolverTelemetry, SynthStats};
use cso_logic::solver::{Outcome, SolverConfig};
use cso_logic::{
    BoxDomain, CacheExport, CacheStats, CmpOp, Formula, MemoEntry, Model, QueryKey, SolverCache,
    Term, VarId,
};
use cso_numeric::{Interval, Rat};
use cso_prefgraph::{GraphParts, PrefEdge, PrefGraph, ScenarioId};
use cso_runtime::Rng;
use cso_sketch::Sketch;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Leading magic bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"CSOSNAP\0";
/// Current snapshot format version. Version 2 added the solver's `tape`
/// toggle to the config section; version 3 dropped the warm-start
/// frontiers, the semantic and graph epochs, and the analyzer's
/// box-tightening toggle; version 4 dropped the `tape` toggle again.
pub const VERSION: u8 = 4;

/// Why a snapshot could not be written or restored.
#[derive(Debug, Clone)]
pub enum SnapshotError {
    /// The bytes do not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion(u8),
    /// The bytes end before the encoded structure does.
    Truncated,
    /// The bytes decode to structurally invalid state (bad tag, malformed
    /// rational, out-of-range index, …).
    Corrupt(String),
    /// The captured sketch/space/config no longer construct a synthesizer
    /// (e.g. the lint policy now rejects the sketch).
    Rejected(SynthError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a CSO snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {VERSION})")
            }
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::Rejected(e) => write!(f, "snapshot rejected on restore: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

type Result<T> = std::result::Result<T, SnapshotError>;

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Byte writer with `Arc` deduplication tables for terms and formulas.
struct Writer {
    buf: Vec<u8>,
    terms: HashMap<usize, u64>,
    formulas: HashMap<usize, u64>,
}

impl Writer {
    fn new() -> Writer {
        Writer { buf: Vec::new(), terms: HashMap::new(), formulas: HashMap::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn rat(&mut self, r: &Rat) {
        // Exact decimal rendering; `Rat` is canonical (reduced, positive
        // denominator), so Display/FromStr round-trips bit-for-bit.
        let s = if r.denom().is_one() {
            r.numer().to_string()
        } else {
            format!("{}/{}", r.numer(), r.denom())
        };
        self.str(&s);
    }

    fn duration(&mut self, d: Duration) {
        self.u64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    fn rats(&mut self, rs: &[Rat]) {
        self.usize(rs.len());
        for r in rs {
            self.rat(r);
        }
    }

    fn interval(&mut self, iv: &Interval) {
        self.f64(iv.lo());
        self.f64(iv.hi());
    }

    fn box_domain(&mut self, b: &BoxDomain) {
        self.usize(b.len());
        for iv in b.intervals() {
            self.interval(iv);
        }
    }

    fn model(&mut self, m: &Model) {
        self.rats(m.values());
    }

    fn scenario(&mut self, s: &Scenario) {
        self.rats(s.values());
    }

    fn term_arc(&mut self, t: &Arc<Term>) {
        let key = Arc::as_ptr(t) as usize;
        if let Some(&idx) = self.terms.get(&key) {
            self.u8(0);
            self.u64(idx);
            return;
        }
        // Preorder index assignment: the node gets its slot before its
        // children are written, mirroring the reader's reservation order.
        let idx = self.terms.len() as u64;
        self.terms.insert(key, idx);
        self.term_node(t);
    }

    fn term_node(&mut self, t: &Term) {
        match t {
            Term::Const(r) => {
                self.u8(1);
                self.rat(r);
            }
            Term::Var(v) => {
                self.u8(2);
                self.u64(v.index() as u64);
            }
            Term::Neg(a) => {
                self.u8(3);
                self.term_arc(a);
            }
            Term::Add(a, b) => {
                self.u8(4);
                self.term_arc(a);
                self.term_arc(b);
            }
            Term::Sub(a, b) => {
                self.u8(5);
                self.term_arc(a);
                self.term_arc(b);
            }
            Term::Mul(a, b) => {
                self.u8(6);
                self.term_arc(a);
                self.term_arc(b);
            }
            Term::Div(a, b) => {
                self.u8(7);
                self.term_arc(a);
                self.term_arc(b);
            }
            Term::Min(a, b) => {
                self.u8(8);
                self.term_arc(a);
                self.term_arc(b);
            }
            Term::Max(a, b) => {
                self.u8(9);
                self.term_arc(a);
                self.term_arc(b);
            }
            Term::Ite(c, a, b) => {
                self.u8(10);
                self.formula_arc(c);
                self.term_arc(a);
                self.term_arc(b);
            }
        }
    }

    fn formula_arc(&mut self, f: &Arc<Formula>) {
        let key = Arc::as_ptr(f) as usize;
        if let Some(&idx) = self.formulas.get(&key) {
            self.u8(0);
            self.u64(idx);
            return;
        }
        let idx = self.formulas.len() as u64;
        self.formulas.insert(key, idx);
        self.formula_node(f);
    }

    fn formula_node(&mut self, f: &Formula) {
        match f {
            Formula::True => self.u8(1),
            Formula::False => self.u8(2),
            Formula::Cmp(op, a, b) => {
                self.u8(3);
                self.u8(cmp_tag(*op));
                self.term_arc(a);
                self.term_arc(b);
            }
            Formula::And(fs) => {
                self.u8(4);
                self.usize(fs.len());
                for g in fs {
                    self.formula_node(g);
                }
            }
            Formula::Or(fs) => {
                self.u8(5);
                self.usize(fs.len());
                for g in fs {
                    self.formula_node(g);
                }
            }
            Formula::Not(g) => {
                self.u8(6);
                self.formula_arc(g);
            }
        }
    }

    fn telemetry(&mut self, t: &SolverTelemetry) {
        self.usize(t.queries);
        self.usize(t.boxes_explored);
        self.usize(t.boxes_pruned);
        self.usize(t.residual_boxes);
        self.usize(t.samples_tried);
        self.usize(t.eval_errors);
        self.duration(t.seeding_time);
        self.duration(t.bnp_time);
        self.usize(t.max_workers);
        self.usize(t.cache_hits);
        self.usize(t.clauses_reused);
    }

    fn stats(&mut self, s: &SynthStats) {
        self.usize(s.records.len());
        for r in &s.records {
            self.usize(r.index);
            self.duration(r.synthesis_time);
            self.usize(r.scenarios_asked);
            self.bool(r.sat_from_seeding);
            self.telemetry(&r.solver);
        }
        self.duration(s.init_time);
        self.duration(s.total_time);
        self.duration(s.oracle_time);
        self.usize(s.edges_recorded);
        self.usize(s.edges_repaired);
        self.telemetry(&s.solver_totals);
    }

    fn outcome(&mut self, o: &Outcome) {
        match o {
            Outcome::Unsat => self.u8(0),
            Outcome::DeltaUnsat => self.u8(1),
            Outcome::Exhausted => self.u8(2),
            Outcome::Sat(m) => {
                self.u8(3);
                self.model(m);
            }
        }
    }
}

fn cmp_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Lt => 0,
        CmpOp::Le => 1,
        CmpOp::Gt => 2,
        CmpOp::Ge => 3,
        CmpOp::Eq => 4,
        CmpOp::Ne => 5,
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Byte reader mirroring [`Writer`], with backref tables.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    terms: Vec<Option<Arc<Term>>>,
    formulas: Vec<Option<Arc<Formula>>>,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0, terms: Vec::new(), formulas: Vec::new() }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("slice is 8 bytes")))
    }

    fn usize(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| corrupt("count does not fit in usize"))
    }

    /// Read a collection length whose elements occupy at least `min_elem`
    /// bytes each — bounds the length against the remaining bytes so a
    /// corrupted count cannot trigger a huge allocation.
    fn len(&mut self, min_elem: usize) -> Result<usize> {
        let n = self.usize()?;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("invalid bool byte {b}"))),
        }
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String> {
        let n = self.len(1)?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| corrupt("invalid UTF-8 string"))
    }

    fn rat(&mut self) -> Result<Rat> {
        let s = self.str()?;
        s.parse::<Rat>().map_err(|e| corrupt(format!("bad rational `{s}`: {e}")))
    }

    fn duration(&mut self) -> Result<Duration> {
        Ok(Duration::from_nanos(self.u64()?))
    }

    fn rats(&mut self) -> Result<Vec<Rat>> {
        let n = self.len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.rat()?);
        }
        Ok(out)
    }

    fn interval(&mut self) -> Result<Interval> {
        let lo = self.f64()?;
        let hi = self.f64()?;
        if lo.is_nan() || hi.is_nan() || lo > hi {
            return Err(corrupt(format!("invalid interval [{lo}, {hi}]")));
        }
        Ok(Interval::new(lo, hi))
    }

    fn box_domain(&mut self) -> Result<BoxDomain> {
        let n = self.len(16)?;
        let mut b = BoxDomain::with_len(n);
        for i in 0..n {
            b.set(VarId::from_index(i), self.interval()?);
        }
        Ok(b)
    }

    fn model(&mut self) -> Result<Model> {
        Ok(Model::new(self.rats()?))
    }

    fn scenario(&mut self) -> Result<Scenario> {
        Ok(Scenario::new(self.rats()?))
    }

    fn term_arc(&mut self) -> Result<Arc<Term>> {
        let tag = self.u8()?;
        if tag == 0 {
            let idx = self.usize()?;
            return match self.terms.get(idx) {
                Some(Some(t)) => Ok(t.clone()),
                // A node can never reference itself or an unfinished
                // ancestor: writer backrefs always point at completed
                // subtrees (a term cannot be its own descendant).
                _ => Err(corrupt(format!("term backref {idx} out of range"))),
            };
        }
        // Reserve the slot *before* parsing children so indices line up
        // with the writer's preorder assignment.
        let idx = self.terms.len();
        self.terms.push(None);
        let t = Arc::new(self.term_node(tag)?);
        self.terms[idx] = Some(t.clone());
        Ok(t)
    }

    fn term_node(&mut self, tag: u8) -> Result<Term> {
        Ok(match tag {
            1 => Term::Const(self.rat()?),
            2 => {
                let idx = self.usize()?;
                if u32::try_from(idx).is_err() {
                    return Err(corrupt("variable index overflow"));
                }
                Term::Var(VarId::from_index(idx))
            }
            3 => Term::Neg(self.term_arc()?),
            4 => Term::Add(self.term_arc()?, self.term_arc()?),
            5 => Term::Sub(self.term_arc()?, self.term_arc()?),
            6 => Term::Mul(self.term_arc()?, self.term_arc()?),
            7 => Term::Div(self.term_arc()?, self.term_arc()?),
            8 => Term::Min(self.term_arc()?, self.term_arc()?),
            9 => Term::Max(self.term_arc()?, self.term_arc()?),
            10 => Term::Ite(self.formula_arc()?, self.term_arc()?, self.term_arc()?),
            t => return Err(corrupt(format!("unknown term tag {t}"))),
        })
    }

    fn formula_arc(&mut self) -> Result<Arc<Formula>> {
        let tag = self.u8()?;
        if tag == 0 {
            let idx = self.usize()?;
            return match self.formulas.get(idx) {
                Some(Some(f)) => Ok(f.clone()),
                _ => Err(corrupt(format!("formula backref {idx} out of range"))),
            };
        }
        let idx = self.formulas.len();
        self.formulas.push(None);
        let f = Arc::new(self.formula_node(tag)?);
        self.formulas[idx] = Some(f.clone());
        Ok(f)
    }

    fn formula_node(&mut self, tag: u8) -> Result<Formula> {
        Ok(match tag {
            1 => Formula::True,
            2 => Formula::False,
            3 => {
                let op = cmp_from_tag(self.u8()?)?;
                Formula::Cmp(op, self.term_arc()?, self.term_arc()?)
            }
            4 => {
                let n = self.len(1)?;
                let mut fs = Vec::with_capacity(n);
                for _ in 0..n {
                    let t = self.u8()?;
                    fs.push(self.formula_node(t)?);
                }
                Formula::And(fs)
            }
            5 => {
                let n = self.len(1)?;
                let mut fs = Vec::with_capacity(n);
                for _ in 0..n {
                    let t = self.u8()?;
                    fs.push(self.formula_node(t)?);
                }
                Formula::Or(fs)
            }
            6 => Formula::Not(self.formula_arc()?),
            t => return Err(corrupt(format!("unknown formula tag {t}"))),
        })
    }

    fn telemetry(&mut self) -> Result<SolverTelemetry> {
        Ok(SolverTelemetry {
            queries: self.usize()?,
            boxes_explored: self.usize()?,
            boxes_pruned: self.usize()?,
            residual_boxes: self.usize()?,
            samples_tried: self.usize()?,
            eval_errors: self.usize()?,
            seeding_time: self.duration()?,
            bnp_time: self.duration()?,
            max_workers: self.usize()?,
            cache_hits: self.usize()?,
            clauses_reused: self.usize()?,
        })
    }

    fn stats(&mut self) -> Result<SynthStats> {
        let n = self.len(8)?;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            records.push(IterationRecord {
                index: self.usize()?,
                synthesis_time: self.duration()?,
                scenarios_asked: self.usize()?,
                sat_from_seeding: self.bool()?,
                solver: self.telemetry()?,
            });
        }
        Ok(SynthStats {
            records,
            init_time: self.duration()?,
            total_time: self.duration()?,
            oracle_time: self.duration()?,
            edges_recorded: self.usize()?,
            edges_repaired: self.usize()?,
            solver_totals: self.telemetry()?,
        })
    }

    fn outcome(&mut self) -> Result<Outcome> {
        Ok(match self.u8()? {
            0 => Outcome::Unsat,
            1 => Outcome::DeltaUnsat,
            2 => Outcome::Exhausted,
            3 => Outcome::Sat(self.model()?),
            t => return Err(corrupt(format!("unknown outcome tag {t}"))),
        })
    }
}

fn cmp_from_tag(tag: u8) -> Result<CmpOp> {
    Ok(match tag {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        2 => CmpOp::Gt,
        3 => CmpOp::Ge,
        4 => CmpOp::Eq,
        5 => CmpOp::Ne,
        t => return Err(corrupt(format!("unknown comparison tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------------

/// Serialize a synthesizer's full session state.
///
/// # Errors
/// [`SnapshotError::Corrupt`] if the engine is in a state the format
/// cannot represent (only a failure carrying a full lint report, which can
/// never arise mid-run).
pub fn save(synth: &Synthesizer, session_id: u64) -> Result<Vec<u8>> {
    let mut w = Writer::new();
    w.buf.extend_from_slice(&MAGIC);
    w.u8(VERSION);
    w.u64(session_id);

    // Config section.
    w.str(synth.sketch.source());
    let space = &synth.space;
    w.usize(space.dims());
    for i in 0..space.dims() {
        w.str(space.name(i));
        let (lo, hi) = space.bounds(i);
        w.rat(lo);
        w.rat(hi);
    }
    write_config(&mut w, &synth.cfg);

    // Dynamic section.
    for s in synth.rng.state() {
        w.u64(s);
    }
    w.usize(synth.pool.len());
    for holes in &synth.pool {
        w.rats(holes);
    }
    write_graph(&mut w, &synth.graph);
    w.telemetry(&synth.iter_solver);
    w.stats(&synth.stats);
    write_ctx(&mut w, &synth.ctx);
    write_state(&mut w, &synth.state)?;
    match &synth.cache {
        Some(cache) => {
            w.bool(true);
            write_cache(&mut w, &cache.export());
        }
        None => w.bool(false),
    }
    Ok(w.buf)
}

fn write_config(w: &mut Writer, cfg: &SynthConfig) {
    w.usize(cfg.initial_scenarios);
    w.usize(cfg.pairs_per_iteration);
    w.usize(cfg.max_iterations);
    w.rat(&cfg.margin);
    w.rat(&cfg.tie_tolerance);
    w.rat(&cfg.default_hole_range.0);
    w.rat(&cfg.default_hole_range.1);
    w.u64(cfg.seed);
    w.f64(cfg.solver.delta);
    match &cfg.solver.delta_per_dim {
        Some(ds) => {
            w.bool(true);
            w.usize(ds.len());
            for &d in ds {
                w.f64(d);
            }
        }
        None => w.bool(false),
    }
    w.usize(cfg.solver.max_boxes);
    w.usize(cfg.solver.samples_per_box);
    w.usize(cfg.solver.initial_samples);
    w.usize(cfg.solver.jitters_per_seed);
    w.u64(cfg.solver.seed);
    w.bool(cfg.solver.use_seeding);
    w.usize(cfg.solver.threads);
    w.f64(cfg.delta_rel);
    w.usize(cfg.max_exhausted_streak);
    w.bool(cfg.repair_noise);
    w.usize(cfg.disamb_attempts);
    w.f64(cfg.proof_delta_factor);
    w.bool(cfg.incremental);
    w.u8(match cfg.lint {
        LintPolicy::Deny => 0,
        LintPolicy::Warn => 1,
        LintPolicy::Off => 2,
    });
}

fn write_graph(w: &mut Writer, graph: &PrefGraph<Scenario>) {
    let parts = graph.clone().to_parts();
    w.usize(parts.scenarios.len());
    for s in &parts.scenarios {
        w.scenario(s);
    }
    w.usize(parts.edges.len());
    for e in &parts.edges {
        w.u64(e.preferred.index() as u64);
        w.u64(e.other.index() as u64);
        w.f64(e.confidence);
        w.bool(e.removed);
    }
    w.usize(parts.dsu_parents.len());
    for &p in &parts.dsu_parents {
        w.u64(p as u64);
    }
    w.u64(parts.revision);
}

fn write_ctx(w: &mut Writer, ctx: &LoopCtx) {
    w.usize(ctx.iter);
    w.usize(ctx.feas_seeds.len());
    for m in &ctx.feas_seeds {
        w.model(m);
    }
    w.usize(ctx.exhausted_streak);
    match &ctx.candidate {
        Some(c) => {
            w.bool(true);
            w.rats(c.hole_values());
        }
        None => w.bool(false),
    }
}

fn write_outcome_tag(w: &mut Writer, outcome: SynthOutcome) {
    w.u8(match outcome {
        SynthOutcome::Converged => 0,
        SynthOutcome::ConvergedBudget => 1,
        SynthOutcome::IterationLimit => 2,
    });
}

fn write_state(w: &mut Writer, state: &EngineState) -> Result<()> {
    match state {
        EngineState::Idle => w.u8(0),
        EngineState::AwaitInitial { scenarios } => {
            w.u8(1);
            w.usize(scenarios.len());
            for s in scenarios {
                w.scenario(s);
            }
        }
        EngineState::BetweenIters => w.u8(2),
        EngineState::AwaitPair { pairs, next, synthesis_time, sat_from_seeding, asked } => {
            w.u8(3);
            w.usize(pairs.len());
            for (a, b) in pairs {
                w.scenario(a);
                w.scenario(b);
            }
            w.usize(*next);
            w.duration(*synthesis_time);
            w.bool(*sat_from_seeding);
            w.usize(*asked);
        }
        EngineState::Finishing { outcome } => {
            w.u8(4);
            write_outcome_tag(w, *outcome);
        }
        EngineState::Done { result } => {
            w.u8(5);
            w.rats(result.objective.hole_values());
            write_outcome_tag(w, result.outcome);
            w.stats(&result.stats);
        }
        EngineState::Failed { error } => {
            w.u8(6);
            match error {
                SynthError::NoViableCandidate => w.u8(0),
                SynthError::InconsistentPreferences => w.u8(1),
                SynthError::InvalidRanking => w.u8(2),
                SynthError::NoPendingQuery => w.u8(3),
                SynthError::SpaceMismatch { sketch_params, space_dims } => {
                    w.u8(4);
                    w.usize(*sketch_params);
                    w.usize(*space_dims);
                }
                SynthError::SketchRejected(_) => {
                    // Unreachable in practice: rejection happens in
                    // `Synthesizer::new`, before any session exists.
                    return Err(corrupt("cannot snapshot a sketch-rejection failure"));
                }
            }
        }
    }
    Ok(())
}

fn write_cache(w: &mut Writer, export: &CacheExport) {
    w.usize(export.memo.len());
    for (key, entry) in &export.memo {
        w.formula_node(&key.formula);
        w.box_domain(&key.domain);
        w.usize(key.seeds.len());
        for m in &key.seeds {
            w.model(m);
        }
        w.usize(key.max_boxes);
        w.u64(key.seed);
        w.f64(key.delta);
        match &key.delta_per_dim {
            Some(ds) => {
                w.bool(true);
                w.usize(ds.len());
                for &d in ds {
                    w.f64(d);
                }
            }
            None => w.bool(false),
        }
        w.outcome(&entry.outcome);
        w.bool(entry.sat_from_seeding);
    }
    w.usize(export.stats.cache_hits);
    w.usize(export.stats.cache_misses);
}

// ---------------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------------

/// Deserialize a snapshot back into a synthesizer and its session id.
///
/// The static parts (sketch, space, config) rebuild the synthesizer
/// through [`Synthesizer::new`]; the dynamic parts then overwrite its
/// state, so resuming is byte-identical to never having suspended.
///
/// # Errors
/// Any [`SnapshotError`]: bad magic, unsupported version, truncation,
/// structural corruption, or a sketch/config the current process rejects.
pub fn load(bytes: &[u8]) -> Result<(Synthesizer, u64)> {
    let mut r = Reader::new(bytes);
    let magic = r.take(MAGIC.len()).map_err(|_| SnapshotError::BadMagic)?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let session_id = r.u64()?;

    // Config section.
    let source = r.str()?;
    let sketch = Sketch::parse(&source).map_err(|e| corrupt(format!("bad sketch source: {e}")))?;
    let dims = r.len(8)?;
    if dims == 0 {
        return Err(corrupt("metric space has no metrics"));
    }
    let mut metrics = Vec::with_capacity(dims);
    for _ in 0..dims {
        let name = r.str()?;
        let lo = r.rat()?;
        let hi = r.rat()?;
        if lo > hi {
            return Err(corrupt(format!("metric `{name}` has lo > hi")));
        }
        metrics.push((name, lo, hi));
    }
    let space = MetricSpace::new(
        metrics.iter().map(|(n, lo, hi)| (n.as_str(), lo.clone(), hi.clone())).collect(),
    );
    let cfg = read_config(&mut r)?;

    let mut synth = Synthesizer::new(sketch, space, cfg).map_err(SnapshotError::Rejected)?;

    // Dynamic section.
    let rng_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    synth.rng = Rng::from_state(rng_state);
    let pool_len = r.len(8)?;
    let mut pool = Vec::with_capacity(pool_len);
    for _ in 0..pool_len {
        pool.push(r.rats()?);
    }
    synth.pool = pool;
    synth.graph = read_graph(&mut r)?;
    synth.vertex_of =
        synth.graph.scenario_ids().map(|id| (synth.graph.scenario(id).clone(), id)).collect();
    synth.iter_solver = r.telemetry()?;
    synth.stats = r.stats()?;
    synth.ctx = read_ctx(&mut r, &synth)?;
    synth.state = read_state(&mut r, &synth)?;
    let has_cache = r.bool()?;
    if has_cache {
        let export = read_cache(&mut r)?;
        // Re-import only if this process also runs incrementally; with the
        // cache forced off the memo is dropped (outcomes are
        // byte-identical either way — the cache is an optimization).
        if synth.cache.is_some() {
            synth.cache = Some(SolverCache::import(export));
        }
    }
    if r.remaining() != 0 {
        return Err(corrupt(format!("{} trailing bytes after snapshot", r.remaining())));
    }
    Ok((synth, session_id))
}

fn read_config(r: &mut Reader<'_>) -> Result<SynthConfig> {
    // Field order mirrors `write_config` exactly.
    let initial_scenarios = r.usize()?;
    let pairs_per_iteration = r.usize()?;
    let max_iterations = r.usize()?;
    let margin = r.rat()?;
    let tie_tolerance = r.rat()?;
    let default_hole_range = (r.rat()?, r.rat()?);
    let seed = r.u64()?;
    let delta = r.f64()?;
    let delta_per_dim = if r.bool()? {
        let n = r.len(8)?;
        let mut ds = Vec::with_capacity(n);
        for _ in 0..n {
            ds.push(r.f64()?);
        }
        Some(ds)
    } else {
        None
    };
    let max_boxes = r.usize()?;
    let samples_per_box = r.usize()?;
    let initial_samples = r.usize()?;
    let jitters_per_seed = r.usize()?;
    let solver_seed = r.u64()?;
    let use_seeding = r.bool()?;
    let threads = r.usize()?;
    let solver = SolverConfig {
        delta,
        delta_per_dim,
        max_boxes,
        samples_per_box,
        initial_samples,
        jitters_per_seed,
        seed: solver_seed,
        use_seeding,
        threads,
    };
    let delta_rel = r.f64()?;
    let max_exhausted_streak = r.usize()?;
    let repair_noise = r.bool()?;
    let disamb_attempts = r.usize()?;
    let proof_delta_factor = r.f64()?;
    let incremental = r.bool()?;
    let lint = match r.u8()? {
        0 => LintPolicy::Deny,
        1 => LintPolicy::Warn,
        2 => LintPolicy::Off,
        t => return Err(corrupt(format!("unknown lint policy tag {t}"))),
    };
    Ok(SynthConfig {
        initial_scenarios,
        pairs_per_iteration,
        max_iterations,
        margin,
        tie_tolerance,
        default_hole_range,
        seed,
        solver,
        delta_rel,
        max_exhausted_streak,
        repair_noise,
        disamb_attempts,
        proof_delta_factor,
        incremental,
        lint,
    })
}

fn read_graph(r: &mut Reader<'_>) -> Result<PrefGraph<Scenario>> {
    let n = r.len(8)?;
    let mut scenarios = Vec::with_capacity(n);
    for _ in 0..n {
        scenarios.push(r.scenario()?);
    }
    let ne = r.len(18)?;
    let mut edges = Vec::with_capacity(ne);
    for _ in 0..ne {
        let preferred = ScenarioId::from_index(r.usize()?);
        let other = ScenarioId::from_index(r.usize()?);
        let confidence = r.f64()?;
        if !confidence.is_finite() {
            return Err(corrupt("edge confidence is not finite"));
        }
        let removed = r.bool()?;
        edges.push(PrefEdge { preferred, other, confidence, removed });
    }
    let np = r.len(8)?;
    let mut dsu_parents = Vec::with_capacity(np);
    for _ in 0..np {
        dsu_parents.push(r.usize()?);
    }
    let revision = r.u64()?;
    PrefGraph::from_parts(GraphParts { scenarios, edges, dsu_parents, revision }).map_err(corrupt)
}

fn read_ctx(r: &mut Reader<'_>, synth: &Synthesizer) -> Result<LoopCtx> {
    let iter = r.usize()?;
    let n = r.len(8)?;
    let mut feas_seeds = Vec::with_capacity(n);
    for _ in 0..n {
        feas_seeds.push(r.model()?);
    }
    let exhausted_streak = r.usize()?;
    let candidate = if r.bool()? {
        let holes = r.rats()?;
        Some(
            synth
                .sketch
                .complete(holes)
                .map_err(|e| corrupt(format!("candidate does not fit sketch: {e}")))?,
        )
    } else {
        None
    };
    Ok(LoopCtx { iter, feas_seeds, exhausted_streak, candidate })
}

fn read_outcome_tag(r: &mut Reader<'_>) -> Result<SynthOutcome> {
    Ok(match r.u8()? {
        0 => SynthOutcome::Converged,
        1 => SynthOutcome::ConvergedBudget,
        2 => SynthOutcome::IterationLimit,
        t => return Err(corrupt(format!("unknown synthesis outcome tag {t}"))),
    })
}

fn read_state(r: &mut Reader<'_>, synth: &Synthesizer) -> Result<EngineState> {
    Ok(match r.u8()? {
        0 => EngineState::Idle,
        1 => {
            let n = r.len(8)?;
            let mut scenarios = Vec::with_capacity(n);
            for _ in 0..n {
                scenarios.push(r.scenario()?);
            }
            EngineState::AwaitInitial { scenarios }
        }
        2 => EngineState::BetweenIters,
        3 => {
            let n = r.len(16)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let a = r.scenario()?;
                let b = r.scenario()?;
                pairs.push((a, b));
            }
            let next = r.usize()?;
            if next >= pairs.len().max(1) {
                return Err(corrupt(format!("pair cursor {next} out of range")));
            }
            let synthesis_time = r.duration()?;
            let sat_from_seeding = r.bool()?;
            let asked = r.usize()?;
            EngineState::AwaitPair { pairs, next, synthesis_time, sat_from_seeding, asked }
        }
        4 => EngineState::Finishing { outcome: read_outcome_tag(r)? },
        5 => {
            let holes = r.rats()?;
            let objective = synth
                .sketch
                .complete(holes)
                .map_err(|e| corrupt(format!("result does not fit sketch: {e}")))?;
            let outcome = read_outcome_tag(r)?;
            let stats = r.stats()?;
            EngineState::Done { result: SynthResult { objective, outcome, stats } }
        }
        6 => {
            let error = match r.u8()? {
                0 => SynthError::NoViableCandidate,
                1 => SynthError::InconsistentPreferences,
                2 => SynthError::InvalidRanking,
                3 => SynthError::NoPendingQuery,
                4 => {
                    SynthError::SpaceMismatch { sketch_params: r.usize()?, space_dims: r.usize()? }
                }
                t => return Err(corrupt(format!("unknown error tag {t}"))),
            };
            EngineState::Failed { error }
        }
        t => return Err(corrupt(format!("unknown engine state tag {t}"))),
    })
}

fn read_cache(r: &mut Reader<'_>) -> Result<CacheExport> {
    let n = r.len(8)?;
    let mut memo = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = r.u8()?;
        let formula = r.formula_node(tag)?;
        let domain = r.box_domain()?;
        let ns = r.len(8)?;
        let mut seeds = Vec::with_capacity(ns);
        for _ in 0..ns {
            seeds.push(r.model()?);
        }
        let max_boxes = r.usize()?;
        let seed = r.u64()?;
        let delta = r.f64()?;
        let delta_per_dim = if r.bool()? {
            let nd = r.len(8)?;
            let mut ds = Vec::with_capacity(nd);
            for _ in 0..nd {
                ds.push(r.f64()?);
            }
            Some(ds)
        } else {
            None
        };
        let outcome = r.outcome()?;
        let sat_from_seeding = r.bool()?;
        memo.push((
            QueryKey { formula, domain, seeds, max_boxes, seed, delta, delta_per_dim },
            MemoEntry { outcome, sat_from_seeding },
        ));
    }
    let stats = CacheStats { cache_hits: r.usize()?, cache_misses: r.usize()? };
    Ok(CacheExport { memo, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthConfig;
    use cso_numeric::Rat;

    fn tiny_synth() -> Synthesizer {
        let cfg = SynthConfig { seed: 7, ..SynthConfig::fast_test() };
        Synthesizer::new(cso_sketch::swan::swan_sketch(), MetricSpace::swan(), cfg)
            .expect("synthesizer builds")
    }

    #[test]
    fn fresh_engine_snapshot_round_trips_bytewise() {
        let synth = tiny_synth();
        let bytes = save(&synth, 42).expect("snapshot");
        let (restored, sid) = load(&bytes).expect("restore");
        assert_eq!(sid, 42);
        let again = save(&restored, 42).expect("re-snapshot");
        assert_eq!(bytes, again, "snapshot(restore(s)) must equal s");
    }

    #[test]
    fn bad_magic_and_version_are_clean_errors() {
        assert!(matches!(load(b"not a snapshot at all"), Err(SnapshotError::BadMagic)));
        assert!(matches!(load(b""), Err(SnapshotError::BadMagic)));
        let synth = tiny_synth();
        let mut bytes = save(&synth, 1).expect("snapshot");
        bytes[MAGIC.len()] = 99;
        assert!(matches!(load(&bytes), Err(SnapshotError::UnsupportedVersion(99))));
        // The previous format (with the solver's `tape` byte) is refused.
        bytes[MAGIC.len()] = 3;
        assert!(matches!(load(&bytes), Err(SnapshotError::UnsupportedVersion(3))));
    }

    #[test]
    fn every_truncation_is_a_clean_error() {
        let synth = tiny_synth();
        let bytes = save(&synth, 3).expect("snapshot");
        // Any prefix must fail cleanly — never panic, never succeed.
        for cut in 0..bytes.len() {
            let err = load(&bytes[..cut]).expect_err("prefix must not restore");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated | SnapshotError::BadMagic | SnapshotError::Corrupt(_)
                ),
                "cut at {cut}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn rat_encoding_is_exact() {
        let mut w = Writer::new();
        let vals =
            [Rat::from_int(0), Rat::from_int(-17), Rat::from_frac(22, 7), Rat::from_frac(-1, 3)];
        for v in &vals {
            w.rat(v);
        }
        let mut r = Reader::new(&w.buf);
        for v in &vals {
            assert_eq!(&r.rat().expect("decodes"), v);
        }
    }

    #[test]
    fn corrupted_rational_is_rejected() {
        let mut w = Writer::new();
        w.str("1/0");
        let mut r = Reader::new(&w.buf);
        assert!(matches!(r.rat(), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn term_dedup_uses_backrefs() {
        let shared = Arc::new(Term::Var(VarId::from_index(0)));
        let t = Term::Add(shared.clone(), shared.clone());
        let mut w = Writer::new();
        w.term_node(&t);
        let mut r = Reader::new(&w.buf);
        let tag = r.u8().expect("tag");
        let back = r.term_node(tag).expect("decodes");
        assert_eq!(back, t);
        // One shared child: the writer must have emitted exactly one
        // structural node plus one backref, not two structural nodes.
        assert_eq!(w.terms.len(), 1);
    }
}
