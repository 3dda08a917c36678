//! Zero-dependency session snapshots.
//!
//! A snapshot is a versioned, deterministic byte serialization of a parked
//! synthesis session: the sketch source, metric space and full
//! configuration, plus every piece of dynamic state the engine carries —
//! preference graph, RNG stream position, feasibility-seed pool,
//! accumulated statistics, and the exact
//! [`EngineState`](crate::engine) the session is parked in. Restoring a
//! snapshot and resuming produces *byte-identical* results to an
//! uninterrupted run (enforced by the `session_resume` differential tests).
//!
//! # Format
//!
//! ```text
//! magic   8 bytes  "CSOSNAP\0"
//! version 1 byte   currently 9 (see [`VERSION`])
//! session 8 bytes  session id, little-endian u64
//! config  sketch source, metric space, SynthConfig
//! state   rng, pool, graph, stats, loop context, engine state
//! ```
//!
//! All integers are little-endian `u64` (or a single tag byte); strings
//! are length-prefixed UTF-8; rationals travel as their exact decimal
//! `numer/denom` rendering; floats as IEEE-754 bit patterns. The state is
//! plain data in a fixed order, so `snapshot(restore(s)) == s`.
//!
//! Snapshots carry state only; the engine keeps no caches. A custom
//! viability constraint installed with `set_viability` is not captured
//! (nothing in the repo snapshots mid-run with one installed).

use crate::config::{LintPolicy, SynthConfig};
use crate::engine::{EngineState, LoopCtx, SynthError, SynthOutcome, SynthResult, Synthesizer};
use crate::scenario::{MetricSpace, Scenario};
use crate::stats::{IterationRecord, SolverTelemetry, SynthStats};
use cso_logic::solver::SolverConfig;
use cso_logic::Model;
use cso_numeric::Rat;
use cso_prefgraph::{GraphParts, PrefEdge, PrefGraph, ScenarioId};
use cso_runtime::Rng;
use cso_sketch::Sketch;
use std::fmt;
use std::time::Duration;

/// Leading magic bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"CSOSNAP\0";
/// Current snapshot format version. Version 2 added the solver's `tape`
/// toggle to the config section; version 3 dropped the warm-start
/// frontiers, the semantic and graph epochs, and the analyzer's
/// box-tightening toggle; version 4 dropped the `tape` toggle again;
/// version 5 dropped the solver memo (and with it the term and formula
/// encoding) and the telemetry's always-zero `cache_hits`; version 6
/// dropped the config's clause-cache toggle, the graph's change counter
/// and the telemetry's reused-clause count; version 7 dropped the solver's
/// `threads` word and the telemetry's largest worker count; version 8
/// dropped the solver's samples-per-box word (branch-and-prune draws one
/// sample per box); version 9 dropped the solver's `delta`, which no
/// engine query reads (each sets a δ per dimension), so a restored
/// session carries the default.
pub const VERSION: u8 = 9;

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

/// Byte writer.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer { buf: Vec::new() }
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

    fn model(&mut self, m: &Model) {
        self.rats(m.values());
    }

    fn scenario(&mut self, s: &Scenario) {
        self.rats(s.values());
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
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Byte reader mirroring [`Writer`].
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
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

    fn model(&mut self) -> Result<Model> {
        Ok(Model::new(self.rats()?))
    }

    fn scenario(&mut self) -> Result<Scenario> {
        Ok(Scenario::new(self.rats()?))
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
            cache_hits: 0,
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
    w.usize(cfg.solver.initial_samples);
    w.usize(cfg.solver.jitters_per_seed);
    w.u64(cfg.solver.seed);
    w.bool(cfg.solver.use_seeding);
    w.f64(cfg.delta_rel);
    w.usize(cfg.max_exhausted_streak);
    w.bool(cfg.repair_noise);
    w.usize(cfg.disamb_attempts);
    w.f64(cfg.proof_delta_factor);
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
                SynthError::CandidateSearchExhausted => w.u8(5),
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
    let initial_samples = r.usize()?;
    let jitters_per_seed = r.usize()?;
    let solver_seed = r.u64()?;
    let use_seeding = r.bool()?;
    let solver = SolverConfig {
        delta_per_dim,
        max_boxes,
        initial_samples,
        jitters_per_seed,
        seed: solver_seed,
        use_seeding,
        ..SolverConfig::default()
    };
    let delta_rel = r.f64()?;
    let max_exhausted_streak = r.usize()?;
    let repair_noise = r.bool()?;
    let disamb_attempts = r.usize()?;
    let proof_delta_factor = r.f64()?;
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
    PrefGraph::from_parts(GraphParts { scenarios, edges, dsu_parents }).map_err(corrupt)
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
            if next >= pairs.len() {
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
                5 => SynthError::CandidateSearchExhausted,
                t => return Err(corrupt(format!("unknown error tag {t}"))),
            };
            EngineState::Failed { error }
        }
        t => return Err(corrupt(format!("unknown engine state tag {t}"))),
    })
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
        // Earlier formats are refused: v3 (with the solver's `tape` byte),
        // v4 (with the solver memo), v5 (with the clause-cache toggle), v6
        // (with the solver's thread count and the telemetry's worker count),
        // v7 (with the solver's samples per box) and v8 (with the solver's
        // `delta`).
        for old in [3, 4, 5, 6, 7, 8] {
            bytes[MAGIC.len()] = old;
            assert!(matches!(load(&bytes), Err(SnapshotError::UnsupportedVersion(v)) if v == old));
        }
    }

    /// A session parked in `AwaitPair` after the initial ranking.
    fn parked_synth() -> Synthesizer {
        use crate::engine::StepResult;
        use crate::oracle::{GroundTruthOracle, Oracle};
        let mut synth = tiny_synth();
        let mut oracle = GroundTruthOracle::new(cso_sketch::swan::swan_target());
        let StepResult::NeedsRanking { scenarios, .. } = synth.step() else {
            panic!("a fresh engine asks for the initial ranking");
        };
        synth.answer(&oracle.rank(&scenarios)).expect("initial ranking records");
        assert!(matches!(synth.step(), StepResult::NeedsRanking { iteration: 1, .. }));
        assert!(matches!(synth.state, EngineState::AwaitPair { .. }));
        synth
    }

    #[test]
    fn every_truncation_is_a_clean_error() {
        for synth in [tiny_synth(), parked_synth()] {
            let bytes = save(&synth, 3).expect("snapshot");
            // Any prefix must fail cleanly — never panic, never succeed.
            for cut in 0..bytes.len() {
                let err = load(&bytes[..cut]).expect_err("prefix must not restore");
                assert!(
                    matches!(
                        err,
                        SnapshotError::Truncated
                            | SnapshotError::BadMagic
                            | SnapshotError::Corrupt(_)
                    ),
                    "cut at {cut}: unexpected error {err}"
                );
            }
        }
    }

    #[test]
    fn every_byte_mutation_of_a_parked_snapshot_restores_or_errs() {
        let bytes = save(&parked_synth(), 3).expect("snapshot");
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80] {
                let mut bad = bytes.clone();
                bad[i] ^= flip;
                // A restore may succeed (the byte was a value, not
                // structure); stepping it must then not panic.
                if let Ok((mut synth, _)) = load(&bad) {
                    let _ = synth.step();
                }
            }
        }
    }

    #[test]
    fn empty_pair_list_is_corrupt() {
        let mut synth = tiny_synth();
        synth.state = EngineState::AwaitPair {
            pairs: Vec::new(),
            next: 0,
            synthesis_time: Duration::ZERO,
            sat_from_seeding: false,
            asked: 0,
        };
        let bytes = save(&synth, 3).expect("snapshot");
        assert!(matches!(load(&bytes), Err(SnapshotError::Corrupt(_))));
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
}
