//! The interactive comparative-synthesis loop (paper §4.2, Figure 1).

use crate::config::{LintPolicy, SynthConfig};
use crate::oracle::{Oracle, Ranking};
use crate::query::QueryBuilder;
use crate::scenario::{MetricSpace, Scenario};
use crate::stats::{IterationRecord, SolverTelemetry, SynthStats, Verdict, Work};
use cso_analysis::{analyze, AnalysisConfig, Report};
use cso_logic::solver::{Outcome, Solver, SolverConfig};
use cso_logic::BoxDomain;
use cso_logic::{CompiledQuery, Formula, Model};
use cso_prefgraph::{PrefGraph, ScenarioId};
use cso_runtime::hash::Fnv64;
use cso_runtime::metrics::{self, Counter, Histogram};
use cso_runtime::trace::{self, Value};
use cso_runtime::Rng;
use cso_sketch::{CompletedObjective, Sketch};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// How a synthesis run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthOutcome {
    /// The disambiguation query became (δ-)unsatisfiable: every candidate
    /// consistent with the preferences is margin-equivalent to the result.
    Converged,
    /// Repeated solver exhaustion: no distinguishing pair could be found
    /// within budget. The result is the best known candidate.
    ConvergedBudget,
    /// The iteration cap was reached first.
    IterationLimit,
}

/// A successful synthesis run: the learnt objective plus statistics.
#[derive(Debug, Clone)]
pub struct SynthResult {
    /// The learnt objective function.
    pub objective: CompletedObjective,
    /// Why the loop stopped.
    pub outcome: SynthOutcome,
    /// Timing and interaction statistics.
    pub stats: SynthStats,
}

/// Synthesis failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthError {
    /// Sketch parameters do not match the metric space.
    SpaceMismatch {
        /// Sketch parameter count.
        sketch_params: usize,
        /// Metric space dimension count.
        space_dims: usize,
    },
    /// No hole assignment satisfies the recorded preferences: either the
    /// sketch cannot express the user's intent or the answers are noisy
    /// (enable `repair_noise` for the latter). Reported only when the
    /// feasibility query is proven unsatisfiable.
    NoViableCandidate,
    /// The feasibility search ran out of box budget at every escalation
    /// without finding a candidate or proving that none exists.
    CandidateSearchExhausted,
    /// The oracle produced contradictory preferences and repair is
    /// disabled.
    InconsistentPreferences,
    /// The oracle returned a ranking that does not cover the query.
    InvalidRanking,
    /// Static analysis found `Error`-level defects in the sketch and the
    /// lint policy is [`LintPolicy::Deny`]. Carries the full report so
    /// callers can render the findings (spans, codes, messages).
    SketchRejected(Report),
    /// [`Synthesizer::answer`] was called while no ranking query was
    /// pending (the engine was not parked in a `NeedsRanking` state).
    NoPendingQuery,
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::SpaceMismatch { sketch_params, space_dims } => {
                write!(f, "sketch takes {sketch_params} metrics but the space has {space_dims}")
            }
            SynthError::NoViableCandidate => {
                write!(f, "no hole assignment satisfies the recorded preferences")
            }
            SynthError::CandidateSearchExhausted => {
                write!(f, "the candidate search ran out of budget without deciding feasibility")
            }
            SynthError::InconsistentPreferences => {
                write!(f, "oracle answers are contradictory and repair is disabled")
            }
            SynthError::InvalidRanking => write!(f, "oracle ranking does not cover the query"),
            SynthError::SketchRejected(report) => {
                write!(f, "sketch rejected by static analysis: {}", report.summary())
            }
            SynthError::NoPendingQuery => {
                write!(f, "answer() called while no ranking query is pending")
            }
        }
    }
}

impl std::error::Error for SynthError {}

/// What one call to [`Synthesizer::step`] produced.
///
/// The engine runs until it either needs an oracle answer (park the
/// session, ship the query to the architect, resume with
/// [`Synthesizer::answer`]) or terminates. Terminal states are sticky:
/// further `step` calls replay the same result.
#[derive(Debug, Clone)]
pub enum StepResult {
    /// The engine needs the oracle to rank `scenarios` before it can make
    /// progress. `iteration` is 0 for the initial ranking, otherwise the
    /// 1-based iteration the pair belongs to. `session_id` is 0 at the
    /// engine layer; [`crate::session::Session`] stamps its own id.
    NeedsRanking {
        /// The scenarios to rank (the initial batch, or a pair).
        scenarios: Vec<Scenario>,
        /// Owning session id (0 when driven directly on a `Synthesizer`).
        session_id: u64,
        /// Iteration the query belongs to (0 = initial ranking).
        iteration: usize,
    },
    /// The run finished; boxed because the result (objective + full stats)
    /// dwarfs the other variants.
    Done(Box<SynthResult>),
    /// The run failed. Sticky: the session cannot be resumed.
    Rejected(SynthError),
}

/// Where the steppable engine is parked between [`Synthesizer::step`]
/// calls. The variants mirror the suspension points of the original
/// synchronous loop: before the initial ranking is answered, between
/// iterations, and inside an iteration's pair-ranking phase.
#[derive(Debug, Clone)]
pub(crate) enum EngineState {
    /// Fresh engine (or `run` restart): nothing has happened yet.
    Idle,
    /// Initial scenarios sampled; waiting for the oracle's ranking.
    AwaitInitial {
        /// The sampled initial scenarios.
        scenarios: Vec<Scenario>,
    },
    /// Ready to start the next iteration.
    BetweenIters,
    /// An iteration produced distinguishing pairs; waiting for rankings.
    AwaitPair {
        /// All pairs produced by the iteration.
        pairs: Vec<(Scenario, Scenario)>,
        /// Index of the pair whose ranking is pending.
        next: usize,
        /// The iteration's synthesis (solver) time, measured before parking.
        synthesis_time: std::time::Duration,
        /// Whether any pair search satisfied from seeding.
        sat_from_seeding: bool,
        /// Scenarios asked so far in this iteration.
        asked: usize,
    },
    /// Loop ended; the final objective still has to be resolved.
    Finishing {
        /// Why the loop stopped.
        outcome: SynthOutcome,
    },
    /// Terminal success.
    Done {
        /// The finished result, replayed by further `step` calls.
        result: SynthResult,
    },
    /// Terminal failure.
    Failed {
        /// The error, replayed by further `step` calls.
        error: SynthError,
    },
}

/// Loop-carried state of the iteration driver, split from [`EngineState`]
/// because it survives across parks within a run.
#[derive(Debug, Clone, Default)]
pub(crate) struct LoopCtx {
    /// Iterations started so far (the current iteration number once one
    /// is underway; `max_iterations` ends the run).
    pub(crate) iter: usize,
    /// Feasibility seeds for the next candidate search.
    pub(crate) feas_seeds: Vec<Model>,
    /// Consecutive iterations whose pair search exhausted its budget.
    pub(crate) exhausted_streak: usize,
    /// Best candidate so far (the result objective once the loop ends).
    pub(crate) candidate: Option<CompletedObjective>,
}

/// Cap on the candidate seed pool.
const POOL_CAP: usize = 4;

/// Site tags distinguishing the four solver call sites in content hashes.
const SITE_CANDIDATE: u64 = 1;
const SITE_FB: u64 = 2;
const SITE_SCENARIO: u64 = 3;
const SITE_PROOF: u64 = 4;

/// Process-wide lint-policy override: `CSO_LINT=deny|warn|off` wins over
/// [`SynthConfig::lint`]; unset or unrecognized values defer to the
/// configuration.
fn lint_env_policy() -> Option<LintPolicy> {
    static POLICY: std::sync::OnceLock<Option<LintPolicy>> = std::sync::OnceLock::new();
    *POLICY.get_or_init(|| match std::env::var("CSO_LINT").ok().as_deref() {
        Some("deny") => Some(LintPolicy::Deny),
        Some("warn") => Some(LintPolicy::Warn),
        Some("off" | "0") => Some(LintPolicy::Off),
        _ => None,
    })
}

/// Diagnostic message under the `[synth]` scope. Routed through
/// [`cso_runtime::trace`]: `CSO_TRACE=pretty` prints these to stderr, and
/// JSONL sinks capture them as structured `Message` events.
fn synth_msg(args: std::fmt::Arguments<'_>) {
    trace::message("synth", args);
}

/// Result of one distinguishing-pair search.
enum PairSearch {
    /// A pair was found. Carries the second candidate's hole values to
    /// seed the next feasibility search.
    Found { pair: (Scenario, Scenario), from_seeding: bool, fb_holes: Vec<cso_numeric::Rat> },
    /// Proven (δ-)unsatisfiable: candidates are margin-equivalent.
    Converged,
    /// Budget ran out without a decision.
    Exhausted,
}

/// The comparative synthesizer.
///
/// Internals are `pub(crate)` where the sibling snapshot module
/// serializes them; the public API is unchanged.
#[derive(Debug)]
pub struct Synthesizer {
    pub(crate) sketch: Sketch,
    pub(crate) cfg: SynthConfig,
    qb: QueryBuilder,
    /// Solver domain every query runs over: the query builder's box,
    /// computed once per synthesizer.
    domain: BoxDomain,
    /// Static-analysis report, when the lint policy ran the analyzer.
    lint_report: Option<Report>,
    pub(crate) graph: PrefGraph<Scenario>,
    pub(crate) vertex_of: HashMap<Scenario, ScenarioId>,
    pub(crate) rng: Rng,
    pub(crate) space: MetricSpace,
    /// Pool of hole assignments that satisfied some recent feasibility
    /// query; used to seed later searches (most recent first, bounded).
    pub(crate) pool: Vec<Vec<cso_numeric::Rat>>,
    /// Solver telemetry accumulated since the current iteration started
    /// (drained into each [`IterationRecord`]).
    pub(crate) iter_solver: SolverTelemetry,
    /// Where the steppable engine is parked (see [`EngineState`]).
    pub(crate) state: EngineState,
    /// Loop-carried iteration state (see [`LoopCtx`]).
    pub(crate) ctx: LoopCtx,
    /// Statistics of the current/last run.
    pub stats: SynthStats,
}

impl Synthesizer {
    /// Set up a synthesizer for `sketch` over `space`.
    ///
    /// # Errors
    /// Returns [`SynthError::SpaceMismatch`] if the sketch arity differs
    /// from the space dimension count, or [`SynthError::SketchRejected`]
    /// when static analysis finds `Error`-level defects under the
    /// [`LintPolicy::Deny`] policy.
    pub fn new(
        sketch: Sketch,
        space: MetricSpace,
        cfg: SynthConfig,
    ) -> Result<Synthesizer, SynthError> {
        if sketch.params().len() != space.dims() {
            return Err(SynthError::SpaceMismatch {
                sketch_params: sketch.params().len(),
                space_dims: space.dims(),
            });
        }
        let qb = QueryBuilder::new(sketch.clone(), space.clone(), &cfg);
        let domain = qb.domain();
        let mut lint_report = None;
        let policy = lint_env_policy().unwrap_or(cfg.lint);
        if policy != LintPolicy::Off {
            let analysis = analyze(
                &sketch,
                &AnalysisConfig {
                    param_bounds: space.all_bounds().to_vec(),
                    default_hole_range: cfg.default_hole_range.clone(),
                },
            );
            for d in analysis.report.diagnostics() {
                synth_msg(format_args!(
                    "lint {}[{}] at {}: {}",
                    d.severity.as_str(),
                    d.code,
                    d.span,
                    d.message
                ));
            }
            if policy == LintPolicy::Deny && analysis.report.has_errors() {
                return Err(SynthError::SketchRejected(analysis.report));
            }
            lint_report = Some(analysis.report);
        }
        let rng = Rng::seed_from_u64(cfg.seed);
        Ok(Synthesizer {
            sketch,
            cfg,
            qb,
            domain,
            lint_report,
            graph: PrefGraph::new(),
            vertex_of: HashMap::new(),
            rng,
            space,
            pool: Vec::new(),
            iter_solver: SolverTelemetry::default(),
            state: EngineState::Idle,
            ctx: LoopCtx::default(),
            stats: SynthStats::default(),
        })
    }

    /// Install an extra viability constraint over hole variables (the
    /// paper's `Viable(f)`; SWAN needs none).
    pub fn set_viability(&mut self, f: cso_logic::Formula) {
        self.qb.set_viability(f);
    }

    /// Read-only view of the preference graph built so far.
    #[must_use]
    pub fn graph(&self) -> &PrefGraph<Scenario> {
        &self.graph
    }

    /// The static-analysis report, when the lint policy ran the analyzer
    /// (`None` under [`LintPolicy::Off`]).
    #[must_use]
    pub fn lint_report(&self) -> Option<&Report> {
        self.lint_report.as_ref()
    }

    /// A solver configuration with δ scaled by `delta_factor` and the box
    /// budget scaled by `budget_factor`. Fast-path sub-queries are
    /// low-dimensional, so they run on a fraction of the budget; the joint
    /// convergence proof gets the full budget.
    fn scaled_config(&self, seed_salt: u64, delta_factor: f64, budget_factor: f64) -> SolverConfig {
        let mut sc: SolverConfig = self.cfg.solver.clone();
        let deltas: Vec<f64> =
            self.qb.deltas(self.cfg.delta_rel).into_iter().map(|d| d * delta_factor).collect();
        sc.delta_per_dim = Some(deltas);
        sc.max_boxes = Self::scale_budget(sc.max_boxes, budget_factor);
        sc.seed = self.cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(seed_salt);
        sc
    }

    /// Content-derived solver seed salt: a hash of everything that defines
    /// the query (call site, formula, seed models, scale factors). With
    /// salts derived from content instead of the iteration number,
    /// logically identical queries are *bit-identical* solver invocations,
    /// wherever in the run they are issued.
    fn content_salt(
        site: u64,
        f: &Formula,
        seeds: &[Model],
        delta_factor: f64,
        budget_factor: f64,
    ) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(site);
        f.hash(&mut h);
        seeds.hash(&mut h);
        h.write_u64(delta_factor.to_bits());
        h.write_u64(budget_factor.to_bits());
        h.finish()
    }

    /// Solve `f` over the query domain and publish the work. Returns the
    /// outcome and whether seeding found the model.
    fn solve(
        &mut self,
        site: u64,
        f: &Formula,
        seeds: &[Model],
        delta_factor: f64,
        budget_factor: f64,
    ) -> (Outcome, bool) {
        let salt = Self::content_salt(site, f, seeds, delta_factor, budget_factor);
        let sc = self.scaled_config(salt, delta_factor, budget_factor);
        // Seeded with the (fixed) query domain, which feeds the tape's
        // decided-verdict pass.
        let q = CompiledQuery::prepare(f, Some(&self.domain), true);
        let mut solver = Solver::new(sc);
        let out = solver.solve_compiled(&q, &self.domain, seeds);
        let stats = solver.stats;
        self.publish(Work::Query { stats, outcome: Some(Verdict::from(&out)) });
        (out, stats.sat_from_seeding)
    }

    /// Scale a box budget by `factor`, clamped to `[MIN, MAX]`. A plain
    /// `as usize` cast would saturate silently (and the saturation value is
    /// platform-width dependent); extreme factors — escalation multipliers
    /// compose — must land on an explicit, portable cap instead.
    fn scale_budget(max_boxes: usize, factor: f64) -> usize {
        /// Floor keeping escalation retries meaningful.
        const MIN_BOX_BUDGET: usize = 1_000;
        /// Cap: ~hours of branch-and-prune, far beyond any useful budget.
        const MAX_BOX_BUDGET: usize = 100_000_000;
        let scaled = max_boxes as f64 * factor;
        if scaled.is_nan() {
            return MIN_BOX_BUDGET;
        }
        if scaled >= MAX_BOX_BUDGET as f64 {
            return MAX_BOX_BUDGET;
        }
        (scaled as usize).clamp(MIN_BOX_BUDGET, MAX_BOX_BUDGET)
    }

    /// Publish one unit of solver work — the only place solver work is
    /// published. Folds the record into the iteration and run telemetry,
    /// emits its trace counter, and, when metrics are on, updates the
    /// Prometheus counters.
    pub(crate) fn publish(&mut self, work: Work) {
        self.iter_solver.add(&work);
        self.stats.solver_totals.add(&work);
        trace::counter(work.name(), || work.fields());
        if !metrics::enabled() {
            return;
        }
        static QUERIES: Counter = Counter::new("cso_solver_queries_total");
        static SAT: Counter = Counter::new("cso_solver_sat_total");
        static UNSAT: Counter = Counter::new("cso_solver_unsat_total");
        static DELTA_UNSAT: Counter = Counter::new("cso_solver_delta_unsat_total");
        static EXHAUSTED: Counter = Counter::new("cso_solver_exhausted_total");
        static BOXES: Counter = Counter::new("cso_solver_boxes_total");
        static PRUNED: Counter = Counter::new("cso_solver_boxes_pruned_total");
        static RESIDUAL: Counter = Counter::new("cso_solver_residual_boxes_total");
        static SAMPLES: Counter = Counter::new("cso_solver_samples_total");
        static EVAL_ERRORS: Counter = Counter::new("cso_solver_eval_errors_total");
        static CONTRACTED: Counter = Counter::new("cso_solver_contracted_total");
        static EMPTIED: Counter = Counter::new("cso_solver_emptied_total");
        static SEEDING_NS: Histogram = Histogram::new("cso_solver_seeding_ns");
        static BNP_NS: Histogram = Histogram::new("cso_solver_bnp_ns");
        static CLAUSES_COMPILED: Counter = Counter::new("cso_engine_clauses_compiled_total");
        match work {
            Work::Query { stats: s, outcome } => {
                QUERIES.inc(1);
                match outcome {
                    Some(Verdict::Sat) => SAT.inc(1),
                    Some(Verdict::Unsat) => UNSAT.inc(1),
                    Some(Verdict::DeltaUnsat) => DELTA_UNSAT.inc(1),
                    Some(Verdict::Exhausted) => EXHAUSTED.inc(1),
                    None => {}
                }
                BOXES.inc(s.boxes_processed as u64);
                PRUNED.inc(s.boxes_pruned as u64);
                RESIDUAL.inc(s.residual_boxes as u64);
                SAMPLES.inc(s.samples_tried as u64);
                EVAL_ERRORS.inc(s.eval_errors as u64);
                CONTRACTED.inc(s.contracted as u64);
                EMPTIED.inc(s.emptied as u64);
                SEEDING_NS.observe_duration(s.seeding_time);
                BNP_NS.observe_duration(s.bnp_time);
            }
            Work::Clauses { compiled } => CLAUSES_COMPILED.inc(compiled as u64),
        }
    }

    /// All coordinate-wise combinations of the hole vectors appearing in
    /// `seeds`, capped to keep the certification cost bounded.
    fn coordinate_combinations(&self, seeds: &[Model]) -> Vec<Model> {
        const CAP: usize = 1024;
        let holes: Vec<Vec<cso_numeric::Rat>> =
            seeds.iter().map(|m| self.qb.model_holes(m)).collect();
        if holes.len() < 2 {
            return Vec::new();
        }
        let n = self.qb.hole_ids().len();
        let mut combos: Vec<Vec<cso_numeric::Rat>> = vec![Vec::new()];
        for d in 0..n {
            let mut next = Vec::new();
            for c in &combos {
                for h in &holes {
                    if next.len() + combos.len() > CAP {
                        break;
                    }
                    let mut c2 = c.clone();
                    c2.push(h[d].clone());
                    next.push(c2);
                }
            }
            combos = next;
            if combos.len() >= CAP {
                combos.truncate(CAP);
            }
        }
        let mut out: Vec<Vec<cso_numeric::Rat>> = Vec::new();
        for c in combos {
            if !holes.contains(&c) && !out.contains(&c) {
                out.push(c);
            }
        }
        out.into_iter().map(|c| self.qb.seed_from_holes(&c)).collect()
    }

    fn remember_candidate(&mut self, holes: &[cso_numeric::Rat]) {
        if self.pool.first().map(Vec::as_slice) != Some(holes) {
            self.pool.insert(0, holes.to_vec());
            self.pool.truncate(POOL_CAP);
        }
    }

    fn pool_seeds(&self) -> Vec<Model> {
        self.pool.iter().map(|h| self.qb.seed_from_holes(h)).collect()
    }

    fn intern_scenario(&mut self, s: &Scenario) -> ScenarioId {
        if let Some(&id) = self.vertex_of.get(s) {
            return id;
        }
        let id = self.graph.add_scenario(s.clone());
        self.vertex_of.insert(s.clone(), id);
        id
    }

    /// Record a ranking over `scenarios` into the preference graph.
    fn record_ranking(
        &mut self,
        scenarios: &[Scenario],
        ranking: &Ranking,
    ) -> Result<(), SynthError> {
        // Validate coverage. Strict edges link adjacent groups only, so an
        // empty group would silently drop every preference across it.
        let mut seen = vec![false; scenarios.len()];
        for g in &ranking.groups {
            if g.is_empty() {
                return Err(SynthError::InvalidRanking);
            }
            for &i in g {
                if i >= scenarios.len() || seen[i] {
                    return Err(SynthError::InvalidRanking);
                }
                seen[i] = true;
            }
        }
        if seen.iter().any(|&s| !s) {
            return Err(SynthError::InvalidRanking);
        }

        let ids: Vec<Vec<ScenarioId>> = ranking
            .groups
            .iter()
            .map(|g| g.iter().map(|&i| self.intern_scenario(&scenarios[i])).collect())
            .collect();

        // Ties within a group.
        for group in &ids {
            for w in group.windows(2) {
                if w[0] == w[1] || self.graph.indifferent(w[0], w[1]) {
                    continue;
                }
                if self.graph.mark_indifferent(w[0], w[1]).is_err() && !self.cfg.repair_noise {
                    return Err(SynthError::InconsistentPreferences);
                }
            }
        }
        // Strict edges between adjacent groups.
        for w in ids.windows(2) {
            for &hi in &w[0] {
                for &lo in &w[1] {
                    if hi == lo || self.graph.indifferent(hi, lo) {
                        continue;
                    }
                    if self.cfg.repair_noise {
                        self.graph.prefer_unchecked(hi, lo, 0.9);
                        self.stats.edges_recorded += 1;
                    } else {
                        match self.graph.prefer(hi, lo) {
                            Ok(_) => self.stats.edges_recorded += 1,
                            Err(_) => return Err(SynthError::InconsistentPreferences),
                        }
                    }
                }
            }
        }
        if self.cfg.repair_noise {
            let _sp = trace::span("engine.noise_repair");
            let removed = cso_prefgraph::noise::repair(&mut self.graph);
            self.stats.edges_repaired += removed.len();
        }
        Ok(())
    }

    /// Find a candidate satisfying `feas`, the preference graph's
    /// feasibility formula.
    ///
    /// Seeded with the previous iteration's candidate *and* the previous
    /// second candidate: whichever side the oracle took, one of the two
    /// still satisfies every recorded preference, so the search is O(1)
    /// in the common case.
    fn find_candidate(
        &mut self,
        feas: &Formula,
        seeds: &[Model],
    ) -> Result<CompletedObjective, SynthError> {
        let _sp = trace::span_with("engine.find_candidate", || {
            vec![("seeds", Value::U64(seeds.len() as u64))]
        });
        // First try at the normal budget, then escalate: a feasibility
        // search only gets hard when every seed was just invalidated
        // (multi-pair iterations can do that), which is exactly when it is
        // worth spending more. On retries, also seed with coordinate-wise
        // combinations of the candidates: each answered pair typically
        // constrains different holes, so the point taking "the right"
        // coordinate from each candidate is often feasible even when no
        // single candidate is. The last two steps only run where the
        // first three all budget out, which a consistent architect can
        // still meet on a thin feasible set. The combinations are built
        // lazily, on the first retry: almost every search ends at the
        // normal budget, so most calls never need them.
        let mut combo_seeds: Option<Vec<Model>> = None;
        for (i, budget) in [1.0, 4.0, 16.0, 64.0, 256.0].into_iter().enumerate() {
            let mut all_seeds: Vec<Model> = seeds.to_vec();
            if i > 0 {
                let combos = combo_seeds.get_or_insert_with(|| self.coordinate_combinations(seeds));
                all_seeds.extend(combos.iter().cloned());
            }
            let (out, _) = self.solve(SITE_CANDIDATE, feas, &all_seeds, 1.0, budget);
            match out {
                Outcome::Sat(m) => {
                    let holes = self.qb.model_holes(&m);
                    return self.sketch.complete(holes).map_err(|_| SynthError::NoViableCandidate);
                }
                Outcome::Unsat => return Err(SynthError::NoViableCandidate),
                Outcome::DeltaUnsat | Outcome::Exhausted => {
                    synth_msg(format_args!("feasibility search retry (budget x{budget})"));
                }
            }
        }
        Err(SynthError::CandidateSearchExhausted)
    }

    /// Search for one distinguishing scenario pair against candidate `fa`;
    /// `feas` is the preference graph's feasibility formula.
    ///
    /// Fast path (§4.2, decomposed): find a second consistent candidate
    /// `fb` that differs from `fa` in hole space (4-dim query), then find
    /// scenarios the two frozen candidates disagree on (4-dim query). The
    /// joint 8-dim symbolic query is used only when the fast path dries
    /// up, because only its unsatisfiability proves convergence.
    fn find_pair(
        &mut self,
        feas: &Formula,
        fa: &CompletedObjective,
        exclusions: &[(Scenario, Scenario)],
        extra_seeds: &[Model],
    ) -> PairSearch {
        let _sp = trace::span_with("engine.pair_search", || {
            vec![("exclusions", Value::U64(exclusions.len() as u64))]
        });
        // Probe every hole at a large separation, then sweep again at
        // smaller separations: large separations produce wide disagreement
        // regions that sampling finds instantly, and per-hole restriction
        // stops the search from repeatedly moving only the easiest hole.
        let n_holes = self.qb.hole_ids().len().max(1);
        let attempts = self.cfg.disamb_attempts.max(2 * n_holes);
        let delta_rel = self.cfg.delta_rel;
        let round_sep = |round: i32| (0.2 * 0.5f64.powi(round)).max(delta_rel);
        for attempt in 0..attempts {
            let hole = attempt % n_holes;
            let round = (attempt / n_holes) as i32;
            let sep_rel = round_sep(round);
            // Once the separation bottoms out at δ, a round repeats the
            // previous one query for query, and that round found nothing.
            if round > 0 && sep_rel == round_sep(round - 1) {
                break;
            }
            synth_msg(format_args!("fb search: hole {hole} sep_rel {sep_rel:.4}"));
            let fb_q = Formula::and(vec![
                feas.clone(),
                self.qb.holes_differ_from_masked(fa.hole_values(), sep_rel, Some(hole)),
            ]);
            let mut seeds = self.shifted_seeds(fa.hole_values(), hole, sep_rel);
            seeds.extend(extra_seeds.iter().cloned());
            let (fb_out, _) = self.solve(SITE_FB, &fb_q, &seeds, 1.0, 0.25);
            let fb = match fb_out {
                Outcome::Sat(m) => match self.sketch.complete(self.qb.model_holes(&m)) {
                    Ok(fb) => fb,
                    Err(_) => break,
                },
                // No candidate this far away: try a smaller separation.
                Outcome::Unsat | Outcome::DeltaUnsat => {
                    synth_msg(format_args!("fb search: hole {hole} unsat"));
                    continue;
                }
                Outcome::Exhausted => {
                    synth_msg(format_args!("fb search: hole {hole} exhausted"));
                    continue;
                }
            };
            synth_msg(format_args!("fb found: {fb}"));
            // 2. Scenarios the frozen pair disagrees on (graph-independent:
            // frozen candidates only).
            let sq = self.qb.scenario_disagreement(fa, &fb, exclusions);
            let (sq_out, from_seeding) = self.solve(SITE_SCENARIO, &sq, &[], 1.0, 0.25);
            match sq_out {
                Outcome::Sat(m) => {
                    let pair = self.qb.model_pair(&m);
                    synth_msg(format_args!("pair found: {} vs {}", pair.0, pair.1));
                    return PairSearch::Found {
                        pair,
                        from_seeding,
                        fb_holes: fb.hole_values().to_vec(),
                    };
                }
                // This fb happens to agree with fa everywhere; try another.
                other => {
                    synth_msg(format_args!("scenario query failed: {other:?}"));
                    continue;
                }
            }
        }

        // Joint symbolic query: SAT gives a pair; δ-UNSAT proves
        // convergence. Run at a coarser δ — the fast path has already
        // failed, so this is primarily a proof obligation.
        synth_msg(format_args!("fast path dry; running joint proof"));
        let _proof = trace::span("engine.proof");
        let q = self.qb.disambiguation(&self.graph, fa, exclusions);
        let (q_out, from_seeding) =
            self.solve(SITE_PROOF, &q, &[], self.cfg.proof_delta_factor, 1.0);
        match q_out {
            Outcome::Sat(m) => {
                let pair = self.qb.model_pair(&m);
                let fb_holes = self.qb.model_holes(&m);
                PairSearch::Found { pair, from_seeding, fb_holes }
            }
            Outcome::Unsat | Outcome::DeltaUnsat => PairSearch::Converged,
            Outcome::Exhausted => PairSearch::Exhausted,
        }
    }

    /// The fb search's seeds for probing `hole` at separation `sep_rel`:
    /// `fa` with that hole moved up, then down, by `1.05 · sep_rel` of its
    /// range, clamped into it. `fa` satisfies every preference, so a small
    /// shift is usually still feasible, and it satisfies the
    /// differs-constraint by construction. The factor is a decimal with
    /// six digits, so a seed keeps the denominators of `fa` and the bounds.
    fn shifted_seeds(&self, fa: &[cso_numeric::Rat], hole: usize, sep_rel: f64) -> Vec<Model> {
        use cso_numeric::Rat;
        let (lo, hi) = self.qb.hole_bounds(hole);
        let factor = Rat::from_frac((sep_rel * 1.05 * 1e6).round() as i64, 1_000_000);
        let step = &(&hi - &lo) * &factor;
        [1i64, -1]
            .into_iter()
            .map(|sign| {
                let mut shifted = fa.to_vec();
                shifted[hole] = (&shifted[hole] + &(&step * &Rat::from_int(sign))).clamp(&lo, &hi);
                self.qb.seed_from_holes(&shifted)
            })
            .collect()
    }

    /// Run the interactive loop against `oracle`: a thin driver over
    /// [`Synthesizer::step`] / [`Synthesizer::answer`] that answers every
    /// `NeedsRanking` park in-process. The oracle call is timed into
    /// [`SynthStats::oracle_time`]; synthesis time accumulates only inside
    /// `step`/`answer`, so the two never mix.
    ///
    /// # Errors
    /// See [`SynthError`].
    pub fn run(&mut self, oracle: &mut dyn Oracle) -> Result<SynthResult, SynthError> {
        // Restart from scratch even if a previous run finished.
        self.state = EngineState::Idle;
        self.ctx = LoopCtx::default();
        let _run_span =
            trace::span_with("engine.run", || vec![("seed", Value::U64(self.cfg.seed))]);
        loop {
            match self.step() {
                StepResult::NeedsRanking { scenarios, .. } => {
                    let ranking = self.ask_oracle(oracle, &scenarios);
                    self.answer(&ranking)?;
                }
                StepResult::Done(result) => return Ok(*result),
                StepResult::Rejected(e) => return Err(e),
            }
        }
    }

    /// Advance the engine until it needs an oracle answer or terminates.
    ///
    /// Calling `step` again while parked in `NeedsRanking` re-returns the
    /// same query without doing work; terminal results replay likewise.
    /// All time spent inside `step` counts toward
    /// [`SynthStats::total_time`] — wall-clock time the session spends
    /// parked between `step` and [`Synthesizer::answer`] does not.
    pub fn step(&mut self) -> StepResult {
        if matches!(self.state, EngineState::Done { .. } | EngineState::Failed { .. }) {
            return self.step_inner(&mut None);
        }
        let mut t0 = Some(Instant::now());
        let out = self.step_inner(&mut t0);
        if let Some(t) = t0 {
            self.stats.total_time += t.elapsed();
        }
        out
    }

    /// Feed the oracle's `ranking` for the pending query back in. Time
    /// spent recording counts toward [`SynthStats::total_time`].
    ///
    /// # Errors
    /// [`SynthError::NoPendingQuery`] when no query is pending; the state
    /// is left untouched, so a stray or repeated answer neither loses a
    /// finished result nor stops a running session.
    /// [`SynthError::InvalidRanking`] / other recording errors exactly as
    /// the synchronous loop reported them. Those errors are sticky — the
    /// session moves to its failed state.
    pub fn answer(&mut self, ranking: &Ranking) -> Result<(), SynthError> {
        let t0 = Instant::now();
        let out = self.answer_inner(ranking);
        self.stats.total_time += t0.elapsed();
        match &out {
            Err(SynthError::NoPendingQuery) | Ok(()) => {}
            Err(e) => self.state = EngineState::Failed { error: e.clone() },
        }
        out
    }

    /// `true` once the engine has reached a terminal state (a result or a
    /// sticky error); further steps replay it.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(self.state, EngineState::Done { .. } | EngineState::Failed { .. })
    }

    /// The step state machine. `t0` is the step's start instant; the
    /// `Finishing` arm consumes it so the final result's `total_time`
    /// includes the closing iteration's work (mirroring where the
    /// synchronous loop stamped the total — before resolving the final
    /// objective).
    fn step_inner(&mut self, t0: &mut Option<Instant>) -> StepResult {
        loop {
            let state = std::mem::replace(&mut self.state, EngineState::Idle);
            match state {
                EngineState::Idle => {
                    self.begin_run();
                    if self.cfg.initial_scenarios > 0 {
                        let scenarios = self.sample_initial();
                        let out = StepResult::NeedsRanking {
                            scenarios: scenarios.clone(),
                            session_id: 0,
                            iteration: 0,
                        };
                        self.state = EngineState::AwaitInitial { scenarios };
                        return out;
                    }
                    self.state = EngineState::BetweenIters;
                }
                EngineState::AwaitInitial { scenarios } => {
                    let out = StepResult::NeedsRanking {
                        scenarios: scenarios.clone(),
                        session_id: 0,
                        iteration: 0,
                    };
                    self.state = EngineState::AwaitInitial { scenarios };
                    return out;
                }
                EngineState::BetweenIters => {
                    if let Err(e) = self.advance_iteration() {
                        self.state = EngineState::Failed { error: e.clone() };
                        return StepResult::Rejected(e);
                    }
                    // advance_iteration left the next state behind:
                    // AwaitPair or Finishing.
                }
                EngineState::AwaitPair { pairs, next, synthesis_time, sat_from_seeding, asked } => {
                    let (s1, s2) = pairs[next].clone();
                    let iteration = self.ctx.iter;
                    self.state = EngineState::AwaitPair {
                        pairs,
                        next,
                        synthesis_time,
                        sat_from_seeding,
                        asked,
                    };
                    return StepResult::NeedsRanking {
                        scenarios: vec![s1, s2],
                        session_id: 0,
                        iteration,
                    };
                }
                EngineState::Finishing { outcome } => {
                    // Stamp the total before resolving the final objective,
                    // exactly as the synchronous loop did.
                    if let Some(t) = t0.take() {
                        self.stats.total_time += t.elapsed();
                    }
                    match self.finish_run(outcome) {
                        Ok(result) => {
                            let out = StepResult::Done(Box::new(result.clone()));
                            self.state = EngineState::Done { result };
                            return out;
                        }
                        Err(e) => {
                            self.state = EngineState::Failed { error: e.clone() };
                            return StepResult::Rejected(e);
                        }
                    }
                }
                EngineState::Done { result } => {
                    let out = StepResult::Done(Box::new(result.clone()));
                    self.state = EngineState::Done { result };
                    return out;
                }
                EngineState::Failed { error } => {
                    let out = StepResult::Rejected(error.clone());
                    self.state = EngineState::Failed { error };
                    return out;
                }
            }
        }
    }

    /// Reset per-run state (a fresh engine is already reset; `run` can
    /// also restart a finished one).
    fn begin_run(&mut self) {
        self.stats = SynthStats::default();
        self.iter_solver = SolverTelemetry::default();
        self.qb.take_clauses_compiled();
        self.ctx = LoopCtx::default();
    }

    /// Sample the initial random scenarios (paper: 5 by default).
    fn sample_initial(&mut self) -> Vec<Scenario> {
        let _sp = trace::span_with("engine.initial_ranking", || {
            vec![("scenarios", Value::U64(self.cfg.initial_scenarios as u64))]
        });
        let t0 = Instant::now();
        let mut initial = Vec::new();
        while initial.len() < self.cfg.initial_scenarios {
            let s = self.space.sample(&mut self.rng);
            if !initial.contains(&s) {
                initial.push(s);
            }
        }
        self.stats.init_time = t0.elapsed();
        initial
    }

    /// Run one iteration's synthesis work (candidate search + pair
    /// search), leaving the next [`EngineState`] behind: `AwaitPair` when
    /// pairs need ranking, `Finishing` on convergence / budget / the
    /// iteration cap.
    fn advance_iteration(&mut self) -> Result<(), SynthError> {
        if self.ctx.iter >= self.cfg.max_iterations {
            self.state = EngineState::Finishing { outcome: SynthOutcome::IterationLimit };
            return Ok(());
        }
        self.ctx.iter += 1;
        let iter = self.ctx.iter;
        let _iter_span =
            trace::span_with("engine.iteration", || vec![("iter", Value::U64(iter as u64))]);
        let t0 = Instant::now();
        self.iter_solver = SolverTelemetry::default();

        // The graph changes only in `answer`, so one feasibility formula
        // serves every query of the iteration.
        let feas = self.qb.feasibility(&self.graph);

        // Current candidate fa.
        let mut all_seeds = self.ctx.feas_seeds.clone();
        all_seeds.extend(self.pool_seeds());
        let fa = self.find_candidate(&feas, &all_seeds)?;
        synth_msg(format_args!("iter {iter}: fa = {fa}"));
        self.remember_candidate(fa.hole_values());
        self.ctx.feas_seeds.clear();
        let fa_seed = self.qb.seed_from_holes(fa.hole_values());
        self.ctx.feas_seeds.push(fa_seed);
        self.ctx.candidate = Some(fa.clone());

        // Generate up to `pairs_per_iteration` distinguishing pairs.
        let mut pairs: Vec<(Scenario, Scenario)> = Vec::new();
        let mut converged = false;
        let mut sat_from_seeding = false;
        for k in 0..self.cfg.pairs_per_iteration {
            let extra_seeds = self.ctx.feas_seeds.clone();
            match self.find_pair(&feas, &fa, &pairs, &extra_seeds) {
                PairSearch::Found { pair, from_seeding, fb_holes } => {
                    sat_from_seeding |= from_seeding;
                    self.remember_candidate(&fb_holes);
                    pairs.push(pair);
                    // The second candidate's holes seed the next
                    // feasibility search: whichever way the oracle
                    // answers, fa or fb stays feasible.
                    let fb_seed = self.qb.seed_from_holes(&fb_holes);
                    self.ctx.feas_seeds.push(fb_seed);
                    self.ctx.exhausted_streak = 0;
                }
                PairSearch::Converged => {
                    if k == 0 {
                        converged = true;
                    }
                    break;
                }
                PairSearch::Exhausted => {
                    if k == 0 {
                        self.ctx.exhausted_streak += 1;
                    }
                    break;
                }
            }
        }
        self.drain_clause_counters();

        if converged {
            self.state = EngineState::Finishing { outcome: SynthOutcome::Converged };
            return Ok(());
        }
        if pairs.is_empty() {
            // A dry iteration records nothing, so a retry would find `fa`
            // again (it leads the seeds) and replay the same pair search.
            // Count the rest of the streak instead of re-solving it; the
            // iteration cap still applies to the counted retries.
            while self.ctx.exhausted_streak < self.cfg.max_exhausted_streak {
                if self.ctx.iter >= self.cfg.max_iterations {
                    self.state = EngineState::Finishing { outcome: SynthOutcome::IterationLimit };
                    return Ok(());
                }
                self.ctx.iter += 1;
                self.ctx.exhausted_streak += 1;
            }
            self.state = EngineState::Finishing { outcome: SynthOutcome::ConvergedBudget };
            return Ok(());
        }
        let synthesis_time = t0.elapsed();
        if metrics::enabled() {
            static ITERATIONS: Counter = Counter::new("cso_engine_iterations_total");
            static ITER_NS: Histogram = Histogram::new("cso_engine_iteration_ns");
            ITERATIONS.inc(1);
            ITER_NS.observe_duration(synthesis_time);
        }
        self.state =
            EngineState::AwaitPair { pairs, next: 0, synthesis_time, sat_from_seeding, asked: 0 };
        Ok(())
    }

    /// Record the pending query's ranking and move the state machine on.
    fn answer_inner(&mut self, ranking: &Ranking) -> Result<(), SynthError> {
        let state = std::mem::replace(&mut self.state, EngineState::Idle);
        match state {
            EngineState::AwaitInitial { scenarios } => {
                self.record_ranking(&scenarios, ranking)?;
                self.state = EngineState::BetweenIters;
                Ok(())
            }
            EngineState::AwaitPair { pairs, next, synthesis_time, sat_from_seeding, mut asked } => {
                let (s1, s2) = pairs[next].clone();
                let query = vec![s1, s2];
                self.record_ranking(&query, ranking)?;
                asked += 2;
                let next = next + 1;
                if next == pairs.len() {
                    self.stats.records.push(IterationRecord {
                        index: self.ctx.iter,
                        synthesis_time,
                        scenarios_asked: asked,
                        sat_from_seeding,
                        solver: self.iter_solver,
                    });
                    self.state = EngineState::BetweenIters;
                } else {
                    self.state = EngineState::AwaitPair {
                        pairs,
                        next,
                        synthesis_time,
                        sat_from_seeding,
                        asked,
                    };
                }
                Ok(())
            }
            other => {
                self.state = other;
                Err(SynthError::NoPendingQuery)
            }
        }
    }

    /// Resolve the final objective and build the result.
    fn finish_run(&mut self, outcome: SynthOutcome) -> Result<SynthResult, SynthError> {
        let objective = match self.ctx.candidate.clone() {
            Some(c) => c,
            None => {
                let feas = self.qb.feasibility(&self.graph);
                self.find_candidate(&feas, &[])?
            }
        };
        self.drain_clause_counters();
        Ok(SynthResult { objective, outcome, stats: self.stats.clone() })
    }

    /// Publish the clauses the query layer compiled since the last drain
    /// as one [`Work::Clauses`] record (none when the batch is empty).
    fn drain_clause_counters(&mut self) {
        let compiled = self.qb.take_clauses_compiled();
        if compiled > 0 {
            self.publish(Work::Clauses { compiled });
        }
    }

    /// Ask the oracle to rank `scenarios`, timing the call under an
    /// `engine.oracle` span. The accumulated [`SynthStats::oracle_time`]
    /// is subtracted from total synthesis time — the paper excludes
    /// oracle (user) time, so it is measured-and-excluded rather than
    /// silently mixed in.
    fn ask_oracle(&mut self, oracle: &mut dyn Oracle, scenarios: &[Scenario]) -> Ranking {
        let _sp = trace::span_with("engine.oracle", || {
            vec![("scenarios", Value::U64(scenarios.len() as u64))]
        });
        let t0 = Instant::now();
        let ranking = oracle.rank(scenarios);
        let dt = t0.elapsed();
        self.stats.oracle_time += dt;
        if metrics::enabled() {
            static ORACLE_CALLS: Counter = Counter::new("cso_engine_oracle_calls_total");
            static ORACLE_NS: Histogram = Histogram::new("cso_engine_oracle_ns");
            ORACLE_CALLS.inc(1);
            ORACLE_NS.observe_duration(dt);
        }
        ranking
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{GroundTruthOracle, LoggingOracle, NoisyOracle};
    use crate::verify::preference_agreement;
    use cso_numeric::Rat;
    use cso_sketch::swan::{swan_sketch, swan_target, swan_target_with};

    fn fast_cfg(seed: u64) -> SynthConfig {
        let mut cfg = SynthConfig::fast_test();
        cfg.seed = seed;
        cfg
    }

    #[test]
    fn space_mismatch_rejected() {
        let bad_space = MetricSpace::new(vec![("only_one", Rat::zero(), Rat::one())]);
        let err = Synthesizer::new(swan_sketch(), bad_space, SynthConfig::default()).unwrap_err();
        assert!(matches!(err, SynthError::SpaceMismatch { sketch_params: 2, space_dims: 1 }));
    }

    #[test]
    fn lint_deny_rejects_broken_sketch() {
        // The then-branch divides by a folded constant zero: E001.
        let broken =
            Sketch::parse("fn f(x) { if x > 1 then x / (2 - 2) else x + ??h in [0, 5] }").unwrap();
        let space = MetricSpace::new(vec![("x", Rat::zero(), Rat::from_int(10))]);
        let err = Synthesizer::new(broken.clone(), space.clone(), fast_cfg(1)).unwrap_err();
        match err {
            SynthError::SketchRejected(report) => {
                assert!(report.has_errors());
                assert!(report.diagnostics().iter().any(|d| d.code == "E001"));
                assert!(err_display_mentions_analysis(&SynthError::SketchRejected(report)));
            }
            other => panic!("expected SketchRejected, got {other:?}"),
        }
        // Warn policy surfaces the findings but still constructs.
        let mut warn_cfg = fast_cfg(1);
        warn_cfg.lint = LintPolicy::Warn;
        let s = Synthesizer::new(broken.clone(), space.clone(), warn_cfg).unwrap();
        assert!(s.lint_report().expect("warn policy still analyses").has_errors());
        // Off policy skips analysis entirely.
        let mut off_cfg = fast_cfg(1);
        off_cfg.lint = LintPolicy::Off;
        let s = Synthesizer::new(broken, space, off_cfg).unwrap();
        assert!(s.lint_report().is_none());
    }

    fn err_display_mentions_analysis(e: &SynthError) -> bool {
        e.to_string().contains("static analysis")
    }

    #[test]
    fn swan_passes_lint() {
        let synth = Synthesizer::new(swan_sketch(), MetricSpace::swan(), fast_cfg(42)).unwrap();
        let report = synth.lint_report().expect("deny policy analyses");
        assert!(!report.has_errors(), "{report:?}");
    }

    /// The fb search's seeds shift a hole by a six-digit decimal fraction
    /// of its range, so a seed built from a candidate with six-digit
    /// decimal holes has six-digit decimal holes too, at every separation
    /// the search probes (`0.2 · 2^-r`, floored at the δs of the Quick and
    /// default profiles).
    #[test]
    fn shifted_seeds_keep_six_digit_decimals() {
        let synth = Synthesizer::new(swan_sketch(), MetricSpace::swan(), fast_cfg(1)).unwrap();
        let million = Rat::from_int(1_000_000);
        let candidates = [
            swan_target().hole_values().to_vec(),
            vec![
                Rat::from_frac(1_473_799, 500_000),
                Rat::from_frac(52_204_301, 1_000_000),
                Rat::from_frac(3, 8),
                Rat::from_frac(4_999_999, 1_000_000),
            ],
        ];
        let seps = (0..8).map(|r| 0.2 * 0.5f64.powi(r)).chain([0.03, 2e-3]);
        for sep_rel in seps {
            for fa in &candidates {
                for hole in 0..fa.len() {
                    for seed in synth.shifted_seeds(fa, hole, sep_rel) {
                        for v in synth.qb.model_holes(&seed) {
                            assert!(
                                (&v * &million).is_integer(),
                                "hole {hole} at sep {sep_rel}: {v} is not a six-digit decimal"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn synthesizes_swan_objective() {
        let mut synth = Synthesizer::new(swan_sketch(), MetricSpace::swan(), fast_cfg(42)).unwrap();
        let mut oracle = LoggingOracle::new(GroundTruthOracle::new(swan_target()));
        let result = synth.run(&mut oracle).unwrap();
        assert!(
            matches!(result.outcome, SynthOutcome::Converged | SynthOutcome::ConvergedBudget),
            "got {:?}",
            result.outcome
        );
        assert!(result.stats.iterations() >= 1);
        assert_eq!(oracle.interactions, result.stats.iterations() + 1); // +1 initial
                                                                        // The learnt objective must agree with the target on scenario pairs
                                                                        // the target separates clearly.
        let agreement = preference_agreement(
            &result.objective,
            &swan_target(),
            &MetricSpace::swan(),
            400,
            7,
            &Rat::from_int(20),
        );
        assert!(agreement > 0.93, "agreement only {agreement}");
    }

    #[test]
    fn zero_initial_scenarios_still_works() {
        let mut cfg = fast_cfg(3);
        cfg.initial_scenarios = 0;
        let mut synth = Synthesizer::new(swan_sketch(), MetricSpace::swan(), cfg).unwrap();
        let mut oracle = GroundTruthOracle::new(swan_target());
        let result = synth.run(&mut oracle).unwrap();
        assert!(result.stats.iterations() >= 1);
    }

    #[test]
    fn multiple_pairs_per_iteration_reduce_interactions() {
        let mut iters_one = Vec::new();
        let mut iters_two = Vec::new();
        for seed in [11u64, 13] {
            let mut cfg = fast_cfg(seed);
            cfg.pairs_per_iteration = 1;
            let mut s1 = Synthesizer::new(swan_sketch(), MetricSpace::swan(), cfg).unwrap();
            let r1 = s1.run(&mut GroundTruthOracle::new(swan_target())).unwrap();
            iters_one.push(r1.stats.iterations() as f64);

            let mut cfg2 = fast_cfg(seed);
            cfg2.pairs_per_iteration = 2;
            let mut s2 = Synthesizer::new(swan_sketch(), MetricSpace::swan(), cfg2).unwrap();
            let r2 = s2.run(&mut GroundTruthOracle::new(swan_target())).unwrap();
            iters_two.push(r2.stats.iterations() as f64);
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            avg(&iters_two) <= avg(&iters_one) + 1.0,
            "2 pairs/iter should not need more interactions: {:?} vs {:?}",
            iters_two,
            iters_one
        );
    }

    #[test]
    fn different_targets_synthesized() {
        // A Figure 3-style variant: different threshold and slopes.
        let target = swan_target_with(3, 80, 2, 4);
        let mut synth = Synthesizer::new(swan_sketch(), MetricSpace::swan(), fast_cfg(21)).unwrap();
        let mut oracle = GroundTruthOracle::new(target.clone());
        let result = synth.run(&mut oracle).unwrap();
        let agreement = preference_agreement(
            &result.objective,
            &target,
            &MetricSpace::swan(),
            400,
            9,
            &Rat::from_int(20),
        );
        assert!(agreement > 0.9, "agreement only {agreement}");
    }

    #[test]
    fn noisy_oracle_without_repair_errors_eventually_or_converges() {
        let mut cfg = fast_cfg(5);
        cfg.max_iterations = 40;
        let mut synth = Synthesizer::new(swan_sketch(), MetricSpace::swan(), cfg).unwrap();
        let truth = GroundTruthOracle::new(swan_target());
        let mut noisy = NoisyOracle::new(truth, 0.5, 99);
        match synth.run(&mut noisy) {
            // With heavy noise we expect contradictions or an infeasible
            // graph; both are reported, never a panic.
            Err(SynthError::InconsistentPreferences | SynthError::NoViableCandidate) => {}
            Ok(_) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn noisy_oracle_with_repair_completes() {
        let mut cfg = fast_cfg(5);
        cfg.repair_noise = true;
        cfg.max_iterations = 30;
        let mut synth = Synthesizer::new(swan_sketch(), MetricSpace::swan(), cfg).unwrap();
        let truth = GroundTruthOracle::new(swan_target());
        let mut noisy = NoisyOracle::new(truth, 0.15, 99);
        let result = synth.run(&mut noisy).unwrap();
        // Repair may or may not trigger depending on which answers flip;
        // the run must complete and produce a candidate either way.
        assert!(result.stats.iterations() >= 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut synth =
                Synthesizer::new(swan_sketch(), MetricSpace::swan(), fast_cfg(seed)).unwrap();
            let mut oracle = GroundTruthOracle::new(swan_target());
            let r = synth.run(&mut oracle).unwrap();
            (r.objective.hole_values().to_vec(), r.stats.iterations())
        };
        assert_eq!(run(77), run(77));
    }

    #[test]
    fn budget_scaling_is_clamped() {
        // Sane factors scale linearly.
        assert_eq!(Synthesizer::scale_budget(200_000, 1.0), 200_000);
        assert_eq!(Synthesizer::scale_budget(200_000, 4.0), 800_000);
        // Small factors keep the floor.
        assert_eq!(Synthesizer::scale_budget(200_000, 1e-9), 1_000);
        assert_eq!(Synthesizer::scale_budget(0, 0.0), 1_000);
        // Extreme factors land on the explicit cap, not a silently
        // saturated `as usize` cast.
        assert_eq!(Synthesizer::scale_budget(200_000, 1e30), 100_000_000);
        assert_eq!(Synthesizer::scale_budget(200_000, f64::INFINITY), 100_000_000);
        assert_eq!(Synthesizer::scale_budget(usize::MAX, 2.0), 100_000_000);
        // NaN (0 × ∞ upstream) degrades to the floor instead of UB-ish
        // saturation.
        assert_eq!(Synthesizer::scale_budget(200_000, f64::NAN), 1_000);
    }

    #[test]
    fn solver_telemetry_is_recorded() {
        let mut synth = Synthesizer::new(swan_sketch(), MetricSpace::swan(), fast_cfg(42)).unwrap();
        let mut oracle = GroundTruthOracle::new(swan_target());
        let result = synth.run(&mut oracle).unwrap();
        let totals = result.stats.solver_totals;
        assert!(totals.queries > 0, "every run issues solver queries");
        assert!(totals.samples_tried > 0);
        // Per-iteration telemetry sums to no more than the run totals
        // (the totals also include the final convergence proof).
        let iter_queries: usize = result.stats.records.iter().map(|r| r.solver.queries).sum();
        assert!(iter_queries > 0);
        assert!(iter_queries <= totals.queries);
    }

    #[test]
    fn empty_ranking_group_is_invalid() {
        let mut synth = Synthesizer::new(swan_sketch(), MetricSpace::swan(), fast_cfg(8)).unwrap();
        let StepResult::NeedsRanking { scenarios, .. } = synth.step() else {
            panic!("a fresh engine asks for the initial ranking");
        };
        let order = GroundTruthOracle::new(swan_target()).rank(&scenarios);
        let mut groups = Vec::new();
        for g in order.groups {
            groups.push(g);
            groups.push(Vec::new());
        }
        let padded = Ranking { groups };
        assert_eq!(padded.len(), scenarios.len());
        assert!(!padded.is_empty());
        assert_eq!(synth.answer(&padded), Err(SynthError::InvalidRanking));
        assert_eq!(synth.graph().edge_count(), 0, "nothing recorded");
        assert!(synth.is_terminal());
        assert!(Ranking { groups: vec![Vec::new()] }.is_empty());
    }

    #[test]
    fn graph_grows_with_iterations() {
        let mut synth = Synthesizer::new(swan_sketch(), MetricSpace::swan(), fast_cfg(8)).unwrap();
        let mut oracle = GroundTruthOracle::new(swan_target());
        let result = synth.run(&mut oracle).unwrap();
        assert!(synth.graph().edge_count() >= result.stats.iterations());
        assert!(synth.graph().scenario_count() >= 5);
    }
}
