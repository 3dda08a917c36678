//! Construction of the solver queries of §4.2.
//!
//! The variable layout is fixed once per synthesis run: first one solver
//! variable per hole, then one per metric for the first scenario of the
//! candidate pair (`s1_*`), then one per metric for the second (`s2_*`).
//!
//! Two queries are built over that layout:
//!
//! * **feasibility** — `Viable(h) ∧ ⋀_{(a,b) ∈ G} f_h(a) > f_h(b)`, the
//!   paper's consistency constraint, over hole variables only (scenario
//!   coordinates in `G` are constants);
//! * **disambiguation** — feasibility plus
//!   `f_h(s2) − f_h(s1) ≥ margin ∧ f_fa(s1) − f_fa(s2) ≥ margin` where
//!   `fa` is the frozen current candidate. A model yields both the second
//!   candidate `fb = h` and the distinguishing scenario pair `(s1, s2)`.
//!   Unsatisfiability (δ-) certifies that every consistent candidate agrees
//!   with `fa` everywhere up to the margin — the convergence signal.
//!
//! Viability (`Viable(f)` in the paper) is a domain-specific check; for
//! SWAN the paper notes every hole combination is implementable, so the
//! default is "always viable". Callers may add extra viability conjuncts
//! via [`QueryBuilder::set_viability`].

use crate::config::SynthConfig;
use crate::scenario::{MetricSpace, Scenario};
use cso_logic::{BoxDomain, Formula, Model, Term, VarId, VarRegistry};
use cso_numeric::{Interval, Rat};
use cso_prefgraph::{PrefGraph, ScenarioId};
use cso_runtime::trace::{self, Value};
use cso_sketch::{CompletedObjective, Sketch};
use std::cell::Cell;

/// Builds solver queries for one synthesis run.
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    sketch: Sketch,
    space: MetricSpace,
    vars: VarRegistry,
    hole_ids: Vec<VarId>,
    s1_ids: Vec<VarId>,
    s2_ids: Vec<VarId>,
    margin: Rat,
    tie_tolerance: Rat,
    hole_bounds: Vec<(Rat, Rat)>,
    viability: Option<Formula>,
    /// Edge and tie clauses compiled since the last
    /// [`QueryBuilder::take_clauses_compiled`].
    clauses_compiled: Cell<usize>,
}

impl QueryBuilder {
    /// Set up the variable layout for `sketch` over `space`.
    #[must_use]
    pub fn new(sketch: Sketch, space: MetricSpace, cfg: &SynthConfig) -> QueryBuilder {
        let mut vars = VarRegistry::new();
        let mut hole_ids = Vec::new();
        let mut hole_bounds = Vec::new();
        for h in sketch.holes() {
            hole_ids.push(vars.intern(&format!("hole_{}", h.name)));
            hole_bounds.push(h.bounds.clone().unwrap_or_else(|| cfg.default_hole_range.clone()));
        }
        let mut s1_ids = Vec::new();
        let mut s2_ids = Vec::new();
        for i in 0..space.dims() {
            s1_ids.push(vars.intern(&format!("s1_{}", space.name(i))));
        }
        for i in 0..space.dims() {
            s2_ids.push(vars.intern(&format!("s2_{}", space.name(i))));
        }
        QueryBuilder {
            sketch,
            space,
            vars,
            hole_ids,
            s1_ids,
            s2_ids,
            margin: cfg.margin.clone(),
            tie_tolerance: cfg.tie_tolerance.clone(),
            hole_bounds,
            viability: None,
            clauses_compiled: Cell::new(0),
        }
    }

    /// Install an extra viability constraint over the hole variables.
    pub fn set_viability(&mut self, f: Formula) {
        self.viability = Some(f);
    }

    /// Drain the count of edge and tie clauses compiled.
    pub fn take_clauses_compiled(&self) -> usize {
        self.clauses_compiled.replace(0)
    }

    /// The variable registry (holes, then s1 metrics, then s2 metrics).
    #[must_use]
    pub fn registry(&self) -> &VarRegistry {
        &self.vars
    }

    /// Hole variable ids in declaration order.
    #[must_use]
    pub fn hole_ids(&self) -> &[VarId] {
        &self.hole_ids
    }

    /// Range of hole `i` (declared range or engine default).
    #[must_use]
    pub fn hole_bounds(&self, i: usize) -> (Rat, Rat) {
        self.hole_bounds[i].clone()
    }

    fn hole_terms(&self) -> Vec<Term> {
        self.hole_ids.iter().map(|&v| Term::var(v)).collect()
    }

    fn const_terms(values: &[Rat]) -> Vec<Term> {
        values.iter().map(|v| Term::constant(v.clone())).collect()
    }

    /// Symbolic objective value of the sketch (holes symbolic) at a
    /// concrete scenario.
    fn f_h_at(&self, s: &Scenario) -> Term {
        self.sketch.lower(&self.hole_terms(), &Self::const_terms(s.values()))
    }

    /// The feasibility formula: all recorded preferences honored.
    #[must_use]
    pub fn feasibility(&self, graph: &PrefGraph<Scenario>) -> Formula {
        let _sp = trace::span_with("query.compile_feasibility", || {
            vec![
                ("edges", Value::U64(graph.active_edges().count() as u64)),
                ("ties", Value::U64(graph.indifference_pairs().len() as u64)),
            ]
        });
        let mut conjuncts = Vec::new();
        if let Some(v) = &self.viability {
            conjuncts.push(v.clone());
        }
        for e in graph.active_edges() {
            conjuncts.push(self.edge_clause(graph, e.preferred, e.other));
        }
        for (a, b) in graph.indifference_pairs() {
            let (le, ge) = self.tie_clause(graph, a, b);
            conjuncts.push(le);
            conjuncts.push(ge);
        }
        Formula::and(conjuncts)
    }

    /// The clause `f_h(preferred) > f_h(other)` for one preference edge.
    fn edge_clause(
        &self,
        graph: &PrefGraph<Scenario>,
        preferred: ScenarioId,
        other: ScenarioId,
    ) -> Formula {
        self.clauses_compiled.set(self.clauses_compiled.get() + 1);
        self.f_h_at(graph.scenario(preferred)).gt(self.f_h_at(graph.scenario(other)))
    }

    /// The two tie atoms `f(a) - f(b) <= tol` and `f(a) - f(b) >= -tol`
    /// for one indifference pair.
    fn tie_clause(
        &self,
        graph: &PrefGraph<Scenario>,
        a: ScenarioId,
        b: ScenarioId,
    ) -> (Formula, Formula) {
        self.clauses_compiled.set(self.clauses_compiled.get() + 1);
        let diff = self.f_h_at(graph.scenario(a)).sub(self.f_h_at(graph.scenario(b)));
        (
            diff.clone().le(Term::constant(self.tie_tolerance.clone())),
            diff.ge(Term::constant(-self.tie_tolerance.clone())),
        )
    }

    /// The disambiguation formula for a frozen candidate `fa`.
    ///
    /// `exclusions` lists scenario pairs already produced this iteration;
    /// the new pair must differ from each of them by at least one metric
    /// step (keeps multi-pair iterations informative).
    #[must_use]
    pub fn disambiguation(
        &self,
        graph: &PrefGraph<Scenario>,
        fa: &CompletedObjective,
        exclusions: &[(Scenario, Scenario)],
    ) -> Formula {
        let mut conjuncts = vec![self.feasibility(graph)];

        let s1_terms: Vec<Term> = self.s1_ids.iter().map(|&v| Term::var(v)).collect();
        let s2_terms: Vec<Term> = self.s2_ids.iter().map(|&v| Term::var(v)).collect();

        let f_h_s1 = self.sketch.lower(&self.hole_terms(), &s1_terms);
        let f_h_s2 = self.sketch.lower(&self.hole_terms(), &s2_terms);
        let f_fa_s1 = fa.lower(&s1_terms);
        let f_fa_s2 = fa.lower(&s2_terms);

        let m = Term::constant(self.margin.clone());
        // Candidate h prefers s2; frozen fa prefers s1 — both by the margin.
        conjuncts.push(f_h_s2.sub(f_h_s1).ge(m.clone()));
        conjuncts.push(f_fa_s1.sub(f_fa_s2).ge(m));

        for (p1, p2) in exclusions {
            conjuncts.push(self.pair_differs(p1, p2));
        }
        Formula::and(conjuncts)
    }

    /// Constraint that the symbolic holes differ from `fa`'s holes by
    /// `sep_rel` times that hole's range width, in at least one coordinate
    /// or, with `only_hole`, in that hole alone — used to steer the
    /// fast-path search toward a genuinely different second candidate. The
    /// engine cycles the restriction across holes so every remaining
    /// degree of freedom gets probed; without it the solver keeps producing
    /// candidates that differ only in whichever hole is easiest to move.
    #[must_use]
    pub fn holes_differ_from_masked(
        &self,
        fa_holes: &[Rat],
        sep_rel: f64,
        only_hole: Option<usize>,
    ) -> Formula {
        let mut disjuncts = Vec::new();
        for (i, &var) in self.hole_ids.iter().enumerate() {
            if let Some(h) = only_hole {
                if i != h {
                    continue;
                }
            }
            let (lo, hi) = &self.hole_bounds[i];
            let width = hi - lo;
            let sep = &width * &Rat::from_f64(sep_rel).unwrap_or_else(Rat::zero);
            if sep.is_zero() {
                continue;
            }
            let h = Term::var(var);
            let c = Term::constant(fa_holes[i].clone());
            disjuncts.push(h.clone().sub(c.clone()).ge(Term::constant(sep.clone())));
            disjuncts.push(c.sub(h).ge(Term::constant(sep)));
        }
        Formula::or(disjuncts)
    }

    /// The scenario-only disagreement query for two *frozen* candidates:
    /// `f_fb(s2) − f_fb(s1) ≥ margin ∧ f_fa(s1) − f_fa(s2) ≥ margin`,
    /// over the s1/s2 variables alone (4 dimensions for SWAN). This is the
    /// fast path of the disambiguation search; the joint symbolic query is
    /// reserved for the final unsatisfiability proof.
    #[must_use]
    pub fn scenario_disagreement(
        &self,
        fa: &CompletedObjective,
        fb: &CompletedObjective,
        exclusions: &[(Scenario, Scenario)],
    ) -> Formula {
        let s1_terms: Vec<Term> = self.s1_ids.iter().map(|&v| Term::var(v)).collect();
        let s2_terms: Vec<Term> = self.s2_ids.iter().map(|&v| Term::var(v)).collect();
        let m = Term::constant(self.margin.clone());
        let mut conjuncts = vec![
            fb.lower(&s2_terms).sub(fb.lower(&s1_terms)).ge(m.clone()),
            fa.lower(&s1_terms).sub(fa.lower(&s2_terms)).ge(m),
        ];
        for (p1, p2) in exclusions {
            conjuncts.push(self.pair_differs(p1, p2));
        }
        Formula::and(conjuncts)
    }

    /// At least one coordinate of (s1, s2) differs from (p1, p2) by at
    /// least one separation step (1/50 of the metric range).
    fn pair_differs(&self, p1: &Scenario, p2: &Scenario) -> Formula {
        let mut disjuncts = Vec::new();
        for (ids, prev) in [(&self.s1_ids, p1), (&self.s2_ids, p2)] {
            for (d, &var) in ids.iter().enumerate() {
                let (lo, hi) = self.space.bounds(d);
                let sep = &(hi - lo) / &Rat::from_int(50);
                let x = Term::var(var);
                let c = Term::constant(prev.values()[d].clone());
                disjuncts.push(x.clone().sub(c.clone()).ge(Term::constant(sep.clone())));
                disjuncts.push(c.sub(x).ge(Term::constant(sep)));
            }
        }
        Formula::or(disjuncts)
    }

    /// The solver domain: hole ranges, then metric bounds for s1 and s2.
    #[must_use]
    pub fn domain(&self) -> BoxDomain {
        let mut dom = BoxDomain::new(&self.vars);
        for (i, &id) in self.hole_ids.iter().enumerate() {
            let (lo, hi) = &self.hole_bounds[i];
            dom.set(id, Interval::new(lo.to_f64(), hi.to_f64()));
        }
        for ids in [&self.s1_ids, &self.s2_ids] {
            for (d, &id) in ids.iter().enumerate() {
                let (lo, hi) = self.space.bounds(d);
                dom.set(id, Interval::new(lo.to_f64(), hi.to_f64()));
            }
        }
        dom
    }

    /// Per-dimension δ values: `delta_rel` times each dimension's range.
    #[must_use]
    pub fn deltas(&self, delta_rel: f64) -> Vec<f64> {
        let dom = self.domain();
        (0..dom.len())
            .map(|d| {
                let w = dom.intervals()[d].width();
                (w * delta_rel).max(1e-9)
            })
            .collect()
    }

    /// Extract hole values from a model.
    #[must_use]
    pub fn model_holes(&self, m: &Model) -> Vec<Rat> {
        self.hole_ids.iter().map(|&v| m.get(v).clone()).collect()
    }

    /// Extract the distinguishing scenario pair from a model.
    #[must_use]
    pub fn model_pair(&self, m: &Model) -> (Scenario, Scenario) {
        let s1 = Scenario::new(self.s1_ids.iter().map(|&v| m.get(v).clone()).collect());
        let s2 = Scenario::new(self.s2_ids.iter().map(|&v| m.get(v).clone()).collect());
        (s1, s2)
    }

    /// Build a seed model from hole values (scenario coordinates filled
    /// with metric-range midpoints).
    #[must_use]
    pub fn seed_from_holes(&self, holes: &[Rat]) -> Model {
        let mut values = vec![Rat::zero(); self.vars.len()];
        for (i, &id) in self.hole_ids.iter().enumerate() {
            values[id.index()] = holes.get(i).cloned().unwrap_or_else(Rat::zero);
        }
        for ids in [&self.s1_ids, &self.s2_ids] {
            for (d, &id) in ids.iter().enumerate() {
                let (lo, hi) = self.space.bounds(d);
                values[id.index()] = lo.midpoint(hi);
            }
        }
        Model::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cso_logic::eval::eval_formula;
    use cso_logic::solver::{Outcome, Solver, SolverConfig};
    use cso_sketch::swan::{swan_sketch, swan_target};

    fn setup() -> (QueryBuilder, PrefGraph<Scenario>) {
        let cfg = SynthConfig::default();
        let qb = QueryBuilder::new(swan_sketch(), MetricSpace::swan(), &cfg);
        let graph = PrefGraph::new();
        (qb, graph)
    }

    #[test]
    fn layout() {
        let (qb, _) = setup();
        assert_eq!(qb.hole_ids().len(), 4);
        assert_eq!(qb.registry().len(), 4 + 2 + 2);
        let dom = qb.domain();
        assert_eq!(dom.len(), 8);
        // l_thrsh hole range is [0, 200].
        assert_eq!(dom.get(qb.hole_ids()[1]).hi(), 200.0);
    }

    #[test]
    fn feasibility_accepts_target_and_rejects_violator() {
        let (qb, mut g) = setup();
        // (2, 10) scores 982 under the target; (2, 100) scores -998.
        let a = g.add_scenario(Scenario::from_ints(&[2, 10]));
        let b = g.add_scenario(Scenario::from_ints(&[2, 100]));
        g.prefer(a, b).unwrap();
        let f = qb.feasibility(&g);

        // Target holes satisfy it.
        let target = vec![Rat::from_int(1), Rat::from_int(50), Rat::from_int(1), Rat::from_int(5)];
        let env = qb.seed_from_holes(&target);
        assert!(eval_formula(&f, env.values()).unwrap());

        // Holes that invert the preference: both scenarios unsatisfying,
        // higher slope1 punishing (2,10)... use slopes making (2,100) win:
        // tp_thrsh=3 (neither satisfies): f(2,10) = 2 - s2*20, f(2,100) =
        // 2 - s2*200: (2,10) still wins for s2 > 0. Make s2 = 0: tie, not >.
        let bad = vec![Rat::from_int(3), Rat::zero(), Rat::zero(), Rat::zero()];
        let env_bad = qb.seed_from_holes(&bad);
        assert!(!eval_formula(&f, env_bad.values()).unwrap());
    }

    #[test]
    fn disambiguation_model_disagrees() {
        let (qb, mut g) = setup();
        let a = g.add_scenario(Scenario::from_ints(&[2, 10]));
        let b = g.add_scenario(Scenario::from_ints(&[2, 100]));
        g.prefer(a, b).unwrap();

        let fa = swan_target();
        let q = qb.disambiguation(&g, &fa, &[]);
        let cfg = SolverConfig {
            delta_per_dim: Some(qb.deltas(0.01)),
            max_boxes: 50_000,
            ..SolverConfig::default()
        };
        let mut solver = Solver::new(cfg);
        match solver.solve(&q, &qb.domain()) {
            Outcome::Sat(m) => {
                let fb = swan_sketch().complete(qb.model_holes(&m)).unwrap();
                let (s1, s2) = qb.model_pair(&m);
                // fb prefers s2, fa prefers s1, both by the margin.
                assert!(
                    fb.eval(s2.values()).unwrap() >= &fb.eval(s1.values()).unwrap() + &Rat::one()
                );
                assert!(
                    fa.eval(s1.values()).unwrap() >= &fa.eval(s2.values()).unwrap() + &Rat::one()
                );
            }
            o => panic!("expected a disambiguation, got {o:?}"),
        }
    }

    #[test]
    fn exclusions_force_fresh_pairs() {
        let (qb, g) = setup();
        let fa = swan_target();
        let p1 = Scenario::from_ints(&[2, 10]);
        let p2 = Scenario::from_ints(&[2, 100]);
        let q = qb.disambiguation(&g, &fa, &[(p1.clone(), p2.clone())]);
        // The excluded pair itself must violate the formula's exclusion
        // conjunct; check by evaluating the pair_differs part via a model
        // that reuses the same pair with target holes: feasibility empty,
        // margins may hold, but the exclusion disjunction must be false.
        let mut values = vec![Rat::zero(); qb.registry().len()];
        // holes = target
        for (i, v) in [1i64, 50, 1, 5].iter().enumerate() {
            values[qb.hole_ids()[i].index()] = Rat::from_int(*v);
        }
        for (d, v) in p1.values().iter().enumerate() {
            values[qb
                .registry()
                .get(&format!("s1_{}", MetricSpace::swan().name(d)))
                .unwrap()
                .index()] = v.clone();
        }
        for (d, v) in p2.values().iter().enumerate() {
            values[qb
                .registry()
                .get(&format!("s2_{}", MetricSpace::swan().name(d)))
                .unwrap()
                .index()] = v.clone();
        }
        assert!(!eval_formula(&q, &values).unwrap(), "identical pair must be excluded");
    }

    #[test]
    fn viability_constrains_holes() {
        let (mut qb, g) = setup();
        // Require slope1 <= slope2 (monotone penalty), a plausible domain
        // viability rule.
        let s1 = Term::var(qb.hole_ids()[2]);
        let s2 = Term::var(qb.hole_ids()[3]);
        qb.set_viability(s1.le(s2));
        let f = qb.feasibility(&g);
        let good = qb.seed_from_holes(&[
            Rat::from_int(1),
            Rat::from_int(50),
            Rat::from_int(1),
            Rat::from_int(5),
        ]);
        let bad = qb.seed_from_holes(&[
            Rat::from_int(1),
            Rat::from_int(50),
            Rat::from_int(5),
            Rat::from_int(1),
        ]);
        assert!(eval_formula(&f, good.values()).unwrap());
        assert!(!eval_formula(&f, bad.values()).unwrap());
    }

    #[test]
    fn deltas_scale_with_ranges() {
        let (qb, _) = setup();
        let d = qb.deltas(0.01);
        // hole l_thrsh (index 1) has range 200 -> delta 2.0; slopes 10 -> 0.1.
        assert!((d[qb.hole_ids()[1].index()] - 2.0).abs() < 1e-9);
        assert!((d[qb.hole_ids()[2].index()] - 0.1).abs() < 1e-9);
    }
}
