//! Synthesis engine configuration.

use cso_logic::solver::SolverConfig;
use cso_numeric::Rat;

/// What the engine does with static-analysis findings on the sketch.
///
/// The `CSO_LINT` environment variable (`deny`, `warn`, or `off`)
/// overrides the configured policy process-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintPolicy {
    /// Run the analyzer and refuse sketches with `Error`-level findings
    /// (the default): a sketch that divides by a constant zero or can
    /// never rank two scenarios apart would waste the whole oracle budget.
    Deny,
    /// Run the analyzer and surface findings as trace messages, but
    /// synthesize regardless of severity.
    Warn,
    /// Skip the analyzer entirely.
    Off,
}

/// Tuning knobs for the interactive synthesis loop.
///
/// Defaults reproduce the paper's baseline configuration: 5 random initial
/// scenarios, 1 additional ranked pair per iteration.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Randomly generated scenarios ranked once up front (Figure 5 varies
    /// this in {0, 2, 5, 7, 10}).
    pub initial_scenarios: usize,
    /// Scenario pairs generated and ranked per iteration (Figure 4 varies
    /// this in {1, .., 5}).
    pub pairs_per_iteration: usize,
    /// Hard cap on iterations before giving up.
    pub max_iterations: usize,
    /// Margin below which two candidate objectives are considered
    /// behaviourally equivalent: convergence means no scenario pair
    /// separates two consistent candidates by more than this.
    pub margin: Rat,
    /// Tolerance used for indifference edges (`|f(a) - f(b)| <= tie_tol`).
    pub tie_tolerance: Rat,
    /// Default range for holes declared without `in [lo, hi]`.
    pub default_hole_range: (Rat, Rat),
    /// RNG seed; the whole loop is deterministic given the seed and oracle.
    pub seed: u64,
    /// Underlying δ-solver configuration. `delta_per_dim` is filled in by
    /// the engine from hole ranges and metric bounds (relative δ below).
    pub solver: SolverConfig,
    /// Relative δ: each solver dimension gets `delta_rel * range_width`.
    pub delta_rel: f64,
    /// Consecutive exhausted disambiguation queries tolerated before the
    /// engine declares convergence-by-budget. A dry iteration changes no
    /// input of the next, so the engine counts the retries without
    /// re-solving them: the setting only decides how many iterations the
    /// streak spends against `max_iterations`. Kept only because the perf
    /// ledger (`ledger/src/workload.rs`) still sets it.
    pub max_exhausted_streak: usize,
    /// Repair inconsistent preference graphs (noisy oracles) instead of
    /// failing (§6.1 robustness).
    pub repair_noise: bool,
    /// Fast-path attempts per pair: candidate-then-scenario decomposed
    /// searches tried before falling back to the joint symbolic query.
    pub disamb_attempts: usize,
    /// The final unsatisfiability proof runs at `proof_delta_factor × δ`
    /// (coarser is sound for a δ-convergence check and much cheaper).
    pub proof_delta_factor: f64,
    /// Static-analysis policy applied to the sketch before synthesis.
    /// `CSO_LINT={deny,warn,off}` overrides it process-wide.
    pub lint: LintPolicy,
}

impl Default for SynthConfig {
    fn default() -> SynthConfig {
        SynthConfig {
            initial_scenarios: 5,
            pairs_per_iteration: 1,
            max_iterations: 200,
            margin: Rat::from_int(1),
            tie_tolerance: Rat::from_frac(1, 1000),
            default_hole_range: (Rat::from_int(-1000), Rat::from_int(1000)),
            seed: 1,
            solver: SolverConfig::default(),
            delta_rel: 2e-3,
            max_exhausted_streak: 2,
            repair_noise: false,
            disamb_attempts: 6,
            proof_delta_factor: 2.0,
            lint: LintPolicy::Deny,
        }
    }
}

impl SynthConfig {
    /// A configuration tuned for fast unit tests: coarser δ, smaller solver
    /// budgets. Converges on the SWAN sketch in a few seconds.
    #[must_use]
    pub fn fast_test() -> SynthConfig {
        let mut cfg = SynthConfig {
            delta_rel: 0.03,
            margin: Rat::from_int(5),
            max_iterations: 80,
            ..SynthConfig::default()
        };
        cfg.solver.max_boxes = 4_000;
        cfg.solver.initial_samples = 96;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_baseline() {
        let c = SynthConfig::default();
        assert_eq!(c.initial_scenarios, 5);
        assert_eq!(c.pairs_per_iteration, 1);
        assert!(c.margin.is_positive());
        assert_eq!(c.lint, LintPolicy::Deny);
    }

    #[test]
    fn fast_test_is_coarser() {
        let c = SynthConfig::fast_test();
        assert!(c.delta_rel > SynthConfig::default().delta_rel);
        assert!(c.solver.max_boxes < SolverConfig::default().max_boxes);
    }
}
