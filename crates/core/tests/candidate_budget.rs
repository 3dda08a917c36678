//! A consistent architect never gets `NoViableCandidate` for a budget-out.
//!
//! Engine seed 6 561 849 on the Quick profile (the perf ledger's
//! `swan_quick --seed 1602`, run 57) used to fail in its first iteration:
//! the feasibility search exhausted its box budget at every escalation and
//! `find_candidate` reported `NoViableCandidate`, although the ground-truth
//! target satisfies every recorded preference. The search now escalates
//! further, and an exhausted search is reported as its own error, so
//! `NoViableCandidate` keeps meaning that infeasibility was proven.

use cso_sketch::swan::{swan_sketch, swan_target};
use cso_synth::{GroundTruthOracle, MetricSpace, SynthConfig, SynthOutcome, Synthesizer};

#[test]
fn hard_first_feasibility_search_escalates_instead_of_failing() {
    let mut cfg = SynthConfig::fast_test();
    cfg.seed = 6_561_849;
    let mut synth = Synthesizer::new(swan_sketch(), MetricSpace::swan(), cfg)
        .expect("SWAN sketch matches its metric space");
    let result = synth
        .run(&mut GroundTruthOracle::new(swan_target()))
        .expect("a consistent architect always leaves a viable candidate");
    assert_eq!(result.outcome, SynthOutcome::ConvergedBudget);
}
