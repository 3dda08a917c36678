//! The exhausted-streak retry is counted, not re-solved.
//!
//! A dry iteration (its pair search exhausted the box budget) records
//! nothing, so the retry the streak allows would find the same candidate
//! and replay the same pair search. The engine counts those retries
//! against `max_iterations` without issuing them. These tests run the
//! Table 1 Quick runs (seeds 1000–1002, the default SWAN target) under
//! `max_exhausted_streak` 1 and 2 and check that the longer streak adds
//! no solver work and changes nothing the run reports, and that the
//! iteration cap still ends a streak the way re-solving retries did.

use cso_sketch::swan::{swan_sketch, swan_target};
use cso_synth::stats::SolverTelemetry;
use cso_synth::{
    GroundTruthOracle, IterationRecord, MetricSpace, SynthConfig, SynthOutcome, SynthResult,
    Synthesizer,
};

/// The Quick profile's seeds (`repro table1`).
const QUICK_SEEDS: [u64; 3] = [1000, 1001, 1002];

/// One Quick run with the given streak length and, optionally, an
/// iteration cap.
fn quick_run(seed: u64, streak: usize, max_iterations: Option<usize>) -> SynthResult {
    let mut cfg = SynthConfig::fast_test();
    cfg.seed = seed;
    cfg.max_exhausted_streak = streak;
    if let Some(cap) = max_iterations {
        cfg.max_iterations = cap;
    }
    let mut synth = Synthesizer::new(swan_sketch(), MetricSpace::swan(), cfg)
        .expect("SWAN sketch matches its metric space");
    synth.run(&mut GroundTruthOracle::new(swan_target())).expect("ground-truth oracle")
}

/// Every deterministic work counter (the phase times are wall clock).
fn work(t: &SolverTelemetry) -> [usize; 6] {
    [t.queries, t.boxes_explored, t.boxes_pruned, t.residual_boxes, t.samples_tried, t.eval_errors]
}

/// The deterministic part of each iteration record.
fn records(rs: &[IterationRecord]) -> Vec<(usize, usize, bool, [usize; 6])> {
    rs.iter().map(|r| (r.index, r.scenarios_asked, r.sat_from_seeding, work(&r.solver))).collect()
}

#[test]
fn streak_retries_issue_no_solver_work() {
    for seed in QUICK_SEEDS {
        let one = quick_run(seed, 1, None);
        let two = quick_run(seed, 2, None);
        assert_eq!(two.outcome, SynthOutcome::ConvergedBudget, "seed {seed}");
        assert_eq!(one.outcome, two.outcome, "seed {seed}");
        assert_eq!(one.objective.hole_values(), two.objective.hole_values(), "seed {seed}");
        assert_eq!(records(&one.stats.records), records(&two.stats.records), "seed {seed}");
        assert_eq!(
            work(&one.stats.solver_totals),
            work(&two.stats.solver_totals),
            "seed {seed}: the streak's retry issued solver work"
        );
    }
}

#[test]
fn iteration_cap_at_the_dry_iteration_ends_the_streak_as_before() {
    for seed in QUICK_SEEDS {
        let full = quick_run(seed, 2, None);
        // Records are consecutive and every run here ends on a dry
        // iteration, so it is the one after the last record.
        let dry = full.stats.records.last().map_or(1, |r| r.index + 1);
        // The first dry iteration is the last one the cap allows: the
        // retrying engine would have stopped at the cap before retrying.
        let capped = quick_run(seed, 2, Some(dry));
        assert_eq!(capped.outcome, SynthOutcome::IterationLimit, "seed {seed}");
        assert_eq!(records(&capped.stats.records), records(&full.stats.records), "seed {seed}");
        assert_eq!(capped.objective.hole_values(), full.objective.hole_values(), "seed {seed}");
        // A one-iteration streak ends on the dry iteration itself.
        let single = quick_run(seed, 1, Some(dry));
        assert_eq!(single.outcome, SynthOutcome::ConvergedBudget, "seed {seed}");
    }
}
