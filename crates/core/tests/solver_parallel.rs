//! Parallel branch-and-prune must be invisible to the synthesis loop:
//! running the whole SWAN campaign with `solver.threads = 4` has to
//! reproduce the sequential run exactly — same outcome, iteration count,
//! hole values and rendered objective, the exact same sequence of ranking
//! requests sent to the oracle, and the same deterministic solver work
//! counters — on the real disambiguation queries, for several seeds.

use cso_numeric::Rat;
use cso_sketch::swan::{swan_sketch, swan_target};
use cso_synth::{
    GroundTruthOracle, MetricSpace, Oracle, Ranking, Scenario, SynthConfig, SynthOutcome,
    Synthesizer,
};

/// One oracle interaction: the exact rational scenario values asked
/// about, and the grouped ranking returned.
type Interaction = (Vec<Vec<Rat>>, Vec<Vec<usize>>);

/// Wraps the ground-truth oracle and records every interaction verbatim.
/// Equal traces ⇒ equal engine-visible behaviour.
struct RecordingOracle {
    inner: GroundTruthOracle,
    trace: Vec<Interaction>,
}

impl RecordingOracle {
    fn new() -> RecordingOracle {
        RecordingOracle { inner: GroundTruthOracle::new(swan_target()), trace: Vec::new() }
    }
}

impl Oracle for RecordingOracle {
    fn rank(&mut self, scenarios: &[Scenario]) -> Ranking {
        let r = self.inner.rank(scenarios);
        self.trace
            .push((scenarios.iter().map(|s| s.values().to_vec()).collect(), r.groups.clone()));
        r
    }

    fn describe(&self) -> String {
        "recording ground truth".to_owned()
    }
}

/// Everything the architect can observe about one synthesis run, plus the
/// deterministic solver work counters.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: SynthOutcome,
    iterations: usize,
    holes: Vec<Rat>,
    rendered: String,
    trace: Vec<Interaction>,
    queries: usize,
    boxes_explored: usize,
    boxes_pruned: usize,
    samples_tried: usize,
    eval_errors: usize,
}

fn run_swan(seed: u64, threads: usize) -> Observed {
    let mut cfg = SynthConfig::fast_test();
    cfg.seed = seed;
    cfg.solver.threads = threads;
    let mut synth = Synthesizer::new(swan_sketch(), MetricSpace::swan(), cfg)
        .expect("SWAN sketch matches its metric space");
    let mut oracle = RecordingOracle::new();
    let result = synth.run(&mut oracle).expect("ground-truth oracle is consistent");
    let totals = result.stats.solver_totals;
    Observed {
        outcome: result.outcome,
        iterations: result.stats.iterations(),
        holes: result.objective.hole_values().to_vec(),
        rendered: result.objective.to_string(),
        trace: oracle.trace,
        queries: totals.queries,
        boxes_explored: totals.boxes_explored,
        boxes_pruned: totals.boxes_pruned,
        samples_tried: totals.samples_tried,
        eval_errors: totals.eval_errors,
    }
}

#[test]
fn parallel_solver_reproduces_sequential_runs() {
    for seed in [2026u64, 7] {
        let seq = run_swan(seed, 1);
        let par = run_swan(seed, 4);
        assert!(!seq.trace.is_empty(), "seed {seed}: the oracle was never asked");
        assert_eq!(seq, par, "seed {seed}: threads=4 diverged from threads=1");
    }
}
