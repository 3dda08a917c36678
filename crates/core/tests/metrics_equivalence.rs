//! Metrics are strictly observational — the engine-level contract.
//!
//! Mirrors `tests/tracing.rs` (the PR that added tracing proved the same
//! property for spans): a full SWAN synthesis with `CSO_METRICS`
//! collection enabled must produce byte-identical results — outcome,
//! hole values, iteration count, the exact oracle interaction sequence —
//! to a run with metrics off, while actually accumulating solver
//! counters. (`ci.sh` extends the same
//! check to a whole Table 1 campaign, golden-diffing `table1.csv`.)
//!
//! The second half pins the trace→metrics bridge: folding a real run's
//! event stream through [`cso_runtime::metrics::FlameFold`] yields
//! collapsed stacks whose per-phase totals reconcile exactly with the
//! span durations in the stream, and with the solver phase times
//! [`SolverTelemetry::from_events`] reconstructs.
//!
//! Both the trace sink and the metrics registry are process-global, so
//! every test holds one mutex for its full body.

use cso_numeric::Rat;
use cso_runtime::metrics::{self, FlameFold};
use cso_runtime::trace;
use cso_sketch::swan::{swan_sketch, swan_target};
use cso_synth::stats::SolverTelemetry;
use cso_synth::{
    GroundTruthOracle, MetricSpace, Oracle, Ranking, Scenario, SynthConfig, SynthOutcome,
    Synthesizer,
};
use std::sync::{Arc, Mutex, PoisonError};

/// Serializes trace-sink and metrics-state flips across this binary.
static SINK_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SINK_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

type Interaction = (Vec<Vec<Rat>>, Vec<Vec<usize>>);

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

/// Everything the architect can observe about one synthesis run.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: SynthOutcome,
    iterations: usize,
    holes: Vec<Rat>,
    rendered: String,
    trace: Vec<Interaction>,
}

fn run_swan(seed: u64) -> (Observed, SolverTelemetry) {
    let mut cfg = SynthConfig::fast_test();
    cfg.seed = seed;
    let mut synth = Synthesizer::new(swan_sketch(), MetricSpace::swan(), cfg)
        .expect("SWAN sketch matches its metric space");
    let mut oracle = RecordingOracle::new();
    let result = synth.run(&mut oracle).expect("ground-truth oracle is consistent");
    (
        Observed {
            outcome: result.outcome,
            iterations: result.stats.iterations(),
            holes: result.objective.hole_values().to_vec(),
            rendered: result.objective.to_string(),
            trace: oracle.trace,
        },
        result.stats.solver_totals,
    )
}

/// Metrics on vs off: identical synthesis outcomes and identical
/// deterministic telemetry, while the on-run demonstrably accumulated
/// solver counters.
#[test]
fn metrics_on_run_is_byte_identical() {
    let _g = lock();
    metrics::disable();
    let (plain, plain_totals) = run_swan(11);

    metrics::enable();
    let before = metrics::snapshot();
    let (metered, metered_totals) = run_swan(11);
    let delta = metrics::snapshot().delta(&before);
    metrics::disable();

    assert_eq!(plain, metered, "metrics changed observable behaviour");
    let zero_times = |t: &SolverTelemetry| SolverTelemetry {
        seeding_time: std::time::Duration::ZERO,
        bnp_time: std::time::Duration::ZERO,
        ..*t
    };
    assert_eq!(zero_times(&plain_totals), zero_times(&metered_totals), "metrics changed telemetry");

    // The enabled run really collected: every solver-work counter
    // delta agrees with the telemetry.
    let counter = |name: &str| delta.counters.get(name).copied().unwrap_or(0);
    let t = &metered_totals;
    for (name, want) in [
        ("cso_solver_queries_total", t.queries),
        ("cso_solver_boxes_total", t.boxes_explored),
        ("cso_solver_boxes_pruned_total", t.boxes_pruned),
        ("cso_solver_residual_boxes_total", t.residual_boxes),
        ("cso_solver_samples_total", t.samples_tried),
        ("cso_solver_eval_errors_total", t.eval_errors),
    ] {
        assert_eq!(counter(name), want as u64, "{name} drifted from telemetry");
    }
    let verdicts: u64 = ["sat", "unsat", "delta_unsat", "exhausted"]
        .iter()
        .map(|v| counter(&format!("cso_solver_{v}_total")))
        .sum();
    assert_eq!(verdicts, t.queries as u64, "one verdict per query");
    assert!(t.queries > 0, "no queries counted");
    assert!(counter("cso_engine_oracle_calls_total") > 0, "no oracle calls counted");
    // Contraction work: every emptied box is also a pruned one, and a
    // SWAN run contracts some boxes.
    let (contracted, emptied) =
        (counter("cso_solver_contracted_total"), counter("cso_solver_emptied_total"));
    assert!(contracted > 0, "no contracted boxes counted");
    assert!(emptied <= t.boxes_pruned as u64, "emptied boxes not pruned");
    let bnp = delta.histograms.get("cso_solver_bnp_ns").expect("bnp histogram registered");
    assert_eq!(bnp.count(), counter("cso_solver_queries_total"), "one bnp duration per query");
}

/// Flame reconciliation: fold a real run's event stream and check the
/// collapsed stacks against the raw span durations and the telemetry
/// that `from_events` reconstructs.
#[test]
fn flame_stacks_reconcile_with_span_durations() {
    let _g = lock();
    let _ = trace::uninstall();
    let mem = Arc::new(trace::MemorySink::new());
    trace::install(mem.clone());
    let (_, totals) = run_swan(7);
    let _ = trace::uninstall();
    let events = mem.take();
    trace::check_well_formed(&events).expect("stream well-formed");

    let mut fold = FlameFold::new();
    fold.feed_all(&events);
    let report = fold.finish();
    assert_eq!(report.dropped, 0, "well-formed stream folds without drops");
    assert_eq!(report.unclosed, 0, "well-formed stream leaves nothing open");
    assert!(!report.stacks.is_empty(), "a full run produces flame stacks");

    // Exact invariant: for every span name (none self-nest in this
    // engine), total self-time over stacks containing it equals the sum
    // of its span durations, integer-exactly; and the per-phase
    // histogram saw exactly those durations.
    let mut span_totals: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for e in &events {
        if e.kind == trace::Kind::SpanEnd {
            let slot = span_totals.entry(&e.name).or_insert((0, 0));
            slot.0 += e.dur_ns.unwrap_or(0);
            slot.1 += 1;
        }
    }
    for (name, (dur_sum, count)) in &span_totals {
        assert_eq!(
            report.inclusive_ns(name),
            *dur_sum,
            "phase {name}: flame self-times do not sum back to span durations"
        );
        let h = &report.phases[*name];
        assert_eq!(h.count(), *count, "phase {name}: histogram count");
        assert_eq!(h.sum(), *dur_sum, "phase {name}: histogram sum");
    }

    // Root-to-leaf ancestry made it into the paths: branch-and-prune
    // burns its time under an engine iteration.
    assert!(
        report.stacks.keys().any(|p| p.contains("engine.iteration") && p.ends_with("solver.bnp")),
        "no engine.iteration;…;solver.bnp stack in {:?}",
        report.stacks.keys().take(10).collect::<Vec<_>>()
    );

    // Reconcile with SolverTelemetry::from_events: the solver.bnp span
    // sits strictly inside the stats.bnp_time window solve_compiled
    // measures, so the flame total is bounded above by the telemetry
    // total and must account for most of it.
    assert_eq!(SolverTelemetry::from_events(&events), totals, "from_events drifted");
    let flame_bnp = report.inclusive_ns("solver.bnp");
    let telemetry_bnp = u64::try_from(totals.bnp_time.as_nanos()).unwrap_or(u64::MAX);
    assert!(
        flame_bnp <= telemetry_bnp,
        "flame bnp {flame_bnp}ns exceeds telemetry window {telemetry_bnp}ns"
    );
    assert!(
        flame_bnp * 2 >= telemetry_bnp,
        "flame bnp {flame_bnp}ns accounts for under half the telemetry window {telemetry_bnp}ns"
    );
}
