//! Tracing is strictly observational — the engine-level contract.
//!
//! These tests run the full SWAN synthesis with a trace sink attached and
//! assert three things the `cso_runtime::trace` unit tests cannot:
//!
//! 1. **Outcome transparency**: a traced run produces byte-identical
//!    synthesis results (outcome, hole values, iteration count, and the
//!    exact oracle interaction sequence) to an untraced run — tracing
//!    never feeds back into the loop.
//! 2. **Stream well-formedness at engine scale**: the event stream of a
//!    whole run — solver spans nested inside iteration spans — is
//!    balanced with monotone logical clocks. (Streams from many pool
//!    workers are covered by `cso-runtime`'s
//!    `prop_streams_are_well_formed_across_threads`.)
//! 3. **Counters and traces agree**: [`SolverTelemetry::from_events`]
//!    over the run's event stream reconstructs exactly the
//!    `stats.solver_totals` the engine aggregated imperatively.
//!
//! The process-wide sink is shared state, so every test here holds one
//! mutex for its full body (including untraced reference runs, which must
//! not be captured by a concurrently installed sink).

use cso_numeric::Rat;
use cso_runtime::trace;
use cso_sketch::swan::{swan_sketch, swan_target};
use cso_synth::stats::SolverTelemetry;
use cso_synth::{
    GroundTruthOracle, MetricSpace, Oracle, Ranking, Scenario, SynthConfig, SynthOutcome,
    Synthesizer,
};
use std::sync::{Arc, Mutex, PoisonError};

/// Serializes sink installation across this test binary.
static SINK_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SINK_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One oracle interaction: scenario values asked, grouped ranking given.
type Interaction = (Vec<Vec<Rat>>, Vec<Vec<usize>>);

/// Ground-truth oracle that records every interaction verbatim.
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

/// Tracing on vs off: identical synthesis outcomes; and the event stream
/// reconstructs the imperative telemetry exactly.
#[test]
fn traced_run_is_byte_identical_and_events_match_telemetry() {
    let _g = lock();
    let _ = trace::uninstall();
    let (plain, plain_totals) = run_swan(11);

    let mem = Arc::new(trace::MemorySink::new());
    trace::install(mem.clone());
    let (traced, traced_totals) = run_swan(11);
    let _ = trace::uninstall();
    let events = mem.take();

    assert_eq!(plain, traced, "tracing changed observable behaviour");
    // Phase times are wall-clock and legitimately differ run to run;
    // every deterministic counter must not.
    let zero_times = |t: &SolverTelemetry| SolverTelemetry {
        seeding_time: std::time::Duration::ZERO,
        bnp_time: std::time::Duration::ZERO,
        ..*t
    };
    assert_eq!(zero_times(&plain_totals), zero_times(&traced_totals), "tracing changed telemetry");

    trace::check_well_formed(&events).unwrap_or_else(|e| panic!("malformed stream: {e}"));
    assert_eq!(
        SolverTelemetry::from_events(&events),
        traced_totals,
        "event stream disagrees with imperative counters"
    );

    // The run's phase structure is present.
    let span_names: Vec<&str> = events
        .iter()
        .filter(|e| e.kind == trace::Kind::SpanStart)
        .map(|e| e.name.as_str())
        .collect();
    for phase in ["engine.run", "engine.initial_ranking", "engine.iteration", "engine.oracle"] {
        assert!(span_names.contains(&phase), "missing span {phase:?}");
    }
    // One iteration span per recorded iteration (plus possibly the
    // convergence iteration, which records no IterationRecord).
    let iter_spans = span_names.iter().filter(|n| **n == "engine.iteration").count();
    assert!(
        iter_spans >= traced.iterations,
        "{iter_spans} iteration spans for {} iterations",
        traced.iterations
    );
}

/// A full SWAN run through the JSONL sink: every line parses back, the
/// parsed stream is well-formed, and outcomes still match the untraced
/// run. (The `CSO_TRACE=jsonl:` environment path over a whole campaign is
/// exercised by `ci.sh`, which golden-diffs `table1.csv` traced vs not;
/// the environment is read once per process, so this test installs the
/// file sink programmatically.)
#[test]
fn jsonl_sink_full_run_roundtrips() {
    let _g = lock();
    let _ = trace::uninstall();
    let (plain, _) = run_swan(42);

    let path = std::env::temp_dir().join(format!("cso_trace_swan_{}.jsonl", std::process::id()));
    trace::install(Arc::new(trace::JsonlSink::create(&path).expect("create trace file")));
    let (traced, totals) = run_swan(42);
    let sink = trace::uninstall().expect("sink installed above");
    sink.flush();

    assert_eq!(plain, traced, "JSONL tracing changed observable behaviour");

    let text = std::fs::read_to_string(&path).expect("read trace file");
    let _ = std::fs::remove_file(&path);
    assert!(!text.is_empty(), "traced run wrote no events");
    let events: Vec<trace::Event> = text
        .lines()
        .map(|l| trace::parse_line(l).unwrap_or_else(|e| panic!("unparseable line: {e}\n{l}")))
        .collect();
    trace::check_well_formed(&events).expect("file stream well-formed");
    assert_eq!(
        SolverTelemetry::from_events(&events),
        totals,
        "parsed JSONL disagrees with imperative counters"
    );
    // The per-phase digest has something to fold: solver spans carry
    // durations.
    assert!(events
        .iter()
        .any(|e| e.kind == trace::Kind::SpanEnd && e.name == "solver.bnp" && e.dur_ns.is_some()));
}
