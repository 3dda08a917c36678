//! The workloads and the passes that run them.
//!
//! A workload turns `--seed` into a stream of synthesis runs (fleets of
//! sessions on `fleet`) and drives them only through the program's public
//! entry points, timing every call from outside. An untraced run repeats
//! whole runs until `--seconds` have passed and reports the end-to-end
//! metrics. A traced run does every unit twice, once with a trace sink
//! installed, checks that both passes did the same work, and folds the
//! events into the per-layer table.

use crate::fold::{self, Probes, Replay, RunFacts};
use crate::report::RunReport;
use crate::stats;
use cso_analysis::{analyze, AnalysisConfig};
use cso_logic::solver::Solver;
use cso_logic::CompiledQuery;
use cso_numeric::Rat;
use cso_runtime::trace::{self, MemorySink};
use cso_serve::{ServeConfig, SessionManager};
use cso_sketch::swan::{swan_sketch, swan_target, swan_target_with};
use cso_sketch::CompletedObjective;
use cso_synth::engine::StepResult;
use cso_synth::query::QueryBuilder;
use cso_synth::verify::preference_agreement;
use cso_synth::{
    GroundTruthOracle, IndifferenceOracle, MetricSpace, NoisyOracle, Oracle, Ranking, Scenario,
    Session, SynthConfig, SynthResult, Synthesizer,
};
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The ledger's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 1's Quick profile against the ground-truth architect.
    SwanQuick,
    /// The Quick profile against architects who err or cannot tell
    /// scenarios apart.
    SwanNoisy,
    /// Evicting session fleets through `SessionManager`.
    Fleet,
}

/// Spacing of the run streams of consecutive `--seed` values: no pass
/// reaches this many runs, so two seeds never share a run.
const SEED_STRIDE: u64 = 4096;

/// Engine seed of run (or session) `index` under workload seed `seed`.
#[must_use]
pub fn run_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(SEED_STRIDE).wrapping_add(index)
}

/// Measuring time of one run, in seconds (`run_seconds` in
/// `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 30.0;

/// Sessions per fleet, and per fleet under `--smoke`.
const FLEET_SESSIONS: usize = 64;
const SMOKE_SESSIONS: usize = 16;
/// Set-ups timed before each unit of an untraced run; `setup_s` is the
/// median over the run, so a burst of host noise moves it no more than it
/// moves the waits.
const SETUPS_PER_UNIT: u64 = 3;
/// Synthesizers one swan set-up builds.
const SETUP_SYNTHS: usize = 32;
/// Runs whose final proof query a traced run replays.
const REPLAYS: usize = 3;
/// Box budget of a replay.
const REPLAY_BOXES: usize = 20_000;
/// `analyze` calls timed for `analysis.analyze_us`.
const ANALYZE_CALLS: usize = 100;
/// Share of `--seconds` after which a traced run starts no new pair of
/// untraced and traced units.
const TRACED_SHARE: f64 = 0.75;
/// Probability that the noisy architect flips a pair answer.
const PAIR_NOISE: f64 = 0.2;
/// Objective gap below which the indifferent architect calls a tie (about
/// one run in five then answers a tie), and the tie tolerance the engine
/// is told. At the engine's default tolerance (1/1000) the hidden target
/// itself violates the tie clauses and about one run in six ends with no
/// viable candidate; at a tolerance of one gap, chained ties still do in
/// about one run in two hundred. Ten gaps failed none of 660 runs.
const INDIFFERENCE: i64 = 10;
const TIE_TOLERANCE: i64 = 100;
/// Largest share by which outside-timed synthesis may exceed the
/// engine's own `total_time`.
const ENGINE_CLOCK_SLACK: f64 = 0.02;
/// Largest share by which folded span time may differ from the traced
/// synthesis time measured from outside.
const ATTRIBUTION_SLACK: f64 = 0.05;

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::SwanQuick, Workload::SwanNoisy, Workload::Fleet];

    /// The name `BENCHMARK.json` and the command line use.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SwanQuick => "swan_quick",
            Workload::SwanNoisy => "swan_noisy",
            Workload::Fleet => "fleet",
        }
    }

    /// Look a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed `--all` uses unless told otherwise.
    #[must_use]
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::SwanQuick => 1000,
            Workload::SwanNoisy => 4000,
            Workload::Fleet => 1,
        }
    }

    /// Lowest acceptable mean agreement of an untraced run: 0.05 below the
    /// lowest of 20–30 such runs (seeds 1–20, 30 s each) measured when the
    /// ledger was introduced.
    fn agreement_floor(self) -> f64 {
        match self {
            Workload::SwanQuick => 0.93,
            Workload::SwanNoisy => 0.88,
            Workload::Fleet => 0.89,
        }
    }
}

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Measuring time in seconds.
    pub seconds: f64,
    /// One run (one 16-session fleet) per pass, for fast iteration.
    pub smoke: bool,
    /// Where traces and snapshots go.
    pub outdir: PathBuf,
}

/// One synthesis run (one session on `fleet`) as the ledger saw it.
#[derive(Debug, Clone, Default)]
struct Record {
    /// Each wait, in seconds: from submitting an answer (or starting)
    /// to receiving the next question or the result.
    waits: Vec<f64>,
    /// Outside-timed synthesis seconds (the sum of `waits`).
    synth_s: f64,
    /// The engine's own `SynthStats::total_time`, where the outside
    /// timing covers the same calls.
    engine_s: Option<f64>,
    /// Iterations answered.
    iterations: usize,
    /// Iterations whose pair search was answered from seeding.
    seeded_iterations: usize,
    /// Solver queries run.
    queries: usize,
    /// Branch-and-prune boxes explored.
    boxes: usize,
    /// Solver queries answered from the memo.
    memo_hits: usize,
    /// Preference edges recorded.
    edges: usize,
    /// Preference agreement with the architect's hidden objective.
    agreement: f64,
    /// Why the run failed, if it did.
    failure: Option<String>,
}

impl Record {
    /// The counters a traced and an untraced pass must agree on.
    fn deterministic(&self) -> (usize, usize, usize, usize, u64) {
        (self.iterations, self.queries, self.boxes, self.memo_hits, self.agreement.to_bits())
    }

    fn finish(&mut self, result: &SynthResult, target: &CompletedObjective, seed: u64) {
        let st = &result.stats;
        self.iterations = st.iterations();
        self.seeded_iterations = st.records.iter().filter(|r| r.sat_from_seeding).count();
        self.queries = st.solver_totals.queries;
        self.boxes = st.solver_totals.boxes_explored;
        self.memo_hits = st.solver_totals.cache_hits;
        self.edges = st.edges_recorded;
        self.agreement = preference_agreement(
            &result.objective,
            target,
            &MetricSpace::swan(),
            300,
            seed ^ 0xA6E,
            &Rat::from_int(20),
        );
    }
}

/// A finished run kept for the layer probes.
struct Finished {
    synth: Synthesizer,
    objective: CompletedObjective,
    cfg: SynthConfig,
}

#[derive(Default)]
struct Pass {
    records: Vec<Record>,
    units: usize,
    finished: Vec<Finished>,
    probes: Probes,
    snapshot_failures: usize,
}

impl Pass {
    fn waits(&self) -> Vec<f64> {
        self.records.iter().flat_map(|r| r.waits.iter().copied()).collect()
    }

    fn synth_s(&self) -> f64 {
        self.records.iter().map(|r| r.synth_s).sum()
    }

    fn failed(&self) -> u64 {
        self.records.iter().filter(|r| r.failure.is_some()).count() as u64
    }

    fn mean_agreement(&self) -> f64 {
        let done: Vec<f64> =
            self.records.iter().filter(|r| r.failure.is_none()).map(|r| r.agreement).collect();
        done.iter().sum::<f64>() / done.len().max(1) as f64
    }
}

/// The architect of Table 1 who answers pair questions wrongly with
/// probability [`PAIR_NOISE`] but ranks the initial scenarios truthfully:
/// a wrong initial ranking can leave no viable candidate at all, and the
/// workload must not fail.
struct PairNoise {
    truth: GroundTruthOracle,
    noisy: NoisyOracle<GroundTruthOracle>,
}

impl Oracle for PairNoise {
    fn rank(&mut self, scenarios: &[Scenario]) -> Ranking {
        if scenarios.len() == 2 {
            self.noisy.rank(scenarios)
        } else {
            self.truth.rank(scenarios)
        }
    }
}

/// The configuration, architect and hidden objective of swan run `index`.
fn swan_run_inputs(
    w: Workload,
    index: u64,
    seed: u64,
) -> (SynthConfig, Box<dyn Oracle>, CompletedObjective) {
    let mut cfg = SynthConfig { seed, ..SynthConfig::fast_test() };
    cfg.solver.threads = 1;
    let target = swan_target();
    let oracle: Box<dyn Oracle> = match w {
        Workload::SwanNoisy if index.is_multiple_of(2) => {
            cfg.repair_noise = true;
            Box::new(PairNoise {
                truth: GroundTruthOracle::new(target.clone()),
                noisy: NoisyOracle::new(GroundTruthOracle::new(target.clone()), PAIR_NOISE, seed),
            })
        }
        Workload::SwanNoisy => {
            cfg.tie_tolerance = Rat::from_int(TIE_TOLERANCE);
            Box::new(IndifferenceOracle::new(target.clone(), Rat::from_int(INDIFFERENCE)))
        }
        _ => Box::new(GroundTruthOracle::new(target.clone())),
    };
    (cfg, oracle, target)
}

/// `cso-serve --bench`'s fleet configuration: coarse enough that a
/// session costs milliseconds, at most 8 iterations, one solver thread.
fn fleet_cfg(seed: u64) -> SynthConfig {
    let mut cfg = SynthConfig {
        seed,
        delta_rel: 0.2,
        max_iterations: 8,
        initial_scenarios: 2,
        max_exhausted_streak: 1,
        disamb_attempts: 2,
        margin: Rat::from_int(10),
        ..SynthConfig::default()
    };
    cfg.solver.delta = 0.05;
    cfg.solver.max_boxes = 300;
    cfg.solver.initial_samples = 12;
    cfg.solver.jitters_per_seed = 4;
    cfg.solver.threads = 1;
    cfg
}

/// `cso-serve --bench`'s architect of session `id`: one of six targets.
fn fleet_target(id: u64) -> CompletedObjective {
    let i = id as i64;
    swan_target_with(1 + i % 3, 40 + 10 * (i % 3), 1 + i % 2, 5 + i % 3)
}

fn new_synth(cfg: &SynthConfig) -> Synthesizer {
    Synthesizer::new(swan_sketch(), MetricSpace::swan(), cfg.clone())
        .expect("the SWAN sketch matches its metric space and passes lint")
}

fn fleet_manager(seed: u64, first: u64, sessions: usize, snapdir: &Path) -> SessionManager {
    let mut mgr = SessionManager::new(ServeConfig {
        snapdir: Some(snapdir.to_path_buf()),
        ..ServeConfig::default()
    });
    for id in first..first + sessions as u64 {
        mgr.insert(Session::new(id, new_synth(&fleet_cfg(run_seed(seed, id)))));
    }
    mgr
}

/// Seconds of one set-up: building the synthesizers of [`SETUP_SYNTHS`]
/// swan runs, or filling a fleet's session manager. `rep` picks fresh
/// seeds so no two set-ups build the same runs.
fn time_setup(w: Workload, opts: &Options, rep: u64) -> f64 {
    let first = rep * SETUP_SYNTHS as u64;
    if w == Workload::Fleet {
        let t = Instant::now();
        let mgr = fleet_manager(opts.seed, first, fleet_sessions(opts), &snapdir(opts));
        let secs = t.elapsed().as_secs_f64();
        drop(mgr);
        return secs;
    }
    let cfgs: Vec<SynthConfig> = (first..first + SETUP_SYNTHS as u64)
        .map(|i| swan_run_inputs(w, i, run_seed(opts.seed, i)).0)
        .collect();
    let t = Instant::now();
    let synths: Vec<Synthesizer> = cfgs.iter().map(new_synth).collect();
    let secs = t.elapsed().as_secs_f64();
    drop(synths);
    secs
}

fn fleet_sessions(opts: &Options) -> usize {
    if opts.smoke {
        SMOKE_SESSIONS
    } else {
        FLEET_SESSIONS
    }
}

/// Drive swan run `index` to its result.
fn swan_run(w: Workload, opts: &Options, index: u64, traced: bool, pass: &mut Pass) {
    let seed = run_seed(opts.seed, index);
    let (cfg, mut oracle, target) = swan_run_inputs(w, index, seed);
    let mut synth = new_synth(&cfg);
    let mut rec = Record::default();
    let mut wait = 0.0;
    let result = loop {
        let t = Instant::now();
        let step = {
            let _sp = trace::span("bench.step");
            synth.step()
        };
        wait += t.elapsed().as_secs_f64();
        rec.waits.push(wait);
        match step {
            StepResult::NeedsRanking { scenarios, .. } => {
                let ranking = oracle.rank(&scenarios);
                let t = Instant::now();
                let answered = {
                    let _sp = trace::span("bench.answer");
                    synth.answer(&ranking)
                };
                wait = t.elapsed().as_secs_f64();
                if traced {
                    pass.probes.answer_s.push(wait);
                }
                if let Err(e) = answered {
                    rec.failure = Some(format!("answer failed: {e}"));
                    rec.waits.push(wait);
                    break None;
                }
            }
            StepResult::Done(result) => break Some(*result),
            StepResult::Rejected(e) => {
                rec.failure = Some(format!("rejected: {e}"));
                break None;
            }
        }
    };
    rec.synth_s = rec.waits.iter().sum();
    rec.engine_s = Some(synth.stats.total_time.as_secs_f64());
    if let Some(result) = result {
        rec.finish(&result, &target, seed);
        if traced {
            let _sp = trace::span("bench.probe");
            let kept = probe_snapshot(synth, index, opts, pass);
            if let Some(synth) = kept.filter(|_| pass.finished.len() < REPLAYS) {
                pass.finished.push(Finished { synth, objective: result.objective, cfg });
            }
        }
    }
    pass.records.push(rec);
}

/// Snapshot, restore and evict a finished swan run, timing each call and
/// checking that the snapshot round-trips byte for byte. Returns the
/// synthesizer unless a failure (counted in the pass) lost it.
fn probe_snapshot(
    synth: Synthesizer,
    id: u64,
    opts: &Options,
    pass: &mut Pass,
) -> Option<Synthesizer> {
    let session = Session::new(id, synth);
    match session.snapshot() {
        Ok(bytes) => check_round_trip(&bytes, pass),
        Err(_) => pass.snapshot_failures += 1,
    }
    let mut mgr =
        SessionManager::new(ServeConfig { snapdir: Some(snapdir(opts)), ..ServeConfig::default() });
    mgr.insert(session);
    let t = Instant::now();
    match mgr.evict(id) {
        Ok(()) => pass.probes.evict_s.push(t.elapsed().as_secs_f64()),
        Err(_) => pass.snapshot_failures += 1,
    }
    let back = mgr.remove(id).ok().map(Session::into_synthesizer);
    if back.is_none() {
        pass.snapshot_failures += 1;
    }
    back
}

/// Time `Session::restore` and `Session::snapshot` on `bytes`; count a
/// failure unless the restored session snapshots to the same bytes.
fn check_round_trip(bytes: &[u8], pass: &mut Pass) {
    let t = Instant::now();
    let restored = Session::restore(bytes);
    pass.probes.restore_s.push(t.elapsed().as_secs_f64());
    let t = Instant::now();
    let again = restored.as_ref().ok().map(Session::snapshot);
    pass.probes.save.push((t.elapsed().as_secs_f64(), bytes.len()));
    if !matches!(again, Some(Ok(b)) if b == bytes) {
        pass.snapshot_failures += 1;
    }
}

fn snapdir(opts: &Options) -> PathBuf {
    opts.outdir.join(format!("snap-{}", std::process::id()))
}

/// Serve fleet `unit` to completion: one client walks the parked
/// sessions round-robin, answering each question, stepping the session
/// to its next one and evicting it to disk.
fn fleet_unit(opts: &Options, unit: u64, traced: bool, pass: &mut Pass) {
    let sessions = fleet_sessions(opts);
    let first = unit * sessions as u64;
    let dir = snapdir(opts);
    // Both passes of a traced run serve the same fleet: start each from an
    // empty snapshot directory so neither finds the other's files.
    let _ = std::fs::remove_dir_all(&dir);
    let mut mgr = fleet_manager(opts.seed, first, sessions, &dir);
    let mut recs: Vec<Record> = vec![Record::default(); sessions];
    let mut oracles: Vec<GroundTruthOracle> = (first..first + sessions as u64)
        .map(|id| GroundTruthOracle::new(fleet_target(id)))
        .collect();
    let mut queue: VecDeque<(u64, Option<Vec<Scenario>>)> =
        (first..first + sessions as u64).map(|id| (id, None)).collect();
    while let Some((id, question)) = queue.pop_front() {
        let k = (id - first) as usize;
        let rec = &mut recs[k];
        let ranking = question.map(|q| oracles[k].rank(&q));
        let t = Instant::now();
        if let Some(ranking) = ranking {
            let answered = {
                let _sp = trace::span("bench.answer");
                mgr.answer(id, &ranking)
            };
            if traced {
                pass.probes.answer_s.push(t.elapsed().as_secs_f64());
            }
            if let Err(e) = answered {
                rec.failure = Some(format!("answer failed: {e}"));
                continue;
            }
        }
        let stepped = {
            let _sp = trace::span("bench.step");
            mgr.step_batch(&[id])
        };
        rec.waits.push(t.elapsed().as_secs_f64());
        let step = match stepped.map(|mut v| v.pop()) {
            Ok(Some((_, step))) => step,
            Ok(None) => unreachable!("step_batch answers every id it is given"),
            Err(e) => {
                rec.failure = Some(format!("step failed: {e}"));
                continue;
            }
        };
        match step {
            StepResult::NeedsRanking { scenarios, .. } => {
                let t = Instant::now();
                let evicted = {
                    let _sp = trace::span("bench.evict");
                    mgr.evict(id)
                };
                if traced {
                    pass.probes.evict_s.push(t.elapsed().as_secs_f64());
                    let _sp = trace::span("bench.probe");
                    match std::fs::read(dir.join(format!("{id}.snap"))) {
                        Ok(bytes) => check_round_trip(&bytes, pass),
                        Err(_) => pass.snapshot_failures += 1,
                    }
                }
                if let Err(e) = evicted {
                    rec.failure = Some(format!("evict failed: {e}"));
                    continue;
                }
                queue.push_back((id, Some(scenarios)));
            }
            StepResult::Done(result) => {
                rec.finish(&result, oracles[k].target(), run_seed(opts.seed, id));
                let session = mgr.remove(id).expect("a finished session is resident");
                if traced && pass.finished.len() < REPLAYS {
                    let cfg = fleet_cfg(run_seed(opts.seed, id));
                    let objective = result.objective;
                    pass.finished.push(Finished {
                        synth: session.into_synthesizer(),
                        objective,
                        cfg,
                    });
                }
            }
            StepResult::Rejected(e) => rec.failure = Some(format!("rejected: {e}")),
        }
    }
    for rec in &mut recs {
        rec.synth_s = rec.waits.iter().sum();
    }
    pass.records.extend(recs);
}

/// Run unit `unit` (one swan run, or one fleet) into `pass`.
fn run_unit(w: Workload, opts: &Options, unit: u64, traced: bool, pass: &mut Pass) {
    match w {
        Workload::Fleet => fleet_unit(opts, unit, traced, pass),
        _ => swan_run(w, opts, unit, traced, pass),
    }
    pass.units += 1;
}

/// Rebuild a finished run's final proof query on a fresh builder and
/// solve it under a fixed box budget.
fn replay(f: &Finished) -> Replay {
    let t = Instant::now();
    let qb = QueryBuilder::new(swan_sketch(), MetricSpace::swan(), &f.cfg);
    let query = qb.disambiguation(f.synth.graph(), &f.objective, &[]);
    let query_s = t.elapsed().as_secs_f64();
    let domain = qb.domain();
    let t = Instant::now();
    let compiled = CompiledQuery::prepare(&query, Some(&domain), true);
    let tape_s = t.elapsed().as_secs_f64();
    let mut sc = f.cfg.solver.clone();
    sc.delta_per_dim = Some(
        qb.deltas(f.cfg.delta_rel).into_iter().map(|d| d * f.cfg.proof_delta_factor).collect(),
    );
    sc.max_boxes = REPLAY_BOXES;
    sc.threads = 1;
    let mut solver = Solver::new(sc);
    let t = Instant::now();
    std::hint::black_box(solver.solve_compiled(&compiled, &domain, &[]));
    let solve_s = t.elapsed().as_secs_f64();
    Replay {
        query_s,
        formula_nodes: query.size(),
        tape_s,
        solve_s,
        boxes: solver.stats.boxes_processed,
    }
}

/// Median seconds of one `analyze` call on the SWAN sketch.
fn time_analyze() -> f64 {
    let sketch = swan_sketch();
    let cfg = AnalysisConfig {
        param_bounds: MetricSpace::swan().all_bounds().to_vec(),
        default_hole_range: SynthConfig::default().default_hole_range,
    };
    let times: Vec<f64> = (0..ANALYZE_CALLS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(analyze(&sketch, &cfg));
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

/// The peak resident set of this process in MB (`VmHWM`), where the
/// platform reports it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Checks every pass makes: no run failed, and the outside clock agrees
/// with the engine's.
fn check_pass(pass: &Pass, label: &str, report: &mut RunReport) {
    for (i, r) in pass.records.iter().enumerate() {
        report.check(r.failure.is_none(), || {
            format!("{label} run {i}: {}", r.failure.as_deref().unwrap_or(""))
        });
    }
    let engine: f64 = pass.records.iter().filter_map(|r| r.engine_s).sum();
    if engine > 0.0 {
        let outside: f64 =
            pass.records.iter().filter(|r| r.engine_s.is_some()).map(|r| r.synth_s).sum();
        report.check(outside >= engine && outside <= engine * (1.0 + ENGINE_CLOCK_SLACK), || {
            format!(
                "{label}: step+answer timed outside {outside:.6} s vs engine total {engine:.6} s"
            )
        });
    }
}

/// Run `w` once and report its end-to-end (untraced) or per-layer
/// (traced) metrics.
#[must_use]
pub fn run(w: Workload, opts: &Options, traced: bool) -> RunReport {
    let report = if traced { run_traced(w, opts) } else { run_untraced(w, opts) };
    let _ = std::fs::remove_dir_all(snapdir(opts));
    report
}

fn run_untraced(w: Workload, opts: &Options) -> RunReport {
    let mut report = RunReport::default();
    // Whole runs until the time is up and the p95 wait has ten samples
    // beyond it.
    let start = Instant::now();
    let mut pass = Pass::default();
    let mut setups = Vec::new();
    loop {
        let unit = pass.units as u64;
        setups
            .extend((0..SETUPS_PER_UNIT).map(|k| time_setup(w, opts, unit * SETUPS_PER_UNIT + k)));
        run_unit(w, opts, unit, false, &mut pass);
        let waits: usize = pass.records.iter().map(|r| r.waits.len()).sum();
        if opts.smoke
            || (start.elapsed().as_secs_f64() >= opts.seconds && waits >= stats::samples_for(950))
        {
            break;
        }
    }
    check_pass(&pass, "untraced", &mut report);
    // The floor holds for full-length runs; a smoke run is one sample.
    let agreement = pass.mean_agreement();
    report.check(opts.smoke || agreement >= w.agreement_floor(), || {
        format!("mean agreement {agreement:.4} below the floor {}", w.agreement_floor())
    });
    let waits = pass.waits();
    report.attempted = pass.records.len() as u64;
    report.failed = pass.failed();
    report.metrics.insert("setup_s".into(), stats::median(&setups));
    report
        .metrics
        .insert("wait_mean_ms".into(), waits.iter().sum::<f64>() / waits.len() as f64 * 1e3);
    report.metrics.insert("wait_p95_ms".into(), stats::percentile(&waits, 950) * 1e3);
    report.metrics.insert("agreement".into(), agreement);
    if let Some(mb) = peak_rss_mb() {
        report.metrics.insert("peak_rss_mb".into(), mb);
    }
    report.notes.push(format!(
        "{} runs in {} units, {} waits, {:.3} s synthesis",
        pass.records.len(),
        pass.units,
        waits.len(),
        pass.synth_s()
    ));
    if waits.len() >= 2 {
        let [q1, q2, q3] = stats::quartiles(&waits);
        report.notes.push(format!(
            "wait quartiles: {:.3} / {:.3} / {:.3} ms",
            q1 * 1e3,
            q2 * 1e3,
            q3 * 1e3
        ));
    }
    match stats::tail_permille(waits.len()) {
        Some(p) => report.notes.push(format!(
            "wait tail: p{} = {:.3} ms ({} samples, {} beyond)",
            f64::from(p) / 10.0,
            stats::percentile(&waits, p) * 1e3,
            waits.len(),
            stats::beyond(p, waits.len())
        )),
        None => report.notes.push(format!("wait tail: too few samples ({})", waits.len())),
    }
    report.settle();
    report
}

fn run_traced(w: Workload, opts: &Options) -> RunReport {
    let mut report = RunReport::default();
    let sink = Arc::new(MemorySink::new());
    let (mut untraced, mut traced) = (Pass::default(), Pass::default());
    let start = Instant::now();
    for unit in 0.. {
        // Each unit runs untraced and traced; which goes first alternates,
        // so warm-up and drift weigh on both passes alike.
        for with_trace in [unit % 2 == 1, unit % 2 == 0] {
            if with_trace {
                trace::install(sink.clone());
                {
                    let _sp = trace::span("bench.unit");
                    run_unit(w, opts, unit, true, &mut traced);
                }
                trace::uninstall();
            } else {
                run_unit(w, opts, unit, false, &mut untraced);
            }
        }
        if opts.smoke || start.elapsed().as_secs_f64() >= opts.seconds * TRACED_SHARE {
            break;
        }
    }
    let events = sink.take();

    check_pass(&untraced, "untraced", &mut report);
    check_pass(&traced, "traced", &mut report);
    let same = untraced.records.len() == traced.records.len()
        && untraced
            .records
            .iter()
            .zip(&traced.records)
            .all(|(a, b)| a.deterministic() == b.deterministic());
    report.check(same, || "traced and untraced passes differ in deterministic counters".into());
    report.check(traced.snapshot_failures == 0, || {
        format!("{} snapshot round trips failed or differed", traced.snapshot_failures)
    });

    let folded = fold::fold(&events);
    report.check(folded.malformed == 0, || format!("{} malformed span events", folded.malformed));
    let traced_s = traced.synth_s();
    let attributed = folded.timed_ns as f64 / 1e9;
    report.check((attributed - traced_s).abs() <= ATTRIBUTION_SLACK * traced_s, || {
        format!("span self-times sum to {attributed:.6} s, traced synthesis took {traced_s:.6} s")
    });

    traced.probes.replays = traced.finished.iter().map(replay).collect();
    traced.probes.analyze_s = Some(time_analyze());
    let facts = RunFacts {
        runs: traced.records.len(),
        iterations: traced.records.iter().map(|r| r.iterations).sum(),
        seeded_iterations: traced.records.iter().map(|r| r.seeded_iterations).sum(),
        edges: traced.records.iter().map(|r| r.edges).sum(),
    };
    let overhead_pct = (traced_s / untraced.synth_s() - 1.0) * 100.0;
    report.metrics = fold::layer_metrics(&folded, &facts, &traced.probes, overhead_pct);
    report.attempted = traced.records.len() as u64;
    report.failed = traced.failed();
    report.notes.push(format!(
        "{} runs in {} units, {} events",
        traced.records.len(),
        traced.units,
        events.len()
    ));
    let path = opts.outdir.join(format!("{}-{}.jsonl", w.name(), opts.seed));
    match write_jsonl(&events, &path) {
        Ok(()) => report.notes.push(format!("trace: {}", path.display())),
        Err(e) => report.check(false, || format!("cannot write {}: {e}", path.display())),
    }
    report.settle();
    report
}

fn write_jsonl(events: &[trace::Event], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for e in events {
        writeln!(out, "{}", trace::to_jsonl(e))?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_keeps_seeds_apart_and_repeatable() {
        assert_eq!(run_seed(0, 5), 5);
        assert_eq!(run_seed(1000, 0), 1000 * SEED_STRIDE);
        assert_eq!(run_seed(3, 7), run_seed(3, 7));
        // Consecutive workload seeds never share a run inside one pass.
        let a: Vec<u64> = (0..SEED_STRIDE).map(|i| run_seed(41, i)).collect();
        assert!(!a.contains(&run_seed(42, 0)));
        assert!(!a.contains(&run_seed(40, SEED_STRIDE - 1)));
        // Huge seeds wrap instead of overflowing.
        let _ = run_seed(u64::MAX, u64::MAX);
    }

    #[test]
    fn workloads_have_distinct_names_and_seeds_derive_per_workload() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("swan_paper"), None);
        // The noisy workload alternates architects by run index; the
        // configuration depends only on the index and the derived seed.
        let (even, _, _) = swan_run_inputs(Workload::SwanNoisy, 0, run_seed(4000, 0));
        let (odd, _, _) = swan_run_inputs(Workload::SwanNoisy, 1, run_seed(4000, 1));
        assert!(even.repair_noise && !odd.repair_noise);
        assert_eq!(even.seed, 4000 * SEED_STRIDE);
        assert_eq!(odd.seed, 4000 * SEED_STRIDE + 1);
        let (quick, _, _) = swan_run_inputs(Workload::SwanQuick, 0, run_seed(1000, 0));
        assert_eq!(quick.solver.threads, 1);
        assert_eq!(fleet_cfg(run_seed(1, 9)).seed, SEED_STRIDE + 9);
        assert_ne!(fleet_target(0).to_string(), fleet_target(1).to_string());
        assert_eq!(fleet_target(0).to_string(), fleet_target(6).to_string());
    }
}
