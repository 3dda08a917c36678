//! `cso-serve` — the session-service driver.
//!
//! ```text
//! cso-serve --bench [--sessions N] [--out FILE]
//! ```
//!
//! `--bench` runs the synthetic-architect driver: it spins up `N`
//! concurrent synthesis sessions (default `CSO_SERVE_SESSIONS`, else
//! 10000), each with its own seed and its own ground-truth architect over
//! the SWAN sketch, and pumps them all to convergence through the
//! [`SessionManager`]'s batched scheduler. Sessions/sec and step-latency
//! percentiles land in the `--out` report (default `BENCH_serve.json`).
//!
//! When `CSO_SERVE_SNAPDIR` is set, a slice of parked sessions is evicted
//! to disk each round and transparently restored when next stepped, so the
//! benchmark also exercises the snapshot path end to end.
//!
//! With `CSO_METRICS=expo:<path>` the driver publishes a fleet snapshot
//! to `<path>` after every round (counters, occupancy gauges including
//! parked/done, step-latency histogram) and prints a fleet-end summary;
//! the final exposition is left at `<path>` for scraping.

#![forbid(unsafe_code)]

use cso_numeric::Rat;
use cso_runtime::bench::Provenance;
use cso_runtime::metrics::{self, Gauge};
use cso_serve::{ServeConfig, SessionManager};
use cso_sketch::swan::swan_sketch;
use cso_synth::engine::StepResult;
use cso_synth::oracle::{GroundTruthOracle, Oracle};
use cso_synth::{MetricSpace, Session, SynthConfig, Synthesizer};
use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// Driver-level fleet gauges: sessions parked awaiting this round's
/// answers, and sessions that reached `Done`.
static PARKED: Gauge = Gauge::new("cso_serve_sessions_parked");
static DONE: Gauge = Gauge::new("cso_serve_sessions_done");

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench = false;
    let mut sessions: Option<usize> = None;
    let mut out = String::from("BENCH_serve.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--bench" => bench = true,
            "--sessions" => {
                i += 1;
                sessions = Some(fleet_size("--sessions", args.get(i).map(String::as_str)));
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(v) => out = v.clone(),
                    None => {
                        eprintln!("--out needs a file path");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!("usage: cso-serve --bench [--sessions N] [--out FILE]");
                return;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if !bench {
        eprintln!("nothing to do: pass --bench (try --help)");
        std::process::exit(2);
    }
    let n = sessions
        .or_else(|| {
            std::env::var_os("CSO_SERVE_SESSIONS")
                .map(|v| fleet_size("CSO_SERVE_SESSIONS", v.to_str()))
        })
        .unwrap_or(10_000);
    if run_bench(n, &out) {
        println!("ok: all {n} sessions reached Done ({out})");
    } else {
        eprintln!("FAIL: some sessions did not reach Done");
        std::process::exit(1);
    }
}

/// Parse a fleet size given by `source`; anything but a positive integer
/// exits 2 before any session runs.
fn fleet_size(source: &str, value: Option<&str>) -> usize {
    match value.and_then(|v| v.parse().ok()) {
        Some(n) if n > 0 => n,
        _ => {
            eprintln!("{source} needs a positive integer, got {:?}", value.unwrap_or(""));
            std::process::exit(2);
        }
    }
}

/// A fleet-friendly configuration: coarse enough that one session costs
/// milliseconds, per-query solver parallelism off (the fleet itself is the
/// parallelism), still converging on the SWAN sketch for every seed.
fn fleet_cfg(seed: u64) -> SynthConfig {
    let mut cfg = SynthConfig {
        seed,
        delta_rel: 0.2,
        // A service bench measures scheduler throughput, not objective
        // quality: each architect conversation gets a hard step budget, so
        // fleet cost stays in the cheap early-iteration regime (later
        // iterations grow the prefgraph and the per-query solve time).
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

/// Each synthetic architect wants a slightly different objective, so the
/// fleet exercises distinct preference graphs and solver workloads.
fn architect_for(id: u64) -> GroundTruthOracle {
    let tp_thrsh = 1 + (id % 3) as i64; // in [1, 3] ⊂ [0, 10]
    let l_thrsh = 40 + 10 * (id % 3) as i64; // in {40, 50, 60} ⊂ [0, 200]
    let slope1 = 1 + (id % 2) as i64; // in {1, 2}
    let slope2 = 5 + (id % 3) as i64; // in {5, 6, 7}
    GroundTruthOracle::new(cso_sketch::swan::swan_target_with(tp_thrsh, l_thrsh, slope1, slope2))
}

/// Fleet-end metrics summary: registry counters plus the step-latency
/// histogram's quantile estimates (log-bucketed, ≤ 3.125 % relative
/// error — independent of the exact `step_p*` percentiles in the JSON).
fn print_fleet_summary(mgr: &SessionManager, completed: usize) {
    let snap = metrics::snapshot();
    println!("fleet metrics (sessions done: {completed}, evicted now: {}):", mgr.evicted_len());
    for (name, v) in &snap.counters {
        if name.starts_with("cso_serve_") {
            println!("  {name:<36} {v}");
        }
    }
    if let Some(h) = snap.histograms.get("cso_serve_step_latency_ns") {
        println!(
            "  step latency: p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms, p999 {:.2} ms \
             ({} steps)",
            h.quantile(0.5) as f64 / 1e6,
            h.quantile(0.9) as f64 / 1e6,
            h.quantile(0.99) as f64 / 1e6,
            h.quantile(0.999) as f64 / 1e6,
            h.count()
        );
    }
    if let Some(path) = metrics::flush_exposition() {
        println!("  exposition: {}", path.display());
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn run_bench(n: usize, out: &str) -> bool {
    let serve_cfg = ServeConfig::from_env();
    let evicting = serve_cfg.snapdir.is_some();
    let batch = serve_cfg.batch;
    let threads = serve_cfg.threads;
    let mut mgr = SessionManager::new(serve_cfg);
    let mut oracles: HashMap<u64, GroundTruthOracle> = HashMap::with_capacity(n);
    let sketch = swan_sketch();
    for id in 0..n as u64 {
        let synth = Synthesizer::new(sketch.clone(), MetricSpace::swan(), fleet_cfg(id + 1))
            .expect("SWAN sketch passes lint");
        mgr.insert(Session::new(id, synth));
        oracles.insert(id, architect_for(id));
    }

    let t0 = Instant::now();
    let mut pending = mgr.ids();
    let mut step_ms: Vec<f64> = Vec::new();
    let mut steps = 0u64;
    let mut completed = 0usize;
    let mut failed = 0usize;
    let mut evictions = 0u64;
    let mut round = 0u64;
    while !pending.is_empty() {
        round += 1;
        let batch_t0 = Instant::now();
        let results = match mgr.step_batch(&pending) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("batch failed: {e}");
                return false;
            }
        };
        // Per-step latency approximated as batch wall-clock divided by the
        // sessions stepped: individual timing inside pool workers would
        // serialize on the clock, and the scheduler-level number is what a
        // service operator sees anyway.
        let per_step = batch_t0.elapsed().as_secs_f64() * 1e3 / results.len().max(1) as f64;
        let mut still = Vec::with_capacity(results.len());
        for (id, result) in results {
            steps += 1;
            step_ms.push(per_step);
            match result {
                StepResult::NeedsRanking { scenarios, .. } => {
                    let ranking = oracles.get_mut(&id).expect("oracle exists").rank(&scenarios);
                    if let Err(e) = mgr.answer(id, &ranking) {
                        eprintln!("session {id}: answer failed: {e}");
                        failed += 1;
                        continue;
                    }
                    still.push(id);
                }
                StepResult::Done(_) => completed += 1,
                StepResult::Rejected(e) => {
                    eprintln!("session {id}: rejected: {e}");
                    failed += 1;
                }
            }
        }
        // Exercise the eviction path: park ~1% of the still-pending fleet
        // on disk each round; they restore transparently next round.
        if evicting && !still.is_empty() {
            let stride = 100;
            let offset = (round as usize) % stride;
            let mut idx = offset;
            while idx < still.len() {
                if mgr.evict(still[idx]).is_ok() {
                    evictions += 1;
                }
                idx += stride;
            }
        }
        pending = still;
        // Publish a periodic fleet snapshot: occupancy gauges refreshed
        // here, everything else accumulated inside the manager.
        if metrics::enabled() {
            PARKED.set(pending.len() as i64);
            DONE.set(completed as i64);
            metrics::flush_exposition();
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    if metrics::enabled() {
        print_fleet_summary(&mgr, completed);
    }

    step_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let mut provenance = Provenance::capture();
    provenance.threads = threads.to_string();
    let report = format!(
        "{{\n  \"provenance\": {prov},\n  \
         \"sessions\": {n},\n  \"completed\": {completed},\n  \"failed\": {failed},\n  \
         \"steps\": {steps},\n  \"rounds\": {round},\n  \"evictions\": {evictions},\n  \
         \"batch\": {batch},\n  \"threads\": {threads},\n  \
         \"elapsed_secs\": {elapsed:.3},\n  \"sessions_per_sec\": {sps:.2},\n  \
         \"steps_per_sec\": {stps:.2},\n  \"step_p50_ms\": {p50:.4},\n  \
         \"step_p99_ms\": {p99:.4}\n}}\n",
        prov = provenance.to_json(),
        sps = completed as f64 / elapsed.max(1e-9),
        stps = steps as f64 / elapsed.max(1e-9),
        p50 = percentile(&step_ms, 0.50),
        p99 = percentile(&step_ms, 0.99),
    );
    match std::fs::File::create(out).and_then(|mut f| f.write_all(report.as_bytes())) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            return false;
        }
    }
    print!("{report}");
    failed == 0 && completed == n
}
