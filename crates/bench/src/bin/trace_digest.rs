//! Fold a JSONL trace (`CSO_TRACE=jsonl:<path>`) into a per-run profile.
//!
//! ```text
//! trace-digest <trace.jsonl> [--session <id>] [--flame | --metrics]
//! ```
//!
//! `--session <id>` restricts every section to events stamped with that
//! session id (multi-session services demux one shared stream; see
//! `cso-serve`). Without it, a stream containing session-stamped events
//! additionally gets a **sessions** section: per-session event counts and
//! span time, so one slow tenant stands out at a glance.
//!
//! `--flame` replaces the report with collapsed flame stacks
//! (`root;…;leaf self_ns`, one per line, flamegraph/inferno-compatible —
//! pipe into `flamegraph.pl` or `inferno-flamegraph` directly). Span
//! ancestry is folded per thread; self time is span duration minus
//! direct children ([`cso_runtime::metrics::FlameFold`]).
//!
//! `--metrics` replaces the report with a per-phase latency table from
//! the same fold: count, p50/p90/p99/p999 (log-bucketed, ≤ 3.125 %
//! relative error), mean and total per span name.
//!
//! Prints four sections:
//!
//! * **phases** — for every span name: call count, total / mean / max
//!   duration, so a BENCH_* regression can be attributed to a phase
//!   (seeding vs branch-and-prune vs query compilation vs proof) instead
//!   of eyeballed;
//! * **iterations** — per `engine.iteration` span: duration and the
//!   solver work its events reported;
//! * **workers** — events and items per `(thread, worker)` identity, a
//!   quick check that the pool actually spread the work;
//! * **counters** — every counter name with occurrence count and the sum
//!   of each numeric field (boxes, samples, clause reuse, ...).
//!
//! The digest also re-checks stream well-formedness (spans balanced per
//! thread, logical clocks monotone) and reports any parse failures; a
//! malformed or unreadable trace exits nonzero.

use cso_runtime::metrics::{FlameFold, QUANTILES};
use cso_runtime::trace::{check_well_formed, parse_line, Event, Kind, Value};
use std::collections::BTreeMap;

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

struct PhaseAgg {
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

fn usage() -> ! {
    eprintln!("usage: trace-digest <trace.jsonl> [--session <id>] [--flame | --metrics]");
    std::process::exit(2);
}

#[derive(PartialEq)]
enum Mode {
    Report,
    Flame,
    Metrics,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut session: Option<u64> = None;
    let mut mode = Mode::Report;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => usage(),
            "--flame" => mode = Mode::Flame,
            "--metrics" => mode = Mode::Metrics,
            "--session" => {
                i += 1;
                session = args.get(i).and_then(|v| v.parse().ok());
                if session.is_none() {
                    usage();
                }
            }
            p if path.is_none() => path = Some(p.to_owned()),
            _ => usage(),
        }
        i += 1;
    }
    let Some(path) = path else { usage() };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace-digest: cannot read {path:?}: {e}");
            std::process::exit(1);
        }
    };

    let mut events: Vec<Event> = Vec::new();
    let mut parse_errors = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(e) => events.push(e),
            Err(err) => {
                parse_errors += 1;
                if parse_errors <= 3 {
                    eprintln!("trace-digest: line {}: {err}", lineno + 1);
                }
            }
        }
    }
    if events.is_empty() {
        eprintln!("trace-digest: no parseable events in {path:?}");
        std::process::exit(1);
    }

    if mode != Mode::Report {
        // Flame/metrics output goes to stdout unadorned (pipeable); the
        // session filter applies silently.
        if let Some(sid) = session {
            events.retain(|e| e.session == Some(sid));
            if events.is_empty() {
                eprintln!("trace-digest: no events for session {sid}");
                std::process::exit(1);
            }
        }
        let mut fold = FlameFold::new();
        fold.feed_all(&events);
        let report = fold.finish();
        if report.dropped > 0 || report.unclosed > 0 {
            eprintln!(
                "trace-digest: {} unmatched span ends, {} spans left open",
                report.dropped, report.unclosed
            );
        }
        match mode {
            Mode::Flame => print!("{}", report.collapsed()),
            Mode::Metrics => {
                println!(
                    "  {:<28} {:>8} {:>11} {:>11} {:>11} {:>11} {:>11} {:>12}",
                    "phase", "calls", "p50_ms", "p90_ms", "p99_ms", "p999_ms", "mean_ms", "total_s"
                );
                for (name, h) in &report.phases {
                    let q = |p: f64| h.quantile(p) as f64 / 1e6;
                    println!(
                        "  {:<28} {:>8} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>12.4}",
                        name,
                        h.count(),
                        q(QUANTILES[0].0),
                        q(QUANTILES[1].0),
                        q(QUANTILES[2].0),
                        q(QUANTILES[3].0),
                        h.mean() / 1e6,
                        secs(h.sum())
                    );
                }
            }
            Mode::Report => unreachable!(),
        }
        std::process::exit(i32::from(parse_errors > 0));
    }

    println!("trace: {path} — {} events, {} parse errors", events.len(), parse_errors);
    // Well-formedness is a whole-stream property (per-thread span balance);
    // check before any session filtering.
    match check_well_formed(&events) {
        Ok(()) => println!("stream: well-formed (spans balanced, clocks monotone)"),
        Err(e) => println!("stream: MALFORMED — {e}"),
    }

    // -- sessions: per-tenant activity summary -----------------------------
    let mut sessions: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for e in &events {
        if let Some(sid) = e.session {
            let slot = sessions.entry(sid).or_insert((0, 0));
            slot.0 += 1;
            if e.kind == Kind::SpanEnd {
                slot.1 += e.dur_ns.unwrap_or(0);
            }
        }
    }
    if let Some(sid) = session {
        let had = events.len();
        events.retain(|e| e.session == Some(sid));
        println!("session filter: {sid} — {} of {had} events", events.len());
        if events.is_empty() {
            eprintln!("trace-digest: no events for session {sid}");
            std::process::exit(1);
        }
    } else if !sessions.is_empty() {
        println!("\nsessions:");
        println!("  {:<12} {:>8} {:>12}", "session", "events", "span_s");
        for (sid, (n, span_ns)) in &sessions {
            println!("  {:<12} {:>8} {:>12.4}", sid, n, secs(*span_ns));
        }
    }

    // -- phases: aggregate span-end durations by name ----------------------
    let mut phases: BTreeMap<&str, PhaseAgg> = BTreeMap::new();
    for e in &events {
        if e.kind != Kind::SpanEnd {
            continue;
        }
        let dur = e.dur_ns.unwrap_or(0);
        let agg = phases.entry(&e.name).or_insert(PhaseAgg { count: 0, total_ns: 0, max_ns: 0 });
        agg.count += 1;
        agg.total_ns += dur;
        agg.max_ns = agg.max_ns.max(dur);
    }
    println!("\nphases (per span name):");
    println!(
        "  {:<28} {:>8} {:>12} {:>12} {:>12}",
        "phase", "calls", "total_s", "mean_ms", "max_ms"
    );
    for (name, a) in &phases {
        println!(
            "  {:<28} {:>8} {:>12.4} {:>12.3} {:>12.3}",
            name,
            a.count,
            secs(a.total_ns),
            a.total_ns as f64 / a.count as f64 / 1e6,
            a.max_ns as f64 / 1e6
        );
    }

    // -- iterations: each engine.iteration span-end carries its index ------
    let mut iters: BTreeMap<u64, u64> = BTreeMap::new();
    for e in &events {
        if e.kind == Kind::SpanEnd && e.name == "engine.iteration" {
            let i = e.field_u64("iter").unwrap_or(0);
            *iters.entry(i).or_insert(0) += e.dur_ns.unwrap_or(0);
        }
    }
    if !iters.is_empty() {
        println!("\niterations:");
        println!("  {:<6} {:>12}", "iter", "secs");
        for (i, ns) in &iters {
            println!("  {:<6} {:>12.4}", i, secs(*ns));
        }
    }

    // -- workers: activity per (thread, worker) identity -------------------
    let mut workers: BTreeMap<(u32, Option<u32>), (u64, u64)> = BTreeMap::new();
    for e in &events {
        let slot = workers.entry((e.thread, e.worker)).or_insert((0, 0));
        slot.0 += 1;
        if e.kind == Kind::Counter && e.name == "pool.worker" {
            slot.1 += e.field_u64("items").unwrap_or(0);
        }
    }
    println!("\nworkers (thread / pool-worker id):");
    println!("  {:<10} {:<8} {:>8} {:>12}", "thread", "worker", "events", "pool_items");
    for ((t, w), (n, items)) in &workers {
        let w = w.map_or_else(|| "-".to_owned(), |w| w.to_string());
        println!("  {:<10} {:<8} {:>8} {:>12}", t, w, n, items);
    }

    // -- counters: occurrences and per-field sums --------------------------
    let mut counters: BTreeMap<&str, (u64, BTreeMap<&str, u64>)> = BTreeMap::new();
    for e in &events {
        if e.kind != Kind::Counter {
            continue;
        }
        let (n, sums) = counters.entry(&e.name).or_default();
        *n += 1;
        for (k, v) in &e.fields {
            if let Value::U64(u) = v {
                *sums.entry(k).or_insert(0) += u;
            }
        }
    }
    println!("\ncounters:");
    for (name, (n, sums)) in &counters {
        let fields: Vec<String> = sums.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("  {:<28} x{:<8} {}", name, n, fields.join(" "));
    }

    if parse_errors > 0 {
        std::process::exit(1);
    }
}
