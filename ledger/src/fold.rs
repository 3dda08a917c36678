//! Folding a traced run's event stream into the per-layer table.
//!
//! Span and counter names are read as data: a span renamed in the
//! program leaves its metric unmeasured (printed as `missing`) instead of
//! breaking the build.

use cso_runtime::metrics::FlameFold;
use cso_runtime::trace::{Event, Kind};
use std::collections::BTreeMap;

/// Spans the ledger opens around the calls that count as synthesis time.
pub const TIMED_SPANS: [&str; 2] = ["bench.step", "bench.answer"];

/// Layer metrics that report a program span's self time, as
/// `(metric, span)`.
pub const SELF_TIMES: [(&str, &str); 6] = [
    ("solver.bnp_s", "solver.bnp"),
    ("solver.seeding_s", "solver.seeding"),
    ("tape.compile_s", "solver.tape_compile"),
    ("query.compile_s", "query.compile_feasibility"),
    ("engine.find_candidate_s", "engine.find_candidate"),
    ("engine.pair_search_s", "engine.pair_search"),
];

/// The proof span, reported inclusive of its children as `engine.proof_s`.
const PROOF: &str = "engine.proof";

/// Occurrences of one counter and the sums of its integer fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSum {
    /// Events with this name.
    pub count: u64,
    /// Field name → summed value.
    pub fields: BTreeMap<String, u64>,
}

/// A folded stream.
#[derive(Debug, Clone, Default)]
pub struct Folded {
    /// Self nanoseconds under [`TIMED_SPANS`] of each span in
    /// [`SELF_TIMES`] and of the proof span; spans that never occurred are
    /// absent.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Self nanoseconds under [`TIMED_SPANS`] of every other span, the
    /// ledger's own included.
    pub unattributed_ns: u64,
    /// Summed durations of the [`TIMED_SPANS`] spans.
    pub timed_ns: u64,
    /// Inclusive nanoseconds of `engine.proof` (self plus children).
    pub proof_ns: u64,
    /// Counters by name.
    pub counters: BTreeMap<String, CounterSum>,
    /// Span ends that matched no open span plus spans left open.
    pub malformed: u64,
}

impl Folded {
    /// Sum of a counter field over the stream, if the counter occurred.
    #[must_use]
    pub fn field(&self, counter: &str, field: &str) -> Option<u64> {
        self.counters.get(counter).map(|c| c.fields.get(field).copied().unwrap_or(0))
    }

    /// Number of events of a counter, if it occurred.
    #[must_use]
    pub fn count(&self, counter: &str) -> Option<u64> {
        self.counters.get(counter).map(|c| c.count)
    }
}

/// Fold `events` (in emission order) into per-layer self times and
/// counter sums.
#[must_use]
pub fn fold(events: &[Event]) -> Folded {
    let mut flame = FlameFold::new();
    flame.feed_all(events);
    let report = flame.finish();
    let mut out = Folded { malformed: report.dropped + report.unclosed, ..Folded::default() };
    for (path, &ns) in &report.stacks {
        let frames: Vec<&str> = path.split(';').collect();
        if !frames.iter().any(|f| TIMED_SPANS.contains(f)) {
            continue;
        }
        out.timed_ns += ns;
        let leaf = *frames.last().expect("split yields at least one frame");
        let claimed = SELF_TIMES.iter().map(|&(_, span)| span).chain([PROOF]).find(|&s| s == leaf);
        match claimed {
            Some(span) => *out.self_ns.entry(span).or_insert(0) += ns,
            None => out.unattributed_ns += ns,
        }
    }
    out.proof_ns = report.inclusive_ns(PROOF);
    for e in events.iter().filter(|e| e.kind == Kind::Counter) {
        let c = out.counters.entry(e.name.clone()).or_default();
        c.count += 1;
        for (k, v) in &e.fields {
            if let cso_runtime::trace::Value::U64(u) = v {
                *c.fields.entry(k.clone()).or_insert(0) += u;
            }
        }
    }
    out
}

/// Per-run facts the engine reports through its public statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunFacts {
    /// Runs (sessions) folded.
    pub runs: usize,
    /// Iterations answered, summed.
    pub iterations: usize,
    /// Iterations whose pair search was answered from seeding, summed.
    pub seeded_iterations: usize,
    /// Preference edges recorded, summed.
    pub edges: usize,
}

/// Per-call timings the ledger measured from outside.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// `answer` calls, seconds each.
    pub answer_s: Vec<f64>,
    /// Proof-query replays on a fresh query builder.
    pub replays: Vec<Replay>,
    /// Median `cso_analysis::analyze` call, seconds.
    pub analyze_s: Option<f64>,
    /// `Session::snapshot` calls: seconds and bytes.
    pub save: Vec<(f64, usize)>,
    /// `Session::restore` calls, seconds.
    pub restore_s: Vec<f64>,
    /// `SessionManager::evict` calls, seconds.
    pub evict_s: Vec<f64>,
}

/// One replay of a run's final proof query.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Building the query on a fresh `QueryBuilder`, seconds.
    pub query_s: f64,
    /// AST nodes of the query.
    pub formula_nodes: usize,
    /// `CompiledQuery::prepare`, seconds.
    pub tape_s: f64,
    /// `Solver::solve_compiled` under the fixed box budget, seconds.
    pub solve_s: f64,
    /// Boxes the replay explored.
    pub boxes: usize,
}

fn mean(v: impl IntoIterator<Item = f64>) -> Option<f64> {
    let (sum, n) = v.into_iter().fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    (n > 0).then(|| sum / n as f64)
}

/// The per-layer table: folded times and counters per run, public
/// statistics per run, and probe timings per call. Overhead is the traced
/// over the untraced synthesis time of the same runs, in percent.
#[must_use]
pub fn layer_metrics(
    f: &Folded,
    facts: &RunFacts,
    probes: &Probes,
    overhead_pct: f64,
) -> BTreeMap<String, f64> {
    let runs = facts.runs.max(1) as f64;
    let per_run = |x: u64| x as f64 / runs;
    let secs = |ns: u64| ns as f64 / 1e9;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: Option<f64>| {
        if let Some(v) = v {
            m.insert(name.to_owned(), v);
        }
    };

    for (metric, span) in SELF_TIMES {
        put(metric, f.self_ns.get(span).map(|&ns| secs(ns) / runs));
    }
    // Runs can converge without a proof, so the proof is measured (as
    // zero) wherever the pair search that would run it was seen.
    put(
        "engine.proof_s",
        f.self_ns.contains_key("engine.pair_search").then(|| secs(f.proof_ns) / runs),
    );
    put("engine.unattributed_s", Some(secs(f.unattributed_ns) / runs));

    let queries = f.count("solver.query");
    let boxes = f.field("solver.query", "boxes");
    let pruned = f.field("solver.query", "pruned");
    put("solver.queries", queries.map(per_run));
    put("solver.boxes", boxes.map(per_run));
    put("solver.pruned", pruned.map(per_run));
    put("solver.samples", f.field("solver.query", "samples").map(per_run));
    put("solver.prune_ratio", boxes.zip(pruned).map(|(b, p)| p as f64 / b.max(1) as f64));
    put(
        "solver.boxes_per_s",
        boxes.zip(f.self_ns.get("solver.bnp")).map(|(b, &ns)| b as f64 / secs(ns.max(1))),
    );

    let memo = f.count("cache.memo_hit").unwrap_or(0);
    put("cache.memo_hits", queries.map(|_| per_run(memo)));
    put("cache.hit_ratio", queries.map(|q| memo as f64 / (memo + q).max(1) as f64));
    put("query.clauses_reused", f.field("query.clauses", "reused").map(per_run));
    put(
        "tape.slots",
        f.count("solver.tape")
            .zip(f.field("solver.tape", "slots"))
            .map(|(n, s)| s as f64 / n.max(1) as f64),
    );

    put("engine.iterations", Some(facts.iterations as f64 / runs));
    put("engine.seeded_iterations", Some(facts.seeded_iterations as f64 / runs));
    put("prefgraph.edges", Some(facts.edges as f64 / runs));

    let us = 1e6;
    put("session.answer_us", mean(probes.answer_s.iter().map(|s| s * us)));
    put("solver.replay_s", mean(probes.replays.iter().map(|r| r.solve_s)));
    put(
        "solver.replay_boxes_per_s",
        mean(probes.replays.iter().map(|r| r.boxes as f64 / r.solve_s.max(1e-9))),
    );
    put("tape.replay_us", mean(probes.replays.iter().map(|r| r.tape_s * us)));
    put("query.replay_us", mean(probes.replays.iter().map(|r| r.query_s * us)));
    put("query.formula_nodes", mean(probes.replays.iter().map(|r| r.formula_nodes as f64)));
    put("analysis.analyze_us", probes.analyze_s.map(|s| s * us));
    put("snapshot.save_us", mean(probes.save.iter().map(|(s, _)| s * us)));
    put("snapshot.bytes", mean(probes.save.iter().map(|&(_, b)| b as f64)));
    put("snapshot.restore_us", mean(probes.restore_s.iter().map(|s| s * us)));
    put("serve.evict_us", mean(probes.evict_s.iter().map(|s| s * us)));
    put("trace.overhead_pct", Some(overhead_pct));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PER_LAYER;
    use cso_runtime::trace::Value;

    /// Builds a one-thread stream: spans from `(depth-first) start/end`
    /// instructions, counters inline.
    struct Stream {
        events: Vec<Event>,
        seq: u64,
    }

    impl Stream {
        fn push(&mut self, kind: Kind, name: &str, dur: Option<u64>, fields: Vec<(&str, u64)>) {
            self.seq += 1;
            self.events.push(Event {
                kind,
                name: name.to_owned(),
                thread: 0,
                worker: None,
                session: None,
                seq: self.seq,
                wall_ns: self.seq,
                dur_ns: dur,
                fields: fields.into_iter().map(|(k, v)| (k.to_owned(), Value::U64(v))).collect(),
            });
        }
        fn open(&mut self, name: &str) {
            self.push(Kind::SpanStart, name, None, vec![]);
        }
        fn close(&mut self, name: &str, dur: u64) {
            self.push(Kind::SpanEnd, name, Some(dur), vec![]);
        }
    }

    #[test]
    fn hand_built_stream_folds_into_the_layer_table() {
        let mut s = Stream { events: Vec::new(), seq: 0 };
        // Run 1: step 1000 ns = iteration(100 self) + find_candidate(50 self)
        //   + bnp(600) + pair_search(50 self) + proof(40 self) + bnp(160).
        s.open("bench.step");
        s.open("engine.iteration");
        s.open("engine.find_candidate");
        s.open("solver.bnp");
        s.close("solver.bnp", 600);
        s.push(
            Kind::Counter,
            "solver.query",
            None,
            vec![("boxes", 300), ("pruned", 100), ("samples", 7)],
        );
        s.close("engine.find_candidate", 650);
        s.open("engine.pair_search");
        s.open("engine.proof");
        s.open("solver.bnp");
        s.close("solver.bnp", 160);
        s.push(
            Kind::Counter,
            "solver.query",
            None,
            vec![("boxes", 100), ("pruned", 60), ("samples", 3)],
        );
        s.close("engine.proof", 200);
        s.close("engine.pair_search", 250);
        s.push(Kind::Counter, "cache.memo_hit", None, vec![("site", 2)]);
        s.close("engine.iteration", 1000);
        s.close("bench.step", 1000);
        // Run 2: an answer with a span the ledger does not map.
        s.open("bench.answer");
        s.open("engine.noise_repair");
        s.close("engine.noise_repair", 30);
        s.close("bench.answer", 80);
        // Probe work outside the timed spans is not synthesis time.
        s.open("bench.snapshot_check");
        s.close("bench.snapshot_check", 5000);
        s.push(Kind::Counter, "solver.tape", None, vec![("slots", 40)]);
        s.push(Kind::Counter, "solver.tape", None, vec![("slots", 20)]);
        s.push(Kind::Counter, "query.clauses", None, vec![("reused", 9), ("compiled", 1)]);

        let f = fold(&s.events);
        assert_eq!(f.malformed, 0);
        assert_eq!(f.timed_ns, 1080);
        assert_eq!(f.self_ns["solver.bnp"], 760);
        assert_eq!(f.self_ns["engine.find_candidate"], 50);
        assert_eq!(f.self_ns["engine.pair_search"], 50);
        assert_eq!(f.self_ns["engine.proof"], 40);
        assert_eq!(f.proof_ns, 200);
        // iteration 100 + answer 50 + noise_repair 30: unclaimed self time.
        assert_eq!(f.unattributed_ns, 180);
        assert_eq!(f.self_ns.values().sum::<u64>() + f.unattributed_ns, f.timed_ns);

        let facts = RunFacts { runs: 2, iterations: 6, seeded_iterations: 2, edges: 10 };
        let probes = Probes {
            answer_s: vec![1e-6, 3e-6],
            replays: vec![Replay {
                query_s: 2e-6,
                formula_nodes: 50,
                tape_s: 4e-6,
                solve_s: 0.5,
                boxes: 1000,
            }],
            analyze_s: Some(8e-6),
            save: vec![(1e-5, 100), (3e-5, 300)],
            restore_s: vec![2e-5],
            evict_s: vec![4e-5],
        };
        let m = layer_metrics(&f, &facts, &probes, 2.5);
        let close = |name: &str, want: f64| {
            let got = m[name];
            assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0), "{name}: {got} != {want}");
        };
        close("solver.bnp_s", 380e-9);
        close("engine.proof_s", 100e-9);
        close("engine.unattributed_s", 90e-9);
        close("solver.queries", 1.0);
        close("solver.boxes", 200.0);
        close("solver.pruned", 80.0);
        close("solver.samples", 5.0);
        close("solver.prune_ratio", 0.4);
        close("solver.boxes_per_s", 400.0 / 760e-9);
        close("cache.memo_hits", 0.5);
        close("cache.hit_ratio", 1.0 / 3.0);
        close("query.clauses_reused", 4.5);
        close("tape.slots", 30.0);
        close("engine.iterations", 3.0);
        close("prefgraph.edges", 5.0);
        close("session.answer_us", 2.0);
        close("solver.replay_boxes_per_s", 2000.0);
        close("query.formula_nodes", 50.0);
        close("snapshot.bytes", 200.0);
        close("snapshot.save_us", 20.0);
        close("trace.overhead_pct", 2.5);
        // Spans this stream never opened leave their metrics unmeasured.
        assert!(!m.contains_key("solver.seeding_s"));
        assert!(!m.contains_key("tape.compile_s"));
        // Everything else in the table is a registered per-layer metric.
        for name in m.keys() {
            assert!(PER_LAYER.iter().any(|p| p.name == name), "{name} is not registered");
        }
        assert_eq!(m.len() + 3, PER_LAYER.len());
    }

    #[test]
    fn a_pair_search_without_proof_measures_zero_proof_time() {
        let mut s = Stream { events: Vec::new(), seq: 0 };
        s.open("bench.step");
        s.open("engine.pair_search");
        s.close("engine.pair_search", 70);
        s.close("bench.step", 100);
        let f = fold(&s.events);
        let m = layer_metrics(
            &f,
            &RunFacts { runs: 1, ..RunFacts::default() },
            &Probes::default(),
            0.0,
        );
        assert_eq!(m["engine.proof_s"], 0.0);
        assert_eq!(m["engine.unattributed_s"], 30e-9);
        // Without the pair search the proof is unmeasured, not zero.
        let m = layer_metrics(&Folded::default(), &RunFacts::default(), &Probes::default(), 0.0);
        assert!(!m.contains_key("engine.proof_s"));
    }
}
