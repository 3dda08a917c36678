//! Statistics collection and the summary measures the paper reports.
//!
//! Table 1 reports average, median and SIQR (semi-interquartile range) of
//! the iteration count, per-iteration synthesis time and total synthesis
//! time over nine runs; [`RunSummary`] computes exactly those.

use cso_logic::solver::SolverStats;
use cso_runtime::trace::{Event, Kind};
use std::time::Duration;

/// Aggregated δ-solver telemetry, summed over some window of solver
/// queries (one iteration, or a whole run).
///
/// Box and sample counts are deterministic given the seed; the two
/// `*_time` fields are wall-clock and must stay out of any output that
/// promises byte-identity across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverTelemetry {
    /// Solver invocations absorbed.
    pub queries: usize,
    /// Boxes popped from the branch-and-prune frontier.
    pub boxes_explored: usize,
    /// Boxes pruned by interval refutation.
    pub boxes_pruned: usize,
    /// Sub-δ boxes left undecided.
    pub residual_boxes: usize,
    /// Exact sample evaluations (seeding + branch-and-prune).
    pub samples_tried: usize,
    /// Exact evaluations that surfaced a partiality error (division by
    /// zero, unbound variable) instead of a verdict. Samples the tape's
    /// interval point check rejects never reach the exact evaluator, so
    /// their errors are not counted.
    pub eval_errors: usize,
    /// Wall-clock time spent in seeding phases.
    pub seeding_time: Duration,
    /// Wall-clock time spent in branch-and-prune.
    pub bnp_time: Duration,
    /// Largest worker-thread count any absorbed query ran with.
    pub max_workers: usize,
    /// Queries answered by exact memo replay instead of a solver run.
    /// Replayed queries are *not* counted in `queries` or the box/sample
    /// counters — those record physical solver work only.
    pub cache_hits: usize,
    /// Preference-edge clauses served from the query-layer cache instead
    /// of being recompiled.
    pub clauses_reused: usize,
}

impl SolverTelemetry {
    /// Fold one solver query's statistics into the aggregate.
    ///
    /// Only covers what [`SolverStats`] reports — physical solver work.
    /// The cache-layer fields (`cache_hits`, `clauses_reused`) come from
    /// the engine's cache paths and flow in through
    /// [`SolverTelemetry::merge`].
    pub fn absorb(&mut self, s: &SolverStats) {
        self.queries += 1;
        self.boxes_explored += s.boxes_processed;
        self.boxes_pruned += s.boxes_pruned;
        self.residual_boxes += s.residual_boxes;
        self.samples_tried += s.samples_tried;
        self.eval_errors += s.eval_errors;
        self.seeding_time += s.seeding_time;
        self.bnp_time += s.bnp_time;
        self.max_workers = self.max_workers.max(s.workers);
    }

    /// Fold another aggregate into this one: every additive field sums,
    /// `max_workers` takes the max. The exhaustive destructuring makes a
    /// new telemetry field a compile error here rather than a silently
    /// dropped count.
    pub fn merge(&mut self, other: &SolverTelemetry) {
        let SolverTelemetry {
            queries,
            boxes_explored,
            boxes_pruned,
            residual_boxes,
            samples_tried,
            eval_errors,
            seeding_time,
            bnp_time,
            max_workers,
            cache_hits,
            clauses_reused,
        } = *other;
        self.queries += queries;
        self.boxes_explored += boxes_explored;
        self.boxes_pruned += boxes_pruned;
        self.residual_boxes += residual_boxes;
        self.samples_tried += samples_tried;
        self.eval_errors += eval_errors;
        self.seeding_time += seeding_time;
        self.bnp_time += bnp_time;
        self.max_workers = self.max_workers.max(max_workers);
        self.cache_hits += cache_hits;
        self.clauses_reused += clauses_reused;
    }

    /// Reconstruct an aggregate from a trace event stream — the bridge
    /// that keeps counters and traces from ever disagreeing. Folds the
    /// counter events the engine emits (`solver.query`, `cache.memo_hit`,
    /// `query.clauses`); phase
    /// times travel as whole nanoseconds, so the reconstruction is exact,
    /// not approximate.
    #[must_use]
    pub fn from_events(events: &[Event]) -> SolverTelemetry {
        let mut t = SolverTelemetry::default();
        for e in events {
            if e.kind != Kind::Counter {
                continue;
            }
            match e.name.as_str() {
                "solver.query" => {
                    t.queries += 1;
                    t.boxes_explored += e.field_u64("boxes").unwrap_or(0) as usize;
                    t.boxes_pruned += e.field_u64("pruned").unwrap_or(0) as usize;
                    t.residual_boxes += e.field_u64("residual").unwrap_or(0) as usize;
                    t.samples_tried += e.field_u64("samples").unwrap_or(0) as usize;
                    t.eval_errors += e.field_u64("eval_errors").unwrap_or(0) as usize;
                    t.seeding_time += Duration::from_nanos(e.field_u64("seeding_ns").unwrap_or(0));
                    t.bnp_time += Duration::from_nanos(e.field_u64("bnp_ns").unwrap_or(0));
                    t.max_workers = t.max_workers.max(e.field_u64("workers").unwrap_or(0) as usize);
                }
                "cache.memo_hit" => t.cache_hits += 1,
                "query.clauses" => {
                    t.clauses_reused += e.field_u64("reused").unwrap_or(0) as usize;
                }
                _ => {}
            }
        }
        t
    }
}

/// Per-iteration record emitted by the engine.
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub index: usize,
    /// Time spent in synthesis (solver + bookkeeping) this iteration,
    /// excluding oracle time — the paper also excludes the oracle.
    pub synthesis_time: Duration,
    /// Scenarios sent to the oracle this iteration.
    pub scenarios_asked: usize,
    /// Whether the disambiguation query was answered from seeding.
    pub sat_from_seeding: bool,
    /// Solver work performed during this iteration.
    pub solver: SolverTelemetry,
}

/// Statistics for one synthesis run.
#[derive(Debug, Clone, Default)]
pub struct SynthStats {
    /// Per-iteration records, in order.
    pub records: Vec<IterationRecord>,
    /// Time spent ranking the initial random scenarios (solver-side only).
    pub init_time: Duration,
    /// Total wall-clock synthesis time, excluding oracle time — the
    /// paper excludes the oracle from synthesis time, so it is measured
    /// separately ([`SynthStats::oracle_time`]) and subtracted.
    pub total_time: Duration,
    /// Wall-clock time spent inside `Oracle::rank` calls: measured so it
    /// can be excluded from `total_time` instead of silently invisible.
    pub oracle_time: Duration,
    /// Preference edges recorded.
    pub edges_recorded: usize,
    /// Edges removed by noise repair.
    pub edges_repaired: usize,
    /// Solver work summed over the whole run (including the initial
    /// ranking and the final convergence proof, which belong to no
    /// iteration record).
    pub solver_totals: SolverTelemetry,
}

impl SynthStats {
    /// Number of interactive iterations (excluding the initial ranking).
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.records.len()
    }

    /// Mean synthesis time per iteration in seconds.
    #[must_use]
    pub fn avg_iteration_secs(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let total: f64 = self.records.iter().map(|r| r.synthesis_time.as_secs_f64()).sum();
        total / self.records.len() as f64
    }

    /// Total synthesis time in seconds.
    #[must_use]
    pub fn total_secs(&self) -> f64 {
        self.total_time.as_secs_f64()
    }

    /// Total oracle time in seconds (excluded from [`total_secs`]).
    ///
    /// [`total_secs`]: SynthStats::total_secs
    #[must_use]
    pub fn oracle_secs(&self) -> f64 {
        self.oracle_time.as_secs_f64()
    }
}

/// Average / median / SIQR over a set of runs — the three columns of
/// Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Arithmetic mean.
    pub average: f64,
    /// Median; even-sized samples linearly interpolate between the two
    /// middle values (`quantile(v, 0.5)`), so the median of `[1, 2, 3, 4]`
    /// is `2.5`, not `2`.
    pub median: f64,
    /// Semi-interquartile range `(Q3 - Q1) / 2`.
    pub siqr: f64,
}

impl RunSummary {
    /// Summarize a sample. Returns zeros for an empty sample.
    #[must_use]
    pub fn of(samples: &[f64]) -> RunSummary {
        if samples.is_empty() {
            return RunSummary { average: 0.0, median: 0.0, siqr: 0.0 };
        }
        let mut v = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in summaries"));
        let average = v.iter().sum::<f64>() / v.len() as f64;
        let median = quantile(&v, 0.5);
        let q1 = quantile(&v, 0.25);
        let q3 = quantile(&v, 0.75);
        RunSummary { average, median, siqr: (q3 - q1) / 2.0 }
    }
}

/// Linear-interpolation quantile of a sorted sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constant_sample() {
        let s = RunSummary::of(&[3.0; 9]);
        assert_eq!(s.average, 3.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.siqr, 0.0);
    }

    #[test]
    fn summary_of_known_sample() {
        // 1..=9: mean 5, median 5, Q1 3, Q3 7, SIQR 2.
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        let s = RunSummary::of(&v);
        assert_eq!(s.average, 5.0);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.siqr, 2.0);
    }

    #[test]
    fn summary_even_count_interpolates() {
        // Even-sized sample: the median sits halfway between the two
        // middle values, and the quartiles interpolate too.
        let s = RunSummary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.average, 2.5);
        // Q1 = 1.75, Q3 = 3.25 under linear interpolation → SIQR 0.75.
        assert!((s.siqr - 0.75).abs() < 1e-12);
    }

    #[test]
    fn summary_unsorted_input() {
        let s = RunSummary::of(&[9.0, 1.0, 5.0]);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.average, 5.0);
    }

    #[test]
    fn summary_empty() {
        let s = RunSummary::of(&[]);
        assert_eq!(s.average, 0.0);
        assert_eq!(s.median, 0.0);
    }

    #[test]
    fn telemetry_absorbs_solver_stats() {
        let mut t = SolverTelemetry::default();
        let mut s = SolverStats {
            boxes_processed: 10,
            boxes_pruned: 4,
            residual_boxes: 1,
            samples_tried: 25,
            eval_errors: 3,
            sat_from_seeding: false,
            seeding_time: Duration::from_millis(3),
            bnp_time: Duration::from_millis(7),
            workers: 4,
        };
        t.absorb(&s);
        s.workers = 2;
        t.absorb(&s);
        assert_eq!(t.queries, 2);
        assert_eq!(t.boxes_explored, 20);
        assert_eq!(t.boxes_pruned, 8);
        assert_eq!(t.residual_boxes, 2);
        assert_eq!(t.samples_tried, 50);
        assert_eq!(t.eval_errors, 6);
        assert_eq!(t.seeding_time, Duration::from_millis(6));
        assert_eq!(t.bnp_time, Duration::from_millis(14));
        assert_eq!(t.max_workers, 4, "max, not last");
        // `absorb` records physical solver work only; the cache-layer
        // fields flow through `merge` and must stay untouched here.
        assert_eq!(t.cache_hits, 0);
        assert_eq!(t.clauses_reused, 0);
    }

    /// Every field — including the cache-layer fields — survives
    /// aggregation; a dropped field here would silently zero a
    /// `table1_telemetry.csv` column.
    #[test]
    fn telemetry_merge_covers_every_field() {
        let a = SolverTelemetry {
            queries: 1,
            boxes_explored: 2,
            boxes_pruned: 3,
            residual_boxes: 4,
            samples_tried: 5,
            eval_errors: 13,
            seeding_time: Duration::from_millis(6),
            bnp_time: Duration::from_millis(7),
            max_workers: 8,
            cache_hits: 9,
            clauses_reused: 10,
        };
        let mut t = a;
        t.merge(&SolverTelemetry { max_workers: 3, ..a });
        assert_eq!(
            t,
            SolverTelemetry {
                queries: 2,
                boxes_explored: 4,
                boxes_pruned: 6,
                residual_boxes: 8,
                samples_tried: 10,
                eval_errors: 26,
                seeding_time: Duration::from_millis(12),
                bnp_time: Duration::from_millis(14),
                max_workers: 8,
                cache_hits: 18,
                clauses_reused: 20,
            }
        );
    }

    /// The event-stream reconstruction agrees with direct aggregation:
    /// one `solver.query` counter per physical solve, cache counters for
    /// the cache paths, nanosecond-exact phase times.
    #[test]
    fn telemetry_from_events_reconstructs_counters() {
        use cso_runtime::trace::Value;
        let counter = |name: &str, fields: Vec<(&str, u64)>| Event {
            kind: Kind::Counter,
            name: name.to_owned(),
            thread: 0,
            worker: None,
            session: None,
            seq: 0,
            wall_ns: 0,
            dur_ns: None,
            fields: fields.into_iter().map(|(k, v)| (k.to_owned(), Value::U64(v))).collect(),
        };
        let events = vec![
            counter(
                "solver.query",
                vec![
                    ("boxes", 10),
                    ("pruned", 4),
                    ("residual", 1),
                    ("samples", 25),
                    ("eval_errors", 2),
                    ("workers", 4),
                    ("seeding_ns", 3_000_001),
                    ("bnp_ns", 7_000_002),
                ],
            ),
            counter("cache.memo_hit", vec![("site", 2)]),
            counter("cache.memo_hit", vec![("site", 3)]),
            counter("query.clauses", vec![("reused", 30), ("compiled", 5)]),
        ];
        let t = SolverTelemetry::from_events(&events);
        let mut expect = SolverTelemetry::default();
        expect.absorb(&SolverStats {
            boxes_processed: 10,
            boxes_pruned: 4,
            residual_boxes: 1,
            samples_tried: 25,
            eval_errors: 2,
            sat_from_seeding: false,
            seeding_time: Duration::from_nanos(3_000_001),
            bnp_time: Duration::from_nanos(7_000_002),
            workers: 4,
        });
        expect.merge(&SolverTelemetry {
            cache_hits: 2,
            clauses_reused: 30,
            ..SolverTelemetry::default()
        });
        assert_eq!(t, expect);
    }

    #[test]
    fn stats_aggregation() {
        let mut st = SynthStats::default();
        for i in 1..=4 {
            st.records.push(IterationRecord {
                index: i,
                synthesis_time: Duration::from_millis(100 * i as u64),
                scenarios_asked: 2,
                sat_from_seeding: false,
                solver: SolverTelemetry::default(),
            });
        }
        st.total_time = Duration::from_secs(1);
        assert_eq!(st.iterations(), 4);
        assert!((st.avg_iteration_secs() - 0.25).abs() < 1e-9);
        assert_eq!(st.total_secs(), 1.0);
    }
}
