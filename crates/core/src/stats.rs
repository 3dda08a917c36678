//! Statistics collection and the summary measures the paper reports.
//!
//! Table 1 reports average, median and SIQR (semi-interquartile range) of
//! the iteration count, per-iteration synthesis time and total synthesis
//! time over nine runs; [`RunSummary`] computes exactly those.
//!
//! Solver work is recorded once per unit — per solver query and clause
//! batch — as a `Work` record, which the engine
//! publishes from a single method. The telemetry (`SolverTelemetry::add`),
//! the trace counter (`Work::fields`) and the Prometheus counters are
//! folds of that record, and `Work::from_event` reads it back from the
//! trace through the same fold ([`SolverTelemetry::from_events`]).

use cso_logic::solver::{Outcome, SolverStats};
use cso_runtime::trace::{Event, Kind, Value};
use std::time::Duration;

/// How a solver query ended, without the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// [`Outcome::Sat`].
    Sat,
    /// [`Outcome::Unsat`].
    Unsat,
    /// [`Outcome::DeltaUnsat`].
    DeltaUnsat,
    /// [`Outcome::Exhausted`].
    Exhausted,
}

impl From<&Outcome> for Verdict {
    fn from(out: &Outcome) -> Verdict {
        match out {
            Outcome::Sat(_) => Verdict::Sat,
            Outcome::Unsat => Verdict::Unsat,
            Outcome::DeltaUnsat => Verdict::DeltaUnsat,
            Outcome::Exhausted => Verdict::Exhausted,
        }
    }
}

/// One unit of solver work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Work {
    /// A physical solver query. `outcome` is `None` only when read back
    /// from a trace, whose `solver.query` counter does not carry it.
    Query {
        /// Work counters and phase times.
        stats: SolverStats,
        /// How the query ended.
        outcome: Option<Verdict>,
    },
    /// Preference-edge and tie clauses compiled since the last batch.
    Clauses {
        /// Clauses compiled.
        compiled: usize,
    },
}

impl Work {
    /// Name of the trace counter carrying this record.
    #[must_use]
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Work::Query { .. } => "solver.query",
            Work::Clauses { .. } => "query.clauses",
        }
    }

    /// The trace counter's fields, in order; phase times travel as whole
    /// nanoseconds, so [`Work::from_event`] reads them back exactly.
    #[must_use]
    pub(crate) fn fields(&self) -> Vec<(&'static str, Value)> {
        let u = |n: usize| Value::U64(n as u64);
        let ns = |d: Duration| Value::U64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        match *self {
            Work::Query { stats: s, .. } => vec![
                ("boxes", u(s.boxes_processed)),
                ("pruned", u(s.boxes_pruned)),
                ("residual", u(s.residual_boxes)),
                ("samples", u(s.samples_tried)),
                ("eval_errors", u(s.eval_errors)),
                ("from_seeding", u(usize::from(s.sat_from_seeding))),
                ("contracted", u(s.contracted)),
                ("emptied", u(s.emptied)),
                ("seeding_ns", ns(s.seeding_time)),
                ("bnp_ns", ns(s.bnp_time)),
            ],
            Work::Clauses { compiled } => vec![("compiled", u(compiled))],
        }
    }

    /// Read a record back from its trace counter (`None` for any other
    /// event); a missing field reads as zero.
    #[must_use]
    pub(crate) fn from_event(e: &Event) -> Option<Work> {
        if e.kind != Kind::Counter {
            return None;
        }
        let u = |k: &str| e.field_u64(k).unwrap_or(0);
        let n = |k: &str| u(k) as usize;
        Some(match e.name.as_str() {
            "solver.query" => Work::Query {
                stats: SolverStats {
                    boxes_processed: n("boxes"),
                    boxes_pruned: n("pruned"),
                    residual_boxes: n("residual"),
                    samples_tried: n("samples"),
                    eval_errors: n("eval_errors"),
                    sat_from_seeding: u("from_seeding") != 0,
                    contracted: n("contracted"),
                    emptied: n("emptied"),
                    seeding_time: Duration::from_nanos(u("seeding_ns")),
                    bnp_time: Duration::from_nanos(u("bnp_ns")),
                },
                outcome: None,
            },
            "query.clauses" => Work::Clauses { compiled: n("compiled") },
            _ => return None,
        })
    }
}

/// Aggregated δ-solver telemetry: the fold of the work records of
/// some window (one iteration, or a whole run).
///
/// Box and sample counts are deterministic given the seed; the two
/// `*_time` fields are wall-clock and must stay out of any output that
/// promises byte-identity across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverTelemetry {
    /// Solver queries folded.
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
    /// Always 0: the engine has no query memo, so every query is a solver
    /// run counted in `queries`. Kept only because the perf ledger
    /// (`ledger/src/workload.rs`) still reads it; it goes when the ledger
    /// stops.
    pub cache_hits: usize,
}

impl SolverTelemetry {
    /// Fold one work record into the aggregate.
    pub(crate) fn add(&mut self, work: &Work) {
        match *work {
            Work::Query { stats: s, .. } => {
                self.queries += 1;
                self.boxes_explored += s.boxes_processed;
                self.boxes_pruned += s.boxes_pruned;
                self.residual_boxes += s.residual_boxes;
                self.samples_tried += s.samples_tried;
                self.eval_errors += s.eval_errors;
                self.seeding_time += s.seeding_time;
                self.bnp_time += s.bnp_time;
            }
            Work::Clauses { .. } => {}
        }
    }

    /// Rebuild an aggregate from a trace event stream: its work records,
    /// folded through the same `add` the engine uses.
    #[must_use]
    pub fn from_events(events: &[Event]) -> SolverTelemetry {
        let mut t = SolverTelemetry::default();
        events.iter().filter_map(Work::from_event).for_each(|w| t.add(&w));
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
    use cso_runtime::prop::{self, CaseError, Gen};

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

    /// Any work record: counters up to 2⁴⁰, phase times in whole
    /// nanoseconds (what the trace carries), every verdict.
    fn work_gen() -> Gen<Work> {
        let query = prop::vec_of(prop::u64_in(0, 1 << 40), 11, 11).map(|v| Work::Query {
            stats: SolverStats {
                boxes_processed: v[0] as usize,
                boxes_pruned: v[1] as usize,
                residual_boxes: v[2] as usize,
                samples_tried: v[3] as usize,
                eval_errors: v[4] as usize,
                sat_from_seeding: v[5] % 2 == 1,
                seeding_time: Duration::from_nanos(v[6]),
                bnp_time: Duration::from_nanos(v[7]),
                contracted: v[9] as usize,
                emptied: v[10] as usize,
            },
            outcome: Some(
                [Verdict::Sat, Verdict::Unsat, Verdict::DeltaUnsat, Verdict::Exhausted]
                    [(v[8] % 4) as usize],
            ),
        });
        let clauses = prop::usize_in(0, 1 << 20).map(|compiled| Work::Clauses { compiled });
        prop::one_of(vec![query, clauses])
    }

    /// What the engine's publish point keeps and emits agree: its
    /// telemetry is the field-by-field fold of the records and equals the
    /// fold of the trace it emitted, and every record survives the JSONL
    /// round trip (minus the verdict, which the trace does not carry).
    #[test]
    fn published_work_folds_and_round_trips() {
        use crate::{MetricSpace, SynthConfig, Synthesizer};
        use cso_runtime::prop_assert;
        use cso_runtime::trace::{self, MemorySink};
        use cso_sketch::swan::swan_sketch;
        use std::sync::Arc;

        /// Tags this test's events: engine tests running alongside emit
        /// into the same global sink while it is installed.
        const SESSION: u64 = 0x5747_4154_5354_4154;
        let gen = prop::vec_of(work_gen(), 0, 16);
        prop::check("published_work_folds_and_round_trips", &gen, |works| {
            let mut synth =
                Synthesizer::new(swan_sketch(), MetricSpace::swan(), SynthConfig::fast_test())
                    .expect("SWAN sketch matches its metric space");
            let mem = Arc::new(MemorySink::new());
            trace::install(mem.clone());
            {
                let _s = trace::session_scope(SESSION);
                for w in works {
                    synth.publish(*w);
                }
            }
            let _ = trace::uninstall();
            let events: Vec<Event> =
                mem.take().into_iter().filter(|e| e.session == Some(SESSION)).collect();

            // The fold itself, field by field against the records.
            let queries: Vec<SolverStats> = works
                .iter()
                .filter_map(|w| match w {
                    Work::Query { stats, .. } => Some(*stats),
                    _ => None,
                })
                .collect();
            let sum = |f: fn(&SolverStats) -> usize| queries.iter().map(f).sum::<usize>();
            let expect = SolverTelemetry {
                queries: queries.len(),
                boxes_explored: sum(|s| s.boxes_processed),
                boxes_pruned: sum(|s| s.boxes_pruned),
                residual_boxes: sum(|s| s.residual_boxes),
                samples_tried: sum(|s| s.samples_tried),
                eval_errors: sum(|s| s.eval_errors),
                seeding_time: queries.iter().map(|s| s.seeding_time).sum(),
                bnp_time: queries.iter().map(|s| s.bnp_time).sum(),
                cache_hits: 0,
            };
            let totals = synth.stats.solver_totals;
            prop_assert!(totals == expect, "engine fold {totals:?} != {expect:?}");
            prop_assert!(synth.iter_solver == totals, "iteration and run folds differ");
            let rebuilt = SolverTelemetry::from_events(&events);
            prop_assert!(rebuilt == totals, "from_events {rebuilt:?} != engine fold {totals:?}");
            prop_assert!(events.len() == works.len(), "one counter per record");
            for (w, e) in works.iter().zip(&events) {
                let line = trace::to_jsonl(e);
                let back = trace::parse_line(&line).map_err(CaseError::Fail)?;
                let expect = match *w {
                    Work::Query { stats, .. } => Work::Query { stats, outcome: None },
                    other => other,
                };
                let read = Work::from_event(&back);
                prop_assert!(read == Some(expect), "{line} read back as {read:?}");
            }
            Ok(())
        });
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
