//! The metric registry and the result line.
//!
//! Every metric the ledger can print is declared here, once. `BENCHMARK.json`
//! at the repository root lists the same names (a test keeps the two in
//! step), and a run's result line carries exactly the registry's
//! end-to-end metrics (untraced run) or per-layer metrics (traced run).

use crate::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, work, memory).
    Lower,
    /// Larger is better (quality, throughput, reuse).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Stable name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` per layer).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// What the architect and the operator see, measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wait_mean_ms", "ms", Lower, 0.25),
    e2e("wait_p95_ms", "ms", Lower, 0.25),
    e2e("agreement", "ratio", Higher, 0.04),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
];

/// One number per layer boundary, from the traced run. Counts and times
/// are per synthesis run (per session on `fleet`); replay and probe
/// timings are per call.
pub const PER_LAYER: &[Metric] = &[
    layer("solver.bnp_s", "s", Lower),
    layer("solver.seeding_s", "s", Lower),
    layer("solver.queries", "count", Lower),
    layer("solver.boxes", "count", Lower),
    layer("solver.pruned", "count", Lower),
    layer("solver.prune_ratio", "ratio", Higher),
    layer("solver.samples", "count", Lower),
    layer("solver.boxes_per_s", "1/s", Higher),
    layer("solver.replay_s", "s", Lower),
    layer("solver.replay_boxes_per_s", "1/s", Higher),
    layer("tape.compile_s", "s", Lower),
    layer("tape.slots", "count", Lower),
    layer("tape.replay_us", "us", Lower),
    layer("cache.memo_hits", "count", Higher),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("query.compile_s", "s", Lower),
    layer("query.clauses_reused", "count", Higher),
    layer("query.replay_us", "us", Lower),
    layer("query.formula_nodes", "count", Lower),
    layer("engine.iterations", "count", Lower),
    layer("engine.seeded_iterations", "count", Higher),
    layer("engine.find_candidate_s", "s", Lower),
    layer("engine.pair_search_s", "s", Lower),
    layer("engine.proof_s", "s", Lower),
    layer("engine.unattributed_s", "s", Lower),
    layer("prefgraph.edges", "count", Lower),
    layer("session.answer_us", "us", Lower),
    layer("analysis.analyze_us", "us", Lower),
    layer("snapshot.save_us", "us", Lower),
    layer("snapshot.restore_us", "us", Lower),
    layer("snapshot.bytes", "bytes", Lower),
    layer("serve.evict_us", "us", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// The registry a run reports: per-layer when traced, end-to-end otherwise.
#[must_use]
pub fn registry(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Every correctness check passed.
    pub correct: bool,
    /// Synthesis runs (sessions on `fleet`) started.
    pub attempted: u64,
    /// Runs that were rejected or failed an answer.
    pub failed: u64,
    /// Measured values by metric name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable context, printed as `#` lines.
    pub notes: Vec<String>,
    /// Descriptions of failed checks.
    pub failures: Vec<String>,
}

impl RunReport {
    /// Record a check; a failing one makes the report incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Set `correct` from the checks made so far.
    pub fn settle(&mut self) {
        self.correct = self.failures.is_empty();
    }

    /// `workload metric value unit` lines in registry order; a registry
    /// metric the run could not measure prints as `missing`.
    #[must_use]
    pub fn table(&self, workload: &str, registry: &[Metric]) -> String {
        let mut out = String::new();
        for m in registry {
            match self.metrics.get(m.name) {
                Some(v) => writeln!(out, "{workload} {} {v} {}", m.name, m.unit),
                None => writeln!(out, "{workload} {} missing {}", m.name, m.unit),
            }
            .expect("writing to a String cannot fail");
        }
        out
    }

    /// The one-line JSON result: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter holding the registry's metrics that were
    /// measured, every value with all its digits.
    #[must_use]
    pub fn json_line(&self, registry: &[Metric]) -> String {
        let mut metrics = Vec::new();
        for m in registry {
            if let Some(v) = self.metrics.get(m.name).filter(|v| v.is_finite()) {
                metrics
                    .push(format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Read a line written by [`RunReport::json_line`] back (`--all` reads its
/// children's results this way).
///
/// # Errors
/// When the line is not JSON or lacks one of its four keys.
pub fn parse_json_line(line: &str) -> Result<RunReport, String> {
    let v = json::parse(line)?;
    let field = |k: &str| v.get(k).ok_or_else(|| format!("no {k:?} in the result line"));
    let count =
        |k: &str| field(k)?.num().map(|x| x as u64).ok_or_else(|| format!("{k:?} is no count"));
    let Json::Bool(correct) = *field("correct")? else {
        return Err("\"correct\" is no boolean".to_owned());
    };
    let Json::Obj(metrics) = field("metrics")? else {
        return Err("\"metrics\" is no object".to_owned());
    };
    let mut r = RunReport {
        correct,
        attempted: count("attempted")?,
        failed: count("failed")?,
        ..RunReport::default()
    };
    for (name, m) in metrics {
        let value =
            m.get("value").and_then(Json::num).ok_or_else(|| format!("{name} has no value"))?;
        r.metrics.insert(name.clone(), value);
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !m.name.is_empty()
                    && m.name.len() <= 64
                    && m.name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                    && m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {:?}",
                m.name
            );
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s declared");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn json_line_round_trips_and_keeps_every_digit() {
        let mut r = RunReport { attempted: 12, failed: 1, ..RunReport::default() };
        r.metrics.insert("setup_s".into(), 0.001_234_567_891_234_5);
        r.metrics.insert("agreement".into(), 0.975);
        r.metrics.insert("not_registered".into(), 1.0);
        r.settle();
        let line = r.json_line(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 1, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0012345678912345, \"unit\": \"s\"}"));
        assert!(!line.contains("not_registered"));
        let back = parse_json_line(&line).expect("parses");
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (12, 1));
        assert_eq!(back.metrics.len(), 2);
        assert_eq!(back.metrics["setup_s"], 0.001_234_567_891_234_5);
        assert!(parse_json_line("{\"correct\": true, \"extra\": 1}").is_err());
        assert!(parse_json_line(&line[..line.len() - 1]).is_err());
    }

    #[test]
    fn table_marks_unmeasured_metrics_missing() {
        let mut r = RunReport::default();
        r.metrics.insert("setup_s".into(), 0.5);
        let t = r.table("w", END_TO_END);
        assert!(t.starts_with("w setup_s 0.5 s\n"));
        assert!(t.contains("w agreement missing ratio\n"));
        assert_eq!(t.lines().count(), END_TO_END.len());
    }
}
