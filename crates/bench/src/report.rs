//! Text and CSV rendering of experiment results.

use crate::experiments::{AblationRow, Fig3Row, Fig4Row, Fig5Row, Table1Result};
use std::fmt::Write as _;

/// Render Table 1 in the paper's layout.
#[must_use]
pub fn render_table1(t: &Table1Result) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 1: Summary of experimental results ({} runs)", t.runs.len());
    let _ = writeln!(s, "{:<34} {:>10} {:>10} {:>10}", "Metrics", "Average", "Median", "SIQR");
    let _ = writeln!(
        s,
        "{:<34} {:>10.2} {:>10.2} {:>10.2}",
        "# Iterations", t.iterations.average, t.iterations.median, t.iterations.siqr
    );
    let _ = writeln!(
        s,
        "{:<34} {:>10.3} {:>10.3} {:>10.3}",
        "Synthesis Time per Iteration (s)",
        t.secs_per_iteration.average,
        t.secs_per_iteration.median,
        t.secs_per_iteration.siqr
    );
    let _ = writeln!(
        s,
        "{:<34} {:>10.2} {:>10.2} {:>10.2}",
        "Total Synthesis Time (s)", t.total_secs.average, t.total_secs.median, t.total_secs.siqr
    );
    let _ = writeln!(s, "(mean target agreement: {:.3})", t.mean_agreement);
    s
}

/// Render Figure 3's data as a series table.
#[must_use]
pub fn render_fig3(rows: &[Fig3Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Figure 3: tuned threshold or slope (per-variant averages)");
    let _ = writeln!(
        s,
        "{:<10} {:>7} {:>14} {:>18} {:>11}",
        "series", "value", "avg #iters", "avg s/iteration", "agreement"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>7} {:>14.2} {:>18.3} {:>11.3}",
            r.series, r.value, r.avg_iterations, r.avg_secs_per_iteration, r.mean_agreement
        );
    }
    s
}

/// Render Figure 4's data.
#[must_use]
pub fn render_fig4(rows: &[Fig4Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Figure 4: pairs of scenarios ranked per iteration");
    let _ = writeln!(
        s,
        "{:>11} {:>14} {:>18} {:>14}",
        "pairs/iter", "avg #iters", "avg s/iteration", "avg total s"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:>11} {:>14.2} {:>18.3} {:>14.2}",
            r.pairs_per_iteration, r.avg_iterations, r.avg_secs_per_iteration, r.avg_total_secs
        );
    }
    s
}

/// Render Figure 5's data.
#[must_use]
pub fn render_fig5(rows: &[Fig5Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Figure 5: number of initial random scenarios");
    let _ = writeln!(
        s,
        "{:>13} {:>14} {:>18} {:>14}",
        "initial", "avg #iters", "avg s/iteration", "avg total s"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:>13} {:>14.2} {:>18.3} {:>14.2}",
            r.initial_scenarios, r.avg_iterations, r.avg_secs_per_iteration, r.avg_total_secs
        );
    }
    s
}

/// Render the ablation table.
#[must_use]
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Ablations (DESIGN.md §5)");
    let _ = writeln!(
        s,
        "{:<34} {:>12} {:>13} {:>11} {:>10}",
        "configuration", "avg #iters", "avg total s", "agreement", "completed"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<34} {:>12.2} {:>13.2} {:>11.3} {:>9.0}%",
            r.label,
            r.avg_iterations,
            r.avg_total_secs,
            r.mean_agreement,
            100.0 * r.completion_rate
        );
    }
    s
}

/// CSV for Table 1: one row per run, **semantic fields only**
/// (iterations, agreement, termination) — no wall-clock columns and no
/// solver work counters, so the file is byte-identical across repeated
/// campaigns. Box counts belong in
/// [`csv_table1_telemetry`], not here. The seed column is the run's index
/// within the campaign.
#[must_use]
pub fn csv_table1(t: &Table1Result) -> String {
    let mut s = String::from("run,iterations,agreement,outcome\n");
    for (i, r) in t.runs.iter().enumerate() {
        let _ = writeln!(s, "{},{},{},{:?}", i, r.iterations, r.agreement, r.outcome);
    }
    s
}

/// Per-run solver telemetry CSV: solver work counters (queries, boxes),
/// the wall-clock split between seeding and branch-and-prune, and the
/// measured-and-excluded oracle time. The timing columns vary run to
/// run — this file intentionally makes no byte-identity promise.
#[must_use]
pub fn csv_table1_telemetry(t: &Table1Result) -> String {
    let mut s = String::from(
        "run,solver_queries,boxes_explored,boxes_pruned,eval_errors,\
         seeding_secs,bnp_secs,oracle_secs\n",
    );
    for (i, r) in t.runs.iter().enumerate() {
        let _ = writeln!(
            s,
            "{},{},{},{},{},{:.6},{:.6},{:.6}",
            i,
            r.solver.queries,
            r.solver.boxes_explored,
            r.solver.boxes_pruned,
            r.solver.eval_errors,
            r.solver.seeding_time.as_secs_f64(),
            r.solver.bnp_time.as_secs_f64(),
            r.oracle_secs
        );
    }
    s
}

/// CSV for Figure 3.
#[must_use]
pub fn csv_fig3(rows: &[Fig3Row]) -> String {
    let mut s = String::from("series,value,avg_iterations,avg_secs_per_iteration,agreement\n");
    for r in rows {
        let _ = writeln!(
            s,
            "{},{},{},{},{}",
            r.series, r.value, r.avg_iterations, r.avg_secs_per_iteration, r.mean_agreement
        );
    }
    s
}

/// CSV for Figure 4.
#[must_use]
pub fn csv_fig4(rows: &[Fig4Row]) -> String {
    let mut s =
        String::from("pairs_per_iteration,avg_iterations,avg_secs_per_iteration,avg_total_secs\n");
    for r in rows {
        let _ = writeln!(
            s,
            "{},{},{},{}",
            r.pairs_per_iteration, r.avg_iterations, r.avg_secs_per_iteration, r.avg_total_secs
        );
    }
    s
}

/// CSV for Figure 5.
#[must_use]
pub fn csv_fig5(rows: &[Fig5Row]) -> String {
    let mut s =
        String::from("initial_scenarios,avg_iterations,avg_secs_per_iteration,avg_total_secs\n");
    for r in rows {
        let _ = writeln!(
            s,
            "{},{},{},{}",
            r.initial_scenarios, r.avg_iterations, r.avg_secs_per_iteration, r.avg_total_secs
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use cso_synth::RunSummary;

    fn t1() -> Table1Result {
        Table1Result {
            iterations: RunSummary::of(&[30.0, 31.0, 33.0]),
            secs_per_iteration: RunSummary::of(&[2.4, 2.5, 2.4]),
            total_secs: RunSummary::of(&[70.0, 76.0, 80.0]),
            mean_agreement: 0.97,
            runs: Vec::new(),
        }
    }

    #[test]
    fn table1_csv_columns() {
        use crate::experiments::RunOutcome;
        use cso_synth::stats::SolverTelemetry;
        use cso_synth::SynthOutcome;
        use std::time::Duration;
        let mut t = t1();
        t.runs.push(RunOutcome {
            iterations: 30,
            secs_per_iteration: 2.4,
            total_secs: 72.0,
            agreement: 0.97,
            outcome: SynthOutcome::Converged,
            solver: SolverTelemetry {
                queries: 120,
                boxes_explored: 4_567,
                boxes_pruned: 1_234,
                eval_errors: 2,
                seeding_time: Duration::from_millis(1_500),
                bnp_time: Duration::from_millis(3_250),
                ..SolverTelemetry::default()
            },
            oracle_secs: 0.125,
        });
        let csv = csv_table1(&t);
        assert!(csv.contains("0,30,0.97,Converged\n"));
        assert!(!csv.contains("3.25"), "no wall-clock fields in the deterministic CSV");
        assert!(!csv.contains("4567"), "work counters are telemetry only");
        let tel = csv_table1_telemetry(&t);
        assert!(tel.contains("eval_errors,seeding_secs"));
        assert!(tel.contains("0,120,4567,1234,2,1.500000,3.250000,0.125000"));
    }

    #[test]
    fn table1_layout() {
        let s = render_table1(&t1());
        assert!(s.contains("# Iterations"));
        assert!(s.contains("Synthesis Time per Iteration"));
        assert!(s.contains("Total Synthesis Time"));
        assert!(s.contains("SIQR"));
    }

    #[test]
    fn fig_renders_and_csv() {
        let rows = vec![Fig4Row {
            pairs_per_iteration: 2,
            avg_iterations: 18.0,
            avg_secs_per_iteration: 3.1,
            avg_total_secs: 55.0,
        }];
        let text = render_fig4(&rows);
        assert!(text.contains("pairs/iter"));
        let csv = csv_fig4(&rows);
        assert!(csv.starts_with("pairs_per_iteration,"));
        assert!(csv.contains("2,18,3.1,55"));
    }

    #[test]
    fn fig3_csv_contains_series() {
        let rows = vec![Fig3Row {
            series: "l_thrsh",
            value: 65,
            avg_iterations: 25.0,
            avg_secs_per_iteration: 2.0,
            mean_agreement: 0.96,
        }];
        assert!(csv_fig3(&rows).contains("l_thrsh,65,25,2,0.96"));
        assert!(render_fig3(&rows).contains("l_thrsh"));
    }

    #[test]
    fn fig5_and_ablation_render() {
        let rows = vec![Fig5Row {
            initial_scenarios: 7,
            avg_iterations: 22.0,
            avg_secs_per_iteration: 2.5,
            avg_total_secs: 60.0,
        }];
        assert!(render_fig5(&rows).contains("initial"));
        assert!(csv_fig5(&rows).contains("7,22,2.5,60"));
        let ab = vec![AblationRow {
            label: "seeding off".into(),
            avg_iterations: 30.0,
            avg_total_secs: 100.0,
            mean_agreement: 0.95,
            completion_rate: 1.0,
        }];
        assert!(render_ablation(&ab).contains("seeding off"));
    }
}
