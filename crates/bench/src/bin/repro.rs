//! Reproduction harness: regenerate every table and figure of the paper.
//!
//! ```text
//! repro [table1|fig3|fig4|fig5|ablation|all] [--paper] [--csv DIR]
//! ```
//!
//! Default is the `--quick` profile (3 runs per configuration, fast solver
//! settings): the shapes of the results match the paper in minutes.
//! `--paper` switches to 9 runs with paper-fidelity solver settings.

use cso_bench::experiments::{ablation, fig3, fig4, fig5, table1, ExperimentProfile};
use cso_bench::report::{render_ablation, render_fig3, render_fig4, render_fig5, render_table1};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut profile = ExperimentProfile::Quick;
    let mut csv_dir: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper" => profile = ExperimentProfile::Paper,
            "--quick" => profile = ExperimentProfile::Quick,
            "--csv" => {
                let dir = it.next().unwrap_or_else(|| {
                    eprintln!("--csv needs a directory argument");
                    std::process::exit(2);
                });
                csv_dir = Some(PathBuf::from(dir));
            }
            "table1" | "fig3" | "fig4" | "fig5" | "ablation" | "all" => which.push(a),
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: repro [table1|fig3|fig4|fig5|ablation|all] [--paper] [--csv DIR]"
                );
                std::process::exit(2);
            }
        }
    }
    if which.is_empty() {
        which.push("all".to_owned());
    }
    let run_all = which.iter().any(|w| w == "all");
    let wants = |name: &str| run_all || which.iter().any(|w| w == name);

    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let write_csv = |name: &str, contents: &str| {
        if let Some(dir) = &csv_dir {
            let path = dir.join(name);
            if let Err(e) = std::fs::write(&path, contents) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(2);
            }
            println!("wrote {}", path.display());
        }
    };

    println!("profile: {:?} ({} runs per configuration)\n", profile, profile.runs());

    if wants("table1") {
        let t = table1(profile);
        println!("{}", render_table1(&t));
        write_csv("table1.csv", &cso_bench::report::csv_table1(&t));
        // Wall-clock solver split lives in its own file so table1.csv
        // stays byte-identical across same-seed campaigns.
        write_csv("table1_telemetry.csv", &cso_bench::report::csv_table1_telemetry(&t));
    }
    if wants("fig3") {
        let rows = fig3(profile);
        println!("{}", render_fig3(&rows));
        write_csv("fig3.csv", &cso_bench::report::csv_fig3(&rows));
    }
    if wants("fig4") {
        let rows = fig4(profile);
        println!("{}", render_fig4(&rows));
        write_csv("fig4.csv", &cso_bench::report::csv_fig4(&rows));
    }
    if wants("fig5") {
        let rows = fig5(profile);
        println!("{}", render_fig5(&rows));
        write_csv("fig5.csv", &cso_bench::report::csv_fig5(&rows));
    }
    if wants("ablation") {
        let rows = ablation(profile);
        println!("{}", render_ablation(&rows));
    }

    // With CSO_METRICS=expo:<path>, leave the run's aggregated metrics
    // behind (solver/engine counters and latency histograms).
    if let Some(path) = cso_runtime::metrics::flush_exposition() {
        println!("wrote {}", path.display());
    }
}
