//! `ledger` — run the performance ledger.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ledger --all [--seed-override <n>] [--seconds <s>] [--smoke]
//! ```
//!
//! The first form runs one workload once and prints its metrics as
//! `workload metric value unit` lines, then one JSON result line. The
//! second runs every workload in a child process of its own, untraced and
//! then traced, prints all metrics and writes `out/ledger.json` with
//! provenance. Either form exits nonzero when a correctness check fails.

use cso_ledger::report;
use cso_ledger::workload::{self, Options, Workload};
use cso_runtime::bench::Provenance;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       ledger --all [--seed-override <n>] [--seconds <s>] [--smoke]";

fn outdir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let set: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("CSO_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "ledger: refusing to run with {} set: CSO_* variables change what is measured",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    match parse(std::env::args().skip(1).collect()) {
        Ok(Mode::One { workload, opts, traced }) => run_one(workload, &opts, traced),
        Ok(Mode::All { seed, seconds, smoke }) => run_all(seed, seconds, smoke),
        Ok(Mode::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("ledger: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

enum Mode {
    One { workload: Workload, opts: Options, traced: bool },
    All { seed: Option<u64>, seconds: f64, smoke: bool },
    Help,
}

fn parse(args: Vec<String>) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut all = false;
    let mut smoke = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::from_name(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" | "--seed-override" => {
                seed = Some(value()?.parse::<u64>().map_err(|e| format!("bad seed: {e}"))?);
            }
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("bad seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--all" => all = true,
            "--smoke" => smoke = true,
            "--help" | "-h" => return Ok(Mode::Help),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seconds = seconds.unwrap_or(workload::RUN_SECONDS);
    if all {
        return Ok(Mode::All { seed, seconds, smoke });
    }
    let workload = workload.ok_or("--workload or --all is required")?;
    let seed = seed.unwrap_or(workload.default_seed());
    Ok(Mode::One {
        workload,
        opts: Options { seed, seconds, smoke, outdir: outdir() },
        traced: traced.unwrap_or(false),
    })
}

fn run_one(w: Workload, opts: &Options, traced: bool) -> ExitCode {
    let r = workload::run(w, opts, traced);
    let registry = report::registry(traced);
    let pass = if traced { "traced" } else { "untraced" };
    for note in &r.notes {
        println!("# {} seed {} ({pass}): {note}", w.name(), opts.seed);
    }
    print!("{}", r.table(w.name(), registry));
    for f in &r.failures {
        println!("# check failed: {f}");
    }
    println!("{}", r.json_line(registry));
    if r.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, untraced then traced, each in a child process.
fn run_all(seed: Option<u64>, seconds: f64, smoke: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ledger: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut entries = Vec::new();
    for w in Workload::ALL {
        let seed = seed.unwrap_or(w.default_seed());
        let mut lines = Vec::new();
        for traced in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if traced { "1" } else { "0" },
                ])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit());
            if smoke {
                cmd.arg("--smoke");
            }
            let (line, result) = match cmd.output() {
                Ok(out) => {
                    let text = String::from_utf8_lossy(&out.stdout).into_owned();
                    let mut body: Vec<&str> = text.lines().collect();
                    let last = body.pop().unwrap_or("").to_owned();
                    for l in body {
                        println!("{l}");
                    }
                    let parsed = report::parse_json_line(&last);
                    (last, parsed.map(|r| (r, out.status.success())))
                }
                Err(e) => (String::new(), Err(format!("cannot start: {e}"))),
            };
            match result {
                Ok((r, exited_ok)) => {
                    let registry = report::registry(traced);
                    let missing: Vec<&str> = registry
                        .iter()
                        .map(|m| m.name)
                        .filter(|n| !r.metrics.contains_key(*n))
                        .collect();
                    if !(r.correct && exited_ok && missing.is_empty()) {
                        ok = false;
                        println!(
                            "# {} {}: correct={} exit_ok={exited_ok} missing={missing:?}",
                            w.name(),
                            if traced { "traced" } else { "untraced" },
                            r.correct
                        );
                    }
                    lines.push(line);
                }
                Err(e) => {
                    ok = false;
                    println!("# {}: no result line: {e}", w.name());
                    lines.push("null".into());
                }
            }
        }
        entries.push(format!(
            "    {{\"name\": \"{}\", \"seed\": {seed}, \"untraced\": {}, \"traced\": {}}}",
            w.name(),
            lines[0],
            lines[1]
        ));
    }
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().replace('"', "'"))
        .unwrap_or_else(|| "unknown".into());
    let file = format!(
        "{{\n  \"provenance\": {},\n  \"rustc\": \"{rustc}\",\n  \"seconds\": {seconds},\n  \"smoke\": {smoke},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        Provenance::capture().to_json(),
        entries.join(",\n")
    );
    let path = outdir().join("ledger.json");
    match std::fs::create_dir_all(outdir()).and_then(|()| std::fs::write(&path, file)) {
        Ok(()) => println!("# results: {}", path.display()),
        Err(e) => {
            eprintln!("ledger: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
