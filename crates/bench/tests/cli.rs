//! The `repro` binary reports an unusable `--csv` directory as an error
//! with exit status 2, never as a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cso-repro-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Run `repro table1 --csv <csv>`.
fn run(csv: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("table1")
        .arg("--csv")
        .arg(csv)
        .env_remove("CSO_TRACE")
        .env_remove("CSO_METRICS")
        .output()
        .expect("run repro")
}

fn assert_refused(output: &Output, what: &str, path: &Path) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    let want = format!("cannot {what} {}: ", path.display());
    assert!(stderr.starts_with(&want), "want {want:?}, stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn csv_dir_under_a_regular_file_exits_2() {
    let dir = scratch("create");
    let file = dir.join("file");
    std::fs::write(&file, "not a directory").expect("write scratch file");
    let csv = file.join("sub");
    let output = run(&csv);
    assert_refused(&output, "create", &csv);
    assert!(output.stdout.is_empty(), "no campaign runs before the directory exists");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn unwritable_csv_file_exits_2() {
    let dir = scratch("write");
    // A directory where the CSV file should go: creating the CSV
    // directory succeeds, writing `table1.csv` fails.
    let blocker = dir.join("table1.csv");
    std::fs::create_dir(&blocker).expect("create blocking dir");
    assert_refused(&run(&dir), "write", &blocker);
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
