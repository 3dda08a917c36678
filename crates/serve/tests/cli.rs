//! The `cso-serve` binary refuses a fleet size that is not a positive
//! integer, from the flag or from the environment, before any session runs.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Run `cso-serve --bench` with `args` and `CSO_SERVE_SESSIONS` set to
/// `env_sessions` (or unset). A run that outlives the deadline is killed:
/// it is simulating a fleet instead of refusing its size.
fn run(args: &[&str], env_sessions: Option<&str>) -> Output {
    let out = std::env::temp_dir().join(format!("cso-serve-cli-{}.json", std::process::id()));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cso-serve"));
    cmd.arg("--bench")
        .args(args)
        .arg("--out")
        .arg(&out)
        .env_remove("CSO_SERVE_SESSIONS")
        .env_remove("CSO_SERVE_SNAPDIR")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if let Some(v) = env_sessions {
        cmd.env("CSO_SERVE_SESSIONS", v);
    }
    let mut child = cmd.spawn().expect("spawn cso-serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll cso-serve").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill cso-serve");
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let output = child.wait_with_output().expect("collect cso-serve output");
    assert!(!out.exists(), "a refused fleet must not write a report");
    output
}

fn assert_refused(output: &Output, source: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(source) && stderr.contains("positive integer"), "stderr: {stderr}");
}

#[test]
fn zero_sessions_flag_exits_2() {
    assert_refused(&run(&["--sessions", "0"], None), "--sessions");
}

#[test]
fn zero_sessions_env_exits_2() {
    assert_refused(&run(&[], Some("0")), "CSO_SERVE_SESSIONS");
}

#[test]
fn malformed_sessions_env_exits_2() {
    assert_refused(&run(&[], Some("abc")), "CSO_SERVE_SESSIONS");
}
