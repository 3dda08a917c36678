//! The ledger against `BENCHMARK.json` and the API it may use.

use cso_ledger::json::{self, Json};
use cso_ledger::report::{Metric, END_TO_END, PER_LAYER};
use cso_ledger::workload::{Workload, RUN_SECONDS};
use std::path::Path;

fn benchmark() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn key<'a>(v: &'a Json, k: &str) -> &'a Json {
    v.get(k).unwrap_or_else(|| panic!("no key {k:?}"))
}

fn text<'a>(v: &'a Json, k: &str) -> &'a str {
    key(v, k).str().unwrap_or_else(|| panic!("{k:?} is not a string"))
}

fn items<'a>(v: &'a Json, k: &str) -> &'a [Json] {
    key(v, k).items().unwrap_or_else(|| panic!("{k:?} is not an array"))
}

fn assert_same(listed: &[Json], registry: &[Metric], with_bound: bool) {
    let names: Vec<&str> = listed.iter().map(|m| text(m, "name")).collect();
    let expect: Vec<&str> = registry.iter().map(|m| m.name).collect();
    assert_eq!(names, expect, "BENCHMARK.json and the ledger list different metrics");
    for (m, r) in listed.iter().zip(registry) {
        assert_eq!(text(m, "unit"), r.unit, "{}", r.name);
        assert_eq!(text(m, "better"), r.better.as_str(), "{}", r.name);
        if with_bound {
            assert_eq!(key(m, "bound").num(), r.bound, "{}", r.name);
        }
    }
}

#[test]
fn benchmark_json_lists_what_the_runner_prints() {
    let b = benchmark();
    assert_same(items(&b, "end_to_end"), END_TO_END, true);
    assert_same(items(&b, "per_layer"), PER_LAYER, false);
    let workloads: Vec<&str> = items(&b, "workloads").iter().map(|w| text(w, "name")).collect();
    let expect: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expect);
    assert_eq!(key(&b, "run_seconds").num(), Some(RUN_SECONDS));
    assert_eq!(key(&b, "paths"), &Json::Arr(vec![Json::Str("ledger".into())]));
    let command: Vec<&str> = items(&b, "command").iter().filter_map(Json::str).collect();
    assert!(command.windows(2).any(|w| w == ["--manifest-path", "ledger/Cargo.toml"]));
}

#[test]
fn ledger_uses_no_api_slated_for_removal() {
    // Fields and knobs the roadmap deletes; the ledger must build after.
    // `SolverConfig::tape` is caught as a field access or a struct-literal
    // field; the `"solver.tape"` trace counter is data and stays allowed.
    let banned = [
        "boxes_carried",
        "boxes_pretightened",
        "collect_frontier",
        "pretighten",
        ".tape;",
        ".tape ",
        ".tape,",
        ".tape)",
        "tape:",
        "CSO_EVAL_TAPE",
        "CSO_REPRO_DRIVER",
    ];
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut scanned = 0;
    for entry in std::fs::read_dir(&src).expect("src is readable") {
        let path = entry.expect("directory entry").path();
        let text = std::fs::read_to_string(&path).expect("source is UTF-8");
        for word in banned {
            assert!(!text.contains(word), "{} mentions {word}", path.display());
        }
        scanned += 1;
    }
    assert!(scanned >= 4, "scanned only {scanned} files");
}
