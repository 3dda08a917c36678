#!/usr/bin/env bash
# CI gate for the compsynth workspace. Everything runs --offline: the
# workspace has zero external dependencies (see DESIGN.md §3), so a cold
# target directory and an empty registry cache must both work.
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy"
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "==> cargo clippy unavailable; skipping lint"
fi

echo "==> cargo build --release --offline"
cargo build --workspace --release --offline

echo "==> cargo test"
cargo test -q --workspace --offline

# Lane kernels at depth: the interval lane operations and the rounding
# helpers must equal the scalar operations bit for bit, interval products
# (subnormal operands included) must equal the hardware product, `Rat`
# arithmetic on one-limb parts must equal `BigInt` arithmetic, the tape's lane
# interpreter must agree with the tree walker at every batch size, on all
# conjuncts and on random subsets of them (planned passes over unions of
# conjunct masks), the early-exit refuter run on a point's one-ulp
# enclosures must never reject a model, every lane slot must contain its
# exact rational value, the sampler's word-level enclosures must equal
# the `Rat` path's bit for bit,
# contraction (whole boxes and split halves contracted from a verdict
# pass's lanes) must keep every exact solution, and so must a split at a
# guard constant. Release build, so the vectorized loops are the code
# under test.
echo "==> lane and kernel properties (CSO_PROP_CASES=20000, release)"
CSO_PROP_CASES=20000 cargo test -q --release --offline -p cso-numeric --test properties -- \
    round_down_up_match_next_down_up interval_lanes_match_scalar_bit_for_bit \
    interval_mul_matches_hardware rat_ops_match_bigint_arithmetic
CSO_PROP_CASES=20000 cargo test -q --release --offline -p cso-logic -- \
    lane_slots_contain_exact_values tape_verdicts_match_ieval_for_every_batch_size \
    enclosure_in_matches_rat_enclosure_of_rat_in contraction_keeps_every_exact_solution \
    guard_cuts_keep_every_exact_solution

# The perf ledger is a standalone package (its own workspace and lock
# file), so the workspace passes above never build it. Its tests include
# a scan that fails when the ledger calls API the roadmap deletes.
echo "==> ledger tests"
cargo test -q --offline --manifest-path ledger/Cargo.toml

# Miri pass over the runtime substrate (PRNG, pool, prop, trace): the
# rest of the workspace forbids `unsafe` outright, so cso-runtime — the
# one crate whose threading code could ever need it — is the only crate
# worth interpreting. Skipped when the toolchain lacks the component or
# when CSO_CI_FAST=1 asks for the short gate.
if [ "${CSO_CI_FAST:-0}" != 1 ] && cargo miri --version >/dev/null 2>&1; then
    echo "==> cargo miri test -p cso-runtime"
    cargo miri test -q --offline -p cso-runtime
else
    echo "==> miri unavailable or CSO_CI_FAST=1; skipping interpreter pass"
fi

# Static analyzer goldens: the linter's machine output is deterministic,
# so the committed JSON reports are byte-exact. SWAN must stay clean
# (exit 0, pinned benign infos); the broken fixture must keep failing
# (exit 1) with the same spanned diagnostics.
echo "==> sketch-lint goldens"
LINT=$(mktemp -d)
cargo run -q --release --offline -p cso-bench --bin sketch-lint -- \
    --json --bounds 0,10 --bounds 0,200 crates/bench/fixtures/swan.sk > "$LINT/swan.json"
diff results/swan_lint.json "$LINT/swan.json"
if cargo run -q --release --offline -p cso-bench --bin sketch-lint -- \
    --json crates/bench/fixtures/broken.sk > "$LINT/broken.json"; then
    echo "sketch-lint accepted the broken fixture" >&2
    exit 1
fi
diff results/broken_lint.json "$LINT/broken.json"
rm -rf "$LINT"

# Golden regression: table1.csv carries semantic fields only (iterations,
# agreement, outcome). The diffs in this block compare fresh campaigns with
# each other, so a change that re-seeds every run the same way would pass
# them all. Pin the fresh run to the committed goldens as well: table1.csv
# byte for byte, and table1_telemetry.csv's work counters (`run` through
# `eval_errors`; the columns after them are wall-clock seconds).
echo "==> table1.csv + telemetry work counters vs committed goldens"
GOLD=$(mktemp -d)
cargo run -q --release --offline -p cso-bench --bin repro -- table1 --csv "$GOLD/fresh" >/dev/null
diff results/table1.csv "$GOLD/fresh/table1.csv"
diff <(cut -d, -f1-5 results/table1_telemetry.csv) <(cut -d, -f1-5 "$GOLD/fresh/table1_telemetry.csv")

# Tracing is strictly observational: rerun the same campaign with the
# JSONL sink attached and golden-diff table1.csv against the untraced
# run, then fold the trace with trace-digest (which re-checks stream
# well-formedness and exits nonzero on any parse failure).
echo "==> table1.csv golden diff (traced vs untraced) + trace-digest smoke"
CSO_TRACE="jsonl:$GOLD/trace.jsonl" cargo run -q --release --offline -p cso-bench --bin repro -- \
    table1 --csv "$GOLD/traced" >/dev/null
diff "$GOLD/fresh/table1.csv" "$GOLD/traced/table1.csv"

# Lint-gated campaign: with CSO_LINT=deny the engine runs the analyzer
# before every synthesis; on well-formed
# sketches that must not move a single byte of the semantic CSV.
echo "==> table1.csv golden diff (CSO_LINT=deny vs default)"
CSO_LINT=deny cargo run -q --release --offline -p cso-bench --bin repro -- \
    table1 --csv "$GOLD/linted" >/dev/null
diff "$GOLD/fresh/table1.csv" "$GOLD/linted/table1.csv"
cargo run -q --release --offline -p cso-bench --bin trace-digest -- "$GOLD/trace.jsonl" \
    > "$GOLD/digest.txt"
head -n 4 "$GOLD/digest.txt"
grep -q "well-formed" "$GOLD/digest.txt"
grep -q "engine.iteration" "$GOLD/digest.txt"
grep -q "solver.bnp" "$GOLD/digest.txt"

# Metrics are observational too: a metrics-enabled campaign must keep
# table1.csv byte-identical, and the exposition's seed-driven lines
# (counter `_total`s and histogram `_count`s) must match across two
# same-seed runs. (`_sum` and quantile lines carry wall-clock time and
# legitimately vary — they are filtered out before the diff.)
echo "==> table1.csv golden diff (CSO_METRICS on) + exposition determinism"
CSO_METRICS="expo:$GOLD/metrics_a.prom" cargo run -q --release --offline -p cso-bench --bin repro -- \
    table1 --csv "$GOLD/metered" >/dev/null
diff "$GOLD/fresh/table1.csv" "$GOLD/metered/table1.csv"
CSO_METRICS="expo:$GOLD/metrics_b.prom" cargo run -q --release --offline -p cso-bench --bin repro -- \
    table1 --csv "$GOLD/metered2" >/dev/null
grep -E '(_total|_count) ' "$GOLD/metrics_a.prom" > "$GOLD/det_a.txt"
grep -E '(_total|_count) ' "$GOLD/metrics_b.prom" > "$GOLD/det_b.txt"
diff "$GOLD/det_a.txt" "$GOLD/det_b.txt"
grep -q '^cso_solver_queries_total ' "$GOLD/metrics_a.prom"
grep -q '^cso_engine_oracle_calls_total ' "$GOLD/metrics_a.prom"

# The Prometheus and CSV views fold the same work records: each
# solver-work counter of the metered campaign equals the matching
# table1_telemetry.csv column summed over its runs (an unregistered
# counter reads as zero).
echo "==> exposition counters vs table1_telemetry.csv column sums"
for pair in cso_solver_queries_total:solver_queries cso_solver_boxes_total:boxes_explored \
    cso_solver_boxes_pruned_total:boxes_pruned cso_solver_eval_errors_total:eval_errors; do
    counter=${pair%%:*}
    column=${pair#*:}
    expo=$(awk -v n="$counter" '$1 == n { v = $2 } END { printf "%d", v }' "$GOLD/metrics_a.prom")
    csv=$(awk -F, -v c="$column" '
        NR == 1 { for (i = 1; i <= NF; i++) if ($i == c) k = i; if (!k) exit 1; next }
        { s += $k }
        END { printf "%d", s }
    ' "$GOLD/metered/table1_telemetry.csv")
    if [ "$expo" != "$csv" ]; then
        echo "$counter is $expo but the $column column sums to $csv"
        exit 1
    fi
done

# Flame smoke: folding the traced campaign's JSONL must yield non-empty
# collapsed stacks with branch-and-prune attributed under an engine
# iteration (the same reconciliation metrics_equivalence.rs proves
# exactly on a single run).
echo "==> trace-digest --flame smoke"
cargo run -q --release --offline -p cso-bench --bin trace-digest -- --flame "$GOLD/trace.jsonl" \
    > "$GOLD/flame.txt"
test -s "$GOLD/flame.txt"
grep -q 'engine.iteration' "$GOLD/flame.txt"
grep -q 'solver.bnp' "$GOLD/flame.txt"
rm -rf "$GOLD"

# Service smoke: a 64-session fleet with snapshot eviction enabled must
# drive every session to Done and emit a parseable report.
echo "==> cso-serve fleet smoke (64 sessions, eviction on, metrics on)"
SERVE=$(mktemp -d)
CSO_SERVE_SNAPDIR="$SERVE/snaps" CSO_METRICS="expo:$SERVE/fleet.prom" \
    cargo run -q --release --offline -p cso-serve -- \
    --bench --sessions 64 --out "$SERVE/BENCH_serve.json"
grep -q '"completed": 64' "$SERVE/BENCH_serve.json"
grep -q '"failed": 0' "$SERVE/BENCH_serve.json"
grep -q '"step_p99_ms"' "$SERVE/BENCH_serve.json"
grep -q '^cso_serve_steps_total ' "$SERVE/fleet.prom"
grep -q '^cso_serve_sessions_done 64$' "$SERVE/fleet.prom"
rm -rf "$SERVE"

# Bench smoke: the harness that backs the micro-benchmarks must still
# build, run a group end to end and emit parseable CSV rows with positive
# medians, even on a toolchain without clippy (which otherwise builds the
# bench targets).
echo "==> cargo bench micro sketch/ (smoke)"
BENCHDIR=$(mktemp -d)
CSO_BENCH_CSV="$BENCHDIR" cargo bench -q --offline -p cso-bench --bench micro -- sketch/
awk -F, '
    NR == 1 { if ($0 != "group,benchmark,median_ns,mad_ns,siqr_ns,samples") exit 1; next }
    $1 == "sketch" { rows++; if ($3 + 0 <= 0) exit 1 }
    END { exit (rows == 2 ? 0 : 1) }
' "$BENCHDIR/bench.csv"
rm -rf "$BENCHDIR"

# Ledger smoke: every workload, untraced and traced, on a shortened run.
# The runner exits nonzero when any correctness check fails; the result
# lines it collects in ledger/out/ledger.json must all read
# "correct": true. The ledger refuses to run with any CSO_* variable set,
# so the flag that shortens this script is dropped from its environment.
echo "==> ledger --all --smoke"
env -u CSO_CI_FAST cargo run --release --offline --quiet --manifest-path ledger/Cargo.toml -- \
    --all --smoke
grep -q '"correct": true' ledger/out/ledger.json
if grep -q '"correct": false' ledger/out/ledger.json; then
    echo "ledger smoke reported an incorrect workload" >&2
    exit 1
fi

# Work-counter gate: the smoke run's deterministic per-layer counters
# (fixed seeds, so noise-free) must equal the committed golden, one
# `workload metric value` line each. A change that moves solver work,
# iterations, preference edges or snapshot size fails here until the
# golden is regenerated with this command and the change explained.
echo "==> ledger smoke work counters vs results/ledger_counters.txt"
awk -v list="solver.queries solver.boxes solver.pruned solver.samples engine.iterations \
tape.slots cache.memo_hits prefgraph.edges snapshot.bytes" '
    BEGIN { n = split(list, m, " ") }
    match($0, /"name": "[^"]*"/) {
        workload = substr($0, RSTART + 9, RLENGTH - 10)
        for (i = 1; i <= n; i++) {
            key = "\"" m[i] "\": {\"value\": "
            p = index($0, key)
            if (!p) {
                print workload, m[i], "missing"
                continue
            }
            rest = substr($0, p + length(key))
            print workload, m[i], substr(rest, 1, match(rest, /[,}]/) - 1)
        }
    }
' ledger/out/ledger.json | diff results/ledger_counters.txt -

echo "CI green."
