#!/usr/bin/env bash
# CI gate for the SQLancer++ reproduction workspace.
#
#   ./ci.sh          # full gate: fmt, clippy, release build, tests, smoke,
#                    # bench-shape validation, perf-regression gate
#
# Every step must pass; the script stops at the first failure. The perf
# gate compares the smoke run's speedup ratios against the floors committed
# in BENCH_campaign.json (ci_floors), so a change that silently loses the
# AST fast path or the compiled evaluator fails CI.

set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> perfbench tests"
# The benchmark harness is its own package (outside the workspace) that
# drives the core campaign API; testing it here makes an API change that
# breaks the benchmark fail CI rather than the benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> smoke campaign (~20s)"
# A quick fixed-seed fleet campaign through the throughput harness; writes
# to a scratch path so the committed BENCH_campaign.json is not clobbered.
# The binary validates the JSON it wrote and exits non-zero on malformed or
# partial output — set -e makes either failure fatal here. 100 queries/db
# is the smallest budget whose speedup ratios are stable enough to gate on
# (40 was observed within noise of the compiled-evaluator floor).
SMOKE_JSON=/tmp/ci_smoke_bench.json
./target/release/campaign_throughput 100 "$SMOKE_JSON"
./target/release/campaign_throughput --validate "$SMOKE_JSON"

echo "==> within-dialect partitioned runner"
# Times one dialect's database-sharded campaign on one worker against all
# available workers (median of interleaved pairs) and fails if sharding
# makes it more than 10% slower. The binary probes available_parallelism()
# itself, so the bound only arms on multi-CPU machines. That the merged
# report and learned profiles are byte-identical for any worker count is
# held by the runner test partitioned_run_is_identical_for_any_thread_count.
./target/release/campaign_throughput --partitioned-check mariadb

echo "==> fault-storm robustness gate"
# Arms every injected infrastructure fault (crash, hang, drop, garbled
# result) on a backend and runs a supervised campaign. The binary asserts:
# the campaign completes without aborting or quarantining, every infra_*
# fault kind is observed with clean ground-truth bisection (disarming a
# kind removes exactly its incidents), and zero infrastructure faults
# surface as logic-bug reports. Kill-and-resume identity under the storm
# (serial and sharded) is held by tests/resume_determinism.rs.
./target/release/campaign_throughput --fault-storm-check sqlite

echo "==> observability (trace) gate"
# Attaches the full tracing stack (deterministic summary, flight recorder,
# JSONL dump) to a supervised campaign and asserts the traced run keeps
# the committed fraction of the untraced throughput (median of nine
# interleaved pairs) with a byte-identical report: tracing observes, never
# perturbs. Merged-summary identity under the storm and the pinned-history
# and JSONL checks are held by tests/trace_determinism.rs.
./target/release/campaign_throughput --trace-check dolt

echo "==> coverage-atlas gate"
# Asserts that coverage-directed scheduling reaches at least the uniform
# scheduler's distinct-feature coverage at the same case budget; that the
# atlas accounting keeps the committed fraction of an accounting-free
# baseline's throughput (median of nine interleaved pairs) with a
# byte-identical report; and that the atlas line flushed through the
# flight-recorder JSONL path is well-formed and matches the final report's
# atlas exactly. Atlas identity for any worker count, pool size and path
# under the storm is held by tests/coverage_determinism.rs.
./target/release/campaign_throughput --coverage-check dolt

echo "==> self-healing connection-layer (flaky-backend) gate"
# Runs a supervised pooled campaign against a backend that lies about
# transaction support, crashes during capability probes and flaps after
# respawns. The binary asserts: the driver is probed and downgraded, the
# campaign completes without degrading, zero faults surface as
# logic-bug reports, every breaker trip and recovery is in the incident
# ledger, and the flaky campaign keeps the committed fraction of the
# healthy pooled campaign's throughput. Report identity across paths,
# workers and pool sizes while breakers trip and recover is held by
# tests/resume_determinism.rs.
./target/release/campaign_throughput --flaky-check sqlite

echo "==> subprocess-sqlite wire-backend gate"
# Runs a full mixed-oracle campaign (TLP, NoREC, rollback) against the
# system sqlite3 binary over the subprocess driver through a size-2 pool
# and asserts it completes cleanly with zero bug reports (real sqlite is
# self-consistent, so any divergence is a false positive in our stack).
# The binary prints a SKIPPED notice and exits 0 when no working sqlite3
# is on PATH, so the gate degrades visibly rather than failing CI.
./target/release/campaign_throughput --sqlite-check

echo "==> perf-regression gate"
# Extract a numeric value for "key" from a JSON file (first occurrence).
json_number() {
  sed -n "s/.*\"$2\": *\([0-9][0-9.eE+-]*\).*/\1/p" "$1" | head -n 1
}
gate() { # gate <name> <actual> <floor>
  local name=$1 actual=$2 floor=$3
  if [ -z "$actual" ] || [ -z "$floor" ]; then
    echo "FAIL: could not extract $name (actual='$actual', floor='$floor')" >&2
    exit 1
  fi
  if ! awk -v a="$actual" -v f="$floor" 'BEGIN { exit !(a >= f) }'; then
    echo "FAIL: $name regressed: $actual < floor $floor" >&2
    exit 1
  fi
  echo "    $name: $actual >= $floor"
}
floor_ast=$(json_number BENCH_campaign.json min_speedup_ast_over_text)
floor_compiled=$(json_number BENCH_campaign.json min_speedup_compiled_over_tree)
floor_txn=$(json_number BENCH_campaign.json min_txn_throughput_ratio)
floor_iso=$(json_number BENCH_campaign.json min_isolation_throughput_ratio)
floor_traced=$(json_number BENCH_campaign.json min_traced_throughput_ratio)
floor_coverage=$(json_number BENCH_campaign.json min_coverage_throughput_ratio)
floor_probed=$(json_number BENCH_campaign.json min_probed_throughput_ratio)
actual_ast=$(json_number "$SMOKE_JSON" speedup_ast_over_text)
actual_compiled=$(json_number "$SMOKE_JSON" speedup_compiled_over_tree)
actual_txn=$(json_number "$SMOKE_JSON" txn_throughput_ratio)
actual_iso=$(json_number "$SMOKE_JSON" isolation_throughput_ratio)
actual_traced=$(json_number "$SMOKE_JSON" traced_throughput_ratio)
actual_coverage=$(json_number "$SMOKE_JSON" coverage_throughput_ratio)
actual_probed=$(json_number "$SMOKE_JSON" probed_throughput_ratio)
gate speedup_ast_over_text "$actual_ast" "$floor_ast"
gate speedup_compiled_over_tree "$actual_compiled" "$floor_compiled"
gate txn_throughput_ratio "$actual_txn" "$floor_txn"
gate isolation_throughput_ratio "$actual_iso" "$floor_iso"
gate traced_throughput_ratio "$actual_traced" "$floor_traced"
gate coverage_throughput_ratio "$actual_coverage" "$floor_coverage"
gate probed_throughput_ratio "$actual_probed" "$floor_probed"

echo "CI OK"
