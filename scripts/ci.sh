#!/usr/bin/env bash
# The full offline gate: everything here runs without network access.
set -euo pipefail
cd "$(dirname "$0")/.."

# Scratch space for the rerun checks: cleaned up even when a cmp fails, so
# a broken gate never leaves rerun litter in the tree.
SMOKE_TMP="$(mktemp -d)"
trap 'rm -rf "$SMOKE_TMP"' EXIT

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> dynplat-analysis --workspace (invariant lint, allowlist-gated)"
# The zero-dep workspace linter: forbid(unsafe_code) everywhere, no
# unwrap/panic in lib code, no wall clocks or hash collections in
# determinism-critical crates, every Ordering::Relaxed justified. Writes
# the machine-readable findings report that CI uploads on failure.
cargo run --release -q -p dynplat-analysis -- \
  --workspace --report ANALYSIS_findings.json

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo test --doc"
cargo test -q --doc --workspace

echo "==> examples (every examples/*.rs runs to completion)"
# Tier-1 compiles the examples but never runs them; an example that panics
# on its own asserts fails here.
for example in examples/*.rs; do
  cargo run --release -q --example "$(basename "$example" .rs)" >/dev/null
done

echo "==> experiment reports (diff -r against the pinned bytes)"
# Every scenario but bench and micro is pure in its seed, so one diff pins
# all their stdout, the e13 flight dump, the e14-e16 reports and the e16
# telemetry rings. A change meant to move a report re-pins
# scripts/reference/reports/ and says so. The diff is kept next to the
# reports for the failure upload: it names the report that moved.
rm -rf .gate_out
reports=.gate_out/reports
scripts/experiment_reports.sh "$reports"
diff -r scripts/reference/reports "$reports" | tee .gate_out/reports.diff

echo "==> e14 rerun and e15/e16 shard-flip reruns (cmp against the captured reports)"
# What a pin cannot show: a rerun reproduces the sweep, and the fleet
# reports and merged telemetry do not depend on the shard count (the
# capture runs the default 4 shards, these reruns 1).
cargo run --release -q -p dynplat-bench -- e14_uncertainty_adaptation \
  --out "$SMOKE_TMP/e14.json" >/dev/null
cmp "$reports/e14.json" "$SMOKE_TMP/e14.json"
cargo run --release -q -p dynplat-bench -- e15_fleet_campaign \
  --shards 1 --out "$SMOKE_TMP/e15.json" >/dev/null
cmp "$reports/e15.json" "$SMOKE_TMP/e15.json"
cargo run --release -q -p dynplat-bench -- e16_slo_telemetry \
  --shards 1 --out "$SMOKE_TMP/e16.json" --telemetry "$SMOKE_TMP/e16_telemetry" >/dev/null
cmp "$reports/e16.json" "$SMOKE_TMP/e16.json"
diff -r "$reports/e16_telemetry" "$SMOKE_TMP/e16_telemetry"

echo "==> dynbench seed-1 digests (every workload vs dynbench/reference/)"
# A digest that differs from its reference only counts the unit as
# failed; the binary still exits 0, so the gate reads the result line.
# Timing is not gated here: the CI host is too noisy for it.
dynbench_result="$(bash dynbench/run.sh --workload all --seed 1 --seconds 1 --trace 0 | tail -n 1)"
case "$dynbench_result" in
  *'"correct":true'*'"failed":0,'*) ;;
  *)
    echo "dynbench: a digest or an invariant failed: ${dynbench_result:0:300}" >&2
    exit 1
    ;;
esac

echo "==> perf smoke gate (bench vs BENCH_baseline.json, alloc gate armed)"
# Single-threaded, so the counting allocator is armed: any heap allocation
# in a steady-state deliver, TSN stream or dispatch loop fails this step,
# not just a perf drop. It runs after the report pins so that a perf trip
# on a noisy host still leaves them checked.
cargo run --release -p dynplat-bench -- bench \
  --quick --out BENCH_snapshot.json --check BENCH_baseline.json >/dev/null

echo "==> ci.sh: all green"
