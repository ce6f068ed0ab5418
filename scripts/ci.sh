#!/usr/bin/env bash
# The full offline gate: everything here runs without network access.
set -euo pipefail
cd "$(dirname "$0")/.."

# Scratch space for rerun/determinism checks: cleaned up even when a cmp
# fails, so a broken gate never leaves *_rerun.json litter in the tree.
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

echo "==> fig2 interference report (cmp against the pinned bytes)"
# E2's table carries no wall-clock column, so its bytes pin the scheduler
# simulator's outputs under all four policies end to end.
cargo run --release -q -p dynplat-bench -- fig2_interference \
  >"$SMOKE_TMP/fig2_interference.txt"
cmp "$SMOKE_TMP/fig2_interference.txt" scripts/reference/fig2_interference.txt

echo "==> e3/e4 network, e5 update-safety and e12 chaos reports (cmp against the pinned bytes)"
# All four tables are seed-pure end to end: fig3 and e4 pin the media
# arbiters (the TSN gated port among them) under the three paradigms and
# under bulk load, e5 the staged/stop-restart phase costs and the fleet
# update gate, e12 the campaign constants, the degradation ladder and the
# drift detector.
for exp in fig3_paradigms e4_hw_access e5_update_safety e12_chaos; do
  cargo run --release -q -p dynplat-bench -- "$exp" >"$SMOKE_TMP/$exp.txt"
  cmp "$SMOKE_TMP/$exp.txt" "scripts/reference/$exp.txt"
done

echo "==> e13 detection-latency smoke (tiny horizon)"
cargo run --release -p dynplat-bench -- e13_detection_latency \
  --horizon-ms 3000 --dump FLIGHT_e13.json >/dev/null
cmp FLIGHT_e13.json scripts/reference/FLIGHT_e13.json

echo "==> e14 uncertainty-adaptation smoke (tiny horizon, determinism-checked)"
cargo run --release -p dynplat-bench -- e14_uncertainty_adaptation \
  --horizon-ms 3000 --out E14_sweep.json >/dev/null
cargo run --release -p dynplat-bench -- e14_uncertainty_adaptation \
  --horizon-ms 3000 --out "$SMOKE_TMP/E14_sweep_rerun.json" >/dev/null
cmp E14_sweep.json "$SMOKE_TMP/E14_sweep_rerun.json"
# The sweep replays the E12 pressures through the threshold ladder and
# the boundary estimator; its bytes pin both.
cmp E14_sweep.json scripts/reference/E14_sweep.json

echo "==> e15 fleet-campaign smoke (100k vehicles, shard-invariance-checked)"
# The rerun flips the shard count: one cmp pins both rerun determinism and
# the merge's independence from sharding.
cargo run --release -p dynplat-bench -- e15_fleet_campaign \
  --vehicles 100000 --shards 4 --out E15_campaign.json >/dev/null
cargo run --release -p dynplat-bench -- e15_fleet_campaign \
  --vehicles 100000 --shards 1 --out "$SMOKE_TMP/E15_campaign_rerun.json" >/dev/null
cmp E15_campaign.json "$SMOKE_TMP/E15_campaign_rerun.json"
# And both equal the pinned bytes: a change to simulated outputs fails
# here instead of passing as "rerun equals run". A change meant to alter
# them re-pins the reference and says so.
cmp E15_campaign.json scripts/reference/E15_campaign.json

echo "==> e16 slo-telemetry smoke (8k vehicles, shard-flipped telemetry cmp)"
# The rerun flips the shard count; cmp-ing both the e16 report and every
# merged TELEMETRY_<arm>.json pins determinism *and* the sketch/ring
# merge's shard-invariance in one check.
mkdir -p "$SMOKE_TMP/tel_a" "$SMOKE_TMP/tel_b"
cargo run --release -p dynplat-bench -- e16_slo_telemetry \
  --vehicles 8000 --shards 4 --out E16_slo.json \
  --telemetry "$SMOKE_TMP/tel_a" >/dev/null
cargo run --release -p dynplat-bench -- e16_slo_telemetry \
  --vehicles 8000 --shards 1 --out "$SMOKE_TMP/E16_slo_rerun.json" \
  --telemetry "$SMOKE_TMP/tel_b" >/dev/null
cmp E16_slo.json "$SMOKE_TMP/E16_slo_rerun.json"
cmp E16_slo.json scripts/reference/E16_slo.json
for f in "$SMOKE_TMP"/tel_a/TELEMETRY_*.json; do
  cmp "$f" "$SMOKE_TMP/tel_b/$(basename "$f")"
  cmp "$f" "scripts/reference/$(basename "$f")"
done
# Every pinned arm was regenerated (a vanished arm would skip its cmp).
for f in scripts/reference/TELEMETRY_*.json; do
  test -e "$SMOKE_TMP/tel_a/$(basename "$f")"
done
# Keep the merged per-arm telemetry next to the report for the failure
# artifact upload.
cp "$SMOKE_TMP"/tel_a/TELEMETRY_*.json .

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
# not just a perf drop. It runs after the e13-e16 smokes so that a perf
# trip on a noisy host still leaves their determinism cmps checked.
cargo run --release -p dynplat-bench -- bench \
  --quick --out BENCH_snapshot.json --check BENCH_baseline.json >/dev/null

echo "==> ci.sh: all green"
