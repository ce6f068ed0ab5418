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

echo "==> schedule-exploration model checker (SPSC ring + stripe flush)"
cargo test -q -p dynplat-analysis --test model_check

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo test --doc"
cargo test -q --doc --workspace

echo "==> SPSC ring property suite (wrap-around, spill, cross-thread)"
cargo test -q --test properties5

echo "==> perf smoke gate (bench vs BENCH_baseline.json, alloc gate armed)"
# Single-threaded, so the counting allocator is armed: any heap allocation
# in a steady-state deliver or dispatch loop fails this step, not just a
# perf drop.
cargo run --release -p dynplat-bench -- bench \
  --quick --out BENCH_snapshot.json --check BENCH_baseline.json >/dev/null

echo "==> e13 detection-latency smoke (tiny horizon)"
cargo run --release -p dynplat-bench -- e13_detection_latency \
  --horizon-ms 3000 --dump FLIGHT_e13.json >/dev/null

echo "==> e14 uncertainty-adaptation smoke (tiny horizon, determinism-checked)"
cargo run --release -p dynplat-bench -- e14_uncertainty_adaptation \
  --horizon-ms 3000 --out E14_sweep.json >/dev/null
cargo run --release -p dynplat-bench -- e14_uncertainty_adaptation \
  --horizon-ms 3000 --out "$SMOKE_TMP/E14_sweep_rerun.json" >/dev/null
cmp E14_sweep.json "$SMOKE_TMP/E14_sweep_rerun.json"

echo "==> e15 fleet-campaign smoke (100k vehicles, shard-invariance-checked)"
# The rerun flips the shard count: one cmp pins both rerun determinism and
# the merge's independence from sharding.
cargo run --release -p dynplat-bench -- e15_fleet_campaign \
  --vehicles 100000 --shards 4 --out E15_campaign.json >/dev/null
cargo run --release -p dynplat-bench -- e15_fleet_campaign \
  --vehicles 100000 --shards 1 --out "$SMOKE_TMP/E15_campaign_rerun.json" >/dev/null
cmp E15_campaign.json "$SMOKE_TMP/E15_campaign_rerun.json"

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
for f in "$SMOKE_TMP"/tel_a/TELEMETRY_*.json; do
  cmp "$f" "$SMOKE_TMP/tel_b/$(basename "$f")"
done
# Keep the merged per-arm telemetry next to the report for the failure
# artifact upload.
cp "$SMOKE_TMP"/tel_a/TELEMETRY_*.json .

echo "==> ci.sh: all green"
