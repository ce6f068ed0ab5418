#!/usr/bin/env bash
# Writes every deterministic experiment artifact into OUT_DIR, so that
# `diff -r` of two OUT_DIRs compares two commits byte for byte:
#
#   scripts/experiment_reports.sh /tmp/reports_a   # on commit A
#   scripts/experiment_reports.sh /tmp/reports_b   # on commit B
#   diff -r /tmp/reports_a /tmp/reports_b
#
# Captured: the stdout of fig1-fig3, e4-e6, e11-e14 and ablation_dse; the
# e13 --dump flight dump; the e14/e15/e16 --out reports; the e16
# --telemetry rings.
#
# Left out on purpose: e7-e10, whose tables carry wall-clock columns, and
# the stdout of e15/e16, whose only varying line is the `# wall-clock`
# throughput comment. Two runs of the same commit on the same host differ
# there, so those bytes cannot tell commits apart.
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: $0 OUT_DIR" >&2
  exit 2
fi
mkdir -p "$1"
out="$(cd "$1" && pwd)"
cd "$(dirname "$0")/.."

cargo build --release -q -p dynplat-bench --bin dynplat-bench
bin="$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)"

# Relative output paths: e13/e14 echo them to stdout, and the captures must
# not depend on where OUT_DIR lives.
cd "$out"
for exp in fig1_consolidation fig2_interference fig3_paradigms \
  e4_hw_access e5_update_safety e6_failover e11_xil e12_chaos \
  ablation_dse; do
  "$bin/dynplat-bench" "$exp" >"$exp.txt"
done

"$bin/dynplat-bench" e13_detection_latency --dump e13_flight.json >e13_detection_latency.txt
"$bin/dynplat-bench" e14_uncertainty_adaptation --out e14.json >e14_uncertainty_adaptation.txt
"$bin/dynplat-bench" e15_fleet_campaign --out e15.json >/dev/null
mkdir -p e16_telemetry
"$bin/dynplat-bench" e16_slo_telemetry --out e16.json --telemetry e16_telemetry >/dev/null
