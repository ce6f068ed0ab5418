#!/usr/bin/env bash
# Writes every experiment report into OUT_DIR: the stdout of each
# scenario, the e13 --dump flight dump, the e14/e15/e16 --out reports and
# the e16 --telemetry rings. Every one of them is pure in its seed, so two
# runs of one commit `diff -r` empty, and `scripts/ci.sh` pins the whole
# directory against scripts/reference/reports/. To compare two commits:
#
#   scripts/experiment_reports.sh /tmp/reports_a   # on commit A
#   scripts/experiment_reports.sh /tmp/reports_b   # on commit B
#   diff -r /tmp/reports_a /tmp/reports_b
#
# The scenario list comes from the binary's usage. A scenario that is
# neither captured nor excluded below fails the script, so a new
# experiment cannot go unpinned.
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: $0 OUT_DIR" >&2
  exit 2
fi
mkdir -p "$1"
out="$(cd "$1" && pwd)"
cd "$(dirname "$0")/.."

cargo build --release -q -p dynplat-bench --bin dynplat-bench
bin="$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)/dynplat-bench"

# With no arguments the binary prints its usage, one scenario a line, and
# exits 2.
scenarios="$("$bin" 2>&1 | sed -n 's/^  \([a-z0-9_]*\).*/\1/p' || true)"
test -n "$scenarios"

# Relative output paths: e13-e16 echo them to stdout, and the captures must
# not depend on where OUT_DIR lives.
cd "$out"
for exp in $scenarios; do
  case "$exp" in
    fig1_consolidation | fig2_interference | fig3_paradigms | e4_hw_access | \
      e5_update_safety | e6_failover | e7_monitoring | e8_package_security | \
      e9_authorization | e10_dse_admission | e11_xil | e12_chaos | ablation_dse)
      "$bin" "$exp" >"$exp.txt"
      ;;
    e13_detection_latency) "$bin" "$exp" --dump e13_flight.json >"$exp.txt" ;;
    e14_uncertainty_adaptation) "$bin" "$exp" --out e14.json >"$exp.txt" ;;
    e15_fleet_campaign) "$bin" "$exp" --out e15.json >"$exp.txt" ;;
    e16_slo_telemetry)
      mkdir -p e16_telemetry
      "$bin" "$exp" --out e16.json --telemetry e16_telemetry >"$exp.txt"
      ;;
    # Wall-clock timings: they vary run to run, so they are never pinned.
    bench | micro) ;;
    *)
      echo "$0: dynplat-bench lists $exp, which is neither captured nor excluded" >&2
      exit 1
      ;;
  esac
done
