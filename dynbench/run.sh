#!/usr/bin/env bash
# Builds the benchmark from source (offline, release profile) and runs it.
# Run from the repository root; every argument is passed to the binary:
#
#   bash dynbench/run.sh --workload adas_cycle --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path dynbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/dynbench" "$@"
