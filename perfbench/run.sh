#!/usr/bin/env bash
# Builds the fgstpd daemon and the benchmark from source, then runs the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). The last
# line of standard output is the result as one JSON object; progress and
# a readable report go to standard error. See perfbench/README.md.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p fgstp-service --bin fgstpd
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" --fgstpd "$CARGO_TARGET_DIR/release/fgstpd" "$@"
