#!/usr/bin/env bash
# Wall-clock perf-regression gate.
#
# `bench` re-times every row of the checked-in BENCH_layers.json (the
# functional interpreters, exec-stream build, partitioner and timing
# loops over the 18-kernel suite), each sample paired with a sweep of
# the frozen reference interpreter in the same process. It fails when
# any row's normalized throughput (row MIPS / reference MIPS) falls
# below 0.5 x its recorded value. The normalization cancels host speed
# and load, so the same rule holds on a laptop and a shared CI runner.
# The schema check first holds the recorded threaded-interpreter norm
# (its speedup over the reference) to the 10x floor.
#
# NOTE: a plain `cargo build --release` at the workspace root does NOT
# rebuild the bench crate (it is a workspace member, not a root
# dependency) — the `-p fgstp-bench` below is required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== perf gate: building bench (release)"
cargo build --release -q -p fgstp-bench --bin bench

echo "== perf gate: schema check on BENCH_layers.json"
./target/release/bench --schema-check=BENCH_layers.json

echo "== perf gate: re-measuring every row (iters=3)"
./target/release/bench --check=BENCH_layers.json --iters=3

echo "== perf gate OK"
