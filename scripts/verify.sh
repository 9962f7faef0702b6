#!/usr/bin/env bash
# Full offline verification: format, lint, build, test.
# Everything runs against the local toolchain — no network required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (broken links / missing docs are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== workspace tests (every crate's unit and integration tests)"
cargo test -q --workspace

echo "== telemetry invariants (cycle accounting reconciles exactly)"
cargo test -q --test telemetry

echo "== sampled-simulation smoke (E14 at test scale)"
cargo run --release -q -p fgstp-bench --bin exp_e14_sampling -- test --no-cache

echo "== live-points smoke (E18: parallel windows match the serial walk)"
# The binary asserts internally that the serial walk and the parallel
# windows project identical figures; pin the printed verdict too.
cargo build --release -q -p fgstp-bench --bin exp_e18_livepoints
./target/release/exp_e18_livepoints test > target/e18_smoke.txt
grep -q "figures identical: yes" target/e18_smoke.txt || {
  echo "E18 serial and parallel phases disagree:"
  cat target/e18_smoke.txt
  exit 1
}

echo "== batch-service smoke (fgstpd round trip matches recorded E1 row)"
cargo build --release -q -p fgstp-service
rm -f target/fgstpd_smoke_port
./target/release/fgstpd --listen=127.0.0.1:0 --workers=2 \
  --port-file=target/fgstpd_smoke_port &
FGSTPD_PID=$!
for _ in $(seq 1 100); do
  [ -s target/fgstpd_smoke_port ] && break
  sleep 0.1
done
FGSTPD_ADDR="127.0.0.1:$(cat target/fgstpd_smoke_port)"
./target/release/fgstp submit "--addr=$FGSTPD_ADDR" small \
  --workloads=perl_hash --machines=small-cmp --wait --csv \
  > target/fgstpd_smoke.csv
# Same daemon, co-run spec: two programs on disjoint cores of one
# machine must come back as one row per program, and resubmitting the
# identical spec must dedup to byte-identical rows (co-runs are one
# deterministic job).
./target/release/fgstp submit "--addr=$FGSTPD_ADDR" test \
  --machines=fgstp-small --corun=perl_hash:2,mcf_pointer:2 --wait --csv \
  > target/fgstpd_corun.csv
./target/release/fgstp submit "--addr=$FGSTPD_ADDR" test \
  --machines=fgstp-small --corun=perl_hash:2,mcf_pointer:2 --wait --csv \
  > target/fgstpd_corun2.csv
cmp -s target/fgstpd_corun.csv target/fgstpd_corun2.csv || {
  echo "deduped co-run resubmission returned different rows:"
  diff target/fgstpd_corun.csv target/fgstpd_corun2.csv || true
  exit 1
}
awk -F, 'NR > 1 && $3 > 0 { rows++ } END { exit rows == 2 ? 0 : 1 }' \
  target/fgstpd_corun.csv || {
  echo "co-run job did not produce one row per program with cycles > 0:"
  cat target/fgstpd_corun.csv
  exit 1
}
# Same daemon, RV32-frontend workload: an rv:-prefixed spec must round
# trip through submit/wait exactly like a synthetic one, coming back as
# one comparison-triple row with real cycle counts.
./target/release/fgstp submit "--addr=$FGSTPD_ADDR" test \
  --workloads=rv:crc32 --machines=small-cmp --wait --csv \
  > target/fgstpd_rv.csv
awk -F, 'NR > 1 && $1 == "rv:crc32" && $2 > 0 && $3 > 0 { rows++ }
         END { exit rows == 1 ? 0 : 1 }' target/fgstpd_rv.csv || {
  echo "rv: workload did not round-trip through the daemon:"
  cat target/fgstpd_rv.csv
  exit 1
}
./target/release/fgstp shutdown "--addr=$FGSTPD_ADDR"
wait "$FGSTPD_PID"
# The daemon-served speedup row must reproduce the figures recorded in
# results/experiments_small.txt (first perl_hash row = E1).
expected=$(awk '$1 == "perl_hash" { print $1","$2","$3","$4","$5; exit }' \
  results/experiments_small.txt)
grep -qx "$expected" target/fgstpd_smoke.csv || {
  echo "daemon row does not match recorded E1 figures ($expected):"
  cat target/fgstpd_smoke.csv
  exit 1
}

echo "== co-run smoke (E16 at test scale, deterministic)"
# The binary itself asserts a rerun of one scenario is bit-identical;
# two full runs diffing clean pins the whole sweep, and the pressured
# table must show a real slowdown for the memory-bound foreground.
cargo build --release -q -p fgstp-bench --bin exp_e16_corun
./target/release/exp_e16_corun test \
  --workloads=perl_hash,mcf_pointer,libq_stream > target/e16_smoke_a.txt
./target/release/exp_e16_corun test \
  --workloads=perl_hash,mcf_pointer,libq_stream > target/e16_smoke_b.txt
cmp -s target/e16_smoke_a.txt target/e16_smoke_b.txt || {
  echo "E16 co-run sweep is not deterministic across reruns:"
  diff target/e16_smoke_a.txt target/e16_smoke_b.txt || true
  exit 1
}
awk '/capacity pressure/ { p = 1; next } /^====/ { p = 0 }
     p && $1 == "mcf_pointer" && $4 > 1.0 { found = 1 }
     END { exit found ? 0 : 1 }' target/e16_smoke_a.txt || {
  echo "E16 shows no co-run slowdown for mcf_pointer:"
  cat target/e16_smoke_a.txt
  exit 1
}

echo "== RV32-frontend smoke (E17 at test scale, deterministic)"
# The binary itself asserts an RV-fed Fg-STP rerun is bit-identical;
# two full runs diffing clean pin the sweep and the stream-mix table,
# and every RV program must show a real Fg-STP run (speedup > 0).
cargo build --release -q -p fgstp-bench --bin exp_e17_rv
./target/release/exp_e17_rv test > target/e17_smoke_a.txt
./target/release/exp_e17_rv test > target/e17_smoke_b.txt
cmp -s target/e17_smoke_a.txt target/e17_smoke_b.txt || {
  echo "E17 RV sweep is not deterministic across reruns:"
  diff target/e17_smoke_a.txt target/e17_smoke_b.txt || true
  exit 1
}
awk 'NF == 5 && $1 ~ /^rv:/ && $4 > 0 { rows++ }
     END { exit rows == 5 ? 0 : 1 }' target/e17_smoke_a.txt || {
  echo "E17 did not produce an Fg-STP figure for all 5 RV programs:"
  cat target/e17_smoke_a.txt
  exit 1
}

echo "== perf harness smoke + report schema check"
# A root `cargo build --release` does not rebuild the bench crate; the
# explicit -p is load-bearing. The measure run is itself a correctness
# smoke: it cross-checks the frozen reference and the threaded
# interpreter for identical final state on all 18 kernels before timing
# anything. Only the checked-in report is schema-checked: the schema
# check holds the threaded norm to its 10x floor, and a one-iteration
# norm can read under 10 on a noisy host.
cargo build --release -q -p fgstp-bench --bin bench
./target/release/bench --iters=1 --out=target/bench_smoke.json
./target/release/bench --schema-check=BENCH_layers.json

echo "== verify OK"
