#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, docs, tests.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --quiet

echo "==> cargo test"
# Includes the e26 resilience snapshot gate (serial == parallel rendered
# text) and the fault_props + parallel_props proptest suites in csn-distsim
# (jobs-invariance of the deterministic wave-merged stepper).
cargo test --workspace --offline -q

echo "==> cargo test -p csn-distsim --release (misroute validation without debug asserts)"
cargo test -p csn-distsim --release --offline -q

echo "==> cargo test -p csn-bench --release --test gates (the fixed-size correctness tests in a release build)"
cargo test -p csn-bench --release --offline -q --test gates

echo "==> experiments capture (serial stdout == committed experiments_output.txt; --jobs 2 stdout == serial)"
for jobs in 1 2; do
  cargo run -p csn-bench --release --offline --quiet --bin experiments -- --jobs "$jobs" \
    > "target/experiments_jobs${jobs}_check.txt" 2> target/experiments_check.log || {
    echo "FAIL: experiments --jobs $jobs exited non-zero (stderr in target/experiments_check.log)" >&2
    exit 1
  }
done
if ! diff -u experiments_output.txt target/experiments_jobs1_check.txt; then
  echo "FAIL: serial experiments stdout differs from the committed experiments_output.txt" >&2
  echo "      regenerate with: cargo run -p csn-bench --release --bin experiments -- --jobs 1 > experiments_output.txt 2>/dev/null" >&2
  exit 1
fi
if ! diff -u target/experiments_jobs1_check.txt target/experiments_jobs2_check.txt; then
  echo "FAIL: experiments --jobs 2 stdout differs from the serial run" >&2
  exit 1
fi

echo "==> BENCH_*.json schema tag (every committed artifact carries the tag crates/bench/src/rows.rs writes)"
schema=$(grep -oE 'structura-bench-rows-v[0-9]+' crates/bench/src/rows.rs | head -n1)
for artifact in BENCH_*.json; do
  if ! grep -q "\"schema\": \"$schema\"" "$artifact"; then
    echo "FAIL: $artifact does not carry the schema tag $schema; regenerate it with perf_smoke (EXPERIMENTS.md, Captured artifacts)" >&2
    exit 1
  fi
done

# Every perf_smoke tier reruns at its check size. Each fresh row, wall time
# aside, must be a row of the committed artifact: the same tier, stage and
# params, and identical counters. Committed rows that no check size
# produces (the larger default sizes) are not compared. perf_smoke gets
# /dev/null as stdin so nothing in the loop body can read the tier list.
rows() { sed -n 's/^ *\({"tier":.*\),"wall_secs":.*$/\1/p' "$1" | LC_ALL=C sort; }
while read -r tier args; do
  echo "==> perf_smoke ${args:-(default tier)}: every counter equals the committed BENCH_$tier.json"
  cargo run -p csn-bench --release --offline --quiet --bin perf_smoke -- $args \
    --out "target/BENCH_${tier}_check.json" </dev/null
  fresh=$(rows "target/BENCH_${tier}_check.json")
  missing=$(LC_ALL=C comm -23 <(echo "$fresh") <(rows "BENCH_$tier.json"))
  if [ -n "$missing" ]; then
    echo "FAIL: fresh rows with no equal row in BENCH_$tier.json (a counter differs, or the row is missing):" >&2
    echo "$missing" >&2
    echo "      if the change is intended, regenerate with: cargo run -p csn-bench --release --bin perf_smoke${args:+ -- ${args%% *}}" >&2
    exit 1
  fi
  counters=$(grep -oE '"counters":\{[^}]*\}' <<<"$fresh" | grep -oE ':[0-9]+' | wc -l || true)
  echo "    compared $(grep -c . <<<"$fresh" || true) rows, $counters counters"
  if [ "$counters" -eq 0 ]; then
    echo "FAIL: the $tier tier compared no counter" >&2
    exit 1
  fi
done <<'CHECK_SIZES'
kernels
scale --scale --scale-nodes 20000
distsim --distsim --distsim-nodes 10000
scenario --scenario --scenario-nodes 220 --scenario-pubsub-nodes 3000
CHECK_SIZES

echo "==> benchmark package (its own fmt, clippy, tests and a smoke run of all five workloads, built against the library API)"
bash benchmark/check.sh

echo "OK: fmt, clippy, doc, test, release gates, experiments capture, BENCH schema tags, every perf_smoke counter at check size, benchmark all clean"
