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

# Schema freshness: each committed artifact has to carry the schema version
# its writer source currently writes. Columns: artifact, writer source,
# perf_smoke flag that regenerates it.
checked=" "
while read -r artifact writer flag; do
  echo "==> $artifact schema freshness"
  checked+="$artifact "
  name=${artifact#BENCH_}
  schema="structura-bench-${name%.json}-v[0-9]+"
  want=$(grep -oE "$schema" "$writer" | head -n1)
  have=$(grep -oE "$schema" "$artifact" | head -n1 || true)
  if [ "$want" != "$have" ]; then
    echo "FAIL: $artifact is stale (has '${have:-missing}', $(basename "$writer" .rs) writes '$want')" >&2
    echo "      regenerate with: cargo run -p csn-bench --release --bin perf_smoke${flag:+ -- $flag}" >&2
    exit 1
  fi
done <<'ARTIFACTS'
BENCH_kernels.json crates/bench/src/kernels_bench.rs
BENCH_scale.json crates/bench/src/bin/perf_smoke.rs --scale
BENCH_distsim.json crates/bench/src/distsim_bench.rs --distsim
BENCH_scenario.json crates/bench/src/scenario_bench.rs --scenario
ARTIFACTS

echo "==> every committed BENCH_*.json has a schema freshness row"
for artifact in BENCH_*.json; do
  if [[ "$checked" != *" $artifact "* ]]; then
    echo "FAIL: $artifact is not in the schema freshness list above; add its writer row or delete it" >&2
    exit 1
  fi
done

echo "==> perf smoke (kernel timings, landmark arc counts and counted-touch maintain rows; the arc and touch counts must equal the committed BENCH_kernels.json)"
cargo run -p csn-bench --release --offline --quiet --bin perf_smoke -- \
  --out target/BENCH_kernels_check.json
touches() { grep -E '"(arcs_scanned|per_landmark_arcs|structure|rebuild_node_touches|incremental_node_touches)"' "$1"; }
if ! diff -u <(touches BENCH_kernels.json) <(touches target/BENCH_kernels_check.json); then
  echo "FAIL: landmark arc or maintain touch counts differ from the committed BENCH_kernels.json" >&2
  echo "      if the change is intended, regenerate with: cargo run -p csn-bench --release --bin perf_smoke" >&2
  exit 1
fi

echo "==> scale smoke (small-n rows: streamed generators, frozen-form memory, sampled kernels)"
cargo run -p csn-bench --release --offline --quiet --bin perf_smoke -- \
  --scale --scale-nodes 20000 --out target/BENCH_scale_check.json

echo "==> distsim smoke (the 10^4-node rows: flood, Bellman-Ford, MIS and CDS marking; their exact counts and one-worker heap bytes must equal the committed BENCH_distsim.json's first four rows)"
cargo run -p csn-bench --release --offline --quiet --bin perf_smoke -- \
  --distsim --distsim-nodes 10000 --out target/BENCH_distsim_check.json
# Four rows of seven exact fields each; the rows run on one worker, so
# sim_heap_bytes repeats exactly and a memory change shows as a diff.
distsim_counts() { grep -E '"(protocol|nodes|edges|rounds|messages|converged|sim_heap_bytes)":' "$1" | head -n 28; }
if ! diff -u <(distsim_counts BENCH_distsim.json) <(distsim_counts target/BENCH_distsim_check.json); then
  echo "FAIL: distsim exact counts differ from the committed BENCH_distsim.json's 10^4-node rows" >&2
  echo "      if the change is intended, regenerate with: cargo run -p csn-bench --release --bin perf_smoke -- --distsim" >&2
  exit 1
fi

echo "==> scenario smoke (small-n rows: city trace, DTN ladder, TOUR, tracking, pub-sub and hypercube under faults)"
cargo run -p csn-bench --release --offline --quiet --bin perf_smoke -- \
  --scenario --scenario-nodes 220 --scenario-pubsub-nodes 3000 \
  --out target/BENCH_scenario_check.json

echo "==> benchmark package (its own fmt, clippy, tests and a smoke run of all five workloads, built against the library API)"
bash benchmark/check.sh

echo "OK: fmt, clippy, doc, test, release gates, experiments capture, perf smoke + arc and touch counts, scale smoke, distsim smoke + exact counts, scenario smoke, benchmark all clean"
