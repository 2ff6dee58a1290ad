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

# Schema freshness. Must run BEFORE the smokes regenerate the files: each
# committed artifact has to carry the schema version its writer source
# currently writes. Columns: artifact, writer source, perf_smoke flag that
# regenerates it.
while read -r artifact writer flag; do
  echo "==> $artifact schema freshness"
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
BENCH_kernels.json crates/bench/src/bin/perf_smoke.rs
BENCH_scale.json crates/bench/src/bin/perf_smoke.rs --scale
BENCH_serve.json crates/bench/src/serve_bench.rs --serve
BENCH_distsim.json crates/bench/src/distsim_bench.rs --distsim
BENCH_scenario.json crates/bench/src/scenario_bench.rs --scenario
ARTIFACTS

echo "==> perf smoke (scratch/parallel/cursor kernels bit-identical; maintainers equal scratch, NSF + forwarding with strictly fewer counted touches than rebuilds, cores with no more; timings to BENCH_csr.json + BENCH_kernels.json)"
cargo run -p csn-bench --release --offline --quiet --bin perf_smoke

echo "==> scale smoke (small-n: streamed CSR + sampled-kernel ε-gates; committed BENCH_scale.json untouched)"
cargo run -p csn-bench --release --offline --quiet --bin perf_smoke -- \
  --scale --scale-nodes 20000 --scale-out target/BENCH_scale_check.json

echo "==> serve smoke (small-n: landmark sandwich + exact-fallback + batched==serial + trace replay; committed BENCH_serve.json untouched)"
cargo run -p csn-bench --release --offline --quiet --bin perf_smoke -- \
  --serve --serve-nodes 4000 --serve-out target/BENCH_serve_check.json

echo "==> distsim smoke (small-n: parallel rounds bitwise == serial for flood/BF/MIS/CDS + faulted determinism; committed BENCH_distsim.json untouched)"
cargo run -p csn-bench --release --offline --quiet --bin perf_smoke -- \
  --distsim --distsim-nodes 2000 --distsim-out target/BENCH_distsim_check.json

echo "==> scenario smoke (small-n: grid==naive contact detection, trace well-formedness, slice DTN == EG DTN, pub-sub + hypercube under faults; committed BENCH_scenario.json untouched)"
cargo run -p csn-bench --release --offline --quiet --bin perf_smoke -- \
  --scenario --scenario-nodes 220 --scenario-pubsub-nodes 3000 \
  --scenario-out target/BENCH_scenario_check.json

echo "==> benchmark package (its own fmt, clippy, tests and a smoke run of all five workloads, built against the library API)"
bash benchmark/check.sh

echo "OK: fmt, clippy, doc, test, perf smoke, scale smoke, serve smoke, distsim smoke, scenario smoke, benchmark all clean"
