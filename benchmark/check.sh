#!/usr/bin/env bash
# Hygiene gate for the benchmark package: formatting, clippy with warnings
# as errors, the crate tests, and a smoke run of all five workloads.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
./run.sh --smoke --seconds 0 > /dev/null
echo "benchmark check: ok"
