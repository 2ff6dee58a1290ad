#!/usr/bin/env bash
# Builds the structura benchmark from source (release, offline) and runs it
# with the given arguments; see benchmark/README.md.
#
#   benchmark/run.sh --workload serve-mixed --seed 1 --seconds 10 --trace 0
#   benchmark/run.sh                                  # all five workloads
#   benchmark/run.sh --repeat 10 --out DIR [--against OTHER_EXE]
#
# Paths in the arguments are relative to the repository root. The build
# goes to $CARGO_TARGET_DIR when set, else benchmark/target.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/structura-bench" "$@"
