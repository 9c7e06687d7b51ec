#!/usr/bin/env bash
# A/A check: runs the whole suite twice on this commit and compares the
# two results against the benchmark's own bounds. Exits 0 when nothing
# regressed (every sim_* identical, failed ops equal, host metrics
# within their bounds).
#   SEED=42 SECONDS_PER_RUN=25 benchmark/aa.sh
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${SEED:-42}"
seconds="${SECONDS_PER_RUN:-25}"
out=benchmark/results
mkdir -p "$out"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/tsue_benchmark"
"$bin" --seed "$seed" --seconds "$seconds" --out "$out/aa-A.json"
"$bin" --seed "$seed" --seconds "$seconds" --out "$out/aa-B.json"
"$bin" --compare "$out/aa-A.json" "$out/aa-B.json"
