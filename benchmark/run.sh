#!/usr/bin/env bash
# Build the benchmark crate and run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   (the driver contract)
#   benchmark/run.sh run|trace|check [--seed N] [--seconds S]
#   benchmark/run.sh --lint     fmt + clippy + unit tests + BENCHMARK.json up to date
#
# The crate is a workspace of its own (root Cargo.toml, Cargo.lock and
# scripts/verify.sh never see it), so this script is its only entry point.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
manifest=benchmark/Cargo.toml

if [[ "${1:-}" == "--lint" ]]; then
    cargo fmt --manifest-path "$manifest" --check
    cargo clippy --offline --release --manifest-path "$manifest" --all-targets -- -D warnings
    cargo test --offline --release --manifest-path "$manifest" -q
    cargo run --offline --release -q --manifest-path "$manifest" -- manifest | diff - BENCHMARK.json
    echo "lint: ok"
    exit 0
fi

cargo build --offline --release -q --manifest-path "$manifest"
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
