#!/usr/bin/env bash
# Profile one single-workload benchmark run with the SIGPROF sampler, then
# fold the samples into self, inclusive and pattern shares.
#
#   scripts/hostprof/run.sh OUT_DIR BENCHMARK_ARGS...
#   scripts/hostprof/run.sh prof-out --workload scale-p128 --seed 1 --seconds 12 --trace 0
#
# Builds the sampler into OUT_DIR and the benchmark as benchmark/run.sh
# does, runs the benchmark binary with the sampler preloaded under the
# benchmark's own GLIBC_TUNABLES (its trial processes inherit both),
# keeps the run's result line in OUT_DIR/result.json, and prints
# fold.py's report over every process that took 100 samples or more.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
out="${1:?usage: scripts/hostprof/run.sh OUT_DIR BENCHMARK_ARGS...}"
shift
mkdir -p "$out"
out="$(cd "$out" && pwd)"
rm -f "$out"/*.frames "$out"/*.maps
cc -shared -fPIC -O2 -o "$out/libhostprof.so" scripts/hostprof/sampler.c
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release -q --manifest-path benchmark/Cargo.toml
GLIBC_TUNABLES=glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=4294967296 \
    HOSTPROF_OUT="$out" LD_PRELOAD="$out/libhostprof.so" \
    "$CARGO_TARGET_DIR/release/benchmark" "$@" | tail -n 1 > "$out/result.json"
python3 scripts/hostprof/fold.py "$out"
