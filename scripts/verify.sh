#!/usr/bin/env bash
# Full offline verification: build, test, lint, docs.  No network access
# needed — the workspace has zero crates.io dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc gate: every intra-doc link must resolve, so a deleted or renamed
# API cannot leave a dangling reference behind in the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Fault-injection gate: the fault matrix drives every injector kind through
# the coupled transfer, plus the transactional-transfer suite (stale
# schedules, manifest mismatches, mid-transfer crashes, idempotent retries).
# Each seed runs in its own process via MC_FAULT_SEED so one seed's failure
# pinpoints the seed.
for seed in 11 42 20260805; do
  echo "== fault matrix / robustness, seed $seed =="
  MC_FAULT_SEED=$seed cargo test --test fault_matrix -q
  MC_FAULT_SEED=$seed cargo test --test robustness -q
done

# Fuzz gate: a bounded differential soak with fixed seeds — ~300 scenarios
# round-robined across all 16 library pairs, each checked against the
# serial schedule oracle, a serial memory model, and a virtual-clock deadline.
# On a violation the driver shrinks the scenario and leaves a self-contained
# repro (scenario + failure + flight-recorder post-mortem) in target/fuzz/.
echo "== fuzz soak (16-pair matrix) =="
cargo run --release -p fuzz -- --matrix --iters 304 --seed 1 || {
  echo "fuzz gate: oracle violation — see repro under target/fuzz/" >&2
  exit 1
}

# Wide soak: the same differential oracles, but over 8- and 16-rank worlds
# so every scenario exercises the cooperative M:N scheduler with real rank
# multiplexing (the narrow soak's 2–4-rank worlds park at most a handful of
# green tasks at a time).
echo "== fuzz soak (wide: 8/16-rank worlds) =="
cargo run --release -p fuzz -- --matrix --wide --iters 64 --seed 3 || {
  echo "wide fuzz gate: oracle violation — see repro under target/fuzz/" >&2
  exit 1
}

# Crash-recovery gate: a bounded supervised soak — 1–2 scripted crashes per
# scenario resolved against a fault-free baseline's transfer windows, the
# supervisor respawning each victim from its checkpoint, and the
# bit-identical convergence oracle (destination equals the fault-free run,
# every rank returning cleanly) on every scenario.  Violations shrink and
# leave a repro in target/fuzz/ like the differential soak above.
echo "== recovery soak =="
cargo run --release -p fuzz -- --recover --iters 48 --seed 7 || {
  echo "recovery gate: oracle violation — see repro under target/fuzz/" >&2
  exit 1
}

# Trace-schema gate: a small traced coupled run must export valid JSONL
# (one self-describing object per event) that the checker accepts.
trace_tmp="$(mktemp -t mc_trace.XXXXXX.jsonl)"
trap 'rm -f "$trace_tmp"' EXIT
echo "== trace schema =="
cargo run --release -p bench --bin repro -- trace --n 256 --reps 1 --trace-out "$trace_tmp"
cargo run --release -p bench --bin repro -- trace-check "$trace_tmp"

# Inspector-regression gate: re-run `repro micro` and compare the
# cooperation build time against the checked-in baseline.  The baseline is
# saved BEFORE the run because `repro micro` rewrites BENCH_executor.json in
# place; the baseline file is restored afterwards so verify never dirties
# the tree.  Fails on >25% regression; a faster run always passes.
echo "== inspector regression =="
extract_ns() {
  # BENCH_executor.json is one line; grab the first inspector_build_ns value.
  sed -n 's/.*"inspector_build_ns": \([0-9.]*\).*/\1/p' "$1" | head -n 1
}
baseline_json="$(mktemp -t mc_baseline.XXXXXX.json)"
trap 'rm -f "$trace_tmp" "$baseline_json"' EXIT
cp BENCH_executor.json "$baseline_json"
baseline_ns="$(extract_ns "$baseline_json")"
if [ -z "$baseline_ns" ]; then
  echo "inspector gate: no inspector_build_ns in baseline BENCH_executor.json" >&2
  exit 1
fi
extract_field() {
  sed -n "s/.*\"$2\": \([0-9.]*\).*/\1/p" "$1" | head -n 1
}
baseline_rel="$(extract_field "$baseline_json" reliable_mb_per_s)"
# The length-1 duplication path (cached located runs, bulk wire records):
# the multiblock->chaos pair's dup_build_ns, nested after its coop_build_ns.
dup_key='multiblock->chaos": {"coop_build_ns": [0-9.]*, "dup_build_ns'
baseline_dup="$(extract_field "$baseline_json" "$dup_key")"
cargo run --release -p bench --bin repro -- micro
current_ns="$(extract_ns BENCH_executor.json)"
current_dup="$(extract_field BENCH_executor.json "$dup_key")"
current_rel="$(extract_field BENCH_executor.json reliable_mb_per_s)"
current_speedup="$(extract_field BENCH_executor.json window_speedup)"
cp "$baseline_json" BENCH_executor.json
hold_ns() { # label baseline current: fail above +25%
  awk -v what="$1" -v base="$2" -v cur="$3" 'BEGIN {
    limit = base * 1.25
    printf "%s: %.0f ns (baseline %.0f ns, limit %.0f ns)\n", what, cur, base, limit
    exit !(base > 0 && cur > 0 && cur <= limit)
  }'
}
hold_ns "inspector build" "$baseline_ns" "$current_ns" || {
  echo "inspector gate: inspector_build_ns regressed >25% vs baseline" >&2
  exit 1
}
hold_ns "multiblock->chaos dup build" "$baseline_dup" "$current_dup" || {
  echo "inspector gate: inspector_pairs.multiblock->chaos.dup_build_ns regressed >25% vs baseline" >&2
  exit 1
}

# Wire-throughput regression gate: the reliable transport leg must hold at
# least 75% of the committed baseline throughput (higher is always fine),
# and the sliding window must keep its >=4x win over the stop-and-wait
# ablation on the simulated sp2 wire.
echo "== wire throughput regression =="
if [ -z "$baseline_rel" ] || [ -z "$current_rel" ]; then
  echo "wire gate: no reliable_mb_per_s in BENCH_executor.json" >&2
  exit 1
fi
awk -v base="$baseline_rel" -v cur="$current_rel" 'BEGIN {
  floor = base * 0.75
  printf "reliable wire: %.0f MB/s (baseline %.0f MB/s, floor %.0f MB/s)\n", cur, base, floor
  exit !(cur >= floor)
}' || {
  echo "wire gate: reliable_mb_per_s regressed >25% vs baseline" >&2
  exit 1
}
awk -v s="$current_speedup" 'BEGIN {
  printf "window speedup: %.2fx (floor 4.00x)\n", s
  exit !(s >= 4.0)
}' || {
  echo "wire gate: windowed transport lost its 4x margin over stop-and-wait" >&2
  exit 1
}

# Scaling gate: a P=256 leg of the M:N-runner scaling curve (inspector
# build, coupled transfer settle, HPF redistribution) re-run fresh and
# held against the committed BENCH_scaling.json.  The compared times are
# *simulated* milliseconds — deterministic, so a clean tree reproduces
# the baseline exactly and the +25% threshold only trips on a real
# change to the machine model, the collectives, the inspector, or what
# the HPF adapter charges and announces for a CYCLIC dereference.
echo "== scaling smoke (P=256) =="
scaling_tmp="$(mktemp -t mc_scaling.XXXXXX.json)"
trap 'rm -f "$trace_tmp" "$baseline_json" "$scaling_tmp"' EXIT
cargo run --release -p bench --bin repro -- scaling --procs 256 --out "$scaling_tmp"
for metric in p256_inspector_virtual_ms p256_transfer_virtual_ms p256_redist_virtual_ms; do
  base="$(extract_field BENCH_scaling.json "$metric")"
  cur="$(extract_field "$scaling_tmp" "$metric")"
  if [ -z "$base" ] || [ -z "$cur" ]; then
    echo "scaling gate: missing $metric in baseline or fresh run" >&2
    exit 1
  fi
  awk -v base="$base" -v cur="$cur" -v m="$metric" 'BEGIN {
    limit = base * 1.25
    printf "%s: %.3f ms (baseline %.3f ms, limit %.3f ms)\n", m, cur, base, limit
    exit !(cur <= limit)
  }' || {
    echo "scaling gate: $metric regressed >25% vs BENCH_scaling.json" >&2
    exit 1
  }
done

# Critical-path attribution gate: `repro analyze` reconstructs the causal
# DAG of a traced coupled run, walks the critical path of every transfer,
# and self-checks that the per-phase attribution tiles the end-to-end
# virtual time exactly (exit 1 on residue).  The fresh attribution is then
# trace-diffed against the committed baseline: any taxonomy phase — and
# the combined wire+window_stall transport time in particular — growing
# >25% in critical-path seconds fails the build.  The virtual clock makes
# identical runs bit-identical, so a clean tree diffs to exactly zero.
echo "== critical-path attribution =="
attr_tmp="$(mktemp -t mc_attr.XXXXXX.json)"
trap 'rm -f "$trace_tmp" "$baseline_json" "$scaling_tmp" "$attr_tmp"' EXIT
cargo run --release -p bench --bin repro -- analyze --n 4096 --reps 2 --out "$attr_tmp"
echo "== trace-diff vs baseline =="
cargo run --release -p bench --bin repro -- trace-diff BENCH_critical_path.json "$attr_tmp" --threshold 0.25 || {
  echo "trace-diff gate: critical-path attribution regressed vs BENCH_critical_path.json" >&2
  exit 1
}

echo "verify: all checks passed"
