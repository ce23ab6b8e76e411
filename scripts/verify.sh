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
# On a violation the driver shrinks the scenario, leaves a self-contained
# repro (scenario + failure + flight-recorder post-mortem) in target/fuzz/,
# prints its path and exits nonzero.
echo "== fuzz soak (16-pair matrix) =="
cargo run --release -p fuzz -- --matrix --iters 304 --seed 1

# Wide soak: the same differential oracles, but over 8- and 16-rank worlds
# so every scenario exercises the scheduler with real rank multiplexing
# (the narrow soak's 2–4-rank worlds park at most a handful of tasks at a
# time).
echo "== fuzz soak (wide: 8/16-rank worlds) =="
cargo run --release -p fuzz -- --matrix --wide --iters 64 --seed 3

# Crash-recovery gate: a bounded supervised soak — 1–2 scripted crashes per
# scenario resolved against a fault-free baseline's transfer windows, the
# supervisor respawning each victim from its checkpoint, and the
# bit-identical convergence oracle (destination equals the fault-free run,
# every rank returning cleanly) on every scenario.  Violations shrink and
# leave a repro in target/fuzz/ like the differential soak above.
echo "== recovery soak =="
cargo run --release -p fuzz -- --recover --iters 48 --seed 7

# Every gate below runs `repro` and leaves its files in one scratch dir.
tmp="$(mktemp -d -t mc_verify.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT
repro() { cargo run --release -q -p bench --bin repro -- "$@"; }

# Trace-schema gate: a small traced coupled run must export valid JSONL
# (one self-describing object per event) that the checker accepts.
echo "== trace schema =="
repro trace --n 256 --reps 1 --trace-out "$tmp/trace.jsonl"
repro trace-check "$tmp/trace.jsonl"

# Executor gates: a fresh `repro micro` held to the committed
# BENCH_executor.json by bench::gate's table — inspector build and the
# multiblock->chaos duplication build within +25%, reliable wire
# throughput at least 75% of baseline, and the sliding window's >=4x win
# over the stop-and-wait ablation on the simulated sp2 wire.
echo "== executor gates =="
repro micro --out "$tmp/executor.json"
repro gate executor BENCH_executor.json "$tmp/executor.json"

# Scaling gate: the P=256 leg of the scaling curve (inspector build,
# coupled transfer settle, HPF redistribution) held to the committed
# BENCH_scaling.json.  The compared times are *simulated* milliseconds —
# deterministic, so a clean tree reproduces the baseline exactly — plus
# one generous (2x) hold on the inspector's host wall, which is there to
# notice the per-message host path growing a lock or a channel back.
echo "== scaling gate (P=256) =="
repro scaling --procs 256 --out "$tmp/scaling.json"
repro gate scaling BENCH_scaling.json "$tmp/scaling.json"

# Critical-path attribution gate: `repro analyze` reconstructs the causal
# DAG of a traced coupled run, walks the critical path of every transfer,
# and self-checks that the per-phase attribution tiles the end-to-end
# virtual time exactly (exit 1 on residue).  The fresh attribution is then
# trace-diffed against the committed baseline: any taxonomy phase — and
# the combined wire+window_stall transport time in particular — growing
# >25% in critical-path seconds fails the build.  The virtual clock makes
# identical runs bit-identical, so a clean tree diffs to exactly zero.
echo "== critical-path attribution =="
repro analyze --n 4096 --reps 2 --out "$tmp/attribution.json"
repro trace-diff BENCH_critical_path.json "$tmp/attribution.json" --threshold 0.25

echo "verify: all checks passed"
