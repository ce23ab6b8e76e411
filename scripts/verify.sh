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

# AddressSanitizer leg: every unit and integration test again, built with
# ASan on the nightly toolchain into its own target dir, so the `unsafe`
# in `mcsim::sched` and `mcsim::wire` runs under a memory checker.  No
# nightly means this step fails; it never skips.  The task switch carries
# no fiber annotations, so ASan's "False positive error reports may
# follow" warning about the task stacks is expected.
RUSTFLAGS="-Zsanitizer=address" CARGO_TARGET_DIR=target/asan \
  cargo +nightly test --workspace --lib --tests --target x86_64-unknown-linux-gnu -q

# Benchmark lint: the benchmark is a workspace of its own that builds
# against the libraries' public API, so an item it uses that is deleted or
# renamed fails here, not only in the benchmark pipeline.  Its run.sh is
# its only entry point: fmt, clippy, unit tests, BENCHMARK.json up to date.
bash benchmark/run.sh --lint

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

# Perturbed leg: the same 304 scenarios, every world run with the
# scheduler's equal-time ties in the order perturbation seed 1 hashes
# (World::with_perturb_seed) instead of rank order — a second interleaving
# under the same oracles, none of which reads the clock.  A failure prints
# and records its perturbation seed, so `--seed 1 --perturb 1` or the
# repro file replays it.
echo "== fuzz soak (16-pair matrix, perturbed schedule) =="
cargo run --release -p fuzz -- --matrix --iters 304 --seed 1 --perturb 1

# Wide soak: the same differential oracles, but over 8- and 16-rank worlds
# so every scenario exercises the scheduler with real rank multiplexing
# (the narrow soak's 2–4-rank worlds park at most a handful of tasks at a
# time).
echo "== fuzz soak (wide: 8/16-rank worlds) =="
cargo run --release -p fuzz -- --matrix --wide --iters 64 --seed 3
echo "== fuzz soak (wide, perturbed schedule) =="
cargo run --release -p fuzz -- --matrix --wide --iters 64 --seed 3 --perturb 1

# Crash-recovery gate: a bounded supervised soak — 1–2 scripted crashes per
# scenario resolved against a fault-free baseline's transfer windows, the
# supervisor respawning each victim from its checkpoint, and the
# bit-identical convergence oracle (destination equals the fault-free run,
# every rank returning cleanly) on every scenario.  Violations shrink and
# leave a repro in target/fuzz/ like the differential soak above.
echo "== recovery soak =="
cargo run --release -p fuzz -- --recover --iters 48 --seed 7
# The same 48 scenarios under the perturbed tie-break: restarts drive the
# window's clear_dead, purge_peer and give-up paths in a second order.
echo "== recovery soak (perturbed schedule) =="
cargo run --release -p fuzz -- --recover --iters 48 --seed 7 --perturb 1

# Every step below leaves its outputs in one scratch dir; the gates run `repro`.
tmp="$(mktemp -d -t mc_verify.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT
repro() { cargo run --release -q -p bench --bin repro -- "$@"; }

# Fuzz canary: the soaks above only count if they can fail.  A build with
# `--cfg fuzz_canary` (its own target dir) re-breaks run coalescing in
# meta-chaos/src/runs.rs; the differential soak must catch it, exit 1 and
# leave a shrunk repro.  Exit 0 means the canary went unnoticed, and any
# other code (a build failure exits 101) is no verdict; both fail here.
echo "== fuzz canary =="
canary=0
RUSTFLAGS="--cfg fuzz_canary" CARGO_TARGET_DIR=target/canary \
  cargo run --release -q -p fuzz -- --iters 200 --seed 1 --out "$tmp/canary" || canary=$?
if [ "$canary" -ne 1 ] || ! compgen -G "$tmp/canary/repro-*.json" >/dev/null; then
  echo "verify: fuzz canary not caught (exit $canary, no repro in $tmp/canary)" >&2
  exit 1
fi

# Trace-schema gate: a small traced coupled run must export valid JSONL
# (one self-describing object per event) that the checker accepts.
echo "== trace schema =="
repro trace --n 256 --reps 1 --trace-out "$tmp/trace.jsonl"
repro trace-check "$tmp/trace.jsonl"

# Scaling gate: the P=256 leg of the scaling curve (inspector build,
# coupled transfer settle, HPF redistribution) and the sliding window's
# speed-up over stop-and-wait on the simulated sp2 wire, held to the
# committed BENCH_scaling.json.  Those four are virtual-clock numbers,
# held exactly.  One generous (2x) hold on the inspector's host wall is
# there to notice the per-message host path growing a lock or a channel
# back.
echo "== scaling gate (P=256) =="
repro scaling --procs 256 --out "$tmp/scaling.json"
repro gate scaling BENCH_scaling.json "$tmp/scaling.json"

# Paper gate: every cell of Tables 1-5, Figures 10-15 and the ablations,
# and the allocations and bytes each section of the sweep asked for, swept
# three times (exit 1 unless identical) and held to the committed
# BENCH_paper.json with exact equality — cells and work are both
# deterministic, so any drift names the cells or the work leaves it moved.
echo "== paper gate (exact) =="
repro paper --out "$tmp/paper.json"
repro gate paper BENCH_paper.json "$tmp/paper.json"

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
