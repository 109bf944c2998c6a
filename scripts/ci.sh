#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the tier-1 verify
# (ROADMAP.md). Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== tier-1 verify: build =="
cargo build --release

echo "== tier-1 verify: tests =="
cargo test -q

echo "== checker smoke (correctness oracle) =="
cargo run --release --example checker_smoke

echo "== build determinism =="
cargo run --release --example det_check

echo "== staged-session equivalence =="
cargo run --release --example session_check

echo "== trace-engine equivalence (fast path vs slow step) =="
cargo run --release --example trace_equiv_check

echo "== campaign smoke (cold + warm, tiny knobs) =="
CAMPAIGN_DIR="$(mktemp -d)"
trap 'rm -rf "$CAMPAIGN_DIR"' EXIT
export DT_SYNTH_N=4 DT_FUZZ_ITERS=8
cold_summary="$(cargo run --release -p experiments --bin all_experiments -- \
  --results "$CAMPAIGN_DIR" --quiet | tail -n 1)"
echo "cold: $cold_summary"
grep -q " failed=0 " <<<"$cold_summary"
warm_summary="$(cargo run --release -p experiments --bin all_experiments -- \
  --results "$CAMPAIGN_DIR" --quiet | tail -n 1)"
echo "warm: $warm_summary"
grep -q " ran=0 " <<<"$warm_summary"
grep -q " failed=0 " <<<"$warm_summary"
unset DT_SYNTH_N DT_FUZZ_ITERS

echo "== benchmark determinism (tuner counters vs crate-by-crate re-drive) =="
cargo test --release --manifest-path dtbench/Cargo.toml

echo "CI green."
