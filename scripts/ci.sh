#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the tier-1 verify
# (ROADMAP.md). Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets --release -- -D warnings

# Broken intra-doc links (say, to a deleted item) fail the gate.
echo "== rustdoc (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== tier-1 verify: build =="
cargo build --release

echo "== tier-1 verify: tests =="
cargo test -q

# --include-ignored adds the heavy pinned sweeps (build determinism and
# staged-session equivalence over every shipped gate shape).
echo "== workspace unit and integration tests (every crate, ignored sweeps included) =="
cargo test --workspace --release -q -- --include-ignored

echo "== campaign smoke (cold + warm + second cold, tiny knobs) =="
CAMPAIGN_DIR="$(mktemp -d)"
SECOND_DIR="$(mktemp -d)"
trap 'rm -rf "$CAMPAIGN_DIR" "$SECOND_DIR"' EXIT
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
# A second cold campaign must reproduce every results/*.txt byte for
# byte: the run memo and the parallel kernel map may not make results
# depend on scheduling.
second_summary="$(cargo run --release -p experiments --bin all_experiments -- \
  --results "$SECOND_DIR" --quiet | tail -n 1)"
echo "second cold: $second_summary"
grep -q " failed=0 " <<<"$second_summary"
diff -r -x .cache "$CAMPAIGN_DIR" "$SECOND_DIR"
unset DT_SYNTH_N DT_FUZZ_ITERS

echo "== benchmark determinism (tuner counters vs crate-by-crate re-drive) =="
cargo test --release --manifest-path dtbench/Cargo.toml

echo "CI green."
