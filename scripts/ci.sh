#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the tier-1 verify
# (ROADMAP.md). Run from anywhere inside the repo. Workspace cargo
# commands run `--locked`, so a stale Cargo.lock fails the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy (-D warnings) =="
cargo clippy --locked --workspace --all-targets --release -- -D warnings

# Broken intra-doc links (say, to a deleted item) fail the gate.
echo "== rustdoc (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --locked --workspace --no-deps

echo "== tier-1 verify: build =="
cargo build --locked --release

echo "== tier-1 verify: tests =="
cargo test --locked -q

# --include-ignored adds the heavy pinned sweeps (build determinism and
# staged-session equivalence over every shipped gate shape).
echo "== workspace unit and integration tests (every crate, ignored sweeps included) =="
cargo test --locked --workspace --release -q -- --include-ignored

echo "== campaign smoke (cold + warm + second cold, tiny knobs) =="
CAMPAIGN_DIR="$(mktemp -d)"
SECOND_DIR="$(mktemp -d)"
LOG_DIR="$(mktemp -d)"
trap 'rm -rf "$CAMPAIGN_DIR" "$SECOND_DIR" "$LOG_DIR"' EXIT
export DT_SYNTH_N=4 DT_FUZZ_ITERS=8
cold_summary="$(cargo run --locked --release -p experiments --bin all_experiments -- \
  --results "$CAMPAIGN_DIR" --quiet --jobs 2 2>"$LOG_DIR/cold.err" | tail -n 1)"
echo "cold: $cold_summary"
grep -q " failed=0 " <<<"$cold_summary"
warm_summary="$(cargo run --locked --release -p experiments --bin all_experiments -- \
  --results "$CAMPAIGN_DIR" --quiet | tail -n 1)"
echo "warm: $warm_summary"
grep -q " ran=0 " <<<"$warm_summary"
grep -q " failed=0 " <<<"$warm_summary"
# A second cold campaign, on one worker instead of two, must reproduce
# every results/*.txt byte for byte: the run memo and the parallel
# kernel map may not make results depend on scheduling.
second_summary="$(cargo run --locked --release -p experiments --bin all_experiments -- \
  --results "$SECOND_DIR" --quiet --jobs 1 2>"$LOG_DIR/second.err" | tail -n 1)"
echo "second cold: $second_summary"
grep -q " failed=0 " <<<"$second_summary"
diff -r -x .cache "$CAMPAIGN_DIR" "$SECOND_DIR"
# Nor may the tuner's counters: the two cold campaigns' EvalStats JSON
# lines must be equal once the wall-clock (*_ms) fields are dropped.
counters() {
  grep '^{"threads":' "$1" | python3 -c '
import json, sys
(line,) = sys.stdin.read().splitlines()
stats = json.loads(line)
print(json.dumps({k: v for k, v in stats.items() if not k.endswith("_ms")}, sort_keys=True))'
}
cold_counters="$(counters "$LOG_DIR/cold.err")"
second_counters="$(counters "$LOG_DIR/second.err")"
echo "counters: $cold_counters"
if [ "$cold_counters" != "$second_counters" ]; then
  echo "tuner counters differ between --jobs 2 and --jobs 1:"
  echo "  --jobs 2: $cold_counters"
  echo "  --jobs 1: $second_counters"
  exit 1
fi
unset DT_SYNTH_N DT_FUZZ_ITERS

echo "== benchmark determinism (tuner counters vs crate-by-crate re-drive) =="
cargo test --release --manifest-path dtbench/Cargo.toml

echo "CI green."
