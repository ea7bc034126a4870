#!/usr/bin/env bash
# Full local gate: everything CI would run, in dependency order.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# benchmark/ is its own cargo workspace, so the workspace build above
# never compiles it; build it here so a crate API change cannot break
# the benchmark unnoticed.
echo "==> cargo build --release --offline --manifest-path benchmark/Cargo.toml"
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy --workspace --all-targets --all-features -- -D warnings"
cargo clippy --workspace --all-targets --all-features -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test --workspace"
cargo test --workspace --quiet

# Allocation gate: the zero-copy scan path must stay O(1) allocations
# per batch (zero for well-formed steady state). Runs in its own
# process because the counting global allocator is process-wide.
echo "==> allocation regression (zero-copy scan path)"
cargo test --quiet --test alloc_regression

# Chaos soaks across the CI fault-seed matrix: every seed drives a
# deterministic fault-injected run — distribution faults must still
# converge, ingestion faults must be quarantined without losing recall.
CHAOS_SEEDS="${CHAOS_SEEDS:-1,2,3,4,5}"
echo "==> chaos soak (seeds ${CHAOS_SEEDS})"
CHAOS_SEEDS="$CHAOS_SEEDS" cargo test --quiet --test chaos

echo "==> ingest chaos soak (seeds ${CHAOS_SEEDS})"
CHAOS_SEEDS="$CHAOS_SEEDS" cargo test --quiet --test ingest_chaos

echo "==> net chaos soak (seeds ${CHAOS_SEEDS})"
CHAOS_SEEDS="$CHAOS_SEEDS" cargo test --quiet --test net_chaos

# Crash-recovery soak: the WAL-backed state store and the device's
# snapshot vault against the full disk-fault taxonomy — seeded sick-disk
# runs plus the crash matrix (every mutating I/O point x
# before/torn/after), with recovered WAL state required to be an exact
# prefix of the applied operation stream and a restored vault to hold
# the old generation or the new one in full.
DISK_SEEDS="${DISK_SEEDS:-1,2,3,4,5}"
echo "==> disk crash-recovery soak (seeds ${DISK_SEEDS})"
DISK_SEEDS="$DISK_SEEDS" cargo test --quiet --test disk_chaos

# Semantic analyze gate: generate two consecutive signature generations
# and require the analyzer to prove the shipped set free of dead/FP
# signatures (exit 1 on any proved finding fails the gate via set -e),
# then exercise the generation diff between them.
echo "==> analyze gate"
ANALYZE_DIR="$(mktemp -d)"
trap 'rm -rf "$ANALYZE_DIR"' EXIT
CLI=target/release/leaksig-cli
"$CLI" market --out "$ANALYZE_DIR/cap1.lsc" --device "$ANALYZE_DIR/dev1.txt" --seed 42 --scale 0.02
"$CLI" market --out "$ANALYZE_DIR/cap2.lsc" --device "$ANALYZE_DIR/dev2.txt" --seed 43 --scale 0.02
"$CLI" generate --capture "$ANALYZE_DIR/cap1.lsc" --device "$ANALYZE_DIR/dev1.txt" --out "$ANALYZE_DIR/gen1.txt" --n 120
"$CLI" generate --capture "$ANALYZE_DIR/cap2.lsc" --device "$ANALYZE_DIR/dev2.txt" --out "$ANALYZE_DIR/gen2.txt" --n 120
"$CLI" analyze --sigs "$ANALYZE_DIR/gen1.txt"
"$CLI" analyze --sigs "$ANALYZE_DIR/gen2.txt"
"$CLI" analyze --diff "$ANALYZE_DIR/gen1.txt" --new "$ANALYZE_DIR/gen2.txt"

echo "==> bench smoke"
scripts/bench.sh --smoke

echo "All checks passed."
