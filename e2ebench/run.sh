#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build products (and gcc's temporaries) stay
# under $CARGO_TARGET_DIR, which defaults to .bench_build.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$CARGO_TARGET_DIR/tmp"
export TMPDIR
TMPDIR="$(cd "$CARGO_TARGET_DIR/tmp" && pwd)"
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/frodo-e2ebench" "$@"
