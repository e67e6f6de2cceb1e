#!/usr/bin/env bash
# Build the prophet binary and the benchmark from source, then run one
# benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload emulate_miss --seed 1 --seconds 10 --trace 0
#
# Builds go to $CARGO_TARGET_DIR (default .bench_build); cargo's output
# goes to stderr so stdout carries only the benchmark's result lines.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p prophet-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --prophet "$CARGO_TARGET_DIR/release/prophet" "$@"
