#!/usr/bin/env bash
# Builds the release binaries and the benchmark from source, then runs
# the benchmark with the given arguments from the repository root:
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p bench -p unified-tradeoff --bins >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
# The binaries and the in-process suite run their documented defaults.
for var in $(compgen -e | grep '^REPRO_' || true); do
    unset "$var"
done
export PERFBENCH_BIN="$CARGO_TARGET_DIR/release"
exec "$PERFBENCH_BIN/perfbench" "$@"
