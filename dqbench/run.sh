#!/usr/bin/env bash
# Builds the scenario-serving daemon and the benchmark from source, then
# runs one workload. From the repository root:
#
#   bash dqbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default: target/); cargo's own
# messages go to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p dynaquar-serve >&2
cargo build --release --offline --quiet --manifest-path dqbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/dqbench" \
    --serve-bin "$CARGO_TARGET_DIR/release/dynaquar-serve" "$@"
