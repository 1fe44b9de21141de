#!/usr/bin/env bash
# Builds the shipped server and the benchmark client from source, then runs
# the client with the given arguments:
#
#   bash servebench/run.sh --workload hit-serial --seed 1 --seconds 10 --trace 0
#
# Run from the repository root.  Build output goes to $CARGO_TARGET_DIR
# (default: target); traced runs write their spans under it.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --manifest-path Cargo.toml -p annot-service --bin annot_serve >&2
cargo build --release --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" \
    --server "$CARGO_TARGET_DIR/release/annot_serve" \
    --spans "$CARGO_TARGET_DIR/servebench" \
    "$@"
