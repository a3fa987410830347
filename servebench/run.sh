#!/usr/bin/env bash
# Builds the `biorank` server and the benchmark from source, then runs
# the benchmark against that server. Run from the repository root:
#
#   bash servebench/run.sh --workload hot_full --seed 1 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build), and
# only the benchmark's own report reaches standard output; its last
# line is the JSON result.
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -d crates/service ]; then
    echo "servebench: run from the repository root (no Cargo.toml or crates/service here)" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin biorank >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" --server-bin "$CARGO_TARGET_DIR/release/biorank" "$@"
