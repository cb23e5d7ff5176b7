#!/usr/bin/env bash
# Build `hg` and the benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Run from the root of the repository. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); generated inputs and span
# files go to $CARGO_TARGET_DIR/release/perfbench-work.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p hgcli --bin hg >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
