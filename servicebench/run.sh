#!/usr/bin/env bash
# Builds `rd` from the repository's own workspace and the benchmark
# package, then runs one benchmark:
#
#   bash servicebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p rd-server --bin rd 1>&2
cargo build --release --offline --quiet --manifest-path servicebench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/rd-servicebench" --rd "$CARGO_TARGET_DIR/release/rd" "$@"
