#!/usr/bin/env bash
# Build `urlid` and the benchmark driver from this checkout, then run one
# benchmark invocation. Run from the repository root:
#
#   bash benchmark/run.sh --workload hot_repeat --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; stdout carries only the benchmark's report,
# whose last line is the JSON result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/serve || ! -f benchmark/Cargo.toml ]]; then
    echo "benchmark/run.sh: run from the root of a urlid checkout" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p urlid-serve --bin urlid >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin urlid-benchmark >&2
exec "$target/release/urlid-benchmark" --urlid "$target/release/urlid" "$@"
