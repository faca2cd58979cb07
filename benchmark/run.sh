#!/usr/bin/env bash
# Builds the ladder offline, then runs it.
# Every argument goes to `ffw-ladder run`, e.g.
#   benchmark/run.sh                                   # all five workloads, one record
#   benchmark/run.sh --workload serial-512 --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory.
target="$(realpath -m "${CARGO_TARGET_DIR:-$here/target}")"
CARGO_TARGET_DIR="$target" cargo build --release --offline \
    --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/ffw-ladder" run "$@"
