#!/usr/bin/env bash
# Builds both benchmark binaries from source and runs the benchmark.
# Usage (from anywhere): bash benchmark/run.sh [--workload <name>] [--seed <n>]
#                        [--seconds <s>] [--trace <0|1>] [--baseline <file>] [--check-noise]
# A relative CARGO_TARGET_DIR is resolved against the caller's directory,
# as cargo itself does.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins
exec "$target/release/benchmark" "$@"
