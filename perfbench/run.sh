#!/usr/bin/env bash
# Builds the benchmark (and the server it drives) from source, then runs
# it with the given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload paper_flow --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml" --bins >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/adi-perfbench" "$@"
