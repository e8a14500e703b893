#!/usr/bin/env bash
# Builds the release `dynslice` binary and the benchmark harness from the
# checkout this script sits in, then runs the harness with the given
# arguments (`--workload NAME --seed N --seconds S --trace 0|1`).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates/core ]]; then
  echo "perfbench: $root is not a dynslice checkout (no Cargo.toml / crates/core)" >&2
  exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p dynslice --bin dynslice >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/dynslice" "$@"
