#!/usr/bin/env bash
# Builds the release workspace (the `procmine` binary under test) and the
# benchmark harness into one target directory, then runs the harness with
# the given arguments. Run it from the repository root:
#
#   bash crates/bench/src/bin/benchmark/run.sh --workload batch-narrow --seed 1 --seconds 12 --trace 0
#
# Build output goes to stderr; the harness's result is the last line of
# stdout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../../../../.." && pwd)
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates/cli ]]; then
    echo "run.sh: $root is not a procmine checkout (no workspace to build)" >&2
    exit 2
fi

# Both builds must share one target directory: the harness finds the
# binary under test next to its own executable.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --workspace --quiet >&2
cargo build --release --manifest-path "$here/Cargo.toml" --quiet >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
