#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
#   benchmark/run.sh compare <a.jsonl> <b.jsonl>
#   benchmark/run.sh list
#
# Run from the root of the checkout. Build products go to
# $CARGO_TARGET_DIR, or .bench_build when that is unset; nothing else is
# written unless --out names a file.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"

# Quiet on success; cargo's diagnostics on failure (and a non-zero exit,
# e.g. where the repository the benchmark measures is not around it).
if ! log="$(cargo build --release --offline --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" 2>&1)"; then
    printf '%s\n' "$log" >&2
    exit 1
fi

exec "$target/release/benchmark" "$@"
