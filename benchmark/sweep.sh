#!/usr/bin/env bash
# Runs every workload once per seed, untraced, appending one record per
# run to <out>; `benchmark/run.sh compare <out-a> <out-b>` then says
# whether two sweeps agree within the bounds of BENCHMARK.json.
#
#   benchmark/sweep.sh <out.jsonl> [first-seed [runs [seconds]]]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${1:?usage: benchmark/sweep.sh <out.jsonl> [first-seed [runs [seconds]]]}"
first="${2:-1}"
runs="${3:-10}"
seconds="${4:-15}"

for workload in $("$here/run.sh" list); do
    for ((seed = first; seed < first + runs; seed++)); do
        "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace 0 --out "$out" | tail -n 1
    done
done
