#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given
# arguments.  Run from the repository root:
#   bash perfbench/run.sh --workload hot-rmw --seed 1 --seconds 40 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
