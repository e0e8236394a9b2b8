#!/usr/bin/env bash
# Entry point of the repository benchmark (BENCHMARK.json).  Run from the
# repository root:
#   bash perfbench/run.sh --workload partition_seq --seed 1 --seconds 30 --trace 0
# Builds the benchmark from source with dune, then runs it with the given
# arguments.  Build output goes to stderr; the last stdout line is the
# result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ]; then
  echo "perfbench: not inside the repository (no dune-project)" >&2
  exit 2
fi
dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
