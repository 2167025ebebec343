#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it.
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# See perfbench/README.md for the workloads, metrics and output.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no simulator sources here (dune-project, lib/ missing)" >&2
  exit 2
fi
dune build --root . ./perfbench/bench.exe 1>&2
mkdir -p .perfbench_out
export OCAML_RUNTIME_EVENTS_DIR=.perfbench_out
exec ./_build/default/perfbench/bench.exe "$@"
