#!/usr/bin/env bash
# Build the pipeline benchmark from source, then run it in this process.
# Run from the repository root; arguments go to main.exe:
#   bash bench/pipeline/run.sh --workload des-fig5 --seed 1 --seconds 25 --trace 0
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run from the repository root (dune-project and lib/ not found)" >&2
  exit 2
fi
dune build --root . --display quiet ./bench/pipeline/main.exe >&2
exec ./_build/default/bench/pipeline/main.exe "$@"
