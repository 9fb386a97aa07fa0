#!/usr/bin/env bash
# Build the perf harness from source and run it, passing every argument
# through (see perfbench/README.md).  Run from the repository root.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a funcytuner source tree" >&2
  exit 2
fi

# Keep every file the build and the run write inside the tree: no shared
# dune cache, and temporary files under .perfbench/.
export DUNE_CACHE=disabled
export TMPDIR="$PWD/.perfbench/tmp"
mkdir -p "$TMPDIR"
dune build --root . --display quiet perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
