#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout, then runs it.
# Usage: bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last stdout line is the JSON result.
# The shared dune cache is off so that nothing is written outside the
# checkout.
set -euo pipefail
command -v dune >/dev/null || eval "$(opam env)"
export DUNE_CACHE=disabled
dune build --root . ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
