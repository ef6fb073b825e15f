#!/usr/bin/env bash
# Builds the benchmark from source in this checkout, then runs it:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr, so the last line of stdout is the
# result's JSON object. The dune cache is disabled so the build reads and
# writes nothing outside the checkout.
set -u
cd "$(dirname "$0")/.." || exit 1
export DUNE_CACHE=disabled
if ! dune build --root . --profile release ./perfbench/main.exe 1>&2; then
  echo "perfbench: could not build perfbench/main.exe" >&2
  exit 1
fi
exec ./_build/default/perfbench/main.exe "$@"
