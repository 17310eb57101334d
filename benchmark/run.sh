#!/bin/sh
# Build sosctl and sosbench from source, then run sosbench from the
# repository root (sosbench finds sosctl and writes .sosbench/ there).
#
#   sh benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   sh benchmark/run.sh run [--seed N] [--seconds S]
#
# Build output goes to stderr; the last stdout line is sosbench's result.
# The dune cache is off and TMPDIR points into .sosbench/, so building and
# running write nothing outside the checkout.
set -e
cd "$(dirname "$0")/.."
mkdir -p .sosbench/tmp
export TMPDIR="$PWD/.sosbench/tmp"
dune build --root . --cache=disabled bin/sosctl/sosctl.exe benchmark/sosbench.exe 1>&2
exec ./_build/default/benchmark/sosbench.exe "$@"
