#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it with the
# given arguments:
#
#   bash separbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result.  Without the library sources next to it the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail
dune build --root . --display quiet ./separbench/main.exe 1>&2
exec ./_build/default/separbench/main.exe "$@"
