#!/usr/bin/env bash
# Build the defacto CLI and the benchmark from this source tree, then run
# the benchmark with the given arguments, e.g.
#   bash bench/perf/run.sh --workload sweep --seed 1 --seconds 12 --trace 0
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result.
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -f bin/defacto.ml ] || [ ! -d lib ]; then
  echo "run.sh: $(pwd) is not a defacto source tree (dune-project, bin/, lib/)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . bin/defacto.exe bench/perf/dse_bench.exe 1>&2
exec ./_build/default/bench/perf/dse_bench.exe "$@"
