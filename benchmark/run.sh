#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes stays
# inside the checkout: the Go build cache and the binary under .bench_build/,
# repetition directories and traces under benchmark/out/.
#
#   bash benchmark/run.sh --workload run-clean --seed 7 --seconds 20 --trace 0
#   bash benchmark/run.sh                  # every workload; see README.md
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/campaign" ]; then
	echo "benchmark: $root is not a checkout of the mfc module; nothing to measure" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/mfc-benchmark" .)
exec "$build/mfc-benchmark" -dir "$here" "$@"
