#!/usr/bin/env bash
# Runs one benchmark workload from the root of a repository checkout:
#
#   bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 20 --trace 0
#
# It builds resolved and the benchmark from the checkout's sources into
# .bench_build/, with Go's caches there too so that nothing is written
# outside the checkout, then runs the benchmark. The last line the
# benchmark prints is the run's result as one JSON object.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/resolved || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a repository checkout (needs go.mod, cmd/resolved and perfbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/resolved" ./cmd/resolved
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
