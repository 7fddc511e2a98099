#!/usr/bin/env bash
# Builds the benchmark and the daemon from source, then runs one workload.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fig4 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory, including the Go build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off
export CGO_ENABLED=0

# The benchmark module replaces the program module with the directory
# above it; without the program's sources this build fails, which is the
# intended outcome when only the benchmark's files are present.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
go build -o "$out/roadrunnerd" ./cmd/roadrunnerd >&2

# Reports name the measured source: a hash of the Go sources, which also
# keys the digests compared across workloads, and the commit when the
# checkout is a git repository.
PERFBENCH_SOURCE="tree:$(find . -path ./.bench_build -prune -o -path ./.git -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)"
if commit=$(git rev-parse --short=12 HEAD 2>/dev/null); then
	PERFBENCH_SOURCE="$PERFBENCH_SOURCE commit:$commit"
fi
export PERFBENCH_SOURCE

exec "$out/perfbench" -daemon "$out/roadrunnerd" -work "$out/work" "$@"
