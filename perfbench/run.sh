#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload torus-pareto --seed 1 --seconds 10 --trace 0
#
# Every build artefact, cache and trace stays under .bench_build/ at the
# root of the checkout; the traced run reads its CPU profiles back with
# the same go toolchain. The last line of standard output is the JSON
# result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/home"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	PPROF_TMPDIR="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" --out "$out/trace" "$@"
