#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's source and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload fig6-tpch --seed 42 --seconds 35 --trace 0
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the module cache, temp dirs and the binary.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
