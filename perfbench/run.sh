#!/usr/bin/env bash
# Builds and runs the repository benchmark. Run it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload fig6-full --seed 1 --seconds 55 --trace 0
#   bash perfbench/run.sh compare set-a.jsonl set-b.jsonl
#
# Every build product, Go cache and result file lives under .bench_build in
# the checkout, so a run reads and writes nothing outside it. Without the
# repository's sources next to perfbench/ the build fails and the script
# exits non-zero before printing any result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
