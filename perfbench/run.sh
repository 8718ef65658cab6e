#!/usr/bin/env bash
# Builds perfbench from the checkout it sits in and runs it with the
# arguments given. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
#
# Every build artifact (Go build cache, temporary files, the binary) stays
# under .bench_build in the checkout, and the toolchain never reaches the
# network: the module has no dependencies beyond the repository itself.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

PERFBENCH_REV=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo none)
export PERFBENCH_REV
exec "$out/perfbench" "$@"
