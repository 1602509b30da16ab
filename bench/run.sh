#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout this script sits in and
# runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload warm-hits --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) goes under .bench_build/ at the checkout root, and the build
# never fetches anything: the module needs only the repository's own
# packages.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS= GOPROXY=off
go -C "$root/bench" build -o "$out/hetopt-bench" .
exec "$out/hetopt-bench" "$@"
