#!/usr/bin/env bash
# Builds the benchmark and the gefin binary from this checkout (once, and
# again whenever a Go source or go.mod is newer than the binaries), then
# runs one benchmark invocation with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload latent --seed 1 --seconds 15 --trace 0
#
# Every build and run artifact stays under .bench_build at the checkout
# root: the Go build cache, the binaries, and the runs' scratch state.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac

export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$build/bin" "$build/tmp"

bench="$build/bin/perfbench"
gefin="$build/bin/gefin"
stale=
if [ ! -x "$bench" ] || [ ! -x "$gefin" ]; then
	stale=1
elif [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bench" -print -quit)" ]; then
	stale=1
fi
if [ -n "$stale" ]; then
	(cd "$here" && go build -o "$bench.tmp" . && go build -o "$gefin" mbusim/cmd/gefin && mv "$bench.tmp" "$bench") >&2
fi

exec "$bench" -bin "$build/bin" -workdir "$build/work" "$@"
