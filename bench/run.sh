#!/usr/bin/env bash
# Builds the serving benchmark and runs it with the given flags, from the root
# of a checkout. The build and the Go toolchain's caches go to .bench_build/,
# so a run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/bench" build -buildvcs=false -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
