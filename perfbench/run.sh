#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through (see main.go for the flags and the compare mode).
# Run from the repository root. The Go build cache, temporary files and
# the binary stay under .bench_build/ so nothing is written outside the
# checkout; without the repository's sources next to perfbench/ the build
# fails and the script exits non-zero before printing any result.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
