#!/usr/bin/env bash
# Entry point for BENCHMARK.json: builds the benchmark from source inside the
# checkout and runs it. Everything the go tool writes (build cache, module
# cache, telemetry) is kept under .bench_build, so a run touches nothing
# outside the checkout. By hand, `go run ./bench ...` does the same.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f bench/main.go ]; then
	echo "bench/run.sh: run from the root of a checkout of the module (no go.mod here)" >&2
	exit 2
fi
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
# With a fresh config directory the go command forks a detached telemetry
# child that outlives it; mode "off" makes telemetry.Start return before it.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
